//! Same-machine benchmark of the eMPTCP workspace.
//!
//! Three closed-loop workloads drive the repository's crates only through
//! their public API (see `NOTES.md` for why each was chosen):
//!
//! * [`fleet`] — `fleet-10k`: the sharded fleet engine (`net`, `tcp`,
//!   `mptcp`, `sim`);
//! * [`sweep`] — `paper-sweep`: serial `host::run` calls, the paper's
//!   evaluation loop (`core`, `energy`, `phy`, `expr`);
//! * [`live`] — `live-loopback`: 64 MiB transfers over localhost UDP
//!   (`live` codec, sockets and reactor).
//!
//! Two binaries share this library. `perfbench` measures the end-to-end
//! metrics with nothing attached. `perfbench-traced` installs
//! [`CountingAlloc`] and wraps the public seams (a timing
//! `ShardExecutor`, a timing `Transport`, a [`CountingSink`]) to produce
//! the per-layer metrics. Every op's output is checked against
//! `pins.txt`; a mismatch counts as a failed op and never aborts the run.

pub mod fleet;
pub mod live;
pub mod micro;
pub mod sweep;

use emptcp_sim::SimTime;
use emptcp_telemetry::{TraceEvent, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Size of every seed pool. The `--seed` argument picks positions in the
/// pools, so any seed maps onto inputs whose outputs are pinned.
pub const POOL: u64 = 16;

/// Command-line options shared by both binaries.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `--write-pins <path>`: regenerate the pin file instead of measuring.
    pub write_pins: Option<String>,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            write_pins: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--write-pins" => args.write_pins = Some(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.write_pins.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }

    /// Wall-clock budget of the timed loop.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

pub const WORKLOADS: [&str; 3] = ["fleet-10k", "paper-sweep", "live-loopback"];

/// Run one workload, print its report and return the process exit code.
pub fn main(traced: bool) -> i32 {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if let Some(path) = &args.write_pins {
        return match write_pins(path) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                1
            }
        };
    }
    let report = match (args.workload.as_str(), traced) {
        ("fleet-10k", false) => fleet::measure(&args),
        ("fleet-10k", true) => fleet::trace(&args),
        ("paper-sweep", false) => sweep::measure(&args),
        ("paper-sweep", true) => sweep::trace(&args),
        ("live-loopback", false) => live::measure(&args),
        (_, _) => live::trace(&args),
    };
    report.print();
    0
}

fn write_pins(path: &str) -> std::io::Result<()> {
    let mut out = String::from(
        "# Pinned output digests: <workload> <input key> <FNV-1a 64 of the output>.\n\
         # Regenerate only on purpose, from the repository root:\n\
         # cargo run --release --manifest-path perfbench/Cargo.toml --bin perfbench -- --write-pins perfbench/pins.txt\n",
    );
    for (workload, key, digest) in fleet::pins().into_iter().chain(sweep::pins()) {
        let _ = writeln!(out, "{workload} {key} {digest}");
        eprintln!("pinned {workload} {key}");
    }
    std::fs::write(path, out)
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// One named measurement with its unit and the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one binary run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output digest per input key, for the traced/untraced comparison.
    pub digests: BTreeMap<String, String>,
    /// Milliseconds per op, by input key, on the clock the workload's
    /// op times use (CPU for `fleet-10k` and `paper-sweep`, wall for
    /// `live-loopback`).
    pub walls: BTreeMap<String, Vec<f64>>,
    /// The same with the counting sink attached, by input key.
    pub traced_walls: BTreeMap<String, Vec<f64>>,
    pub messages: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Count one op. `problem` is `Some` when the op's own checks failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }

    /// Count an op that failed before producing output.
    pub fn fail(&mut self, message: String) {
        self.op(Some(message));
    }

    /// Check an op's output digest against its pin (and against earlier
    /// ops with the same input), recording it for the traced/untraced
    /// comparison. Returns the problem, if any, for [`Report::op`].
    pub fn check_digest(&mut self, key: &str, digest: &str) -> Option<String> {
        let problem = check_pin(&self.workload, key, digest).err().or_else(|| {
            self.digests
                .get(key)
                .filter(|d| *d != digest)
                .map(|d| format!("{key}: digest {digest} differs from an earlier run's {d}"))
        });
        self.digests.insert(key.to_string(), digest.to_string());
        problem
    }

    /// Fold another report of the same workload into this one.
    pub fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
        self.digests.extend(other.digests);
        for (key, walls) in other.walls {
            self.walls.entry(key).or_default().extend(walls);
        }
        for (key, walls) in other.traced_walls {
            self.traced_walls.entry(key).or_default().extend(walls);
        }
    }

    pub fn wall(&mut self, key: &str, ms: f64) {
        self.walls.entry(key.to_string()).or_default().push(ms);
    }

    pub fn traced_wall(&mut self, key: &str, ms: f64) {
        self.traced_walls
            .entry(key.to_string())
            .or_default()
            .push(ms);
    }

    /// Human-readable lines, then the machine-readable last line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "{} {} = {:.6} {} (n={})",
                self.workload, m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{} ops = {} failed_ops = {}",
            self.workload, self.attempted, self.failed
        );
        for msg in &self.messages {
            println!("{} FAILED: {msg}", self.workload);
        }
        println!("{}", self.to_json());
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            json_str(&self.workload),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                if i == 0 { "" } else { "," },
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            );
        }
        s.push_str("},\"digests\":{");
        for (i, (k, d)) in self.digests.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{}",
                if i == 0 { "" } else { "," },
                json_str(k),
                json_str(d)
            );
        }
        for (field, walls) in [("walls", &self.walls), ("traced_walls", &self.traced_walls)] {
            let _ = write!(s, "}},\"{field}\":{{");
            for (i, (k, v)) in walls.iter().enumerate() {
                let list: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
                let _ = write!(
                    s,
                    "{}{}:[{}]",
                    if i == 0 { "" } else { "," },
                    json_str(k),
                    list.join(",")
                );
            }
        }
        s.push_str("},\"messages\":[");
        let msgs: Vec<String> = self.messages.iter().map(|m| json_str(m)).collect();
        s.push_str(&msgs.join(","));
        s.push_str("]}");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------
// Output digests and pins
// ---------------------------------------------------------------------

/// FNV-1a 64 over the `Debug` rendering of an output. `Debug` prints
/// every field, and floats in shortest round-trip form, so two digests
/// are equal exactly when the outputs are.
pub fn digest<T: std::fmt::Debug + ?Sized>(value: &T) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn pins_table() -> &'static BTreeMap<(String, String), String> {
    static PINS: OnceLock<BTreeMap<(String, String), String>> = OnceLock::new();
    PINS.get_or_init(|| parse_pins(include_str!("../pins.txt")))
}

fn parse_pins(text: &str) -> BTreeMap<(String, String), String> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((
                (f.next()?.to_string(), f.next()?.to_string()),
                f.next()?.to_string(),
            ))
        })
        .collect()
}

/// Compare `digest` with the pinned value for `(workload, key)`.
pub fn check_pin(workload: &str, key: &str, digest: &str) -> Result<(), String> {
    check_pin_in(pins_table(), workload, key, digest)
}

fn check_pin_in(
    pins: &BTreeMap<(String, String), String>,
    workload: &str,
    key: &str,
    digest: &str,
) -> Result<(), String> {
    match pins.get(&(workload.to_string(), key.to_string())) {
        Some(p) if p == digest => Ok(()),
        Some(p) => Err(format!("{key}: digest {digest} != pinned {p}")),
        None => Err(format!("{key}: no pinned digest")),
    }
}

// ---------------------------------------------------------------------
// Statistics and timing
// ---------------------------------------------------------------------

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A point on the calling thread's CPU clock: the time the thread has
/// run on a CPU, user and system. Unlike the wall clock it does not
/// advance while the hypervisor runs another tenant on this core (the
/// kernel accounts that as steal time), so a compute-bound op reads the
/// same on a busy host as on an idle one, as long as it stays on one
/// thread.
#[derive(Clone, Copy, Debug)]
pub struct CpuClock(f64);

impl CpuClock {
    pub fn now() -> CpuClock {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call's
        // duration, and the clock id is a constant the kernel knows.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        CpuClock(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }

    /// CPU seconds this thread has used since `self`.
    pub fn elapsed(self) -> f64 {
        CpuClock::now().0 - self.0
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f(t, streams)` for every stream `t` of `streams` = [`cores`], each
/// on its own thread, and collect the results in stream order. On a
/// shared host each core's speed drifts on its own (other tenants' load
/// on the same physical core and caches); one stream per core reads the
/// mean of the cores where a single stream would read one core's drift.
pub fn per_core<T: Send>(f: impl Fn(u64, u64) -> T + Sync) -> Vec<T> {
    let streams = cores() as u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..streams)
            .map(|t| {
                let f = &f;
                s.spawn(move || f(t, streams))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark stream panicked"))
            .collect()
    })
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process so far (`VmHWM`), in kB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_kb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0) as f64
}

/// CPU time consumed by the calling thread, in seconds (the first field
/// of `/proc/thread-self/schedstat`); 0 where that file is unavailable.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

// ---------------------------------------------------------------------
// Counting allocator (installed by the traced binary only)
// ---------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations made so far (0 unless [`CountingAlloc`] is the
/// global allocator).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The system allocator plus a count of allocation calls. A `realloc`
/// counts as one allocation: it may move the block.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded; `ptr` came from `System` via this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

// ---------------------------------------------------------------------
// Counting trace sink
// ---------------------------------------------------------------------

/// A [`TraceSink`] that only counts the events the per-layer metrics
/// need. It allocates nothing per event.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    pub events: u64,
    pub retransmits: u64,
    pub rto_fired: u64,
    pub sched_picks: u64,
    pub rrc_transitions: u64,
    /// Bit `c` set once connection `c` (< 64) established a subflow.
    pub conns: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, _t: SimTime, event: &TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::Retransmit { .. } => self.retransmits += 1,
            TraceEvent::RtoFired { .. } => self.rto_fired += 1,
            TraceEvent::SchedPick { .. } => self.sched_picks += 1,
            TraceEvent::RrcTransition { .. } => self.rrc_transitions += 1,
            TraceEvent::SubflowEstablished { conn, .. } if *conn < 64 => {
                self.conns |= 1 << conn;
            }
            _ => {}
        }
    }
}

/// A shared [`CountingSink`] and the telemetry pipeline that feeds it.
pub fn counting_telemetry() -> (
    std::sync::Arc<std::sync::Mutex<CountingSink>>,
    emptcp_telemetry::Telemetry,
) {
    let sink = std::sync::Arc::new(std::sync::Mutex::new(CountingSink::default()));
    let telemetry = emptcp_telemetry::Telemetry::builder()
        .sink(Box::new(sink.clone()))
        .build();
    (sink, telemetry)
}

/// Take the counts accumulated so far, leaving the sink empty.
pub fn take_counts(sink: &std::sync::Mutex<CountingSink>) -> CountingSink {
    std::mem::take(&mut *sink.lock().expect("counting sink poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_pin_is_a_failure_and_a_right_one_is_not() {
        let pins = parse_pins("# comment\nfleet-10k 3 00000000000000aa\n");
        assert!(check_pin_in(&pins, "fleet-10k", "3", "00000000000000aa").is_ok());
        assert!(check_pin_in(&pins, "fleet-10k", "3", "00000000000000ab").is_err());
        assert!(check_pin_in(&pins, "fleet-10k", "4", "00000000000000aa").is_err());
    }

    #[test]
    fn a_mismatch_counts_as_a_failed_op_without_aborting() {
        let mut report = Report::new("fleet-10k");
        let problem = report.check_digest("no-such-key", "0");
        report.op(problem);
        report.op(None);
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(report.messages.len(), 1);
    }

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }
}
