//! `fleet-10k`: the sharded fleet engine on a contended 10,000-client
//! population. The timed runs step the shards on one thread; the traced
//! run also fans them over the experiment runner's pool, as `repro fleet`
//! does, to measure how well the epochs parallelise.

use crate::{
    allocs, counting_telemetry, median, peak_rss_kb, quantile, ratio, secs, Args, CpuClock, Report,
};
use emptcp_expr::runner::Runner;
use emptcp_net::{FleetConfig, ShardExecutor, ShardedFleetSim};
use emptcp_sim::SimDuration;
use emptcp_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const NAME: &str = "fleet-10k";
pub const CLIENTS: usize = 10_000;
/// The shard count `repro fleet` picks for 1,024 clients and more.
pub const SHARDS: usize = 8;
const SIM_SECONDS: u64 = 10;
const SETUP_REPEATS: usize = 5;
/// Pool size of one timed run. With every shard on the calling thread
/// an op's CPU time is its whole cost; a second thread would add a
/// cross-thread wake-up at every epoch barrier, and on a shared host
/// that wake-up waits for whichever vCPU the hypervisor has taken away.
/// (Measured on a 2-core VM: a fleet run on two jobs took 1.6–3.2 s of
/// wall time, on one job 1.85–2.7 s.)
const TIMED_JOBS: usize = 1;

/// The fleet seed of op `k` for the `--seed` argument: successive ops walk
/// the pinned pool from a start that seed picks.
pub fn fleet_seed(seed: u64, k: u64) -> u64 {
    1 + (seed + k) % crate::POOL
}

fn config(fleet_seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::contended(CLIENTS, fleet_seed);
    cfg.duration = SimDuration::from_secs(SIM_SECONDS);
    cfg
}

fn build(cfg: &FleetConfig, telemetry: Telemetry) -> Result<ShardedFleetSim, String> {
    ShardedFleetSim::try_new_with_telemetry(cfg.clone(), SHARDS, telemetry)
        .map_err(|e| format!("fleet construction failed: {e}"))
}

/// The fleet report and per-client delivered bytes, digested together.
fn output_digest(report: &emptcp_net::FleetReport, delivered: &[u64]) -> String {
    crate::digest(&(report, delivered))
}

/// Fans the shard closures of each epoch out on a [`Runner`] pool, as
/// `repro fleet` does.
struct PoolExecutor(Runner);

impl ShardExecutor for PoolExecutor {
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.0.run_indexed(n, f);
    }
}

/// [`PoolExecutor`] plus busy time per shard index and time inside the
/// executor. The engine calls it once to initialise the client shards and
/// then once per epoch with every client shard plus the core shard last.
struct TimingExecutor {
    inner: PoolExecutor,
    busy_ns: Vec<AtomicU64>,
    inside_ns: AtomicU64,
    epochs: AtomicU64,
}

impl TimingExecutor {
    fn new(jobs: usize) -> TimingExecutor {
        TimingExecutor {
            inner: PoolExecutor(Runner::new(jobs)),
            busy_ns: (0..=SHARDS).map(|_| AtomicU64::new(0)).collect(),
            inside_ns: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
        }
    }
}

impl ShardExecutor for TimingExecutor {
    fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let start = Instant::now();
        if n == self.busy_ns.len() {
            self.epochs.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.run_indexed(n, &|i| {
            let t = Instant::now();
            f(i);
            self.busy_ns[i].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        self.inside_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

struct Run {
    report: emptcp_net::FleetReport,
    delivered: Vec<u64>,
    wall_s: f64,
    /// CPU time of the calling thread during the run: the whole cost of
    /// the run when the executor keeps every shard on that thread.
    cpu_s: f64,
}

fn run_once(mut sim: ShardedFleetSim, exec: &dyn ShardExecutor) -> Run {
    let (start, cpu) = (Instant::now(), CpuClock::now());
    let report = sim.run_with(exec);
    let (wall_s, cpu_s) = (secs(start), cpu.elapsed());
    let delivered = sim.per_client_delivered();
    Run {
        report,
        delivered,
        wall_s,
        cpu_s,
    }
}

/// Check one run's output and count it as an op.
fn check(out: &mut Report, key: &str, run: &Run) {
    let digest = output_digest(&run.report, &run.delivered);
    let problem = out.check_digest(key, &digest);
    out.op(problem);
}

/// What one stream of fleet runs measured.
struct Stream {
    report: Report,
    /// CPU seconds per engine construction.
    setup: Vec<f64>,
    /// CPU and wall seconds per run.
    cpus: Vec<f64>,
    walls: Vec<f64>,
    pkts: u64,
    bytes: u64,
}

/// Build and run fleets on the calling thread, one at a time, until the
/// budget since `start` is spent. Op `k` of stream `t` of `streams` runs
/// the `k * streams + t`-th fleet seed of the walk.
fn stream(args: &Args, start: Instant, t: u64, streams: u64) -> Stream {
    let exec = PoolExecutor(Runner::new(TIMED_JOBS));
    let mut out = Stream {
        report: Report::new(NAME),
        setup: Vec::new(),
        cpus: Vec::new(),
        walls: Vec::new(),
        pkts: 0,
        bytes: 0,
    };
    for k in 0.. {
        if k > 0 && start.elapsed() >= args.budget() {
            break;
        }
        let seed = fleet_seed(args.seed, k * streams + t);
        let key = seed.to_string();
        let build_start = CpuClock::now();
        let sim = match build(&config(seed), Telemetry::disabled()) {
            Ok(sim) => sim,
            Err(e) => {
                out.report.fail(e);
                break;
            }
        };
        out.setup.push(build_start.elapsed());
        let run = run_once(sim, &exec);
        check(&mut out.report, &key, &run);
        out.cpus.push(run.cpu_s);
        out.walls.push(run.wall_s);
        out.pkts += run.report.packets_forwarded;
        out.bytes += run.delivered.iter().sum::<u64>();
        out.report.wall(&key, run.cpu_s * 1e3);
    }
    out
}

/// End-to-end metrics, nothing attached. Every time is CPU time of the
/// one thread that builds and runs an engine.
pub fn measure(args: &Args) -> Report {
    let mut out = Report::new(NAME);

    // Set-up: build (and drop) the engine several times before the loop;
    // every op builds its own engine too, and those builds are set-up
    // samples as well, spread over the run.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = CpuClock::now();
        let sim = build(&config(fleet_seed(args.seed, 0)), Telemetry::disabled());
        setup.push(start.elapsed());
        if let Err(e) = sim {
            out.fail(e);
            return out;
        }
    }

    let start = Instant::now();
    let parts = crate::per_core(|t, streams| stream(args, start, t, streams));
    let streams = parts.len() as u64;
    let (mut cpus, mut walls, mut pkts, mut bytes) = (Vec::new(), Vec::new(), 0u64, 0u64);
    for part in parts {
        setup.extend(part.setup);
        cpus.extend(part.cpus);
        walls.extend(part.walls.iter().map(|w| w * 1e3));
        pkts += part.pkts;
        bytes += part.bytes;
        out.merge(part.report);
    }
    // Every stream holds one engine at a time.
    let rss_kb_per_client = peak_rss_kb() / (CLIENTS as u64 * streams) as f64;
    let total: f64 = cpus.iter().sum();
    let n = cpus.len();
    let ms: Vec<f64> = cpus.iter().map(|c| c * 1e3).collect();
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("ops_per_s", n as f64 / total, "1/s", n);
    out.metric("op_ms_p50", median(&ms), "ms", n);
    out.metric("op_ms_p90", quantile(&ms, 0.9), "ms", n);
    out.metric("goodput_MBps", bytes as f64 / total / 1e6, "MB/s", n);
    out.metric("rss_kb_per_conn", rss_kb_per_client, "kB", 1);
    out.metric("sim_pkts_per_sec", pkts as f64 / total, "1/s", n);
    out.metric("rss_kb_per_client", rss_kb_per_client, "kB", 1);
    // For the reader: the same ops on the wall clock, steal time included.
    out.metric("op_wall_ms_p50", median(&walls), "ms", n);
    out
}

/// Per-layer metrics: one run with the timing executor over a pool of one
/// job per core and the counting allocator, then one run on one thread
/// with the counting trace sink as well.
pub fn trace(args: &Args) -> Report {
    let mut out = Report::new(NAME);
    let seed = fleet_seed(args.seed, 0);
    let key = seed.to_string();
    let cfg = config(seed);
    let jobs = crate::cores();

    let exec = TimingExecutor::new(jobs);
    let sim = match build(&cfg, Telemetry::disabled()) {
        Ok(sim) => sim,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let allocs_before = allocs();
    let run = run_once(sim, &exec);
    let run_allocs = allocs() - allocs_before;
    check(&mut out, &key, &run);
    let pkts = run.report.packets_forwarded as f64;
    let busy: Vec<f64> = exec
        .busy_ns
        .iter()
        .map(|b| b.load(Ordering::Relaxed) as f64 * 1e-9)
        .collect();
    let client_busy: f64 = busy[..SHARDS].iter().sum();
    let max_client = busy[..SHARDS].iter().cloned().fold(0.0, f64::max);
    let all_busy: f64 = busy.iter().sum();
    let inside = exec.inside_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    out.metric(
        "net.epochs",
        exec.epochs.load(Ordering::Relaxed) as f64,
        "count",
        1,
    );
    out.metric("net.barrier_s", run.wall_s - inside, "s", 1);
    out.metric("net.client_shard_busy_s", client_busy, "s", 1);
    out.metric("net.core_shard_busy_s", busy[SHARDS], "s", 1);
    out.metric(
        "net.shard_imbalance",
        ratio(max_client, client_busy / SHARDS as f64),
        "ratio",
        SHARDS,
    );
    out.metric(
        "net.parallel_efficiency",
        ratio(all_busy, run.wall_s * jobs as f64),
        "ratio",
        1,
    );
    out.metric("net.ns_per_pkt", ratio(all_busy * 1e9, pkts), "ns", 1);
    out.metric(
        "net.queue_drops",
        run.report.total_queue_drops as f64,
        "count",
        1,
    );
    out.metric(
        "alloc.per_pkt",
        ratio(run_allocs as f64, pkts),
        "count/pkt",
        1,
    );

    // The counting sink's run steps the shards as the timed runs do, so
    // its CPU time compares with theirs for `trace.overhead_ratio`.
    let (sink, telemetry) = counting_telemetry();
    match build(&cfg, telemetry) {
        Ok(sim) => {
            let traced = run_once(sim, &PoolExecutor(Runner::new(TIMED_JOBS)));
            check(&mut out, &key, &traced);
            out.traced_wall(&key, traced.cpu_s * 1e3);
            let counts = crate::take_counts(&sink);
            let mib = traced.delivered.iter().sum::<u64>() as f64 / (1u64 << 20) as f64;
            out.metric(
                "tcp.retransmits_per_pkt",
                ratio(counts.retransmits as f64, pkts),
                "count/pkt",
                1,
            );
            out.metric(
                "tcp.rto_fired_per_pkt",
                ratio(counts.rto_fired as f64, pkts),
                "count/pkt",
                1,
            );
            out.metric(
                "mptcp.sched_picks_per_mib",
                ratio(counts.sched_picks as f64, mib),
                "count/MiB",
                1,
            );
        }
        Err(e) => out.fail(e),
    }
    crate::micro::layer_costs(&mut out);
    out
}

/// Pinned digests for every fleet seed in the pool.
pub fn pins() -> Vec<(&'static str, String, String)> {
    let exec = PoolExecutor(Runner::new(crate::cores()));
    (1..=crate::POOL)
        .map(|seed| {
            let sim = build(&config(seed), Telemetry::disabled()).expect("pool config is valid");
            let run = run_once(sim, &exec);
            (
                NAME,
                seed.to_string(),
                output_digest(&run.report, &run.delivered),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_executor_and_counting_sink_change_no_output() {
        let mut cfg = FleetConfig::contended(64, 3);
        cfg.duration = SimDuration::from_secs(1);
        let plain = run_once(
            build(&cfg, Telemetry::disabled()).unwrap(),
            &PoolExecutor(Runner::new(2)),
        );
        let (sink, telemetry) = counting_telemetry();
        let exec = TimingExecutor::new(2);
        let traced = run_once(build(&cfg, telemetry).unwrap(), &exec);
        assert_eq!(
            output_digest(&plain.report, &plain.delivered),
            output_digest(&traced.report, &traced.delivered)
        );
        assert!(exec.epochs.load(Ordering::Relaxed) > 0);
        assert!(crate::take_counts(&sink).events > 0);
    }
}
