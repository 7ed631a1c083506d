//! `paper-sweep`: the paper's evaluation loop — serial `host::run` calls
//! over a fixed mix of strategies, environments and seeds.

use crate::{
    allocs, counting_telemetry, median, peak_rss_kb, quantile, ratio, secs, Args, CpuClock, Report,
};
use emptcp_expr::host::{self, RunResult, Simulation};
use emptcp_expr::scenario::{Scenario, Workload};
use emptcp_expr::Strategy;
use emptcp_sim::SimRng;
use emptcp_workload::web::{WebPage, BROWSER_CONNECTIONS};
use std::time::Instant;

pub const NAME: &str = "paper-sweep";
const DOWNLOAD: u64 = 4 << 20;
/// Seeds per short cell in one sweep; long cells run twice each.
const SHORT_SEEDS: u64 = 12;
const LONG_SEEDS: u64 = 2;
const SETUP_REPEATS: usize = 9;

/// One cell of the mix: a strategy in an environment.
#[derive(Clone)]
struct Cell {
    label: String,
    scenario: Scenario,
    strategy: Strategy,
    long: bool,
}

/// One op: a cell at one run seed.
#[derive(Clone)]
struct Op {
    key: String,
    cell: usize,
    run_seed: u64,
}

fn download(mut s: Scenario) -> Scenario {
    s.workload = Workload::Download { size: DOWNLOAD };
    s
}

fn cells() -> Vec<Cell> {
    let strategies = [
        ("emptcp", Strategy::emptcp_default()),
        ("mptcp", Strategy::Mptcp),
        ("tcp-wifi", Strategy::TcpWifi),
    ];
    let environments = [
        ("bad-wifi-4MiB", download(Scenario::static_bad_wifi())),
        ("good-wifi-4MiB", download(Scenario::static_good_wifi())),
        ("web", Scenario::web_browsing()),
    ];
    let mut cells = Vec::new();
    for (s, strategy) in &strategies {
        for (e, scenario) in &environments {
            cells.push(Cell {
                label: format!("{s}/{e}"),
                scenario: scenario.clone(),
                strategy: *strategy,
                long: false,
            });
        }
    }
    for (e, scenario) in [
        ("bwchange", Scenario::bandwidth_changes()),
        ("mobility", Scenario::mobility()),
    ] {
        cells.push(Cell {
            label: format!("emptcp/{e}"),
            scenario,
            strategy: Strategy::emptcp_default(),
            long: true,
        });
    }
    cells
}

/// The ops of sweep pass `pass`, in run order, for the `--seed` argument:
/// each short cell at [`SHORT_SEEDS`] pool seeds, each long cell at
/// [`LONG_SEEDS`]. Long cells move on through the pool from pass to pass
/// (their cost varies most between seeds), and long runs are spread
/// through the pass so a partial pass still mixes both kinds.
fn plan(cells: &[Cell], seed: u64, pass: u64) -> Vec<Op> {
    let pool_seed = |i: u64| 1 + (seed + i) % crate::POOL;
    let op = |cell: usize, run_seed: u64| Op {
        key: format!("{}/{run_seed}", cells[cell].label),
        cell,
        run_seed,
    };
    let short: Vec<usize> = (0..cells.len()).filter(|&c| !cells[c].long).collect();
    let long: Vec<usize> = (0..cells.len()).filter(|&c| cells[c].long).collect();
    let long_ops: Vec<Op> = (0..LONG_SEEDS)
        .flat_map(|i| long.iter().map(move |&c| (c, i)))
        .map(|(c, i)| op(c, pool_seed(pass * LONG_SEEDS + i)))
        .collect();
    let every = SHORT_SEEDS as usize / long_ops.len().max(1);
    let mut ops = Vec::new();
    for i in 0..SHORT_SEEDS {
        ops.extend(short.iter().map(|&c| op(c, pool_seed(i))));
        if (i as usize + 1).is_multiple_of(every) {
            if let Some(l) = long_ops.get(i as usize / every) {
                ops.push(l.clone());
            }
        }
    }
    ops
}

/// Payload a completed run must deliver, when the workload fixes it.
fn expected_bytes(scenario: &Scenario, run_seed: u64) -> Option<u64> {
    match scenario.workload {
        Workload::Download { size } => Some(size),
        // The page the host draws from its seed (see `host::Simulation`).
        Workload::WebPage => {
            Some(WebPage::cnn_like(&mut SimRng::new(run_seed).fork(0xCAFE)).total_bytes())
        }
        _ => None,
    }
}

fn check(out: &mut Report, cells: &[Cell], op: &Op, r: &RunResult) {
    let scenario = &cells[op.cell].scenario;
    let mut problem = out.check_digest(&op.key, &crate::digest(r));
    if !r.completed {
        problem = Some(format!("{}: run did not complete", op.key));
    } else if let Some(want) = expected_bytes(scenario, op.run_seed) {
        if r.bytes_delivered != want {
            problem = Some(format!(
                "{}: delivered {} bytes, workload is {want}",
                op.key, r.bytes_delivered
            ));
        }
    } else if r.bytes_delivered == 0 {
        problem = Some(format!("{}: delivered nothing", op.key));
    }
    out.op(problem);
}

/// Run one op, timing only the `host::run` call: its CPU seconds on the
/// calling thread, then its wall seconds.
fn run_op(cells: &[Cell], op: &Op) -> (RunResult, f64, f64) {
    let cell = &cells[op.cell];
    let (scenario, strategy) = (cell.scenario.clone(), cell.strategy);
    let (start, cpu) = (Instant::now(), CpuClock::now());
    let r = host::run(scenario, strategy, op.run_seed);
    (r, cpu.elapsed(), secs(start))
}

/// One set-up sample: build the mix and the pass's plan, and warm the
/// host with the pass's first op. Returns its CPU seconds.
fn setup_sample(seed: u64, pass: u64) -> f64 {
    let start = CpuClock::now();
    let cells = cells();
    let ops = plan(&cells, seed, pass);
    std::hint::black_box(run_op(&cells, &ops[0]));
    start.elapsed()
}

/// What one stream of sweep passes ran.
struct Stream {
    report: Report,
    setup: Vec<f64>,
    /// CPU and wall milliseconds per op.
    cpu_ms: Vec<f64>,
    wall_ms: Vec<f64>,
    bytes: u64,
}

/// Run whole sweep passes (`pass_index(k)` for the `k`-th) until the
/// budget since `start` is spent, taking a set-up sample before each
/// pass. Stopping only between passes keeps the mix of short and long
/// runs the same in every measurement.
fn stream(cells: &[Cell], args: &Args, start: Instant, pass_index: impl Fn(u64) -> u64) -> Stream {
    let mut out = Stream {
        report: Report::new(NAME),
        setup: Vec::new(),
        cpu_ms: Vec::new(),
        wall_ms: Vec::new(),
        bytes: 0,
    };
    for k in 0.. {
        if k > 0 && start.elapsed() >= args.budget() {
            break;
        }
        out.setup.push(setup_sample(args.seed, pass_index(k)));
        for op in &plan(cells, args.seed, pass_index(k)) {
            let (r, cpu, wall) = run_op(cells, op);
            check(&mut out.report, cells, op, &r);
            out.cpu_ms.push(cpu * 1e3);
            out.wall_ms.push(wall * 1e3);
            out.bytes += r.bytes_delivered;
            out.report.wall(&op.key, cpu * 1e3);
        }
    }
    out
}

/// End-to-end metrics, nothing attached. Every time is CPU time of the
/// thread that runs the op.
pub fn measure(args: &Args) -> Report {
    let mut out = Report::new(NAME);

    // Set-up samples before the loop, and one per pass and stream during
    // it; the median is the set-up cost.
    let mut setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| setup_sample(args.seed, 0))
        .collect();
    let cells = cells();

    // One serial stream of passes per core, as `repro` fans runs over its
    // pool.
    let start = Instant::now();
    let parts =
        crate::per_core(|t, streams| stream(&cells, args, start, |pass| pass * streams + t));
    let streams = parts.len() as u64;
    let (mut ms, mut wall_ms, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for part in parts {
        setup.extend(part.setup);
        ms.extend(part.cpu_ms);
        wall_ms.extend(part.wall_ms);
        bytes += part.bytes;
        out.merge(part.report);
    }
    let n = ms.len();
    // Runs and bytes per CPU second: per core, whatever the stream count.
    let cpu_s = ms.iter().sum::<f64>() * 1e-3;
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("ops_per_s", n as f64 / cpu_s, "1/s", n);
    out.metric("op_ms_p50", median(&ms), "ms", n);
    out.metric("op_ms_p90", quantile(&ms, 0.9), "ms", n);
    out.metric("goodput_MBps", bytes as f64 / cpu_s / 1e6, "MB/s", n);
    // A web page's connections are the most one run holds at once.
    out.metric(
        "rss_kb_per_conn",
        peak_rss_kb() / (BROWSER_CONNECTIONS as u64 * streams) as f64,
        "kB",
        1,
    );
    out.metric("sweep_runs_per_s", n as f64 / cpu_s, "1/s", n);
    out.metric("run_ms_p50", median(&ms), "ms", n);
    out.metric("run_ms_p90", quantile(&ms, 0.9), "ms", n);
    // For the reader: the same runs on the wall clock, steal time included.
    out.metric("op_wall_ms_p50", median(&wall_ms), "ms", n);
    out
}

/// Per-layer metrics: one sweep under the counting allocator alone, then
/// one sweep with the counting trace sink attached to every run, one
/// stream per core.
pub fn trace(args: &Args) -> Report {
    let mut out = Report::new(NAME);
    let cells = cells();
    let ops = plan(&cells, args.seed, 0);

    let (mut short_ms, mut long_ms, mut run_allocs) = (Vec::new(), Vec::new(), 0u64);
    for op in &ops {
        let before = allocs();
        let (r, cpu, _) = run_op(&cells, op);
        run_allocs += allocs() - before;
        check(&mut out, &cells, op, &r);
        if cells[op.cell].long {
            long_ms.push(cpu * 1e3);
        } else {
            short_ms.push(cpu * 1e3);
        }
    }
    let n = ops.len() as f64;
    out.metric("host.short_run_ms", median(&short_ms), "ms", short_ms.len());
    out.metric("host.long_run_ms", median(&long_ms), "ms", long_ms.len());
    out.metric(
        "alloc.per_run",
        run_allocs as f64 / n,
        "count/run",
        ops.len(),
    );

    // The counting sink's pass runs one stream per core, as the timed
    // passes do, so its op times compare with theirs for
    // `trace.overhead_ratio`. Each stream has its own sink.
    let parts = crate::per_core(|t, streams| {
        sink_stream(
            &cells,
            ops.iter().skip(t as usize).step_by(streams as usize),
        )
    });
    let mut sum = SinkTotals::default();
    for (report, totals) in parts {
        out.merge(report);
        sum.add(&totals);
    }
    let SinkTotals {
        picks,
        retx,
        rto,
        rrc,
        bytes,
        switches,
        emptcp_runs,
        eib_generations,
    } = sum;
    // Data segments sent: one scheduler pick per fresh segment plus the
    // retransmissions.
    let segments = (picks + retx) as f64;
    let mib = bytes as f64 / (1u64 << 20) as f64;
    let k = ops.len();
    out.metric(
        "tcp.retransmits_per_pkt",
        ratio(retx as f64, segments),
        "count/pkt",
        k,
    );
    out.metric(
        "tcp.rto_fired_per_pkt",
        ratio(rto as f64, segments),
        "count/pkt",
        k,
    );
    out.metric(
        "mptcp.sched_picks_per_mib",
        ratio(picks as f64, mib),
        "count/MiB",
        k,
    );
    out.metric(
        "phy.rrc_transitions_per_run",
        rrc as f64 / n,
        "count/run",
        k,
    );
    out.metric(
        "core.usage_switches",
        ratio(switches as f64, emptcp_runs as f64),
        "count/run",
        emptcp_runs as usize,
    );
    out.metric("energy.eib_generations", eib_generations as f64, "count", k);
    crate::micro::layer_costs(&mut out);
    out
}

/// What the counting sink saw over some sweep runs.
#[derive(Default)]
struct SinkTotals {
    picks: u64,
    retx: u64,
    rto: u64,
    rrc: u64,
    bytes: u64,
    switches: u64,
    emptcp_runs: u64,
    eib_generations: u64,
}

impl SinkTotals {
    fn add(&mut self, o: &SinkTotals) {
        self.picks += o.picks;
        self.retx += o.retx;
        self.rto += o.rto;
        self.rrc += o.rrc;
        self.bytes += o.bytes;
        self.switches += o.switches;
        self.emptcp_runs += o.emptcp_runs;
        self.eib_generations += o.eib_generations;
    }
}

/// Run `ops` on this thread with a counting sink attached to each, timing
/// and checking every run.
fn sink_stream<'a>(cells: &[Cell], ops: impl Iterator<Item = &'a Op>) -> (Report, SinkTotals) {
    let mut out = Report::new(NAME);
    let mut sum = SinkTotals::default();
    let (sink, telemetry) = counting_telemetry();
    for op in ops {
        let cell = &cells[op.cell];
        let sim = Simulation::new_with_telemetry(
            cell.scenario.clone(),
            cell.strategy,
            op.run_seed,
            telemetry.clone(),
        );
        let start = CpuClock::now();
        let r = sim.run();
        out.traced_wall(&op.key, start.elapsed() * 1e3);
        check(&mut out, cells, op, &r);
        let c = crate::take_counts(&sink);
        sum.picks += c.sched_picks;
        sum.retx += c.retransmits;
        sum.rto += c.rto_fired;
        sum.rrc += c.rrc_transitions;
        sum.bytes += r.bytes_delivered;
        if matches!(cell.strategy, Strategy::Emptcp(_)) {
            // One EIB is generated per eMPTCP connection.
            sum.emptcp_runs += 1;
            sum.switches += r.usage_switches;
            sum.eib_generations += c.conns.count_ones() as u64;
        }
    }
    (out, sum)
}

/// Pinned digests for every cell at every pool seed.
pub fn pins() -> Vec<(&'static str, String, String)> {
    let cells = cells();
    let mut pins = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        for run_seed in 1..=crate::POOL {
            let op = Op {
                key: format!("{}/{run_seed}", cell.label),
                cell: c,
                run_seed,
            };
            let (r, _, _) = run_op(&cells, &op);
            pins.push((NAME, op.key, crate::digest(&r)));
        }
    }
    pins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_pin;

    #[test]
    fn the_plan_mixes_every_cell_and_pins_every_op() {
        let cells = cells();
        let ops = plan(&cells, 21, 3);
        assert_eq!(ops.len(), 112);
        for c in 0..cells.len() {
            assert!(ops.iter().any(|op| op.cell == c), "cell {c} missing");
        }
        for op in &ops {
            assert!(
                crate::pins_table().contains_key(&(NAME.to_string(), op.key.clone())),
                "{} has no pin",
                op.key
            );
        }
    }

    #[test]
    fn the_counting_sink_changes_no_output() {
        let cells = cells();
        for op in plan(&cells, 5, 0)
            .iter()
            .filter(|op| !cells[op.cell].long)
            .take(9)
        {
            let (plain, _, _) = run_op(&cells, op);
            let (sink, telemetry) = counting_telemetry();
            let cell = &cells[op.cell];
            let traced = Simulation::new_with_telemetry(
                cell.scenario.clone(),
                cell.strategy,
                op.run_seed,
                telemetry,
            )
            .run();
            assert_eq!(crate::digest(&plain), crate::digest(&traced), "{}", op.key);
            assert!(crate::take_counts(&sink).sched_picks > 0 || traced.bytes_delivered == 0);
            assert_eq!(check_pin(NAME, &op.key, &crate::digest(&plain)), Ok(()));
        }
    }
}
