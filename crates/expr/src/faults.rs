//! Fault scenarios bound to the full host simulation.
//!
//! The `.scenario` corpus defines *what* goes wrong: every host-world
//! corpus file with a non-empty fault script is a fault run, and its world
//! (rates, RTTs, device, strategy, transfer size), seed, script and
//! summary all come from that file. This module defines *how it is
//! measured*: each scenario is run twice with the same seed — once
//! fault-free as the baseline, once with the plan attached — and the two
//! runs are folded into a [`ResilienceReport`]: goodput retained, recovery
//! latency, bytes reinjected, and the energy cost of surviving the fault.
//! The online invariant observer rides along on the faulted run, so a
//! report also certifies that the byte stream survived intact.

use crate::chaos::{host_simulation, strategy_of};
use emptcp_scenario::{corpus, HostSpec, Scenario, World};
use emptcp_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// The host world of a fault run: `None` for fleet worlds and for
/// scenarios without a fault script.
fn fault_world(sc: &Scenario) -> Option<&HostSpec> {
    match &sc.world {
        World::Host(host) if !sc.faults.is_empty() => Some(host),
        _ => None,
    }
}

/// The fault library: every host-world corpus scenario with a non-empty
/// fault script, sorted by name.
pub fn library() -> Vec<Scenario> {
    corpus::all()
        .into_iter()
        .filter(|sc| fault_world(sc).is_some())
        .collect()
}

/// Everything the `simulate faults` CLI prints about one scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Fault scenario name (see [`library`]).
    pub scenario: String,
    /// Strategy label the scenario ran under.
    pub strategy: String,
    /// Seed shared by the baseline and the faulted run.
    pub seed: u64,
    /// Bytes the workload was asked to move.
    pub size_bytes: u64,
    /// The faulted run finished before the horizon.
    pub completed: bool,
    /// Bytes actually delivered to the client under faults.
    pub bytes_delivered: u64,
    /// Fault-free completion time (s).
    pub baseline_time_s: f64,
    /// Completion time under faults (s).
    pub faulted_time_s: f64,
    /// Faulted goodput as a fraction of fault-free goodput.
    pub goodput_retained: f64,
    /// Fault-free energy to completion, drain included (J).
    pub baseline_energy_j: f64,
    /// Energy under faults (J).
    pub faulted_energy_j: f64,
    /// Extra energy the faults cost (J; can be negative when a fault
    /// ends a radio tail early).
    pub energy_overhead_j: f64,
    /// Fault events the injector applied.
    pub faults_injected: u64,
    /// Link-down notifications the stack received (both ends).
    pub link_down_events: u64,
    /// Subflows declared dead by the consecutive-RTO detector.
    pub subflow_failures: u64,
    /// Backup subflows promoted into service.
    pub backup_promotions: u64,
    /// Dead subflows that came back.
    pub subflow_revivals: u64,
    /// Data-level bytes queued for reinjection on surviving subflows.
    pub bytes_reinjected: u64,
    /// Worst failure-to-progress latency (s; 0 when nothing failed).
    pub worst_recovery_latency_s: f64,
    /// Online invariant violations observed during the faulted run.
    pub invariant_violations: u64,
}

/// Run one library scenario with a fresh invariant-checking telemetry
/// pipeline. `seed` overrides the scenario file's own seed. Returns `None`
/// for a name outside the [`library`].
pub fn run_scenario(name: &str, seed: Option<u64>) -> Option<ResilienceReport> {
    run_scenario_traced(name, seed, Telemetry::builder().invariants(true).build())
}

/// Run one library scenario with a caller-supplied telemetry pipeline on
/// the faulted run (the baseline runs uninstrumented so a trace sink sees
/// only the run the report describes). Invariant violations are read back
/// from the supplied pipeline.
pub fn run_scenario_traced(
    name: &str,
    seed: Option<u64>,
    telemetry: Telemetry,
) -> Option<ResilienceReport> {
    let sc = corpus::load(name)?;
    let host = fault_world(&sc)?;
    let seed = seed.unwrap_or(sc.seed);
    let label = format!("faults/{name}");
    let baseline = host_simulation(&label, host, seed, emptcp_telemetry::current()).run();

    let mut sim = host_simulation(&label, host, seed, telemetry.clone());
    sim.attach_faults(sc.fault_plan());
    let faulted = sim.run();
    let invariant_violations = telemetry.violations().len() as u64;

    let goodput = |bytes: u64, secs: f64| bytes as f64 / secs.max(1e-9);
    let base_goodput = goodput(baseline.bytes_delivered, baseline.download_time_s);
    let fault_goodput = goodput(faulted.bytes_delivered, faulted.download_time_s);
    Some(ResilienceReport {
        scenario: name.to_string(),
        strategy: strategy_of(host.strategy).label().to_string(),
        seed,
        size_bytes: host.transfer_bytes,
        completed: faulted.completed,
        bytes_delivered: faulted.bytes_delivered,
        baseline_time_s: baseline.download_time_s,
        faulted_time_s: faulted.download_time_s,
        goodput_retained: if base_goodput > 0.0 {
            fault_goodput / base_goodput
        } else {
            0.0
        },
        baseline_energy_j: baseline.energy_j,
        faulted_energy_j: faulted.energy_j,
        energy_overhead_j: faulted.energy_j - baseline.energy_j,
        faults_injected: faulted.faults_injected,
        link_down_events: faulted.link_down_events,
        subflow_failures: faulted.subflow_failures,
        backup_promotions: faulted.backup_promotions,
        subflow_revivals: faulted.subflow_revivals,
        bytes_reinjected: faulted.bytes_reinjected,
        worst_recovery_latency_s: faulted.worst_recovery_latency_s,
        invariant_violations,
    })
}

/// CI gate: everything a report must satisfy for `--check` to pass.
/// Returns the list of violated expectations (empty = pass). Thresholds
/// are deliberately loose — they assert *recovery happened*, not exact
/// performance numbers, so they hold across seeds.
pub fn check(report: &ResilienceReport) -> Vec<String> {
    let mut fails = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            fails.push(what.to_string());
        }
    };
    expect(report.completed, "transfer completed under faults");
    expect(
        report.bytes_delivered == report.size_bytes,
        "zero byte-stream gaps (delivered == requested)",
    );
    expect(
        report.invariant_violations == 0,
        "no invariant violations during the faulted run",
    );
    expect(report.faults_injected > 0, "the fault plan actually fired");
    expect(
        report.goodput_retained >= 0.25,
        "goodput retained at least 25% of fault-free",
    );
    match report.scenario.as_str() {
        "ap-vanish" | "flappy-wifi" | "handover-walk" => {
            expect(
                report.link_down_events >= 1,
                "link-down notification reached the stack",
            );
            expect(
                report.worst_recovery_latency_s > 0.0,
                "recovery latency was measured",
            );
        }
        "lte-tunnel" => {
            expect(
                report.link_down_events >= 1,
                "link-down notification reached the stack",
            );
            expect(
                report.bytes_reinjected > 0,
                "stranded cellular data was reinjected",
            );
        }
        "congested_core" => {
            // The collapse is a silent blackhole on every path: no
            // link-down notification exists, so recovery must come from
            // the consecutive-RTO failure detector and ack-progress
            // revival once the core ramps back.
            expect(
                report.subflow_failures >= 1,
                "RTO detector declared a subflow dead during the collapse",
            );
            expect(
                report.subflow_revivals >= 1,
                "a dead subflow revived after the core ramped back",
            );
            expect(
                report.worst_recovery_latency_s > 0.0,
                "recovery latency was measured",
            );
        }
        _ => {}
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_scenario("no-such-scenario", Some(1)).is_none());
        // A fleet world and a host world without faults are not fault runs.
        assert!(run_scenario("fleet-contended", Some(1)).is_none());
        let mut calm = corpus::load("ap-vanish").unwrap();
        calm.faults.clear();
        assert!(fault_world(&calm).is_none());
    }

    #[test]
    fn library_is_every_faulted_host_scenario_sorted() {
        let lib = library();
        let names: Vec<&str> = lib.iter().map(|sc| sc.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "library must list in sorted order");
        for name in ["ap-vanish", "congested_core", "lte-tunnel"] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
        let expected = corpus::all()
            .iter()
            .filter(|sc| sc.world_label() == "host" && !sc.faults.is_empty())
            .count();
        assert_eq!(lib.len(), expected);
        for sc in &lib {
            assert!(!sc.summary.is_empty(), "{} has no summary", sc.name);
            assert!(!sc.fault_plan().is_empty(), "{} is empty", sc.name);
        }
    }

    #[test]
    fn library_plans_are_deterministic() {
        for sc in library() {
            assert_eq!(
                sc.fault_plan().into_events(),
                sc.fault_plan().into_events(),
                "{} not deterministic",
                sc.name
            );
        }
    }

    #[test]
    fn every_library_plan_restores_nominal() {
        for sc in library() {
            assert!(
                sc.fault_plan().restores_nominal(),
                "{} leaves the network perturbed",
                sc.name
            );
        }
    }
}
