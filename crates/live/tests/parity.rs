//! Sim/live parity certification — the tier-1 contract of this crate.
//!
//! Each test scripts identical input into both backends (the reactor
//! over the chaos rigs' `ChaosNet`, and the same reactor over the duplex
//! transport, which adds the wire codec round trip) and demands the
//! transport-decision logs match event-for-event. A parity failure prints
//! the first divergence with context, which in practice names the exact
//! field the codec mangled.

use emptcp_faults::{FaultAction, FaultPlan, FaultTarget};
use emptcp_live::{certify, run_script, Backend, ChaosPath, ParityScript};
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::jsonl_line;

fn assert_parity(script: &ParityScript) -> emptcp_live::ParityReport {
    match certify(script) {
        Ok(report) => report,
        Err(diff) => panic!("parity broken:\n{diff}"),
    }
}

fn clean_script() -> ParityScript {
    ParityScript::two_path(42, 512 * 1024)
}

fn lossy_script() -> ParityScript {
    let mut script = ParityScript::two_path(7, 256 * 1024);
    script.paths = vec![
        ChaosPath::new(0.02, SimDuration::from_millis(12), 3),
        ChaosPath::new(0.05, SimDuration::from_millis(35), 8),
    ];
    script
}

fn faulted_script() -> ParityScript {
    let mut script = ParityScript::two_path(1234, 384 * 1024);
    script.faults = FaultPlan::new()
        .blackout(
            FaultTarget::Wifi,
            SimTime::from_millis(150),
            SimDuration::from_millis(400),
        )
        .at(
            SimTime::from_millis(900),
            FaultTarget::Cellular,
            FaultAction::Rate(Some(0)),
        )
        .at(
            SimTime::from_millis(1100),
            FaultTarget::Cellular,
            FaultAction::Rate(None),
        );
    script
}

fn unnotified_script() -> ParityScript {
    let mut script = ParityScript::two_path(99, 128 * 1024);
    script.notify_link_down = false;
    script.faults = FaultPlan::new().blackout(
        FaultTarget::Wifi,
        SimTime::from_millis(100),
        SimDuration::from_millis(600),
    );
    script
}

fn small_script() -> ParityScript {
    ParityScript::two_path(5, 64 * 1024)
}

#[test]
fn clean_transfer_matches_event_for_event() {
    let report = assert_parity(&clean_script());
    assert_eq!(report.delivered, 512 * 1024);
    assert!(report.events > 100, "decision log is non-trivial");
    assert!(report.delivered_wifi > 0, "wifi subflow carried data");
    assert!(
        report.delivered_cellular > 0,
        "cellular subflow carried data"
    );
}

#[test]
fn lossy_jittery_paths_match_event_for_event() {
    // Loss and jitter exercise the shaping draws plus the retransmission
    // and SACK paths in the stacks, and with them the SACK and timestamp
    // fields of the codec.
    let report = assert_parity(&lossy_script());
    assert_eq!(report.delivered, 256 * 1024);
    assert!(report.delivered_wifi > 0 && report.delivered_cellular > 0);
}

#[test]
fn faulted_run_matches_event_for_event() {
    // A WiFi blackout mid-transfer plus a cellular blackhole window:
    // exercises the reactor's fault surface, including link-down
    // notification and silent rate-zero drops.
    let report = assert_parity(&faulted_script());
    assert_eq!(report.delivered, 384 * 1024);
}

#[test]
fn unnotified_blackout_matches_via_rto_discovery() {
    // With link notifications off, both engines must discover the dead
    // path the hard way (RTO backoff) on exactly the same schedule.
    let report = assert_parity(&unnotified_script());
    assert_eq!(report.delivered, 128 * 1024);
}

#[test]
fn live_backend_alone_is_deterministic() {
    // Same script, two live runs: byte-identical decision logs, so the
    // duplex transport keeps no state that leaks between runs.
    let script = small_script();
    let a = run_script(Backend::Live, &script);
    let b = run_script(Backend::Live, &script);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.delivered, b.delivered);
}

/// FNV-1a over the rendered JSONL log: stable, dependency-free, and
/// sensitive to any single-byte drift anywhere in the decision log.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(hash, lines, delivered_wifi, delivered_cellular)` of a run.
type Fingerprint = (u64, usize, u64, u64);

fn fingerprint(script: &ParityScript) -> Fingerprint {
    let out = run_script(Backend::Sim, script);
    let jsonl: String = out
        .decisions
        .iter()
        .map(|(t, ev)| jsonl_line(*t, ev) + "\n")
        .collect();
    (
        fnv1a64(jsonl.as_bytes()),
        jsonl.lines().count(),
        out.delivered_wifi,
        out.delivered_cellular,
    )
}

/// Golden pin of the simulator backend's decision log for every script
/// above. `certify` compares the two backends with each other; this pin
/// holds the simulator side to fixed values, so a change to the shared
/// engine that moved both backends alike still shows up here.
///
/// If this fails after an intentional semantic change, re-capture the
/// values from the failure message and record them in CHANGES.md.
#[test]
fn sim_decision_logs_match_goldens() {
    let cases: [(&str, ParityScript, Fingerprint); 5] = [
        (
            "clean",
            clean_script(),
            (0x0d90_6b96_7dc3_1b84, 539, 510_008, 14_280),
        ),
        (
            "lossy",
            lossy_script(),
            (0xe2af_a3fc_6e51_7f12, 337, 211_752, 60_205),
        ),
        (
            "faulted",
            faulted_script(),
            (0x253d_8bdb_9d28_d4c7, 365, 378_936, 14_280),
        ),
        (
            "unnotified",
            unnotified_script(),
            (0xd9ea_3b46_47c8_d738, 158, 99_960, 31_112),
        ),
        (
            "small",
            small_script(),
            (0x794a_f8b5_1d75_3524, 70, 65_536, 0),
        ),
    ];
    let mut failures = Vec::new();
    for (name, script, want) in &cases {
        let got = fingerprint(script);
        if got != *want {
            failures.push(format!(
                "{name}: got ({:#018x}, {}, {}, {})",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "decision-log goldens moved:\n{}",
        failures.join("\n")
    );
}
