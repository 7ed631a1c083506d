//! The two backends behind one protocol core.
//!
//! Both backends are the same [`Reactor`] on a virtual clock, hosting the
//! same connection pair ([`Reactor::pair`]) over the same shaped paths.
//! [`Backend::Sim`] runs it over a [`ChaosNet`] — exactly the
//! [`MpChaosRig`](emptcp_faults::MpChaosRig) every chaos and fault test
//! runs. [`Backend::Live`] runs it over the [`DuplexTransport`], which
//! sends every segment through the wire codec first. [`run_script`]
//! drives either backend from one [`ParityScript`] — the scripted input
//! (path delays and loss, fault windows, transfer size, seed) that
//! determines every arrival and ACK timing — and returns the
//! transport-decision log the run produced.

use crate::transport::DuplexTransport;
use emptcp_faults::{ChaosNet, ChaosPath, FaultPlan, Reactor, ReactorStats, Transport};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::{MemorySink, Telemetry, TraceEvent};
use std::sync::{Arc, Mutex};

/// Which engine drives the stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The reactor over a [`ChaosNet`]: the chaos rigs' engine.
    Sim,
    /// The reactor over the [`DuplexTransport`]: the same, plus the wire
    /// codec round trip.
    Live,
}

/// One scripted input, sufficient to determine both backends' runs
/// completely: every arrival time, ACK timing and fault window follows
/// from these fields plus the seeded RNG streams.
#[derive(Clone, Debug)]
pub struct ParityScript {
    /// Seed for the shaping draws.
    pub seed: u64,
    /// Paths: WiFi first, then cellular — loss, one-way delay, jitter.
    pub paths: Vec<ChaosPath>,
    /// Bytes the server pushes to the client.
    pub total_bytes: u64,
    /// Fault windows replayed against the shaped paths as time passes.
    pub faults: FaultPlan,
    /// Whether interface faults notify the stacks (link-layer visibility)
    /// or must be discovered through RTOs.
    pub notify_link_down: bool,
    /// Absolute cut-off.
    pub wall_limit: SimTime,
}

impl ParityScript {
    /// A clean two-path script: 12 ms WiFi, 35 ms cellular, no loss.
    pub fn two_path(seed: u64, total_bytes: u64) -> ParityScript {
        ParityScript {
            seed,
            paths: vec![
                ChaosPath::new(0.0, SimDuration::from_millis(12), 0),
                ChaosPath::new(0.0, SimDuration::from_millis(35), 0),
            ],
            total_bytes,
            faults: FaultPlan::new(),
            notify_link_down: true,
            wall_limit: SimTime::from_secs(900),
        }
    }
}

/// What a scripted run produced: the accounting and the decision log.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// Connection-level bytes the client delivered to the application.
    pub delivered: u64,
    /// Delivered bytes that rode the WiFi subflow.
    pub delivered_wifi: u64,
    /// Delivered bytes that rode the cellular subflow.
    pub delivered_cellular: u64,
    /// Every trace event both stacks emitted, in emission order — the
    /// transport-decision log (scheduler picks, subflow transitions, cwnd
    /// trajectory, retransmissions, delivered-byte coalescing).
    pub decisions: Vec<(SimTime, TraceEvent)>,
    /// Reactor stats.
    pub stats: ReactorStats,
}

fn drain_sink(sink: Arc<Mutex<MemorySink>>) -> Vec<(SimTime, TraceEvent)> {
    std::mem::take(&mut sink.lock().expect("sink poisoned").records)
}

/// Run `script` on `backend`, capturing the decision log through a
/// [`MemorySink`]. Client is telemetry conn 0, server conn 1, in both
/// backends — the logs are directly comparable.
pub fn run_script(backend: Backend, script: &ParityScript) -> ScriptOutcome {
    let paths = script.paths.clone();
    match backend {
        Backend::Sim => run_on(ChaosNet::new(script.seed, paths), script),
        Backend::Live => run_on(DuplexTransport::new(script.seed, paths), script),
    }
}

fn run_on<T: Transport>(transport: T, script: &ParityScript) -> ScriptOutcome {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let telemetry = Telemetry::builder()
        .sink(Box::new(Arc::clone(&sink)))
        .invariants(true)
        .build();
    let mut reactor = Reactor::pair(transport);
    reactor.client_mut().set_telemetry(telemetry.scope(0));
    reactor.server_mut().set_telemetry(telemetry.scope(1));
    reactor.notify_link_down = script.notify_link_down;
    reactor.wall_limit = script.wall_limit;
    reactor.attach_faults(script.faults.clone());
    let delivered = reactor.run(script.total_bytes);
    let client = reactor.client();
    ScriptOutcome {
        delivered,
        delivered_wifi: client.delivered_by_iface(IfaceKind::Wifi),
        delivered_cellular: client.delivered_by_iface(IfaceKind::CellularLte),
        decisions: drain_sink(sink),
        stats: reactor.stats(),
    }
}
