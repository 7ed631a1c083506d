//! Serve/connect sessions: a real eMPTCP transfer between two processes.
//!
//! [`run_serve`] hosts the data *sender* (the `Role::Server` stack that
//! pushes `size` bytes), [`run_connect`] the *receiver* (the
//! `Role::Client` stack that initiates the subflow handshakes — its SYN
//! retransmissions double as rendezvous retries if the server process is
//! slower to start). Both sides run the same [`Reactor`] the chaos rigs
//! and the parity harness run, on a wall clock over [`UdpTransport`] —
//! path *i* rides local port `port_base + i`, so each subflow is
//! separately observable with ordinary packet tools.
//!
//! Telemetry flows through the ordinary [`TraceSink`] machinery: pass a
//! trace path and every transport decision lands in the same JSONL format
//! the simulator writes, flushed at a bounded cadence so `repro monitor
//! --follow` can dashboard the transfer while it runs.
//!
//! [`TraceSink`]: emptcp_telemetry::TraceSink

use crate::udp::UdpTransport;
use emptcp_faults::{mp_connection, ChaosPath, ClockSource, ConnWorker, FaultPlan};
use emptcp_faults::{Reactor, ReactorStats};
use emptcp_mptcp::{MpConnection, Role};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::{JsonlSink, Telemetry, TraceSink};
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the trace sink is flushed mid-run so a follower sees events
/// promptly.
const TRACE_FLUSH_EVERY: Duration = Duration::from_millis(100);

/// Everything a serve or connect session needs.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// First local UDP port; path `i` binds `port_base + i`.
    pub port_base: u16,
    /// The serving side's first port (connect side only; path `i` targets
    /// `peer + i`).
    pub peer: Option<SocketAddr>,
    /// Sender-side shaping per path, WiFi first.
    pub paths: Vec<ChaosPath>,
    /// Seed for the shaping draws.
    pub seed: u64,
    /// Bytes the server pushes.
    pub size: u64,
    /// Fault windows applied to the shaped paths as wall time passes.
    pub faults: FaultPlan,
    /// JSONL trace destination, follow-friendly (flushed every ~100 ms).
    pub trace: Option<PathBuf>,
    /// Give up after this much wall time.
    pub wall_limit: SimTime,
    /// Keep reacting this long after completion so the peer's final
    /// retransmissions still get answered.
    pub linger: SimDuration,
}

impl SessionConfig {
    /// A plain two-path localhost session.
    pub fn new(port_base: u16, size: u64) -> SessionConfig {
        SessionConfig {
            port_base,
            peer: None,
            paths: vec![
                ChaosPath::new(0.0, SimDuration::ZERO, 0),
                ChaosPath::new(0.0, SimDuration::ZERO, 0),
            ],
            seed: 1,
            size,
            faults: FaultPlan::new(),
            trace: None,
            wall_limit: SimTime::from_secs(60),
            linger: SimDuration::from_millis(200),
        }
    }
}

/// What a session accomplished, for summaries and CI greps.
#[derive(Debug, Clone, Copy)]
pub struct TransferReport {
    /// Bytes moved (delivered on connect, cumulatively ACKed on serve).
    pub bytes: u64,
    /// Of those, bytes that rode the WiFi path.
    pub wifi: u64,
    /// Of those, bytes that rode the cellular path.
    pub cellular: u64,
    /// Whether the transfer completed before the wall limit.
    pub complete: bool,
    /// Wall time from reactor start to completion check.
    pub elapsed: Duration,
    /// Reactor counters.
    pub stats: ReactorStats,
    /// Datagrams actually put on the wire.
    pub datagrams_sent: u64,
    /// Datagrams received and decoded.
    pub datagrams_received: u64,
}

fn reactor_for(
    cfg: &SessionConfig,
    conn: MpConnection,
    transport: UdpTransport,
) -> Reactor<UdpTransport> {
    let mut reactor = Reactor::new(ClockSource::wall(), transport);
    reactor.wall_limit = cfg.wall_limit;
    reactor.attach_faults(cfg.faults.clone());
    reactor.register(ConnWorker::new(conn, 0));
    reactor
}

/// Wire the connection's telemetry to a follow-friendly JSONL sink; the
/// returned handle lets the run loop flush at a bounded cadence.
type SharedSink = Arc<Mutex<JsonlSink<File>>>;

fn attach_trace(cfg: &SessionConfig, conn: &mut MpConnection) -> io::Result<Option<SharedSink>> {
    let Some(path) = &cfg.trace else {
        return Ok(None);
    };
    let sink = Arc::new(Mutex::new(JsonlSink::new(File::create(path)?)));
    let telemetry = Telemetry::builder()
        .sink(Box::new(Arc::clone(&sink)))
        .invariants(true)
        .build();
    conn.set_telemetry(telemetry.scope(0));
    Ok(Some(sink))
}

/// Run the reactor until `finished` (or the wall limit), flushing the
/// trace on a timer, then linger to answer the peer's final
/// retransmissions.
fn drive(
    reactor: &mut Reactor<UdpTransport>,
    sink: Option<SharedSink>,
    linger: SimDuration,
    finished: impl Fn(&MpConnection) -> bool,
) -> ReactorStats {
    let mut last_flush = Instant::now();
    let mut flush = move |sink: &Option<SharedSink>| {
        if let Some(s) = sink {
            if last_flush.elapsed() >= TRACE_FLUSH_EVERY {
                last_flush = Instant::now();
                s.lock()
                    .expect("sink poisoned")
                    .flush()
                    .expect("trace flush");
            }
        }
    };
    let stats = reactor.run_until(|workers| {
        flush(&sink);
        finished(&workers[0].conn)
    });
    // Completion on our side does not mean the peer heard about it; keep
    // reacting briefly so its retransmissions get answered.
    let until = Instant::now() + Duration::from_nanos(linger.as_nanos());
    reactor.run_until(|_| {
        flush(&sink);
        Instant::now() >= until
    });
    if let Some(s) = &sink {
        s.lock()
            .expect("sink poisoned")
            .flush()
            .expect("trace flush");
    }
    stats
}

fn report(
    reactor: &Reactor<UdpTransport>,
    stats: ReactorStats,
    bytes: u64,
    wifi: u64,
    cellular: u64,
    complete: bool,
) -> TransferReport {
    TransferReport {
        bytes,
        wifi,
        cellular,
        complete,
        elapsed: Duration::from_nanos(stats.finished_at.as_nanos()),
        stats,
        datagrams_sent: reactor.transport.datagrams_sent,
        datagrams_received: reactor.transport.datagrams_received,
    }
}

/// Host the data sender: bind `port_base + i` per path, learn peers from
/// the client's handshakes, push `cfg.size` bytes, finish when every byte
/// is cumulatively ACKed.
pub fn run_serve(cfg: &SessionConfig) -> io::Result<TransferReport> {
    let mut conn = mp_connection(Role::Server, cfg.paths.len());
    let sink = attach_trace(cfg, &mut conn)?;
    conn.write(cfg.size);
    let transport = UdpTransport::bind(cfg.port_base, cfg.paths.clone(), cfg.seed)?;
    let mut reactor = reactor_for(cfg, conn, transport);
    let size = cfg.size;
    let stats = drive(&mut reactor, sink, cfg.linger, |c| c.bytes_acked() >= size);
    let conn = &reactor.workers[0].conn;
    let (bytes, wifi, cellular) = (
        conn.bytes_acked(),
        conn.acked_by_iface(IfaceKind::Wifi),
        conn.acked_by_iface(IfaceKind::CellularLte),
    );
    let complete = bytes >= size;
    Ok(report(&reactor, stats, bytes, wifi, cellular, complete))
}

/// Run the receiver: preset peers at `cfg.peer + i`, initiate the subflow
/// handshakes (SYN retransmission doubles as rendezvous retry), finish
/// when `cfg.size` bytes are delivered in order.
pub fn run_connect(cfg: &SessionConfig) -> io::Result<TransferReport> {
    let peer = cfg.peer.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "connect needs a peer address")
    })?;
    let mut conn = mp_connection(Role::Client, cfg.paths.len());
    let sink = attach_trace(cfg, &mut conn)?;
    let mut transport = UdpTransport::bind(cfg.port_base, cfg.paths.clone(), cfg.seed)?;
    for i in 0..cfg.paths.len() {
        let mut addr = peer;
        addr.set_port(peer.port() + i as u16);
        transport.set_peer(i, addr);
    }
    let mut reactor = reactor_for(cfg, conn, transport);
    let size = cfg.size;
    let stats = drive(&mut reactor, sink, cfg.linger, |c| {
        c.bytes_delivered() >= size
    });
    // Emit the final coalesced Delivered remainder so trace totals match
    // connection totals.
    reactor.workers[0]
        .conn
        .flush_delivered_trace(stats.finished_at);
    let conn = &reactor.workers[0].conn;
    let (bytes, wifi, cellular) = (
        conn.bytes_delivered(),
        conn.delivered_by_iface(IfaceKind::Wifi),
        conn.delivered_by_iface(IfaceKind::CellularLte),
    );
    let complete = bytes >= size;
    Ok(report(&reactor, stats, bytes, wifi, cellular, complete))
}
