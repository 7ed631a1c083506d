//! The settle loop: the one engine that moves segments between
//! [`MpConnection`]s over shaped paths.
//!
//! The protocol cores are synchronous state machines, so the engine under
//! them is a classic reactor — a readiness sweep over a [`Transport`], a
//! timer sweep over per-connection deadlines, and per-connection workers
//! that feed arrivals into [`MpConnection`] and drain its
//! `poll_transmit` output back to the wire. There is no async runtime in
//! this workspace (offline-vendored, no tokio), and none is needed.
//!
//! Every engine of that shape runs this loop: the chaos rigs
//! ([`MpChaosRig`](crate::MpChaosRig) is a `Reactor<ChaosNet>`), the live
//! backend's in-process duplex transport, and its UDP sockets. They differ
//! only in the [`Transport`] and the [`ClockSource`].
//!
//! **The drain discipline is load-bearing.** Each iteration advances the
//! clock to the next known instant, applies due faults, delivers *at most
//! one* frame, then runs every worker's deadline sweep and transmit drain
//! in registration order. The decision logs the chaos suites and the
//! parity goldens pin are logs of this discipline. A dirty-set
//! optimization (only settling touched connections) would be faster for
//! thousands of connections per reactor, but would perturb the
//! clock-coupled replay cadence ([`Clocked`]) and with it every pinned
//! log; it is out of scope until the determinism contract moves to
//! delivered-byte accounting (see DESIGN §17).
//!
//! On a wall clock the same loop sleeps in bounded slices
//! ([`MAX_WALL_SLEEP`]) so socket readiness is re-checked at a steady
//! cadence, and each iteration drives [`Clocked::clock_tick`] — live wall
//! ticks and virtual ticks reach the identical side-effect replay.

use crate::clock::{ClockSource, MAX_WALL_SLEEP};
use crate::injector::{FaultInjector, FaultSurface};
use crate::plan::{FaultPlan, FaultTarget};
use crate::testnet::ChaosPath;
use emptcp_mptcp::{MpConnection, Role, SubflowId};
use emptcp_phy::{IfaceKind, LossModel};
use emptcp_sim::{Clocked, SimDuration, SimTime};
use emptcp_tcp::{Segment, TcpConfig};

/// Iteration cap: the runaway guard of every run.
const GUARD_MAX: u64 = 3_000_000;

/// Frame movement between reactor endpoints over shaped paths.
pub trait Transport {
    /// Number of endpoints this transport connects locally (a chaos
    /// network or duplex pair hosts both ends; a UDP transport hosts one,
    /// the peer being another process).
    fn endpoints(&self) -> usize;

    /// Offer `seg` from endpoint `from` onto `path`. The transport shapes
    /// (loss / delay / blackhole) and queues or emits the frame; a
    /// shaped-away frame disappears silently, exactly like a lost
    /// datagram.
    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment);

    /// At most one frame deliverable at `now`: `(endpoint, path,
    /// segment)`. One frame per call by design — the reactor settles all
    /// connections between arrivals.
    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)>;

    /// Earliest instant at which the transport knows it will have work
    /// (in-flight frame arrival or a delayed egress flush). `None` for
    /// transports that cannot know (real sockets). Takes `&mut self`
    /// because the timing wheel settles its cursor on peek.
    fn next_wakeup(&mut self) -> Option<SimTime>;

    /// The shaped paths, for fault application.
    fn paths_mut(&mut self) -> &mut [ChaosPath];
}

/// A connection with one subflow per path: path 0 is WiFi, later paths
/// cellular (the [`FaultTarget::path_index`] convention), default
/// [`TcpConfig`].
pub fn mp_connection(role: Role, paths: usize) -> MpConnection {
    let mut conn = MpConnection::new(role, TcpConfig::default());
    for idx in 0..paths {
        let iface = if idx == 0 {
            IfaceKind::Wifi
        } else {
            IfaceKind::CellularLte
        };
        conn.add_subflow(SimTime::ZERO, iface);
    }
    conn
}

/// One connection plus its transport endpoint: the unit the reactor
/// pumps. Workers are plain structs driven by the loop (not threads) so
/// the whole engine stays deterministic under a virtual clock.
pub struct ConnWorker {
    /// The protocol core.
    pub conn: MpConnection,
    /// Which transport endpoint this worker's frames enter and leave by.
    pub endpoint: usize,
}

impl ConnWorker {
    /// A worker pumping `conn` through transport endpoint `endpoint`.
    pub fn new(conn: MpConnection, endpoint: usize) -> ConnWorker {
        ConnWorker { conn, endpoint }
    }
}

/// What a reactor run did, for reports and assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorStats {
    /// Loop iterations executed.
    pub iterations: u64,
    /// Frames delivered into workers.
    pub arrivals: u64,
    /// Segments drained from workers onto the transport.
    pub sends: u64,
    /// Fault-plan events applied.
    pub fault_events: u64,
    /// Clock reading when the run ended.
    pub finished_at: SimTime,
}

/// The engine: clock + transport + workers (+ an optional fault plan).
pub struct Reactor<T: Transport> {
    /// Where "now" comes from.
    pub clock: ClockSource,
    /// The shaped paths between the workers (and, for sockets, the peer).
    pub transport: T,
    /// The connections, in settle order.
    pub workers: Vec<ConnWorker>,
    /// Replays a [`FaultPlan`] against the transport's shaped paths as
    /// the clock passes each event.
    pub injector: Option<FaultInjector>,
    /// Deliver link-layer up/down notifications to the stacks on
    /// interface faults (a real de-association is visible to the kernel);
    /// disable to force detection through RTOs alone.
    pub notify_link_down: bool,
    /// Absolute clock cut-off for [`Reactor::run_until`].
    pub wall_limit: SimTime,
    stats: ReactorStats,
}

impl<T: Transport> Reactor<T> {
    /// A reactor with no workers yet.
    pub fn new(clock: ClockSource, transport: T) -> Reactor<T> {
        Reactor {
            clock,
            transport,
            workers: Vec::new(),
            injector: None,
            notify_link_down: true,
            wall_limit: SimTime::from_secs(900),
            stats: ReactorStats::default(),
        }
    }

    /// Register a worker; returns its index. Registration order is the
    /// settle order.
    pub fn register(&mut self, worker: ConnWorker) -> usize {
        self.workers.push(worker);
        self.workers.len() - 1
    }

    /// Replay `plan` against the shaped paths during later runs.
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    fn poll_faults(&mut self, now: SimTime) {
        if let Some(mut inj) = self.injector.take() {
            self.stats.fault_events += inj.poll(now, self) as u64;
            self.injector = Some(inj);
        }
    }

    /// Drain every worker's pending transmissions onto the transport, in
    /// registration order.
    fn pump_transmit(&mut self, now: SimTime) {
        let Reactor {
            workers,
            transport,
            stats,
            ..
        } = self;
        for w in workers.iter_mut() {
            while let Some((sf, seg)) = w.conn.poll_transmit(now) {
                transport.send(now, w.endpoint, sf.0, &seg);
                stats.sends += 1;
            }
        }
    }

    /// Deliver at most one due frame into its worker.
    fn deliver_one(&mut self, now: SimTime) -> bool {
        let Some((ep, path, seg)) = self.transport.poll_recv(now) else {
            return false;
        };
        self.stats.arrivals += 1;
        let w = self
            .workers
            .iter_mut()
            .find(|w| w.endpoint == ep)
            .expect("frame for an unregistered endpoint");
        w.conn.on_segment(now, SubflowId(path), seg);
        true
    }

    /// Earliest pending protocol or fault deadline across all workers.
    fn next_deadline(&mut self) -> Option<SimTime> {
        self.workers
            .iter_mut()
            .filter_map(|w| w.conn.next_deadline())
            .chain(self.injector.as_ref().and_then(|i| i.next_deadline()))
            .min()
    }

    /// Run the loop until `done` says so, no event source has anything
    /// left (virtual clock), or the wall limit passes. Returns the run's
    /// stats; cumulative stats stay on the reactor.
    pub fn run_until(&mut self, mut done: impl FnMut(&[ConnWorker]) -> bool) -> ReactorStats {
        let start = self.clock.now();
        // Prologue: apply faults due at the start instant and drain the
        // initial transmissions (SYNs, the first data the sender already
        // queued) — no deadline sweep yet.
        self.poll_faults(start);
        self.pump_transmit(start);
        if self.clock.is_wall() {
            self.run_wall(&mut done)
        } else {
            self.run_virtual(&mut done)
        }
    }

    /// Virtual-clock flavor: jump instant-to-instant.
    fn run_virtual(&mut self, done: &mut impl FnMut(&[ConnWorker]) -> bool) -> ReactorStats {
        let mut guard = 0u64;
        loop {
            guard += 1;
            if guard > GUARD_MAX || done(&self.workers) {
                break;
            }
            let timer = self.next_deadline();
            let pkt = self.transport.next_wakeup();
            let next = match (pkt, timer) {
                (Some(p), Some(t)) => p.min(t),
                (Some(p), None) => p,
                (None, Some(t)) => t,
                (None, None) => break,
            };
            if next > self.wall_limit {
                break;
            }
            let now = self.clock.advance_to(next);
            self.stats.iterations += 1;
            self.poll_faults(now);
            self.deliver_one(now);
            for w in &mut self.workers {
                w.conn.on_deadline(now);
            }
            self.pump_transmit(now);
        }
        self.stats.finished_at = self.clock.now();
        self.stats
    }

    /// Wall-clock flavor: the same settle discipline, but readiness is
    /// polled at a bounded sleep cadence (sockets can't announce their
    /// next arrival) and every iteration drives the [`Clocked`] replay —
    /// wall ticks and virtual ticks land in the identical code path.
    fn run_wall(&mut self, done: &mut impl FnMut(&[ConnWorker]) -> bool) -> ReactorStats {
        loop {
            if done(&self.workers) {
                break;
            }
            let now = self.clock.now();
            if now > self.wall_limit {
                break;
            }
            self.stats.iterations += 1;
            self.poll_faults(now);
            let progressed = self.deliver_one(now);
            for w in &mut self.workers {
                w.conn.clock_tick(now);
                w.conn.on_deadline(now);
            }
            self.pump_transmit(now);
            if !progressed {
                // Nothing arrived: sleep toward the next known deadline,
                // capped so socket readiness is re-checked promptly.
                let target = self
                    .next_deadline()
                    .into_iter()
                    .chain(self.transport.next_wakeup())
                    .min()
                    .unwrap_or(now + MAX_WALL_SLEEP)
                    .min(now + MAX_WALL_SLEEP)
                    .max(now + SimDuration::from_micros(50));
                self.clock.advance_to(target);
            }
        }
        self.stats.finished_at = self.clock.now();
        self.stats
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> ReactorStats {
        self.stats
    }
}

/// Connection pairs: the client (data receiver) on endpoint 0, the server
/// (data sender) on endpoint 1, settled client first. The accessors
/// assume a reactor built by [`Reactor::pair`].
impl<T: Transport> Reactor<T> {
    /// A virtual-clock reactor hosting a [`mp_connection`] pair, one
    /// subflow per path of `transport`.
    pub fn pair(mut transport: T) -> Reactor<T> {
        let paths = transport.paths_mut().len();
        let mut reactor = Reactor::new(ClockSource::scripted(), transport);
        reactor.register(ConnWorker::new(mp_connection(Role::Client, paths), 0));
        reactor.register(ConnWorker::new(mp_connection(Role::Server, paths), 1));
        reactor
    }

    /// The data receiver.
    pub fn client(&self) -> &MpConnection {
        &self.workers[0].conn
    }

    /// The data receiver, mutably.
    pub fn client_mut(&mut self) -> &mut MpConnection {
        &mut self.workers[0].conn
    }

    /// The data sender.
    pub fn server(&self) -> &MpConnection {
        &self.workers[1].conn
    }

    /// The data sender, mutably.
    pub fn server_mut(&mut self) -> &mut MpConnection {
        &mut self.workers[1].conn
    }

    /// Have the server push `total` bytes and run until the client has
    /// them all, progress stops, or the wall limit passes; returns the
    /// bytes delivered.
    pub fn run(&mut self, total: u64) -> u64 {
        self.server_mut().write(total);
        self.run_until(|workers| workers[0].conn.bytes_delivered() >= total);
        self.client().bytes_delivered()
    }
}

/// Fault application: plan targets map to transport paths by the
/// WiFi-first convention ([`FaultTarget::path_index`]); interface faults
/// optionally notify every stack.
impl<T: Transport> Reactor<T> {
    /// Paths a fault target maps onto: a single path for the interface
    /// targets, every path for the shared core (a congested core hits all
    /// traffic crossing it). Out-of-range single targets map to nothing.
    fn target_paths(&mut self, target: FaultTarget) -> std::ops::Range<usize> {
        let n = self.transport.paths_mut().len();
        match target.path_index() {
            Some(idx) if idx < n => idx..idx + 1,
            Some(_) => 0..0,
            None => 0..n,
        }
    }
}

impl<T: Transport> FaultSurface for Reactor<T> {
    fn set_iface_up(&mut self, now: SimTime, target: FaultTarget, up: bool) {
        for idx in self.target_paths(target) {
            self.transport.paths_mut()[idx].set_up(up);
            if self.notify_link_down {
                for w in &mut self.workers {
                    w.conn.set_subflow_link_up(now, SubflowId(idx as u8), up);
                }
            }
        }
    }

    fn set_rate(&mut self, _now: SimTime, target: FaultTarget, rate_bps: Option<u64>) {
        // Shaped paths are delay-based (no serializer): only the
        // rate-zero silent blackhole is meaningful (see `testnet`).
        for idx in self.target_paths(target) {
            self.transport.paths_mut()[idx].set_rate_zero(rate_bps == Some(0));
        }
    }

    fn set_loss(&mut self, _now: SimTime, target: FaultTarget, model: Option<LossModel>) {
        for idx in self.target_paths(target) {
            let path = &mut self.transport.paths_mut()[idx];
            let nominal = path.nominal_loss();
            path.loss.set_model(model.unwrap_or(nominal));
        }
    }

    fn set_extra_delay(&mut self, _now: SimTime, target: FaultTarget, extra: Option<SimDuration>) {
        for idx in self.target_paths(target) {
            self.transport.paths_mut()[idx].extra_delay = extra.unwrap_or(SimDuration::ZERO);
        }
    }
}
