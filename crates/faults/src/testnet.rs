//! Shared chaos-test network rigs and the one shaping draw.
//!
//! The TCP and MPTCP chaos suites used to carry their own copy-pasted
//! "lossy network" (an event queue plus per-path drop/dup/jitter draws).
//! This module is the single shared implementation:
//!
//! * [`ChaosPath`] — one path's loss/delay/blackhole state, the vocabulary
//!   a [`FaultPlan`](crate::FaultPlan) speaks;
//! * [`Shaper`] — the shaping draw (pass/loss gate, duplication gate, one
//!   jitter draw per copy) over a set of paths. Every shaped transport
//!   in the workspace calls it: [`ChaosNet`] here, and the live backend's
//!   duplex and UDP transports;
//! * [`ChaosNet`] — a [`Transport`] between endpoint 0 (client) and
//!   endpoint 1 (server) that queues shaped segments by arrival time;
//! * [`MpChaosRig`] — a full MPTCP connection pair over a [`ChaosNet`],
//!   which is simply a [`Reactor`] on a virtual clock: the settle loop and
//!   the [`FaultSurface`](crate::FaultSurface) it runs are the reactor's.
//!
//! Randomness discipline: the seed is split with [`SimRng::fork_labeled`]
//! into independent streams (`"traffic"` for the shaping draws; callers
//! fork more, e.g. `"faults"`, for their own use), so adding a new
//! consumer never shifts an existing stream.
//!
//! Fidelity note: paths here are delay-based, not rate-serialized — the
//! full queueing [`emptcp_phy::Link`] model lives in the experiment host.
//! Consequently a rate fault on a shaped path only distinguishes `Some(0)`
//! (a silent blackhole) from everything else (path passes traffic);
//! intermediate rates are a no-op here.

use crate::reactor::{Reactor, Transport};
use emptcp_phy::{LossModel, LossProcess};
use emptcp_sim::{EventQueue, SimDuration, SimRng, SimTime};
use emptcp_tcp::Segment;

/// One bidirectional path through the chaos network.
#[derive(Clone, Debug)]
pub struct ChaosPath {
    /// Channel loss process (shared semantics with [`emptcp_phy::Link`]).
    pub loss: LossProcess,
    /// The scenario's nominal loss model, restored by `set_loss(None)`.
    nominal_loss: LossModel,
    /// Probability an accepted packet is duplicated.
    pub dup: f64,
    /// Base one-way delay.
    pub base_delay: SimDuration,
    /// Fault-injected extra one-way delay.
    pub extra_delay: SimDuration,
    /// Uniform random extra delay up to this many ms (reordering source).
    pub jitter_ms: u64,
    /// Administrative up/down (fault-injected blackouts).
    up: bool,
    /// Silent rate-zero blackhole (no link-layer notification).
    rate_zero: bool,
}

impl ChaosPath {
    /// A path with i.i.d. loss, a base delay and a jitter bound.
    pub fn new(loss: f64, base_delay: SimDuration, jitter_ms: u64) -> ChaosPath {
        let model = LossModel::Bernoulli(loss);
        ChaosPath {
            loss: LossProcess::new(model),
            nominal_loss: model,
            dup: 0.0,
            base_delay,
            extra_delay: SimDuration::ZERO,
            jitter_ms,
            up: true,
            rate_zero: false,
        }
    }

    /// Add a duplication probability.
    pub fn with_dup(mut self, dup: f64) -> ChaosPath {
        self.dup = dup;
        self
    }

    /// Whether the path currently passes traffic at all.
    pub fn passes_traffic(&self) -> bool {
        self.up && !self.rate_zero
    }

    /// The scenario's nominal loss model (what `set_loss(None)` restores).
    pub fn nominal_loss(&self) -> LossModel {
        self.nominal_loss
    }

    /// Administrative up/down: how the reactor's fault surface applies
    /// [`FaultAction::IfaceDown`](crate::FaultAction) /
    /// [`FaultAction::IfaceUp`](crate::FaultAction).
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Engage or release the silent rate-zero blackhole (the delay-based
    /// rendering of [`FaultAction::Rate`](crate::FaultAction)`(Some(0))`).
    pub fn set_rate_zero(&mut self, rate_zero: bool) {
        self.rate_zero = rate_zero;
    }
}

/// The shaping draw over a set of paths, seeded like every shaped
/// transport: the seed's `"traffic"` fork feeds the draws, the root is
/// only ever forked.
#[derive(Debug)]
pub struct Shaper {
    /// The paths, indexed by the [`FaultTarget::path_index`] convention.
    ///
    /// [`FaultTarget::path_index`]: crate::FaultTarget::path_index
    pub paths: Vec<ChaosPath>,
    /// The seed RNG; never drawn from directly, only forked by label.
    root: SimRng,
    /// The `"traffic"` stream: loss, duplication and jitter draws.
    rng: SimRng,
}

impl Shaper {
    /// A shaper over `paths`, seeded deterministically.
    pub fn new(seed: u64, paths: Vec<ChaosPath>) -> Shaper {
        let root = SimRng::new(seed);
        let rng = root.fork_labeled("traffic");
        Shaper { paths, root, rng }
    }

    /// An independent RNG stream derived from the seed; drawing from it
    /// never perturbs the traffic stream (or any other fork).
    pub fn fork(&self, label: &str) -> SimRng {
        self.root.fork_labeled(label)
    }

    /// Offer one frame to `path` at `now`: the pass/loss gate, then the
    /// duplication gate, then one jitter draw per copy. `arrive` is called
    /// with each surviving copy's arrival instant; returns the number of
    /// copies (0 when the frame was shaped away).
    pub fn shape(&mut self, now: SimTime, path: u8, mut arrive: impl FnMut(SimTime)) -> u32 {
        let p = &mut self.paths[path as usize];
        if !p.passes_traffic() || p.loss.lost(&mut self.rng) {
            return 0;
        }
        let copies = if p.dup > 0.0 && self.rng.chance(p.dup) {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let jitter = SimDuration::from_millis(self.rng.below(p.jitter_ms + 1));
            arrive(now + p.base_delay + p.extra_delay + jitter);
        }
        copies
    }
}

/// A multi-path lossy, jittery, duplicating network between endpoint 0
/// (the client) and endpoint 1 (the server).
#[derive(Debug)]
pub struct ChaosNet {
    /// `(to_endpoint, path, segment)` keyed by arrival time.
    queue: EventQueue<(usize, u8, Segment)>,
    /// The shaping draw and the paths it shapes.
    pub shaper: Shaper,
}

impl ChaosNet {
    /// A network over the given paths, seeded deterministically.
    pub fn new(seed: u64, paths: Vec<ChaosPath>) -> ChaosNet {
        ChaosNet {
            queue: EventQueue::new(),
            shaper: Shaper::new(seed, paths),
        }
    }
}

impl Transport for ChaosNet {
    fn endpoints(&self) -> usize {
        2
    }

    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment) {
        debug_assert!(from < 2, "chaos endpoints are 0 and 1");
        let queue = &mut self.queue;
        self.shaper.shape(now, path, |at| {
            queue.schedule(at, (1 - from, path, *seg));
        });
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        if self.queue.peek_time()? > now {
            return None;
        }
        self.queue.pop().map(|(_, frame)| frame)
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        &mut self.shaper.paths
    }
}

/// A complete two-host MPTCP rig over a [`ChaosNet`]: one subflow per
/// path (path 0 is WiFi, later paths cellular), settled by the reactor
/// loop on a virtual clock. Attach a plan with
/// [`Reactor::attach_faults`], run a transfer with [`Reactor::run`].
pub type MpChaosRig = Reactor<ChaosNet>;

impl MpChaosRig {
    /// A rig with one subflow per path on both ends.
    pub fn chaos(seed: u64, paths: Vec<ChaosPath>) -> MpChaosRig {
        Reactor::pair(ChaosNet::new(seed, paths))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultSurface, FaultTarget};
    use emptcp_phy::IfaceKind;

    fn two_paths() -> Vec<ChaosPath> {
        vec![
            ChaosPath::new(0.0, SimDuration::from_millis(12), 0),
            ChaosPath::new(0.0, SimDuration::from_millis(35), 0),
        ]
    }

    #[test]
    fn clean_network_delivers_exactly() {
        let mut rig = MpChaosRig::chaos(1, two_paths());
        assert_eq!(rig.run(256 << 10), 256 << 10);
    }

    #[test]
    fn forked_streams_are_independent_of_extra_consumers() {
        let net_a = ChaosNet::new(77, two_paths());
        let net_b = ChaosNet::new(77, two_paths());
        // Net B hands out a fault stream before traffic runs; the traffic
        // stream must be unaffected.
        let mut faults_rng = net_b.shaper.fork("faults");
        let _ = faults_rng.below(1000);
        let mut a = net_a.shaper.rng.clone();
        let mut b = net_b.shaper.rng.clone();
        for _ in 0..64 {
            assert_eq!(a.below(u64::MAX), b.below(u64::MAX));
        }
    }

    #[test]
    fn downed_path_passes_nothing() {
        let mut rig = MpChaosRig::chaos(3, two_paths());
        rig.notify_link_down = false;
        rig.set_iface_up(SimTime::ZERO, FaultTarget::Cellular, false);
        assert_eq!(rig.run(64 << 10), 64 << 10);
        assert_eq!(rig.client().delivered_by_iface(IfaceKind::CellularLte), 0);
    }
}
