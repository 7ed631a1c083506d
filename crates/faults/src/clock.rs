//! Where "now" comes from.
//!
//! The reactor is generic over its notion of time so the same loop runs
//! two ways:
//!
//! * **Wall** — `now` is monotonic nanoseconds since the reactor's epoch
//!   (`std::time::Instant`), mapped into [`SimTime`] so the protocol
//!   cores never learn which engine is driving them. Advancing the clock
//!   really sleeps.
//! * **Virtual** — `now` is a number the loop jumps to the next known
//!   deadline. This is the clock of every chaos rig and of the parity
//!   harness: same script, same instants, same decisions.

use emptcp_sim::{SimDuration, SimTime};
use std::time::Instant;

/// Longest single sleep the wall clock takes per advance, so socket
/// readiness is re-checked at a bounded cadence even when the next
/// protocol deadline is far away.
pub const MAX_WALL_SLEEP: SimDuration = SimDuration::from_millis(1);

/// A source of monotonic [`SimTime`] the reactor advances through.
#[derive(Debug)]
pub enum ClockSource {
    /// Real time: nanoseconds since `epoch`.
    Wall {
        /// The instant that reads as [`SimTime::ZERO`].
        epoch: Instant,
    },
    /// Scripted time: jumps wherever the loop steers it.
    Virtual {
        /// The current instant.
        now: SimTime,
    },
}

impl ClockSource {
    /// A wall clock whose epoch is this instant.
    pub fn wall() -> ClockSource {
        ClockSource::Wall {
            epoch: Instant::now(),
        }
    }

    /// A virtual clock starting at zero.
    pub fn scripted() -> ClockSource {
        ClockSource::Virtual { now: SimTime::ZERO }
    }

    /// True when driven by real time.
    pub fn is_wall(&self) -> bool {
        matches!(self, ClockSource::Wall { .. })
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        match self {
            ClockSource::Wall { epoch } => SimTime::from_nanos(epoch.elapsed().as_nanos() as u64),
            ClockSource::Virtual { now } => *now,
        }
    }

    /// Advance toward `target` and return the instant actually reached.
    ///
    /// The virtual clock jumps exactly to `target`. The wall clock sleeps
    /// at most [`MAX_WALL_SLEEP`] (or until `target`, whichever is
    /// sooner) and reports where it woke up — the reactor loops back to
    /// check readiness rather than sleeping blind through I/O.
    pub fn advance_to(&mut self, target: SimTime) -> SimTime {
        match self {
            ClockSource::Virtual { now } => {
                if target > *now {
                    *now = target;
                }
                *now
            }
            ClockSource::Wall { .. } => {
                let now = self.now();
                if target > now {
                    let gap = target.saturating_since(now).min(MAX_WALL_SLEEP);
                    std::thread::sleep(std::time::Duration::from_nanos(gap.as_nanos()));
                }
                self.now()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_jumps_and_never_rewinds() {
        let mut c = ClockSource::scripted();
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(
            c.advance_to(SimTime::from_millis(5)),
            SimTime::from_millis(5)
        );
        // A stale (earlier) target leaves the clock where it is.
        assert_eq!(
            c.advance_to(SimTime::from_millis(1)),
            SimTime::from_millis(5)
        );
    }

    #[test]
    fn wall_clock_moves_forward() {
        let mut c = ClockSource::wall();
        let a = c.now();
        let b = c.advance_to(a + SimDuration::from_micros(200));
        assert!(b >= a);
    }
}
