//! The in-process transport: a [`ChaosNet`] behind the wire codec.
//!
//! The [`Transport`] trait, the settle loop and the shaping draw live in
//! `emptcp-faults`, next to the chaos rigs that share them.
//! [`DuplexTransport`] adds exactly one thing to the rigs' [`ChaosNet`]:
//! every segment is encoded to a wire frame and decoded again before it
//! enters the shaped paths, so what crosses is what a peer would decode.
//! That round trip is all that separates the two backends of the parity
//! harness, and so all that [`certify`](crate::certify) checks.

use crate::codec::{decode_frame, encode_frame};
use emptcp_faults::{ChaosNet, ChaosPath, Transport};
use emptcp_sim::SimTime;
use emptcp_tcp::Segment;

/// In-process duplex pair: endpoint 0 and endpoint 1, connected by shaped
/// paths, frames carried through the real codec.
pub struct DuplexTransport {
    net: ChaosNet,
}

impl DuplexTransport {
    /// A duplex pair over `paths`, shaped exactly like a [`ChaosNet`]
    /// with the same seed.
    pub fn new(seed: u64, paths: Vec<ChaosPath>) -> DuplexTransport {
        DuplexTransport {
            net: ChaosNet::new(seed, paths),
        }
    }
}

impl Transport for DuplexTransport {
    fn endpoints(&self) -> usize {
        2
    }

    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment) {
        // A duplex channel is a private interface: a frame that fails to
        // decode is a codec bug, not peer hostility.
        let (path, seg) = decode_frame(&encode_frame(path, seg)).expect("duplex frame decodes");
        self.net.send(now, from, path, &seg);
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        self.net.poll_recv(now)
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.net.next_wakeup()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        self.net.paths_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emptcp_sim::SimDuration;

    fn paths() -> Vec<ChaosPath> {
        vec![
            ChaosPath::new(0.0, SimDuration::from_millis(10), 0),
            ChaosPath::new(0.0, SimDuration::from_millis(30), 0),
        ]
    }

    #[test]
    fn frames_cross_with_path_delay() {
        let mut t = DuplexTransport::new(7, paths());
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.payload = 99;
        t.send(SimTime::ZERO, 0, 1, &seg);
        assert_eq!(t.next_wakeup(), Some(SimTime::from_millis(30)));
        assert!(t.poll_recv(SimTime::from_millis(29)).is_none());
        let (to, path, got) = t.poll_recv(SimTime::from_millis(30)).expect("arrived");
        assert_eq!((to, path, got.payload), (1, 1, 99));
    }

    #[test]
    fn downed_path_drops_silently() {
        let mut t = DuplexTransport::new(7, paths());
        t.paths_mut()[0].set_up(false);
        t.send(SimTime::ZERO, 1, 0, &Segment::empty(SimTime::ZERO));
        assert_eq!(t.next_wakeup(), None);
    }
}
