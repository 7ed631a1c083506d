//! Chaos testing: the TCP endpoint pair must deliver the exact byte stream
//! through any combination of loss, reordering and duplication the network
//! can produce. The lossy network itself is the shared rig from
//! `emptcp-faults::testnet` (one path, duplication enabled).

use emptcp_faults::testnet::{ChaosNet, ChaosPath};
use emptcp_faults::Transport;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::{TcpConfig, TcpEndpoint};
use proptest::prelude::*;

/// Run a transfer through the chaotic network; returns bytes delivered at
/// the client and bytes the server saw acknowledged.
fn run_chaos(total: u64, loss: f64, dup: f64, jitter_ms: u64, seed: u64) -> (u64, u64) {
    let path = ChaosPath::new(loss, SimDuration::from_millis(10), jitter_ms).with_dup(dup);
    let mut net = ChaosNet::new(seed, vec![path]);
    let mut client = TcpEndpoint::client(TcpConfig::default());
    let mut server = TcpEndpoint::listener(TcpConfig::default());
    client.connect(SimTime::ZERO);
    server.write(total);

    // Endpoint 0 is the client, endpoint 1 the server.
    let drain = |now: SimTime, c: &mut TcpEndpoint, s: &mut TcpEndpoint, net: &mut ChaosNet| {
        while let Some(seg) = c.poll_transmit(now) {
            net.send(now, 0, 0, &seg);
        }
        while let Some(seg) = s.poll_transmit(now) {
            net.send(now, 1, 0, &seg);
        }
    };
    drain(SimTime::ZERO, &mut client, &mut server, &mut net);

    let mut guard = 0u64;
    loop {
        guard += 1;
        if guard > 2_000_000 {
            break;
        }
        // Next event: packet delivery or the earliest endpoint timer.
        let timer = client
            .next_deadline()
            .into_iter()
            .chain(server.next_deadline())
            .min();
        let next_packet = net.next_wakeup();
        let now = match (next_packet, timer) {
            (Some(p), Some(t)) => p.min(t),
            (Some(p), None) => p,
            (None, Some(t)) => t,
            (None, None) => break,
        };
        if now > SimTime::from_secs(600) {
            break;
        }
        if let Some((to, _, seg)) = net.poll_recv(now) {
            if to == 0 {
                client.on_segment(now, seg);
            } else {
                server.on_segment(now, seg);
            }
        }
        client.on_deadline(now);
        server.on_deadline(now);
        drain(now, &mut client, &mut server, &mut net);
        if client.bytes_delivered_total() >= total && server.bytes_acked_total() >= total {
            break;
        }
    }
    (client.bytes_delivered_total(), server.bytes_acked_total())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delivers_exactly_through_chaos(
        total_kb in 16u64..256,
        loss in 0.0f64..0.15,
        dup in 0.0f64..0.1,
        jitter_ms in 0u64..40,
        seed in 0u64..u64::MAX,
    ) {
        let total = total_kb << 10;
        let (delivered, acked) = run_chaos(total, loss, dup, jitter_ms, seed);
        prop_assert_eq!(delivered, total, "under-/over-delivery");
        prop_assert_eq!(acked, total, "sender never learnt of completion");
    }
}

#[test]
fn survives_heavy_loss() {
    let (delivered, acked) = run_chaos(64 << 10, 0.30, 0.05, 20, 7);
    assert_eq!(delivered, 64 << 10);
    assert_eq!(acked, 64 << 10);
}

#[test]
fn survives_pure_reordering() {
    let (delivered, acked) = run_chaos(256 << 10, 0.0, 0.0, 60, 11);
    assert_eq!(delivered, 256 << 10);
    assert_eq!(acked, 256 << 10);
}

#[test]
fn survives_heavy_duplication() {
    let (delivered, acked) = run_chaos(128 << 10, 0.02, 0.5, 10, 13);
    assert_eq!(delivered, 128 << 10);
    assert_eq!(acked, 128 << 10);
}
