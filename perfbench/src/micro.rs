//! Per-call costs of single layers, timed around their public entry
//! points. The bodies follow the `micro` family of `emptcp_bench`'s
//! snapshot, so the numbers are comparable with `BENCH.json`.

use crate::Report;
use emptcp::{EmptcpConfig, PathUsageController};
use emptcp_energy::{Eib, EnergyModel};
use emptcp_sim::{EventQueue, SimDuration, SimRng, SimTime};
use emptcp_tcp::{Segment, SegmentSlab};
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per iteration of `f`, over `samples` batches.
fn time_ns(samples: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::median(&times)
}

/// Add every per-call layer cost to `report`.
pub fn layer_costs(report: &mut Report) {
    const SAMPLES: usize = 9;

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    let v = time_ns(SAMPLES, 200_000, || {
        t += 1;
        q.schedule(SimTime::from_nanos(t * 1000), t);
        if t.is_multiple_of(2) {
            black_box(q.pop());
        }
    });
    report.metric("sim.event_queue_push_pop_ns", v, "ns", SAMPLES);

    // Cancel the armed deadline and arm a replacement, with pops dragging
    // the wheel cursor across slot and level seams.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    let mut armed = q.schedule(SimTime::from_nanos(1_000), 0);
    let v = time_ns(SAMPLES, 200_000, || {
        t += 1;
        q.cancel(armed);
        armed = q.schedule(SimTime::from_nanos(t * 1_000 + 500_000), t);
        if t.is_multiple_of(8) {
            black_box(q.pop());
        }
    });
    report.metric("sim.timing_wheel_rearm_ns", v, "ns", SAMPLES);

    let mut slab = SegmentSlab::new();
    let mut p = 0u32;
    let v = time_ns(SAMPLES, 500_000, || {
        p = p.wrapping_add(1);
        let mut seg = Segment::empty(SimTime::ZERO);
        seg.payload = p;
        let r = slab.insert(seg);
        black_box(slab.take(r));
    });
    report.metric("tcp.segment_slab_recycle_ns", v, "ns", SAMPLES);

    {
        use emptcp_net::{NodeId, Port};
        use emptcp_phy::LinkConfig;
        let mut port = Port::new(
            NodeId(0),
            NodeId(1),
            LinkConfig {
                rate_bps: 1_000_000_000,
                prop_delay: SimDuration::from_micros(50),
                queue_capacity: 256 * 1024,
                loss_prob: 0.0,
            },
        );
        let scope = emptcp_telemetry::Telemetry::disabled().scope(0);
        let mut rng = SimRng::new(7);
        let mut now = SimTime::ZERO;
        let v = time_ns(SAMPLES, 200_000, || {
            // Offered just under line rate: the queue breathes around the
            // ECN threshold instead of saturating.
            now += SimDuration::from_micros(13);
            black_box(port.transmit(now, 1500, &mut rng, 0, 0, &scope));
        });
        report.metric("net.router_enqueue_ns", v, "ns", SAMPLES);
    }

    let model = EnergyModel::galaxy_s3_lte();
    let v = time_ns(SAMPLES, 4, || {
        black_box(Eib::generate_default(black_box(&model)));
    });
    report.metric("energy.eib_generate_ms", v * 1e-6, "ms", SAMPLES);

    let eib = Eib::generate_default(&model);
    let mut w = 0.1;
    let v = time_ns(SAMPLES, 200_000, || {
        w = (w + 0.37) % 12.0;
        black_box(eib.choose(black_box(w), black_box(4.0)));
    });
    report.metric("energy.eib_lookup_choose_ns", v, "ns", SAMPLES);

    let mut ctl = PathUsageController::new(EmptcpConfig::default().controller);
    let mut w = 0.1;
    let mut now = SimTime::ZERO;
    let v = time_ns(SAMPLES, 200_000, || {
        w = (w + 0.29) % 10.0;
        now += SimDuration::from_secs(5);
        black_box(ctl.decide(now, &eib, black_box(w), black_box(3.0)));
    });
    report.metric("core.controller_decide_ns", v, "ns", SAMPLES);

    // A full-MSS data segment, the frame the live transfers carry.
    let mut seg = Segment::empty(SimTime::ZERO);
    seg.payload = 1428;
    let v = time_ns(SAMPLES, 200_000, || {
        black_box(emptcp_live::encode_frame(1, black_box(&seg)));
    });
    report.metric("live.encode_ns", v, "ns", SAMPLES);
    let frame = emptcp_live::encode_frame(1, &seg);
    let v = time_ns(SAMPLES, 200_000, || {
        black_box(emptcp_live::decode_frame(black_box(&frame)).is_ok());
    });
    report.metric("live.decode_ns", v, "ns", SAMPLES);
}
