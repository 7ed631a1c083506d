//! `emptcp-live`: the real-traffic backend.
//!
//! Everything below `crates/tcp` and `crates/mptcp` is a pure,
//! event-driven state machine: segments in, segments out, timers in
//! between. One poll-loop [`Reactor`] drives those machines everywhere:
//! it lives in `emptcp-faults` next to the chaos rigs, where
//! [`MpChaosRig`](emptcp_faults::MpChaosRig) is that reactor over a
//! [`ChaosNet`](emptcp_faults::ChaosNet) on a virtual clock. This crate
//! adds the wire and the wall clock:
//!
//! * [`UdpTransport`] — non-blocking `std::net::UdpSocket` encapsulation,
//!   one socket per path, for cross-process traffic (`simulate serve` /
//!   `simulate connect`);
//! * [`DuplexTransport`] — the rigs' `ChaosNet` behind the wire codec,
//!   for hermetic tests and the parity harness.
//!
//! Both transports shape traffic with the rigs' own
//! [`Shaper`](emptcp_faults::Shaper) over [`ChaosPath`]s — one shaping
//! draw in the workspace — so a [`FaultPlan`](emptcp_faults::FaultPlan)
//! replays against a live transfer exactly as it replays against a
//! simulated one.
//!
//! [`backend::run_script`] pushes one scripted input (arrivals, ACK
//! timings, fault windows) through [`Backend::Sim`] (the reactor over a
//! `ChaosNet`) and [`Backend::Live`] (the reactor over the duplex
//! transport). The loop and the shaper are shared code, so what
//! [`parity::certify`] checks event-for-event is the one thing the
//! backends do differently: the [`encode_frame`]/[`decode_frame`] round
//! trip.

pub mod backend;
pub mod codec;
pub mod parity;
pub mod session;
pub mod transport;
pub mod udp;

pub use backend::{run_script, Backend, ParityScript, ScriptOutcome};
pub use codec::{decode_frame, encode_frame, CodecError};
pub use emptcp_faults::{ChaosPath, ClockSource, ConnWorker, Reactor, ReactorStats, Transport};
pub use parity::{certify, ParityDiff, ParityReport};
pub use session::{run_connect, run_serve, SessionConfig, TransferReport};
pub use transport::DuplexTransport;
pub use udp::UdpTransport;
