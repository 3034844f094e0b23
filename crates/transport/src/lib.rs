//! Transport substrate: end-to-end paths, fluid-model TCP, UDP, shaping.
//!
//! The paper's §3 dissects how TCP behaves over mmWave's ultra-high
//! bandwidth: multiple connections saturate the radio, a single connection
//! decays with UE–server distance, the default `tcp_wmem` send-buffer cap
//! pins single-connection throughput near 500 Mbps, and even a tuned buffer
//! trails UDP. This crate reproduces those mechanisms:
//!
//! * [`path`] — composes radio RTT, fiber propagation, per-path loss, and
//!   the bottleneck queueing model into a [`path::PathModel`],
//! * [`tcp`] — a fluid-flow congestion-control simulation (CUBIC and Reno)
//!   with slow start, send-buffer caps, shared-bottleneck fairness, and
//!   Poisson loss,
//! * [`bbr`] / [`nada`] — rate-based controllers (BBR's windowed
//!   BtlBw/RTprop model, NADA's RFC 8698 delay-gradient PI loop) that run
//!   on the explicit-queue rate engine behind the same [`tcp::TcpSim`]
//!   front door,
//! * [`bond`] — a bonded multi-interface path: DWRR striping across
//!   4G+5G links with per-link capacity estimation and RFC 8382-style
//!   shared-bottleneck detection,
//! * [`udp`] — constant-bit-rate flows (the iPerf3 workloads of §4),
//! * [`shaper`] — a `tc`-like trace-driven bandwidth shaper used by the
//!   video experiments.
//!
//! The fluid, rate and bonded engines differ only in how a step delivers:
//! the fault sample, the RFC 6298 stall timer for §3.3's handoff stalls
//! and the per-second goodput ledger are written once, in `step`.

pub mod bbr;
pub mod bond;
pub mod nada;
pub mod path;
mod rate;
pub mod shaper;
mod step;
pub mod tcp;
pub mod udp;

pub use bond::{BondResult, BondedConfig, BondedSim};
pub use path::PathModel;
pub use shaper::BandwidthTrace;
pub use tcp::{CcAlgo, TcpSim, TcpSimConfig};
pub use udp::UdpFlow;
