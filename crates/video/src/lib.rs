//! DASH video streaming over 5G/4G (§5 of the paper).
//!
//! * [`asset`] — encoding ladders: 6 tracks, adjacent-bitrate ratio ≈1.5,
//!   top track matched to the trace corpus median (160 Mbps on 5G,
//!   20 Mbps on 4G),
//! * [`player`] — a chunk-level DASH player over a trace-driven link:
//!   buffer dynamics, stalls, startup, switches, and the QoE reward. Both
//!   players, this one and [`ifselect`]'s, book every chunk through one
//!   session, so they share that bookkeeping and the video guards,
//! * [`abr`] — the seven ABR algorithms of §5.1: BBA, BOLA, RB, FESTIVE,
//!   FastMPC, RobustMPC, and a Pensieve stand-in ([`pensieve`]),
//! * [`predictor`] — throughput predictors for MPC (§5.3): harmonic mean,
//!   GBDT over throughput and RSRP (Lumos5G-style), and the ground-truth
//!   oracle,
//! * [`ifselect`] — §5.4's 5G-aware streaming: drop to 4G when predicted
//!   5G throughput sinks below the 4G average, return to 5G once the
//!   buffer recovers; accounts for the 4G↔5G switch delay and computes
//!   radio energy via the power models.

pub mod abr;
pub mod asset;
pub mod ifselect;
pub mod pensieve;
pub mod player;
pub mod predictor;

pub use abr::{Abr, AbrAlgo};
pub use asset::VideoAsset;
pub use player::{PlayerConfig, SessionResult};
pub use predictor::ThroughputPredictor;
