//! Deterministic event-driven simulation kernel for the `fiveg-wild` workspace.
//!
//! Every experiment in this reproduction of *"A Variegated Look at 5G in the
//! Wild"* (SIGCOMM 2021) runs on top of this crate. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time,
//! * [`rng::RngStream`] — named, seeded random-number streams so that every
//!   stochastic component of the simulated "field" is reproducible,
//! * [`stats`] — summary statistics (means, percentiles, CDFs, regressions)
//!   used to aggregate measurement campaigns the way the paper does
//!   (e.g. 95th-percentile Speedtest results),
//! * [`series::TimeSeries`] — timestamped samples with integration and
//!   resampling, used for power traces (5 kHz "Monsoon" sampling) and
//!   per-second throughput traces,
//! * [`attempt`] — one supervised attempt's ambient context: an
//!   [`attempt::Attempt`] installs the fault schedule, the recovery,
//!   telemetry and guard collectors, the event budget and the cancellation
//!   token together, one guard uninstalls them and one drain reads them
//!   back. The planes below are its hooks:
//! * [`faults`] — a deterministic fault-injection plane: seeded, named
//!   disruption events (cell outages, blockage storms, RRC resets, loss
//!   bursts, …) that components consult through the attempt's schedule,
//!   off by default and free when off,
//! * [`budget`] — per-attempt event budgets so a supervised runner can kill
//!   runaway experiments deterministically,
//! * [`cancel`] — the cooperative cancellation plane: a per-attempt shared
//!   token (kill flag + optional deadline) polled from the budget's
//!   countdown, so a supervising thread can ask an experiment to unwind
//!   and actually exit instead of abandoning its thread; bit-identical
//!   and free when absent,
//! * [`recovery`] — the reaction side of the fault plane: a collector of
//!   structured recovery events (link re-establishments, TCP RTOs, segment
//!   retries, interface failovers, …) emitted by the stack's self-healing
//!   hooks and aggregated into per-experiment resilience summaries,
//! * [`telemetry`] — the deterministic observability plane: sim-time
//!   spans (RAII enter/exit), counters, gauges, and fixed-bucket
//!   histograms, bit-identical off,
//! * [`guard`] — the runtime invariant plane: structural checks (value
//!   ranges, conservation laws, state-transition legality) evaluated
//!   *inside* the running simulators, recorded per attempt with sim-time
//!   context, and bit-identical off,
//! * [`ambient`] — the six-argument `install_attempt` the benchmark harness
//!   still calls, a shim over [`attempt::Attempt`].
//!
//! The kernel is single-threaded and allocation-light by design: determinism
//! is a feature, because the "field" this workspace measures is itself a
//! simulation that must be re-runnable bit-for-bit.

pub mod ambient;
pub mod attempt;
pub mod budget;
pub mod cancel;
pub mod faults;
pub mod guard;
pub mod recovery;
pub mod rng;
pub mod series;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod units;

pub use rng::RngStream;
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
