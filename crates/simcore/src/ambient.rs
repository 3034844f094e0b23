//! The six-argument install of the benchmark harness, kept until it moves
//! to [`crate::attempt::Attempt`].

use std::sync::Arc;

use crate::attempt::{Attempt, AttemptGuard};
use crate::cancel::CancelToken;
use crate::faults::{FaultScenario, FaultSchedule};
use crate::guard::GuardPolicy;

/// Installs an [`Attempt`] with the schedule generated from
/// `(seed, scenario)` (none without a scenario), the event budget, the
/// telemetry switch, the guard policy and the cancellation token.
pub fn install_attempt(
    scenario: Option<&FaultScenario>,
    seed: u64,
    event_budget: u64,
    telemetry: bool,
    guards: Option<GuardPolicy>,
    cancel: Option<Arc<CancelToken>>,
) -> AttemptGuard {
    Attempt::new()
        .faults(scenario.map(|sc| FaultSchedule::generate(seed, sc)))
        .budget(event_budget)
        .telemetry(telemetry)
        .guards(guards)
        .cancel(cancel)
        .install()
}
