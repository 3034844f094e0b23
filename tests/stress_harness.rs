//! The stress harness's promises, end to end:
//!
//! 1. **Deterministic** — the same stress seed renders a byte-identical
//!    `stress.txt` table across reruns and worker counts.
//! 2. **Finds and shrinks** — a deliberately broken invariant (the
//!    canary hook) is caught as a guard violation, minimized to a case
//!    with no fault events and a collapsed budget, and written as a
//!    reproducer that replays to the identical violation — twice.
//! 3. **Quiet is clean** — the unfaulted simulation sails through a
//!    seeded sweep with zero failures.

use fiveg_bench::stress::{
    self, replay_repro, repro_json, run_case, run_stress, shrink, stress_table, StressConfig,
    Verdict,
};
use std::sync::OnceLock;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(120);

/// A cheap canary campaign: two cases pinned to fig10 (the RRC figure —
/// fast even in debug builds) under a real fault scenario, with the
/// deliberately broken invariant injected.
fn canary_cfg() -> StressConfig {
    StressConfig {
        cases: 2,
        seed: 7,
        scenario: Some("rrc-flaky".to_string()),
        canary: true,
        jobs: 2,
        experiments: Some(vec!["fig10".to_string()]),
        ..StressConfig::default()
    }
}

fn canary_report() -> &'static stress::StressReport {
    static RUN: OnceLock<stress::StressReport> = OnceLock::new();
    RUN.get_or_init(|| run_stress(&canary_cfg()))
}

#[test]
fn canary_is_found_and_shrunk_to_a_trivial_case() {
    let report = canary_report();
    assert_eq!(report.failures(), report.results.len(), "every case trips");
    for r in &report.results {
        assert_eq!(r.outcome.verdict, Verdict::GuardViolation);
        assert!(
            r.outcome.signature.starts_with("stress/canary"),
            "unexpected signature: {}",
            r.outcome.signature
        );
        let (small, small_out, _) = r.shrunk.as_ref().expect("failures are shrunk");
        // The canary fires regardless of faults, so the shrinker must
        // strip the schedule entirely and collapse the budget.
        assert_eq!(small.size(), 0, "no fault events should survive");
        assert!(small.scenario.is_none(), "scenario should be dropped");
        assert!(
            small.event_budget <= 2_000,
            "budget should collapse, got {}",
            small.event_budget
        );
        assert_eq!(small_out.failure_key(), r.outcome.failure_key());
    }
}

#[test]
fn repro_replays_the_identical_violation_twice() {
    let report = canary_report();
    let (small, small_out, _) = report.results[0].shrunk.as_ref().expect("shrunk");
    let doc = repro_json(report.seed, small, small_out).render();
    for round in 1..=2 {
        let (_, expected, observed, matches) = replay_repro(&doc, DEADLINE).expect("replay");
        assert!(
            matches,
            "round {round}: expected {expected:?}, observed {observed:?}"
        );
        assert_eq!(observed.signature, small_out.signature, "round {round}");
    }
}

#[test]
fn stress_table_is_byte_identical_across_reruns_and_worker_counts() {
    let a = stress_table(canary_report());
    let b = stress_table(&run_stress(&canary_cfg()));
    assert_eq!(a, b, "same seed, same bytes");
    let serial = stress_table(&run_stress(&StressConfig {
        jobs: 1,
        ..canary_cfg()
    }));
    assert_eq!(a, serial, "worker count must not leak into the table");
}

#[test]
fn quiet_sweep_is_clean() {
    let report = run_stress(&StressConfig {
        cases: 2,
        seed: 2021,
        scenario: Some("quiet".to_string()),
        jobs: 2,
        experiments: Some(vec!["fig10".to_string(), "fig8".to_string()]),
        ..StressConfig::default()
    });
    assert_eq!(report.failures(), 0, "{}", stress_table(&report));
    assert!(report.results.iter().all(|r| r.shrunk.is_none()));
}

#[test]
fn shrink_preserves_a_budget_exhaustion_key() {
    // A real (non-canary) failure mode: fig9 charges the event budget,
    // so a tiny budget trips the supervisor. The shrinker must keep the
    // verdict while minimizing, never "fix" the case into passing.
    let mut case = stress::generate_cases(&StressConfig {
        cases: 1,
        seed: 3,
        scenario: Some("blockage-storm".to_string()),
        experiments: Some(vec!["fig9".to_string()]),
        ..StressConfig::default()
    })
    .remove(0);
    case.event_budget = 50;
    let out = run_case(&case, DEADLINE).expect("valid case");
    assert_eq!(out.verdict, Verdict::BudgetExhausted, "{}", out.signature);
    let (small, small_out, _) = shrink(&case, &out, DEADLINE);
    assert_eq!(small_out.verdict, Verdict::BudgetExhausted);
    assert!(small.size() <= case.size());
    assert!(small.event_budget <= case.event_budget);
}

#[test]
fn tiny_deadline_cancels_a_charging_case_cooperatively() {
    // A case runs on the runner's attempt path: a deadline that fires
    // while fig9 charges the budget is seen at the next poll, the thread
    // unwinds instead of leaking, and the verdict's signature is the
    // supervisor's reason. No other test in this binary leaks a thread,
    // so the process-wide leak count must not move.
    let cfg = StressConfig {
        cases: 1,
        seed: 3,
        scenario: Some("quiet".to_string()),
        experiments: Some(vec!["fig9".to_string()]),
        ..StressConfig::default()
    };
    let mut case = stress::generate_cases(&cfg).remove(0);
    case.event_budget = stress::MAX_CASE_BUDGET;
    let leaked_before = fiveg_bench::runner::leaked_threads();
    let out = run_case(&case, Duration::from_millis(1)).expect("valid case");
    assert_eq!(out.verdict, Verdict::Deadline, "{}", out.signature);
    assert_eq!(out.signature, "deadline exceeded (0.0 s)");
    // A deadline verdict does not replay, so the sweep does not shrink it.
    let report = run_stress(&StressConfig {
        deadline: Duration::from_millis(1),
        ..cfg
    });
    assert_eq!(report.results[0].outcome.verdict, Verdict::Deadline);
    assert!(
        report.results[0].shrunk.is_none(),
        "deadline verdicts are not shrunk"
    );
    assert_eq!(fiveg_bench::runner::leaked_threads(), leaked_before);
}
