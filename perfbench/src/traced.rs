//! The traced run: one in-process pass per workload that attributes the
//! campaign's cost to the runner, the supervision planes and the layers.
//!
//! It first runs one jobs-2 campaign pass, untraced (runner busy and idle
//! time, unit and failure counts). Then, unit by unit — a whole experiment
//! or one shard — it runs back to back, so that a slow stretch of the host
//! hits every variant alike:
//!
//! * `bench.runner.unit`: the unit under `Supervisor::run_one` (a shard
//!   under `Supervisor::run_shard`, which is what `run_one` fans out to);
//! * `bench.unit.body`: the bare body (`experiments::run` or
//!   `ShardableExperiment::run`) with only the fault plane installed;
//! * the unit's layer-call replay, untraced and traced (`bench.replay.unit`
//!   with one child span per layer call), in alternating order, both under
//!   the planes the campaign's own attempts install;
//! * one more replay, untimed, with the telemetry collector on, for the
//!   work counts.
//!
//! For `net` it ends with the chaos probe ([`armed_probe`]).
//!
//! The three report-producing variants must render byte-identical reports,
//! and each experiment's replay must charge exactly the budget events its
//! campaign run charged.

use crate::campaign::{self, Plan};
use crate::replay::{self, LAYER_SPANS};
use crate::trace::{self, span, Span};
use crate::workload::{self, Workload, JOBS};
use fiveg_bench::experiments::Experiment;
use fiveg_bench::runner::{RunStatus, ShardRun, Supervisor};
use fiveg_bench::shard::{self, ShardableExperiment};
use fiveg_simcore::telemetry::{self, AttemptTelemetry};
use fiveg_simcore::{ambient, budget, recovery};
use std::path::Path;
use std::time::Instant;

/// One work unit: a whole experiment or one shard of it.
#[derive(Clone, Copy)]
pub struct Unit {
    pub exp: usize,
    pub id: &'static str,
    pub f: Experiment,
    pub shard: Option<ShardableExperiment>,
    pub index: usize,
    /// The seed the supervisor keys the unit's ambient planes with.
    pub plane_seed: u64,
}

pub fn units(p: &Plan, seed: u64) -> Vec<Unit> {
    let mut out = Vec::new();
    for (exp, &(id, f)) in p.entries.iter().enumerate() {
        match shard::find(id) {
            Some(spec) => out.extend((0..spec.shards).map(|s| Unit {
                exp,
                id,
                f,
                shard: Some(spec),
                index: s,
                plane_seed: shard::shard_plane_seed(seed, id, s),
            })),
            None => out.push(Unit {
                exp,
                id,
                f,
                shard: None,
                index: 0,
                plane_seed: seed,
            }),
        }
    }
    out
}

/// Work units of experiment `id`: its shards, or 1.
fn unit_count(id: &str) -> usize {
    shard::find(id).map_or(1, |s| s.shards)
}

/// What one replay of a unit observed.
#[derive(Default)]
pub struct Replayed {
    /// Wall time of the replay's layer calls alone: plane set-up and the
    /// drains after it are left out.
    pub wall_s: f64,
    pub events: u64,
    pub recovery: usize,
    pub telemetry: AttemptTelemetry,
}

/// Replays one unit under the planes a supervised attempt installs (fault
/// plane, recovery collector, guards, armed budget), with the telemetry
/// collector on only if `telemetry` is.
pub fn replay_unit(
    sup: &Supervisor,
    u: &Unit,
    seed: u64,
    telemetry: bool,
) -> Result<Replayed, String> {
    let _planes = ambient::install_attempt(
        sup.scenario.as_ref(),
        u.plane_seed,
        sup.event_budget,
        telemetry,
        sup.guards,
        None,
    );
    let t0 = Instant::now();
    let known = span("bench.replay.unit", || {
        replay::replay(u.id, u.shard.map(|_| u.index), seed)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if !known {
        return Err(format!("no replay for experiment {}", u.id));
    }
    Ok(Replayed {
        wall_s,
        events: budget::consumed().unwrap_or(0),
        recovery: recovery::drain().len(),
        telemetry: telemetry::drain(),
    })
}

/// The traced run's results.
pub struct Traced {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub spans: Vec<Span>,
    /// Unit attempts: the campaign pass, the supervised units and the bare
    /// bodies, plus the chaos probe's campaign pass, armed units and quiet
    /// units.
    pub attempted: usize,
    /// Non-ok rows and guard violations of the workload's campaign pass
    /// (the orchestrator checks its manifest against them).
    pub degraded: usize,
    pub interrupted: usize,
    pub violations: u64,
    /// Experiments of the workload that failed an in-process check.
    pub failed: Vec<&'static str>,
    /// Unit attempts of the chaos probe's experiments that failed a check.
    pub probe_failed_units: usize,
    /// Why each failed experiment failed.
    pub notes: Vec<String>,
}

/// A unit's result: a whole experiment's report or a shard run.
enum Piece {
    Whole(RunStatus, String),
    Shard(Box<ShardRun>),
}

impl Piece {
    fn status(&self) -> RunStatus {
        match self {
            Piece::Whole(status, _) => *status,
            Piece::Shard(s) => s.status,
        }
    }
}

fn supervise(sup: &Supervisor, u: &Unit, seed: u64) -> Piece {
    match u.shard {
        Some(spec) => Piece::Shard(Box::new(sup.run_shard(&spec, seed, u.index))),
        None => {
            let o = sup.run_one(u.id, u.f, seed);
            Piece::Whole(o.status, o.report.render())
        }
    }
}

/// The bare body of one unit, with only the world's fault plane installed.
fn bare(sup: &Supervisor, u: &Unit, seed: u64) -> Piece {
    let _world = ambient::install_attempt(
        sup.scenario.as_ref(),
        u.plane_seed,
        u64::MAX,
        false,
        None,
        None,
    );
    match u.shard {
        Some(spec) => Piece::Shard(Box::new(ShardRun {
            shard: u.index,
            status: RunStatus::Ok,
            attempts: 1,
            note: None,
            values: (spec.run)(seed, u.index),
            recovery: Vec::new(),
            wall_s: 0.0,
            events: 0,
            telemetry: None,
            guards: Default::default(),
        })),
        None => Piece::Whole(RunStatus::Ok, (u.f)(seed).render()),
    }
}

/// Per-experiment reports from per-unit pieces (shards merged in order).
fn reports(sup: &Supervisor, p: &Plan, us: &[Unit], seed: u64, pieces: Vec<Piece>) -> Vec<String> {
    let mut whole: Vec<String> = vec![String::new(); p.entries.len()];
    let mut shards: Vec<Vec<ShardRun>> = (0..p.entries.len()).map(|_| Vec::new()).collect();
    for (u, piece) in us.iter().zip(pieces) {
        match piece {
            Piece::Whole(_, r) => whole[u.exp] = r,
            Piece::Shard(s) => shards[u.exp].push(*s),
        }
    }
    for (i, &(id, _)) in p.entries.iter().enumerate() {
        if let Some(spec) = shard::find(id) {
            let runs = std::mem::take(&mut shards[i]);
            whole[i] = sup.merge_shard_runs(&spec, seed, runs).report.render();
        }
    }
    whole
}

fn span_count(t: &AttemptTelemetry, name: &str) -> u64 {
    t.spans
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, s)| s.count)
}

fn counter(t: &AttemptTelemetry, name: &str) -> u64 {
    t.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, c)| *c)
}

/// What the chaos probe of a traced run measured.
#[derive(Default)]
struct ArmedProbe {
    units: usize,
    recovery: usize,
    observe_s: f64,
    degraded: usize,
    violations: u64,
    failed_units: usize,
    notes: Vec<String>,
}

/// Measures the fault, recovery and observatory planes for a workload
/// that does not arm them: `p`'s campaign pass (planned from the `chaos`
/// campaign) with the observatory export, then each of its units
/// supervised armed (`bench.chaos.unit`) and with the scenario removed
/// (`bench.chaos.quiet_unit`), back to back. An experiment fails the probe
/// if a campaign row or a serial unit is not `ok`, if the guards recorded
/// a violation, or if the campaign report and the armed serial report
/// differ.
fn armed_probe(p: &Plan, seed: u64, work: &Path) -> Result<ArmedProbe, String> {
    let us = units(p, seed);
    let out = work.join("chaos-pass");
    let obs = work.join("chaos-obs");
    for d in [&out, &obs] {
        std::fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
    }
    let pass = campaign::run(&workload::CHAOS, p, seed, &out, Some(&obs))?;
    let quiet = Supervisor {
        scenario: None,
        ..p.supervisor.clone()
    };
    let mut pieces = Vec::new();
    let mut serial_not_ok: Vec<Option<String>> = vec![None; p.entries.len()];
    for u in &us {
        let armed = span("bench.chaos.unit", || supervise(&p.supervisor, u, seed));
        let unarmed = span("bench.chaos.quiet_unit", || supervise(&quiet, u, seed));
        for (how, status) in [("armed", armed.status()), ("unarmed", unarmed.status())] {
            if status != RunStatus::Ok {
                serial_not_ok[u.exp]
                    .get_or_insert(format!("{how} serial unit {}", status.as_str()));
            }
        }
        pieces.push(armed);
    }
    let armed = reports(&p.supervisor, p, &us, seed, pieces);
    let mut probe = ArmedProbe {
        units: us.len(),
        recovery: pass.recovery_events(),
        observe_s: pass.observe_s,
        degraded: pass.degraded(),
        violations: pass.violations(),
        ..ArmedProbe::default()
    };
    for (i, o) in pass.outcomes.iter().enumerate() {
        let violations = o.guards.violation_count();
        let why = if o.status != RunStatus::Ok {
            Some(format!("campaign row {}", o.status.as_str()))
        } else if violations > 0 {
            Some(format!("{violations} guard violation(s)"))
        } else if let Some(why) = serial_not_ok[i].take() {
            Some(why)
        } else if o.report.render() != armed[i] {
            Some("campaign and armed serial reports differ".to_string())
        } else {
            None
        };
        if let Some(why) = why {
            probe.failed_units += 3 * unit_count(o.id);
            probe.notes.push(format!("chaos probe {}: {why}", o.id));
        }
    }
    Ok(probe)
}

fn walls(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Runs the traced pass for workload `w` at `seed`, writing the campaign
/// pass's artifacts under `work/pass`.
pub fn run(w: &Workload, seed: u64, work: &Path) -> Result<Traced, String> {
    let p = campaign::plan(w)?;
    let us = units(&p, seed);
    let out = work.join("pass");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let pass = campaign::run(w, &p, seed, &out, None)?;

    let sup = &p.supervisor;
    let mut supervised_pieces = Vec::new();
    let mut bare_pieces = Vec::new();
    // Per experiment: budget events and recovery actions of the traced replay.
    let mut replayed_counts = vec![(0u64, 0usize); p.entries.len()];
    let mut tel = AttemptTelemetry::default();
    let (mut untraced_s, mut replayed_s) = (0.0, 0.0);
    trace::start(None);
    for (run, u) in us.iter().enumerate() {
        trace::set_run(run as u32);
        supervised_pieces.push(span("bench.runner.unit", || supervise(sup, u, seed)));
        bare_pieces.push(span("bench.unit.body", || bare(sup, u, seed)));
        let timed = |traced: bool| {
            if traced {
                replay_unit(sup, u, seed, sup.telemetry)
            } else {
                trace::untraced(|| replay_unit(sup, u, seed, sup.telemetry))
            }
        };
        // Alternate which of the two runs first, so that neither gains on
        // the other from warmed caches.
        let (r, plain) = if run % 2 == 0 {
            let plain = timed(false)?;
            (timed(true)?, plain)
        } else {
            let r = timed(true)?;
            (r, timed(false)?)
        };
        untraced_s += plain.wall_s;
        replayed_s += r.wall_s;
        replayed_counts[u.exp].0 += r.events;
        replayed_counts[u.exp].1 += r.recovery;
        let counted = trace::untraced(|| replay_unit(sup, u, seed, true))?;
        tel.merge_aggregates(&counted.telemetry);
    }
    let probe = if w.armed_probe {
        armed_probe(&campaign::plan(&workload::CHAOS)?, seed, work)?
    } else {
        ArmedProbe::default()
    };
    let spans = trace::finish();

    let pass_reports: Vec<String> = pass.outcomes.iter().map(|o| o.report.render()).collect();
    let supervised_reports = reports(sup, &p, &us, seed, supervised_pieces);
    let bare_reports = reports(sup, &p, &us, seed, bare_pieces);
    let mut failed = Vec::new();
    let mut notes = probe.notes;
    let mut drift = 0;
    for (i, &(id, _)) in p.entries.iter().enumerate() {
        let o = &pass.outcomes[i];
        let mut why = Vec::new();
        if pass_reports[i] != supervised_reports[i] || pass_reports[i] != bare_reports[i] {
            why.push("campaign, supervised and bare reports differ".to_string());
        }
        let (events, recovery) = replayed_counts[i];
        if events != o.events || recovery != o.recovery.len() {
            drift += 1;
            why.push(format!(
                "replay drift: {events} events and {recovery} recovery actions replayed, \
                 {} and {} in the campaign",
                o.events,
                o.recovery.len()
            ));
        }
        if !why.is_empty() {
            failed.push(id);
            notes.push(format!("{id}: {}", why.join("; ")));
        }
    }

    let supervised = walls(&spans, "bench.runner.unit");
    let fault_armed = walls(&spans, "bench.chaos.unit");
    let fault_quiet = walls(&spans, "bench.chaos.quiet_unit");
    let body = walls(&spans, "bench.unit.body");
    let totals = trace::totals(&spans);
    let layer_busy: f64 = LAYER_SPANS
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.busy_s)
        .sum();

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let busy: f64 = pass.worker_busy_s.iter().sum();
    put("bench.runner.busy_s", busy, "s");
    put("bench.runner.idle_s", JOBS as f64 * pass.wall_s - busy, "s");
    put(
        "bench.runner.longest_unit_s",
        supervised.iter().copied().fold(0.0, f64::max),
        "s",
    );
    put(
        "bench.runner.supervision_s",
        supervised.iter().zip(&body).map(|(a, b)| a - b).sum(),
        "s",
    );
    put("bench.runner.units", us.len() as f64, "count");
    put("bench.runner.attempts", pass.attempts() as f64, "count");
    put(
        "bench.runner.degraded",
        (pass.degraded() + probe.degraded) as f64,
        "count",
    );
    put("bench.runner.events", pass.events() as f64, "count");
    put(
        "simcore.guard.violations",
        (pass.violations() + probe.violations) as f64,
        "count",
    );
    put(
        "simcore.faults.extra_s",
        fault_armed
            .iter()
            .zip(&fault_quiet)
            .map(|(a, q)| a - q)
            .sum(),
        "s",
    );
    put(
        "simcore.recovery.events",
        (pass.recovery_events() + probe.recovery) as f64,
        "count",
    );
    put("bench.observe.busy_s", probe.observe_s, "s");
    put("bench.trace.body_s", body.iter().sum(), "s");
    put("bench.trace.replay_s", replayed_s, "s");
    put(
        "bench.trace.coverage",
        if replayed_s > 0.0 {
            layer_busy / replayed_s
        } else {
            0.0
        },
        "ratio",
    );
    put("bench.trace.overhead_s", replayed_s - untraced_s, "s");
    put("bench.trace.replay_drift", drift as f64, "count");
    for name in LAYER_SPANS {
        let t = totals.get(name).copied().unwrap_or_default();
        put(&format!("{name}.calls"), t.calls as f64, "count");
        put(&format!("{name}.busy_s"), t.busy_s, "s");
        put(&format!("{name}.events"), t.events as f64, "count");
        put(
            &format!("{name}.ns_per_event"),
            t.ns_per_event(),
            "ns/event",
        );
    }
    let hits = counter(&tel, "radio/shadow/hit");
    let misses = counter(&tel, "radio/shadow/miss");
    for (name, v) in [
        ("video.segments", span_count(&tel, "video/segment")),
        ("video.stalls", counter(&tel, "video/stall")),
        ("transport.runs", span_count(&tel, "transport/run")),
        ("transport.rto", counter(&tel, "transport/rto")),
        ("web.objects", counter(&tel, "web/object")),
        ("power.samples", counter(&tel, "power/sample")),
        (
            "radio.handoffs",
            counter(&tel, "radio/handoff/horizontal") + counter(&tel, "radio/handoff/vertical"),
        ),
        ("rrc.packets", span_count(&tel, "rrc/packet")),
    ] {
        put(name, v as f64, "count");
    }
    put(
        "radio.shadow.hit_ratio",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        "ratio",
    );
    Ok(Traced {
        metrics: m,
        spans,
        attempted: 3 * (us.len() + probe.units),
        degraded: pass.degraded(),
        interrupted: pass.interrupted(),
        violations: pass.violations(),
        failed,
        probe_failed_units: probe.failed_units,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanTotals;
    use crate::workload::{CHAOS, NET, QUIET};
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// Per-layer totals of a traced replay of the experiments `ids` of
    /// workload `w` (no campaign, supervised or bare runs), and what each
    /// experiment's replays observed with the telemetry collector on: the
    /// building block of the benchmark's own tests.
    fn replay_totals(
        w: &Workload,
        ids: &[&str],
        seed: u64,
        delay: Option<(&'static str, Duration)>,
    ) -> Result<(BTreeMap<&'static str, SpanTotals>, Vec<Replayed>), String> {
        let mut p = campaign::plan(w)?;
        p.entries.retain(|(id, _)| ids.contains(id));
        let us = units(&p, seed);
        let mut per_exp: Vec<Replayed> =
            (0..p.entries.len()).map(|_| Replayed::default()).collect();
        trace::start(delay);
        let result: Result<(), String> = us.iter().try_for_each(|u| {
            let r = replay_unit(&p.supervisor, u, seed, true)?;
            let e = &mut per_exp[u.exp];
            e.events += r.events;
            e.recovery += r.recovery;
            e.telemetry.merge_aggregates(&r.telemetry);
            Ok(())
        });
        let spans = trace::finish();
        result?;
        Ok((trace::totals(&spans), per_exp))
    }

    /// A fixed sleep added inside every `power.rrcpower` span (whose own
    /// work is a few microseconds) must land in that span's self time and
    /// nowhere else: not in its parent `bench.replay.unit`, not in the
    /// sibling spans, and not in any call or event count.
    #[test]
    fn known_answer_delay_moves_only_its_span() {
        const SPAN: &str = "power.rrcpower";
        const DELAY_MS: u64 = 10;
        let ids = ["fig10", "table2", "ext-periodic"];
        let (base, _) = replay_totals(&QUIET, &ids, 2021, None).unwrap();
        let delay = Some((SPAN, Duration::from_millis(DELAY_MS)));
        let (slow, _) = replay_totals(&QUIET, &ids, 2021, delay).unwrap();
        assert_eq!(
            base.keys().collect::<Vec<_>>(),
            slow.keys().collect::<Vec<_>>()
        );
        let injected = slow[SPAN].calls as f64 * DELAY_MS as f64 / 1e3;
        assert!(injected >= 0.1, "too few {SPAN} calls: {injected} s");
        for (name, b) in &base {
            let s = slow[name];
            assert_eq!(
                (b.calls, b.events),
                (s.calls, s.events),
                "{name}: counts moved"
            );
            let moved = s.busy_s - b.busy_s;
            if *name == SPAN {
                assert!(
                    moved >= injected && moved < 1.25 * injected,
                    "{name} moved {moved} s, injected {injected} s"
                );
            } else {
                assert!(
                    moved.abs() < 0.25 * injected,
                    "{name} moved {moved} s of {injected} s injected elsewhere"
                );
            }
        }
    }

    #[test]
    fn replay_counts_repeat_exactly() {
        let counts = |w: &Workload| {
            let (totals, tallies) = replay_totals(w, &["fig9", "table2", "fig6"], 7, None).unwrap();
            let spans: Vec<(&str, u64, u64)> = totals
                .iter()
                .map(|(n, t)| (*n, t.calls, t.events))
                .collect();
            let tel: Vec<String> = tallies
                .iter()
                .map(|t| format!("{} {} {:?}", t.events, t.recovery, t.telemetry.counters))
                .collect();
            (spans, tel)
        };
        assert_eq!(counts(&QUIET), counts(&QUIET));
        assert_eq!(counts(&CHAOS), counts(&CHAOS));
    }

    #[test]
    fn replay_charges_what_the_campaign_charges() {
        for (w, ids) in [
            (&NET, &["fig8", "ablation-cc", "bonded-uplink"][..]),
            (&CHAOS, &["fig9", "table2", "bonded-uplink"][..]),
        ] {
            let mut p = campaign::plan(w).unwrap();
            p.entries.retain(|(id, _)| ids.contains(id));
            let outcomes = p.supervisor.run_registry(&p.entries, 2021);
            let (_, tallies) = replay_totals(w, ids, 2021, None).unwrap();
            for (o, t) in outcomes.iter().zip(&tallies) {
                assert_eq!(t.events, o.events, "{}: events", o.id);
                assert_eq!(t.recovery, o.recovery.len(), "{}: recovery", o.id);
            }
        }
    }

    #[test]
    fn a_degraded_probe_experiment_fails_the_probe() {
        let mut p = campaign::plan(&CHAOS).unwrap();
        p.entries.retain(|(id, _)| *id == "table2");
        p.supervisor.event_budget = 1_000;
        let work = std::env::temp_dir().join(format!("perfbench-probe-{}", std::process::id()));
        let probe = armed_probe(&p, 2021, &work);
        let _ = std::fs::remove_dir_all(&work);
        let probe = probe.unwrap();
        assert_eq!((probe.units, probe.degraded), (1, 1));
        assert_eq!(probe.failed_units, 3);
        assert!(
            probe.notes[0].contains("campaign row degraded"),
            "{:?}",
            probe.notes
        );
    }
}
