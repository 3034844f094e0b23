//! Recovery-layer integration tests: determinism of the recovery-event
//! stream, the zero-cost disabled path, retry reproducibility, and
//! crash-consistent manifest round-trips.

use fiveg_bench::experiments;
use fiveg_bench::report::Report;
use fiveg_bench::runner::{self, ManifestEntry, RunStatus, Supervisor};
use fiveg_wild::simcore::attempt::{Attempt, AttemptGuard};
use fiveg_wild::simcore::faults::{FaultScenario, FaultSchedule};
use fiveg_wild::simcore::guard::GuardPolicy;
use fiveg_wild::simcore::recovery::{self, RecoveryKind};

fn registry_entry(id: &str) -> (&'static str, experiments::Experiment) {
    experiments::registry()
        .iter()
        .find(|(rid, _)| *rid == id)
        .copied()
        .unwrap_or_else(|| panic!("{id} registered"))
}

/// Same (seed, scenario) → identical recovery-event stream, event by event
/// (kind, time, detect latency, outage, detail), and a non-empty one: the
/// chaos scenario must actually exercise the self-healing hooks.
#[test]
fn recovery_stream_is_deterministic() {
    let sup = Supervisor::with_scenario(FaultScenario::chaos());
    for id in ["fig9", "fig10"] {
        let (sid, f) = registry_entry(id);
        let a = sup.run_one(sid, f, 2021);
        let b = sup.run_one(sid, f, 2021);
        assert_eq!(a.status, RunStatus::Ok, "{id}");
        assert_eq!(a.recovery, b.recovery, "{id} event stream differs");
        assert!(
            !a.recovery.is_empty(),
            "{id} took no recovery actions under chaos"
        );
        assert_eq!(a.report.render(), b.report.render(), "{id}");
    }
}

/// The chaos drive/idle experiments exercise the radio- and RRC-layer
/// recoveries specifically (NSA fallback, RRC re-establishment).
#[test]
fn chaos_triggers_radio_and_rrc_recoveries() {
    let sup = Supervisor::with_scenario(FaultScenario::chaos());
    let (sid, f) = registry_entry("fig9");
    let drive = sup.run_one(sid, f, 2021);
    assert!(
        drive
            .recovery
            .iter()
            .any(|e| e.kind == RecoveryKind::NsaFallback),
        "drive under chaos must ride out anchor losses on the LTE leg"
    );
    let (sid, f) = registry_entry("fig10");
    let idle = sup.run_one(sid, f, 2021);
    assert!(
        idle.recovery
            .iter()
            .any(|e| e.kind == RecoveryKind::RrcReestablish),
        "idle RRC under chaos must re-establish after resets"
    );
    for e in drive.recovery.iter().chain(idle.recovery.iter()) {
        assert!(e.detect_s >= 0.0 && e.detect_s.is_finite());
        assert!(e.outage_s >= 0.0 && e.outage_s.is_finite());
        assert!(e.t_s.is_finite());
    }
}

/// Without a fault scenario the recovery layer is invisible: zero events
/// collected, and the supervised report stays bit-identical to a direct,
/// plane-free call.
#[test]
fn disabled_plane_means_zero_events_and_identical_reports() {
    let sup = Supervisor::default();
    for id in ["table2", "fig9", "fig10"] {
        let direct = experiments::run(id, 2021).expect(id).render();
        let (sid, f) = registry_entry(id);
        let out = sup.run_one(sid, f, 2021);
        assert_eq!(out.status, RunStatus::Ok);
        assert!(
            out.recovery.is_empty(),
            "{id} emitted events without a scenario"
        );
        assert_eq!(out.report.render(), direct, "{id} output drifted");
        let entry = ManifestEntry::from_outcome(&out);
        assert_eq!(entry.recovery.events, 0);
        assert_eq!(entry.recovery.outage_s, 0.0);
    }
}

/// Recording without a collector is a no-op even when the other planes
/// *are* installed: the collector comes only with a fault schedule.
#[test]
fn plane_without_collector_collects_nothing() {
    let _guard = Attempt::new()
        .budget(1_000)
        .telemetry(true)
        .guards(GuardPolicy::Record)
        .install();
    recovery::record(RecoveryKind::TcpRto, 1.0, 0.5, 2.0, || "x".into());
    assert!(recovery::drain().is_empty());
}

/// An attempt with only `schedule` installed: the fault plane and its
/// recovery collector.
fn install(schedule: FaultSchedule) -> AttemptGuard {
    Attempt::new().faults(schedule).install()
}

/// The windowless `quiet` scenario is a true control: even with the plane
/// installed and a collector listening, a *naturally* starved video session
/// (deep fade, long stalls, no fault windows) takes zero recovery actions
/// and plays out bit-identically to a plane-free session.
#[test]
fn quiet_plane_never_trips_video_recovery() {
    use fiveg_wild::transport::shaper::BandwidthTrace;
    use fiveg_wild::video::abr::{build, AbrAlgo};
    use fiveg_wild::video::asset::VideoAsset;
    use fiveg_wild::video::player::{stream, PlayerConfig};
    let asset = VideoAsset::five_g_default();
    let mut fade = vec![120.0];
    fade.extend(std::iter::repeat_n(0.25, 120));
    fade.push(200.0);
    let trace = BandwidthTrace::new(fade, 1.0);
    let cfg = PlayerConfig::default();
    let clean = {
        let mut abr = build(AbrAlgo::Bola);
        stream(&asset, &trace, abr.as_mut(), &cfg, 0.0)
    };
    let quiet = {
        let _g = install(FaultSchedule::generate(3, &FaultScenario::quiet()));
        let mut abr = build(AbrAlgo::Bola);
        let s = stream(&asset, &trace, abr.as_mut(), &cfg, 0.0);
        assert!(
            recovery::drain().is_empty(),
            "natural stalls must not trigger recovery actions"
        );
        s
    };
    assert!(
        clean.stall_time_s > 0.0,
        "the fade must actually stall playback"
    );
    assert_eq!(clean.stall_time_s, quiet.stall_time_s);
    assert_eq!(clean.qoe, quiet.qoe);
    assert_eq!(clean.chunks.len(), quiet.chunks.len());
}

/// Same control property for the radio layer: a quiet plane declares no
/// radio-link failures, so the drive is bit-identical to a plane-free one.
#[test]
fn quiet_plane_never_declares_rlf() {
    use fiveg_geo::mobility::MobilityModel;
    use fiveg_wild::radio::cell::NetworkLayout;
    use fiveg_wild::radio::handoff::{simulate_drive, BandSetting, HandoffConfig};
    let run = |quiet: bool| {
        let _g = quiet.then(|| install(FaultSchedule::generate(9, &FaultScenario::quiet())));
        let layout = NetworkLayout::tmobile_drive_corridor(9);
        let m = MobilityModel::driving_10km();
        let r = simulate_drive(
            &layout,
            &m,
            BandSetting::NsaPlusLte,
            &HandoffConfig::default(),
            9,
        );
        if quiet {
            assert!(recovery::drain().is_empty(), "quiet drive recovered");
        }
        (r.total_handoffs(), r.radio_share())
    };
    assert_eq!(run(false), run(true));
}

fn seed_sensitive_exp(seed: u64) -> Report {
    if seed == 4242 {
        panic!("bad campaign seed");
    }
    Report {
        id: "flaky",
        title: "recovered on retry".into(),
        body: format!("seed={seed}"),
    }
}

fn runaway_exp(_seed: u64) -> Report {
    let mut q = fiveg_wild::simcore::EventQueue::new();
    let mut i = 0u64;
    loop {
        q.schedule(fiveg_wild::simcore::SimTime::from_millis(i), i);
        q.pop();
        i += 1;
    }
}

/// The perturbed-seed retry is reproducible: two independent campaign runs
/// take the same number of attempts, derive the same retry seed, and emit
/// byte-identical reports.
#[test]
fn perturbed_retry_is_reproducible_across_runs() {
    let sup = Supervisor::default();
    let a = sup.run_one("flaky", seed_sensitive_exp, 4242);
    let b = sup.run_one("flaky", seed_sensitive_exp, 4242);
    assert_eq!(a.status, RunStatus::Ok);
    assert_eq!(a.attempts, 2, "first attempt panics, retry lands");
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.report.render(), b.report.render());
    assert_eq!(a.note, b.note);
    assert_eq!(
        sup.attempt_seed("flaky", 4242, 1),
        sup.attempt_seed("flaky", 4242, 1),
        "retry seed derivation is a pure function"
    );
}

/// Budget exhaustion degrades the experiment, and the degradation is
/// recorded in the manifest: status `degraded`, a budget note, and it
/// round-trips through parse.
#[test]
fn budget_exhaustion_lands_in_manifest_as_degraded() {
    let sup = Supervisor {
        event_budget: 10_000,
        ..Supervisor::default()
    };
    let out = sup.run_one("runaway", runaway_exp, 1);
    assert_eq!(out.status, RunStatus::Degraded);
    let text = runner::manifest(&[out], 1, Some("chaos")).render();
    let (_, _, entries) = runner::parse_manifest(&text).expect("manifest parses");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].status, RunStatus::Degraded);
    assert!(
        entries[0]
            .note
            .as_deref()
            .unwrap()
            .contains(fiveg_wild::simcore::budget::EXHAUSTED_MSG),
        "note: {:?}",
        entries[0].note
    );
}

/// Campaign-level crash consistency: the manifest for a full small campaign
/// under chaos parses, shows zero degraded experiments, aggregates a
/// non-zero recovery count, and re-renders byte-identically — the property
/// `--resume` and the CI double-run check rely on.
#[test]
fn chaos_campaign_manifest_round_trips_with_recoveries() {
    let sup = Supervisor::with_scenario(FaultScenario::chaos());
    let subset: Vec<_> = experiments::registry()
        .into_iter()
        .filter(|(id, _)| ["table2", "fig9", "fig10"].contains(id))
        .collect();
    let outcomes = sup.run_registry(&subset, 2021);
    let text = runner::manifest(&outcomes, 2021, Some("chaos")).render();
    let (seed, scenario, entries) = runner::parse_manifest(&text).expect("parses");
    assert_eq!(seed, 2021);
    assert_eq!(scenario.as_deref(), Some("chaos"));
    assert!(entries.iter().all(|e| e.status == RunStatus::Ok));
    let events: usize = entries.iter().map(|e| e.recovery.events).sum();
    assert!(events > 0, "chaos campaign recorded no recovery actions");
    assert_eq!(
        runner::manifest_from_entries(&entries, seed, scenario.as_deref()).render(),
        text,
        "parse → re-render must be byte-identical"
    );
}
