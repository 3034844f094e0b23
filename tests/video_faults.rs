//! Faulted video, bit for bit: the single-link player (`stream` under
//! fastMPC and BBA) and the three Fig 18c interface-selection schemes
//! (5G-only, 5G-aware, 5G-aware with no switch overhead), each streamed
//! over one 5G/4G trace pair with no fault plane, under a
//! `blockage-storm` schedule and under a `chaos` schedule.
//!
//! Every session's totals, chunk records and recovery stream fold into
//! one FNV-1a fingerprint, pinned to the value the players gave before
//! they booked chunks through one shared session. Each faulted `stream`
//! run records at least one segment retry and each faulted 5G-aware run
//! at least one failover, so both players' recovery paths are covered;
//! the quiet goldens never take either path. Every run is guarded and
//! must stay violation-free.

use fiveg_wild::simcore::attempt::{self, Attempt};
use fiveg_wild::simcore::faults::{FaultScenario, FaultSchedule};
use fiveg_wild::simcore::guard::GuardPolicy;
use fiveg_wild::simcore::recovery::{RecoveryEvent, RecoveryKind};
use fiveg_wild::traces::lumos::TraceGenerator;
use fiveg_wild::transport::shaper::BandwidthTrace;
use fiveg_wild::video::abr::{Abr, Bba, Mpc};
use fiveg_wild::video::asset::VideoAsset;
use fiveg_wild::video::ifselect::{stream_with_selection, IfSelectConfig};
use fiveg_wild::video::player::{stream, PlayerConfig, SessionResult};

/// The Lumos-style trace pair every run streams over.
const TRACE_SEED: u64 = 2021;
/// `blockage-storm` at this seed makes every faulted run recover once.
const STORM_SEED: u64 = 1;
/// `chaos` at this seed makes each faulted run recover two to three times.
const CHAOS_SEED: u64 = 3;

/// Builds a fresh ABR instance for one run.
type MakeAbr = fn() -> Box<dyn Abr>;

/// FNV-1a over the bits of a session's stall total, startup, switches,
/// QoE and mean bitrate, every chunk record field except `start_s`, the
/// selection outputs `extra`, and each recovery event's kind and time.
fn fingerprint(s: &SessionResult, extra: &[f64], recovery: &[RecoveryEvent]) -> u64 {
    let mut bytes = Vec::new();
    for x in [s.stall_time_s, s.startup_s, s.qoe, s.avg_norm_bitrate] {
        bytes.extend(x.to_bits().to_le_bytes());
    }
    bytes.extend((s.switches as u64).to_le_bytes());
    for c in &s.chunks {
        bytes.extend((c.index as u64).to_le_bytes());
        bytes.extend((c.track as u64).to_le_bytes());
        for x in [c.bitrate_mbps, c.download_s, c.tput_mbps, c.stall_s] {
            bytes.extend(x.to_bits().to_le_bytes());
        }
    }
    for x in extra {
        bytes.extend(x.to_bits().to_le_bytes());
    }
    for e in recovery {
        bytes.extend(e.kind.name().bytes());
        bytes.extend(e.t_s.to_bits().to_le_bytes());
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `run` as one guarded attempt under `schedule` (none: no fault
/// plane) and returns its fingerprint, after checking that the run
/// records no guard violation and, when `must_recover` names a recovery
/// kind, at least one event of it.
fn pinned_run(
    label: &str,
    schedule: Option<&FaultSchedule>,
    must_recover: Option<RecoveryKind>,
    run: impl FnOnce() -> (SessionResult, Vec<f64>),
) -> u64 {
    let _attempt = Attempt::new()
        .faults(schedule.cloned())
        .guards(GuardPolicy::Record)
        .install();
    let (session, extra) = run();
    let drained = attempt::drain();
    assert!(drained.guards.checks > 0, "{label}: no guard ran");
    assert!(
        drained.guards.is_clean(),
        "{label}: {:?}",
        drained.guards.violations
    );
    if let Some(kind) = must_recover {
        assert!(
            drained.recovery.iter().any(|e| e.kind == kind),
            "{label}: no {} recorded",
            kind.name()
        );
    }
    fingerprint(&session, &extra, &drained.recovery)
}

/// The five runs under one schedule, in a fixed order: `stream` under
/// fastMPC and BBA, then selection 5G-only, 5G-aware and no-overhead.
fn fingerprints(schedule: Option<&FaultSchedule>) -> Vec<u64> {
    let gen = TraceGenerator::new(TRACE_SEED);
    let (t5, t4): (BandwidthTrace, BandwidthTrace) =
        (gen.lumos5g_corpus(1).remove(0), gen.lte_corpus(1).remove(0));
    let asset = VideoAsset::five_g_default();
    let player = PlayerConfig::default();
    let name = schedule.map_or("no plane", |s| s.scenario());
    let faulted = |kind| schedule.and(Some(kind));

    let mut prints = Vec::new();
    let abrs: [(&str, MakeAbr); 2] = [
        ("fastMPC", || Box::new(Mpc::fast())),
        ("BBA", || Box::new(Bba::default())),
    ];
    for (abr, make) in abrs {
        prints.push(pinned_run(
            &format!("{name} {abr}"),
            schedule,
            faulted(RecoveryKind::SegmentRetry),
            || (stream(&asset, &t5, make().as_mut(), &player, 0.0), vec![]),
        ));
    }
    let threshold = t4.mean_mbps();
    let schemes = [
        ("5G-only", IfSelectConfig::five_g_only(), None),
        (
            "5G-aware",
            IfSelectConfig::aware(threshold),
            faulted(RecoveryKind::IfaceFailover),
        ),
        (
            "5G-aware NO",
            IfSelectConfig::aware_no_overhead(threshold),
            faulted(RecoveryKind::IfaceFailover),
        ),
    ];
    for (scheme, cfg, must_recover) in schemes {
        prints.push(pinned_run(
            &format!("{name} {scheme}"),
            schedule,
            must_recover,
            || {
                let r = stream_with_selection(&asset, &t5, &t4, &mut Mpc::fast(), &cfg, &player);
                let extra = vec![r.energy_j, r.on_5g_fraction, r.iface_switches as f64];
                (r.session, extra)
            },
        ));
    }
    prints
}

#[test]
fn unfaulted_runs_keep_their_bits() {
    let prints = fingerprints(None);
    let pinned = [
        0x4174_b0ee_ac50_7f06,
        0x29cf_3acc_177b_7985,
        0xcb27_e23c_b9b5_cdcf,
        0x5835_c01c_6e59_fb28,
        0xb74b_f98d_76c6_012e,
    ];
    assert_eq!(prints, pinned, "{prints:#x?}");
}

#[test]
fn blockage_storm_runs_keep_their_bits() {
    let schedule = FaultSchedule::generate(STORM_SEED, &FaultScenario::blockage_storm());
    let prints = fingerprints(Some(&schedule));
    let pinned = [
        0xdc11_6b36_e957_4268,
        0x9a51_e819_2232_2e19,
        0xcb27_e23c_b9b5_cdcf,
        0x0c63_5df6_4dbf_707c,
        0x704b_03dc_209a_f6d7,
    ];
    assert_eq!(prints, pinned, "{prints:#x?}");
}

#[test]
fn chaos_runs_keep_their_bits() {
    let schedule = FaultSchedule::generate(CHAOS_SEED, &FaultScenario::chaos());
    let prints = fingerprints(Some(&schedule));
    let pinned = [
        0x05a8_d504_d98b_1038,
        0x0332_b8dc_1868_6770,
        0xeb95_6e79_e57c_8587,
        0xd653_d1ea_bad3_7925,
        0x4006_b9e9_0da4_ea5e,
    ];
    assert_eq!(prints, pinned, "{prints:#x?}");
}
