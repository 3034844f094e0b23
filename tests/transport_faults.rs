//! Faulted transport, bit for bit: the fluid window engine (CUBIC,
//! Reno), the rate engine (BBR, NADA) and a bonded NADA pair, each run
//! for 15 s under a `transport-turbulence` and a `chaos` schedule whose
//! stall window opens inside the run.
//!
//! Every run's goodput, loss count, per-second ledger and recovery stream
//! fold into one FNV-1a fingerprint, pinned to the value the engines gave
//! before they shared one stall timer and goodput ledger. Each pinned run
//! records at least one RTO backoff and one fast retransmit, so both
//! faulted branches of every engine are covered. The quiet goldens never
//! enter a stall, so nothing else compares these paths with a recorded
//! value.

use fiveg_wild::simcore::attempt::{self, Attempt};
use fiveg_wild::simcore::faults::{FaultKind, FaultScenario, FaultSchedule};
use fiveg_wild::simcore::recovery::{RecoveryEvent, RecoveryKind};
use fiveg_wild::simcore::RngStream;
use fiveg_wild::transport::path::PathModel;
use fiveg_wild::transport::tcp::{CcAlgo, TcpSim, TcpSimConfig};
use fiveg_wild::transport::{BondedConfig, BondedSim};

const RUN_S: f64 = 15.0;

/// `transport-turbulence` at this seed stalls from 2.18 s for 2.19 s.
const TURBULENCE_SEED: u64 = 197;
/// `chaos` at this seed stalls from 1.90 s for 6.18 s.
const CHAOS_SEED: u64 = 86;

fn path(rtt_ms: f64, capacity_mbps: f64) -> PathModel {
    PathModel {
        rtt_ms,
        loss_per_pkt: 1e-5,
        capacity_mbps,
        mss_bytes: 1460.0,
        queue_bdp: 1.0,
    }
}

/// The schedule, checked to open a stall window inside the run.
fn schedule(seed: u64, scenario: &FaultScenario) -> FaultSchedule {
    let schedule = FaultSchedule::generate(seed, scenario);
    assert!(
        schedule
            .events_of(FaultKind::StallWindow)
            .any(|e| e.start_s < RUN_S),
        "{} seed {seed}: no stall window opens inside the run",
        scenario.name
    );
    schedule
}

/// FNV-1a over the bits of one run's outputs and its recovery stream
/// (kind and time of each event).
fn fingerprint(mean: f64, losses: u64, per_second: &[f64], recovery: &[RecoveryEvent]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend(mean.to_bits().to_le_bytes());
    bytes.extend(losses.to_le_bytes());
    for x in per_second {
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

/// Runs `run` under `schedule` and returns its fingerprint, after checking
/// that the run both backed off an RTO and fast-retransmitted.
fn pinned_run(
    label: &str,
    schedule: &FaultSchedule,
    run: impl FnOnce() -> (f64, u64, Vec<f64>),
) -> u64 {
    let _attempt = Attempt::new().faults(schedule.clone()).install();
    let (mean, losses, per_second) = run();
    let recovery = attempt::drain().recovery;
    for kind in [RecoveryKind::TcpRto, RecoveryKind::TcpFastRetransmit] {
        assert!(
            recovery.iter().any(|e| e.kind == kind),
            "{label}: no {} recorded",
            kind.name()
        );
    }
    fingerprint(mean, losses, &per_second, &recovery)
}

/// The five engine runs under one schedule, in a fixed order: CUBIC,
/// Reno, BBR, NADA, then the bonded NADA pair.
fn fingerprints(seed: u64, scenario: &FaultScenario) -> Vec<u64> {
    let schedule = schedule(seed, scenario);
    let mut prints = Vec::new();
    for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr, CcAlgo::Nada] {
        let label = format!("{} {}", scenario.name, algo.as_str());
        prints.push(pinned_run(&label, &schedule, || {
            let cfg = TcpSimConfig {
                algo,
                ..TcpSimConfig::multi(4)
            };
            let res = TcpSim::new(path(20.0, 2000.0), cfg, RngStream::new(seed, "tcp")).run(RUN_S);
            (res.mean_mbps, res.loss_events, res.per_second_mbps)
        }));
    }
    let label = format!("{} bonded nada", scenario.name);
    prints.push(pinned_run(&label, &schedule, || {
        let links = vec![path(30.0, 150.0), path(20.0, 1500.0)];
        let res = BondedSim::new(
            BondedConfig::new(links, CcAlgo::Nada),
            RngStream::new(seed, "bond"),
        )
        .run(RUN_S);
        (res.mean_mbps, res.loss_events, res.per_second_mbps)
    }));
    prints
}

#[test]
fn turbulence_runs_keep_their_bits() {
    let prints = fingerprints(TURBULENCE_SEED, &FaultScenario::transport_turbulence());
    let pinned = [
        0xde18_c6e8_933e_4276,
        0x5cf5_1d08_4dd3_74db,
        0x6ca1_7b8b_caff_d9ee,
        0x2062_f77c_fde7_dbfa,
        0xfe5d_0eba_159f_58a1,
    ];
    assert_eq!(prints, pinned, "{prints:#x?}");
}

#[test]
fn chaos_runs_keep_their_bits() {
    let prints = fingerprints(CHAOS_SEED, &FaultScenario::chaos());
    let pinned = [
        0x1b91_0e87_831b_f032,
        0xaeda_a888_6689_e476,
        0xdeb4_10ca_f961_7873,
        0xe94d_08f9_3a09_b828,
        0xccf7_f485_7e30_d73b,
    ];
    assert_eq!(prints, pinned, "{prints:#x?}");
}
