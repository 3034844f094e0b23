//! Randomized property tests over the core data structures and invariants,
//! spanning crates.
//!
//! These used to be `proptest` suites; they now run on an in-tree harness
//! (seeded [`RngStream`] inputs, fixed case counts) so the tier-1 suite
//! builds with zero network access. Cases are deterministic per seed.

use fiveg_wild::power::datamodel::{DataPowerModel, NetworkKind};
use fiveg_wild::radio::band::{Band, Direction};
use fiveg_wild::radio::link::{link_capacity_mbps, LinkState};
use fiveg_wild::radio::propagation::rsrp_dbm;
use fiveg_wild::radio::ue::UeModel;
use fiveg_wild::simcore::stats;
use fiveg_wild::simcore::{RngStream, SimDuration, SimTime, TimeSeries};
use fiveg_wild::transport::shaper::BandwidthTrace;

/// Number of random cases per property.
const CASES: usize = 256;

/// RSRP is monotonically non-increasing in distance for every band.
#[test]
fn rsrp_decreases_with_distance() {
    let mut rng = RngStream::new(1, "prop/rsrp-mono");
    let bands = [
        Band::LteMidBand,
        Band::N5Dss,
        Band::N71,
        Band::N260,
        Band::N261,
    ];
    for _ in 0..CASES {
        let d1 = rng.gen_range(1.0..5_000.0);
        let delta = rng.gen_range(1.0..5_000.0);
        let band = *rng.choose(&bands);
        let near = rsrp_dbm(band, d1, false);
        let far = rsrp_dbm(band, d1 + delta, false);
        assert!(far <= near + 1e-9, "{band:?} d={d1} delta={delta}");
    }
}

/// Link capacity is monotone in RSRP and never exceeds the UE cap.
#[test]
fn capacity_monotone_in_rsrp() {
    let mut rng = RngStream::new(2, "prop/cap-mono");
    let ue = UeModel::GalaxyS20Ultra;
    for _ in 0..CASES {
        let r1 = rng.gen_range(-125.0..-44.0);
        let bump = rng.gen_range(0.0..40.0);
        let weak = LinkState {
            band: Band::N261,
            rsrp_dbm: r1,
            sa: false,
        };
        let strong = LinkState {
            rsrp_dbm: (r1 + bump).min(-44.0),
            ..weak
        };
        let c_weak = link_capacity_mbps(ue, &weak, Direction::Downlink);
        let c_strong = link_capacity_mbps(ue, &strong, Direction::Downlink);
        assert!(c_strong + 1e-9 >= c_weak, "r1={r1} bump={bump}");
        assert!(c_strong <= ue.max_throughput_mbps(Band::N261.class(), Direction::Downlink) + 1e-9);
    }
}

/// Power curves are monotone in throughput, and the RSRP penalty never
/// makes power cheaper.
#[test]
fn power_monotone_and_penalized() {
    let mut rng = RngStream::new(3, "prop/power-mono");
    let m = DataPowerModel::lookup(UeModel::GalaxyS20Ultra, NetworkKind::MmWave);
    for _ in 0..CASES {
        let t1 = rng.gen_range(0.0..2_000.0);
        let dt = rng.gen_range(0.0..500.0);
        let rsrp = rng.gen_range(-120.0..-60.0);
        assert!(
            m.power_mw(Direction::Downlink, t1 + dt) >= m.power_mw(Direction::Downlink, t1),
            "t1={t1} dt={dt}"
        );
        assert!(
            m.power_mw_with_rsrp(Direction::Downlink, t1, rsrp)
                >= m.power_mw(Direction::Downlink, t1) - 1e-9,
            "t1={t1} rsrp={rsrp}"
        );
    }
}

/// Transfer time over a shaped trace is additive: sending A bytes then
/// B bytes takes exactly as long as sending A+B.
#[test]
fn transfer_time_is_additive() {
    let mut rng = RngStream::new(4, "prop/transfer-additive");
    for _ in 0..CASES {
        let a = rng.gen_range(1_000.0..5e6);
        let b = rng.gen_range(1_000.0..5e6);
        let start = rng.gen_range(0.0..50.0);
        let n_rates = rng.gen_range(4usize..16);
        let rates: Vec<f64> = (0..n_rates).map(|_| rng.gen_range(0.5..500.0)).collect();
        let trace = BandwidthTrace::new(rates, 1.0);
        let t_ab = trace.transfer_time_s(a + b, start);
        let t_a = trace.transfer_time_s(a, start);
        let t_b = trace.transfer_time_s(b, start + t_a);
        assert!((t_ab - (t_a + t_b)).abs() < 1e-6, "{t_ab} vs {}", t_a + t_b);
    }
}

/// Trapezoidal energy integration is additive over adjacent windows.
#[test]
fn energy_integration_is_additive() {
    let mut rng = RngStream::new(5, "prop/energy-additive");
    for _ in 0..CASES {
        let n = rng.gen_range(3usize..40);
        let mut ts = TimeSeries::new();
        for i in 0..n {
            ts.push(
                SimTime::from_millis(i as u64 * 100),
                rng.gen_range(0.0..5_000.0),
            );
        }
        let cut_frac = rng.gen_range(0.1..0.9);
        let start = ts.start().expect("non-empty");
        let end = ts.end().expect("non-empty");
        let span = end.since(start);
        let cut = start + SimDuration::from_micros((span.as_micros() as f64 * cut_frac) as u64);
        let whole = ts.integrate_between(start, end);
        let parts = ts.integrate_between(start, cut) + ts.integrate_between(cut, end);
        assert!(
            (whole - parts).abs() < 1e-6 * whole.max(1.0),
            "{whole} vs {parts}"
        );
    }
}

/// p95 lies between min and max, and percentiles are monotone.
#[test]
fn percentiles_are_monotone() {
    let mut rng = RngStream::new(6, "prop/percentiles");
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..100);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let p50 = stats::percentile(&xs, 50.0);
        let p95 = stats::percentile(&xs, 95.0);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(p50 <= p95 + 1e-9);
        assert!(p95 >= lo - 1e-9 && p95 <= hi + 1e-9);
    }
}

/// Harmonic mean never exceeds the arithmetic mean.
#[test]
fn harmonic_le_arithmetic() {
    let mut rng = RngStream::new(7, "prop/harmonic");
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..50);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1e4)).collect();
        assert!(stats::harmonic_mean(&xs) <= stats::mean(&xs) + 1e-9);
    }
}
