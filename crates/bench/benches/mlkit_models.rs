//! Benchmarks for the from-scratch ML models (§4.5/§5.3/§6.2).

use fiveg_bench::timing::bench;
use fiveg_mlkit::dataset::Dataset;
use fiveg_mlkit::gbdt::{GbdtConfig, GbdtRegressor};
use fiveg_mlkit::mlp::Mlp;
use fiveg_mlkit::tree::{DecisionTreeRegressor, TreeConfig};
use fiveg_simcore::RngStream;

fn dataset(n: usize) -> Dataset {
    let mut rng = RngStream::new(1, "bench");
    let mut d = Dataset::new(vec!["a".into(), "b".into()], vec![], vec![]);
    for _ in 0..n {
        let a = rng.uniform();
        let b = rng.uniform();
        d.push(vec![a, b], (a * 6.0).sin() + b);
    }
    d
}

/// A Fig 15 power-model training set: ~75k walking samples of
/// (throughput Mbps at 0.1 Mbps resolution, RSRP in whole dBm) against
/// power (mW), so both columns repeat values the way the campaign's do.
fn fig15_shaped() -> Dataset {
    let mut rng = RngStream::new(3, "bench/fig15");
    let mut d = Dataset::new(vec!["throughput".into(), "rsrp".into()], vec![], vec![]);
    for _ in 0..75_000 {
        let mbps = (rng.gen_range(0.0..1800.0) * 10.0f64).round() / 10.0;
        let rsrp = rng.gen_range(-115.0..-70.0f64).round();
        let mw = 2_000.0 + 1.6 * mbps + 9.0 * (-rsrp - 70.0) + rng.normal(0.0, 60.0);
        d.push(vec![mbps, rsrp], mw);
    }
    d
}

/// A Fig 18a predictor training set: ~2k windows of the last 6 throughput
/// samples of a bursty trace, against the log throughput that follows.
fn fig18a_shaped() -> Dataset {
    let mut rng = RngStream::new(4, "bench/fig18a");
    let names = (1..=6).rev().map(|i| format!("tput_m{i}")).collect();
    let mut d = Dataset::new(names, vec![], vec![]);
    let mut tput = vec![400.0f64];
    for _ in 0..2_006 {
        let last = tput[tput.len() - 1];
        let next = if rng.chance(0.05) {
            rng.gen_range(0.0..50.0)
        } else {
            (last * rng.log_normal(0.0, 0.3)).clamp(1.0, 2_000.0)
        };
        tput.push(next);
    }
    for w in tput.windows(7) {
        d.push(w[..6].to_vec(), (1.0 + w[6]).ln());
    }
    d
}

fn main() {
    let data = dataset(4000);
    bench("dtr_fit_4k", || {
        DecisionTreeRegressor::fit(&data, &TreeConfig::default())
    });
    let fig15 = fig15_shaped();
    bench("dtr_fit_fig15_75k", || {
        DecisionTreeRegressor::fit(&fig15, &TreeConfig::default())
    });
    let fig18a = fig18a_shaped();
    bench("gbdt_fit_fig18a_2k_x120", || {
        GbdtRegressor::fit(
            &fig18a,
            &GbdtConfig {
                n_estimators: 120,
                tree_depth: 5,
                ..GbdtConfig::default()
            },
        )
    });
    let small = dataset(1000);
    bench("gbdt_fit_1k_x40", || {
        GbdtRegressor::fit(
            &small,
            &GbdtConfig {
                n_estimators: 40,
                ..GbdtConfig::default()
            },
        )
    });
    // One SGD epoch of the Pensieve policy's [6, 48, 24, 6] net over 1k
    // one-hot imitation targets.
    let mut rng = RngStream::new(2, "bench/mlp");
    let inputs: Vec<Vec<f64>> = (0..1000)
        .map(|_| (0..6).map(|_| rng.uniform()).collect())
        .collect();
    let targets: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| {
            let mut t = vec![0.0; 6];
            t[((x[0] + x[1]) * 3.0) as usize] = 1.0;
            t
        })
        .collect();
    let mut net = Mlp::new(&[6, 48, 24, 6], &mut rng);
    bench("mlp_train_pensieve_shape", || {
        net.train(&inputs, &targets, 1, 0.008, &mut rng)
    });
}
