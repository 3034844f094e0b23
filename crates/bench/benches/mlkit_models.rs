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

fn main() {
    let data = dataset(4000);
    bench("dtr_fit_4k", || {
        DecisionTreeRegressor::fit(&data, &TreeConfig::default())
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
