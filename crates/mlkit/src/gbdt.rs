//! Gradient-boosted regression trees (squared loss).
//!
//! The stand-in for the Lumos5G GDBT throughput predictor (§5.3): boosting
//! shallow CART regressors on residuals.

use crate::dataset::Dataset;
use crate::tree::{DecisionTreeRegressor, Presort, TreeConfig};

/// Gradient-boosting hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Depth of each weak learner.
    pub tree_depth: usize,
    /// Minimum samples per leaf in weak learners.
    pub min_samples_leaf: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_estimators: 80,
            learning_rate: 0.1,
            tree_depth: 3,
            min_samples_leaf: 5,
        }
    }
}

/// A fitted gradient-boosted regressor.
#[derive(Debug, Clone)]
pub struct GbdtRegressor {
    base: f64,
    learning_rate: f64,
    trees: Vec<DecisionTreeRegressor>,
}

impl GbdtRegressor {
    /// Fits the ensemble to `data`.
    ///
    /// # Panics
    /// Panics on an empty dataset or zero estimators.
    pub fn fit(data: &Dataset, cfg: &GbdtConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit an empty dataset");
        assert!(cfg.n_estimators > 0, "need at least one estimator");
        let base = fiveg_simcore::stats::mean(&data.targets);
        let tree_cfg = TreeConfig {
            max_depth: cfg.tree_depth,
            min_samples_leaf: cfg.min_samples_leaf,
            ..TreeConfig::default()
        };
        let mut preds = vec![base; data.len()];
        let mut trees = Vec::with_capacity(cfg.n_estimators);
        // Only the residuals change between rounds: sort the features once.
        let presort = Presort::new(data);
        let mut residuals = vec![0.0; data.len()];
        for _ in 0..cfg.n_estimators {
            for (i, r) in residuals.iter_mut().enumerate() {
                *r = data.targets[i] - preds[i];
            }
            let tree = DecisionTreeRegressor::fit_presorted(data, &presort, &residuals, &tree_cfg);
            for (i, p) in preds.iter_mut().enumerate() {
                *p += cfg.learning_rate * tree.predict(&data.features[i]);
            }
            trees.push(tree);
        }
        GbdtRegressor {
            base,
            learning_rate: cfg.learning_rate,
            trees,
        }
    }

    /// Predicts one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    /// Predicts every row of `data`.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        data.features.iter().map(|r| self.predict(r)).collect()
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::stats::r_squared;
    use fiveg_simcore::RngStream;

    fn wavy(n: usize, seed: u64) -> Dataset {
        let mut rng = RngStream::new(seed, "gbdt");
        let mut d = Dataset::new(vec!["x".into(), "y".into()], vec![], vec![]);
        for _ in 0..n {
            let x = rng.gen_range(0.0..std::f64::consts::TAU);
            let y = rng.gen_range(0.0..1.0);
            d.push(vec![x, y], x.sin() * 5.0 + y * 2.0 + rng.normal(0.0, 0.05));
        }
        d
    }

    #[test]
    fn fits_nonlinear_targets() {
        let data = wavy(3000, 1);
        let model = GbdtRegressor::fit(&data, &GbdtConfig::default());
        let r2 = r_squared(&data.targets, &model.predict_all(&data));
        assert!(r2 > 0.97, "R² {r2}");
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let data = wavy(4000, 2);
        let mut rng = RngStream::new(2, "split");
        let (train, test) = data.split(0.7, &mut rng);
        let model = GbdtRegressor::fit(&train, &GbdtConfig::default());
        let r2 = r_squared(&test.targets, &model.predict_all(&test));
        assert!(r2 > 0.95, "held-out R² {r2}");
    }

    #[test]
    fn boosting_beats_a_single_weak_tree() {
        let data = wavy(2000, 3);
        let weak_cfg = TreeConfig {
            max_depth: 3,
            ..TreeConfig::default()
        };
        let weak = DecisionTreeRegressor::fit(&data, &weak_cfg);
        let boosted = GbdtRegressor::fit(&data, &GbdtConfig::default());
        let weak_r2 = r_squared(&data.targets, &weak.predict_all(&data));
        let boosted_r2 = r_squared(&data.targets, &boosted.predict_all(&data));
        assert!(boosted_r2 > weak_r2, "{boosted_r2} vs {weak_r2}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let mut d = Dataset::new(vec!["x".into()], vec![], vec![]);
        for i in 0..50 {
            d.push(vec![i as f64], 4.0);
        }
        let model = GbdtRegressor::fit(&d, &GbdtConfig::default());
        assert!((model.predict(&[25.0]) - 4.0).abs() < 1e-6);
    }

    /// Every round's tree equals the one the reference search fits to a
    /// cloned dataset carrying that round's residuals, as the ensemble
    /// was fitted before it presorted once per fit.
    #[test]
    fn boosted_trees_match_the_reference_bit_for_bit() {
        use crate::tree::reference::{regressor, regressor_bits};
        let mut data = wavy(700, 4);
        // Duplicates and a signed zero in `y`, negative targets.
        for (row, t) in data.features.iter_mut().zip(data.targets.iter_mut()) {
            row[1] = ((row[1] - 0.5) * 8.0).round() / 8.0;
            *t -= 6.0;
        }
        let cfg = GbdtConfig {
            n_estimators: 15,
            tree_depth: 5,
            min_samples_leaf: 3,
            ..GbdtConfig::default()
        };
        let tree_cfg = TreeConfig {
            max_depth: cfg.tree_depth,
            min_samples_leaf: cfg.min_samples_leaf,
            ..TreeConfig::default()
        };
        let model = GbdtRegressor::fit(&data, &cfg);
        assert_eq!(model.n_trees(), cfg.n_estimators);
        let mut preds = vec![model.base; data.len()];
        let mut residual_data = data.clone();
        for (round, tree) in model.trees.iter().enumerate() {
            for (i, r) in residual_data.targets.iter_mut().enumerate() {
                *r = data.targets[i] - preds[i];
            }
            let want = regressor(&residual_data, &tree_cfg);
            assert_eq!(regressor_bits(tree), regressor_bits(&want), "round {round}");
            for (p, row) in preds.iter_mut().zip(&data.features) {
                *p += cfg.learning_rate * want.predict(row);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one estimator")]
    fn rejects_zero_estimators() {
        let mut d = Dataset::new(vec!["x".into()], vec![], vec![]);
        d.push(vec![0.0], 0.0);
        GbdtRegressor::fit(
            &d,
            &GbdtConfig {
                n_estimators: 0,
                ..GbdtConfig::default()
            },
        );
    }
}
