//! The split search that [`super::grow`] replaced, kept as its reference:
//! every node re-sorts each feature column for its candidate thresholds,
//! and every threshold runs masked multiply-adds over the whole node.
//! The equivalence tests below fit both on seeded datasets and compare
//! the trees bit for bit.

use super::{
    Criterion, DecisionTreeClassifier, DecisionTreeRegressor, GiniCriterion, Node, Tree,
    TreeConfig, VarianceCriterion,
};
use crate::dataset::Dataset;

/// Candidate split thresholds for a feature: quantiles of the observed
/// values, midpointed.
fn candidate_thresholds(values: &mut Vec<f64>, max_thresholds: usize) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values.dedup();
    if values.len() < 2 {
        return Vec::new();
    }
    let n_cand = (values.len() - 1).min(max_thresholds);
    (0..n_cand)
        .map(|i| {
            // Even coverage of the gap list.
            let pos = (i as f64 + 0.5) / n_cand as f64 * (values.len() - 1) as f64;
            let j = pos.floor() as usize;
            (values[j] + values[j + 1]) / 2.0
        })
        .collect()
}

/// The per-threshold impurities of one feature, from the raw column.
trait Scan: Criterion {
    /// The default: materialize both sides per threshold.
    fn scan(feat: &[f64], tgt: &[f64], thrs: &[f64], min_leaf: usize) -> Vec<Option<(f64, f64)>> {
        thrs.iter()
            .map(|&thr| {
                let (mut lt, mut rt) = (Vec::new(), Vec::new());
                for (x, t) in feat.iter().zip(tgt) {
                    if *x < thr {
                        lt.push(*t);
                    } else {
                        rt.push(*t);
                    }
                }
                if lt.len() < min_leaf || rt.len() < min_leaf {
                    return None;
                }
                Some((Self::impurity_n(&lt), Self::impurity_n(&rt)))
            })
            .collect()
    }
}

impl Scan for GiniCriterion {}

impl Scan for VarianceCriterion {
    /// Two passes over the column, every row feeding every threshold's
    /// accumulators through a 0.0/1.0 mask.
    fn scan(feat: &[f64], tgt: &[f64], thrs: &[f64], min_leaf: usize) -> Vec<Option<(f64, f64)>> {
        let k = thrs.len();
        let (mut lsum, mut rsum) = (vec![0.0f64; k], vec![0.0f64; k]);
        let mut ln = vec![0usize; k];
        for (&x, &t) in feat.iter().zip(tgt) {
            for ((thr, ls), (rs, n)) in thrs.iter().zip(&mut lsum).zip(rsum.iter_mut().zip(&mut ln))
            {
                let m = f64::from(u8::from(x < *thr));
                *ls += m * t;
                *rs += (1.0 - m) * t;
                *n += usize::from(x < *thr);
            }
        }
        let lm: Vec<f64> = lsum
            .iter()
            .zip(&ln)
            .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect();
        let rm: Vec<f64> = rsum
            .iter()
            .zip(&ln)
            .map(|(s, &n)| {
                let rn = feat.len() - n;
                if rn == 0 {
                    0.0
                } else {
                    s / rn as f64
                }
            })
            .collect();
        let (mut li, mut ri) = (vec![0.0f64; k], vec![0.0f64; k]);
        for (&x, &t) in feat.iter().zip(tgt) {
            for ((thr, (l, r)), (lmu, rmu)) in thrs
                .iter()
                .zip(li.iter_mut().zip(&mut ri))
                .zip(lm.iter().zip(&rm))
            {
                let m = f64::from(u8::from(x < *thr));
                let dl = t - lmu;
                let dr = t - rmu;
                *l += m * (dl * dl);
                *r += (1.0 - m) * (dr * dr);
            }
        }
        (0..k)
            .map(|i| {
                let rn = feat.len() - ln[i];
                if ln[i] < min_leaf || rn < min_leaf {
                    None
                } else {
                    Some((li[i], ri[i]))
                }
            })
            .collect()
    }
}

fn build<C: Scan>(
    data: &Dataset,
    rows: Vec<usize>,
    depth: usize,
    cfg: &TreeConfig,
    nodes: &mut Vec<Node>,
) -> usize {
    let targets: Vec<f64> = rows.iter().map(|&i| data.targets[i]).collect();
    let leaf_value = C::leaf_value(&targets);
    let node_impurity = C::impurity_n(&targets);

    let make_leaf = |nodes: &mut Vec<Node>| {
        nodes.push(Node::Leaf {
            value: leaf_value,
            n: rows.len(),
        });
        nodes.len() - 1
    };

    if depth >= cfg.max_depth
        || rows.len() < 2 * cfg.min_samples_leaf
        || node_impurity <= f64::EPSILON
    {
        return make_leaf(nodes);
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    for f in 0..data.n_features() {
        let col: Vec<f64> = rows.iter().map(|&i| data.features[i][f]).collect();
        let mut vals = col.clone();
        let thrs = candidate_thresholds(&mut vals, cfg.max_thresholds);
        let imps = C::scan(&col, &targets, &thrs, cfg.min_samples_leaf);
        for (thr, imp) in thrs.into_iter().zip(imps) {
            let Some((il, ir)) = imp else {
                continue;
            };
            let gain = node_impurity - il - ir;
            if gain > cfg.min_impurity_decrease * rows.len() as f64
                && best.is_none_or(|(_, _, g)| gain > g)
            {
                best = Some((f, thr, gain));
            }
        }
    }

    let Some((feature, threshold, gain)) = best else {
        return make_leaf(nodes);
    };

    let (mut left_rows, mut right_rows) = (Vec::new(), Vec::new());
    for &i in &rows {
        if data.features[i][feature] < threshold {
            left_rows.push(i);
        } else {
            right_rows.push(i);
        }
    }
    let n = rows.len();
    drop(rows);
    // Reserve our slot before children so the root stays at index 0.
    nodes.push(Node::Leaf { value: 0.0, n: 0 });
    let me = nodes.len() - 1;
    let left = build::<C>(data, left_rows, depth + 1, cfg, nodes);
    let right = build::<C>(data, right_rows, depth + 1, cfg, nodes);
    nodes[me] = Node::Split {
        feature,
        threshold,
        left,
        right,
        gain: gain / n as f64,
        fallback: leaf_value,
        n,
    };
    me
}

fn tree<C: Scan>(data: &Dataset, cfg: &TreeConfig) -> Tree {
    let mut nodes = Vec::new();
    build::<C>(data, (0..data.len()).collect(), 0, cfg, &mut nodes);
    Tree {
        nodes,
        n_features: data.n_features(),
    }
}

/// [`DecisionTreeRegressor::fit`] by the reference search.
pub(crate) fn regressor(data: &Dataset, cfg: &TreeConfig) -> DecisionTreeRegressor {
    DecisionTreeRegressor {
        tree: tree::<VarianceCriterion>(data, cfg),
        feature_names: data.feature_names.clone(),
    }
}

/// [`DecisionTreeClassifier::fit`] by the reference search.
pub(crate) fn classifier(data: &Dataset, cfg: &TreeConfig) -> DecisionTreeClassifier {
    DecisionTreeClassifier {
        tree: tree::<GiniCriterion>(data, cfg),
        feature_names: data.feature_names.clone(),
    }
}

/// A node with its floats as bit patterns, so `==` is bit equality.
#[derive(Debug, PartialEq)]
pub(crate) enum NodeBits {
    Leaf {
        value: u64,
        n: usize,
    },
    Split {
        feature: usize,
        threshold: u64,
        left: usize,
        right: usize,
        gain: u64,
        fallback: u64,
        n: usize,
    },
}

/// Every arena node of `tree` (orphans of pruning included), then the
/// importances, as bits.
fn bits(tree: &Tree) -> (Vec<NodeBits>, Vec<u64>) {
    let nodes = tree
        .nodes
        .iter()
        .map(|node| match *node {
            Node::Leaf { value, n } => NodeBits::Leaf {
                value: value.to_bits(),
                n,
            },
            Node::Split {
                feature,
                threshold,
                left,
                right,
                gain,
                fallback,
                n,
            } => NodeBits::Split {
                feature,
                threshold: threshold.to_bits(),
                left,
                right,
                gain: gain.to_bits(),
                fallback: fallback.to_bits(),
                n,
            },
        })
        .collect();
    let importances = tree.importances().iter().map(|v| v.to_bits()).collect();
    (nodes, importances)
}

/// [`bits`] of a fitted regressor.
pub(crate) fn regressor_bits(model: &DecisionTreeRegressor) -> (Vec<NodeBits>, Vec<u64>) {
    bits(&model.tree)
}

/// [`bits`] of a fitted classifier.
pub(crate) fn classifier_bits(model: &DecisionTreeClassifier) -> (Vec<NodeBits>, Vec<u64>) {
    bits(&model.tree)
}

/// FNV-1a over [`bits`]: one number that moves if any bit of the tree
/// does.
pub(crate) fn fingerprint(bits: &(Vec<NodeBits>, Vec<u64>)) -> u64 {
    format!("{bits:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

mod tests {
    use super::*;
    use fiveg_simcore::RngStream;

    /// `1.0` and the next three floats above it. Their pairwise midpoints
    /// round onto the values themselves, so a threshold can equal a
    /// feature value exactly, where the side a row falls on hinges on
    /// `x < thr` being strict.
    fn tight(i: usize) -> f64 {
        (0..i).fold(1.0f64, |x, _| x.next_up())
    }

    /// A seeded dataset for the cases the exactness argument rests on:
    /// signed continuous values with both zeros injected, rounded values
    /// with many duplicates (and a `-0.0` from rounding small negatives),
    /// a four-value category (fewer values than `max_thresholds`) and the
    /// [`tight`] column. Targets are negative-offset and depend on every
    /// column, or are constant when `constant` is set.
    fn awkward(seed: u64, n: usize, constant: bool) -> Dataset {
        let mut rng = RngStream::new(seed, "tree/awkward");
        let names = ["smooth", "rounded", "category", "tight"];
        let mut d = Dataset::new(names.map(String::from).to_vec(), vec![], vec![]);
        for _ in 0..n {
            let smooth = match rng.uniform() {
                u if u < 0.05 => 0.0,
                u if u < 0.10 => -0.0,
                _ => rng.gen_range(-50.0..50.0),
            };
            let rounded = (rng.gen_range(-15.0..15.0) * 2.0f64).round() / 2.0;
            let category = (rng.uniform() * 4.0).floor();
            let step = (rng.uniform() * 4.0) as usize;
            let target = if constant {
                -3.5
            } else {
                -20.0 + 0.3 * smooth - 0.8 * rounded.abs()
                    + 4.0 * category
                    + 6.0 * step as f64
                    + rng.normal(0.0, 1.0)
            };
            d.push(vec![smooth, rounded, category, tight(step)], target);
        }
        d
    }

    /// Default, few thresholds, `min_samples_leaf` 0 and 1, and a leaf
    /// minimum of exactly half the rows, which lets the root split only
    /// at its median.
    fn configs(n: usize) -> Vec<TreeConfig> {
        let base = TreeConfig::default();
        vec![
            base,
            TreeConfig {
                min_samples_leaf: 1,
                max_thresholds: 3,
                ..base
            },
            TreeConfig {
                min_samples_leaf: 0,
                max_depth: 5,
                ..base
            },
            TreeConfig {
                min_samples_leaf: n / 2,
                ..base
            },
            TreeConfig {
                min_samples_leaf: 13,
                max_depth: 12,
                max_thresholds: 200,
                ..base
            },
        ]
    }

    #[test]
    fn regressor_matches_the_reference_bit_for_bit() {
        for seed in 0..4 {
            for n in [2, 64, 301, 1000] {
                for constant in [false, true] {
                    let data = awkward(seed, n, constant);
                    for cfg in configs(n) {
                        let got = DecisionTreeRegressor::fit(&data, &cfg);
                        let want = regressor(&data, &cfg);
                        assert_eq!(
                            regressor_bits(&got),
                            regressor_bits(&want),
                            "seed {seed}, {n} rows, constant {constant}, {cfg:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn classifier_matches_the_reference_before_and_after_pruning() {
        for seed in 0..4 {
            let mut data = awkward(seed, 800, false);
            let mut rng = RngStream::new(seed, "tree/classes");
            for (row, t) in data.features.iter().zip(data.targets.iter_mut()) {
                // Three classes from the category and the tight step, with
                // label noise so that pruning has something to cut.
                let step = (0..4).position(|i| tight(i) == row[3]).unwrap_or(0);
                let class = (row[2] as usize + step) % 3;
                *t = if rng.chance(0.1) { 2 - class } else { class } as f64;
            }
            let (train, val) = data.split(0.7, &mut rng);
            for cfg in configs(train.len()) {
                let mut got = DecisionTreeClassifier::fit(&train, &cfg);
                let mut want = classifier(&train, &cfg);
                assert_eq!(
                    classifier_bits(&got),
                    classifier_bits(&want),
                    "seed {seed}, {cfg:?}"
                );
                got.prune(&val);
                want.prune(&val);
                assert_eq!(
                    classifier_bits(&got),
                    classifier_bits(&want),
                    "pruned, seed {seed}, {cfg:?}"
                );
            }
        }
    }

    /// The shape of one Fig 15 power-model fit: ~75k walking samples of
    /// (throughput Mbps, RSRP dBm) against power (mW), default config.
    /// The fingerprint was recorded with the per-node-sort search, before
    /// the presorted one replaced it.
    #[test]
    fn fig15_shaped_fit_keeps_its_bits() {
        let mut rng = RngStream::new(15, "tree/fig15");
        let mut data = Dataset::new(vec!["throughput".into(), "rsrp".into()], vec![], vec![]);
        for _ in 0..75_000 {
            let mbps = (rng.gen_range(0.0..1800.0) * 10.0f64).round() / 10.0;
            let rsrp = rng.gen_range(-115.0..-70.0f64).round();
            let mw = 2_000.0 + 1.6 * mbps + 9.0 * (-rsrp - 70.0) + rng.normal(0.0, 60.0);
            data.push(vec![mbps, rsrp], mw);
        }
        let model = DecisionTreeRegressor::fit(&data, &TreeConfig::default());
        assert_eq!(fingerprint(&regressor_bits(&model)), 0xf7fe_2465_ddf4_6f17);
    }
}
