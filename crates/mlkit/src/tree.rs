//! CART decision trees: regression (variance reduction) and classification
//! (Gini), with bottom-up reduced-error post-pruning and feature
//! importances.
//!
//! These power the paper's three tree applications: the TH+SS power model
//! (Decision Tree Regression, §4.5), software-power-monitor calibration
//! (§4.6), and the interpretable 4G/5G interface-selection classifiers
//! M1–M5 whose pruned structure Fig 22 draws.

use crate::dataset::Dataset;

/// Hyper-parameters shared by both tree types.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum impurity decrease to accept a split.
    pub min_impurity_decrease: f64,
    /// Maximum candidate thresholds evaluated per feature (quantiles).
    pub max_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_leaf: 5,
            min_impurity_decrease: 1e-9,
            max_thresholds: 64,
        }
    }
}

/// A tree node (arena-indexed).
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
        n: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        /// Impurity decrease achieved by this split (for importances).
        gain: f64,
        /// Leaf value this node would take if pruned.
        fallback: f64,
        n: usize,
    },
}

/// Shared tree structure.
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl Tree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Indices of nodes reachable from the root (pruning orphans arena
    /// entries, which must not be counted).
    fn reachable(&self) -> Vec<usize> {
        let mut stack = vec![0usize];
        let mut out = Vec::new();
        while let Some(idx) = stack.pop() {
            out.push(idx);
            if let Node::Split { left, right, .. } = &self.nodes[idx] {
                stack.push(*left);
                stack.push(*right);
            }
        }
        out
    }

    /// Normalized total impurity decrease per feature.
    fn importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for idx in self.reachable() {
            if let Node::Split {
                feature, gain, n, ..
            } = &self.nodes[idx]
            {
                imp[*feature] += gain * *n as f64;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    fn depth_from(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => {
                1 + self.depth_from(*left).max(self.depth_from(*right))
            }
        }
    }

    fn n_leaves(&self) -> usize {
        self.reachable()
            .into_iter()
            .filter(|&i| matches!(self.nodes[i], Node::Leaf { .. }))
            .count()
    }

    /// The sample count of the smallest reachable leaf (what the
    /// `min_samples_leaf` constraint actually produced).
    fn min_leaf_n(&self) -> usize {
        self.reachable()
            .into_iter()
            .filter_map(|i| match self.nodes[i] {
                Node::Leaf { n, .. } => Some(n),
                Node::Split { .. } => None,
            })
            .min()
            .unwrap_or(0)
    }
}

/// Candidate split thresholds from a feature's distinct values (ascending):
/// up to `max_thresholds` gap midpoints, spread evenly over the gap list.
/// The thresholds come out non-decreasing, so the rows left of each one
/// (`x < thr`) grow with the threshold index.
fn midpoints(values: &[f64], max_thresholds: usize) -> Vec<f64> {
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

/// Leaf statistic + impurity function abstraction: regression uses
/// (mean, variance·n); classification uses (majority, gini·n).
trait Criterion {
    /// Leaf prediction for the target subset.
    fn leaf_value(targets: &[f64]) -> f64;
    /// Total impurity (already multiplied by n) of the subset.
    fn impurity_n(targets: &[f64]) -> f64;

    /// `(impurity_n(left), impurity_n(right))` for each of `k` candidate
    /// thresholds of one feature, or `None` where a side falls under
    /// `min_leaf`. The node's rows arrive in ascending row order as
    /// `targets` and `buckets`, where a row's bucket is the index of the
    /// first threshold above its value: the row lies left of threshold `j`
    /// (`x < thr_j`) exactly when `j >= bucket`. The default materializes
    /// both sides per threshold and calls [`Criterion::impurity_n`];
    /// overrides must add each side's terms in the same (row) order, so
    /// the fitted tree is bit-identical however the batch is computed.
    fn split_impurities_batch(
        buckets: &[u32],
        targets: &[f64],
        k: usize,
        min_leaf: usize,
    ) -> Vec<Option<(f64, f64)>> {
        (0..k)
            .map(|j| {
                let (mut lt, mut rt) = (Vec::new(), Vec::new());
                for (&b, &t) in buckets.iter().zip(targets) {
                    if b as usize <= j {
                        lt.push(t);
                    } else {
                        rt.push(t);
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

struct VarianceCriterion;
impl Criterion for VarianceCriterion {
    fn leaf_value(targets: &[f64]) -> f64 {
        fiveg_simcore::stats::mean(targets)
    }
    fn impurity_n(targets: &[f64]) -> f64 {
        if targets.is_empty() {
            return 0.0;
        }
        let m = fiveg_simcore::stats::mean(targets);
        targets.iter().map(|t| (t - m).powi(2)).sum()
    }

    /// Every threshold in two passes over the node's rows, each threshold
    /// with its own accumulators. Pass one sums each side's targets, pass
    /// two the squared deviations from that side's mean. A row adds to the
    /// left accumulators of the thresholds `bucket..` and to the right
    /// ones of `..bucket`: two contiguous slices of plain adds, in row
    /// order, so each side sees exactly the additions (in exactly the
    /// order) that summing its materialized vector would make, and the
    /// means match [`fiveg_simcore::stats::mean`] bit for bit. Thresholds
    /// that fail `min_leaf` are discarded anyway, so both passes cover only
    /// the contiguous run that passes (the left count grows with `j`).
    fn split_impurities_batch(
        buckets: &[u32],
        targets: &[f64],
        k: usize,
        min_leaf: usize,
    ) -> Vec<Option<(f64, f64)>> {
        let n = targets.len();
        // Left counts: rows with bucket <= j, a prefix sum of the bucket
        // histogram.
        let mut ln = vec![0usize; k + 1];
        for &b in buckets {
            ln[b as usize] += 1;
        }
        for j in 1..=k {
            ln[j] += ln[j - 1];
        }
        let passes = |j: usize| ln[j] >= min_leaf && n - ln[j] >= min_leaf;
        let lo = (0..k).find(|&j| passes(j)).unwrap_or(k);
        let hi = lo + (lo..k).take_while(|&j| passes(j)).count();
        let w = hi - lo;
        // Offset of a row's first left threshold within `lo..hi`.
        let split_at = |b: u32| (b as usize).clamp(lo, hi) - lo;

        let (mut lsum, mut rsum) = (vec![0.0f64; w], vec![0.0f64; w]);
        for (&b, &t) in buckets.iter().zip(targets) {
            let s = split_at(b);
            for acc in &mut rsum[..s] {
                *acc += t;
            }
            for acc in &mut lsum[s..] {
                *acc += t;
            }
        }
        // Means per threshold. The empty-side stand-in (reachable only when
        // `min_leaf == 0`) keeps that side's impurity at the 0.0 that
        // `impurity_n(&[])` reports.
        let mean = |sum: f64, count: usize| if count == 0 { 0.0 } else { sum / count as f64 };
        let lm: Vec<f64> = (0..w).map(|i| mean(lsum[i], ln[lo + i])).collect();
        let rm: Vec<f64> = (0..w).map(|i| mean(rsum[i], n - ln[lo + i])).collect();

        let (mut li, mut ri) = (vec![0.0f64; w], vec![0.0f64; w]);
        for (&b, &t) in buckets.iter().zip(targets) {
            let s = split_at(b);
            for (acc, m) in ri[..s].iter_mut().zip(&rm[..s]) {
                let d = t - m;
                *acc += d * d;
            }
            for (acc, m) in li[s..].iter_mut().zip(&lm[s..]) {
                let d = t - m;
                *acc += d * d;
            }
        }
        (0..k)
            .map(|j| (lo..hi).contains(&j).then(|| (li[j - lo], ri[j - lo])))
            .collect()
    }
}

struct GiniCriterion;
impl Criterion for GiniCriterion {
    fn leaf_value(targets: &[f64]) -> f64 {
        // Majority class; count ties break toward the smaller class id so
        // the tree is identical run-to-run (HashMap iteration order is not).
        let mut counts = std::collections::BTreeMap::new();
        for &t in targets {
            *counts.entry(t as i64).or_insert(0usize) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(k, c)| (c, std::cmp::Reverse(k)))
            .map(|(k, _)| k as f64)
            .unwrap_or(0.0)
    }
    fn impurity_n(targets: &[f64]) -> f64 {
        if targets.is_empty() {
            return 0.0;
        }
        let mut counts = std::collections::BTreeMap::new();
        for &t in targets {
            *counts.entry(t as i64).or_insert(0usize) += 1;
        }
        let n = targets.len() as f64;
        let gini = 1.0
            - counts
                .values()
                .map(|&c| (c as f64 / n).powi(2))
                .sum::<f64>();
        gini * n
    }
}

/// The target-independent half of a fit: the feature matrix copied
/// column-major, and each column's row ids sorted once by value. A boosted
/// ensemble builds it once and grows every round's tree from it, since
/// only the residual targets change between rounds.
pub(crate) struct Presort {
    /// `columns[f][row]`.
    columns: Vec<Vec<f64>>,
    /// `sorted[f]`: every row id, ascending by `columns[f]` under
    /// `total_cmp`.
    sorted: Vec<Vec<u32>>,
}

impl Presort {
    /// Copies `data`'s features column-major and sorts each column's row
    /// ids.
    ///
    /// # Panics
    /// Panics past `u32::MAX` rows; debug builds also on a non-finite
    /// feature (see [`DecisionTreeRegressor::fit`]).
    pub(crate) fn new(data: &Dataset) -> Self {
        let n = u32::try_from(data.len()).expect("tree fits take at most u32::MAX rows");
        let columns: Vec<Vec<f64>> = (0..data.n_features())
            .map(|f| data.features.iter().map(|row| row[f]).collect())
            .collect();
        debug_assert!(
            columns.iter().flatten().all(|x| x.is_finite()),
            "tree features must be finite"
        );
        let sorted = columns
            .iter()
            .map(|col| {
                let mut ids: Vec<u32> = (0..n).collect();
                ids.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
                ids
            })
            .collect();
        Presort { columns, sorted }
    }
}

/// Presorted CART: one tree's split-search state.
///
/// Every node owns one range `lo..hi` of `rows` and of each
/// `by_feature[f]`. `rows[lo..hi]` holds the node's row ids ascending,
/// the order its sums run in; `by_feature[f][lo..hi]` holds the same ids
/// ascending by feature `f`, the order its thresholds are read in. A split
/// stable-partitions every range in place, so both orders carry over to
/// the children and no node sorts.
struct Grower<'a> {
    presort: &'a Presort,
    targets: &'a [f64],
    cfg: &'a TreeConfig,
    rows: Vec<u32>,
    by_feature: Vec<Vec<u32>>,
    nodes: Vec<Node>,
    // Scratch reused by every node: the node's targets and buckets in row
    // order, each row's bucket and side by row id, the feature's distinct
    // values, and the partition's spill buffer.
    node_targets: Vec<f64>,
    node_buckets: Vec<u32>,
    bucket: Vec<u32>,
    goes_left: Vec<bool>,
    values: Vec<f64>,
    spill: Vec<u32>,
}

/// Grows one tree over `presort`'s rows with `targets`. Arena indices are
/// pre-order, so the root is node 0.
fn grow<C: Criterion>(presort: &Presort, targets: &[f64], cfg: &TreeConfig) -> Tree {
    debug_assert!(
        targets.iter().all(|t| t.is_finite()),
        "tree targets must be finite"
    );
    let n = targets.len();
    let mut g = Grower {
        presort,
        targets,
        cfg,
        rows: (0..n as u32).collect(),
        by_feature: presort.sorted.clone(),
        nodes: Vec::new(),
        node_targets: Vec::with_capacity(n),
        node_buckets: Vec::with_capacity(n),
        bucket: vec![0; n],
        goes_left: vec![false; n],
        values: Vec::with_capacity(n),
        spill: Vec::with_capacity(n),
    };
    g.build::<C>(0, n, 0);
    Tree {
        nodes: g.nodes,
        n_features: presort.columns.len(),
    }
}

impl Grower<'_> {
    fn build<C: Criterion>(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let n = hi - lo;
        self.node_targets.clear();
        let targets = self.targets;
        self.node_targets
            .extend(self.rows[lo..hi].iter().map(|&r| targets[r as usize]));
        let leaf_value = C::leaf_value(&self.node_targets);
        let node_impurity = C::impurity_n(&self.node_targets);

        if depth >= self.cfg.max_depth
            || n < 2 * self.cfg.min_samples_leaf
            || node_impurity <= f64::EPSILON
        {
            return self.leaf(leaf_value, n);
        }

        // Find the best split. One budget charge per (node, feature) keeps
        // the campaign's heaviest loops visible to the cancellation plane
        // (a deadline or interrupt lands between scans, not after the whole
        // fit).
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for f in 0..self.presort.columns.len() {
            fiveg_simcore::budget::charge(n as u64);
            let col = &self.presort.columns[f];
            let sorted = &self.by_feature[f][lo..hi];
            // The node's distinct values, ascending: equal values under
            // `total_cmp` are bit-identical, and `==` merges the -0.0/+0.0
            // pair keeping the -0.0 it sorts first, so this is the list a
            // sort plus `dedup` of the node's column would give.
            self.values.clear();
            for &r in sorted {
                let x = col[r as usize];
                if self.values.last() != Some(&x) {
                    self.values.push(x);
                }
            }
            let thrs = midpoints(&self.values, self.cfg.max_thresholds);
            // Buckets by a merge walk: values ascend along `sorted` and
            // thresholds never descend.
            let mut j = 0;
            for &r in sorted {
                let x = col[r as usize];
                while j < thrs.len() && x >= thrs[j] {
                    j += 1;
                }
                self.bucket[r as usize] = j as u32;
            }
            self.node_buckets.clear();
            let bucket = &self.bucket;
            self.node_buckets
                .extend(self.rows[lo..hi].iter().map(|&r| bucket[r as usize]));
            let imps = C::split_impurities_batch(
                &self.node_buckets,
                &self.node_targets,
                thrs.len(),
                self.cfg.min_samples_leaf,
            );
            for (thr, imp) in thrs.into_iter().zip(imps) {
                let Some((il, ir)) = imp else {
                    continue;
                };
                let gain = node_impurity - il - ir;
                if gain > self.cfg.min_impurity_decrease * n as f64
                    && best.is_none_or(|(_, _, g)| gain > g)
                {
                    best = Some((f, thr, gain));
                }
            }
        }

        let Some((feature, threshold, gain)) = best else {
            return self.leaf(leaf_value, n);
        };

        let col = &self.presort.columns[feature];
        for &r in &self.rows[lo..hi] {
            self.goes_left[r as usize] = col[r as usize] < threshold;
        }
        let mid = lo + stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.spill);
        for order in &mut self.by_feature {
            stable_partition(&mut order[lo..hi], &self.goes_left, &mut self.spill);
        }
        // Reserve our slot before children so the root stays at index 0.
        let me = self.leaf(0.0, 0);
        let left = self.build::<C>(lo, mid, depth + 1);
        let right = self.build::<C>(mid, hi, depth + 1);
        self.nodes[me] = Node::Split {
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

    fn leaf(&mut self, value: f64, n: usize) -> usize {
        self.nodes.push(Node::Leaf { value, n });
        self.nodes.len() - 1
    }
}

/// Moves the ids whose `goes_left` is set to the front of `ids`, keeping
/// the relative order on both sides; returns how many went left.
fn stable_partition(ids: &mut [u32], goes_left: &[bool], spill: &mut Vec<u32>) -> usize {
    spill.clear();
    let mut kept = 0;
    for i in 0..ids.len() {
        let r = ids[i];
        if goes_left[r as usize] {
            ids[kept] = r;
            kept += 1;
        } else {
            spill.push(r);
        }
    }
    ids[kept..].copy_from_slice(spill);
    kept
}

/// Bottom-up reduced-error pruning against a validation set: replace any
/// internal node with its fallback leaf when that does not increase
/// validation error.
fn prune(tree: &mut Tree, val: &Dataset, classify: bool) {
    // Route every validation row to the nodes it passes through.
    fn routes(tree: &Tree, row: &[f64]) -> Vec<usize> {
        let mut path = vec![0usize];
        let mut idx = 0usize;
        loop {
            match &tree.nodes[idx] {
                Node::Leaf { .. } => return path,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                    path.push(idx);
                }
            }
        }
    }
    let err = |pred: f64, actual: f64| {
        if classify {
            if (pred - actual).abs() > 0.5 {
                1.0
            } else {
                0.0
            }
        } else {
            (pred - actual).powi(2)
        }
    };
    // Iterate until fixpoint (post-order-ish via repeated sweeps).
    loop {
        let mut changed = false;
        for idx in (0..tree.nodes.len()).rev() {
            let Node::Split {
                left,
                right,
                fallback,
                n,
                ..
            } = tree.nodes[idx].clone()
            else {
                continue;
            };
            // Only prune nodes whose children are both leaves (bottom-up).
            let both_leaves = matches!(tree.nodes[left], Node::Leaf { .. })
                && matches!(tree.nodes[right], Node::Leaf { .. });
            if !both_leaves {
                continue;
            }
            // Validation rows reaching this node.
            let mut subtree_err = 0.0;
            let mut leaf_err = 0.0;
            let mut hits = 0usize;
            for (row, &target) in val.features.iter().zip(&val.targets) {
                if routes(tree, row).contains(&idx) {
                    subtree_err += err(tree.predict_row_from(idx, row), target);
                    leaf_err += err(fallback, target);
                    hits += 1;
                }
            }
            if hits == 0 || leaf_err <= subtree_err {
                tree.nodes[idx] = Node::Leaf { value: fallback, n };
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

impl Tree {
    fn predict_row_from(&self, start: usize, row: &[f64]) -> f64 {
        let mut idx = start;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A human-readable split description (used to render Fig 22).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitDescription {
    /// Feature name.
    pub feature: String,
    /// Threshold (`feature < threshold` goes left).
    pub threshold: f64,
    /// Node depth (root = 0).
    pub depth: usize,
}

fn describe(tree: &Tree, names: &[String]) -> Vec<SplitDescription> {
    fn walk(
        tree: &Tree,
        idx: usize,
        depth: usize,
        names: &[String],
        out: &mut Vec<SplitDescription>,
    ) {
        if let Node::Split {
            feature,
            threshold,
            left,
            right,
            ..
        } = &tree.nodes[idx]
        {
            out.push(SplitDescription {
                feature: names[*feature].clone(),
                threshold: *threshold,
                depth,
            });
            walk(tree, *left, depth + 1, names, out);
            walk(tree, *right, depth + 1, names, out);
        }
    }
    let mut out = Vec::new();
    walk(tree, 0, 0, names, &mut out);
    out
}

/// Decision-tree regressor (variance-reduction CART).
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    tree: Tree,
    feature_names: Vec<String>,
}

impl DecisionTreeRegressor {
    /// Fits a regression tree to `data`.
    ///
    /// Features and targets must be finite, and small enough that squared
    /// deviations stay finite: the split search is bit-exact only for such
    /// inputs (DESIGN.md §13), and debug builds assert finiteness.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, cfg: &TreeConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit an empty dataset");
        Self::fit_presorted(data, &Presort::new(data), &data.targets, cfg)
    }

    /// Fits a regression tree to `data`'s rows, as presorted in `presort`,
    /// with `targets` in place of `data.targets`.
    pub(crate) fn fit_presorted(
        data: &Dataset,
        presort: &Presort,
        targets: &[f64],
        cfg: &TreeConfig,
    ) -> Self {
        DecisionTreeRegressor {
            tree: grow::<VarianceCriterion>(presort, targets, cfg),
            feature_names: data.feature_names.clone(),
        }
    }

    /// Predicts a single row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.tree.predict_row(row)
    }

    /// Predicts every row of `data`.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        fiveg_simcore::budget::charge(data.len() as u64);
        data.features.iter().map(|r| self.predict(r)).collect()
    }

    /// Normalized feature importances.
    pub fn importances(&self) -> Vec<f64> {
        self.tree.importances()
    }

    /// The splits of the fitted tree, pre-order.
    pub fn splits(&self) -> Vec<SplitDescription> {
        describe(&self.tree, &self.feature_names)
    }

    /// Sample count of the smallest leaf.
    pub fn min_leaf_samples(&self) -> usize {
        self.tree.min_leaf_n()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.tree.depth_from(0)
    }
}

/// Decision-tree classifier (Gini CART) with optional post-pruning.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    tree: Tree,
    feature_names: Vec<String>,
}

impl DecisionTreeClassifier {
    /// Fits a classification tree; targets are class indices (0.0, 1.0, …).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, cfg: &TreeConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit an empty dataset");
        DecisionTreeClassifier {
            tree: grow::<GiniCriterion>(&Presort::new(data), &data.targets, cfg),
            feature_names: data.feature_names.clone(),
        }
    }

    /// Bottom-up reduced-error post-pruning against `validation`.
    pub fn prune(&mut self, validation: &Dataset) {
        prune(&mut self.tree, validation, true);
    }

    /// Predicted class index for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        self.tree.predict_row(row).round() as usize
    }

    /// Predicts every row.
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        fiveg_simcore::budget::charge(data.len() as u64);
        data.features.iter().map(|r| self.predict(r)).collect()
    }

    /// Normalized feature (Gini) importances.
    pub fn importances(&self) -> Vec<f64> {
        self.tree.importances()
    }

    /// The splits of the (possibly pruned) tree, pre-order.
    pub fn splits(&self) -> Vec<SplitDescription> {
        describe(&self.tree, &self.feature_names)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.tree.n_leaves()
    }

    /// Sample count of the smallest leaf.
    pub fn min_leaf_samples(&self) -> usize {
        self.tree.min_leaf_n()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.tree.depth_from(0)
    }
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::RngStream;

    fn linear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = RngStream::new(seed, "data");
        let mut d = Dataset::new(vec!["x".into(), "noise".into()], vec![], vec![]);
        for _ in 0..n {
            let x = rng.gen_range(0.0..10.0);
            let noise_feature = rng.uniform();
            d.push(vec![x, noise_feature], 3.0 * x + rng.normal(0.0, 0.1));
        }
        d
    }

    #[test]
    fn regressor_fits_a_smooth_function() {
        let data = linear_dataset(2000, 1);
        let model = DecisionTreeRegressor::fit(&data, &TreeConfig::default());
        let preds = model.predict_all(&data);
        let r2 = fiveg_simcore::stats::r_squared(&data.targets, &preds);
        assert!(r2 > 0.98, "R² {r2}");
    }

    #[test]
    fn regressor_importance_finds_the_signal() {
        let data = linear_dataset(2000, 2);
        let model = DecisionTreeRegressor::fit(&data, &TreeConfig::default());
        let imp = model.importances();
        assert!(imp[0] > 0.95, "x dominates: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regressor_respects_max_depth() {
        let data = linear_dataset(500, 3);
        let cfg = TreeConfig {
            max_depth: 3,
            ..TreeConfig::default()
        };
        let model = DecisionTreeRegressor::fit(&data, &cfg);
        assert!(model.depth() <= 3);
    }

    #[test]
    fn regressor_respects_min_samples_leaf_and_names_splits() {
        let data = linear_dataset(500, 11);
        let cfg = TreeConfig {
            min_samples_leaf: 20,
            ..TreeConfig::default()
        };
        let model = DecisionTreeRegressor::fit(&data, &cfg);
        assert!(
            model.min_leaf_samples() >= 20,
            "{}",
            model.min_leaf_samples()
        );
        let splits = model.splits();
        assert!(!splits.is_empty());
        assert!(splits
            .iter()
            .all(|s| s.feature == "x" || s.feature == "noise"));
    }

    fn xor_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = RngStream::new(seed, "xor");
        let mut d = Dataset::new(vec!["a".into(), "b".into()], vec![], vec![]);
        for _ in 0..n {
            let a = rng.uniform();
            let b = rng.uniform();
            let class = ((a > 0.5) ^ (b > 0.5)) as u8 as f64;
            d.push(vec![a, b], class);
        }
        d
    }

    #[test]
    fn classifier_learns_xor() {
        let data = xor_dataset(2000, 4);
        let model = DecisionTreeClassifier::fit(&data, &TreeConfig::default());
        let preds = model.predict_all(&data);
        let acc = preds
            .iter()
            .zip(&data.targets)
            .filter(|(&p, &t)| p == t as usize)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn pruning_shrinks_an_overfit_tree() {
        // Pure noise targets: any split is overfitting.
        let mut rng = RngStream::new(5, "noise");
        let mut d = Dataset::new(vec!["x".into()], vec![], vec![]);
        for _ in 0..400 {
            d.push(vec![rng.uniform()], rng.chance(0.5) as u8 as f64);
        }
        let (train, val) = d.split(0.5, &mut rng);
        let cfg = TreeConfig {
            max_depth: 10,
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let mut model = DecisionTreeClassifier::fit(&train, &cfg);
        let before = model.n_leaves();
        model.prune(&val);
        let after = model.n_leaves();
        assert!(after < before, "pruning must shrink: {before} -> {after}");
    }

    #[test]
    fn pruning_preserves_a_real_signal() {
        let data = xor_dataset(2000, 6);
        let mut rng = RngStream::new(6, "s");
        let (train, val) = data.split(0.7, &mut rng);
        let mut model = DecisionTreeClassifier::fit(&train, &TreeConfig::default());
        model.prune(&val);
        let preds = model.predict_all(&val);
        let acc = preds
            .iter()
            .zip(&val.targets)
            .filter(|(&p, &t)| p == t as usize)
            .count() as f64
            / val.len() as f64;
        assert!(acc > 0.9, "pruned accuracy {acc}");
    }

    #[test]
    fn splits_describe_structure() {
        let data = xor_dataset(1000, 7);
        let model = DecisionTreeClassifier::fit(&data, &TreeConfig::default());
        let splits = model.splits();
        assert!(!splits.is_empty());
        assert_eq!(splits[0].depth, 0);
        assert!(splits.iter().all(|s| s.feature == "a" || s.feature == "b"));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_fit() {
        let d = Dataset::new(vec!["x".into()], vec![], vec![]);
        DecisionTreeRegressor::fit(&d, &TreeConfig::default());
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()], vec![], vec![]);
        for i in 0..100 {
            d.push(vec![i as f64], 7.0);
        }
        let model = DecisionTreeRegressor::fit(&d, &TreeConfig::default());
        assert_eq!(model.depth(), 0);
        assert_eq!(model.predict(&[55.0]), 7.0);
    }
}
