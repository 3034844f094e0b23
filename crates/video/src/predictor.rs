//! Throughput predictors pluggable into MPC (§5.3, Fig 18a).

use fiveg_mlkit::dataset::Dataset;
use fiveg_mlkit::gbdt::{GbdtConfig, GbdtRegressor};
use fiveg_transport::shaper::BandwidthTrace;

/// Predicts near-future throughput from recent observations.
pub trait ThroughputPredictor {
    /// Predicted throughput in Mbps for the next chunk download starting
    /// at wall time `wall_t_s`, given past per-chunk measurements (most
    /// recent last).
    fn predict_mbps(&self, past: &[f64], wall_t_s: f64) -> f64;

    /// Display name ("hmMPC", "MPC_GDBT", "truthMPC").
    fn name(&self) -> &'static str;
}

/// FastMPC's default: harmonic mean of the last `window` chunk
/// throughputs.
#[derive(Debug, Clone, Copy)]
pub struct HarmonicMeanPredictor {
    /// Number of past samples to average.
    pub window: usize,
}

impl Default for HarmonicMeanPredictor {
    fn default() -> Self {
        HarmonicMeanPredictor { window: 5 }
    }
}

impl ThroughputPredictor for HarmonicMeanPredictor {
    fn predict_mbps(&self, past: &[f64], _wall_t_s: f64) -> f64 {
        if past.is_empty() {
            return 1.0;
        }
        let start = past.len().saturating_sub(self.window);
        // Stall samples (zero throughput) are dropped, not floored: a
        // floored near-zero sample dominates the harmonic mean and
        // collapses the prediction for the whole window.
        let window: Vec<f64> = past[start..]
            .iter()
            .map(|&x| if x.is_finite() { x } else { 1e4 })
            .collect();
        let hm = fiveg_simcore::stats::harmonic_mean_positive(&window);
        if hm.is_finite() {
            hm.max(0.01)
        } else {
            0.01
        }
    }

    fn name(&self) -> &'static str {
        "hmMPC"
    }
}

/// The ground-truth oracle: reads the future of the actual trace
/// ("truthMPC", the upper bound on what prediction can buy).
#[derive(Debug, Clone)]
pub struct OraclePredictor {
    trace: BandwidthTrace,
    /// Averaging horizon in seconds.
    pub horizon_s: f64,
}

impl OraclePredictor {
    /// Creates an oracle over `trace`.
    pub fn new(trace: BandwidthTrace, horizon_s: f64) -> Self {
        assert!(horizon_s > 0.0, "horizon must be positive");
        OraclePredictor { trace, horizon_s }
    }
}

impl ThroughputPredictor for OraclePredictor {
    fn predict_mbps(&self, _past: &[f64], wall_t_s: f64) -> f64 {
        let step = self.trace.granularity_s();
        let n = (self.horizon_s / step).ceil() as usize;
        let mut sum = 0.0;
        for i in 0..n {
            sum += self.trace.bandwidth_at(wall_t_s + i as f64 * step);
        }
        (sum / n as f64).max(0.01)
    }

    fn name(&self) -> &'static str {
        "truthMPC"
    }
}

/// The full Lumos5G-style predictor: gradient-boosted trees over the
/// recent throughput window **plus UE-side radio context** (the serving
/// NR-SS-RSRP), which is what lets the learned model beat the harmonic
/// mean — signal strength leads throughput by seconds.
#[derive(Debug, Clone)]
pub struct ContextGbdtPredictor {
    model: GbdtRegressor,
    window: usize,
    /// Pessimism margin in log space: the prediction is shifted down to a
    /// lower quantile before MPC consumes it, because rebuffering is far
    /// costlier than under-selecting one track. 0.7 ≈ predict ~50% below
    /// the conditional geometric mean.
    pub pessimism_log: f64,
}

/// A [`ContextGbdtPredictor`] bound to one session's per-second RSRP log
/// (UE-observable at run time — this is *not* future information).
#[derive(Debug, Clone)]
pub struct BoundContextPredictor {
    inner: ContextGbdtPredictor,
    rsrp_per_s: Vec<f64>,
}

impl ContextGbdtPredictor {
    /// Trains on `(trace, per-second RSRP)` pairs, *chunk-aligned*: each
    /// training trace is walked by downloading mid-ladder chunks back to
    /// back, producing the same per-chunk throughput observations MPC will
    /// feed the predictor at run time. Features are the last `window`
    /// chunk throughputs plus the RSRP at the request; the target is the
    /// next chunk's throughput.
    ///
    /// # Panics
    /// Panics on an empty corpus or zero window.
    pub fn train(
        corpus: &[(BandwidthTrace, Vec<f64>)],
        asset: &crate::asset::VideoAsset,
        window: usize,
    ) -> Self {
        assert!(!corpus.is_empty(), "need training traces");
        assert!(window > 0, "window must be positive");
        let mut names: Vec<String> = (0..window)
            .map(|i| format!("tput_m{}", window - i))
            .collect();
        names.push("rsrp_now".into());
        let mut data = Dataset::new(names, vec![], vec![]);
        let mid_bytes = asset.chunk_bytes(asset.n_tracks() / 2);
        for (trace, rsrp) in corpus {
            let mut wall = 0.0;
            let mut tputs: Vec<f64> = Vec::new();
            while wall < trace.duration_s() {
                // The trace replay loops past its end; so does the log.
                let rsrp_now = if rsrp.is_empty() {
                    -130.0
                } else {
                    rsrp[(wall as usize) % rsrp.len()]
                };
                let dl = trace.transfer_time_s(mid_bytes, wall);
                if !dl.is_finite() {
                    break;
                }
                let tput = (mid_bytes * 8.0 / 1e6 / dl.max(1e-6)).min(1e4);
                if tputs.len() >= window {
                    // Log-space target: squared loss becomes *relative*
                    // error, so the model stays honest in low regimes —
                    // exactly where optimistic predictions cause stalls.
                    let mut row = tputs[tputs.len() - window..].to_vec();
                    row.push(rsrp_now);
                    data.push(row, (1.0 + tput).ln());
                }
                tputs.push(tput);
                // A steady-state player is paced by playback: one chunk per
                // chunk duration unless the link is the bottleneck.
                wall += dl.max(asset.chunk_len_s);
            }
        }
        assert!(!data.is_empty(), "traces too short for the window");
        let model = GbdtRegressor::fit(
            &data,
            &GbdtConfig {
                n_estimators: 120,
                tree_depth: 5,
                ..GbdtConfig::default()
            },
        );
        ContextGbdtPredictor {
            model,
            window,
            pessimism_log: 0.7,
        }
    }

    /// Binds the predictor to one session's RSRP log.
    pub fn bind(&self, rsrp_per_s: Vec<f64>) -> BoundContextPredictor {
        BoundContextPredictor {
            inner: self.clone(),
            rsrp_per_s,
        }
    }
}

impl ThroughputPredictor for BoundContextPredictor {
    fn predict_mbps(&self, past: &[f64], wall_t_s: f64) -> f64 {
        let rsrp_now = if self.rsrp_per_s.is_empty() {
            -130.0
        } else {
            self.rsrp_per_s[(wall_t_s.max(0.0) as usize) % self.rsrp_per_s.len()]
        };
        if past.len() < self.inner.window {
            // Stall-tolerant warm-up window: zero samples are dropped so
            // one stall can't zero the prediction (NaN = nothing usable).
            let hm = fiveg_simcore::stats::harmonic_mean_positive(past);
            return if hm.is_finite() {
                hm.clamp(0.01, 1e4)
            } else {
                0.01
            };
        }
        let mut row: Vec<f64> = past[past.len() - self.inner.window..]
            .iter()
            .map(|&x| if x.is_finite() { x.min(1e4) } else { 1e4 })
            .collect();
        row.push(rsrp_now);
        ((self.inner.model.predict(&row) - self.inner.pessimism_log).exp() - 1.0).max(0.01)
    }

    fn name(&self) -> &'static str {
        "MPC_GDBT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_is_pessimistic_about_dips() {
        let p = HarmonicMeanPredictor::default();
        let past = vec![100.0, 100.0, 100.0, 100.0, 1.0];
        let pred = p.predict_mbps(&past, 0.0);
        // Harmonic mean is pulled hard toward the dip.
        assert!(pred < 10.0, "{pred}");
    }

    #[test]
    fn harmonic_mean_handles_empty_and_infinite() {
        let p = HarmonicMeanPredictor::default();
        assert!(p.predict_mbps(&[], 0.0) > 0.0);
        assert!(p.predict_mbps(&[f64::INFINITY, 10.0], 0.0).is_finite());
    }

    #[test]
    fn one_stall_sample_does_not_zero_the_prediction() {
        // Regression: a zero-throughput sample (a stall under chaos) in
        // the window used to drag the prediction to the floor (~0.01)
        // even with four healthy 100 Mbps samples alongside it.
        let p = HarmonicMeanPredictor::default();
        let pred = p.predict_mbps(&[100.0, 100.0, 0.0, 100.0, 100.0], 0.0);
        assert!(pred > 50.0, "prediction collapsed to {pred}");
        // With no positive sample at all there is nothing to average:
        // fall to the conservative floor instead of NaN.
        assert_eq!(p.predict_mbps(&[0.0, 0.0], 0.0), 0.01);
    }

    #[test]
    fn gbdt_warmup_window_tolerates_stall_samples() {
        // Same regression on the short-history fallback path of the
        // learned predictor (past shorter than the trained window).
        let mut corpus = Vec::new();
        for _ in 0..2 {
            corpus.push(BandwidthTrace::new(vec![100.0; 60], 1.0));
        }
        let ctx = ContextGbdtPredictor::train(
            &corpus
                .iter()
                .map(|t| (t.clone(), vec![-90.0; 60]))
                .collect::<Vec<_>>(),
            &crate::asset::VideoAsset::five_g_default(),
            5,
        );
        let bound = ctx.bind(vec![-90.0; 60]);
        let pred = bound.predict_mbps(&[100.0, 0.0], 0.0);
        assert!(pred > 50.0, "bound warm-up prediction collapsed to {pred}");
    }

    #[test]
    fn oracle_reads_the_future() {
        let trace = BandwidthTrace::new(vec![10.0, 10.0, 100.0, 100.0, 100.0, 100.0], 1.0);
        let p = OraclePredictor::new(trace, 4.0);
        // Standing at t=2, the next 4 s are all 100.
        assert!((p.predict_mbps(&[10.0], 2.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "need training traces")]
    fn context_gbdt_rejects_empty_corpus() {
        ContextGbdtPredictor::train(&[], &crate::asset::VideoAsset::five_g_default(), 5);
    }
}
