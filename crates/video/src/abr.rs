//! The seven ABR algorithms of §5.1.
//!
//! | category          | algorithms            |
//! |-------------------|-----------------------|
//! | buffer-based      | BBA, BOLA             |
//! | throughput-based  | RB, FESTIVE           |
//! | control-theoretic | FastMPC, RobustMPC    |
//! | learning-based    | Pensieve ([`crate::pensieve`]) |

use crate::asset::VideoAsset;
use crate::predictor::{HarmonicMeanPredictor, ThroughputPredictor};

/// Everything an ABR sees when choosing the next chunk's track.
#[derive(Debug, Clone, Copy)]
pub struct AbrContext<'a> {
    /// The asset being streamed.
    pub asset: &'a VideoAsset,
    /// Current buffer level, seconds.
    pub buffer_s: f64,
    /// Track of the previous chunk.
    pub last_track: usize,
    /// Measured per-chunk throughputs, most recent last (Mbps).
    pub past_tput_mbps: &'a [f64],
    /// Chunks left to download (including this one).
    pub chunks_remaining: usize,
    /// Wall-clock time, seconds (oracle predictors key on this).
    pub wall_t_s: f64,
}

/// An adaptive-bitrate algorithm.
pub trait Abr {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
    /// Chooses the track index for the next chunk.
    fn choose(&mut self, ctx: &AbrContext) -> usize;
}

/// The algorithm identifiers of Fig 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbrAlgo {
    /// Buffer-based BBA.
    Bba,
    /// Simple rate-based.
    Rb,
    /// BOLA.
    Bola,
    /// FastMPC (harmonic-mean predictor).
    FastMpc,
    /// Pensieve (learned policy).
    Pensieve,
    /// RobustMPC.
    RobustMpc,
    /// FESTIVE.
    Festive,
}

impl AbrAlgo {
    /// All seven, in Fig 17c order.
    pub fn all() -> [AbrAlgo; 7] {
        [
            AbrAlgo::Bba,
            AbrAlgo::Rb,
            AbrAlgo::Bola,
            AbrAlgo::FastMpc,
            AbrAlgo::Pensieve,
            AbrAlgo::RobustMpc,
            AbrAlgo::Festive,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AbrAlgo::Bba => "BBA",
            AbrAlgo::Rb => "RB",
            AbrAlgo::Bola => "BOLA",
            AbrAlgo::FastMpc => "fastMPC",
            AbrAlgo::Pensieve => "Pensieve",
            AbrAlgo::RobustMpc => "robustMPC",
            AbrAlgo::Festive => "FESTIVE",
        }
    }
}

/// Highest track whose bitrate is at most `budget_mbps`.
fn highest_affordable(asset: &VideoAsset, budget_mbps: f64) -> usize {
    let mut pick = 0;
    for (i, &b) in asset.bitrates_mbps.iter().enumerate() {
        if b <= budget_mbps {
            pick = i;
        }
    }
    pick
}

// ---------------------------------------------------------------- BBA ----

/// Buffer-Based Adaptation (Huang et al., SIGCOMM'14): a linear map from
/// buffer occupancy to bitrate between a reservoir and a cushion.
#[derive(Debug, Clone, Copy)]
pub struct Bba {
    /// Below this buffer level, pick the lowest track.
    pub reservoir_s: f64,
    /// Width of the linear region above the reservoir.
    pub cushion_s: f64,
}

impl Default for Bba {
    fn default() -> Self {
        Bba {
            reservoir_s: 5.0,
            cushion_s: 12.0,
        }
    }
}

impl Abr for Bba {
    fn name(&self) -> &'static str {
        "BBA"
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let min = ctx.asset.bitrates_mbps[0];
        let max = ctx.asset.top_bitrate();
        if ctx.buffer_s <= self.reservoir_s {
            return 0;
        }
        if ctx.buffer_s >= self.reservoir_s + self.cushion_s {
            return ctx.asset.n_tracks() - 1;
        }
        let f = (ctx.buffer_s - self.reservoir_s) / self.cushion_s;
        highest_affordable(ctx.asset, min + f * (max - min))
    }
}

// --------------------------------------------------------------- BOLA ----

/// BOLA (Spiteri et al., INFOCOM'16): Lyapunov-drift-plus-penalty control
/// on the buffer, maximizing a log utility per byte.
#[derive(Debug, Clone, Copy)]
pub struct Bola {
    /// Utility weight γp.
    pub gamma_p: f64,
    /// Target (maximum) buffer in chunks for the V parameter.
    pub buffer_target_chunks: f64,
}

impl Default for Bola {
    fn default() -> Self {
        Bola {
            gamma_p: 5.0,
            buffer_target_chunks: 7.0,
        }
    }
}

impl Abr for Bola {
    fn name(&self) -> &'static str {
        "BOLA"
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let sizes = &ctx.asset.bitrates_mbps;
        let s_min = sizes[0];
        let utilities: Vec<f64> = sizes.iter().map(|s| (s / s_min).ln()).collect();
        let u_max = *utilities.last().expect("non-empty");
        let v = (self.buffer_target_chunks - 1.0) / (u_max + self.gamma_p);
        let q_chunks = ctx.buffer_s / ctx.asset.chunk_len_s;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (m, &s) in sizes.iter().enumerate() {
            let score = (v * (utilities[m] + self.gamma_p) - q_chunks) / s;
            if score > best_score {
                best_score = score;
                best = m;
            }
        }
        best
    }
}

// ----------------------------------------------------------------- RB ----

/// Simple rate-based: highest track under a safety factor times the last
/// measured throughput.
#[derive(Debug, Clone, Copy)]
pub struct RateBased {
    /// Fraction of the estimate considered safe to spend.
    pub safety: f64,
}

impl Default for RateBased {
    fn default() -> Self {
        RateBased { safety: 0.9 }
    }
}

impl Abr for RateBased {
    fn name(&self) -> &'static str {
        "RB"
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let est = ctx
            .past_tput_mbps
            .last()
            .copied()
            .filter(|x| x.is_finite())
            .unwrap_or(ctx.asset.bitrates_mbps[0]);
        highest_affordable(ctx.asset, est * self.safety)
    }
}

// ------------------------------------------------------------- FESTIVE ----

/// FESTIVE (Jiang et al., CoNEXT'12): harmonic-mean estimation with
/// gradual, stability-biased switching (one level at a time; upswitch only
/// after several consistent chunks).
#[derive(Debug, Clone)]
pub struct Festive {
    predictor: HarmonicMeanPredictor,
    up_streak: usize,
    /// Chunks of consistent headroom required before stepping up.
    pub up_patience: usize,
}

impl Default for Festive {
    fn default() -> Self {
        Festive {
            predictor: HarmonicMeanPredictor::default(),
            up_streak: 0,
            up_patience: 2,
        }
    }
}

impl Abr for Festive {
    fn name(&self) -> &'static str {
        "FESTIVE"
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let est = self
            .predictor
            .predict_mbps(ctx.past_tput_mbps, ctx.wall_t_s);
        let target = highest_affordable(ctx.asset, est / 1.2);
        let cur = ctx.last_track;
        if ctx.past_tput_mbps.is_empty() {
            return 0;
        }
        if target > cur {
            self.up_streak += 1;
            if self.up_streak >= self.up_patience {
                self.up_streak = 0;
                return cur + 1;
            }
            cur
        } else if target < cur {
            self.up_streak = 0;
            cur - 1
        } else {
            self.up_streak = 0;
            cur
        }
    }
}

// ---------------------------------------------------------------- MPC ----

/// Model Predictive Control (Yin et al., SIGCOMM'15): pick the first step
/// of the track sequence maximizing predicted QoE over a lookahead window.
/// `robust` discounts the prediction by the recent maximum error
/// (RobustMPC); otherwise the raw prediction is trusted (FastMPC).
///
/// The search is exhaustive over all `n_tracks^depth` sequences, walked
/// depth first so each prefix's player state is computed once and shared
/// by its children.
pub struct Mpc {
    /// Throughput predictor.
    pub predictor: Box<dyn ThroughputPredictor>,
    /// Lookahead depth in chunks.
    pub lookahead: usize,
    /// RobustMPC's error discounting.
    pub robust: bool,
    /// Rebuffer penalty (µ) in normalized-bitrate units.
    pub rebuf_penalty: f64,
    /// Smoothness penalty.
    pub smooth_penalty: f64,
    /// (prediction, actual) pairs for the robust error bound.
    history: Vec<(f64, f64)>,
    pending_prediction: Option<f64>,
    name: &'static str,
    /// Reused per-decision buffers — per-track download times and
    /// qualities, then the search's per-level prefix states, the current
    /// sequence and the best one so far. One chunk decision per call, so
    /// keeping them on the struct drops all steady-state allocation from
    /// the per-chunk hot path.
    scratch_dl: Vec<f64>,
    scratch_quality: Vec<f64>,
    scratch_prefix: Vec<Prefix>,
    scratch_seq: Vec<usize>,
    scratch_best: Vec<usize>,
}

/// The simulated player after a prefix of an MPC track sequence.
#[derive(Debug, Clone, Copy, Default)]
struct Prefix {
    /// Buffer level, seconds.
    buffer: f64,
    /// QoE accumulated over the prefix.
    qoe: f64,
    /// Quality of the prefix's last chunk.
    prev_q: f64,
}

impl Mpc {
    /// FastMPC with its default harmonic-mean predictor.
    pub fn fast() -> Self {
        Mpc::with_predictor(Box::new(HarmonicMeanPredictor::default()), false, "fastMPC")
    }

    /// RobustMPC with its default harmonic-mean predictor.
    pub fn robust() -> Self {
        Mpc::with_predictor(
            Box::new(HarmonicMeanPredictor::default()),
            true,
            "robustMPC",
        )
    }

    /// An MPC with an arbitrary predictor (Fig 18a plugs in GBDT and the
    /// oracle here).
    pub fn with_predictor(
        predictor: Box<dyn ThroughputPredictor>,
        robust: bool,
        name: &'static str,
    ) -> Self {
        Mpc {
            predictor,
            lookahead: 5,
            robust,
            rebuf_penalty: 1.0,
            smooth_penalty: 1.0,
            history: Vec::new(),
            pending_prediction: None,
            name,
            scratch_dl: Vec::new(),
            scratch_quality: Vec::new(),
            scratch_prefix: Vec::new(),
            scratch_seq: Vec::new(),
            scratch_best: Vec::new(),
        }
    }

    /// The robust discount: 1/(1 + max recent relative error).
    fn robust_discount(&self) -> f64 {
        if !self.robust {
            return 1.0;
        }
        let max_err = self
            .history
            .iter()
            .rev()
            .take(5)
            .map(|&(pred, actual)| ((pred - actual) / actual.max(0.01)).max(0.0))
            .fold(0.0, f64::max);
        1.0 / (1.0 + max_err)
    }

    /// The first track of the best `depth`-chunk track sequence, given
    /// this decision's per-track download times `dl_s` and normalized
    /// qualities `quality` (they depend only on the prediction, so
    /// [`Mpc::choose`] computes them once).
    ///
    /// Walks all `n_tracks^depth` sequences depth first: the state after
    /// each prefix is computed once and shared by its children (9,330
    /// steps instead of 38,880 for six tracks at depth 5), and a full
    /// sequence's score is the same left-to-right float chain as playing
    /// it from the context state.
    ///
    /// Ties keep the sequence of lowest odometer rank `Σ seq[i]·n^i`, the
    /// one an odometer search (`seq[0]` fastest, first strict maximum)
    /// keeps. Ties are exact and common: with a smoothness penalty of 1,
    /// an up-switch scores `q − (q − prev) = prev`. A `−inf` or NaN score
    /// never wins; if none is finite the pick is track 0.
    fn search(&mut self, ctx: &AbrContext, dl_s: &[f64], quality: &[f64], depth: usize) -> usize {
        let n_tracks = dl_s.len();
        let first = ctx.past_tput_mbps.is_empty();
        let mut prefix = std::mem::take(&mut self.scratch_prefix);
        let mut seq = std::mem::take(&mut self.scratch_seq);
        let mut best = std::mem::take(&mut self.scratch_best);
        prefix.clear();
        prefix.resize(depth, Prefix::default());
        prefix[0] = Prefix {
            buffer: ctx.buffer_s,
            qoe: 0.0,
            prev_q: quality[ctx.last_track],
        };
        seq.clear();
        seq.resize(depth, 0);
        // The all-zero sequence has the lowest rank, so a `−inf` score
        // never displaces this initial pick.
        best.clear();
        best.resize(depth, 0);
        let mut best_score = f64::NEG_INFINITY;
        let mut level = 0;
        'walk: loop {
            // Extend the prefix of length `level` by track `seq[level]`.
            let p = prefix[level];
            let track = seq[level];
            let dl = dl_s[track];
            let stall = (dl - p.buffer).max(0.0);
            let buffer = ((p.buffer - dl).max(0.0) + ctx.asset.chunk_len_s).min(30.0);
            let q = quality[track];
            let mut qoe = p.qoe + (q - self.smooth_penalty * (q - p.prev_q).abs());
            if !first {
                qoe -= self.rebuf_penalty * stall;
            }
            if level + 1 < depth {
                level += 1;
                prefix[level] = Prefix {
                    buffer,
                    qoe,
                    prev_q: q,
                };
                seq[level] = 0;
                continue;
            }
            // A full sequence.
            if qoe > best_score || (qoe == best_score && seq.iter().rev().lt(best.iter().rev())) {
                best_score = qoe;
                best.copy_from_slice(&seq);
            }
            // Next sibling, climbing out of finished levels.
            loop {
                seq[level] += 1;
                if seq[level] < n_tracks {
                    break;
                }
                if level == 0 {
                    break 'walk;
                }
                level -= 1;
            }
        }
        let best_first = best[0];
        self.scratch_prefix = prefix;
        self.scratch_seq = seq;
        self.scratch_best = best;
        best_first
    }
}

impl Abr for Mpc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        // Book-keeping for the robust error bound.
        if let (Some(pred), Some(&actual)) =
            (self.pending_prediction.take(), ctx.past_tput_mbps.last())
        {
            if actual.is_finite() {
                self.history.push((pred, actual));
            }
        }
        let raw = self
            .predictor
            .predict_mbps(ctx.past_tput_mbps, ctx.wall_t_s);
        let pred = raw * self.robust_discount();
        self.pending_prediction = Some(raw);

        let n_tracks = ctx.asset.n_tracks();
        let depth = self.lookahead.min(ctx.chunks_remaining).max(1);
        // Per-track constants of this decision: download time at the
        // predicted rate and normalized quality (taken out of `self` so
        // `search` can borrow them alongside `&mut self`).
        let mut dl_s = std::mem::take(&mut self.scratch_dl);
        dl_s.clear();
        dl_s.extend((0..n_tracks).map(|t| ctx.asset.chunk_bytes(t) * 8.0 / 1e6 / pred.max(0.01)));
        let mut quality = std::mem::take(&mut self.scratch_quality);
        quality.clear();
        quality.extend((0..n_tracks).map(|t| ctx.asset.norm_bitrate(t)));
        let best_first = self.search(ctx, &dl_s, &quality, depth);
        self.scratch_dl = dl_s;
        self.scratch_quality = quality;
        best_first
    }
}

// -------------------------------------------------------------- helpers ----

/// A trivial ABR pinned to one track (tests/baselines).
pub fn fixed_track_abr(track: usize) -> impl Abr {
    struct Fixed(usize);
    impl Abr for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn choose(&mut self, _ctx: &AbrContext) -> usize {
            self.0
        }
    }
    Fixed(track)
}

/// Builds a boxed instance of one of the seven algorithms.
///
/// `Pensieve` requires a trained policy; use
/// [`crate::pensieve::PensieveAbr`] directly for it.
///
/// # Panics
/// Panics when asked for `Pensieve` (it cannot be built without training).
pub fn build(algo: AbrAlgo) -> Box<dyn Abr> {
    match algo {
        AbrAlgo::Bba => Box::new(Bba::default()),
        AbrAlgo::Rb => Box::new(RateBased::default()),
        AbrAlgo::Bola => Box::new(Bola::default()),
        AbrAlgo::FastMpc => Box::new(Mpc::fast()),
        AbrAlgo::RobustMpc => Box::new(Mpc::robust()),
        AbrAlgo::Festive => Box::new(Festive::default()),
        AbrAlgo::Pensieve => {
            panic!("Pensieve requires a trained policy; see pensieve::PensieveAbr")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::VideoAsset;
    use crate::player::{stream, PlayerConfig};
    use crate::predictor::OraclePredictor;
    use fiveg_traces::lumos::TraceGenerator;

    fn ctx<'a>(
        asset: &'a VideoAsset,
        buffer_s: f64,
        last: usize,
        past: &'a [f64],
    ) -> AbrContext<'a> {
        AbrContext {
            asset,
            buffer_s,
            last_track: last,
            past_tput_mbps: past,
            chunks_remaining: 30,
            wall_t_s: 0.0,
        }
    }

    #[test]
    fn bba_maps_buffer_to_bitrate() {
        let asset = VideoAsset::five_g_default();
        let mut bba = Bba::default();
        assert_eq!(bba.choose(&ctx(&asset, 2.0, 0, &[])), 0, "reservoir");
        assert_eq!(
            bba.choose(&ctx(&asset, 25.0, 0, &[])),
            asset.n_tracks() - 1,
            "cushion top"
        );
        let mid = bba.choose(&ctx(&asset, 11.0, 0, &[]));
        assert!(
            mid > 0 && mid < asset.n_tracks() - 1,
            "linear region: {mid}"
        );
    }

    #[test]
    fn bola_grows_with_buffer() {
        let asset = VideoAsset::five_g_default();
        let mut bola = Bola::default();
        let low = bola.choose(&ctx(&asset, 2.0, 0, &[]));
        let high = bola.choose(&ctx(&asset, 24.0, 0, &[]));
        assert!(high > low, "{low} -> {high}");
    }

    #[test]
    fn rb_follows_the_last_sample() {
        let asset = VideoAsset::five_g_default();
        let mut rb = RateBased::default();
        assert_eq!(rb.choose(&ctx(&asset, 10.0, 0, &[500.0])), 5);
        assert_eq!(rb.choose(&ctx(&asset, 10.0, 5, &[10.0])), 0);
    }

    #[test]
    fn festive_moves_one_level_at_a_time() {
        let asset = VideoAsset::five_g_default();
        let mut f = Festive::default();
        let past = vec![1000.0; 5];
        // Huge headroom, but the first call only banks a streak…
        let first = f.choose(&ctx(&asset, 10.0, 2, &past));
        assert_eq!(first, 2);
        // …and the second steps up exactly one level.
        let second = f.choose(&ctx(&asset, 10.0, 2, &past));
        assert_eq!(second, 3);
    }

    #[test]
    fn festive_downswitches_immediately() {
        let asset = VideoAsset::five_g_default();
        let mut f = Festive::default();
        let past = vec![5.0; 5];
        assert_eq!(f.choose(&ctx(&asset, 10.0, 3, &past)), 2);
    }

    #[test]
    fn mpc_prefers_affordable_quality() {
        let asset = VideoAsset::five_g_default();
        let mut mpc = Mpc::fast();
        // Plenty of bandwidth (500 Mbps) and buffer: go top.
        let past = vec![500.0; 5];
        assert_eq!(mpc.choose(&ctx(&asset, 20.0, 5, &past)), 5);
        // Starved (10 Mbps < lowest track) and low buffer: go bottom.
        let mut mpc = Mpc::fast();
        let past = vec![10.0; 5];
        assert_eq!(mpc.choose(&ctx(&asset, 4.0, 5, &past)), 0);
    }

    #[test]
    fn robust_mpc_is_more_conservative_after_errors() {
        let asset = VideoAsset::five_g_default();
        let mut fast = Mpc::fast();
        let mut robust = Mpc::robust();
        // Feed both a history where predictions exceeded reality:
        // chunk 1 measured 400, chunk 2 measured 40 (prediction was ~400).
        let seq: Vec<Vec<f64>> = vec![vec![400.0], vec![400.0, 40.0], vec![400.0, 40.0, 120.0]];
        let mut last_fast = 0;
        let mut last_robust = 0;
        for past in &seq {
            last_fast = fast.choose(&ctx(&asset, 8.0, last_fast, past));
            last_robust = robust.choose(&ctx(&asset, 8.0, last_robust, past));
        }
        assert!(
            last_robust <= last_fast,
            "robust {last_robust} vs fast {last_fast}"
        );
    }

    /// The odometer search that [`Mpc::search`] replaced, kept as its
    /// reference: every sequence is scored from the context state, `seq[0]`
    /// advances fastest, and the first strict maximum wins.
    fn odometer(mpc: &Mpc, ctx: &AbrContext, dl_s: &[f64], quality: &[f64], depth: usize) -> usize {
        let first = ctx.past_tput_mbps.is_empty();
        let mut best_first = 0;
        let mut best_score = f64::NEG_INFINITY;
        let mut seq = vec![0; depth];
        loop {
            let mut buffer = ctx.buffer_s;
            let mut qoe = 0.0;
            let mut prev_q = quality[ctx.last_track];
            for &track in &seq {
                let dl = dl_s[track];
                let stall = (dl - buffer).max(0.0);
                buffer = (buffer - dl).max(0.0) + ctx.asset.chunk_len_s;
                buffer = buffer.min(30.0);
                let q = quality[track];
                qoe += q - mpc.smooth_penalty * (q - prev_q).abs();
                if !first {
                    qoe -= mpc.rebuf_penalty * stall;
                }
                prev_q = q;
            }
            if qoe > best_score {
                best_score = qoe;
                best_first = seq[0];
            }
            let mut i = 0;
            loop {
                if i == depth {
                    return best_first;
                }
                seq[i] += 1;
                if seq[i] < dl_s.len() {
                    break;
                }
                seq[i] = 0;
                i += 1;
            }
        }
    }

    /// An MPC that checks each of its decisions against [`odometer`] on
    /// the per-track inputs the decision left in its scratch buffers.
    struct Checked {
        mpc: Mpc,
        decisions: usize,
        short: usize,
    }

    impl Abr for Checked {
        fn name(&self) -> &'static str {
            self.mpc.name()
        }

        fn choose(&mut self, ctx: &AbrContext) -> usize {
            let got = self.mpc.choose(ctx);
            let depth = self.mpc.lookahead.min(ctx.chunks_remaining).max(1);
            let m = &self.mpc;
            let want = odometer(m, ctx, &m.scratch_dl, &m.scratch_quality, depth);
            assert_eq!(
                got, want,
                "{} at buffer {} s, last track {}, {} chunks left",
                m.name, ctx.buffer_s, ctx.last_track, ctx.chunks_remaining
            );
            self.decisions += 1;
            if depth < m.lookahead {
                self.short += 1;
            }
            got
        }
    }

    #[test]
    fn search_matches_the_odometer_on_every_decision() {
        let gen = TraceGenerator::new(2021);
        let traces = [
            gen.lumos5g_trace(0),
            gen.lumos5g_trace(5),
            gen.lte_trace(0),
            gen.lte_trace(5),
        ];
        let cfg = PlayerConfig::default();
        let (mut decisions, mut short) = (0, 0);
        for trace in &traces {
            // The 5G and 4G ladders, each at 1 s, 2 s and 4 s chunks.
            for top_mbps in [160.0, 20.0] {
                for chunk_len_s in [1.0, 2.0, 4.0] {
                    let asset = VideoAsset::ladder(top_mbps, 6, chunk_len_s, 240.0);
                    let oracle = OraclePredictor::new(trace.clone(), 8.0);
                    for mpc in [
                        Mpc::fast(),
                        Mpc::robust(),
                        Mpc::with_predictor(Box::new(oracle), false, "truthMPC"),
                    ] {
                        let mut abr = Checked {
                            mpc,
                            decisions: 0,
                            short: 0,
                        };
                        stream(&asset, trace, &mut abr, &cfg, 0.0);
                        decisions += abr.decisions;
                        short += abr.short;
                    }
                }
            }
        }
        // 4 traces x 2 ladders x (240 + 120 + 60 chunks) x 3 MPCs, each
        // session ending with four decisions of depth 4, 3, 2 and 1.
        assert_eq!(decisions, 4 * 2 * 420 * 3);
        assert_eq!(short, 4 * 2 * 3 * 4 * 3);
    }

    #[test]
    fn exact_ties_keep_the_lowest_odometer_rank() {
        // Tracks of 1, 2 and 4 Mbps in 1 s chunks, predicted at 1 Mbps:
        // downloads take exactly 1, 2 and 4 s, qualities are exactly 0.25,
        // 0.5 and 1. From the top track with 4 s buffered and two chunks
        // left, two stall-free sequences tie at 0.5: (1, 1) scores 0 + 0.5,
        // and (2, 0) scores 1 - 0.5. A depth-first walk meets (1, 1) first;
        // the odometer meets (2, 0), rank 2 against rank 1 + 1·3 = 4.
        let asset = VideoAsset {
            bitrates_mbps: vec![1.0, 2.0, 4.0],
            chunk_len_s: 1.0,
            duration_s: 2.0,
        };
        let past = [1.0];
        let ctx = AbrContext {
            asset: &asset,
            buffer_s: 4.0,
            last_track: 2,
            past_tput_mbps: &past,
            chunks_remaining: 2,
            wall_t_s: 0.0,
        };
        let mut mpc = Mpc::fast();
        assert_eq!(mpc.choose(&ctx), 2);
        assert_eq!(mpc.scratch_dl, [1.0, 2.0, 4.0]);
        assert_eq!(mpc.scratch_quality, [0.25, 0.5, 1.0]);
        assert_eq!(
            odometer(&mpc, &ctx, &[1.0, 2.0, 4.0], &[0.25, 0.5, 1.0], 2),
            2
        );

        // No finite score: sequences through track 0 score NaN, the rest
        // stall forever and score -inf. Neither may win, so the pick stays
        // at track 0 rather than the lowest-rank -inf sequence's track 1.
        let dl_s = [f64::INFINITY; 3];
        let quality = [f64::NAN, 0.5, 1.0];
        assert_eq!(odometer(&mpc, &ctx, &dl_s, &quality, 2), 0);
        assert_eq!(mpc.search(&ctx, &dl_s, &quality, 2), 0);
    }

    #[test]
    fn build_covers_six_algorithms() {
        for algo in AbrAlgo::all() {
            if algo == AbrAlgo::Pensieve {
                continue;
            }
            let mut abr = build(algo);
            let asset = VideoAsset::four_g_default();
            let past = vec![15.0; 5];
            let track = abr.choose(&ctx(&asset, 10.0, 0, &past));
            assert!(track < asset.n_tracks());
            assert_eq!(abr.name(), algo.label());
        }
    }

    #[test]
    #[should_panic(expected = "trained policy")]
    fn build_rejects_pensieve() {
        build(AbrAlgo::Pensieve);
    }
}
