//! Minimal in-tree benchmark harness.
//!
//! Replaces Criterion so that `cargo bench` works with zero registry/network
//! access. Each `[[bench]]` target is a plain `harness = false` binary that
//! calls [`bench()`] for every kernel it times. The default sample count keeps
//! `cargo bench` fast; set `FIVEG_BENCH_SAMPLES=<n>` (e.g. 30) for tighter
//! medians.

use std::hint::black_box;
use std::time::Instant;

/// Environment variable overriding the per-benchmark sample count.
pub const SAMPLES_ENV: &str = "FIVEG_BENCH_SAMPLES";

/// Samples per benchmark: small by default; `FIVEG_BENCH_SAMPLES` (any
/// positive integer) overrides it.
fn sample_count() -> usize {
    if let Ok(raw) = std::env::var(SAMPLES_ENV) {
        match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => eprintln!("ignoring {SAMPLES_ENV}={raw:?}: expected a positive integer"),
        }
    }
    5
}

/// Linear-interpolated percentile of an already-sorted sample set.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// The timing summary [`bench()`] prints and returns: sample count, min/max
/// extremes, and the median with its p10/p90 spread, all in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Timed samples (the warm-up call is excluded).
    pub n: usize,
    /// Fastest sample.
    pub min_ms: f64,
    /// Slowest sample.
    pub max_ms: f64,
    /// Median sample.
    pub median_ms: f64,
    /// 10th percentile (linear interpolation).
    pub p10_ms: f64,
    /// 90th percentile (linear interpolation).
    pub p90_ms: f64,
}

/// Times `f` over several samples and prints a one-line summary with the
/// median plus the p10/p90 spread and the min/max extremes (tail noise is
/// what campaign scheduling cares about, not just the center). Returns the
/// same numbers as a [`TimingSummary`] so callers can gate on them.
///
/// The closure's result is passed through [`black_box`] so the optimizer
/// cannot delete the work.
pub fn bench<R, F: FnMut() -> R>(name: &str, mut f: F) -> TimingSummary {
    black_box(f()); // warm-up, untimed
    let n = sample_count();
    let mut samples_ms = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        black_box(f());
        samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    samples_ms.sort_by(f64::total_cmp);
    let summary = TimingSummary {
        n,
        min_ms: samples_ms[0],
        max_ms: samples_ms[n - 1],
        median_ms: samples_ms[n / 2],
        p10_ms: percentile_ms(&samples_ms, 10.0),
        p90_ms: percentile_ms(&samples_ms, 90.0),
    };
    println!(
        "{name:<40} median {:10.3} ms   (p10 {:.3}, p90 {:.3}, min {:.3}, max {:.3}, n={n})",
        summary.median_ms, summary.p10_ms, summary.p90_ms, summary.min_ms, summary.max_ms
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_the_closure() {
        let mut calls = 0;
        bench("noop", || calls += 1);
        assert_eq!(calls as usize, 1 + sample_count());
    }

    #[test]
    fn summary_orders_its_quantiles() {
        let s = bench("spin", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(s.n, sample_count());
        assert!(s.min_ms >= 0.0);
        assert!(s.min_ms <= s.p10_ms, "{s:?}");
        assert!(s.p10_ms <= s.median_ms, "{s:?}");
        assert!(s.median_ms <= s.p90_ms, "{s:?}");
        assert!(s.p90_ms <= s.max_ms, "{s:?}");
    }

    #[test]
    fn percentiles_interpolate_on_sorted_samples() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_ms(&s, 0.0), 1.0);
        assert_eq!(percentile_ms(&s, 100.0), 5.0);
        assert_eq!(percentile_ms(&s, 50.0), 3.0);
        // p10 of 5 samples: rank 0.4 → 1.0 + 0.4 * (2.0 - 1.0).
        assert!((percentile_ms(&s, 10.0) - 1.4).abs() < 1e-12);
        assert!((percentile_ms(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile_ms(&[7.0], 90.0), 7.0);
    }
}
