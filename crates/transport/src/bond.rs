//! Bonded multi-interface transport: one flow striped across 4G+5G links.
//!
//! The production shape this follows: a rate-based controller (BBR or
//! NADA) paces the aggregate flow, a **DWRR** (deficit-weighted round
//! robin) scheduler stripes it across the member links with quanta
//! proportional to per-link capacity *estimates* (windowed max of
//! delivered rate — the scheduler has no oracle view of the radio), each
//! link runs its own bottleneck queue, and an RFC 8382-style
//! **shared-bottleneck detector** (SBD) watches the per-link delay series
//! — summary statistics (variability, skewness) plus cross-correlation —
//! to decide whether the links queue independently (a true capacity
//! aggregate) or behind one shared choke point (e.g. a capped carrier
//! core), in which case bonding buys redundancy, not bandwidth.
//!
//! Per-link capacity wobbles with a small deterministic jitter stream:
//! volatile radios are the whole point of bonding, and the wobble is what
//! de-correlates independent links' delay series so SBD has a signal.

use crate::bbr::WindowedMax;
use crate::path::PathModel;
use crate::rate::Controller;
use crate::step::{self, Ledger, StallTimer};
use crate::tcp::{step_loss_probability, CcAlgo};
use fiveg_simcore::recovery::{self, RecoveryKind};
use fiveg_simcore::{guard, telemetry, RngStream};

/// DWRR chunk size: one MSS of bits.
const CHUNK_BITS: f64 = 1460.0 * 8.0;
/// Capacity-estimate filter window, seconds.
const EST_WINDOW_S: f64 = 2.0;
/// Relative std-dev of the per-link capacity jitter.
const CAP_JITTER: f64 = 0.05;
/// SBD grouping threshold on the delay cross-correlation.
const SBD_CORR_THRESH: f64 = 0.7;
/// SBD needs at least this many delay samples per link.
const SBD_MIN_SAMPLES: usize = 50;

/// Configuration of a bonded run.
#[derive(Debug, Clone)]
pub struct BondedConfig {
    /// Member links (typically `[LTE, mmWave]`).
    pub links: Vec<PathModel>,
    /// Optional shared choke point downstream of all links (carrier core
    /// cap), Mbps. `None` means the links bottleneck independently.
    pub shared_cap_mbps: Option<f64>,
    /// Aggregate congestion controller (must be rate-based).
    pub algo: CcAlgo,
    /// Sender buffer cap, bytes.
    pub wmem_bytes: f64,
    /// Simulation step, seconds.
    pub dt_s: f64,
}

impl BondedConfig {
    /// A bonded flow over `links` with the default tuned buffer.
    pub fn new(links: Vec<PathModel>, algo: CcAlgo) -> Self {
        BondedConfig {
            links,
            shared_cap_mbps: None,
            algo,
            wmem_bytes: crate::tcp::WMEM_TUNED_BYTES,
            dt_s: 0.01,
        }
    }
}

/// Result of a bonded run.
#[derive(Debug, Clone)]
pub struct BondResult {
    /// Mean end-to-end goodput, Mbps.
    pub mean_mbps: f64,
    /// Per-link mean delivered rate, Mbps.
    pub per_link_mbps: Vec<f64>,
    /// Per-link share of the delivered bits (sums to 1 when anything
    /// was delivered).
    pub per_link_share: Vec<f64>,
    /// SBD group id per link (links sharing a bottleneck share an id).
    pub sbd_groups: Vec<usize>,
    /// Per-link delay-skewness estimates (RFC 8382 summary statistic).
    pub skew_est: Vec<f64>,
    /// Per-link delay-variability estimates (std dev, seconds).
    pub var_est: Vec<f64>,
    /// Worst queueing delay observed on any link, seconds.
    pub max_queue_delay_s: f64,
    /// Loss events across all links.
    pub loss_events: u64,
    /// Per-second goodput samples, Mbps.
    pub per_second_mbps: Vec<f64>,
}

impl BondResult {
    /// Number of distinct SBD groups.
    pub fn group_count(&self) -> usize {
        let mut ids: Vec<usize> = self.sbd_groups.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// A bonded simulation over `cfg.links`.
pub struct BondedSim {
    cfg: BondedConfig,
    rng: RngStream,
}

impl BondedSim {
    /// Creates the simulation.
    ///
    /// # Panics
    /// Panics on an empty link set, a non-positive step, or a
    /// window-based `algo`.
    pub fn new(cfg: BondedConfig, rng: RngStream) -> Self {
        assert!(!cfg.links.is_empty(), "need at least one link");
        assert!(cfg.dt_s > 0.0, "step must be positive");
        assert!(
            cfg.algo.is_rate_based(),
            "bonded transport requires a rate-based controller (bbr or nada)"
        );
        BondedSim { cfg, rng }
    }

    /// Runs for `duration_s`. Honours the ambient fault plane with the
    /// same contract as [`crate::TcpSim::run`]: RTT spikes and loss
    /// bursts modulate every member link, a stall window freezes the
    /// whole bonded device while the RTO machinery backs off and
    /// eventually resets the aggregate controller.
    pub fn run(&mut self, duration_s: f64) -> BondResult {
        let n = self.cfg.links.len();
        let dt = self.cfg.dt_s;
        let mss = self.cfg.links[0].mss_bytes;
        let base_rtts: Vec<f64> = self.cfg.links.iter().map(|l| l.rtt_ms / 1e3).collect();
        let min_rtt = base_rtts.iter().cloned().fold(f64::INFINITY, f64::min);
        let algo = self.cfg.algo;
        let mut ctrl = Controller::new(algo, mss, min_rtt);

        let mut backlog = vec![0.0_f64; n];
        let mut shared_backlog = 0.0_f64;
        let mut estimates: Vec<WindowedMax> = (0..n).map(|_| WindowedMax::default()).collect();
        let mut deficit = vec![0.0_f64; n];
        let mut rr = 0usize;
        let mut delivered_link_mb = vec![0.0_f64; n];
        let mut delay_series: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut max_qdelay = 0.0_f64;
        let mut loss_events = 0u64;
        let mut ledger = Ledger::new();
        let mut stall = StallTimer::new(min_rtt, "bonded ", "pacing");
        let mut t = 0.0;

        telemetry::clock(0.0);
        let _run_span = telemetry::span("transport/bond/run");
        while t < duration_s {
            let fault = step::begin(t);
            // The jitter draws happen every step, stalled or not, so the
            // RNG cursor (and thus every later draw) is independent of
            // where fault windows fall relative to steps.
            let jitter: Vec<f64> = (0..n).map(|_| self.rng.normal(0.0, 1.0)).collect();
            if fault.stalled {
                stall.stalled(
                    t,
                    &mut ctrl,
                    |ctrl| ctrl.on_rto(t),
                    |ctrl| *ctrl = Controller::new(algo, mss, min_rtt),
                );
                t += dt;
                ledger.tick(t);
                continue;
            }
            stall.clear();

            // Per-link effective capacity: radio volatility as a small
            // deterministic jitter stream.
            let caps: Vec<f64> = self
                .cfg
                .links
                .iter()
                .zip(&jitter)
                .map(|(l, j)| (l.capacity_mbps * (1.0 + CAP_JITTER * j)).max(1.0))
                .collect();
            let shared_qdelay = self
                .cfg
                .shared_cap_mbps
                .map_or(0.0, |c| shared_backlog / (c * 1e6));
            let qdelays: Vec<f64> = (0..n)
                .map(|i| self.cfg.links[i].queueing_delay_s(backlog[i]) + shared_qdelay)
                .collect();
            for (i, q) in qdelays.iter().enumerate() {
                guard::non_negative("transport", "queue-delay-nonneg", *q, 0.0, t);
                delay_series[i].push(*q);
                max_qdelay = max_qdelay.max(*q);
            }
            // The controller sees the delivery-weighted view: min base
            // RTT (the scheduler prefers the fast link for feedback) plus
            // the worst member queueing delay — the conservative signal.
            let agg_qdelay = qdelays.iter().cloned().fold(0.0, f64::max);
            let rtt_s = min_rtt * fault.rtt_mult + agg_qdelay;
            let rate = ctrl.rate_mbps(self.cfg.wmem_bytes, mss, rtt_s);

            // DWRR: stripe this step's bits across the links in chunks,
            // quanta proportional to the capacity estimates.
            let weights: Vec<f64> = estimates
                .iter()
                .zip(&caps)
                .map(|(e, &c)| if e.get() > 0.0 { e.get() } else { c })
                .collect();
            let w_sum: f64 = weights.iter().sum();
            let quanta: Vec<f64> = weights
                .iter()
                .map(|w| CHUNK_BITS * (w / w_sum * n as f64).max(0.1))
                .collect();
            let inflow_bits = rate * 1e6 * dt;
            let mut remaining = inflow_bits;
            let mut alloc = vec![0.0_f64; n];
            while remaining >= CHUNK_BITS {
                let i = rr % n;
                deficit[i] += quanta[i];
                while deficit[i] >= CHUNK_BITS && remaining >= CHUNK_BITS {
                    alloc[i] += CHUNK_BITS;
                    deficit[i] -= CHUNK_BITS;
                    remaining -= CHUNK_BITS;
                }
                rr += 1;
            }
            // Sub-chunk tail goes to the current link: conservation is
            // exact by construction, and the guard holds it there.
            if remaining > 0.0 {
                alloc[rr % n] += remaining;
            }
            let allocated: f64 = alloc.iter().sum();
            guard::check(
                "transport",
                "dwrr-conservation",
                (allocated - inflow_bits).abs() <= 1e-6 * inflow_bits.abs() + 1e-9,
                t,
                || format!("DWRR allocated {allocated} of {inflow_bits} inflow bits"),
            );

            // Per-link queues: integrate, drain at capacity, spill past
            // the buffer into overflow loss.
            let mut departs = vec![0.0_f64; n];
            for i in 0..n {
                backlog[i] += alloc[i];
                let depart = backlog[i].min(caps[i] * 1e6 * dt);
                backlog[i] -= depart;
                departs[i] = depart;
                let spill = backlog[i] - self.cfg.links[i].buffer_bits();
                let overflow_frac = if spill > 0.0 && alloc[i] > 0.0 {
                    backlog[i] = self.cfg.links[i].buffer_bits();
                    telemetry::count("transport/bond/overflow", 1);
                    (spill / alloc[i]).min(1.0)
                } else {
                    0.0
                };
                // Random path loss on the delivered stream.
                let thr = depart / 1e6 / dt;
                let pkts = self.cfg.links[i].packets_per_sec(thr) * dt;
                let p_rand = 1.0 - (-pkts * self.cfg.links[i].loss_per_pkt * fault.loss_mult).exp();
                let p_step = step_loss_probability(p_rand, overflow_frac);
                if self.rng.chance(p_step) {
                    telemetry::count("transport/loss", 1);
                    loss_events += 1;
                    if fault.loss_burst {
                        recovery::record(RecoveryKind::TcpFastRetransmit, t, rtt_s, 0.0, || {
                            format!("bonded link {i}: rate-based repair")
                        });
                    }
                }
            }
            // Optional shared core bottleneck downstream of the links.
            let step_delivered_bits = if let Some(cap) = self.cfg.shared_cap_mbps {
                shared_backlog += departs.iter().sum::<f64>();
                let out = shared_backlog.min(cap * 1e6 * dt);
                shared_backlog -= out;
                // The shared queue re-proportions delivery across links.
                let total: f64 = departs.iter().sum();
                for i in 0..n {
                    let share = if total > 0.0 { departs[i] / total } else { 0.0 };
                    delivered_link_mb[i] += share * out / 1e6;
                }
                out
            } else {
                for i in 0..n {
                    delivered_link_mb[i] += departs[i] / 1e6;
                }
                departs.iter().sum()
            };
            ledger.add(step_delivered_bits / 1e6);

            // Capacity estimation from what each link actually delivered.
            for i in 0..n {
                estimates[i].update(t, departs[i] / 1e6 / dt, EST_WINDOW_S);
            }
            let link0_mbps = departs[0] / 1e6 / dt;

            let delivered_mbps = step_delivered_bits / 1e6 / dt;
            let p_agg = {
                // Deterministic aggregate loss signal for the controller.
                let total_cap: f64 = caps.iter().sum();
                if self.cfg.shared_cap_mbps.is_some_and(|c| rate > c) || rate > total_cap {
                    0.02
                } else {
                    0.0
                }
            };
            ctrl.on_sample(t, delivered_mbps, rtt_s, agg_qdelay, p_agg);

            t += dt;
            if ledger.tick(t) {
                telemetry::observe("transport/queue_delay_s", agg_qdelay);
                telemetry::series("transport/bond/split_mbps_t", t, link0_mbps);
            }
        }

        let (mean_mbps, per_second_mbps) = ledger.finish(t, duration_s);
        let (sbd_groups, skew_est, var_est) = sbd_group(&delay_series);
        guard::in_range(
            "transport",
            "sbd-groups-bounds",
            count_groups(&sbd_groups) as f64,
            1.0,
            n as f64,
            0.0,
            duration_s,
        );
        telemetry::gauge("transport/bond/groups", count_groups(&sbd_groups) as f64);
        telemetry::gauge("transport/mean_mbps", mean_mbps);

        let total_link: f64 = delivered_link_mb.iter().sum();
        BondResult {
            mean_mbps,
            per_link_mbps: delivered_link_mb.iter().map(|mb| mb / duration_s).collect(),
            per_link_share: delivered_link_mb
                .iter()
                .map(|mb| {
                    if total_link > 0.0 {
                        mb / total_link
                    } else {
                        0.0
                    }
                })
                .collect(),
            sbd_groups,
            skew_est,
            var_est,
            max_queue_delay_s: max_qdelay,
            loss_events,
            per_second_mbps,
        }
    }
}

fn count_groups(groups: &[usize]) -> usize {
    let mut ids = groups.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// RFC 8382-style shared-bottleneck detection over per-link delay series:
/// summary statistics (std dev, skewness) per link, then grouping by the
/// cross-correlation of the mean-removed series. Returns
/// `(group id per link, skewness per link, std dev per link)`.
fn sbd_group(series: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
    let n = series.len();
    let stats: Vec<(f64, f64, f64)> = series.iter().map(|s| moments(s)).collect();
    let skew: Vec<f64> = stats.iter().map(|s| s.2).collect();
    let sd: Vec<f64> = stats.iter().map(|s| s.1).collect();
    let mut groups = vec![usize::MAX; n];
    let mut next = 0usize;
    for i in 0..n {
        if groups[i] != usize::MAX {
            continue;
        }
        groups[i] = next;
        for j in (i + 1)..n {
            if groups[j] != usize::MAX {
                continue;
            }
            let len = series[i].len().min(series[j].len());
            if len < SBD_MIN_SAMPLES {
                continue;
            }
            if correlation(&series[i][..len], &series[j][..len]) > SBD_CORR_THRESH {
                groups[j] = next;
            }
        }
        next += 1;
    }
    (groups, skew, sd)
}

/// `(mean, std dev, skewness)` of a series (zeros when degenerate).
fn moments(s: &[f64]) -> (f64, f64, f64) {
    if s.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = s.len() as f64;
    let mean = s.iter().sum::<f64>() / n;
    let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if var <= 0.0 {
        return (mean, 0.0, 0.0);
    }
    let sd = var.sqrt();
    let skew = s.iter().map(|x| ((x - mean) / sd).powi(3)).sum::<f64>() / n;
    (mean, sd, skew)
}

/// Pearson correlation of two equal-length series (0 when degenerate).
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(rtt_ms: f64, capacity: f64, dist_km: f64) -> PathModel {
        PathModel {
            rtt_ms,
            loss_per_pkt: crate::path::BASE_LOSS + crate::path::LOSS_PER_KM * dist_km,
            capacity_mbps: capacity,
            mss_bytes: 1460.0,
            queue_bdp: crate::path::DEFAULT_QUEUE_BDP,
        }
    }

    fn lte_plus_mmwave() -> Vec<PathModel> {
        vec![link(30.0, 150.0, 100.0), link(20.0, 1500.0, 100.0)]
    }

    #[test]
    fn bonding_aggregates_independent_links() {
        let mut sim = BondedSim::new(
            BondedConfig::new(lte_plus_mmwave(), CcAlgo::Nada),
            RngStream::new(1, "bond"),
        );
        let res = sim.run(15.0);
        assert!(
            res.mean_mbps > 150.0,
            "the bond must beat the LTE link alone: {}",
            res.mean_mbps
        );
        assert!(
            res.mean_mbps <= 1650.0 * 1.1,
            "and cannot beat the capacity sum: {}",
            res.mean_mbps
        );
    }

    #[test]
    fn dwrr_prefers_the_wider_link() {
        let mut sim = BondedSim::new(
            BondedConfig::new(lte_plus_mmwave(), CcAlgo::Nada),
            RngStream::new(2, "bond"),
        );
        let res = sim.run(15.0);
        assert!(
            res.per_link_share[1] > res.per_link_share[0],
            "mmWave must carry the larger share: {:?}",
            res.per_link_share
        );
        let total: f64 = res.per_link_share.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1: {total}");
    }

    #[test]
    fn independent_links_form_separate_sbd_groups() {
        let mut sim = BondedSim::new(
            BondedConfig::new(lte_plus_mmwave(), CcAlgo::Nada),
            RngStream::new(3, "bond"),
        );
        let res = sim.run(15.0);
        assert_eq!(
            res.group_count(),
            2,
            "independent bottlenecks: groups {:?}",
            res.sbd_groups
        );
    }

    #[test]
    fn shared_core_cap_collapses_the_groups() {
        let mut cfg = BondedConfig::new(lte_plus_mmwave(), CcAlgo::Nada);
        cfg.shared_cap_mbps = Some(300.0);
        let mut sim = BondedSim::new(cfg, RngStream::new(4, "bond"));
        let res = sim.run(15.0);
        assert_eq!(
            res.group_count(),
            1,
            "a shared choke point must group the links: {:?}",
            res.sbd_groups
        );
        assert!(
            res.mean_mbps <= 300.0 * 1.05,
            "the shared cap binds: {}",
            res.mean_mbps
        );
    }

    #[test]
    fn bbr_also_drives_the_bond() {
        let mut sim = BondedSim::new(
            BondedConfig::new(lte_plus_mmwave(), CcAlgo::Bbr),
            RngStream::new(5, "bond"),
        );
        let res = sim.run(15.0);
        assert!(res.mean_mbps > 150.0, "BBR bond: {}", res.mean_mbps);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut sim = BondedSim::new(
                BondedConfig::new(lte_plus_mmwave(), CcAlgo::Nada),
                RngStream::new(6, "bond"),
            );
            sim.run(10.0)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.mean_mbps, b.mean_mbps);
        assert_eq!(a.per_second_mbps, b.per_second_mbps);
        assert_eq!(a.sbd_groups, b.sbd_groups);
    }

    #[test]
    #[should_panic(expected = "rate-based controller")]
    fn rejects_window_based_controllers() {
        BondedSim::new(
            BondedConfig::new(lte_plus_mmwave(), CcAlgo::Cubic),
            RngStream::new(7, "bond"),
        );
    }

    #[test]
    fn sbd_statistics_are_sane() {
        // A constant series has zero variability and skewness.
        let (m, sd, sk) = moments(&[3.0; 100]);
        assert_eq!((m, sd, sk), (3.0, 0.0, 0.0));
        // Correlation of a series with itself is 1.
        let s: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        assert!((correlation(&s, &s) - 1.0).abs() < 1e-12);
        // Anti-correlated series must not group.
        let neg: Vec<f64> = s.iter().map(|x| -x).collect();
        assert!(correlation(&s, &neg) < -0.99);
        let (groups, _, _) = sbd_group(&[s, neg]);
        assert_eq!(groups, vec![0, 1]);
    }
}
