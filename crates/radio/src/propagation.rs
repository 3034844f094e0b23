//! Path loss, shadowing, and RSRP.
//!
//! We use a close-in (CI) reference path-loss model per band class with
//! calibrated effective transmit powers, plus a spatially correlated
//! log-normal shadowing field. The constants are calibrated so that:
//!
//! * mmWave is strong only within a few hundred metres of a panel and
//!   collapses entirely when blocked (≈30 dB penetration penalty),
//! * low-band (600–850 MHz) covers kilometres ("omnipresent" in the paper's
//!   walking loops),
//! * LTE mid-band sits in between.

use crate::band::{Band, BandClass};
use fiveg_geo::route::Point;
use fiveg_simcore::{guard, telemetry, RngStream};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Free-space path loss at the 1 m reference distance, in dB.
fn fspl_1m_db(freq_ghz: f64) -> f64 {
    32.4 + 20.0 * freq_ghz.log10()
}

/// Per-band constants that the hot path would otherwise recompute on every
/// sample (FSPL involves a `log10` per call; the radio hot paths evaluate
/// it once per tower per step). Values are computed once, by the exact
/// formulas the uncached path uses, so cached and uncached results are
/// bit-identical (pinned by `lut_matches_direct_computation`).
struct BandTables {
    /// [`fspl_1m_db`] of each band's carrier frequency, [`Band::index`]ed.
    fspl_1m_db: [f64; 5],
    /// [`effective_eirp_dbm`] per band, [`Band::index`]ed.
    eirp_dbm: [f64; 5],
}

fn band_tables() -> &'static BandTables {
    static TABLES: OnceLock<BandTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = BandTables {
            fspl_1m_db: [0.0; 5],
            eirp_dbm: [0.0; 5],
        };
        for band in Band::ALL {
            t.fspl_1m_db[band.index()] = fspl_1m_db(band.frequency_ghz());
            t.eirp_dbm[band.index()] = effective_eirp_dbm(band);
        }
        t
    })
}

/// Path-loss exponent for a band class (line-of-sight conditions).
fn path_loss_exponent(class: BandClass) -> f64 {
    match class {
        BandClass::MmWave => 2.9,
        BandClass::LowBand => 3.0,
        BandClass::Lte => 3.2,
    }
}

/// Additional loss when a mmWave link is blocked (body/foliage/building),
/// in dB. Sub-6 bands diffract around obstacles and take no such penalty.
pub fn blockage_loss_db(class: BandClass) -> f64 {
    match class {
        BandClass::MmWave => 30.0,
        BandClass::LowBand | BandClass::Lte => 0.0,
    }
}

/// Calibrated effective EIRP (transmit power + antenna gains, folded into a
/// single constant) per band, in dBm.
fn effective_eirp_dbm(band: Band) -> f64 {
    match band.class() {
        BandClass::MmWave => 35.0,
        BandClass::LowBand => 33.0,
        BandClass::Lte => 49.0,
    }
}

/// Close-in path loss at `distance_m` metres, in dB.
///
/// Distances below 1 m clamp to the reference distance. The per-band FSPL
/// constant comes from the memoized per-band tables; results are
/// bit-identical to [`path_loss_db_uncached`].
pub fn path_loss_db(band: Band, distance_m: f64, blocked: bool) -> f64 {
    let d = distance_m.max(1.0);
    let class = band.class();
    band_tables().fspl_1m_db[band.index()]
        + 10.0 * path_loss_exponent(class) * d.log10()
        + if blocked {
            blockage_loss_db(class)
        } else {
            0.0
        }
}

/// [`path_loss_db`] computed from scratch, bypassing the per-band lookup
/// tables. The equivalence suite pins `path_loss_db == path_loss_db_uncached`
/// over a dense distance/band grid.
pub fn path_loss_db_uncached(band: Band, distance_m: f64, blocked: bool) -> f64 {
    let d = distance_m.max(1.0);
    let class = band.class();
    fspl_1m_db(band.frequency_ghz())
        + 10.0 * path_loss_exponent(class) * d.log10()
        + if blocked {
            blockage_loss_db(class)
        } else {
            0.0
        }
}

/// RSRP in dBm at `distance_m` from the tower, before shadowing, clamped to
/// a physical ceiling of −44 dBm (the strongest value UEs report).
pub fn rsrp_dbm(band: Band, distance_m: f64, blocked: bool) -> f64 {
    (band_tables().eirp_dbm[band.index()] - path_loss_db(band, distance_m, blocked)).min(-44.0)
}

/// Lattice nodes memoized per field before wholesale eviction. A mobile
/// observer only ever straddles a handful of tiles per tower, so even the
/// 40-tower drive corridor stays far below this; the bound only protects
/// pathological access patterns from unbounded growth.
const NODE_CACHE_CAP: usize = 16 * 1024;

/// A deterministic, spatially correlated log-normal shadowing field.
///
/// The field is a bilinear interpolation of i.i.d. standard normals placed
/// on a square lattice (default 50 m pitch), scaled by a per-class σ. Values
/// are a pure function of `(seed, tower_id, position)` so any component —
/// the handoff engine, the trace generator, the power campaign — observes
/// the same radio environment.
///
/// Lattice nodes are memoized in a per-field tile cache: deriving a node's
/// normal burns a string format plus an RNG stream construction, and the
/// hot paths (handoff reselection, walking traces) re-touch the same four
/// tiles for hundreds of consecutive samples. Because a node is a pure
/// function of `(seed, tower, ix, iy)`, the cache is invisible —
/// [`ShadowingField::sample_db_uncached`] pins bit-identical results — and
/// each field owns its cache, so cloned fields and parallel campaigns never
/// share mutable state.
#[derive(Debug)]
pub struct ShadowingField {
    seed: u64,
    /// Lattice pitch in metres (decorrelation distance).
    pub corr_m: f64,
    /// Memoized lattice nodes: `(tower, ix, iy) → unit normal`.
    nodes: RefCell<HashMap<(u64, i64, i64), f64>>,
}

impl Clone for ShadowingField {
    /// Clones the field's identity with a fresh, empty node cache. Nodes
    /// are a pure function of that identity, so warm-vs-cold caches are
    /// observationally identical.
    fn clone(&self) -> Self {
        ShadowingField {
            seed: self.seed,
            corr_m: self.corr_m,
            nodes: RefCell::new(HashMap::new()),
        }
    }
}

impl ShadowingField {
    /// Creates a field with the default 50 m correlation length.
    pub fn new(seed: u64) -> Self {
        ShadowingField {
            seed,
            corr_m: 50.0,
            nodes: RefCell::new(HashMap::new()),
        }
    }

    /// Shadowing standard deviation per band class, in dB.
    pub fn sigma_db(class: BandClass) -> f64 {
        match class {
            BandClass::MmWave => 8.0,
            BandClass::LowBand => 6.0,
            BandClass::Lte => 6.0,
        }
    }

    /// A lattice-node unit normal computed from scratch, deterministic in
    /// `(seed, tower, ix, iy)`.
    fn node_uncached(&self, tower: u64, ix: i64, iy: i64) -> f64 {
        let name = format!("shadow/{tower}/{ix}/{iy}");
        RngStream::new(self.seed, &name).std_normal()
    }

    /// A lattice-node unit normal, served from the tile cache.
    fn node(&self, tower: u64, ix: i64, iy: i64) -> f64 {
        let key = (tower, ix, iy);
        if let Some(&v) = self.nodes.borrow().get(&key) {
            telemetry::count("radio/shadow/hit", 1);
            // Coherence guard: on a deterministic 1-in-64 subset of hits
            // (keyed on the lattice index — no randomness drawn, bounded
            // overhead) recompute the node from scratch and require the
            // cached value to be bit-identical.
            if guard::enabled() && (ix ^ iy) & 63 == 0 {
                guard::check(
                    "radio",
                    "shadow-cache-coherent",
                    v.to_bits() == self.node_uncached(tower, ix, iy).to_bits(),
                    0.0,
                    || format!("cached node {key:?} = {v} diverged from recompute"),
                );
            }
            return v;
        }
        telemetry::count("radio/shadow/miss", 1);
        let v = self.node_uncached(tower, ix, iy);
        let mut nodes = self.nodes.borrow_mut();
        if nodes.len() >= NODE_CACHE_CAP {
            nodes.clear();
        }
        nodes.insert(key, v);
        v
    }

    /// Shadowing in dB experienced from tower `tower_id` at position `p`.
    pub fn sample_db(&self, tower_id: u64, class: BandClass, p: Point) -> f64 {
        self.sample_inner(tower_id, class, p, Self::node)
    }

    /// [`ShadowingField::sample_db`] bypassing the node tile cache. The
    /// equivalence suite pins `sample_db == sample_db_uncached` regardless
    /// of cache state or access order.
    pub fn sample_db_uncached(&self, tower_id: u64, class: BandClass, p: Point) -> f64 {
        self.sample_inner(tower_id, class, p, Self::node_uncached)
    }

    fn sample_inner(
        &self,
        tower_id: u64,
        class: BandClass,
        p: Point,
        node: impl Fn(&Self, u64, i64, i64) -> f64,
    ) -> f64 {
        let gx = p.x / self.corr_m;
        let gy = p.y / self.corr_m;
        let ix = gx.floor() as i64;
        let iy = gy.floor() as i64;
        let fx = gx - ix as f64;
        let fy = gy - iy as f64;
        let v00 = node(self, tower_id, ix, iy);
        let v10 = node(self, tower_id, ix + 1, iy);
        let v01 = node(self, tower_id, ix, iy + 1);
        let v11 = node(self, tower_id, ix + 1, iy + 1);
        let interp = v00 * (1.0 - fx) * (1.0 - fy)
            + v10 * fx * (1.0 - fy)
            + v01 * (1.0 - fx) * fy
            + v11 * fx * fy;
        interp * Self::sigma_db(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_loss_grows_with_distance() {
        for band in [Band::LteMidBand, Band::N71, Band::N261] {
            let near = path_loss_db(band, 50.0, false);
            let far = path_loss_db(band, 500.0, false);
            assert!(far > near + 20.0, "{band:?}: {near} -> {far}");
        }
    }

    #[test]
    fn mmwave_blockage_is_catastrophic() {
        let open = rsrp_dbm(Band::N261, 150.0, false);
        let blocked = rsrp_dbm(Band::N261, 150.0, true);
        assert!((open - blocked - 30.0).abs() < 1e-9);
        assert!(open > BandClass::MmWave.rsrp_floor_dbm(), "usable when LoS");
        assert!(
            blocked < BandClass::MmWave.rsrp_floor_dbm(),
            "dead when blocked"
        );
    }

    #[test]
    fn blockage_does_not_affect_sub6() {
        assert_eq!(
            rsrp_dbm(Band::N71, 1000.0, false),
            rsrp_dbm(Band::N71, 1000.0, true)
        );
    }

    #[test]
    fn low_band_covers_kilometres() {
        // "low-band 5G connectivity was omnipresent" on the walking loop.
        let rsrp = rsrp_dbm(Band::N71, 3000.0, false);
        assert!(
            rsrp > BandClass::LowBand.rsrp_floor_dbm() + 10.0,
            "n71 at 3 km: {rsrp} dBm"
        );
    }

    #[test]
    fn mmwave_range_is_hundreds_of_metres() {
        let at_200 = rsrp_dbm(Band::N261, 200.0, false);
        assert!(at_200 > -95.0, "usable at 200 m: {at_200}");
        let at_3000 = rsrp_dbm(Band::N261, 3000.0, false);
        assert!(
            at_3000 < BandClass::MmWave.rsrp_floor_dbm(),
            "dead at 3 km: {at_3000}"
        );
    }

    #[test]
    fn rsrp_is_clamped_near_the_tower() {
        assert_eq!(rsrp_dbm(Band::N71, 0.0, false), -44.0);
    }

    #[test]
    fn shadowing_is_deterministic_and_continuous() {
        let f = ShadowingField::new(11);
        let p = Point::new(123.0, 456.0);
        assert_eq!(
            f.sample_db(3, BandClass::LowBand, p),
            f.sample_db(3, BandClass::LowBand, p)
        );
        let nearby = Point::new(124.0, 456.0);
        let dv = (f.sample_db(3, BandClass::LowBand, p)
            - f.sample_db(3, BandClass::LowBand, nearby))
        .abs();
        assert!(dv < 2.0, "1 m apart must be correlated, delta {dv}");
    }

    #[test]
    fn shadowing_decorrelates_across_towers_and_space() {
        let f = ShadowingField::new(11);
        let mut distinct = 0;
        for i in 0..20 {
            let p = Point::new(i as f64 * 500.0, 0.0);
            let a = f.sample_db(1, BandClass::Lte, p);
            let b = f.sample_db(2, BandClass::Lte, p);
            if (a - b).abs() > 0.5 {
                distinct += 1;
            }
        }
        assert!(distinct > 10, "towers see independent fields");
    }

    #[test]
    fn lut_matches_direct_computation() {
        for band in Band::ALL {
            assert_eq!(
                band_tables().fspl_1m_db[band.index()].to_bits(),
                fspl_1m_db(band.frequency_ghz()).to_bits(),
                "{band:?} FSPL LUT drifted"
            );
            assert_eq!(
                band_tables().eirp_dbm[band.index()].to_bits(),
                effective_eirp_dbm(band).to_bits(),
                "{band:?} EIRP LUT drifted"
            );
        }
    }

    #[test]
    fn cached_path_loss_is_bit_identical_to_uncached() {
        for band in Band::ALL {
            for blocked in [false, true] {
                let mut d = 0.5;
                while d < 20_000.0 {
                    assert_eq!(
                        path_loss_db(band, d, blocked).to_bits(),
                        path_loss_db_uncached(band, d, blocked).to_bits(),
                        "{band:?} at {d} m (blocked={blocked})"
                    );
                    d *= 1.07;
                }
            }
        }
    }

    #[test]
    fn cached_shadowing_is_bit_identical_regardless_of_access_order() {
        let warm = ShadowingField::new(2021);
        let cold = ShadowingField::new(2021);
        let points: Vec<Point> = (0..400)
            .map(|i| Point::new((i % 23) as f64 * 17.0 - 60.0, (i / 23) as f64 * 31.0 - 45.0))
            .collect();
        // Warm the first field forward, then check both in reverse order:
        // hits and misses must agree with the uncached reference exactly.
        for &p in &points {
            let _ = warm.sample_db(3, BandClass::MmWave, p);
        }
        for &p in points.iter().rev() {
            let reference = warm.sample_db_uncached(3, BandClass::MmWave, p);
            assert_eq!(
                warm.sample_db(3, BandClass::MmWave, p).to_bits(),
                reference.to_bits()
            );
            assert_eq!(
                cold.sample_db(3, BandClass::MmWave, p).to_bits(),
                reference.to_bits()
            );
        }
    }

    #[test]
    fn node_cache_eviction_does_not_change_values() {
        let f = ShadowingField::new(7);
        let p = Point::new(10.0, 10.0);
        let first = f.sample_db(1, BandClass::Lte, p);
        // Flood the cache far past its capacity to force wholesale
        // eviction, then re-sample the original point.
        for i in 0..(NODE_CACHE_CAP as i64 / 4 + 8) {
            let q = Point::new(i as f64 * 50.0 + 25.0, -9_999.0);
            let _ = f.sample_db(1, BandClass::Lte, q);
        }
        assert_eq!(f.sample_db(1, BandClass::Lte, p).to_bits(), first.to_bits());
    }

    #[test]
    fn cloned_field_observes_the_same_world() {
        let f = ShadowingField::new(13);
        let p = Point::new(77.0, -31.0);
        let _ = f.sample_db(5, BandClass::LowBand, p); // warm the original
        let g = f.clone();
        assert_eq!(
            f.sample_db(5, BandClass::LowBand, p).to_bits(),
            g.sample_db(5, BandClass::LowBand, p).to_bits()
        );
    }

    #[test]
    fn shadowing_marginal_std_is_plausible() {
        let f = ShadowingField::new(5);
        let samples: Vec<f64> = (0..500)
            .map(|i| {
                // Sample at lattice-aligned points for exact marginal σ.
                let p = Point::new((i as f64) * 50.0, (i as f64 % 7.0) * 350.0);
                f.sample_db(9, BandClass::MmWave, p)
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!((std - 8.0).abs() < 1.5, "σ ≈ 8 dB for mmWave, got {std}");
    }
}
