//! Byte-weighted lifetime distributions (the paper's Table 3).

use lifepred_quantile::P2Histogram;
use std::sync::OnceLock;

/// Granularity of byte-weighted sampling into the P² histogram: one
/// observation per this many bytes of object size.
const WEIGHT_GRANULE: u64 = 64;

/// Maximum P² observations charged to a single object, so huge objects
/// cannot stall profiling.
const MAX_OBS_PER_OBJECT: u64 = 1024;

/// A byte-weighted distribution of object lifetimes.
///
/// Table 3 reads "each column gives the lifetime for which that
/// percentage of *bytes* is alive", i.e. quantiles weighted by object
/// size. Two estimates are read from the stored `(lifetime, size)`
/// pairs:
///
/// * a P² quantile histogram fed one observation per 64 bytes of
///   object size — the constant-space estimate the paper used (and
///   whose approximation error the paper remarks on for GHOST). It is
///   built on the first P² query by replaying the pairs in observation
///   order, so profiles that never print Table 3 never pay for it;
/// * the exact weighted quantiles, used to quantify that error.
///
/// # Examples
///
/// ```
/// use lifepred_core::LifetimeDistribution;
///
/// let mut d = LifetimeDistribution::new();
/// for _ in 0..100 {
///     d.observe(48, 16); // lifetime 48 bytes, size 16
/// }
/// d.observe(1_000_000, 16); // one long-lived object
/// assert_eq!(d.quantile_exact(0.5), 48);
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeDistribution {
    /// The P² histogram over `pairs`, built on first query; emptied by
    /// every new observation.
    p2: OnceLock<P2Histogram>,
    pairs: Vec<(u64, u64)>,
    total_bytes: u64,
}

impl Default for LifetimeDistribution {
    fn default() -> Self {
        LifetimeDistribution::new()
    }
}

impl LifetimeDistribution {
    /// Creates an empty distribution with quartile markers.
    pub fn new() -> Self {
        LifetimeDistribution {
            p2: OnceLock::new(),
            pairs: Vec::new(),
            total_bytes: 0,
        }
    }

    /// Records an object of `size` bytes that lived `lifetime` bytes.
    pub fn observe(&mut self, lifetime: u64, size: u32) {
        self.p2.take();
        self.pairs.push((lifetime, u64::from(size)));
        self.total_bytes += u64::from(size);
    }

    /// Number of objects observed.
    pub fn objects(&self) -> usize {
        self.pairs.len()
    }

    /// Total bytes observed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The P² (approximate) byte-weighted quantile, as the paper's
    /// Table 3 reports.
    pub fn quantile_p2(&self, p: f64) -> u64 {
        self.p2().quantile(p).round().max(0.0) as u64
    }

    /// The byte-weighted P² histogram: every object charged one
    /// observation per [`WEIGHT_GRANULE`] bytes, capped at
    /// [`MAX_OBS_PER_OBJECT`], in the order the objects were observed.
    fn p2(&self) -> &P2Histogram {
        self.p2.get_or_init(|| {
            let mut h = P2Histogram::quartiles();
            for &(lifetime, size) in &self.pairs {
                let weight = (size / WEIGHT_GRANULE).clamp(1, MAX_OBS_PER_OBJECT);
                for _ in 0..weight {
                    h.observe(lifetime as f64);
                }
            }
            h
        })
    }

    /// The exact byte-weighted quantile: the smallest lifetime `L`
    /// such that at least `p` of all bytes belong to objects with
    /// lifetime ≤ `L`. Returns 0 on an empty distribution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile_exact(&self, p: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile must be in [0, 1], got {p}"
        );
        if self.pairs.is_empty() {
            return 0;
        }
        let mut sorted = self.pairs.clone();
        sorted.sort_unstable_by_key(|&(l, _)| l);
        let target = (p * self.total_bytes as f64).ceil() as u64;
        let mut cum = 0u64;
        for &(lifetime, bytes) in &sorted {
            cum += bytes;
            if cum >= target {
                return lifetime;
            }
        }
        sorted.last().map(|&(l, _)| l).unwrap_or(0)
    }

    /// Convenience: the five quartile values `(min, 25%, 50%, 75%, max)`
    /// from the P² histogram — one row of Table 3.
    pub fn quartiles_p2(&self) -> [u64; 5] {
        [
            self.quantile_p2(0.0),
            self.quantile_p2(0.25),
            self.quantile_p2(0.5),
            self.quantile_p2(0.75),
            self.quantile_p2(1.0),
        ]
    }

    /// Convenience: the exact quartiles `(min, 25%, 50%, 75%, max)`.
    pub fn quartiles_exact(&self) -> [u64; 5] {
        [
            self.quantile_exact(0.0),
            self.quantile_exact(0.25),
            self.quantile_exact(0.5),
            self.quantile_exact(0.75),
            self.quantile_exact(1.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_are_byte_weighted() {
        let mut d = LifetimeDistribution::new();
        // 100 bytes of lifetime-10 objects, 900 bytes of lifetime-1000.
        for _ in 0..10 {
            d.observe(10, 10);
        }
        d.observe(1000, 900);
        // Only 10% of bytes live ≤ 10; the median byte lives 1000.
        assert_eq!(d.quantile_exact(0.05), 10);
        assert_eq!(d.quantile_exact(0.5), 1000);
    }

    #[test]
    fn p2_tracks_exact_for_smooth_streams() {
        let mut d = LifetimeDistribution::new();
        for i in 0..5000u64 {
            d.observe(i % 1000, 64);
        }
        let exact = d.quantile_exact(0.5);
        let approx = d.quantile_p2(0.5);
        assert!(
            (approx as i64 - exact as i64).abs() < 100,
            "p2 {approx} vs exact {exact}"
        );
    }

    #[test]
    fn empty_distribution() {
        let d = LifetimeDistribution::new();
        assert_eq!(d.quantile_exact(0.5), 0);
        assert_eq!(d.objects(), 0);
        assert_eq!(d.total_bytes(), 0);
    }

    #[test]
    fn quartile_arrays_are_monotone() {
        let mut d = LifetimeDistribution::new();
        for i in 0..3000u64 {
            d.observe((i * 7) % 10_000, ((i % 100) + 1) as u32);
        }
        for qs in [d.quartiles_p2(), d.quartiles_exact()] {
            for w in qs.windows(2) {
                assert!(w[0] <= w[1], "{qs:?}");
            }
        }
    }

    /// Feeds `objects` to a distribution and, eagerly, to a P²
    /// histogram charged one observation per 64 bytes (at least one,
    /// at most 1 024 per object) — the stream the lazy histogram must
    /// replay.
    fn with_eager_oracle(objects: &[(u64, u32)]) -> (LifetimeDistribution, P2Histogram) {
        let mut d = LifetimeDistribution::new();
        let mut eager = P2Histogram::quartiles();
        for &(lifetime, size) in objects {
            d.observe(lifetime, size);
            for _ in 0..(size / 64).clamp(1, 1024) {
                eager.observe(lifetime as f64);
            }
        }
        (d, eager)
    }

    fn eager_quartiles(h: &P2Histogram) -> [u64; 5] {
        [0.0, 0.25, 0.5, 0.75, 1.0].map(|p| h.quantile(p).round().max(0.0) as u64)
    }

    /// Sizes spanning the weighting: under one granule, several, and
    /// past the 1 024-observation cap (≥ 64 KiB).
    fn mixed_objects() -> Vec<(u64, u32)> {
        (0..2000u64)
            .map(|i| {
                let size = [8, 64, 200, 4096, 65_536, 1 << 20][(i % 6) as usize];
                ((i * 7919) % 50_000, size)
            })
            .collect()
    }

    #[test]
    fn lazy_p2_replays_the_eager_weighted_stream() {
        let (d, eager) = with_eager_oracle(&mixed_objects());
        assert_eq!(d.quartiles_p2(), eager_quartiles(&eager));
        for p in [0.1, 0.33, 0.9] {
            assert_eq!(d.quantile_p2(p), eager.quantile(p).round().max(0.0) as u64);
        }
    }

    #[test]
    fn observe_after_query_invalidates_the_cache() {
        let objects = mixed_objects();
        let (half, _) = objects.split_at(objects.len() / 2);
        let mut d = LifetimeDistribution::new();
        for &(lifetime, size) in half {
            d.observe(lifetime, size);
        }
        let before = d.quartiles_p2();
        // A burst of very long lifetimes must move the upper quartiles.
        let mut more = half.to_vec();
        for i in 0..500u64 {
            more.push((1_000_000 + i, 65_536));
        }
        for &(lifetime, size) in &more[half.len()..] {
            d.observe(lifetime, size);
        }
        let (_, eager) = with_eager_oracle(&more);
        assert_eq!(d.quartiles_p2(), eager_quartiles(&eager));
        assert_ne!(d.quartiles_p2(), before);
    }

    #[test]
    fn clone_after_query_keeps_the_quartiles() {
        let (d, _) = with_eager_oracle(&mixed_objects());
        let queried = d.quartiles_p2();
        let copy = d.clone();
        assert_eq!(copy.quartiles_p2(), queried);
        let mut grown = d.clone();
        grown.observe(9_999_999, 1 << 20);
        assert_ne!(grown.quartiles_p2()[4], queried[4]);
        assert_eq!(d.quartiles_p2(), queried);
    }

    #[test]
    fn min_max_exact_in_p2() {
        let mut d = LifetimeDistribution::new();
        d.observe(5, 8);
        d.observe(77, 8);
        d.observe(12, 8);
        assert_eq!(d.quantile_p2(0.0), 5);
        assert_eq!(d.quantile_p2(1.0), 77);
    }
}
