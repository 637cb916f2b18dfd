//! Per-site lifetime profiles built from training traces.

use crate::lifetimes::LifetimeDistribution;
use crate::site::{SiteConfig, SiteExtractor, SiteKey};
use lifepred_trace::{AllocationRecord, ChainTable, Trace, TraceStats};
use std::collections::HashMap;
use std::convert::Infallible;

/// Lifetime statistics accumulated for one allocation site.
#[derive(Debug, Clone)]
pub struct SiteStats {
    /// Objects allocated at this site.
    pub objects: u64,
    /// Bytes allocated at this site.
    pub bytes: u64,
    /// Largest lifetime observed (exact, so the all-short training
    /// rule is exact, not approximate).
    pub max_lifetime: u64,
    /// Objects that lived less than the profile threshold.
    pub short_objects: u64,
    /// Bytes of such objects.
    pub short_bytes: u64,
    /// Heap references to objects from this site.
    pub refs: u64,
}

impl SiteStats {
    fn new() -> Self {
        SiteStats {
            objects: 0,
            bytes: 0,
            max_lifetime: 0,
            short_objects: 0,
            short_bytes: 0,
            refs: 0,
        }
    }

    /// Returns `true` if every object observed at this site was
    /// short-lived under `threshold` — the paper's admission rule.
    pub fn all_short(&self, threshold: u64) -> bool {
        self.objects > 0 && self.max_lifetime < threshold
    }

    /// Fraction of this site's bytes that were long-lived, in `[0, 1]`.
    pub fn long_byte_fraction(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            (self.bytes - self.short_bytes) as f64 / self.bytes as f64
        }
    }
}

/// A training profile: the mapping from allocation sites to lifetime
/// statistics, plus program-wide aggregates.
///
/// # Examples
///
/// ```
/// use lifepred_core::{Profile, SiteConfig, DEFAULT_THRESHOLD};
/// use lifepred_trace::TraceSession;
///
/// let s = TraceSession::new("p");
/// let id = s.alloc(32);
/// s.free(id);
/// let trace = s.finish();
/// let profile = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
/// assert_eq!(profile.total_sites(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Profile {
    program: String,
    /// Traces absorbed so far; their names make up `program`.
    traces: usize,
    config: SiteConfig,
    threshold: u64,
    sites: HashMap<SiteKey, SiteStats>,
    lifetimes: LifetimeDistribution,
    total_bytes: u64,
    total_objects: u64,
    short_bytes: u64,
    short_objects: u64,
}

impl Profile {
    /// Scans `trace` and accumulates per-site statistics.
    ///
    /// `threshold` is the short-lived cutoff in bytes (the paper uses
    /// 32 KB); it determines the `short_*` counters and must match the
    /// threshold later passed to training.
    pub fn build(trace: &Trace, config: &SiteConfig, threshold: u64) -> Profile {
        Profile::build_many([trace], config, threshold)
    }

    /// Builds one merged profile over several training traces — the
    /// paper's cross-input experiments train on multiple runs of the
    /// same program so that per-input sites generalize.
    ///
    /// Site keys are only comparable across traces recorded against a
    /// shared function registry (e.g. the inputs of one `lifepred
    /// record` invocation); the caller is responsible for that.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn build_many<'a>(
        traces: impl IntoIterator<Item = &'a Trace>,
        config: &SiteConfig,
        threshold: u64,
    ) -> Profile {
        let mut profile = Profile::new(config, threshold);
        for trace in traces {
            let records = trace.records().iter().cloned().map(Ok);
            let absorbed: Result<(), Infallible> = profile.absorb(
                trace.name(),
                trace.chains(),
                trace.end_clock(),
                trace.stats(),
                records,
            );
            let Ok(()) = absorbed;
        }
        assert!(profile.traces > 0, "build_many needs at least one trace");
        profile
    }

    /// An empty profile, to be fed traces with [`Profile::absorb`].
    pub fn new(config: &SiteConfig, threshold: u64) -> Profile {
        Profile {
            program: String::new(),
            traces: 0,
            config: *config,
            threshold,
            sites: HashMap::new(),
            lifetimes: LifetimeDistribution::new(),
            total_bytes: 0,
            total_objects: 0,
            short_bytes: 0,
            short_objects: 0,
        }
    }

    /// Accumulates one trace's records into this profile, streamed
    /// from any source that can fail mid-way (e.g. a mapped `.lpt`
    /// file, decoded record by record): `chains` is the trace's chain
    /// table, `end_clock` its final byte clock (the lifetime charged
    /// to never-freed objects) and `stats` its totals. The program
    /// name becomes the absorbed traces' names joined by `+`.
    ///
    /// # Errors
    ///
    /// The first error `records` yields; the records before it stay
    /// absorbed.
    pub fn absorb<E>(
        &mut self,
        program: &str,
        chains: &ChainTable,
        end_clock: u64,
        stats: &TraceStats,
        records: impl IntoIterator<Item = Result<AllocationRecord, E>>,
    ) -> Result<(), E> {
        let mut extractor = SiteExtractor::from_chains(chains, self.config);
        for record in records {
            let record = record?;
            let key = extractor.site_of(&record);
            let lifetime = record.lifetime(end_clock);
            let stats = self.sites.entry(key).or_insert_with(SiteStats::new);
            stats.objects += 1;
            stats.bytes += u64::from(record.size);
            stats.max_lifetime = stats.max_lifetime.max(lifetime);
            stats.refs += record.refs;
            if lifetime < self.threshold {
                stats.short_objects += 1;
                stats.short_bytes += u64::from(record.size);
                self.short_objects += 1;
                self.short_bytes += u64::from(record.size);
            }
            self.lifetimes.observe(lifetime, record.size);
        }
        if self.traces > 0 {
            self.program.push('+');
        }
        self.program.push_str(program);
        self.traces += 1;
        self.total_bytes += stats.total_bytes;
        self.total_objects += stats.total_objects;
        Ok(())
    }

    /// The profiled program's name.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The site configuration the profile was built under.
    pub fn config(&self) -> &SiteConfig {
        &self.config
    }

    /// The short-lived threshold in bytes.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// All sites and their statistics.
    pub fn sites(&self) -> &HashMap<SiteKey, SiteStats> {
        &self.sites
    }

    /// Statistics for one site, if seen.
    pub fn site(&self, key: &SiteKey) -> Option<&SiteStats> {
        self.sites.get(key)
    }

    /// Number of distinct allocation sites (Table 4's "Total Sites").
    pub fn total_sites(&self) -> usize {
        self.sites.len()
    }

    /// The program-wide byte-weighted lifetime distribution (Table 3).
    pub fn lifetimes(&self) -> &LifetimeDistribution {
        &self.lifetimes
    }

    /// Total bytes allocated in the profiled run.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total objects allocated in the profiled run.
    pub fn total_objects(&self) -> u64 {
        self.total_objects
    }

    /// Percentage of all bytes that were actually short-lived
    /// (Table 4's "Actual Short-lived Bytes").
    pub fn actual_short_bytes_pct(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            100.0 * self.short_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Percentage of all objects that were actually short-lived.
    pub fn actual_short_objects_pct(&self) -> f64 {
        if self.total_objects == 0 {
            0.0
        } else {
            100.0 * self.short_objects as f64 / self.total_objects as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_THRESHOLD;
    use lifepred_trace::TraceSession;

    /// Two sites: one allocating only short-lived objects, one keeping
    /// objects alive past the threshold.
    fn mixed_trace() -> Trace {
        let s = TraceSession::new("mixed");
        let mut long_lived = Vec::new();
        {
            let _g = s.enter("long_site");
            for _ in 0..4 {
                long_lived.push(s.alloc(100));
            }
        }
        {
            let _g = s.enter("short_site");
            for _ in 0..100 {
                let id = s.alloc(50);
                s.free(id);
            }
        }
        // Push the clock past the threshold so the long-lived objects
        // exceed it, then free them.
        {
            let _g = s.enter("filler");
            for _ in 0..40 {
                let id = s.alloc(1024);
                s.free(id);
            }
        }
        for id in long_lived {
            s.free(id);
        }
        s.finish()
    }

    #[test]
    fn profile_separates_sites() {
        let trace = mixed_trace();
        let p = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        assert_eq!(p.total_sites(), 3);
        let short_site = p
            .sites()
            .iter()
            .find(|(_, s)| s.objects == 100)
            .map(|(_, s)| s)
            .expect("short site present");
        assert!(short_site.all_short(DEFAULT_THRESHOLD));
        assert_eq!(short_site.short_objects, 100);

        let long_site = p
            .sites()
            .iter()
            .find(|(_, s)| s.objects == 4)
            .map(|(_, s)| s)
            .expect("long site present");
        assert!(!long_site.all_short(DEFAULT_THRESHOLD));
        assert!(long_site.max_lifetime >= DEFAULT_THRESHOLD);
        assert!(long_site.long_byte_fraction() > 0.99);
    }

    #[test]
    fn totals_match_trace_stats() {
        let trace = mixed_trace();
        let p = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        assert_eq!(p.total_bytes(), trace.stats().total_bytes);
        assert_eq!(p.total_objects(), trace.stats().total_objects);
        let site_bytes: u64 = p.sites().values().map(|s| s.bytes).sum();
        assert_eq!(site_bytes, p.total_bytes());
    }

    #[test]
    fn actual_short_pct_reflects_threshold() {
        let trace = mixed_trace();
        let tight = Profile::build(&trace, &SiteConfig::default(), 1);
        assert_eq!(tight.actual_short_bytes_pct(), 0.0);
        let loose = Profile::build(&trace, &SiteConfig::default(), u64::MAX);
        assert!((loose.actual_short_bytes_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn build_many_merges_site_stats() {
        let t1 = mixed_trace();
        let t2 = mixed_trace();
        let single = Profile::build(&t1, &SiteConfig::default(), DEFAULT_THRESHOLD);
        let merged = Profile::build_many([&t1, &t2], &SiteConfig::default(), DEFAULT_THRESHOLD);
        // Identical runs recorded against identical registries share
        // sites, so the merged profile has the same sites with doubled
        // counters.
        assert_eq!(merged.total_sites(), single.total_sites());
        assert_eq!(merged.total_objects(), 2 * single.total_objects());
        assert_eq!(merged.total_bytes(), 2 * single.total_bytes());
        assert_eq!(merged.program(), "mixed+mixed");
        for (key, stats) in single.sites() {
            assert_eq!(
                merged.site(key).expect("shared site").objects,
                2 * stats.objects
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn build_many_rejects_empty_input() {
        let _ = Profile::build_many(
            std::iter::empty::<&Trace>(),
            &SiteConfig::default(),
            DEFAULT_THRESHOLD,
        );
    }

    #[test]
    fn empty_trace_profile() {
        let s = TraceSession::new("empty");
        let trace = s.finish();
        let p = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        assert_eq!(p.total_sites(), 0);
        assert_eq!(p.actual_short_bytes_pct(), 0.0);
    }
}
