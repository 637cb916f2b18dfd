//! Differential test of the learner's epoch end: the shipped
//! [`OnlineLearner`] visits only the sites active this epoch, while
//! the reference model below scans every site ever seen at every epoch
//! boundary, as the rule is stated. Random op sequences over a small
//! key space must leave both in the same observable state after every
//! op.

use lifepred_adaptive::{EpochAgg, EpochConfig, LearnerStats, OnlineLearner};
use lifepred_quantile::P2Quantile;
use proptest::prelude::*;
use std::collections::HashMap;

/// Keys the ops draw from: few enough that sites go idle, come back
/// and collide within one epoch.
const KEYS: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Observing,
    Short,
    Demoted,
}

#[derive(Debug)]
struct RefSite {
    phase: Phase,
    clean_run: u32,
    tail: P2Quantile,
    epoch_frees: u64,
    epoch_long: u64,
}

/// The reference learner: the same rules, with an epoch end that
/// walks every site.
struct Reference {
    cfg: EpochConfig,
    clock: u64,
    next_epoch_at: u64,
    generation: u64,
    sites: HashMap<u64, RefSite>,
    stats: LearnerStats,
}

impl Reference {
    fn new(cfg: EpochConfig) -> Self {
        Reference {
            cfg,
            clock: 0,
            next_epoch_at: cfg.epoch_bytes,
            generation: 0,
            sites: HashMap::new(),
            stats: LearnerStats::default(),
        }
    }

    fn site(&mut self, key: u64) -> &mut RefSite {
        let q = self.cfg.tail_quantile;
        self.sites.entry(key).or_insert_with(|| RefSite {
            phase: Phase::Observing,
            clean_run: 0,
            tail: P2Quantile::new(q),
            epoch_frees: 0,
            epoch_long: 0,
        })
    }

    fn demote(&mut self, key: u64) {
        let q = self.cfg.tail_quantile;
        let site = self.site(key);
        if site.phase == Phase::Short {
            site.phase = Phase::Demoted;
            site.clean_run = 0;
            site.tail = P2Quantile::new(q);
            self.stats.demotions += 1;
            self.generation += 1;
        }
    }

    fn record_alloc(&mut self, key: u64, size: u64) -> bool {
        self.clock += size;
        self.roll_due();
        let predicted = self.site(key).phase == Phase::Short;
        self.stats.total_allocs += 1;
        self.stats.total_bytes += size;
        if predicted {
            self.stats.predicted_allocs += 1;
            self.stats.predicted_bytes += size;
        }
        predicted
    }

    fn record_free(&mut self, key: u64, size: u64, birth: u64, predicted: bool) {
        let lifetime = self.clock.saturating_sub(birth);
        let long = lifetime >= self.cfg.threshold;
        self.stats.total_frees += 1;
        let site = self.site(key);
        site.epoch_frees += 1;
        site.tail.observe(lifetime as f64);
        if long {
            site.epoch_long += 1;
            self.stats.long_frees += 1;
            if predicted {
                self.stats.mispredictions += 1;
                self.stats.error_bytes += size;
            }
            self.demote(key);
        }
    }

    fn note_pinned(&mut self, key: u64, size: u64) {
        self.stats.mispredictions += 1;
        self.stats.error_bytes += size;
        self.site(key).epoch_long += 1;
        self.demote(key);
    }

    fn absorb(&mut self, key: u64, agg: &EpochAgg) {
        self.stats.total_allocs += agg.allocs;
        self.stats.total_bytes += agg.alloc_bytes;
        self.stats.predicted_allocs += agg.predicted_allocs;
        self.stats.predicted_bytes += agg.predicted_bytes;
        self.stats.total_frees += agg.frees;
        self.stats.long_frees += agg.long_frees;
        let site = self.site(key);
        site.epoch_frees += agg.frees;
        site.epoch_long += agg.long_frees;
        for &lifetime in &agg.samples {
            site.tail.observe(lifetime as f64);
        }
        if agg.long_frees > 0 {
            self.demote(key);
        }
    }

    fn advance_clock(&mut self, to: u64) {
        self.clock = self.clock.max(to);
        self.roll_due();
    }

    fn roll_epoch(&mut self) {
        self.end_epoch();
        self.next_epoch_at = self.clock + self.cfg.epoch_bytes;
    }

    fn roll_due(&mut self) {
        while self.clock >= self.next_epoch_at {
            self.next_epoch_at += self.cfg.epoch_bytes;
            self.end_epoch();
        }
    }

    /// Every site, every epoch.
    fn end_epoch(&mut self) {
        let cfg = self.cfg;
        for site in self.sites.values_mut() {
            if site.epoch_long > 0 {
                site.clean_run = 0;
                site.tail = P2Quantile::new(cfg.tail_quantile);
                if site.phase == Phase::Short {
                    site.phase = Phase::Demoted;
                    self.stats.demotions += 1;
                    self.generation += 1;
                }
            } else if site.epoch_frees > 0 && site.epoch_frees >= cfg.min_epoch_frees {
                site.clean_run = site.clean_run.saturating_add(1);
                let tail_ok = site.tail.count() < 5 || site.tail.estimate() < cfg.threshold as f64;
                let needed = match site.phase {
                    Phase::Observing => Some(cfg.promote_epochs),
                    Phase::Demoted => Some(cfg.requalify_epochs),
                    Phase::Short => None,
                };
                if needed.is_some_and(|n| site.clean_run >= n) && tail_ok {
                    site.phase = Phase::Short;
                    site.clean_run = 0;
                    self.stats.promotions += 1;
                    self.generation += 1;
                }
            }
            site.epoch_frees = 0;
            site.epoch_long = 0;
        }
        self.stats.epochs += 1;
    }

    fn stats(&self) -> LearnerStats {
        let mut s = self.stats;
        s.sites = self.sites.len() as u64;
        s.short_sites = self
            .sites
            .values()
            .filter(|s| s.phase == Phase::Short)
            .count() as u64;
        s
    }

    fn predicts(&self, key: u64) -> bool {
        self.sites
            .get(&key)
            .is_some_and(|s| s.phase == Phase::Short)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate at a site; the object is kept for a later `Free`.
    Alloc {
        key: u64,
        size: u64,
    },
    /// Free the `pick`-th live object (if any).
    Free {
        pick: usize,
    },
    /// Free an object born `age` bytes ago, never allocated through
    /// the learner (feedback from elsewhere).
    FreeAged {
        key: u64,
        size: u64,
        age: u64,
        predicted: bool,
    },
    NotePinned {
        key: u64,
        size: u64,
    },
    Absorb {
        key: u64,
        agg: EpochAgg,
    },
    RollEpoch,
    /// Jump the clock forward, possibly across several epochs.
    Advance {
        by: u64,
    },
}

fn agg_strategy() -> impl Strategy<Value = EpochAgg> {
    (
        0u64..4,
        0u64..4,
        0u64..3,
        proptest::collection::vec(0u64..4096, 0..4),
    )
        .prop_map(|(allocs, frees, long_frees, samples)| {
            let mut agg = EpochAgg {
                allocs,
                alloc_bytes: allocs * 48,
                predicted_allocs: allocs / 2,
                predicted_bytes: allocs / 2 * 48,
                frees,
                long_frees,
                ..EpochAgg::default()
            };
            agg.samples = samples;
            agg
        })
}

/// Ops in rough proportion to real traffic: allocations and frees
/// dominate, feedback and clock jumps are rarer.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..18,
        0..KEYS,
        1u64..512,
        0u64..8000,
        any::<usize>(),
        agg_strategy(),
    )
        .prop_map(|(pick, key, size, span, n, agg)| match pick {
            0..=5 => Op::Alloc { key, size },
            6..=10 => Op::Free { pick: n },
            11..=12 => Op::FreeAged {
                key,
                size,
                age: span % 3000,
                predicted: n % 2 == 0,
            },
            13 => Op::NotePinned { key, size },
            14..=15 => Op::Absorb { key, agg },
            16 => Op::RollEpoch,
            _ => Op::Advance { by: span },
        })
}

fn config_strategy() -> impl Strategy<Value = EpochConfig> {
    (1u32..3, 1u32..4, 1u64..4).prop_map(|(promote, requalify, min_frees)| EpochConfig {
        threshold: 1024,
        epoch_bytes: 2048,
        promote_epochs: promote,
        requalify_epochs: requalify,
        min_epoch_frees: min_frees,
        tail_quantile: 0.9,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn active_site_epoch_end_matches_full_scan(
        cfg in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut learner = OnlineLearner::new(cfg);
        let mut oracle = Reference::new(cfg);
        // Live objects: (key, size, birth clock, alloc-time prediction).
        let mut live: Vec<(u64, u64, u64, bool)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Alloc { key, size } => {
                    let birth = learner.clock();
                    let p = learner.record_alloc(*key, *size);
                    prop_assert_eq!(p, oracle.record_alloc(*key, *size), "step {}", step);
                    live.push((*key, *size, birth, p));
                }
                Op::Free { pick } => {
                    if !live.is_empty() {
                        let (key, size, birth, p) = live.swap_remove(pick % live.len());
                        learner.record_free(key, size, birth, p);
                        oracle.record_free(key, size, birth, p);
                    }
                }
                Op::FreeAged { key, size, age, predicted } => {
                    let birth = learner.clock().saturating_sub(*age);
                    learner.record_free(*key, *size, birth, *predicted);
                    oracle.record_free(*key, *size, birth, *predicted);
                }
                Op::NotePinned { key, size } => {
                    learner.note_pinned(*key, *size);
                    oracle.note_pinned(*key, *size);
                }
                Op::Absorb { key, agg } => {
                    learner.absorb(*key, agg);
                    oracle.absorb(*key, agg);
                }
                Op::RollEpoch => {
                    learner.roll_epoch();
                    oracle.roll_epoch();
                }
                Op::Advance { by } => {
                    let to = learner.clock() + by;
                    learner.advance_clock(to);
                    oracle.advance_clock(to);
                }
            }
            prop_assert_eq!(learner.stats(), oracle.stats(), "step {}: {:?}", step, op);
            prop_assert_eq!(learner.generation(), oracle.generation, "step {}", step);
            prop_assert_eq!(learner.epochs(), oracle.stats.epochs, "step {}", step);
            for key in 0..KEYS {
                prop_assert_eq!(learner.predicts(key), oracle.predicts(key), "step {} key {}", step, key);
            }
        }
    }
}
