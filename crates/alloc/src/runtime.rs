//! The runtime arena allocator (real memory, not simulation).

use crate::database::RuntimeSiteDb;
use crate::obs::AllocObs;
use crate::site::{site_key, SiteKey};
use lifepred_obs::{Registry, Timer};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::ptr;

/// Geometry of the runtime arena area (paper defaults: 16 × 4 KB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeArenaConfig {
    /// Number of arenas.
    pub arena_count: usize,
    /// Bytes per arena.
    pub arena_size: usize,
}

impl Default for RuntimeArenaConfig {
    fn default() -> Self {
        RuntimeArenaConfig {
            arena_count: 16,
            arena_size: 4096,
        }
    }
}

/// Environment variable overriding the default arena geometry:
/// `LIFEPRED_ARENAS=count,size` (e.g. `32,8192`).
pub const ARENA_ENV: &str = "LIFEPRED_ARENAS";

impl RuntimeArenaConfig {
    /// Total bytes of the arena area.
    ///
    /// # Panics
    ///
    /// Panics when `arena_count * arena_size` overflows `usize` — a
    /// geometry that cannot exist must fail loudly, not wrap into a
    /// tiny area ([`parse_spec`](Self::parse_spec) already rejects
    /// such specs; this guards hand-built configs).
    pub fn total_bytes(&self) -> usize {
        self.arena_count
            .checked_mul(self.arena_size)
            .expect("arena geometry overflows usize")
    }

    /// Parses a `count,size` geometry spec (the [`ARENA_ENV`] format).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed syntax, a zero count/size, more
    /// than 65536 arenas, arenas under 64 bytes or over 1 GiB, or a
    /// total area overflowing `usize`.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let (count, size) = spec
            .split_once(',')
            .ok_or_else(|| format!("{ARENA_ENV}: expected count,size, got {spec:?}"))?;
        let arena_count: usize = count
            .trim()
            .parse()
            .map_err(|e| format!("{ARENA_ENV}: bad arena count {count:?}: {e}"))?;
        let arena_size: usize = size
            .trim()
            .parse()
            .map_err(|e| format!("{ARENA_ENV}: bad arena size {size:?}: {e}"))?;
        if arena_count == 0 || arena_count > 65536 {
            return Err(format!(
                "{ARENA_ENV}: arena count must be in 1..=65536, got {arena_count}"
            ));
        }
        if !(64..=1 << 30).contains(&arena_size) {
            return Err(format!(
                "{ARENA_ENV}: arena size must be in 64..=1 GiB, got {arena_size}"
            ));
        }
        if arena_count.checked_mul(arena_size).is_none() {
            return Err(format!(
                "{ARENA_ENV}: total area {arena_count}*{arena_size} overflows"
            ));
        }
        Ok(RuntimeArenaConfig {
            arena_count,
            arena_size,
        })
    }

    /// Reads the [`ARENA_ENV`] override, if set.
    ///
    /// # Errors
    ///
    /// Returns the [`RuntimeArenaConfig::parse_spec`] message when the
    /// variable is set but malformed, and a dedicated message when it
    /// is set but not valid Unicode. A set-but-broken variable must
    /// never be silently treated as "not set": the operator asked for
    /// specific geometry and would otherwise run with defaults.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(ARENA_ENV) {
            Ok(spec) => RuntimeArenaConfig::parse_spec(&spec).map(Some),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => Err(format!(
                "{ARENA_ENV}: value is not valid Unicode ({raw:?}); \
                 expected count,size"
            )),
        }
    }

    /// The largest layout alignment the arena path can honour with
    /// this geometry.
    ///
    /// Arenas start at multiples of `arena_size` from a 4096-aligned
    /// base, so a pointer bumped within an arena is only guaranteed
    /// aligned when the requested alignment divides `arena_size` (and
    /// is at most 4096, the base alignment). Allocators route layouts
    /// with a larger alignment to the system allocator instead of
    /// returning a misaligned arena pointer.
    pub fn max_served_align(&self) -> usize {
        1usize << self.arena_size.trailing_zeros().min(12)
    }

    /// The startup geometry: the [`ARENA_ENV`] override when set, the
    /// paper's 16 × 4 KB otherwise.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but malformed — a misconfigured
    /// allocator should fail loudly at startup, not run with silently
    /// substituted geometry.
    pub fn startup() -> Self {
        RuntimeArenaConfig::from_env()
            .expect("malformed LIFEPRED_ARENAS")
            .unwrap_or_default()
    }
}

/// Counters describing how the allocator has behaved so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Allocations served by bump-pointer arenas.
    pub arena_allocs: u64,
    /// Allocations served by the system allocator.
    pub general_allocs: u64,
    /// Frees that decremented an arena live count.
    pub arena_frees: u64,
    /// Frees forwarded to the system allocator.
    pub general_frees: u64,
    /// Arena resets (exhausted chain found an empty arena).
    pub arena_resets: u64,
    /// Predicted-short allocations that had to fall back (all arenas
    /// pinned, or the object was larger than an arena).
    pub overflows: u64,
    /// Frees of arena addresses whose arena had no live objects — a
    /// double free (or a stray pointer into the arena area). Counted
    /// and ignored instead of corrupting the live counts.
    pub double_frees: u64,
    /// Snapshot: bytes currently bump-allocated across all arenas
    /// (occupancy since each arena's last reset).
    pub arena_used_bytes: u64,
    /// Snapshot: total capacity of the arena area in bytes.
    pub arena_total_bytes: u64,
    /// Snapshot: bytes sitting in arenas that still hold live objects —
    /// memory that cannot be reclaimed by an arena reset.
    pub pinned_arena_bytes: u64,
    /// Snapshot: number of arenas behind the snapshot fields (one
    /// shard's geometry for per-shard stats, the sum for merged ones).
    pub arena_count: u64,
}

impl RuntimeStats {
    /// Arena occupancy: used bytes as a percentage of capacity.
    pub fn utilization_pct(&self) -> f64 {
        stats_pct(self.arena_used_bytes, self.arena_total_bytes)
    }

    /// Arena fragmentation: bytes pinned by live objects (unreclaimable
    /// by a reset) as a percentage of capacity.
    pub fn fragmentation_pct(&self) -> f64 {
        stats_pct(self.pinned_arena_bytes, self.arena_total_bytes)
    }

    /// Field-wise sum — combines per-shard counters into totals.
    ///
    /// The documented merge rule: counters saturate rather than wrap
    /// past `u64::MAX`; the snapshot fields (`arena_used_bytes`,
    /// `arena_total_bytes`, `pinned_arena_bytes`, `arena_count`) sum,
    /// so [`utilization_pct`](Self::utilization_pct) and
    /// [`fragmentation_pct`](Self::fragmentation_pct) of a merged
    /// report are **capacity-weighted averages** — the per-arena
    /// distribution is not preserved. When the two sides use different
    /// per-arena sizes those weighted averages can mask a hot shard;
    /// use [`checked_merged`](Self::checked_merged) to reject such
    /// merges instead of averaging over them.
    pub fn merged(&self, other: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            arena_allocs: self.arena_allocs.saturating_add(other.arena_allocs),
            general_allocs: self.general_allocs.saturating_add(other.general_allocs),
            arena_frees: self.arena_frees.saturating_add(other.arena_frees),
            general_frees: self.general_frees.saturating_add(other.general_frees),
            arena_resets: self.arena_resets.saturating_add(other.arena_resets),
            overflows: self.overflows.saturating_add(other.overflows),
            double_frees: self.double_frees.saturating_add(other.double_frees),
            arena_used_bytes: self.arena_used_bytes.saturating_add(other.arena_used_bytes),
            arena_total_bytes: self
                .arena_total_bytes
                .saturating_add(other.arena_total_bytes),
            pinned_arena_bytes: self
                .pinned_arena_bytes
                .saturating_add(other.pinned_arena_bytes),
            arena_count: self.arena_count.saturating_add(other.arena_count),
        }
    }

    /// Like [`merged`](Self::merged), but refuses to blend snapshots
    /// taken over different arena geometries: if both sides carry
    /// arenas and their per-arena sizes differ, the merged
    /// utilization/fragmentation percentages would be capacity-weighted
    /// over incomparable units, silently losing the per-arena detail.
    ///
    /// # Errors
    ///
    /// [`StatsMergeError`] with both geometries when they disagree.
    pub fn checked_merged(&self, other: &RuntimeStats) -> Result<RuntimeStats, StatsMergeError> {
        let per_arena =
            |s: &RuntimeStats| (s.arena_count > 0).then(|| s.arena_total_bytes / s.arena_count);
        if let (Some(a), Some(b)) = (per_arena(self), per_arena(other)) {
            if a != b {
                return Err(StatsMergeError {
                    left_arenas: self.arena_count,
                    left_arena_bytes: a,
                    right_arenas: other.arena_count,
                    right_arena_bytes: b,
                });
            }
        }
        Ok(self.merged(other))
    }

    /// Exports every field as a `lifepred_runtime_*` gauge in
    /// `registry` (the migration path off hand-rolled stats structs:
    /// renderers read the registry, not this struct).
    pub fn export(&self, registry: &Registry) {
        registry
            .gauge("lifepred_runtime_arena_allocs")
            .set(self.arena_allocs);
        registry
            .gauge("lifepred_runtime_general_allocs")
            .set(self.general_allocs);
        registry
            .gauge("lifepred_runtime_arena_frees")
            .set(self.arena_frees);
        registry
            .gauge("lifepred_runtime_general_frees")
            .set(self.general_frees);
        registry
            .gauge("lifepred_runtime_arena_resets")
            .set(self.arena_resets);
        registry
            .gauge("lifepred_runtime_overflows")
            .set(self.overflows);
        registry
            .gauge("lifepred_runtime_double_frees")
            .set(self.double_frees);
        registry
            .gauge("lifepred_runtime_arena_used_bytes")
            .set(self.arena_used_bytes);
        registry
            .gauge("lifepred_runtime_arena_total_bytes")
            .set(self.arena_total_bytes);
        registry
            .gauge("lifepred_runtime_pinned_arena_bytes")
            .set(self.pinned_arena_bytes);
        registry
            .gauge("lifepred_runtime_arena_count")
            .set(self.arena_count);
    }
}

/// Refusal to merge [`RuntimeStats`] snapshots taken over different
/// arena geometries (see [`RuntimeStats::checked_merged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsMergeError {
    /// Arena count on the left side.
    pub left_arenas: u64,
    /// Per-arena bytes on the left side.
    pub left_arena_bytes: u64,
    /// Arena count on the right side.
    pub right_arenas: u64,
    /// Per-arena bytes on the right side.
    pub right_arena_bytes: u64,
}

impl fmt::Display for StatsMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot merge stats over different arena geometries: \
             {}×{} B vs {}×{} B (percentages would average incomparable arenas)",
            self.left_arenas, self.left_arena_bytes, self.right_arenas, self.right_arena_bytes
        )
    }
}

impl std::error::Error for StatsMergeError {}

fn stats_pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArenaState {
    pub(crate) used: usize,
    pub(crate) live: u32,
}

/// Fills the snapshot fields of `stats` from arena states.
pub(crate) fn fill_arena_snapshot(
    stats: &mut RuntimeStats,
    arenas: &[ArenaState],
    arena_size: usize,
) {
    stats.arena_count = arenas.len() as u64;
    stats.arena_total_bytes = (arenas.len() as u64).saturating_mul(arena_size as u64);
    stats.arena_used_bytes = arenas.iter().map(|a| a.used as u64).sum();
    stats.pinned_arena_bytes = arenas
        .iter()
        .filter(|a| a.live > 0)
        .map(|a| a.used as u64)
        .sum();
}

#[derive(Debug)]
struct Inner {
    arenas: Vec<ArenaState>,
    current: usize,
    stats: RuntimeStats,
}

/// A lifetime-predicting allocator over real memory.
///
/// Allocations whose (site, size-class) is in the trained
/// [`RuntimeSiteDb`] are bump-allocated into fixed arenas with a live
/// count and no per-object header; everything else goes to the system
/// allocator. Frees route by address range, exactly as in §5.1 of the
/// paper.
///
/// The type also implements [`GlobalAlloc`]; in that mode the site is
/// the ambient [`SiteScope`](crate::SiteScope) chain key, captured at
/// allocation time.
#[derive(Debug)]
pub struct PredictiveAllocator {
    config: RuntimeArenaConfig,
    db: RuntimeSiteDb,
    /// Base of the arena area; owned, freed on drop.
    base: *mut u8,
    inner: Mutex<Inner>,
    /// Metric handles when a registry is attached; the hot path pays
    /// one sharded Relaxed add per event, nothing when detached.
    obs: Option<AllocObs>,
}

// SAFETY: the raw base pointer is only read concurrently; all mutable
// bookkeeping sits behind the mutex, and the arena memory itself is
// handed out in disjoint chunks.
unsafe impl Send for PredictiveAllocator {}
// SAFETY: as above — shared access is mediated by the internal mutex;
// the arena base pointer itself is never written after construction.
unsafe impl Sync for PredictiveAllocator {}

impl PredictiveAllocator {
    /// Creates an allocator with an empty database (everything goes to
    /// the system allocator) and default geometry.
    pub fn new() -> Self {
        PredictiveAllocator::with_database(RuntimeSiteDb::default())
    }

    /// Creates an allocator driven by a trained database, with the
    /// startup geometry (the `LIFEPRED_ARENAS` environment override
    /// when set, the paper's 16 × 4 KB otherwise).
    ///
    /// # Panics
    ///
    /// Panics when `LIFEPRED_ARENAS` is set but malformed (see
    /// [`RuntimeArenaConfig::startup`]).
    pub fn with_database(db: RuntimeSiteDb) -> Self {
        PredictiveAllocator::with_config(db, RuntimeArenaConfig::startup())
    }

    /// Creates an allocator with explicit arena geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is empty or the arena area cannot be
    /// allocated.
    pub fn with_config(db: RuntimeSiteDb, config: RuntimeArenaConfig) -> Self {
        assert!(
            config.arena_count > 0 && config.arena_size > 0,
            "empty geometry"
        );
        let layout =
            Layout::from_size_align(config.total_bytes(), 4096).expect("arena area layout");
        // SAFETY: layout has nonzero size.
        let base = unsafe { System.alloc(layout) };
        assert!(!base.is_null(), "arena area allocation failed");
        PredictiveAllocator {
            config,
            db,
            base,
            inner: Mutex::new(Inner {
                arenas: vec![ArenaState::default(); config.arena_count],
                current: 0,
                stats: RuntimeStats::default(),
            }),
            obs: None,
        }
    }

    /// The arena geometry.
    pub fn config(&self) -> &RuntimeArenaConfig {
        &self.config
    }

    /// Attaches the `lifepred_alloc_*` metric set from `registry` to
    /// this allocator's hot path. Call before sharing the allocator;
    /// pair with [`export_metrics`](Self::export_metrics) for the
    /// snapshot gauges.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.obs = Some(AllocObs::register(registry));
    }

    /// Exports the current [`RuntimeStats`] as `lifepred_runtime_*`
    /// gauges in `registry` (an export-time operation — call it when a
    /// report is wanted, not per allocation).
    pub fn export_metrics(&self, registry: &Registry) {
        self.stats().export(registry);
    }

    /// Counters so far, with arena utilization snapshot fields filled
    /// in at call time.
    pub fn stats(&self) -> RuntimeStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        fill_arena_snapshot(&mut stats, &inner.arenas, self.config.arena_size);
        stats
    }

    /// Whether `ptr` points into the arena area.
    pub fn is_arena_ptr(&self, ptr: *mut u8) -> bool {
        // Wrapping subtraction folds the two range checks into one
        // compare with no overflowable `base + len` addition (same
        // shape as `ShardedAllocator::is_arena_ptr`).
        (ptr as usize).wrapping_sub(self.base as usize) < self.config.total_bytes()
    }

    /// Allocates memory for `layout`, deciding by `site`.
    ///
    /// Returns null on failure (or for zero-size layouts). The
    /// returned memory must be released with
    /// [`PredictiveAllocator::deallocate`] while this allocator is
    /// still alive.
    pub fn allocate(&self, site: SiteKey, layout: Layout) -> *mut u8 {
        if layout.size() == 0 {
            return ptr::null_mut();
        }
        let timer = Timer::start();
        let p = self.allocate_inner(site, layout);
        if let Some(obs) = &self.obs {
            obs.on_alloc(layout.size() as u64, self.is_arena_ptr(p));
            timer.observe_ns(&obs.latency_ns);
        }
        p
    }

    fn allocate_inner(&self, site: SiteKey, layout: Layout) -> *mut u8 {
        let keyed = site.with_size(layout.size());
        let predicted = self.db.predicts(keyed);
        let need = layout.size();
        // Alignments beyond max_served_align cannot be honoured from
        // arena starts (multiples of arena_size): system path.
        if !predicted
            || need > self.config.arena_size
            || layout.align() > self.config.max_served_align()
        {
            let mut inner = self.inner.lock();
            if predicted {
                inner.stats.overflows += 1;
                if let Some(obs) = &self.obs {
                    obs.overflows_total.inc();
                }
            }
            inner.stats.general_allocs += 1;
            drop(inner);
            // SAFETY: nonzero size checked above.
            return unsafe { System.alloc(layout) };
        }
        let mut inner = self.inner.lock();
        // Fast path: bump the current arena.
        let current = inner.current;
        if let Some(p) = self.bump(&mut inner, current, layout) {
            return p;
        }
        // Scan for an empty arena and reset it.
        if let Some(idx) = inner.arenas.iter().position(|a| a.live == 0) {
            inner.arenas[idx] = ArenaState::default();
            inner.current = idx;
            inner.stats.arena_resets += 1;
            if let Some(p) = self.bump(&mut inner, idx, layout) {
                return p;
            }
        }
        // All arenas pinned: degenerate to the general allocator.
        inner.stats.overflows += 1;
        inner.stats.general_allocs += 1;
        if let Some(obs) = &self.obs {
            obs.overflows_total.inc();
        }
        drop(inner);
        // SAFETY: nonzero size checked above.
        unsafe { System.alloc(layout) }
    }

    fn bump(&self, inner: &mut Inner, idx: usize, layout: Layout) -> Option<*mut u8> {
        // Checked throughout: any overflow means "does not fit" and
        // falls back exactly like an exhausted arena.
        let arena_base = idx.checked_mul(self.config.arena_size)?;
        let arena = &mut inner.arenas[idx];
        let offset = align_up(arena.used, layout.align())?;
        let end = offset.checked_add(layout.size())?;
        if end > self.config.arena_size {
            return None;
        }
        arena.used = end;
        arena.live += 1;
        inner.stats.arena_allocs += 1;
        let area_offset = arena_base.checked_add(offset)?;
        // SAFETY: area_offset + size <= total area size, so the
        // resulting pointer is inside the owned area allocation;
        // `allocate` only admits alignments that divide arena_size (and
        // the 4096 base alignment), so base + area_offset honours
        // layout.align().
        Some(unsafe { self.base.add(area_offset) })
    }

    /// Releases memory obtained from [`PredictiveAllocator::allocate`].
    ///
    /// # Safety
    ///
    /// `ptr` must come from `allocate` on this same allocator with the
    /// same `layout`, and must not be used afterwards.
    pub unsafe fn deallocate(&self, ptr: *mut u8, layout: Layout) {
        if ptr.is_null() {
            return;
        }
        if let Some(obs) = &self.obs {
            obs.frees_total.inc();
        }
        if self.is_arena_ptr(ptr) {
            let offset = ptr as usize - self.base as usize;
            let idx = offset / self.config.arena_size;
            let mut inner = self.inner.lock();
            let arena = &mut inner.arenas[idx];
            if arena.live == 0 {
                // Double free (or stray arena pointer): counted, not
                // masked — decrementing would corrupt another object's
                // accounting.
                inner.stats.double_frees += 1;
                if let Some(obs) = &self.obs {
                    obs.double_frees_total.inc();
                }
                return;
            }
            arena.live -= 1;
            inner.stats.arena_frees += 1;
        } else {
            self.inner.lock().stats.general_frees += 1;
            // SAFETY: forwarded from `allocate`'s system path per the
            // caller contract.
            unsafe { System.dealloc(ptr, layout) };
        }
    }

    /// Live objects across all arenas.
    pub fn arena_live_objects(&self) -> u64 {
        self.inner
            .lock()
            .arenas
            .iter()
            .map(|a| u64::from(a.live))
            .sum()
    }
}

impl Default for PredictiveAllocator {
    fn default() -> Self {
        PredictiveAllocator::new()
    }
}

impl Drop for PredictiveAllocator {
    fn drop(&mut self) {
        let layout =
            Layout::from_size_align(self.config.total_bytes(), 4096).expect("arena area layout");
        // SAFETY: base was allocated with exactly this layout in
        // `with_config` and is not referenced after drop.
        unsafe { System.dealloc(self.base, layout) };
    }
}

// SAFETY: allocate/deallocate satisfy the GlobalAlloc contract:
// allocate returns either null or a block valid for `layout`, and
// deallocate is only called (per contract) with blocks from alloc.
unsafe impl GlobalAlloc for PredictiveAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // The ambient SiteScope chain identifies the site; the leaf
        // location inside this function is constant, so discrimination
        // comes from the scopes plus the size class.
        self.allocate(site_key(), layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: per the GlobalAlloc contract, ptr came from alloc.
        unsafe { self.deallocate(ptr, layout) };
    }
}

/// Rounds `offset` up to a multiple of `align` (a power of two, per
/// `Layout`'s contract); `None` when the rounding would overflow.
pub(crate) fn align_up(offset: usize, align: usize) -> Option<usize> {
    offset.checked_next_multiple_of(align)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::RuntimeProfiler;
    use crate::site::SiteScope;

    fn layout(n: usize) -> Layout {
        Layout::from_size_align(n, 8).expect("layout")
    }

    fn trained_db(site: SiteKey, size: usize) -> RuntimeSiteDb {
        let mut db = RuntimeSiteDb::new(32 * 1024);
        db.insert(site.with_size(size));
        db
    }

    #[test]
    fn predicted_sites_use_arenas() {
        let site = site_key();
        let heap = PredictiveAllocator::with_database(trained_db(site, 64));
        let p = heap.allocate(site, layout(64));
        assert!(heap.is_arena_ptr(p));
        assert_eq!(heap.arena_live_objects(), 1);
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout(64)) };
        assert_eq!(heap.arena_live_objects(), 0);
        assert_eq!(heap.stats().arena_allocs, 1);
        assert_eq!(heap.stats().arena_frees, 1);
    }

    #[test]
    fn unpredicted_sites_use_system() {
        let site = site_key();
        let heap = PredictiveAllocator::new();
        let p = heap.allocate(site, layout(64));
        assert!(!p.is_null());
        assert!(!heap.is_arena_ptr(p));
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout(64)) };
        assert_eq!(heap.stats().general_allocs, 1);
        assert_eq!(heap.stats().general_frees, 1);
    }

    #[test]
    fn arena_memory_is_usable_and_disjoint() {
        let site = site_key();
        let heap = PredictiveAllocator::with_database(trained_db(site, 16));
        let mut ptrs = Vec::new();
        for i in 0..100u8 {
            let p = heap.allocate(site, layout(16));
            assert!(heap.is_arena_ptr(p));
            // SAFETY: p is a live allocation at least this large.
            unsafe { ptr::write_bytes(p, i, 16) };
            ptrs.push(p);
        }
        for (i, &p) in ptrs.iter().enumerate() {
            // Values must still be intact: chunks are disjoint.
            // SAFETY: p is a live allocation at least this large.
            let v = unsafe { *p };
            assert_eq!(v, i as u8);
        }
        for p in ptrs {
            // SAFETY: the pointer came from this heap's allocate with
            // the same layout and is freed exactly once.
            unsafe { heap.deallocate(p, layout(16)) };
        }
    }

    #[test]
    fn exhausted_arenas_reset_when_empty() {
        let site = site_key();
        let heap = PredictiveAllocator::with_config(
            trained_db(site, 512),
            RuntimeArenaConfig {
                arena_count: 2,
                arena_size: 1024,
            },
        );
        for _ in 0..50 {
            let p = heap.allocate(site, layout(512));
            assert!(heap.is_arena_ptr(p));
            // SAFETY: the pointer came from this heap's allocate with
            // the same layout and is freed exactly once.
            unsafe { heap.deallocate(p, layout(512)) };
        }
        assert!(heap.stats().arena_resets > 0);
        assert_eq!(heap.stats().overflows, 0);
    }

    #[test]
    fn pinned_arenas_overflow_to_system() {
        let site = site_key();
        let heap = PredictiveAllocator::with_config(
            trained_db(site, 512),
            RuntimeArenaConfig {
                arena_count: 2,
                arena_size: 1024,
            },
        );
        // Pin every arena with a live object.
        let pins: Vec<*mut u8> = (0..4).map(|_| heap.allocate(site, layout(512))).collect();
        let p = heap.allocate(site, layout(512));
        assert!(!p.is_null());
        assert!(!heap.is_arena_ptr(p), "should fall back when pinned");
        assert!(heap.stats().overflows >= 1);
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout(512)) };
        for pin in pins {
            // SAFETY: the pointer came from this heap's allocate with
            // the same layout and is freed exactly once.
            unsafe { heap.deallocate(pin, layout(512)) };
        }
    }

    #[test]
    fn end_to_end_profile_then_predict() {
        // Train on a phase...
        let profiler = RuntimeProfiler::new(32 * 1024);
        let site = {
            let _s = SiteScope::enter("hot_phase");
            site_key()
        };
        {
            let _s = SiteScope::enter("hot_phase");
            for _ in 0..1000 {
                let t = profiler.record_alloc(site, 40);
                profiler.record_free(t);
            }
        }
        let db = profiler.train();
        assert!(!db.is_empty());

        // ...then run with prediction: the same site hits arenas.
        let heap = PredictiveAllocator::with_database(db);
        let p = heap.allocate(site, layout(40));
        assert!(heap.is_arena_ptr(p));
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout(40)) };
    }

    #[test]
    fn global_alloc_contract() {
        let site = site_key();
        let heap = PredictiveAllocator::with_database(trained_db(site, 32));
        // Through the GlobalAlloc interface the leaf site differs, so
        // this goes to the system path — but must still be valid.
        let l = layout(32);
        // SAFETY: the layout has nonzero size.
        let p = unsafe { GlobalAlloc::alloc(&heap, l) };
        assert!(!p.is_null());
        // SAFETY: p is a live allocation at least this large.
        unsafe { ptr::write_bytes(p, 7, 32) };
        // SAFETY: p came from this allocator's alloc with the
        // same layout and is freed exactly once.
        unsafe { GlobalAlloc::dealloc(&heap, p, l) };
    }

    #[test]
    fn alignment_respected_in_arenas() {
        let site = site_key();
        let mut db = RuntimeSiteDb::new(32 * 1024);
        db.insert(site.with_size(24));
        db.insert(site.with_size(64));
        let heap = PredictiveAllocator::with_database(db);
        let a = heap.allocate(site, Layout::from_size_align(24, 8).expect("l"));
        let b = heap.allocate(site, Layout::from_size_align(64, 64).expect("l"));
        assert_eq!(b as usize % 64, 0, "alignment violated");
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe {
            heap.deallocate(a, Layout::from_size_align(24, 8).expect("l"));
            heap.deallocate(b, Layout::from_size_align(64, 64).expect("l"));
        }
    }

    #[test]
    fn zero_size_returns_null() {
        let heap = PredictiveAllocator::new();
        let p = heap.allocate(site_key(), Layout::from_size_align(0, 1).expect("l"));
        assert!(p.is_null());
    }

    #[test]
    fn alignment_beyond_arena_starts_routes_to_system() {
        let site = site_key();
        // 1024-byte arenas: arena 1 starts 1024 bytes past the
        // 4096-aligned base, so a 2048-align request cannot be served
        // from the arenas without risking a misaligned pointer.
        let heap = PredictiveAllocator::with_config(
            trained_db(site, 64),
            RuntimeArenaConfig {
                arena_count: 4,
                arena_size: 1024,
            },
        );
        let l = Layout::from_size_align(64, 2048).expect("l");
        let p = heap.allocate(site, l);
        assert!(!p.is_null());
        assert!(!heap.is_arena_ptr(p), "must not come from an arena");
        assert_eq!(p as usize % 2048, 0, "alignment violated");
        assert!(heap.stats().overflows >= 1, "routed as an overflow");
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, l) };
    }

    #[test]
    fn non_power_of_two_arena_size_limits_served_alignment() {
        // 96 = 32·3: arena starts are only guaranteed 32-aligned.
        let cfg = RuntimeArenaConfig {
            arena_count: 4,
            arena_size: 96,
        };
        assert_eq!(cfg.max_served_align(), 32);
        let site = site_key();
        let mut db = RuntimeSiteDb::new(32 * 1024);
        db.insert(site.with_size(64));
        db.insert(site.with_size(32));
        let heap = PredictiveAllocator::with_config(db, cfg);
        // align 64 > 32: system path, still aligned.
        let l64 = Layout::from_size_align(64, 64).expect("l");
        let p = heap.allocate(site, l64);
        assert!(!heap.is_arena_ptr(p));
        assert_eq!(p as usize % 64, 0, "alignment violated");
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, l64) };
        // align 32 divides 96: arena-served pointers are all aligned.
        let l32 = Layout::from_size_align(32, 32).expect("l");
        let mut ptrs = Vec::new();
        for _ in 0..8 {
            let q = heap.allocate(site, l32);
            assert!(heap.is_arena_ptr(q));
            assert_eq!(q as usize % 32, 0, "alignment violated");
            ptrs.push(q);
        }
        for q in ptrs {
            // SAFETY: the pointer came from this heap's allocate with
            // the same layout and is freed exactly once.
            unsafe { heap.deallocate(q, l32) };
        }
    }

    #[test]
    fn max_served_align_caps_at_base_alignment() {
        let big = RuntimeArenaConfig {
            arena_count: 2,
            arena_size: 1 << 20,
        };
        // Arena starts are 1 MiB apart, but the base itself is only
        // 4096-aligned.
        assert_eq!(big.max_served_align(), 4096);
        assert_eq!(RuntimeArenaConfig::default().max_served_align(), 4096);
        let odd = RuntimeArenaConfig {
            arena_count: 16,
            arena_size: 100,
        };
        assert_eq!(odd.max_served_align(), 4);
    }

    #[test]
    fn arena_spec_parses_valid_geometries() {
        let c = RuntimeArenaConfig::parse_spec("32,8192").expect("valid");
        assert_eq!(c.arena_count, 32);
        assert_eq!(c.arena_size, 8192);
        let c = RuntimeArenaConfig::parse_spec(" 4 , 64 ").expect("whitespace ok");
        assert_eq!(c.arena_count, 4);
        assert_eq!(c.arena_size, 64);
    }

    #[test]
    fn arena_spec_rejects_malformed_geometries() {
        for bad in [
            "",              // empty
            "16",            // no comma
            "16,4096,1",     // parse fails on "4096,1"
            "a,4096",        // non-numeric count
            "16,b",          // non-numeric size
            "0,4096",        // zero count
            "70000,4096",    // count over cap
            "16,32",         // size under floor
            "16,2147483648", // size over 1 GiB
        ] {
            assert!(
                RuntimeArenaConfig::parse_spec(bad).is_err(),
                "accepted {bad:?}"
            );
        }
        // Per-component limits fit, but the product overflows usize.
        let huge = format!("65536,{}", 1usize << 30);
        if usize::BITS <= 46 {
            assert!(RuntimeArenaConfig::parse_spec(&huge).is_err());
        }
    }

    #[test]
    fn arena_spec_errors_name_the_offending_field() {
        let err = RuntimeArenaConfig::parse_spec("zero,4096").unwrap_err();
        assert!(
            err.contains(ARENA_ENV),
            "error should name the variable: {err}"
        );
        assert!(err.contains("count"), "error should name the field: {err}");
        let err = RuntimeArenaConfig::parse_spec("16,huge").unwrap_err();
        assert!(err.contains("size"), "error should name the field: {err}");
        let err = RuntimeArenaConfig::parse_spec("16,32").unwrap_err();
        assert!(
            err.contains("arena size"),
            "error should name the field: {err}"
        );
        assert!(err.contains("32"), "error should echo the value: {err}");
    }

    /// Set in the child process that runs the environment test alone.
    const ENV_TEST_ALONE: &str = "LIFEPRED_ARENAS_TEST_ALONE";

    // The from_env checks mutate process-global environment state that
    // sibling tests read (every `with_database` heap parses
    // `LIFEPRED_ARENAS` at construction), so they run as one test, in
    // a child process of this test binary where nothing else runs.
    #[test]
    fn from_env_is_loud_about_set_but_broken_values() {
        if std::env::var_os(ENV_TEST_ALONE).is_none() {
            let exe = std::env::current_exe().expect("test binary path");
            let out = std::process::Command::new(exe)
                .args([
                    "runtime::tests::from_env_is_loud_about_set_but_broken_values",
                    "--exact",
                    "--test-threads=1",
                ])
                .env(ENV_TEST_ALONE, "1")
                .output()
                .expect("spawn the from_env child");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "from_env child failed ({}):\n{stdout}{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        std::env::remove_var(ARENA_ENV);
        assert_eq!(RuntimeArenaConfig::from_env(), Ok(None));

        std::env::set_var(ARENA_ENV, "8,8192");
        assert_eq!(
            RuntimeArenaConfig::from_env(),
            Ok(Some(RuntimeArenaConfig {
                arena_count: 8,
                arena_size: 8192,
            }))
        );

        // Malformed geometry is an error, not a default fallback.
        std::env::set_var(ARENA_ENV, "8x8192");
        let err = RuntimeArenaConfig::from_env().unwrap_err();
        assert!(err.contains(ARENA_ENV), "{err}");

        // A set-but-non-Unicode value is an error too (this used to
        // fall back to defaults silently).
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStrExt;
            let raw = std::ffi::OsStr::from_bytes(&[b'8', 0xff, b'4']);
            std::env::set_var(ARENA_ENV, raw);
            let err = RuntimeArenaConfig::from_env().unwrap_err();
            assert!(err.contains("not valid Unicode"), "{err}");
            assert!(err.contains(ARENA_ENV), "{err}");
        }

        std::env::remove_var(ARENA_ENV);
    }

    #[test]
    fn double_free_is_counted_not_masked() {
        let site = site_key();
        let heap = PredictiveAllocator::with_database(trained_db(site, 64));
        let p = heap.allocate(site, layout(64));
        assert!(heap.is_arena_ptr(p));
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout(64)) };
        // The second free of the same block must not underflow the live
        // count — it is counted as a double free and otherwise ignored.
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout(64)) };
        let s = heap.stats();
        assert_eq!(s.arena_frees, 1);
        assert_eq!(s.double_frees, 1);
        assert_eq!(heap.arena_live_objects(), 0);
    }

    #[test]
    fn stats_snapshot_reports_utilization_and_fragmentation() {
        let site = site_key();
        let heap = PredictiveAllocator::with_config(
            trained_db(site, 512),
            RuntimeArenaConfig {
                arena_count: 2,
                arena_size: 1024,
            },
        );
        let p = heap.allocate(site, layout(512));
        let s = heap.stats();
        assert_eq!(s.arena_total_bytes, 2048);
        assert_eq!(s.arena_used_bytes, 512);
        assert_eq!(s.pinned_arena_bytes, 512);
        assert!((s.utilization_pct() - 25.0).abs() < 1e-9);
        assert!((s.fragmentation_pct() - 25.0).abs() < 1e-9);
        // SAFETY: the pointer came from this heap's allocate with
        // the same layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout(512)) };
        // Freed: the arena keeps its bump offset (used) but is no
        // longer pinned.
        let s = heap.stats();
        assert_eq!(s.pinned_arena_bytes, 0);
        assert!((s.fragmentation_pct() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn merged_stats_sum_fieldwise() {
        let a = RuntimeStats {
            arena_allocs: 1,
            general_allocs: 2,
            double_frees: 3,
            ..RuntimeStats::default()
        };
        let b = RuntimeStats {
            arena_allocs: 10,
            overflows: 5,
            ..RuntimeStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.arena_allocs, 11);
        assert_eq!(m.general_allocs, 2);
        assert_eq!(m.double_frees, 3);
        assert_eq!(m.overflows, 5);
    }

    #[test]
    fn checked_merge_rejects_mismatched_arena_geometry() {
        // Regression: `merged` used to blend snapshots from different
        // arena geometries silently — 2×1 KiB merged with 4×4 KiB gives
        // a capacity-weighted utilization that describes neither side.
        let small = RuntimeStats {
            arena_count: 2,
            arena_total_bytes: 2 * 1024,
            arena_used_bytes: 2 * 1024, // 100% full
            ..RuntimeStats::default()
        };
        let large = RuntimeStats {
            arena_count: 4,
            arena_total_bytes: 4 * 4096,
            arena_used_bytes: 0, // empty
            ..RuntimeStats::default()
        };
        let err = small.checked_merged(&large).expect_err("must reject");
        assert_eq!(err.left_arena_bytes, 1024);
        assert_eq!(err.right_arena_bytes, 4096);
        assert!(err.to_string().contains("arena geometries"), "{err}");
        // Same per-arena size merges fine, and the documented saturate
        // rule applies: snapshot fields sum.
        let twin = RuntimeStats {
            arena_count: 8,
            arena_total_bytes: 8 * 1024,
            ..RuntimeStats::default()
        };
        let m = small.checked_merged(&twin).expect("same geometry");
        assert_eq!(m.arena_count, 10);
        assert_eq!(m.arena_total_bytes, 10 * 1024);
        // A side with no arenas at all merges with anything.
        assert!(RuntimeStats::default().checked_merged(&large).is_ok());
        // And the unchecked merge still saturates instead of wrapping.
        let maxed = RuntimeStats {
            arena_allocs: u64::MAX,
            ..RuntimeStats::default()
        };
        assert_eq!(maxed.merged(&maxed).arena_allocs, u64::MAX);
    }

    #[test]
    fn stats_snapshot_carries_arena_count() {
        let heap = PredictiveAllocator::with_config(
            RuntimeSiteDb::default(),
            RuntimeArenaConfig {
                arena_count: 3,
                arena_size: 256,
            },
        );
        assert_eq!(heap.stats().arena_count, 3);
    }

    #[test]
    fn attached_registry_sees_hot_path_traffic() {
        use lifepred_obs::Registry;
        let site = site_key();
        let mut heap = PredictiveAllocator::with_database(trained_db(site, 64));
        let registry = Registry::new();
        heap.attach_registry(&registry);
        let p = heap.allocate(site, layout(64));
        assert!(heap.is_arena_ptr(p));
        // Predicted size, but an alignment arenas cannot honour: the
        // allocation overflows to the system path.
        let big = Layout::from_size_align(64, 8192).expect("l");
        let q = heap.allocate(site, big);
        // SAFETY: the pointers came from this heap's allocate with the
        // same layouts and are freed exactly once.
        unsafe {
            heap.deallocate(p, layout(64));
            heap.deallocate(q, big);
        }
        heap.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lifepred_alloc_allocs_total"), Some(2));
        assert_eq!(snap.counter("lifepred_alloc_arena_allocs_total"), Some(1));
        assert_eq!(snap.counter("lifepred_alloc_general_allocs_total"), Some(1));
        assert_eq!(snap.counter("lifepred_alloc_frees_total"), Some(2));
        assert_eq!(snap.counter("lifepred_alloc_overflows_total"), Some(1));
        let sizes = snap.histogram("lifepred_alloc_size_bytes").expect("sizes");
        assert_eq!(sizes.count, 2);
        assert_eq!(sizes.sum, 128);
        // Export-time gauges mirror RuntimeStats.
        assert_eq!(snap.gauge("lifepred_runtime_arena_allocs"), Some(1));
        assert_eq!(snap.gauge("lifepred_runtime_overflows"), Some(1));
        assert_eq!(snap.gauge("lifepred_runtime_arena_count"), Some(16));
    }
}
