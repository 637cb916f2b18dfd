//! Knuth's first-fit allocator with a roving pointer.
//!
//! The heap is two structures. A hash map keyed by start address holds
//! the allocated blocks, and a [`FreeTree`] — an address-ordered tree
//! annotated with each subtree's largest block and block count — holds
//! the free ones. Together they exactly tile `[base, brk)`. The tree
//! answers the roving first-fit search in O(log n) instead of the
//! paper's linear scan, and finds a freed block's free neighbours for
//! coalescing in one more descent. Every
//! observable — placements, heap growth and the [`OpCounts`] the
//! Table 9 cost model consumes — stays byte-identical to the linear
//! implementation, which is retained as
//! [`reference::LinearFirstFit`](crate::reference::LinearFirstFit) and
//! proven equivalent by `tests/differential.rs`.

use crate::counts::OpCounts;
use crate::index::{FreeTree, IndexStats};
use crate::Addr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Per-object header bytes (size + status word, boundary tag style).
pub const HEADER: u64 = 8;
/// Allocation alignment.
pub(crate) const ALIGN: u64 = 8;
/// Smallest splittable remainder (header plus one aligned word).
pub(crate) const MIN_SPLIT: u64 = 16;
/// Heap growth quantum — an early-90s `sbrk` page multiple.
pub const PAGE: u64 = 8192;

/// Hashes a block address with one widening multiply, folded so that
/// both the low bits (the bucket) and the high bits (the tag) of the
/// result depend on every address bit. The keys are addresses this heap
/// handed out, never trace input, so no collision-flooding defence is
/// needed.
#[derive(Debug, Clone, Copy, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, addr: u64) {
        let p = u128::from(addr) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A simulated first-fit heap (Knuth, TAOCP vol. 1 §2.5), the paper's
/// baseline allocator and the general heap backing the arena
/// allocator.
///
/// Every block carries a `HEADER`-byte boundary tag, and a freed block
/// is coalesced with free neighbours at once. A *roving pointer*
/// resumes each search where the previous one ended, so small blocks
/// don't accumulate at the front of the free list. The heap grows in
/// `PAGE`-byte (8 KB) increments.
///
/// The search runs on the free-block tree (`src/index.rs`): placements
/// and all [`OpCounts`] — including `search_steps`, the number of free
/// blocks the paper's *linear* scan would have examined — are
/// identical to the linear implementation; only the wall-clock cost
/// per allocation drops from O(free blocks) to O(log n).
///
/// Freeing an address that is not a live allocation of this heap
/// (never allocated, already freed, or pointing into the middle of a
/// block) is a **documented no-op** counted in
/// [`OpCounts::frees_invalid`], so a corrupted trace cannot poison the
/// heap's structures.
///
/// # Examples
///
/// ```
/// use lifepred_heap::FirstFit;
///
/// let mut heap = FirstFit::new();
/// let a = heap.alloc(100);
/// let b = heap.alloc(200);
/// heap.free(a);
/// heap.free(b);
/// assert_eq!(heap.live_blocks(), 0);
/// assert!(heap.max_heap_bytes() >= 300);
/// ```
#[derive(Debug, Clone)]
pub struct FirstFit {
    /// Allocated blocks: start address → size.
    live: HashMap<u64, u64, BuildHasherDefault<AddrHasher>>,
    /// Free blocks; with `live` they exactly tile `[base, brk)`.
    free: FreeTree,
    base: u64,
    brk: u64,
    max_brk: u64,
    rover: u64,
    counts: OpCounts,
}

impl Default for FirstFit {
    fn default() -> Self {
        FirstFit::new()
    }
}

impl FirstFit {
    /// Creates an empty heap based at address 0.
    pub fn new() -> Self {
        FirstFit::with_base(0)
    }

    /// Creates an empty heap based at `base` (used when another
    /// allocator owns a disjoint part of the address space).
    pub fn with_base(base: u64) -> Self {
        FirstFit {
            live: HashMap::default(),
            free: FreeTree::new(),
            base,
            brk: base,
            max_brk: base,
            rover: base,
            counts: OpCounts::default(),
        }
    }

    /// Allocates `size` bytes, returning the user address.
    pub fn alloc(&mut self, size: u32) -> Addr {
        self.counts.allocs += 1;
        let need = Self::block_size(size);
        let (addr, block) = match self.search(need) {
            Some(hit) => hit,
            // No fit: grow the heap so the topmost free region fits `need`.
            None => self.grow_for(need),
        };
        self.place(addr, block, need)
    }

    /// Frees the block at `addr` (a value previously returned by
    /// [`FirstFit::alloc`]), coalescing with free neighbours.
    ///
    /// An `addr` that is not a live allocation of this heap — never
    /// allocated, already freed, or not a block boundary — is ignored
    /// and counted in [`OpCounts::frees_invalid`], so replaying a
    /// corrupted trace cannot corrupt the heap structures.
    pub fn free(&mut self, addr: Addr) {
        let Some((start, size)) = addr
            .0
            .checked_sub(HEADER)
            .and_then(|start| Some((start, self.live.remove(&start)?)))
        else {
            self.counts.frees_invalid += 1;
            return;
        };
        self.counts.frees += 1;
        let next = start + size;
        let (below, above) = self.free.neighbours(start);
        let prev = below.filter(|&(paddr, psize)| paddr + psize == start);
        let next_size = above
            .filter(|&(naddr, _)| naddr == next)
            .map(|(_, nsize)| nsize);
        // Only a two-sided coalesce or a lone free changes the tree's
        // shape; a one-sided coalesce grows a free block in place.
        match (prev, next_size) {
            (None, None) => self.free.insert(start, size),
            (None, Some(nsize)) => self.free.update(next, start, size + nsize),
            (Some((paddr, psize)), None) => self.free.update(paddr, paddr, psize + size),
            (Some((paddr, psize)), Some(nsize)) => {
                self.free.remove(next);
                self.free.update(paddr, paddr, psize + size + nsize);
            }
        }
        if next_size.is_some() {
            self.counts.coalesces += 1;
            if self.rover == next {
                self.rover = start;
            }
        }
        if let Some((paddr, _)) = prev {
            self.counts.coalesces += 1;
            if self.rover == start {
                self.rover = paddr;
            }
        }
    }

    /// Current heap extent in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.brk - self.base
    }

    /// High-water heap extent in bytes (Table 8's measure).
    pub fn max_heap_bytes(&self) -> u64 {
        self.max_brk - self.base
    }

    /// Operation counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Work counters of the free-block tree (no linear-scan
    /// counterpart; exported as `lifepred_sim_*` metrics).
    pub fn index_stats(&self) -> IndexStats {
        self.free.stats()
    }

    /// Number of currently allocated blocks.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }

    /// Bytes in allocated blocks, headers included.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().sum()
    }

    pub(crate) fn block_size(size: u32) -> u64 {
        let need = u64::from(size) + HEADER;
        let rounded = need.div_ceil(ALIGN) * ALIGN;
        rounded.max(MIN_SPLIT)
    }

    /// First-fit search from the roving pointer, wrapping once — the
    /// indexed answer to the paper's linear scan. Returns the found
    /// block as `(addr, size)`.
    ///
    /// `search_steps` is charged with the number of free blocks the
    /// linear scan *would have examined*: every free block from the
    /// rover up to and including the found block (wrapping through the
    /// heap top), or every free block when nothing fits. Both figures
    /// fall out of rank queries over the free-block addresses, so the
    /// Table 9 instruction model sees exactly the seed's numbers.
    fn search(&mut self, need: u64) -> Option<(u64, u64)> {
        let rover = self.rover;
        let (found, wrapped) = match self.free.find_at_or_after(rover, need) {
            Some(hit) => (Some(hit), false),
            // Nothing at or above the rover fits; wrap to the base.
            // (A fitting block above the rover cannot exist, so the
            // unbounded second probe finds only below-rover blocks.)
            None => (self.free.find_at_or_after(self.base, need), true),
        };
        let examined = match found {
            // All free blocks at/above the rover failed, then the
            // linear scan re-starts at the base.
            Some((_, _, rank)) if wrapped => self.free.len() - self.free.rank(rover) + rank + 1,
            // Free blocks in [rover, addr].
            Some((_, _, rank)) => rank + 1 - self.free.rank(rover),
            // The linear scan examines every free block once before
            // giving up and growing the heap.
            None => self.free.len(),
        };
        self.counts.search_steps += examined as u64;
        found.map(|(addr, size, _)| (addr, size))
    }

    /// Allocates `need` bytes from the free block `[addr, addr + size)`,
    /// splitting if the remainder is usable.
    fn place(&mut self, addr: u64, size: u64, need: u64) -> Addr {
        debug_assert!(size >= need);
        let end = if size - need >= MIN_SPLIT {
            // The remainder keeps the block's place in address order.
            self.free.update(addr, addr + need, size - need);
            self.counts.splits += 1;
            addr + need
        } else {
            self.free.remove(addr);
            addr + size
        };
        self.live.insert(addr, end - addr);
        // Resume the next search after this block, or at the base when
        // no block starts above it.
        self.rover = if end == self.brk {
            self.base
        } else {
            addr + need
        };
        Addr(addr + HEADER)
    }

    /// Extends the heap until its topmost free block holds `need`
    /// bytes, returning that block as `(addr, size)`.
    fn grow_for(&mut self, need: u64) -> (u64, u64) {
        // Is the topmost block free? Then extend it, else append.
        let (start, existing) = match self.free.neighbours(self.brk).0 {
            Some((addr, size)) if addr + size == self.brk => (addr, size),
            _ => (self.brk, 0),
        };
        let missing = need - existing;
        let grow = missing.div_ceil(PAGE) * PAGE;
        self.counts.page_grows += grow / PAGE;
        self.brk += grow;
        self.max_brk = self.max_brk.max(self.brk);
        if existing > 0 {
            self.free.update(start, start, existing + grow);
        } else {
            self.free.insert(start, grow);
        }
        (start, existing + grow)
    }

    /// Verifies the structural invariants of the heap; used by tests.
    ///
    /// # Panics
    ///
    /// Panics if a free-tree node's annotations disagree with a
    /// from-scratch recount, live and free blocks do not exactly tile
    /// `[base, brk)`, two free blocks are adjacent, or the rover lies
    /// outside the heap.
    pub fn check_invariants(&self) {
        let mut blocks: Vec<(u64, u64, bool)> = self
            .free
            .check()
            .into_iter()
            .map(|(addr, size)| (addr, size, true))
            .chain(self.live.iter().map(|(&addr, &size)| (addr, size, false)))
            .collect();
        blocks.sort_unstable();
        let mut expected = self.base;
        let mut prev_free = false;
        for (addr, size, free) in blocks {
            assert_eq!(addr, expected, "gap or overlap at 0x{addr:x}");
            assert!(size > 0, "empty block at 0x{addr:x}");
            assert!(
                !(prev_free && free),
                "uncoalesced free blocks at 0x{addr:x}"
            );
            prev_free = free;
            expected = addr + size;
        }
        assert_eq!(expected, self.brk, "blocks do not reach brk");
        assert!(self.max_brk >= self.brk);
        assert!(
            (self.base..=self.brk).contains(&self.rover),
            "rover 0x{:x} outside the heap",
            self.rover
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut h = FirstFit::new();
        let a = h.alloc(100);
        let b = h.alloc(50);
        assert_ne!(a, b);
        h.check_invariants();
        h.free(a);
        h.free(b);
        h.check_invariants();
        assert_eq!(h.live_blocks(), 0);
        // Everything coalesced back into one block.
        assert_eq!(h.free.len(), 1);
    }

    #[test]
    fn reuses_freed_space() {
        let mut h = FirstFit::new();
        let a = h.alloc(1000);
        h.free(a);
        let before = h.max_heap_bytes();
        for _ in 0..100 {
            let x = h.alloc(1000);
            h.free(x);
        }
        assert_eq!(h.max_heap_bytes(), before, "heap should not grow");
    }

    #[test]
    fn grows_in_pages() {
        let mut h = FirstFit::new();
        let _ = h.alloc(1);
        assert_eq!(h.heap_bytes(), PAGE);
        let _ = h.alloc(3 * PAGE as u32);
        assert_eq!(h.heap_bytes() % PAGE, 0);
    }

    #[test]
    fn splits_large_blocks() {
        let mut h = FirstFit::new();
        let a = h.alloc(4000);
        h.free(a);
        let _b = h.alloc(100);
        assert!(h.counts().splits >= 1);
        h.check_invariants();
    }

    #[test]
    fn coalesces_both_neighbours() {
        let mut h = FirstFit::new();
        let a = h.alloc(100);
        let b = h.alloc(100);
        let c = h.alloc(100);
        h.free(a);
        h.free(c);
        h.free(b); // coalesces with both a and c
        h.check_invariants();
        assert!(h.counts().coalesces >= 2);
    }

    #[test]
    fn double_free_is_a_counted_noop() {
        let mut h = FirstFit::new();
        let a = h.alloc(8);
        h.free(a);
        let snapshot = *h.counts();
        h.free(a); // second free: ignored, counted
        assert_eq!(h.counts().frees, snapshot.frees);
        assert_eq!(h.counts().frees_invalid, snapshot.frees_invalid + 1);
        h.check_invariants();
    }

    #[test]
    fn invalid_frees_are_counted_noops() {
        let mut h = FirstFit::new();
        let a = h.alloc(64);
        // Never-allocated address way above the heap.
        h.free(Addr(1 << 30));
        // Mid-block address (not a block boundary).
        h.free(Addr(a.0 + 8));
        // Address below the header offset (would underflow).
        h.free(Addr(HEADER - 1));
        assert_eq!(h.counts().frees_invalid, 3);
        assert_eq!(h.counts().frees, 0);
        h.check_invariants();
        // The heap still works and the live block is intact.
        h.free(a);
        assert_eq!(h.counts().frees, 1);
        assert_eq!(h.live_blocks(), 0);
        h.check_invariants();
    }

    #[test]
    fn addresses_are_aligned() {
        let mut h = FirstFit::new();
        for size in [1u32, 7, 13, 100, 255] {
            let a = h.alloc(size);
            assert_eq!(a.0 % ALIGN, 0, "unaligned address for size {size}");
        }
    }

    #[test]
    fn index_counters_advance() {
        let mut h = FirstFit::new();
        let a = h.alloc(100);
        h.free(a);
        let _ = h.alloc(100); // served from the tree
        let stats = h.index_stats();
        assert!(stats.bin_hits >= 1, "{stats:?}");
        assert!(stats.bitmap_scans >= 1, "{stats:?}");
    }

    #[test]
    fn interleaved_stress_preserves_invariants() {
        let mut h = FirstFit::new();
        let mut live = Vec::new();
        let mut x = 12345u64;
        for i in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (x >> 33) as usize;
            if live.is_empty() || !r.is_multiple_of(3) {
                live.push(h.alloc((r % 500 + 1) as u32));
            } else {
                let idx = r % live.len();
                h.free(live.swap_remove(idx));
            }
            if i % 256 == 0 {
                h.check_invariants();
            }
        }
        for a in live {
            h.free(a);
        }
        h.check_invariants();
        assert_eq!(h.live_blocks(), 0);
    }
}
