//! The first-fit heap's free-block tree.
//!
//! [`FreeTree`] is the only record of a [`FirstFit`](crate::FirstFit)
//! heap's free blocks: a treap keyed by block address in which every
//! node also carries its subtree's largest block size and block count.
//! One O(log n) descent answers each question the heap asks:
//!
//! * the lowest block at or after the rover with size ≥ need, and its
//!   rank — the size annotation prunes every subtree too small to hold
//!   it, the count annotation sums the blocks below it;
//! * the rank of an address, i.e. how many free blocks lie below it.
//!   The free blocks the paper's *linear* scan would have walked are
//!   two ranks apart, which keeps `OpCounts::search_steps` — the input
//!   to the Table 9 instruction-cost model — byte-identical to the
//!   scan (see `FirstFit::search` and DESIGN.md §11);
//! * the blocks just below and just above an address: the free
//!   neighbours a freed block coalesces with.
//!
//! Splitting a block, or coalescing it with one neighbour, moves its
//! start or end but never past another free block, so those updates
//! re-key or resize the node where it sits ([`FreeTree::update`]).
//! Only exact fits, frees with no free neighbour and two-sided
//! coalesces insert or remove a node.

/// Index of the sentinel node that stands for every empty subtree. Its
/// count and largest size are zero, so the annotations need no special
/// case for missing children.
const NIL: u32 = 0;

/// A free block as `(addr, size)`.
pub(crate) type Block = (u64, u64);

/// Counters of the tree's own work, exported as `lifepred_sim_*`
/// metrics by observed replays (they have no counterpart in the
/// paper's linear scan and therefore live outside
/// [`OpCounts`](crate::OpCounts)). The field names follow the metric
/// names, which predate the tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Tree searches that found a fitting block.
    pub bin_hits: u64,
    /// Tree searches issued: one per allocation, two when the search
    /// wraps past the heap top back to the base.
    pub bitmap_scans: u64,
}

impl IndexStats {
    /// Sums two stat sets (mirrors `OpCounts::merged`).
    pub fn merged(&self, other: &IndexStats) -> IndexStats {
        IndexStats {
            bin_hits: self.bin_hits + other.bin_hits,
            bitmap_scans: self.bitmap_scans + other.bitmap_scans,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Node {
    addr: u64,
    size: u64,
    /// Largest `size` in this subtree.
    max: u64,
    left: u32,
    right: u32,
    /// Blocks in this subtree.
    count: u32,
    /// Heap-order priority, fixed when the node is inserted.
    prio: u32,
}

/// SplitMix64 of the insertion address: a deterministic priority, so a
/// replay's tree shape is reproducible, that is still balanced in
/// expectation for non-adversarial address sequences.
fn priority_of(addr: u64) -> u32 {
    let mut z = addr.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z >> 32) as u32
}

/// Address-ordered free blocks, annotated with subtree size maxima and
/// counts.
#[derive(Debug, Clone)]
pub(crate) struct FreeTree {
    /// Node pool; `nodes[NIL]` is the sentinel.
    nodes: Vec<Node>,
    /// Recycled node slots.
    spare: Vec<u32>,
    root: u32,
    /// Scratch stack of [`FreeTree::update`]'s descent.
    path: Vec<u32>,
    stats: IndexStats,
}

impl FreeTree {
    pub(crate) fn new() -> FreeTree {
        FreeTree {
            nodes: vec![Node::default()],
            spare: Vec::new(),
            root: NIL,
            path: Vec::new(),
            stats: IndexStats::default(),
        }
    }

    /// Number of free blocks.
    pub(crate) fn len(&self) -> usize {
        self.nodes[self.root as usize].count as usize
    }

    /// Work counters (searches issued and answered).
    pub(crate) fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Recomputes `t`'s annotations from its own size and its children.
    fn pull(&mut self, t: u32) {
        let n = self.nodes[t as usize];
        let (l, r) = (self.nodes[n.left as usize], self.nodes[n.right as usize]);
        let node = &mut self.nodes[t as usize];
        node.count = 1 + l.count + r.count;
        node.max = n.size.max(l.max).max(r.max);
    }

    /// Splits subtree `t` into the blocks below `addr` and the rest.
    fn split(&mut self, t: u32, addr: u64) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        let n = self.nodes[t as usize];
        if n.addr < addr {
            let (l, r) = self.split(n.right, addr);
            self.nodes[t as usize].right = l;
            self.pull(t);
            (t, r)
        } else {
            let (l, r) = self.split(n.left, addr);
            self.nodes[t as usize].left = r;
            self.pull(t);
            (l, t)
        }
    }

    /// Joins `l` and `r`; every address in `l` is below every one in `r`.
    fn merge(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL || r == NIL {
            return l.max(r);
        }
        if self.nodes[l as usize].prio >= self.nodes[r as usize].prio {
            let m = self.merge(self.nodes[l as usize].right, r);
            self.nodes[l as usize].right = m;
            self.pull(l);
            l
        } else {
            let m = self.merge(l, self.nodes[r as usize].left);
            self.nodes[r as usize].left = m;
            self.pull(r);
            r
        }
    }

    /// Adds the free block `[addr, addr + size)`; no free block may
    /// start at `addr` already.
    pub(crate) fn insert(&mut self, addr: u64, size: u64) {
        let node = Node {
            addr,
            size,
            max: size,
            left: NIL,
            right: NIL,
            count: 1,
            prio: priority_of(addr),
        };
        let n = match self.spare.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                assert!(self.nodes.len() < u32::MAX as usize, "free tree full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.root = self.insert_at(self.root, n);
    }

    fn insert_at(&mut self, t: u32, n: u32) -> u32 {
        let (new, node) = (self.nodes[n as usize], self.nodes[t as usize]);
        if t == NIL || new.prio > node.prio {
            let (l, r) = self.split(t, new.addr);
            self.nodes[n as usize].left = l;
            self.nodes[n as usize].right = r;
            self.pull(n);
            return n;
        }
        debug_assert_ne!(new.addr, node.addr, "duplicate free block 0x{:x}", new.addr);
        if new.addr < node.addr {
            let c = self.insert_at(node.left, n);
            self.nodes[t as usize].left = c;
        } else {
            let c = self.insert_at(node.right, n);
            self.nodes[t as usize].right = c;
        }
        self.pull(t);
        t
    }

    /// Forgets the free block at `addr`, which must exist.
    pub(crate) fn remove(&mut self, addr: u64) {
        self.root = self.remove_at(self.root, addr);
    }

    fn remove_at(&mut self, t: u32, addr: u64) -> u32 {
        assert_ne!(t, NIL, "no free block at 0x{addr:x}");
        let node = self.nodes[t as usize];
        if addr == node.addr {
            self.spare.push(t);
            return self.merge(node.left, node.right);
        }
        if addr < node.addr {
            let c = self.remove_at(node.left, addr);
            self.nodes[t as usize].left = c;
        } else {
            let c = self.remove_at(node.right, addr);
            self.nodes[t as usize].right = c;
        }
        self.pull(t);
        t
    }

    /// Moves the free block at `addr` to `new_addr` with size
    /// `new_size`, in place. No other free block may start between
    /// `addr` and `new_addr`, so the tree's order is unchanged.
    pub(crate) fn update(&mut self, addr: u64, new_addr: u64, new_size: u64) {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut t = self.root;
        loop {
            assert_ne!(t, NIL, "no free block at 0x{addr:x}");
            path.push(t);
            let n = &mut self.nodes[t as usize];
            if addr == n.addr {
                n.addr = new_addr;
                n.size = new_size;
                break;
            }
            debug_assert_eq!(
                addr < n.addr,
                new_addr < n.addr,
                "re-key past 0x{:x}",
                n.addr
            );
            t = if addr < n.addr { n.left } else { n.right };
        }
        // Counts stay put; a largest-size annotation changes only up to
        // the first ancestor whose own value survives the recount.
        for &t in path.iter().rev() {
            let max = self.nodes[t as usize].max;
            self.pull(t);
            if self.nodes[t as usize].max == max {
                break;
            }
        }
        self.path = path;
    }

    /// The free blocks with the highest address below `addr` and the
    /// lowest address above it, found in one descent. No free block may
    /// start at `addr`.
    pub(crate) fn neighbours(&self, addr: u64) -> (Option<Block>, Option<Block>) {
        let (mut t, mut below, mut above) = (self.root, None, None);
        while t != NIL {
            let n = &self.nodes[t as usize];
            debug_assert_ne!(n.addr, addr, "0x{addr:x} is a free block");
            if n.addr < addr {
                below = Some((n.addr, n.size));
                t = n.right;
            } else {
                above = Some((n.addr, n.size));
                t = n.left;
            }
        }
        (below, above)
    }

    /// Number of free blocks at addresses strictly below `addr`.
    pub(crate) fn rank(&self, addr: u64) -> usize {
        let (mut t, mut below) = (self.root, 0);
        while t != NIL {
            let n = &self.nodes[t as usize];
            if addr <= n.addr {
                t = n.left;
            } else {
                below += self.nodes[n.left as usize].count + 1;
                t = n.right;
            }
        }
        below as usize
    }

    /// The lowest free block at address ≥ `from` with size ≥ `need`
    /// (`need > 0`), as `(addr, size, rank)`.
    pub(crate) fn find_at_or_after(&mut self, from: u64, need: u64) -> Option<(u64, u64, usize)> {
        debug_assert!(need > 0, "the sentinel's size 0 must never fit");
        self.stats.bitmap_scans += 1;
        let hit = self.find_at(self.root, from, need, 0);
        self.stats.bin_hits += u64::from(hit.is_some());
        hit
    }

    /// Descends the `from` boundary of subtree `t`, which has `below`
    /// blocks to its left, pruning subtrees whose largest block is too
    /// small. Once past the boundary every address qualifies and the
    /// descent is a single path.
    fn find_at(&self, t: u32, from: u64, need: u64, below: u32) -> Option<(u64, u64, usize)> {
        let n = &self.nodes[t as usize];
        if n.max < need {
            return None;
        }
        let at = below + self.nodes[n.left as usize].count;
        if n.addr < from {
            return self.find_at(n.right, from, need, at + 1);
        }
        if let Some(hit) = self.find_at(n.left, from, need, below) {
            return Some(hit);
        }
        if n.size >= need {
            return Some((n.addr, n.size, at as usize));
        }
        self.find_at(n.right, from, need, at + 1)
    }

    /// Checks every node's order, priority and annotations against a
    /// from-scratch recount, and that no slot is lost; returns the free
    /// blocks in address order. Used by `FirstFit::check_invariants`.
    ///
    /// # Panics
    ///
    /// Panics on the first inconsistency.
    pub(crate) fn check(&self) -> Vec<Block> {
        let mut blocks = Vec::with_capacity(self.len());
        self.check_at(self.root, u32::MAX, &mut blocks);
        assert!(
            blocks.windows(2).all(|w| w[0].0 < w[1].0),
            "free blocks out of address order"
        );
        assert_eq!(
            blocks.len() + self.spare.len() + 1,
            self.nodes.len(),
            "node slots leaked"
        );
        blocks
    }

    /// Recounts subtree `t` (whose parent has priority `limit`),
    /// returning its `(count, max)`.
    fn check_at(&self, t: u32, limit: u32, blocks: &mut Vec<Block>) -> (u32, u64) {
        if t == NIL {
            return (0, 0);
        }
        let n = self.nodes[t as usize];
        assert!(n.prio <= limit, "heap order broken at 0x{:x}", n.addr);
        assert!(n.size > 0, "empty free block at 0x{:x}", n.addr);
        let (lc, lm) = self.check_at(n.left, n.prio, blocks);
        blocks.push((n.addr, n.size));
        let (rc, rm) = self.check_at(n.right, n.prio, blocks);
        let (count, max) = (1 + lc + rc, n.size.max(lm).max(rm));
        assert_eq!(n.count, count, "stale count at 0x{:x}", n.addr);
        assert_eq!(n.max, max, "stale max at 0x{:x}", n.addr);
        (count, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn find_prefers_lowest_address_not_best_fit() {
        let mut t = FreeTree::new();
        // A big block at the bottom, a snug one higher up: first-fit
        // from the base takes the big low block.
        t.insert(0, 4096);
        t.insert(8192, 64);
        assert_eq!(t.find_at_or_after(0, 64), Some((0, 4096, 0)));
        // From above the big block, the snug one wins.
        assert_eq!(t.find_at_or_after(4096, 64), Some((8192, 64, 1)));
        assert_eq!(t.find_at_or_after(8193, 64), None);
        let stats = t.stats();
        assert_eq!((stats.bin_hits, stats.bitmap_scans), (2, 3));
    }

    #[test]
    fn recycles_slots() {
        let mut t = FreeTree::new();
        for k in 0..100u64 {
            t.insert(k * 16, 16);
        }
        for k in 0..100u64 {
            t.remove(k * 16);
        }
        let allocated = t.nodes.len();
        for k in 0..100u64 {
            t.insert(k * 16 + 8, 8);
        }
        assert_eq!(t.nodes.len(), allocated, "slots must be recycled");
        assert_eq!(t.len(), 100);
        t.check();
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        /// Remove the block at this index (modulo the block count).
        Remove(usize),
        /// Re-key and resize the block at this index within the gap
        /// its neighbours leave.
        Update(usize, u64, u64),
        Find(u64, u64),
        Probe(u64),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..4096, 1u64..512).prop_map(|(a, s)| Op::Insert(a, s)),
                (0usize..1000).prop_map(Op::Remove),
                (0usize..1000, 0u64..1 << 20, 1u64..512).prop_map(|(i, a, s)| Op::Update(i, a, s)),
                (0u64..4200, 1u64..600).prop_map(|(a, n)| Op::Find(a, n)),
                (0u64..4200).prop_map(Op::Probe),
            ],
            1..300,
        )
    }

    proptest! {
        /// Every query agrees with a `BTreeMap` of address → size, and
        /// the annotations stay exact after every change.
        #[test]
        fn tree_matches_btreemap(script in ops()) {
            let mut tree = FreeTree::new();
            let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
            for op in script {
                match op {
                    Op::Insert(addr, size) => {
                        if oracle.insert(addr, size).is_none() {
                            tree.insert(addr, size);
                        } else {
                            oracle.remove(&addr);
                            tree.remove(addr);
                        }
                    }
                    Op::Remove(i) if !oracle.is_empty() => {
                        let addr = *oracle.keys().nth(i % oracle.len()).unwrap();
                        oracle.remove(&addr);
                        tree.remove(addr);
                    }
                    Op::Update(i, raw, size) if !oracle.is_empty() => {
                        let addr = *oracle.keys().nth(i % oracle.len()).unwrap();
                        let lo = oracle.range(..addr).next_back().map_or(0, |(&a, _)| a + 1);
                        let hi = oracle.range(addr + 1..).next().map_or(1 << 20, |(&a, _)| a - 1);
                        let new_addr = lo + raw % (hi - lo + 1);
                        oracle.remove(&addr);
                        oracle.insert(new_addr, size);
                        tree.update(addr, new_addr, size);
                    }
                    Op::Remove(_) | Op::Update(..) => {}
                    Op::Find(from, need) => {
                        let want = oracle
                            .range(from..)
                            .find(|&(_, &s)| s >= need)
                            .map(|(&a, &s)| (a, s, oracle.range(..a).count()));
                        prop_assert_eq!(tree.find_at_or_after(from, need), want);
                    }
                    Op::Probe(addr) => {
                        prop_assert_eq!(tree.rank(addr), oracle.range(..addr).count());
                        if !oracle.contains_key(&addr) {
                            let pair = |(&a, &s): (&u64, &u64)| (a, s);
                            let below = oracle.range(..addr).next_back().map(pair);
                            let above = oracle.range(addr..).next().map(pair);
                            prop_assert_eq!(tree.neighbours(addr), (below, above));
                        }
                    }
                }
                prop_assert_eq!(tree.len(), oracle.len());
                let blocks = tree.check();
                prop_assert!(blocks.iter().copied().eq(oracle.iter().map(|(&a, &s)| (a, s))));
            }
        }
    }
}
