//! A fixed min tournament tree over ranks: at most one key per rank,
//! ordered by `(key, rank)`.
//!
//! The fabric's wait indices — every blocked rank's commitment, every
//! gate waiter's scan bound — need the minimum, the minimum excluding
//! one rank, and every entry at or below a bound. Built once per fabric
//! at its rank count, the tree answers all three and updates an entry
//! in O(log n) without allocating, where an ordered set allocates and
//! frees nodes as entries come and go.

/// The key of a rank with no entry; no real key takes it (the fabric's
/// keys are bit patterns of non-negative `f64`s).
const ABSENT: u64 = u64::MAX;

/// An entry, or the winner of a subtree: `(key, rank)`, compared as a
/// tuple, so ties go to the lower rank.
type Entry = (u64, usize);

const NONE: Entry = (ABSENT, usize::MAX);

pub(crate) struct MinTree {
    /// Leaves at `[cap, 2 cap)` (rank `r` at `cap + r`, the padding
    /// past the rank count always `NONE`), each inner node `i` the
    /// smaller of `2i` and `2i + 1`; node 0 is unused.
    nodes: Vec<Entry>,
    cap: usize,
}

impl MinTree {
    /// An empty tree over ranks `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        let cap = n.max(1).next_power_of_two();
        MinTree {
            nodes: vec![NONE; 2 * cap],
            cap,
        }
    }

    /// Remove every entry, in place.
    pub(crate) fn clear(&mut self) {
        self.nodes.fill(NONE);
    }

    /// Enter (or move) `rank`'s entry at `key`.
    pub(crate) fn set(&mut self, rank: usize, key: u64) {
        debug_assert!(key != ABSENT, "key {key:#x} is reserved for no entry");
        self.put(rank, (key, rank));
    }

    /// Remove `rank`'s entry, if it has one.
    pub(crate) fn remove(&mut self, rank: usize) {
        self.put(rank, NONE);
    }

    fn put(&mut self, rank: usize, e: Entry) {
        let mut i = self.cap + rank;
        self.nodes[i] = e;
        while i > 1 {
            i /= 2;
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }

    /// The least entry.
    pub(crate) fn min(&self) -> Option<Entry> {
        Some(self.nodes[1]).filter(|&(key, _)| key != ABSENT)
    }

    /// The least entry of a rank other than `rank`: the smallest of the
    /// subtrees that hang off `rank`'s path to the root.
    pub(crate) fn min_excluding(&self, rank: usize) -> Option<Entry> {
        if self.nodes[1].1 != rank {
            return self.min();
        }
        let mut i = self.cap + rank;
        let mut best = NONE;
        while i > 1 {
            best = best.min(self.nodes[i ^ 1]);
            i /= 2;
        }
        Some(best).filter(|&(key, _)| key != ABSENT)
    }

    /// Visit every entry with key ≤ `bound`, in rank order, skipping each
    /// subtree whose least key is above it: O(k log n) for k visits. The
    /// walk is a loop, not a recursion, so a rank thread that runs it
    /// touches no deeper stack than before.
    pub(crate) fn for_each_at_most(&self, bound: u64, mut visit: impl FnMut(Entry)) {
        let mut i = 1;
        loop {
            let e = self.nodes[i];
            if e.0 != ABSENT && e.0 <= bound {
                if i < self.cap {
                    i *= 2; // into the left child
                    continue;
                }
                visit(e);
            }
            // On to the next subtree: up past every right child, then
            // across to the right sibling; the root's parent is 0.
            while i % 2 == 1 {
                i /= 2;
            }
            if i == 0 {
                return;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One step: enter or remove rank `.0`'s entry, or empty the tree.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Set(usize, u64),
        Remove(usize),
        Clear,
    }

    /// Keys from a small range, so ties are common.
    fn op(ranks: usize) -> impl Strategy<Value = Op> {
        (0..16u8, 0..ranks, 0..8u64).prop_map(|(kind, r, key)| match kind {
            0 => Op::Clear,
            1..=5 => Op::Remove(r),
            _ => Op::Set(r, key),
        })
    }

    /// Drive the tree and the ordered set it replaced through `ops`, and
    /// compare every query after every step: the minimum, the minimum
    /// excluding each rank, and the entries at or below each bound.
    fn check_against_model(ranks: usize, ops: &[Op]) {
        let mut tree = MinTree::new(ranks);
        let mut set: BTreeSet<Entry> = BTreeSet::new();
        let mut keys: Vec<Option<u64>> = vec![None; ranks];
        for &op in ops {
            match op {
                Op::Set(r, key) => {
                    if let Some(old) = keys[r].replace(key) {
                        set.remove(&(old, r));
                    }
                    set.insert((key, r));
                    tree.set(r, key);
                }
                Op::Remove(r) => {
                    if let Some(old) = keys[r].take() {
                        set.remove(&(old, r));
                    }
                    tree.remove(r);
                }
                Op::Clear => {
                    keys.fill(None);
                    set.clear();
                    tree.clear();
                }
            }
            assert_eq!(tree.min(), set.first().copied());
            for me in 0..ranks {
                let want = set.iter().find(|&&(_, r)| r != me).copied();
                assert_eq!(tree.min_excluding(me), want, "excluding rank {me}");
            }
            for bound in 0..9 {
                let mut got = Vec::new();
                tree.for_each_at_most(bound, |e| got.push(e));
                got.sort_unstable();
                let want: Vec<Entry> = set.iter().copied().filter(|&(k, _)| k <= bound).collect();
                assert_eq!(got, want, "at most {bound}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tree_matches_the_ordered_set_under_arbitrary_steps(
            ranks in 1usize..10,
            ops in prop::collection::vec(op(10), 0..120),
        ) {
            let ops: Vec<Op> = ops
                .into_iter()
                .map(|op| match op {
                    Op::Set(r, k) => Op::Set(r % ranks, k),
                    Op::Remove(r) => Op::Remove(r % ranks),
                    Op::Clear => Op::Clear,
                })
                .collect();
            check_against_model(ranks, &ops);
        }
    }

    #[test]
    fn ties_go_to_the_lower_rank_and_the_runner_up_is_next() {
        let mut t = MinTree::new(5);
        t.set(3, 7);
        t.set(1, 7);
        t.set(4, 2);
        assert_eq!(t.min(), Some((2, 4)));
        assert_eq!(t.min_excluding(4), Some((7, 1)));
        assert_eq!(t.min_excluding(1), Some((2, 4)));
        t.remove(4);
        assert_eq!((t.min(), t.min_excluding(1)), (Some((7, 1)), Some((7, 3))));
        t.clear();
        assert_eq!((t.min(), t.min_excluding(0)), (None, None));
    }
}
