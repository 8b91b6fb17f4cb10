//! The fabric's mailboxes: one arena of message slots for every rank.
//!
//! A rank's mailbox is a doubly linked FIFO of slot indices threaded
//! through one per-fabric arena; a slot a receive empties goes on a free
//! list and carries the next delivery. So a fabric of any size starts
//! with no per-rank queue to allocate, the arena grows only by doubling
//! (when more messages are queued at once than ever before on this
//! fabric), and taking a message out of the middle of a mailbox — a
//! wildcard or tag-selective receive — unlinks it in O(1) instead of
//! shifting the messages behind it.

/// End of a slot list.
const NIL: u32 = u32::MAX;

/// A slot's neighbours in its rank's mailbox — or, for a free slot, the
/// next free one in `next`. Links are 32-bit and live apart from the
/// items: a mailbox walk chases them through one small array, and the
/// loads of the items it visits do not wait on each other.
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// A rank's mailbox: the ends of its slot list, and its length.
#[derive(Clone, Copy)]
struct Queue {
    head: u32,
    tail: u32,
    len: usize,
}

/// Every rank's FIFO mailbox in one arena. Slot indices name queued
/// items; one stays valid until its item is removed.
pub(crate) struct Mailboxes<T> {
    /// Slot → its item (`None` while free).
    items: Vec<Option<T>>,
    links: Vec<Link>,
    /// Head of the free-slot list.
    free: u32,
    queues: Vec<Queue>,
}

impl<T> Mailboxes<T> {
    /// `ranks` empty mailboxes and an empty arena.
    pub(crate) fn new(ranks: usize) -> Self {
        Mailboxes {
            items: Vec::new(),
            links: Vec::new(),
            free: NIL,
            queues: vec![
                Queue {
                    head: NIL,
                    tail: NIL,
                    len: 0,
                };
                ranks
            ],
        }
    }

    /// Items queued at `rank`.
    pub(crate) fn len(&self, rank: usize) -> usize {
        self.queues[rank].len
    }

    /// Queue `item` at the back of `rank`'s mailbox, in a free slot if
    /// there is one.
    pub(crate) fn push_back(&mut self, rank: usize, item: T) {
        let tail = self.queues[rank].tail;
        let link = Link {
            prev: tail,
            next: NIL,
        };
        let s = match self.free {
            NIL => {
                #[expect(
                    clippy::expect_used,
                    reason = "slot links are 32-bit; 2^32 - 1 envelopes queued at once is far past \
                              any job the fabric can hold in memory"
                )]
                let s = u32::try_from(self.items.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("a fabric queues fewer than 2^32 - 1 messages at once");
                self.items.push(Some(item));
                self.links.push(link);
                s
            }
            s => {
                self.free = self.links[s as usize].next;
                self.items[s as usize] = Some(item);
                self.links[s as usize] = link;
                s
            }
        };
        let q = &mut self.queues[rank];
        match tail {
            NIL => q.head = s,
            t => self.links[t as usize].next = s,
        }
        q.tail = s;
        q.len += 1;
    }

    /// The item in `slot`.
    #[expect(
        clippy::expect_used,
        reason = "a slot is linked into a mailbox exactly while it holds an item; callers pass \
                  slots the same lock hold just found"
    )]
    pub(crate) fn get(&self, slot: usize) -> &T {
        self.items[slot]
            .as_ref()
            .expect("a linked slot holds its item")
    }

    /// Unlink `slot` from `rank`'s mailbox, free it and return its item.
    #[expect(
        clippy::expect_used,
        reason = "a slot is linked into a mailbox exactly while it holds an item; callers pass \
                  slots the same lock hold just found"
    )]
    pub(crate) fn remove(&mut self, rank: usize, slot: usize) -> T {
        let Link { prev, next } = self.links[slot];
        self.links[slot].next = self.free;
        // A linked slot's index was checked to fit when it was created.
        self.free = slot as u32;
        let q = &mut self.queues[rank];
        match prev {
            NIL => q.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => q.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
        q.len -= 1;
        self.items[slot]
            .take()
            .expect("a linked slot holds its item")
    }

    /// `rank`'s mailbox front to back, each item with its slot.
    pub(crate) fn iter(&self, rank: usize) -> impl Iterator<Item = (usize, &T)> {
        let mut at = self.queues[rank].head;
        std::iter::from_fn(move || {
            let s = at as usize;
            at = self.links.get(s)?.next;
            Some((s, self.items[s].as_ref()?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// One step on the mailbox of rank `.0`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Deliver a fresh item.
        Push(usize),
        /// Receive the item at (position mod length) of the mailbox.
        Take(usize, usize),
        /// Probe it: read it without removing it.
        Peek(usize, usize),
    }

    fn op(ranks: usize) -> impl Strategy<Value = Op> {
        (0..3u8, 0..ranks, 0..64usize).prop_map(|(kind, r, pos)| match kind {
            0 => Op::Push(r),
            1 => Op::Take(r, pos),
            _ => Op::Peek(r, pos),
        })
    }

    /// Drive the arena and one `VecDeque` per rank through `ops` in
    /// lockstep, and compare every mailbox after every step.
    fn check_against_model(ranks: usize, ops: &[Op]) {
        let mut arena = Mailboxes::new(ranks);
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); ranks];
        let mut fresh = 0u64;
        let mut peak = 0;
        for &op in ops {
            match op {
                Op::Push(r) => {
                    arena.push_back(r, fresh);
                    model[r].push_back(fresh);
                    fresh += 1;
                }
                Op::Take(r, pos) | Op::Peek(r, pos) if !model[r].is_empty() => {
                    let pos = pos % model[r].len();
                    let (slot, &got) = arena.iter(r).nth(pos).expect("same length");
                    assert_eq!(*arena.get(slot), got);
                    if let Op::Take(..) = op {
                        assert_eq!(arena.remove(r, slot), got);
                        assert_eq!(model[r].remove(pos), Some(got));
                    } else {
                        assert_eq!(model[r][pos], got);
                    }
                }
                _ => continue, // nothing queued to take or peek
            }
            for (r, want) in model.iter().enumerate() {
                let got: Vec<u64> = arena.iter(r).map(|(_, &x)| x).collect();
                assert!(got.iter().eq(want.iter()), "rank {r}: {got:?} vs {want:?}");
                assert_eq!(arena.len(r), want.len());
            }
            // Freed slots are reused: the arena never holds more slots
            // than the most items ever queued at once.
            peak = peak.max(model.iter().map(VecDeque::len).sum::<usize>());
            assert!(arena.items.len() <= peak);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mailboxes_match_per_rank_deques_under_arbitrary_steps(
            ops in prop::collection::vec(op(4), 0..200),
        ) {
            check_against_model(4, &ops);
        }
    }

    #[test]
    fn a_taken_slot_carries_the_next_delivery() {
        let mut m = Mailboxes::new(2);
        m.push_back(0, 'a');
        m.push_back(1, 'b');
        m.push_back(0, 'c');
        let (slot, _) = m.iter(0).next().expect("rank 0 has mail");
        assert_eq!(m.remove(0, slot), 'a');
        m.push_back(1, 'd');
        assert_eq!(m.items.len(), 3, "the freed slot was reused");
        let order = |m: &Mailboxes<char>, r| m.iter(r).map(|(_, &c)| c).collect::<String>();
        assert_eq!(
            (order(&m, 0), order(&m, 1)),
            ("c".to_string(), "bd".to_string())
        );
    }
}
