//! The fabric's mailboxes, and the index every receive matches through.
//!
//! Every queued envelope belongs to one *stream*: the FIFO of the
//! messages one source sent to one destination on one `(ctx, tag)`. A
//! rank's mailbox is the set of its streams. Whatever a receive accepts
//! of one source on one `(ctx, tag)` it accepts of all of them, so a
//! source's first match in queue order — the only one MPI's
//! non-overtaking rule lets it take — heads its stream, and matching
//! reads stream heads only:
//!
//! * a given source and tag is one stream, found by its key;
//! * any source with one tag is the least `(arrival, source)` head of
//!   the streams on that `(destination, ctx, tag)` — a *group* — read
//!   off a binary heap of the group's streams. A group is made when a
//!   receive first asks for it, and kept from then on;
//! * any user tag is, per source, the head delivered first among the
//!   streams the call accepts — by delivery number, that is queue order:
//!   arrival is not monotone along a link (a large message followed by a
//!   small one arrives after it) — one pass over the rank's streams.
//!
//! Messages live in one per-fabric arena of slots, each with its stream
//! successor and delivery number; stream records live in chunks that
//! never move, found through an open-addressing index of record numbers.
//! A freed slot or record goes on a free list and carries the next one,
//! so a message allocates nothing of its own: the tables grow only when
//! more is queued at once than ever before on this fabric.

use crate::fabric::Envelope;

/// End of a list; no slot, stream or group.
const NIL: u32 = u32::MAX;

/// A stream, named for the message at its head: valid until that
/// message is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head(u32);

/// A queued message; a free slot holds an empty envelope and the next
/// free slot in `next`.
struct Slot {
    item: Envelope,
    /// The next message of its stream; the tail's is the head.
    next: u32,
    /// Delivery number: queue order, fabric-wide.
    seq: u32,
}

/// A stream's record. Its key is its rank and its head's
/// `(ctx, src_global, tag)`; its messages are a ring of slots, entered
/// at the tail.
#[derive(Clone, Copy)]
struct Stream {
    dst: u32,
    tail: u32,
    /// Neighbours in its rank's stream list; `next` links the free list
    /// while the record is free.
    prev: u32,
    next: u32,
    /// Its place in its group's heap, if it has a group.
    pos: u32,
}

/// A group's record: its key, and a min-heap of its streams by their
/// heads' `(arrival, source)`.
struct Group {
    ctx: u64,
    dst: u32,
    tag: u32,
    heap: Vec<u32>,
}

#[derive(Clone, Copy)]
struct Rank {
    /// First of its streams.
    streams: u32,
    /// Messages queued.
    len: usize,
    /// Whether it has a group: only then may a stream there have one.
    grouped: bool,
}

/// Every rank's mailbox, in one arena, indexed by stream.
pub(crate) struct Mailboxes {
    slots: Vec<Slot>,
    free_slot: u32,
    /// The next delivery number.
    delivered: u32,
    streams: Chunks<Stream>,
    free_stream: u32,
    stream_at: Table,
    groups: Vec<Group>,
    group_at: Table,
    ranks: Vec<Rank>,
    /// Scratch of [`Mailboxes::first_heads`]: `(source, delivery number,
    /// stream)` of each accepted head.
    firsts: Vec<(usize, u32, u32)>,
}

/// Multiply-rotate hash (FxHash) of a key's words.
fn hash(words: [u64; 3]) -> u64 {
    words.iter().fold(0, |h: u64, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0xf135_7aea_2e62_a9c5)
    })
}

fn stream_hash(dst: u32, e: &Envelope) -> u64 {
    hash([e.ctx, u64::from(dst) << 32 | e.src_global as u64, u64::from(e.tag)])
}

fn group_hash(dst: u32, ctx: u64, tag: u32) -> u64 {
    hash([ctx, u64::from(dst), u64::from(tag)])
}

impl Mailboxes {
    /// `ranks` empty mailboxes. The stream index starts with room for a
    /// stream per rank.
    pub(crate) fn new(ranks: usize) -> Self {
        Mailboxes {
            slots: Vec::new(),
            free_slot: NIL,
            delivered: 0,
            streams: Chunks::default(),
            free_stream: NIL,
            stream_at: Table::with_capacity(ranks),
            groups: Vec::new(),
            group_at: Table::with_capacity(0),
            ranks: vec![
                Rank {
                    streams: NIL,
                    len: 0,
                    grouped: false,
                };
                ranks
            ],
            firsts: Vec::new(),
        }
    }

    /// Items queued at `rank`.
    pub(crate) fn len(&self, rank: usize) -> usize {
        self.ranks[rank].len
    }

    /// Queue `item` at `rank`, at the back of its stream.
    pub(crate) fn push_back(&mut self, rank: usize, item: Envelope) {
        // Rank numbers fit 32 bits: a fabric runs a thread per rank.
        let dst = rank as u32;
        let h = stream_hash(dst, &item);
        let found = self.find_stream(h, dst, &item);
        let slot = self.new_slot(item);
        self.ranks[rank].len += 1;
        if let Some(s) = found {
            let st = &mut self.streams[s as usize];
            let tail = st.tail as usize;
            self.slots[slot as usize].next = self.slots[tail].next;
            self.slots[tail].next = slot;
            st.tail = slot;
            return;
        }
        self.slots[slot as usize].next = slot;
        let first = self.ranks[rank].streams;
        let record = Stream {
            dst,
            tail: slot,
            prev: NIL,
            next: first,
            pos: 0,
        };
        let s = match self.free_stream {
            NIL => self.streams.push(record),
            s => {
                self.free_stream = self.streams[s as usize].next;
                self.streams[s as usize] = record;
                s
            }
        };
        let (streams, slots) = (&self.streams, &self.slots);
        self.stream_at.insert(h, s, |s| {
            let st = &streams[s as usize];
            stream_hash(st.dst, &slots[slots[st.tail as usize].next as usize].item)
        });
        if first != NIL {
            self.streams[first as usize].prev = s;
        }
        self.ranks[rank].streams = s;
        if let Some(g) = self.group_of(s) {
            let heap = &mut self.groups[g as usize].heap;
            heap.push(s);
            let at = heap.len() - 1;
            self.streams[s as usize].pos = at as u32;
            self.sift_up(g, at);
        }
    }

    /// The stream at `dst` with `e`'s `(ctx, src_global, tag)`, whose key
    /// hashes to `h`.
    fn find_stream(&self, h: u64, dst: u32, e: &Envelope) -> Option<u32> {
        self.stream_at.find(h, |s| {
            self.streams[s as usize].dst == dst && {
                let head = self.head(Head(s));
                (head.ctx, head.src_global, head.tag) == (e.ctx, e.src_global, e.tag)
            }
        })
    }

    /// A slot holding `item`, the next delivery: a free one if there is one.
    fn new_slot(&mut self, item: Envelope) -> u32 {
        if self.delivered == u32::MAX {
            self.renumber();
        }
        let seq = self.delivered;
        self.delivered += 1;
        let slot = Slot {
            item,
            next: NIL,
            seq,
        };
        match self.free_slot {
            NIL => {
                #[expect(
                    clippy::expect_used,
                    reason = "slot links are 32-bit; 2^32 - 1 envelopes queued at once is far past \
                              any job the fabric can hold in memory"
                )]
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("a fabric queues fewer than 2^32 - 1 messages at once");
                self.slots.push(slot);
                s
            }
            s => {
                self.free_slot = self.slots[s as usize].next;
                self.slots[s as usize] = slot;
                s
            }
        }
    }

    /// Number the queued messages afresh from 0, in queue order: the
    /// 32-bit delivery counter has run out.
    fn renumber(&mut self) {
        let mut queued: Vec<(u32, u32)> = Vec::new();
        for rank in &self.ranks {
            let mut s = rank.streams;
            while s != NIL {
                queued.extend(self.ring(s).map(|at| (self.slots[at as usize].seq, at)));
                s = self.streams[s as usize].next;
            }
        }
        queued.sort_unstable();
        for (seq, &(_, at)) in (0..).zip(&queued) {
            self.slots[at as usize].seq = seq;
        }
        self.delivered = queued.len() as u32;
    }

    /// Stream `s`'s slots, head to tail.
    fn ring(&self, s: u32) -> impl Iterator<Item = u32> + '_ {
        let tail = self.streams[s as usize].tail;
        let mut at = Some(self.slots[tail as usize].next);
        std::iter::from_fn(move || {
            let slot = at?;
            at = (slot != tail).then(|| self.slots[slot as usize].next);
            Some(slot)
        })
    }

    /// The message at the head of stream `h`.
    pub(crate) fn head(&self, h: Head) -> &Envelope {
        let tail = self.streams[h.0 as usize].tail;
        &self.slots[self.slots[tail as usize].next as usize].item
    }

    /// Remove and return the message at the head of stream `h`.
    pub(crate) fn take(&mut self, h: Head) -> Envelope {
        let s = h.0;
        let group = self.group_of(s);
        let Stream {
            dst,
            tail,
            prev,
            next: following,
            pos,
        } = self.streams[s as usize];
        let head = self.slots[tail as usize].next;
        let Slot { item, next, .. } = std::mem::replace(
            &mut self.slots[head as usize],
            Slot {
                item: Envelope::default(),
                next: self.free_slot,
                seq: 0,
            },
        );
        self.free_slot = head;
        self.ranks[dst as usize].len -= 1;
        if head != tail {
            self.slots[tail as usize].next = next;
            if let Some(g) = group {
                // The new head may order anywhere in the group.
                self.resift(g, pos as usize);
            }
            return item;
        }
        // The stream is empty: out of the index, its rank's list and its
        // group, and onto the free list.
        self.stream_at.remove(stream_hash(dst, &item), s);
        match prev {
            NIL => self.ranks[dst as usize].streams = following,
            p => self.streams[p as usize].next = following,
        }
        if following != NIL {
            self.streams[following as usize].prev = prev;
        }
        if let Some(g) = group {
            let heap = &mut self.groups[g as usize].heap;
            heap.swap_remove(pos as usize);
            if let Some(&moved) = heap.get(pos as usize) {
                self.streams[moved as usize].pos = pos;
                self.resift(g, pos as usize);
            }
        }
        self.streams[s as usize].next = self.free_stream;
        self.free_stream = s;
        item
    }

    /// The stream from `src` to `rank` on `(ctx, tag)`, if one is queued.
    pub(crate) fn stream(&self, rank: usize, src: usize, ctx: u64, tag: u32) -> Option<Head> {
        let dst = rank as u32;
        let key = Envelope {
            ctx,
            src_global: src,
            tag,
            ..Envelope::default()
        };
        self.find_stream(stream_hash(dst, &key), dst, &key).map(Head)
    }

    /// The stream to `rank` on `(ctx, tag)` whose head is least by
    /// `(arrival, source)`. The first call for a `(rank, ctx, tag)` makes
    /// its group of the streams queued there; from then on every new
    /// stream there joins it.
    pub(crate) fn least_in_group(&mut self, rank: usize, ctx: u64, tag: u32) -> Option<Head> {
        let dst = rank as u32;
        let g = match self.find_group(dst, ctx, tag) {
            Some(g) => g,
            None => self.new_group(dst, ctx, tag),
        };
        self.groups[g as usize].heap.first().map(|&s| Head(s))
    }

    fn find_group(&self, dst: u32, ctx: u64, tag: u32) -> Option<u32> {
        self.group_at.find(group_hash(dst, ctx, tag), |g| {
            let g = &self.groups[g as usize];
            (g.dst, g.ctx, g.tag) == (dst, ctx, tag)
        })
    }

    /// The group stream `s` belongs to, if its rank made one for it.
    fn group_of(&self, s: u32) -> Option<u32> {
        let dst = self.streams[s as usize].dst;
        if !self.ranks[dst as usize].grouped {
            return None;
        }
        let head = self.head(Head(s));
        self.find_group(dst, head.ctx, head.tag)
    }

    fn new_group(&mut self, dst: u32, ctx: u64, tag: u32) -> u32 {
        let mut heap = Vec::new();
        let mut s = self.ranks[dst as usize].streams;
        while s != NIL {
            let head = self.head(Head(s));
            if (head.ctx, head.tag) == (ctx, tag) {
                self.streams[s as usize].pos = heap.len() as u32;
                heap.push(s);
            }
            s = self.streams[s as usize].next;
        }
        // Groups are never more than the fabric's ranks times the tags
        // its wildcard receives name.
        let g = self.groups.len() as u32;
        self.groups.push(Group {
            ctx,
            dst,
            tag,
            heap,
        });
        let groups = &self.groups;
        self.group_at.insert(group_hash(dst, ctx, tag), g, |g| {
            let g = &groups[g as usize];
            group_hash(g.dst, g.ctx, g.tag)
        });
        self.ranks[dst as usize].grouped = true;
        for i in (0..self.groups[g as usize].heap.len() / 2).rev() {
            self.sift_down(g, i);
        }
        g
    }

    /// Whether stream `a`'s head precedes `b`'s in virtual order.
    fn less(&self, a: u32, b: u32) -> bool {
        let (a, b) = (self.head(Head(a)), self.head(Head(b)));
        a.arrival
            .total_cmp(&b.arrival)
            .then(a.src_global.cmp(&b.src_global))
            .is_lt()
    }

    fn swap(&mut self, g: u32, i: usize, j: usize) {
        let heap = &mut self.groups[g as usize].heap;
        heap.swap(i, j);
        let (a, b) = (heap[i], heap[j]);
        self.streams[a as usize].pos = i as u32;
        self.streams[b as usize].pos = j as u32;
    }

    /// Move the entry at `i` of `g`'s heap, whatever its key now, to its
    /// place.
    fn resift(&mut self, g: u32, i: usize) {
        let i = self.sift_up(g, i);
        self.sift_down(g, i);
    }

    /// Move the entry at `i` of `g`'s heap up to its place; returns it.
    fn sift_up(&mut self, g: u32, mut i: usize) -> usize {
        while i > 0 {
            let p = (i - 1) / 2;
            let heap = &self.groups[g as usize].heap;
            if !self.less(heap[i], heap[p]) {
                break;
            }
            self.swap(g, i, p);
            i = p;
        }
        i
    }

    /// Move the entry at `i` of `g`'s heap down to its place.
    fn sift_down(&mut self, g: u32, mut i: usize) {
        loop {
            let heap = &self.groups[g as usize].heap;
            let mut least = i;
            for c in [2 * i + 1, 2 * i + 2] {
                if c < heap.len() && self.less(heap[c], heap[least]) {
                    least = c;
                }
            }
            if least == i {
                return;
            }
            self.swap(g, i, least);
            i = least;
        }
    }

    /// Each source's first-delivered head at `rank` among those `accept`
    /// admits, with its message, by source. One pass over the rank's
    /// streams, and a sort of the admitted ones.
    pub(crate) fn first_heads(
        &mut self,
        rank: usize,
        accept: impl Fn(&Envelope) -> bool,
    ) -> impl Iterator<Item = (Head, &Envelope)> {
        self.firsts.clear();
        let mut s = self.ranks[rank].streams;
        while s != NIL {
            let st = &self.streams[s as usize];
            let head = &self.slots[self.slots[st.tail as usize].next as usize];
            if accept(&head.item) {
                self.firsts.push((head.item.src_global, head.seq, s));
            }
            s = st.next;
        }
        self.firsts.sort_unstable();
        self.firsts.dedup_by_key(|&mut (src, _, _)| src);
        let this = &*self;
        this.firsts
            .iter()
            .map(move |&(_, _, s)| (Head(s), this.head(Head(s))))
    }
}

/// Records in chunks of `CHUNK`: a record never moves, and the table
/// grows without copying — so what it asks of the allocator is what it
/// holds, not the twice that a doubling vector asks on its way up.
struct Chunks<T> {
    chunks: Vec<Vec<T>>,
}

const CHUNK: usize = 1 << 10;

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks { chunks: Vec::new() }
    }
}

impl<T> Chunks<T> {
    fn len(&self) -> usize {
        self.chunks.last().map_or(0, |c| (self.chunks.len() - 1) * CHUNK + c.len())
    }

    /// Append `t`; returns its number, which fits: records are never
    /// more than slots.
    fn push(&mut self, t: T) -> u32 {
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(t),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(t);
                self.chunks.push(c);
            }
        }
        (self.len() - 1) as u32
    }
}

impl<T> std::ops::Index<usize> for Chunks<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T> std::ops::IndexMut<usize> for Chunks<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
}

/// An open-addressing hash index of record numbers, kept in Robin Hood
/// order: the key lives in the record, and each bucket also holds its
/// entry's distance from the bucket its hash names. Entries at one
/// distance from one home share it, so a lookup reads a record only for
/// those, and stops where a nearer-to-home entry shows its key is absent.
struct Table {
    recs: Vec<u32>,
    /// 1 + the entry's distance from its home; 0 for an empty bucket.
    dist: Vec<u8>,
    len: usize,
    /// `64 - log2(buckets)`: a home is a hash's top bits.
    shift: u32,
}

impl Table {
    /// A table that holds `n` entries without growing: it is kept at
    /// most three quarters full.
    fn with_capacity(n: usize) -> Table {
        Table::with_buckets((n + n / 3 + 1).next_power_of_two().max(8))
    }

    fn with_buckets(buckets: usize) -> Table {
        Table {
            recs: vec![NIL; buckets],
            dist: vec![0; buckets],
            len: 0,
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// The entry with hash `hash` that `is` accepts.
    fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.recs.len() - 1;
        let (mut i, mut d) = (self.home(hash), 1);
        // Distances stay below `u8::MAX` (see `place`), so `d` stops
        // here before it can wrap.
        while self.dist[i] >= d {
            if self.dist[i] == d && is(self.recs[i]) {
                return Some(self.recs[i]);
            }
            i = (i + 1) & mask;
            d += 1;
        }
        None
    }

    /// Enter `rec`, with hash `hash`; `hash_of` hashes the records
    /// already in, for a growth to place them again.
    fn insert(&mut self, hash: u64, rec: u32, hash_of: impl Fn(u32) -> u64) {
        if 4 * (self.len + 1) > 3 * self.recs.len() {
            self.grow(&hash_of);
        }
        while !self.place(hash, rec) {
            self.grow(&hash_of);
        }
    }

    /// Double the buckets — again, should a run still come out too long.
    fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let mut buckets = 2 * self.recs.len();
        'size: loop {
            let mut grown = Table::with_buckets(buckets);
            for (&r, _) in self.recs.iter().zip(&self.dist).filter(|&(_, &d)| d > 0) {
                if !grown.place(hash_of(r), r) {
                    buckets *= 2;
                    continue 'size;
                }
            }
            *self = grown;
            return;
        }
    }

    /// Place `rec` Robin Hood fashion: it takes the bucket of the first
    /// entry nearer its home than `rec` is to its own, which moves on in
    /// turn. Fails, placing nothing, where a distance would reach
    /// `u8::MAX`.
    fn place(&mut self, hash: u64, rec: u32) -> bool {
        let mask = self.recs.len() - 1;
        // A dry run first: the distance of the entry carried at each step.
        let (mut i, mut d) = (self.home(hash), 1);
        while self.dist[i] > 0 {
            d = d.min(self.dist[i]);
            if d + 1 == u8::MAX {
                return false;
            }
            (i, d) = ((i + 1) & mask, d + 1);
        }
        let (mut i, mut r, mut d) = (self.home(hash), rec, 1);
        loop {
            if self.dist[i] == 0 {
                (self.recs[i], self.dist[i]) = (r, d);
                self.len += 1;
                return true;
            }
            if self.dist[i] < d {
                std::mem::swap(&mut self.recs[i], &mut r);
                std::mem::swap(&mut self.dist[i], &mut d);
            }
            i = (i + 1) & mask;
            d += 1;
        }
    }

    /// Take out `rec`, which has hash `hash`, and close the gap: the
    /// entries after it that are not at home move one bucket nearer.
    fn remove(&mut self, hash: u64, rec: u32) {
        let mask = self.recs.len() - 1;
        let mut i = self.home(hash);
        while self.recs[i] != rec || self.dist[i] == 0 {
            i = (i + 1) & mask;
        }
        loop {
            let next = (i + 1) & mask;
            if self.dist[next] <= 1 {
                break;
            }
            (self.recs[i], self.dist[i]) = (self.recs[next], self.dist[next] - 1);
            i = next;
        }
        self.dist[i] = 0;
        self.len -= 1;
    }
}

#[cfg(test)]
impl Mailboxes {
    /// `rank`'s mailbox in queue order, each message with its delivery
    /// number.
    pub(crate) fn iter(&self, rank: usize) -> impl Iterator<Item = (u32, &Envelope)> {
        let mut all = Vec::new();
        let mut s = self.ranks[rank].streams;
        while s != NIL {
            all.extend(self.ring(s).map(|at| (self.slots[at as usize].seq, at)));
            s = self.streams[s as usize].next;
        }
        all.sort_unstable();
        all.into_iter()
            .map(|(seq, at)| (seq, &self.slots[at as usize].item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step on the mailbox of rank `.0`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Deliver a fresh message from source `.1` with tag `.2`,
        /// arriving at `.3`.
        Push(usize, usize, u32, u8),
        /// Take the head of the (`.1` mod count)-th stream.
        Take(usize, usize),
    }

    fn op(ranks: usize) -> impl Strategy<Value = Op> {
        (0..3u8, 0..ranks, 0..4usize, 0..3u32, 0..64usize).prop_map(
            move |(kind, r, src, tag, x)| match kind {
                0 | 1 => Op::Push(r, src, tag, x as u8),
                _ => Op::Take(r, x),
            },
        )
    }

    fn env(src: usize, tag: u32, arrival: u8, id: u64) -> Envelope {
        Envelope {
            src_global: src,
            tag,
            arrival: f64::from(arrival),
            sent: id as f64,
            ..Envelope::default()
        }
    }

    /// Drive the arena and a queue-order list per rank through `ops` in
    /// lockstep. After every step each mailbox holds what the list
    /// does, each stream's head is its source-and-tag's first message,
    /// and each group's heap top is the least `(arrival, source)` of
    /// those.
    fn check_against_model(ranks: usize, grouped: bool, ops: &[Op]) {
        let mut mail = Mailboxes::new(ranks);
        let mut model: Vec<Vec<Envelope>> = vec![Vec::new(); ranks];
        let mut fresh = 0u64;
        let mut peak = 0;
        if grouped {
            for r in 0..ranks {
                assert_eq!(mail.least_in_group(r, 0, 0), None);
            }
        }
        for &op in ops {
            match op {
                Op::Push(r, src, tag, arrival) => {
                    mail.push_back(r, env(src, tag, arrival, fresh));
                    model[r].push(env(src, tag, arrival, fresh));
                    fresh += 1;
                }
                Op::Take(r, k) => {
                    let mut all: Vec<Head> = Vec::new();
                    let mut s = mail.ranks[r].streams;
                    while s != NIL {
                        all.push(Head(s));
                        s = mail.streams[s as usize].next;
                    }
                    let Some(&h) = all.get(k % all.len().max(1)) else {
                        continue; // nothing queued
                    };
                    let got = mail.take(h);
                    let at = model[r]
                        .iter()
                        .position(|e| (e.src_global, e.tag) == (got.src_global, got.tag))
                        .expect("queued");
                    assert_eq!(model[r].remove(at).sent, got.sent, "a take is a stream head");
                }
            }
            for (r, want) in model.iter().enumerate() {
                let got: Vec<f64> = mail.iter(r).map(|(_, e)| e.sent).collect();
                let want_ids: Vec<f64> = want.iter().map(|e| e.sent).collect();
                assert_eq!(got, want_ids, "rank {r}");
                assert_eq!(mail.len(r), want.len());
                for tag in 0..3 {
                    let least = (0..4)
                        .filter_map(|src| want.iter().find(|e| (e.src_global, e.tag) == (src, tag)))
                        .min_by(|a, b| {
                            a.arrival
                                .total_cmp(&b.arrival)
                                .then(a.src_global.cmp(&b.src_global))
                        });
                    if grouped {
                        let top = mail.least_in_group(r, 0, tag).map(|h| mail.head(h).sent);
                        assert_eq!(top, least.map(|e| e.sent), "rank {r} tag {tag}");
                    }
                    for src in 0..4 {
                        let first = want.iter().find(|e| (e.src_global, e.tag) == (src, tag));
                        let head = mail.stream(r, src, 0, tag).map(|h| mail.head(h).sent);
                        assert_eq!(head, first.map(|e| e.sent));
                    }
                }
            }
            // Freed slots and records are reused: no table holds more
            // than the most messages ever queued at once.
            peak = peak.max(model.iter().map(Vec::len).sum::<usize>());
            assert!(mail.slots.len() <= peak);
            assert!(mail.streams.len() <= peak);
            assert!(mail.groups.len() <= 3 * ranks, "a group per rank and tag asked for");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mailboxes_match_a_queue_order_model_under_arbitrary_steps(
            ops in prop::collection::vec(op(3), 0..200),
        ) {
            check_against_model(3, false, &ops);
        }

        #[test]
        fn group_heaps_track_the_least_head_under_arbitrary_steps(
            ops in prop::collection::vec(op(3), 0..200),
        ) {
            check_against_model(3, true, &ops);
        }
    }

    /// A hash that puts every key in one of `homes` buckets' worth of
    /// hashes: long runs, shared homes and wrap-around at the table's end.
    fn crowded(key: u32, homes: u64) -> u64 {
        (u64::from(key) % homes).wrapping_mul(0x9e37_79b9_7f4a_7c15) | u64::MAX >> 8
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_table_matches_a_set_under_arbitrary_steps(
            homes in 1..9u64,
            keys in prop::collection::vec(0..96u32, 0..300),
        ) {
            let mut table = Table::with_capacity(0);
            let mut set = std::collections::BTreeSet::new();
            let h = |k: u32| crowded(k, homes);
            for k in keys {
                // A key present goes, one absent comes.
                if set.remove(&k) {
                    table.remove(h(k), k);
                } else {
                    set.insert(k);
                    table.insert(h(k), k, h);
                }
                prop_assert_eq!(table.len, set.len());
                for probe in 0..96 {
                    let found = table.find(h(probe), |r| r == probe);
                    prop_assert_eq!(found, set.contains(&probe).then_some(probe));
                }
            }
        }
    }

    #[test]
    fn a_taken_slot_carries_the_next_delivery() {
        let mut m = Mailboxes::new(2);
        m.push_back(0, env(5, 0, 0, 0));
        m.push_back(1, env(5, 0, 0, 1));
        m.push_back(0, env(6, 0, 0, 2));
        let h = m.stream(0, 5, 0, 0).expect("rank 0 has mail from 5");
        assert_eq!(m.take(h).sent, 0.0);
        m.push_back(1, env(7, 0, 0, 3));
        assert_eq!(m.slots.len(), 3, "the freed slot was reused");
        assert_eq!(m.streams.len(), 3, "the freed stream record was reused");
        let order = |m: &Mailboxes, r| m.iter(r).map(|(_, e)| e.sent).collect::<Vec<_>>();
        assert_eq!((order(&m, 0), order(&m, 1)), (vec![2.0], vec![1.0, 3.0]));
    }

    #[test]
    fn a_spent_delivery_counter_renumbers_in_queue_order() {
        let mut m = Mailboxes::new(1);
        m.delivered = u32::MAX - 2;
        for (id, tag) in [(0, 1), (1, 2), (2, 1), (3, 2), (4, 1)] {
            m.push_back(0, env(0, tag, 0, id));
        }
        assert_eq!(m.delivered, 5, "the counter started again at the two queued");
        let ids: Vec<f64> = m.iter(0).map(|(_, e)| e.sent).collect();
        assert_eq!(ids, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let firsts = |m: &mut Mailboxes| {
            m.first_heads(0, |_| true)
                .map(|(_, e)| e.sent)
                .collect::<Vec<_>>()
        };
        assert_eq!(firsts(&mut m), vec![0.0]);
        let h = m.stream(0, 0, 0, 1).expect("tag 1 is queued");
        m.take(h);
        assert_eq!(firsts(&mut m), vec![1.0], "tag 2's head was delivered before tag 1's");
    }
}
