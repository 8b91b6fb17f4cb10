//! Communicators: the per-rank API surface of the fabric.
//!
//! A [`Comm`] is what MPI calls a communicator handle: it knows its rank,
//! its group (local→global rank mapping), its context id (so messages from
//! different communicators never cross-match) and its stats, and it
//! reaches the rank's virtual clock in the fabric's clock table.
//! `Comm::split` mirrors `MPI_Comm_split`, which Rocpanda's
//! initialization uses to divide the world into client and server
//! communicators (§4.1).

use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use rocio_core::{Result, RocError, Rope, SimTime};

use crate::cluster::ClusterSpec;
use crate::fabric::{ChoiceKind, Envelope, Fabric, MatchSpec};
use crate::stats::{CommStats, StatsSnapshot};
use crate::vtime::VClock;

/// Largest tag value available to user code; larger tags are reserved for
/// collectives. Wildcard receives never match reserved tags.
pub const TAG_USER_MAX: u32 = 0x0FFF_FFFF;

const COLL_TAG_BASE: u32 = 0xF000_0000;

/// A received message: its payload as one contiguous buffer (`Message`),
/// or as the [`Rope`] of parts it travelled as (`Message<Rope>`, from
/// [`Comm::recv_rope`]).
#[derive(Debug, Clone)]
pub struct Message<P = Bytes> {
    /// Sender's rank *within this communicator*.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload bytes, shared with the sender's buffers by refcount: a
    /// one-part message — every `send`, `send_bytes` and collective — is
    /// the sender's very buffer (derefs to `&[u8]`), and a rope's parts
    /// are the sender's segments.
    pub payload: P,
    /// Virtual send-completion time at the sender.
    pub sent: SimTime,
    /// Virtual arrival time at this rank.
    pub arrival: SimTime,
}

impl Message<Rope> {
    /// The message with its payload contiguous: O(1) for one part, one
    /// gather copy for a scatter-gather message ([`Rope::into_bytes`]).
    pub fn flatten(self) -> Message {
        Message {
            src: self.src,
            tag: self.tag,
            payload: self.payload.into_bytes(),
            sent: self.sent,
            arrival: self.arrival,
        }
    }
}

/// Result of a (blocking or non-blocking) probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeInfo {
    /// Sender's rank within this communicator.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// A communicator's members: the local ↔ global rank mapping.
///
/// The world group is the identity and carries no table, so building
/// the world communicator on every rank costs nothing per rank; a split
/// shares one table between the handle and the specs it publishes.
#[derive(Debug, Clone)]
pub struct Group {
    size: usize,
    /// `None`: every rank of a `size`-rank fabric, local = global.
    table: Option<Arc<GroupTable>>,
}

#[derive(Debug)]
struct GroupTable {
    /// Local rank -> global rank.
    globals: Vec<usize>,
    /// `(global, local)` sorted by global rank, for binary search.
    by_global: Vec<(usize, usize)>,
}

impl Group {
    /// The identity group of an `n`-rank fabric.
    pub fn world(n: usize) -> Group {
        Group { size: n, table: None }
    }

    /// The group whose local rank `l` is global rank `globals[l]`.
    fn of(globals: Vec<usize>) -> Group {
        let mut by_global: Vec<(usize, usize)> =
            globals.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        by_global.sort_unstable();
        Group {
            size: globals.len(),
            table: Some(Arc::new(GroupTable { globals, by_global })),
        }
    }

    fn global(&self, local: usize) -> usize {
        assert!(local < self.size, "rank {local} out of range (size {})", self.size);
        self.table.as_ref().map_or(local, |t| t.globals[local])
    }

    /// Local rank of global rank `global`, if it is a member.
    pub fn local(&self, global: usize) -> Option<usize> {
        match &self.table {
            None => (global < self.size).then_some(global),
            Some(t) => {
                let i = t.by_global.binary_search_by_key(&global, |&(g, _)| g).ok()?;
                Some(t.by_global[i].1)
            }
        }
    }

    /// Local rank of a global rank known to be a member: the sender of
    /// a message this group's spec matched, or the caller of a split.
    #[expect(
        clippy::expect_used,
        reason = "the rank is the sender of a message this group's spec just matched, or the \
                  split's own caller"
    )]
    fn member_rank(&self, global: usize) -> usize {
        self.local(global).expect("rank is a member of the group")
    }
}

/// A communicator handle owned by one rank thread.
pub struct Comm {
    fabric: Arc<Fabric>,
    ctx: u64,
    group: Group,
    my_local: usize,
    /// This rank's global rank: where its clock sits in the fabric's table.
    global: usize,
    coll_seq: Cell<u32>,
    split_seq: Cell<u32>,
    stats: CommStats,
}

impl Comm {
    /// The world communicator for global rank `rank` on `fabric`.
    pub fn world(fabric: Arc<Fabric>, rank: usize) -> Self {
        let n = fabric.n_ranks();
        assert!(rank < n, "rank {rank} out of range for {n}-rank fabric");
        Comm {
            fabric,
            ctx: 0,
            group: Group::world(n),
            my_local: rank,
            global: rank,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            stats: CommStats::default(),
        }
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_local
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.size
    }

    /// This rank's global rank.
    pub fn global_rank(&self) -> usize {
        self.global
    }

    /// The underlying fabric (shared).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The cluster spec the fabric models.
    pub fn cluster(&self) -> &ClusterSpec {
        self.fabric.spec()
    }

    /// This rank's virtual clock, shared across the rank's communicators.
    /// The fabric owns it: wildcard matching is gated on a scan of every
    /// rank's virtual time (see the `fabric` module docs). Read-only
    /// here: every move goes through `Comm::move_clock`.
    pub(crate) fn clock(&self) -> &VClock {
        self.fabric.clock_of(self.global)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock().now()
    }

    /// Advance virtual time by a raw duration (storage layers use this).
    /// May take the fabric lock to wake gate waiters the move lets pass:
    /// call it with no lock held.
    pub fn advance(&self, dt: SimTime) {
        self.move_clock(|c| c.advance(dt));
    }

    /// Move virtual time up to `t` if it is not there yet
    /// (`now := max(now, t)`): the rank idled until an event at `t` — a
    /// disk completion, a flush, a deadline. Wakes like [`Comm::advance`].
    pub fn advance_to(&self, t: SimTime) {
        self.move_clock(|c| c.merge(t));
    }

    /// Every move of this rank's clock: apply `step` (which returns the
    /// time before it), then let the fabric wake the gate waiters whose
    /// bound the move crossed.
    fn move_clock(&self, step: impl FnOnce(&VClock) -> SimTime) {
        let clock = self.clock();
        let old = step(clock);
        self.fabric.clock_moved(old, clock.now());
    }

    /// Perform `work` work-units of computation: advances the clock by the
    /// cluster's modelled compute time, including OS noise.
    pub fn compute(&self, work: f64) {
        let t0 = self.now();
        self.advance(self.fabric.spec().compute_time(work));
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::Compute,
                "compute",
                t0,
                self.now(),
                &format!("work={work}"),
            );
        }
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn node_of_local(&self, local: usize) -> usize {
        self.fabric.spec().node_of(self.group.global(local))
    }

    /// Send `payload` to local rank `dst` with `tag`.
    ///
    /// Eager-protocol semantics: the payload is copied into the fabric and
    /// the call never blocks. The sender's clock advances by the modelled
    /// injection cost; the message is stamped with its modelled arrival.
    ///
    /// This is the one copy on the path: senders holding a [`Bytes`]
    /// handle should use [`Comm::send_bytes`] to skip it.
    pub fn send(&self, dst: usize, tag: u32, payload: &[u8]) -> Result<()> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(payload))
    }

    /// Send an already-shared payload without copying: the receiver's
    /// [`Message::payload`] is a refcounted view of this very buffer.
    /// Modelled cost is identical to [`Comm::send`].
    pub fn send_bytes(&self, dst: usize, tag: u32, payload: Bytes) -> Result<()> {
        self.send_rope(dst, tag, payload.into()).map(drop)
    }

    /// Send a rope as one message: what every send comes down to, and how
    /// a message of several parts (a block's header runs and payloads) goes
    /// out without being assembled. A receiver that takes the rope
    /// ([`Comm::recv_rope`]) sees the sender's parts; one that asks for
    /// bytes pays the gather copy then. The modelled cost depends on the
    /// length alone. Returns the message's modelled arrival at `dst` —
    /// send cost plus flight time from now.
    pub fn send_rope(&self, dst: usize, tag: u32, payload: Rope) -> Result<SimTime> {
        if dst >= self.size() {
            return Err(RocError::Comm(format!(
                "send: rank {dst} out of range (size {})",
                self.size()
            )));
        }
        let spec = self.fabric.spec();
        let t_send_start = self.now();
        self.advance(spec.net.send_cost(payload.len()));
        let arrival = self.now()
            + spec.net.flight_time(
                self.node_of_local(self.my_local),
                self.node_of_local(dst),
                payload.len(),
                self.fabric.n_ranks(),
            );
        self.stats.on_send(payload.len());
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::Send,
                "send",
                t_send_start,
                self.now(),
                &format!("dst={dst} tag={tag:#x} bytes={}", payload.len()),
            );
        }
        // Gate invariant: the clock must not advance between stamping
        // `arrival` above and handing the envelope to the fabric — the
        // safety scan relies on a sender's published clock never exceeding
        // the arrival of a delivery it still has in flight.
        self.fabric.deliver(
            self.group.global(dst),
            Envelope {
                ctx: self.ctx,
                src_global: self.global_rank(),
                tag,
                payload,
                sent: self.now(),
                arrival,
            },
        );
        Ok(arrival)
    }

    /// What a receive or probe with these (local-rank) arguments accepts.
    fn spec(&self, src: Option<usize>, tag: Option<u32>) -> MatchSpec {
        MatchSpec {
            ctx: self.ctx,
            src: src.map(|s| self.group.global(s)),
            tag,
            group: self.group.clone(),
        }
    }

    /// [`Fabric::settle_at`] for this rank with local-rank arguments.
    fn settle(
        &self,
        src: Option<usize>,
        tag: Option<u32>,
        now: SimTime,
        kind: ChoiceKind,
    ) -> Option<Envelope> {
        self.fabric
            .settle_at(self.global_rank(), &self.spec(src, tag), now, kind)
    }

    fn to_message(&self, env: Envelope) -> Message<Rope> {
        self.advance_to(env.arrival);
        self.advance(self.fabric.spec().net.recv_cost(env.payload.len()));
        self.stats.on_recv(env.payload.len());
        Message {
            src: self.group.member_rank(env.src_global),
            tag: env.tag,
            payload: env.payload,
            sent: env.sent,
            arrival: env.arrival,
        }
    }

    /// Blocking receive. `src`/`tag` of `None` are wildcards; a wildcard
    /// tag only matches user tags (≤ [`TAG_USER_MAX`]).
    ///
    /// A wildcard-source receive resolves in virtual order (earliest
    /// arrival, sender id breaking ties) behind the fabric's conservative
    /// gate, so the match is independent of OS thread scheduling.
    pub fn recv(&self, src: Option<usize>, tag: Option<u32>) -> Result<Message> {
        Ok(self.recv_rope(src, tag)?.flatten())
    }

    /// [`Comm::recv`] that hands the payload over as it travelled: the
    /// receive a layer uses when it moves payload on (decode through
    /// [`Rope::cursor`], and a block's data stays the sender's buffer).
    pub fn recv_rope(&self, src: Option<usize>, tag: Option<u32>) -> Result<Message<Rope>> {
        if let Some(s) = src {
            if s >= self.size() {
                return Err(RocError::Comm(format!(
                    "recv: rank {s} out of range (size {})",
                    self.size()
                )));
            }
        }
        let t0 = self.now();
        let env = self
            .fabric
            .wait_match(self.global_rank(), &self.spec(src, tag), ChoiceKind::Take);
        Ok(self.received(t0, env))
    }

    /// A receive's message, taken from the fabric at `t0`: the clock
    /// charged, the stats counted and the `recv` span recorded.
    fn received(&self, t0: SimTime, env: Envelope) -> Message<Rope> {
        let msg = self.to_message(env);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::Recv,
                "recv",
                t0,
                self.now(),
                &format!("src={} tag={:#x} bytes={}", msg.src, msg.tag, msg.payload.len()),
            );
        }
        msg
    }

    /// The receive of a drain whose senders are known: takes what the
    /// next [`Comm::recv_rope`]`(None, tag)` of a drain loop would take,
    /// and charges the clock, the stats and the `recv` span as it would,
    /// but waits on the `open` ranks alone and takes no virtual-time gate.
    ///
    /// It waits until each rank of `open` (ascending, distinct) has a
    /// message `tag` accepts queued here, then takes the least
    /// `(arrival, sender)` of those ranks' first such messages. A wildcard
    /// receive must also wait until no *other* rank can still send an
    /// earlier arrival, so a drain of wildcard receives commits each
    /// message at the least commitment of the whole job; here the caller
    /// names the senders, and no other rank's clock matters.
    ///
    /// The caller vouches for three things, and on a network model with
    /// nonzero costs (e.g. `ClusterSpec::turing`) the order, the clock and
    /// every byte then equal the wildcard loop's:
    ///
    /// * each rank of `open` sends up to its last message of the drain
    ///   without waiting on this rank — the receive waits for a message
    ///   from every open rank before it takes any;
    /// * no rank outside `open` sends this rank a message `tag` accepts
    ///   until the drain ends;
    /// * a rank leaves `open` once its last message has been taken (the
    ///   protocol says which: a count, a closing notice).
    ///
    /// On a zero-cost model (`ClusterSpec::ideal`) a sender whose clock
    /// equals the candidate's arrival may still queue a message that ties
    /// it: the gate commits the candidate, this receive waits for the tie
    /// and takes it first if its sender's rank is lower. Each message is
    /// still taken once and every sender's own order kept; only the
    /// interleaving of tied arrivals may differ.
    ///
    /// Errors on an empty `open` (nothing could ever arrive), on one that
    /// does not strictly ascend, and on a rank out of range.
    pub fn recv_least_of(&self, open: &[usize], tag: Option<u32>) -> Result<Message<Rope>> {
        if !open.windows(2).all(|w| w[0] < w[1]) {
            return Err(RocError::Comm(format!(
                "recv_least_of: open senders {open:?} do not strictly ascend"
            )));
        }
        match open.last() {
            None => return Err(RocError::Comm("recv_least_of: no open sender".into())),
            Some(&s) if s >= self.size() => {
                return Err(RocError::Comm(format!(
                    "recv: rank {s} out of range (size {})",
                    self.size()
                )));
            }
            Some(_) => {}
        }
        let t0 = self.now();
        let env = self
            .fabric
            .wait_least_of(self.global_rank(), &self.spec(None, tag), open);
        Ok(self.received(t0, env))
    }

    /// Combined send+receive (`MPI_Sendrecv`): ships `payload` to `dst`
    /// and receives one message from `src` with the same tag. The eager
    /// fabric makes this deadlock-free in rings and exchanges.
    pub fn sendrecv(&self, dst: usize, src: usize, tag: u32, payload: &[u8]) -> Result<Message> {
        self.send(dst, tag, payload)?;
        self.recv(Some(src), Some(tag))
    }

    /// Non-blocking receive: takes the virtual-order first matching
    /// message that has arrived by the current virtual time, or `None`
    /// once no rank can still produce one. Never consumes virtual time
    /// (though the determinism gate may wait in wall-clock time). The
    /// payload comes as it travelled, like [`Comm::recv_rope`]'s.
    pub(crate) fn try_recv(&self, src: Option<usize>, tag: Option<u32>) -> Option<Message<Rope>> {
        let env = self.settle(src, tag, self.now(), ChoiceKind::Take)?;
        Some(self.to_message(env))
    }

    /// Blocking receive with a virtual-time deadline: returns the
    /// virtual-order first matching message that arrives by `deadline`,
    /// or `None` once no rank can still produce one — in which case the
    /// clock advances to `deadline` (the timer fired; the rank idled
    /// until it). This is the primitive under the reliability layer's
    /// retransmit timers ([`crate::rocrel`]): deterministic because the
    /// answer is gated the same way [`Comm::try_recv`] is, with the
    /// deadline standing in for "now" — and the payload comes the same
    /// way, as it travelled.
    pub(crate) fn recv_deadline(
        &self,
        src: Option<usize>,
        tag: Option<u32>,
        deadline: SimTime,
    ) -> Option<Message<Rope>> {
        let t0 = self.now();
        let msg = self
            .settle(src, tag, deadline, ChoiceKind::Take)
            .map(|env| self.to_message(env));
        if msg.is_none() {
            self.advance_to(deadline);
        }
        if rocobs::enabled() {
            let detail = match &msg {
                Some(m) => format!("src={} tag={:#x} bytes={}", m.src, m.tag, m.payload.len()),
                None => "timeout".into(),
            };
            let now = self.now();
            rocobs::record(rocobs::SpanCategory::Recv, "recv_deadline", t0, now, &detail);
        }
        msg
    }

    /// Blocking probe: waits for a matching message, merges the clock with
    /// its arrival (the CPU idles until then — the behaviour Rocpanda
    /// servers rely on so "the operating system can use the server CPUs",
    /// §6.1) and reports it without removing it.
    pub fn probe(&self, src: Option<usize>, tag: Option<u32>) -> ProbeInfo {
        let t0 = self.now();
        let head = self
            .fabric
            .wait_match(self.global_rank(), &self.spec(src, tag), ChoiceKind::Peek);
        let (src, tag, bytes) = (
            self.group.member_rank(head.src_global),
            head.tag,
            head.payload.len(),
        );
        self.advance_to(head.arrival);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::ProbeBlocking,
                "probe",
                t0,
                self.now(),
                &format!("src={src} tag={tag:#x} bytes={bytes}"),
            );
        }
        ProbeInfo { src, tag, bytes }
    }

    /// Non-blocking probe (`MPI_Iprobe`): reports the virtual-order first
    /// matching message that has arrived by the current virtual time,
    /// without consuming virtual time or removing the message. A `None`
    /// answer is final for this instant: no rank can still produce a
    /// matching message arriving this early.
    pub fn iprobe(&self, src: Option<usize>, tag: Option<u32>) -> Option<ProbeInfo> {
        let peeked = self.settle(src, tag, self.now(), ChoiceKind::Peek);
        if rocobs::enabled() {
            // Instantaneous poll: zero-length span, recorded whether or
            // not a message was waiting (the poll itself is the event).
            let now = self.now();
            let detail = if peeked.is_some() { "hit" } else { "miss" };
            rocobs::record(rocobs::SpanCategory::ProbeNonBlocking, "iprobe", now, now, detail);
        }
        let head = peeked?;
        Some(ProbeInfo {
            src: self.group.member_rank(head.src_global),
            tag: head.tag,
            bytes: head.payload.len(),
        })
    }

    /// Reserved tag for the `seq`-th collective, operation code `op`.
    pub(crate) fn coll_tag(&self, op: u8) -> u32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        COLL_TAG_BASE | ((seq & 0x000F_FFFF) << 8) | op as u32
    }

    /// Split the communicator, `MPI_Comm_split` style.
    ///
    /// Ranks passing the same `color` form a new communicator, ordered by
    /// `(key, parent rank)`. Ranks passing `None` get `Ok(None)` back.
    /// Every member of the parent must call `split` collectively.
    pub fn split(&self, color: Option<u32>, key: i64) -> Result<Option<Comm>> {
        let mut payload = Vec::with_capacity(13);
        match color {
            Some(c) => {
                payload.push(1u8);
                payload.extend_from_slice(&c.to_le_bytes());
            }
            None => {
                payload.push(0u8);
                payload.extend_from_slice(&0u32.to_le_bytes());
            }
        }
        payload.extend_from_slice(&key.to_le_bytes());
        let all = self.allgather(&payload)?;

        let split_seq = self.split_seq.get();
        self.split_seq.set(split_seq + 1);

        let Some(my_color) = color else {
            return Ok(None);
        };

        // Collect (key, parent_local, global) of every same-color member.
        let mut members: Vec<(i64, usize, usize)> = Vec::new();
        for (parent_local, bytes) in all.iter().enumerate() {
            let Ok(part) = <[u8; 13]>::try_from(&bytes[..]) else {
                return Err(RocError::Comm(format!(
                    "split: rank {parent_local} sent a {}-byte part, expected 13",
                    bytes.len()
                )));
            };
            let present = part[0] == 1;
            let c = u32::from_le_bytes(std::array::from_fn(|i| part[1 + i]));
            let k = i64::from_le_bytes(std::array::from_fn(|i| part[5 + i]));
            if present && c == my_color {
                members.push((k, parent_local, self.group.global(parent_local)));
            }
        }
        members.sort_unstable();
        let group = Group::of(members.iter().map(|&(_, _, g)| g).collect());
        let my_local = group.member_rank(self.global_rank());

        // Context id must be identical on all members and distinct from
        // other communicators: mix parent ctx, split ordinal and color.
        let mut ctx = 0xcbf2_9ce4_8422_2325u64;
        for part in [self.ctx, split_seq as u64, my_color as u64 + 1] {
            ctx ^= part;
            ctx = ctx.wrapping_mul(0x0000_0100_0000_01b3);
        }

        Ok(Some(Comm {
            fabric: Arc::clone(&self.fabric),
            ctx,
            group,
            my_local,
            global: self.global,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            stats: CommStats::default(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::harness::run_ranks;

    #[test]
    fn send_recv_round_trip() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 42, b"hello").unwrap();
                Bytes::new()
            } else {
                comm.recv(Some(0), Some(42)).unwrap().payload
            }
        });
        assert_eq!(out[1], b"hello");
    }

    #[test]
    fn sendrecv_ring_exchange() {
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let n = comm.size();
            let next = (comm.rank() + 1) % n;
            let prev = (comm.rank() + n - 1) % n;
            let m = comm.sendrecv(next, prev, 7, &[comm.rank() as u8]).unwrap();
            m.payload[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn recv_merges_clock_with_arrival() {
        let out = run_ranks(2, ClusterSpec::turing(2), |comm| {
            if comm.rank() == 0 {
                comm.compute(1.0); // sender is 1s ahead
                comm.send(1, 1, &[0u8; 1024]).unwrap();
            } else {
                let m = comm.recv(Some(0), Some(1)).unwrap();
                assert!(m.arrival > 1.0);
            }
            comm.now()
        });
        assert!(out[1] >= 1.0, "receiver clock jumped to arrival: {}", out[1]);
    }

    #[test]
    fn wildcard_recv_ignores_reserved_tags() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, COLL_TAG_BASE | 5, b"internal").unwrap();
                comm.send(1, 9, b"user").unwrap();
                Bytes::new()
            } else {
                comm.recv(None, None).unwrap().payload
            }
        });
        assert_eq!(out[1], b"user");
    }

    #[test]
    fn per_source_fifo_order() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                for i in 0..10u8 {
                    comm.send(1, 7, &[i]).unwrap();
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| comm.recv(Some(0), Some(7)).unwrap().payload[0])
                    .collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn iprobe_and_probe_report_size_without_consuming() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[9u8; 17]).unwrap();
                true
            } else {
                let info = comm.probe(None, Some(3));
                assert_eq!(info.bytes, 17);
                assert_eq!(info.src, 0);
                let again = comm.iprobe(Some(0), Some(3)).unwrap();
                assert_eq!(again.bytes, 17);
                let m = comm.recv(Some(0), Some(3)).unwrap();
                m.payload.len() == 17 && comm.iprobe(None, Some(3)).is_none()
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn split_creates_disjoint_communicators() {
        // 4 ranks: even ranks color 0, odd ranks color 1.
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let color = (comm.rank() % 2) as u32;
            let sub = comm.split(Some(color), comm.rank() as i64).unwrap().unwrap();
            // Each sub-communicator has 2 ranks; exchange ranks inside it.
            let peer = 1 - sub.rank();
            sub.send(peer, 1, &[sub.rank() as u8]).unwrap();
            let m = sub.recv(Some(peer), Some(1)).unwrap();
            (sub.size(), sub.rank(), m.payload[0])
        });
        for (size, my, got) in &out {
            assert_eq!(*size, 2);
            assert_eq!(*got as usize, 1 - *my);
        }
    }

    #[test]
    fn split_with_none_color_returns_none() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            let color = if comm.rank() == 0 { None } else { Some(1u32) };
            let sub = comm.split(color, 0).unwrap();
            match sub {
                None => usize::MAX,
                Some(s) => s.size(),
            }
        });
        assert_eq!(out[0], usize::MAX);
        assert_eq!(out[1], 2);
        assert_eq!(out[2], 2);
    }

    #[test]
    fn split_refuses_a_gathered_part_of_the_wrong_length() {
        // Rank 1 answers rank 0's split with a 2-byte part: the allgather
        // under the split takes the same two collective tags.
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.split(Some(0), 0).err().map(|e| e.to_string())
            } else {
                comm.allgather(&[1, 0]).unwrap();
                None
            }
        });
        let err = out[0].as_deref().expect("a short part must fail the split");
        assert!(err.contains("rank 1 sent a 2-byte part"), "{err}");
    }

    #[test]
    fn split_messages_do_not_leak_into_parent() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let sub = comm.split(Some(0), comm.rank() as i64).unwrap().unwrap();
            if comm.rank() == 0 {
                sub.send(1, 5, b"sub").unwrap();
                comm.send(1, 5, b"world").unwrap();
                Vec::new()
            } else {
                // Parent recv with same (src, tag) must get the parent
                // message, not the sub-communicator one.
                let m = comm.recv(Some(0), Some(5)).unwrap();
                let s = sub.recv(Some(0), Some(5)).unwrap();
                vec![m.payload, s.payload]
            }
        });
        assert_eq!(out[1][0], b"world");
        assert_eq!(out[1][1], b"sub");
    }

    #[test]
    fn clock_is_shared_between_parent_and_split() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let sub = comm.split(Some(0), 0).unwrap().unwrap();
            comm.advance(2.0);
            sub.now()
        });
        assert!(out.iter().all(|&t| t >= 2.0));
    }

    #[test]
    fn stats_count_messages() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8; 100]).unwrap();
            } else {
                comm.recv(None, None).unwrap();
            }
            comm.stats()
        });
        assert_eq!(out[0].msgs_sent, 1);
        assert_eq!(out[0].bytes_sent, 100);
        assert_eq!(out[1].msgs_recv, 1);
        assert_eq!(out[1].bytes_recv, 100);
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.send(5, 0, b"x").is_err() && comm.recv(Some(9), None).is_err()
        });
        assert!(out[0]);
    }

    #[test]
    fn send_bytes_delivers_senders_buffer_by_refcount() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                let payload = Bytes::from(vec![7u8; 32]);
                let ptr = payload.as_slice().as_ptr() as usize;
                comm.send_bytes(1, 1, payload).unwrap();
                ptr
            } else {
                let m = comm.recv(Some(0), Some(1)).unwrap();
                assert_eq!(m.payload, vec![7u8; 32]);
                m.payload.as_slice().as_ptr() as usize
            }
        });
        assert_eq!(out[0], out[1], "receiver must see the sender's allocation");
    }

    #[test]
    fn send_rope_hands_the_parts_over_and_a_flat_receive_gathers_them() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                let (stage, payload) = (Bytes::from(b"headtail".to_vec()), Bytes::from(vec![9u8; 8]));
                let mut msg = Rope::from(stage.slice(..4));
                msg.extend([payload.clone(), stage.slice(4..)]);
                comm.send_rope(1, 2, msg.clone()).unwrap();
                comm.send_rope(1, 3, msg).unwrap();
                (payload.as_ptr() as usize, Vec::new())
            } else {
                // Taken as a rope, the message is the sender's parts; taken
                // as bytes, the same message is gathered in order.
                let rope = comm.recv_rope(Some(0), Some(2)).unwrap().payload;
                let [head, shared, tail] = rope.parts() else { panic!("three parts sent, three taken") };
                assert_eq!(tail.as_ptr(), head[4..].as_ptr());
                let flat = comm.recv(Some(0), Some(3)).unwrap().payload;
                assert_eq!(rope.clone().into_bytes(), flat);
                (shared.as_ptr() as usize, flat.to_vec())
            }
        });
        assert_eq!(out[0].0, out[1].0, "the payload part travels by refcount");
        assert_eq!(out[1].1, [&b"head"[..], &[9u8; 8], b"tail"].concat());
    }

    #[test]
    fn ten_thousand_one_part_messages_are_the_senders_handles() {
        // `fabric_4k`'s shape: every message is one part. The rope that
        // carries it is that part inline (`rocio_core::rope`'s tests pin
        // the representation), so what arrives — 10 000 times, as a rope or
        // as bytes — is the handle that was sent, not a list holding it.
        const ROUNDS: usize = 2_500;
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let (next, prev) = ((comm.rank() + 1) % 4, (comm.rank() + 3) % 4);
            let mine = Bytes::from(vec![comm.rank() as u8; 1024]);
            let mut seen = Vec::new();
            for round in 0..ROUNDS {
                comm.send_bytes(next, 7, mine.clone()).unwrap();
                let ptr = if round % 2 == 0 {
                    let rope = comm.recv_rope(Some(prev), Some(7)).unwrap().payload;
                    assert_eq!(rope.parts().len(), 1);
                    rope.parts()[0].as_ptr()
                } else {
                    comm.recv(Some(prev), Some(7)).unwrap().payload.as_ptr()
                };
                seen.push(ptr as usize);
            }
            (mine.as_ptr() as usize, seen)
        });
        for rank in 0..4 {
            let sent = out[(rank + 3) % 4].0;
            assert!(out[rank].1.iter().all(|&ptr| ptr == sent), "rank {rank}");
        }
    }

    #[test]
    fn recv_deadline_times_out_and_charges_idle_time() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                // Nothing sent before the deadline: rank 1 must time out.
                comm.recv(Some(1), Some(2)).unwrap();
                comm.now()
            } else {
                let r = comm.recv_deadline(Some(0), Some(1), 0.5);
                assert!(r.is_none(), "no message before the deadline");
                assert_eq!(comm.now(), 0.5, "timeout advances the clock to the deadline");
                comm.send(0, 2, b"late").unwrap();
                comm.now()
            }
        });
        assert!(out[0] >= 0.5);
    }

    #[test]
    fn recv_deadline_returns_message_arriving_in_time() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"early").unwrap();
                Bytes::new()
            } else {
                let m = comm
                    .recv_deadline(Some(0), Some(1), 10.0)
                    .expect("message arrives well before the deadline");
                assert!(comm.now() < 10.0, "no idle charge on a hit");
                m.payload.into_bytes()
            }
        });
        assert_eq!(out[1], b"early");
    }

    #[test]
    fn concurrent_deadline_waiters_do_not_livelock() {
        // Two ranks parked on future deadlines, each the only rank that
        // could wake the other: both must time out rather than spin on
        // each other's sub-deadline clocks.
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let peer = 1 - comm.rank();
            let deadline = 0.25 + comm.rank() as f64 * 0.25;
            let r = comm.recv_deadline(Some(peer), Some(1), deadline);
            assert!(r.is_none());
            comm.now()
        });
        assert_eq!(out, vec![0.25, 0.5]);
    }

    /// One source's messages to the drainer: `(tag, bytes, idle before)`.
    type Traffic = Vec<(u32, usize, SimTime)>;

    /// What a drain observed: see [`drain`].
    type Drained = (Vec<(usize, u32, u64, usize)>, u64, StatsSnapshot, Vec<rocobs::Span>);

    /// Sources `1..=traffic.len()` send their traffic to rank 0, which
    /// drains it with `recv_least_of` (each source closed at its count) or
    /// with a `recv_rope(None, tag)` loop. Returns, for rank 0, every
    /// `(src, tag, arrival bits, bytes)` in the order taken, its final
    /// clock's bits and its stats, and every rank's spans.
    fn drain(traffic: &[Traffic], tag: Option<u32>, least_of: bool) -> Drained {
        let n = traffic.len() + 1;
        let spans = rocobs::TraceCollector::new();
        let out = run_ranks(n, ClusterSpec::turing(n), |comm| {
            let _rec = spans.handle(comm.rank(), 0, comm.rank() / 2).install();
            if comm.rank() > 0 {
                for &(t, len, idle) in &traffic[comm.rank() - 1] {
                    comm.advance(idle);
                    comm.send(0, t, &vec![comm.rank() as u8; len]).unwrap();
                }
                return None;
            }
            let mut owed: Vec<usize> = std::iter::once(0).chain(traffic.iter().map(Vec::len)).collect();
            let mut open: Vec<usize> = (1..n).filter(|&s| owed[s] > 0).collect();
            let mut taken = Vec::new();
            for _ in 0..owed.iter().sum::<usize>() {
                let m = if least_of {
                    comm.recv_least_of(&open, tag).unwrap()
                } else {
                    comm.recv_rope(None, tag).unwrap()
                };
                owed[m.src] -= 1;
                if owed[m.src] == 0 {
                    open.retain(|&s| s != m.src);
                }
                taken.push((m.src, m.tag, m.arrival.to_bits(), m.payload.len()));
            }
            assert!(open.is_empty(), "every source closed");
            Some((taken, comm.now().to_bits(), comm.stats()))
        });
        let (taken, clock, stats) = out.into_iter().next().flatten().unwrap();
        (taken, clock, stats, spans.finish().spans().to_vec())
    }

    fn traffic() -> impl proptest::strategy::Strategy<Value = (Vec<Traffic>, bool)> {
        use proptest::prelude::*;
        // Few sizes and idle times, so that sources tie on arrival; tags
        // mixed unless the drain asks for one.
        const LENS: [usize; 4] = [0, 1, 64, 1 << 16];
        let msg = (1..4u32, 0..LENS.len(), 0..3u8)
            .prop_map(|(tag, len, idle)| (tag, LENS[len], f64::from(idle) * 1e-4));
        (prop::collection::vec(prop::collection::vec(msg, 0..6), 1..=8), any::<bool>())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn recv_least_of_takes_what_a_wildcard_drain_takes(case in traffic()) {
            let (mut traffic, one_tag) = case;
            // A large message followed by a small one on one link: the
            // small one arrives first and is still taken second.
            traffic[0].splice(0..0, [(1, 1 << 16, 0.0), (1, 1, 0.0)]);
            let tag = one_tag.then_some(1);
            if one_tag {
                traffic.iter_mut().flatten().for_each(|m| m.0 = 1);
            }
            let wildcard = drain(&traffic, tag, false);
            let least_of = drain(&traffic, tag, true);
            let mut from_1 = wildcard.0.iter().filter(|m| m.0 == 1);
            let (big, small) = (from_1.next().unwrap(), from_1.next().unwrap());
            proptest::prop_assert!(big.3 > small.3 && f64::from_bits(big.2) > f64::from_bits(small.2));
            proptest::prop_assert_eq!(least_of, wildcard);
        }
    }

    #[test]
    fn recv_least_of_takes_no_gate() {
        // Rank 3 sends nothing and keeps its slot outside the fabric, its
        // clock at 0 — below every arrival — until rank 0's drain of ranks
        // 1 and 2 has ended. A gated drain would wait on rank 3's clock;
        // this one must finish while rank 3 waits.
        const WAIT_MS: usize = 10_000;
        let drained = std::sync::atomic::AtomicBool::new(false);
        for cfg in [crate::SchedConfig::pooled(), crate::SchedConfig::threaded()] {
            drained.store(false, std::sync::atomic::Ordering::SeqCst);
            let out = crate::harness::run_ranks_sched(4, ClusterSpec::turing(4), &cfg, |comm| {
                match comm.rank() {
                    0 => {
                        let mut open = vec![1, 2];
                        let mut got = Vec::new();
                        while !open.is_empty() {
                            let m = comm.recv_least_of(&open, Some(5)).unwrap();
                            if m.payload.is_empty() {
                                open.retain(|&s| s != m.src);
                            }
                            got.push(m.src);
                        }
                        drained.store(true, std::sync::atomic::Ordering::SeqCst);
                        got
                    }
                    3 => {
                        let done = (0..WAIT_MS).any(|_| {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            drained.load(std::sync::atomic::Ordering::SeqCst)
                        });
                        assert!(done, "the drain waited on a rank that sends it nothing");
                        assert_eq!(comm.now(), 0.0);
                        Vec::new()
                    }
                    src => {
                        for len in [64, 8, 0] {
                            comm.send(0, 5, &vec![1; len]).unwrap();
                        }
                        vec![src]
                    }
                }
            });
            assert_eq!(out[0].len(), 6, "{cfg:?}");
        }
    }

    #[test]
    fn recv_least_of_rejects_an_open_set_it_cannot_drain() {
        // Each would otherwise wait for ever on a sender the pass never
        // finds, or panic on the out-of-range rank: an error instead, and
        // nothing taken, so the valid drain after them gets the message.
        let out = run_ranks(3, ClusterSpec::turing(3), |comm| {
            if comm.rank() > 0 {
                comm.send(0, 1, &[comm.rank() as u8]).unwrap();
                return Vec::new();
            }
            let bad = [&[][..], &[2, 1], &[1, 1, 2], &[5, 1], &[1, 7]];
            let mut errs: Vec<bool> =
                bad.iter().map(|open| comm.recv_least_of(open, None).is_err()).collect();
            let mut open = vec![1, 2];
            while !open.is_empty() {
                let m = comm.recv_least_of(&open, None).unwrap();
                open.retain(|&s| s != m.src);
            }
            errs.push(comm.stats().msgs_recv == 2);
            errs
        });
        assert_eq!(out[0], vec![true; 6]);
    }

    #[test]
    fn self_send_works() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.send(0, 2, b"me").unwrap();
            comm.recv(Some(0), Some(2)).unwrap().payload
        });
        assert_eq!(out[0], b"me");
    }
}
