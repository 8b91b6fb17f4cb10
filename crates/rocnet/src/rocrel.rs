//! `rocrel`: a reliability layer over the (possibly adversarial) fabric.
//!
//! The fabric guarantees reliable, ordered delivery — until a
//! [`crate::fabric::FaultInjector`] is installed, at which point
//! world-context user traffic may be dropped, duplicated or reordered
//! per link. This module restores exactly-once, per-channel-in-order
//! delivery on top, the way a transport protocol would over a lossy
//! wire:
//!
//! * every application message becomes a `DATA` frame carrying a
//!   per-channel (directed rank pair) **sequence number**;
//! * receivers acknowledge with a **cumulative ack** (everything below
//!   it received) plus **selective acks** for out-of-order frames held
//!   in the reorder buffer;
//! * senders keep unacked frames and retransmit them on **virtual-time
//!   timers** with exponential backoff, built on
//!   `Comm::recv_deadline` — a rank parked on a retransmit timer
//!   charges itself the idle time, so timings stay deterministic;
//! * receivers suppress duplicates (already-delivered or already
//!   buffered sequence numbers) and re-ack them, which is what makes
//!   retransmission safe.
//!
//! The per-channel window arithmetic lives in [`SendWindow`] and
//! [`RecvWindow`], pure data structures with no I/O — the proptest
//! suite drives them against a brute-force reference model with
//! arbitrary drop/duplicate/reorder patterns. [`ReliableComm`] is the
//! protocol engine gluing them to a [`Comm`]; Rocpanda adopts it behind
//! `RocpandaConfig.faulty_net`.
//!
//! # Termination
//!
//! Exactly-once delivery cannot confirm the *last* message of a
//! conversation without an infinite ack chain (two generals). The
//! engine therefore leans on the application's causal structure: a
//! sender may abandon unacked frames once the application has proof of
//! delivery (a reply that could only follow receipt), and a process
//! that must outlive its last ack ([`ReliableComm::linger`]) keeps
//! re-acking duplicate traffic until its peers fall quiet.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use rocio_core::{Result, RocError, Rope, SimTime};

use crate::comm::{Comm, Message, ProbeInfo};

/// Reserved user-range tag carrying every reliability-layer frame.
/// Application tags travel *inside* `DATA` frames, so they never collide
/// with this value on the wire.
pub const TAG_REL: u32 = 0x0FE0_0000;

const FRAME_DATA: u8 = 1;
const FRAME_ACK: u8 = 2;
/// `DATA` header: kind byte, sequence number, application tag.
const DATA_HDR: usize = 1 + 8 + 4;

/// A fault injector scoped to reliability-layer traffic: frames tagged
/// [`TAG_REL`] see the wrapped [`FaultSpec`](crate::FaultSpec), everything else (solver halo
/// exchanges, raw control traffic) is delivered untouched. This is what a
/// driver installs when only the I/O path should ride a degraded network.
#[derive(Debug, Clone, Copy)]
pub struct RelOnly(pub crate::model::FaultSpec);

impl crate::fabric::FaultInjector for RelOnly {
    fn decide(&self, src: usize, dst: usize, seq: u64, tag: u32) -> crate::model::FaultAction {
        if tag == TAG_REL {
            self.0.decide(src, dst, seq)
        } else {
            crate::model::FaultAction::Deliver
        }
    }
}

/// Initial retransmit timeout (seconds of virtual time), counted from when
/// the receiver can have taken the frame in — so what it has to cover is
/// the ack's way back, whatever the frame's own size. Generously above one modelled
/// round trip on either evaluation machine (tens of microseconds of
/// latency), small against GENx step times.
const RTO: SimTime = 5e-3;

/// Backoff cap: timeouts double on every retransmission up to this.
const RTO_MAX: SimTime = 80e-3;

/// Sender half of one directed channel: unacked frames and their
/// retransmit timers. Pure window arithmetic — no I/O, so the proptests
/// can drive it directly. Generic over the frame payload so tests can
/// use plain markers instead of wire bytes.
#[derive(Debug, Default)]
pub struct SendWindow<T> {
    next_seq: u64,
    unacked: BTreeMap<u64, Unacked<T>>,
}

#[derive(Debug)]
struct Unacked<T> {
    frame: T,
    /// Virtual time at which the retransmit timer fires.
    next_tx: SimTime,
    /// Current (backed-off) retransmit interval.
    rto: SimTime,
}

impl<T: Clone> SendWindow<T> {
    pub fn new() -> Self {
        SendWindow {
            next_seq: 0,
            unacked: BTreeMap::new(),
        }
    }

    /// The sequence number the next [`SendWindow::push`] will assign (a
    /// frame carries its own, so it is encoded before it is pushed).
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Register a freshly sent frame; returns its sequence number. The
    /// first retransmission is scheduled `rto` after `now` — for a frame
    /// on a modelled wire, the time it arrives.
    pub fn push(&mut self, frame: T, now: SimTime, rto: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.insert(
            seq,
            Unacked {
                frame,
                next_tx: now + rto,
                rto,
            },
        );
        seq
    }

    /// Retire everything below the cumulative ack and every selectively
    /// acked sequence number. Stale (reordered) acks are harmless: they
    /// carry a subset of what a fresher ack would.
    pub fn on_ack(&mut self, cum: u64, sacks: &[u64]) {
        self.unacked.retain(|&seq, _| seq >= cum && !sacks.contains(&seq));
    }

    /// Earliest pending retransmit deadline, if any frame is unacked.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.unacked
            .values()
            .map(|u| u.next_tx)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Frames whose timers have fired by `now`, in sequence order. Each
    /// returned frame's timer is backed off (doubled, capped at
    /// `rto_max`) and re-armed.
    pub fn due(&mut self, now: SimTime, rto_max: SimTime) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        for (&seq, u) in self.unacked.iter_mut() {
            if u.next_tx <= now {
                u.rto = (u.rto * 2.0).min(rto_max);
                u.next_tx = now + u.rto;
                out.push((seq, u.frame.clone()));
            }
        }
        out
    }

    /// Number of frames still awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Abandon all retransmission state (see the module docs on
    /// termination: only sound once the application has causal proof of
    /// delivery).
    pub fn abandon(&mut self) {
        self.unacked.clear();
    }
}

/// Receiver half of one directed channel: duplicate suppression and the
/// out-of-order reorder buffer. Pure — see [`SendWindow`].
#[derive(Debug, Default)]
pub struct RecvWindow<T> {
    next_expected: u64,
    buffered: BTreeMap<u64, T>,
    duplicates: u64,
}

impl<T> RecvWindow<T> {
    pub fn new() -> Self {
        RecvWindow {
            next_expected: 0,
            buffered: BTreeMap::new(),
            duplicates: 0,
        }
    }

    /// Accept an incoming `DATA` frame. Returns the values that become
    /// deliverable *in order* (empty when the frame was a duplicate or
    /// is buffered ahead of a gap).
    pub fn offer(&mut self, seq: u64, value: T) -> Vec<T> {
        if seq < self.next_expected || self.buffered.contains_key(&seq) {
            self.duplicates += 1;
            return Vec::new();
        }
        self.buffered.insert(seq, value);
        let mut out = Vec::new();
        while let Some(v) = self.buffered.remove(&self.next_expected) {
            self.next_expected += 1;
            out.push(v);
        }
        out
    }

    /// `(cumulative, selective)` ack state: everything below the
    /// cumulative value has been delivered in order; the selective list
    /// names out-of-order frames held in the buffer.
    pub fn ack_state(&self) -> (u64, Vec<u64>) {
        (self.next_expected, self.buffered.keys().copied().collect())
    }

    /// Frames suppressed as duplicates so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

/// A `DATA` frame: the header as one small part — with `copied`, bytes the
/// caller only lent, behind it in the same buffer — then `shared`'s own
/// parts by refcount: nothing shared is copied, on the first transmission
/// or on a later one.
fn encode_data(seq: u64, app_tag: u32, copied: &[u8], shared: &Rope) -> Rope {
    let mut header = Vec::with_capacity(DATA_HDR + copied.len());
    header.push(FRAME_DATA);
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&app_tag.to_le_bytes());
    header.extend_from_slice(copied);
    let mut frame = Rope::from(Bytes::from(header));
    frame.extend(shared.parts().iter().cloned());
    frame
}

fn encode_ack(cum: u64, sacks: &[u64]) -> Bytes {
    let mut buf = Vec::with_capacity(1 + 8 + 4 + 8 * sacks.len());
    buf.push(FRAME_ACK);
    buf.extend_from_slice(&cum.to_le_bytes());
    buf.extend_from_slice(&(sacks.len() as u32).to_le_bytes());
    for s in sacks {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    Bytes::from(buf)
}

/// One frame off the wire, decoded.
#[derive(Debug)]
enum Frame {
    Data { seq: u64, app_tag: u32, payload: Rope },
    Ack { cum: u64, sacks: Vec<u64> },
}

/// Decode a frame through the checked cursor. The fabric hands over what
/// a peer sent, and a peer can send anything under [`TAG_REL`]: a frame
/// that is short, claims more selective acks than it holds, or is of no
/// known kind is [`RocError::Comm`], never a panic or an allocation sized
/// by it.
fn decode_frame(frame: &Rope) -> Result<Frame> {
    let what = "rocrel frame";
    let mut cur = frame.cursor();
    let decode = |cur: &mut rocio_core::Cursor<'_>| match cur.u8(what)? {
        FRAME_DATA => {
            let (seq, app_tag, mut payload) = (cur.u64(what)?, cur.u32(what)?, Rope::new());
            cur.take_into(cur.remaining(), what, &mut payload)?;
            Ok(Frame::Data { seq, app_tag, payload })
        }
        FRAME_ACK => {
            let cum = cur.u64(what)?;
            let n = cur.u32(what)? as usize;
            if n > cur.remaining() / 8 {
                return Err(RocError::Corrupt(format!(
                    "{n} selective acks claimed by {} bytes",
                    cur.remaining()
                )));
            }
            let sacks = (0..n).map(|_| cur.u64(what)).collect::<Result<_>>()?;
            Ok(Frame::Ack { cum, sacks })
        }
        other => Err(RocError::Corrupt(format!("unknown frame kind {other}"))),
    };
    decode(&mut cur).map_err(|e| RocError::Comm(format!("rocrel: malformed frame: {e}")))
}

/// Exactly-once, per-channel-in-order messaging over a lossy fabric.
///
/// Wraps a [`Comm`] and speaks the frame protocol described in the
/// module docs. All methods take `&mut self`: the engine owns mutable
/// window state and a queue of messages already reassembled in order.
/// The wrapped communicator remains usable for clock access; raw sends
/// on it would bypass the reliability guarantees (inside rocpanda,
/// `tests/network_chaos.rs` fails when a protocol message takes them).
pub struct ReliableComm<'a> {
    comm: &'a Comm,
    /// Per-destination send windows, indexed by local rank. A frame is
    /// kept as the rope it went out as: parts by refcount, no copy.
    tx: Vec<SendWindow<Rope>>,
    /// Per-source receive windows, indexed by local rank.
    rx: Vec<RecvWindow<Message<Rope>>>,
    /// Reassembled application messages, in delivery order.
    deliverable: VecDeque<Message<Rope>>,
    /// Retransmissions performed (diagnostics).
    retransmits: u64,
    /// Frames dropped because they did not decode (diagnostics).
    malformed: u64,
}

impl<'a> ReliableComm<'a> {
    pub fn new(comm: &'a Comm) -> Self {
        let n = comm.size();
        ReliableComm {
            comm,
            tx: (0..n).map(|_| SendWindow::new()).collect(),
            rx: (0..n).map(|_| RecvWindow::new()).collect(),
            deliverable: VecDeque::new(),
            retransmits: 0,
            malformed: 0,
        }
    }

    /// Retransmissions performed so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Frames received under [`TAG_REL`] that did not decode and were
    /// dropped: a well-behaved peer never causes one.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Total frames still awaiting acknowledgement across all channels.
    pub fn in_flight(&self) -> usize {
        self.tx.iter().map(|w| w.in_flight()).sum()
    }

    // --- sending ---------------------------------------------------------

    /// Reliable counterpart of [`Comm::send`]: the one copy a borrowed
    /// payload needs is made behind the frame header, so the frame is one
    /// part.
    pub fn send(&mut self, dst: usize, tag: u32, payload: &[u8]) -> Result<()> {
        self.send_frame(dst, tag, payload, &Rope::new())
    }

    /// Reliable counterpart of [`Comm::send_bytes`].
    pub fn send_bytes(&mut self, dst: usize, tag: u32, payload: Bytes) -> Result<()> {
        self.send_frame(dst, tag, &[], &payload.into())
    }

    /// Reliable counterpart of [`Comm::send_rope`].
    pub fn send_rope(&mut self, dst: usize, tag: u32, payload: Rope) -> Result<()> {
        self.send_frame(dst, tag, &[], &payload)
    }

    /// The frame goes out as its parts and stays in the retransmit window
    /// the same way. Its timer runs from the earliest its receiver can
    /// have taken it in — its modelled arrival plus the receive cost of its
    /// length: a large frame is still on the wire, or being drained, long
    /// after a timer started at the send would have fired, and
    /// retransmitting it then doubles the traffic of a fabric that lost
    /// nothing.
    fn send_frame(&mut self, dst: usize, tag: u32, copied: &[u8], shared: &Rope) -> Result<()> {
        let frame = encode_data(self.tx[dst].next_seq(), tag, copied, shared);
        let taken_in = self.comm.cluster().net.recv_cost(frame.len());
        let arrival = self.comm.send_rope(dst, TAG_REL, frame.clone())?;
        self.tx[dst].push(frame, arrival + taken_in, RTO);
        Ok(())
    }

    // --- the engine ------------------------------------------------------

    /// Process one raw frame off the wire. One that does not decode is
    /// dropped and counted — to the sender it is a lost frame.
    fn on_frame(&mut self, m: Message<Rope>) {
        let src = m.src;
        match decode_frame(&m.payload) {
            Ok(Frame::Data { seq, app_tag, payload }) => {
                let app = Message {
                    src,
                    tag: app_tag,
                    payload,
                    sent: m.sent,
                    arrival: m.arrival,
                };
                self.deliverable.extend(self.rx[src].offer(seq, app));
                // Ack every DATA frame immediately — duplicates included,
                // since a duplicate usually means our previous ack died.
                let (cum, sacks) = self.rx[src].ack_state();
                if rocobs::enabled() {
                    let t = self.comm.now();
                    rocobs::record(
                        rocobs::SpanCategory::RelAck,
                        "ack",
                        t,
                        t,
                        &format!("to={src} cum={cum} sacks={}", sacks.len()),
                    );
                }
                let _ = self.comm.send_bytes(src, TAG_REL, encode_ack(cum, &sacks));
            }
            Ok(Frame::Ack { cum, sacks }) => self.tx[src].on_ack(cum, &sacks),
            Err(_) => self.malformed += 1,
        }
    }

    /// Drain every raw frame that has arrived by the current virtual
    /// time, then fire any retransmit timers that are already due.
    fn pump(&mut self) {
        while let Some(m) = self.comm.try_recv(None, Some(TAG_REL)) {
            self.on_frame(m);
        }
        self.retransmit_due();
    }

    /// Retransmit every frame whose timer has fired by now.
    fn retransmit_due(&mut self) {
        let now = self.comm.now();
        for dst in 0..self.tx.len() {
            for (seq, frame) in self.tx[dst].due(now, RTO_MAX) {
                self.retransmits += 1;
                if rocobs::enabled() {
                    let t = self.comm.now();
                    rocobs::record(
                        rocobs::SpanCategory::RelRetransmit,
                        "retransmit",
                        t,
                        t,
                        &format!("dst={dst} seq={seq} bytes={}", frame.len()),
                    );
                }
                let _ = self.comm.send_rope(dst, TAG_REL, frame);
            }
        }
    }

    /// Earliest retransmit deadline across all channels.
    fn next_deadline(&self) -> Option<SimTime> {
        self.tx
            .iter()
            .filter_map(|w| w.next_deadline())
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Block until one more raw frame is processed or a retransmit timer
    /// fires (servicing it).
    fn step_blocking(&mut self) {
        match self.next_deadline() {
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "a double-wildcard Comm::recv only errors on fabric poisoning, which \
                              rethrows first"
                )]
                let m = self
                    .comm
                    .recv_rope(None, Some(TAG_REL))
                    .expect("wildcard recv cannot fail");
                self.on_frame(m);
            }
            Some(deadline) => match self.comm.recv_deadline(None, Some(TAG_REL), deadline) {
                Some(m) => self.on_frame(m),
                None => self.retransmit_due(),
            },
        }
    }

    fn find_deliverable(&self, src: Option<usize>, tag: Option<u32>) -> Option<usize> {
        self.deliverable.iter().position(|m| {
            src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t)
        })
    }

    // --- receiving -------------------------------------------------------

    /// Reliable counterpart of [`Comm::recv`]: blocks until a matching
    /// message is deliverable (in per-channel order), retransmitting as
    /// timers fire.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Message> {
        Ok(self.recv_rope(src, tag)?.flatten())
    }

    /// Reliable counterpart of [`Comm::recv_rope`].
    #[expect(
        clippy::expect_used,
        reason = "index computed on the same deque one line above"
    )]
    pub fn recv_rope(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Message<Rope>> {
        loop {
            self.pump();
            if let Some(i) = self.find_deliverable(src, tag) {
                return Ok(self.deliverable.remove(i).expect("index just found"));
            }
            self.step_blocking();
        }
    }

    /// Reliable counterpart of [`Comm::probe`]: blocks until a matching
    /// message is deliverable and reports it without consuming it.
    pub fn probe(&mut self, src: Option<usize>, tag: Option<u32>) -> ProbeInfo {
        loop {
            self.pump();
            if let Some(i) = self.find_deliverable(src, tag) {
                let m = &self.deliverable[i];
                return ProbeInfo {
                    src: m.src,
                    tag: m.tag,
                    bytes: m.payload.len(),
                };
            }
            self.step_blocking();
        }
    }

    /// Reliable counterpart of [`Comm::iprobe`].
    pub fn iprobe(&mut self, src: Option<usize>, tag: Option<u32>) -> Option<ProbeInfo> {
        self.pump();
        let i = self.find_deliverable(src, tag)?;
        let m = &self.deliverable[i];
        Some(ProbeInfo {
            src: m.src,
            tag: m.tag,
            bytes: m.payload.len(),
        })
    }

    // --- termination -----------------------------------------------------

    /// Block until every sent frame has been acknowledged, retransmitting
    /// as needed. Call before exiting when no application-level reply
    /// will prove delivery (e.g. after the Rocpanda `SHUTDOWN`).
    pub fn drain(&mut self) {
        while self.in_flight() > 0 {
            self.pump();
            if self.in_flight() == 0 {
                break;
            }
            self.step_blocking();
        }
    }

    /// Abandon all unacked frames. Sound only when the application holds
    /// causal proof of delivery — in Rocpanda, a server reaching
    /// `SHUTDOWN` knows every reply it ever sent was consumed, because
    /// the shutdown is only sent after all clients pass their final sync
    /// barrier.
    pub fn abandon(&mut self) {
        for w in &mut self.tx {
            w.abandon();
        }
    }

    /// Service trailing peer retransmissions (re-acking duplicates) until
    /// `quiet` seconds of virtual time pass with no traffic. The
    /// `TIME_WAIT` of this transport: a process whose final ack may have
    /// been dropped must outlive its peers' retransmit timers.
    pub fn linger(&mut self, quiet: SimTime) {
        loop {
            let deadline = self.comm.now() + quiet;
            match self.comm.recv_deadline(None, Some(TAG_REL), deadline) {
                Some(m) => self.on_frame(m),
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::harness::run_ranks;
    use crate::model::FaultSpec;
    use std::sync::Arc;

    #[test]
    fn send_window_acks_and_backoff() {
        let mut w: SendWindow<&'static str> = SendWindow::new();
        assert_eq!(w.push("a", 0.0, 0.1), 0);
        assert_eq!(w.push("b", 0.0, 0.1), 1);
        assert_eq!(w.push("c", 0.0, 0.1), 2);
        w.on_ack(1, &[2]); // "a" cumulative, "c" selective
        assert_eq!(w.in_flight(), 1);
        let due = w.due(0.1, 0.15);
        assert_eq!(due, vec![(1, "b")]);
        // Backed off to 0.15 (capped), re-armed at 0.1 + 0.15.
        assert_eq!(w.next_deadline(), Some(0.25));
        w.on_ack(2, &[]);
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn recv_window_reorders_and_suppresses_duplicates() {
        let mut w: RecvWindow<u64> = RecvWindow::new();
        assert_eq!(w.offer(1, 10), Vec::<u64>::new()); // gap: buffered
        assert_eq!(w.ack_state(), (0, vec![1]));
        assert_eq!(w.offer(1, 10), Vec::<u64>::new()); // buffered duplicate
        assert_eq!(w.duplicates(), 1);
        assert_eq!(w.offer(0, 9), vec![9, 10]); // gap filled: both deliver
        assert_eq!(w.ack_state(), (2, vec![]));
        assert_eq!(w.offer(0, 9), Vec::<u64>::new()); // delivered duplicate
        assert_eq!(w.duplicates(), 2);
    }

    #[test]
    fn reliable_round_trip_on_a_clean_fabric() {
        let out = run_ranks(2, ClusterSpec::turing(2), |comm| {
            let mut rel = ReliableComm::new(&comm);
            if comm.rank() == 0 {
                rel.send(1, 7, b"payload").unwrap();
                rel.drain();
                Bytes::new()
            } else {
                let m = rel.recv(Some(0), Some(7)).unwrap();
                assert_eq!(m.tag, 7);
                m.payload
            }
        });
        assert_eq!(out[1], b"payload");
    }

    /// A frame's timer starts when its receiver can have taken it in, so on
    /// a fabric that loses nothing no frame is ever sent twice, however
    /// long it flies. (From its send, Turing's 1 MiB frame was
    /// retransmitted once and its 4 MiB frame twice.)
    #[test]
    fn clean_fabric_never_retransmits() {
        for kib in [1usize, 16, 256, 1024, 4096] {
            let out = run_ranks(2, ClusterSpec::turing(2), |comm| {
                let mut rel = ReliableComm::new(&comm);
                if comm.rank() == 0 {
                    rel.send_bytes(1, 7, Bytes::from(vec![0u8; kib << 10])).unwrap();
                    rel.drain();
                } else {
                    assert_eq!(rel.recv(Some(0), Some(7)).unwrap().payload.len(), kib << 10);
                    rel.linger(1.0);
                }
                rel.retransmits()
            });
            assert_eq!(out, [0, 0], "{kib} KiB frame");
        }
    }

    /// End-to-end over a seeded lossy fabric: every message sent must be
    /// delivered exactly once, in per-channel order, despite the chaos.
    fn lossy_exchange(spec: FaultSpec) {
        let n_msgs = 40u64;
        let cluster = ClusterSpec::turing(2);
        let fabric = Arc::new(crate::fabric::Fabric::new(cluster));
        fabric.set_fault_injector(Arc::new(spec));
        let got = crate::harness::run_on_fabric(&fabric, &|comm: Comm| {
            let mut rel = ReliableComm::new(&comm);
            if comm.rank() == 0 {
                for i in 0..n_msgs {
                    rel.send(1, 7, &i.to_le_bytes()).unwrap();
                }
                // The peer's reply proves it got everything.
                let done = rel.recv(Some(1), Some(8)).unwrap();
                assert_eq!(done.payload.as_slice(), b"ok");
                rel.linger(1.0);
                Vec::new()
            } else {
                let seen: Vec<u64> = (0..n_msgs)
                    .map(|_| {
                        let m = rel.recv(Some(0), Some(7)).unwrap();
                        u64::from_le_bytes(m.payload.as_slice().try_into().unwrap())
                    })
                    .collect();
                rel.send(0, 8, b"ok").unwrap();
                rel.drain();
                seen
            }
        });
        assert_eq!(
            got[1],
            (0..n_msgs).collect::<Vec<u64>>(),
            "exactly-once, in-order delivery under {spec:?} (faults: {:?})",
            fabric.fault_stats()
        );
        assert!(
            fabric.fault_stats().total() > 0,
            "the adversary must actually fire for this test to mean anything"
        );
    }

    #[test]
    fn survives_heavy_drops() {
        lossy_exchange(FaultSpec::drops(3, 0.3));
    }

    #[test]
    fn survives_full_chaos() {
        lossy_exchange(FaultSpec::chaos(11, 0.2));
    }

    #[test]
    fn a_frame_travels_and_waits_for_its_ack_by_refcount() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let mut rel = ReliableComm::new(&comm);
            if comm.rank() == 0 {
                let payload = Bytes::from(vec![5u8; 256]);
                let mut msg = Rope::from(Bytes::from(b"hdr".to_vec()));
                msg.push(payload.clone());
                rel.send_rope(1, 7, msg).unwrap();
                rel.send_bytes(1, 8, payload.clone()).unwrap();
                // The retransmit window holds the frames as they went out.
                for u in rel.tx[1].unacked.values() {
                    let kept = u.frame.parts().last().unwrap();
                    assert_eq!(kept.as_ptr(), payload.as_ptr());
                }
                rel.drain();
                vec![payload.as_ptr() as usize]
            } else {
                let a = rel.recv_rope(Some(0), Some(7)).unwrap().payload;
                assert_eq!(a.parts()[0], b"hdr");
                let b = rel.recv(Some(0), Some(8)).unwrap().payload;
                rel.linger(1.0);
                vec![a.parts()[1].as_ptr() as usize, b.as_ptr() as usize]
            }
        });
        assert_eq!(out[1], [out[0][0]; 2], "payloads reach the receiver uncopied");
    }

    #[test]
    fn a_frame_decodes_the_same_however_it_is_cut() {
        let data = encode_data(7, 0x0050_0002, &[1, 2], &Bytes::from(vec![3u8, 4, 5]).into());
        let ack: Rope = encode_ack(9, &[11, 13]).into();
        // A decoded frame with its payload flattened, to compare by value.
        let fields = |frame: &Rope| match decode_frame(frame).unwrap() {
            Frame::Data { seq, app_tag, payload } => (seq, app_tag, payload.into_bytes().to_vec(), vec![]),
            Frame::Ack { cum, sacks } => (cum, 0, vec![], sacks),
        };
        for frame in [data, ack] {
            let flat = frame.clone().into_bytes();
            for cut in 0..=flat.len() {
                let mut rope = Rope::from(Bytes::copy_from_slice(&flat[..cut]));
                rope.push(Bytes::copy_from_slice(&flat[cut..]));
                assert_eq!(fields(&rope), fields(&frame), "cut at {cut}");
                // Cut short there instead, it is an error — except a DATA
                // frame cut inside its payload, which is a shorter payload.
                let short = decode_frame(&Bytes::copy_from_slice(&flat[..cut]).into());
                assert_eq!(short.is_ok(), cut == flat.len() || (flat[0] == FRAME_DATA && cut >= DATA_HDR));
            }
        }
        for bad in [&[][..], &[9], &[FRAME_ACK, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]] {
            let e = decode_frame(&Bytes::copy_from_slice(bad).into()).unwrap_err();
            assert!(matches!(e, RocError::Comm(_)), "{e}");
        }
    }

    #[test]
    fn wildcard_recv_spans_channels() {
        let out = run_ranks(3, ClusterSpec::turing(3), |comm| {
            let mut rel = ReliableComm::new(&comm);
            if comm.rank() == 0 {
                let a = rel.recv(None, Some(7)).unwrap();
                let b = rel.recv(None, Some(7)).unwrap();
                let mut srcs = [a.src, b.src];
                srcs.sort_unstable();
                rel.send(1, 8, b"bye").unwrap();
                rel.send(2, 8, b"bye").unwrap();
                rel.linger(1.0);
                srcs.to_vec()
            } else {
                rel.send(0, 7, b"hi").unwrap();
                rel.recv(Some(0), Some(8)).unwrap();
                rel.drain();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }
}
