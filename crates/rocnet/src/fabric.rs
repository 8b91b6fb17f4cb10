//! The shared message fabric: one mailbox per global rank.
//!
//! Delivery is physical (push, then wake the destination if the message
//! is one its parked call can use); *when* a message counts as having
//! arrived in virtual time is carried in its envelope, computed by the
//! sender from the network model.
//!
//! # Determinism
//!
//! Rank threads are scheduled by the OS, so the *physical* order in which
//! envelopes land in a mailbox varies from run to run. Matching must not:
//! a wildcard receive that simply took the first physical match would make
//! the Rocpanda server's handling order — and with it every virtual
//! timestamp downstream — depend on the scheduler. The fabric therefore
//! resolves wildcard matches in **virtual order** with a conservative gate
//! (classic conservative discrete-event rule):
//!
//! * Candidate: for each source, only its first matching message is
//!   eligible (MPI non-overtaking); among those heads, the one minimizing
//!   `(arrival, sender)` wins. A source's first match is first in *queue*
//!   order, never by arrival — a large message followed by a small one
//!   on the same link arrives after it — and it always heads one of the
//!   mailbox's streams (one source's messages on one `(ctx, tag)`, see
//!   `mailbox`), so selection reads stream heads: one lookup for a given
//!   source and tag, a per-group heap for any source with one tag, one
//!   pass over the rank's streams for any user tag.
//! * Gate: the candidate is committed only when no other rank can still
//!   produce an earlier arrival — each is either blocked with a published
//!   commitment ≥ the candidate's arrival, or its clock has already
//!   reached it. Clocks are monotone and `Comm::send` stamps the arrival
//!   no lower than the sender's clock at delivery, so the scan is sound.
//!
//! Single-source matching needs no gate: per-source delivery order equals
//! send order. Nor does a drain whose senders are known
//! ([`crate::Comm::recv_least_of`]): once each open sender heads a
//! stream, the least of those heads is fixed, and the caller vouches that
//! no other rank sends what it accepts. It takes what a wildcard drain
//! takes on a model with nonzero costs; on a zero-cost one a sender whose
//! clock equals the candidate's arrival can still queue a message that
//! ties it, which the gate lets the candidate pass and this drain does
//! not, so the order of tied arrivals may differ there.
//!
//! With a network model whose costs are nonzero (e.g.
//! `ClusterSpec::turing`) the virtual order is strict and every run of
//! the same program yields bit-identical virtual times; zero-cost models
//! can tie on arrival, where semantic results are still deterministic but
//! timestamps may not be.
//!
//! # Blocking and waking
//!
//! A rank that must wait publishes, under the state lock, its commitment
//! *and* the [`MatchSpec`] of the call it is parked in, hands its
//! admission slot to the scheduler's ready queue and sleeps on its
//! `WakeHandle` — one sleep. [`Fabric::deliver`] reads the published
//! spec: a message the parked call cannot use is only queued (the call
//! cannot return because of it, so the commitment stands and nobody is
//! woken), a usable one lowers the commitment and makes the rank ready —
//! one wake, which finds the rank already holding a slot. Every wake is
//! *decided* under the lock and *issued* after it is released
//! (`Locked`), so the woken thread never collides with its waker. There
//! is no timer: a job whose ranks are all blocked or finished, with none
//! made ready, can never move again, and ends in the deadlock poison.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use rocio_core::lockdep::{Mutex, MutexGuard};
use rocio_core::{Rope, SimTime};

use crate::cluster::ClusterSpec;
use crate::comm::{Group, TAG_USER_MAX};
use crate::mailbox::{Head, Mailboxes};
use crate::mintree::MinTree;
use crate::model::FaultAction;
use crate::sched::WakeHandle;
use crate::vtime::VClock;

/// The prefix of the message a fabric call panics with once its job has
/// been declared dead.
const POISON: &str = "rocsched: ";

/// Is `payload`, a rank's panic, the fabric's deadlock poison?
pub(crate) fn is_poison(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|m| m.starts_with(POISON))
}

/// Bit pattern of a non-negative virtual time, normalised so that `u64`
/// ordering equals `f64` ordering (`-0.0` maps to `+0.0`).
fn time_bits(t: SimTime) -> u64 {
    if t == 0.0 {
        0
    } else {
        t.to_bits()
    }
}

/// One matchable message at a wildcard choice point: the per-source head
/// (MPI non-overtaking) of a source with at least one matching message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Global rank of the sender.
    pub src_global: usize,
    /// Tag of the head message.
    pub tag: u32,
    /// Payload length of the head message.
    pub payload_len: usize,
    /// Virtual arrival time of the head message.
    pub arrival: SimTime,
}

impl Candidate {
    fn of(e: &Envelope) -> Candidate {
        Candidate {
            src_global: e.src_global,
            tag: e.tag,
            payload_len: e.payload.len(),
            arrival: e.arrival,
        }
    }

    /// Virtual order: by arrival, ties to the lower sender.
    fn virtual_cmp(&self, other: &Candidate) -> std::cmp::Ordering {
        self.arrival
            .total_cmp(&other.arrival)
            .then(self.src_global.cmp(&other.src_global))
    }
}

/// Which operation reached the fabric: a receive or a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceKind {
    /// A receive: the chosen message is removed from the mailbox.
    Take,
    /// A probe: the chosen message is only reported (copied, sharing the
    /// payload); a later receive decides again.
    Peek,
}

/// A wildcard resolution decision handed to a [`ScheduleOracle`].
///
/// `candidates` is sorted by `(arrival, src_global)`, so index 0 is the
/// message the conservative virtual-order gate would commit.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    /// Global decision index within the current job (0, 1, 2, ...).
    pub seq: u64,
    /// Global rank of the receiver making the wildcard call.
    pub dst: usize,
    /// Take (receive) or Peek (probe).
    pub kind: ChoiceKind,
    /// Per-source matching heads, sorted by `(arrival, src_global)`.
    pub candidates: Vec<Candidate>,
}

/// A controllable replacement for the conservative virtual-order gate.
///
/// With an oracle installed ([`Fabric::with_oracle`]) the fabric serializes
/// all scheduling at *stable global states*: a wildcard choice is granted
/// only once every rank is parked in a fabric call (or finished), so the
/// candidate set at each decision is a pure function of the previous
/// decisions — independent of OS thread scheduling. `choose` returns an
/// index into `point.candidates`; returning 0 everywhere reproduces the
/// gate's `(arrival, sender)` order.
///
/// `choose` is called with the fabric lock held: it must not call back
/// into the fabric and should return quickly.
pub trait ScheduleOracle: Send + Sync {
    /// Pick which candidate resolves this wildcard operation.
    fn choose(&self, point: &ChoicePoint) -> usize;
}

/// Decides the fate of each fault-eligible message at delivery time.
///
/// Installed with [`Fabric::set_fault_injector`]. `seq` is the per-link
/// eligible-message counter (incremented for every eligible message
/// regardless of the action taken, so decisions stay aligned across
/// protocol variants). Implementations must be pure functions of their
/// arguments — the fabric calls `decide` under its state lock, and
/// determinism of the whole run rests on the decision stream being a
/// function of the message sequence alone. [`crate::model::FaultSpec`]
/// is the seeded production implementation; rocsched installs scripted
/// injectors to *explore* fault placements.
pub trait FaultInjector: Send + Sync {
    /// The fate of the `seq`-th eligible message on link `src → dst`.
    fn decide(&self, src: usize, dst: usize, seq: u64, tag: u32) -> FaultAction;
}

impl FaultInjector for crate::model::FaultSpec {
    fn decide(&self, src: usize, dst: usize, seq: u64, _tag: u32) -> FaultAction {
        crate::model::FaultSpec::decide(self, src, dst, seq)
    }
}

/// Counters of faults the injector actually inflicted (diagnostics and
/// chaos-tier assertions that the adversary really fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently discarded.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages overtaken via the one-slot link limbo.
    pub reordered: u64,
}

impl FaultStats {
    /// Total faults inflicted.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered
    }
}

/// A message in flight or queued at its destination.
#[derive(Debug, Clone, Default)]
pub struct Envelope {
    /// Communicator context the message belongs to.
    pub ctx: u64,
    /// Global rank of the sender.
    pub src_global: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload bytes as the sender handed them over — one part for a plain
    /// send, the segment list of a scatter-gather one — shared by
    /// refcount: cloning an envelope (or handing its payload to a
    /// receiver) never copies the data.
    pub payload: Rope,
    /// Virtual time at which the sender finished injecting the message.
    pub sent: SimTime,
    /// Virtual time at which the message is available at the receiver.
    pub arrival: SimTime,
}

/// Which messages a receive or probe accepts — a value, so that a parked
/// rank can publish it and [`Fabric::deliver`] can tell whether a new
/// message concerns the call the rank is parked in.
#[derive(Debug, Clone)]
pub struct MatchSpec {
    /// Communicator context.
    pub ctx: u64,
    /// Sender's *global* rank; `None` accepts any member of `group`.
    pub src: Option<usize>,
    /// Tag; `None` accepts any user tag (≤ [`TAG_USER_MAX`]).
    pub tag: Option<u32>,
    /// The communicator's members.
    pub group: Group,
}

impl MatchSpec {
    /// Whether the call accepts `e`.
    pub fn matches(&self, e: &Envelope) -> bool {
        e.ctx == self.ctx
            && match self.tag {
                Some(t) => e.tag == t,
                None => e.tag <= TAG_USER_MAX,
            }
            && match self.src {
                Some(s) => e.src_global == s,
                None => self.group.local(e.src_global).is_some(),
            }
    }
}

/// What a rank is doing, as seen by other ranks' safety scans.
#[derive(Clone, Copy, Debug)]
enum RankWait {
    /// Executing: may advance its clock and send at any moment; its next
    /// send's arrival is never below its current clock.
    Running,
    /// Parked in a blocking receive/probe, or finished: produces nothing
    /// before `bound` (`INFINITY` when it cannot act at all without a new
    /// delivery). A delivery its call accepts lowers the bound until the
    /// rank wakes and re-evaluates.
    Blocked { bound: SimTime },
}

/// A registered, not-yet-granted wildcard choice point.
#[derive(Debug, Clone)]
struct PendingChoice {
    kind: ChoiceKind,
    candidates: Vec<Candidate>,
}

struct FabricState {
    /// Every rank's mailbox, in one arena of envelope slots, indexed by
    /// stream.
    mail: Mailboxes,
    waits: Vec<RankWait>,
    /// What the call a `Blocked` rank is parked in accepts (`None` for
    /// running and finished ranks). Kept in lockstep with `waits`.
    waiting: Vec<Option<MatchSpec>>,
    /// The wake handle of the thread that last parked as each rank.
    handles: Vec<Option<Arc<WakeHandle>>>,
    // --- scan indices, kept in lockstep with `waits` by `set_wait` ---
    /// Ranks currently `Running` (arbitrary order; swap-removed).
    running: Vec<usize>,
    /// rank → index in `running`, or `usize::MAX` when not running.
    running_pos: Vec<usize>,
    /// `time_bits(bound)` of every `Blocked` rank: the safety scan reads
    /// the minimum commitment in O(1) instead of O(n).
    blocked_bounds: MinTree,
    /// `time_bits(scan bound)` of the ranks parked inside a gate loop
    /// (wildcard candidate gates, `try_*_at` deadline scans): the entries
    /// the wake scan walks, up to its cut-off.
    gate_waiters: MinTree,
    /// rank → scan bound while parked in a gate loop (mirror of
    /// `gate_waiters`, for per-rank lookup).
    gate_scan: Vec<Option<u64>>,
    // --- adversarial-network state (inert without an injector) ---
    /// Fault decider for eligible messages, if any.
    injector: Option<Arc<dyn FaultInjector>>,
    /// Per-link eligible-message counters, keyed `src * n + dst`.
    /// Sparse on purpose: the dense `vec![0; n * n]` form this replaces
    /// cost ~100 bytes per rank *pair* — 1.7 GB of resident zeroes at
    /// 4096 ranks — while real jobs only ever touch O(n log n) links.
    link_seq: BTreeMap<usize, u64>,
    /// One-slot per-link limbo for reordered messages, keyed
    /// `src * n + dst`: a stashed envelope is invisible to matching until
    /// the *next* send on the same link releases it (behind that send's
    /// own outcome), re-stamped to that send's arrival so the overtake is
    /// real in virtual time. A stash on a link that never sends again
    /// simply rots — upper layers recover by retransmission, never by
    /// blocking on the stash.
    limbo: BTreeMap<usize, Envelope>,
    /// Faults inflicted so far.
    fault_stats: FaultStats,
    /// Rank's thread has returned (or unwound); it will never act again.
    finished: Vec<bool>,
    /// Set once the job can never make progress again (`declare_deadlock`):
    /// every fabric call panics with this message from then on.
    poisoned: Option<String>,
    // --- oracle-mode bookkeeping (unused without an oracle) ---
    /// Rank re-validated its blocked state after the last delivery to it;
    /// stability requires every unfinished rank blocked *and* confirmed.
    confirmed: Vec<bool>,
    /// Wildcard choice point the rank is parked on, if any.
    pending: Vec<Option<PendingChoice>>,
    /// Decision issued to the rank, not yet consumed by it.
    granted: Vec<Option<Candidate>>,
    /// Number of decisions granted this job.
    seq: u64,
}

impl FabricState {
    /// The state of an `n`-rank fabric before its first job: every rank
    /// running, nothing queued, no adversary. Every per-rank table and
    /// index is sized here, once: later jobs reset them in place.
    fn new(n: usize) -> Self {
        FabricState {
            mail: Mailboxes::new(n),
            waits: vec![RankWait::Running; n],
            waiting: vec![None; n],
            handles: vec![None; n],
            running: (0..n).collect(),
            running_pos: (0..n).collect(),
            blocked_bounds: MinTree::new(n),
            gate_waiters: MinTree::new(n),
            gate_scan: vec![None; n],
            injector: None,
            link_seq: BTreeMap::new(),
            limbo: BTreeMap::new(),
            fault_stats: FaultStats::default(),
            finished: vec![false; n],
            confirmed: vec![false; n],
            pending: vec![None; n],
            granted: vec![None; n],
            seq: 0,
            poisoned: None,
        }
    }

    /// Start a fresh job in place: every rank running and unwatched, no
    /// decision made. Mailboxes, the adversary and its counters carry
    /// over.
    fn reset_job(&mut self) {
        let n = self.waits.len();
        self.waits.fill(RankWait::Running);
        self.waiting.fill(None);
        self.handles.fill(None);
        self.running.clear();
        self.running.extend(0..n);
        self.running_pos.clear();
        self.running_pos.extend(0..n);
        self.blocked_bounds.clear();
        self.gate_waiters.clear();
        self.gate_scan.fill(None);
        self.finished.fill(false);
        self.confirmed.fill(false);
        self.pending.fill(None);
        self.granted.fill(None);
        self.seq = 0;
        self.poisoned = None;
    }

    /// The single choke point for wait-state transitions: keeps the
    /// `running` / `blocked_bounds` scan indices and the published
    /// `waiting` spec in lockstep with `waits`. Every write to a rank's
    /// wait state must go through here.
    fn set_wait(&mut self, rank: usize, w: RankWait) {
        match self.waits[rank] {
            RankWait::Running => {
                let i = self.running_pos[rank];
                self.running.swap_remove(i);
                if i < self.running.len() {
                    self.running_pos[self.running[i]] = i;
                }
                self.running_pos[rank] = usize::MAX;
            }
            RankWait::Blocked { .. } => self.blocked_bounds.remove(rank),
        }
        self.waits[rank] = w;
        match w {
            RankWait::Running => {
                self.running_pos[rank] = self.running.len();
                self.running.push(rank);
                self.waiting[rank] = None;
            }
            RankWait::Blocked { bound } => self.blocked_bounds.set(rank, time_bits(bound)),
        }
    }

    /// Remove (receive) or copy (probe) the message at the head of
    /// stream `h`. The copy shares the payload by refcount.
    fn claim(&mut self, h: Head, kind: ChoiceKind) -> Envelope {
        match kind {
            ChoiceKind::Take => self.mail.take(h),
            ChoiceKind::Peek => self.mail.head(h).clone(),
        }
    }

    /// Virtual-order candidate in `dst`'s mailbox: among the per-source
    /// heads `spec` accepts, the one minimizing `(arrival, src_global)`.
    /// Every candidate heads its stream; returns that stream.
    fn select_virtual(&mut self, dst: usize, spec: &MatchSpec) -> Option<Head> {
        match (spec.src, spec.tag) {
            (Some(src), _) => self.first_from(dst, spec, src),
            (None, Some(tag)) => {
                let least = self.mail.least_in_group(dst, spec.ctx, tag)?;
                if spec.matches(self.mail.head(least)) {
                    return Some(least);
                }
                // The least head's sender is outside the communicator's
                // group: compare the members' heads one by one.
                self.least_first(dst, spec)
            }
            (None, None) => self.least_first(dst, spec),
        }
    }

    /// `src`'s first message in `dst`'s mailbox that `spec` accepts.
    fn first_from(&mut self, dst: usize, spec: &MatchSpec, src: usize) -> Option<Head> {
        match spec.tag {
            Some(tag) => self.mail.stream(dst, src, spec.ctx, tag),
            None => self
                .mail
                .first_heads(dst, |e| e.src_global == src && spec.matches(e))
                .next()
                .map(|(h, _)| h),
        }
    }

    /// [`FabricState::select_virtual`] by comparing every source's first
    /// accepted head.
    fn least_first(&mut self, dst: usize, spec: &MatchSpec) -> Option<Head> {
        self.mail
            .first_heads(dst, |e| spec.matches(e))
            .map(|(h, e)| (h, Candidate::of(e)))
            .min_by(|(_, a), (_, b)| a.virtual_cmp(b))
            .map(|(h, _)| h)
    }

    /// The least `(arrival, source)` of the first heads `spec` accepts
    /// from the `open` members of its group (local ranks, ascending) in
    /// `dst`'s mailbox, once every one of them has such a head: `Ok` with
    /// its stream. Otherwise `Err` with the least arrival among the heads
    /// present (∞ if none): what the rank can act on at the earliest, and
    /// so its commitment while it waits for the rest.
    fn least_of(&mut self, dst: usize, spec: &MatchSpec, open: &[usize]) -> Result<Head, SimTime> {
        let mut least: Option<(Head, Candidate)> = None;
        let mut found = 0;
        let mut consider = |h: Head, e: &Envelope| {
            found += 1;
            let c = Candidate::of(e);
            if least.is_none_or(|(_, l)| c.virtual_cmp(&l).is_lt()) {
                least = Some((h, c));
            }
        };
        let open_member = |e: &Envelope| {
            spec.group.local(e.src_global).is_some_and(|l| open.binary_search(&l).is_ok())
        };
        for (h, e) in self.mail.first_heads(dst, |e| spec.matches(e) && open_member(e)) {
            consider(h, e);
        }
        match least {
            Some((h, _)) if found == open.len() => Ok(h),
            other => Err(other.map_or(SimTime::INFINITY, |(_, c)| c.arrival)),
        }
    }

    /// Every per-source matching head in `dst`'s mailbox, sorted by
    /// `(arrival, src)` — the full candidate set
    /// [`FabricState::select_virtual`] picks its minimum from.
    fn candidate_set(&mut self, dst: usize, spec: &MatchSpec) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = self
            .mail
            .first_heads(dst, |e| spec.matches(e))
            .map(|(_, e)| Candidate::of(e))
            .collect();
        out.sort_by(Candidate::virtual_cmp);
        out
    }
}

/// Threads to unpark once the fabric lock is released. The inline slots
/// cover the hot paths (a delivery wakes one rank, a park hands one slot
/// on); only broadcast-like scans spill to the heap.
#[derive(Default)]
struct WakeList {
    inline: [Option<Thread>; 4],
    spill: Vec<Thread>,
}

impl WakeList {
    fn push(&mut self, t: Option<Thread>) {
        let Some(t) = t else { return };
        match self.inline.iter_mut().find(|s| s.is_none()) {
            Some(slot) => *slot = Some(t),
            None => self.spill.push(t),
        }
    }
}

impl Drop for WakeList {
    fn drop(&mut self) {
        for t in self.inline.iter_mut().filter_map(Option::take) {
            t.unpark();
        }
        for t in self.spill.drain(..) {
            t.unpark();
        }
    }
}

/// The fabric state guard plus the wakes decided under it. Fields drop
/// in declaration order: the guard first, then the list, whose drop
/// issues the unparks — no woken thread finds the lock held by its waker.
struct Locked<'a> {
    st: MutexGuard<'a, FabricState>,
    wakes: WakeList,
}

impl<'a> Locked<'a> {
    fn new(st: MutexGuard<'a, FabricState>) -> Self {
        Locked {
            st,
            wakes: WakeList::default(),
        }
    }
}

/// Make `rank` ready if its thread is parked; the unpark itself waits in
/// `wakes` for the guard's drop.
fn wake_rank(st: &FabricState, wakes: &mut WakeList, rank: usize) {
    wakes.push(st.handles[rank].as_ref().and_then(WakeHandle::make_ready));
}

impl Deref for Locked<'_> {
    type Target = FabricState;
    fn deref(&self) -> &FabricState {
        &self.st
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut FabricState {
        &mut self.st
    }
}

/// The machine-wide fabric: cluster spec, one mailbox and one virtual
/// clock per global rank, and the conservative-order gate state.
pub struct Fabric {
    spec: ClusterSpec,
    /// Every rank's clock, in one table: a rank's communicators reach
    /// theirs through the fabric.
    clocks: Vec<VClock>,
    state: Mutex<FabricState>,
    oracle: Option<Arc<dyn ScheduleOracle>>,
    /// `time_bits` of the lowest scan bound a gate waiter is parked on
    /// (`u64::MAX`: none). Written under the state lock; a clock move
    /// that crosses it runs the wake scan (`Fabric::clock_moved`).
    gate_min: AtomicU64,
    /// A crossing clock move's wake scan made waiters ready since
    /// `gate_min` was last published; they scan again as they leave the
    /// gate, so another crossing need not. Written under the state lock.
    gate_woken: AtomicBool,
}

impl Fabric {
    /// Build a fabric for every rank placed by `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::build(spec, None)
    }

    /// Build a fabric whose wildcard resolution is decided by `oracle`
    /// instead of the conservative virtual-order gate (see
    /// [`ScheduleOracle`]). Used by schedule exploration (`rocverify`).
    pub fn with_oracle(spec: ClusterSpec, oracle: Arc<dyn ScheduleOracle>) -> Self {
        Self::build(spec, Some(oracle))
    }

    fn build(spec: ClusterSpec, oracle: Option<Arc<dyn ScheduleOracle>>) -> Self {
        let n = spec.n_ranks();
        Fabric {
            spec,
            clocks: (0..n).map(|_| VClock::new()).collect(),
            state: Mutex::new("rocnet.fabric_state", FabricState::new(n)),
            oracle,
            gate_min: AtomicU64::new(u64::MAX),
            gate_woken: AtomicBool::new(false),
        }
    }

    /// The cluster description this fabric models.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of global ranks.
    pub fn n_ranks(&self) -> usize {
        self.clocks.len()
    }

    /// The virtual clock of global rank `rank`, shared by all of its
    /// communicators. The fabric owns the clocks so the safety scan can
    /// read every rank's time; only a communicator moves one
    /// (`Fabric::clock_moved`).
    pub(crate) fn clock_of(&self, rank: usize) -> &VClock {
        &self.clocks[rank]
    }

    /// A rank's clock has just moved from `old` to `new`. If the move
    /// crossed the lowest parked gate bound, run the wake scan here, on
    /// the moving rank's own thread: the crossing itself wakes, not the
    /// rank's next fabric call. Callers hold no lock.
    ///
    /// Only the lowest bound is checked. A waiter that passes lets the
    /// lowest-bound one pass too (it commits to at least its bound), so a
    /// move that crosses a higher bound but not the lowest can only
    /// enable a waiter while the lowest one already could: that one was
    /// made ready, and its own scan as it leaves the gate
    /// (`gate_unpark`) sees this clock. `SeqCst` on both sides — the
    /// move's store then this load, a parking waiter's `gate_min` store
    /// then its clock reads — means at least one side sees the other.
    pub(crate) fn clock_moved(&self, old: SimTime, new: SimTime) {
        let min = self.gate_min.load(Ordering::SeqCst);
        if time_bits(old) < min
            && min <= time_bits(new)
            && !self.gate_woken.load(Ordering::SeqCst)
        {
            let mut g = Locked::new(self.state.lock());
            if self.wake_gates(&mut g) {
                self.gate_woken.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Install an adversarial fault model: every *eligible* message
    /// (world-context user-tag traffic between distinct ranks) is run
    /// through `injector` at delivery time. Collectives, sub-communicator
    /// traffic (split contexts) and self-sends are exempt — chaos targets
    /// the data plane the reliability layer protects, not the control
    /// plane rocnet itself guarantees. Install before the job starts.
    pub fn set_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        self.state.lock().injector = Some(injector);
    }

    /// Counters of faults inflicted so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().fault_stats
    }

    /// Mark every rank runnable again (a fresh "job" on this fabric):
    /// mailboxes and the adversary carry over, everything else restarts
    /// — in place, so a job allocates no fabric state of its own.
    pub(crate) fn begin_job(&self) {
        let mut st = self.state.lock();
        st.reset_job();
        self.publish_gate_min(&st);
    }

    /// Mark `rank`'s thread as done: it will never send again, so gates on
    /// other ranks must not wait for its clock.
    ///
    /// Only gate waiters can be *enabled* by a finish (the rank's
    /// commitment rises to ∞), so the targeted wake scan is enough — a
    /// wake-everyone broadcast would be O(n²) wakes per job teardown.
    pub(crate) fn finish_rank(&self, rank: usize) {
        let mut g = Locked::new(self.state.lock());
        g.set_wait(
            rank,
            RankWait::Blocked {
                bound: SimTime::INFINITY,
            },
        );
        g.waiting[rank] = None;
        g.finished[rank] = true;
        g.pending[rank] = None;
        if g.gate_scan[rank].take().is_some() {
            g.gate_waiters.remove(rank);
        }
        self.oracle_step(&mut g);
        self.wake_gates(&mut g);
        self.end_if_stuck(&mut g, &WakeHandle::current());
    }

    /// Gated mode: end the job once nothing can make a rank ready: every
    /// rank blocked or finished, and none of `me`'s job holding a slot
    /// (a rank busy outside the fabric keeps its slot) or queued for one.
    fn end_if_stuck(&self, g: &mut Locked, me: &WakeHandle) {
        if self.oracle.is_none() && g.running.is_empty() && g.poisoned.is_none() && me.job_idle() {
            self.declare_deadlock(g);
        }
    }

    /// Panic out of a fabric call once the job has been declared dead
    /// (deadlocked, possibly because another rank failed and returned).
    #[expect(
        clippy::panic,
        reason = "deadlock poison is rocsched's reporting channel; every fabric call rethrows \
                  it and the explorer catches it"
    )]
    fn check_poison(&self, st: &FabricState) {
        if let Some(msg) = &st.poisoned {
            panic!("{POISON}{msg}");
        }
    }

    /// Publish `rank` as `Blocked {{ bound }}` in a call accepting `spec`;
    /// in oracle mode also mark it confirmed and run the scheduler step,
    /// since this rank blocking may complete a stable state. Blocking
    /// raises the rank's commitment, which may let parked gate waiters
    /// pass: run the wake scan.
    fn block(&self, g: &mut Locked, rank: usize, bound: SimTime, spec: &MatchSpec) {
        // Floor the published commitment at the rank's own clock: clocks
        // are monotone and every future send is stamped past the sender's
        // clock, so a rank can never produce an arrival earlier than its
        // clock no matter which candidate it acts on. Without the floor
        // the commitment (a candidate arrival, possibly deep in the
        // rank's past) under-reports, and a gate waiter's safety scan
        // can pass while this rank is running (live clock ≥ bound) yet
        // fail after it parks — making the scan's verdict depend on
        // *when* it runs, a host-scheduling race that breaks schedule
        // replay.
        let bound = bound.max(self.clocks[rank].now());
        g.set_wait(rank, RankWait::Blocked { bound });
        g.waiting[rank] = Some(spec.clone());
        if self.oracle.is_some() {
            g.confirmed[rank] = true;
            self.oracle_step(g);
        }
        self.wake_gates(g);
    }

    /// Return `rank` to `Running` on the return path of a blocking call.
    fn unblock(&self, st: &mut FabricState, rank: usize) {
        st.set_wait(rank, RankWait::Running);
        st.confirmed[rank] = false;
        st.pending[rank] = None;
    }

    /// Register `rank` as a parked gate waiter with scan bound `bound`:
    /// publish the bound as its commitment, enter it in the wake set,
    /// republish the lowest bound, and let other waiters that our
    /// commitment unblocks pass.
    fn gate_park(&self, g: &mut Locked, rank: usize, bound: SimTime, spec: &MatchSpec) {
        // Commitment floored at the clock (see `block`); the waiter's own
        // scan threshold stays at the requested bound — it needs safety
        // only up to its deadline.
        g.set_wait(
            rank,
            RankWait::Blocked {
                bound: bound.max(self.clocks[rank].now()),
            },
        );
        g.waiting[rank] = Some(spec.clone());
        let bits = time_bits(bound);
        g.gate_scan[rank] = Some(bits);
        g.gate_waiters.set(rank, bits);
        self.publish_gate_min(g);
        self.wake_gates(g);
    }

    /// Deregister `rank` from the gate-waiter set after its park returns
    /// (it re-evaluates its scan from scratch), mark it running, and let
    /// pass the waiters that a clock move enabled while this rank held
    /// the lowest bound (see `Fabric::clock_moved`).
    fn gate_unpark(&self, g: &mut Locked, rank: usize) {
        if g.gate_scan[rank].take().is_some() {
            g.gate_waiters.remove(rank);
        }
        g.set_wait(rank, RankWait::Running);
        self.publish_gate_min(g);
        self.wake_gates(g);
    }

    /// Publish the lowest parked gate bound for clock moves to check, and
    /// re-arm them.
    fn publish_gate_min(&self, st: &FabricState) {
        let min = st.gate_waiters.min().map_or(u64::MAX, |(bits, _)| bits);
        self.gate_min.store(min, Ordering::SeqCst);
        self.gate_woken.store(false, Ordering::SeqCst);
    }

    /// Wake every parked gate waiter whose safety scan now passes.
    ///
    /// A waiter with scan bound `b` passes iff every *other* rank is
    /// blocked with commitment ≥ `b` or running with clock ≥ `b`. The
    /// minimum over running clocks is shared across waiters, and the
    /// blocked commitments come from `blocked_bounds`: the least one, and
    /// the least but that rank's (its holder excludes itself). Since any
    /// waiter's own published bound is ≥ the least commitment, only
    /// waiters at (or tied with) it can pass — the walk skips every
    /// subtree of waiters above that cut-off, so the scan is
    /// O(passing waiters × log n), not O(n).
    ///
    /// Returns whether it made any waiter ready.
    fn wake_gates(&self, g: &mut Locked) -> bool {
        let (st, wakes) = (&*g.st, &mut g.wakes);
        if st.gate_waiters.min().is_none() {
            return false;
        }
        let run_min_bits = st
            .running
            .iter()
            .map(|&s| time_bits(self.clocks[s].now()))
            .min()
            .unwrap_or(u64::MAX);
        let (b1, r1) = st.blocked_bounds.min().unwrap_or((u64::MAX, usize::MAX));
        let b2 = st
            .blocked_bounds
            .min_excluding(r1)
            .map_or(u64::MAX, |(b, _)| b);
        let generic = b1.min(run_min_bits);
        let mut woken = false;
        st.gate_waiters.for_each_at_most(generic, |(bw, r)| {
            if r != r1 || bw <= b2.min(run_min_bits) {
                wake_rank(st, wakes, r);
                woken = true;
            }
        });
        // The rank holding the minimum commitment excludes itself from
        // its own scan, so its threshold is b2, not b1: check it past
        // the generic cut-off.
        if r1 != usize::MAX {
            if let Some(bw) = st.gate_scan[r1] {
                if bw > generic && bw <= b2.min(run_min_bits) {
                    wake_rank(st, wakes, r1);
                    woken = true;
                }
            }
        }
        woken
    }

    /// Put the calling thread to sleep as `rank`: hand its admission slot
    /// to the scheduler's queue head, release the fabric lock (issuing
    /// the wakes decided under it), sleep until made ready — already
    /// holding a slot again — and re-take the lock. The caller published
    /// its wait state under the same lock hold, and must re-check its
    /// wake condition: arbitrary progress can happen in between.
    fn park<'a>(&'a self, mut g: Locked<'a>, rank: usize) -> Locked<'a> {
        if g.poisoned.is_some() {
            return g; // the job is over: the caller's loop panics with it
        }
        let me = WakeHandle::current();
        g.handles[rank] = Some(Arc::clone(&me));
        g.wakes.push(me.park());
        self.end_if_stuck(&mut g, &me);
        drop(g);
        me.sleep();
        Locked::new(self.state.lock())
    }

    /// Oracle-mode scheduler step, run under the state lock whenever a
    /// rank blocks or finishes. If the global state is *stable* — every
    /// unfinished rank parked in a fabric call and re-confirmed since its
    /// last delivery, no decision still in flight — grant the
    /// least-ranked pending wildcard choice via the oracle. If nothing is
    /// grantable and no deterministic gate waiter can proceed either, the
    /// job can never make progress again: poison it.
    fn oracle_step(&self, g: &mut Locked) {
        let Some(oracle) = self.oracle.as_ref() else {
            return;
        };
        if g.poisoned.is_some() {
            return;
        }
        let n = self.clocks.len();
        for r in 0..n {
            if g.granted[r].is_some() {
                return; // a granted rank is (logically) running
            }
            if g.finished[r] {
                continue;
            }
            if matches!(g.waits[r], RankWait::Running) || !g.confirmed[r] {
                return;
            }
        }
        // A deterministic gate waiter whose safety scan passes can
        // proceed without a decision; bounds are fixed at a stable
        // state, so evaluate the scans directly and wake the passers.
        // This must happen *before* any grant: the waiter is logically
        // runnable, and whether its thread has physically woken yet is a
        // host-scheduling accident. Granting past it would make the
        // global decision order depend on that accident — the waiter may
        // re-register a choice point of its own, and replays of the same
        // prefix would observe the two decisions in either order.
        let mut gate_can_run = false;
        for r in 0..n {
            let scan = g.gate_scan[r].map(f64::from_bits);
            if !g.finished[r] && scan.is_some_and(|now| self.scan_safe(g, r, now)) {
                gate_can_run = true;
                wake_rank(&g.st, &mut g.wakes, r);
            }
        }
        if gate_can_run {
            return;
        }
        let chosen = (0..n).find_map(|r| {
            if g.finished[r] {
                return None;
            }
            match &g.pending[r] {
                Some(p) if !p.candidates.is_empty() => Some((r, p.clone())),
                _ => None,
            }
        });
        if let Some((r, p)) = chosen {
            let point = ChoicePoint {
                seq: g.seq,
                dst: r,
                kind: p.kind,
                candidates: p.candidates,
            };
            g.seq += 1;
            let i = oracle.choose(&point);
            assert!(
                i < point.candidates.len(),
                "oracle chose candidate {i} of {} at decision {}",
                point.candidates.len(),
                point.seq
            );
            g.granted[r] = Some(point.candidates[i]);
            g.pending[r] = None;
            // The grant makes r logically runnable; publishing Running
            // keeps other ranks' safety scans conservative until it acts.
            g.set_wait(r, RankWait::Running);
            g.confirmed[r] = false;
            wake_rank(&g.st, &mut g.wakes, r);
            return;
        }
        // No wildcard to grant and no gate waiter can proceed: the job
        // can never make progress again.
        if (0..n).any(|r| !g.finished[r]) {
            self.declare_deadlock(g);
        }
    }

    /// Poison the job: name every unfinished rank's wait, and wake them
    /// all to panic with it out of their fabric calls.
    fn declare_deadlock(&self, g: &mut Locked) {
        let n = self.clocks.len();
        let stuck: Vec<String> = (0..n)
            .filter(|&r| !g.finished[r])
            .map(|r| {
                let what = match (g.gate_scan[r], g.waiting[r].as_ref().map(|s| s.src)) {
                    (Some(_), _) => "virtual-time gate".to_string(),
                    (None, Some(Some(src))) => format!("receive/probe from rank {src}"),
                    (None, _) => "wildcard receive/probe".to_string(),
                };
                format!("rank {r} ({what}, {} queued)", g.mail.len(r))
            })
            .collect();
        g.poisoned = Some(format!(
            "deadlock after {} decisions: no rank can make progress — {}",
            g.seq,
            stuck.join(", ")
        ));
        for r in 0..n {
            wake_rank(&g.st, &mut g.wakes, r);
        }
    }

    /// Can a wildcard match with arrival `bound` at `me` be committed? Only
    /// if no other rank can still produce an earlier arrival: each is
    /// either blocked with a commitment ≥ `bound` or its clock has already
    /// reached `bound`. Limbo-stashed messages need no clause here: a
    /// release re-stamps the stash to the releasing send's arrival, so it
    /// can never undercut a commit this scan admitted.
    /// O(#running + log n), not O(n): the least blocked commitment but
    /// `me`'s is read from `blocked_bounds`, and only the — in pooled
    /// runs, few — `Running` ranks have their clocks read.
    fn scan_safe(&self, st: &FabricState, me: usize, bound: SimTime) -> bool {
        if st
            .blocked_bounds
            .min_excluding(me)
            .is_some_and(|(bits, _)| bits < time_bits(bound))
        {
            return false;
        }
        st.running
            .iter()
            .all(|&s| s == me || self.clocks[s].now() >= bound)
    }

    /// Queue `env` at `dst` under the lock. If `dst` is parked in a call
    /// that can use the message, lower its published bound and wake it;
    /// otherwise the message changes nothing `dst` has promised.
    fn enqueue(&self, g: &mut Locked, dst: usize, env: Envelope) {
        // A finished rank never wakes to re-raise its bound, so lowering
        // it would wedge every other rank's scan forever (trailing acks
        // racing a peer's exit are normal under the reliability layer).
        if let (false, RankWait::Blocked { bound }) = (g.finished[dst], g.waits[dst]) {
            // The parked call returns only by claiming a message its spec
            // accepts, and a gate-parked one only an arrival up to its
            // scan bound (its candidate's arrival, or its deadline). Any
            // other message cannot end the call, so the commitment
            // published with it stands: no lowering, no wake. Under an
            // oracle every delivery invalidates the rank's confirmation,
            // so every delivery wakes it.
            let usable = self.oracle.is_some()
                || (g.waiting[dst].as_ref().is_none_or(|s| s.matches(&env))
                    && g.gate_scan[dst].is_none_or(|scan| time_bits(env.arrival) <= scan));
            if usable {
                // The rank may act on this message as soon as it wakes:
                // its commitment shrinks until it re-evaluates under the
                // lock — floored at its clock, as in `block`.
                let lowered = env.arrival.max(self.clocks[dst].now());
                if lowered < bound {
                    g.set_wait(dst, RankWait::Blocked { bound: lowered });
                }
                wake_rank(&g.st, &mut g.wakes, dst);
            }
        }
        // Oracle mode: the destination's registered choice point (if any)
        // is now stale; no decision may be granted until it re-confirms.
        g.confirmed[dst] = false;
        g.mail.push_back(dst, env);
    }

    /// Deliver an envelope to global rank `dst`, running it through the
    /// fault injector when one is installed and the message is eligible
    /// (world context, user tag, distinct ranks). A send on a link with a
    /// limbo-stashed envelope releases the stash *behind* this message's
    /// own outcome, atomically under the state lock, re-stamped to this
    /// message's arrival: the overtaken message now genuinely arrives
    /// later in virtual time, so the ordinary clock scan stays sound and
    /// a stash can never wedge a receiver. Both outcomes of the reorder
    /// stay pure functions of virtual state.
    pub fn deliver(&self, dst: usize, env: Envelope) {
        let mut g = Locked::new(self.state.lock());
        self.check_poison(&g);
        let src = env.src_global;
        let eligible =
            g.injector.is_some() && env.ctx == 0 && env.tag <= TAG_USER_MAX && src != dst;
        if !eligible {
            self.enqueue(&mut g, dst, env);
            return;
        }
        let n = g.waits.len();
        let link = src * n + dst;
        let seq_slot = g.link_seq.entry(link).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        #[expect(
            clippy::expect_used,
            reason = "the fault branch is entered only after `injector.is_some()`, under the same \
                      lock"
        )]
        let action = g
            .injector
            .as_ref()
            .expect("eligibility checked the injector")
            .decide(src, dst, seq, env.tag);
        let stashed = g.limbo.remove(&link);
        let stamp = env.arrival;
        match action {
            FaultAction::Deliver => self.enqueue(&mut g, dst, env),
            FaultAction::Drop => g.fault_stats.dropped += 1,
            FaultAction::Duplicate => {
                g.fault_stats.duplicated += 1;
                self.enqueue(&mut g, dst, env.clone());
                self.enqueue(&mut g, dst, env);
            }
            FaultAction::Reorder => {
                g.fault_stats.reordered += 1;
                g.limbo.insert(link, env);
            }
        }
        if let Some(mut old) = stashed {
            // The overtake is the re-stamp: the stash now arrives no
            // earlier than the message that flushed it out.
            old.arrival = old.arrival.max(stamp);
            self.enqueue(&mut g, dst, old);
        }
    }

    /// Blocking receive (`Take`) or probe (`Peek`): wait until `dst`'s
    /// mailbox holds the message `spec` selects, then remove or copy it.
    ///
    /// With a specific source that is the first physical match — per-source
    /// delivery order equals send order, so no gate is needed. With a
    /// wildcard source it is the virtual-order first match (see the
    /// module docs), committed behind the safety gate or by the oracle:
    /// selection is a pure function of virtual time, not of the
    /// wall-clock order in which rank threads happened to deliver.
    pub fn wait_match(&self, dst: usize, spec: &MatchSpec, kind: ChoiceKind) -> Envelope {
        match (spec.src, &self.oracle) {
            (Some(_), _) => self.wait_source(dst, spec, kind),
            (None, None) => self.wait_any_gated(dst, spec, kind),
            (None, Some(_)) => self.wait_any_oracle(dst, spec, kind),
        }
    }

    /// Specific-source wait: first physical match, no gate.
    fn wait_source(&self, dst: usize, spec: &MatchSpec, kind: ChoiceKind) -> Envelope {
        let mut g = Locked::new(self.state.lock());
        loop {
            self.check_poison(&g);
            if let Some(h) = g.select_virtual(dst, spec) {
                self.unblock(&mut g, dst);
                return g.claim(h, kind);
            }
            self.block(&mut g, dst, SimTime::INFINITY, spec);
            g = self.park(g, dst);
        }
    }

    /// Wildcard wait behind the conservative gate: blocks both for a
    /// candidate and for the safety scan at its arrival.
    fn wait_any_gated(&self, dst: usize, spec: &MatchSpec, kind: ChoiceKind) -> Envelope {
        let mut g = Locked::new(self.state.lock());
        loop {
            self.check_poison(&g);
            match g.select_virtual(dst, spec) {
                Some(h) => {
                    let bound = g.mail.head(h).arrival;
                    if self.scan_safe(&g, dst, bound) {
                        if !matches!(g.waits[dst], RankWait::Running) {
                            g.set_wait(dst, RankWait::Running);
                        }
                        return g.claim(h, kind);
                    }
                    // Publish the candidate as a commitment — the gate's
                    // induction needs waiting receivers to promise they
                    // produce nothing earlier than what they will take —
                    // and park until a blocking rank or a crossing clock
                    // move re-runs the wake scan past our bound.
                    self.gate_park(&mut g, dst, bound, spec);
                    g = self.park(g, dst);
                    self.gate_unpark(&mut g, dst);
                }
                None => {
                    self.block(&mut g, dst, SimTime::INFINITY, spec);
                    g = self.park(g, dst);
                }
            }
        }
    }

    /// Receive from known senders (`Comm::recv_least_of`): wait until
    /// each of `open` — local ranks of `spec`'s group, ascending — heads
    /// a stream `spec` accepts, then take the least `(arrival, source)`
    /// of those heads. No gate and no choice point: a source's head is
    /// fixed once queued (non-overtaking), and the caller vouches that no
    /// rank outside `open` sends what `spec` accepts, so no other rank's
    /// clock bears on the pick. While it waits the rank commits to the
    /// least head it holds, and any delivery `spec` accepts lowers that
    /// commitment and wakes it to look again.
    pub(crate) fn wait_least_of(&self, dst: usize, spec: &MatchSpec, open: &[usize]) -> Envelope {
        let mut g = Locked::new(self.state.lock());
        loop {
            self.check_poison(&g);
            match g.least_of(dst, spec, open) {
                Ok(h) => {
                    self.unblock(&mut g, dst);
                    return g.claim(h, ChoiceKind::Take);
                }
                Err(bound) => {
                    self.block(&mut g, dst, bound, spec);
                    g = self.park(g, dst);
                }
            }
        }
    }

    /// Oracle-mode wildcard wait: register the candidate set as a choice
    /// point, park until a decision is granted at a stable state, then
    /// claim the granted source's head.
    fn wait_any_oracle(&self, dst: usize, spec: &MatchSpec, kind: ChoiceKind) -> Envelope {
        let mut g = Locked::new(self.state.lock());
        loop {
            self.check_poison(&g);
            if let Some(cand) = g.granted[dst].take() {
                self.unblock(&mut g, dst);
                #[expect(
                    clippy::expect_used,
                    reason = "oracle-grant invariant: candidates are pinned by non-overtaking \
                              delivery until taken"
                )]
                let h = g
                    .first_from(dst, spec, cand.src_global)
                    .expect("granted candidate vanished from the mailbox");
                return g.claim(h, kind);
            }
            let candidates = g.candidate_set(dst, spec);
            let bound = candidates
                .first()
                .map(|c| c.arrival)
                .unwrap_or(SimTime::INFINITY);
            g.pending[dst] = Some(PendingChoice { kind, candidates });
            self.block(&mut g, dst, bound, spec);
            if g.granted[dst].is_some() {
                continue; // oracle_step granted our own registration
            }
            g = self.park(g, dst);
            if g.granted[dst].is_none() {
                // Woken by a delivery (or spuriously): re-register so the
                // choice point reflects the new mailbox contents.
                self.unblock(&mut g, dst);
            }
        }
    }

    /// Deterministic non-blocking receive or probe (`MPI_Iprobe`) at
    /// virtual time `now`: the virtual-order first matching envelope that
    /// has arrived by `now`, or `None` once no rank can still produce
    /// one. May block wall-clock time (never virtual time) until that
    /// answer is stable.
    pub fn settle_at(
        &self,
        dst: usize,
        spec: &MatchSpec,
        now: SimTime,
        kind: ChoiceKind,
    ) -> Option<Envelope> {
        let mut g = Locked::new(self.state.lock());
        loop {
            self.check_poison(&g);
            if self.scan_safe(&g, dst, now) {
                self.unblock(&mut g, dst);
                let h = g
                    .select_virtual(dst, spec)
                    .filter(|&h| g.mail.head(h).arrival <= now)?;
                return Some(g.claim(h, kind));
            }
            // Publish the wait as a gate park. `now` may sit in the
            // caller's future (a retransmit-timer deadline): sound,
            // because the caller acts no earlier than `now` on a
            // timeout, and any earlier delivery lowers this bound
            // before the caller could possibly react to it.
            self.gate_park(&mut g, dst, now, spec);
            if self.oracle.is_some() {
                // Also publish it to oracle stability: this deterministic
                // gate waiter needs no decision (not a choice point; under
                // an oracle only these ever enter `gate_scan`), but stable
                // states must be able to form around it.
                g.confirmed[dst] = true;
                self.oracle_step(&mut g);
            }
            g = self.park(g, dst);
            self.gate_unpark(&mut g, dst);
            if self.oracle.is_some() {
                g.confirmed[dst] = false;
            }
        }
    }

    /// Number of messages currently queued at `dst` (diagnostics).
    pub fn queued(&self, dst: usize) -> usize {
        self.state.lock().mail.len(dst)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "blocking fabric calls are driven from threads of their own"
)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    /// Deterministic replacement for the old 20 ms sleeps: wait until the
    /// rank has *published* its park, an event that cannot regress until
    /// the condition the test controls is made true (parked in a fabric
    /// call, or finished). No wall-clock race: however slowly the waiter
    /// thread is scheduled, the test only proceeds once the park is visible
    /// under the fabric lock.
    fn await_parked(f: &Fabric, rank: usize) {
        while !matches!(f.state.lock().waits[rank], RankWait::Blocked { .. }) {
            std::thread::yield_now();
        }
    }

    /// World-context spec: any source (`None`) or global rank `src`.
    fn spec(src: Option<usize>, tag: Option<u32>) -> MatchSpec {
        MatchSpec {
            ctx: 0,
            src,
            tag,
            group: Group::world(usize::MAX),
        }
    }

    fn tagged(tag: u32) -> MatchSpec {
        spec(None, Some(tag))
    }

    fn take(f: &Fabric, dst: usize, spec: &MatchSpec) -> Envelope {
        f.wait_match(dst, spec, ChoiceKind::Take)
    }

    fn env(src: usize, tag: u32, arrival: SimTime) -> Envelope {
        Envelope {
            ctx: 0,
            src_global: src,
            tag,
            payload: bytes::Bytes::from(&[1u8, 2, 3][..]).into(),
            sent: 0.0,
            arrival,
        }
    }

    #[test]
    fn deliver_then_take_fifo() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.deliver(1, env(0, 5, 0.1));
        f.deliver(1, env(0, 5, 0.2));
        let a = take(&f, 1, &spec(Some(0), Some(5)));
        let b = take(&f, 1, &spec(Some(0), Some(5)));
        assert_eq!(a.arrival, 0.1);
        assert_eq!(b.arrival, 0.2);
        assert_eq!(f.queued(1), 0);
    }

    #[test]
    fn take_skips_non_matching() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.deliver(1, env(0, 1, 0.1));
        f.deliver(1, env(0, 2, 0.2));
        let m = take(&f, 1, &spec(Some(0), Some(2)));
        assert_eq!(m.tag, 2);
        assert_eq!(f.queued(1), 1);
    }

    #[test]
    fn try_take_returns_none_when_empty() {
        let f = Fabric::new(ClusterSpec::ideal(1));
        assert!(f.settle_at(0, &spec(None, None), 1.0, ChoiceKind::Take).is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let f = Fabric::new(ClusterSpec::ideal(1));
        f.deliver(0, env(0, 9, 0.5));
        let head = f.wait_match(0, &spec(Some(0), Some(9)), ChoiceKind::Peek);
        assert_eq!(Candidate::of(&head), Candidate::of(&env(0, 9, 0.5)));
        assert_eq!(f.queued(0), 1);
        assert!(f.settle_at(0, &tagged(8), 1.0, ChoiceKind::Peek).is_none());
    }

    #[test]
    fn blocking_take_wakes_on_delivery() {
        let f = std::sync::Arc::new(Fabric::new(ClusterSpec::ideal(2)));
        let f2 = std::sync::Arc::clone(&f);
        let h = std::thread::spawn(move || take(&f2, 1, &spec(Some(0), Some(3))));
        await_parked(&f, 1);
        f.deliver(1, env(0, 3, 1.0));
        let m = h.join().unwrap();
        assert_eq!(m.tag, 3);
    }

    #[test]
    fn wildcard_take_follows_virtual_order_not_delivery_order() {
        let f = Fabric::new(ClusterSpec::ideal(3));
        // The receiver is rank 1; make the other ranks permanently safe so
        // the gate passes immediately.
        f.finish_rank(0);
        f.finish_rank(2);
        // Physical delivery order: 0.9 (src 0), 0.5 (src 2), 0.1 (src 0).
        f.deliver(1, env(0, 7, 0.9));
        f.deliver(1, env(2, 7, 0.5));
        f.deliver(1, env(0, 7, 0.1));
        // Virtual order respects per-source FIFO: src 0's head is 0.9, so
        // 0.1 is not eligible until 0.9 has been taken.
        let a = take(&f, 1, &tagged(7));
        let b = take(&f, 1, &tagged(7));
        let c = take(&f, 1, &tagged(7));
        assert_eq!(
            (a.arrival, b.arrival, c.arrival),
            (0.5, 0.9, 0.1),
            "candidates must be per-source heads ordered by arrival"
        );
    }

    #[test]
    fn wildcard_take_ties_break_by_sender() {
        let f = Fabric::new(ClusterSpec::ideal(3));
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(2, 7, 0.5));
        f.deliver(1, env(0, 7, 0.5));
        let a = take(&f, 1, &tagged(7));
        assert_eq!(a.src_global, 0);
    }

    #[test]
    fn a_clock_move_past_the_gate_wakes_the_waiter_before_it_returns() {
        let f = Arc::new(Fabric::new(ClusterSpec::ideal(2)));
        f.deliver(1, env(0, 7, 1.0));
        let f1 = Arc::clone(&f);
        let waiter = std::thread::spawn(move || take(&f1, 1, &tagged(7)));
        await_parked(&f, 1);
        let sleeper = f.state.lock().handles[1].clone().expect("rank 1 parked");
        // No timer involved: the move's own call made the waiter ready
        // before it returned.
        crate::comm::Comm::world(Arc::clone(&f), 0).advance_to(2.0);
        assert!(!sleeper.is_parked(), "the crossing move woke the waiter");
        assert_eq!(waiter.join().unwrap().arrival, 1.0);
    }

    #[test]
    fn settled_peek_hides_future_messages() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.finish_rank(0);
        f.deliver(1, env(0, 7, 3.0));
        // At virtual time 1.0 the message has not arrived yet.
        assert!(f.settle_at(1, &tagged(7), 1.0, ChoiceKind::Peek).is_none());
        // At 3.0 it has.
        assert!(f.settle_at(1, &tagged(7), 3.0, ChoiceKind::Peek).is_some());
        assert_eq!(f.queued(1), 1);
    }

    #[test]
    fn settled_take_removes_only_arrived_messages() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.finish_rank(0);
        f.deliver(1, env(0, 7, 3.0));
        assert!(f.settle_at(1, &tagged(7), 2.9, ChoiceKind::Take).is_none());
        let m = f.settle_at(1, &tagged(7), 3.0, ChoiceKind::Take).unwrap();
        assert_eq!(m.arrival, 3.0);
        assert_eq!(f.queued(1), 0);
    }

    #[test]
    fn wide_mailbox_candidates_match_the_quadratic_reference() {
        // 2000 sources, three messages each in a scrambled order, one tag
        // in three not matching: the stamped per-source walk must yield
        // what the `Vec::contains` walk it replaces did.
        const SOURCES: usize = 2000;
        let f = Fabric::new(ClusterSpec::ideal(SOURCES + 1));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..3 * SOURCES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = 1 + (x % SOURCES as u64) as usize;
            let tag = if x >> 40 & 3 == 0 { 8 } else { 7 };
            f.deliver(0, env(src, tag, (x >> 11) as f64 / (1u64 << 53) as f64));
        }
        let want = tagged(7);
        let mut st = f.state.lock();
        let fast = st.candidate_set(0, &want);
        let mut seen: Vec<usize> = Vec::new();
        let mut slow: Vec<Candidate> = Vec::new();
        for (_, e) in st.mail.iter(0) {
            if seen.contains(&e.src_global) || !want.matches(e) {
                continue;
            }
            seen.push(e.src_global);
            slow.push(Candidate::of(e));
        }
        slow.sort_by(|a, b| {
            a.arrival
                .total_cmp(&b.arrival)
                .then(a.src_global.cmp(&b.src_global))
        });
        assert!(fast.len() > SOURCES / 2, "the mailbox is wide: {}", fast.len());
        assert_eq!(fast, slow);
        let first = st.select_virtual(0, &want).expect("candidates exist");
        assert_eq!(Candidate::of(st.mail.head(first)), fast[0]);
    }

    /// Scratch for the per-source "first match" walk: `seen[src]` holds
    /// the stamp of the last walk that met `src`, so starting a walk is
    /// one increment.
    struct SourceMarks {
        stamp: u64,
        seen: Vec<u64>,
    }

    /// Visit, in queue order, the first envelope of each source that
    /// `spec` accepts (MPI non-overtaking: only a source's first match is
    /// eligible). The whole-mailbox walk the stream index replaced, kept
    /// as the index's reference.
    fn for_each_head<'a>(
        queue: impl Iterator<Item = &'a Envelope>,
        spec: &MatchSpec,
        marks: &mut SourceMarks,
        mut visit: impl FnMut(&'a Envelope),
    ) {
        marks.stamp += 1;
        for e in queue {
            if marks.seen[e.src_global] == marks.stamp || !spec.matches(e) {
                continue;
            }
            marks.seen[e.src_global] = marks.stamp;
            visit(e);
        }
    }

    /// Ranks, contexts and tags of the index proptest: two user tags, the
    /// highest one, and two above it (a collective's and a reliability
    /// layer's kind).
    const RANKS: usize = 4;
    const CTXS: [u64; 3] = [0, 1, 0x5_0000_0002];
    const TAGS: [u32; 5] = [0, 3, TAG_USER_MAX, TAG_USER_MAX + 1, 0xF000_0005];

    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Deliver to `dst` from `src` on `(ctx, tag)`, arriving at
        /// `arrival` — twice when `dup`.
        Deliver {
            dst: usize,
            src: usize,
            ctx: u64,
            tag: u32,
            arrival: f64,
            dup: bool,
        },
        /// A receive (`take`) or probe at `dst`; `narrow` leaves the last
        /// rank out of the communicator's group.
        Match {
            dst: usize,
            src: Option<usize>,
            ctx: u64,
            tag: Option<u32>,
            narrow: bool,
            take: bool,
        },
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        (
            0..4u8,
            0..RANKS,
            0..=RANKS,
            0..CTXS.len(),
            0..=TAGS.len(),
            0..16u8,
        )
            .prop_map(|(kind, dst, src, ctx, tag, x)| match kind {
                0 | 1 => Step::Deliver {
                    dst,
                    src: src % RANKS,
                    ctx: CTXS[ctx],
                    tag: TAGS[tag % TAGS.len()],
                    // Few distinct values: ties across sources, and
                    // arrivals out of order along a stream.
                    arrival: f64::from(x % 8) / 4.0,
                    dup: kind == 1 && x >= 12,
                },
                _ => Step::Match {
                    dst,
                    src: (src < RANKS).then_some(src),
                    ctx: CTXS[ctx],
                    tag: TAGS.get(tag).copied(),
                    narrow: x & 1 == 1,
                    take: kind == 2,
                },
            })
    }

    /// Run `steps` on a bare fabric state and on a queue-order list per
    /// rank. At every receive or probe the index — the virtual-order
    /// pick, the candidate set and each member's first match — must give
    /// what the whole-mailbox walk over the list gives.
    fn check_index_against_walk(steps: &[Step]) {
        let mut st = FabricState::new(RANKS);
        let mut model: Vec<Vec<Envelope>> = vec![Vec::new(); RANKS];
        let mut marks = SourceMarks {
            stamp: 0,
            seen: vec![0; RANKS],
        };
        let mut fresh = 0.0;
        for &step in steps {
            match step {
                Step::Deliver {
                    dst,
                    src,
                    ctx,
                    tag,
                    arrival,
                    dup,
                } => {
                    fresh += 1.0;
                    let e = Envelope {
                        ctx,
                        sent: fresh, // the message's identity
                        ..env(src, tag, arrival)
                    };
                    for _ in 0..1 + usize::from(dup) {
                        st.mail.push_back(dst, e.clone());
                        model[dst].push(e.clone());
                    }
                }
                Step::Match {
                    dst,
                    src,
                    ctx,
                    tag,
                    narrow,
                    take,
                } => {
                    let spec = MatchSpec {
                        ctx,
                        src,
                        tag,
                        group: Group::world(if narrow { RANKS - 1 } else { RANKS }),
                    };
                    let mut heads: Vec<&Envelope> = Vec::new();
                    for_each_head(model[dst].iter(), &spec, &mut marks, |e| heads.push(e));
                    heads.sort_by(|a, b| Candidate::of(a).virtual_cmp(&Candidate::of(b)));
                    let want: Vec<Candidate> = heads.iter().map(|e| Candidate::of(e)).collect();
                    assert_eq!(st.candidate_set(dst, &spec), want, "{spec:?}");
                    for s in (0..RANKS).filter(|&s| src.is_none() && spec.group.local(s).is_some()) {
                        let first = st.first_from(dst, &spec, s).map(|h| st.mail.head(h).sent);
                        let head = heads.iter().find(|e| e.src_global == s).map(|e| e.sent);
                        assert_eq!(first, head, "{spec:?}, source {s}");
                    }
                    let picked = st.select_virtual(dst, &spec);
                    let want_id = heads.first().map(|e| e.sent);
                    assert_eq!(picked.map(|h| st.mail.head(h).sent), want_id, "{spec:?}");
                    if let Some(h) = picked {
                        let kind = if take { ChoiceKind::Take } else { ChoiceKind::Peek };
                        let got = st.claim(h, kind);
                        if take {
                            let at = model[dst].iter().position(|e| e.sent == got.sent);
                            model[dst].remove(at.expect("the taken message was queued"));
                        }
                    }
                }
            }
            for (r, want) in model.iter().enumerate() {
                let got: Vec<f64> = st.mail.iter(r).map(|(_, e)| e.sent).collect();
                let want: Vec<f64> = want.iter().map(|e| e.sent).collect();
                assert_eq!(got, want, "rank {r}'s mailbox");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn the_stream_index_matches_the_whole_mailbox_walk(
            steps in proptest::prelude::prop::collection::vec(step(), 0..300),
        ) {
            check_index_against_walk(&steps);
        }
    }

    #[test]
    fn a_later_smaller_message_never_overtakes_its_source() {
        // One source sends a 64 KiB message and then a 1-byte one on the
        // same tag, four times: the small one arrives first in virtual
        // time, but every kind of receive — and, under an oracle, every
        // grant — takes the large one first.
        for oracle in [false, true] {
            let spec = ClusterSpec::turing(2);
            let fabric = Arc::new(if oracle {
                Fabric::with_oracle(spec, Arc::new(LastOracle))
            } else {
                Fabric::new(spec)
            });
            let got = crate::harness::run_on_fabric(&fabric, &|comm: crate::comm::Comm| {
                if comm.rank() == 0 {
                    for _ in 0..4 {
                        comm.send(1, 7, &[0; 1 << 16]).unwrap();
                        comm.send(1, 7, &[1]).unwrap();
                    }
                    return Vec::new();
                }
                let shapes = [
                    (None, Some(7)),
                    (Some(0), Some(7)),
                    (None, None),
                    (Some(0), None),
                ];
                let mut out = Vec::new();
                for (src, tag) in shapes {
                    let big = comm.recv(src, tag).unwrap();
                    let small = comm.recv(src, tag).unwrap();
                    out.push((big.payload.len(), small.payload.len()));
                    assert!(
                        small.arrival < big.arrival,
                        "the small message arrives first ({} < {})",
                        small.arrival,
                        big.arrival
                    );
                }
                out
            });
            assert_eq!(got[1], vec![(1 << 16, 1); 4], "oracle: {oracle}");
        }
    }

    #[test]
    fn a_released_stash_and_a_duplicate_keep_queue_order() {
        // Link 0 → 1: A is stashed in limbo; B is duplicated and releases
        // A behind both copies, re-stamped to B's arrival. Every kind of
        // receive, and an oracle's grant, takes B, B, A.
        let a = Envelope {
            sent: 1.0,
            ..env(0, 7, 0.5)
        };
        let b = Envelope {
            sent: 2.0,
            ..env(0, 7, 1.0)
        };
        let shapes = [tagged(7), spec(Some(0), Some(7)), spec(None, None), spec(Some(0), None)];
        for oracle in [false, true] {
            for shape in &shapes {
                let f = if oracle {
                    Fabric::with_oracle(ClusterSpec::ideal(2), Arc::new(LastOracle))
                } else {
                    Fabric::new(ClusterSpec::ideal(2))
                };
                f.set_fault_injector(Arc::new(Script(vec![
                    ((0, 1, 0), FaultAction::Reorder),
                    ((0, 1, 1), FaultAction::Duplicate),
                ])));
                f.finish_rank(0);
                f.deliver(1, a.clone());
                f.deliver(1, b.clone());
                let got: Vec<(f64, SimTime)> = (0..3)
                    .map(|_| take(&f, 1, shape))
                    .map(|e| (e.sent, e.arrival))
                    .collect();
                assert_eq!(
                    got,
                    vec![(2.0, 1.0), (2.0, 1.0), (1.0, 1.0)],
                    "oracle {oracle}, {shape:?}"
                );
            }
        }
    }

    /// Wakes decided under `g` so far (none of these tests spills).
    fn pending_wakes(g: &Locked) -> usize {
        g.wakes.inline.iter().flatten().count()
    }

    fn published_bound(f: &Fabric, rank: usize) -> SimTime {
        match f.state.lock().waits[rank] {
            RankWait::Blocked { bound } => bound,
            RankWait::Running => panic!("rank {rank} is not blocked"),
        }
    }

    #[test]
    fn only_a_usable_delivery_touches_a_parked_commitment() {
        // Rank 0 parks in a receive from rank 2 alone; rank 1 is this
        // thread; rank 2 has finished (its messages are hand-delivered).
        let f = Arc::new(Fabric::new(ClusterSpec::ideal(3)));
        f.finish_rank(2);
        let f0 = Arc::clone(&f);
        let parked = std::thread::spawn(move || take(&f0, 0, &spec(Some(2), Some(5))));
        await_parked(&f, 0);
        let sleeper = f.state.lock().handles[0].clone().expect("rank 0 parked");

        // A message from another source, arriving at 1.0, cannot end
        // rank 0's call: its ∞ commitment stands and it sleeps on.
        f.deliver(0, env(1, 5, 1.0));
        assert_eq!(published_bound(&f, 0), SimTime::INFINITY);
        assert!(sleeper.is_parked(), "a useless delivery must not wake");
        // So a wildcard candidate at 2.0 on rank 1 commits at once — with
        // rank 0's bound lowered to 1.0 it would wait for rank 0 to wake,
        // look again and re-publish ∞.
        f.deliver(1, env(2, 7, 2.0));
        assert_eq!(take(&f, 1, &tagged(7)).arrival, 2.0);
        assert!(sleeper.is_parked());

        // The twin: a message the call accepts lowers the bound and
        // wakes the rank — decided under the lock, issued after it.
        {
            let mut g = Locked::new(f.state.lock());
            f.enqueue(&mut g, 0, env(2, 5, 3.0));
            assert!(matches!(g.waits[0], RankWait::Blocked { bound } if bound == 3.0));
            assert_eq!(pending_wakes(&g), 1);
        }
        assert_eq!(parked.join().unwrap().arrival, 3.0);
        assert_eq!(f.queued(0), 1, "the other source's message is still queued");
    }

    #[test]
    fn gate_parked_wildcard_wakes_only_for_an_arrival_up_to_its_candidate() {
        let f = Arc::new(Fabric::new(ClusterSpec::ideal(4)));
        f.finish_rank(2);
        f.finish_rank(3);
        f.deliver(1, env(2, 7, 2.0));
        // Rank 0 runs with clock 0: rank 1's candidate at 2.0 is gated.
        let f1 = Arc::clone(&f);
        let waiter = std::thread::spawn(move || take(&f1, 1, &tagged(7)));
        await_parked(&f, 1);
        let sleeper = f.state.lock().handles[1].clone().expect("rank 1 parked");
        {
            let mut g = Locked::new(f.state.lock());
            // Later than the candidate: what will be committed stands.
            f.enqueue(&mut g, 1, env(0, 7, 2.5));
            assert_eq!(pending_wakes(&g), 0);
            // Earlier: a new candidate, a lower commitment, a wake.
            f.enqueue(&mut g, 1, env(3, 7, 1.5));
            assert!(matches!(g.waits[1], RankWait::Blocked { bound } if bound == 1.5));
            assert_eq!(pending_wakes(&g), 1);
            assert!(!sleeper.is_parked());
        }
        f.finish_rank(0);
        assert_eq!(waiter.join().unwrap().arrival, 1.5);
    }

    /// Oracle that always picks the *last* candidate — the opposite of
    /// the conservative gate's `(arrival, sender)` order.
    struct LastOracle;
    impl ScheduleOracle for LastOracle {
        fn choose(&self, point: &ChoicePoint) -> usize {
            point.candidates.len() - 1
        }
    }

    /// Oracle that records every choice point and picks index 0.
    struct LoggingOracle(parking_lot::Mutex<Vec<ChoicePoint>>);
    impl ScheduleOracle for LoggingOracle {
        fn choose(&self, point: &ChoicePoint) -> usize {
            self.0.lock().push(point.clone());
            0
        }
    }

    #[test]
    fn oracle_overrides_virtual_order() {
        let f = Fabric::new(ClusterSpec::ideal(3));
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(0, 7, 0.1));
        f.deliver(1, env(2, 7, 0.5));
        let gate_first = take(&f, 1, &tagged(7));
        assert_eq!(gate_first.src_global, 0, "gate picks the earliest arrival");

        let f = Fabric::with_oracle(ClusterSpec::ideal(3), Arc::new(LastOracle));
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(0, 7, 0.1));
        f.deliver(1, env(2, 7, 0.5));
        let a = take(&f, 1, &tagged(7));
        let b = take(&f, 1, &tagged(7));
        assert_eq!(
            (a.src_global, b.src_global),
            (2, 0),
            "the oracle may resolve a wildcard against virtual order"
        );
    }

    #[test]
    fn oracle_sees_sorted_candidates_and_seq() {
        let oracle = Arc::new(LoggingOracle(parking_lot::Mutex::new(Vec::new())));
        let f = Fabric::with_oracle(ClusterSpec::ideal(3), Arc::clone(&oracle) as _);
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(2, 7, 0.5));
        f.deliver(1, env(0, 7, 0.9));
        f.deliver(1, env(0, 7, 0.1)); // not a head: src 0's head is 0.9
        let first = take(&f, 1, &tagged(7));
        assert_eq!(first.arrival, 0.5);
        let log = oracle.0.lock().clone();
        assert_eq!(log.len(), 1);
        let p = &log[0];
        assert_eq!((p.seq, p.dst, p.kind), (0, 1, ChoiceKind::Take));
        let order: Vec<(usize, SimTime)> =
            p.candidates.iter().map(|c| (c.src_global, c.arrival)).collect();
        assert_eq!(order, vec![(2, 0.5), (0, 0.9)]);
    }

    #[test]
    fn oracle_peek_reports_without_removing() {
        let f = Fabric::with_oracle(ClusterSpec::ideal(2), Arc::new(LastOracle));
        f.finish_rank(0);
        f.deliver(1, env(0, 9, 0.5));
        let head = f.wait_match(1, &tagged(9), ChoiceKind::Peek);
        assert_eq!(Candidate::of(&head), Candidate::of(&env(0, 9, 0.5)));
        assert_eq!(f.queued(1), 1);
    }

    #[test]
    fn oracle_waits_for_stability_before_granting() {
        // Rank 0 is still running: no decision may be granted until it
        // parks, even though rank 1 already has a candidate.
        let f = Arc::new(Fabric::with_oracle(
            ClusterSpec::ideal(2),
            Arc::new(LastOracle),
        ));
        f.deliver(1, env(0, 7, 1.0));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || take(&f2, 1, &tagged(7)));
        await_parked(&f, 1);
        assert!(!h.is_finished(), "grant must wait for rank 0 to park");
        f.finish_rank(0);
        let m = h.join().unwrap();
        assert_eq!(m.arrival, 1.0);
    }

    /// Scripted injector: explicit actions per `(src, dst, seq)`,
    /// everything else delivered.
    struct Script(Vec<((usize, usize, u64), FaultAction)>);
    impl FaultInjector for Script {
        fn decide(&self, src: usize, dst: usize, seq: u64, _tag: u32) -> FaultAction {
            self.0
                .iter()
                .find(|(k, _)| *k == (src, dst, seq))
                .map(|(_, a)| *a)
                .unwrap_or(FaultAction::Deliver)
        }
    }

    #[test]
    fn injector_drops_and_counts() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.set_fault_injector(Arc::new(Script(vec![((0, 1, 0), FaultAction::Drop)])));
        f.deliver(1, env(0, 5, 0.1));
        assert_eq!(f.queued(1), 0, "seq 0 is scripted to drop");
        f.deliver(1, env(0, 5, 0.2));
        assert_eq!(f.queued(1), 1, "seq 1 is clean");
        assert_eq!(f.fault_stats().dropped, 1);
    }

    #[test]
    fn injector_duplicates_back_to_back() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.set_fault_injector(Arc::new(Script(vec![(
            (0, 1, 0),
            FaultAction::Duplicate,
        )])));
        f.deliver(1, env(0, 5, 0.1));
        assert_eq!(f.queued(1), 2);
        assert_eq!(f.fault_stats().duplicated, 1);
    }

    #[test]
    fn reorder_holds_until_next_send_on_the_link() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.set_fault_injector(Arc::new(Script(vec![((0, 1, 0), FaultAction::Reorder)])));
        f.deliver(1, env(0, 1, 0.1));
        assert_eq!(f.queued(1), 0, "reordered message sits in limbo");
        f.deliver(1, env(0, 2, 0.2));
        assert_eq!(f.queued(1), 2, "the next send releases the stash behind itself");
        let a = take(&f, 1, &spec(Some(0), None));
        let b = take(&f, 1, &spec(Some(0), None));
        assert_eq!((a.tag, b.tag), (2, 1), "queue order reflects the overtake");
        assert_eq!(b.arrival, 0.2, "the released stash is re-stamped to the releaser");
        assert_eq!(f.fault_stats().reordered, 1);
    }

    #[test]
    fn released_stash_cannot_undercut_the_virtual_order() {
        let f = Arc::new(Fabric::new(ClusterSpec::ideal(3)));
        f.set_fault_injector(Arc::new(Script(vec![((0, 1, 0), FaultAction::Reorder)])));
        f.deliver(1, env(0, 7, 0.1)); // stashed in limbo
        f.deliver(1, env(2, 7, 0.5)); // visible candidate
        f.finish_rank(2);
        f.finish_rank(0);
        // The stash never blocks the gate: the 0.5 candidate commits even
        // though an envelope stamped 0.1 is still in limbo, because any
        // release re-stamps it to the releasing send's (later) arrival.
        let first = take(&f, 1, &tagged(7));
        assert_eq!(first.arrival, 0.5, "stash is invisible to the commit");
        f.deliver(1, env(0, 7, 0.9)); // releases the stash, re-stamped
        let second = take(&f, 1, &tagged(7));
        let third = take(&f, 1, &tagged(7));
        assert_eq!(
            (second.arrival, second.tag, third.arrival, third.tag),
            (0.9, 7, 0.9, 7),
            "the overtaken envelope arrives with the releaser's stamp"
        );
    }

    #[test]
    fn trailing_delivery_to_a_finished_rank_cannot_wedge_the_gate() {
        let f = Arc::new(Fabric::new(ClusterSpec::ideal(2)));
        f.finish_rank(1);
        // Trailing traffic to the finished rank (an ack racing the peer's
        // exit, under the reliability layer) must not lower its published
        // ∞ bound: the rank never wakes to re-raise it, and a lowered
        // bound would wedge every other rank's safety scan forever.
        f.deliver(1, env(0, 5, 0.2));
        let got = f.settle_at(0, &spec(None, None), 10.0, ChoiceKind::Take);
        assert!(got.is_none(), "rank 0's deadline scan must still settle");
    }

    #[test]
    fn collective_and_split_traffic_is_fault_exempt() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        // Drop everything eligible, ever.
        struct DropAll;
        impl FaultInjector for DropAll {
            fn decide(&self, _: usize, _: usize, _: u64, _: u32) -> FaultAction {
                FaultAction::Drop
            }
        }
        f.set_fault_injector(Arc::new(DropAll));
        let coll = Envelope {
            tag: 0xF000_0005,
            ..env(0, 0, 0.1)
        };
        f.deliver(1, coll);
        let split = Envelope {
            ctx: 42,
            ..env(0, 5, 0.2)
        };
        f.deliver(1, split);
        let slf = env(1, 5, 0.3);
        f.deliver(1, slf);
        assert_eq!(f.queued(1), 3, "reserved tags, split contexts and self-sends pass");
        f.deliver(1, env(0, 5, 0.4));
        assert_eq!(f.queued(1), 3, "plain user traffic is dropped");
        assert_eq!(f.fault_stats().total(), 1);
    }

    #[test]
    fn oracle_poisons_deadlocked_job() {
        let f = Arc::new(Fabric::with_oracle(
            ClusterSpec::ideal(2),
            Arc::new(LastOracle),
        ));
        let spawn_waiter = |rank: usize, tag: u32| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    take(&f, rank, &spec(Some(1 - rank), Some(tag)))
                }))
            })
        };
        // Both ranks wait for messages nobody will ever send.
        let a = spawn_waiter(0, 1);
        let b = spawn_waiter(1, 2);
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        for r in [ra, rb] {
            let err = r.expect_err("deadlocked rank must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("rocsched: deadlock"),
                "poison message should name the deadlock, got: {msg}"
            );
        }
    }
}
