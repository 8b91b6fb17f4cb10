//! M:N-by-admission rank scheduler: thousands of logical ranks on a
//! bounded pool of runnable workers.
//!
//! One OS thread per rank caps the simulator near the paper's 208-node
//! Turing scale: stacks, spawn cost and kernel-scheduler thrash all grow
//! with the rank count. This module keeps ranks as threads — a fully
//! stackless conversion is impractical under `forbid(unsafe_code)` — but
//! makes them *cheap*:
//!
//! * **Small stacks.** Rank threads are spawned with
//!   `thread::Builder::stack_size` (`SchedConfig::stack_bytes`), so 10k
//!   ranks reserve megabytes, not gigabytes, of stack address space.
//! * **Bounded admission by slot hand-off.** At most
//!   [`SchedConfig::workers`] ranks are *runnable* at any instant. Every
//!   rank thread owns one `WakeHandle` and holds an admission slot while
//!   executing user code. A rank that blocks in the fabric hands its
//!   slot straight to the head of the FIFO ready queue
//!   (`WakeHandle::park`) and sleeps in `thread::park`; whoever makes
//!   its wait condition true calls `WakeHandle::make_ready`, which
//!   grants a free slot or queues the rank. A woken rank resumes
//!   *already holding* a slot: one sleep and one wake per blocked
//!   receive, and the kernel only ever timeslices a handful of threads.
//! * **Wakes after unlock.** Grants are decided under the scheduler lock
//!   (and, for fabric wakes, the fabric lock above it) but only *return*
//!   the `Thread` to unpark; the caller unparks it once its guards are
//!   gone, so a woken rank never collides with its waker (`roclock`'s
//!   `lock-wake` rule).
//! * **A start line.** Ranks stage on the scheduler after spawning and
//!   the last arrival admits the whole job through the ready queue in
//!   rank order, so user code begins everywhere at once instead of
//!   racing the spawn ramp.
//!
//! Scheduling changes *which* thread runs when, never what any rank
//! observes: wildcard matching stays behind the virtual-order gate (or
//! the `ScheduleOracle`), so pooled and threaded runs are bit-identical
//! (`tests/scale_sched.rs` pins this). A rank queued for a slot keeps
//! the wait state it parked with, which only ever under-reports, so the
//! gate never commits early because of admission.
//!
//! Threads that are *not* rank threads (unit tests driving a bare
//! `Fabric`, background helpers) get a handle on first use, on a private
//! unbounded scheduler: same code, no claim on a job's slots — which is
//! why a rank blocked on such a helper cannot wedge the pool.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use rocio_core::lockdep::Mutex;

use crate::cluster::ClusterSpec;
use crate::comm::Comm;
use crate::fabric::{is_poison, Fabric};

/// How rank threads are scheduled by [`run_on_fabric_sched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Maximum number of ranks runnable at once. `0` means unbounded
    /// slots: every rank a free-running OS thread (the shape the identity
    /// tests use as their reference), through the same code.
    pub workers: usize,
    /// Stack bytes per rank thread; `0` uses the platform default.
    pub stack_bytes: usize,
}

impl SchedConfig {
    /// Default stack reservation per rank thread. Rank bodies keep bulk
    /// data (meshes, buffers) on the heap; half a MiB covers the deepest
    /// call chains in the workspace with a wide margin while letting 10k
    /// ranks fit in ~5 GiB of *address space* (resident use is far
    /// lower — only touched pages count).
    pub(crate) const DEFAULT_STACK: usize = 512 * 1024;

    /// The pooled default: admission bounded near the host's parallelism
    /// (never below 2, so a rank busy outside the fabric cannot starve
    /// the whole job on a single-CPU host), small stacks.
    pub fn pooled() -> Self {
        static WORKERS: OnceLock<usize> = OnceLock::new();
        let workers = *WORKERS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .max(2)
        });
        SchedConfig {
            workers,
            stack_bytes: Self::DEFAULT_STACK,
        }
    }

    /// A pooled config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        SchedConfig {
            workers,
            stack_bytes: Self::DEFAULT_STACK,
        }
    }

    /// One free-running OS thread per rank, default stacks, no admission:
    /// the reference the pooled-vs-threaded identity tests compare against.
    pub fn threaded() -> Self {
        SchedConfig {
            workers: 0,
            stack_bytes: 0,
        }
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self::pooled()
    }
}

struct SchedState {
    /// Admission slots currently held by runnable ranks (`≤ workers`).
    held: usize,
    /// Ranks made ready while every slot was held, oldest first.
    ready: VecDeque<Arc<WakeHandle>>,
    /// The start line: each rank's handle, in rank order, until the
    /// last arrival admits them all.
    staged: Vec<Option<Arc<WakeHandle>>>,
    /// Ranks staged so far.
    arrived: usize,
}

/// The admission pool: `workers` slots and a FIFO queue of ranks ready
/// to run but waiting for one.
///
/// Level 48 in `roclock.order`, nested *under* `rocnet.fabric_state`:
/// the fabric calls `WakeHandle::park` and `WakeHandle::make_ready`
/// with its state lock held, so a rank's wait state and its place in
/// the queue change together.
pub(crate) struct Scheduler {
    /// Slot count; `usize::MAX` when unbounded.
    workers: usize,
    slots: Mutex<SchedState>,
}

impl Scheduler {
    /// A pool of `workers` slots (`0` = unbounded) whose start line
    /// waits for `ranks` arrivals. The ready queue never holds more than
    /// every rank, so it is sized for that once: the start line queues
    /// all but `workers` of them.
    pub(crate) fn new(workers: usize, ranks: usize) -> Arc<Self> {
        Arc::new(Scheduler {
            workers: if workers == 0 { usize::MAX } else { workers },
            slots: Mutex::new(
                "rocnet.sched_state",
                SchedState {
                    held: 0,
                    ready: VecDeque::with_capacity(ranks),
                    staged: vec![None; ranks],
                    arrived: 0,
                },
            ),
        })
    }

    /// Give `h` a slot if one is free, else queue it behind the ranks
    /// already waiting. Returns the thread to unpark, guards dropped.
    fn admit(&self, s: &mut SchedState, h: &Arc<WakeHandle>) -> Option<Thread> {
        if s.held < self.workers {
            s.held += 1;
            h.state.store(RUNNING, Ordering::Release);
            Some(h.thread.clone())
        } else {
            h.state.store(READY, Ordering::Release);
            s.ready.push_back(Arc::clone(h));
            None
        }
    }

    /// Pass a slot its holder no longer needs to the queue head, or back
    /// to the pool. Returns the thread to unpark.
    fn pass_slot(s: &mut SchedState) -> Option<Thread> {
        match s.ready.pop_front() {
            Some(next) => {
                next.state.store(RUNNING, Ordering::Release);
                Some(next.thread.clone())
            }
            None => {
                s.held -= 1;
                None
            }
        }
    }
}

/// `WakeHandle::state`: holds a slot and runs (or is about to: the
/// grant and the unpark are separate steps).
const RUNNING: u8 = 0;
/// Gave its slot away and sleeps until someone makes it ready.
const PARKED: u8 = 1;
/// Made ready, queued for a slot.
const READY: u8 = 2;

/// A thread's one park/wake mechanism: its `Thread` and where it stands
/// with its scheduler.
///
/// `state` is written only under the scheduler lock; the owner reads it
/// lock-free to learn it was granted a slot. `Release`/`Acquire` pair
/// the grant with that read; the data a woken rank goes on to read is
/// published by the fabric lock, not by this flag.
pub(crate) struct WakeHandle {
    state: AtomicU8,
    thread: Thread,
    sched: Arc<Scheduler>,
}

thread_local! {
    static HANDLE: RefCell<Option<Arc<WakeHandle>>> = const { RefCell::new(None) };
}

impl WakeHandle {
    fn new(sched: Arc<Scheduler>, state: u8) -> Arc<Self> {
        Arc::new(WakeHandle {
            state: AtomicU8::new(state),
            thread: std::thread::current(),
            sched,
        })
    }

    /// The calling thread's handle. Rank threads registered theirs at
    /// job start; any other thread gets one on first use, running on an
    /// unbounded scheduler of its own.
    pub(crate) fn current() -> Arc<WakeHandle> {
        HANDLE.with(|slot| {
            Arc::clone(slot.borrow_mut().get_or_insert_with(|| {
                let h = WakeHandle::new(Scheduler::new(0, 0), PARKED);
                let _ = h.make_ready(); // admits itself: its scheduler is empty
                h
            }))
        })
    }

    /// Owner side, step 1 (the fabric calls it under its state lock,
    /// right after publishing the wait): give the slot to the queue head
    /// and become wakeable. Returns the new slot owner's thread, to
    /// unpark once the caller's guards are dropped; `sleep` comes next.
    pub(crate) fn park(&self) -> Option<Thread> {
        let mut s = self.sched.slots.lock();
        self.state.store(PARKED, Ordering::Release);
        Scheduler::pass_slot(&mut s)
    }

    /// Whether no rank of this thread's job holds a slot or waits for one.
    /// A private scheduler stages no rank, so it never is.
    pub(crate) fn job_idle(&self) -> bool {
        let s = self.sched.slots.lock();
        s.held == 0 && s.arrived > 0
    }

    /// Owner side, step 2, with no lock held: sleep until a waker grants
    /// a slot.
    pub(crate) fn sleep(&self) {
        while self.state.load(Ordering::Acquire) != RUNNING {
            std::thread::park();
        }
    }

    /// Whether the owner gave its slot away and nobody made it ready yet.
    #[cfg(test)]
    pub(crate) fn is_parked(&self) -> bool {
        self.state.load(Ordering::Acquire) == PARKED
    }

    /// Waker side: if the owner is parked, grant it a free slot or queue
    /// it; a running or already queued one is left alone. Returns the
    /// thread to unpark once the caller's guards are dropped.
    pub(crate) fn make_ready(self: &Arc<Self>) -> Option<Thread> {
        // Only the owner parks a handle, and for a fabric park it does
        // so under the fabric lock its wakers also hold: a handle seen
        // not parked here stays so until this waker is done.
        if self.state.load(Ordering::Acquire) != PARKED {
            return None;
        }
        let mut s = self.sched.slots.lock();
        if self.state.load(Ordering::Acquire) != PARKED {
            return None;
        }
        self.sched.admit(&mut s, self)
    }
}

/// RAII registration of a rank thread with its job's scheduler: stages
/// on the start line at construction, holds a slot from the job's start
/// until drop (including unwinds), minus the intervals it was parked.
struct RankSlot(Arc<WakeHandle>);

impl RankSlot {
    /// Stage `rank` on `sched`'s start line; returns once the job starts
    /// and this rank holds a slot. The last arrival admits every rank in
    /// rank order: up to `workers` start at once, the rest queue FIFO.
    fn enter(sched: Arc<Scheduler>, rank: usize) -> RankSlot {
        let h = WakeHandle::new(Arc::clone(&sched), PARKED);
        HANDLE.with(|slot| *slot.borrow_mut() = Some(Arc::clone(&h)));
        let admitted: Vec<Thread> = {
            let mut s = sched.slots.lock();
            s.staged[rank] = Some(Arc::clone(&h));
            s.arrived += 1;
            if s.arrived == s.staged.len() {
                let staged = std::mem::take(&mut s.staged);
                staged
                    .iter()
                    .flatten()
                    .filter_map(|h| sched.admit(&mut s, h))
                    .collect()
            } else {
                Vec::new()
            }
        };
        for t in admitted {
            t.unpark();
        }
        h.sleep();
        RankSlot(h)
    }
}

impl Drop for RankSlot {
    fn drop(&mut self) {
        let next = Scheduler::pass_slot(&mut self.0.sched.slots.lock());
        if let Some(t) = next {
            t.unpark();
        }
    }
}

/// Run `f` on every rank of `fabric` under `cfg`'s scheduling: pooled
/// admission when `cfg.workers > 0`, free-running threads when 0.
/// Results come back in rank order. A panic in any rank is re-raised with
/// its original payload, once every rank has ended: the first that is not
/// the fabric's deadlock poison, so a rank's own failure is not hidden by
/// the poison it left its peers waiting in.
#[expect(
    clippy::disallowed_methods,
    reason = "thread lane: the rank scheduler runs one OS thread per rank"
)]
pub fn run_on_fabric_sched<T, F>(fabric: &Arc<Fabric>, cfg: &SchedConfig, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    let n = fabric.n_ranks();
    fabric.begin_job();
    let sched = Scheduler::new(cfg.workers, n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let comm = Comm::world(Arc::clone(fabric), rank);
            let fab = Arc::clone(fabric);
            let sched = Arc::clone(&sched);
            let mut builder = std::thread::Builder::new().name(format!("rank{rank}"));
            if cfg.stack_bytes > 0 {
                builder = builder.stack_size(cfg.stack_bytes);
            }
            #[expect(
                clippy::expect_used,
                reason = "OS thread spawn failure at job launch is unrecoverable"
            )]
            let h = builder
                .spawn_scoped(scope, move || {
                    // On return *or unwind* the rank must stop gating
                    // others: wildcard receivers wait on every running
                    // rank's clock, and a vanished thread's clock never
                    // advances again.
                    struct Finished(Arc<Fabric>, usize);
                    impl Drop for Finished {
                        fn drop(&mut self) {
                            self.0.finish_rank(self.1);
                        }
                    }
                    let _done = Finished(fab, rank);
                    // Declared after `_done` so it drops first: the slot
                    // returns to the pool before the rank is marked
                    // finished, even on unwind.
                    let _slot = RankSlot::enter(sched, rank);
                    f(comm)
                })
                .expect("spawn rank thread");
            handles.push(h);
        }
        let mut out = Vec::with_capacity(n);
        let mut failed = Vec::new();
        for h in handles {
            match h.join() {
                Ok(v) => out.push(v),
                Err(payload) => failed.push(payload),
            }
        }
        if !failed.is_empty() {
            let first = failed.iter().position(|p| !is_poison(&**p)).unwrap_or(0);
            std::panic::resume_unwind(failed.swap_remove(first));
        }
        out
    })
}

/// [`run_on_fabric_sched`] on a fresh fabric built from `spec`.
pub fn run_ranks_sched<T, F>(n: usize, spec: ClusterSpec, cfg: &SchedConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    assert_eq!(
        spec.n_ranks(),
        n,
        "cluster spec places {} ranks, run_ranks asked for {n}",
        spec.n_ranks()
    );
    let fabric = Arc::new(Fabric::new(spec));
    run_on_fabric_sched(&fabric, cfg, &f)
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the scheduler is tested from threads of its own"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of an arbitrary interleaving, on handle `.0`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// The owner blocks: `WakeHandle::park`.
        Park(usize),
        /// A waker makes the handle ready.
        Wake(usize),
        /// The owner's thread ends and passes its slot on.
        Finish(usize),
    }

    fn op(handles: usize) -> impl Strategy<Value = Op> {
        (0..3u8, 0..handles).prop_map(|(kind, h)| match kind {
            0 => Op::Park(h),
            1 => Op::Wake(h),
            _ => Op::Finish(h),
        })
    }

    /// The specification the scheduler is held to, one plain state per
    /// handle and one plain queue.
    struct Model {
        workers: usize,
        held: usize,
        state: Vec<u8>,
        done: Vec<bool>,
        ready: VecDeque<usize>,
    }

    impl Model {
        fn wake(&mut self, h: usize) {
            if self.state[h] != PARKED {
                return;
            }
            if self.held < self.workers {
                self.held += 1;
                self.state[h] = RUNNING;
            } else {
                self.state[h] = READY;
                self.ready.push_back(h);
            }
        }

        /// The slot of a rank that parks or finishes goes to the oldest
        /// ready rank, else back to the pool.
        fn pass_slot(&mut self) {
            match self.ready.pop_front() {
                Some(next) => self.state[next] = RUNNING,
                None => self.held -= 1,
            }
        }
    }

    /// Drive `ops` through a real scheduler and the model in lockstep
    /// (one thread: nothing here sleeps) and compare after every step.
    fn check_against_model(workers: usize, handles: usize, ops: &[Op]) {
        let sched = Scheduler::new(workers, 0);
        let hs: Vec<Arc<WakeHandle>> = (0..handles)
            .map(|_| WakeHandle::new(Arc::clone(&sched), PARKED))
            .collect();
        let mut m = Model {
            workers,
            held: 0,
            state: vec![PARKED; handles],
            done: vec![false; handles],
            ready: VecDeque::new(),
        };
        // The start line's admission in rank order, then `ops`, then
        // enough wake-all / finish-all rounds to end every handle.
        let start = (0..handles).map(Op::Wake);
        let drain = (0..handles).flat_map(|_| {
            (0..handles).map(Op::Wake).chain((0..handles).map(Op::Finish))
        });
        for op in start.chain(ops.iter().copied()).chain(drain) {
            match op {
                Op::Park(h) if m.state[h] == RUNNING && !m.done[h] => {
                    let _ = hs[h].park();
                    m.state[h] = PARKED;
                    m.pass_slot();
                }
                Op::Finish(h) if m.state[h] == RUNNING && !m.done[h] => {
                    let _ = Scheduler::pass_slot(&mut sched.slots.lock());
                    m.done[h] = true;
                    m.pass_slot();
                }
                Op::Wake(h) if !m.done[h] => {
                    let granted = hs[h].make_ready().is_some();
                    let was = m.state[h];
                    m.wake(h);
                    // Granted at most once per park: only a parked handle
                    // can be, and only into a free slot.
                    assert_eq!(granted, was == PARKED && m.state[h] == RUNNING);
                }
                _ => continue, // not a step this handle's owner can take now
            }
            let s = sched.slots.lock();
            assert_eq!(s.held, m.held);
            assert!(s.held <= workers, "admission must bound runnable ranks");
            assert!(
                s.ready.is_empty() || s.held == workers,
                "a rank waits for a slot while one is free"
            );
            for (h, want) in hs.iter().zip(&m.state) {
                assert_eq!(h.state.load(Ordering::Acquire), *want);
            }
            // FIFO: the queue is the ready handles, oldest first, once each.
            assert_eq!(s.ready.len(), m.ready.len());
            for (got, want) in s.ready.iter().zip(&m.ready) {
                assert!(Arc::ptr_eq(got, &hs[*want]));
            }
        }
        // Quiescence: every handle ended, so every slot is back.
        assert!(m.done.iter().all(|&d| d));
        let s = sched.slots.lock();
        assert_eq!((s.held, s.ready.len()), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ready_queue_matches_model_under_arbitrary_interleavings(
            workers in 1usize..4,
            ops in prop::collection::vec(op(6), 0..120),
        ) {
            check_against_model(workers, 6, &ops);
        }
    }

    #[test]
    fn two_racing_wakers_queue_the_rank_once() {
        // One slot, held by handle 0; handle 1 parked. Two wakers arrive,
        // in either order around the slot holder's exit: the second one
        // must find the rank already queued or running.
        for ops in [
            [Op::Wake(1), Op::Wake(1), Op::Finish(0)],
            [Op::Wake(1), Op::Finish(0), Op::Wake(1)],
        ] {
            check_against_model(1, 2, &ops);
        }
    }

    #[test]
    fn slots_bound_concurrent_admission() {
        use std::sync::atomic::AtomicUsize;
        const RANKS: usize = 16;
        let sched = Scheduler::new(3, RANKS);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for rank in 0..RANKS {
                let sched = Arc::clone(&sched);
                let (live, peak) = (&live, &peak);
                s.spawn(move || {
                    let slot = RankSlot::enter(sched, rank);
                    for _ in 0..50 {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        live.fetch_sub(1, Ordering::SeqCst);
                        // Block, then re-queue on the rank's own behalf:
                        // granted to ourselves or queued, no one to unpark.
                        if let Some(next) = slot.0.park() {
                            next.unpark();
                        }
                        let _ = slot.0.make_ready();
                        slot.0.sleep();
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "admission must bound runnable ranks");
        let s = sched.slots.lock();
        assert_eq!((s.held, s.ready.len()), (0, 0), "every slot returns at quiescence");
    }

    #[test]
    fn threads_outside_a_job_park_and_wake_through_the_same_handle() {
        let h = WakeHandle::current();
        assert!(Arc::ptr_eq(&h, &WakeHandle::current()), "one handle per thread");
        assert!(h.make_ready().is_none(), "a running thread is left alone");
        assert!(h.park().is_none(), "nobody queues on a private scheduler");
        assert!(!h.job_idle(), "a private scheduler is never idle");
        let waker = Arc::clone(&h);
        let t = std::thread::spawn(move || waker.make_ready().map(|t| t.unpark()));
        h.sleep();
        t.join().unwrap();
        assert_eq!(h.sched.slots.lock().held, 1);
    }

    /// Every shape a job runs under: pooled, one slot, free-running.
    fn configs() -> [SchedConfig; 3] {
        [
            SchedConfig::pooled(),
            SchedConfig::with_workers(1),
            SchedConfig::threaded(),
        ]
    }

    /// The message a job of `n` ranks running `f` under `cfg` panics with.
    fn poison_of(n: usize, cfg: &SchedConfig, f: impl Fn(Comm) + Send + Sync) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ranks_sched(n, ClusterSpec::ideal(n), cfg, f)
        }))
        .expect_err("a job nobody can finish must end, not hang");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn a_ring_of_specific_receives_ends_naming_every_rank() {
        for cfg in configs() {
            let msg = poison_of(3, &cfg, |comm| {
                let _ = comm.recv(Some((comm.rank() + 2) % 3), Some(1));
            });
            assert!(msg.starts_with("rocsched: deadlock"), "{cfg:?}: {msg}");
            for r in 0..3 {
                let wait = format!("rank {r} (receive/probe from rank {}", (r + 2) % 3);
                assert!(msg.contains(&wait), "{cfg:?}: {msg}");
            }
        }
    }

    #[test]
    fn wildcard_receives_whose_only_sender_returned_end_the_job() {
        for cfg in configs() {
            let msg = poison_of(3, &cfg, |comm| {
                if comm.rank() == 0 {
                    // Gate-parks until ranks 1 and 2 both block: the job
                    // can only be seen stuck as this rank finishes.
                    comm.advance(1.0);
                    assert!(comm.iprobe(None, None).is_none());
                } else {
                    let _ = comm.recv(None, Some(1));
                }
            });
            for r in 1..3 {
                let wait = format!("rank {r} (wildcard receive/probe, 0 queued)");
                assert!(msg.contains(&wait), "{cfg:?}: {msg}");
            }
            assert!(
                !msg.contains("rank 0 ("),
                "a finished rank is not stuck: {msg}"
            );
        }
    }

    #[test]
    fn a_rank_panic_is_re_raised_ahead_of_the_poison_it_causes() {
        // Rank 0 waits for rank 1, which panics: rank 0 ends in the
        // deadlock poison, and the caller must see rank 1's own message.
        for cfg in [SchedConfig::pooled(), SchedConfig::threaded()] {
            let msg = poison_of(2, &cfg, |comm| {
                if comm.rank() == 1 {
                    panic!("boom in rank {}", comm.rank());
                }
                let _ = comm.recv(Some(1), Some(1));
            });
            assert_eq!(msg, "boom in rank 1", "{cfg:?}");
        }
    }

    #[test]
    fn a_rank_blocked_outside_the_fabric_keeps_its_job_alive() {
        // Rank 0 waits on a channel that a helper thread feeds after a
        // sleep, keeping its slot; ranks 1 and 2 wait in the fabric for
        // what rank 0 then sends.
        for cfg in configs() {
            let got = run_ranks_sched(3, ClusterSpec::ideal(3), &cfg, |comm| {
                if comm.rank() > 0 {
                    return comm.recv(Some(0), Some(1)).unwrap().payload[0];
                }
                let (tx, rx) = std::sync::mpsc::channel();
                let helper = std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    tx.send(7u8).unwrap();
                });
                let v = rx.recv().unwrap();
                helper.join().unwrap();
                for dst in 1..3 {
                    comm.send(dst, 1, &[v]).unwrap();
                }
                v
            });
            assert_eq!(got, vec![7; 3], "{cfg:?}");
        }
    }

    #[test]
    fn pooled_config_has_workers_and_small_stacks() {
        let cfg = SchedConfig::pooled();
        assert!(cfg.workers >= 2);
        assert_eq!(cfg.stack_bytes, SchedConfig::DEFAULT_STACK);
        assert_eq!(SchedConfig::threaded().workers, 0);
    }
}
