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
//! * **Bounded admission.** At most [`SchedConfig::workers`] ranks are
//!   *runnable* at any instant. Every rank holds an admission slot while
//!   executing user code; every blocking point in the fabric lends the
//!   slot back to the pool for the duration of the park
//!   (`lend_slot`/`reacquire_slot`, called from
//!   `Fabric::park_on_cv`). The kernel therefore only ever timeslices a
//!   handful of threads; the rest sit parked on their per-rank condvar,
//!   costing one small stack and a kernel task struct each.
//! * **Event-driven gate wakes.** The conservative virtual-order gate
//!   used to poll (`GATE_POLL`), because clock advances notify no
//!   condvar. The `GateBoard` is a lock-free watermark over all gate
//!   waiters' scan bounds: any clock advance that crosses it unparks a
//!   single *steward* thread, which takes the fabric lock from a clean
//!   context and re-runs the wake scan. Advance sites never touch the
//!   fabric lock themselves — they may be holding lower-level locks
//!   (e.g. `rochdf.outstanding`), so the detour through the steward is
//!   what keeps the `roclock.order` hierarchy intact.
//! * **A start gate.** Ranks stage on a job-start line after spawning
//!   and the last arrival releases the whole job with one broadcast
//!   wake (`StartGate`), so user code begins everywhere at once
//!   instead of racing the spawn ramp.
//!
//! Scheduling changes *which* thread runs when, never what any rank
//! observes: wildcard matching stays behind the virtual-order gate (or
//! the `ScheduleOracle`), so pooled and threaded runs are bit-identical
//! (`tests/scale_sched.rs` pins this). A rank parked waiting for a slot
//! is published `Running` to other ranks' safety scans — conservative,
//! so the gate never commits early because of admission.
//!
//! Threads that are *not* rank threads (e.g. T-Rochdf's background
//! writer) never register with the pool: `lend_slot` is a no-op for
//! them and they keep draining work regardless of admission, which is
//! exactly why a rank blocked on such a helper cannot wedge the pool.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rocio_core::lockdep::{Condvar, Mutex};

use crate::cluster::ClusterSpec;
use crate::comm::Comm;
use crate::fabric::Fabric;

/// How rank threads are scheduled by [`run_on_fabric_sched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Maximum number of ranks runnable at once. `0` disables admission
    /// entirely: every rank is a free-running OS thread (the legacy
    /// harness shape, kept as the bench baseline).
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
    pub const DEFAULT_STACK: usize = 512 * 1024;

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

    /// The legacy shape: one free-running OS thread per rank, default
    /// stacks, no admission. Kept as the scaling-bench baseline and for
    /// the pooled-vs-threaded identity tests.
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
    /// Admission slots not currently held by a rank.
    free: usize,
    /// Ranks parked in [`Scheduler::acquire`] right now.
    waiting: usize,
    /// Total blocking slot acquisitions (diagnostics).
    contended: u64,
}

/// The admission pool: a counting semaphore with lockdep-named state.
///
/// Level 48 in `roclock.order`, nested *under* `rocnet.fabric_state`:
/// [`lend_slot`] releases the slot while the fabric lock is held, so the
/// fabric → sched edge is a declared part of the hierarchy.
pub(crate) struct Scheduler {
    slots: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    pub(crate) fn new(workers: usize) -> Arc<Self> {
        assert!(workers > 0, "admission pool needs at least one worker");
        Arc::new(Scheduler {
            slots: Mutex::new(
                "rocnet.sched_state",
                SchedState {
                    free: workers,
                    waiting: 0,
                    contended: 0,
                },
            ),
            cv: Condvar::new(),
        })
    }

    /// Block until an admission slot is free, then take it.
    fn acquire(&self) {
        let mut s = self.slots.lock();
        if s.free == 0 {
            s.contended += 1;
            s.waiting += 1;
            while s.free == 0 {
                self.cv.wait(&mut s);
            }
            s.waiting -= 1;
        }
        s.free -= 1;
    }

    /// Return a slot to the pool, waking one parked rank if any.
    fn release(&self) {
        let mut s = self.slots.lock();
        s.free += 1;
        let wake = s.waiting > 0;
        drop(s);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Total blocking slot acquisitions so far (diagnostics).
    #[cfg(test)]
    fn contended(&self) -> u64 {
        self.slots.lock().contended
    }
}

struct PoolCtx {
    sched: Arc<Scheduler>,
    held: bool,
}

thread_local! {
    static POOL: RefCell<Option<PoolCtx>> = const { RefCell::new(None) };
}

/// Release the calling rank's admission slot, if it holds one. Returns
/// whether [`reacquire_slot`] must be called before re-entering user
/// code. No-op (returns `false`) on threads outside the pool — legacy
/// threaded runs and background helpers like the T-Rochdf writer.
pub(crate) fn lend_slot() -> bool {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.as_mut() {
            Some(ctx) if ctx.held => {
                ctx.held = false;
                ctx.sched.release();
                true
            }
            _ => false,
        }
    })
}

/// Block until the calling rank re-holds an admission slot. Must only be
/// called after [`lend_slot`] returned `true`, with no fabric lock held.
pub(crate) fn reacquire_slot() {
    let sched = POOL.with(|p| p.borrow().as_ref().map(|c| Arc::clone(&c.sched)));
    if let Some(s) = sched {
        s.acquire();
        POOL.with(|p| {
            if let Some(ctx) = p.borrow_mut().as_mut() {
                ctx.held = true;
            }
        });
    }
}

/// RAII registration of a rank thread with the admission pool: holds a
/// slot from construction until drop (including unwinds), minus any
/// intervals the fabric lent it away.
struct SlotGuard;

impl SlotGuard {
    fn enter(sched: Arc<Scheduler>) -> SlotGuard {
        sched.acquire();
        POOL.with(|p| {
            *p.borrow_mut() = Some(PoolCtx { sched, held: true });
        });
        SlotGuard
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if let Some(ctx) = POOL.with(|p| p.borrow_mut().take()) {
            if ctx.held {
                ctx.sched.release();
            }
        }
    }
}

/// The job-start line: every rank parks here right after spawning, and
/// the last arrival releases the whole job with one broadcast wake.
///
/// Without it, a job's early ranks would be deep into their first
/// timestep while late ranks were still being spawned — the measured
/// job would include the spawn ramp, and its shape would depend on how
/// fast this host can create threads. With it, `run_on_fabric_sched`
/// has MPI_Init semantics: user code starts everywhere at once. Pooled
/// ranks lend their admission slot while staged (staging is a blocking
/// point like any fabric park), so all `n` ranks cycle through a small
/// pool to reach the line; after the broadcast they re-admit through
/// the pool as slots free up, while free-running ranks all become
/// runnable at the same instant — each mode meets the true concurrency
/// of its own shape from the first instruction of user code.
struct StartGate {
    line: Mutex<StartCount>,
    cv: Condvar,
}

struct StartCount {
    arrived: usize,
    total: usize,
    released: bool,
}

impl StartGate {
    fn new(total: usize) -> Self {
        StartGate {
            line: Mutex::new(
                "rocnet.start_gate",
                StartCount {
                    arrived: 0,
                    total,
                    released: false,
                },
            ),
            cv: Condvar::new(),
        }
    }

    /// Stage the calling rank; returns once all `total` ranks arrived.
    fn wait(&self) {
        let mut g = self.line.lock();
        g.arrived += 1;
        if g.arrived == g.total {
            g.released = true;
            drop(g);
            self.cv.notify_all();
            return;
        }
        let lent = lend_slot();
        while !g.released {
            self.cv.wait(&mut g);
        }
        drop(g);
        if lent {
            reacquire_slot();
        }
    }
}

/// Lock-free watermark connecting clock advances to parked gate waiters.
///
/// The fabric publishes (under its lock) the lowest scan bound any gate
/// waiter is parked on; [`crate::vtime::VClock`] calls [`GateBoard::on_clock`]
/// after every advance. A crossing latches `pending` and unparks the
/// steward thread, which re-runs the wake scan under the fabric lock.
/// Unpark tokens persist, so the wake cannot be lost; a generous timeout
/// on gate parks remains as a safety net, so a missed edge degrades to a
/// slow poll, never a deadlock.
#[derive(Debug)]
pub(crate) struct GateBoard {
    /// Bits of the lowest gate-waiter scan bound (`u64::MAX` = none).
    min_bound: AtomicU64,
    /// A crossing was reported and the steward has not rescanned yet.
    pending: AtomicBool,
    /// The owning fabric is being dropped; the steward must exit.
    shutdown: AtomicBool,
    /// The steward thread's handle, once spawned.
    steward: OnceLock<std::thread::Thread>,
}

impl GateBoard {
    pub(crate) fn new() -> Self {
        GateBoard {
            min_bound: AtomicU64::new(u64::MAX),
            pending: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            steward: OnceLock::new(),
        }
    }

    /// Report a clock now at `now_bits`. Called on every clock advance —
    /// two relaxed-ish atomics in the common (no waiter / no crossing)
    /// case, one unpark on a crossing.
    pub(crate) fn on_clock(&self, now_bits: u64) {
        if now_bits < self.min_bound.load(Ordering::SeqCst) {
            return;
        }
        if self.pending.swap(true, Ordering::SeqCst) {
            return; // steward already signalled
        }
        if let Some(t) = self.steward.get() {
            t.unpark();
        }
    }

    /// Publish the current lowest gate-waiter bound (fabric lock held).
    pub(crate) fn set_min(&self, bits: u64) {
        self.min_bound.store(bits, Ordering::SeqCst);
    }

    /// Clear the pending latch before a steward rescan, so crossings
    /// during the scan re-signal.
    pub(crate) fn begin_scan(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }

    pub(crate) fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.steward.get() {
            t.unpark();
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Spawn the steward thread for `fabric`. Called once per fabric, the
/// first time a job runs on it (plain `Fabric` values used directly in
/// unit tests have no steward and fall back to the timed gate re-scan).
pub(crate) fn spawn_steward(fabric: &Arc<Fabric>) {
    let board = Arc::clone(fabric.board());
    let weak = Arc::downgrade(fabric);
    let handle = std::thread::Builder::new()
        .name("rocnet-steward".into())
        .spawn(move || loop {
            std::thread::park();
            if board.is_shutdown() {
                return;
            }
            let Some(f) = weak.upgrade() else { return };
            f.steward_rescan();
        })
        .expect("spawn rocnet steward thread");
    fabric.board().steward.set(handle.thread().clone()).ok();
    // A crossing may have latched `pending` before the handle was
    // published; one unconditional unpark drains it.
    handle.thread().unpark();
}

/// Run `f` on every rank of `fabric` under `cfg`'s scheduling: pooled
/// admission when `cfg.workers > 0`, legacy free-running threads when 0.
/// Results come back in rank order; a panic in any rank is re-raised
/// with its original payload.
pub fn run_on_fabric_sched<T, F>(fabric: &Arc<Fabric>, cfg: &SchedConfig, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    let n = fabric.n_ranks();
    fabric.begin_job();
    fabric.ensure_steward();
    let sched = (cfg.workers > 0).then(|| Scheduler::new(cfg.workers));
    let gate = StartGate::new(n);
    std::thread::scope(|scope| {
        let gate = &gate;
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let comm = Comm::world(Arc::clone(fabric), rank);
            let fab = Arc::clone(fabric);
            let sched = sched.clone();
            let mut builder = std::thread::Builder::new().name(format!("rank{rank}"));
            if cfg.stack_bytes > 0 {
                builder = builder.stack_size(cfg.stack_bytes);
            }
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
                    let _slot = sched.map(SlotGuard::enter);
                    gate.wait();
                    f(comm)
                })
                .expect("spawn rank thread");
            handles.push(h);
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise with the original payload so callers (tests,
                // the rocsched explorer) see the rank's own message —
                // e.g. a deadlock poison — instead of a generic wrapper.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
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
mod tests {
    use super::*;

    #[test]
    fn slots_bound_concurrent_admission() {
        use std::sync::atomic::AtomicUsize;
        let sched = Scheduler::new(3);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..16 {
                let sched = &sched;
                let (live, peak) = (&live, &peak);
                s.spawn(move || {
                    for _ in 0..50 {
                        sched.acquire();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        live.fetch_sub(1, Ordering::SeqCst);
                        sched.release();
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "admission must bound runnable ranks");
        assert!(
            sched.contended() <= 16 * 50,
            "contention counter counts blocking acquisitions only"
        );
    }

    #[test]
    fn lend_without_registration_is_noop() {
        assert!(!lend_slot(), "threads outside the pool must not lend");
    }

    #[test]
    fn lend_and_reacquire_round_trip() {
        let sched = Scheduler::new(1);
        let _slot = SlotGuard::enter(Arc::clone(&sched));
        assert!(lend_slot());
        assert!(!lend_slot(), "slot already lent");
        reacquire_slot();
        assert!(lend_slot(), "slot must be held again after reacquire");
        reacquire_slot();
    }

    #[test]
    fn board_reports_crossings_once_until_rescanned() {
        let b = GateBoard::new();
        b.set_min(5.0f64.to_bits());
        b.on_clock(4.0f64.to_bits());
        assert!(!b.pending.load(Ordering::SeqCst), "below the watermark");
        b.on_clock(6.0f64.to_bits());
        assert!(b.pending.load(Ordering::SeqCst), "crossing latches");
        b.begin_scan();
        assert!(!b.pending.load(Ordering::SeqCst));
    }

    #[test]
    fn pooled_config_has_workers_and_small_stacks() {
        let cfg = SchedConfig::pooled();
        assert!(cfg.workers >= 2);
        assert_eq!(cfg.stack_bytes, SchedConfig::DEFAULT_STACK);
        assert_eq!(SchedConfig::threaded().workers, 0);
    }
}
