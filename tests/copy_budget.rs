//! Copy budget of the write path: how many bytes the process asks the
//! allocator for while one snapshot travels from panes to file images.
//!
//! A snapshot byte is copied once, into its block's little-endian buffer
//! (`roccom::convert::pane_to_block`); everything after that — the
//! Rocpanda message (a rope of the block's own buffers), server buffering,
//! record encoding, the store's extent list — holds it by reference, on
//! both paths. The budgets below are that one copy plus headroom for
//! headers, indexes and bookkeeping (measured: 1.14 x through Rocpanda,
//! 1.07 x through T-Rochdf); a re-introduced flatten, clone or staging
//! `Vec` on the path costs at least one more payload and trips them.
//!
//! Alone in its binary, with one `#[test]`: the counting allocator is
//! process-wide, so nothing else may run beside the measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use genx_repro::genx::setup::{
    assign, declare_windows_for, register_and_init_for, FluidKind, SolidKind, BURN_WINDOW,
    FLUID_WINDOW, SOLID_WINDOW,
};
use genx_repro::roccom::{convert, AttrRef, AttrSelector, IoService, Windows};
use genx_repro::rochdf::{RochdfConfig, TRochdf};
use genx_repro::rocmesh::Workload;
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::{run_ranks, Comm};
use genx_repro::rocpanda::{PandaServiceBuilder, ServiceRole};
use genx_repro::rocstore::SharedFs;
use genx_repro::core::SnapshotId;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    // Relaxed: a statistic; the barriers around the measured region order
    // the flag against the work it brackets.
    if COUNTING.load(Ordering::Relaxed) {
        REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Counts every byte requested while `COUNTING`, then forwards to the
/// system allocator unchanged.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s own `GlobalAlloc` contract carries over; `note` only touches
// atomics and never allocates, so it cannot re-enter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by `System` for this `layout`, and
        // `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WINDOWS: [&str; 3] = [FLUID_WINDOW, SOLID_WINDOW, BURN_WINDOW];
const COMPUTE: usize = 4;

/// Rank `rank`'s share of the lab-scale motor, and its payload bytes.
fn lab_scale_windows(rank: usize) -> (Windows, u64) {
    let workload = Workload::lab_scale_motor_scaled(42, 0.2);
    let mine = assign(&workload, COMPUTE).swap_remove(rank);
    let mut ws = Windows::new();
    declare_windows_for(&mut ws, FluidKind::Rocflo, SolidKind::Rocfrac).unwrap();
    register_and_init_for(&mut ws, &workload, &mine, FluidKind::Rocflo).unwrap();
    let payload = WINDOWS
        .iter()
        .flat_map(|w| convert::window_to_blocks(ws.window(w).unwrap(), &AttrRef::All).unwrap())
        .map(|b| b.payload_bytes() as u64)
        .sum();
    (ws, payload)
}

/// One snapshot through `io` between two barriers of the compute ranks;
/// the first rank brackets the region. Returns this rank's payload bytes.
fn snapshot(app: &Comm, io: &mut dyn IoService, rank: usize) -> u64 {
    let (ws, payload) = lab_scale_windows(rank);
    app.barrier().unwrap();
    if rank == 0 {
        COUNTING.store(true, Ordering::Relaxed);
    }
    app.barrier().unwrap();
    for w in WINDOWS {
        io.write_attribute(&ws, &AttrSelector::all(w), SnapshotId::new(0, 0)).unwrap();
    }
    io.sync().unwrap();
    app.barrier().unwrap();
    COUNTING.store(false, Ordering::Relaxed);
    payload
}

/// Bytes requested per payload byte over one measured snapshot.
fn measured(payloads: impl IntoIterator<Item = u64>) -> f64 {
    let payload: u64 = payloads.into_iter().sum();
    assert!(payload > 4 << 20, "snapshot too small to dominate bookkeeping: {payload} B");
    REQUESTED.swap(0, Ordering::Relaxed) as f64 / payload as f64
}

#[test]
fn a_snapshot_byte_is_copied_once_per_hop() {
    // Rocpanda: the block buffer is the message is the file extent.
    let fs = Arc::new(SharedFs::turing());
    let svc = PandaServiceBuilder::new(fs).servers(&[COMPUTE]).build().unwrap();
    svc.admit_world("copy-budget", COMPUTE + 1).unwrap();
    let out = run_ranks(COMPUTE + 1, ClusterSpec::turing(COMPUTE + 1), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
                0
            }
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Client { mut io, comm: app, .. } => {
                let payload = snapshot(&app, &mut *io, app.rank());
                io.finalize().unwrap();
                payload
            }
        }
    });
    let panda = measured(out);
    assert!(panda <= 1.5, "Rocpanda requested {panda:.2} x the snapshot payload (budget 1.5)");

    // T-Rochdf: the block buffer is the file extent.
    let fs = Arc::new(SharedFs::turing());
    let out = run_ranks(COMPUTE, ClusterSpec::turing(COMPUTE), |comm| {
        let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
        let payload = snapshot(&comm, &mut io, comm.rank());
        io.finalize().unwrap();
        payload
    });
    let trochdf = measured(out);
    assert!(trochdf <= 1.5, "T-Rochdf requested {trochdf:.2} x the snapshot payload (budget 1.5)");
    println!("copy budget: rocpanda {panda:.2} x, t-rochdf {trochdf:.2} x");
}
