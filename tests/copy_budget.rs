//! Copy budget of the data path: how many bytes the process asks the
//! allocator for while one snapshot travels from panes to file images, and
//! while one travels back.
//!
//! On the way out a snapshot byte is copied once, into its block's
//! little-endian payload image (`rocsdf::encode_block` of the pane's
//! description, `roccom::convert::plan`); everything after that — the
//! Rocpanda message (a rope of that image and one header buffer), server
//! buffering, the drain's record layout, the store's extent list — holds it by
//! reference, on both paths. The write budgets below are that one copy
//! plus headroom for headers, indexes and bookkeeping (measured: 1.05 x
//! through Rocpanda, 1.04 x through T-Rochdf); a re-introduced flatten,
//! clone or staging `Vec` on the path costs at least one more payload and
//! trips them.
//!
//! Bytes do not see metadata: a block built as a `DataBlock` to be encoded
//! costs a `String` per name and key, a `Vec` per shape and a map per
//! dataset, and hardly a byte. So the same snapshot is also held to a
//! budget of allocator *calls* per block written. A writer builds no
//! block: it describes the pane where it lies (no allocation) and lays the
//! description out in one pass — a Rocpanda client in 7 calls per block
//! (the routing header, the header staging buffer and the payload image,
//! a refcount for each of the two, the rope's part list and its refcount),
//! T-Rochdf in 6 (no routing header). Nothing frames the records: the
//! server's intake reads the message as a view (`rocsdf::BlockView`: its
//! record table, the records windows of the message), and T-Rochdf's I/O
//! thread reads each buffered rope the same way. The drain, and that
//! thread, make one encode with checksums (`append_block` of the view: a
//! header staging buffer, its refcount, the rope's part list, a segment
//! list; every payload is held, and the index names records from one
//! buffer per file). The rest is the fabric and the store. Measured: 25.0
//! through Rocpanda (30.8 when intake framed the records for the file, a
//! record list and a name per record; 84 when the client built a
//! `DataBlock` per pane and the framer formatted the prefix, 250 when its
//! server decoded and re-encoded, 126 when every map it kept held its own
//! copy of the file's key, 122 when each header had a pooled `Vec` of its
//! own and the meta a map), 24.4 through T-Rochdf (29.0 framing, 82 with a
//! `DataBlock` per pane, 117 with per-record headers). The counts repeat
//! exactly from run to run, in either profile and under the lock witness.
//!
//! On the way back a byte is allocated once too: records are windows of
//! the file image all the way to `roccom::convert::apply_block`, which
//! decodes each attribute into the buffer the pane keeps — a restart's
//! windows name their panes (`genx::setup::reserve_for`) and hold nothing
//! until then. The read budget covers building those windows *and* the
//! read (measured: 0.83 x through Rochdf individual, 0.84 x two-phase,
//! 0.86 x through Rocpanda — under 1 because a structured pane's
//! coordinates are in the file and never decoded); generating the panes
//! first and overwriting them, as restarts did, is 1.89 x.
//!
//! And in calls per block restored: a reader builds no block either. It
//! reads each block where it lies (`rocsdf::BlockView`: one record table
//! per block, the records windows of the file image or the message), and
//! `apply_block` walks it once, decoding each attribute into the buffer
//! the pane keeps — the one allocation per restored attribute; the pane
//! holds its buffers in its window's schema order, under the schema's
//! names by refcount. The rest is the fetch (an extent list and a window
//! list per block), the file listings and index opens (one table per
//! file, none per record), the fabric and the windows' declarations.
//! Measured: 17.4 through Rochdf individual, 21.3 two-phase, 25.8 through
//! Rocpanda (127.7, 126.4 and 202.5 when every reader assembled a
//! `DataBlock` — a `String`, a shape `Vec` and a map per record — opened
//! an index with two `String`s per entry, listed files as `String`s and
//! keyed each pane's buffers by a `String` of their own).
//!
//! Alone in its binary, with one `#[test]`: the counting allocator is
//! process-wide, so nothing else may run beside the measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use genx_repro::genx::setup::{
    assign, declare_windows_for, register_and_init_for, reserve_for, FluidKind, SolidKind,
    BURN_WINDOW, FLUID_WINDOW, SOLID_WINDOW,
};
use genx_repro::roccom::{convert, AttrRef, AttrSelector, IoService, Windows};
use genx_repro::rochdf::{Rochdf, RochdfConfig, TRochdf};
use genx_repro::rocmesh::Workload;
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::{run_ranks, Comm};
use genx_repro::rocpanda::{PandaServiceBuilder, ServiceRole};
use genx_repro::rocstore::SharedFs;
use genx_repro::core::SnapshotId;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    // Relaxed: statistics; the barriers around the measured region order
    // the flag against the work it brackets.
    if COUNTING.load(Ordering::Relaxed) {
        REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts every request and every byte requested while `COUNTING`, then
/// forwards to the system allocator unchanged.
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

const SNAP: SnapshotId = SnapshotId { step: 0, ordinal: 0 };

fn lab_scale() -> Workload {
    Workload::lab_scale_motor_scaled(42, 0.2)
}

/// Rank `rank`'s share of the lab-scale motor, and its payload bytes.
fn lab_scale_windows(rank: usize) -> (Windows, u64) {
    let workload = lab_scale();
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

/// `work` on every compute rank between two barriers; the first rank
/// brackets the region.
fn counted<T>(app: &Comm, work: impl FnOnce() -> T) -> T {
    app.barrier().unwrap();
    if app.rank() == 0 {
        COUNTING.store(true, Ordering::Relaxed);
    }
    app.barrier().unwrap();
    let out = work();
    app.barrier().unwrap();
    COUNTING.store(false, Ordering::Relaxed);
    out
}

/// One measured snapshot through `io`. Returns this rank's payload bytes.
fn snapshot(app: &Comm, io: &mut dyn IoService) -> u64 {
    let (ws, payload) = lab_scale_windows(app.rank());
    counted(app, || {
        for w in WINDOWS {
            io.write_attribute(&ws, &AttrSelector::all(w), SNAP).unwrap();
        }
        io.sync().unwrap();
    });
    payload
}

/// One measured restart through `io`, from windows that name this rank's
/// panes to windows that hold them. Returns the panes restored.
fn restart(app: &Comm, io: &mut dyn IoService) -> usize {
    let workload = lab_scale();
    let mine = assign(&workload, COMPUTE).swap_remove(app.rank());
    let ws = counted(app, || {
        let mut ws = Windows::new();
        declare_windows_for(&mut ws, FluidKind::Rocflo, SolidKind::Rocfrac).unwrap();
        reserve_for(&mut ws, &workload, &mine, FluidKind::Rocflo).unwrap();
        for w in WINDOWS {
            io.read_attribute(&mut ws, &AttrSelector::all(w), SNAP).unwrap();
        }
        ws
    });
    WINDOWS.iter().map(|w| ws.window(w).unwrap().n_panes()).sum()
}

/// Bytes requested per payload byte over the last measured region, and
/// the allocator calls made over it.
fn measured_with_calls(payload: u64) -> (f64, u64) {
    assert!(payload > 4 << 20, "snapshot too small to dominate bookkeeping: {payload} B");
    let bytes = REQUESTED.swap(0, Ordering::Relaxed) as f64 / payload as f64;
    (bytes, CALLS.swap(0, Ordering::Relaxed))
}

/// `client` on the compute ranks of a one-server Rocpanda job over `fs`;
/// what the clients returned, summed.
fn through_rocpanda(fs: &Arc<SharedFs>, client: fn(&Comm, &mut dyn IoService) -> u64) -> u64 {
    let svc = PandaServiceBuilder::new(Arc::clone(fs)).servers(&[COMPUTE]).build().unwrap();
    svc.admit_world("copy-budget", COMPUTE + 1).unwrap();
    let out = run_ranks(COMPUTE + 1, ClusterSpec::turing(COMPUTE + 1), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
                0
            }
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Client { mut io, comm: app, .. } => {
                let out = client(&app, &mut *io);
                io.finalize().unwrap();
                out
            }
        }
    });
    out.into_iter().sum()
}

#[test]
fn a_snapshot_byte_is_copied_once_per_hop() {
    // One pane per fluid block, a solid and a burn pane per propellant
    // block; every pane is one block of the snapshot.
    let n_panes = lab_scale().n_blocks() + lab_scale().solid_boxes.len();
    // Rocpanda: the block buffer is the message is the file extent.
    let panda_fs = Arc::new(SharedFs::turing());
    let payload = through_rocpanda(&panda_fs, snapshot);
    let (panda, panda_calls) = measured_with_calls(payload);
    assert!(panda <= 1.5, "Rocpanda requested {panda:.2} x the snapshot payload (budget 1.5)");

    // T-Rochdf: the block buffer is the file extent.
    let fs = Arc::new(SharedFs::turing());
    let out = run_ranks(COMPUTE, ClusterSpec::turing(COMPUTE), |comm| {
        let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
        let payload = snapshot(&comm, &mut io);
        io.finalize().unwrap();
        payload
    });
    assert_eq!(out.into_iter().sum::<u64>(), payload);
    let (trochdf, trochdf_calls) = measured_with_calls(payload);
    assert!(trochdf <= 1.5, "T-Rochdf requested {trochdf:.2} x the snapshot payload (budget 1.5)");
    println!("copy budget, write: rocpanda {panda:.2} x, t-rochdf {trochdf:.2} x");
    // The same snapshot counted in allocator *calls*, per block written.
    let per_block = |calls: u64| calls as f64 / n_panes as f64;
    let (panda_calls, trochdf_calls) = (per_block(panda_calls), per_block(trochdf_calls));
    assert!(
        panda_calls <= 28.0,
        "Rocpanda made {panda_calls:.1} allocator calls per block (budget 28)"
    );
    assert!(
        trochdf_calls <= 28.0,
        "T-Rochdf made {trochdf_calls:.1} allocator calls per block (budget 28)"
    );
    println!(
        "call budget, write: rocpanda {panda_calls:.1}, t-rochdf {trochdf_calls:.1} per block"
    );

    // Back again: each restored byte is allocated once, as the typed
    // buffer its pane keeps. The store gathers a file's extents into one
    // image the first time anything reads it — once per file however many
    // restarts follow, and ROADMAP item 7's to remove — so that first touch
    // happens here, outside the measured restarts.
    for store in [&fs, &panda_fs] {
        for path in store.list("out/") {
            store.read_shared(&path, 0, 1, 0, 0.0).unwrap();
        }
    }
    let (mut read, mut read_calls) = (Vec::new(), Vec::new());
    for (reader, read_aggregators) in [("rochdf individual", 0), ("rochdf two-phase", 2)] {
        let restored = run_ranks(COMPUTE, ClusterSpec::turing(COMPUTE), |comm| {
            let cfg = RochdfConfig { read_aggregators, ..RochdfConfig::default() };
            restart(&comm, &mut Rochdf::new(&fs, &comm, cfg))
        });
        assert_eq!(restored.into_iter().sum::<usize>(), n_panes, "{reader}");
        let (bytes, calls) = measured_with_calls(payload);
        read.push((reader, bytes));
        read_calls.push((reader, per_block(calls)));
    }
    let restored = through_rocpanda(&panda_fs, |app, io| restart(app, io) as u64);
    assert_eq!(restored as usize, n_panes, "rocpanda");
    let (bytes, calls) = measured_with_calls(payload);
    read.push(("rocpanda", bytes));
    read_calls.push(("rocpanda", per_block(calls)));
    for (reader, x) in &read {
        assert!(*x <= 1.25, "{reader} requested {x:.2} x the snapshot payload (budget 1.25)");
    }
    println!("copy budget, read: {read:.2?}");
    println!("call budget, read: {read_calls:.1?} per block");
    for ((reader, calls), budget) in read_calls.iter().zip([20.0, 24.0, 29.0]) {
        assert!(
            *calls <= budget,
            "{reader} made {calls:.1} allocator calls per block restored (budget {budget})"
        );
    }
}
