//! Copy budget of the data path: how many bytes the process asks the
//! allocator for while one snapshot travels from panes to file images, and
//! while one travels back.
//!
//! On the way out a snapshot byte is copied once: a field's into its
//! block's little-endian payload image (`rocsdf::encode_block` of the
//! pane's description, `roccom::convert::plan`), a mesh's into its pane's
//! mesh image, which the pane keeps and every later snapshot of it holds
//! by refcount. Everything after that — the Rocpanda message (a rope of
//! those images and one header buffer), server buffering, the drain's
//! append, the store's extent list — holds it by reference, on both
//! paths. The write budgets below are that one copy plus headroom for
//! headers, indexes and bookkeeping (measured: 1.04 x through Rocpanda,
//! 1.03 x through T-Rochdf); a re-introduced flatten, clone or staging
//! `Vec` on the path costs at least one more payload and trips them. A
//! second snapshot of the same, unchanged panes copies only its fields:
//! budget 0.75 x, measured 0.66 x through Rocpanda and 0.65 x through
//! T-Rochdf (1.04 x and 1.03 x when every snapshot encoded its mesh
//! again).
//!
//! Bytes do not see metadata: a block built as a `DataBlock` to be encoded
//! costs a `String` per name and key, a `Vec` per shape and a map per
//! dataset, and hardly a byte. So the same snapshot is also held to a
//! budget of allocator *calls* per block written. A writer builds no block:
//! it describes the pane where it lies (no allocation) and lays the
//! description out in one pass — a Rocpanda client in 7 calls per block
//! (the routing header, the header staging buffer and the payload image, a
//! refcount for each of the two, the rope's part list and its refcount),
//! T-Rochdf in 6 (no routing header), and on a pane's first snapshot two
//! more per mesh dataset (its image and the image's refcount; a structured
//! pane has one mesh dataset, an unstructured one two). The encode writes
//! file records, each with its `__crc32__`, so nothing frames or lays out
//! the records again: the server's intake walks the message as a view
//! (`rocsdf::BlockView::walk`: its record table, the records windows of
//! the message, no payload read), and T-Rochdf's I/O thread walks each
//! buffered rope the same way. The drain, and that thread, append the
//! records as they lie (`SdfFileWriter::append_view`: a segment list; the
//! index names records from one buffer per file, grown once per block).
//! The rest is the fabric and the store, where an empty message allocates
//! nothing and one of up to 16 bytes only its refcount block. Measured:
//! 21.9 through Rocpanda (26.1–26.2 when the drain laid each block out
//! again to put the checksums in — a header staging buffer, its refcount
//! and the rope's part list — and grew the index record by record; 23.5
//! when the mesh was encoded into each block's payload image; 25.0 when
//! small messages cost a buffer and a refcount; 30.8 when intake framed
//! the records for the file, a record list and a name per record; 84 when
//! the client built a `DataBlock` per pane and the framer formatted the
//! prefix, 250 when its server decoded and re-encoded, 126 when every map
//! it kept held its own copy of the file's key, 122 when each header had a
//! pooled `Vec` of its own and the meta a map), 21.8 through T-Rochdf
//! (26.6 laying out again, 24.1–24.2 with no mesh image, 24.4 with
//! two-part small messages, 29.0 framing, 82 with a `DataBlock` per pane,
//! 117 with per-record headers).
//! The counts repeat to within 0.2 from run to run, in either profile and
//! under the lock witness.
//!
//! On the way back a byte is allocated once too, from the first read of a
//! file on: no read gathers a file's extents (`rocstore::SharedFs` hands
//! out windows of them as the writer appended them), and records are
//! read where they lie all the way to `roccom::convert::apply_block`,
//! which decodes each attribute into the buffer the pane keeps — a
//! restart's windows name their panes (`genx::setup::reserve_for`) and
//! hold nothing until then. The read budget covers building those windows
//! *and* the cold read (measured: 0.84 x through Rochdf individual, 0.84 x
//! two-phase, 0.85 x through Rocpanda — under 1 because a structured
//! pane's coordinates are in the file and never decoded); 1.84 x through
//! Rochdf individual when the first read of each file gathered its
//! extents into one image, which this test excused by touching every file
//! first; 1.89 x generating the panes first and overwriting them, as
//! restarts did.
//!
//! And in calls per block restored: a reader builds no block either. It
//! reads each block where it lies (`rocsdf::BlockView`: one record table
//! per block, the records cut out of the pieces of the file's extents or
//! of the message), and `apply_block` walks it once, decoding each
//! attribute into the buffer the pane keeps — the one allocation per
//! restored attribute; the pane holds its buffers in its window's schema
//! order, under the schema's names by refcount. The rest is the fetch (an
//! extent list and a list of pieces per block), the file listings and
//! index opens (one table per file, none per record, and each file's
//! extent starts on its first read), the fabric and the windows'
//! declarations. A Rocpanda server, like a two-phase aggregator, ships
//! the records it read as they lie, behind a length header per block.
//! Measured: 17.4 through Rochdf individual, 19.5 two-phase, 20.0
//! through Rocpanda (25.5 when the server read each block into a view
//! and laid it out again as a `BLOCK` message; 17.2, 20.6–20.8 and
//! 25.4–25.5 with the files touched first and a window list per block on
//! an aggregator; 127.7, 126.4 and 202.5 when every reader
//! assembled a `DataBlock` — a `String`, a shape `Vec` and a map per
//! record — opened an index with two `String`s per entry, listed files as
//! `String`s and keyed each pane's buffers by a `String` of their own).
//!
//! And per timestep: a warm GENx step (the second and later) allocates
//! nothing that grows with a pane. Each solver borrows the buffers it
//! reads and writes at once (`roccom::Pane::split_mut`) and keeps its
//! per-node scratch across steps; `Rocman` gathers, reduces and couples
//! through lists, maps and a wire buffer it keeps, and sends both
//! neighbours clones of one zero halo. What is left per rank is each
//! allgather's payload copy (a buffer and its refcount; on rank 0 also
//! the image it fans out) and what the Rocface registry call returns (the
//! window's name and the moments list). Measured on 4 ranks, per rank
//! per step: 7.0 calls for 953–973 B with Rocflo+Rocfrac and 4.5 calls
//! for 640–660 B with Rocflu+Rocsolid (73.4 calls for 801 KB and 149.1
//! calls for 5.8 MB when the solvers copied fields out of their panes and
//! regrew their scratch, and every step rebuilt its maps and lists and
//! zero-filled a fresh halo).
//!
//! And per message: the fabric allocates only what a message carries.
//! A 512-rank pooled job runs ring rounds, a wildcard funnel into rank
//! 0, an allreduce and a barrier, and the same job with no traffic is
//! subtracted (spawning a rank thread costs what it costs either way).
//! What is left is two calls per ring or funnel message of more than 16
//! bytes (a payload copy and its refcount block), one per allreduce
//! contribution plus one result image every rank shares, none per
//! barrier message — and the mailbox arena's doublings. Measured: 5 649–
//! 5 654 calls for 4 603 messages, 1.227–1.228 per message against
//! 1.223 without the doublings (6 971, 1.514 per message, when each
//! mailbox was a `VecDeque` of its own, the wait indices `BTreeSet`s and
//! the allreduce root copied the result once per rank).
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
use genx_repro::genx::Rocman;
use genx_repro::roccom::{convert, AttrRef, AttrSelector, IoDispatch, IoService, Windows};
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
/// The next snapshot of the same panes, unchanged since `SNAP`.
const AGAIN: SnapshotId = SnapshotId { step: 1, ordinal: 1 };

/// The bytes requested and the calls made over `SNAP`'s write, set aside
/// while `AGAIN`'s are counted.
static FIRST: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

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

/// Two measured snapshots of the same panes through `io`: `SNAP`, whose
/// counts wait in `FIRST`, then `AGAIN`. Returns this rank's payload bytes.
fn snapshots(app: &Comm, io: &mut dyn IoService) -> u64 {
    let (ws, payload) = lab_scale_windows(app.rank());
    let mut write = |snap| {
        counted(app, || {
            for w in WINDOWS {
                io.write_attribute(&ws, &AttrSelector::all(w), snap).unwrap();
            }
            io.sync().unwrap();
        })
    };
    write(SNAP);
    if app.rank() == 0 {
        // Every rank has left the region, and the counting is off.
        let (bytes, calls) = taken();
        FIRST[0].store(bytes, Ordering::Relaxed);
        FIRST[1].store(calls, Ordering::Relaxed);
    }
    write(AGAIN);
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

/// The bytes requested and the calls made since the counters were last
/// taken; both start again from 0.
fn taken() -> (u64, u64) {
    (REQUESTED.swap(0, Ordering::Relaxed), CALLS.swap(0, Ordering::Relaxed))
}

/// Bytes requested per payload byte, and the allocator calls.
fn per_payload(payload: u64, (bytes, calls): (u64, u64)) -> (f64, u64) {
    assert!(payload > 4 << 20, "snapshot too small to dominate bookkeeping: {payload} B");
    (bytes as f64 / payload as f64, calls)
}

/// [`per_payload`] over the last measured region.
fn measured_with_calls(payload: u64) -> (f64, u64) {
    per_payload(payload, taken())
}

/// [`per_payload`] over the first of [`snapshots`]' two regions.
fn first_snapshot(payload: u64) -> (f64, u64) {
    per_payload(payload, (FIRST[0].load(Ordering::Relaxed), FIRST[1].load(Ordering::Relaxed)))
}

/// Allocator calls and bytes requested per rank per warm timestep (the
/// second and later) of the lab-scale motor with this solver pairing,
/// coupled as a run couples it.
fn warm_step(fluid: FluidKind, solid: SolidKind) -> (f64, f64) {
    const STEPS: u64 = 8;
    let workload = lab_scale();
    run_ranks(COMPUTE, ClusterSpec::turing(COMPUTE), |comm| {
        let mine = assign(&workload, COMPUTE).swap_remove(comm.rank());
        let mut ws = Windows::new();
        declare_windows_for(&mut ws, fluid, solid).unwrap();
        register_and_init_for(&mut ws, &workload, &mine, fluid).unwrap();
        let mut man = Rocman::new(&comm, ws, IoDispatch::new()).unwrap();
        if fluid == FluidKind::Rocflo {
            for (up, down) in genx_repro::rocmesh::x_adjacency(&workload.fluid) {
                man.adjacency.insert(workload.fluid[down].id, workload.fluid[up].id);
            }
        }
        (man.fluid_kind, man.solid_kind) = (fluid, solid);
        man.step().unwrap();
        counted(&comm, || (0..STEPS).for_each(|_| man.step().unwrap()));
    });
    let per_step = |n: u64| n as f64 / (COMPUTE as u64 * STEPS) as f64;
    (per_step(CALLS.swap(0, Ordering::Relaxed)), per_step(REQUESTED.swap(0, Ordering::Relaxed)))
}

/// Ranks of the fabric job, ring rounds it sends, the funnel's tag and
/// the bytes of each ring and funnel message (more than the 16 a
/// `Bytes` copy keeps in its refcount block).
const FABRIC_RANKS: usize = 512;
const RING_ROUNDS: usize = 4;
const FUNNEL: u32 = 0x100;
const FABRIC_PAYLOAD: usize = 64;

/// Allocator calls of one pooled `FABRIC_RANKS`-rank job running `body`
/// on every rank, from building its fabric to the last join.
fn fabric_job_calls(body: impl Fn(Comm) + Send + Sync) -> u64 {
    COUNTING.store(true, Ordering::Relaxed);
    run_ranks(FABRIC_RANKS, ClusterSpec::turing(FABRIC_RANKS), body);
    COUNTING.store(false, Ordering::Relaxed);
    REQUESTED.store(0, Ordering::Relaxed);
    CALLS.swap(0, Ordering::Relaxed)
}

/// `fabric_4k`'s traffic in small: ring rounds, a wildcard funnel into
/// rank 0, an allreduce and a barrier.
fn fabric_traffic(comm: Comm) {
    let (n, me) = (comm.size(), comm.rank());
    let payload = [me as u8; FABRIC_PAYLOAD];
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    for round in 0..RING_ROUNDS {
        comm.sendrecv(next, prev, round as u32, &payload).unwrap();
    }
    if me == 0 {
        for _ in 1..n {
            comm.recv(None, Some(FUNNEL)).unwrap();
        }
    } else {
        comm.send(0, FUNNEL, &payload).unwrap();
    }
    comm.allreduce_sum_f64(me as f64).unwrap();
    comm.barrier().unwrap();
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
    let payload = through_rocpanda(&panda_fs, snapshots);
    let (panda_again, _) = measured_with_calls(payload);
    let (panda, panda_calls) = first_snapshot(payload);
    assert!(panda <= 1.5, "Rocpanda requested {panda:.2} x the snapshot payload (budget 1.5)");

    // T-Rochdf: the block buffer is the file extent.
    let fs = Arc::new(SharedFs::turing());
    let out = run_ranks(COMPUTE, ClusterSpec::turing(COMPUTE), |comm| {
        let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
        let payload = snapshots(&comm, &mut io);
        io.finalize().unwrap();
        payload
    });
    assert_eq!(out.into_iter().sum::<u64>(), payload);
    let (trochdf_again, _) = measured_with_calls(payload);
    let (trochdf, trochdf_calls) = first_snapshot(payload);
    assert!(trochdf <= 1.5, "T-Rochdf requested {trochdf:.2} x the snapshot payload (budget 1.5)");
    println!("copy budget, write: rocpanda {panda:.2} x, t-rochdf {trochdf:.2} x");
    // The same panes again: their mesh images are held already, so only
    // the fields are new bytes.
    for (writer, again) in [("Rocpanda", panda_again), ("T-Rochdf", trochdf_again)] {
        assert!(
            again <= 0.75,
            "{writer} requested {again:.2} x the payload of a second snapshot of unchanged \
             panes (budget 0.75)"
        );
    }
    println!(
        "copy budget, second snapshot: rocpanda {panda_again:.2} x, t-rochdf {trochdf_again:.2} x"
    );
    // The same snapshot counted in allocator *calls*, per block written.
    let per_block = |calls: u64| calls as f64 / n_panes as f64;
    let (panda_calls, trochdf_calls) = (per_block(panda_calls), per_block(trochdf_calls));
    assert!(
        panda_calls <= 24.0,
        "Rocpanda made {panda_calls:.1} allocator calls per block (budget 24)"
    );
    assert!(
        trochdf_calls <= 24.0,
        "T-Rochdf made {trochdf_calls:.1} allocator calls per block (budget 24)"
    );
    println!(
        "call budget, write: rocpanda {panda_calls:.1}, t-rochdf {trochdf_calls:.1} per block"
    );

    // Back again: each restored byte is allocated once, as the typed
    // buffer its pane keeps — from the first read of a file on: no read
    // gathers a file's extents.
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
    for ((reader, calls), budget) in read_calls.iter().zip([20.0, 24.0, 24.0]) {
        assert!(
            *calls <= budget,
            "{reader} made {calls:.1} allocator calls per block restored (budget {budget})"
        );
    }

    // A warm timestep computes in its panes' buffers and exchanges through
    // buffers its orchestrator keeps, whichever solvers run.
    for (fluid, solid) in [
        (FluidKind::Rocflo, SolidKind::Rocfrac),
        (FluidKind::Rocflu, SolidKind::Rocsolid),
    ] {
        let (calls, bytes) = warm_step(fluid, solid);
        println!("warm step, {fluid:?}+{solid:?}: {calls:.1} calls, {bytes:.0} B per rank");
        let (call_budget, byte_budget) = match fluid {
            FluidKind::Rocflo => (8.0, 1100.0),
            FluidKind::Rocflu => (5.0, 750.0),
        };
        assert!(
            calls <= call_budget && bytes <= byte_budget,
            "a warm {fluid:?}+{solid:?} step made {calls:.1} allocator calls for {bytes:.0} B \
             per rank (budget {call_budget} calls, {byte_budget} B)"
        );
    }

    // The fabric allocates only what a message carries: the same job
    // with and without traffic, so the difference is the traffic's.
    let busy = fabric_job_calls(fabric_traffic);
    let idle = fabric_job_calls(|_comm| ());
    let calls = busy as f64 - idle as f64;
    let others = (FABRIC_RANKS - 1) as f64;
    let (ring, funnel) = ((RING_ROUNDS * FABRIC_RANKS) as f64, others);
    let (allreduce, barrier) = (2.0 * others, 2.0 * others);
    let msgs = ring + funnel + allreduce + barrier;
    // Two per ring or funnel message (a payload copy and its refcount
    // block), one per allreduce contribution (an 8-byte copy), one for
    // the result image every rank shares, none per barrier message.
    let budget = 2.0 * (ring + funnel) + others + 1.0;
    println!(
        "fabric: {busy} - {idle} = {calls} allocator calls for {msgs} messages, \
         {:.3} per message (budget {:.3})",
        calls / msgs,
        budget / msgs
    );
    // The tolerance covers arena and ready-queue doublings.
    assert!(
        calls / msgs <= budget / msgs + 0.01,
        "the fabric made {:.3} allocator calls per message (budget {:.3} + 0.01)",
        calls / msgs,
        budget / msgs
    );
}
