//! The pinned API surface: every call the benchmark makes into the
//! system under test goes through one thin adapter here, so a later
//! signature change is a fix in this file alone — and the list below
//! (mirrored in `README.md`) is what a refactor must keep or must
//! schedule a benchmark fix for.
//!
//! The adapters add nothing: no timing, no checking, no conversion
//! beyond unwrapping `Result`s (a failed call is a benchmark bug or a
//! broken build, and panics with the reason). Plain accessors on values
//! an adapter returned (`Comm::rank`, `Windows::window`,
//! `SegmentPool::recycle`, `segments_to_vec`, public fields) are used
//! where they are needed and listed in the README with the rest.

use std::sync::Arc;

use bytes::Bytes;
use rocio_core::{BlockId, Checksum, DataBlock, Dataset, Segment, SimTime, SnapshotId};
use rocpanda::wire::BlockMsg;
use rocsdf::{LibraryModel, ReadCostModel, SdfFileReader, SdfFileWriter, SegmentPool};
use rocstore::{FsStats, SharedFs, SievePlan};

use genx::RunReport;
use roccom::{AttrRef, Window, Windows};

pub use genx::{GenxConfig, IoChoice, RestartReport, WorkloadKind};
pub use rocnet::cluster::ClusterSpec;
pub use rocnet::{Comm, SchedConfig};
pub use rocobs::{SpanCategory, TraceCollector};

// -- genx ---------------------------------------------------------------

/// `genx::run_genx_traced` (which `genx::run_genx` forwards to).
pub fn genx_run(
    cluster: ClusterSpec,
    fs: &Arc<SharedFs>,
    cfg: &GenxConfig,
    collector: Option<&TraceCollector>,
) -> RunReport {
    genx::run_genx_traced(cluster, fs, cfg, collector).expect("run_genx")
}

/// `genx::run_genx_restart` of `genx::final_snapshot(cfg)`.
pub fn genx_restart(
    cluster: ClusterSpec,
    fs: &Arc<SharedFs>,
    cfg: &GenxConfig,
) -> rocio_core::Result<RestartReport> {
    genx::run_genx_restart(cluster, fs, cfg, genx::final_snapshot(cfg))
}

/// `rocmesh::Workload::lab_scale_motor_scaled`.
pub fn lab_scale(seed: u64, scale: f64) -> rocmesh::Workload {
    rocmesh::Workload::lab_scale_motor_scaled(seed, scale)
}

/// Every pane of the lab-scale problem registered on one rank's windows:
/// `genx::setup::{assign, declare_windows_for, register_and_init_for}`.
pub fn lab_scale_windows(workload: &rocmesh::Workload) -> Windows {
    use genx::setup::{assign, declare_windows_for, register_and_init_for, FluidKind, SolidKind};
    let mine = assign(workload, 1).remove(0);
    let mut ws = Windows::new();
    declare_windows_for(&mut ws, FluidKind::Rocflo, SolidKind::Rocfrac).expect("declare windows");
    register_and_init_for(&mut ws, workload, &mine, FluidKind::Rocflo).expect("register panes");
    ws
}

/// The same windows with their schemas declared and no panes yet — what
/// a restart applies blocks onto.
pub fn empty_windows() -> Windows {
    use genx::setup::{declare_windows_for, FluidKind, SolidKind};
    let mut ws = Windows::new();
    declare_windows_for(&mut ws, FluidKind::Rocflo, SolidKind::Rocfrac).expect("declare windows");
    ws
}

/// The three GENx window names in snapshot order.
pub const WINDOWS: [&str; 3] = [
    genx::setup::FLUID_WINDOW,
    genx::setup::SOLID_WINDOW,
    genx::setup::BURN_WINDOW,
];

// -- roccom -------------------------------------------------------------

/// `roccom::convert::window_to_blocks(window, &AttrRef::All)`.
pub fn window_to_blocks(window: &Window) -> Vec<DataBlock> {
    roccom::convert::window_to_blocks(window, &AttrRef::All).expect("window_to_blocks")
}

/// `roccom::convert::apply_block`.
pub fn apply_block(window: &mut Window, block: &DataBlock) {
    roccom::convert::apply_block(window, block).expect("apply_block")
}

// -- rocio-core ---------------------------------------------------------

/// `rocio_core::Checksum::of_block`.
pub fn checksum_of_block(block: &DataBlock) -> u64 {
    Checksum::of_block(block).0
}

// -- rocsdf -------------------------------------------------------------

/// `rocsdf::encode_dataset_segments` with a pooled header buffer.
pub fn sdf_encode(ds: &Dataset, pool: &mut SegmentPool, out: &mut Vec<Segment>) {
    rocsdf::encode_dataset_segments(ds, None, None, pool.take(), out);
}

/// `rocsdf::decode_dataset_shared`.
pub fn sdf_decode(record: &Bytes) -> Dataset {
    let mut pos = 0;
    rocsdf::decode_dataset_shared(record, &mut pos).expect("decode_dataset_shared")
}

/// `SdfFileWriter::create` (HDF4 cost model, client 0, virtual time 0).
pub fn sdf_create<'fs>(fs: &'fs SharedFs, path: &str) -> SdfFileWriter<'fs> {
    SdfFileWriter::create(fs, path, LibraryModel::hdf4(), 0, 0.0)
        .expect("SdfFileWriter::create")
        .0
}

/// `SdfFileWriter::append_block`.
pub fn sdf_append_block(writer: &mut SdfFileWriter<'_>, block: &DataBlock) {
    writer.append_block(block, 0.0).expect("append_block");
}

/// `SdfFileWriter::finish`.
pub fn sdf_finish(writer: &mut SdfFileWriter<'_>) {
    writer.finish(0.0).expect("finish");
}

/// `SdfFileReader::open`; a repeat open by the same `client` is warm.
pub fn sdf_open<'fs>(fs: &'fs SharedFs, path: &str, client: u64) -> SdfFileReader<'fs> {
    SdfFileReader::open(fs, path, LibraryModel::hdf4(), client, 0.0)
        .expect("SdfFileReader::open")
        .0
}

/// `SdfFileReader::block_ids`.
pub fn sdf_block_ids(reader: &SdfFileReader<'_>) -> Vec<BlockId> {
    reader.block_ids()
}

/// `SdfFileReader::read_block_shared`.
pub fn sdf_read_block(reader: &SdfFileReader<'_>, id: BlockId) -> DataBlock {
    reader
        .read_block_shared(id, 0.0)
        .expect("read_block_shared")
        .0
}

/// `SdfFileReader::read_blocks_sieved`.
pub fn sdf_read_sieved(reader: &SdfFileReader<'_>, ids: &[BlockId]) -> Vec<DataBlock> {
    reader
        .read_blocks_sieved(ids, 0.0)
        .expect("read_blocks_sieved")
        .0
}

// -- rocstore -----------------------------------------------------------

/// `SharedFs::turing` — the Turing NFS disk model every workload uses.
pub fn store_turing() -> SharedFs {
    SharedFs::turing()
}

/// `SharedFs::create`.
pub fn store_create(fs: &SharedFs, path: &str) {
    fs.create(path, 0, 0.0);
}

/// `SharedFs::append_segments`.
pub fn store_append(fs: &SharedFs, path: &str, segments: &[Segment]) {
    fs.append_segments(path, segments, 0, 0.0)
        .expect("append_segments");
}

/// `SharedFs::file_size`.
pub fn store_file_size(fs: &SharedFs, path: &str) -> usize {
    fs.file_size(path).expect("file_size")
}

/// `SharedFs::list`.
pub fn store_list(fs: &SharedFs, prefix: &str) -> Vec<String> {
    fs.list(prefix)
}

/// `SharedFs::write_at` (the corruption tests flip a byte with it).
pub fn store_write_at(fs: &SharedFs, path: &str, offset: usize, data: &[u8]) {
    fs.write_at(path, offset, data, 0, 0.0).expect("write_at");
}

/// `SharedFs::read_shared`.
pub fn store_read(fs: &SharedFs, path: &str, offset: usize, len: usize) -> Bytes {
    fs.read_shared(path, offset, len, 0, 0.0)
        .expect("read_shared")
        .0
}

/// `SharedFs::read_sieved`.
pub fn store_read_sieved(
    fs: &SharedFs,
    path: &str,
    ranges: &[(usize, usize)],
    max_gap: usize,
) -> Vec<Bytes> {
    fs.read_sieved(path, ranges, 0.0, max_gap, 0, 0.0)
        .expect("read_sieved")
        .0
}

/// `ReadCostModel::from_disk(fs.model()).max_gap()` — the hole size the
/// sieve reads through.
pub fn store_max_gap(fs: &SharedFs) -> usize {
    ReadCostModel::from_disk(fs.model()).max_gap()
}

/// `SievePlan::build`.
pub fn sieve_plan(ranges: &[(usize, usize)], max_gap: usize) -> SievePlan {
    SievePlan::build(ranges, max_gap)
}

/// `SharedFs::stats`.
pub fn store_stats(fs: &SharedFs) -> FsStats {
    fs.stats()
}

// -- rocpanda -----------------------------------------------------------

/// `BlockMsg::encode_segments` — the client-side wire image of a block.
pub fn panda_encode(msg: &BlockMsg, pool: &mut SegmentPool, out: &mut Vec<Segment>) {
    msg.encode_segments(pool, out);
}

/// `BlockMsg::decode_shared` — the server-side zero-copy decode.
pub fn panda_decode(wire: &Bytes) -> BlockMsg {
    BlockMsg::decode_shared(wire).expect("BlockMsg::decode_shared")
}

/// A `BlockMsg` for `block` (public fields `snap`, `window`, `block`).
pub fn panda_msg(block: &DataBlock) -> BlockMsg {
    BlockMsg {
        snap: SnapshotId::new(0, 0),
        window: block.window.clone(),
        block: block.clone(),
    }
}

// -- rocnet -------------------------------------------------------------

/// `rocnet::run_ranks_sched` on `ClusterSpec::turing(n)` under
/// `SchedConfig::pooled()`.
pub fn run_ranks<T: Send>(n: usize, f: impl Fn(Comm) -> T + Send + Sync) -> Vec<T> {
    rocnet::run_ranks_sched(n, ClusterSpec::turing(n), &SchedConfig::pooled(), f)
}

/// `Comm::sendrecv`.
pub fn sendrecv(comm: &Comm, dst: usize, src: usize, tag: u32, payload: &[u8]) -> Bytes {
    comm.sendrecv(dst, src, tag, payload)
        .expect("sendrecv")
        .payload
}

/// `Comm::send`.
pub fn send(comm: &Comm, dst: usize, tag: u32, payload: &[u8]) {
    comm.send(dst, tag, payload).expect("send");
}

/// `Comm::send_bytes`.
pub fn send_bytes(comm: &Comm, dst: usize, tag: u32, payload: Bytes) {
    comm.send_bytes(dst, tag, payload).expect("send_bytes");
}

/// `Comm::recv`; `src: None` is the wildcard receive.
pub fn recv(comm: &Comm, src: Option<usize>, tag: u32) -> Bytes {
    comm.recv(src, Some(tag)).expect("recv").payload
}

/// `Comm::allreduce_sum_f64`.
pub fn allreduce_sum(comm: &Comm, x: f64) -> f64 {
    comm.allreduce_sum_f64(x).expect("allreduce_sum_f64")
}

/// `Comm::barrier`.
pub fn barrier(comm: &Comm) {
    comm.barrier().expect("barrier");
}

/// `Comm::now` — the rank's virtual clock.
pub fn vnow(comm: &Comm) -> SimTime {
    comm.now()
}

/// `(msgs_recv, bytes_recv)` from `Comm::stats`.
pub fn recv_stats(comm: &Comm) -> (u64, u64) {
    let s = comm.stats();
    (s.msgs_recv, s.bytes_recv)
}

/// Install a `rocobs` span handle for this rank thread, as
/// `run_genx_traced` does: `TraceCollector::handle(..).install()`.
pub fn install_tracing(comm: &Comm, tc: &TraceCollector) -> rocobs::InstallGuard {
    let rank = comm.global_rank();
    tc.handle(rank, rocobs::LANE_MAIN, comm.cluster().node_of(rank))
        .install()
}
