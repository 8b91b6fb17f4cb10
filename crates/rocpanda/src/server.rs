//! The Rocpanda server routine: active buffering + adaptive probing,
//! shared by every admitted tenant.
//!
//! One server rank serves the clients of *all* tenants attached to the
//! service, and what it knows is two collections of records:
//!
//! * one `FileRecord` per output file — `(tenant, snapshot, window)`, a
//!   `FileKey` — holding the writer and its progress counters, the blocks
//!   each client still owes, the restart requests collected so far, and
//!   the restart rounds it has flush tokens for. Retiring a snapshot resets
//!   that one value; closing a restart round drops one entry inside it.
//! * one `Tenant` per admitted job — its client layout, drain queue,
//!   deficit, sticky drain error, shutdown flag and drain telemetry. The
//!   background drain runs deficit round-robin across tenants, so one
//!   job's burst cannot starve another's snapshot.
//!
//! Beside them there is only the rank → tenant lookup and the drain ring
//! (which tenants have queued blocks, in service order). A file's key is
//! built once per message and shared by handle from there on: the queue
//! and the rounds name a file, they do not copy its name.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use rocio_core::{BlockDesc, BlockId, Cursor, Priority, Result, RocError, Rope, SnapshotId, TenantId};
use rocnet::{Comm, Message};
use rocsdf::{BlockView, Fetch, SdfFileReader, SdfFileWriter};
use rocstore::SharedFs;

use crate::config::RocpandaConfig;
use crate::net::PandaNet;
use crate::wire::{self, tag, BlockMsgView, CoordKey, ReadReq, WriteReq};

/// How long (virtual seconds) a shutting-down server keeps re-acking
/// trailing retransmissions before exiting: comfortably past the largest
/// backed-off retransmit interval, so a client still draining its last
/// frames always finds the server listening. Virtual idle time — a clean
/// fabric never enters this path.
const LINGER_QUIET: f64 = 0.32;

/// Deficit-round-robin base quantum: bytes a weight-1 tenant may drain
/// per scheduler round. Small enough that a multi-megabyte burst from
/// one tenant interleaves with its peers at block granularity, large
/// enough that a typical block drains without a full ring rotation.
const DRR_QUANTUM: u64 = 64 * 1024;

/// Modelled server CPU cost (seconds) to process one incoming block
/// message — unpack, registry bookkeeping, buffer insertion. Calibrated so
/// Fig. 3(a)'s apparent-throughput curve lands near the paper's.
const SERVER_BLOCK_OVERHEAD: f64 = 0.80e-3;

/// Modelled memory-copy bandwidth (bytes/s) at the server: buffering a
/// block, submitting it to the file system.
const SERVER_COPY_BW: f64 = 300e6;

/// Name of one output file: (tenant, snapshot, window). Including the
/// tenant keeps concurrent jobs that write the same window name apart.
/// Ordered, so walking the records visits files — and issues their
/// file-system operations — in one deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct FileKey {
    tenant: TenantId,
    snap: SnapshotId,
    window: String,
}

impl FileKey {
    fn coord(&self, epoch: u32) -> CoordKey {
        CoordKey {
            tenant: self.tenant,
            snap: self.snap,
            window: self.window.clone(),
            epoch,
        }
    }
}

/// One tenant's client layout as seen by one server.
#[derive(Debug, Clone)]
pub(crate) struct TenantLane {
    pub id: TenantId,
    pub priority: Priority,
    /// All world ranks of this tenant's clients (restart requests and
    /// control messages arrive from any of them).
    pub clients: Vec<usize>,
    /// The subset of `clients` attached to this server for writes.
    pub my_clients: Vec<usize>,
}

/// Everything this server knows about one admitted tenant. Dies with the
/// server: a tenant's lane is fixed at attach.
struct Tenant {
    lane: TenantLane,
    /// Buffered blocks awaiting the drain, oldest first.
    queue: VecDeque<Queued>,
    /// DRR byte deficit: accumulates across rotations, so any block
    /// eventually drains regardless of size; forgotten when the queue
    /// empties — credit must not accumulate while idle.
    deficit: u64,
    /// Sticky drain failure, reported on the tenant's next sync and then
    /// cleared so the tenant can recover (e.g. by retiring old snapshots
    /// to release quota).
    error: Option<String>,
    /// The tenant has initiated shutdown; the loop exits when all have.
    shutdown: bool,
    drained: TenantDrainStats,
}

/// Everything this server knows about one output file, from the first
/// message that names it. The write half dies when the snapshot is
/// retired; `epoch` and `rounds` outlive the file, because the servers
/// match their flush tokens on them.
#[derive(Default)]
struct FileRecord<'fs> {
    writer: Option<SdfFileWriter<'fs>>,
    /// Sum of block counts announced by WRITE_REQs so far.
    expected_blocks: u32,
    /// WRITE_REQs received (file is complete once every group client has
    /// announced and every announced block is written).
    reqs_received: usize,
    blocks_written: u32,
    /// Blocks disposed of without reaching storage because the file
    /// failed (e.g. the tenant ran out of quota mid-snapshot). Counted so
    /// completion tracking still converges and the protocol stays live.
    blocks_dropped: u32,
    finished: bool,
    /// The file hit a per-tenant service failure; remaining blocks are
    /// dropped and the error is reported on the tenant's next sync.
    failed: bool,
    /// Client world rank → blocks it announced and has not sent yet.
    pending: HashMap<usize, u32>,
    /// Restart requests collected for the round about to be served.
    read_reqs: Vec<(usize, Vec<u64>)>,
    /// Completed restart rounds: the coordination epoch, which tells
    /// *repeated* restarts of one snapshot apart on the wire.
    epoch: u32,
    /// Restart rounds this server has flush tokens for, by epoch — its
    /// own round, or one a peer has entered first.
    rounds: BTreeMap<u32, Round>,
}

/// One restart round's server↔server coordination.
#[derive(Default)]
struct Round {
    /// This server's flush token is out.
    flushed: bool,
    /// Flush tokens collected, this server's included.
    tokens: usize,
}

type Files<'fs> = BTreeMap<Arc<FileKey>, FileRecord<'fs>>;

/// The record of a file that a message or a queued block names.
fn record<'m, 'fs>(files: &'m mut Files<'fs>, key: &FileKey) -> Result<&'m mut FileRecord<'fs>> {
    files.get_mut(key).ok_or_else(|| {
        RocError::InvalidState(format!(
            "panda server: no record of {}/{} for tenant {}",
            key.window, key.snap, key.tenant
        ))
    })
}

/// Aggregate server statistics for experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    pub blocks_buffered: u64,
    pub blocks_written: u64,
    pub files_finished: u64,
    pub buffer_overflows: u64,
    pub restart_blocks_sent: u64,
}

/// Per-tenant drain telemetry: how long buffered blocks sat in the
/// server's queue before reaching storage. The fairness experiments
/// compare these across tenants — under deficit round-robin, equal
/// priority tenants should see comparable mean drain latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantDrainStats {
    /// Blocks drained to storage for this tenant.
    pub blocks: u64,
    /// Encoded bytes drained.
    pub bytes: u64,
    /// Sum of per-block (drain time − enqueue time), virtual seconds.
    pub total_latency: f64,
    /// Worst single-block queueing delay, virtual seconds.
    pub max_latency: f64,
}

impl TenantDrainStats {
    /// Mean per-block queueing delay (0 when nothing drained).
    pub fn mean_latency(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total_latency / self.blocks as f64
        }
    }
}

/// A block waiting in a tenant's drain queue: read where it lies, its
/// records windows of the message it came in.
struct Queued {
    key: Arc<FileKey>,
    block: BlockView,
    /// The block's encoded size ([`rocio_core::BlockDesc::encoded_size`]),
    /// computed once at intake: what the tenant's DRR deficit is charged,
    /// the disk submit is charged for and the drain stats count.
    size: usize,
    /// Wire bytes `enqueue` added to `buffered_bytes`; the drain gives
    /// back exactly this.
    charged: usize,
    /// Virtual time the block entered the queue (drain-latency stats).
    enqueued: f64,
}

/// A dedicated I/O server. Handed out by [`crate::PandaService::attach`] to
/// each rank of the service's pool; drive it with [`PandaServer::run`],
/// which returns after every tenant has initiated shutdown.
pub struct PandaServer<'a> {
    world: &'a Comm,
    /// Data-plane transport to the clients (raw, or reliable when
    /// `cfg.faulty_net` is set). Every protocol message goes through here.
    net: PandaNet<'a>,
    /// Communicator over the server group (restart-time coordination).
    /// Stays raw: fault injection targets context 0 only.
    server_comm: Comm,
    fs: &'a SharedFs,
    cfg: RocpandaConfig,
    /// This server's index among the servers (names its output files).
    pub(crate) server_index: usize,
    server_ranks: Vec<usize>,
    /// The admitted tenants.
    tenants: BTreeMap<TenantId, Tenant>,
    /// Client world rank → owning tenant.
    tenant_of_rank: HashMap<usize, TenantId>,
    /// The output files this server has heard of.
    files: Files<'a>,
    /// Tenants with queued blocks, in service order.
    drain_ring: VecDeque<TenantId>,
    /// Total blocks across all drain queues.
    queued_total: usize,
    /// Buffer occupancy: wire bytes of every queued block, compared
    /// against `cfg.buffer_capacity`. Zero whenever the queues are empty.
    pub(crate) buffered_bytes: usize,
    /// Latest virtual completion time of any disk write this server
    /// issued. Background writes charge the server CPU only a submit
    /// cost; the disk ledger carries the transfer, and this watermark is
    /// merged into the clock at durability points (sync, restart,
    /// shutdown).
    disk_completion: f64,
    stats: ServerStats,
}

impl<'a> PandaServer<'a> {
    pub(crate) fn new(
        world: &'a Comm,
        server_comm: Comm,
        fs: &'a SharedFs,
        cfg: RocpandaConfig,
        server_index: usize,
        server_ranks: Vec<usize>,
        lanes: Vec<TenantLane>,
    ) -> Self {
        let mut tenant_of_rank = HashMap::new();
        for lane in &lanes {
            for &c in &lane.clients {
                tenant_of_rank.insert(c, lane.id);
            }
        }
        let tenants = lanes.into_iter().map(|lane| {
            let tenant = Tenant {
                lane,
                queue: VecDeque::new(),
                deficit: 0,
                error: None,
                shutdown: false,
                drained: TenantDrainStats::default(),
            };
            (tenant.lane.id, tenant)
        });
        PandaServer {
            world,
            net: PandaNet::new(world, cfg.faulty_net.is_some()),
            server_comm,
            fs,
            cfg,
            server_index,
            server_ranks,
            tenants: tenants.collect(),
            tenant_of_rank,
            files: BTreeMap::new(),
            drain_ring: VecDeque::new(),
            queued_total: 0,
            buffered_bytes: 0,
            disk_completion: 0.0,
            stats: ServerStats::default(),
        }
    }

    /// World ranks of the clients attached to this server, all tenants.
    pub fn client_ranks(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .tenants
            .values()
            .flat_map(|t| t.lane.my_clients.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Per-tenant drain-latency telemetry of the tenants that have drained
    /// a block, sorted by tenant id.
    pub fn drain_stats(&self) -> Vec<(TenantId, TenantDrainStats)> {
        let drained = self.tenants.iter().filter(|(_, t)| t.drained.blocks > 0);
        drained.map(|(id, t)| (*id, t.drained)).collect()
    }

    fn tenant_of(&self, rank: usize) -> Result<TenantId> {
        self.tenant_of_rank.get(&rank).copied().ok_or_else(|| {
            RocError::Comm(format!("panda server: message from unknown client rank {rank}"))
        })
    }

    fn tenant(&mut self, tenant: TenantId) -> Result<&mut Tenant> {
        self.tenants.get_mut(&tenant).ok_or_else(|| {
            RocError::InvalidState(format!("panda server: unknown tenant {tenant}"))
        })
    }

    /// How many of `tenant`'s clients write through this server.
    fn group(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |t| t.lane.my_clients.len())
    }

    /// The handle of the file a message names, its record made on first
    /// mention. The one place a key is stored; everything else holds this.
    fn file(&mut self, key: FileKey) -> Arc<FileKey> {
        if let Some((held, _)) = self.files.get_key_value(&key) {
            return Arc::clone(held);
        }
        let held = Arc::new(key);
        self.files.insert(Arc::clone(&held), FileRecord::default());
        held
    }

    /// The server main loop (§6.1): handle requests, and between handling
    /// them write buffered blocks out. "When there are data to write,
    /// servers use the non-blocking MPI probe interface … when there are no
    /// data to write, the servers use the blocking probe interface, so that
    /// the server processes block until new client messages arrive and the
    /// operating system can use the server CPUs."
    pub fn run(&mut self) -> Result<ServerStats> {
        loop {
            let msg = if self.queued_total == 0 {
                // Idle: block until something arrives.
                let _ = self.net.probe(None, None);
                Some(self.net.recv_rope(None, None)?)
            } else if self.cfg.responsive_probe {
                // Writing, but stay responsive: peek, else write one block.
                if self.net.iprobe(None, None).is_some() {
                    Some(self.net.recv_rope(None, None)?)
                } else {
                    self.write_one()?;
                    None
                }
            } else {
                // Ablation: drain everything before looking at the network.
                while self.queued_total > 0 {
                    self.write_one()?;
                }
                None
            };
            if let Some(msg) = msg {
                if !self.handle(msg)? {
                    break;
                }
            }
        }
        // Degraded-fabric teardown. Every reply this server sent is
        // causally proven delivered (the shutdown barrier follows all
        // client exchanges), so pending retransmit state can be dropped;
        // then keep re-acking clients' trailing retransmissions until the
        // fabric goes quiet, so a draining client never stalls.
        self.net.abandon();
        self.net.linger(LINGER_QUIET);
        Ok(self.stats)
    }

    /// Take in one `BLOCK` message from client `src`: buffer (or write
    /// through) its block, acknowledge, and finish the file if it was the
    /// last.
    fn on_block(&mut self, src: usize, wire: &Rope) -> Result<()> {
        let tenant = self.tenant_of(src)?;
        // Zero-copy intake: the message is walked once — every header
        // checked, no payload read — and held as a view of the message's
        // parts (the client's own buffers). They are file records already,
        // `__crc32__` included, so the drain appends them as they lie: no
        // snapshot byte is copied or checksummed between the client's
        // encode and the file image; the client checks it at restart.
        let BlockMsgView { snap, window, block } = BlockMsgView::walk_whole(wire)?;
        let size = block.encoded_size();
        let key = self.file(FileKey { tenant, snap, window: window.into_owned() });
        // Server CPU cost of taking the block in.
        let bytes = wire.len();
        let t_fill0 = self.world.now();
        self.world
            .advance(SERVER_BLOCK_OVERHEAD + bytes as f64 / SERVER_COPY_BW);
        if self.cfg.active_buffering {
            self.stats.blocks_buffered += 1;
            self.enqueue(Arc::clone(&key), block, size, bytes)?;
            if rocobs::enabled() {
                rocobs::record(
                    rocobs::SpanCategory::BufferFill,
                    "buffer_fill",
                    t_fill0,
                    self.world.now(),
                    &format!(
                        "bytes={bytes} occupancy={} queued={}",
                        self.buffered_bytes, self.queued_total
                    ),
                );
            }
            // Graceful overflow: write old data out to make room.
            while self.buffered_bytes > self.cfg.buffer_capacity && self.queued_total > 0 {
                self.stats.buffer_overflows += 1;
                self.write_one()?;
            }
        } else {
            self.write_checked(&key, &block, size)?;
        }
        self.net.send(src, tag::ACK, &[])?;
        let pending = &mut record(&mut self.files, &key)?.pending;
        if let Some(rem) = pending.get_mut(&src) {
            *rem -= 1;
            if *rem == 0 {
                pending.remove(&src);
                self.net.send(src, tag::DONE, &[])?;
            }
        }
        self.maybe_finish(&key)
    }

    /// Handle one client message. Only `BLOCK` carries payload worth
    /// keeping in parts; every other message is one part, so flattening it
    /// is free.
    fn handle(&mut self, msg: Message<Rope>) -> Result<bool> {
        if msg.tag == tag::BLOCK {
            return self.on_block(msg.src, &msg.payload).map(|()| true);
        }
        let msg = msg.flatten();
        let tenant = self.tenant_of(msg.src)?;
        match msg.tag {
            tag::WRITE_REQ => {
                let WriteReq { snap, window, n_blocks } = WriteReq::decode(&msg.payload)?;
                let key = self.file(FileKey { tenant, snap, window });
                let rec = record(&mut self.files, &key)?;
                rec.expected_blocks += n_blocks;
                rec.reqs_received += 1;
                if n_blocks == 0 {
                    // Nothing coming from this client: release it now.
                    self.net.send(msg.src, tag::DONE, &[])?;
                } else {
                    rec.pending.insert(msg.src, n_blocks);
                }
                self.maybe_finish(&key)?;
                Ok(true)
            }
            tag::SYNC => {
                self.flush_all()?;
                // Durability is reported in the payload rather than by
                // advancing this server's clock: another client may still
                // be mid-write, and charging the shared clock with disk
                // time would inflate its acknowledgement stamps. A sticky
                // drain failure for the syncing tenant is reported here —
                // and cleared, so the tenant can recover by releasing
                // quota (retire) and retrying.
                let reply = match self.tenant(tenant)?.error.take() {
                    Some(text) => Err(text),
                    None => Ok(self.disk_completion),
                };
                self.net
                    .send(msg.src, tag::SYNC_ACK, &wire::encode_sync_ack(&reply))?;
                Ok(true)
            }
            tag::READ_REQ => {
                let ReadReq { snap, window, ids } = ReadReq::decode(&msg.payload)?;
                let key = self.file(FileKey { tenant, snap, window });
                let n_clients = self.tenant(tenant)?.lane.clients.len();
                let requests = &mut record(&mut self.files, &key)?.read_reqs;
                requests.push((msg.src, ids));
                if requests.len() == n_clients {
                    self.serve_restart(&key)?;
                }
                Ok(true)
            }
            tag::RETIRE => {
                let snap = wire::decode_retire(&msg.payload)?;
                // Deleting requires durability of that snapshot first.
                self.flush_all()?;
                let of_snap = |k: &&Arc<FileKey>| k.tenant == tenant && k.snap == snap;
                let keys: Vec<Arc<FileKey>> = self.files.keys().filter(of_snap).cloned().collect();
                for key in keys {
                    let rec = record(&mut self.files, &key)?;
                    if !rec.finished {
                        continue;
                    }
                    let path =
                        self.cfg
                            .path_for(key.tenant, &key.window, key.snap, self.server_index);
                    if self.fs.exists(&path) {
                        self.fs.delete(&path)?;
                    }
                    // The file is gone and its record with it — but for
                    // the restart rounds its name has been through, which
                    // the peers count too and match flush tokens on.
                    let (epoch, rounds) = (rec.epoch, std::mem::take(&mut rec.rounds));
                    if epoch == 0 && rounds.is_empty() {
                        self.files.remove(&*key);
                    } else {
                        *rec = FileRecord { epoch, rounds, ..FileRecord::default() };
                    }
                }
                self.net.send(msg.src, tag::RETIRE_ACK, &[])?;
                Ok(true)
            }
            tag::SHUTDOWN => {
                self.flush_all()?;
                self.tenant(tenant)?.shutdown = true;
                // Stay up until every admitted tenant has shut down.
                Ok(self.tenants.values().any(|t| !t.shutdown))
            }
            other => Err(RocError::Comm(format!(
                "panda server: unexpected tag {other:#x} from rank {}",
                msg.src
            ))),
        }
    }

    /// Queue a buffered block on its tenant's drain lane, charging the
    /// buffer the `charged` wire bytes the block arrived as.
    fn enqueue(
        &mut self,
        key: Arc<FileKey>,
        block: BlockView,
        size: usize,
        charged: usize,
    ) -> Result<()> {
        let (id, enqueued) = (key.tenant, self.world.now());
        let on_ring = self.drain_ring.contains(&id);
        let tenant = self.tenant(id)?;
        tenant.queue.push_back(Queued { key, block, size, charged, enqueued });
        if !on_ring {
            self.drain_ring.push_back(id);
        }
        self.buffered_bytes += charged;
        self.queued_total += 1;
        Ok(())
    }

    /// Deficit-round-robin pick: serve the ring-head tenant if its
    /// accumulated deficit covers its oldest block, otherwise top the
    /// deficit up by one priority-weighted quantum and rotate. Deficits
    /// persist across rotations, so a block larger than any quantum still
    /// drains after finitely many rounds — no tenant starves.
    fn pop_next(&mut self) -> Option<Queued> {
        loop {
            let tenant = self.tenants.get_mut(self.drain_ring.front()?)?;
            let Some(head) = tenant.queue.front() else {
                // Lane drained: off the ring, its credit forgotten.
                self.drain_ring.pop_front();
                tenant.deficit = 0;
                continue;
            };
            let head_size = head.size as u64;
            if tenant.deficit >= head_size {
                tenant.deficit -= head_size;
                self.queued_total -= 1;
                return tenant.queue.pop_front();
            }
            tenant.deficit += u64::from(tenant.lane.priority.weight()) * DRR_QUANTUM;
            self.drain_ring.rotate_left(1);
        }
    }

    /// Write the oldest eligible buffered block out (DRR across tenants).
    fn write_one(&mut self) -> Result<()> {
        let Some(item) = self.pop_next() else {
            return Ok(());
        };
        let t0 = self.world.now();
        self.buffered_bytes -= item.charged;
        let size = item.size as u64;
        self.write_checked(&item.key, &item.block, item.size)?;
        let latency = self.world.now() - item.enqueued;
        let ds = &mut self.tenant(item.key.tenant)?.drained;
        ds.blocks += 1;
        ds.bytes += size;
        ds.total_latency += latency;
        ds.max_latency = ds.max_latency.max(latency);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::BufferDrain,
                "buffer_drain",
                t0,
                self.world.now(),
                &format!(
                    "bytes={} occupancy={} queued={}",
                    size, self.buffered_bytes, self.queued_total
                ),
            );
        }
        self.maybe_finish(&item.key)
    }

    /// Write a block, absorbing per-tenant service failures: a quota
    /// rejection marks the file failed, records a sticky error for the
    /// tenant's next sync, and drops this and all remaining blocks of the
    /// file — the protocol (ACK/DONE) stays live so no client hangs, and
    /// other tenants are untouched. Non-service errors still propagate.
    fn write_checked(&mut self, key: &FileKey, block: &BlockView, size: usize) -> Result<()> {
        let rec = record(&mut self.files, key)?;
        if rec.failed {
            rec.blocks_dropped += 1;
            return Ok(());
        }
        match self.write_block(key, block, size) {
            Err(RocError::Service(se)) => {
                self.tenant(key.tenant)?.error.get_or_insert_with(|| se.to_string());
                let rec = record(&mut self.files, key)?;
                rec.failed = true;
                rec.blocks_dropped += 1;
                // Abandon the partial writer: finishing it would charge
                // yet more bytes to an exhausted quota.
                rec.writer = None;
                Ok(())
            }
            other => other,
        }
    }

    /// Append a block to its file: its file records as they arrived, in
    /// one scatter-gather write of the message's windows. `size` is its
    /// encoded size.
    fn write_block(&mut self, key: &FileKey, block: &BlockView, size: usize) -> Result<()> {
        let client_id = self.world.global_rank() as u64;
        // All dedicated servers write concurrently.
        self.fs.declare_writers(self.server_ranks.len());
        // CPU submit cost: hand the bytes to the file system.
        let t_submit0 = self.world.now();
        self.world.advance(size as f64 / SERVER_COPY_BW);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::DiskSubmit,
                "disk_submit",
                t_submit0,
                self.world.now(),
                &format!("bytes={size}"),
            );
        }
        let synchronous = !self.cfg.active_buffering;
        let rec = record(&mut self.files, key)?;
        let writer = match &mut rec.writer {
            Some(writer) => writer,
            none => {
                let path = self
                    .cfg
                    .path_for(key.tenant, &key.window, key.snap, self.server_index);
                let (w, t) =
                    SdfFileWriter::create(self.fs, &path, self.cfg.lib, client_id, self.world.now())?;
                self.disk_completion = self.disk_completion.max(t);
                none.insert(w)
            }
        };
        let t = writer.append_view(block, self.world.now())?;
        self.disk_completion = self.disk_completion.max(t);
        if synchronous {
            // Write-through mode (ablation): the block is durable before
            // the server acknowledges it.
            self.world.advance_to(t);
        }
        rec.blocks_written += 1;
        self.stats.blocks_written += 1;
        Ok(())
    }

    /// Finish (index + close) a file once every group client has announced
    /// and every announced block is on disk (or dropped, for a failed
    /// file). A failed file is marked finished so retire can reap it, but
    /// its writer was abandoned and it does not count as finished output.
    /// A server none of the tenant's clients write through has no file to
    /// finish, whatever restart traffic has named it.
    fn maybe_finish(&mut self, key: &FileKey) -> Result<()> {
        let group = self.group(key.tenant);
        let rec = record(&mut self.files, key)?;
        if !rec.finished
            && group > 0
            && rec.reqs_received == group
            && rec.blocks_written + rec.blocks_dropped == rec.expected_blocks
        {
            if let Some(mut w) = rec.writer.take() {
                let t = w.finish(self.world.now())?;
                self.disk_completion = self.disk_completion.max(t);
                if !self.cfg.active_buffering {
                    self.world.advance_to(t);
                }
            }
            rec.finished = true;
            if !rec.failed {
                self.stats.files_finished += 1;
            }
        }
        Ok(())
    }

    /// Drain every tenant's buffer and finish every completable file, in
    /// key order. Durability is tracked in `disk_completion`; the server
    /// clock is deliberately not advanced (see the SYNC handler).
    fn flush_all(&mut self) -> Result<()> {
        while self.queued_total > 0 {
            self.write_one()?;
        }
        let keys: Vec<Arc<FileKey>> = self.files.keys().cloned().collect();
        for key in keys {
            self.maybe_finish(&key)?;
        }
        Ok(())
    }

    /// Collective restart: every one of this tenant's clients' id lists
    /// is in. Ship the requested blocks to their owners from the files on
    /// disk (§4.1).
    ///
    /// The round-robin file assignment makes a server read files that
    /// *other* servers wrote, so every server must have flushed before
    /// anyone scans. Each server flushes, then trades flush tokens keyed
    /// by (tenant, snapshot, window, epoch), collected in a wait loop that
    /// answers *other* rounds' tokens on receipt — so two servers entering
    /// different tenants' restarts in opposite orders cannot deadlock, and
    /// tokens from concurrent rounds never mix.
    ///
    /// Failures (missing, truncated or corrupted files) are *reported* to
    /// the requesting clients as `READ_ERR` rather than propagated: the
    /// clients surface the error from `read_attribute` and this server
    /// stays alive to serve the eventual sync/shutdown, so nobody hangs.
    fn serve_restart(&mut self, key: &Arc<FileKey>) -> Result<()> {
        let rec = record(&mut self.files, key)?;
        let (requests, epoch) = (std::mem::take(&mut rec.read_reqs), rec.epoch);
        let m = self.server_ranks.len();
        // The token goes out even when the flush failed, so a sibling
        // waiting on it cannot deadlock on our error.
        let prep = self.ensure_flushed(key, epoch);
        let wait = self.await_round(key, epoch, |round| round.tokens >= m);
        let result = prep.and(wait).and_then(|_| self.scan_and_ship(key, &requests));
        // The round is over on every server that reaches this point:
        // drop its coordination state and open the next epoch.
        let rec = record(&mut self.files, key)?;
        rec.rounds.remove(&epoch);
        rec.epoch += 1;
        if let Err(e) = result {
            let text = e.to_string();
            for (client, _) in &requests {
                self.net.send(*client, tag::READ_ERR, text.as_bytes())?;
            }
        }
        Ok(())
    }

    /// The coordination state of one restart round of `key`.
    fn round(&mut self, key: &FileKey, epoch: u32) -> Result<&mut Round> {
        Ok(record(&mut self.files, key)?.rounds.entry(epoch).or_default())
    }

    /// Serve the server group's coordination traffic — this round's and
    /// any other's — until this round is `done`.
    fn await_round(&mut self, key: &FileKey, epoch: u32, done: impl Fn(&Round) -> bool) -> Result<()> {
        while !done(self.round(key, epoch)?) {
            let msg = self.server_comm.recv(None, None)?;
            self.handle_coord(msg)?;
        }
        Ok(())
    }

    /// Send one coordination message to every other server.
    fn tell_peers(&self, tag: u32, payload: &[u8]) -> Result<()> {
        let mut peers = (0..self.server_ranks.len()).filter(|&r| r != self.server_comm.rank());
        peers.try_for_each(|r| self.server_comm.send(r, tag, payload))
    }

    /// Flush for one restart round and broadcast its token, at most once.
    /// The token always goes out — even on a flush error — so a peer
    /// blocked on it cannot deadlock; it will surface the same storage
    /// error from its own scan. The disk watermark is merged into the
    /// clock *before* the send, so every collected token carries its
    /// sender's durability point.
    fn ensure_flushed(&mut self, key: &FileKey, epoch: u32) -> Result<()> {
        if std::mem::replace(&mut self.round(key, epoch)?.flushed, true) {
            return Ok(());
        }
        let res = self.flush_all();
        self.world.advance_to(self.disk_completion);
        self.tell_peers(tag::FLUSH_TOKEN, &wire::encode_flush_token(&key.coord(epoch)))?;
        self.round(key, epoch)?.tokens += 1;
        res
    }

    /// Dispatch one server↔server coordination message. Called from any
    /// round's wait loop: a flush token for a round we haven't flushed
    /// triggers our flush now (token-on-receipt), which is what breaks
    /// the cross-tenant wait cycles.
    fn handle_coord(&mut self, msg: Message) -> Result<()> {
        match msg.tag {
            tag::FLUSH_TOKEN => {
                let CoordKey { tenant, snap, window, epoch } =
                    wire::decode_flush_token(&msg.payload)?;
                let key = self.file(FileKey { tenant, snap, window });
                // Every restart round reads from disk: flush our share now.
                self.ensure_flushed(&key, epoch)?;
                self.round(&key, epoch)?.tokens += 1;
                Ok(())
            }
            other => Err(RocError::Comm(format!(
                "panda server: unexpected server-group tag {other:#x} from {}",
                msg.src
            ))),
        }
    }

    /// Block id → requesting client. Every server sees every client's
    /// request, so a block claimed twice is raised symmetrically.
    fn owners(requests: &[(usize, Vec<u64>)]) -> Result<HashMap<u64, usize>> {
        let mut owner = HashMap::new();
        for (client, ids) in requests {
            for id in ids {
                if owner.insert(*id, *client).is_some() {
                    return Err(RocError::InvalidState(format!(
                        "restart: block {id} requested by two clients"
                    )));
                }
            }
        }
        Ok(owner)
    }

    /// End a restart round: each requesting client, in request order,
    /// gets its share as one `READ_BATCH` ([`BlockView::ship_batch`]; none
    /// when the share is empty), then `READ_DONE` with the count.
    fn ship(
        &mut self,
        per_client: &HashMap<usize, (u32, Rope)>,
        requests: &[(usize, Vec<u64>)],
    ) -> Result<()> {
        for (client, _) in requests {
            let n = match per_client.get(client) {
                Some((n, msgs)) => {
                    self.net.send_rope(*client, tag::READ_BATCH, BlockView::ship_batch(*n, msgs))?;
                    *n
                }
                None => 0,
            };
            self.stats.restart_blocks_sent += u64::from(n);
            self.net.send(*client, tag::READ_DONE, &wire::encode_read_done(n))?;
        }
        Ok(())
    }

    /// The fallible part of [`Self::serve_restart`]: scan this server's
    /// file share and ship requested blocks.
    fn scan_and_ship(&mut self, key: &FileKey, requests: &[(usize, Vec<u64>)]) -> Result<()> {
        // All servers scan their file shares concurrently.
        self.fs.declare_readers(self.server_ranks.len());
        let owner = Self::owners(requests)?;
        // "The restart files are assigned to the servers in a round-robin
        // manner."
        let files = self.fs.names(&self.cfg.prefix_for(key.tenant, &key.window, key.snap));
        if files.is_empty() {
            return Err(RocError::Storage(format!(
                "restart: no files for {}/{}",
                key.window, key.snap
            )));
        }
        let m = self.server_ranks.len();
        let client_id = self.world.global_rank() as u64;
        // Per-client count and messages of the blocks this server read,
        // accumulated across its file domains and shipped as one READ_BATCH.
        let mut per_client: HashMap<usize, (u32, Rope)> = HashMap::new();
        for (i, path) in files.iter().enumerate() {
            if i % m != self.server_index {
                continue;
            }
            let (reader, t) =
                SdfFileReader::open(self.fs, path, self.cfg.lib, client_id, self.world.now())?;
            self.world.advance_to(t);
            let present: Vec<BlockId> =
                reader.blocks().filter(|id| owner.contains_key(&id.0)).collect();
            if present.is_empty() {
                continue;
            }
            // The paper's access: one library lookup and one read per
            // record, block after block. The records are shipped as they
            // lie, unchecked: the client that owns a block checks it.
            let (records, t) = reader.read_blocks_raw(&present, Fetch::PerRange, self.world.now())?;
            self.world.advance_to(t);
            let mut records = Cursor::new(&records);
            for &id in &present {
                let (n, msgs) = per_client.entry(owner[&id.0]).or_default();
                BlockView::ship(id, reader.record_lens(id)?, &mut records, msgs)?;
                *n += 1;
            }
        }
        self.ship(&per_client, requests)
    }
}
