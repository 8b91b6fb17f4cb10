//! Concrete protocol configurations for schedule exploration.
//!
//! Each scenario builds a fresh oracle-driven fabric and virtual file
//! system, runs a small instance of the protocol under test, asserts its
//! internal invariants, and returns a *canonical* outcome fingerprint.
//!
//! # Canonical snapshot bytes
//!
//! A Rocpanda server appends blocks to its SDF file in handling order,
//! which is exactly what a schedule permutes — raw file bytes therefore
//! legitimately differ between equivalent schedules. What must not
//! differ is the snapshot's *content*: the set of files and, per file,
//! the set of datasets and their exact encoded bytes. Scenarios
//! canonicalize by decoding every dataset record, sorting by dataset
//! name, and re-encoding — byte-identity of that form is asserted across
//! all schedules. T-Rochdf files are written by a single rank in
//! deterministic order, so their raw bytes are fingerprinted directly.

use std::sync::Arc;

use rocio_core::{ArrayData, BlockId, Bytes, DType, SnapshotId};
use rocnet::cluster::ClusterSpec;
use rocnet::fabric::{Fabric, ScheduleOracle};
use rocnet::harness::run_on_fabric;
use rocnet::Comm;
use roccom::{AttrSelector, AttrSpec, IoService, PaneMesh, Windows};
use rochdf::{RochdfConfig, TRochdf};
use rocio_core::Priority;
use rocpanda::{JobSpec, PandaServiceBuilder, RocpandaConfig, ServiceRole};
use rocstore::SharedFs;

use crate::sched::{FaultScenario, Scenario, ScriptedFaults};

/// An SDF file body in canonical form: its dataset records (each decoded,
/// so checksum-verified) sorted by name. Index and trailer are dropped
/// (their offsets depend on append order); the records carry everything
/// semantic, including the per-record CRC attributes.
fn canonical_sdf(bytes: &Bytes) -> Vec<u8> {
    use rocsdf::format::{decode_dataset_shared, HEADER_LEN, IDX_MARKER};
    let mut pos = HEADER_LEN;
    let mut records = Vec::new();
    while pos < bytes.len() && !bytes[pos..].starts_with(IDX_MARKER) {
        let start = pos;
        match decode_dataset_shared(bytes, &mut pos) {
            Ok(ds) => records.push((ds.name, &bytes[start..pos])),
            Err(_) => break,
        }
    }
    records.sort();
    records.into_iter().flat_map(|(_, raw)| raw).copied().collect()
}

/// Fingerprint a set of files: sorted names, then per-file bytes run
/// through `canon`.
fn fingerprint_files(
    fs: &SharedFs,
    prefix: &str,
    canon: impl Fn(&Bytes) -> Vec<u8>,
) -> Vec<u8> {
    let mut out = Vec::new();
    for path in fs.list(prefix) {
        let (bytes, _) = fs
            .read_all_shared(&path, 0, 0.0)
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        out.extend_from_slice(path.as_bytes());
        out.push(0);
        let c = canon(&bytes);
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
        out.extend_from_slice(&c);
    }
    out
}

fn make_windows(blocks: &[u64]) -> Windows {
    let mut ws = Windows::new();
    let w = ws.create_window("fluid").expect("fresh window set");
    w.declare_attr(AttrSpec::element("p", DType::F64, 1))
        .expect("declare attr");
    for &id in blocks {
        w.register_pane(
            BlockId(id),
            PaneMesh::Structured {
                dims: [2, 2, 2],
                origin: [id as f64, 0.0, 0.0],
                spacing: [1.0; 3],
            },
        )
        .expect("register pane");
        w.pane_mut(BlockId(id))
            .expect("pane just registered")
            .set_data("p", ArrayData::F64(vec![id as f64 * 3.0 + 1.0; 8]))
            .expect("set data");
    }
    ws
}

fn install_obs(collector: &rocobs::TraceCollector, comm: &Comm) -> rocobs::InstallGuard {
    let rank = comm.global_rank();
    let node = comm.cluster().node_of(rank);
    collector.handle(rank, rocobs::LANE_MAIN, node).install()
}

/// The single-job Rocpanda write handshake on `fabric`, clean or lossy
/// alike: `n_servers` placed the way the paper places them, every other
/// rank admitted as the one job of a service configured by `cfg`, each
/// client shipping `panes` panes of one snapshot — and, with `restart`,
/// reading them back through the same servers onto scribbled-over panes.
/// Returns the canonical fingerprint of the snapshot files.
fn panda_handshake(
    fabric: &Arc<Fabric>,
    cfg: RocpandaConfig,
    n_servers: usize,
    panes: usize,
    restart: bool,
    collector: &rocobs::TraceCollector,
) -> Vec<u8> {
    let n = fabric.n_ranks();
    // First rank of each client group: rank 0, rank n/m, ...
    let server_ranks: Vec<usize> = (0..n_servers).map(|s| s * (n / n_servers)).collect();
    let fs = Arc::new(SharedFs::turing());
    let snap = SnapshotId::new(7, 1);
    let svc = PandaServiceBuilder::new(Arc::clone(&fs))
        .servers(&server_ranks)
        .config(cfg)
        .build()
        .expect("service build");
    svc.admit_world("handshake", n).expect("admit job");
    run_on_fabric(fabric, &|comm: Comm| {
        let _obs = install_obs(collector, &comm);
        match svc.attach(&comm).expect("service attach") {
            ServiceRole::Server(mut s) => {
                s.run().expect("server run");
            }
            ServiceRole::Client { io: mut c, comm: app, .. } => {
                let me = app.rank() as u64;
                let blocks: Vec<u64> = (0..panes as u64).map(|k| me * panes as u64 + k).collect();
                let mut ws = make_windows(&blocks);
                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap)
                    .expect("client write");
                if restart {
                    let written = ws.clone();
                    for pane in ws.window_mut("fluid").expect("window").panes_mut() {
                        pane.set_data("p", ArrayData::F64(vec![-1.0; 8])).expect("scribble");
                    }
                    c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap)
                        .expect("client restart");
                    assert_eq!(ws, written, "restart restored other values than were written");
                }
                c.finalize().expect("client finalize");
            }
            ServiceRole::Idle => panic!("every rank is a server or a client here"),
        }
    });
    // Deadlock-freedom is implied by reaching this point; now check the
    // snapshot's externally visible shape.
    let files = fs.list("out/");
    assert_eq!(files.len(), n_servers, "one snapshot file per server, got {files:?}");
    if restart {
        // The servers traded flush tokens, then read their shares of the
        // files back.
        assert!(fs.stats().read_ops > 0, "restart read nothing from the store");
    }
    fingerprint_files(&fs, "out/", canonical_sdf)
}

/// The Rocpanda write handshake at the issue's scale: 2 servers x 4
/// clients. Each client ships WRITE_REQ + blocks + DONE to its server
/// under per-block ACK flow control; servers run in active-buffering
/// mode, alternating blocking and non-blocking probes — the wildcard
/// choice points being explored.
pub struct PandaHandshake {
    /// Compute clients (4 at the issue's scale).
    pub n_clients: usize,
    /// I/O servers (2 at the issue's scale).
    pub n_servers: usize,
    /// Panes shipped per client.
    pub panes_per_client: usize,
}

impl PandaHandshake {
    /// The configuration named in the acceptance criteria.
    pub fn issue_scale() -> Self {
        PandaHandshake {
            n_clients: 4,
            n_servers: 2,
            panes_per_client: 1,
        }
    }
}

impl Scenario for PandaHandshake {
    fn name(&self) -> &'static str {
        "panda-handshake"
    }

    fn run(&self, oracle: Arc<dyn ScheduleOracle>, collector: &rocobs::TraceCollector) -> Vec<u8> {
        let cluster = ClusterSpec::turing(self.n_clients + self.n_servers);
        let fabric = Arc::new(Fabric::with_oracle(cluster, oracle));
        let cfg = RocpandaConfig::default();
        panda_handshake(&fabric, cfg, self.n_servers, self.panes_per_client, false, collector)
    }
}

/// Write, then restart inside the same server session: 2 servers x 2
/// clients. The restart is where the servers talk to each other — every
/// client asks every server, and the servers trade `FLUSH_TOKEN`s before
/// scanning each other's files. Which client's request a server sees
/// first, and which server a client hears from first, are the explored
/// choice points; every schedule must restore what was written.
pub struct PandaRestart;

impl Scenario for PandaRestart {
    fn name(&self) -> &'static str {
        "panda-restart"
    }

    fn run(&self, oracle: Arc<dyn ScheduleOracle>, collector: &rocobs::TraceCollector) -> Vec<u8> {
        let fabric = Arc::new(Fabric::with_oracle(ClusterSpec::turing(4), oracle));
        panda_handshake(&fabric, RocpandaConfig::default(), 2, 1, true, collector)
    }
}

/// Two tenant jobs sharing one Rocpanda server pool: the multi-tenant
/// service handshake. Both jobs write concurrently through the same
/// servers (their blocks interleave in the per-tenant drain queues — the
/// explored choice points), with different drain priorities so the DRR
/// scheduler's weighting is itself under exploration. Every schedule
/// must terminate and produce the same canonical per-tenant snapshots:
/// tenant isolation means no interleaving can leak one job's blocks into
/// the other's files.
pub struct MultiTenantHandshake {
    /// Shared I/O servers.
    pub n_servers: usize,
    /// Compute clients *per tenant job* (2 jobs).
    pub clients_per_job: usize,
}

impl MultiTenantHandshake {
    /// 2 servers shared by 2 jobs x 2 clients (6 ranks).
    pub fn issue_scale() -> Self {
        MultiTenantHandshake {
            n_servers: 2,
            clients_per_job: 2,
        }
    }
}

impl Scenario for MultiTenantHandshake {
    fn name(&self) -> &'static str {
        "multitenant-handshake"
    }

    fn run(&self, oracle: Arc<dyn ScheduleOracle>, collector: &rocobs::TraceCollector) -> Vec<u8> {
        let n = self.n_servers + 2 * self.clients_per_job;
        let server_ranks: Vec<usize> = (0..self.n_servers).collect();
        let job_a: Vec<usize> =
            (server_ranks.len()..server_ranks.len() + self.clients_per_job).collect();
        let job_b: Vec<usize> = (server_ranks.len() + self.clients_per_job..n).collect();
        let fabric = Arc::new(Fabric::with_oracle(ClusterSpec::turing(n), oracle));
        let fs = Arc::new(SharedFs::turing());
        let svc = PandaServiceBuilder::new(Arc::clone(&fs))
            .servers(&server_ranks)
            .build()
            .expect("service build");
        svc.submit(JobSpec::new("job-a", &job_a).priority(Priority::High))
            .expect("admit job a");
        svc.submit(JobSpec::new("job-b", &job_b)).expect("admit job b");
        let snap = SnapshotId::new(7, 1);
        run_on_fabric(&fabric, &|comm: Comm| {
            let _obs = install_obs(collector, &comm);
            match svc.attach(&comm).expect("service attach") {
                ServiceRole::Server(mut s) => {
                    s.run().expect("server run");
                }
                ServiceRole::Client { job, io: mut c, comm: app } => {
                    // Distinct payloads per tenant so cross-tenant block
                    // leakage cannot alias as a benign reordering.
                    let me = 100 * job.tenant().0 as u64 + app.rank() as u64;
                    let ws = make_windows(&[me]);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap)
                        .expect("client write");
                    c.finalize().expect("client finalize");
                }
                ServiceRole::Idle => panic!("every rank is a server or a client here"),
            }
        });
        // Each tenant's snapshot lives in its own namespace, one file per
        // server (every server owns a slice of each job's clients).
        let mut out = Vec::new();
        for tenant in ["t0001", "t0002"] {
            let prefix = format!("out/{tenant}/");
            let files = fs.list(&prefix);
            assert_eq!(
                files.len(),
                self.n_servers,
                "one file per server under {prefix}, got {files:?}"
            );
            out.extend_from_slice(&fingerprint_files(&fs, &prefix, canonical_sdf));
        }
        out
    }
}

/// The T-Rochdf double-buffer handoff: every rank writes a snapshot
/// (handed to its background I/O thread), exchanges halo messages with
/// wildcard receives — the explored choice points, which perturb when
/// each rank's second write meets the still-draining first one — then
/// writes again and finalizes. Outcomes must not depend on handoff
/// timing: the halo reduction is order-independent and each file has a
/// single writer, so raw file bytes are compared.
pub struct TrochdfHandoff {
    /// Ranks (each runs a main thread plus the background I/O thread).
    pub n_ranks: usize,
}

impl TrochdfHandoff {
    pub fn issue_scale() -> Self {
        TrochdfHandoff { n_ranks: 3 }
    }
}

const HALO_TAG: u32 = 0x0042;

impl Scenario for TrochdfHandoff {
    fn name(&self) -> &'static str {
        "trochdf-handoff"
    }

    fn run(&self, oracle: Arc<dyn ScheduleOracle>, collector: &rocobs::TraceCollector) -> Vec<u8> {
        let n = self.n_ranks;
        let fabric = Arc::new(Fabric::with_oracle(ClusterSpec::turing(n), oracle));
        let fs = Arc::new(SharedFs::turing());
        let snap0 = SnapshotId::new(3, 1);
        let snap1 = SnapshotId::new(3, 2);
        let files_written = run_on_fabric(&fabric, &|comm: Comm| {
            let _obs = install_obs(collector, &comm);
            let me = comm.rank() as u64;
            let mut ws = make_windows(&[me]);
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap0)
                .expect("first write (buffered handoff)");
            // Halo exchange: wildcard receives are the choice points.
            for peer in 0..comm.size() {
                if peer as u64 != me {
                    comm.send(peer, HALO_TAG, &(me as f64 + 1.0).to_le_bytes())
                        .expect("halo send");
                }
            }
            let mut acc = 0.0f64;
            for _ in 0..comm.size() - 1 {
                let m = comm.recv(None, Some(HALO_TAG)).expect("halo recv");
                let v = f64::from_le_bytes(
                    m.payload[..8].try_into().expect("8-byte halo payload"),
                );
                acc += v; // order-independent reduction
            }
            ws.window_mut("fluid")
                .expect("fluid window")
                .pane_mut(BlockId(me))
                .expect("own pane")
                .set_data("p", ArrayData::F64(vec![acc; 8]))
                .expect("set halo sum");
            // Second write races the background drain of the first: the
            // double-buffer handoff under test.
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap1)
                .expect("second write (handoff)");
            io.sync().expect("sync");
            io.finalize().expect("finalize");
            io.files_written()
        });
        assert!(
            files_written.iter().all(|&f| f == 2),
            "every rank's I/O thread must write both snapshots, got {files_written:?}"
        );
        let files = fs.list("out/");
        assert_eq!(
            files.len(),
            2 * n,
            "one file per rank per snapshot, got {files:?}"
        );
        // Single writer per file and deterministic content: raw bytes.
        fingerprint_files(&fs, "out/", |b| b.to_vec())
    }
}

/// The Rocpanda write handshake on a *lossy* fabric: same shape as
/// [`PandaHandshake`], but the data plane rides `ReliableComm`
/// (`faulty_net` set) and the scripted injector drops or duplicates one
/// bounded set of reliability frames per run — the explored choice
/// points. Every placement must terminate (retransmission covers the
/// loss) and produce the clean run's canonical snapshot bytes.
pub struct LossyPandaHandshake {
    pub n_clients: usize,
    pub n_servers: usize,
    pub panes_per_client: usize,
}

impl LossyPandaHandshake {
    /// The 2 servers x 4 clients configuration named in the issue.
    pub fn issue_scale() -> Self {
        LossyPandaHandshake {
            n_clients: 4,
            n_servers: 2,
            panes_per_client: 1,
        }
    }

    /// A 1 server x 2 clients instance, small enough to explore
    /// two-fault plans exhaustively.
    pub fn small() -> Self {
        LossyPandaHandshake {
            n_clients: 2,
            n_servers: 1,
            panes_per_client: 1,
        }
    }
}

impl FaultScenario for LossyPandaHandshake {
    fn name(&self) -> &'static str {
        "lossy-panda-handshake"
    }

    fn run(&self, faults: Arc<ScriptedFaults>, collector: &rocobs::TraceCollector) -> Vec<u8> {
        let fabric = Arc::new(Fabric::new(ClusterSpec::turing(self.n_clients + self.n_servers)));
        fabric.set_fault_injector(faults);
        // `faulty_net` flips the data plane onto `ReliableComm`; the
        // spec itself is inert (the scripted injector owns the faults).
        let cfg = RocpandaConfig {
            faulty_net: Some(rocnet::FaultSpec::none(0)),
            ..RocpandaConfig::default()
        };
        panda_handshake(&fabric, cfg, self.n_servers, self.panes_per_client, false, collector)
    }
}

/// The T-Rochdf double-buffer handoff on a lossy fabric: the halo
/// exchange rides `ReliableComm` directly (the layer's first consumer
/// outside Rocpanda), so dropping or duplicating its frames perturbs
/// when each rank's second write meets the draining first one. File
/// bytes and halo sums must not depend on the placement.
pub struct LossyTrochdfHandoff {
    pub n_ranks: usize,
}

impl LossyTrochdfHandoff {
    pub fn issue_scale() -> Self {
        LossyTrochdfHandoff { n_ranks: 3 }
    }
}

impl FaultScenario for LossyTrochdfHandoff {
    fn name(&self) -> &'static str {
        "lossy-trochdf-handoff"
    }

    fn run(&self, faults: Arc<ScriptedFaults>, collector: &rocobs::TraceCollector) -> Vec<u8> {
        let n = self.n_ranks;
        let fabric = Arc::new(Fabric::new(ClusterSpec::turing(n)));
        fabric.set_fault_injector(faults);
        let fs = Arc::new(SharedFs::turing());
        let snap0 = SnapshotId::new(3, 1);
        let snap1 = SnapshotId::new(3, 2);
        let files_written = run_on_fabric(&fabric, &|comm: Comm| {
            let _obs = install_obs(collector, &comm);
            let me = comm.rank() as u64;
            let mut ws = make_windows(&[me]);
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap0)
                .expect("first write (buffered handoff)");
            // Halo exchange over the reliability layer: its DATA/ACK
            // frames are the fault choice points.
            let mut rel = rocnet::ReliableComm::new(&comm);
            for peer in 0..comm.size() {
                if peer as u64 != me {
                    rel.send(peer, HALO_TAG, &(me as f64 + 1.0).to_le_bytes())
                        .expect("halo send");
                }
            }
            let mut acc = 0.0f64;
            for _ in 0..comm.size() - 1 {
                let m = rel.recv(None, Some(HALO_TAG)).expect("halo recv");
                let v = f64::from_le_bytes(
                    m.payload[..8].try_into().expect("8-byte halo payload"),
                );
                acc += v; // order-independent reduction
            }
            // Symmetric teardown: drain until this rank's frames are all
            // acknowledged, then linger re-acking peers' retransmissions
            // (our ack to them may have been the dropped frame) until the
            // fabric goes quiet — the TIME_WAIT that keeps a fast rank
            // from abandoning a peer whose drain still needs re-acks.
            rel.drain();
            rel.linger(0.32);
            ws.window_mut("fluid")
                .expect("fluid window")
                .pane_mut(BlockId(me))
                .expect("own pane")
                .set_data("p", ArrayData::F64(vec![acc; 8]))
                .expect("set halo sum");
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap1)
                .expect("second write (handoff)");
            io.sync().expect("sync");
            io.finalize().expect("finalize");
            io.files_written()
        });
        assert!(
            files_written.iter().all(|&f| f == 2),
            "every rank's I/O thread must write both snapshots, got {files_written:?}"
        );
        let files = fs.list("out/");
        assert_eq!(
            files.len(),
            2 * n,
            "one file per rank per snapshot, got {files:?}"
        );
        fingerprint_files(&fs, "out/", |b| b.to_vec())
    }
}

/// A deliberately buggy three-rank protocol whose ACK is lost under one
/// of the two possible wildcard resolutions — the regression scenario
/// proving the explorer detects schedule-dependent deadlocks. Rank 0
/// receives two requests and acknowledges *both senders only if rank 1's
/// request was handled first*; if rank 2's request wins the wildcard,
/// rank 1 waits for an ACK that never comes.
pub struct LostAckToy;

const REQ_TAG: u32 = 0x0051;
const ACK_TAG: u32 = 0x0052;

impl Scenario for LostAckToy {
    fn name(&self) -> &'static str {
        "lost-ack-toy"
    }

    fn run(&self, oracle: Arc<dyn ScheduleOracle>, collector: &rocobs::TraceCollector) -> Vec<u8> {
        let fabric = Arc::new(Fabric::with_oracle(ClusterSpec::turing(3), oracle));
        run_on_fabric(&fabric, &|comm: Comm| {
            let _obs = install_obs(collector, &comm);
            match comm.rank() {
                0 => {
                    let first = comm.recv(None, Some(REQ_TAG)).expect("first req");
                    let _second = comm.recv(None, Some(REQ_TAG)).expect("second req");
                    comm.send(first.src, ACK_TAG, b"ok").expect("ack first");
                    if first.src == 1 {
                        // The "expected" order: the other sender is also
                        // acknowledged. Under the flipped schedule this
                        // branch is skipped — rank 1's ACK is lost.
                        comm.send(2, ACK_TAG, b"ok").expect("ack second");
                    }
                }
                me => {
                    comm.send(0, REQ_TAG, b"req").expect("req");
                    comm.recv(Some(0), Some(ACK_TAG)).expect("ack");
                    let _ = me;
                }
            }
        });
        b"done".to_vec()
    }
}
