//! Whole-job driver: spawn a modelled cluster, wire the chosen I/O
//! module, run the coupled simulation, and report the paper's metrics.
//!
//! A job is assembled one way: `server_pool` validates the split and
//! builds the Rocpanda service (if any), `launch` starts the ranks, and
//! `run_tenants` has each rank serve or simulate and folds one report per
//! tenant. [`run_genx_traced`] is a job of one tenant (or no service at
//! all), [`run_genx_multi`] several tenants, [`run_genx_restart`] a
//! read-only launch.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use rocio_core::{Priority, Result, RocError, SnapshotId, TenantId};
use rocmesh::Workload;
use rocnet::cluster::ClusterSpec;
use rocnet::{run_on_fabric_sched, Comm, Fabric, RelOnly, SchedConfig};
use roccom::{AttrRef, AttrSelector, IoDispatch, IoService, Windows};
use rochdf::{Rochdf, RochdfConfig, TRochdf};
use rocpanda::{
    JobHandle, JobSpec, PandaService, PandaServiceBuilder, RocpandaConfig, ServiceRole,
    TenantDrainStats,
};
use rocstore::SharedFs;

use crate::report::RunReport;
use crate::rocman::Rocman;
use crate::setup::{
    assign, declare_windows_for, register_and_init_for, reserve_for, FluidKind, MyBlocks,
    SolidKind,
};

/// Which test problem to run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Table 1: fixed total problem, distributed over however many
    /// processors the run uses.
    LabScale { seed: u64, scale: f64 },
    /// Fig. 3: fixed data per processor (weak scaling); each rank
    /// materializes only its own cylinder segment.
    Cylinder { seed: u64 },
    /// Lab-scale mesh with explicit block counts (granularity studies).
    Custom {
        seed: u64,
        scale: f64,
        n_fluid: usize,
        n_solid: usize,
    },
}

/// Which I/O architecture services the run.
#[derive(Debug, Clone, PartialEq)]
pub enum IoChoice {
    /// Blocking individual I/O (the paper's base for comparison).
    Rochdf,
    /// Threaded individual I/O with background writing.
    TRochdf,
    /// Client-server collective I/O; the listed world ranks become
    /// dedicated servers.
    Rocpanda { server_ranks: Vec<usize> },
}

impl IoChoice {
    /// Module name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            IoChoice::Rochdf => "rochdf",
            IoChoice::TRochdf => "trochdf",
            IoChoice::Rocpanda { .. } => "rocpanda",
        }
    }
}

/// Full job configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GenxConfig {
    /// Report label.
    pub label: String,
    pub workload: WorkloadKind,
    pub steps: u64,
    pub snapshot_every: u64,
    pub io: IoChoice,
    /// Measure restart latency from the final snapshot.
    pub measure_restart: bool,
    /// Keep only this many most-recent snapshots on disk (None = all).
    pub keep_snapshots: Option<u32>,
    /// Rebalance panes across ranks every N steps (None = never).
    pub rebalance_every: Option<u64>,
    /// Which gas-dynamics solver to plug in.
    pub fluid_solver: FluidKind,
    /// Which structural solver to plug in.
    pub solid_solver: SolidKind,
    /// Output directory within the shared file system (keep unique per
    /// run so file counts are attributable).
    pub out_dir: String,
    /// Rocpanda tunables (dir is overridden by `out_dir`). Its `faulty_net`
    /// also degrades the fabric, for Rocpanda's reliable I/O frames only (a
    /// [`RelOnly`] injector with that spec).
    pub rocpanda: RocpandaConfig,
    /// Rochdf/T-Rochdf tunables (dir is overridden by `out_dir`).
    pub rochdf: RochdfConfig,
    /// Rank scheduling: the pooled M:N default, or
    /// [`SchedConfig::threaded`] for one free-running OS thread per rank
    /// (the identity tests' reference). Scheduling never changes the
    /// report or the bytes on disk.
    pub sched: SchedConfig,
}

impl GenxConfig {
    /// A config with the paper's Table 1 schedule (200 steps, snapshot
    /// every 50).
    pub fn new(label: impl Into<String>, workload: WorkloadKind, io: IoChoice) -> Self {
        let label = label.into();
        GenxConfig {
            out_dir: format!("run-{label}"),
            label,
            workload,
            steps: 200,
            snapshot_every: 50,
            io,
            measure_restart: true,
            keep_snapshots: None,
            rebalance_every: None,
            fluid_solver: FluidKind::default(),
            solid_solver: SolidKind::default(),
            rocpanda: RocpandaConfig::default(),
            rochdf: RochdfConfig::default(),
            sched: SchedConfig::default(),
        }
    }
}

/// What one compute rank produced; [`ClientOutcome::absorb`] folds a
/// tenant's `ranks` into the job-wide figure (max over ranks).
struct ClientOutcome {
    ranks: usize,
    comp: f64,
    io: f64,
    restart: f64,
    restart_ok: bool,
    snapshots: u32,
    global_snapshot_bytes: u64,
}

impl ClientOutcome {
    fn absorb(&mut self, c: ClientOutcome) {
        self.ranks += c.ranks;
        self.comp = self.comp.max(c.comp);
        self.io = self.io.max(c.io);
        self.restart = self.restart.max(c.restart);
        self.restart_ok &= c.restart_ok;
        self.snapshots = self.snapshots.max(c.snapshots);
        self.global_snapshot_bytes = c.global_snapshot_bytes;
    }
}

/// What one rank of a launched job produced.
enum RankOut {
    Server(Vec<(TenantId, TenantDrainStats)>),
    /// A compute rank of the tenant at this index.
    Client(usize, ClientOutcome),
    Idle,
}

/// Run a GENx job on the modelled `cluster` against `fs`, returning the
/// aggregate report. `cluster.n_ranks()` must equal compute processors
/// plus dedicated servers.
pub fn run_genx(cluster: ClusterSpec, fs: &Arc<SharedFs>, cfg: &GenxConfig) -> Result<RunReport> {
    run_genx_traced(cluster, fs, cfg, None)
}

/// Like [`run_genx`], but when a collector is supplied every rank thread
/// installs a span-recording handle for it, so the run produces a full
/// [`rocobs::Trace`] (compute, messaging, probing, buffering, disk).
pub fn run_genx_traced(
    cluster: ClusterSpec,
    fs: &Arc<SharedFs>,
    cfg: &GenxConfig,
    collector: Option<&rocobs::TraceCollector>,
) -> Result<RunReport> {
    let n_ranks = cluster.n_ranks();
    let service = server_pool(fs, cfg, n_ranks)?;
    // A Rocpanda run admits the whole compute partition as one job *before*
    // the fabric launches, so admission is host-side and deterministic.
    let admit = |svc: &PandaService| svc.admit_world(cfg.label.clone(), n_ranks);
    let handles = service.iter().map(admit).collect::<Result<Vec<_>>>()?;
    let out_dir = format!("{}/", cfg.out_dir);
    let files_before = fs.list(&out_dir).len();
    let bytes_before = fs.stats().bytes_written;
    let n_clients = n_ranks - service.as_ref().map_or(0, |svc| svc.server_ranks().len());
    let tenants = [(cfg, n_clients)];
    let mut run = run_tenants(cluster, fs, cfg, service.as_ref(), &handles, &tenants, collector)?;
    let mut report = run.jobs.remove(0);
    // A single job owns the store: what it wrote is the store's growth.
    report.n_files = fs.list(&out_dir).len() - files_before;
    report.bytes_written = fs.stats().bytes_written - bytes_before;
    Ok(report)
}

/// Validate `cfg.io` against an `n_ranks` world: the Rocpanda service over
/// the server pool, or `None` for the server-less modules. The pool must
/// name distinct ranks of the world and leave at least one to compute.
fn server_pool(
    fs: &Arc<SharedFs>,
    cfg: &GenxConfig,
    n_ranks: usize,
) -> Result<Option<PandaService>> {
    let IoChoice::Rocpanda { server_ranks } = &cfg.io else {
        return Ok(None);
    };
    let mut pool = server_ranks.clone();
    pool.sort_unstable();
    pool.dedup();
    let in_world = pool.len() < n_ranks && pool.last().is_none_or(|&r| r < n_ranks);
    if pool.len() != server_ranks.len() || !in_world {
        return Err(RocError::Config(format!(
            "server ranks {server_ranks:?} must be distinct ranks of a {n_ranks}-rank cluster \
             and leave at least one rank to compute"
        )));
    }
    let panda_cfg = RocpandaConfig {
        dir: cfg.out_dir.clone(),
        ..cfg.rocpanda.clone()
    };
    PandaServiceBuilder::new(Arc::clone(fs)).servers(&pool).config(panda_cfg).build().map(Some)
}

/// The one launch path: a fabric over `cluster` — degraded, when
/// `cfg.rocpanda.faulty_net` says so, for Rocpanda's reliability frames
/// only (solver halos and Rochdf appends are delivered cleanly, so chaos
/// runs isolate the I/O path under test) — `cfg.sched`'s scheduler, a
/// span-recording handle per rank when traced, and `rank_main` on every
/// rank. Returns the ranks' results in rank order, or the first error.
fn launch<T: Send>(
    cluster: ClusterSpec,
    cfg: &GenxConfig,
    collector: Option<&rocobs::TraceCollector>,
    rank_main: &(dyn Fn(&Comm) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    let fabric = Arc::new(Fabric::new(cluster));
    if let Some(spec) = cfg.rocpanda.faulty_net {
        fabric.set_fault_injector(Arc::new(RelOnly(spec)));
    }
    let outs = run_on_fabric_sched(&fabric, &cfg.sched, &|world| {
        let _obs_guard = collector.map(|tc| {
            let rank = world.global_rank();
            tc.handle(rank, rocobs::LANE_MAIN, world.cluster().node_of(rank)).install()
        });
        rank_main(&world)
    });
    outs.into_iter().collect()
}

/// Launch `cluster` and run one simulation per tenant: `tenants[i]` is the
/// job admitted to `service` as `handles[i]`, or — with no service — the
/// one job every rank belongs to, on the server-less module `base.io`
/// names, with the number of ranks it computes on; its problem is
/// partitioned over them here, once, before any rank starts. Returns one
/// report per tenant, folded over the ranks that ran it (what it wrote,
/// `n_files` and `bytes_written`, is the caller's to count), and the
/// servers' drain accounting merged across the pool.
fn run_tenants(
    cluster: ClusterSpec,
    fs: &Arc<SharedFs>,
    base: &GenxConfig,
    service: Option<&PandaService>,
    handles: &[JobHandle],
    tenants: &[(&GenxConfig, usize)],
    collector: Option<&rocobs::TraceCollector>,
) -> Result<MultiTenantReport> {
    let partitions: Vec<Partition> =
        tenants.iter().map(|(cfg, n_clients)| Partition::new(&cfg.workload, *n_clients)).collect();
    let declared: Vec<Windows> =
        tenants.iter().map(|(cfg, _)| declared_windows(cfg)).collect::<Result<_>>()?;
    let outs = launch(cluster, base, collector, &|world| match service {
        Some(svc) => match svc.attach(world)? {
            ServiceRole::Server(mut server) => {
                server.run()?;
                Ok(RankOut::Server(server.drain_stats()))
            }
            ServiceRole::Client { job, io, comm } => {
                let idx = handles.iter().position(|h| *h == job).ok_or_else(|| {
                    RocError::Config(format!("attached client of unknown tenant {}", job.tenant()))
                })?;
                client_run(&comm, io, tenants[idx].0, &partitions[idx], &declared[idx])
                    .map(|c| RankOut::Client(idx, c))
            }
            ServiceRole::Idle => Ok(RankOut::Idle),
        },
        // `server_pool` builds a service exactly when `io` is Rocpanda.
        None => {
            let hdf_cfg = RochdfConfig {
                dir: base.out_dir.clone(),
                ..base.rochdf.clone()
            };
            let module: Box<dyn IoService + '_> = if base.io == IoChoice::TRochdf {
                Box::new(TRochdf::new(Arc::clone(fs), world, hdf_cfg))
            } else {
                Box::new(Rochdf::new(fs, world, hdf_cfg))
            };
            client_run(world, module, tenants[0].0, &partitions[0], &declared[0])
                .map(|c| RankOut::Client(0, c))
        }
    })?;

    let n_servers = service.map_or(0, |svc| svc.server_ranks().len());
    let mut drain: BTreeMap<TenantId, TenantDrainStats> = BTreeMap::new();
    let mut folded: Vec<Option<ClientOutcome>> = tenants.iter().map(|_| None).collect();
    for out in outs {
        match out {
            RankOut::Server(stats) => {
                for (t, s) in stats {
                    let d = drain.entry(t).or_default();
                    d.blocks += s.blocks;
                    d.bytes += s.bytes;
                    d.total_latency += s.total_latency;
                    d.max_latency = d.max_latency.max(s.max_latency);
                }
            }
            RankOut::Client(idx, c) => match &mut folded[idx] {
                Some(acc) => acc.absorb(c),
                slot => *slot = Some(c),
            },
            RankOut::Idle => {}
        }
    }
    let mut jobs = Vec::with_capacity(tenants.len());
    for (&(cfg, _), job) in tenants.iter().zip(folded) {
        let c = job.ok_or_else(|| {
            RocError::Config(format!("no client of job '{}' produced an outcome", cfg.label))
        })?;
        jobs.push(RunReport {
            label: cfg.label.clone(),
            io_module: cfg.io.name().to_string(),
            n_compute: c.ranks,
            n_servers,
            steps: cfg.steps,
            snapshots: c.snapshots,
            comp_time: c.comp,
            visible_io: c.io,
            restart_time: c.restart,
            restart_ok: c.restart_ok,
            n_files: 0,
            bytes_written: 0,
            snapshot_bytes: c.global_snapshot_bytes,
            apparent_write_mb_s: RunReport::apparent_throughput(
                c.global_snapshot_bytes * c.snapshots as u64,
                c.io,
            ),
        });
    }
    let drain = drain.into_iter().collect();
    Ok(MultiTenantReport { jobs, drain })
}

/// One tenant job in a multi-job Rocpanda service run.
#[derive(Debug, Clone)]
pub struct TenantJobSpec {
    /// Report label and admitted job name.
    pub label: String,
    /// World ranks of this job's compute clients; disjoint from the
    /// server pool and from every other job.
    pub client_ranks: Vec<usize>,
    /// Drain-scheduling weight class.
    pub priority: Priority,
    /// Per-tenant byte quota in the shared store (`None` = unlimited).
    pub quota: Option<u64>,
    pub workload: WorkloadKind,
    pub steps: u64,
    pub snapshot_every: u64,
}

impl TenantJobSpec {
    /// A normal-priority, unlimited-quota tenant job.
    pub fn new(
        label: impl Into<String>,
        client_ranks: &[usize],
        workload: WorkloadKind,
        steps: u64,
        snapshot_every: u64,
    ) -> Self {
        TenantJobSpec {
            label: label.into(),
            client_ranks: client_ranks.to_vec(),
            priority: Priority::Normal,
            quota: None,
            workload,
            steps,
            snapshot_every,
        }
    }

    /// Set the drain-scheduling priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set the per-tenant byte quota.
    pub fn quota(mut self, bytes: u64) -> Self {
        self.quota = Some(bytes);
        self
    }
}

/// Result of a [`run_genx_multi`] service run: one [`RunReport`] per
/// tenant job (in submission order) plus the servers' per-tenant drain
/// accounting, merged across the pool. A job report's `bytes_written` is
/// the tenant's ledger charge at the end of the run (bytes resident on
/// disk, which equals bytes written unless the run retires snapshots).
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    pub jobs: Vec<RunReport>,
    pub drain: Vec<(TenantId, TenantDrainStats)>,
}

impl MultiTenantReport {
    /// Max/min ratio of mean drain latency over tenants that drained at
    /// least one block — the fairness figure of merit (1.0 = perfectly
    /// fair). Returns 1.0 when no tenant was buffered long enough to
    /// queue, and infinity when one tenant drained instantly while
    /// another waited.
    pub fn drain_fairness_ratio(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for (_, s) in &self.drain {
            if s.blocks > 0 {
                let m = s.mean_latency();
                lo = lo.min(m);
                hi = hi.max(m);
            }
        }
        if hi == 0.0 {
            return 1.0;
        }
        if lo == 0.0 {
            return f64::INFINITY;
        }
        hi / lo
    }
}

/// Run several GENx jobs *concurrently* as tenants of one Rocpanda
/// service: `base` supplies the cluster-wide knobs (server pool via its
/// `io`, output directory, solvers, cost models, scheduling), each
/// [`TenantJobSpec`] its own client ranks, workload, and schedule. All
/// jobs share the pooled servers; their output lands under per-tenant
/// namespaces (`{out_dir}/t0001/`, …) and their drain traffic is served
/// deficit-round-robin by priority.
pub fn run_genx_multi(
    cluster: ClusterSpec,
    fs: &Arc<SharedFs>,
    base: &GenxConfig,
    jobs: &[TenantJobSpec],
) -> Result<MultiTenantReport> {
    let Some(svc) = server_pool(fs, base, cluster.n_ranks())? else {
        return Err(RocError::Config(format!(
            "run_genx_multi needs IoChoice::Rocpanda, got {}",
            base.io.name()
        )));
    };
    if jobs.is_empty() {
        return Err(RocError::Config("run_genx_multi needs at least one job".into()));
    }
    let (mut handles, mut configs) = (Vec::new(), Vec::new());
    for job in jobs {
        handles.push(svc.submit(JobSpec {
            priority: job.priority,
            quota: job.quota,
            ..JobSpec::new(job.label.clone(), &job.client_ranks)
        })?);
        configs.push(GenxConfig {
            label: job.label.clone(),
            workload: job.workload.clone(),
            steps: job.steps,
            snapshot_every: job.snapshot_every,
            ..base.clone()
        });
    }
    let n_files =
        |h: &JobHandle| fs.list(&format!("{}/{}", base.out_dir, h.tenant().path_prefix())).len();
    let files_before: Vec<usize> = handles.iter().map(n_files).collect();

    let tenants: Vec<(&GenxConfig, usize)> =
        configs.iter().zip(jobs).map(|(cfg, job)| (cfg, job.client_ranks.len())).collect();
    let mut report = run_tenants(cluster, fs, base, Some(&svc), &handles, &tenants, None)?;
    // A tenant shares the store: what it wrote is its namespace's growth
    // and its ledger charge.
    for ((job, handle), before) in report.jobs.iter_mut().zip(&handles).zip(files_before) {
        job.n_files = n_files(handle) - before;
        job.bytes_written = fs.tenant_used(handle.tenant());
    }
    Ok(report)
}

/// Outcome of a restart-only job ([`run_genx_restart`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RestartReport {
    pub label: String,
    /// Ranks the snapshot was read back onto (not necessarily the count
    /// that wrote it).
    pub n_ranks: usize,
    /// Slowest rank's restart latency (virtual seconds).
    pub restart_time: f64,
    /// Order- and partition-independent XOR of every restored block's
    /// checksum: restarts of the same snapshot agree on this value no
    /// matter the rank count or read strategy.
    pub state_hash: u64,
    /// Total blocks restored across all ranks and windows.
    pub blocks_read: u64,
}

/// Final snapshot id of a run with `cfg`'s schedule: one snapshot at step
/// 0, then one every `snapshot_every` steps (none when that is 0), so the
/// last is the `k`-th at step `k * snapshot_every`, `k = steps /
/// snapshot_every` — not necessarily the final step.
pub fn final_snapshot(cfg: &GenxConfig) -> SnapshotId {
    let k = cfg.steps.checked_div(cfg.snapshot_every).unwrap_or(0);
    SnapshotId::new(k * cfg.snapshot_every, k as u32)
}

/// Restart-only job: re-partition `cfg.workload` over `cluster`'s ranks —
/// possibly a *different* count than wrote the snapshot — and read `snap`
/// back from `cfg.out_dir` through the Rochdf restart path.
/// `cfg.rochdf.read_aggregators` selects the mechanism: `0` is the
/// paper's individual path (every rank opens whichever files hold its
/// blocks), positive routes through the two-phase collective (aggregators
/// read whole file domains once and redistribute over the network).
///
/// Only workload kinds whose global block set is independent of the rank
/// count (`LabScale`, `Custom`) can restart onto a different count;
/// `Cylinder` is weak-scaling and owns different blocks per `n`.
pub fn run_genx_restart(
    cluster: ClusterSpec,
    fs: &Arc<SharedFs>,
    cfg: &GenxConfig,
    snap: SnapshotId,
) -> Result<RestartReport> {
    let n_ranks = cluster.n_ranks();
    let partition = Partition::new(&cfg.workload, n_ranks);
    let declared = declared_windows(cfg)?;
    let outcomes = launch(cluster, cfg, None, &|world| -> Result<(f64, u64, u64)> {
        let (workload, mine) = partition.of_rank(world)?;
        let mut ws = restart_windows(cfg, &declared, &workload, &mine)?;
        let hdf_cfg = RochdfConfig {
            dir: cfg.out_dir.clone(),
            ..cfg.rochdf.clone()
        };
        let mut io = Rochdf::new(fs, world, hdf_cfg);
        let windows = [
            cfg.fluid_solver.window(),
            crate::setup::SOLID_WINDOW,
            crate::setup::BURN_WINDOW,
        ];
        let t0 = world.now();
        for window in windows {
            io.read_attribute(&mut ws, &AttrSelector::all(window), snap)?;
        }
        let latency = world.now() - t0;

        // Partition-independent fingerprint of the restored state.
        let mut hash = 0u64;
        let mut blocks = 0u64;
        for window in windows {
            let w = ws.window(window)?;
            for id in w.pane_ids() {
                hash ^= roccom::convert::pane_checksum(w, w.pane(id)?, &AttrRef::All)?.0;
                blocks += 1;
            }
        }
        Ok((latency, hash, blocks))
    })?;
    Ok(RestartReport {
        label: cfg.label.clone(),
        n_ranks,
        restart_time: outcomes.iter().map(|o| o.0).fold(0.0, f64::max),
        state_hash: outcomes.iter().fold(0, |hash, o| hash ^ o.1),
        blocks_read: outcomes.iter().map(|o| o.2).sum(),
    })
}

/// A job's problem laid out over its compute ranks, built once on the
/// host before the ranks launch — the balanced assignment is a local
/// search over every block, and every rank would find the same answer.
enum Partition {
    /// A fixed global block set and the blocks each rank owns.
    Global(Workload, Vec<MyBlocks>),
    /// Weak scaling: each rank materializes only its own segment.
    Cylinder { seed: u64 },
}

impl Partition {
    fn new(kind: &WorkloadKind, n_ranks: usize) -> Self {
        let workload = match kind {
            WorkloadKind::LabScale { seed, scale } => {
                Workload::lab_scale_motor_scaled(*seed, *scale)
            }
            WorkloadKind::Custom {
                seed,
                scale,
                n_fluid,
                n_solid,
            } => Workload::lab_scale_custom(*seed, *scale, *n_fluid, *n_solid),
            WorkloadKind::Cylinder { seed } => return Partition::Cylinder { seed: *seed },
        };
        let owners = assign(&workload, n_ranks);
        Partition::Global(workload, owners)
    }

    /// The workload and the indices of the blocks this rank of the job's
    /// communicator owns.
    fn of_rank(&self, job: &Comm) -> Result<(Cow<'_, Workload>, Cow<'_, MyBlocks>)> {
        Ok(match self {
            Partition::Global(workload, owners) => {
                if owners.len() != job.size() {
                    return Err(RocError::Config(format!(
                        "workload partitioned over {} ranks, job runs on {}",
                        owners.len(),
                        job.size()
                    )));
                }
                (Cow::Borrowed(workload), Cow::Borrowed(&owners[job.rank()]))
            }
            Partition::Cylinder { seed } => {
                let w = Workload::scalability_segment(job.rank(), *seed);
                let mine = MyBlocks {
                    fluid: (0..w.fluid.len()).collect(),
                    solid: (0..w.solid_boxes.len()).collect(),
                };
                (Cow::Owned(w), Cow::Owned(mine))
            }
        })
    }
}

/// The windows `cfg`'s solvers declare, with no pane: built once per job on
/// the host, beside its [`Partition`], and cloned by each rank (the
/// schemas are shared by refcount, so a clone copies a few names).
fn declared_windows(cfg: &GenxConfig) -> Result<Windows> {
    let mut ws = Windows::new();
    declare_windows_for(&mut ws, cfg.fluid_solver, cfg.solid_solver)?;
    Ok(ws)
}

/// The job's `declared` windows with this rank's panes registered and
/// initialised: where a run that starts from initial conditions begins.
fn fresh_windows(
    cfg: &GenxConfig,
    declared: &Windows,
    workload: &Workload,
    mine: &MyBlocks,
) -> Result<Windows> {
    let mut ws = declared.clone();
    register_and_init_for(&mut ws, workload, mine, cfg.fluid_solver)?;
    Ok(ws)
}

/// The job's `declared` windows with this rank's pane ids reserved and no
/// pane built: where a restart begins. The partition says which panes are
/// this rank's; what they are is the snapshot's to say.
fn restart_windows(
    cfg: &GenxConfig,
    declared: &Windows,
    workload: &Workload,
    mine: &MyBlocks,
) -> Result<Windows> {
    let mut ws = declared.clone();
    reserve_for(&mut ws, workload, mine, cfg.fluid_solver)?;
    Ok(ws)
}

/// The compute-rank routine, shared by all three I/O architectures.
fn client_run<'a>(
    sim_comm: &'a Comm,
    io_module: Box<dyn IoService + 'a>,
    cfg: &GenxConfig,
    partition: &Partition,
    declared: &Windows,
) -> Result<ClientOutcome> {
    let (workload, mine) = partition.of_rank(sim_comm)?;
    let local_bytes: u64 = mine
        .fluid
        .iter()
        .map(|&i| workload.fluid[i].snapshot_bytes(rocmesh::workload::FLUID_SCALAR_FIELDS) as u64)
        .sum::<u64>()
        + mine
            .solid
            .iter()
            .map(|&i| {
                let b = &workload.solid_boxes[i];
                rocmesh::workload::solid_snapshot_bytes([b.ni, b.nj, b.nk]) as u64
            })
            .sum::<u64>();
    let global_bytes = sim_comm.allreduce_sum_f64(local_bytes as f64)? as u64;

    let mut dispatch = IoDispatch::new();
    dispatch.load_module(io_module)?;
    let mut man = Rocman::new(sim_comm, fresh_windows(cfg, declared, &workload, &mine)?, dispatch)?;
    // Cross-block inflow coupling along the bore axis (the adjacency is
    // global and deterministic, so every rank computes the same map).
    if cfg.fluid_solver == FluidKind::Rocflo {
        for (up, down) in rocmesh::x_adjacency(&workload.fluid) {
            man.adjacency
                .insert(workload.fluid[down].id, workload.fluid[up].id);
        }
    }
    man.fluid_kind = cfg.fluid_solver;
    man.solid_kind = cfg.solid_solver;
    man.keep_snapshots = cfg.keep_snapshots;
    man.rebalance_every = cfg.rebalance_every;
    man.run(cfg.steps, cfg.snapshot_every)?;

    let (restart, restart_ok) = if cfg.measure_restart {
        man.measure_restart(&mut restart_windows(cfg, declared, &workload, &mine)?)?
    } else {
        (0.0, true)
    };
    let outcome = ClientOutcome {
        ranks: 1,
        comp: man.comp_time(),
        io: man.io_time(),
        restart,
        restart_ok,
        snapshots: man.snapshots_taken(),
        global_snapshot_bytes: global_bytes,
    };
    man.io.finalize_all()?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(label: &str, io: IoChoice) -> GenxConfig {
        let mut cfg = GenxConfig::new(
            label,
            WorkloadKind::LabScale {
                seed: 7,
                scale: 0.05,
            },
            io,
        );
        cfg.steps = 10;
        cfg.snapshot_every = 5;
        cfg
    }

    /// A rank's clone of the job's declared windows is what declaring them
    /// afresh on that rank gave, for both solver pairings — bare, with the
    /// rank's panes registered, and with its pane ids reserved — and what a
    /// rank builds on its clone never reaches the template.
    #[test]
    fn a_rank_clone_of_the_declared_windows_equals_a_fresh_declaration() {
        for (fluid, solid) in
            [(FluidKind::Rocflo, SolidKind::Rocfrac), (FluidKind::Rocflu, SolidKind::Rocsolid)]
        {
            let mut cfg = small_cfg("t-declared", IoChoice::Rochdf);
            (cfg.fluid_solver, cfg.solid_solver) = (fluid, solid);
            let fresh = || {
                let mut ws = Windows::new();
                declare_windows_for(&mut ws, fluid, solid).unwrap();
                ws
            };
            let declared = declared_windows(&cfg).unwrap();
            assert_eq!(declared.clone(), fresh(), "{fluid:?} + {solid:?}");

            let Partition::Global(workload, owners) = Partition::new(&cfg.workload, 2) else {
                unreachable!("a lab-scale workload has a global block set")
            };
            for mine in &owners {
                let mut registered = fresh();
                register_and_init_for(&mut registered, &workload, mine, fluid).unwrap();
                let got = fresh_windows(&cfg, &declared, &workload, mine).unwrap();
                assert_eq!(got, registered, "{fluid:?} + {solid:?}");
                let mut reserved = fresh();
                reserve_for(&mut reserved, &workload, mine, fluid).unwrap();
                let got = restart_windows(&cfg, &declared, &workload, mine).unwrap();
                assert_eq!(got, reserved, "{fluid:?} + {solid:?}");
            }
            assert_eq!(declared, fresh(), "a rank's panes reached the template");
        }
    }

    #[test]
    fn rochdf_job_end_to_end() {
        let fs = Arc::new(SharedFs::ideal());
        let cfg = small_cfg("t-rochdf-e2e", IoChoice::Rochdf);
        let report = run_genx(ClusterSpec::ideal(2), &fs, &cfg).unwrap();
        assert_eq!(report.n_compute, 2);
        assert_eq!(report.n_servers, 0);
        assert_eq!(report.snapshots, 3);
        assert!(report.restart_ok);
        assert!(report.comp_time > 0.0);
        assert!(report.visible_io > 0.0);
        // 3 windows x 3 snapshots x 2 ranks.
        assert_eq!(report.n_files, 18);
        assert!(report.bytes_written > 0);
    }

    #[test]
    fn trochdf_job_end_to_end() {
        let fs = Arc::new(SharedFs::turing());
        let cfg = small_cfg("t-trochdf-e2e", IoChoice::TRochdf);
        let report = run_genx(ClusterSpec::turing(2), &fs, &cfg).unwrap();
        assert!(report.restart_ok);
        assert_eq!(report.n_files, 18);
    }

    #[test]
    fn rocpanda_job_end_to_end() {
        let fs = Arc::new(SharedFs::ideal());
        let cfg = small_cfg(
            "t-panda-e2e",
            IoChoice::Rocpanda {
                server_ranks: vec![0],
            },
        );
        // 2 compute + 1 server.
        let report = run_genx(ClusterSpec::ideal(3), &fs, &cfg).unwrap();
        assert_eq!(report.n_compute, 2);
        assert_eq!(report.n_servers, 1);
        assert!(report.restart_ok);
        // 3 windows x 3 snapshots x 1 server: fewer files than Rochdf.
        assert_eq!(report.n_files, 9);
    }

    /// The last snapshot of an uneven schedule is not at the final step,
    /// and a run that never snapshots after step 0 still has one: both
    /// must be the snapshot `final_snapshot` names, and restart from it
    /// onto a different rank count.
    #[test]
    fn final_snapshot_names_the_last_snapshot_written() {
        for (every, expect) in [(4, SnapshotId::new(8, 2)), (0, SnapshotId::new(0, 0))] {
            let fs = Arc::new(SharedFs::ideal());
            let mut cfg = small_cfg(&format!("t-final-{every}"), IoChoice::Rochdf);
            cfg.snapshot_every = every;
            cfg.measure_restart = false;
            let report = run_genx(ClusterSpec::ideal(2), &fs, &cfg).unwrap();
            let snap = final_snapshot(&cfg);
            assert_eq!(snap, expect);
            assert_eq!(report.snapshots, expect.ordinal + 1);
            let restart = run_genx_restart(ClusterSpec::ideal(3), &fs, &cfg, snap).unwrap();
            assert_eq!(restart.n_ranks, 3);
            assert!(restart.blocks_read > 0);
        }
    }

    /// A server pool that does not fit the cluster is a configuration
    /// error reported before anything launches — never a panic, a hang, or
    /// a report with the wrong processor counts.
    #[test]
    fn bad_server_ranks_are_config_errors() {
        let fs = Arc::new(SharedFs::ideal());
        for (label, n_ranks, server_ranks) in [
            ("too many", 2, vec![0, 1, 2]),
            ("duplicate", 3, vec![0, 0]),
            ("out of range", 3, vec![7]),
            ("all servers", 2, vec![0, 1]),
            ("none", 2, vec![]),
        ] {
            let cfg = small_cfg("t-bad-pool", IoChoice::Rocpanda { server_ranks });
            match run_genx(ClusterSpec::ideal(n_ranks), &fs, &cfg) {
                Err(RocError::Config(_)) => {}
                other => panic!("{label}: expected a Config error, got {other:?}"),
            }
        }
        assert_eq!(fs.n_files(), 0);
        // Order is free; the counts come from the validated pool.
        let cfg = small_cfg("t-pool", IoChoice::Rocpanda { server_ranks: vec![3, 0] });
        let report = run_genx(ClusterSpec::ideal(4), &fs, &cfg).unwrap();
        assert_eq!((report.n_compute, report.n_servers), (2, 2));
    }

    #[test]
    fn cylinder_workload_runs() {
        let fs = Arc::new(SharedFs::frost());
        let mut cfg = GenxConfig::new(
            "t-cyl",
            WorkloadKind::Cylinder { seed: 3 },
            IoChoice::Rochdf,
        );
        cfg.steps = 4;
        cfg.snapshot_every = 4;
        let report = run_genx(ClusterSpec::ideal(3), &fs, &cfg).unwrap();
        assert!(report.restart_ok);
        assert_eq!(report.snapshots, 2);
        // Weak scaling: global bytes = 3 x per-proc bytes.
        assert!(report.snapshot_bytes > 2 * 1024 * 1024);
    }

    #[test]
    fn trochdf_hides_io_relative_to_rochdf() {
        let fs1 = Arc::new(SharedFs::turing());
        let fs2 = Arc::new(SharedFs::turing());
        let blocking = run_genx(
            ClusterSpec::turing(2),
            &fs1,
            &small_cfg("cmp-rochdf", IoChoice::Rochdf),
        )
        .unwrap();
        let threaded = run_genx(
            ClusterSpec::turing(2),
            &fs2,
            &small_cfg("cmp-trochdf", IoChoice::TRochdf),
        )
        .unwrap();
        assert!(
            threaded.visible_io < blocking.visible_io / 5.0,
            "T-Rochdf {} not << Rochdf {}",
            threaded.visible_io,
            blocking.visible_io
        );
        // Computation time is independent of the I/O approach.
        assert!((threaded.comp_time - blocking.comp_time).abs() < blocking.comp_time * 0.02);
    }
}
