//! The four workloads. Each is one closed-loop rep: set-up (timed as
//! `setup_s`), then the measured region (`wall_s`, allocator traffic),
//! then the output checks. A rep runs in a child process of its own, so
//! `VmHWM` is the rep's and every cache starts cold.
//!
//! The seed reaches the system under test only as
//! `WorkloadKind::LabScale { seed, .. }` and as message payload bytes.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::api::{self, ClusterSpec, Comm, GenxConfig, IoChoice, SpanCategory, TraceCollector};
use crate::harness::{timed, vm_hwm_kib};

/// Workload names, fixed: later issues cite them.
pub const NAMES: [&str; 4] = ["panda_snap64", "trochdf_snap64", "restart_m2n", "fabric_4k"];

/// Why each workload exists and which layer dominates it.
pub fn why(name: &str) -> &'static str {
    match name {
        "panda_snap64" => "snapshot-dense collective writes through Rocpanda servers: roccom, rocpanda, rocnet, rocsdf, rocstore all on the path",
        "trochdf_snap64" => "same bytes through server-less T-Rochdf: bypasses rocpanda and the rocnet data plane, so only writer/store changes may move it",
        "restart_m2n" => "the read side: restarts onto same, fewer and aggregated rank counts, cold then warm, so a write-side layout win that slows readers shows",
        "fabric_4k" => "pure rocnet at 4096 ranks: ring, wildcard funnel and collectives with no I/O, where per-message host cost dominates",
        _ => "unknown workload",
    }
}

/// Relative tolerance within which two virtual times of `name` count as
/// the same. Virtual time is a pure function of the seed on three
/// workloads and is compared bit for bit there. On `restart_m2n` the
/// cold 48-onto-64 individual restart jitters from run to run, in about
/// one rep in four, by one to six microseconds in 2.5 virtual seconds
/// (several ranks open the same files, and the store's contention
/// window sees them in host-thread order) — a defect of the system
/// under test that this benchmark records rather than hides. The
/// tolerance is forty times the largest jitter seen in some 300 reps,
/// because a check that fires on the system's own noise would fail
/// every fourth run; the exact store counts still pin the model.
pub fn vt_tolerance(name: &str) -> f64 {
    if name == "restart_m2n" {
        1e-4
    } else {
        0.0
    }
}

/// Problem sizes. `full` is what the committed numbers use; `smoke` runs
/// the same code end to end in about a second for the tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    pub scale: f64,
    pub compute: usize,
    pub servers: usize,
    pub steps: u64,
    pub every: u64,
    /// `(ranks, read_aggregators)` of the restart calls of one round.
    pub restart_shapes: [(usize, usize); 4],
    pub restart_rounds: usize,
    pub fabric_ranks: usize,
}

impl Sizing {
    pub fn full() -> Sizing {
        Sizing {
            scale: 1.0,
            compute: 64,
            servers: 8,
            steps: 20,
            every: 2,
            restart_shapes: [(64, 0), (48, 0), (48, 8), (24, 4)],
            restart_rounds: 6,
            fabric_ranks: 4096,
        }
    }

    pub fn smoke() -> Sizing {
        Sizing {
            scale: 0.05,
            compute: 8,
            servers: 1,
            steps: 4,
            every: 2,
            restart_shapes: [(8, 0), (6, 0), (6, 2), (3, 1)],
            restart_rounds: 2,
            fabric_ranks: 256,
        }
    }
}

/// Ring rounds, funnels and collective rounds of `fabric_4k`, and the
/// largest point-to-point payload (each rank's is 896..=1024 bytes, by
/// seed, so the seed shapes virtual time here as it does on the mesh
/// workloads).
pub const RING_ROUNDS: usize = 16;
pub const FUNNELS: usize = 2;
pub const COLL_ROUNDS: usize = 4;
pub const PAYLOAD_BYTES: usize = 1024;

/// Exact `SharedFs::stats()` counts of a rep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FsCounts {
    pub write_ops: u64,
    pub read_ops: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub files_created: u64,
}

impl FsCounts {
    fn of(fs: &rocstore::SharedFs) -> FsCounts {
        let s = api::store_stats(fs);
        FsCounts {
            write_ops: s.write_ops,
            read_ops: s.read_ops,
            bytes_written: s.bytes_written,
            bytes_read: s.bytes_read,
            files_created: s.files_created,
        }
    }
}

/// Virtual-time aggregates of one `rocobs` category.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryFacts {
    pub category: String,
    pub count: u64,
    /// Sum of span durations, virtual seconds.
    pub busy_s: f64,
    /// Length of the union of the spans, virtual seconds.
    pub union_s: f64,
}

/// What the traced rerun's `rocobs` trace says.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFacts {
    pub spans: u64,
    pub categories: Vec<CategoryFacts>,
    /// Sum of the `bytes=` detail of every `Send` span.
    pub send_bytes: u64,
    /// Share of buffer-drain + disk-write virtual time that some rank
    /// spent in `Compute` — the paper's active-buffering overlap.
    pub overlap_frac: f64,
}

impl TraceFacts {
    fn of(tc: &TraceCollector) -> TraceFacts {
        let trace = tc.finish();
        let categories = SpanCategory::all()
            .into_iter()
            .filter(|&c| trace.count(c) > 0)
            .map(|c| CategoryFacts {
                category: c.name().to_string(),
                count: trace.count(c) as u64,
                busy_s: trace
                    .spans()
                    .iter()
                    .filter(|s| s.category == c)
                    .map(|s| s.duration())
                    .sum(),
                union_s: trace.total(c),
            })
            .collect();
        let send_bytes = trace
            .spans()
            .iter()
            .filter(|s| s.category == SpanCategory::Send)
            .filter_map(|s| s.detail.rsplit("bytes=").next()?.parse::<u64>().ok())
            .sum();
        let io = |s: &rocobs::Span| {
            matches!(
                s.category,
                SpanCategory::BufferDrain | SpanCategory::DiskWrite
            )
        };
        let io_s = trace.overlap_where(io, io);
        let overlap_frac = if io_s > 0.0 {
            trace.overlap_where(io, |s| s.category == SpanCategory::Compute) / io_s
        } else {
            0.0
        };
        TraceFacts {
            spans: trace.len() as u64,
            categories,
            send_bytes,
            overlap_frac,
        }
    }

    pub fn category(&self, name: &str) -> Option<&CategoryFacts> {
        self.categories.iter().find(|c| c.category == name)
    }
}

/// A named stretch of the measured region on the host clock, with how
/// many operations (messages, calls) it covered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    pub name: String,
    pub secs: f64,
    pub ops: u64,
}

/// What one rep reports to the parent (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rep {
    pub workload: String,
    pub seed: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Payload bytes written + restored, or message payload delivered.
    pub payload_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub vt_io_s: f64,
    /// Absent where no restart happens.
    pub vt_restart_s: Option<f64>,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    pub peak_rss_kib: u64,
    /// Folds every checked output; equal across reps of one seed.
    pub fingerprint: u64,
    pub failures: Vec<String>,
    pub fs: FsCounts,
    /// Messages and payload bytes received, from `Comm::stats()` where
    /// the bench owns the rank closure, else 0 (see `trace`).
    pub msgs: u64,
    pub msg_bytes: u64,
    pub phases: Vec<Phase>,
    /// Virtual seconds of each restart call in call order (`restart_m2n`
    /// only; 0 for a call that failed), so a drift can be pinned to the
    /// call that drifted.
    pub vt_calls: Vec<f64>,
    pub trace: Option<TraceFacts>,
}

impl Rep {
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Options of one rep beyond workload, seed and sizing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepOpts {
    /// Record a `rocobs` trace of the measured region.
    pub traced: bool,
    /// Damage one output so the checks must fire (tests only).
    pub corrupt: bool,
}

/// Run one rep of `name` in this process.
pub fn run_rep(name: &str, seed: u64, size: &Sizing, opts: RepOpts) -> Result<Rep, String> {
    match name {
        "panda_snap64" => Ok(snap_rep(name, seed, size, opts, true)),
        "trochdf_snap64" => Ok(snap_rep(name, seed, size, opts, false)),
        "restart_m2n" => Ok(restart_rep(seed, size, opts)),
        "fabric_4k" => Ok(fabric_rep(seed, size, opts)),
        other => Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
    }
}

fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(23)
}

// ---------------------------------------------------------------------
// panda_snap64 / trochdf_snap64

fn snap_config(label: &str, seed: u64, size: &Sizing, io: IoChoice) -> GenxConfig {
    let mut cfg = GenxConfig::new(
        label,
        api::WorkloadKind::LabScale {
            seed,
            scale: size.scale,
        },
        io,
    );
    cfg.steps = size.steps;
    cfg.snapshot_every = size.every;
    cfg.sched = api::SchedConfig::pooled();
    cfg
}

/// Blocks of one snapshot of the seed's lab-scale problem (every pane of
/// every window), counted from the generated inputs.
fn lab_scale_blocks(seed: u64, scale: f64) -> u64 {
    let ws = api::lab_scale_windows(&api::lab_scale(seed, scale));
    api::WINDOWS
        .iter()
        .map(|w| ws.window(w).expect("declared window").n_panes() as u64)
        .sum()
}

fn snap_rep(name: &str, seed: u64, size: &Sizing, opts: RepOpts, panda: bool) -> Rep {
    // Set-up: generate the inputs from the seed and build the job.
    let t_setup = Instant::now();
    let n_blocks = lab_scale_blocks(seed, size.scale);
    let (io, total) = if panda {
        let servers = (size.compute..size.compute + size.servers).collect();
        (
            IoChoice::Rocpanda {
                server_ranks: servers,
            },
            size.compute + size.servers,
        )
    } else {
        (IoChoice::TRochdf, size.compute)
    };
    let cfg = snap_config(name, seed, size, io);
    let fs = Arc::new(api::store_turing());
    let cluster = ClusterSpec::turing(total);
    let collector = opts.traced.then(TraceCollector::new);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (report, cost) = timed(|| api::genx_run(cluster, &fs, &cfg, collector.as_ref()));

    // Output checks. An operation is a block written and restored; the
    // run reports restart equality as one flag, so a mismatch fails all.
    let mut failures = Vec::new();
    let snapshots = (size.steps / size.every + 1) as u32;
    let restart_ok = report.restart_ok && !opts.corrupt;
    if !restart_ok {
        failures.push("restart_ok is false: restored state differs from live state".into());
    }
    if report.snapshots != snapshots {
        failures.push(format!(
            "{} snapshots, expected {snapshots}",
            report.snapshots
        ));
    }
    let written = report.snapshot_bytes * u64::from(report.snapshots);
    if report.bytes_written < written || report.n_files == 0 {
        failures.push(format!(
            "{} bytes in {} files on disk, payload alone is {written}",
            report.bytes_written, report.n_files
        ));
    }
    let failed = if failures.is_empty() { 0 } else { n_blocks };
    let fingerprint = [
        report.comp_time.to_bits(),
        report.visible_io.to_bits(),
        report.restart_time.to_bits(),
        report.bytes_written,
        report.n_files as u64,
    ]
    .into_iter()
    .fold(seed, fold);

    Rep {
        workload: name.to_string(),
        seed,
        setup_s,
        wall_s: cost.secs,
        payload_bytes: written + report.snapshot_bytes,
        attempted: n_blocks,
        failed,
        vt_io_s: report.visible_io,
        vt_restart_s: Some(report.restart_time),
        alloc_calls: cost.alloc_calls,
        alloc_bytes: cost.alloc_bytes,
        peak_rss_kib: vm_hwm_kib(),
        fingerprint,
        failures,
        fs: FsCounts::of(&fs),
        msgs: 0,
        msg_bytes: 0,
        phases: Vec::new(),
        vt_calls: Vec::new(),
        trace: collector.as_ref().map(TraceFacts::of),
    }
}

/// Host seconds of a T-Rochdf run of `steps` steps with only the initial
/// snapshot and no restart — two of these give `genx.step_ms`.
pub fn solver_only_secs(seed: u64, size: &Sizing, steps: u64) -> f64 {
    let mut cfg = snap_config("steps", seed, size, IoChoice::TRochdf);
    cfg.steps = steps;
    cfg.snapshot_every = 0;
    cfg.measure_restart = false;
    let fs = Arc::new(api::store_turing());
    let t0 = Instant::now();
    api::genx_run(ClusterSpec::turing(size.compute), &fs, &cfg, None);
    t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// restart_m2n

/// One measured `run_genx_restart` call.
struct RestartCall {
    round: usize,
    /// Index into `Sizing::restart_shapes`.
    shape: usize,
    host_s: f64,
    report: rocio_core::Result<api::RestartReport>,
}

fn restart_rep(seed: u64, size: &Sizing, opts: RepOpts) -> Rep {
    // Set-up: write the snapshot twice. The first copy, on a store of
    // its own, is verified against live state by the writing run and
    // then restarted once to fix the reference hash; the second is the
    // one the measured restarts read, so their round 1 meets cold
    // metadata caches (the cache is keyed by store, path and rank).
    let t_setup = Instant::now();
    let mut cfg = snap_config("restart_m2n", seed, size, IoChoice::Rochdf);
    cfg.steps = 2;
    cfg.snapshot_every = 2;
    let writers = ClusterSpec::turing(size.compute);
    let mut failures = Vec::new();

    let ref_fs = Arc::new(api::store_turing());
    let written = api::genx_run(writers.clone(), &ref_fs, &cfg, None);
    if !written.restart_ok {
        failures.push("set-up: writer's own restart is not bit-exact".into());
    }
    let reference = api::genx_restart(writers.clone(), &ref_fs, &cfg).expect("reference restart");
    drop(ref_fs);

    let fs = Arc::new(api::store_turing());
    cfg.measure_restart = false;
    api::genx_run(writers, &fs, &cfg, None);
    if opts.corrupt {
        // Flip one payload byte in the middle of one snapshot file.
        let path = api::store_list(&fs, &format!("{}/", cfg.out_dir))
            .into_iter()
            .max_by_key(|p| api::store_file_size(&fs, p))
            .expect("snapshot files");
        let at = api::store_file_size(&fs, &path) / 2;
        let byte = api::store_read(&fs, &path, at, 1)[0];
        api::store_write_at(&fs, &path, at, &[!byte]);
    }
    let fs_before = FsCounts::of(&fs);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (calls, cost) = timed(|| {
        let mut calls: Vec<RestartCall> = Vec::new();
        for round in 0..size.restart_rounds {
            for (shape, &(ranks, aggregators)) in size.restart_shapes.iter().enumerate() {
                let mut c = cfg.clone();
                // A failed read inside the two-phase collective leaves
                // the other ranks waiting for the aggregator for ever (a
                // defect of the system, noted in README): the corruption
                // test keeps to the individual path so that it tests the
                // checks, not the rep timeout.
                c.rochdf.read_aggregators = if opts.corrupt { 0 } else { aggregators };
                let t0 = Instant::now();
                let report = api::genx_restart(ClusterSpec::turing(ranks), &fs, &c);
                calls.push(RestartCall {
                    round,
                    shape,
                    host_s: t0.elapsed().as_secs_f64(),
                    report,
                });
            }
        }
        calls
    });

    // Output checks: an operation is one restart call.
    let mut failed = 0u64;
    let mut vt_sum = 0.0;
    let mut vt_max: f64 = 0.0;
    let mut fingerprint = fold(seed, reference.state_hash);
    for call in &calls {
        match &call.report {
            Ok(r)
                if r.state_hash == reference.state_hash
                    && r.blocks_read == reference.blocks_read =>
            {
                vt_sum += r.restart_time;
                vt_max = vt_max.max(r.restart_time);
                fingerprint = fold(fold(fingerprint, r.state_hash), r.blocks_read);
            }
            Ok(r) => {
                failed += 1;
                failures.push(format!(
                    "round {} shape {}: state_hash {:#x} / {} blocks, reference {:#x} / {}",
                    call.round,
                    call.shape,
                    r.state_hash,
                    r.blocks_read,
                    reference.state_hash,
                    reference.blocks_read
                ));
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("round {} shape {}: {e}", call.round, call.shape));
            }
        }
    }
    if !written.restart_ok {
        failed = calls.len() as u64;
    }

    // Host seconds per call by variant; round 0 is the cold one.
    let phase = |name: &str, pick: &dyn Fn(usize, usize) -> bool| {
        let picked: Vec<f64> = calls
            .iter()
            .filter(|c| pick(c.round, c.shape))
            .map(|c| c.host_s)
            .collect();
        Phase {
            name: name.to_string(),
            secs: picked.iter().sum(),
            ops: picked.len() as u64,
        }
    };
    let phases = vec![
        phase("restart_cold", &|r, _| r == 0),
        phase("restart_same", &|r, s| r > 0 && s == 0),
        phase("restart_m2n", &|r, s| r > 0 && s == 1),
        phase("restart_twophase", &|r, s| r > 0 && s >= 2),
    ];

    let after = FsCounts::of(&fs);
    Rep {
        workload: "restart_m2n".into(),
        seed,
        setup_s,
        wall_s: cost.secs,
        payload_bytes: written.snapshot_bytes * calls.len() as u64,
        attempted: calls.len() as u64,
        failed,
        vt_io_s: vt_sum,
        vt_restart_s: Some(vt_max),
        alloc_calls: cost.alloc_calls,
        alloc_bytes: cost.alloc_bytes,
        peak_rss_kib: vm_hwm_kib(),
        fingerprint,
        failures,
        fs: FsCounts {
            write_ops: after.write_ops,
            bytes_written: after.bytes_written,
            files_created: after.files_created,
            read_ops: after.read_ops - fs_before.read_ops,
            bytes_read: after.bytes_read - fs_before.bytes_read,
        },
        msgs: 0,
        msg_bytes: 0,
        phases,
        vt_calls: calls
            .iter()
            .map(|c| c.report.as_ref().map_or(0.0, |r| r.restart_time))
            .collect(),
        trace: None,
    }
}

// ---------------------------------------------------------------------
// fabric_4k

const TAG_FUNNEL: u32 = 0x100;

/// Rank `rank`'s payload: xorshift output seeded by `(seed, rank)`, of a
/// length the same stream picks between 7/8 of `PAYLOAD_BYTES` and all
/// of it, in 8-byte words.
pub fn fabric_payload(seed: u64, rank: usize) -> Vec<u8> {
    // Multiply-rotate first so that every seed bit reaches high bits
    // before the low bit is forced on (xorshift must not start at 0).
    let mut x = (seed.wrapping_mul(0xd6e8_feb8_6659_fd93).rotate_left(32)
        ^ (rank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        | 1;
    for _ in 0..4 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let len = PAYLOAD_BYTES - 8 * ((x >> 32) as usize % (PAYLOAD_BYTES / 64 + 1));
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn payload_hash(round: usize, bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .fold(round as u64, fold)
}

fn coll_input(rank: usize, k: usize) -> f64 {
    ((rank % 7) + k) as f64
}

/// The checksum every rank must return, computed without the fabric.
pub fn fabric_expected(seed: u64, n: usize) -> Vec<u64> {
    let hashes: Vec<Vec<u64>> = (0..n)
        .map(|r| {
            let p = fabric_payload(seed, r);
            (0..RING_ROUNDS.max(FUNNELS))
                .map(|k| payload_hash(k, &p))
                .collect()
        })
        .collect();
    // What rank 0 folds in per funnel: every other rank's payload hash.
    let funnels: Vec<u64> = (0..FUNNELS)
        .map(|f| hashes[1..].iter().fold(0u64, |a, h| a.wrapping_add(h[f])))
        .collect();
    let sums: Vec<f64> = (0..COLL_ROUNDS)
        .map(|k| (0..n).map(|r| coll_input(r, k)).sum())
        .collect();
    (0..n)
        .map(|me| {
            let prev = &hashes[(me + n - 1) % n];
            let mut acc = prev[..RING_ROUNDS].iter().fold(0u64, |a, &h| fold(a, h));
            if me == 0 {
                acc = funnels.iter().fold(acc, |a, &all| fold(a, all));
            }
            sums.iter().fold(acc, |a, s| fold(a, s.to_bits()))
        })
        .collect()
}

struct RankOut {
    checksum: u64,
    vt_end: f64,
    msgs_recv: u64,
    bytes_recv: u64,
    /// Rank 0 only: host instants at the phase boundaries.
    stamps: Vec<Instant>,
}

fn fabric_rank(comm: Comm, seed: u64, tc: Option<&TraceCollector>) -> RankOut {
    let _tracing = tc.map(|tc| api::install_tracing(&comm, tc));
    let (n, me) = (comm.size(), comm.rank());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let payload = fabric_payload(seed, me);
    let mut stamps = Vec::new();
    let stamp = |stamps: &mut Vec<Instant>| {
        if me == 0 {
            stamps.push(Instant::now());
        }
    };
    let mut acc = 0u64;

    stamp(&mut stamps);
    for round in 0..RING_ROUNDS {
        let got = api::sendrecv(&comm, next, prev, round as u32, &payload);
        acc = fold(acc, payload_hash(round, &got));
    }
    api::barrier(&comm);
    stamp(&mut stamps);
    for f in 0..FUNNELS {
        let tag = TAG_FUNNEL + f as u32;
        if me == 0 {
            // Wildcard receives; the fold is commutative so arrival
            // order cannot change the checksum.
            let all = (1..n).fold(0u64, |a, _| {
                a.wrapping_add(payload_hash(f, &api::recv(&comm, None, tag)))
            });
            acc = fold(acc, all);
        } else {
            api::send(&comm, 0, tag, &payload);
        }
    }
    api::barrier(&comm);
    stamp(&mut stamps);
    for k in 0..COLL_ROUNDS {
        // Small integers: the sum is exact in any reduction order.
        acc = fold(acc, api::allreduce_sum(&comm, coll_input(me, k)).to_bits());
        api::barrier(&comm);
    }
    stamp(&mut stamps);
    let (msgs_recv, bytes_recv) = api::recv_stats(&comm);
    RankOut {
        checksum: acc,
        vt_end: api::vnow(&comm),
        msgs_recv,
        bytes_recv,
        stamps,
    }
}

fn fabric_rep(seed: u64, size: &Sizing, opts: RepOpts) -> Rep {
    let n = size.fabric_ranks;
    // Set-up: expected outputs from the seed, and one empty job so the
    // measured one does not pay first-touch thread and allocator costs.
    let t_setup = Instant::now();
    let expected = fabric_expected(seed, n);
    api::run_ranks(n, |_comm| ());
    let collector = opts.traced.then(TraceCollector::new);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (mut outs, cost) =
        timed(|| api::run_ranks(n, |comm| fabric_rank(comm, seed, collector.as_ref())));

    if opts.corrupt {
        outs[n / 2].checksum ^= 1;
    }
    // Output checks: an operation is a rank returning its checksum.
    let mut failures = Vec::new();
    let mut failed = 0u64;
    for (rank, (out, want)) in outs.iter().zip(&expected).enumerate() {
        if out.checksum != *want {
            failed += 1;
            if failures.len() < 4 {
                failures.push(format!(
                    "rank {rank}: checksum {:#x}, expected {want:#x}",
                    out.checksum
                ));
            }
        }
    }
    let msgs: u64 = outs.iter().map(|o| o.msgs_recv).sum();
    let msg_bytes: u64 = outs.iter().map(|o| o.bytes_recv).sum();
    let vt_end = outs.iter().map(|o| o.vt_end).fold(0.0, f64::max);
    let fingerprint = outs
        .iter()
        .fold(fold(seed, vt_end.to_bits()), |a, o| fold(a, o.checksum));

    let s = &outs[0].stamps;
    let span = |a: usize, b: usize| (s[b] - s[a]).as_secs_f64();
    let phases = vec![
        Phase {
            name: "ring".into(),
            secs: span(0, 1),
            ops: (RING_ROUNDS * n) as u64,
        },
        Phase {
            name: "funnel".into(),
            secs: span(1, 2),
            ops: (FUNNELS * (n - 1)) as u64,
        },
        Phase {
            name: "coll".into(),
            secs: span(2, 3),
            ops: (2 * COLL_ROUNDS) as u64,
        },
    ];

    Rep {
        workload: "fabric_4k".into(),
        seed,
        setup_s,
        wall_s: cost.secs,
        payload_bytes: msg_bytes,
        attempted: n as u64,
        failed,
        vt_io_s: vt_end,
        vt_restart_s: None,
        alloc_calls: cost.alloc_calls,
        alloc_bytes: cost.alloc_bytes,
        peak_rss_kib: vm_hwm_kib(),
        fingerprint,
        failures,
        fs: FsCounts::default(),
        msgs,
        msg_bytes,
        phases,
        vt_calls: Vec::new(),
        trace: collector.as_ref().map(TraceFacts::of),
    }
}

/// Ring-only job at `n` ranks: host microseconds per message — the
/// scaling reference for `rocnet.ring_us_per_msg`.
pub fn ring_us_per_msg(seed: u64, n: usize) -> f64 {
    let t0 = Instant::now();
    api::run_ranks(n, |comm| {
        let (n, me) = (comm.size(), comm.rank());
        let payload = fabric_payload(seed, me);
        for round in 0..RING_ROUNDS {
            api::sendrecv(
                &comm,
                (me + 1) % n,
                (me + n - 1) % n,
                round as u32,
                &payload,
            );
        }
    });
    t0.elapsed().as_secs_f64() * 1e6 / (RING_ROUNDS * n) as f64
}

/// Two ranks, `rounds` round trips of a 32 KiB `send_bytes`/`recv`:
/// host microseconds per one-way message.
pub fn pingpong_us(rounds: usize) -> f64 {
    let payload = bytes::Bytes::from(vec![0x5au8; 32 * 1024]);
    let secs = api::run_ranks(2, |comm| {
        let peer = 1 - comm.rank();
        let t0 = Instant::now();
        for _ in 0..rounds {
            if comm.rank() == 0 {
                api::send_bytes(&comm, peer, 1, payload.clone());
                api::recv(&comm, Some(peer), 1);
            } else {
                let got = api::recv(&comm, Some(peer), 1);
                api::send_bytes(&comm, peer, 1, got);
            }
        }
        t0.elapsed().as_secs_f64()
    });
    secs[0] * 1e6 / (2 * rounds) as f64
}

/// Host seconds to spawn and join an empty `n`-rank job.
pub fn spawn_secs(n: usize) -> f64 {
    let t0 = Instant::now();
    api::run_ranks(n, |_comm| ());
    t0.elapsed().as_secs_f64()
}
