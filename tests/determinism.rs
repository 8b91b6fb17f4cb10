//! Determinism regression: the virtual-time simulation must be a pure
//! function of its configuration. Two identical small Table-1-style runs
//! in one process must produce bit-identical virtual times, trace span
//! sets, and serialized report JSON — any drift here means wall-clock or
//! scheduling nondeterminism has leaked into the model.

use std::sync::Arc;

use genx_repro::genx::{run_genx_traced, GenxConfig, IoChoice, WorkloadKind};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocobs::{Trace, TraceCollector};
use genx_repro::rocstore::SharedFs;
use genx_repro::genx::RunReport;

fn traced_run_on(faulty_net: Option<genx_repro::rocnet::FaultSpec>) -> (RunReport, Trace, String) {
    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        "determinism",
        WorkloadKind::LabScale { seed: 7, scale: 0.05 },
        IoChoice::Rocpanda { server_ranks: vec![0] },
    );
    cfg.steps = 8;
    cfg.snapshot_every = 4;
    cfg.rocpanda.faulty_net = faulty_net;
    let tc = TraceCollector::new();
    let report = run_genx_traced(ClusterSpec::turing(5), &fs, &cfg, Some(&tc)).unwrap();
    let trace = tc.finish();
    let report_json = serde_json::to_string(&report).unwrap();
    (report, trace, report_json)
}

fn traced_run() -> (RunReport, Trace, String) {
    traced_run_on(None)
}

#[test]
fn identical_runs_are_bit_identical() {
    let (r1, t1, j1) = traced_run();
    let (r2, t2, j2) = traced_run();

    // The aggregate report (all f64 virtual times) is bit-identical.
    assert_eq!(r1, r2);
    assert_eq!(j1, j2);

    // The full span sets match span for span: ranks run on OS threads,
    // but canonical ordering plus deterministic virtual time makes the
    // trace reproducible.
    assert_eq!(t1.len(), t2.len());
    assert!(!t1.is_empty(), "traced run must record spans");
    for (a, b) in t1.spans().iter().zip(t2.spans()) {
        assert_eq!(a, b);
    }

    // And the exported artifacts (aggregate table + Chrome timeline) are
    // byte-identical.
    assert_eq!(
        serde_json::to_string(&t1.summary()).unwrap(),
        serde_json::to_string(&t2.summary()).unwrap()
    );
    assert_eq!(t1.to_chrome_trace_json(), t2.to_chrome_trace_json());
}

#[test]
fn faulty_fabric_runs_are_bit_identical() {
    // The adversary is part of the deterministic model: with a fixed
    // seed, fault decisions are a pure function of per-link message
    // counters, retransmit timers run on virtual time, and wildcard
    // receives resolve through the conservative gate — so a degraded-
    // network run must replay bit for bit, retransmissions included.
    let spec = genx_repro::rocnet::FaultSpec::chaos(5, 0.05);
    let (r1, t1, j1) = traced_run_on(Some(spec));
    let (r2, t2, j2) = traced_run_on(Some(spec));

    assert_eq!(r1, r2);
    assert_eq!(j1, j2);
    assert_eq!(t1.len(), t2.len());
    for (a, b) in t1.spans().iter().zip(t2.spans()) {
        assert_eq!(a, b);
    }
    assert_eq!(t1.to_chrome_trace_json(), t2.to_chrome_trace_json());
}

#[test]
fn m2n_restart_on_reused_store_is_bit_identical() {
    // Restart jobs each start their virtual clocks at 0 on a store that
    // earlier jobs already wrote and read, and their ranks reach the
    // store in whatever order the host runs them. A charge depends only
    // on the op and the concurrency its I/O layer declared, so every
    // rerun of a shape must repeat bit for bit, whatever ran before it.
    use genx_repro::genx::{final_snapshot, run_genx, run_genx_restart};

    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        "m2n-determinism",
        WorkloadKind::LabScale { seed: 42, scale: 0.05 },
        IoChoice::Rochdf,
    );
    cfg.steps = 2;
    cfg.snapshot_every = 2;
    cfg.measure_restart = false;
    run_genx(ClusterSpec::turing(64), &fs, &cfg).unwrap();
    let snap = final_snapshot(&cfg);

    // 64→64 declares 64 readers; 64→48 and 48/8 follow it.
    // Round 0 meets cold metadata caches (a modelled, deterministic
    // difference), so round 1 is the reference for the 20 after it.
    let shapes = [(64usize, 0usize), (48, 0), (48, 8)];
    let mut reference: Vec<Option<(u64, u64)>> = vec![None; shapes.len()];
    for rerun in 0..22 {
        for (shape, &(ranks, aggregators)) in shapes.iter().enumerate() {
            let mut c = cfg.clone();
            c.rochdf.read_aggregators = aggregators;
            let r = run_genx_restart(ClusterSpec::turing(ranks), &fs, &c, snap).unwrap();
            if rerun == 0 {
                continue;
            }
            let got = (r.restart_time.to_bits(), r.state_hash);
            let want = *reference[shape].get_or_insert(got);
            assert_eq!(
                got, want,
                "rerun {rerun} of {ranks}/{aggregators}: restart_time {} vs {}",
                r.restart_time,
                f64::from_bits(want.0)
            );
        }
    }
}

/// Count, total length and bit-serial CRC-32 of every snapshot file a
/// 5-rank, 4-step Rocpanda run of `cfg` writes.
fn snapshot_digest(mut cfg: GenxConfig) -> (usize, usize, u32) {
    use genx_repro::genx::run_genx;

    let fs = Arc::new(SharedFs::turing());
    cfg.steps = 4;
    cfg.snapshot_every = 4;
    cfg.measure_restart = false;
    run_genx(ClusterSpec::turing(5), &fs, &cfg).unwrap();

    let files = fs.list(&format!("{}/", cfg.out_dir));
    let (mut total_len, mut crc) = (0usize, 0xFFFF_FFFFu32);
    for path in &files {
        let (bytes, _) = fs.read_all_shared(path, 0, 0.0).unwrap();
        total_len += bytes.len();
        for &b in bytes.iter() {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
    }
    (files.len(), total_len, !crc)
}

#[test]
fn snapshot_files_match_the_digest_recorded_before_the_kernels_changed() {
    // The on-disk format carries a CRC-32 per dataset, so a CRC kernel
    // that diverged from the polynomial would still round-trip its own
    // files. This digest was recorded at the commit before the
    // interleaved kernel with the bit-serial definition in
    // `snapshot_digest`, which shares no code with `rocsdf::format::crc32`:
    // same bytes, same `__crc32__` values, no format change.
    let cfg = GenxConfig::new(
        "digest",
        WorkloadKind::LabScale { seed: 7, scale: 0.05 },
        IoChoice::Rocpanda { server_ranks: vec![0] },
    );
    assert_eq!(
        snapshot_digest(cfg),
        (6, 6_340_792, 0xC49E_FDCE),
        "snapshot bytes differ from the recorded digest"
    );
}

#[test]
fn rocflu_rocsolid_snapshot_files_match_the_digest_recorded_before_the_kernels_changed() {
    // The benchmark runs Rocflo+Rocfrac only, so the other pairing's
    // solver values are pinned here: this digest was recorded before
    // Rocflu and Rocsolid were rewritten to compute in their panes'
    // buffers.
    use genx_repro::genx::setup::{FluidKind, SolidKind};

    let mut cfg = GenxConfig::new(
        "digest-flu-solid",
        WorkloadKind::LabScale { seed: 7, scale: 0.05 },
        IoChoice::Rocpanda { server_ranks: vec![0] },
    );
    cfg.fluid_solver = FluidKind::Rocflu;
    cfg.solid_solver = SolidKind::Rocsolid;
    assert_eq!(
        snapshot_digest(cfg),
        (6, 8_635_176, 0xB999_77FE),
        "snapshot bytes differ from the recorded digest"
    );
}
