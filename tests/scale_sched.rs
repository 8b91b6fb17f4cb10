//! Scheduler-identity tier: the M:N worker pool is a performance
//! mechanism, not a semantic one. A GENx job run on the pooled harness
//! (small-stack rank threads admitted through a bounded worker pool)
//! must produce a report and snapshot files byte-identical to the
//! legacy one-OS-thread-per-rank harness, and two pooled runs must be
//! bit-identical to each other — the conservative virtual-order gate,
//! not the OS scheduler, decides every wildcard receive. (That
//! multi-thousand-rank jobs complete at all is `rocnet`'s own test,
//! `harness::tests::multi_thousand_rank_job_completes_on_a_small_pool`.)

use std::collections::BTreeMap;
use std::sync::Arc;

use genx_repro::genx::{run_genx, GenxConfig, IoChoice, RunReport, WorkloadKind};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::SchedConfig;
use genx_repro::rocstore::SharedFs;

/// One small Table-1-style Rocpanda job (4 clients + 1 server, two
/// snapshots, restart measured from the last) under the given
/// scheduler. Returns the report and every output file's bytes.
fn sched_run(label: &str, sched: SchedConfig) -> (RunReport, BTreeMap<String, Vec<u8>>) {
    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        label,
        WorkloadKind::LabScale { seed: 7, scale: 0.05 },
        IoChoice::Rocpanda { server_ranks: vec![0] },
    );
    cfg.steps = 8;
    cfg.snapshot_every = 4;
    cfg.sched = sched;
    let report = run_genx(ClusterSpec::turing(5), &fs, &cfg).unwrap();
    let dir = format!("{}/", cfg.out_dir);
    let files = fs
        .list(&dir)
        .into_iter()
        .map(|p| {
            let bytes = fs.read_all_shared(&p, u64::MAX, 0.0).unwrap().0.to_vec();
            // Strip the run-directory prefix so runs with different
            // labels compare on file identity, not label.
            (p[dir.len()..].to_string(), bytes)
        })
        .collect();
    (report, files)
}

#[test]
fn pooled_and_threaded_snapshots_are_byte_identical() {
    // Two workers for five ranks forces real multiplexing: every rank
    // parks and lends its admission slot many times per step.
    // Same label on purpose: the report embeds it, and each run writes
    // to its own fresh SharedFs, so nothing collides.
    let (pooled_report, pooled_files) =
        sched_run("sched-identity", SchedConfig::with_workers(2));
    let (threaded_report, threaded_files) =
        sched_run("sched-identity", SchedConfig::threaded());

    assert!(pooled_report.restart_ok, "pooled run must restart");
    assert!(!pooled_files.is_empty(), "pooled run must write snapshots");
    assert_eq!(
        pooled_report, threaded_report,
        "scheduling must not change the report (all-f64 virtual times)"
    );
    assert_eq!(
        serde_json::to_string(&pooled_report).unwrap(),
        serde_json::to_string(&threaded_report).unwrap()
    );
    assert_eq!(
        pooled_files.keys().collect::<Vec<_>>(),
        threaded_files.keys().collect::<Vec<_>>(),
        "pooled and threaded runs must write the same file set"
    );
    for (name, bytes) in &pooled_files {
        assert!(
            bytes == &threaded_files[name],
            "{name} must be byte-identical across schedulers"
        );
    }
}

#[test]
fn pooled_reruns_are_bit_identical() {
    let (r1, f1) = sched_run("sched-rerun", SchedConfig::with_workers(2));
    let (r2, f2) = sched_run("sched-rerun", SchedConfig::with_workers(2));
    assert_eq!(r1, r2, "pooled virtual-time stats must replay bit for bit");
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r2).unwrap()
    );
    assert_eq!(f1, f2);
}
