//! Degraded-network chaos tier: full GENx snapshot + restart cycles on a
//! deterministically lossy fabric. The adversary (per-link drop, reorder,
//! duplication — seeded, counter-based, no ambient randomness) targets
//! Rocpanda's reliability frames only; the acceptance bar is that every
//! run in the committed sweep completes, restarts from its own snapshots,
//! and leaves SDF files byte-identical to the clean-fabric run's.

use std::collections::BTreeMap;
use std::sync::Arc;

use genx_repro::genx::{run_genx, GenxConfig, IoChoice, RunReport, WorkloadKind};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::FaultSpec;
use genx_repro::rocstore::SharedFs;

/// One small Table-1-style Rocpanda job (4 clients + 1 server, two
/// snapshots, restart measured from the last), on a fabric degraded by
/// `spec`. Returns the report and every output file's bytes.
fn chaos_run(label: &str, spec: Option<FaultSpec>) -> (RunReport, BTreeMap<String, Vec<u8>>) {
    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        label,
        WorkloadKind::LabScale { seed: 7, scale: 0.05 },
        IoChoice::Rocpanda { server_ranks: vec![0] },
    );
    cfg.steps = 8;
    cfg.snapshot_every = 4;
    cfg.rocpanda.faulty_net = spec;
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

/// The committed sweep: every seed here must pass at every severity.
const SEEDS: [u64; 3] = [11, 12, 13];

/// The acceptance matrix: 1%, 5% and 20% drop, each with the standard
/// chaos mix (3% duplication, 5% one-slot reorder) on top.
const DROP_RATES: [f64; 3] = [0.01, 0.05, 0.20];

#[test]
fn snapshot_and_restart_survive_the_committed_sweep() {
    let (clean_report, clean_files) = chaos_run("chaos-clean", None);
    assert!(clean_report.restart_ok, "clean run must restart");
    assert!(!clean_files.is_empty(), "clean run must write snapshots");

    for drop in DROP_RATES {
        for seed in SEEDS {
            let (report, files) = chaos_run(
                &format!("chaos-d{}-s{seed}", (drop * 100.0) as u32),
                Some(FaultSpec::chaos(seed, drop)),
            );
            assert!(
                report.restart_ok,
                "restart must succeed under {:.0}% drop, seed {seed}",
                drop * 100.0
            );
            assert_eq!(
                report.snapshots, clean_report.snapshots,
                "same snapshot count under {:.0}% drop, seed {seed}",
                drop * 100.0
            );
            assert_eq!(
                files.keys().collect::<Vec<_>>(),
                clean_files.keys().collect::<Vec<_>>(),
                "same file set under {:.0}% drop, seed {seed}",
                drop * 100.0
            );
            for (name, bytes) in &files {
                assert!(
                    bytes == &clean_files[name],
                    "{name} must be byte-identical to the clean run \
                     under {:.0}% drop, seed {seed}",
                    drop * 100.0
                );
            }
        }
    }
}

#[test]
fn reliability_layer_alone_is_invisible_in_the_output() {
    // `faulty_net` with a zero-rate spec still flips the whole data plane
    // onto `ReliableComm` (sequence numbers, acks, timers) — but with no
    // faults to repair, the snapshot bytes must not change at all.
    let (clean_report, clean_files) = chaos_run("chaos-base", None);
    let (rel_report, rel_files) = chaos_run("chaos-rel", Some(FaultSpec::none(9)));
    assert!(rel_report.restart_ok);
    assert_eq!(rel_report.snapshots, clean_report.snapshots);
    assert_eq!(rel_files, clean_files);
}

#[test]
fn clean_fabric_charges_are_unperturbed() {
    // Charge identity: with `faulty_net` unset, nothing about the chaos
    // machinery (injector hooks, canonical layout pass, the PandaNet
    // shim's raw arm) may cost virtual time — two clean runs and their
    // full reports must agree bit for bit.
    let (r1, f1) = chaos_run("chaos-charge", None);
    let (r2, f2) = chaos_run("chaos-charge", None);
    assert_eq!(r1, r2, "clean-run virtual-time stats must be reproducible");
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r2).unwrap()
    );
    assert_eq!(f1, f2);
}
