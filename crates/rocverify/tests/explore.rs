//! Schedule-exploration acceptance tests: the two protocol scenarios
//! named in the verification issue exhaust their schedule trees with
//! byte-identical snapshots, and a known-buggy protocol is caught with a
//! usable counterexample.
//!
//! Every test also pins the size of the tree it walks — runs and
//! decisions, or fault plans and frames. The tree is a function of the
//! fabric's wildcard candidate sets and their order, so a fabric change
//! that alters either fails here even when every schedule still passes.

use rocverify::scenarios::{
    LossyPandaHandshake, LossyTrochdfHandoff, LostAckToy, MultiTenantHandshake, PandaHandshake,
    PandaRestart, TrochdfHandoff,
};
use rocverify::sched::{
    assert_all_fault_plans_pass, assert_all_schedules_pass, explore, explore_faults,
    ExploreOptions, ExploreReport, FaultExploreOptions, FaultExploreReport,
};

/// The size of an explored schedule tree: runs and decisions granted.
fn tree(report: &ExploreReport) -> (usize, usize) {
    (report.runs, report.decisions)
}

/// The size of an explored fault tree: plans run, frames of the clean
/// run and frames branched on.
fn plans(report: &FaultExploreReport) -> (usize, usize, usize) {
    (report.runs, report.clean_frames, report.fault_points)
}

#[test]
fn panda_handshake_exhausts_and_snapshots_agree() {
    let report = explore(&PandaHandshake::issue_scale(), &ExploreOptions::default());
    assert!(report.exhausted, "tree must be fully explored: {}", report.summary());
    assert_eq!(tree(&report), (144, 3648), "{}", report.summary());
    assert_all_schedules_pass(&report);
}

#[test]
fn multitenant_handshake_exhausts_and_tenants_stay_isolated() {
    // Two jobs of different priority share the server pool; every
    // interleaving of their drain traffic must yield the same canonical
    // per-tenant snapshots (no cross-tenant leakage, no lost blocks).
    let opts = ExploreOptions {
        max_runs: 4096,
        ..ExploreOptions::default()
    };
    let report = explore(&MultiTenantHandshake::issue_scale(), &opts);
    assert!(report.exhausted, "tree must be fully explored: {}", report.summary());
    assert_eq!(tree(&report), (1255, 36040), "{}", report.summary());
    assert_all_schedules_pass(&report);
}

#[test]
fn panda_restart_exhausts_through_the_flush_tokens() {
    // The server↔server round (tokens traded, then each server scans its
    // share of the files): every order of the clients' requests and the
    // servers' replies restores what was written.
    let report = explore(&PandaRestart, &ExploreOptions::default());
    assert!(report.exhausted, "tree must be fully explored: {}", report.summary());
    assert_eq!(tree(&report), (18, 576), "{}", report.summary());
    assert_all_schedules_pass(&report);
}

#[test]
fn trochdf_handoff_exhausts_and_snapshots_agree() {
    let report = explore(&TrochdfHandoff::issue_scale(), &ExploreOptions::default());
    assert!(report.exhausted, "tree must be fully explored: {}", report.summary());
    assert_eq!(tree(&report), (8, 48), "{}", report.summary());
    assert_all_schedules_pass(&report);
}

#[test]
fn lossy_panda_handshake_survives_every_single_fault_placement() {
    let report = explore_faults(
        &LossyPandaHandshake::issue_scale(),
        &FaultExploreOptions::default(),
    );
    assert!(report.exhausted, "fault tree must be fully explored: {}", report.summary());
    assert_eq!(plans(&report), (105, 52, 52), "{}", report.summary());
    assert_all_fault_plans_pass(&report);
}

#[test]
fn lossy_panda_handshake_survives_fault_pairs_at_small_scale() {
    let opts = FaultExploreOptions {
        max_faults: 2,
        max_runs: 8192,
        ..FaultExploreOptions::default()
    };
    let report = explore_faults(&LossyPandaHandshake::small(), &opts);
    assert!(report.exhausted, "two-fault tree must be exhausted: {}", report.summary());
    assert_eq!(plans(&report), (1569, 26, 784), "{}", report.summary());
    assert_all_fault_plans_pass(&report);
}

#[test]
fn lossy_trochdf_handoff_survives_every_single_fault_placement() {
    let report = explore_faults(
        &LossyTrochdfHandoff::issue_scale(),
        &FaultExploreOptions::default(),
    );
    assert!(report.exhausted, "fault tree must be fully explored: {}", report.summary());
    assert_eq!(plans(&report), (25, 12, 12), "{}", report.summary());
    assert_all_fault_plans_pass(&report);
}

#[test]
fn lost_ack_bug_is_found_with_counterexample() {
    let dir = std::env::temp_dir().join(format!("rocsched-cex-{}", std::process::id()));
    let opts = ExploreOptions {
        trace_dir: Some(dir.clone()),
        ..ExploreOptions::default()
    };
    let report = explore(&LostAckToy, &opts);
    assert!(report.exhausted);
    // One wildcard with two candidates.
    assert_eq!(tree(&report), (2, 4), "{}", report.summary());
    assert_eq!(report.failures.len(), 1, "exactly the flipped schedule deadlocks");
    let f = &report.failures[0];
    assert!(
        f.message.contains("deadlock"),
        "failure should be the deadlock poison, got: {}",
        f.message
    );
    // The counterexample names the fatal decision: rank 0 took rank 2's
    // request ahead of rank 1's.
    assert_eq!(f.decisions[0].chosen, 1, "{}", f.decisions[0].describe);
    let trace = f.trace_path.as_ref().expect("trace dumped next to the failure");
    let body = std::fs::read_to_string(trace).expect("trace file exists");
    assert!(body.contains("traceEvents"), "chrome trace format");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn depth_budget_prunes_loudly() {
    let opts = ExploreOptions {
        depth_budget: 0,
        ..ExploreOptions::default()
    };
    let report = explore(&LostAckToy, &opts);
    // Budget 0 leaves only the reference schedule.
    assert_eq!(tree(&report), (1, 2), "{}", report.summary());
    assert!(!report.exhausted, "dropped alternatives must clear the exhausted flag");
    assert_eq!(report.budget_pruned, 1);
}

#[test]
fn peek_branching_is_outcome_equivalent_on_the_handoff() {
    // The peek reduction claims probe choices cannot affect outcomes;
    // spot-check it on the cheap scenario by exploring without it.
    let opts = ExploreOptions {
        branch_on_peeks: true,
        ..ExploreOptions::default()
    };
    let report = explore(&TrochdfHandoff::issue_scale(), &opts);
    assert!(report.exhausted, "{}", report.summary());
    assert_eq!(tree(&report), (8, 48), "{}", report.summary());
    assert_all_schedules_pass(&report);
}
