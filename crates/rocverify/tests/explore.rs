//! Schedule-exploration acceptance tests: the two protocol scenarios
//! named in the verification issue exhaust their schedule trees with
//! byte-identical snapshots, and a known-buggy protocol is caught with a
//! usable counterexample.

use rocverify::scenarios::{
    LossyPandaHandshake, LossyTrochdfHandoff, LostAckToy, MultiTenantHandshake, PandaHandshake,
    PandaRestart, TrochdfHandoff,
};
use rocverify::sched::{
    assert_all_fault_plans_pass, assert_all_schedules_pass, explore, explore_faults,
    ExploreOptions, FaultExploreOptions,
};

#[test]
fn panda_handshake_exhausts_and_snapshots_agree() {
    let report = explore(&PandaHandshake::issue_scale(), &ExploreOptions::default());
    assert!(report.exhausted, "tree must be fully explored: {}", report.summary());
    assert!(
        report.runs > 100,
        "2 servers x 4 clients should branch substantially, got {}",
        report.summary()
    );
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
    assert!(
        report.runs > 1,
        "two interleaved jobs should branch, got {}",
        report.summary()
    );
    assert_all_schedules_pass(&report);
}

#[test]
fn panda_restart_exhausts_through_the_flush_tokens() {
    // The server↔server round (tokens traded, then each server scans its
    // share of the files): every order of the clients' requests and the
    // servers' replies restores what was written.
    let report = explore(&PandaRestart, &ExploreOptions::default());
    assert!(report.exhausted, "tree must be fully explored: {}", report.summary());
    assert!(report.runs > 1, "restart wildcards should branch, got {}", report.summary());
    assert_all_schedules_pass(&report);
}

#[test]
fn trochdf_handoff_exhausts_and_snapshots_agree() {
    let report = explore(&TrochdfHandoff::issue_scale(), &ExploreOptions::default());
    assert!(report.exhausted, "tree must be fully explored: {}", report.summary());
    assert!(
        report.runs > 1,
        "halo wildcards should branch, got {}",
        report.summary()
    );
    assert_all_schedules_pass(&report);
}

#[test]
fn lossy_panda_handshake_survives_every_single_fault_placement() {
    let report = explore_faults(
        &LossyPandaHandshake::issue_scale(),
        &FaultExploreOptions::default(),
    );
    assert!(report.exhausted, "fault tree must be fully explored: {}", report.summary());
    assert!(
        report.clean_frames > 20,
        "2 servers x 4 clients should emit a substantial frame set, got {}",
        report.summary()
    );
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
    assert_all_fault_plans_pass(&report);
}

#[test]
fn lossy_trochdf_handoff_survives_every_single_fault_placement() {
    let report = explore_faults(
        &LossyTrochdfHandoff::issue_scale(),
        &FaultExploreOptions::default(),
    );
    assert!(report.exhausted, "fault tree must be fully explored: {}", report.summary());
    assert!(
        report.clean_frames >= 12,
        "3 ranks x 2 halo frames each plus acks, got {}",
        report.summary()
    );
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
    assert_eq!(report.runs, 2, "one wildcard with two candidates: {}", report.summary());
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
    assert_eq!(report.runs, 1, "budget 0 leaves only the reference schedule");
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
    assert_all_schedules_pass(&report);
}
