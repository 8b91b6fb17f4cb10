//! rocsched — schedule and fault-placement exploration driver.
//!
//! Usage:
//!   cargo run --release -p rocverify --bin rocsched -- [--scenario NAME]
//!       [--depth N] [--max-runs N] [--max-faults N] [--branch-on-peeks]
//!       [--trace-dir DIR] [--smoke] [--expect-failures]
//!
//! Schedule scenarios: `panda-handshake` (2 servers x 4 clients),
//! `multitenant-handshake` (2 jobs x 2 clients on 2 shared servers),
//! `panda-restart` (2 servers x 2 clients: write, then restart from
//! disk), `trochdf-handoff` (3 ranks, double-buffer), `lost-ack-toy`
//! (known-buggy regression probe). Fault scenarios (degraded fabric,
//! every bounded drop/duplicate placement): `lossy-panda-handshake`,
//! `lossy-trochdf-handoff`. Default: all six protocol scenarios.
//! `--smoke` caps work so the CI job finishes well under its 30 s budget.

use std::process::ExitCode;

use rocverify::scenarios::{
    LossyPandaHandshake, LossyTrochdfHandoff, LostAckToy, MultiTenantHandshake, PandaHandshake,
    PandaRestart, TrochdfHandoff,
};
use rocverify::sched::{
    assert_all_fault_plans_pass, assert_all_schedules_pass, explore, explore_faults,
    ExploreOptions, FaultExploreOptions, FaultScenario, Scenario,
};

fn main() -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut opts = ExploreOptions::default();
    let mut fault_opts = FaultExploreOptions::default();
    let mut smoke = false;
    let mut expect_failures = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => {
                if let Some(n) = args.next() {
                    names.push(n);
                }
            }
            "--depth" => {
                opts.depth_budget = parse(args.next(), "--depth");
            }
            "--max-runs" => {
                opts.max_runs = parse(args.next(), "--max-runs");
                fault_opts.max_runs = opts.max_runs;
            }
            "--max-faults" => {
                fault_opts.max_faults = parse(args.next(), "--max-faults");
            }
            "--branch-on-peeks" => opts.branch_on_peeks = true,
            "--trace-dir" => opts.trace_dir = args.next().map(std::path::PathBuf::from),
            "--smoke" => smoke = true,
            "--expect-failures" => expect_failures = true,
            "--help" | "-h" => {
                println!(
                    "rocsched: exhaustive schedule and fault-placement exploration\n\
                     scenarios: panda-handshake | multitenant-handshake |\n\
                     panda-restart | trochdf-handoff | lost-ack-toy |\n\
                     lossy-panda-handshake | lossy-trochdf-handoff\n\
                     flags: --scenario NAME (repeatable), --depth N, --max-runs N,\n\
                     --max-faults N, --branch-on-peeks, --trace-dir DIR, --smoke,\n\
                     --expect-failures"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("rocsched: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    if names.is_empty() {
        names = vec![
            "panda-handshake".into(),
            "multitenant-handshake".into(),
            "panda-restart".into(),
            "trochdf-handoff".into(),
            "lossy-panda-handshake".into(),
            "lossy-trochdf-handoff".into(),
        ];
    }
    if smoke {
        // CI budget: bound the trees rather than trusting them to be
        // small. The issue-scale trees exhaust far below these caps
        // (panda: 144 runs, depth 26; handoff: 8 runs; the single-fault
        // lossy trees stay in the low hundreds); the caps only matter if
        // a regression blows a tree up, in which case `exhausted: false`
        // is printed and the smoke run still passes the runs it visited.
        opts.depth_budget = opts.depth_budget.min(40);
        opts.max_runs = opts.max_runs.min(1024);
        fault_opts.max_faults = fault_opts.max_faults.min(1);
        fault_opts.max_runs = fault_opts.max_runs.min(1024);
    }

    let mut failed = false;
    for name in &names {
        // Fault scenarios explore plans on the degraded fabric; schedule
        // scenarios explore wildcard resolutions on the clean one.
        let fault_scenario: Option<Box<dyn FaultScenario>> = match name.as_str() {
            "lossy-panda-handshake" => Some(Box::new(LossyPandaHandshake::issue_scale())),
            "lossy-trochdf-handoff" => Some(Box::new(LossyTrochdfHandoff::issue_scale())),
            _ => None,
        };
        if let Some(scenario) = fault_scenario {
            println!("rocsched: exploring {name} (fault placement) ...");
            let report = explore_faults(scenario.as_ref(), &fault_opts);
            println!("rocsched: {name}: {}", report.summary());
            if expect_failures {
                eprintln!("rocsched: {name}: --expect-failures only applies to schedule scenarios");
                failed = true;
            } else if !report.failures.is_empty() {
                let r = std::panic::catch_unwind(|| assert_all_fault_plans_pass(&report));
                if let Err(payload) = r {
                    if let Some(m) = payload.downcast_ref::<String>() {
                        eprintln!("rocsched: {name}: {m}");
                    }
                    failed = true;
                }
            }
            continue;
        }
        let scenario: Box<dyn Scenario> = match name.as_str() {
            "panda-handshake" => Box::new(PandaHandshake::issue_scale()),
            "multitenant-handshake" => Box::new(MultiTenantHandshake::issue_scale()),
            "panda-restart" => Box::new(PandaRestart),
            "trochdf-handoff" => Box::new(TrochdfHandoff::issue_scale()),
            "lost-ack-toy" => Box::new(LostAckToy),
            other => {
                eprintln!("rocsched: unknown scenario `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        };
        println!("rocsched: exploring {name} ...");
        let report = explore(scenario.as_ref(), &opts);
        println!("rocsched: {name}: {}", report.summary());
        if expect_failures {
            if report.failures.is_empty() {
                eprintln!("rocsched: {name}: expected failing schedules, found none");
                failed = true;
            } else {
                for f in &report.failures {
                    println!("  found expected failure: {}", f.message);
                    if let Some(p) = &f.trace_path {
                        println!("    trace: {p}");
                    }
                }
            }
        } else if !report.failures.is_empty() {
            // Prints decisions + trace paths, then panics; catch to keep
            // iterating over remaining scenarios with a clean exit path.
            let r = std::panic::catch_unwind(|| assert_all_schedules_pass(&report));
            if let Err(payload) = r {
                if let Some(m) = payload.downcast_ref::<String>() {
                    eprintln!("rocsched: {name}: {m}");
                }
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse(v: Option<String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("rocsched: {flag} needs a number");
        std::process::exit(2);
    })
}
