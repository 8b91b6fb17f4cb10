//! roclock — workspace lock-discipline driver.
//!
//! Usage: `cargo run -p rocverify --bin roclock [-- flags]`
//!
//! Runs the static analysis in `rocverify::lock` against the whole
//! workspace: registry coverage (`roclock.order`), guard tracking,
//! order/blocking/charge lints, and the lock-graph cycle check. Exits
//! nonzero on any finding or stale allowlist entry.
//!
//! Flags:
//!
//! ```text
//!   --root <dir>       workspace root (default: CARGO_MANIFEST_DIR/../..)
//!   --json             emit findings as one JSON object on stdout
//!   --stats            print a per-rule summary table
//!   --dot <path|->     export the static lock graph as Graphviz
//!   --witness <file>   also check a lockdep witness file (edges
//!                      recorded by a `--features rocio-core/lockdep`
//!                      test run) against the static graph; a missing
//!                      file, or a declared edge it never records, fails
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use rocverify::lock::{check_witness, lock_workspace, Finding, Rule};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut stats = false;
    let mut dot: Option<String> = None;
    let mut witness: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--stats" => stats = true,
            "--dot" => dot = args.next(),
            "--witness" => witness = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("roclock: static lock-discipline analysis for the workspace");
                println!("  --root <dir>      workspace root (default: CARGO_MANIFEST_DIR/../..)");
                println!("  --json            findings as JSON on stdout");
                println!("  --stats           per-rule summary table");
                println!("  --dot <path|->    export the static lock graph as Graphviz");
                println!("  --witness <file>  check a lockdep witness file against the graph");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("roclock: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
        PathBuf::from(manifest).join("../..")
    });

    let mut report = match lock_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("roclock: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &witness {
        // The witness file is created on the first observed edge, so a
        // run that recorded nothing (or never ran instrumented) leaves
        // none — and would vouch for nothing.
        match std::fs::read_to_string(path) {
            Ok(content) => report
                .findings
                .extend(check_witness(&report.registry, &report.graph, &content)),
            Err(e) => report.findings.push(Finding {
                rule: Rule::LockOrder,
                path: path.display().to_string(),
                line: 0,
                snippet: String::new(),
                message: format!("witness file unreadable ({e}): no edge was witnessed"),
            }),
        }
    }

    if let Some(target) = &dot {
        let rendered = report.graph.to_dot();
        if target == "-" {
            print!("{rendered}");
        } else if let Err(e) = std::fs::write(target, &rendered) {
            eprintln!("roclock: writing {target}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if json {
        let findings: Vec<String> = report.findings.iter().map(|f| f.to_json()).collect();
        println!(
            "{{\"tool\":\"roclock\",\"clean\":{},\"files_scanned\":{},\"locks\":{},\"edges\":{},\
             \"stale_allow\":{},\"findings\":[{}]}}",
            report.clean(),
            report.files_scanned,
            report.registry.locks.len(),
            report.graph.edges.len(),
            report.stale_allow.len(),
            findings.join(",")
        );
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        for s in &report.stale_allow {
            println!(
                "roclock.allow:{}: stale entry (matched nothing): {} | {} | {}",
                s.lineno,
                s.rule.name(),
                s.path,
                s.needle
            );
        }
    }

    if stats {
        println!("roclock stats:");
        for rule in Rule::all() {
            let kept = report.findings.iter().filter(|f| f.rule == rule).count();
            let supp = report.suppressed.iter().filter(|f| f.rule == rule).count();
            let allow = report.allow.iter().filter(|a| a.rule == rule).count();
            let stale = report.stale_allow.iter().filter(|a| a.rule == rule).count();
            println!(
                "  {:<20} findings {:>3}  suppressed {:>3}  allow {:>3}  stale {:>3}",
                rule.name(),
                kept,
                supp,
                allow,
                stale
            );
        }
        println!(
            "  {} registered lock class(es), {} static graph edge(s), {} files scanned",
            report.registry.locks.len(),
            report.graph.edges.len(),
            report.files_scanned
        );
    }

    if report.clean() {
        if !json {
            println!(
                "roclock: clean — {} lock class(es), {} edge(s), graph acyclic, {} files scanned",
                report.registry.locks.len(),
                report.graph.edges.len(),
                report.files_scanned
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!(
                "roclock: {} finding(s), {} stale allowlist entr(ies) across {} files",
                report.findings.len(),
                report.stale_allow.len(),
                report.files_scanned
            );
        }
        ExitCode::FAILURE
    }
}
