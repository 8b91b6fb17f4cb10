//! roclint — workspace lint driver.
//!
//! Usage: `cargo run -p rocverify --bin roclint [-- flags]`
//!
//! Scans every crate's `src/` tree with the deny-by-default rule set in
//! `rocverify::lint`, applies the roclint-owned slice of the
//! `roclint.allow` allowlist, and exits nonzero on any finding or stale
//! allowlist entry.
//!
//! Flags:
//!
//! ```text
//!   --root <dir>   workspace root (default: CARGO_MANIFEST_DIR/../..)
//!   --json         emit findings as one JSON object on stdout
//!   --stats        print a per-rule summary table
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use rocverify::lint::{lint_workspace, LintConfig, Rule};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut stats = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("roclint: static determinism/robustness lints for the workspace");
                println!("  --root <dir>   workspace root (default: CARGO_MANIFEST_DIR/../..)");
                println!("  --json         findings as JSON on stdout");
                println!("  --stats        per-rule summary table");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("roclint: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        // The binary lives in crates/rocverify; the workspace root is
        // two levels up from its manifest.
        let manifest = std::env::var("CARGO_MANIFEST_DIR")
            .unwrap_or_else(|_| ".".to_string());
        PathBuf::from(manifest).join("../..")
    });

    let report = match lint_workspace(&root, &LintConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("roclint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        let findings: Vec<String> = report.findings.iter().map(|f| f.to_json()).collect();
        println!(
            "{{\"tool\":\"roclint\",\"clean\":{},\"files_scanned\":{},\"stale_allow\":{},\
             \"findings\":[{}]}}",
            report.clean(),
            report.files_scanned,
            report.stale_allow.len(),
            findings.join(",")
        );
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        for s in &report.stale_allow {
            println!(
                "roclint.allow:{}: stale entry (matched nothing): {} | {} | {}",
                s.lineno,
                s.rule.name(),
                s.path,
                s.needle
            );
        }
    }

    if stats {
        println!("roclint stats:");
        for rule in Rule::all().into_iter().filter(|r| !r.is_lock()) {
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
    }

    if report.clean() {
        if !json {
            println!(
                "roclint: clean — {} files scanned, 0 findings",
                report.files_scanned
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!(
                "roclint: {} finding(s), {} stale allowlist entr(ies) across {} files",
                report.findings.len(),
                report.stale_allow.len(),
                report.files_scanned
            );
        }
        ExitCode::FAILURE
    }
}
