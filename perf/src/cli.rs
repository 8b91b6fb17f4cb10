//! Command line of the `perf` binary.
//!
//! ```text
//! perf run [--seed 42] [--reps N] [--workload W] [--smoke] [--no-trace] [--out PATH]
//! perf compare A.json B.json
//! perf manifest                      # print BENCHMARK.json
//! perf --workload W --seed N --seconds S --trace 0|1    # the driver's form
//! perf --one W --seed N [--smoke] [--traced] [--corrupt] # one rep (child)
//! ```

use std::time::Duration;

use serde::Content;

use crate::bench::{default_reps, runs_dir, summarize, timed_reps, traced_run, Budget, RunOpts};
use crate::compare;
use crate::harness::{git_commit, nproc, Doc, WorkloadDoc, SCHEMA};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{self, run_rep, RepOpts, Sizing, NAMES};

/// What one measuring run of the driver's form lasts, in seconds.
pub const RUN_SECONDS: u64 = 25;

/// The end-to-end metrics the driver's form prints, with the bound
/// `BENCHMARK.json` records for each. The driver compares medians over
/// ten *different* seeds, taken minutes apart on a shared two-core box,
/// so these bounds cover what `compare`'s same-seed, back-to-back bounds
/// (`END_TO_END`) need not: the seed's mesh partition moves virtual time
/// (by 2-5 %), allocation volume and peak memory (1-3 %), and host speed
/// wanders by 5-12 % between runs. Each bound here is at least three
/// times the spread measured that way (see README, "Spread").
///
/// `vt_restart_s` is not defined on `fabric_4k` and `fail_frac` is 0 on
/// a clean run, and the driver wants metrics that exist on every
/// workload and are never 0: the first is printed with the per-layer
/// metrics, the second is the line's `failed`/`attempted` pair.
const DRIVER_END_TO_END: [(&str, f64); 7] = [
    ("setup_s", 0.25),
    ("wall_s", 0.25),
    ("host_mb_s", 0.25),
    ("peak_rss_mib", 0.15),
    ("alloc_mib", 0.10),
    ("alloc_kcalls", 0.05),
    ("vt_io_s", 0.20),
];

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match value(args, name) {
        None if flag(args, name) => Err(format!("{name} needs a value")),
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read {v:?}")),
    }
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("manifest") => {
            println!("{}", manifest());
            Ok(0)
        }
        _ if flag(args, "--one") => one(args),
        _ if flag(args, "--workload") => driver(args),
        _ => Err("usage: perf run|compare|manifest ... (see perf/README.md)".into()),
    };
    result.unwrap_or_else(|why| {
        eprintln!("perf: {why}");
        2
    })
}

fn known(name: &str) -> Result<(), String> {
    if NAMES.contains(&name) {
        Ok(())
    } else {
        Err(format!("unknown workload {name:?}; known: {NAMES:?}"))
    }
}

/// Child mode: one rep in this process, its result as one JSON line.
fn one(args: &[String]) -> Result<i32, String> {
    let name = value(args, "--one").ok_or("--one needs a workload")?;
    let seed = parsed(args, "--seed")?.unwrap_or(42);
    let size = if flag(args, "--smoke") {
        Sizing::smoke()
    } else {
        Sizing::full()
    };
    let opts = RepOpts {
        traced: flag(args, "--traced"),
        corrupt: flag(args, "--corrupt"),
    };
    let rep = run_rep(name, seed, &size, opts)?;
    println!(
        "{}",
        serde_json::to_string(&rep).map_err(|e| e.to_string())?
    );
    Ok(0)
}

fn print_workload(w: &WorkloadDoc) {
    println!(
        "\n== {} — {} reps, {} of {} operations failed",
        w.name, w.reps, w.failed, w.attempted
    );
    for (name, m) in &w.end_to_end {
        let q = m.quartiles.unwrap_or([m.median, m.median]);
        println!(
            "  {name:<14} {:>14.6} {:<6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {} spread {:.1}%",
            m.median,
            m.unit,
            q[0],
            q[1],
            m.min,
            m.max,
            m.n,
            100.0 * m.spread()
        );
    }
    for l in &w.layers {
        println!(
            "  {:<30} {:>16.6} {}{}",
            l.name,
            l.value,
            l.unit,
            if l.exact { "  (exact)" } else { "" }
        );
    }
    if !w.layer_self_s.is_empty() {
        let total: f64 = w.layer_self_s.values().sum();
        let shares: Vec<String> = w
            .layer_self_s
            .iter()
            .map(|(layer, s)| format!("{layer} {:.0}%", 100.0 * s / total))
            .collect();
        println!("  layer walk self time {total:.3} s: {}", shares.join(", "));
    }
    for f in &w.check_failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// `perf run`: every workload (or one), timed reps then the traced run,
/// one document.
fn run(args: &[String]) -> Result<i32, String> {
    let opts = RunOpts {
        seed: parsed(args, "--seed")?.unwrap_or(42),
        smoke: flag(args, "--smoke"),
        corrupt: flag(args, "--corrupt"),
        rep_timeout: Duration::from_secs(120),
    };
    let reps: Option<usize> = parsed(args, "--reps")?;
    let only = value(args, "--workload");
    if let Some(name) = only {
        known(name)?;
    }
    let out = value(args, "--out").map_or_else(
        || {
            runs_dir().join(if opts.smoke {
                "perf-smoke.json"
            } else {
                "perf.json"
            })
        },
        std::path::PathBuf::from,
    );

    let mut doc = Doc {
        schema: SCHEMA.to_string(),
        seed: opts.seed,
        smoke: opts.smoke,
        nproc: nproc(),
        commit: git_commit(),
        workloads: Vec::new(),
    };
    println!(
        "perf: seed {} {} on {} cpus, commit {}",
        doc.seed,
        if doc.smoke {
            "smoke sizing"
        } else {
            "full sizing"
        },
        doc.nproc,
        doc.commit
    );
    for name in NAMES.into_iter().filter(|n| only.is_none_or(|o| o == *n)) {
        let n = reps.unwrap_or_else(|| default_reps(name));
        let mut w = summarize(name, &timed_reps(name, &opts, Budget::Reps(n)));
        if !flag(args, "--no-trace") {
            traced_run(name, &opts, &mut w);
        }
        print_workload(&w);
        doc.workloads.push(w);
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.to_json()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nperf: wrote {}", out.display());
    let clean = doc
        .workloads
        .iter()
        .all(|w| w.failed == 0 && w.check_failures.is_empty());
    Ok(if clean { 0 } else { 1 })
}

/// `perf compare A.json B.json`.
fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("usage: perf compare BASE.json NEW.json".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Doc::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (base, new) = (load(a)?, load(b)?);
    let rows = compare::compare(&base, &new)?;
    print!("{}", compare::render(&rows));
    let failing: Vec<_> = rows.iter().filter(|r| r.verdict.fails()).collect();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved && !r.bound.is_nan())
        .count();
    println!(
        "\nbase {} ({} cpus) -> new {} ({} cpus): {} regressed or drifted, {} unresolved",
        base.commit,
        base.nproc,
        new.commit,
        new.nproc,
        failing.len(),
        unresolved
    );
    Ok(if failing.is_empty() { 0 } else { 1 })
}

fn metric_json(value: f64, unit: &str) -> Content {
    Content::Map(vec![
        ("value".into(), Content::F64(value)),
        ("unit".into(), Content::Str(unit.into())),
    ])
}

/// The driver's form: measure one workload for `--seconds`, print one
/// JSON object as the last line.
fn driver(args: &[String]) -> Result<i32, String> {
    let name = value(args, "--workload").ok_or("--workload needs a name")?;
    known(name)?;
    let opts = RunOpts {
        seed: parsed(args, "--seed")?.ok_or("--seed is required")?,
        smoke: flag(args, "--smoke"),
        corrupt: flag(args, "--corrupt"),
        rep_timeout: Duration::from_secs(60),
    };
    let seconds: f64 = parsed(args, "--seconds")?.ok_or("--seconds is required")?;
    let trace: u8 = parsed(args, "--trace")?.ok_or("--trace is required")?;

    let mut metrics: Vec<(String, Content)> = Vec::new();
    let w = if trace == 0 {
        let w = summarize(name, &timed_reps(name, &opts, Budget::Seconds(seconds)));
        for (metric, _) in DRIVER_END_TO_END {
            let m = w
                .end_to_end
                .get(metric)
                .ok_or_else(|| format!("no rep of {name} produced {metric}"))?;
            metrics.push((metric.to_string(), metric_json(m.median, &m.unit)));
        }
        w
    } else {
        let mut w = summarize(name, &[]);
        let plain = traced_run(name, &opts, &mut w);
        w.attempted = plain.as_ref().map_or(1, |r| r.attempted);
        w.failed = if w.check_failures.is_empty() {
            0
        } else {
            w.attempted
        };
        // Every per-layer metric on every workload: a layer that is not
        // on this workload's path did no work, which reads 0.
        for (metric, unit, ..) in PER_LAYER {
            let v = w.layer(metric).map_or(0.0, |l| l.value);
            metrics.push((metric.to_string(), metric_json(v, unit)));
        }
        let vt_restart = plain.and_then(|r| r.vt_restart_s).unwrap_or(0.0);
        metrics.push(("vt_restart_s".into(), metric_json(vt_restart, "s")));
        w
    };
    for f in &w.check_failures {
        eprintln!("perf: {name}: CHECK FAILED: {f}");
    }
    let correct = w.failed == 0 && w.check_failures.is_empty();
    let line = Content::Map(vec![
        ("correct".into(), Content::Bool(correct)),
        ("attempted".into(), Content::U64(w.attempted.max(1))),
        ("failed".into(), Content::U64(w.failed)),
        ("metrics".into(), Content::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(if correct { 0 } else { 1 })
}

/// The text of the root `BENCHMARK.json`, generated from the same tables
/// the harness measures with (a test holds the committed file to it).
pub fn manifest() -> String {
    let s = |x: &str| Content::Str(x.to_string());
    let strs = |xs: &[&str]| Content::Seq(xs.iter().map(|x| s(x)).collect());
    let workloads = NAMES
        .iter()
        .map(|n| {
            Content::Map(vec![
                ("name".into(), s(n)),
                ("why".into(), s(workloads::why(n))),
            ])
        })
        .collect();
    let end_to_end = DRIVER_END_TO_END
        .iter()
        .map(|(name, bound)| {
            let (_, unit, better, _) = END_TO_END
                .iter()
                .find(|(n, ..)| n == name)
                .expect("driver metric is an end-to-end metric");
            Content::Map(vec![
                ("name".into(), s(name)),
                ("unit".into(), s(unit)),
                ("better".into(), s(better.name())),
                ("bound".into(), Content::F64(*bound)),
            ])
        })
        .collect();
    let layer = |name: &str, unit: &str, better: &str| {
        Content::Map(vec![
            ("name".into(), s(name)),
            ("unit".into(), s(unit)),
            ("better".into(), s(better)),
        ])
    };
    let mut per_layer: Vec<Content> = PER_LAYER
        .iter()
        .map(|(name, unit, better, _)| layer(name, unit, better.name()))
        .collect();
    per_layer.push(layer("vt_restart_s", "s", "lower"));
    let doc = Content::Map(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["perf"])),
        ("run_seconds".into(), Content::U64(RUN_SECONDS)),
        ("workloads".into(), Content::Seq(workloads)),
        ("end_to_end".into(), Content::Seq(end_to_end)),
        ("per_layer".into(), Content::Seq(per_layer)),
    ]);
    serde_json::to_string_pretty(&doc).expect("manifest serializes")
}
