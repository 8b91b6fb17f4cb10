//! End-to-end tests of the `perf` binary at the `--smoke` sizing (scale
//! 0.05, 8 ranks, 256-rank fabric): all four workloads through the real
//! child re-exec, the output checks live, the driver's line well-formed.

use std::path::PathBuf;
use std::process::{Command, Output};

use perf::harness::Doc;
use perf::metrics::{END_TO_END, PER_LAYER};
use perf::workloads::NAMES;

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("run perf")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn load(path: &PathBuf) -> Doc {
    Doc::from_json(&std::fs::read_to_string(path).expect("document written"))
        .expect("document parses")
}

#[test]
fn smoke_run_measures_all_four_workloads_and_passes_its_checks() {
    let out_path = tmp("smoke.json");
    let out = perf(&[
        "run",
        "--smoke",
        "--reps",
        "3",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let doc = load(&out_path);
    assert!(doc.smoke && doc.seed == 42 && doc.nproc >= 1);
    assert_eq!(
        doc.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>(),
        NAMES
    );
    for w in &doc.workloads {
        assert_eq!((w.reps, w.failed), (3, 0), "{}", w.name);
        assert!(
            w.attempted > 0 && w.check_failures.is_empty(),
            "{:?}",
            w.check_failures
        );
        for (metric, unit, _, _) in END_TO_END {
            let defined = metric != "vt_restart_s" || w.name != "fabric_4k";
            match w.end_to_end.get(metric) {
                Some(m) => {
                    assert!(defined, "{metric} on {}", w.name);
                    assert_eq!((m.unit.as_str(), m.n), (unit, 3));
                    assert!(
                        m.median > 0.0 || metric == "fail_frac",
                        "{metric} is {}",
                        m.median
                    );
                }
                None => assert!(!defined, "{} lacks {metric}", w.name),
            }
        }
        // Virtual time repeated bit for bit across the reps.
        let vt = &w.end_to_end["vt_io_s"];
        assert_eq!(vt.min.to_bits(), vt.max.to_bits(), "{}", w.name);
        // The traced run produced layer metrics, all of them known names.
        assert!(!w.layers.is_empty() && !w.layer_self_s.is_empty());
        for l in &w.layers {
            assert!(
                PER_LAYER
                    .iter()
                    .any(|(n, u, ..)| *n == l.name && *u == l.unit),
                "{}",
                l.name
            );
            assert!(l.value.is_finite(), "{} = {}", l.name, l.value);
        }
        let trace = perf::bench::runs_dir().join(format!("{}.trace.json", w.name));
        let text = std::fs::read_to_string(&trace).expect("layer-walk trace written");
        let chrome: serde::Content = serde_json::from_str(&text).expect("trace is JSON");
        assert!(!chrome
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
    let layer = |w: &str, l: &str| doc.workload(w).unwrap().layer(l).map(|l| l.value);
    // Each layer shows up on the workloads whose path it is on, only.
    assert!(layer("panda_snap64", "rocpanda.buffer_drain_spans").unwrap() > 0.0);
    assert!(layer("panda_snap64", "rocobs.overhead_frac").is_some());
    assert_eq!(layer("trochdf_snap64", "rocpanda.wire_encode_mb_s"), None);
    assert!(layer("trochdf_snap64", "rocsdf.write_s").unwrap() > 0.0);
    assert!(layer("restart_m2n", "rochdf.restart_twophase_s").unwrap() > 0.0);
    assert!(layer("restart_m2n", "rocstore.read_ops").unwrap() > 0.0);
    assert!(layer("fabric_4k", "rocnet.msgs").unwrap() > 0.0);
    assert_eq!(layer("fabric_4k", "rocsdf.write_s"), None);

    // A document compares clean against itself.
    let p = out_path.to_str().unwrap();
    let cmp = perf(&["compare", p, p]);
    assert!(
        cmp.status.success(),
        "{}",
        String::from_utf8_lossy(&cmp.stdout)
    );
    assert!(String::from_utf8_lossy(&cmp.stdout).contains("identical"));
}

#[test]
fn corrupted_outputs_raise_fail_frac_and_fail_the_command() {
    let out_path = tmp("corrupt.json");
    let out = perf(&[
        "run",
        "--smoke",
        "--reps",
        "2",
        "--corrupt",
        "--no-trace",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a failed check must fail the command"
    );
    let doc = load(&out_path);
    for w in &doc.workloads {
        assert!(
            w.failed > 0 && !w.check_failures.is_empty(),
            "{} noticed nothing",
            w.name
        );
        assert!(w.end_to_end["fail_frac"].median > 0.0, "{}", w.name);
    }
    // One flipped rank checksum is one failed operation, not all of them.
    let fabric = doc.workload("fabric_4k").unwrap();
    assert_eq!(fabric.failed, 2, "one rank in each of two reps");
    // One flipped byte on disk fails the restarts that read it.
    let restart = doc.workload("restart_m2n").unwrap();
    assert!(restart.failed >= 2 && restart.failed <= restart.attempted);
    // ... through the output checks, not through a crash or the timeout.
    assert!(restart
        .check_failures
        .iter()
        .any(|f| f.contains("checksum mismatch")));
    for w in &doc.workloads {
        for f in &w.check_failures {
            assert!(
                !f.contains("timed out") && !f.contains("unreadable"),
                "{}: {f}",
                w.name
            );
        }
    }

    // A larger failure share is a regression for `compare`.
    let clean_path = tmp("clean.json");
    let clean = perf(&[
        "run",
        "--smoke",
        "--reps",
        "2",
        "--no-trace",
        "--out",
        clean_path.to_str().unwrap(),
    ]);
    assert!(clean.status.success());
    let cmp = perf(&[
        "compare",
        clean_path.to_str().unwrap(),
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(cmp.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&cmp.stdout).contains("DRIFT"));
}

fn driver_line(out: &Output) -> serde::Content {
    let stdout = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(stdout.lines().last().expect("a last line")).expect("last line is JSON")
}

#[test]
fn driver_form_prints_the_contract_line() {
    let bm: serde::Content =
        serde_json::from_str(&perf::cli::manifest()).expect("manifest is JSON");
    let names = |key: &str| -> Vec<String> {
        bm.get(key)
            .and_then(|m| m.as_array())
            .unwrap()
            .iter()
            .map(|m| m["name"].as_str().unwrap().to_string())
            .collect()
    };
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = perf(&[
            "--workload",
            "fabric_4k",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = driver_line(&out);
        let keys: Vec<&str> = line
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert!(line["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(line["failed"].as_u64(), Some(0));
        let got: Vec<String> = line["metrics"]
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            got,
            names(key),
            "--trace {trace} prints exactly the {key} metrics"
        );
        for (name, m) in line["metrics"].as_map().unwrap() {
            assert!(m["value"].as_f64().unwrap().is_finite(), "{name}");
            assert!(!m["unit"].as_str().unwrap().is_empty(), "{name}");
            if key == "end_to_end" {
                assert!(m["value"].as_f64().unwrap() > 0.0, "{name} must never be 0");
            }
        }
    }
    // A corrupted run still prints its line, says so, and exits non-zero.
    let out = perf(&[
        "--workload",
        "fabric_4k",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--corrupt",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let line = driver_line(&out);
    assert_eq!(line["correct"].as_bool(), Some(false));
    assert!(line["failed"].as_u64().unwrap() > 0);
}

#[test]
fn committed_benchmark_json_matches_the_harness_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(
        committed.trim_end() == perf::cli::manifest(),
        "BENCHMARK.json is stale: regenerate it with `cargo run --release -- manifest > ../BENCHMARK.json`"
    );
}

#[test]
fn bad_command_lines_are_refused() {
    assert_eq!(perf(&[]).status.code(), Some(2));
    assert_eq!(perf(&["run", "--workload", "nope"]).status.code(), Some(2));
    assert_eq!(perf(&["--one", "nope"]).status.code(), Some(2));
    assert_eq!(perf(&["compare", "only-one.json"]).status.code(), Some(2));
}
