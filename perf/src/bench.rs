//! Orchestration: timed reps in child processes, their summary into the
//! end-to-end metrics, and the separate traced run that fills in the
//! per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::harness::{median, run_child, LayerMetric, Metric, Spans, WorkloadDoc};
use crate::layers;
use crate::metrics::{layer, END_TO_END, PER_LAYER};
use crate::workloads::{self, Rep, Sizing};

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOpts {
    pub seed: u64,
    pub smoke: bool,
    /// Damage one output per rep so the checks must fire (tests only).
    pub corrupt: bool,
    /// A rep that outlives this is killed and counted as failed.
    pub rep_timeout: Duration,
}

impl RunOpts {
    pub fn sizing(&self) -> Sizing {
        if self.smoke {
            Sizing::smoke()
        } else {
            Sizing::full()
        }
    }
}

/// How many timed reps to take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Reps(usize),
    /// Keep starting reps until this much time has passed (at least
    /// three reps, so there is a median and quartiles).
    Seconds(f64),
}

/// Default reps per workload: `fabric_4k` is the noisiest, so it gets
/// two more.
pub fn default_reps(name: &str) -> usize {
    if name == "fabric_4k" {
        9
    } else {
        7
    }
}

/// Where traces and documents go: `perf/runs/`.
pub fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

fn one_rep(name: &str, opts: &RunOpts, traced: bool) -> Result<Rep, String> {
    let mut args = vec![
        "--one".to_string(),
        name.to_string(),
        "--seed".to_string(),
        opts.seed.to_string(),
    ];
    for (flag, on) in [
        ("--smoke", opts.smoke),
        ("--traced", traced),
        ("--corrupt", opts.corrupt),
    ] {
        if on {
            args.push(flag.to_string());
        }
    }
    let line = run_child(&args, opts.rep_timeout).map_err(|e| e.to_string())?;
    serde_json::from_str(&line).map_err(|e| format!("unreadable rep line: {e}"))
}

/// Run the timed reps of `name`, tracing off, one child process each.
pub fn timed_reps(name: &str, opts: &RunOpts, budget: Budget) -> Vec<Result<Rep, String>> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let done = match budget {
            Budget::Reps(n) => reps.len() >= n,
            Budget::Seconds(s) => reps.len() >= 3 && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            return reps;
        }
        let rep = one_rep(name, opts, false);
        if let Err(why) = &rep {
            eprintln!("perf: {name} rep {}: {why}", reps.len() + 1);
        }
        reps.push(rep);
    }
}

/// Summarize timed reps into the workload's end-to-end metrics, with the
/// cross-rep checks: every virtual time and the output fingerprint must
/// be identical across reps of one seed.
pub fn summarize(name: &str, reps: &[Result<Rep, String>]) -> WorkloadDoc {
    let good: Vec<&Rep> = reps.iter().filter_map(|r| r.as_ref().ok()).collect();
    let mut check_failures: Vec<String> = Vec::new();
    // A rep that crashed or timed out failed every operation it was to
    // attempt; size it like the reps that did report.
    let nominal = good.first().map_or(1, |r| r.attempted);
    let mut attempted = 0;
    let mut failed = 0;
    let mut fail_frac = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        match rep {
            Ok(r) => {
                attempted += r.attempted;
                failed += r.failed;
                fail_frac.push(r.failed as f64 / r.attempted.max(1) as f64);
                for f in &r.failures {
                    check_failures.push(format!("rep {}: {f}", i + 1));
                }
            }
            Err(why) => {
                attempted += nominal;
                failed += nominal;
                fail_frac.push(1.0);
                check_failures.push(format!("rep {}: {why}", i + 1));
            }
        }
    }
    let vt_tol = workloads::vt_tolerance(name);
    if let Some(first) = good.first() {
        let close = |a: f64, b: f64| (a - b).abs() <= vt_tol * b.abs();
        for (i, r) in good.iter().enumerate().skip(1) {
            let same = close(r.vt_io_s, first.vt_io_s)
                && close(
                    r.vt_restart_s.unwrap_or(0.0),
                    first.vt_restart_s.unwrap_or(0.0),
                )
                && r.fingerprint == first.fingerprint;
            if !same {
                failed += r.attempted - r.failed.min(r.attempted);
                check_failures.push(format!(
                    "rep {}: outputs or virtual time differ from rep 1 (vt_io_s {} vs {}, fingerprint {:#x} vs {:#x})",
                    i + 1,
                    r.vt_io_s,
                    first.vt_io_s,
                    r.fingerprint,
                    first.fingerprint
                ));
            }
        }
    }

    let mut end_to_end = BTreeMap::new();
    for (metric, unit, better, bound) in END_TO_END {
        let samples: Vec<f64> = match metric {
            "fail_frac" => fail_frac.clone(),
            _ => good.iter().filter_map(|r| e2e_sample(metric, r)).collect(),
        };
        let bound = if metric.starts_with("vt_") {
            vt_tol
        } else {
            bound
        };
        if !samples.is_empty() {
            end_to_end.insert(
                metric.to_string(),
                Metric::from_samples(unit, better, bound, samples),
            );
        }
    }
    WorkloadDoc {
        name: name.to_string(),
        why: workloads::why(name).to_string(),
        reps: good.len(),
        attempted,
        failed: failed.min(attempted),
        end_to_end,
        layers: Vec::new(),
        layer_self_s: BTreeMap::new(),
        check_failures,
    }
}

fn e2e_sample(metric: &str, r: &Rep) -> Option<f64> {
    const MIB: f64 = (1u64 << 20) as f64;
    Some(match metric {
        "setup_s" => r.setup_s,
        "wall_s" => r.wall_s,
        "host_mb_s" => r.payload_bytes as f64 / 1e6 / r.wall_s,
        "peak_rss_mib" => r.peak_rss_kib as f64 / 1024.0,
        "alloc_mib" => r.alloc_bytes as f64 / MIB,
        "alloc_kcalls" => r.alloc_calls as f64 / 1e3,
        "vt_io_s" => r.vt_io_s,
        "vt_restart_s" => return r.vt_restart_s,
        _ => return None,
    })
}

/// Two untraced and, where `rocobs` can be installed from outside, two
/// traced reruns of `name` in fresh children, alternating; the faster of
/// each pair stands for it.
fn reruns(name: &str, opts: &RunOpts, failures: &mut Vec<String>) -> (Option<Rep>, Option<Rep>) {
    // `run_genx_restart` has no traced form, and its ranks are not ours.
    let can_trace = name != "restart_m2n";
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    for _ in 0..2 {
        for tracing in [false, true] {
            if tracing && !can_trace {
                continue;
            }
            match one_rep(name, opts, tracing) {
                Ok(r) => {
                    if r.failed > 0 {
                        failures.push(format!("traced run: {:?}", r.failures));
                    }
                    if tracing { &mut traced } else { &mut plain }.push(r);
                }
                Err(why) => failures.push(format!("traced run: {why}")),
            }
        }
    }
    let fastest = |v: Vec<Rep>| v.into_iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    (fastest(plain), fastest(traced))
}

/// The separate traced run of `name`: reruns in fresh children (exact
/// counts, virtual-time categories, tracing overhead) and the
/// single-threaded layer walk in this process. Fills `doc.layers` and
/// `doc.layer_self_s`, appends to `doc.check_failures`, and writes the
/// walk's spans to `runs/<name>.trace.json`. Returns the untraced rerun
/// it measured against.
pub fn traced_run(name: &str, opts: &RunOpts, doc: &mut WorkloadDoc) -> Option<Rep> {
    let size = opts.sizing();
    let mut sp = Spans::new(name);
    let mut m: Vec<LayerMetric> = Vec::new();

    let (plain, traced) = reruns(name, opts, &mut doc.check_failures);
    let Some(plain) = plain else {
        doc.check_failures
            .push("traced run: no untraced rerun completed".into());
        return None;
    };
    let facts = traced.as_ref().and_then(|t| t.trace.as_ref());
    let vt = |cat: &str| {
        facts
            .and_then(|f| f.category(cat))
            .map_or(0.0, |c| c.busy_s)
    };
    let count = |cat: &str| facts.and_then(|f| f.category(cat)).map_or(0, |c| c.count) as f64;

    if let (Some(t), Some(f)) = (&traced, facts) {
        m.push(layer("rocobs.spans", f.spans as f64));
        m.push(layer("rocobs.overhead_frac", t.wall_s / plain.wall_s - 1.0));
        m.push(layer("rocnet.vt_send_s", vt("send")));
        m.push(layer("rocnet.vt_recv_s", vt("recv")));
        m.push(layer("rocnet.vt_probe_blocking_s", vt("probe_blocking")));
        if t.vt_io_s.to_bits() != plain.vt_io_s.to_bits() || t.fingerprint != plain.fingerprint {
            doc.check_failures
                .push("traced run: tracing changed virtual time or outputs".into());
        }
    }

    if name != "fabric_4k" {
        let fs = &plain.fs;
        m.push(layer("rocstore.write_ops", fs.write_ops as f64));
        m.push(layer("rocstore.read_ops", fs.read_ops as f64));
        m.push(layer("rocstore.bytes_written", fs.bytes_written as f64));
        m.push(layer("rocstore.bytes_read", fs.bytes_read as f64));
        m.push(layer("rocstore.files_created", fs.files_created as f64));

        // Three walks, the median of each number: one walk's host-clock
        // stages are single samples a few milliseconds long. Only the
        // last walk's spans go into the trace.
        let panda = name == "panda_snap64";
        let mut walks: Vec<layers::WalkOutcome> = (0..3)
            .map(|i| {
                let mut scratch = Spans::new(name);
                let spans = if i == 2 { &mut sp } else { &mut scratch };
                layers::block_walk(spans, opts.seed, size.scale, size.compute, panda)
            })
            .collect();
        let mut walk = walks.pop().expect("three walks");
        for (i, metric) in walk.metrics.iter_mut().enumerate() {
            let mut values = vec![metric.value];
            values.extend(walks.iter().map(|w| w.metrics[i].value));
            metric.value = median(&values);
        }
        if walk.mismatched > 0 {
            doc.check_failures.push(format!(
                "layer walk: {} of {} blocks came back different",
                walk.mismatched, walk.blocks
            ));
        }
        m.extend(walk.metrics);
    }
    match name {
        "panda_snap64" | "trochdf_snap64" => {
            // Non-I/O share: slope of host time over solver steps.
            let (short, long) = (size.steps, 3 * size.steps);
            let t_short = sp.span("genx", "run_genx(short)", |_| {
                workloads::solver_only_secs(opts.seed, &size, short)
            });
            let t_long = sp.span("genx", "run_genx(long)", |_| {
                workloads::solver_only_secs(opts.seed, &size, long)
            });
            let per_step = (t_long - t_short) / (long - short) as f64;
            m.push(layer("genx.step_ms", per_step * 1e3));
            // The ranks are genx's, so messages are counted from the
            // trace's `Send` spans rather than `Comm::stats()`.
            m.push(layer("rocnet.msgs", count("send")));
            m.push(layer(
                "rocnet.bytes",
                facts.map_or(0, |f| f.send_bytes) as f64,
            ));
            if name == "panda_snap64" {
                m.push(layer("rocpanda.buffer_fill_spans", count("buffer_fill")));
                m.push(layer("rocpanda.buffer_drain_spans", count("buffer_drain")));
                m.push(layer("rocpanda.vt_buffer_drain_s", vt("buffer_drain")));
                m.push(layer(
                    "rocpanda.vt_overlap_frac",
                    facts.map_or(0.0, |f| f.overlap_frac),
                ));
            }
        }
        "restart_m2n" => {
            for variant in ["same", "m2n", "twophase", "cold"] {
                if let Some(p) = plain.phase(&format!("restart_{variant}")) {
                    m.push(layer(
                        &format!("rochdf.restart_{variant}_s"),
                        p.secs / p.ops.max(1) as f64,
                    ));
                }
            }
        }
        "fabric_4k" => {
            let n = size.fabric_ranks;
            let spawn_s = sp.span("rocnet", "run_ranks_sched(empty)", |_| {
                workloads::spawn_secs(n)
            });
            m.push(layer("rocnet.spawn_s", spawn_s));
            for phase in ["ring", "funnel", "coll"] {
                if let Some(p) = plain.phase(phase) {
                    let per = if phase == "coll" { "op" } else { "msg" };
                    m.push(layer(
                        &format!("rocnet.{phase}_us_per_{per}"),
                        p.secs * 1e6 / p.ops.max(1) as f64,
                    ));
                }
            }
            let ring_small = sp.span("rocnet", "sendrecv ring (ranks/16)", |_| {
                workloads::ring_us_per_msg(opts.seed, (n / 16).max(2))
            });
            m.push(layer("rocnet.ring_us_per_msg_256", ring_small));
            let pingpong = sp.span("rocnet", "send_bytes/recv pingpong", |_| {
                workloads::pingpong_us(if opts.smoke { 200 } else { 2000 })
            });
            m.push(layer("rocnet.pingpong_us", pingpong));
            m.push(layer("rocnet.msgs", plain.msgs as f64));
            m.push(layer("rocnet.bytes", plain.msg_bytes as f64));
            if facts.is_some() && count("send") != plain.msgs as f64 {
                doc.check_failures.push(format!(
                    "traced run: rocobs saw {} sends, Comm::stats() {} receives",
                    count("send"),
                    plain.msgs
                ));
            }
        }
        _ => {}
    }

    // Keep the table's order so documents diff cleanly.
    m.sort_by_key(|l| PER_LAYER.iter().position(|(n, ..)| *n == l.name));
    doc.layers = m;
    doc.layer_self_s = sp.self_secs_by_layer();
    let path = runs_dir().join(format!("{name}.trace.json"));
    if let Err(e) = sp.write_chrome(&path) {
        doc.check_failures
            .push(format!("write {}: {e}", path.display()));
    }
    Some(plain)
}
