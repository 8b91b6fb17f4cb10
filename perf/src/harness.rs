//! The one shared harness: sample statistics, the allocator counters,
//! the `VmHWM` probe, the bench-owned span recorder, the child re-exec
//! with a kill-able timeout, and the serde schema of the document.
//!
//! Everything here is safe code. The `GlobalAlloc` impl that feeds
//! [`alloc_note`] is the crate's only `unsafe` and lives in the binary
//! (`main.rs`), so library tests run on the system allocator and simply
//! see zero counts.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Sample statistics

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) computes them, so the spread this harness
/// reports is the spread the driver computes. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of a non-empty sample set (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it, with its
/// value: `None` below twenty samples, where that would be under the
/// median and the quartiles already say more.
pub fn high_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric of one workload: every sample plus the summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub unit: String,
    pub better: Better,
    /// Regression bound as a share of the base median. Below 0.1 % it is
    /// an equality tolerance instead: the value must repeat for one seed
    /// (bit-exactly at 0), and a move either way is drift.
    pub bound: f64,
    pub n: usize,
    pub median: f64,
    /// `[q1, q3]`; absent with fewer than two samples.
    pub quartiles: Option<[f64; 2]>,
    pub min: f64,
    pub max: f64,
    /// `[percentile, value]` of the highest percentile with ten samples
    /// beyond it; absent below twenty samples.
    pub tail: Option<[f64; 2]>,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn from_samples(unit: &str, better: Better, bound: f64, samples: Vec<f64>) -> Metric {
        assert!(!samples.is_empty(), "metric without samples");
        let q = quartiles(&samples);
        Metric {
            unit: unit.to_string(),
            better,
            bound,
            n: samples.len(),
            median: median(&samples),
            quartiles: q.map(|q| [q[0], q[2]]),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            tail: high_percentile(&samples).map(|(p, v)| [p, v]),
            samples,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when there
    /// are too few samples to have quartiles).
    pub fn spread(&self) -> f64 {
        match self.quartiles {
            Some([q1, q3]) if self.median != 0.0 => (q3 - q1) / self.median.abs(),
            _ => 0.0,
        }
    }
}

// ---------------------------------------------------------------------
// Allocator counters

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Called by the binary's counting `GlobalAlloc` on every `alloc` and
/// `realloc`. Relaxed: the counters publish no other data.
#[inline]
pub fn alloc_note(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// `(calls, bytes)` requested from the allocator so far in this process.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Peak resident set

/// Peak resident set (`VmHWM`) of this process in KiB; 0 where
/// `/proc/self/status` does not exist.
pub fn vm_hwm_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Stage timer + span recorder

/// Host seconds, allocator calls and allocator bytes of one closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (c0, b0) = alloc_snapshot();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let (c1, b1) = alloc_snapshot();
    (
        out,
        Cost {
            secs,
            alloc_calls: c1 - c0,
            alloc_bytes: b1 - b0,
        },
    )
}

/// What [`timed`] measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub secs: f64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

/// One bench-owned span on the host clock, recorded around a call into a
/// layer's public entry point. Names are static so that recording a span
/// never allocates inside a measured call.
#[derive(Debug, Clone, PartialEq)]
struct SpanRec {
    /// Crate the call goes into.
    pub layer: &'static str,
    /// The entry point, e.g. `append_block`.
    pub call: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder: spans nest by begin/end order, share the
/// workload name as their identifier, and are written once at exit.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<SpanRec>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            origin: Instant::now(),
            open: Vec::with_capacity(8),
            // Room for every call of a full-size walk, so pushes inside
            // measured stages do not reallocate.
            spans: Vec::with_capacity(1 << 15),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Record `f` as a span of `layer`, nested in whichever span is open.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            layer,
            call,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Self time per layer in seconds: each span's duration minus what
    /// its direct children cover, summed by the span's layer.
    pub fn self_secs_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_us) {
            *out.entry(s.layer.to_string()).or_insert(0.0) += (s.end_us - s.start_us - c) / 1e6;
        }
        out
    }

    /// Chrome `trace_event` JSON (object form): one complete event per
    /// span, `pid` 1, `tid` = nesting depth so children sit under their
    /// parent, the parent index and workload id in `args`.
    pub fn to_chrome_json(&self) -> String {
        use serde::Content;
        let depth = |mut i: usize| {
            let mut d = 0u64;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let events: Vec<Content> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = match s.parent {
                    Some(p) => Content::U64(p as u64),
                    None => Content::Null,
                };
                Content::Map(vec![
                    (
                        "name".into(),
                        Content::Str(format!("{}.{}", s.layer, s.call)),
                    ),
                    ("cat".into(), Content::Str(s.layer.into())),
                    ("ph".into(), Content::Str("X".into())),
                    ("ts".into(), Content::F64(s.start_us)),
                    ("dur".into(), Content::F64(s.end_us - s.start_us)),
                    ("pid".into(), Content::U64(1)),
                    ("tid".into(), Content::U64(depth(i))),
                    (
                        "args".into(),
                        Content::Map(vec![
                            ("id".into(), Content::U64(i as u64)),
                            ("parent".into(), parent),
                            ("workload".into(), Content::Str(self.workload.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Content::Map(vec![
            ("traceEvents".into(), Content::Seq(events)),
            ("displayTimeUnit".into(), Content::Str("ms".into())),
        ]);
        serde_json::to_string(&doc).expect("span trace serializes")
    }

    /// Write the trace to `path`, through a rename so that a reader (or
    /// a second run writing the same workload's trace) never sees half a
    /// file.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, self.to_chrome_json())?;
        std::fs::rename(&tmp, path)
    }
}

// ---------------------------------------------------------------------
// Child re-exec

/// Why a child produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildError {
    Timeout(Duration),
    /// Non-zero exit or no parsable last line.
    Failed(String),
}

impl std::fmt::Display for ChildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChildError::Timeout(d) => write!(f, "timed out after {:.0} s", d.as_secs_f64()),
            ChildError::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

/// Re-exec this binary with `args` in a fresh address space and return
/// the last line it printed. The child is killed and reaped when it
/// outlives `timeout`, so a rep that wedges is a failed rep, never a
/// hang. Children print one short JSON line, well under a pipe buffer,
/// so reading after exit cannot deadlock.
pub fn run_child(args: &[String], timeout: Duration) -> Result<String, ChildError> {
    let exe = std::env::current_exe().map_err(|e| ChildError::Failed(format!("own path: {e}")))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| ChildError::Failed(format!("spawn: {e}")))?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(ChildError::Timeout(timeout));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(ChildError::Failed(format!("poll: {e}")));
            }
        }
    };
    let mut out = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        use std::io::Read as _;
        pipe.read_to_string(&mut out)
            .map_err(|e| ChildError::Failed(format!("read stdout: {e}")))?;
    }
    if !status.success() {
        return Err(ChildError::Failed(format!("exit {status}")));
    }
    out.lines()
        .last()
        .map(str::to_owned)
        .ok_or_else(|| ChildError::Failed("no output".into()))
}

// ---------------------------------------------------------------------
// Document schema

/// One per-layer number: a host-clock time or rate from the traced run,
/// a virtual-time total, or an exact count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMetric {
    /// `<crate>.<metric>`.
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub value: f64,
    /// Counts and virtual times repeat exactly for one seed and are
    /// compared for equality; host-clock numbers are not.
    pub exact: bool,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDoc {
    pub name: String,
    pub why: String,
    /// Timed reps that produced samples.
    pub reps: usize,
    /// Operations attempted and failed over all timed reps.
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Metric>,
    /// Empty when the traced run was skipped.
    pub layers: Vec<LayerMetric>,
    /// Self seconds per layer from the layer walk's spans.
    pub layer_self_s: BTreeMap<String, f64>,
    /// Output checks that failed, in words; empty on a clean run.
    pub check_failures: Vec<String>,
}

impl WorkloadDoc {
    pub fn layer(&self, name: &str) -> Option<&LayerMetric> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// The one document a `run` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Doc {
    pub schema: String,
    pub seed: u64,
    pub smoke: bool,
    pub nproc: usize,
    pub commit: String,
    pub workloads: Vec<WorkloadDoc>,
}

pub const SCHEMA: &str = "perf/1";

impl Doc {
    pub fn workload(&self, name: &str) -> Option<&WorkloadDoc> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("document serializes")
    }

    pub fn from_json(text: &str) -> Result<Doc, String> {
        let doc: Doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if doc.schema != SCHEMA {
            return Err(format!("schema {:?}, expected {SCHEMA:?}", doc.schema));
        }
        Ok(doc)
    }
}

/// Host parallelism, reported with every thread-dependent result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse HEAD` of the benchmark's checkout, or `unknown` (the
/// driver's checkout is not a repository).
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 8), n=4) and friends.
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), Some([2.0, 4.0, 6.0]));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // Two samples extrapolate, as Python's exclusive method does.
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn no_percentile_without_ten_samples_beyond_it() {
        let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(high_percentile(&nineteen), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        // p90: ten samples (90..=99) lie beyond the value 89.
        assert_eq!(high_percentile(&hundred), Some((90.0, 89.0)));
    }

    #[test]
    fn metric_summary_and_spread() {
        let m = Metric::from_samples("s", Better::Lower, 0.15, (1..=7).map(f64::from).collect());
        assert_eq!((m.n, m.median, m.min, m.max), (7, 4.0, 1.0, 7.0));
        assert_eq!(m.quartiles, Some([2.0, 6.0]));
        assert_eq!(m.spread(), 1.0);
        assert_eq!(m.tail, None);
        let one = Metric::from_samples("s", Better::Lower, 0.15, vec![2.0]);
        assert_eq!((one.quartiles, one.spread()), (None, 0.0));
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut sp = Spans::new("w");
        sp.span("outer", "stage", |sp| {
            sp.span("inner", "call", |_| {
                std::thread::sleep(Duration::from_millis(5))
            });
            sp.span("inner", "call", |_| ());
        });
        let s = &sp.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[1].start_us >= s[0].start_us && s[2].end_us <= s[0].end_us);
        let by_layer = sp.self_secs_by_layer();
        let total = (s[0].end_us - s[0].start_us) / 1e6;
        assert!((by_layer["outer"] + by_layer["inner"] - total).abs() < 1e-9);
        assert!(by_layer["inner"] >= 0.005 && by_layer["outer"] < by_layer["inner"]);

        let chrome: serde::Content = serde_json::from_str(&sp.to_chrome_json()).unwrap();
        let events = chrome
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1]["name"], "inner.call");
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(events[1]["args"]["workload"], "w");
    }

    #[test]
    fn timed_reports_elapsed_seconds() {
        let ((), cost) = timed(|| std::thread::sleep(Duration::from_millis(3)));
        assert!(cost.secs >= 0.003);
    }

    pub(crate) fn sample_doc() -> Doc {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "wall_s".to_string(),
            Metric::from_samples("s", Better::Lower, 0.15, vec![1.0, 1.02, 0.99, 1.01, 1.0]),
        );
        end_to_end.insert(
            "vt_io_s".to_string(),
            Metric::from_samples("s", Better::Lower, 0.0, vec![1.350398901867157; 5]),
        );
        let mut layer_self_s = BTreeMap::new();
        layer_self_s.insert("rocsdf".to_string(), 0.25);
        Doc {
            schema: SCHEMA.to_string(),
            seed: 42,
            smoke: false,
            nproc: 2,
            commit: "abc".into(),
            workloads: vec![WorkloadDoc {
                name: "panda_snap64".into(),
                why: "because".into(),
                reps: 5,
                attempted: 1760,
                failed: 0,
                end_to_end,
                layers: vec![LayerMetric {
                    name: "rocstore.write_ops".into(),
                    unit: "count".into(),
                    better: Better::Lower,
                    value: 4400.0,
                    exact: true,
                }],
                layer_self_s,
                check_failures: vec![],
            }],
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = sample_doc();
        let back = Doc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
        // Virtual times must survive the text form bit for bit.
        let vt = &back.workloads[0].end_to_end["vt_io_s"];
        assert_eq!(vt.median.to_bits(), 1.350398901867157f64.to_bits());
        let wrong = doc.to_json().replace(SCHEMA, "perf/0");
        assert!(Doc::from_json(&wrong).is_err());
    }

    #[test]
    fn child_that_fails_is_an_error_not_a_hang() {
        // The test binary re-execs itself with an argument it rejects.
        let err = run_child(&["--no-such-flag".into()], Duration::from_secs(20)).unwrap_err();
        assert!(matches!(err, ChildError::Failed(_)), "{err}");
    }

    /// Not a test of its own: the child the timeout test kills.
    #[test]
    #[ignore = "helper: sleeps for a minute so that run_child has something to kill"]
    fn sleeper() {
        std::thread::sleep(Duration::from_secs(60));
    }

    #[test]
    fn child_that_outlives_its_timeout_is_killed() {
        let args = ["--ignored", "--exact", "harness::tests::sleeper"].map(String::from);
        let start = Instant::now();
        let err = run_child(&args, Duration::from_millis(300)).unwrap_err();
        assert_eq!(err, ChildError::Timeout(Duration::from_millis(300)));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "killed, not waited for"
        );
    }
}
