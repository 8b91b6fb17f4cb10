//! Rocobs — cross-crate observability for the virtual-time simulator.
//!
//! Every layer of the stack (network model, disk ledger, Rocpanda
//! servers, threaded Rochdf, the GENx driver) records [`Span`]s keyed on
//! **virtual time** into a process-wide-free, explicitly-installed
//! [`TraceCollector`]. Recording goes through a thread-local
//! [`RankHandle`], so instrumented library code stays zero-cost (a TLS
//! load and an `Option` check) when no collector is installed — the
//! common case for production benchmark sweeps without `--trace`.
//!
//! The collected [`Trace`] offers:
//!
//! * a query API ([`Trace::overlap`], [`Trace::max_concurrent`],
//!   [`Trace::gaps`], [`Trace::total`]) used by tests to assert
//!   *scheduling* properties — e.g. that active buffering overlaps
//!   server disk writes with client compute, or that the T-Rochdf main
//!   thread never performs a disk write itself;
//! * a Chrome `trace_event` exporter ([`Trace::to_chrome_trace_json`]) — one
//!   `pid` per simulated node, one `tid` per (rank, lane) — loadable in
//!   `chrome://tracing` / Perfetto;
//! * a per-category aggregate table ([`Trace::summary`]) merged into the
//!   bench binaries' JSON reports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rocio_core::lockdep::Mutex;

use serde::{Content, Serialize};

/// What a span measures. Categories are coarse on purpose: tests reason
/// about *kinds* of time (compute vs. probe vs. disk), not call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanCategory {
    /// Application CPU work (`Comm::compute`).
    Compute,
    /// Message injection cost on the sender.
    Send,
    /// Receive-side copy cost.
    Recv,
    /// Blocking probe: the span covers the wait for a matching message.
    ProbeBlocking,
    /// Non-blocking probe: instantaneous poll (zero-length span).
    ProbeNonBlocking,
    /// CPU cost of submitting a write to the file system (encode + hand
    /// off). Background writes charge only this on the issuing thread.
    DiskSubmit,
    /// Disk busy-time of a write, as charged by the shared-disk ledger.
    DiskWrite,
    /// Disk busy-time of a read.
    DiskRead,
    /// A block entering a Rocpanda server's in-memory buffer.
    BufferFill,
    /// A buffered block leaving the buffer toward disk.
    BufferDrain,
    /// Time a rank spends inside the snapshot barrier/collective.
    SnapshotBarrier,
    /// Time a rank spends reading back state during restart.
    RestartRead,
    /// A reliability-layer retransmission firing (degraded-network runs).
    RelRetransmit,
    /// A reliability-layer acknowledgement being produced.
    RelAck,
}

impl SpanCategory {
    /// Stable lower-case name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            SpanCategory::Compute => "compute",
            SpanCategory::Send => "send",
            SpanCategory::Recv => "recv",
            SpanCategory::ProbeBlocking => "probe_blocking",
            SpanCategory::ProbeNonBlocking => "probe_nonblocking",
            SpanCategory::DiskSubmit => "disk_submit",
            SpanCategory::DiskWrite => "disk_write",
            SpanCategory::DiskRead => "disk_read",
            SpanCategory::BufferFill => "buffer_fill",
            SpanCategory::BufferDrain => "buffer_drain",
            SpanCategory::SnapshotBarrier => "snapshot_barrier",
            SpanCategory::RestartRead => "restart_read",
            SpanCategory::RelRetransmit => "rel_retransmit",
            SpanCategory::RelAck => "rel_ack",
        }
    }

    /// All categories, in canonical order.
    pub fn all() -> [SpanCategory; 14] {
        [
            SpanCategory::Compute,
            SpanCategory::Send,
            SpanCategory::Recv,
            SpanCategory::ProbeBlocking,
            SpanCategory::ProbeNonBlocking,
            SpanCategory::DiskSubmit,
            SpanCategory::DiskWrite,
            SpanCategory::DiskRead,
            SpanCategory::BufferFill,
            SpanCategory::BufferDrain,
            SpanCategory::SnapshotBarrier,
            SpanCategory::RestartRead,
            SpanCategory::RelRetransmit,
            SpanCategory::RelAck,
        ]
    }
}

impl fmt::Display for SpanCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One interval of virtual time attributed to a rank (and lane).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub category: SpanCategory,
    /// Short call-site label (e.g. `"append_block"`, `"barrier"`).
    pub label: String,
    /// Virtual start time, seconds.
    pub t_start: f64,
    /// Virtual end time, seconds (`>= t_start`).
    pub t_end: f64,
    /// World rank that recorded the span.
    pub rank: usize,
    /// Execution lane within the rank: 0 = main thread, 1 = background
    /// I/O thread (T-Rochdf).
    pub lane: usize,
    /// Free-form detail (peer rank, byte count, buffer occupancy, …).
    pub detail: String,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }
}

/// Lane of the main simulation thread of a rank.
pub const LANE_MAIN: usize = 0;
/// Lane of a background I/O thread (e.g. the T-Rochdf writer thread).
pub const LANE_BACKGROUND: usize = 1;

// ---------------------------------------------------------------------------
// Recording: thread-local handles into a shared collector.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct HandleInner {
    rank: usize,
    lane: usize,
    node: usize,
    sink: Arc<Mutex<Vec<Span>>>,
}

/// A rank's recording endpoint. Obtained from
/// [`TraceCollector::handle`]; install it on the rank's thread with
/// [`RankHandle::install`], after which free functions like [`record`]
/// route spans from any instrumented crate into the collector.
#[derive(Clone)]
pub struct RankHandle {
    inner: HandleInner,
}

impl RankHandle {
    /// The world rank this handle records for.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// The lane this handle records on.
    pub fn lane(&self) -> usize {
        self.inner.lane
    }

    /// The simulated node hosting this rank (Chrome-trace `pid`).
    pub fn node(&self) -> usize {
        self.inner.node
    }

    /// A copy of this handle that records on a different lane. Used when
    /// a rank spawns a background I/O thread: the spawned thread installs
    /// `handle.with_lane(LANE_BACKGROUND)`.
    pub fn with_lane(&self, lane: usize) -> RankHandle {
        let mut inner = self.inner.clone();
        inner.lane = lane;
        RankHandle { inner }
    }

    /// Install this handle on the current thread. Recording free
    /// functions are no-ops on threads without an installed handle. The
    /// returned guard restores the previous handle (if any) on drop.
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        InstallGuard { prev }
    }

    /// Record a span directly through this handle (bypassing TLS).
    pub fn record(
        &self,
        category: SpanCategory,
        label: &str,
        t_start: f64,
        t_end: f64,
        detail: impl Into<String>,
    ) {
        self.inner.sink.lock().push(Span {
            category,
            label: label.to_string(),
            t_start,
            t_end: t_end.max(t_start),
            rank: self.inner.rank,
            lane: self.inner.lane,
            detail: detail.into(),
        });
    }
}

thread_local! {
    static CURRENT: RefCell<Option<RankHandle>> = const { RefCell::new(None) };
}

/// Restores the previously installed handle when dropped.
pub struct InstallGuard {
    prev: Option<RankHandle>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The handle installed on the current thread, if any. Lets a rank pass
/// its recording identity to threads it spawns.
pub fn current_handle() -> Option<RankHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the current thread records spans. Instrumentation sites can
/// use this to skip building expensive `detail` strings.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Record a span on the current thread's installed handle; no-op when no
/// handle is installed.
pub fn record(category: SpanCategory, label: &str, t_start: f64, t_end: f64, detail: &str) {
    CURRENT.with(|c| {
        if let Some(h) = c.borrow().as_ref() {
            h.record(category, label, t_start, t_end, detail);
        }
    });
}

// ---------------------------------------------------------------------------
// Collection.
// ---------------------------------------------------------------------------

/// Shared sink for one traced run. Create one, hand out per-rank
/// [`RankHandle`]s, run the simulation, then call
/// [`TraceCollector::finish`].
pub struct TraceCollector {
    sink: Arc<Mutex<Vec<Span>>>,
    /// rank → node, for the Chrome exporter; registered by `handle`.
    nodes: Mutex<BTreeMap<usize, usize>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    pub fn new() -> Self {
        TraceCollector {
            sink: Arc::new(Mutex::new("rocobs.trace_sink", Vec::new())),
            nodes: Mutex::new("rocobs.trace_nodes", BTreeMap::new()),
        }
    }

    /// A recording handle for `rank` on `lane`, hosted on `node`.
    pub fn handle(&self, rank: usize, lane: usize, node: usize) -> RankHandle {
        self.nodes.lock().insert(rank, node);
        RankHandle {
            inner: HandleInner {
                rank,
                lane,
                node,
                sink: Arc::clone(&self.sink),
            },
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.sink.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the collected spans into an immutable, canonically ordered
    /// [`Trace`]. Sorting makes traces comparable across runs even
    /// though rank threads interleave their pushes nondeterministically.
    pub fn finish(&self) -> Trace {
        let mut spans = std::mem::take(&mut *self.sink.lock());
        spans.sort_by(canonical_order);
        let nodes = self.nodes.lock().clone();
        Trace { spans, nodes }
    }
}

fn canonical_order(a: &Span, b: &Span) -> std::cmp::Ordering {
    (a.rank, a.lane)
        .cmp(&(b.rank, b.lane))
        .then(a.t_start.total_cmp(&b.t_start))
        .then(a.t_end.total_cmp(&b.t_end))
        .then(a.category.cmp(&b.category))
        .then(a.label.cmp(&b.label))
        .then(a.detail.cmp(&b.detail))
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

/// An immutable, canonically ordered set of spans with query and export
/// methods.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
    nodes: BTreeMap<usize, usize>,
}

/// Merge possibly-overlapping `[start, end)` intervals into a disjoint,
/// sorted union.
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn union_len(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Total overlap between two disjoint sorted unions.
fn intersect_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            acc += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

impl Trace {
    /// Build a trace directly from spans (used by tests and merges).
    pub fn from_spans(mut spans: Vec<Span>) -> Trace {
        spans.sort_by(canonical_order);
        Trace { spans, nodes: BTreeMap::new() }
    }

    /// All spans in canonical order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans matching a predicate, canonical order preserved.
    pub fn filter<'a>(&'a self, mut pred: impl FnMut(&Span) -> bool + 'a) -> Vec<&'a Span> {
        self.spans.iter().filter(move |s| pred(s)).collect()
    }

    /// Number of spans in a category.
    pub fn count(&self, cat: SpanCategory) -> usize {
        self.spans.iter().filter(|s| s.category == cat).count()
    }

    fn union_of(&self, mut pred: impl FnMut(&Span) -> bool) -> Vec<(f64, f64)> {
        merge_intervals(
            self.spans
                .iter()
                .filter(|s| pred(s))
                .map(|s| (s.t_start, s.t_end))
                .collect(),
        )
    }

    /// Total virtual time covered by a category across all ranks,
    /// counting overlapped stretches once (union length).
    pub fn total(&self, cat: SpanCategory) -> f64 {
        union_len(&self.union_of(|s| s.category == cat))
    }

    /// Virtual time during which *both* categories are active somewhere
    /// in the system: the length of the intersection of the two unions.
    /// This is the paper's overlap-of-I/O-with-computation measure.
    pub fn overlap(&self, a: SpanCategory, b: SpanCategory) -> f64 {
        intersect_len(
            &self.union_of(|s| s.category == a),
            &self.union_of(|s| s.category == b),
        )
    }

    /// Overlap between two arbitrary span subsets.
    pub fn overlap_where(
        &self,
        pred_a: impl FnMut(&Span) -> bool,
        pred_b: impl FnMut(&Span) -> bool,
    ) -> f64 {
        intersect_len(&self.union_of(pred_a), &self.union_of(pred_b))
    }

    /// Maximum number of simultaneously active spans of a category.
    pub fn max_concurrent(&self, cat: SpanCategory) -> usize {
        let mut events: Vec<(f64, i32)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.category == cat) {
            if s.t_end > s.t_start {
                events.push((s.t_start, 1));
                events.push((s.t_end, -1));
            }
        }
        // Ends before starts at equal times: touching spans don't count
        // as concurrent.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut cur, mut max) = (0i32, 0i32);
        for (_, d) in events {
            cur += d;
            max = max.max(cur);
        }
        max as usize
    }

    /// Idle stretches of a category between its first start and last
    /// end: the complement of the union within the category's extent.
    pub fn gaps(&self, cat: SpanCategory) -> Vec<(f64, f64)> {
        let u = self.union_of(|s| s.category == cat);
        let mut out = Vec::new();
        for w in u.windows(2) {
            if w[1].0 > w[0].1 {
                out.push((w[0].1, w[1].0));
            }
        }
        out
    }

    /// Latest `t_end` in the trace (0.0 when empty).
    pub fn end_time(&self) -> f64 {
        self.spans.iter().map(|s| s.t_end).fold(0.0, f64::max)
    }

    // -- exporters --------------------------------------------------------

    /// Per-category aggregates, serializable into bench JSON reports.
    pub fn summary(&self) -> TraceSummary {
        let mut cats = Vec::new();
        for cat in SpanCategory::all() {
            let count = self.count(cat);
            if count == 0 {
                continue;
            }
            let busy: f64 = self
                .spans
                .iter()
                .filter(|s| s.category == cat)
                .map(Span::duration)
                .sum();
            cats.push(CategorySummary {
                category: cat.name().to_string(),
                count,
                busy_time: busy,
                union_time: self.total(cat),
                max_concurrent: self.max_concurrent(cat),
            });
        }
        TraceSummary {
            spans: self.spans.len(),
            end_time: self.end_time(),
            categories: cats,
        }
    }

    /// Export as Chrome `trace_event` JSON (the object form, with a
    /// `traceEvents` array): one `pid` per simulated node, one `tid` per
    /// (rank, lane), complete (`ph: "X"`) events with microsecond
    /// timestamps (1 virtual second = 1e6 µs), plus `ph: "M"` metadata
    /// naming processes and threads. Loadable in `chrome://tracing` and
    /// Perfetto.
    pub(crate) fn to_chrome_trace(&self) -> Content {
        let mut events: Vec<Content> = Vec::with_capacity(self.spans.len() + 16);
        // Metadata: name each node process and each (rank, lane) thread.
        let mut named_tids: Vec<(usize, usize)> = Vec::new();
        let mut named_pids: Vec<usize> = Vec::new();
        for s in &self.spans {
            let node = self.nodes.get(&s.rank).copied().unwrap_or(0);
            if !named_pids.contains(&node) {
                named_pids.push(node);
                events.push(meta_event(
                    "process_name",
                    node,
                    0,
                    &format!("node {node}"),
                ));
            }
            if !named_tids.contains(&(s.rank, s.lane)) {
                named_tids.push((s.rank, s.lane));
                let name = if s.lane == LANE_MAIN {
                    format!("rank {}", s.rank)
                } else {
                    format!("rank {} (io thread)", s.rank)
                };
                events.push(meta_event("thread_name", node, tid(s.rank, s.lane), &name));
            }
        }
        for s in &self.spans {
            let node = self.nodes.get(&s.rank).copied().unwrap_or(0);
            let mut ev: Vec<(String, Content)> = vec![
                ("name".into(), Content::Str(s.label.clone())),
                ("cat".into(), Content::Str(s.category.name().to_string())),
                ("ph".into(), Content::Str("X".into())),
                ("ts".into(), Content::F64(s.t_start * 1e6)),
                ("dur".into(), Content::F64(s.duration() * 1e6)),
                ("pid".into(), Content::U64(node as u64)),
                ("tid".into(), Content::U64(tid(s.rank, s.lane) as u64)),
            ];
            if !s.detail.is_empty() {
                let args = vec![("detail".to_string(), Content::Str(s.detail.clone()))];
                ev.push(("args".into(), Content::Map(args)));
            }
            events.push(Content::Map(ev));
        }
        Content::Map(vec![
            ("traceEvents".to_string(), Content::Seq(events)),
            ("displayTimeUnit".to_string(), Content::Str("ms".into())),
        ])
    }

    /// Serialize `Trace::to_chrome_trace` to a JSON string.
    #[expect(
        clippy::expect_used,
        reason = "serde_json on plain owned structs cannot fail"
    )]
    pub fn to_chrome_trace_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_chrome_trace())
            .expect("chrome trace serialization cannot fail")
    }

    /// Write the Chrome trace to a real file on the host file system.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace_json())
    }
}

/// Chrome-trace thread id for a (rank, lane) pair. Lanes share the
/// rank's id-space so background threads sort next to their rank.
fn tid(rank: usize, lane: usize) -> usize {
    rank * 2 + lane
}

fn meta_event(kind: &str, pid: usize, tid: usize, name: &str) -> Content {
    let args = vec![("name".to_string(), Content::Str(name.to_string()))];
    Content::Map(vec![
        ("name".to_string(), Content::Str(kind.to_string())),
        ("ph".to_string(), Content::Str("M".into())),
        ("pid".to_string(), Content::U64(pid as u64)),
        ("tid".to_string(), Content::U64(tid as u64)),
        ("args".to_string(), Content::Map(args)),
    ])
}

/// Per-category aggregate line in [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CategorySummary {
    pub category: String,
    pub count: usize,
    /// Sum of span durations (double-counts overlap).
    pub busy_time: f64,
    /// Length of the union of the category's spans.
    pub union_time: f64,
    pub max_concurrent: usize,
}

/// Aggregate view of a [`Trace`], merged into bench JSON reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSummary {
    pub spans: usize,
    pub end_time: f64,
    pub categories: Vec<CategorySummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: SpanCategory, s: f64, e: f64, rank: usize) -> Span {
        Span {
            category: cat,
            label: "t".into(),
            t_start: s,
            t_end: e,
            rank,
            lane: LANE_MAIN,
            detail: String::new(),
        }
    }

    #[test]
    fn all_lists_every_category_once() {
        // `every!` checks its list exhaustively: a new variant does not
        // compile here until it is listed, and then `all()` must list it.
        macro_rules! every {
            ($($v:ident),*) => {{
                let _exhaustive = |c: SpanCategory| match c {
                    $(SpanCategory::$v)|* => (),
                };
                [$(SpanCategory::$v),*]
            }};
        }
        let every = every!(
            Compute,
            Send,
            Recv,
            ProbeBlocking,
            ProbeNonBlocking,
            DiskSubmit,
            DiskWrite,
            DiskRead,
            BufferFill,
            BufferDrain,
            SnapshotBarrier,
            RestartRead,
            RelRetransmit,
            RelAck
        );
        let all = SpanCategory::all();
        assert_eq!(all.len(), every.len(), "all() lists a category twice");
        for c in every {
            assert!(all.contains(&c), "all() misses {c:?}");
        }
    }

    #[test]
    fn record_requires_installed_handle() {
        let tc = TraceCollector::new();
        record(SpanCategory::Compute, "orphan", 0.0, 1.0, "");
        assert_eq!(tc.len(), 0);
        let h = tc.handle(3, LANE_MAIN, 1);
        {
            let _g = h.install();
            assert!(enabled());
            record(SpanCategory::Compute, "work", 0.0, 2.0, "x");
        }
        assert!(!enabled());
        record(SpanCategory::Compute, "after", 2.0, 3.0, "");
        let trace = tc.finish();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.spans()[0].rank, 3);
        assert_eq!(trace.spans()[0].label, "work");
    }

    #[test]
    fn install_guard_restores_previous_handle() {
        let tc = TraceCollector::new();
        let h0 = tc.handle(0, LANE_MAIN, 0);
        let h1 = tc.handle(1, LANE_MAIN, 0);
        let _g0 = h0.install();
        {
            let _g1 = h1.install();
            record(SpanCategory::Send, "inner", 0.0, 1.0, "");
        }
        record(SpanCategory::Send, "outer", 1.0, 2.0, "");
        let trace = tc.finish();
        assert_eq!(trace.spans()[0].rank, 0);
        assert_eq!(trace.spans()[0].label, "outer");
        assert_eq!(trace.spans()[1].rank, 1);
        assert_eq!(trace.spans()[1].label, "inner");
    }

    #[test]
    fn with_lane_records_on_background_lane() {
        let tc = TraceCollector::new();
        let h = tc.handle(2, LANE_MAIN, 0);
        let bg = h.with_lane(LANE_BACKGROUND);
        bg.record(SpanCategory::DiskWrite, "bg", 0.0, 1.0, "");
        let trace = tc.finish();
        assert_eq!(trace.spans()[0].lane, LANE_BACKGROUND);
        assert_eq!(trace.spans()[0].rank, 2);
    }

    #[test]
    fn overlap_and_total_merge_intervals() {
        let trace = Trace::from_spans(vec![
            span(SpanCategory::Compute, 0.0, 4.0, 0),
            span(SpanCategory::Compute, 2.0, 6.0, 1),
            span(SpanCategory::DiskWrite, 3.0, 5.0, 2),
            span(SpanCategory::DiskWrite, 8.0, 9.0, 2),
        ]);
        assert!((trace.total(SpanCategory::Compute) - 6.0).abs() < 1e-12);
        assert!((trace.total(SpanCategory::DiskWrite) - 3.0).abs() < 1e-12);
        // Compute union [0,6); disk [3,5) u [8,9): intersection 2.0.
        assert!((trace.overlap(SpanCategory::Compute, SpanCategory::DiskWrite) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_concurrent_counts_simultaneous_spans() {
        let trace = Trace::from_spans(vec![
            span(SpanCategory::DiskWrite, 0.0, 2.0, 0),
            span(SpanCategory::DiskWrite, 1.0, 3.0, 1),
            span(SpanCategory::DiskWrite, 2.0, 4.0, 2),
        ]);
        // Touching at t=2 is not concurrent; peak is 2 in (1,2) and (2,3).
        assert_eq!(trace.max_concurrent(SpanCategory::DiskWrite), 2);
        assert_eq!(trace.max_concurrent(SpanCategory::Compute), 0);
    }

    #[test]
    fn gaps_are_complement_of_union() {
        let trace = Trace::from_spans(vec![
            span(SpanCategory::DiskWrite, 0.0, 1.0, 0),
            span(SpanCategory::DiskWrite, 3.0, 4.0, 0),
            span(SpanCategory::DiskWrite, 3.5, 6.0, 1),
        ]);
        assert_eq!(trace.gaps(SpanCategory::DiskWrite), vec![(1.0, 3.0)]);
    }

    #[test]
    fn chrome_trace_round_trips_through_serde_json() {
        let tc = TraceCollector::new();
        let h = tc.handle(0, LANE_MAIN, 0);
        h.record(SpanCategory::Compute, "step", 0.0, 0.5, "w=1");
        let trace = tc.finish();
        let json = trace.to_chrome_trace_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // 2 metadata events + 1 span.
        assert_eq!(events.len(), 3);
        let x = events.iter().find(|e| e["ph"] == "X").unwrap();
        assert_eq!(x["name"], "step");
        assert_eq!(x["cat"], "compute");
        assert_eq!(x["dur"].as_f64().unwrap(), 0.5e6);
    }

    #[test]
    fn summary_skips_empty_categories() {
        let trace = Trace::from_spans(vec![
            span(SpanCategory::Compute, 0.0, 1.0, 0),
            span(SpanCategory::Compute, 0.5, 2.0, 1),
        ]);
        let sum = trace.summary();
        assert_eq!(sum.categories.len(), 1);
        assert_eq!(sum.categories[0].category, "compute");
        assert_eq!(sum.categories[0].count, 2);
        assert!((sum.categories[0].busy_time - 2.5).abs() < 1e-12);
        assert!((sum.categories[0].union_time - 2.0).abs() < 1e-12);
        assert_eq!(sum.categories[0].max_concurrent, 2);
        let json = serde_json::to_string(&sum).unwrap();
        assert!(json.contains("\"max_concurrent\":2"));
    }
}
