//! Trace-based acceptance tests: the span recorder must *prove* the
//! paper's overlap claims, not just time them.
//!
//! * Active buffering (§6.1) moves server disk writes under client
//!   compute; the drain-all/no-buffering ablation does not.
//! * The adaptive-probe server polls with both blocking and non-blocking
//!   probes; the drain-all ablation never polls.
//! * T-Rochdf (§6.2) keeps disk-write time off the main thread entirely.
//! * The Chrome `trace_event` export is valid JSON with the documented
//!   shape.

use std::sync::Arc;

use genx_repro::genx::{run_genx_traced, GenxConfig, IoChoice, WorkloadKind};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocobs::{SpanCategory, Trace, TraceCollector, LANE_BACKGROUND, LANE_MAIN};
use genx_repro::rocstore::SharedFs;

const SERVER: usize = 0;

/// One small Rocpanda run on the Turing model: 4 clients + 1 server,
/// several interior snapshots so deferred writes have compute to hide
/// under. Returns the collected trace.
fn panda_trace(active_buffering: bool, responsive_probe: bool) -> Trace {
    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        "obs",
        WorkloadKind::LabScale { seed: 11, scale: 0.05 },
        IoChoice::Rocpanda { server_ranks: vec![SERVER] },
    );
    cfg.steps = 12;
    cfg.snapshot_every = 3;
    cfg.measure_restart = false;
    cfg.rocpanda.active_buffering = active_buffering;
    cfg.rocpanda.responsive_probe = responsive_probe;
    let tc = TraceCollector::new();
    run_genx_traced(ClusterSpec::turing(5), &fs, &cfg, Some(&tc)).unwrap();
    tc.finish()
}

/// §6.1 acceptance: with active buffering, at least half of the server's
/// disk-write time runs concurrently with client computation; with
/// buffering off, the server writes inside the snapshot window while the
/// clients sit in the protocol, and essentially nothing overlaps.
#[test]
fn active_buffering_overlaps_writes_with_compute() {
    let server_writes = |t: &Trace| {
        t.overlap_where(
            |s| s.category == SpanCategory::DiskWrite && s.rank == SERVER,
            |_| true,
        )
    };
    let overlap = |t: &Trace| {
        t.overlap_where(
            |s| s.category == SpanCategory::DiskWrite && s.rank == SERVER,
            |s| s.category == SpanCategory::Compute && s.rank != SERVER,
        )
    };

    let active = panda_trace(true, true);
    let aw = server_writes(&active);
    let ao = overlap(&active);
    assert!(aw > 0.0, "server must write to disk");
    assert!(
        ao >= 0.5 * aw,
        "active buffering must hide >=50% of server writes under client \
         compute: overlapped {ao:.4}s of {aw:.4}s"
    );

    let ablation = panda_trace(false, true);
    let bw = server_writes(&ablation);
    let bo = overlap(&ablation);
    assert!(bw > 0.0, "ablation server must still write to disk");
    assert!(
        bo <= 0.05 * bw,
        "without buffering the writes happen inside the snapshot window, \
         not under compute: overlapped {bo:.4}s of {bw:.4}s"
    );
}

/// The adaptive server alternates blocking probes (idle) with
/// non-blocking polls (while draining); the drain-all ablation never
/// reaches for `MPI_Iprobe`.
#[test]
fn probe_span_kinds_distinguish_adaptive_from_drain_all() {
    let adaptive = panda_trace(true, true);
    assert!(
        adaptive.count(SpanCategory::ProbeBlocking) > 0,
        "adaptive server must block-probe when idle"
    );
    assert!(
        adaptive.count(SpanCategory::ProbeNonBlocking) > 0,
        "adaptive server must poll while draining"
    );

    let drain_all = panda_trace(true, false);
    assert!(
        drain_all.count(SpanCategory::ProbeBlocking) > 0,
        "drain-all server still blocks when idle"
    );
    assert_eq!(
        drain_all.count(SpanCategory::ProbeNonBlocking),
        0,
        "drain-all server must never poll"
    );
}

/// §6.2 acceptance: T-Rochdf's main threads hand off (DiskSubmit) and
/// never hold the disk — every disk-write span lives on the background
/// lane.
#[test]
fn trochdf_keeps_disk_writes_off_the_main_thread() {
    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        "obs-trochdf",
        WorkloadKind::LabScale { seed: 11, scale: 0.05 },
        IoChoice::TRochdf,
    );
    cfg.steps = 6;
    cfg.snapshot_every = 3;
    cfg.measure_restart = false;
    let tc = TraceCollector::new();
    run_genx_traced(ClusterSpec::turing(4), &fs, &cfg, Some(&tc)).unwrap();
    let trace = tc.finish();

    let main_writes = trace
        .filter(|s| s.category == SpanCategory::DiskWrite && s.lane == LANE_MAIN)
        .len();
    assert_eq!(
        main_writes, 0,
        "main threads must never carry disk-write spans"
    );
    assert!(
        !trace
            .filter(|s| s.category == SpanCategory::DiskWrite && s.lane == LANE_BACKGROUND)
            .is_empty(),
        "the background lane must carry the writes"
    );
    assert!(
        !trace
            .filter(|s| s.category == SpanCategory::DiskSubmit && s.lane == LANE_MAIN)
            .is_empty(),
        "main threads must record the buffering hand-off"
    );
}

/// A traced blocking-Rochdf restart shows the per-window reads, not just
/// Rocman's outer `measure_restart` span: Rochdf and T-Rochdf share one
/// restart body, so both record one `restart_read` span per window per
/// rank, on the main lane.
#[test]
fn rochdf_restart_records_one_read_span_per_window_per_rank() {
    const RANKS: usize = 3;
    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        "obs-rochdf",
        WorkloadKind::LabScale { seed: 11, scale: 0.05 },
        IoChoice::Rochdf,
    );
    cfg.steps = 2;
    cfg.snapshot_every = 2;
    let tc = TraceCollector::new();
    let report = run_genx_traced(ClusterSpec::turing(RANKS), &fs, &cfg, Some(&tc)).unwrap();
    assert!(report.restart_ok);
    let trace = tc.finish();
    let reads = trace.filter(|s| s.label == "restart_read");
    assert_eq!(reads.len(), 3 * RANKS, "one span per window per rank");
    for rank in 0..RANKS {
        for window in ["fluid", "solid", "burn"] {
            let detail = format!("window={window}");
            let n = reads.iter().filter(|s| s.rank == rank && s.detail == detail).count();
            assert_eq!(n, 1, "rank {rank}, {window}");
        }
    }
    assert!(reads
        .iter()
        .all(|s| s.category == SpanCategory::RestartRead && s.lane == LANE_MAIN));
}

/// A Rocpanda restart reads the snapshot back from the files on disk:
/// its servers record `DiskRead` spans for their shares.
#[test]
fn rocpanda_restart_reads_the_snapshot_from_disk() {
    let fs = Arc::new(SharedFs::turing());
    let mut cfg = GenxConfig::new(
        "obs-cold",
        WorkloadKind::LabScale { seed: 11, scale: 0.05 },
        IoChoice::Rocpanda { server_ranks: vec![SERVER] },
    );
    cfg.steps = 6;
    cfg.snapshot_every = 3;
    let tc = TraceCollector::new();
    run_genx_traced(ClusterSpec::turing(5), &fs, &cfg, Some(&tc)).unwrap();
    assert!(
        tc.finish().count(SpanCategory::DiskRead) > 0,
        "the restart reads the snapshot from disk"
    );
}

/// The Chrome exporter emits valid `trace_event` JSON: it round-trips
/// through `serde_json` and has the documented shape (one process per
/// node, one thread per rank/lane, microsecond timestamps).
#[test]
fn chrome_trace_round_trips_through_serde_json() {
    let trace = panda_trace(true, true);
    let json = trace.to_chrome_trace_json();
    let value: serde_json::Value = serde_json::from_str(&json).expect("chrome JSON parses");

    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Complete events carry name/category/timing/placement; metadata
    // events name the processes and threads.
    let mut complete = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        match ph {
            "X" => {
                complete += 1;
                assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
                assert!(ev.get("cat").and_then(|v| v.as_str()).is_some());
                assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(ev.get("dur").and_then(|v| v.as_f64()).map(|d| d >= 0.0) == Some(true));
                assert!(ev.get("pid").and_then(|v| v.as_u64()).is_some());
                assert!(ev.get("tid").and_then(|v| v.as_u64()).is_some());
            }
            "M" => {
                assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(complete, trace.len(), "every span exports one complete event");
}
