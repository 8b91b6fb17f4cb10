//! Experiment harness: the runs behind every table and figure of the
//! paper's evaluation (§7), plus the ablations listed in DESIGN.md §5.
//!
//! Each `bin/` target prints a paper-style table to stdout and writes the
//! raw series as JSON under `results/`. Absolute values come from the
//! calibrated models (DESIGN.md §4); the comparisons against the paper's
//! numbers live in EXPERIMENTS.md.

use std::path::PathBuf;
use std::sync::Arc;

use genx::{run_genx_traced, GenxConfig, IoChoice, RunReport, WorkloadKind};
use rocnet::cluster::{smp_server_placement, ClusterSpec, NodeUsage};
use rocobs::TraceCollector;
use rocstore::SharedFs;

/// Paper reference values for Table 1 (seconds).
pub mod paper {
    /// (procs, computation time).
    pub const TABLE1_COMP: [(usize, f64); 3] = [(16, 846.64), (32, 393.05), (64, 203.24)];
    /// (procs, visible I/O: rochdf, t-rochdf, rocpanda).
    pub const TABLE1_VISIBLE: [(usize, f64, f64, f64); 3] = [
        (16, 51.58, 0.38, 2.40),
        (32, 83.28, 0.18, 1.48),
        (64, 51.19, 0.11, 1.94),
    ];
    /// (procs, restart: rochdf, rocpanda).
    pub const TABLE1_RESTART: [(usize, f64, f64); 3] =
        [(16, 5.33, 69.9), (32, 1.93, 39.2), (64, 0.72, 18.2)];
    /// Fig 3(a) headline: apparent throughput at 512 total processors.
    pub const FIG3A_PEAK_MB_S: f64 = 875.0;
    /// Rocpanda's client:server ratio in the Table 1 runs.
    pub const CLIENT_SERVER_RATIO: usize = 8;
}

/// The Table 1 experiment: one (processor count, I/O module) cell of the
/// lab-scale-motor run on the Turing model, traced into `collector` when
/// one is given (`--trace`).
///
/// `scale` scales the problem size (1.0 = the paper's ~64 MB snapshot);
/// `steps`/`every` are the paper's 200/50 in the binaries.
pub fn table1_cell(
    n_compute: usize,
    io: Table1Io,
    scale: f64,
    steps: u64,
    every: u64,
    collector: Option<&TraceCollector>,
) -> RunReport {
    let fs = Arc::new(SharedFs::turing());
    let (choice, total) = match io {
        Table1Io::Rochdf => (IoChoice::Rochdf, n_compute),
        Table1Io::TRochdf => (IoChoice::TRochdf, n_compute),
        Table1Io::Rocpanda => {
            // "Extra processors are dedicated as I/O servers and the
            // client-to-server ratio is fixed at 8:1" (§7.1).
            let m = (n_compute / paper::CLIENT_SERVER_RATIO).max(1);
            (
                IoChoice::Rocpanda {
                    server_ranks: (n_compute..n_compute + m).collect(),
                },
                n_compute + m,
            )
        }
    };
    let mut cfg = GenxConfig::new(
        format!("table1-{}-{}", io.name(), n_compute),
        WorkloadKind::LabScale { seed: 42, scale },
        choice,
    );
    cfg.steps = steps;
    cfg.snapshot_every = every;
    run_genx_traced(ClusterSpec::turing(total), &fs, &cfg, collector).expect("table1 run")
}

/// The three I/O columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table1Io {
    Rochdf,
    TRochdf,
    Rocpanda,
}

impl Table1Io {
    pub fn name(self) -> &'static str {
        match self {
            Table1Io::Rochdf => "rochdf",
            Table1Io::TRochdf => "trochdf",
            Table1Io::Rocpanda => "rocpanda",
        }
    }
}

/// One point of Fig. 3(a): the scalability-cylinder run on the Frost
/// model with `n_compute` compute processors. With Rocpanda, 15 compute
/// CPUs + 1 server CPU per 16-way node; with Rochdf, no servers.
pub fn fig3a_point(
    n_compute: usize,
    rocpanda: bool,
    steps: u64,
    collector: Option<&TraceCollector>,
) -> RunReport {
    let fs = Arc::new(SharedFs::frost());
    let cpus = 16;
    let (cluster, choice) = if rocpanda {
        let per_node = cpus - 1;
        let m = n_compute.div_ceil(per_node);
        let (placement, server_ranks) = smp_server_placement(n_compute, m, cpus);
        (
            ClusterSpec::frost(placement, NodeUsage::SpareServer),
            IoChoice::Rocpanda { server_ranks },
        )
    } else {
        let placement = (0..n_compute).map(|r| r / (cpus - 1)).collect();
        (
            ClusterSpec::frost(placement, NodeUsage::SpareIdle),
            IoChoice::Rochdf,
        )
    };
    let mut cfg = GenxConfig::new(
        format!(
            "fig3a-{}-{}",
            if rocpanda { "rocpanda" } else { "rochdf" },
            n_compute
        ),
        WorkloadKind::Cylinder { seed: 7 },
        choice,
    );
    cfg.steps = steps;
    cfg.snapshot_every = steps;
    cfg.measure_restart = false;
    run_genx_traced(cluster, &fs, &cfg, collector).expect("fig3a run")
}

/// One point of Fig. 3(b): computation time of the scalability test under
/// the three per-node CPU configurations.
pub fn fig3b_point(
    nodes: usize,
    usage: NodeUsage,
    steps: u64,
    collector: Option<&TraceCollector>,
) -> RunReport {
    let fs = Arc::new(SharedFs::frost());
    let cpus = 16;
    let (cluster, choice, label) = match usage {
        // All 16 CPUs per node compute; Rochdf.
        NodeUsage::AllCompute => {
            let n = nodes * cpus;
            let placement = (0..n).map(|r| r / cpus).collect();
            (
                ClusterSpec::frost(placement, NodeUsage::AllCompute),
                IoChoice::Rochdf,
                format!("fig3b-16NS-{nodes}n"),
            )
        }
        // 15 CPUs compute, one idle; Rochdf.
        NodeUsage::SpareIdle => {
            let n = nodes * (cpus - 1);
            let placement = (0..n).map(|r| r / (cpus - 1)).collect();
            (
                ClusterSpec::frost(placement, NodeUsage::SpareIdle),
                IoChoice::Rochdf,
                format!("fig3b-15NS-{nodes}n"),
            )
        }
        // 15 CPUs compute, one Rocpanda server per node.
        NodeUsage::SpareServer => {
            let n = nodes * (cpus - 1);
            let (placement, server_ranks) = smp_server_placement(n, nodes, cpus);
            (
                ClusterSpec::frost(placement, NodeUsage::SpareServer),
                IoChoice::Rocpanda { server_ranks },
                format!("fig3b-15S-{nodes}n"),
            )
        }
    };
    let mut cfg = GenxConfig::new(label, WorkloadKind::Cylinder { seed: 7 }, choice);
    cfg.steps = steps;
    cfg.snapshot_every = steps;
    cfg.measure_restart = false;
    run_genx_traced(cluster, &fs, &cfg, collector).expect("fig3b run")
}

/// One experiment report together with its optional trace aggregates —
/// the element type of `results/*.json` when a binary runs with
/// `--trace`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TracedRunReport {
    pub report: RunReport,
    pub trace: Option<rocobs::TraceSummary>,
}

/// `--trace <path>` support shared by the bench binaries: strips the flag
/// from the CLI, traces each run when it is present, merges per-run
/// aggregate tables into the JSON report, and writes the most recent
/// run's Chrome `trace_event` file to the requested path.
pub struct TraceSink {
    path: Option<PathBuf>,
    summaries: Vec<Option<rocobs::TraceSummary>>,
    last: Option<rocobs::Trace>,
}

impl TraceSink {
    /// Parse the process arguments: returns the positional arguments with
    /// `--trace <path>` removed, plus the sink.
    pub fn from_env_args() -> (Vec<String>, TraceSink) {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let mut path = None;
        if let Some(i) = args.iter().position(|a| a == "--trace") {
            assert!(i + 1 < args.len(), "--trace requires a file path");
            path = Some(PathBuf::from(args.remove(i + 1)));
            args.remove(i);
        }
        (
            args,
            TraceSink {
                path,
                summaries: Vec::new(),
                last: None,
            },
        )
    }

    /// Run one experiment cell. When tracing, the cell gets a fresh
    /// collector and its aggregate summary is retained for the JSON
    /// report; the full trace of the **latest** cell is what `finish`
    /// writes out (cells reuse rank ids and restart virtual time at
    /// zero, so overlaying them in one timeline would be misleading).
    pub fn run(&mut self, f: impl FnOnce(Option<&TraceCollector>) -> RunReport) -> RunReport {
        if self.path.is_some() {
            let tc = TraceCollector::new();
            let report = f(Some(&tc));
            let trace = tc.finish();
            self.summaries.push(Some(trace.summary()));
            self.last = Some(trace);
            report
        } else {
            let report = f(None);
            self.summaries.push(None);
            report
        }
    }

    /// Write `results/<name>.json`: a plain report array normally, or
    /// report+trace-summary pairs when tracing.
    pub fn write_json(&self, name: &str, reports: &[RunReport]) {
        if self.path.is_some() {
            let rows: Vec<TracedRunReport> = reports
                .iter()
                .enumerate()
                .map(|(i, r)| TracedRunReport {
                    report: r.clone(),
                    trace: self.summaries.get(i).cloned().flatten(),
                })
                .collect();
            write_json(name, &rows);
        } else {
            write_json(name, &reports.to_vec());
        }
    }

    /// Write the Chrome trace of the most recent traced run to the
    /// `--trace` path (no-op when tracing is off).
    pub fn finish(self) {
        if let (Some(path), Some(trace)) = (&self.path, &self.last) {
            trace
                .write_chrome_trace(path)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!("wrote {} ({} spans)", path.display(), trace.len());
        }
    }
}

/// Write a JSON artifact under `results/`.
pub fn write_json(name: &str, value: &impl serde::Serialize) {
    std::fs::create_dir_all("results").expect("create results dir");
    let path = format!("results/{name}.json");
    std::fs::write(&path, serde_json::to_string_pretty(value).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Write a CSV artifact under `results/` from run reports (one row per
/// report) — plotting-friendly companion to the JSON.
pub fn write_csv(name: &str, reports: &[RunReport]) {
    std::fs::create_dir_all("results").expect("create results dir");
    let mut out = String::from(concat!(
        "label,io_module,n_compute,n_servers,steps,snapshots,comp_time,",
        "visible_io,restart_time,restart_ok,n_files,bytes_written,",
        "snapshot_bytes,apparent_write_mb_s\n"
    ));
    for r in reports {
        out += &format!(
            "{},{},{},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{:.3}\n",
            r.label,
            r.io_module,
            r.n_compute,
            r.n_servers,
            r.steps,
            r.snapshots,
            r.comp_time,
            r.visible_io,
            r.restart_time,
            r.restart_ok,
            r.n_files,
            r.bytes_written,
            r.snapshot_bytes,
            r.apparent_write_mb_s
        );
    }
    let path = format!("results/{name}.csv");
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Format a row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cell_smoke() {
        let r = table1_cell(2, Table1Io::Rochdf, 0.05, 4, 2, None);
        assert_eq!(r.n_compute, 2);
        assert!(r.restart_ok);
        assert_eq!(r.snapshots, 3);
    }

    #[test]
    fn table1_rocpanda_adds_servers() {
        let r = table1_cell(8, Table1Io::Rocpanda, 0.05, 2, 2, None);
        assert_eq!(r.n_compute, 8);
        assert_eq!(r.n_servers, 1);
        assert!(r.restart_ok);
    }

    #[test]
    fn fig3_points_smoke() {
        let a = fig3a_point(2, true, 2, None);
        assert_eq!(a.n_compute, 2);
        assert_eq!(a.n_servers, 1);
        let b = fig3a_point(2, false, 2, None);
        assert_eq!(b.n_servers, 0);
        let c = fig3b_point(1, NodeUsage::AllCompute, 2, None);
        assert_eq!(c.n_compute, 16);
        let d = fig3b_point(1, NodeUsage::SpareServer, 2, None);
        assert_eq!(d.n_compute, 15);
        assert_eq!(d.n_servers, 1);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = table1_cell(2, Table1Io::Rochdf, 0.05, 2, 2, None);
        write_csv("test-csv", &[r]);
        let text = std::fs::read_to_string("results/test-csv.csv").unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("label,io_module,"));
        assert_eq!(header.split(',').count(), 14);
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), 14);
        std::fs::remove_file("results/test-csv.csv").ok();
    }

    #[test]
    fn row_formats_right_aligned() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a    bb");
    }
}
