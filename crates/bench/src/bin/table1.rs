//! Reproduce **Table 1**: computation and I/O times of the lab-scale
//! rocket motor on the Turing cluster model, for 16/32/64 compute
//! processors and the three I/O implementations.
//!
//! ```text
//! cargo run --release -p bench --bin table1 [scale] [--trace out.json]
//! ```
//!
//! `scale` (default 1.0) shrinks the problem for quick checks.
//! `--trace <path>` records virtual-time spans: per-cell aggregate
//! tables land in `results/table1.json`, and the final cell's Chrome
//! `trace_event` timeline is written to `<path>` (open in
//! `chrome://tracing` or Perfetto).

use bench::{paper, row, table1_cell, Table1Io, TraceSink};
use genx::RunReport;

fn main() {
    let (args, mut sink) = TraceSink::from_env_args();
    let scale: f64 = args
        .first()
        .map(|s| s.parse().expect("scale must be a float"))
        .unwrap_or(1.0);
    let (steps, every) = (200u64, 50u64);
    eprintln!(
        "table1: lab-scale motor, scale={scale}, {steps} steps, snapshot every {every} \
         (5 output phases incl. initial)"
    );

    let procs = [16usize, 32, 64];
    let mut reports: Vec<RunReport> = Vec::new();
    for &n in &procs {
        for io in [Table1Io::Rochdf, Table1Io::TRochdf, Table1Io::Rocpanda] {
            eprintln!("running {} x {n}...", io.name());
            reports.push(sink.run(|tc| table1_cell(n, io, scale, steps, every, tc)));
        }
    }
    sink.write_json("table1", &reports);
    bench::write_csv("table1", &reports);

    let get = |n: usize, io: &str| -> &RunReport {
        reports
            .iter()
            .find(|r| r.n_compute == n && r.io_module == io)
            .unwrap()
    };

    let w = [14usize, 10, 10, 10];
    println!("\nTable 1. Computation and I/O times on the Turing model, in seconds.");
    println!("(paper values in parentheses)\n");
    let head = row(
        &["".into(), "16".into(), "32".into(), "64".into()],
        &w,
    );
    println!("{head}");
    let fmt_pair = |v: f64, p: f64| format!("{v:.2}({p})");

    let comp: Vec<String> = std::iter::once("compu. time".to_string())
        .chain(procs.iter().zip(paper::TABLE1_COMP).map(|(&n, (_, p))| {
            fmt_pair(get(n, "rochdf").comp_time, p)
        }))
        .collect();
    println!("{}", row(&comp, &w));

    for (io, col) in [("rochdf", 1), ("trochdf", 2), ("rocpanda", 3)] {
        let cells: Vec<String> = std::iter::once(format!("visible {io}"))
            .chain(procs.iter().zip(paper::TABLE1_VISIBLE).map(|(&n, t)| {
                let p = match col {
                    1 => t.1,
                    2 => t.2,
                    _ => t.3,
                };
                fmt_pair(get(n, io).visible_io, p)
            }))
            .collect();
        println!("{}", row(&cells, &w));
    }
    for (io, col) in [("rochdf", 1), ("rocpanda", 2)] {
        let cells: Vec<String> = std::iter::once(format!("restart {io}"))
            .chain(procs.iter().zip(paper::TABLE1_RESTART).map(|(&n, t)| {
                let p = if col == 1 { t.1 } else { t.2 };
                fmt_pair(get(n, io).restart_time, p)
            }))
            .collect();
        println!("{}", row(&cells, &w));
    }

    println!("\nFile counts per run (5 snapshots x 3 windows):");
    for &n in &procs {
        println!(
            "  n={n:3}  rochdf: {:4} files   rocpanda: {:3} files  ({}x reduction)",
            get(n, "rochdf").n_files,
            get(n, "rocpanda").n_files,
            get(n, "rochdf").n_files / get(n, "rocpanda").n_files.max(1),
        );
    }
    for r in &reports {
        assert!(r.restart_ok, "{}: restart mismatch", r.label);
    }
    sink.finish();
    println!("\nall restarts verified bit-exact");
}
