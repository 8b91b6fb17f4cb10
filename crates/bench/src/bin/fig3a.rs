//! Reproduce **Fig. 3(a)**: apparent aggregate write throughput of the
//! scalability test on the Frost model, as the number of compute
//! processors grows — Rocpanda (15 compute + 1 server CPU per 16-way
//! node) vs Rochdf (direct GPFS writes).
//!
//! ```text
//! cargo run --release -p bench --bin fig3a [max_procs] [--trace out.json]
//! ```

use bench::{fig3a_point, paper, row, TraceSink};
use genx::RunReport;

fn main() {
    let (args, mut sink) = TraceSink::from_env_args();
    let max: usize = args
        .first()
        .map(|s| s.parse().expect("max_procs must be an integer"))
        .unwrap_or(480);
    // Paper sweep: within one node (1..15 compute procs), then 15/node.
    let mut points: Vec<usize> = vec![1, 2, 4, 8, 15];
    let mut p = 30;
    while p <= max {
        points.push(p);
        p *= 2;
    }
    points.retain(|&p| p <= max);

    let steps = 4u64;
    let mut reports: Vec<RunReport> = Vec::new();
    let w = [8usize, 8, 10, 14, 10, 14, 8];
    println!("Fig 3(a): apparent aggregate write throughput on the Frost model");
    println!(
        "{}",
        row(
            &[
                "procs".into(),
                "nodes".into(),
                "panda".into(),
                "panda MB/s".into(),
                "rochdf".into(),
                "rochdf MB/s".into(),
                "files".into(),
            ],
            &w
        )
    );
    for &n in &points {
        let panda = sink.run(|tc| fig3a_point(n, true, steps, tc));
        let rochdf = sink.run(|tc| fig3a_point(n, false, steps, tc));
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    (panda.n_compute + panda.n_servers).div_ceil(16).to_string(),
                    format!("{:.3}s", panda.visible_io),
                    format!("{:.1}", panda.apparent_write_mb_s),
                    format!("{:.3}s", rochdf.visible_io),
                    format!("{:.1}", rochdf.apparent_write_mb_s),
                    panda.n_files.to_string(),
                ],
                &w
            )
        );
        reports.push(panda);
        reports.push(rochdf);
    }
    sink.write_json("fig3a", &reports);
    bench::write_csv("fig3a", &reports);
    sink.finish();
    let peak = reports
        .iter()
        .filter(|r| r.io_module == "rocpanda")
        .map(|r| r.apparent_write_mb_s)
        .fold(0.0f64, f64::max);
    println!(
        "\npeak Rocpanda apparent throughput: {peak:.0} MB/s (paper at 512 total procs: {} MB/s)",
        paper::FIG3A_PEAK_MB_S
    );
}
