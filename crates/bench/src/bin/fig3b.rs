//! Reproduce **Fig. 3(b)**: computation time of the scalability test
//! under the three per-node CPU configurations of the paper:
//!
//! * `16NS` — 16 compute CPUs per node, no server (OS daemons steal from
//!   the solvers);
//! * `15NS` — 15 compute CPUs, one idle;
//! * `15S`  — 15 compute CPUs, one Rocpanda I/O server (mostly blocked in
//!   probe, so it absorbs the daemons almost as well as an idle CPU).
//!
//! ```text
//! cargo run --release -p bench --bin fig3b [max_nodes] [--trace out.json]
//! ```

use bench::{fig3b_point, row, TraceSink};
use genx::RunReport;
use rocnet::cluster::NodeUsage;

fn main() {
    let (args, mut sink) = TraceSink::from_env_args();
    let max_nodes: usize = args
        .first()
        .map(|s| s.parse().expect("max_nodes must be an integer"))
        .unwrap_or(32);
    let mut nodes = vec![1usize, 2, 4, 8, 16, 32];
    nodes.retain(|&k| k <= max_nodes);

    let steps = 10u64;
    let mut reports: Vec<RunReport> = Vec::new();
    let w = [6usize, 8, 12, 8, 12, 8, 12];
    println!("Fig 3(b): computation time per node configuration (Frost model, {steps} steps)");
    println!(
        "{}",
        row(
            &[
                "nodes".into(),
                "16NS n".into(),
                "16NS time".into(),
                "15NS n".into(),
                "15NS time".into(),
                "15S n".into(),
                "15S time".into(),
            ],
            &w
        )
    );
    for &k in &nodes {
        let ns16 = sink.run(|tc| fig3b_point(k, NodeUsage::AllCompute, steps, tc));
        let ns15 = sink.run(|tc| fig3b_point(k, NodeUsage::SpareIdle, steps, tc));
        let s15 = sink.run(|tc| fig3b_point(k, NodeUsage::SpareServer, steps, tc));
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    ns16.n_compute.to_string(),
                    format!("{:.3}s", ns16.comp_time),
                    ns15.n_compute.to_string(),
                    format!("{:.3}s", ns15.comp_time),
                    s15.n_compute.to_string(),
                    format!("{:.3}s", s15.comp_time),
                ],
                &w
            )
        );
        // The paper's ordering: 16NS slowest, 15S within a hair of 15NS.
        reports.push(ns16);
        reports.push(ns15);
        reports.push(s15);
    }
    sink.write_json("fig3b", &reports);
    bench::write_csv("fig3b", &reports);
    sink.finish();

    let worst_gap = nodes
        .iter()
        .map(|&k| {
            let base = 3 * (nodes.iter().position(|&x| x == k).unwrap());
            reports[base].comp_time / reports[base + 2].comp_time
        })
        .fold(0.0f64, f64::max);
    println!(
        "\nmax 16NS/15S computation-time ratio: {worst_gap:.3} \
         (the paper reports 16NS visibly slower past ~32 processors)"
    );
}
