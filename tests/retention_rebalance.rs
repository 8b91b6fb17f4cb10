//! Retention management and dynamic load balancing, end to end.

use std::sync::Arc;

use genx_repro::genx::{run_genx, GenxConfig, IoChoice, WorkloadKind};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocstore::SharedFs;

fn base(label: &str, io: IoChoice) -> GenxConfig {
    let mut cfg = GenxConfig::new(
        label,
        WorkloadKind::LabScale {
            seed: 17,
            scale: 0.06,
        },
        io,
    );
    cfg.steps = 20;
    cfg.snapshot_every = 4; // 6 snapshots incl. initial
    cfg
}

/// With keep_snapshots = 2, the file system never holds more than two
/// snapshots' worth of files, and restart from the last snapshot still
/// works bit-exactly.
#[test]
fn retention_bounds_file_count_rochdf() {
    let fs = Arc::new(SharedFs::ideal());
    let mut cfg = base("ret-rochdf", IoChoice::Rochdf);
    cfg.keep_snapshots = Some(2);
    let report = run_genx(ClusterSpec::ideal(3), &fs, &cfg).unwrap();
    assert!(report.restart_ok);
    assert_eq!(report.snapshots, 6);
    // 2 kept snapshots x 3 windows x 3 ranks.
    let files_now = fs.list(&format!("{}/", cfg.out_dir)).len();
    assert_eq!(files_now, 2 * 3 * 3);
}

#[test]
fn retention_bounds_file_count_rocpanda() {
    let fs = Arc::new(SharedFs::ideal());
    let mut cfg = base(
        "ret-panda",
        IoChoice::Rocpanda {
            server_ranks: vec![3],
        },
    );
    cfg.keep_snapshots = Some(3);
    let report = run_genx(ClusterSpec::ideal(4), &fs, &cfg).unwrap();
    assert!(report.restart_ok);
    // 3 kept snapshots x 3 windows x 1 server.
    let files_now = fs.list(&format!("{}/", cfg.out_dir)).len();
    assert_eq!(files_now, 3 * 3);
}

#[test]
fn retention_bounds_file_count_trochdf() {
    let fs = Arc::new(SharedFs::ideal());
    let mut cfg = base("ret-trochdf", IoChoice::TRochdf);
    cfg.keep_snapshots = Some(1);
    let report = run_genx(ClusterSpec::ideal(2), &fs, &cfg).unwrap();
    assert!(report.restart_ok);
    let files_now = fs.list(&format!("{}/", cfg.out_dir)).len();
    assert_eq!(files_now, 3 * 2);
}

/// Rebalancing mid-run: physics keeps computing, snapshots stay complete,
/// and restart from the post-migration snapshot is exact.
#[test]
fn rebalance_preserves_correctness() {
    let fs = Arc::new(SharedFs::ideal());
    let mut cfg = base("reb-rochdf", IoChoice::Rochdf);
    cfg.rebalance_every = Some(5);
    let report = run_genx(ClusterSpec::ideal(4), &fs, &cfg).unwrap();
    assert!(report.restart_ok, "restart after migration must be exact");
    assert_eq!(report.snapshots, 6);
}

/// Rebalancing with Rocpanda: migrated panes flow to a (possibly)
/// different server group without any I/O reconfiguration.
#[test]
fn rebalance_with_collective_io() {
    let fs = Arc::new(SharedFs::ideal());
    let mut cfg = base(
        "reb-panda",
        IoChoice::Rocpanda {
            server_ranks: vec![4],
        },
    );
    cfg.rebalance_every = Some(3);
    let report = run_genx(ClusterSpec::ideal(5), &fs, &cfg).unwrap();
    assert!(report.restart_ok);
    // Every snapshot carries the full block population despite moves.
    // Match by basename: the service session writes under the job's
    // tenant namespace (`{out_dir}/t0001/...`).
    let snap_files: Vec<String> = fs
        .list(&format!("{}/", cfg.out_dir))
        .into_iter()
        .filter(|p| {
            p.rsplit('/').next().is_some_and(|base| base.starts_with("fluid_0005_"))
        })
        .collect();
    assert_eq!(snap_files.len(), 1, "{snap_files:?}");
}

/// A deliberately skewed distribution converges: after rebalancing, the
/// per-rank pane-element spread is far tighter than at the start.
#[test]
fn rebalance_improves_balance() {
    use genx_repro::core::{ArrayData, BlockId, DType};
    use genx_repro::roccom::{AttrSpec, PaneMesh, Windows};
    use genx_repro::rocnet::run_ranks;

    let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        // Rank 0 starts with everything.
        if comm.rank() == 0 {
            for i in 0..12u64 {
                w.register_pane(
                    BlockId(i),
                    PaneMesh::Structured {
                        dims: [4, 4, 4],
                        origin: [i as f64, 0.0, 0.0],
                        spacing: [1.0; 3],
                    },
                )
                .unwrap();
                w.pane_mut(BlockId(i))
                    .unwrap()
                    .set_data("p", ArrayData::F64(vec![i as f64; 64]))
                    .unwrap();
            }
        }
        let moved =
            genx_repro::genx::rebalance::rebalance(&comm, &mut ws, &["fluid"], 1.05).unwrap();
        let my_elems: usize = ws
            .window("fluid")
            .unwrap()
            .panes()
            .map(|p| p.mesh().n_elems())
            .sum();
        // Verify migrated data arrived intact.
        for pane in ws.window("fluid").unwrap().panes() {
            let v = pane.data("p").unwrap().as_f64().unwrap();
            assert!(v.iter().all(|&x| x == pane.id.0 as f64));
        }
        (moved, my_elems)
    });
    let moved = out[0].0;
    assert!(moved >= 8, "skew should force many moves, got {moved}");
    let loads: Vec<usize> = out.iter().map(|&(_, e)| e).collect();
    let max = *loads.iter().max().unwrap() as f64;
    let min = *loads.iter().min().unwrap() as f64;
    assert!(max / min.max(1.0) <= 1.5, "loads after rebalance: {loads:?}");
}
