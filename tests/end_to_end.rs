//! Cross-crate integration tests: full simulation jobs through every I/O
//! architecture, exercising the public API the way the examples do.

use std::sync::Arc;

use genx_repro::genx::{run_genx, GenxConfig, IoChoice, WorkloadKind};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocstore::SharedFs;

fn lab_cfg(label: &str, io: IoChoice) -> GenxConfig {
    let mut cfg = GenxConfig::new(
        label,
        WorkloadKind::LabScale {
            seed: 11,
            scale: 0.08,
        },
        io,
    );
    cfg.steps = 12;
    cfg.snapshot_every = 6;
    cfg
}

#[test]
fn all_three_io_modules_agree_on_physics() {
    // Same workload, same steps, three I/O stacks: computation results
    // (and hence restart content) must be identical; only I/O timing may
    // differ.
    let fs_a = Arc::new(SharedFs::turing());
    let fs_b = Arc::new(SharedFs::turing());
    let fs_c = Arc::new(SharedFs::turing());
    let a = run_genx(
        ClusterSpec::turing(4),
        &fs_a,
        &lab_cfg("it-rochdf", IoChoice::Rochdf),
    )
    .unwrap();
    let b = run_genx(
        ClusterSpec::turing(4),
        &fs_b,
        &lab_cfg("it-trochdf", IoChoice::TRochdf),
    )
    .unwrap();
    let c = run_genx(
        ClusterSpec::turing(5),
        &fs_c,
        &lab_cfg(
            "it-panda",
            IoChoice::Rocpanda {
                server_ranks: vec![4],
            },
        ),
    )
    .unwrap();
    for r in [&a, &b, &c] {
        assert!(r.restart_ok, "{}: restart mismatch", r.label);
        assert_eq!(r.snapshots, 3);
    }
    // Identical snapshot payload sizes (same physics, same blocks).
    assert_eq!(a.snapshot_bytes, b.snapshot_bytes);
    assert_eq!(a.snapshot_bytes, c.snapshot_bytes);
    // The written files really landed.
    assert!(fs_a.n_files() > 0 && fs_c.n_files() > 0);
    // Rocpanda produces one file per server per window per snapshot.
    assert_eq!(c.n_files, 9);
    assert_eq!(a.n_files, 36);
}

#[test]
fn visible_io_ordering_matches_the_paper() {
    // Table 1's qualitative ordering: T-Rochdf << Rocpanda << Rochdf on a
    // contended NFS-like file system.
    let run = |io: IoChoice, ranks: usize| {
        let fs = Arc::new(SharedFs::turing());
        run_genx(ClusterSpec::turing(ranks), &fs, &lab_cfg("it-order", io)).unwrap()
    };
    let rochdf = run(IoChoice::Rochdf, 8);
    let trochdf = run(IoChoice::TRochdf, 8);
    let panda = run(
        IoChoice::Rocpanda {
            server_ranks: vec![8],
        },
        9,
    );
    assert!(
        trochdf.visible_io < panda.visible_io,
        "t-rochdf {} should beat rocpanda {}",
        trochdf.visible_io,
        panda.visible_io
    );
    assert!(
        panda.visible_io < rochdf.visible_io,
        "rocpanda {} should beat rochdf {}",
        panda.visible_io,
        rochdf.visible_io
    );
}

#[test]
fn computation_time_is_io_independent() {
    let fs1 = Arc::new(SharedFs::turing());
    let fs2 = Arc::new(SharedFs::turing());
    let a = run_genx(
        ClusterSpec::turing(4),
        &fs1,
        &lab_cfg("it-comp-a", IoChoice::Rochdf),
    )
    .unwrap();
    let b = run_genx(
        ClusterSpec::turing(4),
        &fs2,
        &lab_cfg("it-comp-b", IoChoice::TRochdf),
    )
    .unwrap();
    let rel = (a.comp_time - b.comp_time).abs() / a.comp_time;
    assert!(rel < 0.02, "comp time differs {rel}");
}

#[test]
fn weak_scaling_cylinder_grows_data_linearly() {
    let mut per_proc = Vec::new();
    for n in [2usize, 4] {
        let fs = Arc::new(SharedFs::frost());
        let mut cfg = GenxConfig::new(
            format!("it-cyl-{n}"),
            WorkloadKind::Cylinder { seed: 5 },
            IoChoice::Rochdf,
        );
        cfg.steps = 4;
        cfg.snapshot_every = 4;
        let r = run_genx(ClusterSpec::ideal(n), &fs, &cfg).unwrap();
        assert!(r.restart_ok);
        per_proc.push(r.snapshot_bytes as f64 / n as f64);
    }
    let ratio = per_proc[0] / per_proc[1];
    assert!((ratio - 1.0).abs() < 0.05, "per-proc bytes not constant: {per_proc:?}");
}

#[test]
fn density_couples_across_rank_boundaries() {
    // Two adjacent fluid blocks on different ranks: a high-pressure
    // chamber raises the inflow of the upstream block; the coupling must
    // carry the raised density across the block boundary to the
    // downstream block, which lives on the other rank.
    use genx_repro::core::{BlockId, DType};
    use genx_repro::roccom::{AttrSpec, PaneMesh, Windows};
    use genx_repro::rocnet::run_ranks;
    use std::collections::HashMap;

    let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        for name in ["rho", "p", "T", "E", "mach", "visc"] {
            w.declare_attr(AttrSpec::element(name, DType::F64, 1)).unwrap();
        }
        w.declare_attr(AttrSpec::node("vel", DType::F64, 3)).unwrap();
        // Rank 0 owns the upstream block [0,8); rank 1 the downstream [8,16).
        let my_id = BlockId(comm.rank() as u64);
        w.register_pane(
            my_id,
            PaneMesh::Structured {
                dims: [8, 2, 2],
                origin: [comm.rank() as f64 * 8.0, 0.0, 0.0],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        for pane in ws.window_mut("fluid").unwrap().panes_mut() {
            for name in ["rho"] {
                for x in pane.data_mut(name).unwrap().as_f64_mut().unwrap() {
                    *x = 1.2;
                }
            }
            for x in pane.data_mut("T").unwrap().as_f64_mut().unwrap() {
                *x = 300.0;
            }
        }
        let fluid = genx_repro::genx::fluid::FluidModule::default();
        // Coupled steps at a hot chamber: rank 0's inlet rises, its
        // outlet feeds rank 1's inlet each step.
        let mut outs = Vec::new();
        for _ in 0..800 {
            fluid.outlet_means(&ws, &mut outs).unwrap();
            let mine = outs[0];
            let all = comm.allgather(&mine.1.to_le_bytes()).unwrap();
            let mut inflow = HashMap::new();
            if comm.rank() == 1 {
                // Downstream block couples to rank 0's outlet.
                let upstream = f64::from_le_bytes(all[0][..8].try_into().unwrap());
                inflow.insert(my_id, upstream);
            }
            fluid
                .step_coupled(&mut ws, 1e-3, 500_000.0, &inflow)
                .unwrap();
        }
        let w = ws.window("fluid").unwrap();
        w.pane(my_id).unwrap().data("rho").unwrap().as_f64().unwrap()[0]
    });
    // Chamber density at 500 kPa / (287*300) ≈ 5.8; upstream inlet chases
    // it, and the downstream block must have clearly felt it.
    assert!(out[0] > 3.0, "upstream inlet {}", out[0]);
    assert!(out[1] > 1.5, "coupling failed to cross ranks: {}", out[1]);
}

#[test]
fn rocpanda_restart_pays_per_block_like_the_paper() {
    // `sweep_blocksize` at 1/20 of its volume: the same bytes cut into
    // twice the blocks. Servers read a restart block by block through the
    // library, one lookup and one read per record, so the restart time
    // follows the block count (the paper's small-block tax), not the
    // byte count.
    let restart = |factor: usize| {
        let fs = Arc::new(SharedFs::turing());
        let mut cfg = GenxConfig::new(
            format!("it-sweep-{factor}x"),
            WorkloadKind::Custom {
                seed: 42,
                scale: 0.05,
                n_fluid: 40 * factor,
                n_solid: 24 * factor,
            },
            IoChoice::Rocpanda {
                server_ranks: vec![16, 17],
            },
        );
        cfg.steps = 50;
        cfg.snapshot_every = 25;
        let r = run_genx(ClusterSpec::turing(18), &fs, &cfg).unwrap();
        assert!(r.restart_ok, "{}: restart mismatch", r.label);
        r.restart_time
    };
    let times: Vec<f64> = [1, 2, 4].into_iter().map(restart).collect();
    for pair in times.windows(2) {
        assert!(
            pair[1] >= 1.5 * pair[0],
            "twice the blocks must restart in ≥ 1.5× the time: {times:?}"
        );
    }
}
