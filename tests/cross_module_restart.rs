//! Cross-module restart: snapshots written by one I/O architecture restart
//! through the other. Both modules write the same self-describing SDF
//! under the same naming convention — "Rocpanda and Rochdf are
//! interchangeable modules providing parallel I/O services, whose output
//! can be read directly by our in-house visualization tool Rocketeer, or
//! read for restart" (§3.1).

use genx_repro::core::{ArrayData, BlockId, DType, SnapshotId};
use genx_repro::roccom::{AttrSelector, AttrSpec, IoService, PaneMesh, Windows};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocpanda::{PandaService, PandaServiceBuilder, ServiceRole};
use genx_repro::rocstore::SharedFs;
use genx_repro::rochdf::{Rochdf, RochdfConfig};
use std::sync::Arc;

/// Rochdf pointed at the Rocpanda job's namespace: the two modules share a
/// file format and naming convention, the service adds a tenant directory.
fn in_tenant_dir() -> RochdfConfig {
    RochdfConfig {
        dir: "out/t0001".into(),
        ..RochdfConfig::default()
    }
}

/// A Rocpanda service over `fs` with every non-server rank of an `n`-rank
/// world admitted as its one job (tenant 1: files land under `out/t0001/`).
fn one_job(fs: &Arc<SharedFs>, servers: &[usize], n: usize) -> PandaService {
    let svc = PandaServiceBuilder::new(Arc::clone(fs)).servers(servers).build().unwrap();
    svc.admit_world("job", n).unwrap();
    svc
}

fn make_windows(blocks: &[u64]) -> Windows {
    let mut ws = Windows::new();
    let w = ws.create_window("fluid").unwrap();
    w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
    for &id in blocks {
        w.register_pane(
            BlockId(id),
            PaneMesh::Structured {
                dims: [2, 2, 2],
                origin: [id as f64, 0.0, 0.0],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        w.pane_mut(BlockId(id))
            .unwrap()
            .set_data("p", ArrayData::F64(vec![id as f64 * 3.0; 8]))
            .unwrap();
    }
    ws
}

fn verify(ws: &Windows, blocks: &[u64]) -> bool {
    blocks.iter().all(|&id| {
        ws.window("fluid")
            .unwrap()
            .pane(BlockId(id))
            .map(|p| {
                p.data("p")
                    .unwrap()
                    .as_f64()
                    .unwrap()
                    .iter()
                    .all(|&x| x == id as f64 * 3.0)
            })
            .unwrap_or(false)
    })
}

/// Rocpanda wrote it (2 server files); Rochdf restarts from it (each rank
/// scans the files it finds under the same prefix).
#[test]
fn rochdf_restarts_from_rocpanda_files() {
    let fs = Arc::new(SharedFs::ideal());
    let snap = SnapshotId::new(20, 2);
    let svc = one_job(&fs, &[0, 3], 6);
    run_ranks(6, ClusterSpec::ideal(6), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
            }
            ServiceRole::Client { io: mut c, comm: app, .. } => {
                let me = app.rank() as u64;
                let ws = make_windows(&[me * 2, me * 2 + 1]);
                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                c.finalize().unwrap();
            }
        }
    });
    // Rocpanda wrote 2 files (one per server).
    assert_eq!(fs.list("out/t0001/fluid_").len(), 2);

    // Restart with Rochdf on 4 ranks; each rank wants its blocks back.
    let ok = run_ranks(4, ClusterSpec::ideal(4), |comm| {
        let me = comm.rank() as u64;
        let blocks = [me * 2, me * 2 + 1];
        let mut ws = make_windows(&blocks);
        for pane in ws.window_mut("fluid").unwrap().panes_mut() {
            for x in pane.data_mut("p").unwrap().as_f64_mut().unwrap() {
                *x = -1.0;
            }
        }
        let mut io = Rochdf::new(&fs, &comm, in_tenant_dir());
        io.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
        verify(&ws, &blocks)
    });
    assert!(ok.iter().all(|&b| b));
}

/// Rochdf wrote it (4 per-rank files); Rocpanda restarts from it (servers
/// scan the files round-robin regardless of who wrote them).
#[test]
fn rocpanda_restarts_from_rochdf_files() {
    let fs = Arc::new(SharedFs::ideal());
    let snap = SnapshotId::new(20, 2);
    run_ranks(4, ClusterSpec::ideal(4), |comm| {
        let me = comm.rank() as u64;
        let ws = make_windows(&[me * 2, me * 2 + 1]);
        let mut io = Rochdf::new(&fs, &comm, in_tenant_dir());
        io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
    });
    assert_eq!(fs.list("out/t0001/fluid_").len(), 4);

    let svc = one_job(&fs, &[0], 3);
    let ok = run_ranks(3, ClusterSpec::ideal(3), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
                true
            }
            ServiceRole::Client { io: mut c, comm: app, .. } => {
                let me = app.rank() as u64;
                let blocks: Vec<u64> = (me * 4..me * 4 + 4).collect();
                let mut ws = make_windows(&blocks);
                for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                    for x in pane.data_mut("p").unwrap().as_f64_mut().unwrap() {
                        *x = -1.0;
                    }
                }
                c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                let ok = verify(&ws, &blocks);
                c.finalize().unwrap();
                ok
            }
        }
    });
    assert!(ok.iter().all(|&b| b));
}
