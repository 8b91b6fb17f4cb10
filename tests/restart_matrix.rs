//! Restart flexibility matrix (§4.1's claims): snapshots written by one
//! configuration must restart under different processor counts, different
//! server counts, and across I/O architectures (the file format is one
//! and the same).

use genx_repro::core::{snapshot_file_name, SnapshotId};
use genx_repro::roccom::{AttrSelector, IoService, Windows};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocpanda::{PandaService, PandaServiceBuilder, ServiceRole};
use genx_repro::rocsdf::{LibraryModel, SdfFileReader};
use genx_repro::rocstore::SharedFs;
use genx_repro::rochdf::{Rochdf, RochdfConfig};
use rocio_core::{ArrayData, BlockId, DType};
use std::sync::Arc;

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
    w.declare_attr(genx_repro::roccom::AttrSpec::element("p", DType::F64, 1))
        .unwrap();
    for &id in blocks {
        w.register_pane(
            BlockId(id),
            genx_repro::roccom::PaneMesh::Structured {
                dims: [2, 2, 2],
                origin: [id as f64, 0.0, 0.0],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        w.pane_mut(BlockId(id))
            .unwrap()
            .set_data("p", ArrayData::F64(vec![id as f64 + 0.5; 8]))
            .unwrap();
    }
    ws
}

fn verify(ws: &Windows, blocks: &[u64]) -> bool {
    let w = ws.window("fluid").unwrap();
    blocks.iter().all(|&id| {
        w.pane(BlockId(id))
            .map(|p| {
                p.data("p")
                    .unwrap()
                    .as_f64()
                    .unwrap()
                    .iter()
                    .all(|&x| x == id as f64 + 0.5)
            })
            .unwrap_or(false)
    })
}

/// Write with Rocpanda (2 servers), restart with Rocpanda (3 servers) and
/// a different block distribution.
#[test]
fn panda_restart_across_server_counts() {
    let fs = Arc::new(SharedFs::ideal());
    let snap = SnapshotId::new(10, 1);
    // Write: 4 clients + 2 servers; client i owns blocks {2i, 2i+1}.
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
    // Restart: 2 clients + 3 servers; client i owns blocks {4i..4i+4}.
    let svc = one_job(&fs, &[0, 2, 4], 5);
    let ok = run_ranks(5, ClusterSpec::ideal(5), |comm| {
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

/// Files written by Rochdf restart through Rochdf with more readers than
/// writers (block redistribution).
#[test]
fn rochdf_restart_with_more_readers() {
    let fs = SharedFs::ideal();
    let snap = SnapshotId::new(5, 0);
    run_ranks(2, ClusterSpec::ideal(2), |comm| {
        let me = comm.rank() as u64;
        let blocks: Vec<u64> = (me * 4..me * 4 + 4).collect();
        let ws = make_windows(&blocks);
        let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
        io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
    });
    let ok = run_ranks(4, ClusterSpec::ideal(4), |comm| {
        let me = comm.rank() as u64;
        let blocks: Vec<u64> = (me * 2..me * 2 + 2).collect();
        let mut ws = make_windows(&blocks);
        for pane in ws.window_mut("fluid").unwrap().panes_mut() {
            for x in pane.data_mut("p").unwrap().as_f64_mut().unwrap() {
                *x = -1.0;
            }
        }
        let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
        io.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
        verify(&ws, &blocks)
    });
    assert!(ok.iter().all(|&b| b));
}

/// The SDF files Rocpanda writes are plain SDF: a post-processing tool
/// (or Rocketeer) can open them directly without the I/O library.
#[test]
fn panda_files_are_plain_sdf() {
    let fs = Arc::new(SharedFs::ideal());
    let snap = SnapshotId::new(0, 0);
    let svc = one_job(&fs, &[0], 3);
    run_ranks(3, ClusterSpec::ideal(3), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
            }
            ServiceRole::Client { io: mut c, comm: app, .. } => {
                let me = app.rank() as u64;
                let ws = make_windows(&[me]);
                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                c.finalize().unwrap();
            }
        }
    });
    let path = format!("out/t0001/{}", snapshot_file_name("fluid", snap, 0));
    let (reader, _) = SdfFileReader::open(&fs, &path, LibraryModel::hdf4(), 0, 0.0).unwrap();
    assert_eq!(reader.block_ids().len(), 2);
    let (blocks, _) = reader.read_all_blocks(0.0).unwrap();
    for b in &blocks {
        assert_eq!(b.window, "fluid");
        assert!(b.dataset("p").is_ok());
        assert!(b.dataset("nc").is_ok());
    }
}
