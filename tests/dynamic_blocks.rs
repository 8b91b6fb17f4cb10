//! The paper's dynamism claims (§4.1): the collective I/O architecture
//! tolerates blocks that migrate between processes ("dynamic
//! load-balancing, where data blocks may be migrated among processors,
//! without affecting how I/O is done") and block populations that change
//! through adaptive refinement — with no I/O reconfiguration.

use genx_repro::core::{ArrayData, BlockId, DType, SnapshotId};
use genx_repro::roccom::{convert, AttrSelector, AttrSpec, IoService, PaneMesh, Windows};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocpanda::{PandaService, PandaServiceBuilder, ServiceRole};
use genx_repro::rocstore::SharedFs;
use std::sync::Arc;

/// A Rocpanda service over `fs` with every non-server rank of an `n`-rank
/// world admitted as its one job (tenant 1: files land under `out/t0001/`).
fn one_job(fs: &Arc<SharedFs>, servers: &[usize], n: usize) -> PandaService {
    let svc = PandaServiceBuilder::new(Arc::clone(fs)).servers(servers).build().unwrap();
    svc.admit_world("job", n).unwrap();
    svc
}

fn window_with(blocks: &[(u64, f64)]) -> Windows {
    let mut ws = Windows::new();
    let w = ws.create_window("fluid").unwrap();
    w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
    for &(id, fill) in blocks {
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
            .set_data("p", ArrayData::F64(vec![fill; 8]))
            .unwrap();
    }
    ws
}

/// Between two snapshots, a block migrates from client 0 to client 1 by
/// serializing the pane through a message. Both snapshots must be
/// complete and correct; the I/O library never hears about the move.
#[test]
fn block_migrates_between_snapshots() {
    let fs = Arc::new(SharedFs::ideal());
    let snap_a = SnapshotId::new(0, 0);
    let snap_b = SnapshotId::new(10, 1);
    const MIGRANT: u64 = 7;
    let svc = one_job(&fs, &[0], 3);
    run_ranks(3, ClusterSpec::ideal(3), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
            }
            ServiceRole::Client { io: mut c, comm: app, .. } => {
                let me = app.rank();
                let mut ws = if me == 0 {
                    window_with(&[(1, 10.0), (MIGRANT, 70.0)])
                } else {
                    window_with(&[(2, 20.0)])
                };
                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap_a).unwrap();

                // Migrate the pane 0 -> 1 through the client communicator.
                if me == 0 {
                    let w = ws.window_mut("fluid").unwrap();
                    let pane = w.pane(BlockId(MIGRANT)).unwrap().clone();
                    let block = convert::pane_to_block(
                        w,
                        &pane,
                        &genx_repro::roccom::AttrRef::All,
                    )
                    .unwrap();
                    let msg = genx_repro::rocpanda::wire::BlockMsg {
                        snap: snap_b,
                        window: "fluid".into(),
                        block,
                    };
                    app.send_rope(1, 42, msg.encode()).unwrap();
                    w.remove_pane(BlockId(MIGRANT)).unwrap();
                } else {
                    let m = app.recv(Some(0), Some(42)).unwrap();
                    let bm = genx_repro::rocpanda::wire::BlockMsg::decode_shared(&m.payload).unwrap();
                    convert::apply_block(ws.window_mut("fluid").unwrap(), &bm.block).unwrap();
                }

                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap_b).unwrap();
                c.finalize().unwrap();
            }
        }
    });
    // Both snapshots contain all three blocks, with the migrant's data
    // intact in the second file.
    let check = |snap: SnapshotId| {
        let path = format!(
            "out/t0001/{}",
            genx_repro::core::snapshot_file_name("fluid", snap, 0)
        );
        let (r, t) = genx_repro::rocsdf::SdfFileReader::open(
            &fs,
            &path,
            genx_repro::rocsdf::LibraryModel::hdf4(),
            0,
            0.0,
        )
        .unwrap();
        let (blocks, _) = r.read_all_blocks(t).unwrap();
        let mut ids: Vec<u64> = blocks.iter().map(|b| b.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, MIGRANT]);
        let migrant = blocks.iter().find(|b| b.id.0 == MIGRANT).unwrap();
        let p = migrant.dataset("p").unwrap().data.to_typed();
        assert_eq!(p.as_f64().unwrap()[0], 70.0);
    };
    check(snap_a);
    check(snap_b);
}

/// Between two snapshots a block is refined into children with fresh ids.
/// The next collective write simply sees the new pane population — "the
/// number of mesh blocks can change with adaptive refinement, and the
/// simulation developers need not redefine the data distribution for
/// I/O."
#[test]
fn refinement_changes_block_population() {
    let fs = Arc::new(SharedFs::ideal());
    let snap_a = SnapshotId::new(0, 0);
    let snap_b = SnapshotId::new(10, 1);
    let svc = one_job(&fs, &[0], 2);
    run_ranks(2, ClusterSpec::ideal(2), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
            }
            ServiceRole::Client { io: mut c, comm: _app, .. } => {
                let mut ws = window_with(&[(100, 1.0)]);
                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap_a).unwrap();

                // Refine: replace pane 100 with panes 200..208 (8 children
                // of half size), as rocmesh::refine would produce.
                {
                    let parent = rocmesh::StructuredBlock::new(
                        BlockId(100),
                        [2, 2, 2],
                        [100.0, 0.0, 0.0],
                        [1.0; 3],
                    );
                    let mut next_id = 200;
                    let children = rocmesh::refine::refine_structured(&parent, &mut next_id);
                    let w = ws.window_mut("fluid").unwrap();
                    w.remove_pane(BlockId(100)).unwrap();
                    for child in &children {
                        w.register_pane(child.id, PaneMesh::from_structured(child)).unwrap();
                        let n = w.pane(child.id).unwrap().data("p").unwrap().len();
                        w.pane_mut(child.id)
                            .unwrap()
                            .set_data("p", ArrayData::F64(vec![child.id.0 as f64; n]))
                            .unwrap();
                    }
                }
                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap_b).unwrap();

                // Restart from the refined snapshot into zeroed windows.
                for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                    for x in pane.data_mut("p").unwrap().as_f64_mut().unwrap() {
                        *x = -5.0;
                    }
                }
                c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap_b).unwrap();
                let w = ws.window("fluid").unwrap();
                assert_eq!(w.n_panes(), 8);
                for pane in w.panes() {
                    let v = pane.data("p").unwrap().as_f64().unwrap();
                    assert!(v.iter().all(|&x| x == pane.id.0 as f64));
                }
                c.finalize().unwrap();
            }
        }
    });
    // First snapshot holds the parent; second holds the 8 children.
    let ids_of = |snap: SnapshotId| -> Vec<u64> {
        let path = format!(
            "out/t0001/{}",
            genx_repro::core::snapshot_file_name("fluid", snap, 0)
        );
        let (r, _) = genx_repro::rocsdf::SdfFileReader::open(
            &fs,
            &path,
            genx_repro::rocsdf::LibraryModel::hdf4(),
            0,
            0.0,
        )
        .unwrap();
        let mut ids: Vec<u64> = r.block_ids().iter().map(|b| b.0).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(ids_of(snap_a), vec![100]);
    assert_eq!(ids_of(snap_b), (200..208).collect::<Vec<u64>>());
}

/// A pane whose size changes between snapshots (burn regression) flows
/// through unchanged I/O paths: Rocpanda accepts each snapshot's blocks
/// as they come.
#[test]
fn pane_resize_between_snapshots() {
    let fs = Arc::new(SharedFs::ideal());
    let svc = one_job(&fs, &[0], 2);
    run_ranks(2, ClusterSpec::ideal(2), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
            }
            ServiceRole::Client { io: mut c, comm: _app, .. } => {
                for (ordinal, nj) in [(0u32, 4usize), (1, 3), (2, 2)] {
                    // Re-register the pane at its regressed size.
                    let mut ws = Windows::new();
                    let w = ws.create_window("fluid").unwrap();
                    w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
                    w.register_pane(
                        BlockId(5),
                        PaneMesh::Structured {
                            dims: [2, nj, 2],
                            origin: [0.0; 3],
                            spacing: [1.0; 3],
                        },
                    )
                    .unwrap();
                    let snap = SnapshotId::new(ordinal as u64 * 10, ordinal);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                }
                c.finalize().unwrap();
            }
        }
    });
    // Each snapshot's file holds the pane at its then-current size.
    for (ordinal, nj) in [(0u32, 4usize), (1, 3), (2, 2)] {
        let snap = SnapshotId::new(ordinal as u64 * 10, ordinal);
        let path = format!(
            "out/t0001/{}",
            genx_repro::core::snapshot_file_name("fluid", snap, 0)
        );
        let (r, t) = genx_repro::rocsdf::SdfFileReader::open(
            &fs,
            &path,
            genx_repro::rocsdf::LibraryModel::hdf4(),
            0,
            0.0,
        )
        .unwrap();
        let (block, _) = r.read_block_shared(BlockId(5), t).unwrap();
        assert_eq!(block.dataset("p").unwrap().len(), 2 * nj * 2);
    }
}
