//! Property tests on the Rocpanda protocol: arbitrary block populations,
//! client counts, server counts and flow-control windows round-trip
//! through collective write + collective restart.

use proptest::prelude::*;
use rocio_core::{ArrayData, BlockId, Checksum, DType, SnapshotId};
use rocnet::cluster::ClusterSpec;
use rocnet::run_ranks;
use roccom::{convert, AttrRef, AttrSelector, AttrSpec, IoService, PaneMesh, Windows};
use rocpanda::{PandaServiceBuilder, RocpandaConfig, ServiceRole};
use rocstore::SharedFs;

fn build(blocks: &[(u64, u8)]) -> rocio_core::Result<Windows> {
    let mut ws = Windows::new();
    let w = ws.create_window("fluid")?;
    w.declare_attr(AttrSpec::element("p", DType::F64, 1))?;
    for &(id, size) in blocks {
        let dims = [1 + (size % 4) as usize, 2, 2];
        w.register_pane(
            BlockId(id),
            PaneMesh::Structured {
                dims,
                origin: [id as f64, 0.0, 0.0],
                spacing: [1.0; 3],
            },
        )?;
        let n = dims[0] * dims[1] * dims[2];
        w.pane_mut(BlockId(id))?
            .set_data("p", ArrayData::F64(vec![id as f64 + 0.25; n]))?;
    }
    Ok(ws)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn write_restart_round_trips_arbitrary_populations(
        raw_ids in prop::collection::vec((0u64..500, any::<u8>()), 1..24),
        n_clients in 1usize..5,
        n_servers in 1usize..3,
        ack_window in 1usize..5,
    ) {
        // Dedup ids.
        let mut blocks = raw_ids;
        blocks.sort_by_key(|&(id, _)| id);
        blocks.dedup_by_key(|&mut (id, _)| id);

        let fs = std::sync::Arc::new(SharedFs::ideal());
        let total = n_clients + n_servers;
        let server_ranks: Vec<usize> = (n_clients..total).collect();
        let snap = SnapshotId::new(0, 0);
        let cfg = RocpandaConfig {
            ack_window,
            ..Default::default()
        };
        let svc = PandaServiceBuilder::new(fs).servers(&server_ranks).config(cfg).build().unwrap();
        svc.admit_world("prop", total).unwrap();
        let blocks2 = blocks.clone();
        let sums = run_ranks(total, ClusterSpec::ideal(total), |comm| {
            match svc.attach(&comm).unwrap() {
                ServiceRole::Server(mut s) => {
                    s.run().unwrap();
                    Vec::new()
                }
                ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
                ServiceRole::Client { io: mut c, comm: app, .. } => {
                    // Deal blocks round-robin to clients.
                    let mine: Vec<(u64, u8)> = blocks2
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % app.size() == app.rank())
                        .map(|(_, b)| *b)
                        .collect();
                    let ws = build(&mine).unwrap();
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    // Restart into zeroed copies.
                    let mut fresh = build(&mine).unwrap();
                    for pane in fresh.window_mut("fluid").unwrap().panes_mut() {
                        for x in pane.data_mut("p").unwrap().as_f64_mut().unwrap() {
                            *x = -9.0;
                        }
                    }
                    c.read_attribute(&mut fresh, &AttrSelector::all("fluid"), snap).unwrap();
                    let w_orig = ws.window("fluid").unwrap();
                    let w_back = fresh.window("fluid").unwrap();
                    let mut out = Vec::new();
                    for id in w_orig.pane_ids() {
                        let a = convert::pane_to_block(w_orig, w_orig.pane(id).unwrap(), &AttrRef::All).unwrap();
                        let b = convert::pane_to_block(w_back, w_back.pane(id).unwrap(), &AttrRef::All).unwrap();
                        out.push((Checksum::of_block(&a), Checksum::of_block(&b)));
                    }
                    c.finalize().unwrap();
                    out
                }
            }
        });
        for (a, b) in sums.into_iter().flatten() {
            prop_assert_eq!(a, b);
        }
    }
}
