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

/// A restart names its panes and the read builds them: windows that only
/// *reserve* this rank's pane ids (`genx::setup::reserve_for` — what
/// `run_genx_restart` and `Rocman::measure_restart` read onto) come back
/// from every reader holding exactly the panes a restart onto
/// generator-built panes holds — mesh and every buffer `==` — and both
/// hold what was written. A reserved id the snapshot lacks is `NotFound`,
/// by name, whichever reader looks for it.
mod reserved_panes {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use genx_repro::core::{BlockId, Result, RocError, SnapshotId};
    use genx_repro::genx::setup::{
        assign, declare_windows, register_and_init, reserve_for, FluidKind, BURN_WINDOW,
        FLUID_WINDOW, SOLID_WINDOW,
    };
    use genx_repro::roccom::{AttrSelector, IoService, Pane, Windows};
    use genx_repro::rochdf::{Rochdf, RochdfConfig};
    use genx_repro::rocmesh::Workload;
    use genx_repro::rocnet::cluster::ClusterSpec;
    use genx_repro::rocnet::run_ranks;
    use genx_repro::rocpanda::ServiceRole;
    use genx_repro::rocstore::SharedFs;

    const WINDOWS: [&str; 3] = [FLUID_WINDOW, SOLID_WINDOW, BURN_WINDOW];
    const SNAP: SnapshotId = SnapshotId { step: 10, ordinal: 1 };
    const WRITERS: usize = 3;
    const READERS: usize = 2;
    /// A pane nobody wrote.
    const GHOST: BlockId = BlockId(999_999);

    fn workload() -> Workload {
        Workload::lab_scale_motor_scaled(21, 0.05)
    }

    /// Where every module of this test reads and writes: Rochdf pointed at the
    /// directory the Rocpanda service gives its first tenant.
    fn cfg(read_aggregators: usize) -> RochdfConfig {
        RochdfConfig { dir: "out/t0001".into(), read_aggregators, ..RochdfConfig::default() }
    }

    /// What a rank of `n` restarts onto.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Onto {
        /// Panes generated from initial conditions, to be overwritten.
        Generated,
        /// Ids only.
        Reserved,
        /// Ids only, and on rank 0 one the snapshot does not hold.
        ReservedWithGhost,
    }

    fn windows_of(rank: usize, n: usize, onto: Onto) -> Windows {
        let (w, mine) = (workload(), assign(&workload(), n).swap_remove(rank));
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        match onto {
            Onto::Generated => register_and_init(&mut ws, &w, &mine).unwrap(),
            Onto::Reserved | Onto::ReservedWithGhost => {
                reserve_for(&mut ws, &w, &mine, FluidKind::Rocflo).unwrap()
            }
        }
        if onto == Onto::ReservedWithGhost && rank == 0 {
            ws.window_mut(FLUID_WINDOW).unwrap().reserve_pane(GHOST).unwrap();
        }
        ws
    }

    /// Every pane of a job's ranks, by window and id.
    fn panes(ranks: Vec<Windows>) -> BTreeMap<(&'static str, BlockId), Pane> {
        let mut all = BTreeMap::new();
        for ws in &ranks {
            for window in WINDOWS {
                for pane in ws.window(window).unwrap().panes() {
                    assert!(all.insert((window, pane.id), pane.clone()).is_none(), "pane held twice");
                }
            }
        }
        all
    }

    /// Three ranks write a state no generator produces; returns it.
    fn write_snapshot(fs: &SharedFs) -> BTreeMap<(&'static str, BlockId), Pane> {
        panes(run_ranks(WRITERS, ClusterSpec::ideal(WRITERS), |comm| {
            let mut ws = windows_of(comm.rank(), WRITERS, Onto::Generated);
            for window in WINDOWS {
                let w = ws.window_mut(window).unwrap();
                let names: Vec<String> = w.schema().iter().map(|s| s.name.clone()).collect();
                for pane in w.panes_mut() {
                    let id = pane.id.0;
                    for (k, name) in names.iter().enumerate() {
                        let buf = pane.data_mut(name).unwrap().as_f64_mut().unwrap();
                        for (i, x) in buf.iter_mut().enumerate() {
                            *x = *x * 1.5 + (id * 31 + k as u64 * 7 + i as u64 % 13) as f64;
                        }
                    }
                }
            }
            let mut io = Rochdf::new(fs, &comm, cfg(0));
            for window in WINDOWS {
                io.write_attribute(&ws, &AttrSelector::all(window), SNAP).unwrap();
            }
            ws
        }))
    }

    /// Read every window (the reads are collective: a rank whose read failed
    /// still takes part in the next); the first failure, if any.
    fn read_all(io: &mut dyn IoService, ws: &mut Windows) -> Result<()> {
        let reads = WINDOWS.map(|w| io.read_attribute(ws, &AttrSelector::all(w), SNAP));
        reads.into_iter().collect()
    }

    /// Each reading rank's windows and how its read went.
    type Outcomes = Vec<(Windows, Result<()>)>;

    /// Restart onto two ranks through Rochdf (individual, or two-phase when
    /// `aggregators > 0`).
    fn through_rochdf(fs: &SharedFs, aggregators: usize, onto: Onto) -> Outcomes {
        run_ranks(READERS, ClusterSpec::ideal(READERS), |comm| {
            let mut ws = windows_of(comm.rank(), READERS, onto);
            let mut io = Rochdf::new(fs, &comm, cfg(aggregators));
            let read = read_all(&mut io, &mut ws);
            (ws, read)
        })
    }

    /// The same through a one-server Rocpanda service (rank 0 serves).
    fn through_rocpanda(fs: &Arc<SharedFs>, onto: Onto) -> Outcomes {
        let svc = super::one_job(fs, &[0], READERS + 1);
        let out = run_ranks(READERS + 1, ClusterSpec::ideal(READERS + 1), |comm| {
            match svc.attach(&comm).unwrap() {
                ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
                ServiceRole::Server(mut s) => {
                    s.run().unwrap();
                    None
                }
                ServiceRole::Client { mut io, comm: app, .. } => {
                    let mut ws = windows_of(app.rank(), READERS, onto);
                    let read = read_all(&mut *io, &mut ws);
                    io.finalize().unwrap();
                    Some((ws, read))
                }
            }
        });
        out.into_iter().flatten().collect()
    }

    #[test]
    fn reserved_panes_restore_equal_to_generated_ones_through_every_reader() {
        let fs = Arc::new(SharedFs::ideal());
        let written = write_snapshot(&fs);
        assert!(written.len() > 2 * WINDOWS.len());
        let readers: [(&str, &dyn Fn(Onto) -> Outcomes); 3] = [
            ("rochdf individual", &|onto| through_rochdf(&fs, 0, onto)),
            ("rochdf two-phase", &|onto| through_rochdf(&fs, 2, onto)),
            ("rocpanda", &|onto| through_rocpanda(&fs, onto)),
        ];
        for (reader, restore) in readers {
            let restored = |onto| -> Vec<Windows> {
                restore(onto).into_iter().map(|(ws, read)| read.map(|()| ws).unwrap()).collect()
            };
            let (generated, reserved) = (restored(Onto::Generated), restored(Onto::Reserved));
            // Rank by rank the same windows — mesh, every buffer, and no
            // reservation left unspent ...
            assert_eq!(generated, reserved, "{reader}");
            // ... holding what was written, not what the generator makes.
            assert_eq!(panes(reserved), written, "{reader}");

            // A reserved pane the snapshot does not hold: the rank that wants
            // it is told which, and no other rank is disturbed.
            let mut outcomes = restore(Onto::ReservedWithGhost).into_iter();
            match outcomes.next().unwrap().1 {
                Err(RocError::NotFound(msg)) => assert!(msg.contains("999999"), "{reader}: {msg}"),
                other => panic!("{reader}: expected NotFound naming the pane, got {other:?}"),
            }
            for (rank, (_, read)) in outcomes.enumerate() {
                assert!(read.is_ok(), "{reader}: rank {}: {read:?}", rank + 1);
            }
        }
    }
}
