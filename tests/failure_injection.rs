//! Failure injection: corrupted and missing snapshot files must surface
//! clean errors, never bad data or hangs on the error-free paths.

use std::sync::Arc;

use genx_repro::core::{snapshot_file_name, ArrayData, BlockId, DType, SnapshotId};
use genx_repro::roccom::{AttrSpec, IoService, PaneMesh, Windows};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocsdf::{LibraryModel, SdfFileReader};
use genx_repro::rocstore::SharedFs;
use genx_repro::rochdf::{Rochdf, RochdfConfig};

fn write_one_snapshot(fs: &SharedFs) -> SnapshotId {
    let snap = SnapshotId::new(10, 1);
    run_ranks(1, ClusterSpec::ideal(1), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        w.register_pane(
            BlockId(3),
            PaneMesh::Structured {
                dims: [2, 2, 2],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        w.pane_mut(BlockId(3))
            .unwrap()
            .set_data("p", ArrayData::F64(vec![7.0; 8]))
            .unwrap();
        let mut io = Rochdf::new(fs, &comm, RochdfConfig::default());
        io.write_attribute(&ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap)
            .unwrap();
    });
    snap
}

#[test]
fn corrupted_trailer_fails_open_cleanly() {
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs);
    let path = format!("out/{}", snapshot_file_name("fluid", snap, 0));
    // Flip bytes in the trailer (index offset + magic).
    let len = fs.file_size(&path).unwrap();
    fs.write_at(&path, len - 6, b"XXXX", 0, 0.0).unwrap();
    let err = SdfFileReader::open(&fs, &path, LibraryModel::hdf4(), 0, 0.0);
    assert!(err.is_err());
}

#[test]
fn corrupted_payload_fails_block_read() {
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs);
    let path = format!("out/{}", snapshot_file_name("fluid", snap, 0));
    // Smash the middle of the file (inside the records region) with a
    // pattern that cannot be a valid record marker.
    fs.write_at(&path, 40, &[0xAB; 12], 0, 0.0).unwrap();
    let opened = SdfFileReader::open(&fs, &path, LibraryModel::hdf4(), 0, 0.0);
    match opened {
        Err(_) => {} // index region shifted — fine
        Ok((r, t)) => {
            // The record CRC catches damage even when the structure still
            // parses: at least one block read must fail, and no read may
            // return silently-wrong bytes.
            let mut any_err = false;
            for id in r.block_ids() {
                if r.read_block_shared(id, t).is_err() {
                    any_err = true;
                }
            }
            assert!(any_err, "corruption must be detected by the CRC");
        }
    }
}

#[test]
fn restart_missing_block_is_reported() {
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs);
    run_ranks(1, ClusterSpec::ideal(1), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        // Ask for a block that was never written.
        w.register_pane(
            BlockId(99),
            PaneMesh::Structured {
                dims: [1, 1, 1],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
        let err = io.read_attribute(&mut ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap);
        assert!(matches!(err, Err(genx_repro::core::RocError::NotFound(_))));
    });
}

#[test]
fn schema_evolution_reads_old_snapshots() {
    // "The data management and I/O implementation need to shield
    // developers from updates" (§3.2): a snapshot written under an old
    // schema restarts into a window that has since gained an attribute —
    // the new attribute keeps its initial values.
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs); // schema v1: just "p"
    run_ranks(1, ClusterSpec::ideal(1), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        w.declare_attr(AttrSpec::element("q_new", DType::F64, 1)).unwrap(); // added in v2
        w.register_pane(
            BlockId(3),
            PaneMesh::Structured {
                dims: [2, 2, 2],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
        io.read_attribute(&mut ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap)
            .unwrap();
        let w = ws.window("fluid").unwrap();
        let pane = w.pane(BlockId(3)).unwrap();
        assert_eq!(pane.data("p").unwrap().as_f64().unwrap(), &[7.0; 8]);
        // The attribute unknown to the old file stays zero-initialized.
        assert_eq!(pane.data("q_new").unwrap().as_f64().unwrap(), &[0.0; 8]);
    });
}

// ---------------------------------------------------------------------
// Rocpanda path: a damaged snapshot must surface a clean error through
// the server→client restart protocol — never a hang. A file the server
// cannot open or list fails its scan, which it reports with READ_ERR and
// stays alive; a damaged record is shipped as it lies and refused by the
// client that owns it. Either way `finalize` (and the run itself) still
// completes on every rank.
// ---------------------------------------------------------------------

use genx_repro::rocnet::Comm;
use genx_repro::rocpanda::{PandaClient, PandaServiceBuilder, ServiceRole};

fn panda_windows(idx: usize, n_panes: usize) -> Windows {
    let mut ws = Windows::new();
    let w = ws.create_window("fluid").unwrap();
    w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
    for i in 0..n_panes {
        let id = BlockId((idx * 100 + i) as u64);
        w.register_pane(
            id,
            PaneMesh::Structured {
                dims: [3, 3, 3],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        w.pane_mut(id)
            .unwrap()
            .set_data("p", ArrayData::F64(vec![id.0 as f64; 27]))
            .unwrap();
    }
    ws
}

/// 2 clients + the given servers as one Rocpanda job over `fs`: servers
/// serve until shutdown, each client runs `client(io, app, world)`. Returns the
/// clients' results. The run itself must complete — servers keep serving
/// after a failed restart, so `finalize` is still collective and nobody
/// hangs.
fn panda_job<T: Send>(
    fs: &Arc<SharedFs>,
    servers: &[usize],
    client: impl Fn(&mut PandaClient<'_>, &Comm, &Comm) -> T + Send + Sync,
) -> Vec<T> {
    let total = 2 + servers.len();
    let svc = PandaServiceBuilder::new(Arc::clone(fs)).servers(servers).build().unwrap();
    svc.admit_world("job", total).unwrap();
    let out = run_ranks(total, ClusterSpec::ideal(total), |comm| {
        match svc.attach(&comm).unwrap() {
            ServiceRole::Server(mut s) => {
                s.run().unwrap();
                None
            }
            ServiceRole::Client { mut io, comm: app, .. } => Some(client(&mut io, &app, &comm)),
            ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
        }
    });
    out.into_iter().flatten().collect()
}

/// Write one snapshot through Rocpanda.
fn write_panda_snapshot(fs: &Arc<SharedFs>, servers: &[usize]) -> SnapshotId {
    let snap = SnapshotId::new(20, 2);
    panda_job(fs, servers, |c, app, _| {
        let ws = panda_windows(app.rank(), 2);
        c.write_attribute(&ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap)
            .unwrap();
        c.finalize().unwrap();
    });
    snap
}

/// Restart the same population. Returns one entry per client: empty if
/// `read_attribute` succeeded, the error text if it failed.
fn panda_restart(fs: &Arc<SharedFs>, servers: &[usize], snap: SnapshotId) -> Vec<String> {
    panda_job(fs, servers, |c, app, _| {
        let mut ws = panda_windows(app.rank(), 2);
        let res = c.read_attribute(&mut ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap);
        c.finalize().unwrap();
        res.err().map(|e| e.to_string()).unwrap_or_default()
    })
}

#[test]
fn panda_restart_truncated_file_errors_cleanly() {
    let fs = Arc::new(SharedFs::ideal());
    let snap = write_panda_snapshot(&fs, &[0]);
    let files = fs.list("out/");
    assert_eq!(files.len(), 1);
    // Chop the trailer (and then some) off the snapshot file.
    let (bytes, _) = fs.read_all_shared(&files[0], 0, 0.0).unwrap();
    fs.create(&files[0], 0, 0.0);
    fs.write_at(&files[0], 0, &bytes[..bytes.len() - 10], 0, 0.0).unwrap();
    let errs = panda_restart(&fs, &[0], snap);
    assert_eq!(errs.len(), 2);
    for e in errs {
        assert!(
            e.contains("restart failed at server"),
            "client must see a clean server error, got '{e}'"
        );
    }
}

#[test]
fn panda_restart_corrupted_checksum_errors_cleanly() {
    let fs = Arc::new(SharedFs::ideal());
    // Two servers, one file each; only one file is damaged, yet both
    // servers must pass the pre-scan flush round and every client must
    // still get every server's terminal message.
    let snap = write_panda_snapshot(&fs, &[0, 3]);
    let files = fs.list("out/");
    assert_eq!(files.len(), 2);
    // Smash 32 bytes inside the payload of block 101's `p` (27 values of
    // 101.0): the bytes touch that block alone, which client 1 owns.
    let run = 101.0f64.to_le_bytes().repeat(27);
    let (file, at) = (files.iter())
        .find_map(|f| {
            let (image, _) = fs.read_all_shared(f, 0, 0.0).unwrap();
            Some((f, image.windows(run.len()).position(|w| w == run)?))
        })
        .unwrap();
    fs.write_at(file, at + 64, &[0xAB; 32], 0, 0.0).unwrap();
    // The server ships the record as it lies; the client that owns it
    // refuses it, naming it, once it has taken every message of the
    // restart. The other client restores what it wrote.
    let verdicts = panda_job(&fs, &[0, 3], |c, app, world| {
        let mut ws = panda_windows(app.rank(), 2);
        for pane in ws.window_mut("fluid").unwrap().panes_mut() {
            pane.data_mut("p").unwrap().as_f64_mut().unwrap().fill(-7.0);
        }
        let res = c.read_attribute(&mut ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap);
        assert!(world.iprobe(None, None).is_none(), "undrained message on client {}", app.rank());
        c.finalize().unwrap();
        res.map(|()| ws == panda_windows(app.rank(), 2))
    });
    assert_eq!(verdicts.len(), 2);
    assert_eq!(verdicts[0], Ok(true), "the undamaged client restores what it wrote");
    let caught = |e: &genx_repro::core::RocError| {
        matches!(e, genx_repro::core::RocError::Corrupt(m) if m.contains("blk000101/p") && m.contains("checksum"))
    };
    assert!(verdicts[1].as_ref().is_err_and(caught), "{:?}", verdicts[1]);
}

#[test]
fn panda_restart_missing_files_errors_cleanly() {
    let fs = Arc::new(SharedFs::ideal());
    let snap = write_panda_snapshot(&fs, &[0]);
    for f in fs.list("out/") {
        fs.delete(&f).unwrap();
    }
    let errs = panda_restart(&fs, &[0], snap);
    assert_eq!(errs.len(), 2);
    for e in errs {
        assert!(e.contains("restart failed at server"), "got '{e}'");
    }
}

#[test]
fn disk_full_surfaces_as_storage_error() {
    use genx_repro::genx::{run_genx, GenxConfig, IoChoice, WorkloadKind};
    let fs = Arc::new(SharedFs::ideal());
    fs.set_quota(512 * 1024); // far less than one snapshot
    let mut cfg = GenxConfig::new(
        "disk-full",
        WorkloadKind::LabScale {
            seed: 1,
            scale: 0.05,
        },
        IoChoice::Rochdf,
    );
    cfg.steps = 2;
    cfg.snapshot_every = 2;
    // Single rank: the failure path has no collective partner to strand.
    let err = run_genx(ClusterSpec::ideal(1), &fs, &cfg);
    match err {
        Err(genx_repro::core::RocError::Storage(msg)) => {
            assert!(msg.contains("disk full"), "{msg}")
        }
        other => panic!("expected Storage(disk full), got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The dev profile is optimised (`[profile.dev] opt-level = 1`, so tier-1
// runs in seconds) and must still be the *checked* tier: integer overflow
// panics and `debug_assert!` fires under plain `cargo test`, which is why
// the hostile-bytes proptests run in this profile as well as `--release`
// (there overflow wraps, and a decoder has to be right without the net).
// The fixture is a decoder with the bug injected: it adds an offset and a
// length read from its input without checking.
// ---------------------------------------------------------------------

#[cfg(debug_assertions)]
#[test]
fn the_optimised_dev_profile_still_checks_overflow_and_debug_assertions() {
    use genx_repro::core::le;
    /// End of the extent a `[u64 offset][u64 len]` header names.
    fn extent_end(header: &[u8]) -> u64 {
        let offset = le::u64(&header[..8], "offset").unwrap();
        let len = le::u64(&header[8..], "len").unwrap();
        offset + len
    }
    let header = |offset: u64, len: u64| [offset.to_le_bytes(), len.to_le_bytes()].concat();
    assert_eq!(extent_end(&header(40, 2)), 42);
    let hostile = std::hint::black_box(header(u64::MAX, 2));
    let overflow = std::panic::catch_unwind(|| extent_end(&hostile));
    assert!(overflow.is_err(), "overflow-checks are off: the add wrapped to {overflow:?}");
    let asserted = std::panic::catch_unwind(|| debug_assert!(std::hint::black_box(false)));
    assert!(asserted.is_err(), "debug-assertions are off");
}
