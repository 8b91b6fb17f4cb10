//! Distribution invariance: the coupled physics depends only on block
//! content, the global chamber reduction, and the deterministic adjacency
//! coupling — never on which rank owns a block. The same problem computed
//! on 1, 2, and 4 ranks must therefore produce **bit-identical** block
//! states, and snapshots written from any distribution must be
//! interchangeable (the property the paper's restart flexibility rests
//! on).

use std::collections::BTreeMap;

use genx_repro::core::Checksum;
use genx_repro::genx::rocman::Rocman;
use genx_repro::genx::setup::{assign, declare_windows, register_and_init};
use genx_repro::roccom::{convert, AttrRef, IoDispatch, Windows};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocstore::SharedFs;
use genx_repro::rochdf::{Rochdf, RochdfConfig};
use rocmesh::Workload;

/// Run the coupled simulation on `n` ranks and return every block's
/// content checksum, keyed by (window, id).
fn run_and_checksum(n: usize, steps: u64) -> BTreeMap<(String, u64), Checksum> {
    let fs = SharedFs::ideal();
    let workload = Workload::lab_scale_motor_scaled(13, 0.05);
    let per_rank = run_ranks(n, ClusterSpec::ideal(n), |comm| {
        let mine = assign(&workload, comm.size());
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        register_and_init(&mut ws, &workload, &mine[comm.rank()]).unwrap();
        let mut io = IoDispatch::new();
        io.load_module(Box::new(Rochdf::new(&fs, &comm, RochdfConfig::default())))
            .unwrap();
        let mut man = Rocman::new(&comm, ws, io).unwrap();
        // Same adjacency map on every configuration.
        for (up, down) in rocmesh::x_adjacency(&workload.fluid) {
            man.adjacency
                .insert(workload.fluid[down].id, workload.fluid[up].id);
        }
        for _ in 0..steps {
            man.step().unwrap();
        }
        let mut sums: Vec<((String, u64), Checksum)> = Vec::new();
        for window in man.window_names() {
            let w = man.windows.window(window).unwrap();
            for id in w.pane_ids() {
                let sum = convert::pane_checksum(w, w.pane(id).unwrap(), &AttrRef::All).unwrap();
                sums.push(((window.to_string(), id.0), sum));
            }
        }
        sums
    });
    per_rank.into_iter().flatten().collect()
}

#[test]
fn physics_is_bit_identical_across_rank_counts() {
    let one = run_and_checksum(1, 15);
    let two = run_and_checksum(2, 15);
    let four = run_and_checksum(4, 15);
    assert_eq!(one.len(), two.len());
    assert_eq!(one.len(), four.len());
    let mut mismatches = 0;
    for (key, sum) in &one {
        if two.get(key) != Some(sum) || four.get(key) != Some(sum) {
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches, 0,
        "{mismatches}/{} blocks differ across distributions",
        one.len()
    );
}

#[test]
fn snapshots_from_different_distributions_are_interchangeable() {
    // Write the same simulated state from 1-rank and 3-rank runs; the
    // snapshot *contents* (per block) must be identical even though the
    // file layouts differ.
    use genx_repro::core::SnapshotId;
    use genx_repro::roccom::{AttrSelector, IoService};
    use genx_repro::rocsdf::{LibraryModel, SdfFileReader};

    let workload = Workload::lab_scale_motor_scaled(13, 0.05);
    let collect = |fs: &SharedFs, dir: &str| -> BTreeMap<u64, Checksum> {
        let mut out = BTreeMap::new();
        for path in fs.list(&format!("{dir}/fluid_")) {
            let (r, t) = SdfFileReader::open(fs, &path, LibraryModel::hdf4(), 0, 0.0).unwrap();
            let (blocks, _) = r.read_all_blocks(t).unwrap();
            for b in blocks {
                out.insert(b.id.0, Checksum::of_block(&b));
            }
        }
        out
    };
    let run = |n: usize| -> BTreeMap<u64, Checksum> {
        let fs = SharedFs::ideal();
        let workload = workload.clone();
        run_ranks(n, ClusterSpec::ideal(n), |comm| {
            let mine = assign(&workload, comm.size());
            let mut ws = Windows::new();
            declare_windows(&mut ws).unwrap();
            register_and_init(&mut ws, &workload, &mine[comm.rank()]).unwrap();
            let mut io = Rochdf::new(
                &fs,
                &comm,
                RochdfConfig {
                    dir: "inv".into(),
                    ..Default::default()
                },
            );
            io.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(0, 0))
                .unwrap();
        });
        collect(&fs, "inv")
    };
    let from_one = run(1);
    let from_three = run(3);
    assert_eq!(from_one, from_three);
    assert!(!from_one.is_empty());
}

#[test]
fn snapshots_restore_identically_through_both_read_strategies() {
    // The flexibility property end to end: a snapshot written from a
    // 3-rank distribution restores bit-identically onto a 2-rank
    // distribution, whether each reader hunts its own blocks from the
    // files (individual path, sieved) or two aggregator ranks read whole
    // file domains and redistribute (two-phase collective).
    use genx_repro::core::SnapshotId;
    use genx_repro::roccom::{AttrSelector, IoService};
    use genx_repro::rocsdf::LibraryModel;

    let workload = Workload::lab_scale_motor_scaled(13, 0.05);
    let fs = SharedFs::ideal();
    let snap = SnapshotId::new(0, 0);
    run_ranks(3, ClusterSpec::ideal(3), |comm| {
        let mine = assign(&workload, comm.size());
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        register_and_init(&mut ws, &workload, &mine[comm.rank()]).unwrap();
        let mut io = Rochdf::new(
            &fs,
            &comm,
            RochdfConfig {
                dir: "inv2".into(),
                ..Default::default()
            },
        );
        io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
    });
    // Reference: every block as written, keyed by id.
    let reference: BTreeMap<u64, Checksum> = {
        use genx_repro::rocsdf::SdfFileReader;
        let mut out = BTreeMap::new();
        for path in fs.list("inv2/fluid_") {
            let (r, t) = SdfFileReader::open(&fs, &path, LibraryModel::hdf4(), 0, 0.0).unwrap();
            let (blocks, _) = r.read_all_blocks(t).unwrap();
            for b in blocks {
                out.insert(b.id.0, Checksum::of_block(&b));
            }
        }
        out
    };
    assert!(!reference.is_empty());
    let ids: Vec<u64> = reference.keys().copied().collect();

    // Restore onto 2 ranks via the two-phase collective.
    let cfg = RochdfConfig {
        dir: "inv2".into(),
        ..Default::default()
    };
    let prefix = cfg.prefix("fluid", snap);
    let two_phase: BTreeMap<u64, Checksum> = run_ranks(2, ClusterSpec::ideal(2), |comm| {
        let want: Vec<genx_repro::core::BlockId> = ids
            .iter()
            .filter(|id| (**id as usize) % 2 == comm.rank())
            .map(|&id| genx_repro::core::BlockId(id))
            .collect();
        let (blocks, _) = genx_repro::rochdf::read_partitioned(
            &fs,
            &comm,
            LibraryModel::hdf4(),
            &prefix,
            &want,
            2,
        )
        .unwrap();
        blocks
            .into_iter()
            .map(|b| (b.id.0, Checksum::of_block(&b)))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(two_phase, reference);
}
