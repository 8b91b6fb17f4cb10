//! Noncontiguous-read equivalence: every read strategy — per-range,
//! data-sieved, two-phase collective — must return byte-identical data
//! for the same request, on any stride pattern and any reader/writer
//! partition mismatch, with run-to-run deterministic virtual charges.
//! Strategies differ *only* in modelled time; where each one wins, and
//! that the cost model (DESIGN.md §14) picks the winner, is pinned by
//! `each_strategy_wins_its_regime_and_the_model_follows` — exact in
//! virtual time, so it gates every change rather than a recorded run.

use std::sync::Arc;

use genx_repro::core::{BlockId, DataBlock, Dataset, SimTime, SnapshotId};
use genx_repro::genx::{final_snapshot, run_genx, run_genx_restart, GenxConfig, IoChoice, WorkloadKind};
use genx_repro::rochdf::{read_partitioned, RochdfConfig};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocsdf::{LibraryModel, ReadCostModel, ReadStrategy, SdfFileReader, SdfFileWriter};
use genx_repro::rocstore::model::DiskModel;
use genx_repro::rocstore::{SharedFs, SievePlan};
use proptest::prelude::*;

/// `n_writers * blocks_per` one-dataset blocks of `cells` values each,
/// ids in writer order (writer `w` owns ids `w*blocks_per..`).
fn make_blocks(n_writers: usize, blocks_per: usize, cells: u64, salt: u64) -> Vec<DataBlock> {
    (0..(n_writers * blocks_per) as u64)
        .map(|id| {
            let vals: Vec<f64> = (0..cells).map(|i| (id * 977 + salt + i) as f64).collect();
            DataBlock::new(BlockId(id), "fluid")
                .with_dataset(Dataset::vector("p", vals).with_attr("units", "Pa"))
        })
        .collect()
}

/// A fresh Turing store holding `written` as one Rochdf snapshot file per
/// writer. Every timed read gets its own: the open-metadata and CRC
/// caches warm by design, so equal starting states are what make two
/// runs (or two strategies) comparable.
fn write_universe(cfg: &RochdfConfig, written: &[DataBlock], blocks_per: usize) -> SharedFs {
    let fs = SharedFs::turing();
    for (w, blocks) in written.chunks(blocks_per).enumerate() {
        let path = cfg.path("fluid", SnapshotId::new(0, 0), w);
        let (mut fw, mut t) = SdfFileWriter::create(&fs, &path, cfg.lib, w as u64, 0.0).unwrap();
        for block in blocks {
            t = fw.append_block(block, t).unwrap();
        }
        fw.finish(t).unwrap();
    }
    fs
}

/// `n_readers` ranks restore the blocks `reader_of` assigns them from a
/// fresh universe under one strategy. Per rank: its blocks sorted by id,
/// and its completion time.
fn collective_read(
    written: &[DataBlock],
    blocks_per: usize,
    n_readers: usize,
    n_agg: usize,
    reader_of: &(dyn Fn(u64) -> usize + Sync),
    strategy: ReadStrategy,
) -> Vec<(Vec<DataBlock>, SimTime)> {
    let cfg = RochdfConfig::default();
    let fs = write_universe(&cfg, written, blocks_per);
    let prefix = cfg.prefix("fluid", SnapshotId::new(0, 0));
    run_ranks(n_readers, ClusterSpec::turing(n_readers), |comm| {
        let mine: Vec<BlockId> = written
            .iter()
            .map(|b| b.id)
            .filter(|id| reader_of(id.0) == comm.rank())
            .collect();
        if strategy == ReadStrategy::TwoPhase {
            return read_partitioned(&fs, &comm, cfg.lib, &prefix, &mine, n_agg).unwrap();
        }
        // Individual path: every reader hunts its own blocks through
        // every file, all readers on the disk at once.
        fs.declare_readers(n_readers);
        let mut now = comm.now();
        let mut got = Vec::new();
        for path in fs.list(&prefix) {
            let (reader, t) =
                SdfFileReader::open(&fs, &path, cfg.lib, comm.global_rank() as u64, now).unwrap();
            now = t;
            let present: Vec<BlockId> =
                reader.block_ids().into_iter().filter(|id| mine.contains(id)).collect();
            if strategy == ReadStrategy::Sieve && !present.is_empty() {
                let (blocks, t) = reader.read_blocks_sieved(&present, now).unwrap();
                now = t;
                got.extend(blocks);
            } else {
                for id in present {
                    let (block, t) = reader.read_block_shared(id, now).unwrap();
                    now = t;
                    got.push(block);
                }
            }
        }
        got.sort_by_key(|b| b.id);
        (got, now)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// rocstore level: a sieved read returns exactly the bytes of the
    /// equivalent per-range read, range after range, whatever the ranges
    /// (including overlaps and duplicates), and both paths charge the
    /// same virtual time on every repetition.
    #[test]
    fn sieved_read_matches_per_range_on_random_ranges(
        file_len in 64usize..2048,
        raw in prop::collection::vec((0usize..2048, 0usize..96), 1..12),
        max_gap in 0usize..512,
    ) {
        let ranges: Vec<(usize, usize)> = raw
            .iter()
            .map(|&(o, l)| (o % file_len, l.min(file_len - o % file_len)))
            .collect();
        let run = || {
            let fs = SharedFs::turing();
            let data: Vec<u8> = (0..file_len).map(|i| (i * 31 % 251) as u8).collect();
            fs.create("f", 0, 0.0);
            fs.append("f", &data, 0, 0.0).unwrap();
            let (multi, t_multi) = fs.read_parts("f", &ranges, 0.0, None, 0, 1.0).unwrap();
            let (sieved, t_sieve) = fs.read_sieved("f", &ranges, 0.0, max_gap, 1, 1.0).unwrap();
            (multi, t_multi, sieved, t_sieve)
        };
        let (multi, t_multi, sieved, t_sieve) = run();
        prop_assert_eq!(sieved.len(), ranges.len());
        fn flat<B: AsRef<[u8]>>(pieces: &[B]) -> Vec<u8> {
            pieces.iter().flat_map(|p| p.as_ref().iter().copied()).collect()
        }
        prop_assert_eq!(flat(&multi), flat(&sieved));
        // A sieve plan never plans more disk ops than per-range issues.
        let plan = SievePlan::build(&ranges, max_gap);
        prop_assert!(plan.n_windows() <= ranges.len());
        // Charge-order determinism: identical virtual totals on a rerun.
        let (_, t_multi2, _, t_sieve2) = run();
        prop_assert_eq!(t_multi, t_multi2);
        prop_assert_eq!(t_sieve, t_sieve2);
    }

    /// rochdf level: the two-phase collective hands every rank exactly
    /// the blocks it asked for, byte-identical to what was written, on
    /// random writer/reader/aggregator partition mismatches — and its
    /// per-rank completion times are run-to-run deterministic.
    #[test]
    fn two_phase_matches_written_blocks_on_random_partitions(
        n_writers in 1usize..5,
        blocks_per in 1usize..4,
        n_readers in 1usize..5,
        n_agg in 1usize..5,
        salt in 0u64..1000,
    ) {
        let written = make_blocks(n_writers, blocks_per, 24, salt);
        // Shuffle-ish assignment: block id -> reader via a salted hash.
        let reader_of = |id: u64| ((id * 2654435761 + salt) % n_readers as u64) as usize;
        let two_phase = ReadStrategy::TwoPhase;
        let run = || collective_read(&written, blocks_per, n_readers, n_agg, &reader_of, two_phase);
        let first = run();
        for (rank, (blocks, _)) in first.iter().enumerate() {
            let mut expect: Vec<DataBlock> = written
                .iter()
                .filter(|b| reader_of(b.id.0) == rank)
                .cloned()
                .collect();
            expect.sort_by_key(|b| b.id);
            prop_assert_eq!(blocks, &expect, "rank {} of {}", rank, n_readers);
        }
        let again = run();
        for ((_, t1), (_, t2)) in first.iter().zip(again.iter()) {
            prop_assert_eq!(t1, t2);
        }
    }
}

/// End-to-end restart flexibility: a snapshot written by an N-rank run
/// restores bit-identically onto M≠N ranks, through the individual path
/// and through the two-phase collective alike.
#[test]
fn restart_onto_different_rank_count_is_bit_identical() {
    let fs = Arc::new(SharedFs::ideal());
    let mut cfg = GenxConfig::new(
        "mn-restart",
        WorkloadKind::LabScale { seed: 7, scale: 0.05 },
        IoChoice::Rochdf,
    );
    cfg.steps = 10;
    cfg.snapshot_every = 5;
    let report = run_genx(ClusterSpec::ideal(4), &fs, &cfg).unwrap();
    assert!(report.restart_ok);
    let snap = final_snapshot(&cfg);

    // Same rank count, individual path: the reference restoration.
    let same = run_genx_restart(ClusterSpec::ideal(4), &fs, &cfg, snap).unwrap();
    assert!(same.blocks_read > 0);
    assert!(same.restart_time > 0.0);

    // Fewer ranks via two-phase with 2 aggregators, and more ranks via a
    // single aggregator: the restored global state must not change.
    for (m, agg) in [(3usize, 2usize), (2, 1), (5, 3)] {
        let mut tp = cfg.clone();
        tp.rochdf.read_aggregators = agg;
        let r = run_genx_restart(ClusterSpec::ideal(m), &fs, &tp, snap).unwrap();
        assert_eq!(r.state_hash, same.state_hash, "{m} ranks / {agg} aggregators");
        assert_eq!(r.blocks_read, same.blocks_read);
        assert!(r.restart_time > 0.0);
    }

    // And M≠N through the *individual* path agrees too.
    let ind = run_genx_restart(ClusterSpec::ideal(3), &fs, &cfg, snap).unwrap();
    assert_eq!(ind.state_hash, same.state_hash);
}

/// The sieve planner's covering windows always cover every requested
/// byte and never read past the merged extent of the request.
#[test]
fn sieve_plan_covers_all_ranges() {
    let ranges = [(10usize, 20usize), (50, 5), (40, 8), (100, 0), (12, 30)];
    for max_gap in [0usize, 8, 64, usize::MAX] {
        let plan = SievePlan::build(&ranges, max_gap);
        for &(off, len) in &ranges {
            if len == 0 {
                continue;
            }
            assert!(
                plan.windows
                    .iter()
                    .any(|&(w_off, w_len)| w_off <= off && off + len <= w_off + w_len),
                "range ({off},{len}) uncovered at max_gap {max_gap}"
            );
        }
        assert!(plan.useful_bytes <= plan.total_bytes);
    }
}

/// Strided dataset reads agree with whole-dataset reads on the selected
/// elements, for a pattern that crosses both the sieve and per-range
/// regimes of the cost model.
#[test]
fn strided_read_agrees_with_full_read() {
    let fs = SharedFs::turing();
    let vals: Vec<f64> = (0..4096).map(|i| i as f64 * 0.25).collect();
    let block = DataBlock::new(BlockId(1), "fluid")
        .with_dataset(Dataset::new("grid", vec![64, 64], vals.clone()).unwrap());
    let (mut w, t) = SdfFileWriter::create(&fs, "s.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
    let t = w.append_block(&block, t).unwrap();
    w.finish(t).unwrap();
    let (r, t) = SdfFileReader::open(&fs, "s.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
    // A column slice (dense holes, sieve regime) and a sparse pick.
    for (start, count, blk, stride) in [(8usize, 64usize, 4usize, 64usize), (0, 4, 8, 1024)] {
        let (ds, _) = r
            .read_dataset_strided("blk000001/grid", start, count, blk, stride, t)
            .unwrap();
        let got = ds.data.to_typed();
        let mut expect = Vec::with_capacity(count * blk);
        for i in 0..count {
            let s = start + i * stride;
            expect.extend_from_slice(&vals[s..s + blk]);
        }
        assert_eq!(got.as_f64().unwrap(), &expect[..], "pattern ({start},{count},{blk},{stride})");
    }
}

/// One single-reader stride cell on the Turing NFS disk: `count` pieces of
/// `block` bytes every `stride` bytes of a 512 KiB extent, timed per-range
/// and sieved on equal fresh stores. Returns (per-range time, sieved
/// time, the strategy the cost model picks for the pattern).
fn stride_cell(count: usize, block: usize, stride: usize) -> (SimTime, SimTime, ReadStrategy) {
    let ranges: Vec<(usize, usize)> = (0..count).map(|i| (i * stride, block)).collect();
    let model = ReadCostModel::from_disk(&DiskModel::nfs_turing());
    let data: Vec<u8> = (0..512 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let fresh = || {
        let fs = SharedFs::turing();
        fs.create("extent", 0, 0.0);
        fs.append("extent", &data, 0, 0.0).unwrap();
        fs
    };
    let (w_per, t_per) = fresh().read_parts("extent", &ranges, 0.0, None, 1, 0.0).unwrap();
    let (w_sieve, t_sieve) =
        fresh().read_sieved("extent", &ranges, 0.0, model.max_gap(), 1, 0.0).unwrap();
    assert!(
        w_per.iter().map(|w| w.as_ref()).eq(w_sieve.iter().map(|w| w.as_ref())),
        "sieve returned different bytes than per-range"
    );
    (t_per, t_sieve, model.choose_local(&ranges).0)
}

/// The crossovers the cost model exists for, on the disk whose 0.4 ms
/// seek makes scattered reads expensive. The cells are the ones
/// EXPERIMENTS.md tabulates (*Noncontiguous-read crossover*); virtual
/// time is deterministic, so the margins are exact assertions:
///
/// * holes inside a 2 KiB stride are sieving's regime: one covering read
///   beats 256 seeks at least 2x although it transfers the holes too;
/// * shuffled ownership is two-phase's regime: a few aggregators reading
///   each file domain once beat every reader scanning every file, 2x;
/// * in every cell — falling hole density, a sparse control whose gaps
///   outgrow seek x bandwidth, a matched partition where redistribution
///   buys nothing — the strategy the model picks costs at most 20 % more
///   than the best one measured.
#[test]
fn each_strategy_wins_its_regime_and_the_model_follows() {
    // Single reader: 2 KiB row stride, piece width shrinking the holes
    // from 99 % to 50 %; then eight pieces 64 KiB apart.
    let dense = [16, 64, 256, 1024].map(|block| (256, block, 2048));
    for (count, block, stride) in dense.into_iter().chain([(8, 64, 65536)]) {
        let (t_per, t_sieve, choice) = stride_cell(count, block, stride);
        let t_auto = if choice == ReadStrategy::Sieve { t_sieve } else { t_per };
        assert!(
            t_auto <= 1.2 * t_per.min(t_sieve),
            "{block} B every {stride}: chose {choice:?}, per-range {t_per}, sieve {t_sieve}"
        );
        if stride == 2048 {
            assert!(t_per >= 2.0 * t_sieve, "{block} B: per-range {t_per}, sieve {t_sieve}");
        }
    }

    // Collective: 6 writers x 8 blocks of 32 KiB read back by 6 ranks
    // through 2 aggregators.
    let (n, blocks_per, n_agg) = (6usize, 8usize, 2usize);
    let written = make_blocks(n, blocks_per, 4096, 0);
    let shuffled = |id: u64| (id.wrapping_mul(2654435761) % n as u64) as usize;
    let matched = |id: u64| id as usize / blocks_per;
    let partitions: [(&str, &(dyn Fn(u64) -> usize + Sync)); 2] =
        [("shuffled", &shuffled), ("matched", &matched)];
    for (label, reader_of) in partitions {
        let run = |s| collective_read(&written, blocks_per, n, n_agg, reader_of, s);
        let slowest = |out: &[(_, SimTime)]| out.iter().map(|o| o.1).fold(0.0, f64::max);
        let per = run(ReadStrategy::PerRange);
        let sieve = run(ReadStrategy::Sieve);
        let two = run(ReadStrategy::TwoPhase);
        for other in [&sieve, &two] {
            assert!(
                per.iter().map(|o| &o.0).eq(other.iter().map(|o| &o.0)),
                "{label}: strategies restored different blocks"
            );
        }
        let (t_per, t_sieve, t_two) = (slowest(&per), slowest(&sieve), slowest(&two));

        // The model's choice, fed the written layout: block i occupies
        // (file size / blocks_per) bytes at global offset i times that.
        let cfg = RochdfConfig::default();
        let fs = write_universe(&cfg, &written, blocks_per);
        let f0 = cfg.path("fluid", SnapshotId::new(0, 0), 0);
        let enc = fs.file_size(&f0).unwrap() / blocks_per;
        let per_reader: Vec<Vec<(usize, usize)>> = (0..n)
            .map(|r| {
                let mine = written.iter().filter(|b| reader_of(b.id.0) == r);
                mine.map(|b| (b.id.0 as usize * enc, enc)).collect()
            })
            .collect();
        // The Turing network `ClusterSpec::turing` runs the ranks on.
        let model = ReadCostModel::from_disk(&DiskModel::nfs_turing())
            .with_net(15e-6, 100e6)
            .with_lookup(cfg.lib.lookup_cost(blocks_per * 2));
        let (choice, _) = model.choose_collective(&per_reader, enc * written.len(), n_agg);
        let t_auto = match choice {
            ReadStrategy::PerRange => t_per,
            ReadStrategy::Sieve => t_sieve,
            ReadStrategy::TwoPhase => t_two,
        };
        assert!(
            t_auto <= 1.2 * t_per.min(t_sieve).min(t_two),
            "{label}: chose {choice:?}, per-range {t_per}, sieve {t_sieve}, two-phase {t_two}"
        );
        if label == "shuffled" {
            assert!(t_per >= 2.0 * t_two, "shuffled: per-range {t_per}, two-phase {t_two}");
        }
    }
}
