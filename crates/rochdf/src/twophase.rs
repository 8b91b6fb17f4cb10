//! Two-phase collective restart reads.
//!
//! The individual restart path has every rank hunt down its own blocks;
//! when the reading partition does not match the written layout, each
//! reader's accesses interleave with every other reader's and the file is
//! effectively re-read once per rank. Two-phase collective I/O ("Optimizing
//! Noncontiguous Accesses in MPI-IO", Thakur, Gropp, Lusk) fixes the access
//! pattern instead: a few **I/O-aggregator** ranks each read one contiguous
//! file domain exactly once (phase one), then redistribute the raw record
//! bytes over the network to whichever rank asked for them (phase two).
//!
//! Phase two reuses the zero-copy wire path end to end: the aggregator
//! ships each block through the restart-block codec (`rocsdf::view`), as
//! a rope of a length header and its records' pieces of the file's
//! extents, as the writer appended them ([`SdfFileReader::read_blocks_raw`]),
//! and the receiver takes the message as the rope it travelled as, so the
//! datasets it decodes are windows of those same extents — the records
//! are self-describing, so no re-encode and no copy happens on either
//! side.
//!
//! Each record's `__crc32__` is checked once per file generation, by the
//! first reader. Before it ships a block, the aggregator asks its reader
//! whether every record of it is verified in this generation
//! ([`SdfFileReader::verify_raw`], which checks and flags the records not
//! yet flagged). A block so verified ships under `TAG_TP_VERIFIED`, and
//! its receiver walks the headers and checks that each record carries a
//! `__crc32__` but skips the payload pass; any other block ships under
//! `TAG_TP_BLOCK` and is checked where it is applied. The aggregator's
//! own blocks take the same answer. This is sound because a shipped
//! record is a refcount window of the generation's extents, which the
//! store freezes; no fault the fabric injects alters bytes (it delivers,
//! drops, duplicates or reorders a message); and a generation's flags die
//! with it, since any write to the path starts a new one. So a check of a
//! flagged record could only pass. A message forged under
//! `TAG_TP_BLOCK` is still checked. The check is host work: the tag
//! costs nothing in virtual time, and the message is the same bytes.
//!
//! Everything is deterministic: wanted-id lists travel through an
//! `allgather` (collective, virtual-ordered), files are assigned to
//! aggregators round-robin over the sorted listing, and receivers drain
//! messages in the fabric's virtual order, waiting on the aggregators
//! alone (`Comm::recv_least_of`), each closed at its completion notice.
//! Restarting onto a *different* rank count than the snapshot was written
//! with needs no special casing — the wanted lists describe the new
//! partition and the aggregators route accordingly.

use std::collections::HashSet;

use rocio_core::{BlockDesc, BlockId, Cursor, DataBlock, Result, RocError, Rope, SimTime};
use rocnet::Comm;
use rocsdf::{BlockView, Fetch, LibraryModel, SdfFileReader};
use rocstore::SharedFs;

use crate::config::RochdfConfig;
use roccom::{AttrSelector, Windows};

/// Tag of one redistributed block (header + raw record segments) whose
/// receiver checks every record's `__crc32__`.
pub(crate) const TAG_TP_BLOCK: u32 = 0x0070_0001;
/// Tag of an aggregator's per-receiver completion notice (message count).
pub(crate) const TAG_TP_DONE: u32 = 0x0070_0002;
/// Tag of the completion notice of an aggregator whose phase one failed:
/// the message count, then the error text. Never sent on a clean restart.
pub(crate) const TAG_TP_FAILED: u32 = 0x0070_0003;
/// Tag of a redistributed block every record of which is verified in its
/// file generation ([`SdfFileReader::verify_raw`]): the receiver walks its
/// headers and skips the payload CRC pass.
pub(crate) const TAG_TP_VERIFIED: u32 = 0x0070_0004;

/// Collective partitioned read: every rank of `comm` calls this with its
/// own `wanted` block ids; the first `n_aggregators` ranks read the
/// snapshot files under `prefix` (round-robin, one contiguous domain read
/// per file) and redistribute, and every rank returns with exactly the
/// blocks it asked for, sorted by id — the blocks a restart applies where
/// they lie (`read_views`), built.
pub fn read_partitioned(
    fs: &SharedFs,
    comm: &Comm,
    lib: LibraryModel,
    prefix: &str,
    wanted: &[BlockId],
    n_aggregators: usize,
) -> Result<(Vec<DataBlock>, SimTime)> {
    let (views, t) = read_views(fs, comm, lib, prefix, wanted, n_aggregators)?;
    Ok((views.iter().map(BlockView::to_block).collect::<Result<_>>()?, t))
}

/// [`read_partitioned`] as the blocks read where they lie: a receiver's
/// records are windows of the message they arrived in, an aggregator's
/// own of its file domain. Errors if a wanted block exists in no file or
/// arrives twice (a stale copy under the same prefix must not be restored
/// in its place), and on **every** rank if an aggregator's read failed (the
/// aggregator keeps its own error, the others name its rank) — always
/// after the drain, so no rank is left waiting.
pub(crate) fn read_views(
    fs: &SharedFs,
    comm: &Comm,
    lib: LibraryModel,
    prefix: &str,
    wanted: &[BlockId],
    n_aggregators: usize,
) -> Result<(Vec<BlockView>, SimTime)> {
    let size = comm.size();
    let rank = comm.rank();
    let n_agg = n_aggregators.clamp(1, size);

    // Phase zero: everyone tells who wants what (collective — every rank
    // participates even with an empty wanted list); only an aggregator
    // routes, so only an aggregator builds the routing table.
    let mut enc = Vec::with_capacity(wanted.len() * 8);
    for id in wanted {
        enc.extend_from_slice(&id.0.to_le_bytes());
    }
    let all = comm.allgather(&enc)?;

    // Every rank checks the listing so a missing snapshot fails the whole
    // collective instead of stranding non-aggregators in their drain.
    let files = fs.names(prefix);
    if files.is_empty() {
        return Err(RocError::Storage(format!(
            "restart: no snapshot files under '{prefix}'"
        )));
    }

    let mut got: Vec<BlockView> = Vec::new();
    let mut received: u64 = 0;
    let mut expected: u64 = 0;
    // The first failure this rank met or was told of. It is returned only
    // after the drain, so a failed restart still leaves the fabric empty.
    let mut failure: Option<RocError> = None;

    if rank < n_agg {
        // (block, requester), sorted: the requesters of a block are one run.
        let mut want_of: Vec<(BlockId, usize)> =
            Vec::with_capacity(all.iter().map(|bytes| bytes.len() / 8).sum());
        for (r, bytes) in all.iter().enumerate() {
            let mut ids = Cursor::from(&bytes[..]);
            while ids.remaining() >= 8 {
                want_of.push((BlockId(ids.u64("two-phase wanted id")?), r));
            }
        }
        want_of.sort_unstable();
        let wanters = |id: BlockId| {
            let from = want_of.partition_point(|&(w, _)| w < id);
            want_of[from..].iter().take_while(move |&&(w, _)| w == id).map(|&(_, r)| r)
        };
        // Phase one: read owned file domains; phase two: route each block
        // to its requesters (sends are eager, so no receive interleaving
        // is needed for progress).
        fs.declare_readers(n_agg);
        let client = comm.global_rank() as u64;
        let mut sent = vec![0u64; size];
        let mut aggregate = || -> Result<()> {
            let mut now = comm.now();
            for (i, path) in files.iter().enumerate() {
                if i % n_agg != rank {
                    continue;
                }
                let (reader, t_open) = SdfFileReader::open(fs, path, lib, client, now)?;
                now = t_open;
                let present: Vec<BlockId> =
                    reader.blocks().filter(|&id| wanters(id).next().is_some()).collect();
                if present.is_empty() {
                    continue;
                }
                let (raw, t) = reader.read_blocks_raw(&present, Fetch::Domain, now)?;
                now = t;
                comm.advance_to(now);
                let mut batch = Cursor::new(&raw);
                for &id in &present {
                    let lens = reader.record_lens(id)?;
                    let records = batch.sub(lens.clone().sum(), "two-phase file domain")?;
                    let verified = reader.verify_raw(id, &records);
                    let tag = if verified { TAG_TP_VERIFIED } else { TAG_TP_BLOCK };
                    for dst in wanters(id) {
                        let (lens, mut records) = (lens.clone(), records.clone());
                        if dst == rank {
                            let view = BlockView::from_records(id, lens.map(Ok), &mut records, !verified)?;
                            got.push(view);
                        } else {
                            let mut msg = Rope::new();
                            BlockView::ship(id, lens, &mut records, &mut msg)?;
                            comm.send_rope(dst, tag, msg)?;
                            sent[dst] += 1;
                        }
                    }
                }
            }
            comm.advance_to(now);
            Ok(())
        };
        // A failed aggregator still owes every rank its completion notice
        // (with the count of blocks already on their way), or they would
        // wait in the drain for ever.
        failure = aggregate().err();
        for (dst, &n) in sent.iter().enumerate() {
            if dst == rank {
                continue;
            }
            match &failure {
                None => comm.send(dst, TAG_TP_DONE, &n.to_le_bytes())?,
                Some(e) => {
                    let notice = [&n.to_le_bytes()[..], e.to_string().as_bytes()].concat();
                    comm.send(dst, TAG_TP_FAILED, &notice)?
                }
            }
        }
    }

    // Drain: every other aggregator's blocks and then its completion
    // notice, its last message here. The senders are known, so the drain
    // waits on them alone (`recv_least_of`), in the order a wildcard
    // drain would take, and an aggregator is closed at its notice.
    let mut open = Vec::with_capacity(n_agg);
    open.extend((0..n_agg).filter(|&a| a != rank));
    while !open.is_empty() {
        let msg = comm.recv_least_of(&open, None)?;
        match msg.tag {
            TAG_TP_DONE | TAG_TP_FAILED => {
                let notice = msg.payload.into_bytes();
                let (n, why) = notice
                    .split_first_chunk::<8>()
                    .filter(|(_, why)| why.is_empty() || msg.tag == TAG_TP_FAILED)
                    .ok_or_else(|| RocError::Comm("two-phase: malformed done notice".into()))?;
                open.retain(|&a| a != msg.src);
                expected += u64::from_le_bytes(*n);
                if msg.tag == TAG_TP_FAILED {
                    failure.get_or_insert_with(|| {
                        RocError::Storage(format!(
                            "two-phase restart: aggregator rank {} failed: {}",
                            msg.src,
                            String::from_utf8_lossy(why)
                        ))
                    });
                }
            }
            TAG_TP_BLOCK | TAG_TP_VERIFIED => {
                received += 1;
                match BlockView::receive(&msg.payload, msg.tag == TAG_TP_BLOCK) {
                    Ok(block) => got.push(block),
                    Err(e) => failure = failure.or(Some(e)),
                }
            }
            other => {
                return Err(RocError::Comm(format!(
                    "two-phase: unexpected tag {other:#x} during drain"
                )));
            }
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    if received != expected {
        return Err(RocError::Comm(format!(
            "two-phase: {expected} blocks promised, {received} arrived"
        )));
    }
    got.sort_by_key(|b| b.id());
    if let Some(twice) = got.windows(2).find(|pair| pair[0].id() == pair[1].id()) {
        return Err(RocError::Corrupt(format!(
            "two-phase restart: block {} delivered twice under '{prefix}'",
            twice[0].id()
        )));
    }

    let have: HashSet<BlockId> = got.iter().map(|b| b.id()).collect();
    let mut missing: Vec<u64> =
        wanted.iter().filter(|id| !have.contains(id)).map(|id| id.0).collect();
    if !missing.is_empty() {
        missing.sort_unstable();
        return Err(RocError::NotFound(format!(
            "two-phase restart: blocks {missing:?} not found under '{prefix}'"
        )));
    }
    Ok((got, comm.now()))
}

/// Two-phase variant of the restart read: collective over `comm`, applying
/// the redistributed blocks to the selector's window. Returns this rank's
/// virtual completion time.
pub(crate) fn read_attribute_two_phase(
    fs: &SharedFs,
    comm: &Comm,
    cfg: &RochdfConfig,
    windows: &mut Windows,
    sel: &AttrSelector,
    snap: rocio_core::SnapshotId,
) -> Result<SimTime> {
    let wanted: Vec<BlockId> = windows.window(&sel.window)?.pane_ids();
    let prefix = cfg.prefix(&sel.window, snap);
    let (blocks, t) = read_views(fs, comm, cfg.lib, &prefix, &wanted, cfg.read_aggregators)?;
    for block in &blocks {
        roccom::convert::apply_block(windows.window_mut(&sel.window)?, block)?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rocio_core::{DType, Dataset, SnapshotId};
    use rocnet::cluster::ClusterSpec;
    use rocnet::run_ranks;
    use crate::rochdf::write_snapshot_file;

    fn write_snapshot(fs: &SharedFs, n_writers: usize, blocks_per: usize) -> Vec<DataBlock> {
        let cfg = RochdfConfig::default();
        let snap = SnapshotId::new(0, 0);
        let mut all = Vec::new();
        for w in 0..n_writers {
            let path = cfg.path("fluid", snap, w);
            let blocks: Vec<DataBlock> = (0..blocks_per)
                .map(|b| {
                    let id = BlockId((w * blocks_per + b) as u64);
                    DataBlock::new(id, "fluid").with_dataset(
                        Dataset::vector("pressure", vec![id.0 as f64 + 0.5; 32])
                            .with_attr("units", "Pa"),
                    )
                })
                .collect();
            write_snapshot_file(fs, &path, cfg.lib, w as u64, &blocks, 0.0).unwrap();
            all.extend(blocks);
        }
        all
    }

    #[test]
    fn partitioned_read_redistributes_onto_fewer_ranks() {
        // Written by 6 writers, read back by 3 ranks with a shuffled
        // partition (round-robin by id, nothing like the written layout).
        let fs = SharedFs::turing();
        let all = write_snapshot(&fs, 6, 4);
        let cfg = RochdfConfig::default();
        let prefix = cfg.prefix("fluid", SnapshotId::new(0, 0));
        let want: Vec<Vec<BlockId>> = (0..3)
            .map(|r| all.iter().map(|b| b.id).filter(|id| id.0 as usize % 3 == r).collect())
            .collect();
        let blocks = {
            run_ranks(3, ClusterSpec::turing(3), |comm| {
                let (blocks, t) = read_partitioned(
                    &fs,
                    &comm,
                    LibraryModel::hdf4(),
                    &prefix,
                    &want[comm.rank()],
                    2,
                )
                .unwrap();
                assert!(t > 0.0);
                blocks
            })
        };
        for (r, got) in blocks.iter().enumerate() {
            let mut expect: Vec<DataBlock> = all
                .iter()
                .filter(|b| b.id.0 as usize % 3 == r)
                .cloned()
                .collect();
            expect.sort_by_key(|b| b.id);
            assert_eq!(got, &expect, "rank {r}");
        }
    }

    #[test]
    fn a_receivers_payload_is_a_window_of_the_extent_the_writer_appended() {
        // Rank 0 aggregates both files and wants nothing; rank 1 wants
        // every block. What rank 1 ends up holding must be the store's own
        // extents — the pieces `read_blocks_raw` cut for rank 0 — not a
        // copy made on the way over.
        let fs = SharedFs::ideal();
        let all = write_snapshot(&fs, 2, 2);
        let cfg = RochdfConfig::default();
        let snap = SnapshotId::new(0, 0);
        let prefix = cfg.prefix("fluid", snap);
        let ids: Vec<BlockId> = all.iter().map(|b| b.id).collect();
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let want = if comm.rank() == 1 { &ids[..] } else { &[] };
            read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, want, 1).unwrap().0
        });
        assert_eq!(out[1], all);
        let extents: Vec<Bytes> = (0..2)
            .flat_map(|w| fs.image(&cfg.path("fluid", snap, w)).unwrap().parts().to_vec())
            .collect();
        for ds in out[1].iter().flat_map(|b| &b.datasets) {
            let (at, len) = (ds.data.bytes().as_ptr() as usize, ds.data.byte_len());
            let within = |extent: &Bytes| {
                let base = extent.as_ptr() as usize;
                base <= at && at + len <= base + extent.len()
            };
            assert!(extents.iter().any(within), "'{}' was copied on the way", ds.name);
        }
    }

    #[test]
    fn single_rank_single_aggregator_reads_locally() {
        let fs = SharedFs::ideal();
        let all = write_snapshot(&fs, 2, 3);
        let cfg = RochdfConfig::default();
        let prefix = cfg.prefix("fluid", SnapshotId::new(0, 0));
        let ids: Vec<BlockId> = all.iter().map(|b| b.id).collect();
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, &ids, 8).unwrap().0
        });
        assert_eq!(out[0].len(), all.len());
    }

    #[test]
    fn missing_block_errors_on_the_wanting_rank_only() {
        let fs = SharedFs::ideal();
        write_snapshot(&fs, 2, 2);
        let cfg = RochdfConfig::default();
        let prefix = cfg.prefix("fluid", SnapshotId::new(0, 0));
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let want = if comm.rank() == 0 {
                vec![BlockId(0), BlockId(999)]
            } else {
                vec![BlockId(1)]
            };
            read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, &want, 2).is_err()
        });
        assert!(out[0], "rank 0 wanted a ghost block");
        assert!(!out[1], "rank 1's read must succeed");
    }

    #[test]
    fn missing_snapshot_fails_every_rank_without_hanging() {
        let fs = SharedFs::ideal();
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            read_partitioned(
                &fs,
                &comm,
                LibraryModel::hdf4(),
                "out/nothing_here",
                &[BlockId(comm.rank() as u64)],
                2,
            )
            .is_err()
        });
        assert!(out.iter().all(|&e| e));
    }

    /// Flip one payload byte of block `id` (its `pressure` values are all
    /// `id + 0.5`) in the file writer `w` wrote.
    fn corrupt_block_on_disk(fs: &SharedFs, w: usize, id: u64) {
        let path = RochdfConfig::default().path("fluid", SnapshotId::new(0, 0), w);
        let (image, _) = fs.read_all_shared(&path, 0, 0.0).unwrap();
        let needle = (id as f64 + 0.5).to_le_bytes();
        let at = image.windows(8).position(|w| w == needle).unwrap();
        fs.write_at(&path, at, &[image[at] ^ 0x01], 0, 0.0).unwrap();
    }

    #[test]
    fn aggregator_read_failure_fails_every_rank_without_hanging() {
        // Rank 0 aggregates file 0 and wants block 0 from it: its own
        // decode meets the flipped byte. It must still tell ranks 1-3 it
        // is done, and all four must come back with an error.
        let fs = SharedFs::ideal();
        write_snapshot(&fs, 4, 2);
        corrupt_block_on_disk(&fs, 0, 0);
        let prefix = RochdfConfig::default().prefix("fluid", SnapshotId::new(0, 0));
        let errs = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let r = comm.rank() as u64;
            let want = [BlockId(2 * r), BlockId(2 * r + 1)];
            read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, &want, 2).unwrap_err()
        });
        assert!(matches!(&errs[0], RocError::Corrupt(m) if m.contains("checksum")), "{:?}", errs[0]);
        for e in &errs[1..] {
            assert!(
                matches!(e, RocError::Storage(m) if m.contains("aggregator rank 0") && m.contains("checksum")),
                "{e:?}"
            );
        }
    }

    #[test]
    fn receiver_decode_failure_is_local_and_reported_after_the_drain() {
        // Block 7 sits in file 3 (aggregator 1 ships it raw, unchecked) and
        // only rank 3 wants it: rank 3 alone fails, with the decoder's own
        // error, and still takes delivery of everything it was promised.
        let fs = SharedFs::ideal();
        write_snapshot(&fs, 4, 2);
        corrupt_block_on_disk(&fs, 3, 7);
        let prefix = RochdfConfig::default().prefix("fluid", SnapshotId::new(0, 0));
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let r = comm.rank() as u64;
            let want = [BlockId(2 * r), BlockId(2 * r + 1)];
            let got = read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, &want, 2);
            assert!(comm.iprobe(None, None).is_none(), "undrained message on rank {r}");
            got.map(|(blocks, _)| blocks.len())
        });
        assert_eq!(out[..3], [Ok(2), Ok(2), Ok(2)]);
        assert!(matches!(&out[3], Err(RocError::Corrupt(m)) if m.contains("checksum")), "{:?}", out[3]);
    }

    /// A two-phase read checks each record's CRC once per file generation:
    /// the aggregator's first read flags every record it checked, and a
    /// block whose records are all flagged ships under the verified tag,
    /// on the first read and every later one. A rewrite starts a
    /// generation with no flags, and a corrupt block ships under the
    /// checked tag on every read, so its receiver finds the flip.
    #[test]
    fn a_verified_generation_ships_under_the_verified_tag_and_a_corrupt_block_never_does() {
        let fs = SharedFs::ideal();
        let all = write_snapshot(&fs, 2, 2);
        let prefix = RochdfConfig::default().prefix("fluid", SnapshotId::new(0, 0));
        let ids: Vec<BlockId> = all.iter().map(|b| b.id).collect();
        // (block, tag) of each block rank 0, the one aggregator, sends rank
        // 1, a hand-rolled receiver that wants every block.
        let shipped = || {
            let mut out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
                let mut tags = Vec::new();
                if comm.rank() == 0 {
                    read_views(&fs, &comm, LibraryModel::hdf4(), &prefix, &[], 1).unwrap();
                    return tags;
                }
                let wanted: Vec<u8> = ids.iter().flat_map(|id| id.0.to_le_bytes()).collect();
                comm.allgather(&wanted).unwrap();
                loop {
                    let msg = comm.recv_rope(Some(0), None).unwrap();
                    if msg.tag == TAG_TP_DONE {
                        tags.sort_unstable();
                        return tags;
                    }
                    tags.push((msg.payload.cursor().u64("block id").unwrap(), msg.tag));
                }
            });
            out.swap_remove(1)
        };
        // Whether every record under the prefix is flagged in its file's
        // present generation: a flagged record is not checked again, so
        // zeros in its place pass.
        let flagged = || {
            fs.names(&prefix).iter().all(|path| {
                let (r, _) = SdfFileReader::open(&fs, path, LibraryModel::hdf4(), 9, 0.0).unwrap();
                r.block_ids().into_iter().all(|id| {
                    let zeros = Bytes::from(vec![0u8; r.record_lens(id).unwrap().sum()]);
                    r.verify_raw(id, &Cursor::from(&zeros))
                })
            })
        };
        let tagged = |tag_of: &dyn Fn(u64) -> u32| -> Vec<(u64, u32)> {
            ids.iter().map(|id| (id.0, tag_of(id.0))).collect()
        };
        assert!(!flagged(), "nothing is read yet");
        for read in ["first", "second"] {
            assert_eq!(shipped(), tagged(&|_| TAG_TP_VERIFIED), "{read} read");
            assert!(flagged(), "{read} read");
        }
        // Block 3 lies in writer 1's file: a flip there is a new
        // generation, its records unflagged until a read checks them.
        corrupt_block_on_disk(&fs, 1, 3);
        assert!(!flagged(), "the rewrite keeps a stale flag");
        for read in ["first", "second"] {
            let want = tagged(&|id| if id == 3 { TAG_TP_BLOCK } else { TAG_TP_VERIFIED });
            assert_eq!(shipped(), want, "{read} read after the flip");
        }
    }

    /// A block a stale file under the snapshot's prefix holds too arrives
    /// twice — here both copies on rank 0's own file domain. The rank that
    /// wants it refuses the restart instead of restoring whichever copy
    /// came last (a receiver that kept every copy applied both);
    /// the other rank restores, and nobody is left waiting.
    #[test]
    fn a_block_in_two_files_is_refused_where_it_is_wanted() {
        let fs = SharedFs::ideal();
        write_snapshot(&fs, 2, 2);
        let cfg = RochdfConfig::default();
        let snap = SnapshotId::new(0, 0);
        let stale = DataBlock::new(BlockId(1), "fluid").with_dataset(
            Dataset::vector("pressure", vec![-1.0f64; 32]).with_attr("units", "Pa"),
        );
        let path = cfg.path("fluid", snap, 2);
        write_snapshot_file(&fs, &path, cfg.lib, 2, &[stale], 0.0).unwrap();
        let prefix = cfg.prefix("fluid", snap);
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let r = comm.rank() as u64;
            let want = [BlockId(2 * r), BlockId(2 * r + 1)];
            let got = read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, &want, 2);
            assert!(comm.iprobe(None, None).is_none(), "undrained message on rank {r}");
            got.map(|(blocks, _)| blocks.len())
        });
        assert!(
            matches!(&out[0], Err(RocError::Corrupt(m)) if m.contains("blk000001 delivered twice")),
            "{:?}",
            out[0]
        );
        assert_eq!(out[1], Ok(2));
    }

    /// A record whose payload straddles extents — split by `write_at`, as
    /// a byte patched into a file splits it — reads byte-identically
    /// through every read path, and a byte flipped in either piece comes
    /// back `Corrupt` from each.
    #[test]
    fn a_record_that_straddles_extents_reads_whole_and_a_flip_in_either_piece_is_caught() {
        let values: Vec<f64> = (0..64).map(|i| i as f64 + 0.5).collect();
        let block = DataBlock::new(BlockId(3), "fluid")
            .with_dataset(Dataset::vector("p", values).with_attr("units", "Pa"));
        // The block read by the per-range, sieved, aggregator-local and
        // receiver paths, each through an open of its own.
        let reads = |fs: &SharedFs| -> Vec<Result<DataBlock>> {
            let open = |client| {
                SdfFileReader::open(fs, "s.sdf", LibraryModel::Raw, client, 0.0).unwrap()
            };
            let ids = [block.id];
            let (r, t) = open(0);
            let per_range = r.view_block(block.id, t).and_then(|(v, _)| v.to_block());
            let (r, t) = open(1);
            let sieved = r.view_blocks_sieved(&ids, t).and_then(|(v, _)| v[0].to_block());
            let (r, t) = open(2);
            let (raw, _) = r.read_blocks_raw(&ids, Fetch::Domain, t).unwrap();
            let (lens, records) = (r.record_lens(block.id).unwrap(), Cursor::new(&raw));
            let local = BlockView::from_records(block.id, lens.clone().map(Ok), &mut records.clone(), true);
            let local = local.and_then(|v| v.to_block());
            let mut message = Rope::new();
            BlockView::ship(block.id, lens, &mut records.clone(), &mut message).unwrap();
            let received = BlockView::receive(&message, true).and_then(|v| v.to_block());
            vec![per_range, sieved, local, received]
        };
        // The payload's middle value, split out of its extent.
        let split = || {
            let fs = SharedFs::turing();
            let blocks = std::slice::from_ref(&block);
            write_snapshot_file(&fs, "s.sdf", LibraryModel::Raw, 0, blocks, 0.0).unwrap();
            let (image, _) = fs.read_all_shared("s.sdf", 0, 0.0).unwrap();
            let at = image.windows(8).position(|w| w == 32.5f64.to_le_bytes()).unwrap();
            let extents = fs.image("s.sdf").unwrap().parts().len();
            fs.write_at("s.sdf", at, &image[at..at + 1], 0, 0.0).unwrap();
            let split = fs.image("s.sdf").unwrap().parts().len();
            assert_eq!(split, extents + 2, "the payload's extent is split");
            (fs, image, at)
        };
        let (fs, image, _) = split();
        assert_eq!(fs.read_all_shared("s.sdf", 0, 0.0).unwrap().0, image);
        for got in reads(&fs) {
            assert_eq!(got.unwrap(), block);
        }
        for piece in [-8, 8] {
            let (fs, image, at) = split();
            let flip = at.checked_add_signed(piece).unwrap();
            fs.write_at("s.sdf", flip, &[image[flip] ^ 0x01], 0, 0.0).unwrap();
            for got in reads(&fs) {
                let caught = matches!(&got, Err(RocError::Corrupt(m)) if m.contains("checksum"));
                assert!(caught, "{piece}: {got:?}");
            }
        }
    }

    #[test]
    fn attribute_read_via_two_phase_restores_windows() {
        use roccom::{AttrSpec, PaneMesh};
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(0, 0);
        // Write with 4 ranks through the normal writer.
        run_ranks(4, ClusterSpec::ideal(4), {
            |comm| {
                let mut ws = Windows::new();
                let w = ws.create_window("fluid").unwrap();
                w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
                for i in 0..2usize {
                    let id = BlockId((comm.rank() * 100 + i) as u64);
                    w.register_pane(
                        id,
                        PaneMesh::Structured {
                            dims: [2 + i, 2, 2],
                            origin: [i as f64, 0.0, 0.0],
                            spacing: [0.5; 3],
                        },
                    )
                    .unwrap();
                    let n = w.pane(id).unwrap().data("pressure").unwrap().len();
                    w.pane_mut(id)
                        .unwrap()
                        .set_data("pressure", rocio_core::ArrayData::F64(vec![3.0 + id.0 as f64; n]))
                        .unwrap();
                }
                let mut io = crate::Rochdf::new(&fs, &comm, RochdfConfig::default());
                use roccom::IoService;
                io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            }
        });
        // Restart with 2 ranks via the two-phase path.
        let ok = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let mut ws = Windows::new();
            let w = ws.create_window("fluid").unwrap();
            w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
            for old in [comm.rank() * 2, comm.rank() * 2 + 1] {
                for i in 0..2usize {
                    let id = BlockId((old * 100 + i) as u64);
                    w.register_pane(
                        id,
                        PaneMesh::Structured {
                            dims: [2 + i, 2, 2],
                            origin: [i as f64, 0.0, 0.0],
                            spacing: [0.5; 3],
                        },
                    )
                    .unwrap();
                }
            }
            let cfg = RochdfConfig { read_aggregators: 2, ..Default::default() };
            read_attribute_two_phase(
                &fs,
                &comm,
                &cfg,
                &mut ws,
                &AttrSelector::all("fluid"),
                snap,
            )
            .unwrap();
            let w = ws.window("fluid").unwrap();
            let restored = w.panes().all(|p| {
                let v = p.data("pressure").unwrap().as_f64().unwrap();
                v.iter().all(|&x| x == 3.0 + p.id.0 as f64)
            });
            restored
        });
        assert!(ok.iter().all(|&b| b));
    }
}
