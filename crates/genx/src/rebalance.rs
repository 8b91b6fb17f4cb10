//! Dynamic load balancing: pane migration between compute ranks.
//!
//! The paper credits Charm++-style dynamic load balancing as a first-class
//! citizen of the I/O design: "it allows dynamic load-balancing, where
//! data blocks may be migrated among processors, without affecting how I/O
//! is done. In turn, dynamic load-balancing in computation benefits
//! parallel I/O performance" (§4.1). This module implements the
//! computation side: measure per-rank work, compute a deterministic
//! migration plan (every rank derives the same plan from an allgather),
//! ship panes through the client communicator, and let the I/O layer pick
//! up the new distribution automatically at the next snapshot.

use rocio_core::{Cursor, Result, SnapshotId};
use rocnet::Comm;
use roccom::{convert, AttrRef, Windows};
use rocpanda::wire::{self, BlockMsgView};

/// Tag used for migrated panes on the compute communicator.
const MIGRATE_TAG: u32 = 0x0060_0010;

/// One planned move: `(window, pane id, from rank, to rank)`.
pub type Move = (String, u64, usize, usize);

/// Work weight of a pane (elements; tets and cells cost alike here).
fn pane_weight(pane: &roccom::Pane) -> u64 {
    pane.mesh().n_elems() as u64
}

/// Serialize this rank's pane inventory: `(window, id, weight)*`.
fn encode_inventory(windows: &Windows, names: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    for name in names {
        let Ok(w) = windows.window(name) else { continue };
        for pane in w.panes() {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&pane.id.0.to_le_bytes());
            out.extend_from_slice(&pane_weight(pane).to_le_bytes());
        }
    }
    out
}

fn decode_inventory(bytes: &[u8]) -> Result<Vec<(String, u64, u64)>> {
    let mut out = Vec::new();
    let mut cur = Cursor::from(bytes);
    while cur.remaining() > 0 {
        let window = cur.str16("pane inventory")?;
        let id = cur.u64("inventory block id")?;
        out.push((window, id, cur.u64("inventory weight")?));
    }
    Ok(out)
}

/// Compute a migration plan from the global inventory: repeatedly move the
/// best-fitting pane from the heaviest rank to the lightest until the
/// max/mean imbalance falls under `threshold` (or no move helps).
///
/// Deterministic: every rank runs this on identical input.
pub fn plan_moves(
    inventory: &[Vec<(String, u64, u64)>],
    threshold: f64,
) -> Vec<Move> {
    let n = inventory.len();
    let mut owned: Vec<Vec<(String, u64, u64)>> = inventory.to_vec();
    let mut load: Vec<u64> = owned
        .iter()
        .map(|panes| panes.iter().map(|&(_, _, w)| w).sum())
        .collect();
    let total: u64 = load.iter().sum();
    if n < 2 || total == 0 {
        return Vec::new();
    }
    let mean = total as f64 / n as f64;
    let mut moves = Vec::new();
    for _ in 0..10_000 {
        let (Some(hi), Some(lo)) =
            ((0..n).max_by_key(|&r| load[r]), (0..n).min_by_key(|&r| load[r]))
        else {
            break;
        };
        if load[hi] as f64 <= mean * threshold || hi == lo {
            break;
        }
        // Best single pane: largest that still lowers the pairwise max.
        let mut best: Option<(usize, u64)> = None;
        for (pos, &(_, _, w)) in owned[hi].iter().enumerate() {
            let new_hi = load[hi] - w;
            let new_lo = load[lo] + w;
            if new_hi.max(new_lo) < load[hi] {
                let key = new_hi.max(new_lo);
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((pos, key));
                }
            }
        }
        let Some((pos, _)) = best else { break };
        let (window, id, w) = owned[hi].remove(pos);
        load[hi] -= w;
        load[lo] += w;
        moves.push((window.clone(), id, hi, lo));
        owned[lo].push((window, id, w));
    }
    moves
}

/// One rebalance round over `windows`. Returns the number of panes that
/// moved (same on every rank).
///
/// Burn panes shadow their solid pane, so they travel together: pass both
/// window names with matching ids in `paired`.
pub fn rebalance(
    comm: &Comm,
    windows: &mut Windows,
    window_names: &[&str],
    threshold: f64,
) -> Result<usize> {
    let inv_bytes = encode_inventory(windows, window_names);
    let all = comm.allgather(&inv_bytes)?;
    let inventory: Vec<Vec<(String, u64, u64)>> = all
        .iter()
        .map(|b| decode_inventory(b))
        .collect::<Result<_>>()?;
    let moves = plan_moves(&inventory, threshold);
    let me = comm.rank();
    // Ship outgoing panes (eager sends; order deterministic by plan).
    for (window, id, from, to) in &moves {
        if *from == me {
            let w = windows.window_mut(window)?;
            let pane = w.remove_pane(rocio_core::BlockId(*id))?;
            let layout = convert::plan(windows.window(window)?, &pane, &AttrRef::All)?;
            // The snapshot is routing only.
            let wire = wire::encode_block_msg(SnapshotId::new(0, 0), window, &layout);
            comm.send_rope(*to, MIGRATE_TAG, wire)?;
        }
    }
    // Receive incoming panes. Arrival order may differ from plan order
    // when several ranks ship to the same destination, so the message's
    // own routing header decides where each pane lands. The plan names
    // each sender and its count, so the drain waits on the senders still
    // owing panes alone, and every planned pane is taken before the first
    // that fails to land is reported: none is left queued.
    let mut owed = vec![0usize; comm.size()];
    for (_, _, from, _) in moves.iter().filter(|(_, _, _, to)| *to == me) {
        owed[*from] += 1;
    }
    let mut open: Vec<usize> = (0..owed.len()).filter(|&r| owed[r] > 0).collect();
    let mut failure = None;
    while !open.is_empty() {
        let m = comm.recv_least_of(&open, Some(MIGRATE_TAG))?;
        owed[m.src] -= 1;
        if owed[m.src] == 0 {
            open.retain(|&r| r != m.src);
        }
        let landed = BlockMsgView::decode(&mut m.payload.cursor()).and_then(|bm| {
            convert::apply_block(windows.window_mut(&bm.window)?, &bm.block)
        });
        if let Err(e) = landed {
            failure.get_or_insert(e);
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(moves.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inv(loads: &[&[u64]]) -> Vec<Vec<(String, u64, u64)>> {
        loads
            .iter()
            .enumerate()
            .map(|(r, panes)| {
                panes
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| ("w".to_string(), (r * 100 + i) as u64, w))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn balanced_input_needs_no_moves() {
        let moves = plan_moves(&inv(&[&[50, 50], &[100], &[99]]), 1.1);
        assert!(moves.is_empty(), "{moves:?}");
    }

    #[test]
    fn skewed_input_converges() {
        let inventory = inv(&[&[40, 40, 40, 40], &[10], &[10]]);
        let moves = plan_moves(&inventory, 1.05);
        assert!(!moves.is_empty());
        // Re-apply the plan and check final balance.
        let mut load = [160u64, 10, 10];
        for (_, _, from, to) in &moves {
            // Weight lookup: ids encode (rank*100 + idx); all rank-0 panes
            // weigh 40, the others 10.
            let w = 40; // only rank 0's panes can move first
            load[*from] -= w;
            load[*to] += w;
        }
        let max = *load.iter().max().unwrap() as f64;
        let mean = load.iter().sum::<u64>() as f64 / 3.0;
        assert!(max / mean < 1.4, "loads {load:?}");
    }

    #[test]
    fn empty_and_single_rank_plans_are_empty() {
        assert!(plan_moves(&[], 1.05).is_empty());
        assert!(plan_moves(&inv(&[&[10, 20]]), 1.05).is_empty());
        assert!(plan_moves(&inv(&[&[], &[]]), 1.05).is_empty());
    }

    #[test]
    fn inventory_round_trip() {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.register_pane(
            rocio_core::BlockId(3),
            roccom::PaneMesh::Structured {
                dims: [2, 3, 4],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        let bytes = encode_inventory(&ws, &["fluid", "ghost"]);
        let inv = decode_inventory(&bytes).unwrap();
        assert_eq!(inv, vec![("fluid".to_string(), 3, 24)]);
        assert!(decode_inventory(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn a_pane_that_cannot_land_fails_the_round_after_every_pane_is_taken() {
        use rocio_core::{ArrayData, BlockId, DType, RocError};
        use roccom::{AttrSpec, PaneMesh};
        use rocnet::{cluster::ClusterSpec, run_ranks};

        // Rank 0 holds panes 1–4 of 64 elements; rank 1 holds its own
        // pane 1 of 2 elements. The plan moves panes 1 and 2 to rank 1, in
        // that order: pane 1 cannot replace the held one, pane 2 lands.
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let mut ws = Windows::new();
            let w = ws.create_window("fluid").unwrap();
            w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
            let (ids, dims) = if comm.rank() == 0 { (1..5, [4, 4, 4]) } else { (1..2, [1, 1, 2]) };
            for i in ids {
                let mesh = PaneMesh::Structured {
                    dims,
                    origin: [i as f64, 0.0, 0.0],
                    spacing: [1.0; 3],
                };
                let n = dims.iter().product::<usize>();
                w.register_pane(BlockId(i), mesh).unwrap();
                w.pane_mut(BlockId(i))
                    .unwrap()
                    .set_data("p", ArrayData::F64(vec![i as f64; n]))
                    .unwrap();
            }
            let moved = rebalance(&comm, &mut ws, &["fluid"], 1.05);
            let held: Vec<u64> = ws.window("fluid").unwrap().pane_ids().iter().map(|b| b.0).collect();
            (moved, held, comm.iprobe(None, Some(MIGRATE_TAG)).is_none())
        });
        let (moved, held, drained) = &out[0];
        assert_eq!((moved.as_ref().ok(), held, drained), (Some(&2), &vec![3, 4], &true));
        let (moved, held, drained) = &out[1];
        assert!(matches!(moved, Err(RocError::Mismatch(_))), "{moved:?}");
        assert_eq!(held, &vec![1, 2], "pane 2 landed after pane 1 failed");
        assert!(drained, "a planned pane was left queued");
    }

    proptest! {
        // Arbitrary bytes, and a valid inventory with one byte replaced or
        // cut short at any length: `Ok` or `Err`, never a panic, and no
        // more entries than 18-byte records fit in the input.
        #[test]
        fn hostile_inventory_bytes_never_panic(
            junk in prop::collection::vec(any::<u8>(), 0..256),
            at in any::<prop::sample::Index>(),
            byte in any::<u8>(),
        ) {
            let mut valid = Vec::new();
            for (window, id) in [("fluid", 3u64), ("solid", u64::MAX), ("", 0)] {
                valid.extend_from_slice(&(window.len() as u16).to_le_bytes());
                valid.extend_from_slice(window.as_bytes());
                valid.extend_from_slice(&[id.to_le_bytes(), (id / 2).to_le_bytes()].concat());
            }
            prop_assert_eq!(decode_inventory(&valid).unwrap().len(), 3);
            let mut mutated = valid.clone();
            mutated[at.index(valid.len())] = byte;
            for input in [&junk[..], &mutated, &valid[..at.index(valid.len())]] {
                if let Ok(inv) = decode_inventory(input) {
                    prop_assert!(inv.len() <= input.len() / 18);
                }
            }
        }
    }
}
