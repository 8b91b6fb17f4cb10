//! Irregular domain partitioning and block→rank assignment.
//!
//! "The simulation object is pre-partitioned into a large number of mesh
//! blocks" (§3.2), with deliberately unequal block sizes — that
//! irregularity is the whole point of the paper's collective-I/O design.
//! The partitioner here recursively bisects a box with a jittered split
//! ratio, so block sizes spread over roughly a 3:1 range while tiling the
//! domain exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocio_core::BlockId;

use crate::structured::StructuredBlock;

/// An axis-aligned box of whole cells at some resolution: the unit the
/// recursive bisection works on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellBox {
    lo: [usize; 3],
    dims: [usize; 3],
}

impl CellBox {
    fn n_cells(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }
}

/// Recursively bisect a `dims`-cell box into `n_blocks` irregular blocks.
///
/// * `id_base` — ids are assigned `id_base, id_base+1, …` in creation order.
/// * `origin`/`spacing` — geometry of cell (0,0,0).
/// * `jitter` — split-ratio spread: 0.0 gives even halves; 0.3 gives
///   splits uniform in `[0.35, 0.65]`, producing the paper's "similar ...
///   but different sizes" distribution.
///
/// Every cell of the domain lands in exactly one block (exact tiling).
pub fn partition_box(
    id_base: u64,
    dims: [usize; 3],
    origin: [f64; 3],
    spacing: [f64; 3],
    n_blocks: usize,
    jitter: f64,
    seed: u64,
) -> Vec<StructuredBlock> {
    assert!(n_blocks >= 1);
    assert!(
        dims.iter().product::<usize>() >= n_blocks,
        "cannot cut {} cells into {} blocks",
        dims.iter().product::<usize>(),
        n_blocks
    );
    assert!((0.0..0.5).contains(&jitter), "jitter must be in [0, 0.5)");
    let mut rng = StdRng::seed_from_u64(seed);
    // Work list of (box, blocks still owed to it).
    let mut work = vec![(CellBox { lo: [0; 3], dims }, n_blocks)];
    let mut leaves = Vec::with_capacity(n_blocks);
    while let Some((b, want)) = work.pop() {
        if want == 1 {
            leaves.push(b);
            continue;
        }
        // Split the longest axis that can still be split.
        let mut axes = [0, 1, 2];
        axes.sort_by_key(|&a| std::cmp::Reverse(b.dims[a]));
        #[expect(
            clippy::expect_used,
            reason = "loop invariant: a box owing >=2 blocks has >=2 cells, so some axis is \
                      splittable"
        )]
        let axis = axes
            .into_iter()
            .find(|&a| b.dims[a] >= 2)
            .expect("box with >=2 cells must have a splittable axis");
        let ratio = 0.5 + rng.gen_range(-jitter..=jitter);
        let cut = ((b.dims[axis] as f64 * ratio).round() as usize).clamp(1, b.dims[axis] - 1);
        // Owe each side blocks proportional to its cell share, clamped so
        // both sides get at least one and no side gets more blocks than
        // cells.
        let left_cells = {
            let mut d = b.dims;
            d[axis] = cut;
            d[0] * d[1] * d[2]
        };
        let total_cells = b.n_cells();
        let mut left_want = ((want as f64 * left_cells as f64 / total_cells as f64).round()
            as usize)
            .clamp(1, want - 1);
        // Neither side may owe more blocks than it has cells.
        left_want = left_want
            .min(left_cells)
            .max(want.saturating_sub(total_cells - left_cells))
            .clamp(1, want - 1);
        let mut lo_right = b.lo;
        lo_right[axis] += cut;
        let mut dims_left = b.dims;
        dims_left[axis] = cut;
        let mut dims_right = b.dims;
        dims_right[axis] -= cut;
        work.push((CellBox { lo: b.lo, dims: dims_left }, left_want));
        work.push((
            CellBox {
                lo: lo_right,
                dims: dims_right,
            },
            want - left_want,
        ));
    }
    // Deterministic id order: sort leaves by position.
    leaves.sort_by_key(|b| (b.lo[2], b.lo[1], b.lo[0]));
    leaves
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            StructuredBlock::new(
                BlockId(id_base + i as u64),
                b.dims,
                [
                    origin[0] + b.lo[0] as f64 * spacing[0],
                    origin[1] + b.lo[1] as f64 * spacing[1],
                    origin[2] + b.lo[2] as f64 * spacing[2],
                ],
                spacing,
            )
        })
        .collect()
}

/// Upstream→downstream adjacency along the +x axis: `(i, j)` means block
/// `j`'s low-x face touches block `i`'s high-x face (with overlapping y/z
/// extents), so flow leaving `i` enters `j`. Used by the solvers for
/// cross-block boundary coupling.
pub fn x_adjacency(blocks: &[StructuredBlock]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let eps = 1e-9;
    for (i, a) in blocks.iter().enumerate() {
        let a_hi_x = a.origin[0] + a.ni as f64 * a.spacing[0];
        let a_y = (a.origin[1], a.origin[1] + a.nj as f64 * a.spacing[1]);
        let a_z = (a.origin[2], a.origin[2] + a.nk as f64 * a.spacing[2]);
        for (j, b) in blocks.iter().enumerate() {
            if i == j {
                continue;
            }
            if (b.origin[0] - a_hi_x).abs() > eps {
                continue;
            }
            let b_y = (b.origin[1], b.origin[1] + b.nj as f64 * b.spacing[1]);
            let b_z = (b.origin[2], b.origin[2] + b.nk as f64 * b.spacing[2]);
            let y_overlap = a_y.1.min(b_y.1) - a_y.0.max(b_y.0);
            let z_overlap = a_z.1.min(b_z.1) - a_z.0.max(b_z.0);
            if y_overlap > eps && z_overlap > eps {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Block→rank assignment strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Blocks dealt to ranks in index order, round-robin.
    RoundRobin,
    /// Largest-first onto the currently least-loaded rank (by weight).
    Greedy,
    /// Greedy followed by local-search refinement (single-block moves and
    /// pairwise swaps that lower the maximum load) — the quality a
    /// dynamic load balancer converges to.
    Balanced,
}

/// Assign `weights.len()` blocks to `n_ranks` ranks. Returns, per rank, the
/// list of block indices it owns.
///
/// Weights are typically cell counts or snapshot byte sizes. With the
/// paper's fine-grained distribution, greedy assignment yields the balanced
/// per-client data loads that make Rocpanda's server workloads balanced
/// "automatically" (§4.1).
pub fn assign_blocks(weights: &[usize], n_ranks: usize, strategy: Assignment) -> Vec<Vec<usize>> {
    assert!(n_ranks >= 1);
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
    match strategy {
        Assignment::RoundRobin => {
            for i in 0..weights.len() {
                owners[i % n_ranks].push(i);
            }
        }
        Assignment::Greedy | Assignment::Balanced => {
            let mut order: Vec<usize> = (0..weights.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
            let mut load = vec![0usize; n_ranks];
            for i in order {
                let Some(r) = (0..n_ranks).min_by_key(|&r| (load[r], r)) else {
                    break;
                };
                owners[r].push(i);
                load[r] += weights[i];
            }
            if strategy == Assignment::Balanced {
                refine_balance(weights, &mut owners, &mut load);
            }
            for list in &mut owners {
                list.sort_unstable();
            }
        }
    }
    owners
}

/// Local search: repeatedly try to reduce the maximum load by moving one
/// block off the heaviest rank, or swapping one of its blocks with a
/// lighter block elsewhere. Terminates when no improving move exists (or
/// after a generous iteration cap).
fn refine_balance(weights: &[usize], owners: &mut [Vec<usize>], load: &mut [usize]) {
    let n_ranks = owners.len();
    if n_ranks < 2 {
        return;
    }
    for _ in 0..10_000 {
        let Some(hi) = (0..n_ranks).max_by_key(|&r| load[r]) else {
            return;
        };
        let mut improved = false;
        // Move: any block from hi to the lightest rank, if that lowers max.
        let Some(lo) = (0..n_ranks).min_by_key(|&r| load[r]) else {
            return;
        };
        if hi != lo {
            // Best single move: largest block that still helps.
            let mut best: Option<(usize, usize)> = None; // (pos in hi, new_max_delta)
            for (pos, &b) in owners[hi].iter().enumerate() {
                let w = weights[b];
                let new_hi = load[hi] - w;
                let new_lo = load[lo] + w;
                if new_hi.max(new_lo) < load[hi] {
                    let key = new_hi.max(new_lo);
                    if best.is_none_or(|(_, k)| key < k) {
                        best = Some((pos, key));
                    }
                }
            }
            if let Some((pos, _)) = best {
                let b = owners[hi].remove(pos);
                load[hi] -= weights[b];
                load[lo] += weights[b];
                owners[lo].push(b);
                improved = true;
            }
        }
        if !improved {
            // Swap: exchange a heavy block on hi with a lighter block on
            // some other rank, if the pair's new maximum drops.
            'outer: for r in 0..n_ranks {
                if r == hi {
                    continue;
                }
                for pi in 0..owners[hi].len() {
                    for pj in 0..owners[r].len() {
                        let (a, b) = (owners[hi][pi], owners[r][pj]);
                        let (wa, wb) = (weights[a], weights[b]);
                        if wa <= wb {
                            continue;
                        }
                        let new_hi = load[hi] - wa + wb;
                        let new_r = load[r] - wb + wa;
                        if new_hi.max(new_r) < load[hi] {
                            owners[hi][pi] = b;
                            owners[r][pj] = a;
                            load[hi] = new_hi;
                            load[r] = new_r;
                            improved = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_exactly() {
        let dims = [24, 20, 16];
        let blocks = partition_box(0, dims, [0.0; 3], [1.0; 3], 37, 0.3, 42);
        assert_eq!(blocks.len(), 37);
        let total: usize = blocks.iter().map(|b| b.n_cells()).sum();
        assert_eq!(total, 24 * 20 * 16);
        // Volumes also tile.
        let vol: f64 = blocks.iter().map(|b| b.volume()).sum();
        assert!((vol - (24.0 * 20.0 * 16.0)).abs() < 1e-9);
    }

    #[test]
    fn partition_ids_are_consecutive() {
        let blocks = partition_box(100, [8, 8, 8], [0.0; 3], [1.0; 3], 5, 0.2, 1);
        let ids: Vec<u64> = blocks.iter().map(|b| b.id.0).collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn jitter_produces_irregular_sizes() {
        let blocks = partition_box(0, [32, 32, 32], [0.0; 3], [1.0; 3], 64, 0.3, 7);
        let sizes: Vec<usize> = blocks.iter().map(|b| b.n_cells()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max as f64 / min as f64 > 1.5,
            "expected irregular sizes, got {min}..{max}"
        );
    }

    #[test]
    fn zero_jitter_is_balanced() {
        let blocks = partition_box(0, [32, 32, 32], [0.0; 3], [1.0; 3], 8, 0.0, 7);
        let sizes: Vec<usize> = blocks.iter().map(|b| b.n_cells()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!((max as f64) / (min as f64) < 1.05);
    }

    #[test]
    fn partition_is_deterministic_per_seed() {
        let a = partition_box(0, [16, 16, 16], [0.0; 3], [1.0; 3], 9, 0.25, 3);
        let b = partition_box(0, [16, 16, 16], [0.0; 3], [1.0; 3], 9, 0.25, 3);
        let c = partition_box(0, [16, 16, 16], [0.0; 3], [1.0; 3], 9, 0.25, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn one_block_partition_is_whole_domain() {
        let blocks = partition_box(0, [4, 4, 4], [1.0; 3], [2.0; 3], 1, 0.3, 0);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].n_cells(), 64);
        assert_eq!(blocks[0].origin, [1.0; 3]);
    }

    #[test]
    fn n_blocks_equals_n_cells_degenerates_to_unit_blocks() {
        let blocks = partition_box(0, [2, 2, 2], [0.0; 3], [1.0; 3], 8, 0.3, 11);
        assert_eq!(blocks.len(), 8);
        for b in &blocks {
            assert_eq!(b.n_cells(), 1);
        }
    }

    #[test]
    fn adjacency_finds_x_neighbours() {
        // Two blocks side by side along x, plus one offset in y that only
        // half-overlaps, plus one fully disjoint.
        let blocks = vec![
            StructuredBlock::new(BlockId(0), [2, 2, 2], [0.0, 0.0, 0.0], [1.0; 3]),
            StructuredBlock::new(BlockId(1), [2, 2, 2], [2.0, 0.0, 0.0], [1.0; 3]),
            StructuredBlock::new(BlockId(2), [2, 2, 2], [2.0, 1.0, 0.0], [1.0; 3]),
            StructuredBlock::new(BlockId(3), [2, 2, 2], [2.0, 10.0, 0.0], [1.0; 3]),
        ];
        let mut pairs = x_adjacency(&blocks);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn partition_blocks_are_adjacent_somewhere() {
        let blocks = partition_box(0, [16, 8, 8], [0.0; 3], [1.0; 3], 12, 0.3, 5);
        let pairs = x_adjacency(&blocks);
        assert!(!pairs.is_empty(), "a tiled box must have x-neighbours");
        // Every pair really touches.
        for (i, j) in pairs {
            let hi = blocks[i].origin[0] + blocks[i].ni as f64;
            assert!((blocks[j].origin[0] - hi).abs() < 1e-9);
        }
    }

    #[test]
    fn round_robin_deals_evenly() {
        let owners = assign_blocks(&[1; 10], 3, Assignment::RoundRobin);
        assert_eq!(owners[0], vec![0, 3, 6, 9]);
        assert_eq!(owners[1], vec![1, 4, 7]);
        assert_eq!(owners[2], vec![2, 5, 8]);
    }

    #[test]
    fn greedy_balances_weights() {
        let weights = vec![100, 90, 50, 40, 30, 20, 10, 5];
        let owners = assign_blocks(&weights, 2, Assignment::Greedy);
        let load = |list: &Vec<usize>| list.iter().map(|&i| weights[i]).sum::<usize>();
        let (a, b) = (load(&owners[0]), load(&owners[1]));
        let total: usize = weights.iter().sum();
        assert_eq!(a + b, total);
        assert!((a as i64 - b as i64).unsigned_abs() as usize <= 15, "{a} vs {b}");
    }

    #[test]
    fn every_block_assigned_exactly_once() {
        for strategy in [Assignment::RoundRobin, Assignment::Greedy] {
            let owners = assign_blocks(&[3, 1, 4, 1, 5, 9, 2, 6], 3, strategy);
            let mut seen: Vec<usize> = owners.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_ranks_than_blocks_leaves_some_empty() {
        let owners = assign_blocks(&[1, 1], 4, Assignment::Greedy);
        let nonempty = owners.iter().filter(|l| !l.is_empty()).count();
        assert_eq!(nonempty, 2);
    }
}
