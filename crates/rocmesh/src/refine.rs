//! Adaptive refinement of mesh blocks.
//!
//! "These mesh blocks change as the propellant burns in the simulation,
//! requiring adaptive refinement over time" (§3.2).
//! [`refine_structured`] splits a block into 8 children (2× each axis at
//! the same resolution per child), used when a block's activity metric
//! crosses a threshold. Children get fresh ids from an id allocator so the
//! I/O layer sees a *changed block population* between snapshots — the
//! situation that forces MPI-IO users to rebuild file views and that
//! Rocpanda handles without any re-registration.

use rocio_core::BlockId;

use crate::structured::StructuredBlock;

/// Split a block into up to 8 children by halving each axis that has at
/// least 2 cells. Children keep the parent's spacing (the mesh gets finer
/// relative to the feature, coarser blocks elsewhere stay big) and receive
/// consecutive ids starting at `next_id`.
pub fn refine_structured(parent: &StructuredBlock, next_id: &mut u64) -> Vec<StructuredBlock> {
    let halves = |n: usize| -> Vec<(usize, usize)> {
        if n >= 2 {
            vec![(0, n / 2), (n / 2, n - n / 2)]
        } else {
            vec![(0, n)]
        }
    };
    let mut children = Vec::new();
    for &(k0, nk) in &halves(parent.nk) {
        for &(j0, nj) in &halves(parent.nj) {
            for &(i0, ni) in &halves(parent.ni) {
                let id = BlockId(*next_id);
                *next_id += 1;
                children.push(StructuredBlock::new(
                    id,
                    [ni, nj, nk],
                    [
                        parent.origin[0] + i0 as f64 * parent.spacing[0],
                        parent.origin[1] + j0 as f64 * parent.spacing[1],
                        parent.origin[2] + k0 as f64 * parent.spacing[2],
                    ],
                    parent.spacing,
                ));
            }
        }
    }
    children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent() -> StructuredBlock {
        StructuredBlock::new(BlockId(7), [4, 6, 2], [0.0, 0.0, 0.0], [1.0, 0.5, 2.0])
    }

    #[test]
    fn refine_conserves_cells_and_volume() {
        let p = parent();
        let mut next = 100;
        let kids = refine_structured(&p, &mut next);
        assert_eq!(kids.len(), 8);
        assert_eq!(next, 108);
        let cells: usize = kids.iter().map(|k| k.n_cells()).sum();
        assert_eq!(cells, p.n_cells());
        let vol: f64 = kids.iter().map(|k| k.volume()).sum();
        assert!((vol - p.volume()).abs() < 1e-12);
    }

    #[test]
    fn refine_children_tile_the_parent() {
        let p = parent();
        let mut next = 0;
        let kids = refine_structured(&p, &mut next);
        // Sum of extents along x at fixed (j,k) halves: children at x=0 and
        // x=2.
        let mut origins: Vec<[f64; 3]> = kids.iter().map(|k| k.origin).collect();
        origins.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(origins[0], [0.0, 0.0, 0.0]);
        assert!(origins.contains(&[2.0, 0.0, 0.0]));
        assert!(origins.contains(&[0.0, 1.5, 0.0]));
        assert!(origins.contains(&[0.0, 0.0, 2.0]));
    }

    #[test]
    fn refine_thin_axis_does_not_split_it() {
        let thin = StructuredBlock::new(BlockId(0), [1, 4, 4], [0.0; 3], [1.0; 3]);
        let mut next = 0;
        let kids = refine_structured(&thin, &mut next);
        assert_eq!(kids.len(), 4); // x axis unsplittable
        assert!(kids.iter().all(|k| k.ni == 1));
    }

    #[test]
    fn odd_dims_split_unevenly_but_exactly() {
        let odd = StructuredBlock::new(BlockId(0), [5, 3, 2], [0.0; 3], [1.0; 3]);
        let mut next = 0;
        let kids = refine_structured(&odd, &mut next);
        let cells: usize = kids.iter().map(|k| k.n_cells()).sum();
        assert_eq!(cells, odd.n_cells());
    }
}
