//! Structured (hexahedral, logically Cartesian) mesh blocks.

use rocio_core::BlockId;

/// One structured mesh block: a box of `ni × nj × nk` cells with uniform
/// spacing. Nodes are `(ni+1) × (nj+1) × (nk+1)`.
///
/// Rocflo-MP, the paper's structured gas-dynamics solver, computes on
/// collections of such blocks.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StructuredBlock {
    /// Stable unique id (pane id).
    pub id: BlockId,
    /// Cells along each axis.
    pub ni: usize,
    pub nj: usize,
    pub nk: usize,
    /// Coordinates of the low corner.
    pub origin: [f64; 3],
    /// Cell size along each axis.
    pub spacing: [f64; 3],
}

impl StructuredBlock {
    /// Create a block; every axis must have at least one cell and positive
    /// spacing.
    pub fn new(id: BlockId, dims: [usize; 3], origin: [f64; 3], spacing: [f64; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "structured block needs >=1 cell per axis"
        );
        assert!(spacing.iter().all(|&s| s > 0.0), "spacing must be positive");
        StructuredBlock {
            id,
            ni: dims[0],
            nj: dims[1],
            nk: dims[2],
            origin,
            spacing,
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.ni * self.nj * self.nk
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        (self.ni + 1) * (self.nj + 1) * (self.nk + 1)
    }

    /// Geometric extent along each axis.
    pub fn extent(&self) -> [f64; 3] {
        [
            self.ni as f64 * self.spacing[0],
            self.nj as f64 * self.spacing[1],
            self.nk as f64 * self.spacing[2],
        ]
    }

    /// Geometric volume.
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e[0] * e[1] * e[2]
    }

    /// Visit every node position `[x, y, z]`, i fastest — the generator
    /// behind [`StructuredBlock::node_coords`], for consumers that encode
    /// the coordinates somewhere else than a fresh `Vec<f64>`.
    pub fn for_each_node_point(&self, mut visit: impl FnMut([f64; 3])) {
        for k in 0..=self.nk {
            for j in 0..=self.nj {
                for i in 0..=self.ni {
                    visit([
                        self.origin[0] + i as f64 * self.spacing[0],
                        self.origin[1] + j as f64 * self.spacing[1],
                        self.origin[2] + k as f64 * self.spacing[2],
                    ]);
                }
            }
        }
    }

    /// Node coordinates, interleaved `[x0,y0,z0, x1,y1,z1, …]`, i fastest.
    pub fn node_coords(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_nodes() * 3);
        self.for_each_node_point(|p| out.extend_from_slice(&p));
        out
    }

    /// Approximate bytes of one double-precision snapshot of this block
    /// (coordinates + `n_scalar` cell fields + one 3-vector field).
    pub fn snapshot_bytes(&self, n_scalar: usize) -> usize {
        8 * (3 * self.n_nodes() + n_scalar * self.n_cells() + 3 * self.n_cells())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> StructuredBlock {
        StructuredBlock::new(BlockId(1), [4, 3, 2], [1.0, 2.0, 3.0], [0.5, 1.0, 2.0])
    }

    #[test]
    fn counts() {
        let b = block();
        assert_eq!(b.n_cells(), 24);
        assert_eq!(b.n_nodes(), 5 * 4 * 3);
    }

    #[test]
    fn extent_and_volume() {
        let b = block();
        assert_eq!(b.extent(), [2.0, 3.0, 4.0]);
        assert_eq!(b.volume(), 24.0);
    }

    #[test]
    fn node_coords_layout() {
        let b = block();
        let c = b.node_coords();
        assert_eq!(c.len(), b.n_nodes() * 3);
        // First node is the origin.
        assert_eq!(&c[..3], &[1.0, 2.0, 3.0]);
        // Second node steps in x by spacing[0].
        assert_eq!(&c[3..6], &[1.5, 2.0, 3.0]);
        // Last node is the far corner.
        let last = &c[c.len() - 3..];
        assert_eq!(last, &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn snapshot_bytes_counts_fields() {
        let b = block();
        let bytes = b.snapshot_bytes(5);
        assert_eq!(bytes, 8 * (3 * 60 + 5 * 24 + 3 * 24));
    }

    #[test]
    #[should_panic(expected = ">=1 cell")]
    fn zero_cells_rejected() {
        StructuredBlock::new(BlockId(0), [0, 1, 1], [0.0; 3], [1.0; 3]);
    }
}
