//! The paper's two test problems as mesh-workload generators.
//!
//! * [`Workload::lab_scale_motor_scaled`] — "a lab-scale solid rocket motor, with
//!   design and data obtained from the Naval Air Warfare Center" (§7.1):
//!   a *fixed total* problem (~64 MB per snapshot regardless of processor
//!   count), used for Table 1.
//! * [`Workload::scalability_cylinder`] — "GENx's 'scalability' test, which
//!   simulates an extendible cylinder of the rocket body … the amount of
//!   data is fixed on each processor" (§7.2), used for Fig. 3.
//!
//! Both produce a gas-dynamics region (structured multi-block, Rocflo
//! style) and a propellant region (unstructured tet blocks, Rocfrac style)
//! with irregular block sizes.

use crate::partition::partition_box;
use crate::structured::StructuredBlock;
use crate::unstructured::UnstructuredBlock;

/// Number of scalar cell fields the fluid solver snapshots (plus one
/// 3-vector velocity). Must stay in sync with the genx fluid module.
pub const FLUID_SCALAR_FIELDS: usize = 6;
/// Number of scalar node fields the solid solver snapshots (plus
/// displacement and velocity 3-vectors). Must stay in sync with genx.
pub const SOLID_SCALAR_FIELDS: usize = 3;

/// Snapshot bytes of a tetrahedralized box of `dims` hex cells, without
/// materializing it (coords + conn + scalar and vector node fields).
pub fn solid_snapshot_bytes(dims: [usize; 3]) -> usize {
    let nn = (dims[0] + 1) * (dims[1] + 1) * (dims[2] + 1);
    let conn_len = dims[0] * dims[1] * dims[2] * 5 * 4;
    8 * (3 * nn + SOLID_SCALAR_FIELDS * nn + 6 * nn) + 4 * conn_len
}

/// Physical material of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Material {
    Gas,
    Propellant,
}

/// A complete mesh workload: fluid blocks + solid block descriptions.
///
/// Solid blocks are carried as hex *boxes* and tetrahedralized lazily via
/// [`Workload::solid_block`], so a rank only materializes the meshes it
/// owns — essential for the 512-processor scalability runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name for reports.
    pub name: String,
    /// Structured gas-dynamics blocks.
    pub fluid: Vec<StructuredBlock>,
    /// Hex boxes describing the unstructured propellant blocks.
    pub solid_boxes: Vec<StructuredBlock>,
}

impl Workload {
    /// Total number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.fluid.len() + self.solid_boxes.len()
    }

    /// Materialize the `i`-th solid block as a tetrahedral mesh.
    pub fn solid_block(&self, i: usize) -> UnstructuredBlock {
        let b = &self.solid_boxes[i];
        UnstructuredBlock::tet_box(b.id, [b.ni, b.nj, b.nk], b.origin, b.spacing)
    }

    /// Per-block snapshot weights: fluid blocks first (by index), then
    /// solid boxes.
    pub fn block_weights(&self) -> (Vec<usize>, Vec<usize>) {
        (
            self.fluid
                .iter()
                .map(|b| b.snapshot_bytes(FLUID_SCALAR_FIELDS))
                .collect(),
            self.solid_boxes
                .iter()
                .map(|b| solid_snapshot_bytes([b.ni, b.nj, b.nk]))
                .collect(),
        )
    }

    /// Lab-scale motor with explicit block counts at the paper-size mesh
    /// resolution — the knob for granularity studies ("the relatively
    /// small blocks used in GENx present a further performance problem",
    /// §3.2): same bytes, different block/dataset counts.
    pub fn lab_scale_custom(seed: u64, scale: f64, n_fluid: usize, n_solid: usize) -> Workload {
        let mut w = Self::lab_scale_sized(seed, scale, Some((n_fluid, n_solid)));
        w.name = format!("lab-scale-motor-{n_fluid}f-{n_solid}s");
        w
    }

    /// The Table 1 workload: a lab-scale solid rocket motor, its size
    /// times a linear scale factor (for quick tests and reduced-scale
    /// runs).
    ///
    /// At `scale = 1.0`, the paper-size problem, the total is fixed: a
    /// ~430k-cell structured bore (gas) in 160 irregular blocks and a
    /// ~130k-hex tetrahedralized propellant annulus in 96 irregular blocks
    /// — ~64 MB and ~2500 datasets per snapshot, as in the paper's test
    /// ("for each snapshot, GENx wrote approximately 64 MB of output
    /// data").
    pub fn lab_scale_motor_scaled(seed: u64, scale: f64) -> Workload {
        Self::lab_scale_sized(seed, scale, None)
    }

    fn lab_scale_sized(seed: u64, scale: f64, blocks: Option<(usize, usize)>) -> Workload {
        assert!(scale > 0.0 && scale <= 1.0);
        let s = scale.cbrt();
        let fdims = [
            ((352.0 * s) as usize).max(8),
            ((35.0 * s) as usize).max(4),
            ((35.0 * s) as usize).max(4),
        ];
        let n_fluid = blocks
            .map(|(f, _)| f)
            .unwrap_or(((160.0 * scale) as usize).max(4))
            .clamp(1, fdims.iter().product());
        let fluid = partition_box(
            0,
            fdims,
            [0.0, -0.1, -0.1],
            [2.0 / fdims[0] as f64, 0.2 / fdims[1] as f64, 0.2 / fdims[2] as f64],
            n_fluid,
            0.3,
            seed,
        );
        // Propellant annulus, modelled as a box shell region partitioned
        // into hex boxes then tetrahedralized per box.
        let sdims = [
            ((300.0 * s) as usize).max(6),
            ((21.0 * s) as usize).max(3),
            ((21.0 * s) as usize).max(3),
        ];
        let n_solid = blocks
            .map(|(_, s)| s)
            .unwrap_or(((96.0 * scale) as usize).max(2))
            .clamp(1, sdims.iter().product());
        let solid_boxes = partition_box(
            10_000,
            sdims,
            [0.0, 0.1, -0.15],
            [2.0 / sdims[0] as f64, 0.3 / sdims[1] as f64, 0.3 / sdims[2] as f64],
            n_solid,
            0.3,
            seed.wrapping_add(1),
        );
        Workload {
            name: "lab-scale-motor".into(),
            fluid,
            solid_boxes,
        }
    }

    /// The Fig. 3 workload: an extendible cylinder with fixed data per
    /// compute processor (~1 MB and 36 blocks per processor).
    pub fn scalability_cylinder(n_procs: usize, seed: u64) -> Workload {
        assert!(n_procs >= 1);
        Self::scalability_cylinder_inner(0, n_procs, seed)
    }

    fn scalability_cylinder_inner(p_lo: usize, p_hi: usize, seed: u64) -> Workload {
        let n_procs = p_hi;
        let _ = n_procs;
        let mut fluid = Vec::new();
        let mut solid = Vec::new();
        for p in p_lo..p_hi {
            let x0 = p as f64 * 0.1;
            // 24 fluid blocks from a 20^3-cell bore segment.
            let seg = partition_box(
                (p as u64) * 1000,
                [20, 20, 20],
                [x0, -0.1, -0.1],
                [0.1 / 20.0, 0.2 / 20.0, 0.2 / 20.0],
                24,
                0.3,
                seed.wrapping_add(p as u64),
            );
            fluid.extend(seg);
            // 12 solid blocks from a 12^3-hex propellant segment.
            let sboxes = partition_box(
                (p as u64) * 1000 + 500,
                [12, 12, 12],
                [x0, 0.1, -0.15],
                [0.1 / 12.0, 0.3 / 12.0, 0.3 / 12.0],
                12,
                0.3,
                seed.wrapping_add(p as u64).wrapping_add(77),
            );
            solid.extend(sboxes);
        }
        Workload {
            name: format!("scalability-cylinder-{n_procs}p"),
            fluid,
            solid_boxes: solid,
        }
    }

    /// Only processor `p`'s segment of the scalability cylinder (what each
    /// rank actually materializes in a weak-scaling run).
    pub fn scalability_segment(p: usize, seed: u64) -> Workload {
        let mut w = Self::scalability_cylinder_inner(p, p + 1, seed);
        w.name = format!("scalability-segment-{p}");
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::MIB;

    /// Approximate total snapshot bytes (no materialization).
    fn total_snapshot_bytes(w: &Workload) -> usize {
        let (fluid, solid) = w.block_weights();
        fluid.iter().chain(&solid).sum()
    }

    #[test]
    fn lab_scale_is_about_64_mib() {
        let w = Workload::lab_scale_motor_scaled(42, 1.0);
        let bytes = total_snapshot_bytes(&w);
        assert!(
            bytes > 55 * MIB && bytes < 75 * MIB,
            "lab-scale snapshot is {} ({} bytes)",
            rocio_core::fmt_bytes(bytes),
            bytes
        );
        assert_eq!(w.fluid.len(), 160);
        assert_eq!(w.solid_boxes.len(), 96);
        assert_eq!(w.n_blocks(), 256);
    }

    fn all_ids(w: &Workload) -> Vec<u64> {
        w.fluid
            .iter()
            .map(|b| b.id.0)
            .chain(w.solid_boxes.iter().map(|b| b.id.0))
            .collect()
    }

    #[test]
    fn lab_scale_block_ids_unique() {
        let w = Workload::lab_scale_motor_scaled(42, 1.0);
        let mut ids = all_ids(&w);
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn lab_scale_blocks_are_irregular() {
        let w = Workload::lab_scale_motor_scaled(42, 1.0);
        let sizes: Vec<usize> = w.fluid.iter().map(|b| b.n_cells()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max as f64 / min as f64 > 1.5, "{min}..{max}");
    }

    #[test]
    fn scaled_lab_scale_shrinks() {
        let small = Workload::lab_scale_motor_scaled(42, 0.1);
        let full = Workload::lab_scale_motor_scaled(42, 1.0);
        assert!(total_snapshot_bytes(&small) < total_snapshot_bytes(&full) / 4);
        assert!(small.n_blocks() < full.n_blocks());
    }

    #[test]
    fn scalability_data_is_per_proc_constant() {
        let w4 = Workload::scalability_cylinder(4, 1);
        let w8 = Workload::scalability_cylinder(8, 1);
        let per4 = total_snapshot_bytes(&w4) as f64 / 4.0;
        let per8 = total_snapshot_bytes(&w8) as f64 / 8.0;
        assert!(
            (per4 / per8 - 1.0).abs() < 0.1,
            "per-proc bytes differ: {per4} vs {per8}"
        );
        assert_eq!(w4.n_blocks(), 4 * 36);
        assert_eq!(w8.n_blocks(), 8 * 36);
    }

    #[test]
    fn scalability_per_proc_size_near_one_mib() {
        let w = Workload::scalability_cylinder(2, 1);
        let per = total_snapshot_bytes(&w) / 2;
        assert!(
            per > MIB / 2 && per < 2 * MIB,
            "per-proc snapshot {}",
            rocio_core::fmt_bytes(per)
        );
    }

    #[test]
    fn scalability_ids_unique_across_procs() {
        let w = Workload::scalability_cylinder(16, 1);
        let mut ids = all_ids(&w);
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn segment_matches_full_cylinder() {
        let full = Workload::scalability_cylinder(4, 9);
        let seg = Workload::scalability_segment(2, 9);
        // Segment 2's blocks must be exactly the full workload's blocks
        // with ids in [2000, 3000).
        let full_seg: Vec<&StructuredBlock> = full
            .fluid
            .iter()
            .filter(|b| (2000..3000).contains(&b.id.0))
            .collect();
        assert_eq!(seg.fluid.len(), full_seg.len());
        for (a, b) in seg.fluid.iter().zip(full_seg) {
            assert_eq!(a, b);
        }
        assert_eq!(seg.solid_boxes.len(), 12);
        assert!(seg
            .solid_boxes
            .iter()
            .all(|b| (2500..2600).contains(&b.id.0)));
    }

    #[test]
    fn weights_agree_with_materialized_blocks() {
        let w = Workload::scalability_cylinder(1, 1);
        let (fw, sw) = w.block_weights();
        assert_eq!(fw.len(), w.fluid.len());
        assert_eq!(sw.len(), w.solid_boxes.len());
        for (b, &wt) in w.fluid.iter().zip(&fw) {
            assert_eq!(b.snapshot_bytes(FLUID_SCALAR_FIELDS), wt);
        }
        for (i, &wt) in sw.iter().enumerate() {
            let mat = w.solid_block(i);
            assert_eq!(mat.snapshot_bytes(SOLID_SCALAR_FIELDS), wt);
        }
    }

    #[test]
    fn solid_blocks_are_valid_meshes() {
        let w = Workload::lab_scale_motor_scaled(7, 0.05);
        for i in 0..w.solid_boxes.len() {
            w.solid_block(i).validate().unwrap();
        }
    }
}
