//! # rocmesh
//!
//! Mesh substrate for the GENx reproduction.
//!
//! The paper's central data-management challenge is the *distribution
//! style* of the simulation: "the simulation object is pre-partitioned into
//! a large number of mesh blocks and each processor is assigned a number of
//! such blocks. For the same material, each block has similar attributes
//! and data organization, but can have different sizes" (§3.2). This crate
//! builds exactly that:
//!
//! * [`structured::StructuredBlock`] — multi-block structured (hex) blocks,
//!   the Rocflo-style fluid discretization;
//! * [`unstructured::UnstructuredBlock`] — tetrahedral blocks, the
//!   Rocfrac-style solid discretization;
//! * [`partition`] — irregular recursive-bisection partitioning of a
//!   domain into blocks of deliberately unequal sizes, plus block→rank
//!   assignment strategies (round-robin, size-balancing greedy);
//! * [`refine`] — adaptive refinement of blocks ("these
//!   mesh blocks change as the propellant burns in the simulation");
//! * [`workload`] — the paper's two test problems: the **lab-scale rocket
//!   motor** (Table 1: fixed total size, ~64 MB/snapshot) and the
//!   **extendible cylinder** scalability test (Fig. 3: fixed size per
//!   processor).

pub mod partition;
pub mod refine;
pub mod structured;
pub mod unstructured;
pub mod workload;

pub use partition::{assign_blocks, x_adjacency, Assignment};
pub use structured::StructuredBlock;
pub use unstructured::UnstructuredBlock;
pub use workload::{Material, Workload};
