//! # genx
//!
//! A GENx-like coupled multi-component rocket simulation (§3 of the
//! paper), built on the workspace's substrates. It exists to *drive the
//! I/O stack the way the real GENx drove it*: several heterogeneous
//! physics modules registering irregular mesh blocks through Roccom and
//! periodically snapshotting through a runtime-selected I/O service.
//!
//! Components (names follow the paper's Fig. 1(a)):
//!
//! * [`fluid::FluidModule`] — Rocflo-like explicit finite-volume gas
//!   dynamics on structured multi-block panes;
//! * [`solid::SolidModule`] — Rocfrac-like explicit structural dynamics on
//!   unstructured tet panes;
//! * [`burn::BurnModule`] — Rocburn-like APN burn-rate model on pane-level
//!   attributes;
//! * [`rocface`] — interface transfer between the fluid and solid/burn
//!   windows, implemented as Roccom-registered functions;
//! * [`rocblas`] — pane-wise algebraic operators registered through the
//!   Roccom function registry;
//! * [`rocman::Rocman`] — the orchestrator: owns the windows, the function
//!   registry, and the I/O dispatch; runs the time loop and the periodic
//!   snapshot schedule;
//! * [`driver`] — whole-job runner used by the experiment harness:
//!   spawns a cluster (rocnet), wires the chosen I/O module (Rochdf,
//!   T-Rochdf, or Rocpanda with dedicated servers), runs, and reports the
//!   paper's metrics (computation time, visible I/O time, restart time,
//!   file counts, apparent throughput).
//!
//! The solvers do *real* arithmetic on real field arrays — snapshots
//! change over time and restart equality is checked bit-for-bit — while
//! their *cost* advances virtual time through a calibrated work model
//! (DESIGN.md §4).

pub mod burn;
pub mod driver;
pub mod fluid;
pub mod rebalance;
pub mod report;
pub mod rocblas;
pub mod rocface;
pub mod rocflu;
pub mod rocketeer;
pub mod rocsolid;
pub mod rocman;
pub mod setup;
pub mod solid;

pub use driver::{
    final_snapshot, run_genx, run_genx_multi, run_genx_restart, run_genx_traced, GenxConfig,
    IoChoice, MultiTenantReport, RestartReport, TenantJobSpec, WorkloadKind,
};
pub use report::RunReport;
pub use rocman::Rocman;
