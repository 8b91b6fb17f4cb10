//! `perf`: the repository's one benchmark. Four workloads, measured on
//! two clocks — host time (what a user of the simulator waits for) and
//! virtual time (the paper's result, which must not drift) — end to end
//! and layer by layer, from outside, through public functions only.
//!
//! See `README.md` for the metric tables and the pinned API surface.

#![forbid(unsafe_code)]

pub mod api;
pub mod bench;
pub mod cli;
pub mod compare;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod workloads;
