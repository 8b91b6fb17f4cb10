//! # rocstore
//!
//! Storage simulator: the shared parallel file systems of the paper's two
//! evaluation machines, with *real* byte storage and *modelled* timing.
//!
//! * **Turing** mounted a ReiserFS volume "via NFS and accessed through one
//!   server" (§7.1) — a single bottleneck server whose concurrent-write
//!   behaviour degrades badly while concurrent reads stay healthy ("the
//!   NFS-mounted shared file system shows much better tolerance to
//!   concurrent reads than to concurrent writes").
//! * **Frost**'s GPFS had "20.6 TB disk space, accessed through two GPFS
//!   server nodes" (§7.2).
//!
//! [`SharedFs`] keeps actual file contents in memory, so everything written
//! can be read back and verified bit-exactly (restart correctness is a
//! first-class invariant), while every operation returns a *virtual
//! completion time* computed from a [`DiskModel`]: seek + bytes/bandwidth,
//! scaled by the contention of the concurrency the I/O layer declared.
//! Callers merge that completion time into their rank's virtual clock.

pub mod fs;
pub mod model;
pub mod sieve;

pub use fs::{CacheValue, FsStats, SharedFs};
pub use model::{ContentionCurve, DiskModel};
pub use sieve::SievePlan;
