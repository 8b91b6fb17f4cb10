//! # rochdf
//!
//! The server-less, *individual* parallel I/O architecture of the paper
//! (§4.2, §6.2): "each compute processor outputs its own data blocks …
//! into individual HDF files."
//!
//! Two variants:
//!
//! * [`rochdf::Rochdf`] — the non-threaded baseline: blocking writes
//!   straight through the scientific format to the shared file system.
//!   "The non-threaded Rochdf's performance is the performance that we
//!   would expect from a fine-grained, irregular simulation using a
//!   general-purpose scientific I/O library that has no asynchronous I/O
//!   support, without any performance optimization" (§7.1). This is Table
//!   1's base for comparison.
//! * [`trochdf::TRochdf`] — the multi-threaded version: "instead of
//!   writing out the data immediately while the callers wait, T-Rochdf
//!   allocates local buffers on each compute processor and copies the
//!   output data to these buffers. At this point, the main threads return
//!   to computation and the I/O thread on each processor writes out the
//!   buffered data" (§6.2). One persistent I/O thread per process; the
//!   main thread blocks only if the previous snapshot is still being
//!   written.
//!
//! The two are one write / read / retire core under two schedules:
//! [`rochdf`] holds the single write-a-snapshot-file function (called
//! inline by `Rochdf`, from the I/O thread by `TRochdf`), the single
//! restart body — "T-Rochdf performs restart in the same way as Rochdf
//! does": every rank for itself ([`restart`]) or through the two-phase
//! collective ([`twophase`]), one `restart_read` span per window either
//! way — and the single retire, which asks `rocio_core` which files belong
//! to a snapshot rather than knowing the name format. Restart benefits
//! from every processor reading concurrently, which the NFS model rewards
//! (Table 1's restart row).

pub mod config;
pub mod restart;
pub mod rochdf;
pub mod trochdf;
pub mod twophase;

pub use config::RochdfConfig;
pub use twophase::read_partitioned;
pub use rochdf::Rochdf;
pub use trochdf::TRochdf;
