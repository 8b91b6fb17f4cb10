//! rocverify — workspace verification tooling.
//!
//! Two instruments, one goal: keeping the simulation honest. (The
//! determinism and robustness rules that need no analysis of their own —
//! no host clock, no stray threads, no `unwrap` in library code, no
//! `unsafe` — are compiler lints: `[workspace.lints]` and `clippy.toml`.)
//!
//! * [`lock`] (driven by the `roclock` binary) statically checks lock
//!   discipline: every `Mutex`/`RwLock` field registered with an order
//!   level in `roclock.order`, no guard held across blocking or
//!   charging calls, an acyclic workspace lock graph — validated
//!   dynamically by the `rocio_core::lockdep` witness. Exceptions live
//!   in `roclock.allow` at the workspace root, each with a reason.
//! * [`sched`] (driven by the `rocsched` binary) dynamically explores
//!   every wildcard-receive resolution order of the concurrency
//!   protocols in [`scenarios`], replacing the fabric's conservative
//!   virtual-order gate with a replayable decision oracle, and asserts
//!   snapshot byte-identity plus deadlock-freedom across all schedules.
//!
//! See DESIGN.md § Verification and § Lock discipline for the
//! soundness arguments.

pub mod lexer;
pub mod lock;
pub mod scenarios;
pub mod sched;
