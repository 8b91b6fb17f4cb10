//! # rocpanda
//!
//! **Rocpanda**: the paper's client-server collective parallel I/O library
//! (§4.1, §6.1) — "a special edition of the Panda parallel I/O library"
//! supporting "collective I/O with individual arrays on each client" in
//! place of Panda's regular HPF-style global arrays.
//!
//! ## Architecture
//!
//! A job of `n + m` processors splits at initialization into `n` compute
//! clients and `m` dedicated I/O servers ("the processors split into two
//! MPI communicators"). Each server owns an equal-sized group of clients.
//! On collective output, clients ship their data blocks to their server;
//! with **active buffering** the server merely buffers them and the
//! clients return to computation, while the server writes buffered blocks
//! out in the background, staying responsive by alternating between a
//! non-blocking probe (while it has writes pending) and a blocking probe
//! (when idle, letting the OS use the CPU — the Fig. 3(b) effect).
//!
//! Rocpanda writes one file per server per window per snapshot, which is
//! how it "reduces the number of output files by a factor of 8" at the
//! paper's 8:1 client:server ratio.
//!
//! ## Restart
//!
//! Restart is collective and server-count independent (§4.1): clients send
//! their block-id lists to every server; snapshot files are assigned to
//! servers round-robin; each server scans its files and ships requested
//! blocks to their (possibly new) owners — so "users can restart with a
//! different number of servers than used in the previous run".
//!
//! ## One way in: the session
//!
//! The split is performed by the session API in [`service`], and only
//! there: build a [`PandaService`] over the server pool
//! ([`PandaServiceBuilder`]), admit jobs ([`PandaService::submit`], or
//! [`PandaService::admit_world`] for the paper's one-application
//! session), and have every world rank call [`PandaService::attach`] to
//! receive its [`ServiceRole`]. A service admits *several* jobs (tenants)
//! at once, with per-tenant quotas, namespaced output
//! (`{dir}/t0001/…`), and fair cross-job drain scheduling; a single job
//! is the same path with one tenant.

pub mod client;
pub mod config;
pub mod net;
pub mod server;
pub mod service;
pub mod wire;

pub use client::PandaClient;
pub use config::RocpandaConfig;
pub use net::PandaNet;
pub use server::TenantDrainStats;
pub use service::{JobHandle, JobSpec, PandaService, PandaServiceBuilder, ServiceRole};
