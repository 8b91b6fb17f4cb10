//! Shared restart path for the individual-I/O variants.
//!
//! Every compute process locates and reads its own panes' blocks from the
//! per-writer snapshot files. The writing run may have used a different
//! process count, so readers discover block locations by scanning file
//! indexes — starting with the file matching their own rank (the common
//! same-distribution case hits immediately) and falling back to the rest.
//!
//! "Its own panes" is [`roccom::Window::pane_ids`]: the panes the window
//! holds and the ids it has reserved. A restart reserves (the partition
//! says whose a pane is, the snapshot what it is) and
//! [`roccom::convert::apply_block`] builds each pane from its block —
//! mesh and buffers allocated once, from the file's bytes; a window that
//! already holds a pane gets its buffers replaced instead. The two-phase
//! ([`crate::twophase`]) and Rocpanda readers take their wanted lists
//! from the same place.

use std::collections::HashSet;

use rocio_core::{BlockId, Result, RocError, SimTime, SnapshotId};
use rocnet::Comm;
use rocsdf::SdfFileReader;
use rocstore::SharedFs;

use crate::config::RochdfConfig;
use roccom::{AttrSelector, Windows};

/// Read the selected attributes of every pane of the selector's window —
/// held or reserved — back from snapshot `snap`, individually (no
/// communication).
///
/// Returns the virtual completion time of this rank's reads.
pub(crate) fn read_attribute_individual(
    fs: &SharedFs,
    comm: &Comm,
    cfg: &RochdfConfig,
    windows: &mut Windows,
    sel: &AttrSelector,
    snap: SnapshotId,
) -> Result<SimTime> {
    let rank = comm.rank();
    let client = comm.global_rank() as u64;
    let mut now = comm.now();

    let wanted: Vec<BlockId> = windows.window(&sel.window)?.pane_ids();
    if wanted.is_empty() {
        return Ok(now);
    }
    // Every compute process restarts (reads) concurrently.
    fs.declare_readers(comm.size());
    let mut missing: HashSet<BlockId> = wanted.iter().copied().collect();

    // Candidate files: own rank's file first, then the rest in order.
    let prefix = cfg.prefix(&sel.window, snap);
    let mut files = fs.names(&prefix);
    if files.is_empty() {
        return Err(RocError::Storage(format!(
            "restart: no snapshot files under '{prefix}'"
        )));
    }
    let own = cfg.path(&sel.window, snap, rank);
    if let Some(pos) = files.iter().position(|f| **f == own) {
        files.swap(pos, 0);
    }

    for path in &files {
        if missing.is_empty() {
            break;
        }
        let (reader, t_open) = SdfFileReader::open(fs, path, cfg.lib, client, now)?;
        now = t_open;
        for id in reader.blocks() {
            if missing.remove(&id) {
                // Zero-copy read, one store call per block: the block is
                // read where it lies, its payloads windows into the file
                // image until `apply_block` decodes them into the pane.
                let (block, t) = reader.view_block(id, now)?;
                now = t;
                roccom::convert::apply_block(windows.window_mut(&sel.window)?, &block)?;
            }
        }
    }
    if !missing.is_empty() {
        let mut ids: Vec<u64> = missing.iter().map(|b| b.0).collect();
        ids.sort_unstable();
        return Err(RocError::NotFound(format!(
            "restart: blocks {ids:?} of window '{}' not found in snapshot {snap}",
            sel.window
        )));
    }
    Ok(now)
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end in rochdf.rs / trochdf.rs tests and the
    // cross-crate integration suite; unit coverage here focuses on the
    // no-panes fast path and missing-file error.
    use super::*;
    use rocnet::cluster::ClusterSpec;
    use rocnet::run_ranks;

    #[test]
    fn no_panes_is_a_noop() {
        let fs = SharedFs::ideal();
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            let mut ws = Windows::new();
            ws.create_window("fluid").unwrap();
            read_attribute_individual(
                &fs,
                &comm,
                &RochdfConfig::default(),
                &mut ws,
                &AttrSelector::all("fluid"),
                SnapshotId::new(0, 0),
            )
            .unwrap()
        });
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn missing_snapshot_errors() {
        let fs = SharedFs::ideal();
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            let mut ws = Windows::new();
            let w = ws.create_window("fluid").unwrap();
            w.register_pane(
                rocio_core::BlockId(1),
                roccom::PaneMesh::Structured {
                    dims: [1, 1, 1],
                    origin: [0.0; 3],
                    spacing: [1.0; 3],
                },
            )
            .unwrap();
            read_attribute_individual(
                &fs,
                &comm,
                &RochdfConfig::default(),
                &mut ws,
                &AttrSelector::all("fluid"),
                SnapshotId::new(0, 0),
            )
            .is_err()
        });
        assert!(out[0]);
    }
}
