//! Snapshot identifiers and output-file naming conventions.

/// Identifier of one periodic output phase.
///
/// GENx "performs extensive file output once every certain number of
/// time-steps" (§3.2); each such phase is a snapshot. Snapshots double as
/// checkpoints: "for GENx, snapshot files for visualization also serve as
/// checkpoints for restart" (§4.1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct SnapshotId {
    /// Simulation timestep at which the snapshot was taken.
    pub step: u64,
    /// Ordinal of the snapshot within the run (0 = initial snapshot).
    pub ordinal: u32,
}

impl SnapshotId {
    /// Snapshot for timestep `step` with sequence number `ordinal`.
    pub fn new(step: u64, ordinal: u32) -> Self {
        SnapshotId { step, ordinal }
    }
}

impl std::fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snap{:04}@step{:06}", self.ordinal, self.step)
    }
}

/// Canonical output file name for `(window, snapshot, writer)`.
///
/// * Individual I/O (Rochdf) uses one file per compute process per window
///   per snapshot: `writer` is the compute rank.
/// * Collective I/O (Rocpanda) uses one file per *server* per window per
///   snapshot: `writer` is the server index — which is how Rocpanda
///   "reduces the number of output files by a factor of 8" at an 8:1
///   client:server ratio (§7.1).
pub fn snapshot_file_name(window: &str, snap: SnapshotId, writer: usize) -> String {
    format!("{window}_{:04}_{:06}_w{writer:04}.sdf", snap.ordinal, snap.step)
}

/// Prefix matching every writer's file for `(window, snapshot)` — used to
/// enumerate snapshot files at restart, where the number of writers may
/// differ from the number of readers.
pub fn snapshot_file_prefix(window: &str, snap: SnapshotId) -> String {
    format!("{window}_{:04}_{:06}_w", snap.ordinal, snap.step)
}

/// Whether `path` names `writer`'s file of `snap` — for any window, under
/// any directory. What a writer retiring a snapshot asks of each listed
/// path, so the name format stays known to this module alone.
pub fn is_snapshot_file_of(path: &str, snap: SnapshotId, writer: usize) -> bool {
    path.ends_with(&snapshot_file_name("", snap, writer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let s = SnapshotId::new(50, 1);
        assert_eq!(s.to_string(), "snap0001@step000050");
    }

    #[test]
    fn file_name_is_deterministic_and_distinct() {
        let s = SnapshotId::new(100, 2);
        let a = snapshot_file_name("fluid", s, 0);
        let b = snapshot_file_name("fluid", s, 1);
        let c = snapshot_file_name("solid", s, 0);
        assert_eq!(a, "fluid_0002_000100_w0000.sdf");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prefix_matches_file_names() {
        let s = SnapshotId::new(100, 2);
        let prefix = snapshot_file_prefix("fluid", s);
        assert!(snapshot_file_name("fluid", s, 0).starts_with(&prefix));
        assert!(snapshot_file_name("fluid", s, 31).starts_with(&prefix));
        assert!(!snapshot_file_name("solid", s, 0).starts_with(&prefix));
        assert!(!snapshot_file_name("fluid", SnapshotId::new(150, 3), 0).starts_with(&prefix));
    }

    #[test]
    fn ownership_test_matches_snapshot_and_writer_only() {
        let s = SnapshotId::new(100, 2);
        for window in ["fluid", "solid_burn"] {
            let path = format!("run/t0001/{}", snapshot_file_name(window, s, 3));
            assert!(is_snapshot_file_of(&path, s, 3));
            assert!(!is_snapshot_file_of(&path, s, 13));
            assert!(!is_snapshot_file_of(&path, SnapshotId::new(100, 12), 3));
            assert!(!is_snapshot_file_of(&path, SnapshotId::new(1100, 2), 3));
        }
    }

    #[test]
    fn ordering_follows_step_then_ordinal() {
        let a = SnapshotId::new(0, 0);
        let b = SnapshotId::new(50, 1);
        assert!(a < b);
    }
}
