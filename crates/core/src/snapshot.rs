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
    snapshot_path(None, window, snap, Some(writer))
}

/// Prefix matching every writer's file for `(window, snapshot)` — used to
/// enumerate snapshot files at restart, where the number of writers may
/// differ from the number of readers.
pub fn snapshot_file_prefix(window: &str, snap: SnapshotId) -> String {
    snapshot_path(None, window, snap, None)
}

/// `(window, snap, writer)`'s file name — or, with no writer, the prefix of
/// every writer's file — under `dir` if one is given (`dir/name`), in one
/// buffer of exactly that length.
pub fn snapshot_path(
    dir: Option<&str>,
    window: &str,
    snap: SnapshotId,
    writer: Option<usize>,
) -> String {
    let len = dir.map_or(0, |dir| dir.len() + 1) + snapshot_name_len(window, snap, writer);
    let mut out = String::with_capacity(len);
    if let Some(dir) = dir {
        out.push_str(dir);
        out.push('/');
    }
    push_snapshot_name(&mut out, window, snap, writer);
    debug_assert_eq!(out.len(), len, "snapshot_name_len disagrees with push_snapshot_name");
    out
}

/// The length in bytes of what [`push_snapshot_name`] writes.
fn snapshot_name_len(window: &str, snap: SnapshotId, writer: Option<usize>) -> usize {
    // `{window}_{ordinal:04}_{step:06}_w` then `{writer:04}.sdf`.
    let width = |n: u64, min: usize| n.checked_ilog10().map_or(1, |d| d as usize + 1).max(min);
    let prefix = window.len() + 1 + width(snap.ordinal.into(), 4) + 1 + width(snap.step, 6) + 2;
    prefix + writer.map_or(0, |w| width(w as u64, 4) + ".sdf".len())
}

/// Append `(window, snap, writer)`'s file name to `out` — or, with no
/// writer, the prefix every writer's file of `(window, snap)` starts with.
/// The one place the name format is written; it allocates only if `out`
/// has less than [`snapshot_name_len`] to spare.
fn push_snapshot_name(out: &mut String, window: &str, snap: SnapshotId, writer: Option<usize>) {
    use std::fmt::Write;
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{window}_{:04}_{:06}_w", snap.ordinal, snap.step);
    if let Some(writer) = writer {
        let _ = write!(out, "{writer:04}.sdf");
    }
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

    /// The names as files on disk spell them: one golden string per
    /// width case, so the one-buffer formatter cannot move a file name.
    #[test]
    fn names_match_their_golden_strings() {
        let cases: [(&str, SnapshotId, usize, &str, &str); 5] = [
            ("fluid", SnapshotId::new(0, 0), 0, "fluid_0000_000000_w0000.sdf", "fluid_0000_000000_w"),
            ("solid", SnapshotId::new(50, 1), 7, "solid_0001_000050_w0007.sdf", "solid_0001_000050_w"),
            (
                "burn",
                SnapshotId::new(999_999, 9999),
                9999,
                "burn_9999_999999_w9999.sdf",
                "burn_9999_999999_w",
            ),
            // Past the pad widths the digits run on, as `format!` writes them.
            (
                "fluid",
                SnapshotId::new(1_234_567, 12_345),
                123_456,
                "fluid_12345_1234567_w123456.sdf",
                "fluid_12345_1234567_w",
            ),
            (
                "w",
                SnapshotId::new(u64::MAX, u32::MAX),
                usize::MAX,
                "w_4294967295_18446744073709551615_w18446744073709551615.sdf",
                "w_4294967295_18446744073709551615_w",
            ),
        ];
        for (window, snap, writer, name, prefix) in cases {
            assert_eq!(snapshot_file_name(window, snap, writer), name);
            assert_eq!(snapshot_file_prefix(window, snap), prefix);
            assert_eq!(snapshot_name_len(window, snap, Some(writer)), name.len());
            assert_eq!(snapshot_name_len(window, snap, None), prefix.len());
            let path = snapshot_path(Some("run/t0001"), window, snap, Some(writer));
            assert_eq!(path, format!("run/t0001/{name}"));
            assert_eq!(path.capacity(), path.len(), "one exact-capacity buffer");
            assert!(is_snapshot_file_of(&path, snap, writer));
            assert!(is_snapshot_file_of(name, snap, writer));
            assert!(!is_snapshot_file_of(prefix, snap, writer));
        }
    }

    #[test]
    fn ordering_follows_step_then_ordinal() {
        let a = SnapshotId::new(0, 0);
        let b = SnapshotId::new(50, 1);
        assert!(a < b);
    }
}
