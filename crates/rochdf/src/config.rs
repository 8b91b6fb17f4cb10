//! Configuration shared by the Rochdf variants.

use rocsdf::LibraryModel;

/// Configuration of an individual-I/O module instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RochdfConfig {
    /// Scientific-library cost model used for files (HDF4 in the paper's
    /// experiments; HDF5 available for ablations).
    pub lib: LibraryModel,
    /// Directory prefix for output files.
    pub dir: String,
    /// Number of I/O-aggregator ranks for restart reads. `0` (the default)
    /// keeps the paper's individual path — every rank reads its own
    /// blocks. Any positive value routes `read_attribute` through the
    /// two-phase collective ([`crate::twophase`]): the first
    /// `read_aggregators` ranks each read whole file domains once and
    /// redistribute over the network. Clamped to the communicator size.
    pub read_aggregators: usize,
}

impl Default for RochdfConfig {
    fn default() -> Self {
        RochdfConfig {
            lib: LibraryModel::hdf4(),
            dir: "out".into(),
            read_aggregators: 0,
        }
    }
}

impl RochdfConfig {
    /// Full path for `(window, snap, writer_rank)`, in one buffer.
    pub fn path(&self, window: &str, snap: rocio_core::SnapshotId, writer: usize) -> String {
        rocio_core::snapshot_path(Some(&self.dir), window, snap, Some(writer))
    }

    /// Path prefix of all writers' files for `(window, snap)`, in one
    /// buffer.
    pub fn prefix(&self, window: &str, snap: rocio_core::SnapshotId) -> String {
        rocio_core::snapshot_path(Some(&self.dir), window, snap, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::SnapshotId;

    #[test]
    fn paths_are_prefixed_by_dir() {
        let cfg = RochdfConfig::default();
        let snap = SnapshotId::new(50, 1);
        let p = cfg.path("fluid", snap, 3);
        assert!(p.starts_with("out/fluid_0001_000050_w0003"));
        assert!(p.starts_with(&cfg.prefix("fluid", snap)));
    }

    #[test]
    fn paths_match_their_golden_strings() {
        let cfg = RochdfConfig { dir: "run/t0002".into(), ..RochdfConfig::default() };
        let snap = SnapshotId::new(120, 3);
        let path = cfg.path("solid", snap, 17);
        assert_eq!(path, "run/t0002/solid_0003_000120_w0017.sdf");
        assert_eq!(path.capacity(), path.len(), "one exact-capacity buffer");
        let prefix = cfg.prefix("solid", snap);
        assert_eq!(prefix, "run/t0002/solid_0003_000120_w");
        assert_eq!(prefix.capacity(), prefix.len(), "one exact-capacity buffer");
        let wide = cfg.path("fluid", SnapshotId::new(1_000_000, 10_000), 10_000);
        assert_eq!(wide, "run/t0002/fluid_10000_1000000_w10000.sdf");
        assert!(rocio_core::is_snapshot_file_of(&path, snap, 17));
    }
}
