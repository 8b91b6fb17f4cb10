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
    /// Full path for `(window, snap, writer_rank)`.
    pub fn path(&self, window: &str, snap: rocio_core::SnapshotId, writer: usize) -> String {
        format!(
            "{}/{}",
            self.dir,
            rocio_core::snapshot_file_name(window, snap, writer)
        )
    }

    /// Path prefix of all writers' files for `(window, snap)`.
    pub fn prefix(&self, window: &str, snap: rocio_core::SnapshotId) -> String {
        format!(
            "{}/{}",
            self.dir,
            rocio_core::snapshot_file_prefix(window, snap)
        )
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
}
