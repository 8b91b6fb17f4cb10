//! Rocpanda configuration.

use rocsdf::LibraryModel;

/// Tunables of the Rocpanda library.
#[derive(Debug, Clone, PartialEq)]
pub struct RocpandaConfig {
    /// Scientific-library cost model for the files servers write.
    pub lib: LibraryModel,
    /// Directory prefix for output files.
    pub dir: String,
    /// Server-side active-buffer capacity in bytes. "Active buffering can
    /// use whatever memory available and handles buffer overflow
    /// gracefully" — when exceeded, the server writes buffered blocks out
    /// to make room (§6.1). GENx's servers "have enough idle memory to
    /// hold all the output data with typical client-server
    /// configurations", so the default is generous.
    pub buffer_capacity: usize,
    /// Active buffering on/off (ablation). Off = servers write each block
    /// through to the file system before acknowledging it.
    pub active_buffering: bool,
    /// Responsive (adaptive) probing on/off (ablation). On = the paper's
    /// scheme: non-blocking probe between background writes so new client
    /// requests preempt draining. Off = the server drains its entire
    /// buffer before looking at the network again.
    pub responsive_probe: bool,
    /// Flow-control window: how many unacknowledged blocks a client may
    /// have in flight. 1 = strict request/response (the conservative
    /// default); larger windows pipeline injection against server
    /// processing at the cost of transient buffering in the transport.
    pub ack_window: usize,
    /// Declare the fabric degraded: `Some(spec)` routes every Rocpanda
    /// protocol message through the reliability layer
    /// ([`rocnet::ReliableComm`] — sequence numbers, acks, retransmission),
    /// sized to survive the drop/duplicate/reorder rates in `spec`. The
    /// library does **not** install the injector itself — the driver owns
    /// the fabric and installs `rocnet::RelOnly(spec)` so only
    /// reliability-layer frames are faulted; this field makes the library
    /// defend itself. `None` (default) keeps the historical raw data path.
    pub faulty_net: Option<rocnet::FaultSpec>,
}

impl Default for RocpandaConfig {
    fn default() -> Self {
        RocpandaConfig {
            lib: LibraryModel::hdf4(),
            dir: "out".into(),
            buffer_capacity: 512 << 20,
            active_buffering: true,
            responsive_probe: true,
            ack_window: 1,
            faulty_net: None,
        }
    }
}

impl RocpandaConfig {
    /// File path for a tenant's `(window, snap, server_index)`: service
    /// tenants get a `t{id:04}/` directory under `dir` so concurrent jobs
    /// never collide.
    pub(crate) fn path_for(
        &self,
        tenant: rocio_core::TenantId,
        window: &str,
        snap: rocio_core::SnapshotId,
        server_index: usize,
    ) -> String {
        format!(
            "{}/{}{}",
            self.dir,
            tenant.path_prefix(),
            rocio_core::snapshot_file_name(window, snap, server_index)
        )
    }

    /// Path prefix of a tenant's server files for `(window, snap)`.
    pub(crate) fn prefix_for(
        &self,
        tenant: rocio_core::TenantId,
        window: &str,
        snap: rocio_core::SnapshotId,
    ) -> String {
        format!(
            "{}/{}{}",
            self.dir,
            tenant.path_prefix(),
            rocio_core::snapshot_file_prefix(window, snap)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::SnapshotId;

    #[test]
    fn default_enables_the_papers_optimizations() {
        let c = RocpandaConfig::default();
        assert!(c.active_buffering);
        assert!(c.responsive_probe);
        assert!(c.buffer_capacity > 100 << 20);
        // Trusted fabric by default: no reliability-layer overhead.
        assert!(c.faulty_net.is_none());
    }

    #[test]
    fn tenant_paths_are_namespaced_and_use_server_index() {
        let c = RocpandaConfig::default();
        let snap = SnapshotId::new(50, 1);
        use rocio_core::TenantId;
        let p0 = c.path_for(TenantId(2), "fluid", snap, 0);
        let p1 = c.path_for(TenantId(2), "fluid", snap, 1);
        assert_ne!(p0, p1);
        // Each tenant gets its own directory, shared by all its servers.
        assert!(p0.starts_with(&format!("{}/t0002/", c.dir)), "{p0}");
        assert!(p0.starts_with(&c.prefix_for(TenantId(2), "fluid", snap)));
        assert!(p1.starts_with(&c.prefix_for(TenantId(2), "fluid", snap)));
        assert!(!p0.starts_with(&c.prefix_for(TenantId(1), "fluid", snap)));
    }
}
