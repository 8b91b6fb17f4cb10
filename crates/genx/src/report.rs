//! Run reports: the metrics the paper's tables and figures are made of.

use rocio_core::SimTime;

/// Aggregate result of one GENx job.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Free-form label ("rochdf/16", "rocpanda/15S/128"…).
    pub label: String,
    /// I/O module that was active.
    pub io_module: String,
    /// Compute processors (clients).
    pub n_compute: usize,
    /// Dedicated I/O servers (0 for the individual architectures).
    pub n_servers: usize,
    /// Timesteps computed.
    pub steps: u64,
    /// Snapshots taken (including the initial one).
    pub snapshots: u32,
    /// "Total time spent on time-step iterations" — max over clients.
    pub comp_time: SimTime,
    /// "Total time spent in calls to the output interfaces" — max over
    /// clients.
    pub visible_io: SimTime,
    /// Restart (collective read of one snapshot) latency — max over
    /// clients; 0 when not measured.
    pub restart_time: SimTime,
    /// Whether the restarted state matched the live state bit-for-bit.
    pub restart_ok: bool,
    /// Output files produced by the run.
    pub n_files: usize,
    /// Bytes written to the file system by the run.
    pub bytes_written: u64,
    /// Snapshot payload size (sum over blocks of one snapshot).
    pub snapshot_bytes: u64,
    /// "Apparent aggregate write throughput computed by dividing the total
    /// output data size by the total visible output cost" (§7.2), MB/s.
    pub apparent_write_mb_s: f64,
}

impl RunReport {
    /// Paper-style MB/s from totals.
    pub(crate) fn apparent_throughput(total_bytes: u64, visible: SimTime) -> f64 {
        if visible <= 0.0 {
            return f64::INFINITY;
        }
        total_bytes as f64 / 1e6 / visible
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} n={:<4} m={:<3} comp={:>9.2}s visible-io={:>8.3}s restart={:>7.2}s files={:<5} {:>8.1} MB/s{}",
            self.label,
            self.n_compute,
            self.n_servers,
            self.comp_time,
            self.visible_io,
            self.restart_time,
            self.n_files,
            self.apparent_write_mb_s,
            if self.restart_ok { "" } else { "  RESTART-MISMATCH" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            label: "rocpanda/16".into(),
            io_module: "rocpanda".into(),
            n_compute: 16,
            n_servers: 2,
            steps: 200,
            snapshots: 5,
            comp_time: 846.64,
            visible_io: 2.40,
            restart_time: 69.9,
            restart_ok: true,
            n_files: 10,
            bytes_written: 320 << 20,
            snapshot_bytes: 64 << 20,
            apparent_write_mb_s: 139.8,
        }
    }

    #[test]
    fn throughput_formula_matches_paper_definition() {
        // 320 MB over 2.4 s of visible cost ≈ 139.8 MB/s.
        let t = RunReport::apparent_throughput(320 << 20, 2.4);
        assert!((t - (320u64 << 20) as f64 / 1e6 / 2.4).abs() < 1e-9);
        assert!(RunReport::apparent_throughput(1, 0.0).is_infinite());
    }

    #[test]
    fn display_is_one_line_with_key_fields() {
        let s = sample().to_string();
        assert!(!s.contains('\n'));
        assert!(s.contains("rocpanda/16"));
        assert!(s.contains("846.64"));
        assert!(!s.contains("RESTART-MISMATCH"));
        let mut bad = sample();
        bad.restart_ok = false;
        assert!(bad.to_string().contains("RESTART-MISMATCH"));
    }

    #[test]
    fn serde_round_trip() {
        let r = sample();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
