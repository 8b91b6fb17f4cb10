//! The two metric tables: every end-to-end and every per-layer metric,
//! by name, with its unit and direction. `BENCHMARK.json`, the document
//! and the README are all held to these.

use crate::harness::{Better, LayerMetric};
use Better::{Higher, Lower};

/// Name, unit, direction and regression bound of every end-to-end
/// metric. A bound of 0 means "must repeat bit-exactly for one seed"
/// (`workloads::vt_tolerance` widens it to 1e-4 where the system's own
/// virtual time jitters).
pub const END_TO_END: [(&str, &str, Better, f64); 9] = [
    ("setup_s", "s", Lower, 0.25),
    ("wall_s", "s", Lower, 0.15),
    ("host_mb_s", "MB/s", Higher, 0.15),
    ("peak_rss_mib", "MiB", Lower, 0.10),
    ("alloc_mib", "MiB", Lower, 0.05),
    ("alloc_kcalls", "kcalls", Lower, 0.05),
    ("vt_io_s", "s", Lower, 0.0),
    ("vt_restart_s", "s", Lower, 0.0),
    ("fail_frac", "frac", Lower, 0.0),
];

/// Name, unit, direction and exactness of every per-layer metric, in
/// data-path order. Exact metrics — counts, virtual times, anything
/// computed from sizes — repeat for one seed and are compared for
/// equality; the rest are host-clock numbers from the traced run. A
/// workload emits the metrics of the layers its path touches.
pub const PER_LAYER: [(&str, &str, Better, bool); 45] = [
    ("roccom.pane_to_block_s", "s", Lower, false),
    ("roccom.apply_block_s", "s", Lower, false),
    ("rocio-core.checksum_mb_s", "MB/s", Higher, false),
    ("rocsdf.encode_mb_s", "MB/s", Higher, false),
    ("rocsdf.decode_mb_s", "MB/s", Higher, false),
    ("rocsdf.write_s", "s", Lower, false),
    ("rocsdf.write_self_s", "s", Lower, false),
    ("rocsdf.open_cold_s", "s", Lower, false),
    ("rocsdf.open_warm_s", "s", Lower, false),
    ("rocsdf.read_s", "s", Lower, false),
    ("rocsdf.read_sieved_s", "s", Lower, false),
    ("rocsdf.alloc_kcalls", "kcalls", Lower, false),
    ("rocstore.append_s", "s", Lower, false),
    ("rocstore.read_shared_s", "s", Lower, false),
    ("rocstore.read_sieved_s", "s", Lower, false),
    ("rocstore.sieve_waste_frac", "frac", Lower, true),
    ("rocstore.write_ops", "count", Lower, true),
    ("rocstore.read_ops", "count", Lower, true),
    ("rocstore.bytes_written", "B", Lower, true),
    ("rocstore.bytes_read", "B", Lower, true),
    ("rocstore.files_created", "count", Lower, true),
    ("rocnet.spawn_s", "s", Lower, false),
    ("rocnet.ring_us_per_msg", "us", Lower, false),
    ("rocnet.funnel_us_per_msg", "us", Lower, false),
    ("rocnet.coll_us_per_op", "us", Lower, false),
    ("rocnet.ring_us_per_msg_256", "us", Lower, false),
    ("rocnet.pingpong_us", "us", Lower, false),
    ("rocnet.msgs", "count", Lower, true),
    ("rocnet.bytes", "B", Lower, true),
    ("rocnet.vt_send_s", "s", Lower, true),
    ("rocnet.vt_recv_s", "s", Lower, true),
    ("rocnet.vt_probe_blocking_s", "s", Lower, true),
    ("rochdf.restart_same_s", "s", Lower, false),
    ("rochdf.restart_m2n_s", "s", Lower, false),
    ("rochdf.restart_twophase_s", "s", Lower, false),
    ("rochdf.restart_cold_s", "s", Lower, false),
    ("rocpanda.wire_encode_mb_s", "MB/s", Higher, false),
    ("rocpanda.wire_decode_mb_s", "MB/s", Higher, false),
    ("rocpanda.buffer_fill_spans", "count", Lower, true),
    ("rocpanda.buffer_drain_spans", "count", Lower, true),
    ("rocpanda.vt_buffer_drain_s", "s", Lower, true),
    ("rocpanda.vt_overlap_frac", "frac", Higher, true),
    ("genx.step_ms", "ms", Lower, false),
    ("rocobs.overhead_frac", "frac", Lower, false),
    ("rocobs.spans", "count", Lower, true),
];

/// The per-layer metric `name` with `value`; unit, direction and
/// exactness come from [`PER_LAYER`]. Panics on a name not in the table.
pub fn layer(name: &str, value: f64) -> LayerMetric {
    let (_, unit, better, exact) = PER_LAYER
        .iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    LayerMetric {
        name: name.to_string(),
        unit: unit.to_string(),
        better: *better,
        value,
        exact: *exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_driver_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(seen.insert(n), "{n} listed twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }

    #[test]
    fn layer_takes_unit_and_exactness_from_the_table() {
        let l = layer("rocpanda.vt_overlap_frac", 0.5);
        assert_eq!(
            (l.unit.as_str(), l.better, l.exact, l.value),
            ("frac", Higher, true, 0.5)
        );
        assert!(!layer("rocsdf.write_s", 0.1).exact);
    }
}
