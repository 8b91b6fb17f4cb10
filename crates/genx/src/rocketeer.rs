//! Rocketeer: snapshot post-processing and summarization.
//!
//! CSAR's in-house visualization tool "Rocketeer" consumed the HDF files
//! both I/O modules produce (§3.1). This module is its analytical core:
//! it opens every file of a snapshot — regardless of whether Rochdf (one
//! file per process) or Rocpanda (one file per server) wrote it — and
//! reduces each window to field statistics and mesh bounds, the numbers a
//! plotting front-end would render.
//!
//! Because both modules write the same self-describing SDF, nothing here
//! knows or cares which I/O architecture produced the snapshot — the
//! interchangeability the paper's §5 design bought.

use std::collections::BTreeMap;

use rocio_core::{fmt_bytes, ArrayData, BlockDesc, Result, RocError, SimTime, SnapshotId};
use rocsdf::{LibraryModel, SdfFileReader};
use rocstore::SharedFs;

/// Statistics of one field across every block of a window.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FieldStats {
    pub n_values: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
}

impl FieldStats {
    fn empty() -> Self {
        FieldStats {
            n_values: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
        }
    }

    fn absorb(&mut self, values: &[f64]) {
        for &v in values {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            // Running mean.
            self.n_values += 1;
            self.mean += (v - self.mean) / self.n_values as f64;
        }
    }
}

/// Summary of one window of one snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct WindowSummary {
    pub window: String,
    pub n_blocks: usize,
    pub n_files: usize,
    pub payload_bytes: usize,
    /// Axis-aligned bounds of all mesh coordinates `[min_xyz, max_xyz]`.
    pub mesh_bounds: Option<([f64; 3], [f64; 3])>,
    /// Per-field statistics, keyed by attribute name.
    pub fields: BTreeMap<String, FieldStats>,
}

impl WindowSummary {
    /// Widen the mesh bounds to take in `coords`, points of three.
    fn absorb_coords(&mut self, coords: &[f64]) {
        let bounds = self.mesh_bounds.get_or_insert(([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]));
        for p in coords.chunks_exact(3) {
            for (d, &c) in p.iter().enumerate() {
                bounds.0[d] = bounds.0[d].min(c);
                bounds.1[d] = bounds.1[d].max(c);
            }
        }
    }
}

/// Post-process one `(window, snapshot)`: open every writer's file under
/// `dir`, aggregate statistics. Returns the summary and the virtual
/// completion time of the reads.
///
/// Files are matched by their snapshot basename anywhere under `dir`, so
/// the tool reads flat Rochdf layouts and tenant-namespaced Rocpanda
/// service layouts (`dir/t0001/…`) alike.
pub fn summarize_window(
    fs: &SharedFs,
    dir: &str,
    window: &str,
    snap: SnapshotId,
    lib: LibraryModel,
    now: SimTime,
) -> Result<(WindowSummary, SimTime)> {
    let want = rocio_core::snapshot_file_prefix(window, snap);
    let mut files = fs.names(&format!("{dir}/"));
    files.retain(|p| p.rsplit('/').next().is_some_and(|name| name.starts_with(&want)));
    if files.is_empty() {
        return Err(RocError::NotFound(format!(
            "no '{want}' snapshot files under '{dir}/'"
        )));
    }
    let mut summary = WindowSummary {
        window: window.to_string(),
        n_blocks: 0,
        n_files: files.len(),
        payload_bytes: 0,
        mesh_bounds: None,
        fields: BTreeMap::new(),
    };
    let mut t = now;
    for path in &files {
        let (reader, t_open) = SdfFileReader::open(fs, path, lib, u64::MAX, t)?;
        t = t_open;
        let (blocks, t_read) = reader.view_all_blocks(t)?;
        t = t_read;
        for block in &blocks {
            summary.n_blocks += 1;
            let mut failed = None;
            block.for_each_dataset(|ds| {
                summary.payload_bytes += ds.payload.byte_len();
                if ds.name == "conn" || failed.is_some() {
                    return;
                }
                // Reads hand back little-endian windows of the file;
                // element access needs the typed form.
                let Some(le) = ds.payload.held() else { return };
                let data = ArrayData::from_le(ds.dtype, le);
                if ds.name == "nc" {
                    match data.as_f64() {
                        Ok(coords) => summary.absorb_coords(coords),
                        Err(e) => failed = Some(e),
                    }
                } else if let Ok(values) = data.as_f64() {
                    match summary.fields.get_mut(ds.name) {
                        Some(stats) => stats.absorb(values),
                        None => {
                            let mut stats = FieldStats::empty();
                            stats.absorb(values);
                            summary.fields.insert(ds.name.to_owned(), stats);
                        }
                    }
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
        }
    }
    Ok((summary, t))
}

/// Human-readable rendering of a summary (what the tool prints).
pub fn render(summary: &WindowSummary) -> String {
    let mut out = format!(
        "window '{}': {} blocks in {} files, {} payload\n",
        summary.window,
        summary.n_blocks,
        summary.n_files,
        fmt_bytes(summary.payload_bytes)
    );
    if let Some((lo, hi)) = summary.mesh_bounds {
        out += &format!(
            "  mesh bounds: [{:.3}, {:.3}, {:.3}] .. [{:.3}, {:.3}, {:.3}]\n",
            lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]
        );
    }
    for (name, f) in &summary.fields {
        out += &format!(
            "  {name:<12} n={:<8} min={:<12.5} mean={:<12.5} max={:<12.5}\n",
            f.n_values, f.min, f.mean, f.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_genx, GenxConfig, IoChoice, WorkloadKind};
    use rocnet::cluster::ClusterSpec;
    use std::sync::Arc;

    fn run(io: IoChoice, ranks: usize) -> (Arc<SharedFs>, String, SnapshotId) {
        let fs = Arc::new(SharedFs::ideal());
        let mut cfg = GenxConfig::new(
            "rocketeer-test",
            WorkloadKind::LabScale {
                seed: 9,
                scale: 0.05,
            },
            io,
        );
        cfg.steps = 6;
        cfg.snapshot_every = 3;
        cfg.measure_restart = false;
        let dir = cfg.out_dir.clone();
        run_genx(ClusterSpec::ideal(ranks), &fs, &cfg).unwrap();
        (fs, dir, SnapshotId::new(6, 2))
    }

    #[test]
    fn summarizes_rochdf_snapshot() {
        let (fs, dir, snap) = run(IoChoice::Rochdf, 2);
        let (s, t) =
            summarize_window(&fs, &dir, "fluid", snap, LibraryModel::hdf4(), 0.0).unwrap();
        assert_eq!(s.n_files, 2);
        assert!(s.n_blocks >= 4);
        assert!(s.payload_bytes > 0);
        assert!(t > 0.0);
        // Physically meaningful ranges after 6 steps.
        let rho = &s.fields["rho"];
        assert!(rho.min > 0.5 && rho.max < 3.0, "rho range {rho:?}");
        let p = &s.fields["p"];
        assert!(p.mean > 50_000.0, "pressure mean {p:?}");
        let (lo, hi) = s.mesh_bounds.unwrap();
        assert!(lo[0] < hi[0]);
    }

    #[test]
    fn panda_and_rochdf_summaries_agree() {
        // Same physics, different I/O layouts: the post-processor must
        // compute identical statistics from both file sets.
        let (fs_a, dir_a, snap) = run(IoChoice::Rochdf, 2);
        let (fs_b, dir_b, _) = run(
            IoChoice::Rocpanda {
                server_ranks: vec![2],
            },
            3,
        );
        let (a, _) =
            summarize_window(&fs_a, &dir_a, "solid", snap, LibraryModel::hdf4(), 0.0).unwrap();
        let (b, _) =
            summarize_window(&fs_b, &dir_b, "solid", snap, LibraryModel::hdf4(), 0.0).unwrap();
        assert_eq!(a.n_blocks, b.n_blocks);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        assert_eq!(a.fields, b.fields);
        assert_eq!(a.mesh_bounds, b.mesh_bounds);
        // But the file layouts differ (that's the point).
        assert_ne!(a.n_files, b.n_files);
    }

    #[test]
    fn render_is_readable() {
        let (fs, dir, snap) = run(IoChoice::Rochdf, 1);
        let (s, _) =
            summarize_window(&fs, &dir, "burn", snap, LibraryModel::hdf4(), 0.0).unwrap();
        let text = render(&s);
        assert!(text.contains("window 'burn'"));
        assert!(text.contains("burn_rate"));
    }

    #[test]
    fn missing_snapshot_is_not_found() {
        let fs = SharedFs::ideal();
        assert!(matches!(
            summarize_window(
                &fs,
                "nowhere",
                "fluid",
                SnapshotId::new(0, 0),
                LibraryModel::hdf4(),
                0.0
            ),
            Err(RocError::NotFound(_))
        ));
    }
}
