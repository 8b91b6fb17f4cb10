//! The non-threaded, blocking individual-I/O module — and the read /
//! retire core both variants run on. [`Rochdf`] calls the three functions
//! below inline; [`crate::TRochdf`] calls the same `read_attribute` /
//! `retire` once its pending writes have drained, and its I/O thread
//! appends the file records its main thread laid out as they lie.

use rocio_core::{BlockDesc, Result, SimTime, SnapshotId};
use rocnet::Comm;
use rocsdf::{LibraryModel, SdfFileWriter};
use rocstore::SharedFs;

use crate::config::RochdfConfig;
use roccom::{AttrSelector, IoService, Windows};

/// Write `blocks` as one complete snapshot file at `path`, starting at
/// virtual time `now`; returns the time the file is durable.
pub(crate) fn write_snapshot_file(
    fs: &SharedFs,
    path: &str,
    lib: LibraryModel,
    client: u64,
    blocks: &[impl BlockDesc],
    now: SimTime,
) -> Result<SimTime> {
    let (mut w, mut t) = SdfFileWriter::create(fs, path, lib, client, now)?;
    for block in blocks {
        t = w.append_block(block, t)?;
    }
    w.finish(t)
}

/// Restart: read the selected window of `snap` back onto this rank's
/// panes — every rank for itself, or through the two-phase collective
/// when `cfg.read_aggregators` is positive — and charge the caller's
/// clock. "T-Rochdf performs restart in the same way as Rochdf does"
/// (§6.2): this is that way.
pub(crate) fn read_attribute(
    fs: &SharedFs,
    comm: &Comm,
    cfg: &RochdfConfig,
    windows: &mut Windows,
    sel: &AttrSelector,
    snap: SnapshotId,
) -> Result<()> {
    let t0 = comm.now();
    let t = if cfg.read_aggregators > 0 {
        crate::twophase::read_attribute_two_phase(fs, comm, cfg, windows, sel, snap)?
    } else {
        crate::restart::read_attribute_individual(fs, comm, cfg, windows, sel, snap)?
    };
    comm.advance_to(t);
    if rocobs::enabled() {
        rocobs::record(
            rocobs::SpanCategory::RestartRead,
            "restart_read",
            t0,
            comm.now(),
            &format!("window={}", sel.window),
        );
    }
    Ok(())
}

/// Individual architecture: every process deletes its own files of `snap`.
pub(crate) fn retire(
    fs: &SharedFs,
    comm: &Comm,
    cfg: &RochdfConfig,
    snap: SnapshotId,
) -> Result<()> {
    for path in fs.list(&format!("{}/", cfg.dir)) {
        if rocio_core::is_snapshot_file_of(&path, snap, comm.rank()) {
            fs.delete(&path)?;
        }
    }
    Ok(())
}

/// Blocking individual I/O: every `write_attribute` call writes this
/// process's panes to its own SDF file and returns only when the file
/// system has completed the writes.
///
/// "Having all the processors accessing files can create higher contention
/// for I/O resources and cause degradation in I/O performance" (§4.2) —
/// visible in Table 1's Rochdf row, especially the 32-processor bump.
pub struct Rochdf<'a> {
    fs: &'a SharedFs,
    comm: &'a Comm,
    cfg: RochdfConfig,
    /// Visible I/O seconds accumulated (for experiment reports).
    visible_io: f64,
    files_written: usize,
}

impl<'a> Rochdf<'a> {
    /// Create a module instance for this rank.
    pub fn new(fs: &'a SharedFs, comm: &'a Comm, cfg: RochdfConfig) -> Self {
        Rochdf {
            fs,
            comm,
            cfg,
            visible_io: 0.0,
            files_written: 0,
        }
    }

    /// Total visible I/O time this rank has spent in output calls.
    pub fn visible_io(&self) -> f64 {
        self.visible_io
    }

    /// Number of files this rank has written.
    pub fn files_written(&self) -> usize {
        self.files_written
    }
}

impl IoService for Rochdf<'_> {
    fn service_name(&self) -> &'static str {
        "rochdf"
    }

    fn write_attribute(
        &mut self,
        windows: &Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let t_enter = self.comm.now();
        // Every pane described where it lies, no `DataBlock` built; a torn
        // buffer is refused here, before the file is created.
        let window = windows.window(&sel.window)?;
        let plan = |pane| roccom::convert::plan(window, pane, &sel.attr);
        let blocks = window.panes().map(plan).collect::<Result<Vec<_>>>()?;
        if blocks.is_empty() {
            return Ok(());
        }
        // Individual I/O: every compute process writes concurrently.
        self.fs.declare_writers(self.comm.size());
        let path = self.cfg.path(&sel.window, snap, self.comm.rank());
        let client = self.comm.global_rank() as u64;
        let now = self.comm.now();
        let t = write_snapshot_file(self.fs, &path, self.cfg.lib, client, &blocks, now)?;
        self.comm.advance_to(t);
        self.files_written += 1;
        self.visible_io += self.comm.now() - t_enter;
        Ok(())
    }

    fn read_attribute(
        &mut self,
        windows: &mut Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        read_attribute(self.fs, self.comm, &self.cfg, windows, sel, snap)
    }

    fn sync(&mut self) -> Result<()> {
        // Writes are blocking: everything already durable.
        Ok(())
    }

    fn retire(&mut self, snap: SnapshotId) -> Result<()> {
        retire(self.fs, self.comm, &self.cfg, snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::{BlockId, DType};
    use rocnet::cluster::ClusterSpec;
    use rocnet::run_ranks;
    use roccom::{AttrSpec, PaneMesh};
    use rocsdf::LibraryModel;

    fn build_windows(rank: usize, n_panes: usize, fill: f64) -> Windows {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        for i in 0..n_panes {
            let id = BlockId((rank * 100 + i) as u64);
            w.register_pane(
                id,
                PaneMesh::Structured {
                    dims: [2 + i, 2, 2],
                    origin: [i as f64, 0.0, 0.0],
                    spacing: [0.5; 3],
                },
            )
            .unwrap();
            let n = w.pane(id).unwrap().data("pressure").unwrap().len();
            w.pane_mut(id)
                .unwrap()
                .set_data(
                    "pressure",
                    rocio_core::ArrayData::F64(vec![fill + id.0 as f64; n]),
                )
                .unwrap();
        }
        ws
    }

    #[test]
    fn write_then_restart_round_trips() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(0, 0);
        let checksums = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let ws = build_windows(comm.rank(), 3, 1.5);
            let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            // Sum all pressure values as a content signature.
            let mut sum = 0.0;
            for pane in ws.window("fluid").unwrap().panes() {
                sum += pane.data("pressure").unwrap().as_f64().unwrap().iter().sum::<f64>();
            }
            sum
        });
        assert_eq!(fs.n_files(), 4);
        // Restart on the same distribution, zero-filled windows.
        let restored = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let mut ws = build_windows(comm.rank(), 3, 0.0);
            // Zero the data so the read has to do the work.
            for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                    *x = 0.0;
                }
            }
            let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
            io.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
            let mut sum = 0.0;
            for pane in ws.window("fluid").unwrap().panes() {
                sum += pane.data("pressure").unwrap().as_f64().unwrap().iter().sum::<f64>();
            }
            sum
        });
        assert_eq!(checksums, restored);
    }

    #[test]
    fn restart_with_redistributed_blocks() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(0, 0);
        // Write with 4 ranks.
        run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let ws = build_windows(comm.rank(), 2, 2.0);
            let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
        });
        // Restart with 2 ranks: rank r now owns ranks {2r, 2r+1}'s blocks.
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let mut ws = Windows::new();
            let w = ws.create_window("fluid").unwrap();
            w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
            for old_rank in [comm.rank() * 2, comm.rank() * 2 + 1] {
                for i in 0..2usize {
                    let id = BlockId((old_rank * 100 + i) as u64);
                    w.register_pane(
                        id,
                        PaneMesh::Structured {
                            dims: [2 + i, 2, 2],
                            origin: [i as f64, 0.0, 0.0],
                            spacing: [0.5; 3],
                        },
                    )
                    .unwrap();
                }
            }
            let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
            io.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
            // Every pane must carry the written fill value (2.0 + id).
            let w = ws.window("fluid").unwrap();
            let ok = w.panes().all(|p| {
                let v = p.data("pressure").unwrap().as_f64().unwrap();
                v.iter().all(|&x| x == 2.0 + p.id.0 as f64)
            });
            ok
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn write_contention_raises_visible_time() {
        let snap = SnapshotId::new(0, 0);
        // 2 writers vs 16 writers on the Turing NFS model, same total data.
        let visible = |n: usize| -> f64 {
            let fs = SharedFs::turing();
            let per_rank = 16 / n;
            let out = run_ranks(n, ClusterSpec::turing(n), move |comm| {
                let ws = build_windows(comm.rank(), per_rank, 1.0);
                let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
                io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                io.visible_io()
            });
            out.into_iter().fold(0.0f64, f64::max)
        };
        let v2 = visible(2);
        let v16 = visible(16);
        // Same bytes, more writers: visible time must NOT shrink 8x; the
        // shared server keeps it in the same ballpark or worse.
        assert!(v16 > v2 * 0.6, "v2={v2}, v16={v16}");
    }

    #[test]
    fn one_file_per_rank_per_window() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(50, 1);
        run_ranks(3, ClusterSpec::ideal(3), |comm| {
            let ws = build_windows(comm.rank(), 1, 0.0);
            let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            assert_eq!(io.files_written(), 1);
            io.sync().unwrap();
        });
        assert_eq!(fs.list("out/fluid_0001_000050_w").len(), 3);
    }

    #[test]
    fn hdf5_model_writes_faster_on_many_datasets() {
        let snap = SnapshotId::new(0, 0);
        let run = |lib: LibraryModel| -> f64 {
            let fs = SharedFs::ideal();
            let out = run_ranks(1, ClusterSpec::ideal(1), move |comm| {
                let ws = build_windows(0, 200, 1.0);
                let cfg = RochdfConfig {
                    lib,
                    ..Default::default()
                };
                let mut io = Rochdf::new(&fs, &comm, cfg);
                io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                io.visible_io()
            });
            out[0]
        };
        assert!(run(LibraryModel::hdf5()) < run(LibraryModel::hdf4()));
    }
}
