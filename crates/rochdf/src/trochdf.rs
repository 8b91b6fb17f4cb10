//! T-Rochdf: multi-threaded individual I/O with background writing (§6.2).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use rocio_core::lockdep::{Condvar, Mutex};
use rocio_core::{BlockDesc, Result, RocError, Rope, SimTime, SnapshotId};
use rocnet::{Comm, VClock};
use rocsdf::BlockView;
use rocstore::SharedFs;

use crate::config::RochdfConfig;
use crate::rochdf::{read_attribute, retire, write_snapshot_file};
use roccom::{AttrRef, AttrSelector, IoService, Window, Windows};

/// Modelled memory-copy bandwidth (bytes/s) for buffering output into
/// local buffers — the only *visible* cost T-Rochdf's callers pay.
/// Calibrated to 2001-era Pentium III copy bandwidth.
const BUFFER_COPY_BW: f64 = 80e6;

/// Modelled per-block buffering overhead (allocation, bookkeeping), seconds.
const BUFFER_BLOCK_OVERHEAD: f64 = 40e-6;

/// Modelled cost of copying `bytes` in `n_blocks` blocks into a local buffer.
fn copy_cost(bytes: usize, n_blocks: usize) -> f64 {
    bytes as f64 / BUFFER_COPY_BW + n_blocks as f64 * BUFFER_BLOCK_OVERHEAD
}

/// Copy every pane of `window` into the local buffer: its block under
/// `attr`, described where it lies (`roccom::convert::plan`) and laid out
/// as its records (`rocsdf::encode_block`) — the one copy of its payload —
/// with their count; and the blocks' total encoded size
/// (`DataBlock::encoded_size`, what the copy is charged for).
fn encode_panes(window: &Window, attr: &AttrRef) -> Result<(Vec<(Rope, usize)>, usize)> {
    let mut bytes = 0;
    let blocks = window
        .panes()
        .map(|pane| {
            let layout = roccom::convert::plan(window, pane, attr)?;
            bytes += layout.encoded_size();
            Ok((rocsdf::encode_block(&[], &layout), 1 + layout.n_datasets()))
        })
        .collect::<Result<_>>()?;
    Ok((blocks, bytes))
}

enum Job {
    Write {
        path: String,
        /// Each pane's block, laid out as its records on the main thread,
        /// and how many records that is.
        blocks: Vec<(Rope, usize)>,
        /// Virtual time at which the main thread finished buffering.
        issue: SimTime,
    },
    Shutdown,
}

/// State shared between the main thread and its single persistent I/O
/// thread. "The use of a single persistent thread helps to reduce thread
/// switching overhead and avoids contention among multiple write requests"
/// (§6.2).
struct Shared {
    /// The I/O thread's virtual clock.
    io_clock: VClock,
    /// Write jobs enqueued but not yet durable.
    outstanding: Mutex<usize>,
    cv: Condvar,
    /// First error hit by the I/O thread, surfaced at the next sync point.
    error: Mutex<Option<RocError>>,
    files_written: AtomicUsize,
}

/// The multi-threaded Rochdf: `write_attribute` copies pane data into
/// local buffers — each pane's block laid out as its records, the one copy
/// of its payload — and returns; a background thread reads each block
/// where it lies in its buffer (`rocsdf::BlockView`) and performs the file
/// writes. Blocking-I/O semantics are preserved —
/// callers may reuse their buffers immediately — and the main thread only
/// waits if the previous snapshot is still being written.
pub struct TRochdf<'a> {
    fs: Arc<SharedFs>,
    comm: &'a Comm,
    cfg: RochdfConfig,
    tx: Sender<Job>,
    handle: Option<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
    last_snap: Option<SnapshotId>,
    visible_io: f64,
    finalized: bool,
}

impl<'a> TRochdf<'a> {
    /// Create the module and spawn its I/O thread.
    pub fn new(fs: Arc<SharedFs>, comm: &'a Comm, cfg: RochdfConfig) -> Self {
        let (tx, rx) = channel::<Job>();
        let shared = Arc::new(Shared {
            io_clock: VClock::new(),
            outstanding: Mutex::new("rochdf.outstanding", 0),
            cv: Condvar::new(),
            error: Mutex::new("rochdf.error", None),
            files_written: AtomicUsize::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_fs = Arc::clone(&fs);
        let client = comm.global_rank() as u64;
        let lib = cfg.lib;
        // If the spawning rank is being traced, the I/O thread records on
        // the same rank's background lane (disk-write spans land there,
        // never on the main thread's lane).
        let obs = rocobs::current_handle().map(|h| h.with_lane(rocobs::LANE_BACKGROUND));
        let handle = std::thread::Builder::new()
            .name(format!("trochdf-io-{client}"))
            .spawn(move || {
                let _obs_guard = obs.as_ref().map(|h| h.install());
                for job in rx {
                    match job {
                        Job::Shutdown => break,
                        Job::Write {
                            path,
                            blocks,
                            issue,
                        } => {
                            thread_shared.io_clock.merge(issue);
                            let now = thread_shared.io_clock.now();
                            // Each block read where it lies in the buffer.
                            let read = |(rope, n): &(Rope, usize)| {
                                BlockView::decode(&mut rope.cursor(), *n)
                            };
                            let views = blocks.iter().map(read).collect::<Result<Vec<_>>>();
                            let done = views.and_then(|views| {
                                write_snapshot_file(&thread_fs, &path, lib, client, &views, now)
                            });
                            match done {
                                Ok(t) => {
                                    thread_shared.io_clock.merge(t);
                                    thread_shared.files_written.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    thread_shared.error.lock().get_or_insert(e);
                                }
                            }
                            let mut out = thread_shared.outstanding.lock();
                            *out -= 1;
                            thread_shared.cv.notify_all();
                        }
                    }
                }
            })
            .expect("spawn T-Rochdf I/O thread");
        TRochdf {
            fs,
            comm,
            cfg,
            tx,
            handle: Some(handle),
            shared,
            last_snap: None,
            visible_io: 0.0,
            finalized: false,
        }
    }

    /// Block (physically) until all enqueued writes are durable, then merge
    /// the I/O thread's virtual clock into the caller's and surface any
    /// deferred error.
    fn drain(&mut self) -> Result<()> {
        {
            let mut out = self.shared.outstanding.lock();
            while *out > 0 {
                self.shared.cv.wait(&mut out);
            }
        }
        self.comm.clock().merge(self.shared.io_clock.now());
        if let Some(e) = self.shared.error.lock().take() {
            return Err(e);
        }
        Ok(())
    }

    /// Total visible I/O time this rank has spent in output calls.
    pub fn visible_io(&self) -> f64 {
        self.visible_io
    }

    /// Number of files the background thread has completed.
    pub fn files_written(&self) -> usize {
        self.shared.files_written.load(Ordering::Relaxed)
    }
}

impl IoService for TRochdf<'_> {
    fn service_name(&self) -> &'static str {
        "trochdf"
    }

    fn write_attribute(
        &mut self,
        windows: &Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let t_enter = self.comm.now();
        // Multiple write requests of the same snapshot buffer back-to-back;
        // a new snapshot first waits for the previous one to be durable —
        // "based on the assumption that each processor has enough memory to
        // buffer its local output data for a snapshot" (§6.2).
        if self.last_snap != Some(snap) {
            self.drain()?;
            self.last_snap = Some(snap);
        }
        let (blocks, bytes) = encode_panes(windows.window(&sel.window)?, &sel.attr)?;
        if blocks.is_empty() {
            return Ok(());
        }
        // All ranks' I/O threads write concurrently in the background.
        self.fs.declare_writers(self.comm.size());
        // The only visible cost: the local buffer copy.
        self.comm.clock().advance(copy_cost(bytes, blocks.len()));
        let path = self.cfg.path(&sel.window, snap, self.comm.rank());
        *self.shared.outstanding.lock() += 1;
        self.tx
            .send(Job::Write {
                path,
                blocks,
                issue: self.comm.now(),
            })
            .map_err(|_| RocError::InvalidState("T-Rochdf I/O thread is gone".into()))?;
        if rocobs::enabled() {
            // The main thread only pays the buffer-copy handoff; the disk
            // write itself shows up on the background lane.
            rocobs::record(
                rocobs::SpanCategory::DiskSubmit,
                "handoff",
                t_enter,
                self.comm.now(),
                &format!("bytes={bytes}"),
            );
        }
        self.visible_io += self.comm.now() - t_enter;
        Ok(())
    }

    fn read_attribute(
        &mut self,
        windows: &mut Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        // Restart must not race pending writes.
        self.drain()?;
        read_attribute(&self.fs, self.comm, &self.cfg, windows, sel, snap)
    }

    fn sync(&mut self) -> Result<()> {
        self.drain()
    }

    fn retire(&mut self, snap: SnapshotId) -> Result<()> {
        // The retired snapshot is older than the last one, and a new
        // snapshot only starts after the previous is durable — but drain
        // anyway for safety before deleting.
        self.drain()?;
        retire(&self.fs, self.comm, &self.cfg, snap)
    }

    fn finalize(&mut self) -> Result<()> {
        if self.finalized {
            return Ok(());
        }
        self.finalized = true;
        let result = self.drain();
        let _ = self.tx.send(Job::Shutdown);
        if let Some(h) = self.handle.take() {
            h.join().map_err(|_| {
                RocError::InvalidState("T-Rochdf I/O thread panicked".into())
            })?;
        }
        result
    }
}

impl Drop for TRochdf<'_> {
    fn drop(&mut self) {
        let _ = self.finalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::{ArrayData, BlockId, DType};
    use rocnet::cluster::ClusterSpec;
    use rocnet::run_ranks;
    use roccom::{AttrSpec, PaneMesh};

    #[test]
    fn copy_cost_scales() {
        let slow = copy_cost(80_000_000, 1);
        assert!((slow - (1.0 + 40e-6)).abs() < 1e-9);
        assert!(copy_cost(1000, 10) > copy_cost(1000, 1));
    }

    /// The buffer copy is charged for what the blocks would take built
    /// (`DataBlock::encoded_size`), though none is built: a pane's records
    /// are encoded where it lies. Both mesh kinds, every selector.
    #[test]
    fn the_buffer_copy_is_charged_for_the_blocks_encoded_size() {
        let mut ws = build_windows(0, 3);
        let solid = ws.create_window("solid").unwrap();
        solid
            .declare_attr(AttrSpec::node("disp", DType::F64, 3))
            .unwrap();
        solid
            .declare_attr(AttrSpec::pane("burn", DType::I32, 2))
            .unwrap();
        for id in [7, 9] {
            let tets =
                rocmesh::UnstructuredBlock::tet_box(BlockId(id), [2, 1, 1], [0.0; 3], [1.0; 3]);
            solid.register_pane(BlockId(id), tets.into()).unwrap();
        }
        let fs = Arc::new(SharedFs::ideal());
        for (window, named) in [("fluid", "pressure"), ("solid", "disp")] {
            let w = ws.window(window).unwrap();
            for attr in [
                roccom::AttrRef::All,
                roccom::AttrRef::Mesh,
                roccom::AttrRef::Named(named.into()),
            ] {
                let built = roccom::convert::window_to_blocks(w, &attr).unwrap();
                let want: usize = built.iter().map(rocio_core::DataBlock::encoded_size).sum();
                let (blocks, bytes) = encode_panes(w, &attr).unwrap();
                assert_eq!(
                    (bytes, blocks.len()),
                    (want, built.len()),
                    "{window} {attr:?}"
                );
                let visible = run_ranks(1, ClusterSpec::ideal(1), |comm| {
                    let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
                    let sel = AttrSelector {
                        window: window.into(),
                        attr: attr.clone(),
                    };
                    io.write_attribute(&ws, &sel, SnapshotId::new(0, 0))
                        .unwrap();
                    let visible = io.visible_io();
                    io.finalize().unwrap();
                    visible
                });
                assert_eq!(
                    visible[0],
                    copy_cost(want, built.len()),
                    "{window} {attr:?}"
                );
            }
        }
    }

    /// A buffer that is not whole tuples long is `write_attribute`'s own
    /// `Mismatch`, on the main thread, and nothing reaches the I/O thread.
    #[test]
    fn a_torn_buffer_fails_the_write_call_itself() {
        let mut ws = build_windows(0, 1);
        let w = ws.window_mut("fluid").unwrap();
        w.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
        let velocity = w.pane_mut(BlockId(0)).unwrap().data_mut("velocity").unwrap();
        *velocity = ArrayData::F64(vec![0.0; 3 * 64 - 2]);
        let fs = Arc::new(SharedFs::ideal());
        run_ranks(1, ClusterSpec::ideal(1), |comm| {
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            let torn = io.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(0, 0));
            assert!(matches!(torn, Err(RocError::Mismatch(_))), "{torn:?}");
            io.finalize().unwrap();
            assert_eq!(io.files_written(), 0);
        });
        assert!(fs.list("out/").is_empty());
    }

    fn build_windows(rank: usize, n_panes: usize) -> Windows {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        for i in 0..n_panes {
            let id = BlockId((rank * 100 + i) as u64);
            w.register_pane(
                id,
                PaneMesh::Structured {
                    dims: [3, 3, 3],
                    origin: [0.0; 3],
                    spacing: [1.0; 3],
                },
            )
            .unwrap();
            w.pane_mut(id)
                .unwrap()
                .set_data("pressure", ArrayData::F64(vec![id.0 as f64; 27]))
                .unwrap();
        }
        ws
    }

    #[test]
    fn background_write_then_restart() {
        let fs = Arc::new(SharedFs::turing());
        let snap = SnapshotId::new(0, 0);
        run_ranks(2, ClusterSpec::turing(2), |comm| {
            let ws = build_windows(comm.rank(), 2);
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            io.finalize().unwrap();
            assert_eq!(io.files_written(), 1);
        });
        assert_eq!(fs.list("out/").len(), 2);
        let ok = run_ranks(2, ClusterSpec::turing(2), |comm| {
            let mut ws = build_windows(comm.rank(), 2);
            for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                    *x = -1.0;
                }
            }
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
            io.finalize().unwrap();
            let ok = ws.window("fluid").unwrap().panes().all(|p| {
                p.data("pressure").unwrap().as_f64().unwrap().iter().all(|&x| x == p.id.0 as f64)
            });
            ok
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn visible_time_is_copy_only() {
        // On the Turing NFS model the actual write is expensive; T-Rochdf's
        // visible time must be a tiny fraction of the blocking Rochdf's.
        let snap = SnapshotId::new(0, 0);
        let fs_blocking = SharedFs::turing();
        let blocking = run_ranks(1, ClusterSpec::turing(1), |comm| {
            let ws = build_windows(0, 32);
            let mut io = crate::rochdf::Rochdf::new(&fs_blocking, &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            io.visible_io()
        })[0];
        let fs_bg = Arc::new(SharedFs::turing());
        let background = run_ranks(1, ClusterSpec::turing(1), |comm| {
            let ws = build_windows(0, 32);
            let mut io = TRochdf::new(Arc::clone(&fs_bg), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            let visible = io.visible_io();
            io.finalize().unwrap();
            visible
        })[0];
        assert!(
            background < blocking / 10.0,
            "background {background} not << blocking {blocking}"
        );
    }

    #[test]
    fn second_snapshot_waits_for_first() {
        let fs = Arc::new(SharedFs::turing());
        run_ranks(1, ClusterSpec::turing(1), |comm| {
            let ws = build_windows(0, 16);
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(0, 0)).unwrap();
            let after_first = comm.now();
            // No compute in between: the second snapshot must absorb the
            // first one's write time.
            io.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(50, 1)).unwrap();
            let after_second = comm.now();
            io.finalize().unwrap();
            assert!(
                after_second - after_first > (after_first) * 2.0,
                "second call should have waited: {after_first} vs {after_second}"
            );
        });
    }

    #[test]
    fn same_snapshot_multiple_windows_do_not_wait() {
        let fs = Arc::new(SharedFs::turing());
        run_ranks(1, ClusterSpec::turing(1), |comm| {
            let mut ws = build_windows(0, 8);
            {
                let w = ws.create_window("solid").unwrap();
                w.declare_attr(AttrSpec::element("stress", DType::F64, 1)).unwrap();
                w.register_pane(
                    BlockId(999),
                    PaneMesh::Structured {
                        dims: [3, 3, 3],
                        origin: [0.0; 3],
                        spacing: [1.0; 3],
                    },
                )
                .unwrap();
            }
            let snap = SnapshotId::new(0, 0);
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            let t1 = comm.now();
            io.write_attribute(&ws, &AttrSelector::all("solid"), snap).unwrap();
            let t2 = comm.now();
            // Second window of the same snapshot buffers back-to-back: only
            // copy cost, no waiting for the fluid file write.
            assert!(t2 - t1 < 0.05, "same-snapshot write waited: {}", t2 - t1);
            io.finalize().unwrap();
        });
        assert_eq!(fs.list("out/").len(), 2);
    }

    #[test]
    fn sync_waits_for_durability() {
        let fs = Arc::new(SharedFs::turing());
        run_ranks(1, ClusterSpec::turing(1), |comm| {
            let ws = build_windows(0, 16);
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(0, 0)).unwrap();
            let before_sync = comm.now();
            io.sync().unwrap();
            let after_sync = comm.now();
            assert!(after_sync > before_sync * 5.0, "sync did not absorb write time");
            io.finalize().unwrap();
        });
    }

    #[test]
    fn finalize_is_idempotent_and_drop_safe() {
        let fs = Arc::new(SharedFs::ideal());
        run_ranks(1, ClusterSpec::ideal(1), |comm| {
            let ws = build_windows(0, 1);
            let mut io = TRochdf::new(Arc::clone(&fs), &comm, RochdfConfig::default());
            io.write_attribute(&ws, &AttrSelector::all("fluid"), SnapshotId::new(0, 0)).unwrap();
            io.finalize().unwrap();
            io.finalize().unwrap();
            // Drop after finalize must not panic.
        });
    }
}
