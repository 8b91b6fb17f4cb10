//! The Rocpanda client side: the [`IoService`] the simulation sees.

use std::collections::HashSet;

use rocio_core::{BlockDesc, Result, RocError, Rope, ServiceErrorKind, SnapshotId, TenantId};
use rocnet::Comm;
use rocsdf::BlockView;

use crate::config::RocpandaConfig;
use crate::net::PandaNet;
use crate::wire::{self, tag, ReadReq, WriteReq};
use roccom::{AttrSelector, IoService, Window, Windows};

/// Modelled client-side bandwidth (bytes/s) of packing panes into block
/// messages.
const CLIENT_PACK_BW: f64 = 200e6;

/// A Rocpanda compute client.
///
/// `write_attribute` ships this process's blocks to its assigned server
/// and returns as soon as the server has *buffered* them (active
/// buffering): "the clients return to computation when all the output data
/// are buffered at the servers" (§6.1). One ACK per block provides flow
/// control, so a slow or busy server back-pressures its clients — the
/// handshaking cost the paper observes on Turing.
pub struct PandaClient<'a> {
    world: &'a Comm,
    /// Data-plane transport to the servers (raw, or reliable when
    /// `cfg.faulty_net` is set). Every protocol message goes through here.
    net: PandaNet<'a>,
    client_comm: Comm,
    cfg: RocpandaConfig,
    /// The tenant this client writes as.
    tenant: TenantId,
    /// World rank of this client's assigned server.
    pub(crate) my_server: usize,
    server_ranks: Vec<usize>,
    visible_io: f64,
    finalized: bool,
}

impl<'a> PandaClient<'a> {
    pub(crate) fn new(
        world: &'a Comm,
        client_comm: Comm,
        cfg: RocpandaConfig,
        tenant: TenantId,
        my_server: usize,
        server_ranks: Vec<usize>,
    ) -> Self {
        PandaClient {
            world,
            net: PandaNet::new(world, cfg.faulty_net.is_some()),
            client_comm,
            cfg,
            tenant,
            my_server,
            server_ranks,
            visible_io: 0.0,
            finalized: false,
        }
    }

    /// The tenant this client writes as.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Total visible I/O time this rank has spent in output calls.
    pub fn visible_io(&self) -> f64 {
        self.visible_io
    }

    /// Ship `blocks` of `window` to this client's server for `snap`:
    /// announce, send under the ack window, wait until all are buffered.
    fn write_blocks(
        &mut self,
        window: &str,
        blocks: &[impl BlockDesc],
        snap: SnapshotId,
    ) -> Result<()> {
        // Announce (collective: even a pane-less client announces, so the
        // server knows when a file is complete).
        let req = WriteReq {
            snap,
            window: window.to_owned(),
            n_blocks: blocks.len() as u32,
        };
        self.net.send(self.my_server, tag::WRITE_REQ, &req.encode())?;
        let ack_window = self.cfg.ack_window.max(1);
        let mut in_flight = 0usize;
        for block in blocks {
            // One staging buffer for the headers, one image for the
            // payloads, encoded from the pane where it lies.
            let wire = wire::encode_block_msg(snap, window, block);
            // Client-side packing cost.
            self.world.advance(wire.len() as f64 / CLIENT_PACK_BW);
            // Flow control: at most `ack_window` unacknowledged blocks.
            while in_flight >= ack_window {
                self.net.recv(Some(self.my_server), Some(tag::ACK))?;
                in_flight -= 1;
            }
            self.net.send_rope(self.my_server, tag::BLOCK, wire)?;
            in_flight += 1;
        }
        while in_flight > 0 {
            self.net.recv(Some(self.my_server), Some(tag::ACK))?;
            in_flight -= 1;
        }
        self.net.recv(Some(self.my_server), Some(tag::DONE))?;
        Ok(())
    }
}

/// Apply one server's `READ_BATCH` to `window`: each block's file records,
/// checked here, by the client that owns them, then decoded into its pane.
/// A block seen before is refused; the first failure ends the batch.
fn apply_batch(window: &mut Window, batch: &Rope, seen: &mut HashSet<u64>, got: &mut u64) -> Result<()> {
    BlockView::receive_batch(batch, |block| {
        *got += 1;
        if !seen.insert(block.id().0) {
            let twice = format!("restart: block {} delivered twice", block.id());
            return Err(RocError::Corrupt(twice));
        }
        roccom::convert::apply_block(window, &block)
    })
}

impl IoService for PandaClient<'_> {
    fn service_name(&self) -> &'static str {
        "rocpanda"
    }

    fn write_attribute(
        &mut self,
        windows: &Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let t_enter = self.world.now();
        let window = windows.window(&sel.window)?;
        let panes = window
            .panes()
            .map(|pane| roccom::convert::plan(window, pane, &sel.attr));
        self.write_blocks(&sel.window, &panes.collect::<Result<Vec<_>>>()?, snap)?;
        self.visible_io += self.world.now() - t_enter;
        Ok(())
    }

    fn read_attribute(
        &mut self,
        windows: &mut Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let wanted: Vec<u64> = windows
            .window(&sel.window)?
            .pane_ids()
            .iter()
            .map(|b| b.0)
            .collect();
        let req = ReadReq {
            snap,
            window: sel.window.clone(),
            ids: wanted.clone(),
        };
        // Collective: every client asks every server; the files may have
        // been written by a run with a different server count.
        let payload = req.encode();
        for &s in &self.server_ranks {
            self.net.send(s, tag::READ_REQ, &payload)?;
        }
        let t_read0 = self.world.now();
        let mut dones = 0usize;
        let (mut shipped, mut got) = (0u64, 0u64);
        let mut seen: HashSet<u64> = HashSet::new();
        // The first failure met — a server's, a block's, a block delivered
        // twice — surfaced once the drain is over. A link does not reorder,
        // so once every server's last message is in, so is every batch.
        let mut failure: Option<RocError> = None;
        while dones < self.server_ranks.len() {
            let msg = self.net.recv_rope(None, None)?;
            match msg.tag {
                tag::READ_BATCH => {
                    let window = windows.window_mut(&sel.window)?;
                    let applied = apply_batch(window, &msg.payload, &mut seen, &mut got);
                    failure = failure.or(applied.err());
                }
                tag::READ_DONE => {
                    shipped += u64::from(wire::decode_read_done(&msg.payload.into_bytes())?);
                    dones += 1;
                }
                tag::READ_ERR => {
                    // The server's scan failed; it reports instead of
                    // shipping. Keep draining so every server's terminal
                    // message is consumed, then surface the first error.
                    let text = String::from_utf8_lossy(&msg.payload.into_bytes()).into_owned();
                    failure.get_or_insert(RocError::Storage(format!(
                        "restart failed at server rank {}: {text}",
                        msg.src
                    )));
                    dones += 1;
                }
                other => {
                    return Err(RocError::Comm(format!(
                        "panda client: unexpected tag {other:#x} during restart"
                    )))
                }
            }
        }
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::RestartRead,
                "read_attribute",
                t_read0,
                self.world.now(),
                &format!("window={} blocks={got}", sel.window),
            );
        }
        if let Some(e) = failure {
            return Err(e);
        }
        let mut missing: Vec<u64> = wanted.iter().copied().filter(|id| !seen.contains(id)).collect();
        if !missing.is_empty() || got != wanted.len() as u64 || got != shipped {
            missing.sort_unstable();
            return Err(RocError::NotFound(format!(
                "restart: wanted {} blocks of '{}', received {got}; blocks {missing:?} not found \
                 in snapshot {snap}",
                wanted.len(),
                sel.window,
            )));
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.net.send(self.my_server, tag::SYNC, &[])?;
        let ack = self.net.recv(Some(self.my_server), Some(tag::SYNC_ACK))?;
        // The ack carries the server's disk-durability watermark — or the
        // tenant's sticky drain failure (e.g. a quota rejection during a
        // background drain), surfaced here as a structured service error.
        match wire::decode_sync_ack(&ack.payload)? {
            Ok(watermark) => {
                self.world.advance_to(watermark);
                Ok(())
            }
            Err(text) => Err(rocio_core::ServiceError::err(
                self.tenant,
                ServiceErrorKind::Drain(text),
            )),
        }
    }

    fn retire(&mut self, snap: SnapshotId) -> Result<()> {
        // One client per server group requests the deletion; everyone
        // synchronizes so no client proceeds while files vanish.
        self.client_comm.barrier()?;
        if self.client_comm.rank() == 0 {
            for &s in &self.server_ranks {
                self.net.send(s, tag::RETIRE, &wire::encode_retire(snap))?;
                self.net.recv(Some(s), Some(tag::RETIRE_ACK))?;
            }
        }
        self.client_comm.barrier()?;
        Ok(())
    }

    fn finalize(&mut self) -> Result<()> {
        if self.finalized {
            return Ok(());
        }
        self.finalized = true;
        // Collective: wait for every client to finish writing BEFORE any
        // sync reaches a server (a premature flush would interleave disk
        // drains with another client's in-flight blocks), then sync, then
        // one client delivers the shutdowns. A drain error from the sync
        // (e.g. a quota-rejected snapshot) must not abort teardown — the
        // shutdowns still go out so the servers exit, and the error is
        // surfaced after.
        self.client_comm.barrier()?;
        let sync_result = self.sync();
        self.client_comm.barrier()?;
        if self.client_comm.rank() == 0 {
            for &s in &self.server_ranks {
                self.net.send(s, tag::SHUTDOWN, &[])?;
            }
        }
        // On a degraded fabric, hold the rank until every frame it sent is
        // acknowledged — in particular the SHUTDOWNs, which have no
        // application-level reply to prove their delivery.
        self.net.drain();
        sync_result
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;

    use crate::server::ServerStats;
    use crate::wire::BlockMsg;
    use crate::{PandaClient, PandaServiceBuilder, RocpandaConfig, ServiceRole};
    use rocio_core::{ArrayData, BlockId, DType, RocError, Rope, SnapshotId};
    use rocsdf::BlockView;
    use rocnet::cluster::ClusterSpec;
    use rocnet::{Comm, Fabric};
    use roccom::{AttrSelector, AttrSpec, IoService, PaneMesh, Windows};
    use rocstore::SharedFs;

    fn build_windows(client_index: usize, n_panes: usize) -> Windows {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        for i in 0..n_panes {
            let id = BlockId((client_index * 100 + i) as u64);
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

    fn sum_pressure(ws: &Windows) -> f64 {
        ws.window("fluid")
            .unwrap()
            .panes()
            .map(|p| p.data("pressure").unwrap().as_f64().unwrap().iter().sum::<f64>())
            .sum()
    }

    /// Overwrite every pressure value, so a restart has to do the work.
    fn scribble(ws: &mut Windows, value: f64) {
        for pane in ws.window_mut("fluid").unwrap().panes_mut() {
            for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                *x = value;
            }
        }
    }

    /// Every pane holds the value `build_windows` gave it (its block id).
    fn holds_written_values(ws: &Windows) -> bool {
        ws.window("fluid").unwrap().panes().all(|p| {
            p.data("pressure").unwrap().as_f64().unwrap().iter().all(|&x| x == p.id.0 as f64)
        })
    }

    fn ideal(n: usize) -> Arc<Fabric> {
        Arc::new(Fabric::new(ClusterSpec::ideal(n)))
    }

    /// One Rocpanda session on `fabric`: a service over `fs` with every
    /// non-server rank admitted as one job. Servers serve until shutdown;
    /// each client runs `client(world, io, app)`. Returns the clients'
    /// results in rank order and the servers' statistics in index order.
    fn run_job<T: Send>(
        fs: &Arc<SharedFs>,
        cfg: &RocpandaConfig,
        servers: &[usize],
        fabric: &Arc<Fabric>,
        client: impl Fn(&Comm, &mut PandaClient<'_>, &Comm) -> T + Send + Sync,
    ) -> (Vec<T>, Vec<ServerStats>) {
        let svc = PandaServiceBuilder::new(Arc::clone(fs))
            .servers(servers)
            .config(cfg.clone())
            .build()
            .unwrap();
        svc.admit_world("job", fabric.n_ranks()).unwrap();
        let out = rocnet::harness::run_on_fabric(fabric, &|world: Comm| {
            match svc.attach(&world).unwrap() {
                ServiceRole::Server(mut s) => {
                    let stats = s.run().unwrap();
                    assert_eq!(s.buffered_bytes, 0, "a drained server holds no bytes");
                    Err(stats)
                }
                ServiceRole::Client { mut io, comm: app, .. } => Ok(client(&world, &mut io, &app)),
                ServiceRole::Idle => unreachable!("admit_world leaves no rank idle"),
            }
        });
        let (mut clients, mut stats) = (Vec::new(), Vec::new());
        for o in out {
            match o {
                Ok(c) => clients.push(c),
                Err(s) => stats.push(s),
            }
        }
        (clients, stats)
    }

    /// 4 clients + 2 servers: write a snapshot, verify files, restart.
    #[test]
    fn collective_write_and_restart() {
        let fs = Arc::new(SharedFs::ideal());
        let cfg = RocpandaConfig::default();
        let snap = SnapshotId::new(0, 0);
        let (sums, _) = run_job(&fs, &cfg, &[0, 3], &ideal(6), |_, c, app| {
            let ws = build_windows(app.rank(), 2);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
            sum_pressure(&ws)
        });
        // One file per server (factor-of-2 reduction vs 4 clients).
        assert_eq!(fs.list("out/").len(), 2);

        // Restart with the same distribution.
        let (restored, _) = run_job(&fs, &cfg, &[0, 3], &ideal(6), |_, c, app| {
            let mut ws = build_windows(app.rank(), 2);
            scribble(&mut ws, -7.0);
            c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
            sum_pressure(&ws)
        });
        assert_eq!(sums.iter().sum::<f64>(), restored.iter().sum::<f64>());
    }

    /// The copy census pinned by address: a snapshot byte is materialised
    /// once — here by `pane_to_block`, whose payloads a block's encoding
    /// holds by refcount as it does a pane's payload image — and the
    /// message, the server's buffer, the staged record and the file's
    /// extent are all that one allocation.
    #[test]
    fn the_files_payload_extents_are_the_buffers_pane_to_block_made() {
        let fs = Arc::new(SharedFs::ideal());
        let snap = SnapshotId::new(0, 0);
        let (sent, _) = run_job(&fs, &RocpandaConfig::default(), &[0], &ideal(2), |_, c, app| {
            let ws = build_windows(app.rank(), 2);
            let window = ws.window("fluid").unwrap();
            let blocks = roccom::convert::window_to_blocks(window, &roccom::AttrRef::All).unwrap();
            let payloads: Vec<(usize, usize)> = blocks
                .iter()
                .flat_map(|b| &b.datasets)
                .filter(|ds| !ds.is_empty())
                .map(|ds| (ds.data.bytes().as_ptr() as usize, ds.byte_len()))
                .collect();
            c.write_blocks("fluid", &blocks, snap).unwrap();
            c.sync().unwrap();
            c.finalize().unwrap();
            payloads
        });
        let extents: Vec<(usize, usize)> = fs
            .list("out/")
            .iter()
            .flat_map(|path| fs.image(path).unwrap().parts().to_vec())
            .map(|e| (e.as_ptr() as usize, e.len()))
            .collect();
        assert!(sent[0].len() >= 4, "two blocks of mesh and pressure: {:?}", sent[0]);
        for &(at, len) in &sent[0] {
            assert!(
                extents.iter().any(|&(base, n)| base <= at && at + len <= base + n),
                "the {len} payload bytes at {at:#x} reached the file as a copy"
            );
        }
    }

    /// One write+restart cycle on `fabric`, with `faulty_net` declared as
    /// given. Returns (file name → bytes, restored pressure sum).
    fn write_restart_cycle(
        fabric: &Arc<Fabric>,
        faulty: Option<rocnet::FaultSpec>,
    ) -> (std::collections::BTreeMap<String, Vec<u8>>, f64) {
        let fs = Arc::new(SharedFs::ideal());
        let snap = SnapshotId::new(7, 0);
        let cfg = RocpandaConfig {
            faulty_net: faulty,
            ..Default::default()
        };
        let (sums, _) = run_job(&fs, &cfg, &[0, 3], fabric, |_, c, app| {
            let mut ws = build_windows(app.rank(), 2);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.sync().unwrap();
            scribble(&mut ws, -7.0);
            c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
            sum_pressure(&ws)
        });
        let files = fs
            .list("out/")
            .into_iter()
            .map(|p| {
                let (bytes, _) = fs.read_all_shared(&p, u64::MAX, 0.0).unwrap();
                (p, bytes.to_vec())
            })
            .collect();
        (files, sums.iter().sum())
    }

    /// The tentpole end-to-end property at unit scale: with the fabric
    /// dropping, duplicating and reordering reliability-layer frames, the
    /// full write → sync → restart → shutdown cycle completes and the SDF
    /// files are byte-identical to a clean-fabric run.
    #[test]
    fn chaotic_fabric_round_trip_is_byte_identical() {
        let (clean_files, clean_sum) = write_restart_cycle(&ideal(6), None);
        for seed in [1u64, 2, 3] {
            let spec = rocnet::FaultSpec::chaos(seed, 0.10);
            let fabric = ideal(6);
            fabric.set_fault_injector(Arc::new(rocnet::RelOnly(spec)));
            let (files, sum) = write_restart_cycle(&fabric, Some(spec));
            assert!(
                fabric.fault_stats().total() > 0,
                "seed {seed}: the injector never fired"
            );
            assert_eq!(sum, clean_sum, "seed {seed}: restart restored wrong data");
            assert_eq!(files, clean_files, "seed {seed}: files differ from clean run");
        }
    }

    /// Declaring the fabric faulty without installing an injector (the
    /// reliability layer runs, nothing is actually faulted) changes no
    /// output byte — the protocol rides inside DATA frames unmodified.
    #[test]
    fn reliability_layer_alone_changes_no_output_byte() {
        let (clean_files, clean_sum) = write_restart_cycle(&ideal(6), None);
        let spec = rocnet::FaultSpec::none(9);
        let (files, sum) = write_restart_cycle(&ideal(6), Some(spec));
        assert_eq!(sum, clean_sum);
        assert_eq!(files, clean_files);
    }

    /// Restart with a different server count and a different block
    /// distribution than the writing run (§4.1's flexibility claims).
    #[test]
    fn restart_with_different_servers_and_distribution() {
        let fs = Arc::new(SharedFs::ideal());
        let cfg = RocpandaConfig::default();
        let snap = SnapshotId::new(50, 1);
        // Write: 4 clients + 2 servers.
        run_job(&fs, &cfg, &[0, 3], &ideal(6), |_, c, app| {
            let ws = build_windows(app.rank(), 2);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
        });
        // Restart: 2 clients + 1 server; each new client owns two old
        // clients' blocks.
        let (ok, _) = run_job(&fs, &cfg, &[0], &ideal(3), |_, c, app| {
            let me = app.rank();
            let mut ws = Windows::new();
            let w = ws.create_window("fluid").unwrap();
            w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
            for old in [me * 2, me * 2 + 1] {
                for i in 0..2usize {
                    w.register_pane(
                        BlockId((old * 100 + i) as u64),
                        PaneMesh::Structured {
                            dims: [3, 3, 3],
                            origin: [0.0; 3],
                            spacing: [1.0; 3],
                        },
                    )
                    .unwrap();
                }
            }
            c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
            holds_written_values(&ws)
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Active buffering hides the write cost: on a slow file system the
    /// client's visible time must be far below the actual write time.
    #[test]
    fn active_buffering_hides_write_cost() {
        let snap = SnapshotId::new(0, 0);
        let visible_with = run_panda(true, snap);
        let visible_without = run_panda(false, snap);
        assert!(
            visible_with < visible_without / 3.0,
            "buffered {visible_with} not << unbuffered {visible_without}"
        );
    }

    fn run_panda(active_buffering: bool, snap: SnapshotId) -> f64 {
        let fs = Arc::new(SharedFs::turing());
        let cfg = RocpandaConfig {
            active_buffering,
            ..Default::default()
        };
        let fabric = Arc::new(Fabric::new(ClusterSpec::turing(3)));
        let (visible, _) = run_job(&fs, &cfg, &[0], &fabric, |_, c, app| {
            // Large blocks so disk time dominates protocol overhead.
            let mut ws = Windows::new();
            let w = ws.create_window("fluid").unwrap();
            w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
            for i in 0..8u64 {
                w.register_pane(
                    BlockId(app.rank() as u64 * 100 + i),
                    PaneMesh::Structured {
                        dims: [20, 20, 20],
                        origin: [0.0; 3],
                        spacing: [1.0; 3],
                    },
                )
                .unwrap();
            }
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            let v = c.visible_io();
            c.finalize().unwrap();
            v
        });
        visible.into_iter().fold(0.0f64, f64::max)
    }

    /// sync() waits for buffered data to be durable.
    #[test]
    fn sync_flushes_buffers() {
        let fs = Arc::new(SharedFs::turing());
        let snap = SnapshotId::new(0, 0);
        let fabric = Arc::new(Fabric::new(ClusterSpec::turing(2)));
        let (_, stats) = run_job(&fs, &RocpandaConfig::default(), &[0], &fabric, |world, c, _| {
            let ws = build_windows(0, 8);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            let before = world.now();
            c.sync().unwrap();
            assert!(world.now() > before, "sync must cost time on a slow FS");
            c.finalize().unwrap();
        });
        assert_eq!(stats[0].blocks_written, stats[0].blocks_buffered);
        assert!(stats[0].files_finished >= 1);
        // After shutdown, the file must be complete and readable.
        let files = fs.list("out/");
        assert_eq!(files.len(), 1);
        let (r, _) = rocsdf::SdfFileReader::open(
            &fs,
            &files[0],
            rocsdf::LibraryModel::hdf4(),
            0,
            0.0,
        )
        .unwrap();
        assert_eq!(r.block_ids().len(), 8);
    }

    /// The drain gives the buffer back exactly what intake charged it:
    /// with room for one snapshot's wire bytes and a sync after each
    /// snapshot, the ninth fits as the first did. Were any part of a
    /// drained block — its routing header, its record-name prefixes —
    /// left charged, a long-lived server would creep toward "full" and
    /// degrade to write-through.
    #[test]
    fn buffer_sized_for_one_snapshot_never_overflows() {
        let fs = Arc::new(SharedFs::ideal());
        let all = AttrSelector::all("fluid");
        let wire_bytes = |client: usize| -> usize {
            let ws = build_windows(client, 3);
            roccom::convert::window_to_blocks(ws.window("fluid").unwrap(), &all.attr)
                .unwrap()
                .into_iter()
                .map(|block| {
                    let msg = BlockMsg {
                        snap: SnapshotId::new(0, 0),
                        window: "fluid".into(),
                        block,
                    };
                    msg.encode().len()
                })
                .sum()
        };
        let cfg = RocpandaConfig {
            buffer_capacity: wire_bytes(0) + wire_bytes(1),
            ack_window: 64,
            ..Default::default()
        };
        let (_, stats) = run_job(&fs, &cfg, &[0], &ideal(3), |_, c, app| {
            let ws = build_windows(app.rank(), 3);
            for i in 0..9 {
                c.write_attribute(&ws, &all, SnapshotId::new(10 * i, i as u32)).unwrap();
                c.sync().unwrap();
            }
            c.finalize().unwrap();
        });
        assert_eq!(stats[0].blocks_written, 9 * 6);
        assert_eq!(stats[0].buffer_overflows, 0, "occupancy leaked across snapshots");
    }

    /// Tiny buffer capacity forces graceful overflow, and nothing is lost.
    /// The wide ACK window lets every block be legitimately in flight at
    /// once — with the default window of 1 the per-block handshake paces
    /// the client to the server's writes and the buffer can never fill.
    #[test]
    fn buffer_overflow_writes_through() {
        let fs = Arc::new(SharedFs::ideal());
        let snap = SnapshotId::new(0, 0);
        let cfg = RocpandaConfig {
            buffer_capacity: 4096, // a couple of blocks at most
            ack_window: 64,
            ..Default::default()
        };
        let (_, stats) = run_job(&fs, &cfg, &[0], &ideal(2), |_, c, _| {
            let ws = build_windows(0, 12);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
        });
        let st = stats[0];
        assert!(st.buffer_overflows > 0, "tiny buffer must overflow");
        assert_eq!(st.blocks_written, 12);
        assert_eq!(st.files_finished, 1);
    }

    /// Non-divisible client:server ratios: the client→server assignment
    /// must agree with the servers' own group partition (regression for a
    /// deadlock found by the protocol property test), including the
    /// degenerate more-servers-than-clients case where some groups are
    /// empty.
    #[test]
    fn uneven_and_empty_server_groups_round_trip() {
        for (n_clients, server_ranks) in [
            (3usize, vec![3usize, 4]),    // 3 clients, 2 servers (3/2 uneven)
            (1, vec![1, 2]),              // 1 client, 2 servers (one group empty)
            (5, vec![5, 6, 7]),           // 5 clients, 3 servers
        ] {
            let fs = Arc::new(SharedFs::ideal());
            let snap = SnapshotId::new(0, 0);
            let fabric = ideal(n_clients + server_ranks.len());
            let cfg = RocpandaConfig::default();
            let (ok, _) = run_job(&fs, &cfg, &server_ranks, &fabric, |_, c, app| {
                let mut ws = build_windows(app.rank(), 2);
                c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                scribble(&mut ws, -3.0);
                c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                c.finalize().unwrap();
                holds_written_values(&ws)
            });
            assert!(ok.iter().all(|&b| b), "{n_clients} clients failed");
        }
    }

    /// A file's record dies with its file, its restart rounds do not: a
    /// snapshot written, restarted, retired, written again under the same
    /// name and restarted again comes back as it was last written, on a
    /// pool where one server has no client of the tenant and knows the
    /// file from restart traffic alone. (A server that forgot the round
    /// count at retire would fall an epoch behind its peer; answering
    /// flush tokens on receipt carries them through one more restart, and
    /// the one after that hangs on a round nobody else is in.)
    #[test]
    fn a_retired_snapshot_can_be_rewritten_and_restarted_again() {
        let snap = SnapshotId::new(30, 0);
        let all = AttrSelector::all("fluid");
        let fs = Arc::new(SharedFs::ideal());
        let cfg = RocpandaConfig::default();
        let (ok, stats) = run_job(&fs, &cfg, &[1, 2], &ideal(3), |_, c, app| {
            let mut ws = build_windows(app.rank(), 2);
            c.write_attribute(&ws, &all, snap).unwrap();
            scribble(&mut ws, -3.0);
            c.read_attribute(&mut ws, &all, snap).unwrap();
            let first = holds_written_values(&ws);
            c.retire(snap).unwrap();
            // The second life of the name holds other values.
            scribble(&mut ws, 42.5);
            let rewritten = ws.clone();
            c.write_attribute(&ws, &all, snap).unwrap();
            let mut again = true;
            for _ in 0..2 {
                scribble(&mut ws, -3.0);
                c.read_attribute(&mut ws, &all, snap).unwrap();
                again &= ws == rewritten;
            }
            c.finalize().unwrap();
            first && again
        });
        assert!(ok.iter().all(|&b| b));
        let shipped: u64 = stats.iter().map(|s| s.restart_blocks_sent).sum();
        assert_eq!(shipped, 6, "three restarts of two blocks");
        assert!(fs.stats().read_ops > 0);
        assert_eq!(fs.list("out/").len(), 1, "the retired file was replaced, not kept");
    }

    /// Prefers, at each server, the messages of one tenant's clients — so
    /// server 0 sees all of tenant A's restart requests before any of B's,
    /// and server 1 the other way round. Records who took which.
    struct CrossOrder {
        /// Per receiving rank, the client ranks it would rather hear first.
        prefers: [(usize, [usize; 2]); 2],
        read_reqs: parking_lot::Mutex<Vec<(usize, usize)>>,
    }

    impl rocnet::fabric::ScheduleOracle for CrossOrder {
        fn choose(&self, point: &rocnet::fabric::ChoicePoint) -> usize {
            let favoured = self.prefers.iter().find(|(dst, _)| *dst == point.dst);
            let pick = favoured
                .and_then(|(_, srcs)| point.candidates.iter().position(|c| srcs.contains(&c.src_global)))
                .unwrap_or(0);
            let taken = &point.candidates[pick];
            if point.kind == rocnet::fabric::ChoiceKind::Take && taken.tag == crate::wire::tag::READ_REQ {
                self.read_reqs.lock().push((point.dst, taken.src_global));
            }
            pick
        }
    }

    /// Two tenants restart at once and the two servers meet their rounds
    /// in opposite orders: server 0 is waiting for flush tokens on A's
    /// round while server 1 waits on B's. Each answers the other's round
    /// from inside its own wait loop, so neither deadlocks and no token
    /// lands in the wrong round.
    #[test]
    fn two_tenants_restart_while_the_servers_meet_their_rounds_in_opposite_orders() {
        let snap = SnapshotId::new(40, 0);
        let all = AttrSelector::all("fluid");
        let (job_a, job_b) = ([2, 3], [4, 5]);
        let oracle = Arc::new(CrossOrder {
            prefers: [(0, job_a), (1, job_b)],
            read_reqs: parking_lot::Mutex::new(Vec::new()),
        });
        let fabric = Arc::new(Fabric::with_oracle(ClusterSpec::ideal(6), oracle.clone()));
        let fs = Arc::new(SharedFs::ideal());
        let svc = PandaServiceBuilder::new(Arc::clone(&fs))
            .servers(&[0, 1])
            .build()
            .unwrap();
        svc.submit(crate::JobSpec::new("a", &job_a)).unwrap();
        svc.submit(crate::JobSpec::new("b", &job_b)).unwrap();
        let restored = rocnet::harness::run_on_fabric(&fabric, &|world: Comm| {
            match svc.attach(&world).unwrap() {
                ServiceRole::Server(mut s) => s.run().map(|_| true).unwrap(),
                ServiceRole::Client { job, mut io, comm: app } => {
                    // Each tenant's values are its own, so a block
                    // shipped to the wrong tenant cannot pass.
                    let mut ws = build_windows(app.rank(), 2);
                    scribble(&mut ws, job.tenant().0 as f64 * 1000.0 + app.rank() as f64);
                    let written = ws.clone();
                    io.write_attribute(&ws, &all, snap).unwrap();
                    // All four clients have written before any asks
                    // to restart, so each server has both tenants'
                    // requests to choose from.
                    let others = || (2..6).filter(|&c| c != world.rank());
                    others().for_each(|c| world.send(c, 0x77, &[]).unwrap());
                    others().for_each(|c| drop(world.recv(Some(c), Some(0x77)).unwrap()));
                    scribble(&mut ws, -3.0);
                    io.read_attribute(&mut ws, &all, snap).unwrap();
                    io.finalize().unwrap();
                    ws == written
                }
                ServiceRole::Idle => unreachable!("every rank is a server or a client"),
            }
        });
        assert!(restored.iter().all(|&b| b));
        // The orders really were opposite: each server took its
        // favoured tenant's two requests before the other's.
        let took = |server| -> Vec<usize> {
            let log = oracle.read_reqs.lock();
            log.iter().filter(|(dst, _)| *dst == server).map(|(_, src)| *src).collect()
        };
        assert_eq!(took(0), [2, 3, 4, 5]);
        assert_eq!(took(1), [4, 5, 2, 3]);
        assert!(fs.stats().read_ops > 0);
    }

    /// A buffer that is not whole tuples long is the writing client's
    /// `Mismatch`, found before the snapshot is announced: the server never
    /// sees a record whose header and payload disagree, and goes on serving.
    #[test]
    fn a_torn_buffer_fails_on_the_client_and_the_server_serves_on() {
        let fs = Arc::new(SharedFs::ideal());
        let snap = SnapshotId::new(0, 0);
        run_job(&fs, &RocpandaConfig::default(), &[0], &ideal(2), |_, c, app| {
            let mut ws = build_windows(app.rank(), 2);
            let w = ws.window_mut("fluid").unwrap();
            w.declare_attr(AttrSpec::node("velocity", DType::F64, 3)).unwrap();
            let velocity = w.pane_mut(BlockId(1)).unwrap().data_mut("velocity").unwrap();
            *velocity = ArrayData::F64(vec![0.0; 3 * 64 - 1]);
            let torn = c.write_attribute(&ws, &AttrSelector::all("fluid"), snap);
            assert!(matches!(torn, Err(rocio_core::RocError::Mismatch(_))), "{torn:?}");
            let w = ws.window_mut("fluid").unwrap();
            let velocity = w.pane_mut(BlockId(1)).unwrap().data_mut("velocity").unwrap();
            *velocity = ArrayData::F64(vec![0.0; 3 * 64]);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
        });
        assert_eq!(fs.list("out/").len(), 1);
    }

    /// A stale copy of one server's file under the snapshot's prefix makes
    /// both servers ship its blocks: each client that wants one refuses
    /// the restart — after taking in everything it was sent, so no message
    /// is left behind and every rank shuts down.
    #[test]
    fn a_block_delivered_twice_is_refused_after_the_drain() {
        let fs = Arc::new(SharedFs::ideal());
        let cfg = RocpandaConfig::default();
        let snap = SnapshotId::new(0, 0);
        run_job(&fs, &cfg, &[0, 3], &ideal(6), |_, c, app| {
            let ws = build_windows(app.rank(), 2);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
        });
        let files = fs.list("out/");
        let stale = files[1].replace("_w0001.sdf", "_w0002.sdf");
        let (image, _) = fs.read_all_shared(&files[1], 0, 0.0).unwrap();
        fs.create(&stale, 0, 0.0);
        fs.append(&stale, &image, 0, 0.0).unwrap();
        let (verdicts, _) = run_job(&fs, &cfg, &[0, 3], &ideal(6), |world, c, app| {
            let mut ws = build_windows(app.rank(), 2);
            let got = c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap);
            assert!(world.iprobe(None, None).is_none(), "undrained message on client {}", app.rank());
            c.finalize().unwrap();
            match got {
                Ok(()) => "restored".to_string(),
                Err(e) => e.to_string(),
            }
        });
        let refused = verdicts.iter().filter(|v| v.contains("delivered twice")).count();
        assert_eq!(refused, 2, "{verdicts:?}");
        assert_eq!(verdicts.iter().filter(|v| *v == "restored").count(), 2, "{verdicts:?}");
    }

    /// A block its client cannot apply — its pane registered with another
    /// node count — fails that client's restart with `Mismatch`, after the
    /// drain: its server's `READ_DONE` and the other server's messages are
    /// taken, none is left for a later receive, and every other client
    /// restores.
    #[test]
    fn a_block_that_cannot_be_applied_fails_its_restart_after_the_drain() {
        let fs = Arc::new(SharedFs::ideal());
        let cfg = RocpandaConfig::default();
        let snap = SnapshotId::new(0, 0);
        run_job(&fs, &cfg, &[0, 3], &ideal(6), |_, c, app| {
            let ws = build_windows(app.rank(), 2);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
        });
        let (verdicts, _) = run_job(&fs, &cfg, &[0, 3], &ideal(6), |world, c, app| {
            let mut ws = build_windows(app.rank(), 2);
            if app.rank() == 0 {
                let w = ws.window_mut("fluid").unwrap();
                w.remove_pane(BlockId(1)).unwrap();
                let mesh = PaneMesh::Structured { dims: [4, 3, 3], origin: [0.0; 3], spacing: [1.0; 3] };
                w.register_pane(BlockId(1), mesh).unwrap();
            }
            scribble(&mut ws, -7.0);
            let got = c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap);
            c.finalize().unwrap();
            assert!(world.iprobe(None, None).is_none(), "undrained message on client {}", app.rank());
            got.map(|()| holds_written_values(&ws))
        });
        assert!(matches!(&verdicts[0], Err(RocError::Mismatch(_))), "{:?}", verdicts[0]);
        assert!(verdicts[1..].iter().all(|v| matches!(v, Ok(true))), "{verdicts:?}");
    }

    /// The client that owns a block is where its records are checked: one
    /// payload byte flipped in a shipped `READ_BATCH` is `Corrupt` there,
    /// naming the record.
    #[test]
    fn a_payload_byte_flipped_on_the_wire_is_corrupt_at_the_client() {
        let fs = Arc::new(SharedFs::ideal());
        let snap = SnapshotId::new(0, 0);
        run_job(&fs, &RocpandaConfig::default(), &[0], &ideal(2), |_, c, _| {
            c.write_attribute(&build_windows(1, 2), &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
        });
        // The batch the server's scan ships for blocks 100 and 101.
        let path = &fs.list("out/")[0];
        let (r, t) = rocsdf::SdfFileReader::open(&fs, path, rocsdf::LibraryModel::hdf4(), 0, 0.0).unwrap();
        let ids = r.block_ids();
        let (records, _) = r.read_blocks_raw(&ids, rocsdf::Fetch::PerRange, t).unwrap();
        let (mut records, mut msgs) = (rocio_core::Cursor::new(&records), Rope::new());
        for &id in &ids {
            BlockView::ship(id, r.record_lens(id).unwrap(), &mut records, &mut msgs).unwrap();
        }
        let batch = BlockView::ship_batch(ids.len() as u32, &msgs).into_bytes();
        let apply = |batch: Vec<u8>| {
            let mut ws = build_windows(1, 2);
            scribble(&mut ws, -7.0);
            let (mut seen, mut got) = (HashSet::new(), 0);
            let window = ws.window_mut("fluid").unwrap();
            super::apply_batch(window, &bytes::Bytes::from(batch).into(), &mut seen, &mut got)
                .map(|()| holds_written_values(&ws))
        };
        assert!(apply(batch.to_vec()).unwrap());
        // Block 100's pressure values, the first 100.0 in the batch.
        let at = batch.windows(8).position(|w| w == 100.0f64.to_le_bytes()).unwrap() + 3;
        let mut flipped = batch.to_vec();
        flipped[at] ^= 0x10;
        let got = apply(flipped);
        let caught = matches!(&got, Err(RocError::Corrupt(m)) if m.contains("blk000100/pressure") && m.contains("checksum"));
        assert!(caught, "{got:?}");
    }

    /// Clients with zero panes still participate collectively.
    #[test]
    fn empty_client_participates() {
        let fs = Arc::new(SharedFs::ideal());
        let snap = SnapshotId::new(0, 0);
        run_job(&fs, &RocpandaConfig::default(), &[0], &ideal(3), |_, c, app| {
            let n_panes = if app.rank() == 0 { 3 } else { 0 };
            let ws = build_windows(app.rank(), n_panes);
            c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            c.finalize().unwrap();
        });
        assert_eq!(fs.list("out/").len(), 1);
    }
}
