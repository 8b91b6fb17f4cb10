//! Rocman: the orchestration module.
//!
//! "At the top is the manager module Rocman, which orchestrates the
//! control- and data-flow of the overall simulation" (§3.1). Rocman owns
//! the Roccom data plane (windows), the function registry, and the I/O
//! dispatch; it runs the coupled time loop and the periodic snapshot
//! schedule, and it keeps the two clocks the paper's tables report:
//! computation time and visible I/O time.

use std::collections::HashMap;

use rocio_core::{BlockId, Bytes, Result, SimTime, SnapshotId};
use rocnet::Comm;
use roccom::{AttrRef, AttrSelector, FunctionRegistry, IoDispatch, Windows};

use crate::burn::BurnModule;
use crate::fluid::FluidModule;
use crate::rocface;
use crate::rocflu::RocfluModule;
use crate::rocsolid::RocsolidModule;
use crate::setup::{FluidKind, SolidKind, BURN_WINDOW, SOLID_WINDOW};
use crate::solid::SolidModule;

/// Per-step halo-exchange payload per neighbour (boundary strips of the
/// structured blocks; a modelling constant).
const HALO_BYTES: usize = 32 * 1024;
const HALO_TAG: u32 = 0x0060_0001;

/// The orchestrator.
pub struct Rocman<'c, 'io> {
    comm: &'c Comm,
    pub windows: Windows,
    pub registry: FunctionRegistry<'static>,
    pub io: IoDispatch<'io>,
    pub fluid: FluidModule,
    pub rocflu: RocfluModule,
    pub solid: SolidModule,
    pub rocsolid: RocsolidModule,
    pub burn: BurnModule,
    /// Which gas-dynamics solver steps the run.
    pub fluid_kind: FluidKind,
    /// Which structural solver steps the run.
    pub solid_kind: SolidKind,
    /// Timestep size (s of simulated physical time).
    pub dt: f64,
    /// Keep only this many most-recent snapshots on disk (None = all) —
    /// retention management for "so many files" (§4.2).
    pub keep_snapshots: Option<u32>,
    /// Rebalance panes across ranks every N steps (None = never).
    pub rebalance_every: Option<u64>,
    /// Upstream block of each downstream block (x-adjacency), for
    /// cross-block inflow coupling. Empty = uncoupled.
    pub adjacency: HashMap<BlockId, BlockId>,
    chamber_pressure: f64,
    /// What a timestep exchanges, kept across steps and cleared, never
    /// rebuilt, so a warm step allocates nothing for them: the outlet
    /// density of this rank's fluid panes and of everyone's, the inlet
    /// target of each coupled one, this rank's per-pane pressure moments
    /// and everyone's, and the bytes either allgather sends and receives.
    outlets: Vec<(BlockId, f64)>,
    outlet_of: HashMap<BlockId, f64>,
    inflow: HashMap<BlockId, f64>,
    moments: Vec<(u64, f64, f64)>,
    global_moments: Vec<(u64, f64, f64)>,
    wire: Vec<u8>,
    gathered: Vec<Bytes>,
    /// The halo every step sends both neighbours: one zero buffer, shared.
    halo: Bytes,
    comp_time: SimTime,
    io_time: SimTime,
    step_count: u64,
    snapshots_taken: u32,
    last_snapshot: Option<SnapshotId>,
    snapshot_history: Vec<SnapshotId>,
}

impl<'c, 'io> Rocman<'c, 'io> {
    /// Build the orchestrator around prepared windows and a loaded I/O
    /// dispatch. Registers the Rocblas and Rocface function suites.
    pub fn new(comm: &'c Comm, windows: Windows, io: IoDispatch<'io>) -> Result<Self> {
        let mut registry = FunctionRegistry::new();
        crate::rocblas::register(&mut registry)?;
        rocface::register(&mut registry)?;
        Ok(Rocman {
            comm,
            windows,
            registry,
            io,
            fluid: FluidModule::default(),
            rocflu: RocfluModule::default(),
            solid: SolidModule::default(),
            rocsolid: RocsolidModule::default(),
            burn: BurnModule::default(),
            fluid_kind: FluidKind::Rocflo,
            solid_kind: SolidKind::Rocfrac,
            dt: 1e-4,
            keep_snapshots: None,
            rebalance_every: None,
            adjacency: HashMap::new(),
            chamber_pressure: 101_325.0,
            outlets: Vec::new(),
            outlet_of: HashMap::new(),
            inflow: HashMap::new(),
            moments: Vec::new(),
            global_moments: Vec::new(),
            wire: Vec::new(),
            gathered: Vec::new(),
            halo: Bytes::from(vec![0u8; HALO_BYTES]),
            comp_time: 0.0,
            io_time: 0.0,
            step_count: 0,
            snapshots_taken: 0,
            last_snapshot: None,
            snapshot_history: Vec::new(),
        })
    }

    /// Accumulated computation time (virtual seconds).
    pub fn comp_time(&self) -> SimTime {
        self.comp_time
    }

    /// Accumulated visible I/O time (virtual seconds).
    pub(crate) fn io_time(&self) -> SimTime {
        self.io_time
    }

    /// Snapshots taken so far.
    pub(crate) fn snapshots_taken(&self) -> u32 {
        self.snapshots_taken
    }

    /// The windows this configuration snapshots, in write order.
    pub fn window_names(&self) -> [&'static str; 3] {
        [self.fluid_kind.window(), SOLID_WINDOW, BURN_WINDOW]
    }

    /// One coupled timestep: fluid, solid, burn, interface transfer, halo
    /// exchange. All compute cost lands on the virtual clock; the elapsed
    /// virtual time is booked as computation time.
    pub fn step(&mut self) -> Result<()> {
        let t0 = self.comm.now();
        // Cross-block inflow exchange (Rocflo only): every rank shares its
        // panes' outlet densities; each pane with an upstream neighbour
        // relaxes its inlet toward that neighbour's outlet.
        self.inflow.clear();
        if self.fluid_kind == FluidKind::Rocflo && !self.adjacency.is_empty() {
            self.fluid.outlet_means(&self.windows, &mut self.outlets)?;
            self.wire.clear();
            for (id, rho) in &self.outlets {
                self.wire.extend_from_slice(&id.0.to_le_bytes());
                self.wire.extend_from_slice(&rho.to_le_bytes());
            }
            self.comm.allgather_into(&self.wire, &mut self.gathered)?;
            self.outlet_of.clear();
            self.outlet_of
                .reserve(self.gathered.iter().map(|part| part.len() / 16).sum());
            for part in &self.gathered {
                for chunk in part.chunks_exact(16) {
                    let id = rocio_core::le::u64(&chunk[..8], "outlet id")?;
                    let rho = rocio_core::le::f64(&chunk[8..], "outlet density")?;
                    self.outlet_of.insert(BlockId(id), rho);
                }
            }
            self.inflow.reserve(self.adjacency.len());
            for (down, up) in &self.adjacency {
                if let Some(&rho) = self.outlet_of.get(up) {
                    self.inflow.insert(*down, rho);
                }
            }
        }
        let mut work = 0.0;
        work += match self.fluid_kind {
            FluidKind::Rocflo => self.fluid.step_coupled(
                &mut self.windows,
                self.dt,
                self.chamber_pressure,
                &self.inflow,
            )?,
            FluidKind::Rocflu => {
                self.rocflu.step(&mut self.windows, self.dt, self.chamber_pressure)?
            }
        };
        work += match self.solid_kind {
            SolidKind::Rocfrac => {
                self.solid.step(&mut self.windows, self.dt, self.chamber_pressure)?
            }
            SolidKind::Rocsolid => {
                self.rocsolid.step(&mut self.windows, self.dt, self.chamber_pressure)?
            }
        };
        work += self.burn.step(&mut self.windows, self.dt, self.chamber_pressure)?;
        self.comm.compute(work);

        // Rocface: global chamber pressure from the fluid side. Per-pane
        // moments are gathered and folded in pane-id order, so the global
        // mean is bit-identical on any block distribution (the
        // reproducible-reduction discipline production codes use).
        rocface::local_pane_moments(
            &mut self.registry,
            &mut self.windows,
            self.fluid_kind.window(),
            &mut self.moments,
        )?;
        self.wire.clear();
        for (id, sum, count) in &self.moments {
            self.wire.extend_from_slice(&id.to_le_bytes());
            self.wire.extend_from_slice(&sum.to_le_bytes());
            self.wire.extend_from_slice(&count.to_le_bytes());
        }
        self.comm.allgather_into(&self.wire, &mut self.gathered)?;
        self.global_moments.clear();
        self.global_moments
            .reserve(self.gathered.iter().map(|part| part.len() / 24).sum());
        for part in &self.gathered {
            for c in part.chunks_exact(24) {
                self.global_moments.push((
                    rocio_core::le::u64(&c[..8], "reduction id")?,
                    rocio_core::le::f64(&c[8..16], "reduction sum")?,
                    rocio_core::le::f64(&c[16..24], "reduction count")?,
                ));
            }
        }
        self.global_moments.sort_unstable_by_key(|&(id, _, _)| id);
        let (gs, gc) = self
            .global_moments
            .iter()
            .fold((0.0, 0.0), |(s, c), &(_, ps, pc)| (s + ps, c + pc));
        if gc > 0.0 {
            self.chamber_pressure = gs / gc;
        }
        self.registry.call(
            "rocface.apply_chamber",
            &mut self.windows,
            &[roccom::ComValue::Float(self.chamber_pressure)],
        )?;

        self.halo_exchange()?;
        self.comp_time += self.comm.now() - t0;
        self.step_count += 1;
        Ok(())
    }

    /// Ring halo exchange with both neighbours (eager sends, then
    /// receives — deadlock-free on the eager fabric). Both sends are
    /// refcounts of the one zero halo.
    fn halo_exchange(&mut self) -> Result<()> {
        let n = self.comm.size();
        if n <= 1 {
            return Ok(());
        }
        let me = self.comm.rank();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        self.comm.send_bytes(next, HALO_TAG, self.halo.clone())?;
        self.comm.send_bytes(prev, HALO_TAG, self.halo.clone())?;
        self.comm.recv(Some(prev), Some(HALO_TAG))?;
        self.comm.recv(Some(next), Some(HALO_TAG))?;
        Ok(())
    }

    /// Take a snapshot: write all three windows through the active I/O
    /// module. The operation is collective — all compute processes leave
    /// together — so the elapsed virtual time, including any wait for the
    /// slowest writer, is booked as visible I/O time rather than leaking
    /// into the next timestep's computation time.
    pub fn snapshot(&mut self) -> Result<SnapshotId> {
        let snap = SnapshotId::new(self.step_count, self.snapshots_taken);
        let t0 = self.comm.now();
        for window in self.window_names() {
            self.io
                .write_attribute(&self.windows, &AttrSelector::all(window), snap)?;
        }
        let t_barrier = self.comm.now();
        self.comm.barrier()?;
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::SnapshotBarrier,
                "snapshot",
                t_barrier,
                self.comm.now(),
                &format!("snap={}/{}", snap.ordinal, snap.step),
            );
        }
        self.io_time += self.comm.now() - t0;
        self.snapshots_taken += 1;
        self.last_snapshot = Some(snap);
        self.snapshot_history.push(snap);
        // Retention: retire snapshots beyond the keep window.
        if let Some(keep) = self.keep_snapshots {
            while self.snapshot_history.len() > keep as usize {
                let old = self.snapshot_history.remove(0);
                self.io.retire(old)?;
            }
        }
        Ok(snap)
    }

    /// Run `steps` timesteps with a snapshot every `snapshot_every` steps,
    /// plus the initial snapshot — the paper's schedule: "we executed the
    /// simulation for 200 time-steps and performed snapshots every 50
    /// time-steps, resulting in five output phases (including the initial
    /// snapshot)" (§7.1).
    pub fn run(&mut self, steps: u64, snapshot_every: u64) -> Result<()> {
        self.snapshot()?;
        for s in 1..=steps {
            self.step()?;
            if let Some(every) = self.rebalance_every {
                if every > 0 && s % every == 0 {
                    let windows = self.window_names();
                    crate::rebalance::rebalance(self.comm, &mut self.windows, &windows, 1.05)?;
                }
            }
            if snapshot_every > 0 && s % snapshot_every == 0 {
                self.snapshot()?;
            }
        }
        Ok(())
    }

    /// Measure restart: collectively read the last snapshot back onto
    /// `fresh` — windows declared like the live ones, holding (or, as the
    /// driver passes them, only reserving) this rank's panes — and compare
    /// against the live state. Returns (latency, bit-exact).
    pub fn measure_restart(&mut self, fresh: &mut Windows) -> Result<(SimTime, bool)> {
        let snap = self.last_snapshot.ok_or_else(|| {
            rocio_core::RocError::InvalidState("no snapshot to restart from".into())
        })?;
        // A window's read may be collective (two-phase): read them all,
        // then return the first failure, so no rank is left waiting in a
        // later one.
        let t0 = self.comm.now();
        let reads = self.window_names().map(|window| {
            self.io.read_attribute(fresh, &AttrSelector::all(window), snap)
        });
        reads.into_iter().try_for_each(|read| read)?;
        let latency = self.comm.now() - t0;
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::RestartRead,
                "measure_restart",
                t0,
                self.comm.now(),
                &format!("snap={}/{}", snap.ordinal, snap.step),
            );
        }
        // Bit-exact comparison of every pane of every window.
        let mut ok = true;
        for window in self.window_names() {
            let live = self.windows.window(window)?;
            let restored = fresh.window(window)?;
            if live.pane_ids() != restored.pane_ids() {
                ok = false;
                continue;
            }
            for id in live.pane_ids() {
                let sum = |w: &roccom::Window| {
                    roccom::convert::pane_checksum(w, w.pane(id)?, &AttrRef::All)
                };
                if sum(live)? != sum(restored)? {
                    ok = false;
                }
            }
        }
        Ok((latency, ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{assign, declare_windows, register_and_init};
    use rocmesh::Workload;
    use rocnet::cluster::ClusterSpec;
    use rocnet::run_ranks;
    use rochdf::{Rochdf, RochdfConfig};
    use rocstore::SharedFs;

    fn run_job(n: usize) -> Vec<(f64, f64, u64, bool, f64)> {
        let fs = SharedFs::ideal();
        let workload = Workload::lab_scale_motor_scaled(5, 0.05);
        run_ranks(n, ClusterSpec::ideal(n), |comm| {
            let mine = assign(&workload, comm.size());
            let mut ws = Windows::new();
            declare_windows(&mut ws).unwrap();
            register_and_init(&mut ws, &workload, &mine[comm.rank()]).unwrap();
            let mut io = IoDispatch::new();
            io.load_module(Box::new(Rochdf::new(&fs, &comm, RochdfConfig::default())))
                .unwrap();
            let mut man = Rocman::new(&comm, ws, io).unwrap();
            man.run(10, 5).unwrap();
            // Restart check.
            let mut fresh = Windows::new();
            declare_windows(&mut fresh).unwrap();
            register_and_init(&mut fresh, &workload, &mine[comm.rank()]).unwrap();
            let (rt, ok) = man.measure_restart(&mut fresh).unwrap();
            (
                man.comp_time(),
                man.io_time(),
                man.step_count,
                ok,
                rt,
            )
        })
    }

    #[test]
    fn full_loop_with_snapshots_and_restart() {
        let out = run_job(2);
        for (comp, io, steps, ok, rt) in &out {
            assert_eq!(*steps, 10);
            assert!(*comp > 0.0);
            assert!(*io >= 0.0);
            assert!(ok, "restart must be bit-exact");
            assert!(*rt >= 0.0);
        }
    }

    /// A byte flipped in the snapshot a two-phase restart reads back fails
    /// the restart with an error on the ranks that meet it. Each window is
    /// a collective read, so the others are not left waiting in the next
    /// window's (they used to be, and the job ended in a deadlock panic).
    #[test]
    fn a_corrupt_two_phase_restart_errors_and_strands_no_rank() {
        let fs = SharedFs::ideal();
        let workload = Workload::lab_scale_motor_scaled(5, 0.05);
        let cfg = RochdfConfig { read_aggregators: 2, ..RochdfConfig::default() };
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let mine = assign(&workload, comm.size());
            let windows = || {
                let mut ws = Windows::new();
                declare_windows(&mut ws).unwrap();
                register_and_init(&mut ws, &workload, &mine[comm.rank()]).unwrap();
                ws
            };
            let mut io = IoDispatch::new();
            io.load_module(Box::new(Rochdf::new(&fs, &comm, cfg.clone()))).unwrap();
            let mut man = Rocman::new(&comm, windows(), io).unwrap();
            man.run(2, 2).unwrap();
            comm.barrier().unwrap();
            if comm.rank() == 0 {
                // Flip the middle byte of the last snapshot's largest file.
                let snap = man.last_snapshot.unwrap();
                let ours = |p: &String| (0..4).any(|w| rocio_core::is_snapshot_file_of(p, snap, w));
                let files = fs.list("out/").into_iter().filter(ours);
                let path = files.max_by_key(|p| fs.file_size(p).unwrap()).unwrap();
                let at = fs.file_size(&path).unwrap() / 2;
                let (byte, _) = fs.read_shared(&path, at, 1, 0, 0.0).unwrap();
                fs.write_at(&path, at, &[!byte[0]], 0, 0.0).unwrap();
            }
            comm.barrier().unwrap();
            man.measure_restart(&mut windows()).err().map(|e| e.to_string())
        });
        assert!(out.iter().any(Option::is_some), "the flip went unseen");
        for e in out.iter().flatten() {
            assert!(e.contains("checksum"), "{e}");
        }
    }

    #[test]
    fn snapshot_schedule_counts() {
        let fs = SharedFs::ideal();
        let workload = Workload::lab_scale_motor_scaled(5, 0.05);
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            let mine = assign(&workload, 1);
            let mut ws = Windows::new();
            declare_windows(&mut ws).unwrap();
            register_and_init(&mut ws, &workload, &mine[0]).unwrap();
            let mut io = IoDispatch::new();
            io.load_module(Box::new(Rochdf::new(&fs, &comm, RochdfConfig::default())))
                .unwrap();
            let mut man = Rocman::new(&comm, ws, io).unwrap();
            man.run(20, 5).unwrap();
            (man.snapshots_taken(), man.last_snapshot)
        });
        // Initial + 4 periodic.
        assert_eq!(out[0].0, 5);
        assert_eq!(out[0].1.unwrap(), SnapshotId::new(20, 4));
        // 3 windows x 5 snapshots x 1 rank.
        assert_eq!(fs.list("out/").len(), 15);
    }

    #[test]
    fn chamber_pressure_evolves_and_ignites() {
        let fs = SharedFs::ideal();
        let workload = Workload::lab_scale_motor_scaled(5, 0.05);
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            let mine = assign(&workload, 1);
            let mut ws = Windows::new();
            declare_windows(&mut ws).unwrap();
            register_and_init(&mut ws, &workload, &mine[0]).unwrap();
            let mut io = IoDispatch::new();
            io.load_module(Box::new(Rochdf::new(&fs, &comm, RochdfConfig::default())))
                .unwrap();
            let mut man = Rocman::new(&comm, ws, io).unwrap();
            let p0 = man.chamber_pressure;
            for _ in 0..120 {
                man.step().unwrap();
            }
            let regression = man.burn.total_regression(&man.windows).unwrap();
            (p0, man.chamber_pressure, regression)
        });
        let (p0, p1, regression) = out[0];
        assert!(p1 > p0, "heating must raise chamber pressure: {p0} -> {p1}");
        assert!(regression > 0.0, "propellant must ignite and regress");
    }

    #[test]
    fn comp_time_scales_down_with_ranks() {
        let one: f64 = run_job(1).iter().map(|r| r.0).fold(0.0, f64::max);
        let four: f64 = run_job(4).iter().map(|r| r.0).fold(0.0, f64::max);
        assert!(
            four < one * 0.4,
            "4-rank compute {four} not ~quarter of 1-rank {one}"
        );
    }
}
