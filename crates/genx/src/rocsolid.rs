//! Rocsolid-like *implicit* structural dynamics.
//!
//! The paper's structural layer also has two interchangeable solvers:
//! "Rocsolid and Rocfrac are two structural mechanics solvers" (§3.1) —
//! Rocsolid the implicit one, Rocfrac the explicit one (see
//! [`crate::solid`]). This module takes larger stable steps by solving a
//! damped equilibrium with a fixed number of Jacobi sweeps per timestep,
//! at correspondingly higher per-element cost — a genuinely different
//! cost profile plugged into the same `solid` window.

use rocio_core::Result;
use roccom::{PaneMesh, Windows};

use crate::setup::SOLID_WINDOW;

/// Solver parameters.
#[derive(Debug, Clone)]
pub struct RocsolidModule {
    /// Jacobi sweeps per timestep (the implicit solve).
    pub sweeps: usize,
    /// Traction scale (displacement forcing per pascal).
    pub traction_per_pa: f64,
    /// Modelled compute cost per element-sweep, in work units.
    pub work_per_elem_sweep: f64,
    /// Per-node scratch of a sweep (neighbour sums and counts), kept
    /// across panes and steps: cleared, never shrunk, so a warm step
    /// allocates nothing.
    sum: Vec<f64>,
    cnt: Vec<f64>,
}

impl Default for RocsolidModule {
    fn default() -> Self {
        RocsolidModule {
            sweeps: 4,
            traction_per_pa: 2.0e-12,
            work_per_elem_sweep: 2.5e-5,
            sum: Vec::new(),
            cnt: Vec::new(),
        }
    }
}

impl RocsolidModule {
    /// Advance all local solid panes by `dt`. Returns work units spent
    /// (per element per sweep).
    pub fn step(&mut self, ws: &mut Windows, dt: f64, chamber_pressure: f64) -> Result<f64> {
        let window = ws.window_mut(SOLID_WINDOW)?;
        let mut elem_sweeps = 0usize;
        let (sum, cnt) = (&mut self.sum, &mut self.cnt);
        for pane in window.panes_mut() {
            let (mesh, [disp, vel, vm, temp]) =
                pane.split_mut(["disp", "vel", "vonmises", "temp"])?;
            let PaneMesh::Unstructured { conn, .. } = mesh else {
                continue;
            };
            let n_nodes = mesh.n_nodes();
            let n_elems = conn.len() / 4;
            elem_sweeps += n_elems * self.sweeps;

            // Implicit step as damped Jacobi relaxation toward neighbour
            // equilibrium plus the pressure traction as a boundary load.
            // A sweep's sums read the displacements before it writes any.
            let traction_dy = chamber_pressure * self.traction_per_pa * dt * 1e9;
            let disp = disp.as_f64_mut()?;
            for _ in 0..self.sweeps {
                sum.clear();
                sum.resize(n_nodes * 3, 0.0);
                cnt.clear();
                cnt.resize(n_nodes, 0.0);
                for tet in conn.chunks_exact(4) {
                    for a in 0..4 {
                        for b in 0..4 {
                            if a == b {
                                continue;
                            }
                            let (i, j) = (tet[a] as usize, tet[b] as usize);
                            for d in 0..3 {
                                sum[i * 3 + d] += disp[j * 3 + d];
                            }
                            cnt[i] += 1.0;
                        }
                    }
                }
                for i in 0..n_nodes {
                    if cnt[i] > 0.0 {
                        for d in 0..3 {
                            let avg = sum[i * 3 + d] / cnt[i];
                            // Damped relaxation toward neighbours, plus the
                            // traction pushing +y.
                            disp[i * 3 + d] += 0.5 * (avg - disp[i * 3 + d]);
                        }
                    }
                    disp[i * 3 + 1] += traction_dy / self.sweeps as f64;
                }
            }
            // Velocity as displacement rate (diagnostic), temperature creep.
            for (v, &x) in vel.as_f64_mut()?.iter_mut().zip(disp.iter()) {
                *v = x / dt.max(1e-12) * 1e-3;
            }
            for (i, x) in vm.as_f64_mut()?.iter_mut().enumerate() {
                let d = &disp[i * 3..i * 3 + 3];
                *x = 2.0e4 * (d[0].abs() + d[1].abs() + d[2].abs());
            }
            for t in temp.as_f64_mut()?.iter_mut() {
                *t += dt * 0.5;
            }
        }
        Ok(elem_sweeps as f64 * self.work_per_elem_sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{assign, declare_windows, register_and_init};
    use rocmesh::Workload;

    fn world() -> Windows {
        let w = Workload::lab_scale_motor_scaled(3, 0.03);
        let mine = assign(&w, 1);
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        register_and_init(&mut ws, &w, &mine[0]).unwrap();
        ws
    }

    #[test]
    fn implicit_step_costs_more_per_step_than_explicit() {
        let mut ws_a = world();
        let mut ws_b = world();
        let mut implicit = RocsolidModule::default();
        let mut explicit = crate::solid::SolidModule::default();
        let wi = implicit.step(&mut ws_a, 1e-4, 0.0).unwrap();
        let we = explicit.step(&mut ws_b, 1e-4, 0.0).unwrap();
        assert!(wi > we, "implicit {wi} must out-cost explicit {we}");
    }

    #[test]
    fn traction_displaces_and_smoothing_spreads() {
        let mut ws = world();
        let mut m = RocsolidModule::default();
        for _ in 0..5 {
            m.step(&mut ws, 1e-3, 300_000.0).unwrap();
        }
        let mut max_dy = 0.0f64;
        for pane in ws.window(SOLID_WINDOW).unwrap().panes() {
            for d in pane.data("disp").unwrap().as_f64().unwrap().chunks_exact(3) {
                assert!(d.iter().all(|x| x.is_finite()));
                max_dy = max_dy.max(d[1]);
            }
        }
        assert!(max_dy > 0.0);
    }

    #[test]
    fn zero_load_stays_at_rest() {
        let mut ws = world();
        let mut m = RocsolidModule::default();
        for _ in 0..10 {
            m.step(&mut ws, 1e-3, 0.0).unwrap();
        }
        for pane in ws.window(SOLID_WINDOW).unwrap().panes() {
            for &x in pane.data("disp").unwrap().as_f64().unwrap() {
                assert!(x.abs() < 1e-12);
            }
        }
    }
}
