//! Rocfrac-like explicit structural dynamics on unstructured tet panes.
//!
//! Central-difference time integration of a linear graph-Laplacian
//! elasticity surrogate: nodal forces pull each node's displacement toward
//! its connectivity neighbours', plus a surface traction proportional to
//! the chamber pressure from the fluid side (delivered via Rocface).
//! Cheap per node, but every node of every tet is touched each step and
//! the connectivity array is genuinely used.

use rocio_core::Result;
use roccom::{PaneMesh, Windows};

use crate::setup::SOLID_WINDOW;

/// Material and scheme parameters.
#[derive(Debug, Clone)]
pub struct SolidModule {
    /// Stiffness of the neighbour-coupling surrogate (1/s^2 scale).
    pub stiffness: f64,
    /// Rayleigh-style velocity damping (1/s).
    pub damping: f64,
    /// Traction scale: displacement forcing per pascal of chamber pressure.
    pub traction_per_pa: f64,
    /// Modelled compute cost per element-step, in work units.
    pub work_per_elem: f64,
    /// Per-node scratch (forces, valences), kept across panes and steps:
    /// cleared, never shrunk, so a warm step allocates nothing.
    force: Vec<f64>,
    valence: Vec<f64>,
}

impl Default for SolidModule {
    fn default() -> Self {
        SolidModule {
            stiffness: 2.0e4,
            damping: 15.0,
            traction_per_pa: 2.0e-12,
            work_per_elem: 6.2e-5,
            force: Vec::new(),
            valence: Vec::new(),
        }
    }
}

impl SolidModule {
    /// Advance all local solid panes by `dt`. Returns work units spent.
    pub fn step(&mut self, ws: &mut Windows, dt: f64, chamber_pressure: f64) -> Result<f64> {
        let window = ws.window_mut(SOLID_WINDOW)?;
        let mut elems_total = 0usize;
        let (force, valence) = (&mut self.force, &mut self.valence);
        for pane in window.panes_mut() {
            let (mesh, [disp, vel, vm, dmg, temp]) =
                pane.split_mut(["disp", "vel", "vonmises", "damage", "temp"])?;
            let PaneMesh::Unstructured { conn, .. } = mesh else {
                continue;
            };
            let n_nodes = mesh.n_nodes();
            elems_total += conn.len() / 4;

            // Assemble surrogate forces: for each tet edge (i,j), force on
            // i toward j's displacement.
            {
                let disp = disp.as_f64()?;
                force.clear();
                force.resize(n_nodes * 3, 0.0);
                valence.clear();
                valence.resize(n_nodes, 0.0);
                for tet in conn.chunks_exact(4) {
                    for a in 0..4 {
                        for b in (a + 1)..4 {
                            let (i, j) = (tet[a] as usize, tet[b] as usize);
                            for d in 0..3 {
                                let f = self.stiffness * (disp[j * 3 + d] - disp[i * 3 + d]);
                                force[i * 3 + d] += f;
                                force[j * 3 + d] -= f;
                            }
                            valence[i] += 1.0;
                            valence[j] += 1.0;
                        }
                    }
                }
            }
            // Pressure traction pushes the propellant outward (+y here).
            let traction = chamber_pressure * self.traction_per_pa;
            let vel = vel.as_f64_mut()?;
            for (i, v) in vel.chunks_exact_mut(3).enumerate() {
                let m = 1.0 + valence[i];
                for d in 0..3 {
                    v[d] += dt * force[i * 3 + d] / m - dt * self.damping * v[d];
                }
                v[1] += dt * traction * 1e9;
            }
            let disp = disp.as_f64_mut()?;
            for (x, &v) in disp.iter_mut().zip(vel.iter()) {
                *x += dt * v;
            }
            // Diagnostics: von Mises surrogate = stiffness * neighbour
            // displacement spread; damage accumulates past a threshold;
            // temperature creeps with dissipation.
            let vm = vm.as_f64_mut()?;
            for (i, x) in vm.iter_mut().enumerate() {
                let d = &disp[i * 3..i * 3 + 3];
                *x = self.stiffness * (d[0].abs() + d[1].abs() + d[2].abs());
            }
            for (i, x) in dmg.as_f64_mut()?.iter_mut().enumerate() {
                if vm[i] > 1.0 {
                    *x = (*x + dt * 0.1).min(1.0);
                }
            }
            for t in temp.as_f64_mut()?.iter_mut() {
                *t += dt * 0.5;
            }
        }
        Ok(elems_total as f64 * self.work_per_elem)
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
    fn pressure_drives_displacement() {
        let mut ws = world();
        let mut m = SolidModule::default();
        for _ in 0..10 {
            m.step(&mut ws, 1e-4, 200_000.0).unwrap();
        }
        let mut max_dy = 0.0f64;
        for pane in ws.window(SOLID_WINDOW).unwrap().panes() {
            for d in pane.data("disp").unwrap().as_f64().unwrap().chunks_exact(3) {
                max_dy = max_dy.max(d[1]);
            }
        }
        assert!(max_dy > 0.0, "traction must displace the propellant");
    }

    #[test]
    fn zero_pressure_zero_motion_is_stable() {
        let mut ws = world();
        let mut m = SolidModule::default();
        for _ in 0..20 {
            m.step(&mut ws, 1e-4, 0.0).unwrap();
        }
        for pane in ws.window(SOLID_WINDOW).unwrap().panes() {
            for &x in pane.data("disp").unwrap().as_f64().unwrap() {
                assert!(x.abs() < 1e-12, "uniform zero state must stay put, got {x}");
            }
        }
    }

    #[test]
    fn fields_stay_finite_over_many_steps() {
        let mut ws = world();
        let mut m = SolidModule::default();
        for _ in 0..100 {
            m.step(&mut ws, 1e-4, 500_000.0).unwrap();
        }
        for pane in ws.window(SOLID_WINDOW).unwrap().panes() {
            for name in ["disp", "vel", "vonmises", "damage", "temp"] {
                for &x in pane.data(name).unwrap().as_f64().unwrap() {
                    assert!(x.is_finite(), "{name} diverged");
                }
            }
        }
    }

    #[test]
    fn work_scales_with_elements() {
        let mut ws = world();
        let mut m = SolidModule::default();
        let work = m.step(&mut ws, 1e-4, 0.0).unwrap();
        let elems: usize = ws
            .window(SOLID_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.mesh().n_elems())
            .sum();
        assert!((work - elems as f64 * m.work_per_elem).abs() < 1e-12);
        assert!(work > 0.0);
    }

    #[test]
    fn damage_is_bounded() {
        let mut ws = world();
        let mut m = SolidModule {
            traction_per_pa: 2.0e-9, // exaggerate to trigger damage
            ..Default::default()
        };
        for _ in 0..200 {
            m.step(&mut ws, 1e-3, 1_000_000.0).unwrap();
        }
        for pane in ws.window(SOLID_WINDOW).unwrap().panes() {
            for &x in pane.data("damage").unwrap().as_f64().unwrap() {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }
}
