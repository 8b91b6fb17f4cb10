//! Rocflo-like explicit finite-volume gas dynamics on structured panes.
//!
//! A deliberately lean but *real* solver: first-order upwind advection of
//! density along the bore axis with a relaxation toward an equation-of-
//! state-consistent pressure/energy, plus velocity acceleration from the
//! local pressure gradient. Every cell of every pane is updated every
//! step, so snapshots evolve and restart correctness is meaningful, while
//! the modelled *cost* (work units returned to the caller) is what shows
//! up on the virtual clock.

use std::collections::HashMap;

use rocio_core::{BlockId, Result};
use roccom::{PaneMesh, Windows};

use crate::setup::FLUID_WINDOW;

/// Gas constants and scheme parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidModule {
    /// Specific gas constant (J/kg/K).
    pub r_gas: f64,
    /// Heat capacity ratio.
    pub gamma: f64,
    /// Advection speed (m/s) used by the upwind sweep.
    pub advect: f64,
    /// Modelled compute cost per cell-step, in work units (seconds at
    /// compute rate 1).
    pub work_per_cell: f64,
}

impl Default for FluidModule {
    fn default() -> Self {
        FluidModule {
            r_gas: 287.0,
            gamma: 1.4,
            advect: 60.0,
            work_per_cell: 6.2e-5,
        }
    }
}

impl FluidModule {
    /// Advance all local fluid panes by `dt`. Returns the work units spent
    /// (to be charged to the rank's virtual clock by the orchestrator).
    pub fn step(&self, ws: &mut Windows, dt: f64, chamber_pressure: f64) -> Result<f64> {
        self.step_coupled(ws, dt, chamber_pressure, &HashMap::new())
    }

    /// As [`FluidModule::step`], with cross-block coupling: panes whose id
    /// appears in `inflow` relax their inlet layer toward the upstream
    /// block's outlet density instead of the chamber value — the
    /// block-boundary exchange that makes the multi-block solution
    /// globally consistent.
    pub fn step_coupled(
        &self,
        ws: &mut Windows,
        dt: f64,
        chamber_pressure: f64,
        inflow: &HashMap<BlockId, f64>,
    ) -> Result<f64> {
        let window = ws.window_mut(FLUID_WINDOW)?;
        let mut cells_total = 0usize;
        for pane in window.panes_mut() {
            let id = pane.id;
            let (mesh, [rho, t, p, e, mach, visc, vel]) =
                pane.split_mut(["rho", "T", "p", "E", "mach", "visc", "vel"])?;
            let (dims, spacing) = match mesh {
                PaneMesh::Structured { dims, spacing, .. } => (*dims, *spacing),
                PaneMesh::Unstructured { .. } => continue,
            };
            let (ni, nj, nk) = (dims[0], dims[1], dims[2]);
            let n = ni * nj * nk;
            cells_total += n;
            let cfl = (self.advect * dt / spacing[0]).min(0.9);
            let inflow_target = inflow
                .get(&id)
                .copied()
                .unwrap_or_else(|| (chamber_pressure / (self.r_gas * 300.0)).max(0.1));

            // Upwind advection of density along i (the bore axis).
            let rho = rho.as_f64_mut()?;
            for k in 0..nk {
                for j in 0..nj {
                    let row = (k * nj + j) * ni;
                    for i in (1..ni).rev() {
                        rho[row + i] -= cfl * (rho[row + i] - rho[row + i - 1]);
                    }
                    // Inflow boundary: upstream block's outlet when
                    // coupled, chamber density otherwise.
                    rho[row] += 0.05 * (inflow_target - rho[row]);
                }
            }
            // Temperature: weak diffusion toward the mean (cheap smoother).
            let t = t.as_f64_mut()?;
            let t_mean = t.iter().sum::<f64>() / n as f64;
            for x in t.iter_mut() {
                *x += 0.01 * (t_mean - *x) + 0.02 * dt * 1000.0;
            }
            // EOS-consistent pressure and energy, then diagnostics.
            let p = p.as_f64_mut()?;
            for (c, x) in p.iter_mut().enumerate() {
                *x = rho[c] * self.r_gas * t[c];
            }
            for (c, x) in e.as_f64_mut()?.iter_mut().enumerate() {
                *x = p[c] / (self.gamma - 1.0);
            }
            for (c, m) in mach.as_f64_mut()?.iter_mut().enumerate() {
                let a = (self.gamma * self.r_gas * t[c]).sqrt();
                *m = self.advect / a;
            }
            for (c, v) in visc.as_f64_mut()?.iter_mut().enumerate() {
                // Sutherland-ish temperature dependence.
                *v = 1.716e-5 * (t[c] / 273.15).powf(1.5);
            }
            // Nodes accelerate along +x with the axial pressure drop.
            let dpdx = (p[ni - 1] - p[0]) / (ni as f64 * spacing[0]);
            for v in vel.as_f64_mut()?.chunks_exact_mut(3) {
                v[0] -= dt * dpdx / 1.2;
            }
        }
        Ok(cells_total as f64 * self.work_per_cell)
    }

    /// Mean outlet (high-x layer) density of every local pane — what a
    /// downstream block's inlet should see — in place of what `out` held.
    pub fn outlet_means(&self, ws: &Windows, out: &mut Vec<(BlockId, f64)>) -> Result<()> {
        let window = ws.window(FLUID_WINDOW)?;
        out.clear();
        for pane in window.panes() {
            let dims = match pane.mesh() {
                PaneMesh::Structured { dims, .. } => *dims,
                PaneMesh::Unstructured { .. } => continue,
            };
            let (ni, nj, nk) = (dims[0], dims[1], dims[2]);
            let rho = pane.data("rho")?.as_f64()?;
            let mut sum = 0.0;
            for k in 0..nk {
                for j in 0..nj {
                    sum += rho[(k * nj + j) * ni + (ni - 1)];
                }
            }
            out.push((pane.id, sum / (nj * nk) as f64));
        }
        Ok(())
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
    fn step_returns_work_proportional_to_cells() {
        let mut ws = world();
        let m = FluidModule::default();
        let work = m.step(&mut ws, 1e-4, 101_325.0).unwrap();
        let cells: usize = ws
            .window(FLUID_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.mesh().n_elems())
            .sum();
        assert!((work - cells as f64 * m.work_per_cell).abs() < 1e-12);
    }

    #[test]
    fn fields_evolve_and_stay_finite() {
        let mut ws = world();
        let m = FluidModule::default();
        let before: f64 = ws
            .window(FLUID_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.data("rho").unwrap().as_f64().unwrap().iter().sum::<f64>())
            .sum();
        for _ in 0..20 {
            m.step(&mut ws, 1e-4, 150_000.0).unwrap();
        }
        let mut after = 0.0;
        for pane in ws.window(FLUID_WINDOW).unwrap().panes() {
            for name in ["rho", "p", "T", "E", "mach", "visc"] {
                for &x in pane.data(name).unwrap().as_f64().unwrap() {
                    assert!(x.is_finite(), "{name} went non-finite");
                }
            }
            after += pane.data("rho").unwrap().as_f64().unwrap().iter().sum::<f64>();
        }
        assert_ne!(before, after, "density must change over steps");
    }

    #[test]
    fn eos_consistency_after_step() {
        let mut ws = world();
        let m = FluidModule::default();
        m.step(&mut ws, 1e-4, 101_325.0).unwrap();
        let pane = ws.window(FLUID_WINDOW).unwrap().panes().next().unwrap();
        let rho = pane.data("rho").unwrap().as_f64().unwrap();
        let t = pane.data("T").unwrap().as_f64().unwrap();
        let p = pane.data("p").unwrap().as_f64().unwrap();
        let e = pane.data("E").unwrap().as_f64().unwrap();
        for c in 0..rho.len() {
            assert!((p[c] - rho[c] * 287.0 * t[c]).abs() < 1e-6 * p[c]);
            assert!((e[c] - p[c] / 0.4).abs() < 1e-6 * e[c]);
        }
    }

    #[test]
    fn pressure_moments_average_near_ambient() {
        let ws = world();
        let (mut sum, mut count) = (0.0, 0.0);
        for pane in ws.window(FLUID_WINDOW).unwrap().panes() {
            let p = pane.data("p").unwrap().as_f64().unwrap();
            sum += p.iter().sum::<f64>();
            count += p.len() as f64;
        }
        let avg = sum / count;
        assert!((90_000.0..120_000.0).contains(&avg), "avg pressure {avg}");
    }

    #[test]
    fn coupled_inflow_overrides_chamber_target() {
        let mut ws = world();
        let m = FluidModule::default();
        // Pin one pane's inflow to a high upstream density.
        let first_id = ws.window(FLUID_WINDOW).unwrap().pane_ids()[0];
        let mut inflow = HashMap::new();
        inflow.insert(first_id, 3.0);
        for _ in 0..100 {
            m.step_coupled(&mut ws, 1e-4, 101_325.0, &inflow).unwrap();
        }
        // The coupled pane's inlet density approaches 3.0; uncoupled panes
        // stay near ambient.
        let w = ws.window(FLUID_WINDOW).unwrap();
        let coupled = w.pane(first_id).unwrap().data("rho").unwrap().as_f64().unwrap()[0];
        assert!(coupled > 2.0, "coupled inlet {coupled} should chase 3.0");
        let other = w.pane_ids()[1];
        let uncoupled = w.pane(other).unwrap().data("rho").unwrap().as_f64().unwrap()[0];
        assert!(uncoupled < 1.5, "uncoupled inlet {uncoupled} stays ambient");
    }

    #[test]
    fn outlet_means_are_physical() {
        let ws = world();
        let m = FluidModule::default();
        let mut outs = Vec::new();
        m.outlet_means(&ws, &mut outs).unwrap();
        assert_eq!(outs.len(), ws.window(FLUID_WINDOW).unwrap().n_panes());
        for (_, rho) in &outs {
            assert!(*rho > 1.0 && *rho < 1.4);
        }
    }

    #[test]
    fn higher_chamber_pressure_raises_inflow_density() {
        let mut ws_low = world();
        let mut ws_high = world();
        let m = FluidModule::default();
        for _ in 0..50 {
            m.step(&mut ws_low, 1e-4, 50_000.0).unwrap();
            m.step(&mut ws_high, 1e-4, 500_000.0).unwrap();
        }
        let mean = |ws: &Windows| -> f64 {
            let mut s = 0.0;
            let mut n = 0.0;
            for pane in ws.window(FLUID_WINDOW).unwrap().panes() {
                let rho = pane.data("rho").unwrap().as_f64().unwrap();
                s += rho.iter().sum::<f64>();
                n += rho.len() as f64;
            }
            s / n
        };
        assert!(mean(&ws_high) > mean(&ws_low));
    }
}
