//! Rocflu-like gas dynamics on *unstructured* tetrahedral panes.
//!
//! The paper's gas-dynamics layer has two interchangeable solvers:
//! "Rocflo-MP and Rocflu-MP, two multi-physics codes using multi-block
//! structured and unstructured meshes, respectively" (§3.1). This is the
//! unstructured one: node-centered fields on tet meshes, advected with an
//! upwind graph scheme over the connectivity edges — different data
//! layout, different window (`fluflu`), same Roccom-facing behaviour.

use rocio_core::Result;
use roccom::{PaneMesh, Windows};

use crate::setup::FLU_WINDOW;

/// Solver parameters.
#[derive(Debug, Clone)]
pub struct RocfluModule {
    /// Specific gas constant (J/kg/K).
    pub r_gas: f64,
    /// Advection speed along +x (m/s).
    pub advect: f64,
    /// Upwind relaxation coefficient per step.
    pub relax: f64,
    /// Modelled compute cost per node-step, in work units.
    pub work_per_node: f64,
    /// Per-node scratch (upstream sums and counts), kept across panes and
    /// steps: cleared, never shrunk, so a warm step allocates nothing.
    upstream_sum: Vec<f64>,
    upstream_cnt: Vec<u32>,
}

impl Default for RocfluModule {
    fn default() -> Self {
        RocfluModule {
            r_gas: 287.0,
            advect: 60.0,
            relax: 0.15,
            work_per_node: 9.0e-5,
            upstream_sum: Vec::new(),
            upstream_cnt: Vec::new(),
        }
    }
}

impl RocfluModule {
    /// Advance all local unstructured-fluid panes by `dt`. Returns work
    /// units spent.
    pub fn step(&mut self, ws: &mut Windows, dt: f64, chamber_pressure: f64) -> Result<f64> {
        let window = ws.window_mut(FLU_WINDOW)?;
        let mut nodes_total = 0usize;
        let (upstream_sum, upstream_cnt) = (&mut self.upstream_sum, &mut self.upstream_cnt);
        for pane in window.panes_mut() {
            let (mesh, [rho, t_field, p, vel]) = pane.split_mut(["rho", "T", "p", "vel"])?;
            let PaneMesh::Unstructured { coords, conn } = mesh else {
                continue;
            };
            let n_nodes = coords.len() / 3;
            nodes_total += n_nodes;

            // Upwind along +x over tet edges: each node relaxes toward the
            // average of its upstream (smaller-x) neighbours. The sums are
            // complete before any density is written.
            let rho = rho.as_f64_mut()?;
            upstream_sum.clear();
            upstream_sum.resize(n_nodes, 0.0);
            upstream_cnt.clear();
            upstream_cnt.resize(n_nodes, 0);
            for tet in conn.chunks_exact(4) {
                for a in 0..4 {
                    for b in 0..4 {
                        if a == b {
                            continue;
                        }
                        let (i, j) = (tet[a] as usize, tet[b] as usize);
                        if coords[j * 3] < coords[i * 3] {
                            upstream_sum[i] += rho[j];
                            upstream_cnt[i] += 1;
                        }
                    }
                }
            }
            let cfl = (self.advect * dt * 50.0).min(1.0) * self.relax;
            let inflow_rho = (chamber_pressure / (self.r_gas * 300.0)).max(0.1);
            for i in 0..n_nodes {
                if upstream_cnt[i] > 0 {
                    let upstream = upstream_sum[i] / upstream_cnt[i] as f64;
                    rho[i] += cfl * (upstream - rho[i]);
                } else {
                    // Inflow boundary (no upstream nodes).
                    rho[i] += 0.05 * (inflow_rho - rho[i]);
                }
            }
            // Temperature creep + EOS, as in Rocflo.
            let t_field = t_field.as_f64_mut()?;
            for t in t_field.iter_mut() {
                *t += 0.02 * dt * 1000.0;
            }
            for (c, x) in p.as_f64_mut()?.iter_mut().enumerate() {
                *x = rho[c] * self.r_gas * t_field[c];
            }
            for v in vel.as_f64_mut()?.chunks_exact_mut(3) {
                v[0] += dt * 0.5;
            }
        }
        Ok(nodes_total as f64 * self.work_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{assign, declare_windows_for, register_and_init_for, FluidKind, SolidKind};
    use rocmesh::Workload;

    fn world() -> Windows {
        let w = Workload::lab_scale_motor_scaled(3, 0.03);
        let mine = assign(&w, 1);
        let mut ws = Windows::new();
        declare_windows_for(&mut ws, FluidKind::Rocflu, SolidKind::Rocfrac).unwrap();
        register_and_init_for(&mut ws, &w, &mine[0], FluidKind::Rocflu).unwrap();
        ws
    }

    #[test]
    fn steps_unstructured_fluid_panes() {
        let mut ws = world();
        let mut m = RocfluModule::default();
        let work = m.step(&mut ws, 1e-4, 101_325.0).unwrap();
        assert!(work > 0.0);
        let nodes: usize = ws
            .window(FLU_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.mesh().n_nodes())
            .sum();
        assert!((work - nodes as f64 * m.work_per_node).abs() < 1e-12);
    }

    #[test]
    fn density_advects_downstream() {
        let mut ws = world();
        let mut m = RocfluModule::default();
        // Raise chamber pressure: inflow density rises and must propagate.
        let before: f64 = ws
            .window(FLU_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.data("rho").unwrap().as_f64().unwrap().iter().sum::<f64>())
            .sum();
        for _ in 0..50 {
            m.step(&mut ws, 1e-4, 400_000.0).unwrap();
        }
        let after: f64 = ws
            .window(FLU_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.data("rho").unwrap().as_f64().unwrap().iter().sum::<f64>())
            .sum();
        assert!(after > before, "mean density must rise: {before} -> {after}");
        // EOS consistency.
        for pane in ws.window(FLU_WINDOW).unwrap().panes() {
            let rho = pane.data("rho").unwrap().as_f64().unwrap();
            let t = pane.data("T").unwrap().as_f64().unwrap();
            let p = pane.data("p").unwrap().as_f64().unwrap();
            for c in 0..rho.len() {
                assert!((p[c] - rho[c] * 287.0 * t[c]).abs() < 1e-6 * p[c].abs());
                assert!(p[c].is_finite());
            }
        }
    }

    #[test]
    fn pressure_moments_cover_all_nodes() {
        let ws = world();
        let count: usize = ws
            .window(FLU_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.data("p").unwrap().as_f64().unwrap().len())
            .sum();
        let nodes: usize = ws
            .window(FLU_WINDOW)
            .unwrap()
            .panes()
            .map(|p| p.mesh().n_nodes())
            .sum();
        assert_eq!(count, nodes);
    }
}
