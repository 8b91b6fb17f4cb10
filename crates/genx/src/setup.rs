//! Window schemas, block assignment and initial conditions.

use rocio_core::{DType, Result};
use rocmesh::{assign_blocks, Assignment, Workload};
use roccom::{AttrSpec, Pane, PaneMesh, Windows};

/// Names of the GENx windows.
pub const FLUID_WINDOW: &str = "fluid";
/// Unstructured-fluid window (Rocflu).
pub(crate) const FLU_WINDOW: &str = "fluflu";
pub const SOLID_WINDOW: &str = "solid";
pub const BURN_WINDOW: &str = "burn";

/// Which gas-dynamics solver the run plugs in (§3.1: "Rocflo-MP and
/// Rocflu-MP, two multi-physics codes using multi-block structured and
/// unstructured meshes, respectively").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FluidKind {
    #[default]
    Rocflo,
    Rocflu,
}

impl FluidKind {
    /// The window this solver computes on.
    pub fn window(self) -> &'static str {
        match self {
            FluidKind::Rocflo => FLUID_WINDOW,
            FluidKind::Rocflu => FLU_WINDOW,
        }
    }
}

/// Which structural solver the run plugs in ("Rocsolid and Rocfrac are
/// two structural mechanics solvers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolidKind {
    #[default]
    Rocfrac,
    Rocsolid,
}

/// This rank's share of the workload: indices into `workload.fluid` and
/// `workload.solid_boxes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MyBlocks {
    pub fluid: Vec<usize>,
    pub solid: Vec<usize>,
}

/// Partition the workload's blocks over `n_ranks` compute ranks by
/// *compute work* (cells for fluid blocks, tets for solid blocks), with
/// one joint greedy pass over both materials — the balanced fine-grained
/// distribution the paper's dynamic load balancing would produce, which
/// in turn balances the I/O load "automatically" (§4.1).
pub fn assign(workload: &Workload, n_ranks: usize) -> Vec<MyBlocks> {
    // Combined item list: fluid first, then solid, weighted by work.
    let n_fluid = workload.fluid.len();
    let mut weights: Vec<usize> = workload.fluid.iter().map(|b| b.n_cells()).collect();
    weights.extend(
        workload
            .solid_boxes
            .iter()
            .map(|b| b.n_cells() * 5), // tets per hex
    );
    let owners = assign_blocks(&weights, n_ranks, Assignment::Balanced);
    owners
        .into_iter()
        .map(|items| {
            let mut mine = MyBlocks::default();
            for i in items {
                if i < n_fluid {
                    mine.fluid.push(i);
                } else {
                    mine.solid.push(i - n_fluid);
                }
            }
            mine
        })
        .collect()
}

/// Declare the three windows with their schemas (every pane of a window
/// shares the schema; sizes differ per pane). Rocflo configuration.
pub fn declare_windows(ws: &mut Windows) -> Result<()> {
    declare_windows_for(ws, FluidKind::Rocflo, SolidKind::Rocfrac)
}

/// Declare windows for the chosen solver plug-ins.
pub fn declare_windows_for(
    ws: &mut Windows,
    fluid: FluidKind,
    _solid: SolidKind,
) -> Result<()> {
    match fluid {
        FluidKind::Rocflo => {
            let f = ws.create_window(FLUID_WINDOW)?;
            for name in ["rho", "p", "T", "E", "mach", "visc"] {
                f.declare_attr(AttrSpec::element(name, DType::F64, 1))?;
            }
            f.declare_attr(AttrSpec::node("vel", DType::F64, 3))?;
        }
        FluidKind::Rocflu => {
            let f = ws.create_window(FLU_WINDOW)?;
            for name in ["rho", "p", "T"] {
                f.declare_attr(AttrSpec::node(name, DType::F64, 1))?;
            }
            f.declare_attr(AttrSpec::node("vel", DType::F64, 3))?;
        }
    }

    let s = ws.create_window(SOLID_WINDOW)?;
    for name in ["temp", "vonmises", "damage"] {
        s.declare_attr(AttrSpec::node(name, DType::F64, 1))?;
    }
    s.declare_attr(AttrSpec::node("disp", DType::F64, 3))?;
    s.declare_attr(AttrSpec::node("vel", DType::F64, 3))?;

    let b = ws.create_window(BURN_WINDOW)?;
    for name in ["burn_rate", "regression", "ignited"] {
        b.declare_attr(AttrSpec::pane(name, DType::F64, 1))?;
    }
    // Rocburn-2D: per-surface-cell fields on each pane's burn grid.
    for name in ["rate_field", "regression_field"] {
        b.declare_attr(AttrSpec::element(name, DType::F64, 1))?;
    }
    Ok(())
}

/// Register this rank's panes and set initial conditions (Rocflo).
pub fn register_and_init(ws: &mut Windows, workload: &Workload, mine: &MyBlocks) -> Result<()> {
    register_and_init_for(ws, workload, mine, FluidKind::Rocflo)
}

/// Register this rank's panes for the chosen fluid solver.
pub fn register_and_init_for(
    ws: &mut Windows,
    workload: &Workload,
    mine: &MyBlocks,
    fluid: FluidKind,
) -> Result<()> {
    if fluid == FluidKind::Rocflu {
        // Tetrahedralize the fluid region: same boxes, node-centered data.
        let f = ws.window_mut(FLU_WINDOW)?;
        for &i in &mine.fluid {
            let b = &workload.fluid[i];
            let ub = rocmesh::UnstructuredBlock::tet_box(
                b.id,
                [b.ni, b.nj, b.nk],
                b.origin,
                b.spacing,
            );
            f.register_pane(b.id, ub.into())?;
            let pane = f.pane_mut(b.id)?;
            init_from_x(pane, "rho", |x| 1.2 + 0.05 * (x * 3.0).sin())?;
            init_from_x(pane, "p", |x| (1.2 + 0.05 * (x * 3.0).sin()) * 287.0 * 300.0)?;
            let t_arr = pane.data_mut("T")?.as_f64_mut()?;
            for t in t_arr.iter_mut() {
                *t = 300.0;
            }
            let vel = pane.data_mut("vel")?.as_f64_mut()?;
            for v in vel.chunks_exact_mut(3) {
                v[0] = 10.0;
            }
        }
        return register_solid_and_burn(ws, workload, mine);
    }
    {
        let f = ws.window_mut(FLUID_WINDOW)?;
        for &i in &mine.fluid {
            let b = &workload.fluid[i];
            f.register_pane(b.id, PaneMesh::from_structured(b))?;
            let pane = f.pane_mut(b.id)?;
            // Mild axial density perturbation: gives every block
            // distinct, position-dependent content.
            init_from_x(pane, "rho", |x| 1.2 + 0.05 * (x * 3.0).sin())?;
            let t_arr = pane.data_mut("T")?.as_f64_mut()?;
            for t in t_arr.iter_mut() {
                *t = 300.0;
            }
            init_from_x(pane, "p", |x| (1.2 + 0.05 * (x * 3.0).sin()) * 287.0 * 300.0)?;
            init_from_x(pane, "E", |x| {
                (1.2 + 0.05 * (x * 3.0).sin()) * 287.0 * 300.0 / 0.4
            })?;
            let vel = pane.data_mut("vel")?.as_f64_mut()?;
            for v in vel.chunks_exact_mut(3) {
                v[0] = 10.0;
                v[1] = 0.0;
                v[2] = 0.0;
            }
        }
    }
    register_solid_and_burn(ws, workload, mine)
}

/// Set a pane attribute from the axial position of each point it sits at,
/// read from the pane's own mesh: a node of an unstructured pane, a cell
/// centre of a structured one.
fn init_from_x(pane: &mut Pane, attr: &str, value: impl Fn(f64) -> f64) -> Result<()> {
    let (mesh, [buf]) = pane.split_mut([attr])?;
    let buf = buf.as_f64_mut()?;
    match mesh {
        PaneMesh::Unstructured { coords, .. } => {
            buf.iter_mut().zip(coords.chunks_exact(3)).for_each(|(v, point)| *v = value(point[0]));
        }
        // Cells run i fastest: each row of them runs through the x centres.
        PaneMesh::Structured { dims, origin, spacing } => {
            let xs = (0..dims[0]).map(|i| origin[0] + (i as f64 + 0.5) * spacing[0]);
            buf.iter_mut().zip(xs.cycle()).for_each(|(v, x)| *v = value(x));
        }
    }
    Ok(())
}

/// Solid + burn registration, common to both fluid configurations.
fn register_solid_and_burn(ws: &mut Windows, workload: &Workload, mine: &MyBlocks) -> Result<()> {
    {
        let s = ws.window_mut(SOLID_WINDOW)?;
        for &i in &mine.solid {
            let ub = workload.solid_block(i);
            let id = ub.id;
            s.register_pane(id, ub.into())?;
            let pane = s.pane_mut(id)?;
            let temp = pane.data_mut("temp")?.as_f64_mut()?;
            for t in temp.iter_mut() {
                *t = 300.0;
            }
            // disp, vel, vonmises, damage start at zero (already zeroed).
        }
    }
    {
        let b = ws.window_mut(BURN_WINDOW)?;
        for &i in &mine.solid {
            let bx = &workload.solid_boxes[i];
            // One burn pane per propellant block, carrying the Rocburn-2D
            // surface grid: a 2-D patch of burning-surface cells over the
            // block's inner face.
            b.register_pane(
                bx.id,
                PaneMesh::Structured {
                    dims: [bx.ni.clamp(1, 8), bx.nk.clamp(1, 8), 1],
                    origin: bx.origin,
                    spacing: [1.0; 3],
                },
            )?;
        }
    }
    Ok(())
}

/// Name this rank's panes on declared windows without building any: what
/// a restart starts from. The ids are the partition's; mesh and values
/// are the snapshot's, and the restart read builds each pane from its
/// block (`roccom::convert::apply_block`).
pub fn reserve_for(
    ws: &mut Windows,
    workload: &Workload,
    mine: &MyBlocks,
    fluid: FluidKind,
) -> Result<()> {
    for &i in &mine.fluid {
        ws.window_mut(fluid.window())?.reserve_pane(workload.fluid[i].id)?;
    }
    for window in [SOLID_WINDOW, BURN_WINDOW] {
        for &i in &mine.solid {
            ws.window_mut(window)?.reserve_pane(workload.solid_boxes[i].id)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocmesh::Workload;

    fn tiny() -> Workload {
        Workload::lab_scale_motor_scaled(1, 0.03)
    }

    #[test]
    fn assignment_covers_all_blocks_disjointly() {
        let w = tiny();
        let mine = assign(&w, 3);
        let mut fluid_seen: Vec<usize> = mine.iter().flat_map(|m| m.fluid.clone()).collect();
        fluid_seen.sort_unstable();
        assert_eq!(fluid_seen, (0..w.fluid.len()).collect::<Vec<_>>());
        let mut solid_seen: Vec<usize> = mine.iter().flat_map(|m| m.solid.clone()).collect();
        solid_seen.sort_unstable();
        assert_eq!(solid_seen, (0..w.solid_boxes.len()).collect::<Vec<_>>());
    }

    #[test]
    fn assignment_is_roughly_balanced() {
        let w = Workload::lab_scale_motor_scaled(1, 0.2);
        let n = 4;
        let mine = assign(&w, n);
        let (fw, sw) = w.block_weights();
        let loads: Vec<usize> = mine
            .iter()
            .map(|m| {
                m.fluid.iter().map(|&i| fw[i]).sum::<usize>()
                    + m.solid.iter().map(|&i| sw[i]).sum::<usize>()
            })
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max / min < 1.6, "imbalanced loads {loads:?}");
    }

    #[test]
    fn windows_register_and_initialize() {
        let w = tiny();
        let mine = assign(&w, 2);
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        register_and_init(&mut ws, &w, &mine[0]).unwrap();
        let f = ws.window(FLUID_WINDOW).unwrap();
        assert_eq!(f.n_panes(), mine[0].fluid.len());
        // Initial density is the perturbed profile, not zero.
        let pane = f.panes().next().unwrap();
        let rho = pane.data("rho").unwrap().as_f64().unwrap();
        assert!(rho.iter().all(|&r| r > 1.0 && r < 1.4));
        let p = pane.data("p").unwrap().as_f64().unwrap();
        assert!(p.iter().all(|&x| x > 90_000.0));
        // Burn panes mirror solid panes.
        assert_eq!(
            ws.window(BURN_WINDOW).unwrap().n_panes(),
            ws.window(SOLID_WINDOW).unwrap().n_panes()
        );
    }

    #[test]
    fn declared_field_counts_match_workload_estimates() {
        // The byte-estimate constants in rocmesh assume these schemas.
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        let f = ws.window(FLUID_WINDOW).unwrap();
        let scalars = f
            .schema()
            .iter()
            .filter(|s| s.ncomp == 1 && s.location == roccom::Location::Element)
            .count();
        assert_eq!(scalars, rocmesh::workload::FLUID_SCALAR_FIELDS);
        let s = ws.window(SOLID_WINDOW).unwrap();
        let nscalars = s
            .schema()
            .iter()
            .filter(|a| a.ncomp == 1 && a.location == roccom::Location::Node)
            .count();
        assert_eq!(nscalars, rocmesh::workload::SOLID_SCALAR_FIELDS);
    }
}
