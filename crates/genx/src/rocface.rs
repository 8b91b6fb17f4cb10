//! Rocface: data transfer at the fluid–solid interface.
//!
//! "Rocface is responsible for transferring data at the fluid-solid
//! interface" (§3.1). Following Roccom's philosophy, the transfer is split
//! into registry functions (local reductions and applications, knowing
//! nothing about parallelism) that the orchestrator glues together with
//! one all-reduce — so neither physics module ever sees the other's data
//! structures, only named window attributes.

use rocio_core::Result;
use roccom::{ComValue, FunctionRegistry, Windows};

use crate::setup::{BURN_WINDOW, FLUID_WINDOW};

/// Register the interface-transfer functions under `rocface.*`.
///
/// * `rocface.pressure_moments(window?)` → `Floats([sum, count])` of the
///   local fluid pressures (defaults to the structured fluid window).
/// * `rocface.apply_chamber(p)` — record the global chamber pressure on
///   every burn pane (as the `burn_rate` driver reads it) by priming the
///   pane attribute used for coupling.
pub fn register(reg: &mut FunctionRegistry<'_>) -> Result<()> {
    reg.register(
        "rocface.pressure_moments",
        Box::new(|ws, args| {
            let name = match args.first() {
                Some(v) => v.as_str()?,
                None => FLUID_WINDOW,
            };
            let w = ws.window(name)?;
            // Per-pane moments, flattened [id, sum, count]* — pane-level
            // granularity keeps the global reduction's summation order
            // independent of the block distribution (bit-reproducible
            // results on any processor count).
            let mut out = Vec::with_capacity(3 * w.n_panes());
            for pane in w.panes() {
                let p = pane.data("p")?.as_f64()?;
                out.push(pane.id.0 as f64);
                out.push(p.iter().sum::<f64>());
                out.push(p.len() as f64);
            }
            Ok(ComValue::Floats(out))
        }),
    )?;
    reg.register(
        "rocface.apply_chamber",
        Box::new(|ws, args| {
            let p = args[0].as_float()?;
            // Prime ignition state so a cold chamber cannot "unignite".
            let w = ws.window_mut(BURN_WINDOW)?;
            for pane in w.panes_mut() {
                let ignited = pane.data_mut("ignited")?.as_f64_mut()?;
                if p > 0.0 && ignited[0] < 0.0 {
                    ignited[0] = 0.0;
                }
            }
            Ok(ComValue::Unit)
        }),
    )?;
    Ok(())
}

/// Local half of the chamber-pressure reduction: per-pane
/// `(id, sum, count)` triples for this rank's fluid panes, in place of
/// what `out` held.
pub(crate) fn local_pane_moments(
    reg: &mut FunctionRegistry<'_>,
    ws: &mut Windows,
    window: &str,
    out: &mut Vec<(u64, f64, f64)>,
) -> Result<()> {
    match reg.call(
        "rocface.pressure_moments",
        ws,
        &[ComValue::Str(window.to_string())],
    )? {
        ComValue::Floats(v) if v.len() % 3 == 0 => {
            out.clear();
            out.extend(v.chunks_exact(3).map(|c| (c[0] as u64, c[1], c[2])));
            Ok(())
        }
        other => Err(rocio_core::RocError::Mismatch(format!(
            "rocface.pressure_moments returned {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{assign, declare_windows, register_and_init};
    use rocmesh::Workload;

    /// Aggregate (sum, count) of this rank's fluid panes.
    fn local_pressure_moments(reg: &mut FunctionRegistry<'_>, ws: &mut Windows) -> Result<(f64, f64)> {
        let mut triples = Vec::new();
        local_pane_moments(reg, ws, FLUID_WINDOW, &mut triples)?;
        Ok(triples
            .iter()
            .fold((0.0, 0.0), |(s, c), &(_, ps, pc)| (s + ps, c + pc)))
    }

    #[test]
    fn moments_reflect_fluid_pressure() {
        let w = Workload::lab_scale_motor_scaled(3, 0.03);
        let mine = assign(&w, 1);
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        register_and_init(&mut ws, &w, &mine[0]).unwrap();
        let mut reg = FunctionRegistry::new();
        register(&mut reg).unwrap();
        let (sum, count) = local_pressure_moments(&mut reg, &mut ws).unwrap();
        assert!(count > 0.0);
        let avg = sum / count;
        assert!((80_000.0..130_000.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn apply_chamber_is_callable() {
        let w = Workload::lab_scale_motor_scaled(3, 0.03);
        let mine = assign(&w, 1);
        let mut ws = Windows::new();
        declare_windows(&mut ws).unwrap();
        register_and_init(&mut ws, &w, &mine[0]).unwrap();
        let mut reg = FunctionRegistry::new();
        register(&mut reg).unwrap();
        reg.call(
            "rocface.apply_chamber",
            &mut ws,
            &[ComValue::Float(101_325.0)],
        )
        .unwrap();
    }
}
