//! Rocburn-like burn-rate models on pane-level attributes.
//!
//! "The combustion solver is composed of a two-dimensional framework
//! Rocburn-2D and **three nonlinear one-dimensional burn-rate models with
//! integrated ignition models**" (§3.1). Three laws are provided, all
//! driven by the chamber pressure Rocface supplies:
//!
//! * [`BurnLaw::Apn`] — Saint-Robert/Vieille: `r = a·P^n`;
//! * [`BurnLaw::TemperatureSensitive`] — APN times an exponential initial-
//!   temperature sensitivity `exp(σ·(T0 - Tref))`;
//! * [`BurnLaw::Saturated`] — APN rolled off above a reference pressure:
//!   `r = a·P^n / (1 + P/P_ref)^n` (plateau propellants).
//!
//! One burn pane per propellant block; the regression distance it
//! integrates is what drives mesh regression in long runs ("these mesh
//! blocks change as the propellant burns").

use rocio_core::Result;
use roccom::Windows;

use crate::setup::BURN_WINDOW;

/// The burn-rate law — one of the paper's three 1-D models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurnLaw {
    /// `r = a · P^n`.
    Apn { a: f64, n: f64 },
    /// `r = a · P^n · exp(sigma · (t0 - t_ref))`.
    TemperatureSensitive {
        a: f64,
        n: f64,
        sigma: f64,
        t0: f64,
        t_ref: f64,
    },
    /// `r = a · P^n / (1 + P/p_ref)^n` — saturating plateau.
    Saturated { a: f64, n: f64, p_ref: f64 },
}

impl BurnLaw {
    /// Burn rate (m/s) at chamber pressure `p` (Pa).
    pub fn rate(&self, p: f64) -> f64 {
        let p = p.max(0.0);
        match *self {
            BurnLaw::Apn { a, n } => a * p.powf(n),
            BurnLaw::TemperatureSensitive {
                a,
                n,
                sigma,
                t0,
                t_ref,
            } => a * p.powf(n) * (sigma * (t0 - t_ref)).exp(),
            BurnLaw::Saturated { a, n, p_ref } => a * p.powf(n) / (1.0 + p / p_ref).powf(n),
        }
    }

    /// Model name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BurnLaw::Apn { .. } => "apn",
            BurnLaw::TemperatureSensitive { .. } => "temp-sensitive",
            BurnLaw::Saturated { .. } => "saturated",
        }
    }
}

/// Burn module parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnModule {
    /// The burn-rate law in effect.
    pub law: BurnLaw,
    /// Pre-exponential factor `a` (m/s at 1 Pa^n) — kept for the default
    /// APN law and the tests that probe it directly.
    pub a: f64,
    /// Pressure exponent `n`.
    pub n: f64,
    /// Ignition pressure threshold (Pa).
    pub ignition_pressure: f64,
    /// Modelled compute cost per pane-step, in work units.
    pub work_per_pane: f64,
}

impl Default for BurnModule {
    fn default() -> Self {
        BurnModule {
            law: BurnLaw::Apn { a: 3.0e-5, n: 0.35 },
            a: 3.0e-5,
            n: 0.35,
            ignition_pressure: 101_400.0,
            work_per_pane: 2.0e-5,
        }
    }
}

impl BurnModule {
    /// Advance all local burn panes by `dt` under `chamber_pressure`.
    ///
    /// Each pane carries a Rocburn-2D surface grid: the rate varies across
    /// the surface with a deterministic local pressure perturbation, and
    /// the pane scalars report the surface means. Returns work units spent
    /// (proportional to surface cells).
    pub fn step(&self, ws: &mut Windows, dt: f64, chamber_pressure: f64) -> Result<f64> {
        let window = ws.window_mut(BURN_WINDOW)?;
        let mut cells_total = 0usize;
        for pane in window.panes_mut() {
            let (mesh, [ignited, rate_field, reg_field, burn_rate, regression]) =
                pane.split_mut([
                    "ignited",
                    "rate_field",
                    "regression_field",
                    "burn_rate",
                    "regression",
                ])?;
            let ignited = ignited.as_f64_mut()?;
            if ignited[0] == 0.0 && chamber_pressure >= self.ignition_pressure {
                ignited[0] = 1.0;
            }
            let ignited_now = ignited[0] > 0.0;
            let n_cells = mesh.n_elems();
            cells_total += n_cells;
            let mut mean_rate = 0.0;
            let reg_field = reg_field.as_f64_mut()?;
            for (c, r) in rate_field.as_f64_mut()?.iter_mut().enumerate() {
                *r = if ignited_now {
                    // Local pressure perturbation across the surface.
                    let local_p = chamber_pressure * (1.0 + 0.05 * ((c as f64) * 0.7).sin());
                    self.law.rate(local_p)
                } else {
                    0.0
                };
                mean_rate += *r;
                reg_field[c] += *r * dt;
            }
            mean_rate /= n_cells.max(1) as f64;
            burn_rate.as_f64_mut()?[0] = mean_rate;
            regression.as_f64_mut()?[0] += mean_rate * dt;
        }
        Ok(cells_total as f64 * self.work_per_pane)
    }
}

#[cfg(test)]
impl BurnModule {
    /// Total regression distance across local panes.
    pub(crate) fn total_regression(&self, ws: &Windows) -> Result<f64> {
        let window = ws.window(BURN_WINDOW)?;
        let mut total = 0.0;
        for pane in window.panes() {
            total += pane.data("regression")?.as_f64()?[0];
        }
        Ok(total)
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
    fn no_burn_below_ignition_pressure() {
        let mut ws = world();
        let m = BurnModule::default();
        m.step(&mut ws, 1e-3, 100_000.0).unwrap();
        assert_eq!(m.total_regression(&ws).unwrap(), 0.0);
    }

    #[test]
    fn ignition_latches() {
        let mut ws = world();
        let m = BurnModule::default();
        m.step(&mut ws, 1e-3, 200_000.0).unwrap(); // ignite
        m.step(&mut ws, 1e-3, 100_000.0).unwrap(); // below threshold, still burns
        let pane = ws.window(BURN_WINDOW).unwrap().panes().next().unwrap();
        assert_eq!(pane.data("ignited").unwrap().as_f64().unwrap()[0], 1.0);
        assert!(pane.data("burn_rate").unwrap().as_f64().unwrap()[0] > 0.0);
    }

    #[test]
    fn burn_rate_follows_apn_law() {
        let mut ws = world();
        let m = BurnModule::default();
        m.step(&mut ws, 1e-3, 200_000.0).unwrap();
        let r1 = {
            let p = ws.window(BURN_WINDOW).unwrap().panes().next().unwrap();
            p.data("burn_rate").unwrap().as_f64().unwrap()[0]
        };
        m.step(&mut ws, 1e-3, 400_000.0).unwrap();
        let r2 = {
            let p = ws.window(BURN_WINDOW).unwrap().panes().next().unwrap();
            p.data("burn_rate").unwrap().as_f64().unwrap()[0]
        };
        // Mean over the surface: the perturbation skews the pure 2^n ratio
        // only marginally.
        let expect_ratio = 2.0f64.powf(m.n);
        assert!((r2 / r1 - expect_ratio).abs() < 0.01, "{}", r2 / r1);
    }

    #[test]
    fn surface_grid_varies_and_integrates() {
        let mut ws = world();
        let m = BurnModule::default();
        for _ in 0..3 {
            m.step(&mut ws, 1e-3, 250_000.0).unwrap();
        }
        let pane = ws.window(BURN_WINDOW).unwrap().panes().next().unwrap();
        let rates = pane.data("rate_field").unwrap().as_f64().unwrap();
        assert!(rates.len() > 1, "Rocburn-2D needs a surface grid");
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "rate must vary across the surface");
        // Pane scalar is the surface mean.
        let mean: f64 = rates.iter().sum::<f64>() / rates.len() as f64;
        let scalar = pane.data("burn_rate").unwrap().as_f64().unwrap()[0];
        assert!((mean - scalar).abs() < 1e-12);
        // Regression field integrates the rate field.
        let regs = pane.data("regression_field").unwrap().as_f64().unwrap();
        for (reg, rate) in regs.iter().zip(rates) {
            assert!((reg - rate * 3e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn three_laws_order_sensibly() {
        let apn = BurnLaw::Apn { a: 3.0e-5, n: 0.35 };
        let hot = BurnLaw::TemperatureSensitive {
            a: 3.0e-5,
            n: 0.35,
            sigma: 0.002,
            t0: 320.0,
            t_ref: 300.0,
        };
        let cold = BurnLaw::TemperatureSensitive {
            a: 3.0e-5,
            n: 0.35,
            sigma: 0.002,
            t0: 280.0,
            t_ref: 300.0,
        };
        let sat = BurnLaw::Saturated {
            a: 3.0e-5,
            n: 0.35,
            p_ref: 200_000.0,
        };
        let p = 300_000.0;
        assert!(hot.rate(p) > apn.rate(p), "hot propellant burns faster");
        assert!(cold.rate(p) < apn.rate(p), "cold propellant burns slower");
        assert!(sat.rate(p) < apn.rate(p), "plateau rolls the rate off");
        // At low pressure the saturated law approaches APN.
        let low = 1_000.0;
        assert!((sat.rate(low) / apn.rate(low) - 1.0).abs() < 0.01);
    }

    #[test]
    fn saturated_law_plateaus() {
        let sat = BurnLaw::Saturated {
            a: 3.0e-5,
            n: 0.35,
            p_ref: 100_000.0,
        };
        // Past the reference pressure, doubling P gains far less than the
        // APN 2^n factor.
        let r1 = sat.rate(1.0e6);
        let r2 = sat.rate(2.0e6);
        assert!(r2 / r1 < 2.0f64.powf(0.35) * 0.9);
        assert!(r2 > r1, "still monotone");
    }

    #[test]
    fn module_uses_configured_law() {
        let mut ws = world();
        let m = BurnModule {
            law: BurnLaw::Saturated {
                a: 3.0e-5,
                n: 0.35,
                p_ref: 50_000.0,
            },
            ..Default::default()
        };
        m.step(&mut ws, 1e-3, 200_000.0).unwrap();
        let pane = ws.window(BURN_WINDOW).unwrap().panes().next().unwrap();
        let got = pane.data("burn_rate").unwrap().as_f64().unwrap()[0];
        // Surface mean of the configured law under the perturbation: close
        // to the unperturbed rate.
        assert!((got / m.law.rate(200_000.0) - 1.0).abs() < 0.01);
    }

    #[test]
    fn regression_accumulates_monotonically() {
        let mut ws = world();
        let m = BurnModule::default();
        let mut prev = 0.0;
        for _ in 0..10 {
            m.step(&mut ws, 1e-3, 300_000.0).unwrap();
            let now = m.total_regression(&ws).unwrap();
            assert!(now >= prev);
            prev = now;
        }
        assert!(prev > 0.0);
    }
}
