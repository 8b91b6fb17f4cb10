//! `perf compare A.json B.json`: per-workload, per-metric deltas of two
//! documents of the same seed, every ratio with its base, judged against
//! the base document's bounds.

use crate::harness::{Better, Doc, Metric};

/// What a comparison of one metric concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, equal in every sample.
    Identical,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Better by more than either side's spread, or every new sample
    /// beats every base sample.
    Improved,
    /// Median worse than the base by more than the bound.
    Regressed,
    /// Within the bound by medians, but the run-to-run spread is wider
    /// than the bound, so "unchanged" is not shown.
    Unresolved,
    /// An exact metric (virtual time, count, failure share) changed.
    Drift,
    /// Present in the base, absent in the new document.
    Missing,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Drift => "DRIFT",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether this verdict makes the command exit non-zero.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Drift | Verdict::Missing)
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// `(new - base) / base`, signed as measured (not by direction).
    pub delta: f64,
    pub bound: f64,
    /// The wider of the two inter-quartile spreads (share of median).
    pub spread: f64,
    pub verdict: Verdict,
}

/// A bound below this marks an equality metric (virtual time, failure
/// share): any move beyond the bound, in either direction, is drift.
pub const EQUALITY_BELOW: f64 = 1e-3;

/// Judge end-to-end metric `name` of the new document against the base.
pub fn judge(name: &str, base: &Metric, new: &Metric) -> Verdict {
    if base.bound < EQUALITY_BELOW {
        let slack = base.bound * base.median.abs();
        let same = base
            .samples
            .iter()
            .chain(&new.samples)
            .all(|s| (s - base.median).abs() <= slack);
        return if same {
            Verdict::Identical
        } else if name == "fail_frac" && new.median < base.median {
            Verdict::Improved
        } else {
            // A virtual time that moved either way is drift the PR must
            // declare; a larger failure share is never acceptable.
            Verdict::Drift
        };
    }
    let sign = match base.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = worse, as a share of the base median.
    let worse = sign * (new.median - base.median) / base.median.abs();
    let spread = base.spread().max(new.spread());
    let all_better = match base.better {
        Better::Lower => new.max < base.min,
        Better::Higher => new.min > base.max,
    };
    if worse > base.bound {
        Verdict::Regressed
    } else if all_better || -worse > spread {
        Verdict::Improved
    } else if spread > base.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Compare two documents. `Err` when they are not comparable at all.
pub fn compare(base: &Doc, new: &Doc) -> Result<Vec<Row>, String> {
    if base.seed != new.seed || base.smoke != new.smoke {
        return Err(format!(
            "not comparable: base is seed {} smoke {}, new is seed {} smoke {}",
            base.seed, base.smoke, new.seed, new.smoke
        ));
    }
    let mut rows = Vec::new();
    for wb in &base.workloads {
        let wn = new.workload(&wb.name);
        for (name, mb) in &wb.end_to_end {
            let mn = wn.and_then(|w| w.end_to_end.get(name));
            rows.push(Row {
                workload: wb.name.clone(),
                metric: name.clone(),
                unit: mb.unit.clone(),
                base: mb.median,
                new: mn.map_or(f64::NAN, |m| m.median),
                delta: mn.map_or(f64::NAN, |m| (m.median - mb.median) / mb.median.abs()),
                bound: mb.bound,
                spread: mn.map_or(mb.spread(), |m| m.spread().max(mb.spread())),
                verdict: mn.map_or(Verdict::Missing, |m| judge(name, mb, m)),
            });
        }
        for lb in &wb.layers {
            let ln = wn.and_then(|w| w.layer(&lb.name));
            let verdict = match ln {
                None => Verdict::Missing,
                Some(l) if lb.exact && l.value.to_bits() == lb.value.to_bits() => {
                    Verdict::Identical
                }
                Some(_) if lb.exact => Verdict::Drift,
                // One host-clock sample per side: report the delta, do
                // not judge it.
                Some(_) => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: wb.name.clone(),
                metric: lb.name.clone(),
                unit: lb.unit.clone(),
                base: lb.value,
                new: ln.map_or(f64::NAN, |l| l.value),
                delta: ln.map_or(f64::NAN, |l| (l.value - lb.value) / lb.value.abs()),
                bound: f64::NAN,
                spread: f64::NAN,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Render rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<28} {:>14} {:>14} {:>9} {:>7} {:>7}  {}\n",
        "workload", "metric", "base", "new", "delta", "bound", "spread", "verdict"
    );
    let pct = |x: f64| {
        if x.is_nan() {
            "-".to_string()
        } else {
            format!("{:+.1}%", 100.0 * x)
        }
    };
    for r in rows {
        out += &format!(
            "{:<15} {:<28} {:>14} {:>14} {:>9} {:>7} {:>7}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            format!("{:.6}", r.base),
            format!("{:.6}", r.new),
            pct(r.delta),
            pct(r.bound).trim_start_matches('+'),
            pct(r.spread).trim_start_matches('+'),
            r.verdict.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{LayerMetric, WorkloadDoc, SCHEMA};
    use std::collections::BTreeMap;

    fn metric(better: Better, bound: f64, samples: &[f64]) -> Metric {
        Metric::from_samples("s", better, bound, samples.to_vec())
    }

    /// A one-workload document with the given wall/vt/fail samples.
    fn doc(wall: &[f64], vt: f64, fail: f64, write_ops: f64) -> Doc {
        let mut e = BTreeMap::new();
        e.insert("wall_s".into(), metric(Better::Lower, 0.15, wall));
        e.insert(
            "host_mb_s".into(),
            metric(Better::Higher, 0.15, &[100.0, 101.0, 99.0]),
        );
        e.insert("vt_io_s".into(), metric(Better::Lower, 0.0, &[vt, vt, vt]));
        e.insert(
            "fail_frac".into(),
            metric(Better::Lower, 0.0, &[fail, fail, fail]),
        );
        Doc {
            schema: SCHEMA.into(),
            seed: 42,
            smoke: false,
            nproc: 2,
            commit: "c".into(),
            workloads: vec![WorkloadDoc {
                name: "w".into(),
                why: String::new(),
                reps: wall.len(),
                attempted: 10,
                failed: 0,
                end_to_end: e,
                layers: vec![
                    LayerMetric {
                        name: "rocstore.write_ops".into(),
                        unit: "count".into(),
                        better: Better::Lower,
                        value: write_ops,
                        exact: true,
                    },
                    LayerMetric {
                        name: "rocsdf.write_s".into(),
                        unit: "s".into(),
                        better: Better::Lower,
                        value: 0.1,
                        exact: false,
                    },
                ],
                layer_self_s: BTreeMap::new(),
                check_failures: vec![],
            }],
        }
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    const STEADY: [f64; 5] = [1.00, 1.01, 0.99, 1.02, 1.00];

    #[test]
    fn same_numbers_are_unchanged_and_identical() {
        let rows = compare(&doc(&STEADY, 1.5, 0.0, 7.0), &doc(&STEADY, 1.5, 0.0, 7.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Unchanged);
        assert_eq!(verdict(&rows, "vt_io_s"), Verdict::Identical);
        assert_eq!(verdict(&rows, "fail_frac"), Verdict::Identical);
        assert_eq!(verdict(&rows, "rocstore.write_ops"), Verdict::Identical);
        assert!(rows.iter().all(|r| !r.verdict.fails()));
    }

    #[test]
    fn faster_is_improved_slower_beyond_bound_is_regressed() {
        let fast: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        let slow: Vec<f64> = STEADY.iter().map(|x| x * 1.2).collect();
        let a_bit_slow: Vec<f64> = STEADY.iter().map(|x| x * 1.1).collect();
        let base = doc(&STEADY, 1.5, 0.0, 7.0);
        let row = |new: &[f64]| {
            let rows = compare(&base, &doc(new, 1.5, 0.0, 7.0)).unwrap();
            rows.into_iter().find(|r| r.metric == "wall_s").unwrap()
        };
        assert_eq!(row(&fast).verdict, Verdict::Improved);
        assert!(
            (row(&fast).delta + 0.2).abs() < 1e-12,
            "ratio is given against its base"
        );
        assert_eq!(row(&slow).verdict, Verdict::Regressed);
        assert!(row(&slow).verdict.fails());
        assert_eq!(row(&a_bit_slow).verdict, Verdict::Unchanged);
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        let base = metric(Better::Higher, 0.15, &[100.0, 101.0, 99.0]);
        assert_eq!(
            judge(
                "host_mb_s",
                &base,
                &metric(Better::Higher, 0.15, &[80.0, 81.0, 79.0])
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                "host_mb_s",
                &base,
                &metric(Better::Higher, 0.15, &[120.0, 121.0, 119.0])
            ),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_not_unchanged() {
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.25, 1.0, 0.75];
        let rows = compare(&doc(&noisy, 1.5, 0.0, 7.0), &doc(&noisy, 1.5, 0.0, 7.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Unresolved);
        assert!(!Verdict::Unresolved.fails());
        // ... unless every new run beats every base run.
        let fast = [0.5, 0.6, 0.55, 0.65, 0.5, 0.6, 0.55];
        let rows = compare(&doc(&noisy, 1.5, 0.0, 7.0), &doc(&fast, 1.5, 0.0, 7.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Improved);
    }

    #[test]
    fn virtual_time_and_exact_counts_must_not_move_either_way() {
        let base = doc(&STEADY, 1.5, 0.0, 7.0);
        for vt in [1.5000000001, 1.4999999999] {
            let rows = compare(&base, &doc(&STEADY, vt, 0.0, 7.0)).unwrap();
            assert_eq!(verdict(&rows, "vt_io_s"), Verdict::Drift);
        }
        let rows = compare(&base, &doc(&STEADY, 1.5, 0.0, 8.0)).unwrap();
        assert_eq!(verdict(&rows, "rocstore.write_ops"), Verdict::Drift);
        assert!(Verdict::Drift.fails());
        // Host-clock layer numbers are single samples: shown, not judged.
        assert_eq!(verdict(&rows, "rocsdf.write_s"), Verdict::Unresolved);
    }

    #[test]
    fn equality_tolerance_absorbs_recorded_jitter_only() {
        let base = metric(Better::Lower, 1e-4, &[47.29799209902568; 3]);
        let jitter = metric(Better::Lower, 1e-4, &[47.29798878059456; 3]);
        let drift = metric(Better::Lower, 1e-4, &[47.31; 3]);
        assert_eq!(judge("vt_io_s", &base, &jitter), Verdict::Identical);
        assert_eq!(judge("vt_io_s", &base, &drift), Verdict::Drift);
    }

    #[test]
    fn larger_failure_share_fails_smaller_improves() {
        let clean = doc(&STEADY, 1.5, 0.0, 7.0);
        let broken = doc(&STEADY, 1.5, 0.25, 7.0);
        assert_eq!(
            verdict(&compare(&clean, &broken).unwrap(), "fail_frac"),
            Verdict::Drift
        );
        assert_eq!(
            verdict(&compare(&broken, &clean).unwrap(), "fail_frac"),
            Verdict::Improved
        );
    }

    #[test]
    fn missing_metrics_fail_and_other_seeds_do_not_compare() {
        let base = doc(&STEADY, 1.5, 0.0, 7.0);
        let mut new = base.clone();
        new.workloads[0].end_to_end.remove("wall_s");
        new.workloads[0].layers.clear();
        let rows = compare(&base, &new).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Missing);
        assert_eq!(verdict(&rows, "rocstore.write_ops"), Verdict::Missing);
        assert!(render(&rows).contains("MISSING"));
        let mut other = base.clone();
        other.seed = 7;
        assert!(compare(&base, &other).is_err());
    }
}
