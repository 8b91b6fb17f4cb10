//! Data-sieving read planner.
//!
//! Given a batch of `(offset, len)` ranges, [`SievePlan::build`] produces a
//! small set of *covering windows*: each window is one contiguous read that
//! spans a cluster of nearby ranges, holes included. Reading a window costs
//! one seek plus the window's bytes; reading the ranges individually costs
//! one seek each. Merging two clusters separated by a `gap` therefore pays
//! `gap / read_bw` to save one `seek` — the caller encodes that trade as
//! `max_gap ≈ seek · read_bw` and the planner greedily merges every gap at
//! or below it ("Optimizing Noncontiguous Accesses in MPI-IO", Thakur,
//! Gropp, Lusk).
//!
//! The plan is a pure function of the inputs — no clocks, no RNG — so the
//! same request always sieves the same way on every rank.

/// One covering window plus the accounting needed by the cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SievePlan {
    /// Covering windows `(offset, len)`, ascending by offset, disjoint,
    /// each separated from the next by a gap strictly greater than the
    /// `max_gap` the plan was built with.
    pub windows: Vec<(usize, usize)>,
    /// Bytes the caller actually asked for, counted once per byte even
    /// when requested ranges overlap or repeat.
    pub useful_bytes: usize,
    /// Bytes the plan reads: useful bytes plus the holes read through.
    pub total_bytes: usize,
}

impl SievePlan {
    /// Build a plan for `ranges`. Zero-length ranges are ignored; overlap
    /// and duplicates collapse. `max_gap` is the largest hole worth
    /// reading through instead of paying a fresh seek.
    pub fn build(ranges: &[(usize, usize)], max_gap: usize) -> SievePlan {
        // Collapse the request into disjoint ascending extents.
        let mut extents: Vec<(usize, usize)> = ranges
            .iter()
            .filter(|&&(_, len)| len > 0)
            .map(|&(off, len)| (off, off.saturating_add(len)))
            .collect();
        extents.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(extents.len());
        for (start, end) in extents.drain(..) {
            match merged.last_mut() {
                Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
                _ => merged.push((start, end)),
            }
        }
        let useful_bytes: usize = merged.iter().map(|&(s, e)| e - s).sum();

        // Greedily absorb gaps no larger than `max_gap`.
        let mut windows: Vec<(usize, usize)> = Vec::with_capacity(merged.len());
        for (start, end) in merged {
            match windows.last_mut() {
                Some((w_off, w_len)) if start - (*w_off + *w_len) <= max_gap => {
                    *w_len = end - *w_off;
                }
                _ => windows.push((start, end - start)),
            }
        }
        let total_bytes: usize = windows.iter().map(|&(_, len)| len).sum();
        SievePlan { windows, useful_bytes, total_bytes }
    }

    /// Number of contiguous reads the plan issues.
    pub fn n_windows(&self) -> usize {
        self.windows.len()
    }

    /// Bytes read through holes (waste the sieve accepts to save seeks).
    pub fn hole_bytes(&self) -> usize {
        self.total_bytes - self.useful_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_zero_length_requests_plan_nothing() {
        let plan = SievePlan::build(&[], 64);
        assert_eq!(plan.windows, vec![]);
        assert_eq!(plan.useful_bytes, 0);
        assert_eq!(plan.total_bytes, 0);
        assert_eq!(plan.hole_bytes(), 0);

        let plan = SievePlan::build(&[(10, 0), (99, 0)], 64);
        assert_eq!(plan.windows, vec![]);
    }

    /// A range whose end passes `usize::MAX` (a hostile file index) plans
    /// to the end of the address space instead of overflowing; the store
    /// refuses the window when it is read.
    #[test]
    fn a_range_past_the_end_of_the_address_space_plans_without_overflow() {
        let plan = SievePlan::build(&[(usize::MAX - 3, 100), (0, 8)], 64);
        assert_eq!(plan.windows, vec![(0, 8), (usize::MAX - 3, 3)]);
        assert_eq!(plan.useful_bytes, 11);
    }

    #[test]
    fn dense_stride_merges_into_one_window() {
        // 8-byte pieces every 16 bytes: holes of 8 <= max_gap 8.
        let ranges: Vec<_> = (0..10).map(|i| (i * 16, 8)).collect();
        let plan = SievePlan::build(&ranges, 8);
        assert_eq!(plan.windows, vec![(0, 9 * 16 + 8)]);
        assert_eq!(plan.useful_bytes, 80);
        assert_eq!(plan.hole_bytes(), 9 * 8);
    }

    #[test]
    fn sparse_stride_stays_per_range() {
        let ranges: Vec<_> = (0..4).map(|i| (i * 1000, 8)).collect();
        let plan = SievePlan::build(&ranges, 64);
        assert_eq!(plan.n_windows(), 4);
        assert_eq!(plan.total_bytes, plan.useful_bytes);
    }

    #[test]
    fn overlap_duplicates_and_order_collapse() {
        // Same plan regardless of input order; overlapping bytes counted once.
        let a = SievePlan::build(&[(0, 10), (5, 10), (5, 10), (40, 4)], 3);
        let b = SievePlan::build(&[(40, 4), (5, 10), (0, 10), (5, 10)], 3);
        assert_eq!(a, b);
        assert_eq!(a.windows, vec![(0, 15), (40, 4)]);
        assert_eq!(a.useful_bytes, 19);
        assert_eq!(a.hole_bytes(), 0);
    }

    #[test]
    fn gap_at_threshold_merges_gap_above_does_not() {
        let at = SievePlan::build(&[(0, 4), (8, 4)], 4);
        assert_eq!(at.windows, vec![(0, 12)]);
        let above = SievePlan::build(&[(0, 4), (9, 4)], 4);
        assert_eq!(above.n_windows(), 2);
    }
}
