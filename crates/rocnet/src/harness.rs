//! `mpirun` equivalent: run a closure on every rank and collect results.
//!
//! Since the M:N scheduler landed this is a thin facade over
//! [`crate::sched`]: the default entry points run ranks as small-stack
//! threads admitted through a bounded worker pool
//! ([`SchedConfig::pooled`]), which is what makes multi-thousand-rank
//! jobs practical. [`SchedConfig::threaded`] runs the same code with
//! unbounded slots — one free-running OS thread per rank — and
//! scheduling never changes what a rank observes: `tests/scale_sched.rs`
//! holds both shapes to byte-identical output.

use std::sync::Arc;

use crate::cluster::ClusterSpec;
use crate::comm::Comm;
use crate::fabric::Fabric;
pub use crate::sched::{run_on_fabric_sched, run_ranks_sched, SchedConfig};

/// Run `f` on `n` ranks of a fresh fabric built from `spec` under the
/// default pooled scheduler, and return the per-rank results in rank
/// order.
///
/// `spec.placement` must place exactly `n` ranks.
///
/// Panics in any rank are propagated (the whole "job" aborts), matching
/// MPI's error-everybody-out behaviour for the purposes of tests.
pub fn run_ranks<T, F>(n: usize, spec: ClusterSpec, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    run_ranks_sched(n, spec, &SchedConfig::default(), f)
}

/// Like [`run_ranks`] but on a caller-provided fabric, so tests can inspect
/// it afterwards or run several "jobs" on the same machine model.
pub fn run_on_fabric<T, F>(fabric: &Arc<Fabric>, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    run_on_fabric_sched(fabric, &SchedConfig::default(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let out = run_ranks(5, ClusterSpec::ideal(5), |comm| comm.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "places 3 ranks")]
    fn mismatched_spec_panics() {
        run_ranks(4, ClusterSpec::ideal(3), |_c| ());
    }

    #[test]
    fn two_jobs_on_one_fabric() {
        let fabric = Arc::new(Fabric::new(ClusterSpec::ideal(2)));
        let a = run_on_fabric(&fabric, &|comm: Comm| comm.size());
        let b = run_on_fabric(&fabric, &|comm: Comm| comm.rank());
        assert_eq!(a, vec![2, 2]);
        assert_eq!(b, vec![0, 1]);
    }

    #[test]
    fn threaded_and_pooled_agree_on_results() {
        // Everything a rank can observe: whom each receive matched and
        // when it arrived, the collective results, and the final clock.
        let body = |comm: Comm| {
            let (n, me) = (comm.size(), comm.rank());
            let mut seen: Vec<(usize, u64)> = Vec::new();
            let m = comm
                .sendrecv((me + 1) % n, (me + n - 1) % n, 7, &[me as u8])
                .unwrap();
            seen.push((m.src, m.arrival.to_bits()));
            if me == 0 {
                for _ in 1..n {
                    let m = comm.recv(None, Some(8)).unwrap();
                    seen.push((m.src, m.arrival.to_bits()));
                }
            } else {
                comm.send(0, 8, &[me as u8]).unwrap();
            }
            comm.barrier().unwrap();
            let sum = comm.allreduce_sum_f64((me % 7) as f64).unwrap();
            // Nobody sends tag 9: every rank's timer fires.
            let deadline = comm.now() + 1e-3 * (1 + me % 3) as f64;
            let timed_out = comm.recv_deadline(None, Some(9), deadline).is_none();
            (seen, sum.to_bits(), timed_out, comm.now().to_bits())
        };
        const RANKS: usize = 256;
        let run = |cfg: SchedConfig| run_ranks_sched(RANKS, ClusterSpec::turing(RANKS), &cfg, body);
        let threaded = run(SchedConfig::threaded());
        assert!(threaded.iter().all(|r| r.2), "every deadline must expire");
        assert_eq!(threaded[0].0.len(), RANKS, "rank 0 saw the ring and the whole funnel");
        for workers in [2, 8] {
            assert!(
                run(SchedConfig::with_workers(workers)) == threaded,
                "scheduling must not change observables ({workers} workers)"
            );
        }
    }

    /// `n` ranks on `workers` slots with 128 KiB stacks: every rank but 0
    /// funnels its id into rank 0's wildcard receive (gate parks), then
    /// all cross a barrier (tree parks). Returns what each rank summed.
    fn funnel_then_barrier(n: usize, workers: usize) -> Vec<u64> {
        let sched = SchedConfig {
            workers,
            stack_bytes: 128 * 1024,
        };
        run_ranks_sched(n, ClusterSpec::ideal(n), &sched, |comm| {
            let mut sum = 0u64;
            if comm.rank() == 0 {
                for _ in 1..comm.size() {
                    let m = comm.recv(None, Some(7)).unwrap();
                    sum += u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                }
            } else {
                comm.send(0, 7, &(comm.rank() as u64).to_le_bytes()).unwrap();
            }
            comm.barrier().unwrap();
            sum
        })
    }

    #[test]
    fn pool_smaller_than_rank_count_completes() {
        // More ranks than workers: every rank parks and hands its slot on
        // at some point.
        for workers in [1, 3] {
            let out = funnel_then_barrier(16, workers);
            assert_eq!(out[0], (1..16).sum::<u64>(), "{workers} workers");
        }
    }

    #[test]
    fn multi_thousand_rank_job_completes_on_a_small_pool() {
        // The reach the M:N scheduler exists for: 8 workers, far past
        // what one default-stack thread per rank is comfortable with.
        // Sized from the build profile: 10 000 ranks when optimized (the
        // release-profile CI step), 1 024 in a debug build.
        let n: usize = if cfg!(debug_assertions) { 1024 } else { 10_000 };
        let out = funnel_then_barrier(n, 8);
        assert_eq!(out[0], (1..n as u64).sum::<u64>());
        assert!(out[1..].iter().all(|&t| t == 0));
    }
}
