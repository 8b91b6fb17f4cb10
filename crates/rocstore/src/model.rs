//! Disk/server timing models.

use rocio_core::SimTime;

/// A saturating *thrash* curve: `1 + min(coeff * (w-1)^exp, cap)`.
///
/// For writes this multiplies the fair-share slowdown (see
/// `DiskModel::write_time`); the cap reflects that past some concurrency
/// the server is fully thrashed and adding writers no longer makes each
/// byte slower relative to fair sharing.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ContentionCurve {
    pub coeff: f64,
    pub exp: f64,
    pub cap: f64,
}

impl ContentionCurve {
    /// A flat curve (no contention).
    pub fn flat() -> Self {
        ContentionCurve {
            coeff: 0.0,
            exp: 1.0,
            cap: 0.0,
        }
    }

    /// Multiplier for `w` concurrently active clients.
    pub fn factor(&self, w: usize) -> f64 {
        if w <= 1 {
            return 1.0;
        }
        1.0 + (self.coeff * ((w - 1) as f64).powf(self.exp)).min(self.cap)
    }
}

/// Timing model of one storage server (NFS server, GPFS server node…).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiskModel {
    /// Model name for reports.
    pub name: String,
    /// Fixed cost per I/O request (positioning, RPC round trip).
    pub seek: SimTime,
    /// Sequential write bandwidth in bytes/s, per server.
    pub write_bw: f64,
    /// Sequential read bandwidth in bytes/s, per server.
    pub read_bw: f64,
    /// Cost of creating/opening a file.
    pub open_cost: SimTime,
    /// Cost of closing (committing) a file.
    pub close_cost: SimTime,
    /// Write-side thrash on top of fair sharing (see
    /// `DiskModel::write_time`).
    pub write_contention: ContentionCurve,
    /// Read-side contention (applied directly to read transfer times —
    /// reads are served largely from cache and parallelize well).
    pub read_contention: ContentionCurve,
}

impl DiskModel {
    /// An effectively free disk for semantics-only tests.
    pub fn ideal() -> Self {
        DiskModel {
            name: "ideal".into(),
            seek: 0.0,
            write_bw: 1e15,
            read_bw: 1e15,
            open_cost: 0.0,
            close_cost: 0.0,
            write_contention: ContentionCurve::flat(),
            read_contention: ContentionCurve::flat(),
        }
    }

    /// The Turing development cluster's NFS-mounted ReiserFS through one
    /// server.
    ///
    /// Calibrated against Table 1's Rochdf row: ~64 MB per snapshot takes
    /// ~10 s with 16 concurrent writers and ~17 s with 32 (the write
    /// contention "bump"), while reads tolerate concurrency far better
    /// (restart row). Base bandwidths are in line with 2002-era
    /// single-server NFS over 100 Mb/s–1 Gb/s Ethernet.
    pub fn nfs_turing() -> Self {
        DiskModel {
            name: "nfs-turing".into(),
            seek: 0.4e-3,
            write_bw: 27e6,
            read_bw: 35e6,
            open_cost: 2e-3,
            close_cost: 2e-3,
            // Thrash g(16)=3.4, g(32)=5.5, capped 6.0: on top of fair
            // sharing this reproduces the 51→83 s jump from 16 to 32
            // writers, saturating past that.
            write_contention: ContentionCurve {
                coeff: 0.22,
                exp: 0.88,
                cap: 5.0,
            },
            read_contention: ContentionCurve {
                coeff: 0.02,
                exp: 0.8,
                cap: 1.0,
            },
        }
    }

    /// One of Frost's two GPFS server nodes.
    ///
    /// GPFS stripes well and is engineered for concurrent writers, so
    /// contention is mild; per-server bandwidth calibrated so the Rochdf
    /// (direct write) curve of Fig. 3(a) plateaus around 100–150 MB/s
    /// aggregate while Rocpanda's *apparent* throughput (bounded by message
    /// passing, not disk) can reach ~875 MB/s.
    pub(crate) fn gpfs_frost() -> Self {
        DiskModel {
            name: "gpfs-frost".into(),
            seek: 0.2e-3,
            write_bw: 80e6,
            read_bw: 120e6,
            open_cost: 1e-3,
            close_cost: 1e-3,
            write_contention: ContentionCurve {
                coeff: 0.02,
                exp: 0.7,
                cap: 1.0,
            },
            read_contention: ContentionCurve {
                coeff: 0.01,
                exp: 0.7,
                cap: 0.5,
            },
        }
    }

    /// Write service time of `bytes` as seen by one of `w` concurrent
    /// writers: **processor sharing with thrash**. Each writer gets
    /// `bw / w`, further degraded by the thrash curve, so aggregate
    /// throughput is `bw / thrash(w)` and the result is independent of
    /// operation arrival order (the property that keeps virtual times
    /// deterministic under host thread scheduling).
    pub(crate) fn write_time(&self, bytes: usize, w: usize) -> SimTime {
        let w = w.max(1);
        // Request setup (seek/RPC) shares the server fairly; the data
        // transfer additionally thrashes (cache eviction, head movement
        // between streams).
        self.seek * w as f64
            + bytes as f64 / self.write_bw * w as f64 * self.write_contention.factor(w)
    }

    /// Pure read transfer time of `bytes` under `w` active readers.
    pub(crate) fn read_time(&self, bytes: usize, w: usize) -> SimTime {
        self.seek + bytes as f64 / self.read_bw * self.read_contention.factor(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_factor_is_one_for_single_client() {
        let c = ContentionCurve {
            coeff: 0.5,
            exp: 1.0,
            cap: 10.0,
        };
        assert_eq!(c.factor(0), 1.0);
        assert_eq!(c.factor(1), 1.0);
        assert!(c.factor(2) > 1.0);
    }

    #[test]
    fn contention_saturates_at_cap() {
        let c = ContentionCurve {
            coeff: 1.0,
            exp: 1.0,
            cap: 3.0,
        };
        assert_eq!(c.factor(100), 4.0);
        assert_eq!(c.factor(1000), 4.0);
    }

    #[test]
    fn contention_is_monotone() {
        let c = DiskModel::nfs_turing().write_contention;
        let mut prev = 0.0;
        for w in 1..=128 {
            let f = c.factor(w);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn nfs_write_bump_shape() {
        // Fixed total data spread over w writers: the *aggregate* time is
        // (bytes/w) * w * g(w) / bw = bytes * g(w) / bw. With 32 writers
        // it must be >1.5x the 16-writer time (the Table 1 bump), and 64
        // close to 32 (thrash saturation).
        let m = DiskModel::nfs_turing();
        let agg = |w: usize| m.write_time((64 << 20) / w, w);
        let (t16, t32, t64) = (agg(16), agg(32), agg(64));
        assert!(t32 / t16 > 1.5, "t32/t16 = {}", t32 / t16);
        assert!(t64 / t32 < 1.25, "t64/t32 = {}", t64 / t32);
    }

    #[test]
    fn write_aggregate_bandwidth_is_bounded() {
        // w writers each writing B bytes finish at B*w*g(w)/bw, so the
        // aggregate rate is bw/g(w) <= bw — the server never exceeds its
        // physical bandwidth no matter how many clients pile on.
        let m = DiskModel::nfs_turing();
        for w in [1usize, 2, 8, 64] {
            let per_writer = m.write_time(1 << 20, w);
            let aggregate_rate = (w as f64 * (1 << 20) as f64) / per_writer;
            assert!(
                aggregate_rate <= m.write_bw * 1.01,
                "aggregate {aggregate_rate} exceeds disk bw at w={w}"
            );
        }
    }

    #[test]
    fn nfs_reads_tolerate_concurrency_better_than_writes() {
        let m = DiskModel::nfs_turing();
        let read_degr = m.read_time(1 << 20, 32) / m.read_time(1 << 20, 1);
        let write_degr = m.write_time(1 << 20, 32) / m.write_time(1 << 20, 1);
        assert!(read_degr < write_degr / 2.0);
    }

    #[test]
    fn gpfs_is_gentler_than_nfs() {
        let nfs = DiskModel::nfs_turing();
        let gpfs = DiskModel::gpfs_frost();
        assert!(gpfs.write_time(1 << 20, 32) < nfs.write_time(1 << 20, 32));
        assert!(
            gpfs.write_contention.factor(64) < nfs.write_contention.factor(64)
        );
    }

    #[test]
    fn ideal_disk_is_free() {
        let m = DiskModel::ideal();
        assert!(m.write_time(1 << 30, 100) < 2e-3);
        assert!(m.read_time(1 << 30, 100) < 2e-6);
    }
}
