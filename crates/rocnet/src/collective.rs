//! Collective operations over a communicator.
//!
//! Linear (root-centred) algorithms: correctness and modelled cost both
//! come from the underlying point-to-point layer, so barriers naturally
//! synchronize virtual clocks (every rank ends at ≥ the max participant
//! time) and the gathering half of an allgather or allreduce charges the
//! root for every inbound transfer.
//!
//! Every collective returns `Result`: a fabric failure (bad rank, poisoned
//! job) surfaces as `RocError::Comm` instead of tearing the rank thread
//! down, so callers holding open files can unwind cleanly. Received
//! buffers are returned as refcounted [`Bytes`] views of the fabric's
//! envelopes — no copy on the receive side.

use bytes::Bytes;
use rocio_core::{Result, RocError};

use crate::comm::Comm;

const OP_BARRIER_UP: u8 = 1;
const OP_BARRIER_DOWN: u8 = 2;
const OP_ALLGATHER_UP: u8 = 5;
const OP_ALLGATHER_DOWN: u8 = 6;
const OP_REDUCE: u8 = 7;
const OP_REDUCE_DOWN: u8 = 8;

/// Decode an 8-byte little-endian `f64` from the head of a payload.
pub(crate) fn le_f64(payload: &[u8], what: &str) -> Result<f64> {
    let bytes: [u8; 8] = payload
        .get(..8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            RocError::Comm(format!(
                "{what}: expected 8-byte f64 payload, got {} bytes",
                payload.len()
            ))
        })?;
    Ok(f64::from_le_bytes(bytes))
}

impl Comm {
    /// Synchronize all ranks; afterwards every clock is at least the
    /// maximum participant clock at entry.
    pub fn barrier(&self) -> Result<()> {
        let up = self.coll_tag(OP_BARRIER_UP);
        let down = self.coll_tag(OP_BARRIER_DOWN);
        if self.rank() == 0 {
            for src in 1..self.size() {
                self.recv(Some(src), Some(up))?;
            }
            for dst in 1..self.size() {
                self.send(dst, down, &[])?;
            }
        } else {
            self.send(0, up, &[])?;
            self.recv(Some(0), Some(down))?;
        }
        Ok(())
    }

    /// Gather everyone's bytes on every rank, in rank order.
    pub fn allgather(&self, data: &[u8]) -> Result<Vec<Bytes>> {
        let mut out = Vec::with_capacity(self.size());
        self.allgather_into(data, &mut out)?;
        Ok(out)
    }

    /// [`Comm::allgather`] into `out`, in place of what it held: a caller
    /// that gathers every step keeps one list instead of allocating one
    /// per call.
    pub fn allgather_into(&self, data: &[u8], out: &mut Vec<Bytes>) -> Result<()> {
        let up = self.coll_tag(OP_ALLGATHER_UP);
        let down = self.coll_tag(OP_ALLGATHER_DOWN);
        out.clear();
        if self.rank() == 0 {
            out.push(Bytes::copy_from_slice(data));
            for src in 1..self.size() {
                out.push(self.recv(Some(src), Some(up))?.payload);
            }
            // Flatten with length prefixes, then fan out one shared image.
            let mut flat = Vec::with_capacity(out.iter().map(|part| 8 + part.len()).sum());
            for part in out.iter() {
                flat.extend_from_slice(&(part.len() as u64).to_le_bytes());
                flat.extend_from_slice(part);
            }
            let flat = Bytes::from(flat);
            for dst in 1..self.size() {
                self.send_bytes(dst, down, flat.clone())?;
            }
        } else {
            self.send(0, up, data)?;
            let flat = self.recv(Some(0), Some(down))?.payload;
            let mut pos = 0;
            while pos < flat.len() {
                let len_bytes: [u8; 8] = flat
                    .get(pos..pos + 8)
                    .and_then(|s| s.try_into().ok())
                    .ok_or_else(|| {
                        RocError::Comm("allgather: truncated length prefix".to_string())
                    })?;
                let len = u64::from_le_bytes(len_bytes) as usize;
                pos += 8;
                let end = pos
                    .checked_add(len)
                    .filter(|&end| end <= flat.len())
                    .ok_or_else(|| {
                        RocError::Comm(format!(
                            "allgather: part of {len} bytes overruns {}-byte payload",
                            flat.len()
                        ))
                    })?;
                // Zero-copy: each part is a window into the broadcast image.
                out.push(flat.slice(pos..end));
                pos = end;
            }
        }
        Ok(())
    }

    /// All-reduce an `f64` with a binary combining function (must be
    /// associative and commutative).
    pub(crate) fn allreduce_f64(&self, x: f64, op: impl Fn(f64, f64) -> f64) -> Result<f64> {
        let up = self.coll_tag(OP_REDUCE);
        let down = self.coll_tag(OP_REDUCE_DOWN);
        if self.rank() == 0 {
            let mut acc = x;
            for src in 1..self.size() {
                let m = self.recv(Some(src), Some(up))?;
                acc = op(acc, le_f64(&m.payload, "allreduce")?);
            }
            // One image of the result; every send shares it by refcount.
            let image = Bytes::copy_from_slice(&acc.to_le_bytes());
            for dst in 1..self.size() {
                self.send_bytes(dst, down, image.clone())?;
            }
            Ok(acc)
        } else {
            self.send(0, up, &x.to_le_bytes())?;
            let m = self.recv(Some(0), Some(down))?;
            le_f64(&m.payload, "allreduce")
        }
    }

    /// All-reduce max.
    pub fn allreduce_max_f64(&self, x: f64) -> Result<f64> {
        self.allreduce_f64(x, f64::max)
    }

    /// All-reduce sum.
    pub fn allreduce_sum_f64(&self, x: f64) -> Result<f64> {
        self.allreduce_f64(x, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::harness::run_ranks;

    #[test]
    fn barrier_synchronizes_clocks() {
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            // Rank 2 is 10 seconds "behind schedule" (ahead in time).
            if comm.rank() == 2 {
                comm.advance(10.0);
            }
            comm.barrier().unwrap();
            comm.now()
        });
        for t in &out {
            assert!(*t >= 10.0, "clock after barrier {t} < 10");
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            comm.allgather(format!("r{}", comm.rank()).as_bytes()).unwrap()
        });
        for parts in &out {
            assert_eq!(parts.len(), 3);
            assert_eq!(parts[0], b"r0");
            assert_eq!(parts[2], b"r2");
        }
    }

    #[test]
    fn allgather_handles_variable_lengths() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            comm.allgather(&vec![comm.rank() as u8; comm.rank()]).unwrap()
        });
        for parts in &out {
            assert!(parts[0].is_empty());
            assert_eq!(parts[1], vec![1]);
            assert_eq!(parts[2], vec![2, 2]);
        }
    }

    #[test]
    fn allgather_refuses_a_length_prefix_that_overflows() {
        // Rank 0 takes the allgather's two collective tags itself and
        // answers rank 1 with a crafted image: a part claiming
        // `u64::MAX` bytes, then eight bytes.
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                let (up, down) = (
                    comm.coll_tag(OP_ALLGATHER_UP),
                    comm.coll_tag(OP_ALLGATHER_DOWN),
                );
                comm.recv(Some(1), Some(up)).unwrap();
                let image = [u64::MAX.to_le_bytes(), [7; 8]].concat();
                comm.send(1, down, &image).unwrap();
                None
            } else {
                comm.allgather(b"mine").err().map(|e| e.to_string())
            }
        });
        let err = out[1]
            .as_deref()
            .expect("the crafted image must fail the allgather");
        assert!(err.contains("overruns 16-byte payload"), "{err}");
    }

    #[test]
    fn allreduce_fans_out_one_shared_image() {
        // Ranks 1..4 take the allreduce's two collective tags themselves
        // and keep the result message: all three are one buffer.
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            if comm.rank() == 0 {
                assert_eq!(comm.allreduce_sum_f64(1.0).unwrap(), 4.0);
                0
            } else {
                let (up, down) = (comm.coll_tag(OP_REDUCE), comm.coll_tag(OP_REDUCE_DOWN));
                comm.send(0, up, &1.0f64.to_le_bytes()).unwrap();
                let m = comm.recv(Some(0), Some(down)).unwrap();
                assert_eq!(le_f64(&m.payload, "test").unwrap(), 4.0);
                m.payload.as_ptr() as usize
            }
        });
        assert!(out[2] == out[1] && out[3] == out[1], "{out:?}");
    }

    #[test]
    fn allreduce_max_and_sum() {
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let x = comm.rank() as f64 + 1.0;
            (
                comm.allreduce_max_f64(x).unwrap(),
                comm.allreduce_sum_f64(x).unwrap(),
            )
        });
        for (mx, sum) in &out {
            assert_eq!(*mx, 4.0);
            assert_eq!(*sum, 10.0);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let a = comm.allgather(&[comm.rank() as u8]).unwrap();
            let b = comm.allgather(&[10 + comm.rank() as u8]).unwrap();
            let s = comm.allreduce_sum_f64(1.0 + comm.rank() as f64).unwrap();
            let m = comm.allreduce_max_f64(5.0 * comm.rank() as f64).unwrap();
            (a, b, s, m)
        });
        for (a, b, s, m) in &out {
            assert_eq!(a, &[&[0u8][..], &[1]]);
            assert_eq!(b, &[&[10u8][..], &[11]]);
            assert_eq!((*s, *m), (3.0, 5.0));
        }
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.barrier().unwrap();
            let g = comm.allgather(b"solo").unwrap();
            let s = comm.allreduce_sum_f64(2.5).unwrap();
            let t = comm.allreduce_f64_tree(1.5, f64::max).unwrap();
            (g, s, t, comm.stats().msgs_sent)
        });
        let (g, s, t, sent) = &out[0];
        assert_eq!(g, &[&b"solo"[..]]);
        assert_eq!((*s, *t, *sent), (2.5, 1.5, 0));
    }

    #[test]
    fn allgather_charges_root_for_transfers() {
        // On a non-ideal network the root's clock after an allgather
        // must be at least the cost of receiving all contributions.
        let out = run_ranks(8, ClusterSpec::turing(8), |comm| {
            comm.allgather(&vec![0u8; 1 << 20]).unwrap();
            comm.now()
        });
        // Draining 7 MiB through the root's receive path (~4 ms/MiB) plus
        // one flight (~11 ms) is at least ~30 ms.
        assert!(out[0] > 0.03, "root time {} too small", out[0]);
    }
}
