//! Collective operations over a communicator.
//!
//! Linear (root-centred) algorithms: correctness and modelled cost both
//! come from the underlying point-to-point layer, so barriers naturally
//! synchronize virtual clocks (every rank ends at ≥ the max participant
//! time) and gathers charge the root for every inbound transfer.
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
const OP_BCAST: u8 = 3;
const OP_GATHER: u8 = 4;
const OP_ALLGATHER_UP: u8 = 5;
const OP_ALLGATHER_DOWN: u8 = 6;
const OP_REDUCE: u8 = 7;
const OP_REDUCE_DOWN: u8 = 8;
const OP_SCATTER: u8 = 9;
const OP_ALLTOALL: u8 = 10;

/// Decode an 8-byte little-endian `f64` from the head of a payload.
fn le_f64(payload: &[u8], what: &str) -> Result<f64> {
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

    /// Broadcast bytes from `root` to every rank. The root passes
    /// `Some(data)`, everyone else `None`; all ranks return the data.
    pub fn bcast(&self, root: usize, data: Option<&[u8]>) -> Result<Bytes> {
        let tag = self.coll_tag(OP_BCAST);
        if self.rank() == root {
            let data = data.ok_or_else(|| {
                RocError::Comm("bcast: root must supply data".to_string())
            })?;
            // One staging copy; every send shares it by refcount.
            let shared = Bytes::copy_from_slice(data);
            for dst in 0..self.size() {
                if dst != root {
                    self.send_bytes(dst, tag, shared.clone())?;
                }
            }
            Ok(shared)
        } else {
            Ok(self.recv(Some(root), Some(tag))?.payload)
        }
    }

    /// Gather each rank's bytes at `root`. The root gets `Some(vec)` with
    /// one entry per rank in rank order; everyone else gets `None`.
    pub fn gather(&self, root: usize, data: &[u8]) -> Result<Option<Vec<Bytes>>> {
        let tag = self.coll_tag(OP_GATHER);
        if self.rank() == root {
            let mut out: Vec<Bytes> = vec![Bytes::new(); self.size()];
            out[root] = Bytes::copy_from_slice(data);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv(Some(src), Some(tag))?.payload;
                }
            }
            Ok(Some(out))
        } else {
            self.send(root, tag, data)?;
            Ok(None)
        }
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

    /// Scatter per-rank byte buffers from `root`: rank `i` receives
    /// `parts[i]`. The root passes `Some(parts)` with one entry per rank.
    pub fn scatter(&self, root: usize, parts: Option<&[Vec<u8>]>) -> Result<Bytes> {
        let tag = self.coll_tag(OP_SCATTER);
        if self.rank() == root {
            let parts = parts.ok_or_else(|| {
                RocError::Comm("scatter: root must supply parts".to_string())
            })?;
            if parts.len() != self.size() {
                return Err(RocError::Comm(format!(
                    "scatter: {} parts for {} ranks",
                    parts.len(),
                    self.size()
                )));
            }
            for (dst, part) in parts.iter().enumerate() {
                if dst != root {
                    self.send(dst, tag, part)?;
                }
            }
            Ok(Bytes::copy_from_slice(&parts[root]))
        } else {
            Ok(self.recv(Some(root), Some(tag))?.payload)
        }
    }

    /// All-to-all personalized exchange: rank `i` sends `parts[j]` to rank
    /// `j` and receives one buffer from every rank, returned in rank
    /// order. Eager sends make the naive algorithm deadlock-free.
    pub fn alltoall(&self, parts: &[Vec<u8>]) -> Result<Vec<Bytes>> {
        if parts.len() != self.size() {
            return Err(RocError::Comm(format!(
                "alltoall: {} parts for {} ranks",
                parts.len(),
                self.size()
            )));
        }
        let tag = self.coll_tag(OP_ALLTOALL);
        for (dst, part) in parts.iter().enumerate() {
            if dst != self.rank() {
                self.send(dst, tag, part)?;
            }
        }
        let mut out: Vec<Bytes> = vec![Bytes::new(); self.size()];
        out[self.rank()] = Bytes::copy_from_slice(&parts[self.rank()]);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != self.rank() {
                *slot = self.recv(Some(src), Some(tag))?.payload;
            }
        }
        Ok(out)
    }

    /// All-reduce an `f64` with a binary combining function (must be
    /// associative and commutative).
    pub fn allreduce_f64(&self, x: f64, op: impl Fn(f64, f64) -> f64) -> Result<f64> {
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
    fn bcast_delivers_to_all() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            let data = if comm.rank() == 1 { Some(&b"xyz"[..]) } else { None };
            comm.bcast(1, data).unwrap()
        });
        for o in out {
            assert_eq!(o, b"xyz");
        }
    }

    #[test]
    fn bcast_without_root_data_errors() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.bcast(0, None).is_err()
        });
        assert!(out[0]);
    }

    #[test]
    fn gather_orders_by_rank() {
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            comm.gather(0, &[comm.rank() as u8 * 10]).unwrap()
        });
        let gathered = out[0].as_ref().unwrap();
        assert_eq!(gathered.len(), 4);
        for (i, part) in gathered.iter().enumerate() {
            assert_eq!(part, &vec![i as u8 * 10]);
        }
        assert!(out[1].is_none());
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
    fn scatter_delivers_each_part() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            let parts: Option<Vec<Vec<u8>>> = if comm.rank() == 1 {
                Some((0..3).map(|i| vec![i as u8 * 5; i + 1]).collect())
            } else {
                None
            };
            comm.scatter(1, parts.as_deref()).unwrap()
        });
        assert_eq!(out[0], vec![0]);
        assert_eq!(out[1], vec![5, 5]);
        assert_eq!(out[2], vec![10, 10, 10]);
    }

    #[test]
    fn scatter_part_count_mismatch_errors() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.scatter(0, Some(&[vec![1], vec![2]][..])).is_err()
                && comm.scatter(0, None).is_err()
        });
        assert!(out[0]);
    }

    #[test]
    fn alltoall_transposes() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            let me = comm.rank() as u8;
            let parts: Vec<Vec<u8>> = (0..3).map(|j| vec![me * 10 + j as u8]).collect();
            comm.alltoall(&parts).unwrap()
        });
        // out[i][j] holds rank j's part destined for rank i: j*10 + i.
        for (i, row) in out.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(cell, &vec![(j * 10 + i) as u8]);
            }
        }
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
            let a = comm
                .bcast(0, if comm.rank() == 0 { Some(b"a") } else { None })
                .unwrap();
            let b = comm
                .bcast(0, if comm.rank() == 0 { Some(b"b") } else { None })
                .unwrap();
            (a, b)
        });
        for (a, b) in &out {
            assert_eq!(a, b"a");
            assert_eq!(b, b"b");
        }
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.barrier().unwrap();
            let b = comm.bcast(0, Some(b"solo")).unwrap();
            let g = comm.gather(0, b"g").unwrap().unwrap();
            let s = comm.allreduce_sum_f64(2.5).unwrap();
            (b, g.len(), s)
        });
        assert_eq!(out[0].0, b"solo");
        assert_eq!(out[0].1, 1);
        assert_eq!(out[0].2, 2.5);
    }

    #[test]
    fn gather_charges_root_for_transfers() {
        // On a non-ideal network the root's clock after a gather must be
        // at least the cost of receiving all contributions.
        let out = run_ranks(8, ClusterSpec::turing(8), |comm| {
            comm.gather(0, &vec![0u8; 1 << 20]).unwrap();
            comm.now()
        });
        // Draining 7 MiB through the root's receive path (~4 ms/MiB) plus
        // one flight (~11 ms) is at least ~30 ms.
        assert!(out[0] > 0.03, "root time {} too small", out[0]);
    }
}
