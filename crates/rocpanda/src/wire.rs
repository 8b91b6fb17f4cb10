//! Rocpanda's client↔server wire protocol.
//!
//! Message kind is carried in the message *tag* (so servers can dispatch
//! off a probe without touching the payload); fields are encoded
//! little-endian in the payload. Data blocks travel as sequences of SDF
//! dataset records — the same self-describing encoding the files use.

use bytes::Bytes;
use rocio_core::{DataBlock, Result, RocError, Segment, SnapshotId};
use rocsdf::format::{
    block_from_records, block_meta_dataset, block_prefix, decode_dataset, decode_dataset_shared,
    encode_dataset_into,
};
use rocsdf::SegmentPool;

/// Message tags. All below [`rocnet::comm::TAG_USER_MAX`].
pub mod tag {
    /// Client → server: announce a collective write (header).
    pub const WRITE_REQ: u32 = 0x0050_0001;
    /// Client → server: one encoded data block.
    pub const BLOCK: u32 = 0x0050_0002;
    /// Server → client: per-block flow-control ack (block is buffered).
    pub const ACK: u32 = 0x0050_0003;
    /// Server → client: all of this client's blocks for the snapshot are
    /// buffered; the client may return to computation.
    pub const DONE: u32 = 0x0050_0004;
    /// Client → server: restart request with wanted block ids.
    pub const READ_REQ: u32 = 0x0050_0005;
    /// Server → client: this server has sent everything it had for you.
    pub const READ_DONE: u32 = 0x0050_0007;
    /// Client → server: flush everything durable, then ack.
    pub const SYNC: u32 = 0x0050_0008;
    /// Server → client: sync complete.
    pub const SYNC_ACK: u32 = 0x0050_0009;
    /// Client → server: finalize and exit the server loop.
    pub const SHUTDOWN: u32 = 0x0050_000A;
    /// Client → server: delete the files of an old snapshot.
    pub const RETIRE: u32 = 0x0050_000B;
    /// Server → client: retire complete.
    pub const RETIRE_ACK: u32 = 0x0050_000C;
    /// Server → client: restart failed at the server (payload: UTF-8
    /// error text). Sent instead of `READ_DONE` so clients surface a
    /// clean error rather than waiting forever on a dead restart.
    pub const READ_ERR: u32 = 0x0050_000D;
    /// Server → client: this server's whole share of a restart as one
    /// batch of encoded data blocks, from its read cache or its disk scan.
    pub const READ_BATCH: u32 = 0x0050_000E;
    /// Server ↔ server: one bool per peer — "I can serve this restart
    /// entirely from my buffered snapshot". All-or-nothing: any `false`
    /// sends every server down the disk path, because the cache partition
    /// (by writing client) and the disk partition (round-robin files)
    /// would otherwise duplicate or miss blocks. Keyed by
    /// [`CoordKey`](super::CoordKey) so votes for concurrent
    /// tenants' restarts never mispair.
    pub const CACHE_VOTE: u32 = 0x0050_000F;
    /// Server ↔ server: "my buffers for this restart key are flushed".
    /// Replaces the old all-server barrier on the disk restart path — a
    /// barrier would deadlock once different tenants' restarts can reach
    /// the servers in different orders, so the disk path now waits only
    /// for the tokens of *this* key while still answering other tenants'
    /// traffic.
    pub const FLUSH_TOKEN: u32 = 0x0050_0010;
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let s = bytes
        .get(*pos..*pos + n)
        .ok_or_else(|| RocError::Corrupt("panda wire: truncated".into()))?;
    *pos += n;
    Ok(s)
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String> {
    let n = rocio_core::le::u16(take(bytes, pos, 2)?, "panda wire string length")? as usize;
    // Single checked conversion: validate in place, then copy once.
    std::str::from_utf8(take(bytes, pos, n)?)
        .map(str::to_owned)
        .map_err(|_| RocError::Corrupt("panda wire: bad utf8".into()))
}

fn put_snap(out: &mut Vec<u8>, snap: SnapshotId) {
    out.extend_from_slice(&snap.step.to_le_bytes());
    out.extend_from_slice(&snap.ordinal.to_le_bytes());
}

fn get_snap(bytes: &[u8], pos: &mut usize) -> Result<SnapshotId> {
    let step = rocio_core::le::u64(take(bytes, pos, 8)?, "panda wire snapshot step")?;
    let ordinal = rocio_core::le::u32(take(bytes, pos, 4)?, "panda wire snapshot ordinal")?;
    Ok(SnapshotId::new(step, ordinal))
}

/// Header of a collective write: which snapshot/window, how many blocks
/// this client will send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReq {
    pub snap: SnapshotId,
    pub window: String,
    pub n_blocks: u32,
}

impl WriteReq {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_snap(&mut out, self.snap);
        put_str(&mut out, &self.window);
        out.extend_from_slice(&self.n_blocks.to_le_bytes());
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0;
        let snap = get_snap(bytes, &mut pos)?;
        let window = get_str(bytes, &mut pos)?;
        let n_blocks = rocio_core::le::u32(take(bytes, &mut pos, 4)?, "panda wire block count")?;
        Ok(WriteReq {
            snap,
            window,
            n_blocks,
        })
    }
}

/// Restart request: which snapshot/window, which block ids this client
/// needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReq {
    pub snap: SnapshotId,
    pub window: String,
    pub ids: Vec<u64>,
}

impl ReadReq {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_snap(&mut out, self.snap);
        put_str(&mut out, &self.window);
        out.extend_from_slice(&(self.ids.len() as u32).to_le_bytes());
        for id in &self.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0;
        let snap = get_snap(bytes, &mut pos)?;
        let window = get_str(bytes, &mut pos)?;
        let n = rocio_core::le::u32(take(bytes, &mut pos, 4)?, "panda wire count")? as usize;
        if n > bytes.len().saturating_sub(pos) / 8 {
            return Err(RocError::Corrupt("panda wire: id list exceeds message".into()));
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(rocio_core::le::u64(take(bytes, &mut pos, 8)?, "panda wire block id")?);
        }
        Ok(ReadReq { snap, window, ids })
    }
}

/// A block on the wire, prefixed with its snapshot/window routing header.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMsg {
    pub snap: SnapshotId,
    pub window: String,
    pub block: DataBlock,
}

impl BlockMsg {
    /// Encode: routing header, then the block's `__meta__` dataset and its
    /// member datasets as SDF records (prefixed names). The name override
    /// in the record encoder relabels datasets in place — no clone.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_snap(&mut out, self.snap);
        put_str(&mut out, &self.window);
        out.extend_from_slice(&(1 + self.block.datasets.len() as u32).to_le_bytes());
        encode_dataset_into(&block_meta_dataset(&self.block), None, None, &mut out);
        let prefix = block_prefix(self.block.id);
        for ds in &self.block.datasets {
            encode_dataset_into(ds, Some(&format!("{prefix}{}", ds.name)), None, &mut out);
        }
        out
    }

    /// Scatter-gather encode: headers go into pooled staging buffers,
    /// shared payloads ride along by refcount. Concatenated, the segments
    /// are byte-identical to [`BlockMsg::encode`]; send them with
    /// `Comm::send_segments` so the wire image is assembled exactly once.
    pub fn encode_segments(&self, pool: &mut SegmentPool, out: &mut Vec<Segment>) {
        let mut head = pool.take();
        head.clear();
        put_snap(&mut head, self.snap);
        put_str(&mut head, &self.window);
        head.extend_from_slice(&(1 + self.block.datasets.len() as u32).to_le_bytes());
        out.push(Segment::Owned(head));
        rocsdf::encode_dataset_segments(
            &block_meta_dataset(&self.block),
            None,
            None,
            pool.take(),
            out,
        );
        let prefix = block_prefix(self.block.id);
        for ds in &self.block.datasets {
            rocsdf::encode_dataset_segments(
                ds,
                Some(&format!("{prefix}{}", ds.name)),
                None,
                pool.take(),
                out,
            );
        }
    }

    fn decode_with(
        bytes: &[u8],
        mut record: impl FnMut(&mut usize) -> Result<rocio_core::Dataset>,
    ) -> Result<Self> {
        let mut pos = 0;
        let snap = get_snap(bytes, &mut pos)?;
        let window = get_str(bytes, &mut pos)?;
        let n = rocio_core::le::u32(take(bytes, &mut pos, 4)?, "panda wire count")? as usize;
        let block = block_from_records(None, (0..n).map(|_| record(&mut pos)))?;
        Ok(BlockMsg {
            snap,
            window,
            block,
        })
    }

    /// Decode into typed arrays (the client restart path, which mutates
    /// the data it receives).
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Self::decode_with(bytes, |pos| decode_dataset(bytes, pos))
    }

    /// Decode with zero-copy payloads: each dataset's data is a refcounted
    /// window into `bytes`, so a server can buffer the blocks of many
    /// messages without duplicating any payload.
    pub fn decode_shared(bytes: &Bytes) -> Result<Self> {
        Self::decode_with(bytes, |pos| decode_dataset_shared(bytes, pos))
    }
}

/// Encode several blocks as one batched `READ_BATCH` reply: `u32` count,
/// then per message a `u64` length prefix followed by the message's
/// [`BlockMsg::encode`] image. Headers and length prefixes go to pooled
/// staging buffers; shared payloads ride along by refcount, so a cached
/// snapshot is shipped without copying any block data.
pub(crate) fn encode_read_batch_segments(
    msgs: &[BlockMsg],
    pool: &mut SegmentPool,
    out: &mut Vec<Segment>,
) {
    let mut head = pool.take();
    head.clear();
    head.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
    out.push(Segment::Owned(head));
    for m in msgs {
        let mut inner = Vec::new();
        m.encode_segments(pool, &mut inner);
        let mut len = pool.take();
        len.clear();
        len.extend_from_slice(&(rocio_core::segments_len(&inner) as u64).to_le_bytes());
        out.push(Segment::Owned(len));
        out.append(&mut inner);
    }
}

/// Decode a `READ_BATCH` payload into zero-copy block messages: every
/// dataset payload is a refcounted window into `bytes`.
pub(crate) fn decode_read_batch_shared(bytes: &Bytes) -> Result<Vec<BlockMsg>> {
    let mut pos = 0;
    let n = rocio_core::le::u32(take(bytes, &mut pos, 4)?, "panda wire batch count")? as usize;
    let mut out = Vec::new();
    for _ in 0..n {
        let len =
            rocio_core::le::u64(take(bytes, &mut pos, 8)?, "panda wire batch entry length")? as usize;
        if len > bytes.len().saturating_sub(pos) {
            return Err(RocError::Corrupt("panda wire: batch entry exceeds message".into()));
        }
        let msg = bytes.slice(pos..pos + len);
        pos += len;
        out.push(BlockMsg::decode_shared(&msg)?);
    }
    Ok(out)
}

/// Key naming one restart round for server↔server coordination.
///
/// With multiple tenants restarting concurrently, an unkeyed vote from
/// another tenant's restart could be mistaken for this one's, diverging
/// the all-or-nothing cache decision across servers. The key pins a vote
/// or flush token to one `(tenant, snapshot, window)` restart — and the
/// `epoch` counter distinguishes *repeated* restarts of the same
/// snapshot, which are otherwise indistinguishable on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoordKey {
    pub tenant: rocio_core::TenantId,
    pub snap: SnapshotId,
    pub window: String,
    pub epoch: u32,
}

impl CoordKey {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.tenant.0.to_le_bytes());
        put_snap(out, self.snap);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        put_str(out, &self.window);
    }

    fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<Self> {
        let tenant =
            rocio_core::TenantId(rocio_core::le::u32(take(bytes, pos, 4)?, "panda wire tenant")?);
        let snap = get_snap(bytes, pos)?;
        let epoch = rocio_core::le::u32(take(bytes, pos, 4)?, "panda wire coord epoch")?;
        let window = get_str(bytes, pos)?;
        Ok(CoordKey {
            tenant,
            snap,
            window,
            epoch,
        })
    }
}

/// `CACHE_VOTE` payload: the restart key plus this server's vote.
pub(crate) fn encode_cache_vote(key: &CoordKey, can_serve: bool) -> Vec<u8> {
    let mut out = Vec::new();
    key.encode_into(&mut out);
    out.push(u8::from(can_serve));
    out
}

/// Decode a `CACHE_VOTE` payload.
pub(crate) fn decode_cache_vote(bytes: &[u8]) -> Result<(CoordKey, bool)> {
    let mut pos = 0;
    let key = CoordKey::decode_from(bytes, &mut pos)?;
    let vote = take(bytes, &mut pos, 1)?[0] != 0;
    Ok((key, vote))
}

/// `FLUSH_TOKEN` payload: just the restart key.
pub(crate) fn encode_flush_token(key: &CoordKey) -> Vec<u8> {
    let mut out = Vec::new();
    key.encode_into(&mut out);
    out
}

/// Decode a `FLUSH_TOKEN` payload.
pub(crate) fn decode_flush_token(bytes: &[u8]) -> Result<CoordKey> {
    CoordKey::decode_from(bytes, &mut 0)
}

/// `SYNC_ACK` payload: status byte `0` followed by the server's durable
/// watermark, or status byte `1` followed by UTF-8 drain-error text for
/// the syncing tenant. The error form is how a background drain failure
/// (e.g. a quota rejection) reaches the client that caused it.
pub(crate) fn encode_sync_ack(result: &std::result::Result<f64, String>) -> Vec<u8> {
    let mut out = Vec::new();
    match result {
        Ok(watermark) => {
            out.push(0);
            out.extend_from_slice(&watermark.to_le_bytes());
        }
        Err(text) => {
            out.push(1);
            out.extend_from_slice(text.as_bytes());
        }
    }
    out
}

/// Decode a `SYNC_ACK` payload into `Ok(watermark)` or `Err(drain text)`.
pub(crate) fn decode_sync_ack(bytes: &[u8]) -> Result<std::result::Result<f64, String>> {
    let mut pos = 0;
    let status = take(bytes, &mut pos, 1)?[0];
    match status {
        0 => Ok(Ok(rocio_core::le::f64(
            take(bytes, &mut pos, 8)?,
            "SYNC_ACK watermark",
        )?)),
        1 => Ok(Err(String::from_utf8_lossy(&bytes[pos..]).into_owned())),
        other => Err(RocError::Corrupt(format!(
            "panda wire: unknown SYNC_ACK status {other}"
        ))),
    }
}

/// `RETIRE` payload: the snapshot to delete.
pub(crate) fn encode_retire(snap: SnapshotId) -> Vec<u8> {
    let mut out = Vec::new();
    put_snap(&mut out, snap);
    out
}

/// Decode a `RETIRE` payload.
pub(crate) fn decode_retire(bytes: &[u8]) -> Result<SnapshotId> {
    get_snap(bytes, &mut 0)
}

/// `READ_DONE` payload: how many blocks this server shipped to the client.
pub(crate) fn encode_read_done(n_sent: u32) -> Vec<u8> {
    Vec::from(n_sent.to_le_bytes())
}

/// Decode a `READ_DONE` payload.
pub(crate) fn decode_read_done(bytes: &[u8]) -> Result<u32> {
    rocio_core::le::u32(bytes, "READ_DONE count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::{BlockId, Dataset};

    fn block() -> DataBlock {
        DataBlock::new(BlockId(12), "fluid")
            .with_dataset(Dataset::vector("pressure", vec![1.0f64, 2.0]).with_attr("units", "Pa"))
            .with_dataset(Dataset::vector("ids", vec![7i32]))
            .with_attr("material", "gas")
    }

    #[test]
    fn write_req_round_trip() {
        let r = WriteReq {
            snap: SnapshotId::new(50, 1),
            window: "fluid".into(),
            n_blocks: 16,
        };
        assert_eq!(WriteReq::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn read_req_round_trip() {
        let r = ReadReq {
            snap: SnapshotId::new(100, 2),
            window: "solid".into(),
            ids: vec![3, 1, 4, 159],
        };
        assert_eq!(ReadReq::decode(&r.encode()).unwrap(), r);
        let empty = ReadReq {
            snap: SnapshotId::new(0, 0),
            window: "w".into(),
            ids: vec![],
        };
        assert_eq!(ReadReq::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn block_msg_round_trip() {
        let m = BlockMsg {
            snap: SnapshotId::new(50, 1),
            window: "fluid".into(),
            block: block(),
        };
        let dec = BlockMsg::decode(&m.encode()).unwrap();
        assert_eq!(dec, m);
    }

    #[test]
    fn segment_encode_matches_contiguous_and_decodes_shared() {
        let m = BlockMsg {
            snap: SnapshotId::new(50, 1),
            window: "fluid".into(),
            block: block(),
        };
        let flat = m.encode();
        let mut pool = SegmentPool::new();
        let mut segs = Vec::new();
        m.encode_segments(&mut pool, &mut segs);
        assert_eq!(rocio_core::segments_to_vec(&segs), flat);

        let src = Bytes::from(flat);
        let dec = BlockMsg::decode_shared(&src).unwrap();
        // Payloads are refcounted views of the message; they stay valid
        // after the message handle itself is dropped.
        drop(src);
        assert_eq!(dec, m);
        // And the shared form re-encodes to the same bytes.
        assert_eq!(dec.encode(), m.encode());
    }

    #[test]
    fn pane_blocks_encode_like_their_typed_twins() {
        // `pane_to_block` hands out shared windows of one LE buffer; on
        // the wire and in a file record they must be the bytes the typed
        // arrays would have encoded to, for both mesh kinds.
        use roccom::{convert::pane_to_block, AttrRef, AttrSpec, PaneMesh, Window};
        let mut fluid = Window::new("fluid");
        fluid.declare_attr(AttrSpec::element("pressure", rocio_core::DType::F64, 1)).unwrap();
        fluid.declare_attr(AttrSpec::node("velocity", rocio_core::DType::F64, 3)).unwrap();
        let structured = PaneMesh::Structured { dims: [2, 3, 1], origin: [0.5; 3], spacing: [0.25; 3] };
        fluid.register_pane(BlockId(4), structured).unwrap();
        let mut solid = Window::new("solid");
        solid.declare_attr(AttrSpec::node("disp", rocio_core::DType::F64, 3)).unwrap();
        let tets = rocmesh::UnstructuredBlock::tet_box(BlockId(8), [1, 2, 1], [0.0; 3], [1.0; 3]);
        solid.register_pane(BlockId(8), PaneMesh::from_unstructured(&tets)).unwrap();

        for (w, id) in [(&fluid, BlockId(4)), (&solid, BlockId(8))] {
            let shared = pane_to_block(w, w.pane(id).unwrap(), &AttrRef::All).unwrap();
            let mut typed = DataBlock::new(shared.id, shared.window.clone());
            typed.attrs = shared.attrs.clone();
            for ds in &shared.datasets {
                assert!(ds.data.as_shared().is_some());
                let mut t =
                    Dataset::new(ds.name.clone(), ds.shape.clone(), ds.data.to_typed().unwrap()).unwrap();
                t.attrs = ds.attrs.clone();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let crc = rocsdf::payload_crc32(ds);
                assert_eq!(crc, rocsdf::payload_crc32(&t));
                rocsdf::encode_dataset_into(ds, Some("x"), Some(crc), &mut a);
                rocsdf::encode_dataset_into(&t, Some("x"), Some(crc), &mut b);
                assert_eq!(a, b, "{}", ds.name);
                typed.push_dataset(t).unwrap();
            }
            let msg = |block| BlockMsg { snap: SnapshotId::new(2, 1), window: w.name().into(), block };
            let (shared, typed) = (msg(shared), msg(typed));
            let mut segs = Vec::new();
            shared.encode_segments(&mut SegmentPool::new(), &mut segs);
            assert_eq!(rocio_core::segments_to_vec(&segs), typed.encode());
        }
    }

    #[test]
    fn truncated_messages_rejected() {
        let m = BlockMsg {
            snap: SnapshotId::new(0, 0),
            window: "fluid".into(),
            block: block(),
        };
        let enc = m.encode();
        assert!(BlockMsg::decode(&enc[..enc.len() - 3]).is_err());
        assert!(WriteReq::decode(&[1, 2, 3]).is_err());
        assert!(ReadReq::decode(&[]).is_err());
        assert!(decode_read_done(&[1]).is_err());
    }

    #[test]
    fn read_batch_round_trips_shared_and_rejects_truncation() {
        let msgs: Vec<BlockMsg> = (0..3)
            .map(|i| BlockMsg {
                snap: SnapshotId::new(50, 1),
                window: "fluid".into(),
                block: DataBlock::new(BlockId(i), "fluid")
                    .with_dataset(Dataset::vector("p", vec![i as f64; 4])),
            })
            .collect();
        let mut pool = SegmentPool::new();
        let mut segs = Vec::new();
        encode_read_batch_segments(&msgs, &mut pool, &mut segs);
        let flat = rocio_core::segments_to_vec(&segs);
        let src = Bytes::from(flat.clone());
        let dec = decode_read_batch_shared(&src).unwrap();
        drop(src);
        assert_eq!(dec, msgs);
        // An empty batch is legal (a server may own no requested blocks).
        let mut segs = Vec::new();
        encode_read_batch_segments(&[], &mut pool, &mut segs);
        let empty = Bytes::from(rocio_core::segments_to_vec(&segs));
        assert_eq!(decode_read_batch_shared(&empty).unwrap(), vec![]);
        // Truncation anywhere is an error, not a panic.
        for cut in [0, 3, 4, 11, flat.len() - 1] {
            assert!(decode_read_batch_shared(&Bytes::from(flat[..cut].to_vec())).is_err());
        }
    }

    #[test]
    fn read_done_round_trip() {
        assert_eq!(decode_read_done(&encode_read_done(42)).unwrap(), 42);
    }

    #[test]
    fn coord_messages_round_trip() {
        let key = CoordKey {
            tenant: rocio_core::TenantId(3),
            snap: SnapshotId::new(150, 2),
            window: "fluid".into(),
            epoch: 5,
        };
        for vote in [true, false] {
            let enc = encode_cache_vote(&key, vote);
            let (k, v) = decode_cache_vote(&enc).unwrap();
            assert_eq!(k, key);
            assert_eq!(v, vote);
            assert!(decode_cache_vote(&enc[..enc.len() - 1]).is_err());
        }
        let enc = encode_flush_token(&key);
        assert_eq!(decode_flush_token(&enc).unwrap(), key);
        assert!(decode_flush_token(&enc[..3]).is_err());
    }

    #[test]
    fn sync_ack_round_trips_both_statuses() {
        let ok = encode_sync_ack(&Ok(12.5));
        assert_eq!(decode_sync_ack(&ok).unwrap(), Ok(12.5));
        let err = encode_sync_ack(&Err("quota exceeded".into()));
        assert_eq!(decode_sync_ack(&err).unwrap(), Err("quota exceeded".into()));
        assert!(decode_sync_ack(&[9]).is_err());
        assert!(decode_sync_ack(&[]).is_err());
    }

    #[test]
    fn retire_round_trip() {
        let snap = SnapshotId::new(150, 3);
        assert_eq!(decode_retire(&encode_retire(snap)).unwrap(), snap);
        assert!(decode_retire(&[0u8; 3]).is_err());
    }

    #[test]
    fn tags_are_in_user_space() {
        for t in [
            tag::WRITE_REQ,
            tag::BLOCK,
            tag::ACK,
            tag::DONE,
            tag::READ_REQ,
            tag::READ_DONE,
            tag::SYNC,
            tag::SYNC_ACK,
            tag::SHUTDOWN,
            tag::RETIRE,
            tag::RETIRE_ACK,
            tag::READ_ERR,
            tag::READ_BATCH,
            tag::CACHE_VOTE,
            tag::FLUSH_TOKEN,
        ] {
            assert!(t <= rocnet::comm::TAG_USER_MAX);
        }
    }
}
