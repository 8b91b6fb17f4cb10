//! Rocpanda's client↔server wire protocol.
//!
//! Message kind is carried in the message *tag* (so servers can dispatch
//! off a probe without touching the payload); fields are encoded
//! little-endian in the payload. Data blocks travel as the SDF file
//! records they will be on disk, laid out by the one block encoder
//! (`rocsdf::encode_block`): a block message has one encode,
//! [`encode_block_msg`] (a rope — its routing header and record headers
//! in one staging buffer, its payloads the block's own buffers), which a
//! client and `genx::rebalance` call on a pane described where it lies
//! and [`BlockMsg::encode`] on a built block. A receiver reads it as a
//! [`BlockMsgView`], the block read where it lies (`rocsdf::BlockView`):
//! `genx::rebalance` applies it, every payload checked
//! ([`BlockMsgView::decode`]; [`BlockMsg::decode`] builds it), and a server
//! walks it and appends its records to the file as they lie, reading no
//! payload (`BlockMsgView::walk_whole`). A restart's `READ_BATCH` is not
//! this format but the restart-block codec's (`rocsdf::view`): file records
//! as they lie, checked by the client that owns them. Every length read
//! from a message goes through the checked cursor (`rocio_core::Cursor`,
//! over a rope's parts or a control message's bytes), every count is
//! bounded by the bytes that remain before it sizes an allocation, and a
//! message that stands alone is read whole: bytes after its last field are
//! refused (`Cursor::whole`). What a message is *about* — a `(snapshot,
//! window)` pair — is spelled in one place, `put_name` / `read_name`.

use std::borrow::Cow;

use bytes::Bytes;
use rocio_core::{BlockDesc, Cursor, DataBlock, Result, RocError, Rope, Segment, SnapshotId};
use rocsdf::{encode_block, BlockView, SegmentPool};

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
    pub(crate) const READ_REQ: u32 = 0x0050_0005;
    /// Server → client: this server has sent everything it had for you.
    pub(crate) const READ_DONE: u32 = 0x0050_0007;
    /// Client → server: flush everything durable, then ack.
    pub(crate) const SYNC: u32 = 0x0050_0008;
    /// Server → client: sync complete.
    pub(crate) const SYNC_ACK: u32 = 0x0050_0009;
    /// Client → server: finalize and exit the server loop.
    pub const SHUTDOWN: u32 = 0x0050_000A;
    /// Client → server: delete the files of an old snapshot.
    pub(crate) const RETIRE: u32 = 0x0050_000B;
    /// Server → client: retire complete.
    pub(crate) const RETIRE_ACK: u32 = 0x0050_000C;
    /// Server → client: restart failed at the server (payload: UTF-8
    /// error text). Sent instead of `READ_DONE` so clients surface a
    /// clean error rather than waiting forever on a dead restart.
    pub const READ_ERR: u32 = 0x0050_000D;
    /// Server → client: this server's whole share of a restart as one
    /// batch of the restart-block codec (`rocsdf::BlockView::ship_batch`):
    /// the blocks' file records as they lie, read from its share of the
    /// files.
    pub const READ_BATCH: u32 = 0x0050_000E;
    /// Server ↔ server: "my buffers for this restart key are flushed".
    /// Keyed by `CoordKey`. Replaces the old all-server
    /// barrier of a restart — a barrier would deadlock once different
    /// tenants' restarts can reach the servers in different orders, so a
    /// restart waits only for the tokens of *this* key while still
    /// answering other tenants' traffic.
    pub const FLUSH_TOKEN: u32 = 0x0050_0010;
}

fn put_snap(out: &mut Vec<u8>, snap: SnapshotId) {
    out.extend_from_slice(&snap.step.to_le_bytes());
    out.extend_from_slice(&snap.ordinal.to_le_bytes());
}

fn read_snap(cur: &mut Cursor<'_>) -> Result<SnapshotId> {
    let step = cur.u64("panda wire snapshot step")?;
    Ok(SnapshotId::new(step, cur.u32("panda wire snapshot ordinal")?))
}

/// `(snapshot, window)` — the name of what a message is about — on the
/// wire: the one place it is spelled, for `WRITE_REQ`, `READ_REQ`, the block
/// routing header and the restart-round key. Snapshot, then the window
/// name; a round's `epoch` rides between the two, where [`CoordKey`] has
/// always carried it.
fn put_name(out: &mut Vec<u8>, snap: SnapshotId, epoch: Option<u32>, window: &str) {
    put_snap(out, snap);
    if let Some(epoch) = epoch {
        out.extend_from_slice(&epoch.to_le_bytes());
    }
    out.extend_from_slice(&(window.len() as u16).to_le_bytes());
    out.extend_from_slice(window.as_bytes());
}

/// Read what [`put_name`] wrote: `(snapshot, epoch, window)`, the epoch 0
/// unless `round` says one is there, the window borrowed where it lies.
fn read_name<'a>(cur: &mut Cursor<'a>, round: bool) -> Result<(SnapshotId, u32, Cow<'a, str>)> {
    let snap = read_snap(cur)?;
    let epoch = if round { cur.u32("panda wire coord epoch")? } else { 0 };
    Ok((snap, epoch, cur.str16_ref("panda wire message")?))
}

/// Header of a collective write: which snapshot/window, how many blocks
/// this client will send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WriteReq {
    pub snap: SnapshotId,
    pub window: String,
    pub n_blocks: u32,
}

impl WriteReq {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_name(&mut out, self.snap, None, &self.window);
        out.extend_from_slice(&self.n_blocks.to_le_bytes());
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Cursor::from(bytes).whole("WRITE_REQ", |cur| {
            let (snap, _, window) = read_name(cur, false)?;
            let n_blocks = cur.u32("panda wire block count")?;
            Ok(WriteReq { snap, window: window.into_owned(), n_blocks })
        })
    }
}

/// Restart request: which snapshot/window, which block ids this client
/// needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReadReq {
    pub snap: SnapshotId,
    pub window: String,
    pub ids: Vec<u64>,
}

impl ReadReq {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_name(&mut out, self.snap, None, &self.window);
        out.extend_from_slice(&(self.ids.len() as u32).to_le_bytes());
        for id in &self.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Cursor::from(bytes).whole("READ_REQ", |cur| {
            let (snap, _, window) = read_name(cur, false)?;
            let n = cur.u32("panda wire count")? as usize;
            if n > cur.remaining() / 8 {
                return Err(RocError::Corrupt("panda wire: id list exceeds message".into()));
            }
            let ids = (0..n).map(|_| cur.u64("panda wire block id")).collect::<Result<_>>()?;
            Ok(ReadReq { snap, window: window.into_owned(), ids })
        })
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
    /// The wire image: the routing header, then the block's records, laid
    /// out by the one block encoder ([`encode_block`]) — the header leads
    /// its staging buffer, the payloads ride along by refcount, so send the
    /// rope with `send_rope` and no payload byte is copied on the way.
    pub fn encode(&self) -> Rope {
        encode_block_msg(self.snap, &self.window, &self.block)
    }

    /// [`BlockMsg::encode`] as a segment list: its parts, shared. The pool
    /// goes unused.
    pub fn encode_segments(&self, _pool: &mut SegmentPool, out: &mut Vec<Segment>) {
        out.extend(self.encode().parts().iter().cloned().map(Segment::Shared));
    }

    /// Decode the message at the cursor with zero-copy payloads: each
    /// dataset's data is a refcounted window of the part it arrived in —
    /// for a message sent as its [`BlockMsg::encode`] rope, the sender's
    /// own block buffer. [`BlockMsgView::decode`], built.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let BlockMsgView { snap, window, block } = BlockMsgView::decode(cur)?;
        Ok(BlockMsg { snap, window: window.into_owned(), block: block.to_block()? })
    }

    /// [`BlockMsg::decode`] of one contiguous buffer.
    pub fn decode_shared(bytes: &Bytes) -> Result<Self> {
        Self::decode(&mut bytes.into())
    }
}

/// A block message as every receiver reads it — a client or
/// `genx::rebalance` to apply it, a server to buffer and append it:
/// routed, and the block read where it lies — no `DataBlock`, and the
/// window name borrowed from the message unless a cut went through it.
#[derive(Debug)]
pub struct BlockMsgView<'m> {
    pub snap: SnapshotId,
    pub window: Cow<'m, str>,
    pub block: BlockView,
}

impl<'m> BlockMsgView<'m> {
    /// Read the message at the cursor to apply its block: the routing
    /// header, then the block's records, each checked as
    /// [`BlockMsg::decode`] checks them, `__crc32__` included.
    pub fn decode(cur: &mut Cursor<'m>) -> Result<Self> {
        BlockMsgView::read(cur, true)
    }

    /// Take one whole message in, as a server does to forward its block to
    /// a file: its records walked ([`BlockView::walk`], no payload read),
    /// and bytes after the last one refused, all before it is buffered.
    pub(crate) fn walk_whole(wire: &'m Rope) -> Result<Self> {
        wire.cursor().whole("BLOCK", |cur| BlockMsgView::read(cur, false))
    }

    fn read(cur: &mut Cursor<'m>, verify: bool) -> Result<Self> {
        let (snap, _, window) = read_name(cur, false)?;
        let n = cur.u32("panda wire count")? as usize;
        let block = if verify { BlockView::decode(cur, n)? } else { BlockView::walk(cur, n)? };
        Ok(BlockMsgView { snap, window, block })
    }
}

/// The `BLOCK` message of any block description — a [`DataBlock`]
/// ([`BlockMsg::encode`]), or a pane described where it lies
/// (`roccom::convert::plan`), which is how a client and `genx::rebalance`
/// send one: the routing header `(snap, window)` and the record count, then
/// the records [`encode_block`] lays out behind it in the same staging
/// buffer. A pane's arrays are encoded once, into the block's payload
/// image; nothing else is built.
pub fn encode_block_msg(snap: SnapshotId, window: &str, block: &(impl BlockDesc + ?Sized)) -> Rope {
    // Snapshot (12 bytes), window (2 + its length), record count (4).
    let mut routing = Vec::with_capacity(18 + window.len());
    put_name(&mut routing, snap, None, window);
    routing.extend_from_slice(&(1 + block.n_datasets() as u32).to_le_bytes());
    encode_block(&routing, block)
}

/// Key naming one restart round for server↔server coordination.
///
/// With multiple tenants restarting concurrently, an unkeyed flush token
/// from another tenant's restart could be counted for this one's, letting
/// a server scan files a peer has not flushed. The key pins a flush token
/// to one `(tenant, snapshot, window)` restart — and the `epoch` counter
/// distinguishes *repeated* restarts of the same snapshot, which are
/// otherwise indistinguishable on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CoordKey {
    pub tenant: rocio_core::TenantId,
    pub snap: SnapshotId,
    pub window: String,
    pub epoch: u32,
}

impl CoordKey {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::from(self.tenant.0.to_le_bytes());
        put_name(&mut out, self.snap, Some(self.epoch), &self.window);
        out
    }

    fn read(cur: &mut Cursor<'_>) -> Result<Self> {
        let tenant = rocio_core::TenantId(cur.u32("panda wire tenant")?);
        let (snap, epoch, window) = read_name(cur, true)?;
        Ok(CoordKey { tenant, snap, window: window.into_owned(), epoch })
    }
}

/// `FLUSH_TOKEN` payload: just the restart key.
pub(crate) fn encode_flush_token(key: &CoordKey) -> Vec<u8> {
    key.encode()
}

/// Decode a `FLUSH_TOKEN` payload.
pub(crate) fn decode_flush_token(bytes: &[u8]) -> Result<CoordKey> {
    Cursor::from(bytes).whole("FLUSH_TOKEN", CoordKey::read)
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
    Cursor::from(bytes).whole("SYNC_ACK", |cur| match cur.u8("SYNC_ACK status")? {
        0 => Ok(Ok(cur.f64("SYNC_ACK watermark")?)),
        1 => {
            let text = cur.bytes(cur.remaining(), "SYNC_ACK error text")?;
            Ok(Err(String::from_utf8_lossy(&text).into_owned()))
        }
        other => Err(RocError::Corrupt(format!(
            "panda wire: unknown SYNC_ACK status {other}"
        ))),
    })
}

/// `RETIRE` payload: the snapshot to delete.
pub(crate) fn encode_retire(snap: SnapshotId) -> Vec<u8> {
    let mut out = Vec::new();
    put_snap(&mut out, snap);
    out
}

/// Decode a `RETIRE` payload.
pub(crate) fn decode_retire(bytes: &[u8]) -> Result<SnapshotId> {
    Cursor::from(bytes).whole("RETIRE", read_snap)
}

/// `READ_DONE` payload: how many blocks this server shipped to the client.
pub(crate) fn encode_read_done(n_sent: u32) -> Vec<u8> {
    Vec::from(n_sent.to_le_bytes())
}

/// Decode a `READ_DONE` payload.
pub(crate) fn decode_read_done(bytes: &[u8]) -> Result<u32> {
    Cursor::from(bytes).whole("READ_DONE", |cur| cur.u32("READ_DONE count"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rocio_core::{ArrayData, AttrValue, BlockId, Dataset};
    use rocsdf::format::CRC_ATTR;
    use rocsdf::{Fetch, LibraryModel, SdfFileReader, SdfFileWriter};
    use rocstore::SharedFs;

    fn block() -> DataBlock {
        DataBlock::new(BlockId(12), "fluid")
            .with_dataset(Dataset::vector("pressure", vec![1.0f64, 2.0]).with_attr("units", "Pa"))
            .with_dataset(Dataset::vector("ids", vec![7i32]))
            .with_attr("material", "gas")
    }

    fn msg(block: DataBlock) -> BlockMsg {
        BlockMsg { snap: SnapshotId::new(50, 1), window: "fluid".into(), block }
    }

    /// `bytes` as a rope of separately allocated parts, cut at `cuts`.
    fn cut(bytes: &[u8], cuts: &[prop::sample::Index]) -> (Rope, Vec<usize>) {
        let mut at: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
        at.sort_unstable();
        let (mut rope, mut from) = (Rope::new(), 0);
        for &to in at.iter().chain([&bytes.len()]) {
            rope.push(Bytes::copy_from_slice(&bytes[from..to]));
            from = to;
        }
        (rope, at)
    }

    /// Is `window` a view into one of `rope`'s parts?
    fn is_window_of(window: &[u8], rope: &Rope) -> bool {
        let at = window.as_ptr() as usize;
        rope.parts().iter().any(|p| {
            let base = p.as_ptr() as usize;
            base <= at && at + window.len() <= base + p.len()
        })
    }

    /// The wire image of the message, flat.
    fn wire(m: &BlockMsg) -> Vec<u8> {
        m.encode().into_bytes().to_vec()
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
    fn block_msg_round_trips_with_payloads_that_outlive_the_message() {
        let m = msg(block());
        let src = Bytes::from(wire(&m));
        let dec = BlockMsg::decode_shared(&src).unwrap();
        // Payloads are refcounted views of the message; they stay valid
        // after the message handle itself is dropped.
        drop(src);
        assert_eq!(dec, m);
        assert_eq!(wire(&dec), wire(&m));
    }

    #[test]
    fn block_msg_layout_is_pinned_by_value() {
        // The wire format, byte for byte: snapshot (step, ordinal), window,
        // record count, then the SDF file records — `__meta__` (empty u8
        // payload, the block's identity and attributes as attributes), then
        // each member under the block's prefix, each with its payload's
        // CRC-32 (zlib's; 0 for no bytes) as `__crc32__`.
        let block = DataBlock::new(BlockId(7), "w")
            .with_dataset(Dataset::vector("p", vec![-1i32, 2]))
            .with_attr("t", 0.5f64);
        let golden: Vec<u8> = [
            &[50, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0][..], &[5, 0], b"fluid", &[2, 0, 0, 0],
            b"DS00", &[18, 0], b"blk000007/__meta__", &[0, 1], &[0; 8], &[5, 0],
            &[9, 0], b"__crc32__", &[0; 9],
            &[5, 0], b"blk:t", &[1, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f],
            &[8, 0], b"block_id", &[0, 7, 0, 0, 0, 0, 0, 0, 0],
            &[10, 0], b"n_datasets", &[0, 1, 0, 0, 0, 0, 0, 0, 0],
            &[6, 0], b"window", &[2, 1, 0, 0, 0], b"w",
            &[0; 8],
            b"DS00", &[11, 0], b"blk000007/p", &[1, 1], &[2, 0, 0, 0, 0, 0, 0, 0], &[1, 0],
            &[9, 0], b"__crc32__", &[0, 0x74, 0x37, 0xf6, 0x55, 0, 0, 0, 0],
            &[8, 0, 0, 0, 0, 0, 0, 0], &[0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0],
        ]
        .concat();
        assert_eq!(wire(&msg(block.clone())), golden);
        assert_eq!(BlockMsg::decode_shared(&golden.into()).unwrap(), msg(block));
    }

    #[test]
    fn truncated_messages_rejected() {
        let enc = Bytes::from(wire(&msg(block())));
        assert!(BlockMsg::decode_shared(&enc.slice(..enc.len() - 3)).is_err());
        assert!(WriteReq::decode(&[1, 2, 3]).is_err());
        assert!(ReadReq::decode(&[]).is_err());
        assert!(decode_read_done(&[1]).is_err());
    }

    /// Arbitrary bytes, and a valid encoding with one byte replaced or cut
    /// short at any length.
    fn hostile(valid: &[u8], junk: &[u8], at: prop::sample::Index, byte: u8) -> [Bytes; 3] {
        let mut mutated = valid.to_vec();
        mutated[at.index(valid.len())] = byte;
        [Bytes::copy_from_slice(junk), mutated.into(), Bytes::copy_from_slice(&valid[..at.index(valid.len())])]
    }

    /// Where in `rope`'s flat image each part lies that is the payload of
    /// one of `msgs`' datasets — the sender's own buffer.
    fn payload_spans(rope: &Rope, msgs: &[BlockMsg]) -> Vec<(usize, usize)> {
        let payloads: Vec<*const u8> =
            msgs.iter().flat_map(|m| &m.block.datasets).map(|ds| ds.data.bytes().as_ptr()).collect();
        let mut at = 0;
        let mut spans = Vec::new();
        for p in rope.parts() {
            if payloads.contains(&p.as_ptr()) {
                spans.push((at, p.len()));
            }
            at += p.len();
        }
        spans
    }

    proptest! {
        // `Ok` or `Err`, never a panic; what decodes is no larger than the
        // message it is made of windows of — and the verdict is the same
        // when the message arrives as a rope cut anywhere.
        #[test]
        fn hostile_block_msg_bytes_never_panic(
            junk in prop::collection::vec(any::<u8>(), 0..256),
            at in any::<prop::sample::Index>(),
            byte in any::<u8>(),
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        ) {
            for input in hostile(&wire(&msg(block())), &junk, at, byte) {
                let flat = BlockMsg::decode_shared(&input);
                let roped = BlockMsg::decode(&mut cut(&input, &cuts).0.cursor());
                prop_assert_eq!(format!("{roped:?}"), format!("{flat:?}"));
                if let Ok(m) = &flat {
                    prop_assert!(m.window.len() + m.block.encoded_size() <= input.len() + 64);
                }
                // The view a receiver applies: the same verdict flat and
                // cut, and the block the decode builds.
                let rope = cut(&input, &cuts).0;
                let (flat_view, roped_view) =
                    (BlockMsgView::decode(&mut (&input).into()), BlockMsgView::decode(&mut rope.cursor()));
                prop_assert_eq!(format!("{roped_view:?}"), format!("{flat_view:?}"));
                match (&flat_view, &flat) {
                    (Ok(v), Ok(m)) => {
                        prop_assert_eq!((v.snap, &*v.window), (m.snap, m.window.as_str()));
                        prop_assert_eq!(&v.block.to_block().unwrap(), &m.block);
                    }
                    (Err(v), Err(m)) => prop_assert_eq!(format!("{v:?}"), format!("{m:?}")),
                    (v, m) => prop_assert!(false, "view {v:?}, decode {m:?}"),
                }
                // The server's intake walks what the decode reads, payloads
                // aside, cut or whole: it refuses bytes after the last record
                // and a record that carries no checksum, and leaves a
                // checksum that fails to the block's reader — the restart of
                // the file it writes refuses it. What it takes reads back as
                // the block the decode builds.
                let whole = Rope::from(input.clone());
                let (taken, taken_roped) = (BlockMsgView::walk_whole(&whole), BlockMsgView::walk_whole(&rope));
                prop_assert_eq!(format!("{taken_roped:?}"), format!("{taken:?}"));
                match (&taken, &flat_view) {
                    (Ok(w), Ok(_)) => {
                        let m = flat.as_ref().expect("what the view reads, decodes");
                        prop_assert_eq!(w.block.encoded_size(), m.block.encoded_size());
                        prop_assert_eq!(forwarded(&w.block).ok(), Some(vec![m.block.clone()]));
                    }
                    (Ok(w), Err(RocError::Corrupt(e))) if e.contains("checksum mismatch") => {
                        let restart = format!("{:?}", forwarded(&w.block));
                        prop_assert!(restart.contains(e.as_str()), "{}", restart);
                    }
                    (Err(RocError::Corrupt(e)), Ok(_)) => {
                        prop_assert!(e.contains("after block") || e.contains("carries no"), "{}", e)
                    }
                    (Err(w), Err(v)) => prop_assert_eq!(format!("{w:?}"), format!("{v:?}")),
                    (w, v) => prop_assert!(false, "intake {w:?}, view {v:?}"),
                }
            }
        }

        // A valid message cut into parts anywhere — mid-field, mid-payload,
        // into empty parts — decodes to the message it was, and a payload
        // no cut went through is a window of the part it arrived in.
        #[test]
        fn a_message_cut_into_parts_decodes_the_same_and_keeps_whole_payloads_in_place(
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let msgs = [msg(block())];
            let sent = msgs[0].encode();
            let flat = sent.clone().into_bytes();
            let (rope, at) = cut(&flat, &cuts);
            let decoded = [BlockMsg::decode(&mut rope.cursor()).unwrap()];
            prop_assert_eq!(&decoded[..], &msgs[..]);
            let payloads = decoded.iter().flat_map(|m| &m.block.datasets).map(|ds| ds.data.bytes());
            let spans = payload_spans(&sent, &msgs);
            prop_assert_eq!(spans.len(), 2, "every payload went as the sender's buffer");
            for (payload, (offset, len)) in payloads.zip(spans) {
                prop_assert_eq!(payload.len(), len);
                if !at.iter().any(|&c| offset < c && c < offset + len) {
                    prop_assert!(is_window_of(payload, &rope), "payload at {offset} was copied");
                }
            }
        }
    }

    fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
        prop_oneof![
            any::<i64>().prop_map(AttrValue::Int),
            any::<f64>().prop_map(AttrValue::Float),
            "[ -~]{0,12}".prop_map(AttrValue::Str),
            prop::collection::vec(any::<i64>(), 0..4).prop_map(AttrValue::IntVec),
            prop::collection::vec(any::<f64>(), 0..4).prop_map(AttrValue::FloatVec),
        ]
    }

    fn arb_attrs() -> impl Strategy<Value = Vec<(String, AttrValue)>> {
        // Keys on both sides of `__crc32__` ('_' sorts between 'Z' and 'a').
        prop::collection::vec(("[A-Za-z_:]{0,10}", arb_attr_value()), 0..5)
    }

    /// Every dtype, empty payloads, shapes of rank 0 to 2, every attribute
    /// kind on the datasets and on the block — and, where `stamped`, a
    /// dataset that carries a (matching) `__crc32__` of its own, which the
    /// encoder lays out as the one it computes.
    fn arb_block(id: u64) -> impl Strategy<Value = DataBlock> {
        let data = prop_oneof![
            prop::collection::vec(any::<u8>(), 0..64).prop_map(ArrayData::U8),
            prop::collection::vec(any::<i32>(), 0..48).prop_map(ArrayData::I32),
            prop::collection::vec(any::<i64>(), 0..32).prop_map(ArrayData::I64),
            prop::collection::vec(any::<f32>(), 0..48).prop_map(ArrayData::F32),
            prop::collection::vec(any::<f64>(), 0..32).prop_map(ArrayData::F64),
        ];
        let dataset = ("[a-z_/]{0,9}", data, 0usize..3, arb_attrs(), any::<bool>());
        (prop::collection::vec(dataset, 0..5), "[a-z]{0,8}", arb_attrs()).prop_map(
            move |(datasets, window, attrs)| {
                let mut b = DataBlock::new(BlockId(id), window);
                b.attrs = attrs.into_iter().collect();
                for (name, data, rank, attrs, stamped) in datasets {
                    let mut ds = Dataset::vector(name, Vec::<u8>::new());
                    ds.shape = match rank {
                        0 if data.len() == 1 => vec![],
                        2 => vec![1, data.len()],
                        _ => vec![data.len()],
                    };
                    ds.data = data.into();
                    ds.attrs = attrs.into_iter().filter(|(k, _)| k != CRC_ATTR).collect();
                    if stamped {
                        let crc = rocsdf::payload_crc32(&ds) as i64;
                        ds.attrs.insert(CRC_ATTR.into(), AttrValue::Int(crc));
                    }
                    let _ = b.push_dataset(ds);
                }
                b
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The equality the server rests on: appending the view its intake
        // reads writes, byte for byte and tick for tick, the file that
        // decoding the message and appending the block writes, and the
        // file the sender's own block writes — whatever is in the blocks,
        // in whatever order they arrive, however the fabric cut the
        // messages into parts.
        #[test]
        fn forwarding_writes_the_file_that_decode_then_append_block_writes(
            blocks in prop::collection::vec(any::<u8>(), 1..5).prop_flat_map(|ids| {
                let mut seen = std::collections::HashSet::new();
                let ids = ids.into_iter().filter(move |id| seen.insert(*id));
                ids.map(|id| arb_block(u64::from(id) * 4099)).collect::<Vec<_>>()
            }),
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let ropes: Vec<Rope> = blocks.iter().map(|b| cut(&wire(&msg(b.clone())), &cuts).0).collect();
            for lib in [LibraryModel::hdf4(), LibraryModel::Raw] {
                let stores = [SharedFs::turing(), SharedFs::turing(), SharedFs::turing()];
                let writers = stores.iter().map(|fs| SdfFileWriter::create(fs, "f.sdf", lib, 7, 0.25).unwrap());
                let (mut writers, mut times): (Vec<_>, Vec<_>) = writers.unzip();
                prop_assert!(times.iter().all(|t| t.to_bits() == times[0].to_bits()));
                for (rope, sent) in ropes.iter().zip(&blocks) {
                    let taken = BlockMsgView::walk_whole(rope).unwrap();
                    let m = BlockMsg::decode(&mut rope.cursor()).unwrap();
                    prop_assert_eq!((taken.snap, &*taken.window, taken.block.id()), (m.snap, m.window.as_str(), m.block.id));
                    prop_assert_eq!(taken.block.encoded_size(), m.block.encoded_size());
                    times[0] = writers[0].append_view(&taken.block, times[0]).unwrap();
                    times[1] = writers[1].append_block(&m.block, times[1]).unwrap();
                    times[2] = writers[2].append_block(sent, times[2]).unwrap();
                    prop_assert!(times.iter().all(|t| t.to_bits() == times[0].to_bits()));
                }
                let done: Vec<u64> = writers.iter_mut().zip(&times).map(|(w, &t)| w.finish(t).unwrap().to_bits()).collect();
                prop_assert!(done.iter().all(|&t| t == done[0]));
                let images = stores.each_ref().map(|fs| fs.read_all_shared("f.sdf", 0, 0.0).unwrap().0);
                for (fs, image) in stores.iter().zip(&images).skip(1) {
                    prop_assert_eq!(&images[0], image);
                    prop_assert_eq!(stores[0].stats(), fs.stats());
                }
            }
        }
    }

    #[test]
    fn hostile_counts_are_refused_before_they_size_anything() {
        // Four billion ids / records claimed by messages of a few bytes.
        let mut req = ReadReq { snap: SnapshotId::new(0, 0), window: "w".into(), ids: vec![] }.encode();
        let n = req.len();
        req[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ReadReq::decode(&req).is_err());
        let mut m = wire(&msg(block()));
        m[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BlockMsg::decode_shared(&m.clone().into()).is_err());
        assert!(matches!(BlockMsgView::walk_whole(&Bytes::from(m).into()), Err(RocError::Corrupt(_))));
        // A server takes in the message alone: a trailing byte is refused.
        let mut trailing = wire(&msg(block()));
        assert!(BlockMsgView::walk_whole(&Bytes::from(trailing.clone()).into()).is_ok());
        trailing.push(0);
        assert!(matches!(BlockMsgView::walk_whole(&Bytes::from(trailing).into()), Err(RocError::Corrupt(_))));
    }

    /// What a restart reads back of the file a server's drain writes of a
    /// block it took in: its records appended as they lie, then every
    /// block of the file read, each checked — or the refusal.
    fn forwarded(view: &BlockView) -> Result<Vec<DataBlock>> {
        let fs = SharedFs::ideal();
        let (mut w, t) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0)?;
        let t = w.append_view(view, t)?;
        let t = w.finish(t)?;
        let (r, t) = SdfFileReader::open(&fs, "f.sdf", LibraryModel::Raw, 0, t)?;
        Ok(r.read_all_blocks(t)?.0)
    }

    /// A record laid out by the record encoder with the `__crc32__` the
    /// dataset carries, if any.
    fn raw(ds: &Dataset) -> Vec<u8> {
        let mut segs = Vec::new();
        rocsdf::encode_dataset_segments(ds, None, None, Vec::new(), &mut segs);
        rocio_core::segments_to_vec(&segs)
    }

    /// A record as an encoder lays it out: with its payload's checksum.
    fn record(ds: &Dataset) -> Vec<u8> {
        let stamped = ds.clone().with_attr(CRC_ATTR, i64::from(rocsdf::payload_crc32(ds)));
        raw(&stamped)
    }

    /// A `BLOCK` message claiming `n_records` records, carrying `records`.
    fn msg_of(records: &[Vec<u8>], n_records: u32) -> Rope {
        let mut m = Vec::new();
        put_name(&mut m, SnapshotId::new(50, 1), None, "fluid");
        m.extend_from_slice(&n_records.to_le_bytes());
        records.iter().for_each(|r| m.extend_from_slice(r));
        Bytes::from(m).into()
    }

    /// What a restart makes of the file a server writes of a `BLOCK`
    /// message: the blocks it reads back, or the kind of the refusal, the
    /// intake's or the restart's.
    fn intake(wire: &Rope) -> std::result::Result<Vec<DataBlock>, &'static str> {
        let written = BlockMsgView::walk_whole(wire).and_then(|m| forwarded(&m.block));
        written.map_err(|e| match e {
            RocError::Corrupt(_) => "Corrupt",
            RocError::Mismatch(_) => "Mismatch",
            RocError::AlreadyExists(_) => "AlreadyExists",
            e => panic!("{e:?}"),
        })
    }

    /// One verdict per receiver: what every reader of a block refuses, a
    /// server refuses at intake or its restart refuses — a payload its
    /// checksum fails, which the intake does not read — with the same
    /// kind; and what it takes reads back as the block every reader reads,
    /// whatever the sender laid out beside it.
    #[test]
    fn a_forwarded_block_reads_back_as_every_reader_reads_it() {
        let with_ab = |ds: Dataset, a: i64, b: i64| ds.with_attr("a", a).with_attr("b", b);
        let member = |name: &str| with_ab(Dataset::vector(name, vec![0.5f64; 3]), 1, 2);
        let block_with = |disp: Dataset| DataBlock::new(BlockId(9), "solid").with_dataset(disp).with_attr("level", 2i64);
        let block = block_with(member("disp"));
        let meta = || {
            let wire = rocsdf::encode_block(&[], &block);
            rocsdf::decode_dataset(&mut wire.cursor()).unwrap()
        };
        let disp = member("blk000009/disp");
        let mut with_payload = meta();
        (with_payload.shape, with_payload.data) = (vec![1], vec![7u8].into());
        let mut uncounted = meta();
        uncounted.attrs.remove("n_datasets");
        let mut elsewhere = meta();
        elsewhere.name = "blk9/__meta__".into();
        let right = rocsdf::payload_crc32(&disp) as i64;
        let stamped = |crc: i64| disp.clone().with_attr(CRC_ATTR, crc);
        // Attribute keys out of order, or twice: no encoder writes them,
        // so a member's two keys are renamed where they lie.
        let renamed = |a: u8, b: u8| {
            let mut r = record(&disp);
            let key = |r: &[u8], k: u8| r.windows(3).rposition(|w| w == [1, 0, k]).unwrap() + 2;
            let (at_a, at_b) = (key(&r, b'a'), key(&r, b'b'));
            (r[at_a], r[at_b]) = (a, b);
            r
        };
        let records = |ds: &[Dataset]| ds.iter().map(record).collect::<Vec<_>>();
        let n = |records: Vec<Vec<u8>>| {
            let n = records.len() as u32;
            msg_of(&records, n)
        };
        type Case = (&'static str, Rope, std::result::Result<DataBlock, &'static str>);
        let cases: Vec<Case> = vec![
            ("no records", n(vec![]), Err("Corrupt")),
            ("a member where the meta belongs", n(records(std::slice::from_ref(&disp))), Err("Corrupt")),
            ("a meta under another spelling of the id", n(records(&[elsewhere, disp.clone()])), Err("Corrupt")),
            ("a member outside the prefix", n(records(&[meta(), member("blk000008/disp")])), Err("Corrupt")),
            ("a stale checksum", n(vec![record(&meta()), raw(&stamped(right ^ 1))]), Err("Corrupt")),
            ("a record without a checksum", n(vec![record(&meta()), raw(&disp)]), Err("Corrupt")),
            ("a repeated member", n(records(&[meta().with_attr("n_datasets", 2i64), disp.clone(), disp.clone()])), Err("AlreadyExists")),
            ("a count the bytes cannot hold", msg_of(&records(&[meta(), disp.clone()]), u32::MAX), Err("Corrupt")),
            ("a meta whose id is no Int", n(records(&[meta().with_attr("block_id", "9"), disp.clone()])), Err("Mismatch")),
            ("the block as sent", n(records(&[meta(), disp.clone()])), Ok(block.clone())),
            ("a matching checksum", n(vec![record(&meta()), raw(&stamped(right))]), Ok(block.clone())),
            ("a meta with a payload", n(records(&[with_payload, disp.clone()])), Ok(block.clone())),
            ("a meta with a foreign attribute", n(records(&[meta().with_attr("colour", 3i64), disp.clone()])), Ok(block.clone())),
            ("a meta that counts no datasets", n(records(&[uncounted, disp.clone()])), Ok(block.clone())),
            ("a meta that counts other datasets", n(records(&[meta().with_attr("n_datasets", 2i64), disp.clone()])), Ok(block.clone())),
            ("member keys descending", n(vec![record(&meta()), renamed(b'b', b'a')]), Ok(block_with(with_ab(Dataset::vector("disp", vec![0.5f64; 3]), 2, 1)))),
            ("a member key repeated", n(vec![record(&meta()), renamed(b'a', b'a')]), Ok(block_with(Dataset::vector("disp", vec![0.5f64; 3]).with_attr("a", 2i64)))),
        ];
        for (what, wire, want) in cases {
            assert_eq!(intake(&wire), want.map(|b| vec![b]), "{what}");
        }
    }

    /// A payload byte damaged after the client encoded its message — in
    /// the window a server buffers — goes to the file as it lies, and the
    /// owner's restart refuses the record, naming it: the checksum is the
    /// client's, computed before the damage, and nothing on the way
    /// computes another over the damaged bytes.
    #[test]
    fn a_byte_damaged_in_a_servers_buffer_is_caught_at_restart() {
        let m = msg(block());
        let id = m.block.id;
        let payload = m.block.datasets[0].data.bytes().as_ptr();
        let mut buffered = Rope::new();
        for part in m.encode().parts() {
            let mut bytes = part.to_vec();
            if part.as_ptr() == payload {
                bytes[3] ^= 0x10;
            }
            buffered.push(Bytes::from(bytes));
        }
        // Intake and drain, as the server runs them.
        let taken = BlockMsgView::walk_whole(&buffered).unwrap();
        let fs = SharedFs::ideal();
        let (mut w, t) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_view(&taken.block, t).unwrap();
        let t = w.finish(t).unwrap();
        // The restart: the server ships the records as they lie; the owner
        // reads them.
        let (r, t) = SdfFileReader::open(&fs, "f.sdf", LibraryModel::Raw, 0, t).unwrap();
        let (records, _) = r.read_blocks_raw(&[id], Fetch::PerRange, t).unwrap();
        let mut shipped = Rope::new();
        BlockView::ship(id, r.record_lens(id).unwrap(), &mut Cursor::new(&records), &mut shipped).unwrap();
        let got = BlockView::receive(&shipped);
        let named = "dataset 'blk000012/pressure' payload checksum mismatch";
        assert!(matches!(&got, Err(RocError::Corrupt(e)) if e.contains(named)), "{got:?}");
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

    /// Every control message is exactly its encoding: one byte more is
    /// `Corrupt`, as it is for a `BLOCK`.
    #[test]
    fn control_messages_refuse_trailing_bytes() {
        fn refuses<T>(mut bytes: Vec<u8>, decode: fn(&[u8]) -> Result<T>) -> bool {
            assert!(decode(&bytes).is_ok());
            bytes.push(0);
            matches!(decode(&bytes), Err(RocError::Corrupt(_)))
        }
        let snap = SnapshotId::new(150, 3);
        let window = String::from("fluid");
        let key = CoordKey { tenant: rocio_core::TenantId(3), snap, window: window.clone(), epoch: 5 };
        let write = WriteReq { snap, window: window.clone(), n_blocks: 7 };
        let read = ReadReq { snap, window, ids: vec![4, 9] };
        let cases = [
            ("WRITE_REQ", refuses(write.encode(), WriteReq::decode)),
            ("READ_REQ", refuses(read.encode(), ReadReq::decode)),
            ("RETIRE", refuses(encode_retire(snap), decode_retire)),
            ("READ_DONE", refuses(encode_read_done(42), decode_read_done)),
            ("FLUSH_TOKEN", refuses(encode_flush_token(&key), decode_flush_token)),
            ("SYNC_ACK", refuses(encode_sync_ack(&Ok(12.5)), decode_sync_ack)),
        ];
        let accepted: Vec<&str> = cases.iter().filter(|c| !c.1).map(|c| c.0).collect();
        assert_eq!(accepted, Vec::<&str>::new(), "decoders that accept a trailing byte");
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
            tag::FLUSH_TOKEN,
        ] {
            assert!(t <= rocnet::comm::TAG_USER_MAX);
        }
    }
}
