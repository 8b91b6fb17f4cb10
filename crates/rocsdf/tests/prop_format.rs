//! Property tests: SDF files round-trip arbitrary block collections, and
//! damaged ones are refused without a panic — as are damaged messages of
//! the restart-block codec.

use proptest::prelude::*;
use rocio_core::{ArrayData, AttrValue, BlockId, Bytes, Cursor, DataBlock, Dataset, RocError, Rope};
use rocsdf::{BlockView, Fetch, LibraryModel, SdfFileReader, SdfFileWriter};
use rocstore::SharedFs;

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        any::<f64>().prop_map(AttrValue::Float),
        "[ -~]{0,12}".prop_map(AttrValue::Str),
        prop::collection::vec(any::<i64>(), 0..4).prop_map(AttrValue::IntVec),
        prop::collection::vec(any::<f64>(), 0..4).prop_map(AttrValue::FloatVec),
    ]
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        "[A-Za-z_][A-Za-z0-9_/]{0,16}",
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..64).prop_map(ArrayData::U8),
            prop::collection::vec(any::<i32>(), 0..48).prop_map(ArrayData::I32),
            prop::collection::vec(any::<i64>(), 0..32).prop_map(ArrayData::I64),
            prop::collection::vec(any::<f32>(), 0..48).prop_map(ArrayData::F32),
            prop::collection::vec(any::<f64>(), 0..32).prop_map(ArrayData::F64),
        ],
        prop::collection::vec(("[ -~]{1,10}", arb_attr_value()), 0..5),
    )
        .prop_map(|(name, data, attrs)| {
            let mut ds = Dataset::vector(name, vec![0u8; 0]);
            ds.shape = vec![data.len()];
            ds.data = data.into();
            ds.attrs = attrs.into_iter().collect();
            ds
        })
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

fn arb_block(id: u64) -> impl Strategy<Value = DataBlock> {
    (
        prop::collection::vec(
            (
                "[a-z][a-z0-9_]{0,8}",
                prop_oneof![
                    prop::collection::vec(any::<f64>(), 1..32).prop_map(ArrayData::F64),
                    prop::collection::vec(any::<i32>(), 1..32).prop_map(ArrayData::I32),
                ],
            ),
            1..5,
        ),
        prop::collection::vec(("[a-z]{1,6}", any::<i64>()), 0..3),
    )
        .prop_map(move |(datasets, attrs)| {
            let mut b = DataBlock::new(BlockId(id), "fluid");
            for (name, data) in datasets {
                if b.dataset(&name).is_err() {
                    let mut ds = Dataset::vector(name, vec![0u8; 0]);
                    ds.shape = vec![data.len()];
                    ds.data = data.into();
                    b = b.with_dataset(ds);
                }
            }
            for (k, v) in attrs {
                b.attrs.insert(k, v.into());
            }
            b
        })
}

/// One checksummed file record of `ds`, flattened.
fn record(ds: &Dataset, rename: Option<&str>) -> Vec<u8> {
    let mut segs = Vec::new();
    rocsdf::encode_dataset_segments(ds, rename, Some(rocsdf::payload_crc32(ds)), Vec::new(), &mut segs);
    rocio_core::segments_to_vec(&segs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn file_round_trips_arbitrary_blocks(
        blocks in prop::collection::vec(any::<u8>(), 1..6)
            .prop_flat_map(|ids| {
                let uniq: Vec<u64> = {
                    let mut v: Vec<u64> = ids.iter().map(|&b| b as u64).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                uniq.into_iter().map(arb_block).collect::<Vec<_>>()
            })
    ) {
        let fs = SharedFs::ideal();
        let (mut w, mut t) =
            SdfFileWriter::create(&fs, "prop.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        for b in &blocks {
            t = w.append_block(b, t).unwrap();
        }
        w.finish(t).unwrap();

        let (r, t) = SdfFileReader::open(&fs, "prop.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        prop_assert_eq!(r.block_ids().len(), blocks.len());
        let (read, _) = r.read_all_blocks(t).unwrap();
        for (a, b) in blocks.iter().zip(&read) {
            prop_assert_eq!(
                rocio_core::Checksum::of_block(a),
                rocio_core::Checksum::of_block(b)
            );
        }
    }

    #[test]
    fn truncated_files_never_panic(
        len in 0usize..200,
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let fs = SharedFs::ideal();
        let (mut w, t) =
            SdfFileWriter::create(&fs, "t.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w
            .append_dataset(&Dataset::vector("d", vec![1.0f64; 16]), t)
            .unwrap();
        w.finish(t).unwrap();
        let mut bytes = fs.read_all_shared("t.sdf", 0, 0.0).unwrap().0.to_vec();
        bytes.truncate(len.min(bytes.len()));
        bytes.extend(junk);
        fs.create("cut.sdf", 0, 0.0);
        fs.append("cut.sdf", &bytes, 0, 0.0).unwrap();
        // Must not panic; may Err at open or at the first read.
        if let Ok((r, t)) = SdfFileReader::open(&fs, "cut.sdf", LibraryModel::Raw, 1, 0.0) {
            let _ = r.read_all_blocks(t);
            let _ = r.read_blocks_sieved(&r.block_ids(), t);
        }
    }

    #[test]
    fn shared_decode_round_trips_after_source_drop(
        ds in arb_dataset(),
        rename in prop_oneof![Just(None), "[a-z]{1,8}/[a-z]{1,8}".prop_map(Some)],
    ) {
        // Strip any attr colliding with the reserved checksum key.
        let mut ds = ds;
        ds.attrs.remove("__crc32__");
        let src = bytes::Bytes::from(record(&ds, rename.as_deref()));
        let extra_handle = src.clone();
        let mut pos = 0;
        let dec = rocsdf::decode_dataset_shared(&src, &mut pos).unwrap();
        prop_assert_eq!(pos, src.len());
        // Drop every other handle to the source allocation: the decoded
        // zero-copy view must keep the payload alive (refcount
        // correctness).
        drop(src);
        drop(extra_handle);
        if let Some(name) = rename {
            ds.name = name;
        }
        prop_assert_eq!(&dec, &ds);
    }

    #[test]
    fn a_record_cut_into_parts_decodes_the_same_and_keeps_a_whole_payload_in_place(
        ds in arb_dataset(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        // Cut anywhere — inside the marker, a name, an attribute, the
        // payload; into empty parts — the rope decodes to the dataset the
        // flat bytes decode to, and a payload no cut went through is a
        // window of the part it lies in, not a copy.
        let mut ds = ds;
        ds.attrs.remove("__crc32__");
        let flat = record(&ds, None);
        let (rope, at) = cut(&flat, &cuts);
        let mut cur = rope.cursor();
        let dec = rocsdf::decode_dataset(&mut cur).unwrap();
        prop_assert_eq!(cur.remaining(), 0);
        prop_assert_eq!(&dec, &ds);
        let start = flat.len() - dec.byte_len();
        if !dec.is_empty() && !at.iter().any(|&c| start < c && c < flat.len()) {
            let payload = dec.data.bytes().as_ptr_range();
            prop_assert!(
                rope.parts().iter().any(|p| {
                    p.as_ptr_range().start <= payload.start && payload.end <= p.as_ptr_range().end
                }),
                "payload was copied"
            );
        }
    }

    #[test]
    fn hostile_record_bytes_never_panic(
        ds in arb_dataset(),
        junk in prop::collection::vec(any::<u8>(), 0..256),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        // Arbitrary bytes, and a valid record with one byte replaced or cut
        // short at any length: `Ok` or `Err`, and whatever decodes is no
        // larger than the bytes it came from (its payload is a window of
        // them; names, shape and attributes were each bounded by the input
        // before they were allocated).
        let valid = record(&ds, None);
        let mut mutated = valid.clone();
        mutated[at.index(valid.len())] = byte;
        for input in [&junk[..], &mutated, &valid[..at.index(valid.len())]] {
            // The same verdict whether the bytes come whole or as a rope.
            let roped = rocsdf::decode_dataset(&mut cut(input, &cuts).0.cursor());
            let input = bytes::Bytes::copy_from_slice(input);
            let whole = rocsdf::decode_dataset_shared(&input, &mut 0);
            prop_assert_eq!(format!("{roped:?}"), format!("{whole:?}"));
            if let Ok(dec) = whole {
                prop_assert!(dec.encoded_size() <= input.len() + 16, "{dec:?}");
                let payload = dec.data.bytes().as_ptr_range();
                prop_assert!(dec.is_empty()
                    || input.as_ptr_range().start <= payload.start && payload.end <= input.as_ptr_range().end);
            }
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_definition(
        data in prop::collection::vec(any::<u8>(), 0..=64 * 1024),
        skip in 0usize..8,
    ) {
        // Random bytes, random length, random alignment: whole groups of
        // the interleaved kernel, its single-chain remainder and the byte
        // tail all against the polynomial's definition, one bit at a time.
        let data = &data[skip.min(data.len())..];
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        prop_assert_eq!(rocsdf::format::crc32(data), !crc);
    }

    #[test]
    fn cost_models_monotone(n1 in 0usize..5000, n2 in 0usize..5000) {
        let (lo, hi) = (n1.min(n2), n1.max(n2));
        for m in [LibraryModel::hdf4(), LibraryModel::hdf5()] {
            prop_assert!(m.lookup_cost(hi) >= m.lookup_cost(lo));
            prop_assert!(m.create_cost(hi) >= m.create_cost(lo));
        }
    }
}

// ---------------------------------------------------------------------
// The restart-block codec (`rocsdf::view`): a Rochdf two-phase message
// and a Rocpanda `READ_BATCH` are both read by it, so its hostile-bytes
// and cut-rope properties cover both restarts.
// ---------------------------------------------------------------------

/// Two blocks written to a file and shipped as a restart ships them, each
/// as its own message and both as one batch.
fn shipped() -> rocio_core::Result<(Vec<DataBlock>, Vec<Bytes>, Bytes)> {
    let blocks: Vec<DataBlock> = [7u64, 9]
        .map(|id| {
            DataBlock::new(BlockId(id), "fluid")
                .with_dataset(Dataset::vector("p", vec![id as f64, 2.0]).with_attr("units", "Pa"))
                .with_attr("material", "gas")
        })
        .into();
    let fs = SharedFs::ideal();
    let (mut w, mut t) = SdfFileWriter::create(&fs, "one.sdf", LibraryModel::Raw, 0, 0.0)?;
    for block in &blocks {
        t = w.append_block(block, t)?;
    }
    w.finish(t)?;
    let (r, t) = SdfFileReader::open(&fs, "one.sdf", LibraryModel::Raw, 0, 0.0)?;
    let ids: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
    let (raw, _) = r.read_blocks_raw(&ids, Fetch::PerRange, t)?;
    let (mut records, mut msgs, mut each) = (Cursor::new(&raw), Rope::new(), Vec::new());
    for &id in &ids {
        let mut msg = Rope::new();
        BlockView::ship(id, r.record_lens(id)?, &mut records.clone(), &mut msg)?;
        BlockView::ship(id, r.record_lens(id)?, &mut records, &mut msgs)?;
        each.push(msg.into_bytes());
    }
    Ok((blocks, each, BlockView::ship_batch(2, &msgs).into_bytes()))
}

/// A batch as a client reads it: the blocks it held, built, up to the
/// first failure, and the verdict.
fn receive_batch(batch: &Rope) -> (Result<(), RocError>, Vec<DataBlock>) {
    let mut got = Vec::new();
    let verdict = BlockView::receive_batch(batch, |view| {
        got.push(view.to_block()?);
        Ok(())
    });
    (verdict, got)
}

#[test]
fn block_message_round_trips_and_rejects_garbage() {
    let (blocks, each, batch) = shipped().unwrap();
    for (block, image) in blocks.iter().zip(&each) {
        for verify_crc in [true, false] {
            let got = BlockView::receive(&image.clone().into(), verify_crc).unwrap();
            assert_eq!(&got.to_block().unwrap(), block);
        }
    }
    assert_eq!(receive_batch(&batch.clone().into()), (Ok(()), blocks));
    let empty = BlockView::ship_batch(0, &Rope::new());
    assert_eq!(receive_batch(&empty), (Ok(()), vec![]));
    // Truncations and trailing garbage are rejected, never panic.
    let image = &each[0];
    for cut in [0, 4, 11, image.len() - 1] {
        assert!(BlockView::receive(&image.slice(..cut).into(), true).is_err(), "cut at {cut}");
    }
    for cut in [0, 3, 4, 15, batch.len() - 1] {
        assert!(receive_batch(&batch.slice(..cut).into()).0.is_err(), "batch cut at {cut}");
    }
    for image in [image, &batch] {
        let mut extra = image.to_vec();
        extra.push(0);
        let extra = Rope::from(Bytes::from(extra));
        assert!(matches!(BlockView::receive(&extra, true), Err(RocError::Corrupt(_))));
    }
    // Twelve bytes claiming four billion records (used to ask the
    // allocator for 32 GiB and abort); one record of length u64::MAX (used
    // to overflow `pos + n`: a panic in debug, a wrapped bound check and a
    // panic inside `Bytes::slice` in release) — alone, and as a batch's
    // message; and a batch claiming four billion messages.
    let claim = |n: u32, lens: &[u64]| -> Vec<u8> {
        let lens = lens.iter().flat_map(|l| l.to_le_bytes());
        7u64.to_le_bytes().into_iter().chain(n.to_le_bytes()).chain(lens).collect()
    };
    let batch_of = |msg: Vec<u8>| [1u32.to_le_bytes().to_vec(), msg].concat();
    for hostile in [claim(u32::MAX, &[]), claim(1, &[u64::MAX]), claim(2, &[8, u64::MAX - 7])] {
        let got = BlockView::receive(&Bytes::from(hostile.clone()).into(), true);
        assert!(matches!(got, Err(RocError::Corrupt(_))), "{got:?}");
        let (got, _) = receive_batch(&Bytes::from(batch_of(hostile)).into());
        assert!(matches!(got, Err(RocError::Corrupt(_))), "{got:?}");
    }
    let (got, _) = receive_batch(&Bytes::from(u32::MAX.to_le_bytes().to_vec()).into());
    assert!(matches!(got, Err(RocError::Corrupt(_))), "{got:?}");
}

/// Where each payload of `blocks`, decoded from `flat` as one buffer, lies
/// in it.
fn payload_spans(blocks: &[DataBlock], flat: &Bytes) -> Vec<(usize, usize)> {
    let base = flat.as_ptr() as usize;
    let payloads = blocks.iter().flat_map(|b| &b.datasets).map(|ds| ds.data.bytes());
    payloads.map(|p| (p.as_ptr() as usize - base, p.len())).collect()
}

proptest! {
    // Arbitrary bytes, and a valid message or batch with one byte replaced
    // or cut short at any length: `Ok` or `Err`, never a panic (the record
    // table is sized by a count the message itself bounds, and a batch's
    // count sizes nothing) — and the same verdict when the bytes arrive as
    // a rope cut anywhere.
    #[test]
    fn hostile_block_message_bytes_never_panic(
        junk in prop::collection::vec(any::<u8>(), 0..256),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let (_, each, batch) = shipped().unwrap();
        for valid in [&each[0], &batch] {
            let mut mutated = valid.to_vec();
            mutated[at.index(valid.len())] = byte;
            for input in [&junk[..], &mutated, &valid[..at.index(valid.len())]] {
                let flat = Rope::from(Bytes::copy_from_slice(input));
                let roped = cut(input, &cuts).0;
                for verify_crc in [true, false] {
                    let one = BlockView::receive(&flat, verify_crc);
                    let one_roped = BlockView::receive(&roped, verify_crc);
                    prop_assert_eq!(format!("{one_roped:?}"), format!("{one:?}"));
                }
                let (all, all_roped) = (receive_batch(&flat), receive_batch(&roped));
                prop_assert_eq!(format!("{all_roped:?}"), format!("{all:?}"));
            }
        }
    }

    // A valid message or batch cut into parts anywhere — mid-field,
    // mid-record, mid-payload — decodes to the blocks it carries, and a
    // payload no cut went through is a window of the part it arrived in.
    #[test]
    fn a_block_message_cut_into_parts_decodes_the_same_and_keeps_whole_payloads_in_place(
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        batch in any::<bool>(),
    ) {
        let (blocks, each, whole) = shipped().unwrap();
        let (flat, sent) = if batch { (whole, &blocks[..]) } else { (each[0].clone(), &blocks[..1]) };
        let decode = |rope: &Rope| match batch {
            true => receive_batch(rope).1,
            false => vec![BlockView::receive(rope, true).unwrap().to_block().unwrap()],
        };
        let (rope, at) = cut(&flat, &cuts);
        let decoded = decode(&rope);
        prop_assert_eq!(&decoded[..], sent);
        let spans = payload_spans(&decode(&flat.clone().into()), &flat);
        let payloads = decoded.iter().flat_map(|b| &b.datasets).map(|ds| ds.data.bytes());
        for (payload, (offset, len)) in payloads.zip(spans) {
            if !at.iter().any(|&c| offset < c && c < offset + len) {
                let here = payload.as_ptr() as usize;
                prop_assert!(
                    rope.parts().iter().any(|p| {
                        let base = p.as_ptr() as usize;
                        base <= here && here + len <= base + p.len()
                    }),
                    "payload at {} was copied", offset
                );
            }
        }
    }
}
