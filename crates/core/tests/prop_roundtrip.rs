//! Property tests: every core encoding round-trips for arbitrary values,
//! and checksums detect any content change.

use proptest::prelude::*;
use rocio_core::{
    ArrayData, AttrValue, BlockId, Bytes, Checksum, Cursor, DType, DataBlock, Dataset, SharedArray,
};

fn arb_array() -> impl Strategy<Value = ArrayData> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(ArrayData::U8),
        prop::collection::vec(any::<i32>(), 0..64).prop_map(ArrayData::I32),
        prop::collection::vec(any::<i64>(), 0..64).prop_map(ArrayData::I64),
        prop::collection::vec(any::<f32>(), 0..64).prop_map(ArrayData::F32),
        prop::collection::vec(any::<f64>(), 0..64).prop_map(ArrayData::F64),
    ]
}

fn arb_attr() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        any::<f64>().prop_map(AttrValue::Float),
        "[a-zA-Z0-9 _./-]{0,24}".prop_map(AttrValue::Str),
        prop::collection::vec(any::<i64>(), 0..8).prop_map(AttrValue::IntVec),
        prop::collection::vec(any::<f64>(), 0..8).prop_map(AttrValue::FloatVec),
    ]
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        "[a-z][a-z0-9_/]{0,16}",
        arb_array(),
        prop::collection::vec(("[a-z]{1,8}", arb_attr()), 0..4),
    )
        .prop_map(|(name, data, attrs)| {
            let mut ds = Dataset::vector(name, vec![0u8; 0]);
            ds.shape = vec![data.len()];
            ds.data = data.into();
            for (k, v) in attrs {
                ds.attrs.insert(k, v);
            }
            ds
        })
}

/// A block of one `u8` dataset.
fn byte_block(payload: Vec<u8>) -> DataBlock {
    DataBlock::new(BlockId(1), "w").with_dataset(Dataset::vector("p", payload))
}

/// Checksum of the block holding `payload` (payloads are immutable, so a
/// mutation is a new block).
fn sum(payload: &[u8]) -> Checksum {
    Checksum::of_block(&byte_block(payload.to_vec()))
}

/// 1 MiB and a ragged 13 bytes of xorshift noise: whole stripes, one
/// whole tail word, five tail bytes.
fn large_payload() -> Vec<u8> {
    static PAYLOAD: std::sync::LazyLock<Vec<u8>> = std::sync::LazyLock::new(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..(1 << 20) + 13)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    });
    PAYLOAD.clone()
}

#[test]
fn checksum_detects_every_bit_of_a_stripe_and_of_the_tail() {
    // Every bit position of every lane (one stripe mid-payload), then
    // every bit of the last 45 bytes: the final stripe, the tail word
    // and the tail bytes. Each flip must differ from the original *and*
    // from every other flip.
    let mut payload = large_payload();
    let n = payload.len();
    let mut seen = std::collections::HashSet::from([sum(&payload)]);
    let mid = (n / 2) & !31;
    for byte in (mid..mid + 32).chain(n - 45..n) {
        for bit in 0..8 {
            payload[byte] ^= 1 << bit;
            assert!(seen.insert(sum(&payload)), "byte {byte} bit {bit}");
            payload[byte] ^= 1 << bit;
        }
    }
}

#[test]
fn checksum_detects_length_and_field_boundary_changes() {
    let payload = large_payload();
    let whole = Checksum::of_block(&byte_block(payload.clone()));
    // One more zero byte (it lands in the zero padding of the tail word).
    let mut longer = payload.clone();
    longer.push(0);
    assert_ne!(Checksum::of_block(&byte_block(longer)), whole);
    // The same bytes as two datasets, cut at a stripe boundary, inside a
    // stripe, and inside the tail: each differs from the whole and from
    // the other cuts.
    let mut seen = std::collections::HashSet::from([whole]);
    for cut in [0, 32, 4096, 4099, payload.len() - 5, payload.len()] {
        let split = DataBlock::new(BlockId(1), "w")
            .with_dataset(Dataset::vector("p", payload[..cut].to_vec()))
            .with_dataset(Dataset::vector("q", payload[cut..].to_vec()));
        assert!(seen.insert(Checksum::of_block(&split)), "cut at {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn array_le_bytes_round_trip(a in arb_array()) {
        let mut buf = Vec::new();
        a.to_le_bytes(&mut buf);
        prop_assert_eq!(buf.len(), a.byte_len());
        let le = SharedArray::from(a.clone());
        prop_assert_eq!(le.bytes(), &buf);
        // Bit-exact comparison (NaN-safe): back to typed, re-encode and
        // compare bytes.
        prop_assert_eq!(&SharedArray::from(le.to_typed()), &le);
        prop_assert_eq!(SharedArray::new(a.dtype(), a.len(), buf.into()).unwrap(), le);
    }

    #[test]
    fn attr_value_round_trip(v in arb_attr()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        prop_assert_eq!(buf.len(), v.encoded_size());
        let parts = [Bytes::copy_from_slice(&buf)];
        let mut cur = Cursor::new(&parts);
        let w = AttrValue::decode(&mut cur).unwrap();
        prop_assert_eq!(cur.pos(), buf.len());
        let mut buf2 = Vec::new();
        w.encode(&mut buf2);
        prop_assert_eq!(buf, buf2);
    }

    #[test]
    fn hostile_attr_bytes_never_panic(
        v in arb_attr(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        // Arbitrary bytes, and a valid encoding with one byte replaced or
        // cut short at any length: `Ok` or `Err`, never a panic, and a
        // decoded value is no larger than the bytes it was read from (a
        // vector's length is checked against them before it is allocated)
        // — whether the input is one part or cut in two anywhere.
        let mut valid = Vec::new();
        v.encode(&mut valid);
        let mut mutated = valid.clone();
        mutated[at.index(valid.len())] = byte;
        for input in [&junk[..], &mutated, &valid[..at.index(valid.len())]] {
            let (head, tail) = input.split_at(at.index(input.len() + 1));
            let whole = [Bytes::copy_from_slice(input)];
            let cut = [Bytes::copy_from_slice(head), Bytes::copy_from_slice(tail)];
            let mut cur = Cursor::new(&whole);
            let decoded = AttrValue::decode(&mut cur);
            // Compared as text: a decoded NaN is not equal to itself.
            let from_cut = AttrValue::decode(&mut Cursor::new(&cut));
            prop_assert_eq!(format!("{from_cut:?}"), format!("{decoded:?}"));
            if let Ok(w) = decoded {
                prop_assert_eq!(w.encoded_size(), cur.pos());
                prop_assert!(cur.pos() <= input.len());
                if let AttrValue::IntVec(x) = &w { prop_assert!(x.capacity() * 8 <= input.len()); }
                if let AttrValue::FloatVec(x) = &w { prop_assert!(x.capacity() * 8 <= input.len()); }
            }
        }
    }

    #[test]
    fn dtype_tags_total(tag in any::<u8>()) {
        match DType::from_tag(tag) {
            Ok(d) => prop_assert_eq!(d.tag(), tag),
            Err(_) => prop_assert!(tag > 4),
        }
    }

    #[test]
    fn checksum_detects_payload_flip(
        data in prop::collection::vec(any::<u8>(), 1..128),
        flip in any::<prop::sample::Index>(),
    ) {
        let a = Checksum::of_bytes(&data);
        let mut mutated = data.clone();
        let i = flip.index(mutated.len());
        mutated[i] ^= 0x01;
        prop_assert_ne!(a, Checksum::of_bytes(&mutated));
    }

    #[test]
    fn block_checksum_stable_and_sensitive(ds in arb_dataset(), id in 0u64..1000) {
        let block = DataBlock::new(BlockId(id), "w");
        let block = {
            let mut b = block;
            b.push_dataset(ds).ok();
            b
        };
        let c1 = Checksum::of_block(&block);
        let c2 = Checksum::of_block(&block.clone());
        prop_assert_eq!(c1, c2);
        let mut renamed = block.clone();
        renamed.window = "other".into();
        prop_assert_ne!(c1, Checksum::of_block(&renamed));
    }

    #[test]
    fn large_payload_flip_and_word_swap_detected(
        flip in any::<prop::sample::Index>(),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
        same_stripe in any::<bool>(),
    ) {
        let mut p = large_payload();
        let original = sum(&p);
        let n = p.len();

        // Any one bit of the megabyte.
        let bit = flip.index(n * 8);
        p[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(sum(&p), original);
        p[bit / 8] ^= 1 << (bit % 8);

        // Any two 8-byte words trading places: two lanes of one stripe,
        // or any two stripes (same lane or not).
        let words = n / 8;
        let i = a.index(words);
        let j = if same_stripe { (i & !3) + b.index(4) } else { b.index(words) };
        let differ = p[i * 8..i * 8 + 8] != p[j * 8..j * 8 + 8];
        for k in 0..8 {
            p.swap(i * 8 + k, j * 8 + k);
        }
        prop_assert_eq!(sum(&p) != original, differ);
    }
}
