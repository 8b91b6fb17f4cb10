//! The fixed-width little-endian element codecs (and the bulk encode loop
//! beside them).
//!
//! Every wire message and file format in the workspace is little-endian.
//! Walking one — lengths, names, counts read from untrusted bytes — is
//! [`crate::Cursor`]'s job, over a rope's parts or one borrowed slice. What
//! is left here converts bytes already in hand: each typed helper folds the
//! length check into the conversion and surfaces short input as
//! [`RocError::Corrupt`] (no `try_into().unwrap()` in library code), reads
//! from the *front* of the slice and ignores any excess, so callers may pass
//! a wider `chunks_exact` window with a range applied.

use crate::error::{Result, RocError};

fn front<const N: usize>(b: &[u8], what: &str) -> Result<[u8; N]> {
    b.get(..N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            RocError::Corrupt(format!(
                "truncated {what}: need {N} bytes, have {}",
                b.len()
            ))
        })
}

pub fn u16(b: &[u8], what: &str) -> Result<u16> {
    Ok(u16::from_le_bytes(front(b, what)?))
}

pub fn u32(b: &[u8], what: &str) -> Result<u32> {
    Ok(u32::from_le_bytes(front(b, what)?))
}

pub fn u64(b: &[u8], what: &str) -> Result<u64> {
    Ok(u64::from_le_bytes(front(b, what)?))
}

pub fn f64(b: &[u8], what: &str) -> Result<f64> {
    Ok(f64::from_le_bytes(front(b, what)?))
}

/// Decode a run of `N`-byte little-endian elements from a slice whose
/// length the caller has already validated as a multiple of `N` (a tail
/// short of one element is ignored).
///
/// Unlike the checked per-element helpers above — whose `Result` plumbing
/// keeps the compiler from vectorizing bulk decode loops — this is a
/// straight fixed-stride copy loop: `decode` is one of the
/// `{i32,i64,f32,f64}::from_le_bytes` intrinsics, so the whole thing
/// compiles down to a (byte-swapping on big-endian) memcpy. Restart moves
/// hundreds of megabytes through array decode, which is why it matters.
pub fn array<const N: usize, T>(bytes: &[u8], decode: impl Fn([u8; N]) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(bytes.len() / N);
    out.extend(bytes.chunks_exact(N).map(|c| {
        let mut e = [0u8; N];
        e.copy_from_slice(c);
        decode(e)
    }));
    out
}

/// Append a run of elements as `N`-byte little-endian values: the encode
/// twin of [`array()`], with `encode` one of the
/// `{i32,i64,f32,f64}::to_le_bytes` intrinsics. Borrowing a slice (not an
/// `ArrayData`) lets a producer encode straight from its own storage.
pub fn extend<const N: usize, T: Copy>(out: &mut Vec<u8>, elems: &[T], encode: impl Fn(T) -> [u8; N]) {
    // Zero-extend, then overwrite fixed-size chunks: unlike an
    // `extend_from_slice` per element (a capacity check every `N` bytes,
    // a quarter of `memcpy` speed) this loop compiles to a straight copy.
    let at = out.len();
    out.resize(at + elems.len() * N, 0);
    for (chunk, &x) in out[at..].chunks_exact_mut(N).zip(elems) {
        chunk.copy_from_slice(&encode(x));
    }
}

/// Bytes per run [`chunks`] hands over: a whole number of 4- and 8-byte
/// elements, of `[f64; 3]` points and of the checksum's 32-byte stripes,
/// and small enough to stay in first-level cache between the encode and
/// whoever reads it.
pub const CHUNK: usize = 4032;

/// The encoding [`extend`] appends, handed to `sink` a run of at most
/// [`CHUNK`] bytes at a time through one stack buffer — for a reader that
/// consumes the bytes as they come (a checksum) and has no use for the
/// whole image.
pub fn chunks<const N: usize, T: Copy>(
    elems: &[T],
    encode: impl Fn(T) -> [u8; N],
    mut sink: impl FnMut(&[u8]),
) {
    let mut buf = [0u8; CHUNK];
    for run in elems.chunks(CHUNK / N) {
        let bytes = &mut buf[..run.len() * N];
        for (chunk, &x) in bytes.chunks_exact_mut(N).zip(run) {
            chunk.copy_from_slice(&encode(x));
        }
        sink(bytes);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn chunks_hand_over_what_extend_appends() {
        for n in [0, 1, super::CHUNK / 4 - 1, super::CHUNK / 4, super::CHUNK / 4 + 1, 2500] {
            let elems: Vec<i32> = (0..n as i32).map(|i| i * 7 - 3).collect();
            let (mut whole, mut pieces, mut runs) = (Vec::new(), Vec::new(), 0);
            super::extend(&mut whole, &elems, i32::to_le_bytes);
            super::chunks(&elems, i32::to_le_bytes, |run| {
                assert!(!run.is_empty() && run.len() <= super::CHUNK);
                pieces.extend_from_slice(run);
                runs += 1;
            });
            assert_eq!(pieces, whole, "{n} elements");
            assert_eq!(runs, (n * 4).div_ceil(super::CHUNK), "{n} elements");
        }
    }

    #[test]
    fn decodes_from_front_and_ignores_excess() {
        let b = [0x2a, 0, 0, 0, 0, 0, 0, 0, 0xff];
        assert_eq!(super::u64(&b, "x").unwrap(), 42);
        assert_eq!(super::u16(&b, "x").unwrap(), 42);
    }

    #[test]
    fn array_decodes_all_elements_and_ignores_short_tail() {
        let mut b = Vec::new();
        for v in [1.5f64, -2.25, 1e300] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.push(0xff); // short tail: not a full element, ignored
        assert_eq!(super::array(&b, f64::from_le_bytes), vec![1.5, -2.25, 1e300]);
        assert_eq!(super::array(&[], i32::from_le_bytes), Vec::<i32>::new());
    }

    #[test]
    fn extend_appends_what_array_decodes() {
        let mut b = vec![0xaa];
        super::extend(&mut b, &[1i32, -2, i32::MAX], i32::to_le_bytes);
        assert_eq!(b, [0xaa, 1, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(super::array(&b[1..], i32::from_le_bytes), vec![1, -2, i32::MAX]);
    }

    #[test]
    fn short_input_is_corrupt() {
        let e = super::f64(&[1, 2, 3], "density").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("density") && msg.contains("need 8"), "{msg}");
    }
}
