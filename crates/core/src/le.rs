//! Checked little-endian decoding (and the bulk encode loop beside it).
//!
//! Every wire message and file format in the workspace is little-endian.
//! Decoders used to pair a bounds-checked `take` with
//! `try_into().unwrap()` — correct, but an `unwrap` in library code all
//! the same, and `roclint` deny-lists those. These helpers fold the
//! length check into the conversion and surface short input as
//! [`RocError::Corrupt`], so decode paths are `unwrap`-free end to end.
//!
//! Each typed helper reads from the *front* of the slice and ignores any
//! excess, which lets callers pass either an exact [`take`] slice or a
//! wider `chunks_exact` window with a range applied.

use crate::error::{Result, RocError};

/// The next `n` bytes of `bytes` at `*pos`, advancing `*pos` past them —
/// the decode cursor over one contiguous slice ([`crate::Cursor`] is the
/// same over the parts of a rope), and between them the only places a
/// length read from untrusted bytes turns into a view. `*pos + n` is
/// overflow-checked,
/// so a hostile length is [`RocError::Corrupt`] in every build profile,
/// never a wrapped range or a debug-only panic.
pub fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize, what: &str) -> Result<&'a [u8]> {
    let end = pos.checked_add(n).filter(|&end| end <= bytes.len()).ok_or_else(|| {
        RocError::Corrupt(format!(
            "truncated {what}: need {n} bytes at offset {pos}, have {}",
            bytes.len().saturating_sub(*pos)
        ))
    })?;
    let s = &bytes[*pos..end];
    *pos = end;
    Ok(s)
}

/// The `u16`-length-prefixed UTF-8 string at `*pos` (record, attribute and
/// window names everywhere), validated in place.
pub fn str16<'a>(bytes: &'a [u8], pos: &mut usize, what: &str) -> Result<&'a str> {
    let n = u16(take(bytes, pos, 2, what)?, what)? as usize;
    std::str::from_utf8(take(bytes, pos, n, what)?)
        .map_err(|_| RocError::Corrupt(format!("{what}: name is not utf-8")))
}

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

pub fn i32(b: &[u8], what: &str) -> Result<i32> {
    Ok(i32::from_le_bytes(front(b, what)?))
}

pub fn i64(b: &[u8], what: &str) -> Result<i64> {
    Ok(i64::from_le_bytes(front(b, what)?))
}

pub fn f32(b: &[u8], what: &str) -> Result<f32> {
    Ok(f32::from_le_bytes(front(b, what)?))
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
    fn take_advances_and_refuses_short_or_overflowing_lengths() {
        let (b, mut pos) = ([1u8, 2, 3, 4, 5], 0);
        assert_eq!(super::take(&b, &mut pos, 2, "x").unwrap(), &[1, 2]);
        assert_eq!(super::take(&b, &mut pos, 3, "x").unwrap(), &[3, 4, 5]);
        assert_eq!(super::take(&b, &mut pos, 0, "x").unwrap(), &[0u8; 0]);
        for n in [1, usize::MAX - 4, usize::MAX] {
            let e = super::take(&b, &mut pos, n, "record").unwrap_err();
            assert!(e.to_string().contains("truncated record"), "{e}");
            assert_eq!(pos, 5, "a refused take must not move the cursor");
        }
        assert!(super::take(&b, &mut 9, 0, "x").is_err(), "cursor beyond the input");
        let named = [2, 0, b'o', b'k', 3, 0, b'n', 0xff, b'o', 9, 0];
        let mut pos = 0;
        assert_eq!(super::str16(&named, &mut pos, "x").unwrap(), "ok");
        assert!(super::str16(&named, &mut pos, "x").is_err(), "not utf-8");
        assert!(super::str16(&named, &mut 9, "x").is_err(), "longer than the input");
    }

    #[test]
    fn short_input_is_corrupt() {
        let e = super::f64(&[1, 2, 3], "density").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("density") && msg.contains("need 8"), "{msg}");
    }
}
