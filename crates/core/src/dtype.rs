//! Element datatypes and typed array payloads.
//!
//! All on-disk and on-wire encodings are explicit little-endian so files are
//! binary-portable, mirroring HDF's portability guarantee that made CSAR
//! choose it (§3.2 of the paper).

use bytes::Bytes;

use crate::error::{Result, RocError};

/// Element datatype of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DType {
    U8,
    I32,
    I64,
    F32,
    F64,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            DType::U8 => 1,
            DType::I32 | DType::F32 => 4,
            DType::I64 | DType::F64 => 8,
        }
    }

    /// Stable one-byte tag used by the file format and wire protocol.
    pub fn tag(self) -> u8 {
        match self {
            DType::U8 => 0,
            DType::I32 => 1,
            DType::I64 => 2,
            DType::F32 => 3,
            DType::F64 => 4,
        }
    }

    /// Inverse of [`DType::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => DType::U8,
            1 => DType::I32,
            2 => DType::I64,
            3 => DType::F32,
            4 => DType::F64,
            other => return Err(RocError::Corrupt(format!("unknown dtype tag {other}"))),
        })
    }

    /// Human-readable name, as error messages show it.
    pub fn name(self) -> &'static str {
        match self {
            DType::U8 => "u8",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::F32 => "f32",
            DType::F64 => "f64",
        }
    }
}

/// An already-encoded little-endian payload shared by reference count.
///
/// This is the zero-copy half of [`ArrayData`]: the bytes live in a
/// [`Bytes`] handle (typically a slice of a wire message or a file read),
/// so cloning a dataset that carries one — or re-labeling it on the server
/// write path — bumps a refcount instead of copying the payload.
#[derive(Debug, Clone)]
pub struct SharedArray {
    dtype: DType,
    n_elems: usize,
    bytes: Bytes,
}

impl SharedArray {
    /// Wrap `bytes` as `n_elems` elements of `dtype`.
    ///
    /// `bytes` must already be the canonical little-endian encoding
    /// ([`ArrayData::to_le_bytes`] layout) and exactly
    /// `n_elems * dtype.size()` long.
    pub fn new(dtype: DType, n_elems: usize, bytes: Bytes) -> Result<Self> {
        let want = n_elems * dtype.size();
        if bytes.len() != want {
            return Err(RocError::Corrupt(format!(
                "shared array payload length {} != expected {} ({} x {})",
                bytes.len(),
                want,
                n_elems,
                dtype.name()
            )));
        }
        Ok(SharedArray {
            dtype,
            n_elems,
            bytes,
        })
    }

    pub fn dtype(&self) -> DType {
        self.dtype
    }

    pub fn len(&self) -> usize {
        self.n_elems
    }

    pub fn is_empty(&self) -> bool {
        self.n_elems == 0
    }

    /// The shared little-endian payload.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }
}

/// A typed array payload.
///
/// Physics modules work with the typed variants directly; the I/O layers use
/// [`ArrayData::to_le_bytes`] / [`ArrayData::from_le_bytes`] at the
/// format/wire boundary. The [`ArrayData::Shared`] variant carries an
/// already-encoded payload by refcounted handle — the representation the
/// zero-copy write path moves from wire to disk without re-packing.
#[derive(Debug, Clone)]
pub enum ArrayData {
    U8(Vec<u8>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    Shared(SharedArray),
}

impl ArrayData {
    /// Datatype of the payload.
    pub fn dtype(&self) -> DType {
        match self {
            ArrayData::U8(_) => DType::U8,
            ArrayData::I32(_) => DType::I32,
            ArrayData::I64(_) => DType::I64,
            ArrayData::F32(_) => DType::F32,
            ArrayData::F64(_) => DType::F64,
            ArrayData::Shared(s) => s.dtype(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::U8(v) => v.len(),
            ArrayData::I32(v) => v.len(),
            ArrayData::I64(v) => v.len(),
            ArrayData::F32(v) => v.len(),
            ArrayData::F64(v) => v.len(),
            ArrayData::Shared(s) => s.len(),
        }
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes once encoded.
    pub fn byte_len(&self) -> usize {
        self.len() * self.dtype().size()
    }

    /// Allocate a zero-filled array of `n` elements of `dtype`.
    pub fn zeros(dtype: DType, n: usize) -> Self {
        match dtype {
            DType::U8 => ArrayData::U8(vec![0; n]),
            DType::I32 => ArrayData::I32(vec![0; n]),
            DType::I64 => ArrayData::I64(vec![0; n]),
            DType::F32 => ArrayData::F32(vec![0.0; n]),
            DType::F64 => ArrayData::F64(vec![0.0; n]),
        }
    }

    /// Encode as little-endian bytes, appending to `out`.
    pub fn to_le_bytes(&self, out: &mut Vec<u8>) {
        match self {
            ArrayData::U8(v) => out.extend_from_slice(v),
            ArrayData::I32(v) => crate::le::extend(out, v, i32::to_le_bytes),
            ArrayData::I64(v) => crate::le::extend(out, v, i64::to_le_bytes),
            ArrayData::F32(v) => crate::le::extend(out, v, f32::to_le_bytes),
            ArrayData::F64(v) => crate::le::extend(out, v, f64::to_le_bytes),
            ArrayData::Shared(s) => out.extend_from_slice(s.bytes()),
        }
    }

    /// Call `f` with the canonical little-endian payload bytes.
    ///
    /// `U8` and `Shared` payloads are borrowed without copying; the other
    /// typed variants are encoded into a scratch buffer first. This is the
    /// checksum/inspection entry point that avoids the encode-to-`Vec`
    /// round trip for data already in wire form.
    pub fn with_le_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            ArrayData::U8(v) => f(v),
            ArrayData::Shared(s) => f(s.bytes()),
            other => {
                let mut scratch = Vec::with_capacity(other.byte_len());
                other.to_le_bytes(&mut scratch);
                f(&scratch)
            }
        }
    }

    /// Wrap an already-encoded little-endian payload without copying.
    ///
    /// The returned array holds a refcounted view of `bytes`; the storage
    /// stays alive as long as any handle does.
    pub fn from_le_shared(dtype: DType, n_elems: usize, bytes: Bytes) -> Result<Self> {
        Ok(ArrayData::Shared(SharedArray::new(dtype, n_elems, bytes)?))
    }

    /// The shared payload handle, when this array is the zero-copy variant.
    pub fn as_shared(&self) -> Option<&SharedArray> {
        match self {
            ArrayData::Shared(s) => Some(s),
            _ => None,
        }
    }

    /// Convert to the typed representation, decoding a `Shared` payload.
    ///
    /// Typed variants are returned as-is (deep copy); use this before
    /// element-wise access on data decoded through the zero-copy path.
    pub fn to_typed(&self) -> Result<ArrayData> {
        match self {
            ArrayData::Shared(s) => ArrayData::from_le_bytes(s.dtype(), s.len(), s.bytes()),
            other => Ok(other.clone()),
        }
    }

    /// Decode `n_elems` elements of `dtype` from little-endian `bytes`.
    ///
    /// `bytes` must be exactly `n_elems * dtype.size()` long.
    pub fn from_le_bytes(dtype: DType, n_elems: usize, bytes: &[u8]) -> Result<Self> {
        let want = n_elems * dtype.size();
        if bytes.len() != want {
            return Err(RocError::Corrupt(format!(
                "array payload length {} != expected {} ({} x {})",
                bytes.len(),
                want,
                n_elems,
                dtype.name()
            )));
        }
        // Length is validated above, so per-element decoding is infallible;
        // `le::array` keeps these loops vectorizable (see its docs).
        Ok(match dtype {
            DType::U8 => ArrayData::U8(bytes.to_vec()),
            DType::I32 => ArrayData::I32(crate::le::array(bytes, i32::from_le_bytes)),
            DType::I64 => ArrayData::I64(crate::le::array(bytes, i64::from_le_bytes)),
            DType::F32 => ArrayData::F32(crate::le::array(bytes, f32::from_le_bytes)),
            DType::F64 => ArrayData::F64(crate::le::array(bytes, f64::from_le_bytes)),
        })
    }

    /// Borrow as `&[f64]`, or a mismatch error for any other dtype.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            ArrayData::F64(v) => Ok(v),
            other => Err(other.typed_access_error("f64")),
        }
    }

    /// Borrow as `&mut [f64]`, or a mismatch error for any other dtype.
    pub fn as_f64_mut(&mut self) -> Result<&mut [f64]> {
        match self {
            ArrayData::F64(v) => Ok(v),
            other => Err(other.typed_access_error("f64")),
        }
    }

    /// Borrow as `&[i32]`, or a mismatch error for any other dtype.
    pub fn as_i32(&self) -> Result<&[i32]> {
        match self {
            ArrayData::I32(v) => Ok(v),
            other => Err(other.typed_access_error("i32")),
        }
    }

    /// Borrow as `&mut [i32]`, or a mismatch error for any other dtype.
    pub fn as_i32_mut(&mut self) -> Result<&mut [i32]> {
        match self {
            ArrayData::I32(v) => Ok(v),
            other => Err(other.typed_access_error("i32")),
        }
    }

    fn typed_access_error(&self, want: &str) -> RocError {
        match self {
            ArrayData::Shared(s) => RocError::Mismatch(format!(
                "expected {want} array, found shared {} payload (convert with to_typed())",
                s.dtype().name()
            )),
            other => RocError::Mismatch(format!(
                "expected {want} array, found {}",
                other.dtype().name()
            )),
        }
    }
}

/// Logical equality: two arrays are equal when they hold the same dtype,
/// element count and canonical little-endian bytes — a `Shared` payload
/// compares equal to the typed array it encodes.
impl PartialEq for ArrayData {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ArrayData::U8(a), ArrayData::U8(b)) => a == b,
            (ArrayData::I32(a), ArrayData::I32(b)) => a == b,
            (ArrayData::I64(a), ArrayData::I64(b)) => a == b,
            (ArrayData::F32(a), ArrayData::F32(b)) => a == b,
            (ArrayData::F64(a), ArrayData::F64(b)) => a == b,
            (a, b) => {
                a.dtype() == b.dtype()
                    && a.len() == b.len()
                    && a.with_le_bytes(|ab| b.with_le_bytes(|bb| ab == bb))
            }
        }
    }
}

impl From<Vec<f64>> for ArrayData {
    fn from(v: Vec<f64>) -> Self {
        ArrayData::F64(v)
    }
}

impl From<Vec<f32>> for ArrayData {
    fn from(v: Vec<f32>) -> Self {
        ArrayData::F32(v)
    }
}

impl From<Vec<i32>> for ArrayData {
    fn from(v: Vec<i32>) -> Self {
        ArrayData::I32(v)
    }
}

impl From<Vec<i64>> for ArrayData {
    fn from(v: Vec<i64>) -> Self {
        ArrayData::I64(v)
    }
}

impl From<Vec<u8>> for ArrayData {
    fn from(v: Vec<u8>) -> Self {
        ArrayData::U8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes_and_tags_round_trip() {
        for d in [DType::U8, DType::I32, DType::I64, DType::F32, DType::F64] {
            assert_eq!(DType::from_tag(d.tag()).unwrap(), d);
            assert!(d.size() >= 1 && d.size() <= 8);
        }
        assert!(DType::from_tag(99).is_err());
    }

    #[test]
    fn encode_decode_round_trip_f64() {
        let a = ArrayData::F64(vec![1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE]);
        let mut buf = Vec::new();
        a.to_le_bytes(&mut buf);
        assert_eq!(buf.len(), a.byte_len());
        let b = ArrayData::from_le_bytes(DType::F64, a.len(), &buf).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn encode_decode_round_trip_all_types() {
        let cases: Vec<ArrayData> = vec![
            ArrayData::U8(vec![0, 1, 255, 128]),
            ArrayData::I32(vec![i32::MIN, -1, 0, 1, i32::MAX]),
            ArrayData::I64(vec![i64::MIN, 0, i64::MAX]),
            ArrayData::F32(vec![1.0, -0.5, f32::INFINITY]),
            ArrayData::F64(vec![]),
        ];
        for a in cases {
            let mut buf = Vec::new();
            a.to_le_bytes(&mut buf);
            let b = ArrayData::from_le_bytes(a.dtype(), a.len(), &buf).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let err = ArrayData::from_le_bytes(DType::F64, 2, &[0u8; 15]);
        assert!(matches!(err, Err(RocError::Corrupt(_))));
    }

    #[test]
    fn zeros_has_right_shape() {
        let z = ArrayData::zeros(DType::I32, 10);
        assert_eq!(z.len(), 10);
        assert_eq!(z.dtype(), DType::I32);
        assert_eq!(z.as_i32().unwrap(), &[0; 10]);
        assert!(!z.is_empty());
        assert!(ArrayData::zeros(DType::U8, 0).is_empty());
    }

    #[test]
    fn typed_accessors_enforce_dtype() {
        let a = ArrayData::F64(vec![1.0]);
        assert!(a.as_f64().is_ok());
        assert!(a.as_i32().is_err());
        let mut b = ArrayData::I32(vec![3]);
        b.as_i32_mut().unwrap()[0] = 4;
        assert_eq!(b.as_i32().unwrap(), &[4]);
        assert!(b.as_f64().is_err());
    }

    #[test]
    fn little_endian_layout_is_stable() {
        let a = ArrayData::I32(vec![1]);
        let mut buf = Vec::new();
        a.to_le_bytes(&mut buf);
        assert_eq!(buf, vec![1, 0, 0, 0]);
    }

    #[test]
    fn shared_round_trips_and_compares_equal_to_typed() {
        let typed = ArrayData::F64(vec![1.5, -2.25, 3.0]);
        let mut le = Vec::new();
        typed.to_le_bytes(&mut le);
        let shared =
            ArrayData::from_le_shared(DType::F64, 3, bytes::Bytes::from(le.clone())).unwrap();
        assert_eq!(shared.dtype(), DType::F64);
        assert_eq!(shared.len(), 3);
        assert_eq!(shared.byte_len(), 24);
        assert_eq!(shared, typed, "shared must equal the typed array it encodes");
        assert_eq!(typed, shared);
        // Encoding the shared variant reproduces the exact bytes.
        let mut out = Vec::new();
        shared.to_le_bytes(&mut out);
        assert_eq!(out, le);
        // Typed conversion decodes back to the original.
        let back = shared.to_typed().unwrap();
        assert_eq!(back.as_f64().unwrap(), &[1.5, -2.25, 3.0]);
    }

    #[test]
    fn shared_rejects_wrong_length_and_typed_access() {
        assert!(ArrayData::from_le_shared(DType::I64, 2, bytes::Bytes::from(vec![0u8; 15]))
            .is_err());
        let shared =
            ArrayData::from_le_shared(DType::F64, 1, bytes::Bytes::from(vec![0u8; 8])).unwrap();
        let err = shared.as_f64().unwrap_err();
        assert!(err.to_string().contains("to_typed"), "got: {err}");
        assert!(shared.as_shared().is_some());
        assert!(ArrayData::F64(vec![]).as_shared().is_none());
    }

    #[test]
    fn with_le_bytes_borrows_without_reencoding_shared() {
        let shared =
            ArrayData::from_le_shared(DType::U8, 4, bytes::Bytes::from(vec![9u8; 4])).unwrap();
        shared.with_le_bytes(|b| assert_eq!(b, &[9u8; 4]));
        ArrayData::I32(vec![1]).with_le_bytes(|b| assert_eq!(b, &[1, 0, 0, 0]));
    }

    #[test]
    fn unequal_shared_payloads_detected() {
        let a = ArrayData::from_le_shared(DType::U8, 2, bytes::Bytes::from(vec![1, 2])).unwrap();
        let b = ArrayData::from_le_shared(DType::U8, 2, bytes::Bytes::from(vec![1, 3])).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, ArrayData::U8(vec![1, 3]));
        assert_ne!(a, ArrayData::I32(vec![1]));
        assert_eq!(a, ArrayData::U8(vec![1, 2]));
    }
}
