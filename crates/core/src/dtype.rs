//! Element datatypes, the typed arrays of panes and the little-endian
//! payloads of datasets.
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

/// A little-endian array payload shared by reference count — the one
/// form array data takes on the I/O side of Roccom's line (§5).
///
/// The bytes live in a [`Bytes`] handle (a pane block's encode buffer, a
/// slice of a wire message or of a file read), so cloning a dataset — or
/// re-labeling it on the server write path — bumps a refcount instead of
/// copying the payload, and checksums, record encoders and the store's
/// extent list all work on the bytes where they lie. It meets the typed
/// [`ArrayData`] of panes and solvers in exactly two conversions:
/// `From<ArrayData>` (typed → LE, once) and [`SharedArray::to_typed`]
/// (LE → typed, once). Equality is bit-exact on the encoded bytes.
#[derive(Debug, Clone, PartialEq)]
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
        if n_elems.checked_mul(dtype.size()) != Some(bytes.len()) {
            return Err(RocError::Corrupt(format!(
                "array payload length {} != {} x {}",
                bytes.len(),
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

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n_elems
    }

    pub fn is_empty(&self) -> bool {
        self.n_elems == 0
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The shared little-endian payload.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Decode into the typed form panes and solvers work on
    /// ([`ArrayData::from_le`] of the payload).
    pub fn to_typed(&self) -> ArrayData {
        ArrayData::from_le(self.dtype, &self.bytes)
    }
}

/// The one typed → LE conversion: a `u8` vector is adopted as it is, every
/// other dtype is encoded once into an exact-size buffer.
impl From<ArrayData> for SharedArray {
    fn from(a: ArrayData) -> Self {
        let (dtype, n_elems) = (a.dtype(), a.len());
        let le = match a {
            ArrayData::U8(v) => v,
            other => {
                let mut le = Vec::with_capacity(other.byte_len());
                other.to_le_bytes(&mut le);
                le
            }
        };
        SharedArray {
            dtype,
            n_elems,
            bytes: le.into(),
        }
    }
}

impl<T> From<Vec<T>> for SharedArray
where
    ArrayData: From<Vec<T>>,
{
    fn from(v: Vec<T>) -> Self {
        ArrayData::from(v).into()
    }
}

/// A typed array: what a pane holds and a solver mutates element-wise.
///
/// Typed arrays exist only on the physics side; the I/O layers see the
/// same data as a [`SharedArray`] (see there for the two conversions).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    U8(Vec<u8>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
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

    /// Decode little-endian `bytes` into `dtype` elements — the one LE →
    /// typed conversion (`apply_block`, `mesh_from_block`, Rocketeer), one
    /// allocation, the typed buffer. A tail short of one element is
    /// ignored; callers hold `bytes` to a whole number of elements.
    pub fn from_le(dtype: DType, bytes: &[u8]) -> ArrayData {
        // `le::array` keeps these loops vectorizable.
        match dtype {
            DType::U8 => ArrayData::U8(bytes.to_vec()),
            DType::I32 => ArrayData::I32(crate::le::array(bytes, i32::from_le_bytes)),
            DType::I64 => ArrayData::I64(crate::le::array(bytes, i64::from_le_bytes)),
            DType::F32 => ArrayData::F32(crate::le::array(bytes, f32::from_le_bytes)),
            DType::F64 => ArrayData::F64(crate::le::array(bytes, f64::from_le_bytes)),
        }
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
        }
    }

    /// The bytes [`ArrayData::to_le_bytes`] appends, handed to `sink` in
    /// runs ([`crate::le::chunks`]; a `u8` array is one run, where it lies).
    pub fn le_chunks(&self, mut sink: impl FnMut(&[u8])) {
        match self {
            ArrayData::U8(v) => sink(v),
            ArrayData::I32(v) => crate::le::chunks(v, i32::to_le_bytes, sink),
            ArrayData::I64(v) => crate::le::chunks(v, i64::to_le_bytes, sink),
            ArrayData::F32(v) => crate::le::chunks(v, f32::to_le_bytes, sink),
            ArrayData::F64(v) => crate::le::chunks(v, f64::to_le_bytes, sink),
        }
    }

    /// Borrow as `&[f64]`, or a mismatch error for any other dtype.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            ArrayData::F64(v) => Ok(v),
            other => Err(other.not_f64()),
        }
    }

    /// Borrow as `&mut [f64]`, or a mismatch error for any other dtype.
    pub fn as_f64_mut(&mut self) -> Result<&mut [f64]> {
        match self {
            ArrayData::F64(v) => Ok(v),
            other => Err(other.not_f64()),
        }
    }

    fn not_f64(&self) -> RocError {
        RocError::Mismatch(format!("expected f64 array, found {}", self.dtype().name()))
    }
}

macro_rules! array_from_vec {
    ($($elem:ty => $variant:ident),*) => {$(
        impl From<Vec<$elem>> for ArrayData {
            fn from(v: Vec<$elem>) -> Self {
                ArrayData::$variant(v)
            }
        }
    )*};
}
array_from_vec!(u8 => U8, i32 => I32, i64 => I64, f32 => F32, f64 => F64);

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
    fn the_two_conversions_round_trip_all_types() {
        let cases: Vec<ArrayData> = vec![
            ArrayData::U8(vec![0, 1, 255, 128]),
            ArrayData::I32(vec![i32::MIN, -1, 0, 1, i32::MAX]),
            ArrayData::I64(vec![i64::MIN, 0, i64::MAX]),
            ArrayData::F32(vec![1.0, -0.5, f32::INFINITY]),
            ArrayData::F64(vec![1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE]),
            ArrayData::F64(vec![]),
        ];
        for a in cases {
            let le = SharedArray::from(a.clone());
            assert_eq!((le.dtype(), le.len(), le.byte_len()), (a.dtype(), a.len(), a.byte_len()));
            assert_eq!(le.is_empty(), a.is_empty());
            let mut buf = Vec::new();
            a.to_le_bytes(&mut buf);
            assert_eq!(le.bytes(), &buf);
            assert_eq!(le.to_typed(), a);
        }
    }

    #[test]
    fn wrapping_rejects_wrong_length() {
        let err = SharedArray::new(DType::F64, 2, Bytes::from(vec![0u8; 15]));
        assert!(matches!(err, Err(RocError::Corrupt(_))));
        assert!(SharedArray::new(DType::I64, usize::MAX, Bytes::new()).is_err());
        assert!(SharedArray::new(DType::I32, 2, Bytes::from(vec![0u8; 8])).is_ok());
    }

    #[test]
    fn zeros_has_right_shape() {
        let z = ArrayData::zeros(DType::I32, 10);
        assert_eq!(z, ArrayData::I32(vec![0; 10]));
        assert!(!z.is_empty());
        assert!(ArrayData::zeros(DType::U8, 0).is_empty());
    }

    #[test]
    fn typed_accessors_enforce_dtype() {
        let mut a = ArrayData::F64(vec![1.0]);
        a.as_f64_mut().unwrap()[0] = 4.0;
        assert_eq!(a.as_f64().unwrap(), &[4.0]);
        let mut b = ArrayData::I32(vec![3]);
        assert!(b.as_f64().is_err() && b.as_f64_mut().is_err());
    }

    #[test]
    fn little_endian_layout_is_stable() {
        assert_eq!(SharedArray::from(vec![1i32, -2]).bytes(), &[1u8, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff][..]);
    }
}
