//! Typed metadata attribute values.
//!
//! The paper's users "prefer to integrate metadata with array data in
//! scientific data formats" (§3.2). [`AttrValue`] is the metadata half:
//! small typed values attached to datasets, data blocks and files.

use std::borrow::Cow;

use crate::error::{Result, RocError};
use crate::le;
use crate::rope::Cursor;

/// A typed metadata value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    Float(f64),
    Str(String),
    IntVec(Vec<i64>),
    FloatVec(Vec<f64>),
}

impl AttrValue {
    /// Stable one-byte tag for the file format and wire protocol.
    pub fn tag(&self) -> u8 {
        Attr::from(self).tag()
    }

    /// Encode as little-endian bytes appended to `out` ([`Attr::encode`]).
    pub fn encode(&self, out: &mut Vec<u8>) {
        Attr::from(self).encode(out);
    }

    /// Decode the value at the cursor, advancing it.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        Ok(AttrView::read(cur)?.to_value())
    }

    /// Encoded size in bytes (used by the format cost models).
    pub fn encoded_size(&self) -> usize {
        Attr::from(self).encoded_size()
    }

    /// The value as an `i64`, or a mismatch error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            AttrValue::Int(x) => Ok(*x),
            other => Err(RocError::Mismatch(format!("expected Int attr, got {other:?}"))),
        }
    }

    /// The value as an `f64`, or a mismatch error.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            AttrValue::Float(x) => Ok(*x),
            other => Err(RocError::Mismatch(format!(
                "expected Float attr, got {other:?}"
            ))),
        }
    }

    /// The value as a `&str`, or a mismatch error.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            AttrValue::Str(s) => Ok(s),
            other => Err(RocError::Mismatch(format!("expected Str attr, got {other:?}"))),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(x: i64) -> Self {
        AttrValue::Int(x)
    }
}

impl From<f64> for AttrValue {
    fn from(x: f64) -> Self {
        AttrValue::Float(x)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

/// An attribute value where its owner holds it: what [`AttrValue`] encodes,
/// with nothing built — how a block that is described instead of built
/// ([`crate::desc`]) hands over its attributes, and the one place the
/// value layout is written.
///
/// A vector comes typed (a pane's geometry, a built map's value) or as the
/// little-endian bytes it lies as in an encoded header (a record read
/// where it lies, `rocsdf::view`): eight bytes per element, no count. The
/// two forms of one vector encode, size, hash and build alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attr<'a> {
    Int(i64),
    Float(f64),
    Str(&'a str),
    IntVec(&'a [i64]),
    FloatVec(&'a [f64]),
    /// An `IntVec`'s elements, encoded.
    IntVecLe(&'a [u8]),
    /// A `FloatVec`'s elements, encoded.
    FloatVecLe(&'a [u8]),
}

impl<'a> From<&'a AttrValue> for Attr<'a> {
    fn from(v: &'a AttrValue) -> Self {
        match v {
            AttrValue::Int(x) => Attr::Int(*x),
            AttrValue::Float(x) => Attr::Float(*x),
            AttrValue::Str(s) => Attr::Str(s),
            AttrValue::IntVec(v) => Attr::IntVec(v),
            AttrValue::FloatVec(v) => Attr::FloatVec(v),
        }
    }
}

impl<'a> Attr<'a> {
    /// Stable one-byte tag for the file format and wire protocol.
    pub fn tag(&self) -> u8 {
        match self {
            Attr::Int(_) => 0,
            Attr::Float(_) => 1,
            Attr::Str(_) => 2,
            Attr::IntVec(_) | Attr::IntVecLe(_) => 3,
            Attr::FloatVec(_) | Attr::FloatVecLe(_) => 4,
        }
    }

    /// The value if it is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match *self {
            Attr::Int(x) => Some(x),
            _ => None,
        }
    }

    /// The value if it is a `Str`.
    pub fn as_str(&self) -> Option<&'a str> {
        match *self {
            Attr::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if the value is an `IntVec` of exactly `N`, in either
    /// form.
    pub fn int_array<const N: usize>(&self) -> Option<[i64; N]> {
        match *self {
            Attr::IntVec(v) => v.try_into().ok(),
            Attr::IntVecLe(le) => le_array(le, i64::from_le_bytes),
            _ => None,
        }
    }

    /// The elements if the value is a `FloatVec` of exactly `N`, in either
    /// form.
    pub fn float_array<const N: usize>(&self) -> Option<[f64; N]> {
        match *self {
            Attr::FloatVec(v) => v.try_into().ok(),
            Attr::FloatVecLe(le) => le_array(le, f64::from_le_bytes),
            _ => None,
        }
    }

    /// The little-endian encoding, handed to `put` a field at a time.
    ///
    /// Layout: `tag:u8`, then for scalars the raw value; for vectors/strings
    /// a `u32` length followed by the payload.
    pub fn write(&self, mut put: impl FnMut(&[u8])) {
        put(&[self.tag()]);
        let count = |n: usize| (n as u32).to_le_bytes();
        match *self {
            Attr::Int(x) => put(&x.to_le_bytes()),
            Attr::Float(x) => put(&x.to_le_bytes()),
            Attr::Str(s) => {
                put(&count(s.len()));
                put(s.as_bytes());
            }
            Attr::IntVec(v) => {
                put(&count(v.len()));
                v.iter().for_each(|x| put(&x.to_le_bytes()));
            }
            Attr::FloatVec(v) => {
                put(&count(v.len()));
                v.iter().for_each(|x| put(&x.to_le_bytes()));
            }
            Attr::IntVecLe(le) | Attr::FloatVecLe(le) => {
                put(&count(le.len() / 8));
                put(le);
            }
        }
    }

    /// Append the encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.write(|field| out.extend_from_slice(field));
    }

    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        1 + match self {
            Attr::Int(_) | Attr::Float(_) => 8,
            Attr::Str(s) => 4 + s.len(),
            Attr::IntVec(v) => 4 + v.len() * 8,
            Attr::FloatVec(v) => 4 + v.len() * 8,
            Attr::IntVecLe(le) | Attr::FloatVecLe(le) => 4 + le.len(),
        }
    }

    /// Build the value.
    pub fn to_value(&self) -> AttrValue {
        match *self {
            Attr::Int(x) => AttrValue::Int(x),
            Attr::Float(x) => AttrValue::Float(x),
            Attr::Str(s) => AttrValue::Str(s.to_owned()),
            Attr::IntVec(v) => AttrValue::IntVec(v.to_vec()),
            Attr::FloatVec(v) => AttrValue::FloatVec(v.to_vec()),
            Attr::IntVecLe(le) => AttrValue::IntVec(le::array(le, i64::from_le_bytes)),
            Attr::FloatVecLe(le) => AttrValue::FloatVec(le::array(le, f64::from_le_bytes)),
        }
    }
}

/// `N` elements decoded from exactly `8 * N` little-endian bytes.
fn le_array<const N: usize, T: Copy + Default>(
    le: &[u8],
    decode: fn([u8; 8]) -> T,
) -> Option<[T; N]> {
    if le.len() != 8 * N {
        return None;
    }
    let mut out = [T::default(); N];
    for (x, e) in out.iter_mut().zip(le.chunks_exact(8)) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(e);
        *x = decode(bytes);
    }
    Some(out)
}

/// An encoded attribute value where it lies in its input: held to every
/// check a decode makes — a known tag, a length the input can hold, UTF-8
/// in a string — with nothing built. What passes an encoded value along
/// reads this; [`AttrValue::decode`] is this, then [`AttrView::to_value`].
#[derive(Debug)]
pub struct AttrView<'a> {
    tag: u8,
    /// Everything after the tag byte: the scalar, or the `u32` count and
    /// the elements it counts.
    body: Cow<'a, [u8]>,
}

impl<'a> AttrView<'a> {
    /// Check the value at the cursor, advancing it. Borrows the part the
    /// value lies in; only a value cut across parts is gathered, after its
    /// length was checked against what remains.
    pub fn read(cur: &mut Cursor<'a>) -> Result<Self> {
        let tag = cur.u8("attr")?;
        let body_len = match tag {
            0 | 1 => Some(8),
            2..=4 => {
                let n = cur.clone().u32("attr length")? as usize;
                n.checked_mul(if tag == 2 { 1 } else { 8 }).and_then(|n| n.checked_add(4))
            }
            other => return Err(RocError::Corrupt(format!("attr: unknown tag {other}"))),
        };
        let body_len =
            body_len.ok_or_else(|| RocError::Corrupt("attr: length exceeds input".into()))?;
        let body = cur.bytes(body_len, "attr")?;
        if tag == 2 && std::str::from_utf8(&body[4..]).is_err() {
            return Err(RocError::Corrupt("attr: invalid utf-8".into()));
        }
        Ok(AttrView { tag, body })
    }

    /// The bytes [`AttrValue::encode`] writes for this value: the ones read.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag);
        out.extend_from_slice(&self.body);
    }

    /// [`AttrValue::encoded_size`] of the value this decodes to.
    pub fn encoded_size(&self) -> usize {
        1 + self.body.len()
    }

    /// The value if it is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        attr_of(self.tag, &self.body).as_int()
    }

    /// The value if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        attr_of(self.tag, &self.body).as_str()
    }

    /// Build the value.
    pub fn to_value(&self) -> AttrValue {
        attr_of(self.tag, &self.body).to_value()
    }

    /// The value as an [`Attr`] over the bytes `read` borrowed — `None` if
    /// it had to gather them, the value being cut across parts.
    pub fn into_attr(self) -> Option<Attr<'a>> {
        match self.body {
            Cow::Borrowed(body) => Some(attr_of(self.tag, body)),
            Cow::Owned(_) => None,
        }
    }
}

/// The value `tag` and `body` (everything after the tag, as
/// [`AttrView::read`] checked it) encode, over `body`.
fn attr_of(tag: u8, body: &[u8]) -> Attr<'_> {
    let scalar = || {
        let mut le = [0u8; 8];
        le.copy_from_slice(&body[..8]);
        le
    };
    match tag {
        0 => Attr::Int(i64::from_le_bytes(scalar())),
        1 => Attr::Float(f64::from_le_bytes(scalar())),
        // `read` refused anything but UTF-8.
        2 => Attr::Str(std::str::from_utf8(&body[4..]).unwrap_or_default()),
        3 => Attr::IntVecLe(&body[4..]),
        _ => Attr::FloatVecLe(&body[4..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn round_trip(v: AttrValue) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_size());
        let (n, buf) = (buf.len(), [Bytes::from(buf)]);
        let mut cur = Cursor::new(&buf);
        let w = AttrValue::decode(&mut cur).unwrap();
        assert_eq!(cur.pos(), n);
        assert_eq!(v, w);
    }

    #[test]
    fn round_trip_all_variants() {
        round_trip(AttrValue::Int(-42));
        round_trip(AttrValue::Float(3.75));
        round_trip(AttrValue::Str("time step".into()));
        round_trip(AttrValue::Str(String::new()));
        round_trip(AttrValue::IntVec(vec![1, 2, 3]));
        round_trip(AttrValue::FloatVec(vec![0.83, -1.0]));
        round_trip(AttrValue::IntVec(vec![]));
    }

    #[test]
    fn decode_sequence_of_values() {
        let mut buf = Vec::new();
        AttrValue::Int(1).encode(&mut buf);
        AttrValue::Str("x".into()).encode(&mut buf);
        let buf = [Bytes::from(buf)];
        let mut cur = Cursor::new(&buf);
        assert_eq!(AttrValue::decode(&mut cur).unwrap(), AttrValue::Int(1));
        assert_eq!(AttrValue::decode(&mut cur).unwrap(), AttrValue::Str("x".into()));
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn decode_truncated_fails() {
        let mut buf = Vec::new();
        AttrValue::Int(7).encode(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(AttrValue::decode(&mut Cursor::new(&[Bytes::from(buf)])).is_err());
        assert!(AttrValue::decode(&mut Cursor::new(&[])).is_err());
    }

    #[test]
    fn decode_unknown_tag_fails() {
        let buf = [Bytes::from(vec![200u8, 0, 0])];
        assert!(matches!(AttrValue::decode(&mut Cursor::new(&buf)), Err(RocError::Corrupt(_))));
    }

    #[test]
    fn a_vector_read_where_it_lies_is_the_vector() {
        for v in [
            AttrValue::IntVec(vec![1, -2, i64::MAX]),
            AttrValue::FloatVec(vec![0.5, f64::NAN, -0.0]),
            AttrValue::IntVec(vec![]),
        ] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let buf = [Bytes::from(buf)];
            let encoded = AttrView::read(&mut Cursor::new(&buf)).unwrap().into_attr().unwrap();
            assert!(matches!(encoded, Attr::IntVecLe(_) | Attr::FloatVecLe(_)), "{encoded:?}");
            let typed = Attr::from(&v);
            let bytes = |a: Attr<'_>| {
                let mut out = Vec::new();
                a.encode(&mut out);
                (a.tag(), a.encoded_size(), out)
            };
            assert_eq!(bytes(encoded), bytes(typed));
            let mut built = Vec::new();
            encoded.to_value().encode(&mut built);
            assert_eq!(built, bytes(typed).2, "built bit for bit, NaN included");
        }
        let three = [1.5f64, -2.0, 8.0];
        let le: Vec<u8> = three.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(Attr::FloatVecLe(&le).float_array::<3>(), Some(three));
        assert_eq!(Attr::FloatVec(&three).float_array::<3>(), Some(three));
        assert_eq!(Attr::FloatVecLe(&le).float_array::<2>(), None);
        assert_eq!(Attr::IntVecLe(&le).float_array::<3>(), None);
        // A value gathered across parts has no bytes to borrow.
        let cut = [Bytes::from(vec![3u8, 1, 0]), Bytes::from(vec![0u8, 0, 7, 0, 0, 0, 0, 0, 0, 0])];
        assert!(AttrView::read(&mut Cursor::new(&cut)).unwrap().into_attr().is_none());
    }

    #[test]
    fn typed_accessors() {
        assert_eq!(AttrValue::Int(5).as_int().unwrap(), 5);
        assert_eq!(AttrValue::Float(2.5).as_float().unwrap(), 2.5);
        assert_eq!(AttrValue::Str("a".into()).as_str().unwrap(), "a");
        assert!(AttrValue::Int(5).as_str().is_err());
        assert!(AttrValue::Str("a".into()).as_int().is_err());
        assert!(AttrValue::Int(1).as_float().is_err());
    }

    #[test]
    fn from_conversions() {
        assert_eq!(AttrValue::from(3i64), AttrValue::Int(3));
        assert_eq!(AttrValue::from(1.5f64), AttrValue::Float(1.5));
        assert_eq!(AttrValue::from("s"), AttrValue::Str("s".into()));
    }
}
