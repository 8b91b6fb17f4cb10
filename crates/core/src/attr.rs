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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attr<'a> {
    Int(i64),
    Float(f64),
    Str(&'a str),
    IntVec(&'a [i64]),
    FloatVec(&'a [f64]),
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

impl Attr<'_> {
    /// Stable one-byte tag for the file format and wire protocol.
    pub fn tag(&self) -> u8 {
        match self {
            Attr::Int(_) => 0,
            Attr::Float(_) => 1,
            Attr::Str(_) => 2,
            Attr::IntVec(_) => 3,
            Attr::FloatVec(_) => 4,
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
        }
    }
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
        (self.tag == 0).then(|| i64::from_le_bytes(self.scalar()))
    }

    /// The value if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        (self.tag == 2).then(|| std::str::from_utf8(&self.body[4..]).ok()).flatten()
    }

    /// A scalar's body: the eight bytes `read` took for it.
    fn scalar(&self) -> [u8; 8] {
        let mut le = [0u8; 8];
        le.copy_from_slice(&self.body[..8]);
        le
    }

    /// Build the value.
    pub fn to_value(&self) -> AttrValue {
        match self.tag {
            0 => AttrValue::Int(i64::from_le_bytes(self.scalar())),
            1 => AttrValue::Float(f64::from_le_bytes(self.scalar())),
            // Lossless: `read` refused anything but UTF-8.
            2 => AttrValue::Str(String::from_utf8_lossy(&self.body[4..]).into_owned()),
            3 => AttrValue::IntVec(le::array(&self.body[4..], i64::from_le_bytes)),
            _ => AttrValue::FloatVec(le::array(&self.body[4..], f64::from_le_bytes)),
        }
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
