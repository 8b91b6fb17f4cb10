//! A block described instead of built.
//!
//! Everything an encoder, a checksum, a cost model or a restart reads of a
//! data block — its id and window, its own attributes in key order, then
//! per dataset a name, a dtype, a shape, attributes and a payload — can be
//! *said* without being *held*. [`BlockDesc`] says it: a [`DataBlock`] by
//! pointing into its fields, a Roccom pane (`roccom::convert::plan`) by
//! pointing into the pane, the window's schema and a few values on the
//! stack, and a block read back (`rocsdf::BlockView`) by pointing into its
//! records where they lie — no `DataBlock`, map or `String` per block.
//! `rocsdf::encode_block` lays a description out as records,
//! [`Checksum::of_desc`](crate::Checksum::of_desc) hashes one,
//! [`BlockDesc::encoded_size`] sizes one and `roccom::convert::apply_block`
//! decodes one into a pane, whichever kind it is.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use bytes::Bytes;

use crate::attr::{Attr, AttrValue};
use crate::block::{BlockId, DataBlock};
use crate::checksum::Field;
use crate::dataset::Dataset;
use crate::dtype::{DType, SharedArray};

/// An attribute table: pairs in strictly ascending key order, as a
/// `BTreeMap` yields them.
#[derive(Debug, Clone, Copy)]
pub enum Attrs<'a> {
    /// Borrowed pairs, already in key order.
    Sorted(&'a [(&'a str, Attr<'a>)]),
    /// A built block's or dataset's map.
    Map(&'a BTreeMap<String, AttrValue>),
}

impl<'a> Attrs<'a> {
    /// No attributes.
    pub const NONE: Attrs<'static> = Attrs::Sorted(&[]);

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Attrs::Sorted(pairs) => pairs.len(),
            Attrs::Map(map) => map.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in key order.
    pub fn iter(self) -> impl Iterator<Item = (&'a str, Attr<'a>)> {
        let (pairs, map) = match self {
            Attrs::Sorted(pairs) => (pairs, None),
            Attrs::Map(map) => (&[][..], Some(map)),
        };
        let map = map
            .into_iter()
            .flatten()
            .map(|(k, v)| (k.as_str(), Attr::from(v)));
        pairs.iter().copied().chain(map)
    }

    /// Bytes the entries take in a record header: a `u16` key length, the
    /// key and the value, each.
    pub fn encoded_size(self) -> usize {
        self.iter()
            .map(|(k, v)| 2 + k.len() + v.encoded_size())
            .sum()
    }
}

/// A dataset's little-endian payload, wherever its bytes are: held already
/// (a built dataset's), or still typed in the array they come from (a
/// pane's), to be encoded or hashed straight from there.
pub trait Payload {
    /// Length of the encoding in bytes.
    fn byte_len(&self) -> usize;
    /// Append the encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Feed the encoding to a checksum field.
    fn absorb(&self, field: &mut Field);
    /// The encoding, when it is held already — to be shared by refcount,
    /// not encoded again.
    fn held(&self) -> Option<&Bytes> {
        None
    }
    /// Where an encoder keeps the checksum of the held encoding once it has
    /// computed it (`rocsdf`: a record's `__crc32__`); `None` when each
    /// encode computes its own. This crate never reads it.
    fn held_crc(&self) -> Option<&OnceLock<u32>> {
        None
    }
}

/// Encoded bytes held already: a record's payload where it lies.
impl Payload for Bytes {
    fn byte_len(&self) -> usize {
        self.len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn absorb(&self, field: &mut Field) {
        field.absorb(self);
    }

    fn held(&self) -> Option<&Bytes> {
        Some(self)
    }
}

impl Payload for SharedArray {
    fn byte_len(&self) -> usize {
        self.bytes().byte_len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.bytes().encode(out);
    }

    fn absorb(&self, field: &mut Field) {
        self.bytes().absorb(field);
    }

    fn held(&self) -> Option<&Bytes> {
        Some(self.bytes())
    }
}

/// One dataset of a described block: what its record header says, and its
/// payload.
#[derive(Clone, Copy)]
pub struct DatasetDesc<'a> {
    pub name: &'a str,
    pub dtype: DType,
    pub shape: &'a [usize],
    pub attrs: Attrs<'a>,
    pub payload: &'a dyn Payload,
}

impl DatasetDesc<'_> {
    /// [`Dataset::encoded_size`] of the dataset described.
    pub fn encoded_size(&self) -> usize {
        2 + self.name.len()
            + 1
            + self.shape.len() * 8
            + 1
            + 2
            + self.attrs.encoded_size()
            + self.payload.byte_len()
    }
}

/// A data block as its readers see it — see the module docs. Attributes
/// and datasets are handed to a closure rather than returned, so a
/// describer can put what it says on its own stack.
pub trait BlockDesc {
    fn id(&self) -> BlockId;
    fn window(&self) -> &str;
    /// Hand the block's own attributes to `f`.
    fn with_attrs<R>(&self, f: impl FnOnce(Attrs<'_>) -> R) -> R;
    fn n_datasets(&self) -> usize;
    /// Hand each dataset to `f`, in order.
    fn for_each_dataset(&self, f: impl FnMut(&DatasetDesc<'_>));

    /// [`DataBlock::encoded_size`] of the block described.
    fn encoded_size(&self) -> usize {
        let mut size = 16 + self.window().len() + self.with_attrs(|attrs| attrs.encoded_size());
        self.for_each_dataset(|ds| size += ds.encoded_size());
        size
    }
}

impl Dataset {
    /// The dataset as a description reads it.
    pub fn desc(&self) -> DatasetDesc<'_> {
        DatasetDesc {
            name: &self.name,
            dtype: self.dtype(),
            shape: &self.shape,
            attrs: Attrs::Map(&self.attrs),
            payload: &self.data,
        }
    }
}

/// A built block describes itself by pointing into its fields.
impl BlockDesc for DataBlock {
    fn id(&self) -> BlockId {
        self.id
    }

    fn window(&self) -> &str {
        &self.window
    }

    fn with_attrs<R>(&self, f: impl FnOnce(Attrs<'_>) -> R) -> R {
        f(Attrs::Map(&self.attrs))
    }

    fn n_datasets(&self) -> usize {
        self.datasets.len()
    }

    fn for_each_dataset(&self, mut f: impl FnMut(&DatasetDesc<'_>)) {
        self.datasets.iter().for_each(|ds| f(&ds.desc()));
    }
}
