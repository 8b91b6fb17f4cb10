//! # rocio-core
//!
//! Shared foundation types for the GENx parallel-I/O reproduction.
//!
//! This crate holds the vocabulary that every other crate in the workspace
//! speaks:
//!
//! * [`DType`] / [`ArrayData`] — the typed arrays panes hold and solvers
//!   mutate;
//! * [`SharedArray`] — the same data as the I/O side sees it:
//!   binary-portable little-endian bytes held by refcount;
//! * [`Dataset`] — a named, shaped [`SharedArray`] with attached metadata;
//! * [`Rope`] / [`Cursor`] — a byte string in refcounted parts and the
//!   checked decoder over it: what a message and a file image are made of;
//! * [`DataBlock`] — the paper's *data block*: "a collection of arrays and
//!   metadata associated with the arrays … the unit of work distributed to
//!   the compute processors" (§4);
//! * [`BlockDesc`] — a data block described instead of built: what the
//!   encoder, the checksum and a restart's apply read, from a `DataBlock`,
//!   straight from a pane, or from records where they lie;
//! * [`AttrValue`] — typed metadata attribute values;
//! * [`SnapshotId`] and file-naming helpers for periodic output phases;
//! * [`RocError`] — the workspace-wide error type.
//!
//! Nothing in here depends on the message-passing fabric, the storage
//! simulator, or the component framework; those all build on top.

pub mod attr;
pub mod block;
pub mod checksum;
pub mod dataset;
pub mod desc;
pub mod dtype;
pub mod error;
pub mod le;
pub mod lockdep;
pub mod rope;
pub mod segment;
pub mod snapshot;
pub mod tenant;
pub mod units;

/// The refcounted byte buffer behind [`SharedArray`] and
/// [`Segment::Shared`], re-exported so producers of shared payloads need
/// no dependency of their own.
pub use bytes::Bytes;

pub use attr::{Attr, AttrValue, AttrView};
pub use block::{BlockId, DataBlock};
pub use checksum::Checksum;
pub use dataset::Dataset;
pub use desc::{Attrs, BlockDesc, DatasetDesc, Payload};
pub use dtype::{ArrayData, DType, SharedArray};
pub use error::{Result, RocError};
pub use rope::{Cursor, Rope};
pub use segment::{segments_len, segments_to_vec, Segment};
pub use snapshot::{
    is_snapshot_file_of, snapshot_file_name, snapshot_file_prefix, snapshot_path, SnapshotId,
};
pub use tenant::{Priority, ServiceError, ServiceErrorKind, TenantId};
pub use units::{fmt_bytes, SimTime, MIB};
