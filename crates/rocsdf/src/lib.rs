//! # rocsdf
//!
//! A self-describing hierarchical scientific data format — the workspace's
//! stand-in for HDF (DESIGN.md §2).
//!
//! CSAR chose HDF because it "organizes multiple datasets (both array data
//! and metadata) in a single file, supports user-defined attributes for
//! datasets, and is binary-portable" (§3.2). SDF replicates those three
//! properties: files are sequences of named, shaped, attributed datasets
//! encoded little-endian, with a trailing index for direct access.
//!
//! Two facts about HDF drive the paper's performance story, and both are
//! first-class here as [`cost::LibraryModel`]s:
//!
//! * writing in a scientific format has significant per-dataset overhead,
//!   painful for GENx's "relatively small blocks" \[13\];
//! * HDF4's data-access cost grows with the number of datasets in a file
//!   (linear index), unlike HDF5 (B-tree) — which is why Rocpanda's
//!   restart from few, dataset-dense files is so much slower than
//!   Rochdf's from many small files (Table 1).
//!
//! Data blocks are stored as groups of neighbouring datasets sharing a
//! `blkNNNNNN/` name prefix, mirroring "HDF files generated by GENx are
//! also organized by data blocks" (§4).
//!
//! ## Example: write and read a file
//!
//! ```
//! use rocio_core::{BlockId, DataBlock, Dataset};
//! use rocsdf::{LibraryModel, SdfFileReader, SdfFileWriter};
//! use rocstore::SharedFs;
//!
//! let fs = SharedFs::ideal();
//! let block = DataBlock::new(BlockId(1), "fluid")
//!     .with_dataset(Dataset::vector("p", vec![1.0f64, 2.0]).with_attr("units", "Pa"));
//!
//! let (mut w, t) = SdfFileWriter::create(&fs, "snap.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
//! let t = w.append_block(&block, t).unwrap();
//! w.finish(t).unwrap();
//!
//! let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
//! let (back, _) = r.read_block_shared(BlockId(1), t).unwrap();
//! assert_eq!(back, block);
//! // A payload is little-endian bytes (here a window of the stored file);
//! // element access goes through the typed form a pane would hold.
//! let p = &back.dataset("p").unwrap().data;
//! assert_eq!(p.bytes()[..8], 1.0f64.to_le_bytes());
//! assert_eq!(p.to_typed().as_f64().unwrap(), &[1.0, 2.0]);
//! ```
//!
//! ## One read path
//!
//! Every [`SdfFileReader`] read is the same three steps — *pick* a
//! block's records out of the index (`__meta__` first), *fetch* their
//! extents from the store in one call, *assemble* them into a
//! [`BlockView`], the block read where it lies ([`view`]) — and the entry
//! points differ only in how the fetch is charged: `view_block` /
//! `view_all_blocks` pay the library's one lookup + one read per record,
//! `view_blocks_sieved` / `read_block_subset` / `read_dataset_strided` let
//! [`ReadCostModel`] choose between that and data sieving,
//! `read_blocks_raw` reads whole file domains for two-phase
//! redistribution. Payloads always come back as zero-copy windows of the
//! stored file; `read_block_shared`, `read_blocks_sieved` and
//! `read_all_blocks` are the same reads built into `DataBlock`s
//! ([`BlockView::to_block`]).
//!
//! ## One record codec, one block layout
//!
//! [`encode_block`] lays a block out as its records — every header
//! written straight into one staging buffer, payloads by refcount or
//! encoded once into the block's payload image — from a description of
//! the block (`rocio_core::BlockDesc`): a `DataBlock`, or a Roccom pane
//! read where it lies, which is how every writer calls it. And
//! [`decode_dataset`] reads a record through a rope cursor (payload a
//! window of the part it lies in; [`decode_dataset_shared`] is the same
//! over one contiguous buffer); files, Rocpanda's wire messages and the
//! two-phase redistribution all carry exactly these records. A block
//! reaches a file one way, whoever writes it:
//! [`SdfFileWriter::append_block`] of a description, laid out by the same
//! encoder with each record's checksum computed in the pass — a Rocpanda
//! server appends the [`BlockView`] it read a message as, Rochdf its
//! panes' descriptions, T-Rochdf the views of the blocks its main thread
//! encoded.
//! [`encode_dataset_segments`] writes one standalone record.

#![forbid(unsafe_code)]

pub mod cost;
pub mod format;
pub mod reader;
pub mod view;
pub mod writer;

pub use cost::{LibraryModel, ReadCostModel, ReadStrategy};
pub use format::{
    block_prefix, decode_dataset, decode_dataset_shared, encode_block, encode_dataset_segments,
    payload_crc32, SegmentPool,
};
pub use reader::SdfFileReader;
pub use view::{BlockView, RecordView};
pub use writer::SdfFileWriter;
