//! Writing SDF files through the storage simulator.

use bytes::Bytes;
use rocio_core::{DataBlock, Dataset, Result, Rope, Segment, SimTime};
use rocstore::SharedFs;

use crate::cost::LibraryModel;
use crate::format::{
    crc32, encode_block, encode_dataset_segments, encode_header, encode_index, frame_block,
    payload_crc32, BlockFrame, IndexEntry,
};

/// An open SDF file being written.
///
/// A block goes in one way — [`SdfFileWriter::append_block`] and
/// [`SdfFileWriter::append_frame`] are one path — and its records reach
/// the file system as one write; a standalone dataset is one write of its
/// own. Every dataset is charged the library's per-dataset creation
/// overhead; `finish` appends the index + trailer and closes the file.
///
/// Nothing is flattened or copied to be written: headers are windows of
/// one staging buffer per block, payloads the datasets' own buffers by
/// refcount, handed to the file system in one `writev`-style append.
pub struct SdfFileWriter<'fs> {
    fs: &'fs SharedFs,
    path: String,
    client: u64,
    lib: LibraryModel,
    entries: Vec<IndexEntry>,
    offset: u64,
    finished: bool,
}

impl<'fs> SdfFileWriter<'fs> {
    /// Create `path` on `fs` and write the header. Returns the writer and
    /// the virtual completion time of the create.
    pub fn create(
        fs: &'fs SharedFs,
        path: &str,
        lib: LibraryModel,
        client: u64,
        now: SimTime,
    ) -> Result<(Self, SimTime)> {
        let t_create = fs.create(path, client, now);
        let header = encode_header();
        let t = fs.append(path, &header, client, t_create)?;
        Ok((
            SdfFileWriter {
                fs,
                path: path.to_string(),
                client,
                lib,
                entries: Vec::new(),
                offset: header.len() as u64,
                finished: false,
            },
            t,
        ))
    }

    /// Number of datasets written so far.
    pub fn n_datasets(&self) -> usize {
        self.entries.len()
    }

    /// Enter a record of `len` bytes into the index, `batch_len` bytes
    /// into the current write, and return the library's creation overhead
    /// for it.
    fn index_record(&mut self, name: String, batch_len: u64, len: u64) -> SimTime {
        let overhead = self.lib.create_cost(self.entries.len());
        self.entries.push(IndexEntry { name, offset: self.offset + batch_len, len });
        overhead
    }

    /// One scatter-gather write of `segs`, `len` bytes, at `at`.
    fn write(&mut self, segs: &[Segment], len: u64, at: SimTime) -> Result<SimTime> {
        assert!(!self.finished, "append after finish");
        let t = self.fs.append_segments(&self.path, segs, self.client, at)?;
        self.offset += len;
        Ok(t)
    }

    /// Append one standalone dataset, its payload checksummed. Returns the
    /// virtual completion time.
    pub fn append_dataset(&mut self, ds: &Dataset, now: SimTime) -> Result<SimTime> {
        let mut segs = Vec::with_capacity(2);
        encode_dataset_segments(ds, None, Some(payload_crc32(ds)), Vec::new(), &mut segs);
        let len = rocio_core::segments_len(&segs) as u64;
        let overhead = self.index_record(ds.name.clone(), 0, len);
        self.write(&segs, len, now + overhead)
    }

    /// Append a whole data block: its `__meta__` dataset followed by every
    /// array dataset, names prefixed with the block's group prefix —
    /// "data from different arrays in the same data block stored in
    /// neighboring HDF datasets" (§4).
    ///
    /// The block is encoded ([`encode_block`]) and written by
    /// [`SdfFileWriter::append_records`].
    pub fn append_block(&mut self, block: &DataBlock, now: SimTime) -> Result<SimTime> {
        self.append_records(&encode_block(&[], block), 1 + block.datasets.len(), now)
    }

    /// Append the `n_records` records [`encode_block`] laid a block out as
    /// — a pane's, encoded where it lies, or a [`DataBlock`]'s: they are
    /// framed ([`frame_block`]) and written by
    /// [`SdfFileWriter::append_frame`], the path a Rocpanda server writes
    /// the block's wire records by, so every writer writes the same bytes
    /// at the same cost and refuses the same blocks (a member held twice,
    /// a stored `__crc32__` its payload does not match).
    pub fn append_records(
        &mut self,
        records: &Rope,
        n_records: usize,
        now: SimTime,
    ) -> Result<SimTime> {
        self.append_frame(frame_block(&mut records.cursor(), n_records)?, now)
    }

    /// Write a block's framed records: all of them to the file system as
    /// one scatter-gather write (the library's stdio-style coalescing),
    /// while the index still records every dataset individually and
    /// per-dataset creation overhead is still charged. Each payload's
    /// CRC-32 is computed here and written into the slot its framed header
    /// holds for it; the headers go to the file system as windows of the
    /// frame's one staging buffer, the payloads as the windows they always
    /// were.
    pub fn append_frame(&mut self, frame: BlockFrame, now: SimTime) -> Result<SimTime> {
        let BlockFrame { mut heads, records, .. } = frame;
        for r in &records {
            let crc = i64::from(crc32(&r.payload));
            heads[r.crc_at..r.crc_at + 8].copy_from_slice(&crc.to_le_bytes());
        }
        let heads = Bytes::from(heads);
        let mut segs = Vec::with_capacity(2 * records.len());
        let (mut overhead, mut batch_len) = (0.0, 0);
        for r in records {
            let len = (r.head.len() + r.payload.len()) as u64;
            overhead += self.index_record(r.name, batch_len, len);
            batch_len += len;
            segs.push(Segment::Shared(heads.slice(r.head)));
            if !r.payload.is_empty() {
                segs.push(Segment::Shared(r.payload));
            }
        }
        self.write(&segs, batch_len, now + overhead)
    }

    /// Canonicalize the record layout of an all-blocks file: block groups
    /// sorted by block id, records within each group keeping their order.
    /// Appends land in intake order, which for a multi-client server is a
    /// race artifact (and, on a degraded network, a retransmission
    /// artifact); finished files must not encode it, so equal writes yield
    /// byte-identical files no matter how the fabric interleaved them.
    /// Zero virtual cost: every byte was charged when it was appended, and
    /// the permutation models the library placing records at their indexed
    /// slots (see `SharedFs::permute`: an O(records) reordering of extent
    /// handles, no byte moves). Files containing any
    /// non-block record (standalone datasets) are left untouched.
    fn canonicalize_layout(&mut self) -> Result<()> {
        // Group contiguous entries by block prefix; bail on non-block names.
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            let Some(id) = crate::format::parse_block_id(&e.name) else {
                return Ok(());
            };
            match groups.last_mut() {
                Some((gid, idxs)) if *gid == id.0 => idxs.push(i),
                _ => groups.push((id.0, vec![i])),
            }
        }
        if groups.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Ok(());
        }
        groups.sort_by_key(|(id, _)| *id);
        let mut old = std::mem::take(&mut self.entries);
        self.entries.reserve_exact(old.len());
        let header_len = encode_header().len();
        let mut ranges = Vec::with_capacity(1 + old.len());
        ranges.push((0, header_len));
        let mut off = header_len as u64;
        for &i in groups.iter().flat_map(|(_, idxs)| idxs) {
            // Each index is visited once, so the name can move.
            let IndexEntry { name, offset, len } = std::mem::take(&mut old[i]);
            ranges.push((offset as usize, len as usize));
            self.entries.push(IndexEntry { name, offset: off, len });
            off += len;
        }
        self.fs.permute(&self.path, &ranges)
    }

    /// Write the index and trailer, close the file. Returns the completion
    /// time. The writer cannot be used afterwards.
    pub fn finish(&mut self, now: SimTime) -> Result<SimTime> {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        self.canonicalize_layout()?;
        let idx = encode_index(&self.entries, self.offset);
        let t = self.fs.append(&self.path, &idx, self.client, now)?;
        self.fs.close(&self.path, self.client, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::BlockId;

    /// The entries of an index region, names owned.
    fn index_of(region: &[u8]) -> Vec<IndexEntry> {
        let entry = |name, offset, len| {
            let name = std::str::from_utf8(&region[name]).unwrap().to_owned();
            IndexEntry { name, offset, len }
        };
        crate::format::decode_index(region, entry).unwrap()
    }

    fn ds(name: &str, n: usize) -> Dataset {
        Dataset::vector(name, vec![1.5f64; n]).with_attr("units", "m")
    }

    #[test]
    fn writes_header_then_datasets_then_index() {
        let fs = SharedFs::ideal();
        let (mut w, t0) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t1 = w.append_dataset(&ds("a", 4), t0).unwrap();
        let t2 = w.append_dataset(&ds("b", 2), t1).unwrap();
        assert_eq!(w.n_datasets(), 2);
        w.finish(t2).unwrap();
        let (bytes, _) = fs.read_all_shared("f.sdf", 0, 0.0).unwrap();
        crate::format::check_header(&bytes).unwrap();
        let idx_off = crate::format::decode_trailer(&bytes[bytes.len() - 12..]).unwrap();
        let entries = index_of(&bytes[idx_off as usize..bytes.len() - 12]);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "a");
        // Entries point at decodable records.
        for e in &entries {
            let rec = bytes.slice(e.offset as usize..(e.offset + e.len) as usize);
            crate::format::decode_dataset_shared(&rec, &mut 0).unwrap();
        }
    }

    #[test]
    fn hdf4_create_overhead_grows_with_count() {
        let fs = SharedFs::ideal();
        let (mut w, mut t) =
            SdfFileWriter::create(&fs, "f.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let mut deltas = Vec::new();
        for i in 0..200 {
            let before = t;
            t = w.append_dataset(&ds(&format!("d{i}"), 1), t).unwrap();
            deltas.push(t - before);
        }
        // On an ideal disk, the cost left is the library overhead, which
        // must grow with the dataset count under HDF4.
        assert!(deltas[199] > deltas[0]);
    }

    #[test]
    fn append_block_prefixes_names_and_writes_meta() {
        let fs = SharedFs::ideal();
        let block = DataBlock::new(BlockId(5), "fluid")
            .with_dataset(Dataset::vector("p", vec![1.0f64, 2.0]))
            .with_dataset(Dataset::new("v", vec![2, 3], vec![0.0f64; 6]).unwrap());
        let (mut w, t) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (bytes, _) = fs.read_all_shared("f.sdf", 0, 0.0).unwrap();
        let idx_off = crate::format::decode_trailer(&bytes[bytes.len() - 12..]).unwrap();
        let entries = index_of(&bytes[idx_off as usize..bytes.len() - 12]);
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["blk000005/__meta__", "blk000005/p", "blk000005/v"]
        );
    }

    #[test]
    fn out_of_order_blocks_finish_byte_identical_to_in_order() {
        // Arrival order is a fabric artifact; `finish` permutes the
        // records to block-id order, so the file must not remember it —
        // whichever library model charged the appends.
        let block = |id: u64| {
            DataBlock::new(BlockId(id), "fluid")
                .with_dataset(Dataset::vector("p", vec![id as f64; 5]).with_attr("units", "Pa"))
                .with_dataset(Dataset::vector("v", vec![id as i32 * 31, 7, -1]))
                .with_attr("step", id as i64)
        };
        for lib in [LibraryModel::hdf4(), LibraryModel::hdf5(), LibraryModel::Raw] {
            let image = |order: &[u64]| {
                let fs = SharedFs::ideal();
                let (mut w, mut t) = SdfFileWriter::create(&fs, "f.sdf", lib, 0, 0.0).unwrap();
                for &id in order {
                    t = w.append_block(&block(id), t).unwrap();
                }
                w.finish(t).unwrap();
                fs.read_all_shared("f.sdf", 0, 0.0).unwrap().0
            };
            let sorted = image(&[2, 5, 7, 11]);
            assert_eq!(image(&[7, 2, 11, 5]), sorted, "{lib:?}");
            assert_eq!(image(&[11, 7, 5, 2]), sorted, "{lib:?}");
        }
    }

    #[test]
    #[should_panic(expected = "append after finish")]
    fn append_after_finish_panics() {
        let fs = SharedFs::ideal();
        let (mut w, t) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.finish(t).unwrap();
        let _ = w.append_dataset(&ds("late", 1), t);
    }

    #[test]
    fn completion_times_are_monotone() {
        let fs = SharedFs::turing();
        let (mut w, mut t) =
            SdfFileWriter::create(&fs, "f.sdf", LibraryModel::hdf4(), 3, 1.0).unwrap();
        assert!(t >= 1.0);
        for i in 0..10 {
            let t2 = w.append_dataset(&ds(&format!("d{i}"), 1000), t).unwrap();
            assert!(t2 > t);
            t = t2;
        }
        let tf = w.finish(t).unwrap();
        assert!(tf > t);
    }
}
