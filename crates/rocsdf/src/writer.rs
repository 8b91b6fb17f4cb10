//! Writing SDF files through the storage simulator.

use rocio_core::{BlockDesc, Dataset, Result, RocError, Segment, SimTime};
use rocstore::SharedFs;

use crate::cost::LibraryModel;
use crate::format::{
    encode_dataset_segments, encode_header, encode_index, lay_out_block, payload_crc32, IndexEntry,
};

/// An open SDF file being written.
///
/// A block goes in one way, whoever writes it — a Rocpanda server the
/// block it read off the wire, Rochdf a pane described where it lies,
/// T-Rochdf the block its main thread encoded: [`SdfFileWriter::append_block`]
/// of a description, its records reaching the file system as one write; a
/// standalone dataset is one write of its own. Every dataset is charged
/// the library's per-dataset creation overhead; `finish` appends the index
/// + trailer and closes the file.
///
/// Nothing is flattened or copied to be written: headers are windows of
/// one staging buffer per block, payloads the description's own buffers by
/// refcount, handed to the file system in one `writev`-style append. The
/// index names every record from one buffer of names per file.
pub struct SdfFileWriter<'fs> {
    fs: &'fs SharedFs,
    path: String,
    client: u64,
    lib: LibraryModel,
    /// Every record's full name, back to back.
    names: String,
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
                names: String::new(),
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

    /// Enter a record named by the pieces of `name` and `len` bytes long
    /// into the index, `batch_len` bytes into the current write, and
    /// return the library's creation overhead for it.
    fn index_record(&mut self, name: &[&str], batch_len: u64, len: u64) -> SimTime {
        let overhead = self.lib.create_cost(self.entries.len());
        let start = self.names.len();
        name.iter().for_each(|piece| self.names.push_str(piece));
        let name = start..self.names.len();
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
        let overhead = self.index_record(&[&ds.name], 0, len);
        self.write(&segs, len, now + overhead)
    }

    /// Append a whole data block: its `__meta__` dataset followed by every
    /// array dataset, names prefixed with the block's group prefix —
    /// "data from different arrays in the same data block stored in
    /// neighboring HDF datasets" (§4).
    ///
    /// The block is a description ([`BlockDesc`]): a
    /// [`DataBlock`](rocio_core::DataBlock), a block read where it lies
    /// ([`crate::BlockView`]) or a pane. Its records are laid out by the
    /// one block encoder ([`crate::encode_block`]), each with its payload's
    /// CRC-32, and go to the file system as one scatter-gather write (the
    /// library's stdio-style coalescing), while the index still records
    /// every dataset individually and per-dataset creation overhead is
    /// still charged. Refused before anything is written: a member held
    /// twice ([`RocError::AlreadyExists`]); a stored `__crc32__` its
    /// payload does not match, or a name, key, attribute count or rank its
    /// header field cannot hold ([`RocError::Corrupt`]).
    pub fn append_block(
        &mut self,
        block: &(impl BlockDesc + ?Sized),
        now: SimTime,
    ) -> Result<SimTime> {
        let (first, named) = (self.entries.len(), self.names.len());
        let (mut overhead, mut batch_len) = (0.0, 0);
        let records = lay_out_block(&[], block, true, |name, len| {
            overhead += self.index_record(name, batch_len, len as u64);
            batch_len += len as u64;
        })?;
        let members = &self.entries[first + 1..];
        let name = |e: &IndexEntry| &self.names[e.name.clone()];
        let twice = (1..members.len())
            .find(|&i| members[..i].iter().any(|seen| name(seen) == name(&members[i])));
        if let Some(i) = twice {
            let err = RocError::AlreadyExists(format!("dataset '{}' held twice", name(&members[i])));
            self.entries.truncate(first);
            self.names.truncate(named);
            return Err(err);
        }
        let segs: Vec<Segment> = records.parts().iter().cloned().map(Segment::Shared).collect();
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
            let Some(id) = crate::format::parse_block_id(&self.names[e.name.clone()]) else {
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
        let old = std::mem::take(&mut self.entries);
        self.entries.reserve_exact(old.len());
        let header_len = encode_header().len();
        let mut ranges = Vec::with_capacity(1 + old.len());
        ranges.push((0, header_len));
        let mut off = header_len as u64;
        for &i in groups.iter().flat_map(|(_, idxs)| idxs) {
            let IndexEntry { name, offset, len } = old[i].clone();
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
        let idx = encode_index(&self.entries, &self.names, self.offset);
        let t = self.fs.append(&self.path, &idx, self.client, now)?;
        self.fs.close(&self.path, self.client, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::{AttrValue, BlockId, DataBlock};

    /// An index region's entries: each dataset's name, offset and length.
    fn index_of(region: &[u8]) -> Vec<(String, u64, u64)> {
        let entry = |name, offset, len| {
            (std::str::from_utf8(&region[name]).unwrap().to_owned(), offset, len)
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
        assert_eq!(entries[0].0, "a");
        // Entries point at decodable records.
        for &(_, offset, len) in &entries {
            let rec = bytes.slice(offset as usize..(offset + len) as usize);
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
        let names: Vec<&str> = entries.iter().map(|e| e.0.as_str()).collect();
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

    /// The file one append makes, or the append's refusal, and the bytes
    /// a refusal left in the store.
    fn file_of(block: &DataBlock) -> (Result<Vec<u8>>, usize) {
        let fs = SharedFs::ideal();
        let (mut w, t) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let file = w.append_block(block, t).and_then(|t| {
            w.finish(t)?;
            Ok(fs.read_all_shared("f.sdf", 0, 0.0)?.0.to_vec())
        });
        (file, fs.file_size("f.sdf").unwrap())
    }

    /// A block is refused before anything is written when a member is held
    /// twice, when it carries a `__crc32__` its payload does not match, and
    /// when a header field cannot hold what it would say — each field at
    /// the first length it cannot hold, and at the last one it can.
    #[test]
    fn append_block_refuses_what_its_records_cannot_say() {
        let base = || DataBlock::new(BlockId(1), "w");
        let member = |name: String| Dataset::vector(name, vec![1.0f64]);
        let with_attrs = |n: usize| {
            let mut ds = member("p".into());
            ds.attrs = (0..n).map(|i| (format!("a{i}"), AttrValue::Int(1))).collect();
            ds
        };
        let with_rank = |rank: usize| {
            let mut ds = member("p".into());
            ds.shape = vec![1; rank];
            ds
        };
        let block_attrs = |n: usize| {
            let mut b = base().with_dataset(member("p".into()));
            b.attrs = (0..n).map(|i| (format!("a{i}"), AttrValue::Int(1))).collect();
            b
        };
        let mut twice = base().with_dataset(member("p".into()));
        twice.datasets.push(member("p".into()));
        let mut stale = base().with_dataset(member("p".into()));
        stale.datasets[0].attrs.insert("__crc32__".into(), AttrValue::Int(7));
        let max = usize::from(u16::MAX);
        // "blk000001/" is 10 bytes; a member's table gains `__crc32__`,
        // the meta's `block_id`, `n_datasets`, `window` and `__crc32__`.
        let cases: [(&str, DataBlock, DataBlock, &str); 7] = [
            ("a member held twice", twice, base().with_dataset(member("p".into())), "AlreadyExists"),
            ("a stale checksum", stale, base().with_dataset(member("p".into())), "Corrupt"),
            ("a name", base().with_dataset(member("n".repeat(max - 9))), base().with_dataset(member("n".repeat(max - 10))), "Corrupt"),
            ("an attribute key", base().with_dataset(member("p".into()).with_attr("k".repeat(max + 1), 1i64)), base().with_dataset(member("p".into()).with_attr("k".repeat(max), 1i64)), "Corrupt"),
            ("a member's attribute count", base().with_dataset(with_attrs(max)), base().with_dataset(with_attrs(max - 1)), "Corrupt"),
            ("the meta's attribute count", block_attrs(max - 3), block_attrs(max - 4), "Corrupt"),
            ("a rank", base().with_dataset(with_rank(256)), base().with_dataset(with_rank(255)), "Corrupt"),
        ];
        for (what, refused, fits, kind) in cases {
            let (file, left) = file_of(&refused);
            let got = format!("{file:?}");
            assert!(got.starts_with(&format!("Err({kind}(")), "{what}: {}", &got[..got.len().min(200)]);
            assert_eq!(left, crate::format::HEADER_LEN, "{what}: nothing is written");
            assert!(file_of(&fits).0.is_ok(), "{what} that fits");
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
