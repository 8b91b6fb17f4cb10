//! File inspection: describe an SDF file's contents without an index.
//!
//! Rocketeer-style post-processing tools and debugging sessions need to see
//! what a file holds. `describe` scans the raw bytes sequentially, so it
//! also works on truncated or index-less files (e.g. a run that died before
//! `finish`), reporting whatever prefix decodes cleanly.

use rocio_core::{DType, Result};

use crate::format::{check_header, decode_dataset, parse_block_id, HEADER_LEN, IDX_MARKER};

/// Summary of one dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    pub name: String,
    pub dtype: DType,
    pub shape: Vec<usize>,
    pub n_attrs: usize,
    pub payload_bytes: usize,
}

/// Summary of a whole file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDescription {
    pub datasets: Vec<DatasetInfo>,
    /// Distinct block ids found, in first-appearance order.
    pub blocks: Vec<rocio_core::BlockId>,
    /// True when the sequential scan ended at a valid index marker.
    pub index_present: bool,
    /// Total payload bytes across datasets.
    pub total_payload: usize,
}

/// Sequentially scan `bytes` (a full SDF file image) and describe it.
pub fn describe(bytes: &[u8]) -> Result<FileDescription> {
    check_header(bytes)?;
    let mut pos = HEADER_LEN;
    let mut datasets = Vec::new();
    let mut blocks = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut index_present = false;
    let mut total_payload = 0;
    while pos < bytes.len() {
        if bytes[pos..].starts_with(IDX_MARKER) {
            index_present = true;
            break;
        }
        let Ok(ds) = decode_dataset(bytes, &mut pos) else {
            break; // truncated tail: report the clean prefix
        };
        if let Some(id) = parse_block_id(&ds.name) {
            if seen.insert(id) {
                blocks.push(id);
            }
        }
        total_payload += ds.byte_len();
        datasets.push(DatasetInfo {
            name: ds.name,
            dtype: ds.data.dtype(),
            shape: ds.shape,
            n_attrs: ds.attrs.len(),
            payload_bytes: ds.data.byte_len(),
        });
    }
    Ok(FileDescription {
        datasets,
        blocks,
        index_present,
        total_payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LibraryModel;
    use crate::writer::SdfFileWriter;
    use rocio_core::{BlockId, DataBlock, Dataset};
    use rocstore::SharedFs;

    fn sample_file(finish: bool) -> Vec<u8> {
        let fs = SharedFs::ideal();
        let (mut w, mut t) =
            SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        for i in 0..2u64 {
            let b = DataBlock::new(BlockId(i), "fluid")
                .with_dataset(Dataset::vector("p", vec![1.0f64; 10]).with_attr("units", "Pa"));
            t = w.append_block(&b, t).unwrap();
        }
        if finish {
            w.finish(t).unwrap();
        }
        fs.read_all_shared("f.sdf", 0, 0.0).unwrap().0.to_vec()
    }

    #[test]
    fn describes_finished_file() {
        let d = describe(&sample_file(true)).unwrap();
        assert_eq!(d.datasets.len(), 4); // 2 x (meta + p)
        assert_eq!(d.blocks, vec![BlockId(0), BlockId(1)]);
        assert!(d.index_present);
        assert_eq!(d.total_payload, 2 * 10 * 8);
        let p = &d.datasets[1];
        assert_eq!(p.name, "blk000000/p");
        assert_eq!(p.dtype, DType::F64);
        assert_eq!(p.shape, vec![10]);
        assert_eq!(p.n_attrs, 1);
        assert_eq!(p.payload_bytes, 80);
    }

    #[test]
    fn describes_unfinished_file() {
        let d = describe(&sample_file(false)).unwrap();
        assert_eq!(d.datasets.len(), 4);
        assert!(!d.index_present);
    }

    #[test]
    fn truncated_tail_reports_clean_prefix() {
        let bytes = sample_file(false);
        let cut = bytes.len() - 5;
        let d = describe(&bytes[..cut]).unwrap();
        assert_eq!(d.datasets.len(), 3);
    }

    #[test]
    fn rejects_non_sdf() {
        assert!(describe(b"GARBAGE!").is_err());
        assert!(describe(&[]).is_err());
    }
}
