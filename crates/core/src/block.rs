//! Data blocks — the paper's unit of distribution and I/O.

use std::collections::BTreeMap;

use crate::attr::AttrValue;
use crate::dataset::Dataset;
use crate::desc::BlockDesc;
use crate::error::{Result, RocError};

/// Globally unique identifier of a data block (the pane id in Roccom terms).
///
/// Block ids are assigned by the mesh partitioner and stay stable across a
/// run and across restarts, even when blocks migrate between processes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{:06}", self.0)
    }
}

/// A *data block*: "a collection of arrays and metadata associated with the
/// arrays … the unit of work distributed to the compute processors" (§4).
///
/// In GENx a data block contains all the data based on one mesh block —
/// coordinates, connectivity, and element- and/or node-centered variables
/// such as pressure, velocity and temperature. SDF files are organized by
/// data blocks, with arrays of the same block stored in neighboring
/// datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBlock {
    /// Stable unique id.
    pub id: BlockId,
    /// Name of the Roccom window this block belongs to (e.g. `"fluid"`).
    pub window: String,
    /// Ordered datasets (mesh coordinates, connectivity, field variables…).
    pub datasets: Vec<Dataset>,
    /// Block-level metadata (material, refinement level, timestamp…).
    pub attrs: BTreeMap<String, AttrValue>,
}

impl DataBlock {
    /// Create an empty block for `window`.
    pub fn new(id: BlockId, window: impl Into<String>) -> Self {
        DataBlock {
            id,
            window: window.into(),
            datasets: Vec::new(),
            attrs: BTreeMap::new(),
        }
    }

    /// Append a dataset; names must be unique within the block.
    pub fn push_dataset(&mut self, ds: Dataset) -> Result<()> {
        if self.datasets.iter().any(|d| d.name == ds.name) {
            return Err(RocError::AlreadyExists(format!(
                "dataset '{}' in block {}",
                ds.name, self.id
            )));
        }
        self.datasets.push(ds);
        Ok(())
    }

    /// Builder-style [`DataBlock::push_dataset`]; panics on duplicates.
    #[expect(
        clippy::expect_used,
        reason = "builder form: a duplicate name is a bug at the call site; `push_dataset` is the \
                  checked form"
    )]
    pub fn with_dataset(mut self, ds: Dataset) -> Self {
        self.push_dataset(ds).expect("duplicate dataset name");
        self
    }

    /// Attach a block-level attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Look up a dataset by name.
    pub fn dataset(&self, name: &str) -> Result<&Dataset> {
        self.datasets
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| RocError::NotFound(format!("dataset '{name}' in block {}", self.id)))
    }

    /// Look up a dataset by name, mutably.
    pub fn dataset_mut(&mut self, name: &str) -> Result<&mut Dataset> {
        let id = self.id;
        self.datasets
            .iter_mut()
            .find(|d| d.name == name)
            .ok_or_else(|| RocError::NotFound(format!("dataset '{name}' in block {id}")))
    }

    /// Total payload bytes across all datasets.
    pub fn payload_bytes(&self) -> usize {
        self.datasets.iter().map(|d| d.byte_len()).sum()
    }

    /// Total encoded size (payload + per-dataset metadata + block attrs).
    pub fn encoded_size(&self) -> usize {
        BlockDesc::encoded_size(self)
    }

    /// Number of datasets in the block.
    pub fn n_datasets(&self) -> usize {
        self.datasets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn sample() -> DataBlock {
        DataBlock::new(BlockId(7), "fluid")
            .with_dataset(Dataset::vector("pressure", vec![1.0f64, 2.0]))
            .with_dataset(Dataset::vector("temperature", vec![300.0f64, 301.0]))
            .with_attr("material", "gas")
    }

    #[test]
    fn block_id_display_is_padded() {
        assert_eq!(BlockId(7).to_string(), "blk000007");
        assert_eq!(BlockId(123456).to_string(), "blk123456");
    }

    #[test]
    fn dataset_lookup_by_name() {
        let b = sample();
        assert_eq!(b.dataset("pressure").unwrap().len(), 2);
        assert!(b.dataset("velocity").is_err());
        assert_eq!(b.n_datasets(), 2);
    }

    #[test]
    fn duplicate_dataset_rejected() {
        let mut b = sample();
        let err = b.push_dataset(Dataset::vector("pressure", vec![0.0f64]));
        assert!(matches!(err, Err(RocError::AlreadyExists(_))));
    }

    #[test]
    fn dataset_mut_allows_in_place_update() {
        let mut b = sample();
        b.dataset_mut("pressure").unwrap().data = vec![9.0f64, 2.0].into();
        assert_eq!(b.dataset("pressure").unwrap().data.to_typed().as_f64().unwrap()[0], 9.0);
    }

    #[test]
    fn payload_and_encoded_sizes() {
        let b = sample();
        assert_eq!(b.payload_bytes(), 4 * 8);
        assert!(b.encoded_size() > b.payload_bytes());
        let empty = DataBlock::new(BlockId(0), "w");
        assert_eq!(empty.payload_bytes(), 0);
        assert!(empty.encoded_size() > 0);
    }

    #[test]
    fn new_block_has_no_datasets() {
        let b = DataBlock::new(BlockId(1), "solid");
        assert_eq!(b.n_datasets(), 0);
        assert_eq!(b.window, "solid");
    }
}
