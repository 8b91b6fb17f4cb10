//! Deterministic content checksums for round-trip verification.
//!
//! Restart correctness (snapshot → read-back equality) is a core invariant
//! of both I/O libraries. The integration tests and the restart path use
//! this FNV-1a based checksum to compare block contents cheaply without
//! shipping full copies around.

use std::collections::BTreeMap;

use crate::attr::AttrValue;
use crate::block::DataBlock;
use crate::dataset::Dataset;

/// 64-bit content checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checksum(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher { state: FNV_OFFSET }
    }
}

impl Hasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a length-prefixed string (prefix avoids ambiguity between
    /// adjacent fields).
    pub fn update_str(&mut self, s: &str) {
        self.update(&(s.len() as u64).to_le_bytes());
        self.update(s.as_bytes());
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> Checksum {
        Checksum(self.state)
    }
}

impl Checksum {
    /// Checksum of raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Checksum {
        let mut h = Hasher::new();
        h.update(bytes);
        h.finish()
    }

    /// Checksum of a dataset: name, shape, dtype, attributes and payload.
    pub fn of_dataset(ds: &Dataset) -> Checksum {
        let mut h = Hasher::new();
        hash_dataset(&mut h, ds, &mut Vec::new());
        h.finish()
    }

    /// Checksum of a whole data block, order-sensitive in datasets.
    pub fn of_block(block: &DataBlock) -> Checksum {
        let mut h = Hasher::new();
        h.update(&block.id.0.to_le_bytes());
        h.update_str(&block.window);
        let mut scratch = Vec::new();
        hash_attrs(&mut h, &block.attrs, &mut scratch);
        h.update(&(block.datasets.len() as u64).to_le_bytes());
        for ds in &block.datasets {
            hash_dataset(&mut h, ds, &mut scratch);
        }
        h.finish()
    }
}

/// Absorb an attribute map; `scratch` is the one reused encode buffer.
fn hash_attrs(h: &mut Hasher, attrs: &BTreeMap<String, AttrValue>, scratch: &mut Vec<u8>) {
    h.update(&(attrs.len() as u64).to_le_bytes());
    for (k, v) in attrs {
        h.update_str(k);
        scratch.clear();
        v.encode(scratch);
        h.update(scratch);
    }
}

fn hash_dataset(h: &mut Hasher, ds: &Dataset, scratch: &mut Vec<u8>) {
    h.update_str(&ds.name);
    h.update(&[ds.dtype().tag()]);
    h.update(&(ds.shape.len() as u64).to_le_bytes());
    for &e in &ds.shape {
        h.update(&(e as u64).to_le_bytes());
    }
    hash_attrs(h, &ds.attrs, scratch);
    // `Shared` and `u8` payloads are hashed where they lie.
    ds.data.with_le_bytes(|payload| h.update(payload));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::dtype::ArrayData;

    fn block() -> DataBlock {
        DataBlock::new(BlockId(3), "fluid")
            .with_dataset(Dataset::vector("p", vec![1.0f64, 2.0]).with_attr("units", "Pa"))
            .with_attr("step", 50i64)
    }

    #[test]
    fn equal_blocks_hash_equal() {
        assert_eq!(Checksum::of_block(&block()), Checksum::of_block(&block()));
    }

    #[test]
    fn payload_change_changes_hash() {
        let a = block();
        let mut b = block();
        b.dataset_mut("p").unwrap().data.as_f64_mut().unwrap()[0] = 1.0000001;
        assert_ne!(Checksum::of_block(&a), Checksum::of_block(&b));
    }

    #[test]
    fn metadata_change_changes_hash() {
        let a = block();
        let mut b = block();
        b.attrs.insert("step".into(), 51i64.into());
        assert_ne!(Checksum::of_block(&a), Checksum::of_block(&b));
        let mut c = block();
        c.datasets[0].name = "q".into();
        assert_ne!(Checksum::of_block(&a), Checksum::of_block(&c));
    }

    #[test]
    fn shape_vs_flat_distinguished() {
        let a = Dataset::new("x", vec![4], ArrayData::F64(vec![0.0; 4])).unwrap();
        let b = Dataset::new("x", vec![2, 2], ArrayData::F64(vec![0.0; 4])).unwrap();
        assert_ne!(Checksum::of_dataset(&a), Checksum::of_dataset(&b));
    }

    #[test]
    fn str_length_prefix_prevents_concatenation_ambiguity() {
        let mut h1 = Hasher::new();
        h1.update_str("ab");
        h1.update_str("c");
        let mut h2 = Hasher::new();
        h2.update_str("a");
        h2.update_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn shared_payload_hashes_like_its_typed_twin() {
        let typed = block().with_dataset(Dataset::vector("ids", vec![7i32, -8, 9]));
        let mut shared = DataBlock::new(typed.id, typed.window.clone());
        shared.attrs = typed.attrs.clone();
        for ds in &typed.datasets {
            let mut le = Vec::new();
            ds.data.to_le_bytes(&mut le);
            let data = ArrayData::from_le_shared(ds.dtype(), ds.len(), le.into()).unwrap();
            let mut twin = Dataset::new(ds.name.clone(), ds.shape.clone(), data).unwrap();
            twin.attrs = ds.attrs.clone();
            shared.push_dataset(twin).unwrap();
        }
        assert_eq!(Checksum::of_block(&shared), Checksum::of_block(&typed));
        // Pinned at the commit before hashing moved in place: the byte
        // stream fed to FNV-1a is part of the restart contract.
        assert_eq!(Checksum::of_block(&block()), Checksum(0x23d5_4d40_a561_8864));
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(Checksum::of_bytes(&[]), Checksum(FNV_OFFSET));
    }
}
