//! Named, shaped, attributed arrays — the unit stored in SDF files.

use std::collections::BTreeMap;

use crate::attr::AttrValue;
use crate::dtype::{DType, SharedArray};
use crate::error::{Result, RocError};

/// A named, shaped array with typed metadata attributes.
///
/// This is the direct analogue of an HDF *dataset*: the paper's HDF files
/// "organize multiple datasets (both array data and metadata) in a single
/// file, support user-defined attributes for datasets, and are
/// binary-portable" (§3.2).
///
/// The payload is little-endian bytes held by refcount ([`SharedArray`]),
/// whoever produced it, so a dataset clones in O(1): only the metadata
/// (name, shape, attribute map) is copied — which is what lets the server
/// re-label datasets on the write path without duplicating their bytes.
/// Typed element access is a pane's business: convert with
/// [`SharedArray::to_typed`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name, unique within its container (block or file section).
    pub name: String,
    /// Logical shape; the product of extents must equal the data length.
    pub shape: Vec<usize>,
    /// Array payload, little-endian.
    pub data: SharedArray,
    /// User-defined attributes, ordered for deterministic encoding.
    pub attrs: BTreeMap<String, AttrValue>,
}

impl Dataset {
    /// Create a dataset, validating shape/data consistency. A typed
    /// payload (`ArrayData`, `Vec<f64>`, …) is little-endian encoded here.
    pub fn new(
        name: impl Into<String>,
        shape: Vec<usize>,
        data: impl Into<SharedArray>,
    ) -> Result<Self> {
        let (name, data) = (name.into(), data.into());
        let n = shape.iter().try_fold(1usize, |n, &e| n.checked_mul(e));
        if n != Some(data.len()) {
            return Err(RocError::Mismatch(format!(
                "dataset '{}': shape {:?} does not describe the {} elements of its data",
                name,
                shape,
                data.len()
            )));
        }
        Ok(Dataset {
            name,
            shape,
            data,
            attrs: BTreeMap::new(),
        })
    }

    /// Create a rank-1 dataset from any convertible payload.
    pub fn vector(name: impl Into<String>, data: impl Into<SharedArray>) -> Self {
        let data = data.into();
        let shape = vec![data.len()];
        Dataset {
            name: name.into(),
            shape,
            data,
            attrs: BTreeMap::new(),
        }
    }

    /// Attach an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Element datatype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Payload size in bytes (excluding name/shape/attr metadata).
    pub fn byte_len(&self) -> usize {
        self.data.byte_len()
    }

    /// Approximate total encoded size: payload plus metadata (name, shape,
    /// attributes). Used by the storage and format cost models.
    pub fn encoded_size(&self) -> usize {
        self.desc().encoded_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shape() {
        let ok = Dataset::new("p", vec![2, 3], vec![0.0f64; 6]);
        assert!(ok.is_ok());
        for shape in [vec![2, 3], vec![usize::MAX, 2, 3]] {
            let bad = Dataset::new("p", shape, vec![0.0f64; 5]);
            assert!(matches!(bad, Err(RocError::Mismatch(_))));
        }
    }

    #[test]
    fn vector_builder_sets_rank_one_shape() {
        let d = Dataset::vector("v", vec![1i32, 2, 3]);
        assert_eq!(d.shape, vec![3]);
        assert_eq!(d.dtype(), DType::I32);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn with_attr_accumulates() {
        let d = Dataset::vector("v", vec![1.0f64])
            .with_attr("units", "Pa")
            .with_attr("step", 50i64);
        assert_eq!(d.attrs.len(), 2);
        assert_eq!(d.attrs["units"].as_str().unwrap(), "Pa");
        assert_eq!(d.attrs["step"].as_int().unwrap(), 50);
    }

    #[test]
    fn encoded_size_exceeds_payload() {
        let d = Dataset::vector("pressure", vec![0.0f64; 100]).with_attr("units", "Pa");
        assert!(d.encoded_size() > d.byte_len());
        assert_eq!(d.byte_len(), 800);
    }

    #[test]
    fn zero_element_shapes_allowed() {
        let d = Dataset::new("empty", vec![0, 5], Vec::<f32>::new()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
