//! Scatter-gather segment lists: the `IoSlice`-style form of an append.
//!
//! A list of [`Segment`]s is small owned header runs interleaved with
//! refcounted payload views — what the storage backend's
//! `rocstore::SharedFs::append_segments` takes and adopts as file extents
//! without assembling it: the shared views by refcount, the owned runs
//! staged once ([`crate::rope::segment_parts`]). Messages are not built
//! this way: a block's encoder writes every header straight into one
//! staging buffer and hands the transport a [`crate::Rope`].

use bytes::Bytes;

/// One contiguous run of encoded bytes.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Small owned bytes (headers, attribute tables, markers).
    Owned(Vec<u8>),
    /// A refcounted view of payload bytes shared with their producer.
    Shared(Bytes),
}

impl Segment {
    /// The bytes of this segment.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            Segment::Shared(b) => b,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// Total byte length of a segment list.
pub fn segments_len(segments: &[Segment]) -> usize {
    segments.iter().map(|s| s.len()).sum()
}

/// Flatten a segment list into one contiguous buffer: one copy of every
/// byte. Nothing on the data path needs this any more (a flatten there
/// trips `tests/copy_budget.rs`); tests and the benchmark use it to look
/// at an encoding as flat bytes.
pub fn segments_to_vec(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(segments_len(segments));
    for s in segments {
        out.extend_from_slice(s.as_slice());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_preserves_order_and_length() {
        let segs = vec![
            Segment::Owned(vec![1u8, 2]),
            Segment::Shared(Bytes::copy_from_slice(&[3, 4, 5])),
            Segment::Owned(Vec::new()),
            Segment::Owned(vec![6]),
        ];
        assert_eq!(segments_len(&segs), 6);
        assert_eq!(segments_to_vec(&segs), vec![1, 2, 3, 4, 5, 6]);
        assert!(segs[2].is_empty());
        assert_eq!(segs[1].as_slice(), &[3, 4, 5]);
    }

    #[test]
    fn shared_segment_does_not_copy() {
        let payload = Bytes::from(vec![9u8; 1024]);
        let seg = Segment::Shared(payload.slice(8..16));
        assert_eq!(seg.len(), 8);
        drop(payload);
        assert_eq!(seg.as_slice(), &[9u8; 8]);
    }
}
