//! The workspace's one rope: a byte string held as an ordered list of
//! refcounted parts.
//!
//! A snapshot byte is materialised once (`rocsdf::encode_block` of a pane
//! described where it lies) and from there on only *referred to*: a
//! message is the rope of its header runs and payload views (`rocnet`), a
//! file image is the rope of the extents appended to it and a read the
//! pieces of them it covers (`rocstore`, [`Rope::spans`]), and a decoder
//! walks any of them with a [`Cursor`] whose reads are windows, not copies.
//! Parts are immutable [`Bytes`]: cloning, slicing and selecting a rope
//! move handles, never bytes, and whatever was cut from a rope keeps
//! reading what it read when it was cut.
//!
//! A rope of one part — every plain `send`, every collective — holds that
//! part inline: it costs no allocation the bare `Bytes` would not.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

use crate::error::{Result, RocError};
use crate::segment::Segment;

#[derive(Clone, Debug, Default)]
enum Parts {
    #[default]
    Empty,
    /// Inline: no list, no allocation beside the part's own.
    One(Bytes),
    /// A list of parts, none empty, behind one refcount so a clone is O(1)
    /// however long the list. Two or more, or room reserved for them.
    Many(Arc<Vec<Bytes>>),
}

/// An immutable byte string in refcounted parts. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Rope {
    parts: Parts,
    len: usize,
}

impl From<Bytes> for Rope {
    /// O(1), no allocation: the rope *is* the handle.
    fn from(part: Bytes) -> Rope {
        Rope { len: part.len(), parts: Parts::One(part) }
    }
}

/// The parts a scatter-gather list becomes, in order: every
/// [`Segment::Shared`] view adopted by refcount, every [`Segment::Owned`]
/// run a slice of one exact-size staging buffer all of them are copied
/// into once — here, when the iterator is made, so a caller can stage
/// before it takes a lock and adopt under it. Empty segments make no part.
pub fn segment_parts(segments: &[Segment]) -> impl Iterator<Item = Bytes> + '_ {
    let owned = || {
        segments.iter().filter_map(|s| match s {
            Segment::Owned(run) => Some(run.as_slice()),
            Segment::Shared(_) => None,
        })
    };
    let mut stage = Vec::with_capacity(owned().map(<[u8]>::len).sum());
    for run in owned() {
        stage.extend_from_slice(run);
    }
    let stage = Bytes::from(stage);
    let mut staged = 0;
    segments.iter().filter(|s| !s.is_empty()).map(move |s| match s {
        Segment::Owned(run) => {
            staged += run.len();
            stage.slice(staged - run.len()..staged)
        }
        Segment::Shared(view) => view.clone(),
    })
}

impl Extend<Bytes> for Rope {
    /// Append parts by refcount.
    fn extend<I: IntoIterator<Item = Bytes>>(&mut self, parts: I) {
        let parts = parts.into_iter();
        let (least, most) = parts.size_hint();
        self.reserve(most.unwrap_or(least));
        for part in parts {
            self.push(part);
        }
    }
}

impl Rope {
    /// The empty rope.
    pub fn new() -> Rope {
        Rope::default()
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parts, in order.
    pub fn parts(&self) -> &[Bytes] {
        match &self.parts {
            Parts::Empty => &[],
            Parts::One(part) => std::slice::from_ref(part),
            Parts::Many(parts) => parts,
        }
    }

    /// Make room for `more` parts with one allocation instead of the
    /// list's amortised growth.
    pub fn reserve(&mut self, more: usize) {
        if let Parts::Many(list) = &mut self.parts {
            return Arc::make_mut(list).reserve(more);
        }
        let held = usize::from(self.len > 0);
        if held + more >= 2 {
            let mut list = Vec::with_capacity(held + more);
            list.extend(self.parts().iter().filter(|p| !p.is_empty()).cloned());
            self.parts = Parts::Many(Arc::new(list));
        }
    }

    /// Append one part by refcount (an empty one is dropped).
    pub fn push(&mut self, part: Bytes) {
        if part.is_empty() {
            return;
        }
        self.len += part.len();
        match &mut self.parts {
            Parts::Many(list) => Arc::make_mut(list).push(part),
            Parts::One(first) if !first.is_empty() => {
                self.parts = Parts::Many(Arc::new(vec![first.clone(), part]));
            }
            _ => self.parts = Parts::One(part),
        }
    }

    /// A new rope made of this one's `(offset, len)` ranges in the order
    /// given, sharing the parts: O(parts + ranges · log parts), no byte
    /// moves. Ranges must lie inside the rope (callers check).
    pub fn select(&self, ranges: &[(usize, usize)]) -> Rope {
        let starts = self.starts();
        let mut out = Rope::new();
        out.reserve(ranges.len());
        for &range in ranges {
            for (part, span) in self.spans(&starts, range) {
                out.push(part.slice(span));
            }
        }
        out
    }

    /// Where each part starts, in order: the table [`Rope::spans`] and
    /// [`Rope::window`] search.
    pub fn starts(&self) -> Vec<usize> {
        let mut end = 0;
        let starts = self.parts().iter().map(|p| {
            end += p.len();
            end - p.len()
        });
        starts.collect()
    }

    /// The parts the `(offset, len)` range lies across, in order, each with
    /// the span of it the range covers: a binary search, then a step per
    /// part, nothing allocated. `starts` is this rope's [`Rope::starts`];
    /// the range must lie inside the rope (callers check).
    pub fn spans<'s>(
        &'s self,
        starts: &'s [usize],
        (offset, len): (usize, usize),
    ) -> impl Iterator<Item = (&'s Bytes, Range<usize>)> + 's {
        let end = offset + len;
        // The part holding `offset`: the last one starting at or before it.
        let first = starts.partition_point(|&s| s <= offset).saturating_sub(1);
        (self.parts()[first..].iter().zip(&starts[first..]))
            .take_while(move |&(_, &start)| start < end && len > 0)
            .map(move |(part, &start)| {
                (part, offset.saturating_sub(start)..part.len().min(end - start))
            })
    }

    /// The range of [`Rope::spans`] as one buffer: a window of the part it
    /// lies in, or a gather copy of the range alone if it spans parts.
    pub fn window(&self, starts: &[usize], range: (usize, usize)) -> Bytes {
        match self.spans(starts, range).next() {
            Some((part, span)) if span.len() == range.1 => part.slice(span),
            None => Bytes::new(),
            Some(_) => self.select(&[range]).into_bytes(),
        }
    }

    /// The whole rope as one contiguous buffer: the part itself when there
    /// is one (O(1), no copy), one gather copy otherwise.
    pub fn into_bytes(self) -> Bytes {
        match self.parts {
            Parts::Empty => Bytes::new(),
            Parts::One(part) => part,
            Parts::Many(list) => match &list[..] {
                [part] => part.clone(),
                parts => {
                    let mut flat = Vec::with_capacity(self.len);
                    for p in parts {
                        flat.extend_from_slice(p);
                    }
                    flat.into()
                }
            },
        }
    }

    /// A decode cursor at the rope's first byte.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor::over(self.parts(), self.len)
    }
}

/// The checked decode cursor over a list of parts (a [`Rope`]'s, one
/// `Bytes` through [`std::slice::from_ref`], or one borrowed slice) — the
/// only place a length read from untrusted bytes turns into a view: every
/// read is checked against what remains first (`pos + n` cannot wrap), so a
/// hostile length is [`RocError::Corrupt`] in every build profile and a
/// refused read does not move the cursor.
///
/// Fixed-width fields are copied out (they may straddle parts); a run read
/// with [`Cursor::take`] comes back as a zero-copy window whenever it lies
/// inside one part, which is where every payload of a block's records lies
/// as its encoder made them.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    parts: &'a [Bytes],
    /// The part the next byte lies in, and what of it is still unread:
    /// never empty while a later part has bytes.
    part: usize,
    rest: &'a [u8],
    /// Offset of the next byte from the first part's start.
    pos: usize,
    /// Offset this cursor may not read past.
    end: usize,
}

impl<'a> From<&'a Bytes> for Cursor<'a> {
    /// A cursor over one buffer: the one-part rope it would make.
    fn from(bytes: &'a Bytes) -> Cursor<'a> {
        Cursor::new(std::slice::from_ref(bytes))
    }
}

impl<'a> From<&'a [u8]> for Cursor<'a> {
    /// A cursor over one borrowed run (a control message, an index region):
    /// the same checks; a [`Cursor::take`] copies, having no handle to share.
    fn from(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { parts: &[], part: 0, rest: bytes, pos: 0, end: bytes.len() }
    }
}

impl<'a> Cursor<'a> {
    pub fn new(parts: &'a [Bytes]) -> Cursor<'a> {
        Cursor::over(parts, parts.iter().map(Bytes::len).sum())
    }

    fn over(parts: &'a [Bytes], end: usize) -> Cursor<'a> {
        let rest = parts.first().map_or(&[][..], |p| p);
        let mut cur = Cursor { parts, part: 0, rest, pos: 0, end };
        cur.settle();
        cur
    }

    /// Offset of the next byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    // `#[inline]` here and on the fixed-width reads below: they are the
    // per-field steps of every record and message header and are called
    // from other crates; as calls they made a header decode about a tenth
    // slower.
    #[inline]
    fn check(&self, n: usize, what: &str) -> Result<()> {
        if n > self.remaining() {
            return Err(RocError::Corrupt(format!(
                "truncated {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Once a part is read through, move on to the next one with bytes.
    #[inline]
    fn settle(&mut self) {
        while self.rest.is_empty() && self.part + 1 < self.parts.len() {
            self.part += 1;
            self.rest = &self.parts[self.part];
        }
    }

    /// Advance past the next `n` bytes (checked by the caller), handing
    /// each contiguous piece of them to `piece`.
    fn walk(&mut self, mut n: usize, mut piece: impl FnMut(&'a [u8])) {
        self.pos += n;
        while n > 0 {
            let (head, tail) = self.rest.split_at(n.min(self.rest.len()));
            piece(head);
            n -= head.len();
            self.rest = tail;
            self.settle();
        }
    }

    /// If the next `n` bytes (checked by the caller) lie inside one part,
    /// advance past them and return them.
    fn within(&mut self, n: usize) -> Option<&'a [u8]> {
        (n <= self.rest.len()).then(|| {
            let (run, rest) = self.rest.split_at(n);
            (self.rest, self.pos) = (rest, self.pos + n);
            self.settle();
            run
        })
    }

    /// The next `n` bytes gathered into one buffer.
    fn gather(&mut self, n: usize) -> Vec<u8> {
        let mut flat = Vec::with_capacity(n);
        self.walk(n, |piece| flat.extend_from_slice(piece));
        flat
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, n: usize, what: &str) -> Result<()> {
        self.check(n, what)?;
        self.walk(n, |_| {});
        Ok(())
    }

    /// `read` over all the cursor holds: bytes it leaves unread are
    /// refused, so a message decodes only as exactly what its encoder
    /// wrote.
    pub fn whole<T>(mut self, what: &str, read: impl FnOnce(&mut Cursor<'a>) -> Result<T>) -> Result<T> {
        let value = read(&mut self)?;
        match self.remaining() {
            0 => Ok(value),
            n => Err(RocError::Corrupt(format!("{n} bytes after a whole {what}"))),
        }
    }

    /// A cursor over the next `n` bytes alone, which this one skips: how a
    /// length-prefixed inner message is decoded without trusting it to
    /// stop at its own end.
    pub fn sub(&mut self, n: usize, what: &str) -> Result<Cursor<'a>> {
        let mut inner = self.clone();
        self.skip(n, what)?;
        inner.end = self.pos;
        Ok(inner)
    }

    /// The next `n` bytes as one shared buffer: a zero-copy window of the
    /// part they lie in, or one gather copy if they straddle parts.
    pub fn take(&mut self, n: usize, what: &str) -> Result<Bytes> {
        self.check(n, what)?;
        // The part the run starts in, before `within` moves off it.
        let part = self.parts.get(self.part).map(|p| (p, p.len() - self.rest.len()));
        Ok(match (self.within(n), part) {
            (Some(_), Some((part, at))) => part.slice(at..at + n),
            (Some(run), None) => Bytes::copy_from_slice(run),
            (None, _) => self.gather(n).into(),
        })
    }

    /// The next `n` bytes pushed onto `rope` as they lie — a window of the
    /// rest of each part they cross, or less (a copy, over a borrowed
    /// slice), the part list grown once: a run forwarded, not gathered.
    pub fn take_into(&mut self, n: usize, what: &str, rope: &mut Rope) -> Result<()> {
        self.check(n, what)?;
        let mut pieces = 0;
        self.clone().walk(n, |_| pieces += 1);
        rope.reserve(pieces);
        let end = self.pos + n;
        while self.pos < end {
            rope.push(self.take((end - self.pos).min(self.rest.len()), what)?);
        }
        Ok(())
    }

    /// The next `n` bytes as one contiguous run to look at: borrowed from
    /// the part they lie in, gathered if they straddle parts.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<Cow<'a, [u8]>> {
        self.check(n, what)?;
        Ok(match self.within(n) {
            Some(run) => Cow::Borrowed(run),
            None => Cow::Owned(self.gather(n)),
        })
    }

    /// The next `N` bytes, copied out.
    #[inline]
    pub fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        self.check(N, what)?;
        if let Some((head, tail)) = self.rest.split_first_chunk::<N>() {
            (self.rest, self.pos) = (tail, self.pos + N);
            self.settle();
            return Ok(*head);
        }
        let (mut out, mut done) = ([0u8; N], 0);
        self.walk(N, |piece| {
            out[done..done + piece.len()].copy_from_slice(piece);
            done += piece.len();
        });
        Ok(out)
    }

    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    #[inline]
    pub fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// The `u16`-length-prefixed UTF-8 string next (record, attribute and
    /// window names everywhere), to look at: borrowed from the part it
    /// lies in, gathered if it straddles parts.
    pub fn str16_ref(&mut self, what: &str) -> Result<Cow<'a, str>> {
        let n = self.u16(what)? as usize;
        let not_utf8 = || RocError::Corrupt(format!("{what}: name is not utf-8"));
        match self.bytes(n, what)? {
            Cow::Borrowed(run) => std::str::from_utf8(run).map(Cow::Borrowed).map_err(|_| not_utf8()),
            Cow::Owned(run) => String::from_utf8(run).map(Cow::Owned).map_err(|_| not_utf8()),
        }
    }

    /// [`Cursor::str16_ref`], owned.
    pub fn str16(&mut self, what: &str) -> Result<String> {
        Ok(self.str16_ref(what)?.into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rope_of(chunks: &[Vec<u8>]) -> Rope {
        let mut rope = Rope::new();
        for c in chunks {
            rope.push(Bytes::copy_from_slice(c));
        }
        rope
    }

    fn flat(rope: &Rope) -> Vec<u8> {
        rope.parts().iter().flat_map(|p| p.iter().copied()).collect()
    }

    #[test]
    fn one_part_is_held_inline_and_comes_back_as_itself() {
        let part = Bytes::from(vec![7u8; 64]);
        let rope = Rope::from(part.clone());
        assert!(matches!(rope.parts, Parts::One(_)), "no list for one part");
        assert_eq!(rope.parts()[0].as_ptr(), part.as_ptr());
        assert_eq!(rope.clone().into_bytes().as_ptr(), part.as_ptr(), "into_bytes is the part");
        // An empty message is a part like any other: the handle given is
        // the handle returned.
        let empty = Bytes::new();
        assert_eq!(Rope::from(empty.clone()).into_bytes().as_ptr(), empty.as_ptr());
        // Pushing onto nothing, or onto an empty part, stays inline.
        let mut grown = Rope::from(empty);
        grown.push(part.clone());
        assert!(matches!(grown.parts, Parts::One(_)));
        assert_eq!(std::mem::size_of::<Rope>(), 5 * std::mem::size_of::<usize>());
    }

    #[test]
    fn a_clone_of_many_parts_shares_the_list() {
        let rope = rope_of(&[vec![1, 2], vec![], vec![3], vec![4, 5, 6]]);
        assert_eq!(rope.parts().len(), 3, "empty parts are dropped");
        let (Parts::Many(a), Parts::Many(b)) = (&rope.parts, &rope.clone().parts) else {
            panic!("three parts are a list");
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(rope.into_bytes(), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_window_inside_a_part_is_that_part_and_across_parts_a_copy_of_the_range() {
        let rope = rope_of(&[vec![1, 2, 3], vec![4], vec![5, 6]]);
        let starts = rope.starts();
        assert_eq!(starts, [0, 3, 4]);
        let inside = rope.window(&starts, (1, 2));
        assert_eq!((inside.as_ptr(), inside.len()), (rope.parts()[0][1..].as_ptr(), 2));
        assert_eq!(rope.window(&starts, (3, 1)).as_ptr(), rope.parts()[1].as_ptr());
        assert_eq!(rope.window(&starts, (2, 4)), [3, 4, 5, 6]);
        assert!(rope.window(&starts, (6, 0)).is_empty());
        let spans: Vec<_> = rope.spans(&starts, (2, 3)).map(|(p, s)| (p.as_ptr(), s)).collect();
        let ptr = |i: usize| rope.parts()[i].as_ptr();
        assert_eq!(spans, [(ptr(0), 2..3), (ptr(1), 0..1), (ptr(2), 0..1)]);
        assert_eq!(rope.spans(&starts, (4, 0)).count(), 0);
        assert!(Rope::new().starts().is_empty());
        assert!(Rope::new().window(&[], (0, 0)).is_empty());
    }

    #[test]
    fn take_into_forwards_the_parts_as_they_lie() {
        let rope = rope_of(&[vec![1, 2, 3], vec![4, 5], vec![6]]);
        let mut cur = rope.cursor();
        cur.skip(1, "x").unwrap();
        let mut out = Rope::from(Bytes::copy_from_slice(b"hd"));
        cur.take_into(4, "x", &mut out).unwrap();
        assert_eq!(out.clone().into_bytes(), [b'h', b'd', 2, 3, 4, 5]);
        let ptrs: Vec<_> = out.parts().iter().map(|p| p.as_ptr()).collect();
        assert_eq!(ptrs[1..], [rope.parts()[0][1..].as_ptr(), rope.parts()[1].as_ptr()]);
        assert_eq!((cur.pos(), cur.u8("x").unwrap()), (5, 6));
        assert!(cur.take_into(1, "x", &mut out).is_err(), "past the end");
        // A borrowed slice has no parts to share: its run is copied.
        let mut flat = Rope::new();
        Cursor::from(&[7u8, 8, 9][..]).take_into(2, "x", &mut flat).unwrap();
        assert_eq!(flat.into_bytes(), [7, 8]);
    }

    #[test]
    fn segment_parts_adopt_shared_views_and_stage_owned_runs_once() {
        let payload = Bytes::from(vec![9u8; 32]);
        let segs = [
            Segment::Owned(b"head".to_vec()),
            Segment::Shared(payload.slice(4..)),
            Segment::Owned(Vec::new()),
            Segment::Shared(Bytes::new()),
            Segment::Owned(b"tail".to_vec()),
        ];
        let mut rope = Rope::new();
        rope.extend(segment_parts(&segs));
        assert_eq!(flat(&rope), crate::segments_to_vec(&segs));
        let [head, shared, tail] = rope.parts() else { panic!("empty segments make no part") };
        assert_eq!(shared.as_ptr(), payload[4..].as_ptr(), "shared view adopted, not copied");
        assert_eq!(tail.as_ptr(), head[4..].as_ptr(), "owned runs share one staging buffer");
        assert_eq!(segment_parts(&[]).count(), 0);
    }

    #[test]
    fn take_is_a_window_inside_a_part_and_a_copy_across_parts() {
        let rope = rope_of(&[vec![1, 2, 3, 4], vec![], vec![5, 6, 7, 8]]);
        let mut cur = rope.cursor();
        assert_eq!(cur.take(0, "x").unwrap().len(), 0);
        let w = cur.take(3, "x").unwrap();
        assert_eq!(w.as_ptr(), rope.parts()[0].as_ptr(), "window of the first part");
        let across = cur.take(2, "x").unwrap();
        assert_eq!(across, [4, 5]);
        // Exactly the rest of a part, starting at its edge after a straddle.
        let edge = cur.take(3, "x").unwrap();
        assert_eq!(edge.as_ptr(), rope.parts()[1][1..].as_ptr());
        assert_eq!((cur.pos(), cur.remaining()), (8, 0));
        assert_eq!(cur.take(0, "x").unwrap().len(), 0);
        let e = cur.take(1, "record").unwrap_err();
        assert!(e.to_string().contains("truncated record"), "{e}");
        // A whole part taken from its first byte is that part.
        let mut cur = rope.cursor();
        cur.skip(4, "x").unwrap();
        assert_eq!(cur.take(4, "x").unwrap().as_ptr(), rope.parts()[1].as_ptr());
    }

    #[test]
    fn sub_cursor_stops_where_its_length_says() {
        let rope = rope_of(&[vec![2, 0, b'o'], vec![b'k', 9, 9], vec![7]]);
        let mut cur = rope.cursor();
        let mut inner = cur.sub(4, "x").unwrap();
        assert_eq!(inner.str16("x").unwrap(), "ok");
        assert!(inner.u8("x").is_err(), "the parent's bytes are out of reach");
        assert_eq!((cur.pos(), cur.u16("x").unwrap(), cur.u8("x").unwrap()), (4, 0x0909, 7));
        assert!(cur.sub(1, "x").is_err());
        assert!(rope.cursor().sub(usize::MAX, "x").is_err());
        let bad = rope_of(&[vec![2, 0, 0xff], vec![0xfe]]);
        assert!(bad.cursor().str16("x").is_err(), "not utf-8");
    }

    #[test]
    fn a_borrowed_slice_reads_under_the_same_checks() {
        let named = [2, 0, b'o', b'k', 3, 0, b'n', 0xff, b'o', 9, 0];
        let mut cur = Cursor::from(&named[..]);
        assert_eq!(cur.str16_ref("x").unwrap(), Cow::Borrowed("ok"));
        assert!(cur.clone().str16("x").is_err(), "not utf-8");
        cur.skip(5, "x").unwrap();
        assert!(cur.clone().str16("x").is_err(), "longer than the input");
        assert_eq!(cur.take(2, "x").unwrap(), [9, 0]);
        for n in [1, usize::MAX - 4, usize::MAX] {
            let e = cur.bytes(n, "record").unwrap_err();
            assert!(e.to_string().contains("truncated record"), "{e}");
            assert_eq!((cur.pos(), cur.remaining()), (11, 0), "a refused read must not move the cursor");
        }
    }

    /// One cursor read, replayed against the flat model.
    #[derive(Debug, Clone)]
    enum Read {
        Take(usize),
        Bytes(usize),
        Skip(usize),
        U32,
        U64,
    }

    fn arb_read() -> impl Strategy<Value = Read> {
        prop_oneof![
            (0usize..24).prop_map(Read::Take),
            (0usize..24).prop_map(Read::Bytes),
            (0usize..24).prop_map(Read::Skip),
            Just(Read::U32),
            Just(Read::U64),
        ]
    }

    proptest! {
        // Whatever the cuts — empty parts, one-byte parts, cuts inside a
        // field — a rope reads exactly as the flat bytes it stands for.
        #[test]
        fn a_rope_reads_as_its_flat_model(
            chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..8),
            ranges in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..5),
            reads in prop::collection::vec(arb_read(), 0..12),
        ) {
            let rope = rope_of(&chunks);
            let model = chunks.concat();
            prop_assert_eq!(rope.len(), model.len());
            prop_assert!(rope.parts().iter().all(|p| !p.is_empty()));
            prop_assert_eq!(&flat(&rope), &model);
            prop_assert_eq!(rope.clone().into_bytes(), model.clone());

            let ranges: Vec<(usize, usize)> = ranges
                .iter()
                .map(|(o, l)| {
                    let o = o.index(model.len() + 1);
                    (o, l.index(model.len() - o + 1))
                })
                .collect();
            let picked: Vec<u8> = ranges.iter().flat_map(|&(o, l)| &model[o..o + l]).copied().collect();
            let selected = rope.select(&ranges);
            prop_assert_eq!(selected.len(), picked.len());
            prop_assert_eq!(flat(&selected), picked);
            let starts = rope.starts();
            for &(o, l) in &ranges {
                prop_assert_eq!(rope.window(&starts, (o, l)), &model[o..o + l]);
                let mut forwarded = Rope::new();
                let mut cur = rope.cursor();
                cur.skip(o, "x").unwrap();
                cur.take_into(l, "x", &mut forwarded).unwrap();
                prop_assert_eq!(forwarded.parts().len(), rope.spans(&starts, (o, l)).count());
                prop_assert_eq!(flat(&forwarded), &model[o..o + l]);
            }

            // The same reads over the parts and over the model as one
            // borrowed slice.
            for mut cur in [rope.cursor(), Cursor::from(&model[..])] {
                let mut pos = 0usize;
                for read in &reads {
                    let n = match *read {
                        Read::Take(n) | Read::Bytes(n) | Read::Skip(n) => n,
                        Read::U32 => 4,
                        Read::U64 => 8,
                    };
                    let want = model.get(pos..pos + n);
                    let got: Option<Vec<u8>> = match *read {
                        Read::Take(n) => cur.take(n, "x").ok().map(|b| b.to_vec()),
                        Read::Bytes(n) => cur.bytes(n, "x").ok().map(|b| b.into_owned()),
                        Read::Skip(n) => cur.skip(n, "x").ok().map(|_| model[pos..pos + n].to_vec()),
                        Read::U32 => cur.u32("x").ok().map(|v| v.to_le_bytes().to_vec()),
                        Read::U64 => cur.u64("x").ok().map(|v| v.to_le_bytes().to_vec()),
                    };
                    prop_assert_eq!(got.as_deref(), want);
                    // A refused read leaves the cursor where it was.
                    pos += want.map_or(0, <[u8]>::len);
                    prop_assert_eq!((cur.pos(), cur.remaining()), (pos, model.len() - pos));
                }
            }
        }
    }
}
