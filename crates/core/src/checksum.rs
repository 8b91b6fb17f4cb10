//! Deterministic content checksums for round-trip verification.
//!
//! Restart correctness (snapshot → read-back equality) is a core invariant
//! of both I/O libraries. The integration tests and the restart path use
//! this checksum to compare block contents cheaply without shipping full
//! copies around.
//!
//! The kernel reads a field as 64-bit little-endian words, 32 bytes at a
//! time into four independent multiply-xor-rotate-multiply lanes, each
//! with its own odd multiplier — a multiply's latency is paid once per
//! four words, not once per byte, which is the difference between 0.7
//! and some 10 GB/s — then folds the lanes, the words and bytes left
//! over, and the field's length into the running state. Every step is a
//! bijection of the state for a fixed input and of the input for a fixed
//! state, so a change confined to one word — any single-bit flip —
//! always changes the value; swapped words, moved field boundaries and
//! added bytes change it with all but 2⁻⁶⁴ probability.
//!
//! A checksum value is compared only with another computed in the same
//! process (`Rocman::measure_restart`, `RestartReport::state_hash`,
//! tests) and is never written to a file, so the algorithm — and with it
//! every value — may change between versions of this crate; the vectors
//! pinned in the tests below are there to make such a change deliberate.
//! (The integrity value that *is* persisted is `rocsdf`'s `__crc32__`.)

use crate::block::DataBlock;
use crate::desc::{Attrs, BlockDesc, DatasetDesc};

/// 64-bit content checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checksum(pub u64);

/// One odd multiplier per lane: distinct, so a word moved to another
/// lane is mixed differently.
const LANE_MUL: [u64; 4] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];
/// The multiplier every round ends on (odd).
const ROUND_MUL: u64 = 0x9FB2_1C65_1E98_DF25;
/// State of a hasher that has absorbed nothing.
const SEED: u64 = 0x27D4_EB2F_1656_67C5;
/// Bytes per stripe: one word for each lane.
const STRIPE: usize = 8 * LANE_MUL.len();

/// Absorb one word into a lane (or the running state). The word is
/// spread over the high bits by its own multiply before it meets the
/// state, and the state's high bits are rotated under the second, so no
/// input bit is left where one flipped bit of a later word could cancel
/// it.
#[inline(always)]
fn mix(state: u64, word: u64, mul: u64) -> u64 {
    (state ^ word.wrapping_mul(mul)).rotate_left(31).wrapping_mul(ROUND_MUL)
}

/// Incremental hasher. Each [`Hasher::update`] call is one *field*: its
/// length is absorbed with its bytes, so `update(a); update(b)` and
/// `update(ab)` differ.
#[derive(Debug, Clone)]
pub(crate) struct Hasher {
    state: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher { state: SEED }
    }
}

/// One field on its way into a `Hasher`, absorbed in as many pieces as
/// the caller has it in: the value is that of one `Hasher::update` over
/// the pieces laid end to end, wherever the cuts fall. Bytes short of a
/// stripe wait here for the next piece.
pub struct Field {
    lanes: [u64; LANE_MUL.len()],
    pending: [u8; STRIPE],
    n_pending: usize,
    len: u64,
}

#[inline(always)]
fn absorb_stripe(lanes: &mut [u64; LANE_MUL.len()], stripe: &[u8; STRIPE]) {
    let (words, _) = stripe.as_chunks::<8>();
    for ((lane, word), mul) in lanes.iter_mut().zip(words).zip(LANE_MUL) {
        *lane = mix(*lane, u64::from_le_bytes(*word), mul);
    }
}

impl Field {
    /// Absorb the field's next bytes.
    #[inline]
    pub fn absorb(&mut self, mut piece: &[u8]) {
        self.len += piece.len() as u64;
        if self.n_pending > 0 {
            let take = piece.len().min(STRIPE - self.n_pending);
            self.pending[self.n_pending..self.n_pending + take].copy_from_slice(&piece[..take]);
            self.n_pending += take;
            piece = &piece[take..];
            if self.n_pending < STRIPE {
                return;
            }
            absorb_stripe(&mut self.lanes, &self.pending);
        }
        let (stripes, rest) = piece.as_chunks::<STRIPE>();
        for stripe in stripes {
            absorb_stripe(&mut self.lanes, stripe);
        }
        self.pending[..rest.len()].copy_from_slice(rest);
        self.n_pending = rest.len();
    }
}

impl Hasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb one field of raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        self.update_pieces(|field| field.absorb(bytes));
    }

    /// Absorb one field that `feed` hands over piece by piece — a typed
    /// array encoded through a small buffer, say — to the value
    /// [`Hasher::update`] gives the whole.
    #[inline]
    pub(crate) fn update_pieces(&mut self, feed: impl FnOnce(&mut Field)) {
        let mut field = Field {
            lanes: LANE_MUL.map(|mul| self.state ^ mul),
            pending: [0; STRIPE],
            n_pending: 0,
            len: 0,
        };
        feed(&mut field);
        let mut state = self.state;
        for (lane, mul) in field.lanes.into_iter().zip(LANE_MUL) {
            state = mix(state, lane, mul);
        }
        // Fewer than four words are left: a short field, or a long one's
        // tail. The last word is zero-padded; the length tells `[1]`
        // from `[1, 0]`.
        for tail in field.pending[..field.n_pending].chunks(8) {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            state = mix(state, u64::from_le_bytes(word), LANE_MUL[0]);
        }
        self.state = mix(state, field.len, LANE_MUL[1]);
    }

    /// Absorb a string (a field of its own, so adjacent strings cannot
    /// trade characters).
    pub(crate) fn update_str(&mut self, s: &str) {
        self.update(s.as_bytes());
    }

    /// Finish and return the checksum: the state through a bijective
    /// avalanche, so every input bit reaches every bit of the value
    /// (block checksums are XOR-combined into `state_hash`).
    pub fn finish(&self) -> Checksum {
        let mut x = self.state;
        x ^= x >> 32;
        x = x.wrapping_mul(LANE_MUL[0]);
        x ^= x >> 29;
        x = x.wrapping_mul(LANE_MUL[2]);
        x ^= x >> 32;
        Checksum(x)
    }
}

impl Checksum {
    /// Checksum of raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Checksum {
        let mut h = Hasher::new();
        h.update(bytes);
        h.finish()
    }

    /// Checksum of a whole data block, order-sensitive in datasets.
    pub fn of_block(block: &DataBlock) -> Checksum {
        Checksum::of_desc(block)
    }

    /// [`Checksum::of_block`] of a block that is described instead of
    /// built — a pane hashed where it lies (`roccom::convert::pane_checksum`)
    /// as much as a block at hand: its head, then each dataset's metadata
    /// with the payload fed in pieces, every value read where its owner
    /// holds it. This is where a block checksum's field order is written
    /// down.
    pub fn of_desc(block: &(impl BlockDesc + ?Sized)) -> Checksum {
        let mut h = Hasher::new();
        h.update(&block.id().0.to_le_bytes());
        h.update_str(block.window());
        block.with_attrs(|attrs| hash_attrs(&mut h, attrs));
        h.update(&(block.n_datasets() as u64).to_le_bytes());
        block.for_each_dataset(|ds| hash_dataset(&mut h, ds));
        h.finish()
    }
}

/// Absorb an attribute table, each value a field of its own fed in the
/// pieces it is encoded in.
fn hash_attrs(h: &mut Hasher, attrs: Attrs<'_>) {
    h.update(&(attrs.len() as u64).to_le_bytes());
    for (k, v) in attrs.iter() {
        h.update_str(k);
        h.update_pieces(|field| v.write(|piece| field.absorb(piece)));
    }
}

fn hash_dataset(h: &mut Hasher, ds: &DatasetDesc<'_>) {
    h.update_str(ds.name);
    h.update(&[ds.dtype.tag()]);
    h.update(&(ds.shape.len() as u64).to_le_bytes());
    for &e in ds.shape {
        h.update(&(e as u64).to_le_bytes());
    }
    hash_attrs(h, ds.attrs);
    h.update_pieces(|field| ds.payload.absorb(field));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::dataset::Dataset;

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
        b.dataset_mut("p").unwrap().data = vec![1.0000001f64, 2.0].into();
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
        let of = |shape| {
            let ds = Dataset::new("x", shape, vec![0.0f64; 4]).unwrap();
            Checksum::of_block(&DataBlock::new(BlockId(3), "fluid").with_dataset(ds))
        };
        assert_ne!(of(vec![4]), of(vec![2, 2]));
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

    proptest::proptest! {
        /// A field absorbed in pieces is the field: cuts anywhere — inside
        /// a word, inside a stripe, several at one offset (empty pieces).
        #[test]
        fn a_field_in_pieces_hashes_as_one_update(
            len in 0usize..700,
            cuts in proptest::collection::vec(proptest::prelude::any::<proptest::sample::Index>(), 0..12),
        ) {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(len + 1)).collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            let mut whole = Hasher::new();
            whole.update_str("before");
            let mut pieces = whole.clone();
            whole.update(&bytes);
            pieces.update_pieces(|field| {
                for pair in cuts.windows(2) {
                    field.absorb(&bytes[pair[0]..pair[1]]);
                }
            });
            proptest::prop_assert_eq!(whole.finish(), pieces.finish());
        }
    }

    #[test]
    fn a_field_nothing_was_fed_is_the_empty_field() {
        let (mut whole, mut pieces) = (Hasher::new(), Hasher::new());
        whole.update(&[]);
        pieces.update_pieces(|_| {});
        assert_eq!(whole.finish(), pieces.finish());
    }

    #[test]
    fn known_vectors() {
        assert_eq!(Checksum::of_bytes(&[]), Checksum(0x2ea1_3a55_3e6c_d033));
        // One byte short of a stripe, one stripe, one byte over.
        let bytes: Vec<u8> = (0u8..33).collect();
        assert_eq!(Checksum::of_bytes(&bytes[..31]), Checksum(0x108f_ddde_1ad7_daf7));
        assert_eq!(Checksum::of_bytes(&bytes[..32]), Checksum(0x3c9b_2ada_7e1d_72bb));
        assert_eq!(Checksum::of_bytes(&bytes), Checksum(0x2f17_63eb_6383_b866));
        // A whole block. Values live only within one process, so the
        // kernel may change them, but not by accident.
        assert_eq!(Checksum::of_block(&block()), Checksum(0x3c30_81e9_f2b5_76fb));
    }

    #[test]
    fn known_vectors_at_every_element_size_and_stripe_edge() {
        // Payloads of 1, 31, 32, 33 and 4097 elements of 1, 4 and 8 bytes:
        // under, on and over a stripe, and whole stripes with a ragged
        // tail, as every dtype lays them out. Recorded from the kernel as
        // PR 15 left it.
        let bytes: Vec<u8> = (0..4097 * 8).map(|i| (i * 37 + 11) as u8).collect();
        let pinned: [(usize, u64); 15] = [
            (1, 0x016a_a6cb_417d_939f), (4, 0x3dcb_39e3_da5c_6f5e), (8, 0x4d10_9987_6e6b_212b),
            (31, 0x934e_1142_8fd0_89bc), (124, 0x345d_e1f1_084e_df2c), (248, 0xf7bf_1c16_2754_60a2),
            (32, 0x203c_cfaf_ff15_ac00), (128, 0xbfe9_72bb_6296_6474), (256, 0x6d81_f2ec_f8f7_f2c7),
            (33, 0xb745_2900_7b0c_5010), (132, 0x94bd_2af6_bacc_826c), (264, 0xe218_2f28_b195_e5b8),
            (4097, 0x6954_3913_a4f6_e157), (16388, 0x5e71_efb2_39f8_0723), (32776, 0x551b_1a72_cbd1_1dea),
        ];
        for (len, want) in pinned {
            assert_eq!(Checksum::of_bytes(&bytes[..len]), Checksum(want), "{len} bytes");
        }
    }
}
