//! Packed per-node flag set for wave reception masks.
//!
//! Broadcast waves need one boolean per node ("did the payload reach
//! it?"). A `Vec<bool>` spends a byte per node and — when allocated per
//! wave — a heap round-trip per round. [`NodeBits`] packs the flags into
//! `u64` words and is designed to be *reused*: [`NodeBits::reset`] keeps
//! the backing allocation, so steady-state waves perform no heap
//! allocation at all (see `tests/alloc_steady_state.rs`).

/// A fixed-length bitset indexed by node position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeBits {
    words: Vec<u64>,
    len: usize,
}

impl NodeBits {
    /// An empty bitset (no backing storage until the first [`reset`]).
    ///
    /// [`reset`]: NodeBits::reset
    pub fn new() -> Self {
        NodeBits::default()
    }

    /// Clears the set and resizes it to `len` bits, all zero. Keeps the
    /// backing allocation when it is already large enough.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Resizes the set to `len` bits, all one (the tail of the last word
    /// stays zero so counting stays exact). Keeps the backing allocation.
    pub fn set_all(&mut self, len: usize) {
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, u64::MAX);
        self.len = len;
        let tail = len & 63;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Makes this set an exact copy of `other`, keeping the backing
    /// allocation when it is already large enough.
    pub(crate) fn copy_from(&mut self, other: &NodeBits) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// The packed words: bit `i` is bit `i & 63` of word `i >> 6`, and the
    /// bits past [`len`](NodeBits::len) in the last word are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Reads bit `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] >> (i & 63) & 1 != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.words)
    }
}

/// The indices of the set bits of `words` (bit `i` is bit `i % 64` of word
/// `i / 64`), in ascending order.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        // Peel one set bit per step; word index recovers the offset.
        std::iter::successors((w != 0).then_some(w), |&rest| {
            let next = rest & (rest - 1);
            (next != 0).then_some(next)
        })
        .map(move |rest| (wi << 6) + rest.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut b = NodeBits::new();
        b.reset(130);
        for &i in &[0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i), "bit {i}");
        }
        assert_eq!(b.count_ones(), 8);
        assert!(!b.all());
    }

    #[test]
    fn reset_clears_without_shrinking() {
        let mut b = NodeBits::new();
        b.reset(200);
        for i in 0..200 {
            b.set(i);
        }
        assert!(b.all());
        let cap = b.words.capacity();
        b.reset(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 0);
        assert!(b.words.capacity() >= cap.min(2), "allocation kept");
    }

    #[test]
    fn set_all_masks_the_tail_word() {
        let mut b = NodeBits::new();
        for len in [1usize, 63, 64, 65, 130] {
            b.set_all(len);
            assert_eq!(b.len(), len);
            assert_eq!(b.count_ones(), len, "len {len}");
            assert!(b.all());
            assert_eq!(b.iter_ones().count(), len);
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut b = NodeBits::new();
        b.reset(300);
        let picks: Vec<usize> = (0..300).filter(|i| i % 7 == 3 || i % 64 == 0).collect();
        for &i in &picks {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, picks);
        assert_eq!(b.count_ones(), picks.len());
    }

    #[test]
    fn copy_from_replaces_length_and_bits() {
        let mut src = NodeBits::new();
        src.reset(130);
        src.set(0);
        src.set(129);
        let mut dst = NodeBits::new();
        dst.set_all(300);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.words(), &[1, 0, 2]);
    }

    #[test]
    fn empty_and_zero_length() {
        let mut b = NodeBits::new();
        assert!(b.is_empty());
        b.reset(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
        assert!(b.all(), "vacuously true");
    }
}
