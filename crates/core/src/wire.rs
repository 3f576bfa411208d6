//! Wire encodings for every convergecast payload — the proof that the
//! bit counts charged by the energy model correspond to a real, decodable
//! message format.
//!
//! Values are offset-encoded against the query's `range_min` so a 16-bit
//! field covers any universe of up to 65536 values (the paper's setting);
//! counters saturate at field capacity, which for ≤ 65535 nodes is
//! lossless. Each `encode_*` returns the encoded bytes and asserts — in
//! tests — that the bit count equals the corresponding
//! [`wsn_net::Aggregate::payload_bits`].

use wsn_net::codec::{BitReader, BitWriter};
use wsn_net::MessageSizes;

use crate::payloads::{DeltaHistogram, Histogram, MovementCounters, MultiCounters, ValueList};
use crate::qdigest::QDigest;
use crate::summary::{Entry, RankSummary};
use crate::validation::{HintStyle, ValidationPayload};
use crate::Value;

/// Encoding context: the static knowledge every node shares (field widths
/// and the value offset).
#[derive(Debug, Clone, Copy)]
pub struct WireContext {
    /// Field widths.
    pub sizes: MessageSizes,
    /// Values are transmitted as `v - range_min`.
    pub range_min: Value,
}

impl WireContext {
    /// Creates a context.
    pub fn new(sizes: MessageSizes, range_min: Value) -> Self {
        WireContext { sizes, range_min }
    }

    fn put_value(&self, w: &mut BitWriter, v: Value) {
        w.put((v - self.range_min) as u64, self.sizes.value_bits as u32);
    }

    fn get_value(&self, r: &mut BitReader<'_>) -> Option<Value> {
        Some(r.get(self.sizes.value_bits as u32)? as Value + self.range_min)
    }

    fn put_counter(&self, w: &mut BitWriter, c: u64) {
        let width = self.sizes.counter_bits as u32;
        let max = if width >= 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        w.put(c.min(max), width);
    }

    /// Encodes a [`ValueList`].
    pub fn encode_values(&self, list: &ValueList) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &v in &list.vals {
            self.put_value(&mut w, v);
        }
        debug_assert_eq!(w.len_bits(), list_bits(list, &self.sizes));
        w.into_bytes()
    }

    /// Decodes a [`ValueList`] of `n` values.
    pub fn decode_values(&self, bytes: &[u8], n: usize) -> Option<ValueList> {
        let mut r = BitReader::new(bytes);
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.get_value(&mut r)?);
        }
        Some(ValueList { vals })
    }

    /// Encodes [`MovementCounters`].
    pub fn encode_counters(&self, c: &MovementCounters) -> Vec<u8> {
        let mut w = BitWriter::new();
        for f in [c.outof_lt, c.into_lt, c.outof_gt, c.into_gt] {
            self.put_counter(&mut w, f);
        }
        w.into_bytes()
    }

    /// Decodes [`MovementCounters`].
    pub fn decode_counters(&self, bytes: &[u8]) -> Option<MovementCounters> {
        let mut r = BitReader::new(bytes);
        let width = self.sizes.counter_bits as u32;
        Some(MovementCounters {
            outof_lt: r.get(width)?,
            into_lt: r.get(width)?,
            outof_gt: r.get(width)?,
            into_gt: r.get(width)?,
        })
    }

    /// Encodes a [`MultiCounters`] shared-wave payload: the per-lane
    /// counter blocks concatenated in lane order.
    pub fn encode_multi_counters(&self, m: &MultiCounters) -> Vec<u8> {
        let mut w = BitWriter::new();
        for c in &m.lanes {
            for f in [c.outof_lt, c.into_lt, c.outof_gt, c.into_gt] {
                self.put_counter(&mut w, f);
            }
        }
        w.into_bytes()
    }

    /// Decodes a [`MultiCounters`] payload of `n_lanes` counter blocks.
    /// Rejects truncated and oversized buffers like the sketch decoders.
    pub fn decode_multi_counters(&self, bytes: &[u8], n_lanes: usize) -> Option<MultiCounters> {
        payload_fits(bytes, 0, n_lanes, 4 * self.sizes.counter_bits)?;
        let mut r = BitReader::new(bytes);
        let width = self.sizes.counter_bits as u32;
        let mut m = MultiCounters::zeros(n_lanes);
        for c in &mut m.lanes {
            c.outof_lt = r.get(width)?;
            c.into_lt = r.get(width)?;
            c.outof_gt = r.get(width)?;
            c.into_gt = r.get(width)?;
        }
        exactly_consumed(&mut r, bytes.len())?;
        Some(m)
    }

    /// Encodes a compressed [`Histogram`] as (index, count) pairs.
    pub fn encode_histogram(&self, h: &Histogram) -> Vec<u8> {
        let mut w = BitWriter::new();
        for (i, &c) in h.counts().iter().enumerate() {
            if c > 0 {
                w.put(i as u64, self.sizes.bucket_index_bits as u32);
                self.put_counter(&mut w, c);
            }
        }
        w.into_bytes()
    }

    /// Decodes a compressed histogram with `b` buckets and `nonempty`
    /// entries on the wire.
    pub fn decode_histogram(&self, bytes: &[u8], b: usize, nonempty: usize) -> Option<Histogram> {
        let mut r = BitReader::new(bytes);
        let mut h = Histogram::zeros(b);
        for _ in 0..nonempty {
            let i = r.get(self.sizes.bucket_index_bits as u32)? as usize;
            let c = r.get(self.sizes.bucket_bits as u32)?;
            if i >= b {
                return None;
            }
            h.counts_mut()[i] = c;
        }
        Some(h)
    }

    /// Encodes a [`DeltaHistogram`] as (index, signed delta) pairs.
    pub fn encode_deltas(&self, d: &DeltaHistogram) -> Vec<u8> {
        let mut w = BitWriter::new();
        for (i, &delta) in d.deltas.iter().enumerate() {
            if delta != 0 {
                w.put(i as u64, self.sizes.bucket_index_bits as u32);
                w.put_signed(delta, self.sizes.bucket_bits as u32);
            }
        }
        w.into_bytes()
    }

    /// Decodes a delta histogram with `b` cells and `nonzero` entries.
    pub fn decode_deltas(&self, bytes: &[u8], b: usize, nonzero: usize) -> Option<DeltaHistogram> {
        let mut r = BitReader::new(bytes);
        let mut d = DeltaHistogram::zeros(b);
        for _ in 0..nonzero {
            let i = r.get(self.sizes.bucket_index_bits as u32)? as usize;
            let delta = r.get_signed(self.sizes.bucket_bits as u32)?;
            if i >= b {
                return None;
            }
            d.deltas[i] = delta;
        }
        Some(d)
    }

    /// Encodes a [`QDigest`]: the total count, then one `(heap node id,
    /// count)` pair per live entry. Node ids over a `2^value_bits`
    /// universe span `[1, 2^(value_bits+1))`, hence the extra bit in
    /// [`MessageSizes::sketch_entry_bits`]. Counters saturate at field
    /// capacity (lossless for the paper's ≤ 65535-node setting).
    pub fn encode_sketch(&self, d: &QDigest) -> Vec<u8> {
        let mut w = BitWriter::new();
        self.put_counter(&mut w, d.count());
        for &(id, c) in d.entries() {
            w.put(id, self.sizes.value_bits as u32 + 1);
            self.put_counter(&mut w, c);
        }
        w.into_bytes()
    }

    /// Decodes a [`QDigest`] with `n_entries` entries on the wire, for the
    /// query universe `[range_min, range_max]` and compression parameter
    /// `k`. The digest's count is re-derived from the entries (the leading
    /// count field is redundant on a lossless link and is only
    /// sanity-checked against the sum modulo counter saturation).
    pub fn decode_sketch(
        &self,
        bytes: &[u8],
        n_entries: usize,
        range_max: Value,
        k: u64,
    ) -> Option<QDigest> {
        let entry_bits = self.sizes.value_bits + 1 + self.sizes.counter_bits;
        payload_fits(bytes, self.sizes.counter_bits, n_entries, entry_bits)?;
        let mut r = BitReader::new(bytes);
        let wire_count = r.get(self.sizes.counter_bits as u32)?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let id = r.get(self.sizes.value_bits as u32 + 1)?;
            let c = r.get(self.sizes.counter_bits as u32)?;
            entries.push((id, c));
        }
        exactly_consumed(&mut r, bytes.len())?;
        let d = QDigest::from_entries(self.range_min, range_max, k, entries)?;
        let width = self.sizes.counter_bits as u32;
        let saturated = if width >= 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        (wire_count == d.count().min(saturated)).then_some(d)
    }

    /// Encodes a [`RankSummary`]: the total count, then one
    /// `(value, rmin, rmax)` triple per entry — see
    /// [`MessageSizes::summary_entry_bits`].
    pub fn encode_summary(&self, s: &RankSummary) -> Vec<u8> {
        let mut w = BitWriter::new();
        self.put_counter(&mut w, s.count);
        for e in &s.entries {
            self.put_value(&mut w, e.value);
            self.put_counter(&mut w, e.rmin);
            self.put_counter(&mut w, e.rmax);
        }
        w.into_bytes()
    }

    /// Decodes a [`RankSummary`] with `n_entries` entries on the wire.
    /// Rejects a frame no sound summary has: an entry outside
    /// `1 ≤ rmin ≤ rmax ≤ count`; values out of order, the order
    /// [`RankSummary::merge_summary`] relies on; or a rise in value where
    /// the smaller entry's `rmin` reaches the larger one's `rmax`, though
    /// every occurrence of a smaller value ranks below every occurrence of
    /// a larger one. A merge of accepted frames keeps
    /// `1 ≤ rmin ≤ rmax ≤ count`.
    pub fn decode_summary(&self, bytes: &[u8], n_entries: usize) -> Option<RankSummary> {
        let entry_bits = self.sizes.value_bits + 2 * self.sizes.counter_bits;
        payload_fits(bytes, self.sizes.counter_bits, n_entries, entry_bits)?;
        let mut r = BitReader::new(bytes);
        let count = r.get(self.sizes.counter_bits as u32)?;
        let mut entries: Vec<Entry> = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let value = self.get_value(&mut r)?;
            let rmin = r.get(self.sizes.counter_bits as u32)?;
            let rmax = r.get(self.sizes.counter_bits as u32)?;
            let follows =
                |prev: &Entry| prev.value == value || prev.value < value && prev.rmin < rmax;
            if rmin == 0 || rmin > rmax || rmax > count || !entries.last().is_none_or(follows) {
                return None;
            }
            entries.push(Entry { value, rmin, rmax });
        }
        exactly_consumed(&mut r, bytes.len())?;
        Some(RankSummary { entries, count })
    }

    /// Encodes a [`ValidationPayload`]: four counters, the hint field(s),
    /// then the Ξ values.
    pub fn encode_validation(&self, p: &ValidationPayload, filter: Value) -> Vec<u8> {
        let mut w = BitWriter::new();
        for f in [
            p.counters.outof_lt,
            p.counters.into_lt,
            p.counters.outof_gt,
            p.counters.into_gt,
        ] {
            self.put_counter(&mut w, f);
        }
        let field_max = self.range_min + (1 << self.sizes.value_bits) - 1;
        match p.style {
            HintStyle::MinMax => {
                // Absent hints (sentinels) encode as the filter itself —
                // a neutral bound the receiver merges losslessly.
                let lo = if p.hint_min == Value::MAX {
                    filter
                } else {
                    p.hint_min
                };
                let hi = if p.hint_max == Value::MIN {
                    filter
                } else {
                    p.hint_max
                };
                self.put_value(&mut w, lo.clamp(self.range_min, field_max));
                self.put_value(&mut w, hi.clamp(self.range_min, field_max));
            }
            HintStyle::MaxDiff => {
                let width = self.sizes.value_bits as u32;
                let max = if width >= 64 {
                    u64::MAX
                } else {
                    (1 << width) - 1
                };
                w.put(p.max_diff.min(max), width);
            }
        }
        for &v in &p.extra.vals {
            self.put_value(&mut w, v);
        }
        w.into_bytes()
    }
}

fn list_bits(list: &ValueList, sizes: &MessageSizes) -> u64 {
    list.vals.len() as u64 * sizes.value_bits
}

/// Rejects a claimed entry count the buffer cannot physically hold —
/// before any allocation sized by it — so truncated payloads fail fast
/// and a hostile `n_entries` cannot drive `Vec::with_capacity` to
/// arbitrary sizes.
fn payload_fits(bytes: &[u8], header_bits: u64, n_entries: usize, entry_bits: u64) -> Option<()> {
    let need = header_bits.checked_add((n_entries as u64).checked_mul(entry_bits)?)?;
    (need <= bytes.len() as u64 * 8).then_some(())
}

/// Rejects an oversized buffer: after the declared entries, at most the
/// final byte's zero padding may remain. Trailing garbage — extra bytes,
/// or nonzero padding bits — means the sender and receiver disagree on
/// the payload shape, so the decode must fail rather than silently drop
/// data.
fn exactly_consumed(r: &mut BitReader<'_>, total_bytes: usize) -> Option<()> {
    let left = total_bytes as u64 * 8 - r.pos_bits();
    if left >= 8 {
        return None;
    }
    (left == 0 || r.get(left as u32) == Some(0)).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::Aggregate;

    fn ctx() -> WireContext {
        WireContext::new(MessageSizes::default(), 0)
    }

    fn bits_of(bytes_len_bits: u64) -> u64 {
        bytes_len_bits
    }

    #[test]
    fn value_list_roundtrip_and_size() {
        let c = ctx();
        let list = ValueList {
            vals: vec![0, 1, 1023, 65535],
        };
        let bytes = c.encode_values(&list);
        let decoded = c.decode_values(&bytes, 4).unwrap();
        assert_eq!(decoded, list);
        assert_eq!(
            bits_of(bytes.len() as u64 * 8).div_ceil(8),
            list.payload_bits(&c.sizes).div_ceil(8)
        );
    }

    #[test]
    fn offset_encoding_covers_negative_universes() {
        let c = WireContext::new(MessageSizes::default(), -500);
        let list = ValueList {
            vals: vec![-500, -1, 0, 65035],
        };
        let bytes = c.encode_values(&list);
        assert_eq!(c.decode_values(&bytes, 4).unwrap(), list);
    }

    #[test]
    fn counters_roundtrip_and_size() {
        let c = ctx();
        let m = MovementCounters {
            outof_lt: 3,
            into_lt: 65535,
            outof_gt: 0,
            into_gt: 7,
        };
        let bytes = c.encode_counters(&m);
        assert_eq!(c.decode_counters(&bytes).unwrap(), m);
        assert_eq!(bytes.len() as u64, m.payload_bits(&c.sizes) / 8);
    }

    #[test]
    fn histogram_roundtrip_and_compressed_size() {
        let c = ctx();
        let mut h = Histogram::zeros(11);
        h.counts_mut()[0] = 9;
        h.counts_mut()[7] = 123;
        let bytes = c.encode_histogram(&h);
        let decoded = c.decode_histogram(&bytes, 11, h.nonempty()).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(bytes.len() as u64 * 8, h.payload_bits(&c.sizes));
    }

    #[test]
    fn delta_roundtrip_with_negative_entries() {
        let c = ctx();
        let mut d = DeltaHistogram::zeros(66);
        d.deltas[2] = -5;
        d.deltas[65] = 17;
        let bytes = c.encode_deltas(&d);
        let decoded = c.decode_deltas(&bytes, 66, d.nonzero()).unwrap();
        assert_eq!(decoded, d);
        assert_eq!(bytes.len() as u64 * 8, d.payload_bits(&c.sizes));
    }

    #[test]
    fn sketch_roundtrip_and_size_matches_charge() {
        let c = ctx();
        let mut d = QDigest::singleton(0, 1023, 8, 5);
        for v in [5, 5, 17, 900, 1023, 0, 512, 300] {
            d.merge(QDigest::singleton(0, 1023, 8, v));
        }
        let bytes = c.encode_sketch(&d);
        let decoded = c.decode_sketch(&bytes, d.len(), 1023, 8).unwrap();
        assert_eq!(decoded, d);
        assert_eq!(bytes.len() as u64, d.payload_bits(&c.sizes).div_ceil(8));
        // A corrupted count field is rejected.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(c.decode_sketch(&bad, d.len(), 1023, 8).is_none());
    }

    #[test]
    fn summary_roundtrip_and_size_matches_charge() {
        let c = ctx();
        let mut s = RankSummary::singleton(42);
        for v in [7, 9000, 42, 65535, 0] {
            s.merge(RankSummary::singleton(v));
        }
        s.prune(4);
        let bytes = c.encode_summary(&s);
        let decoded = c.decode_summary(&bytes, s.entries.len()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(bytes.len() as u64, s.payload_bits(&c.sizes).div_ceil(8));
    }

    #[test]
    fn multi_counters_roundtrip_and_size() {
        let c = ctx();
        let mut m = MultiCounters::zeros(3);
        m.lanes[0].outof_lt = 9;
        m.lanes[2].into_gt = 65535;
        let bytes = c.encode_multi_counters(&m);
        assert_eq!(c.decode_multi_counters(&bytes, 3).unwrap(), m);
        assert_eq!(bytes.len() as u64 * 8, m.payload_bits(&c.sizes));
        // Wrong lane count, truncation and oversize all fail cleanly.
        assert!(c.decode_multi_counters(&bytes, 4).is_none());
        assert!(c
            .decode_multi_counters(&bytes[..bytes.len() - 1], 3)
            .is_none());
        let mut fat = bytes.clone();
        fat.push(0);
        assert!(c.decode_multi_counters(&fat, 3).is_none());
    }

    #[test]
    fn truncated_and_oversized_payloads_fail_cleanly() {
        let c = ctx();
        let mut d = QDigest::singleton(0, 1023, 8, 5);
        for v in [5, 17, 900, 1023, 0, 512, 300] {
            d.merge(QDigest::singleton(0, 1023, 8, v));
        }
        let sketch = c.encode_sketch(&d);
        let mut s = RankSummary::singleton(42);
        for v in [7, 9000, 42, 65535, 0] {
            s.merge(RankSummary::singleton(v));
        }
        let summary = c.encode_summary(&s);

        // Every strict byte prefix is rejected as truncated.
        for cut in 0..sketch.len() {
            assert!(
                c.decode_sketch(&sketch[..cut], d.len(), 1023, 8).is_none(),
                "cut={cut}"
            );
        }
        for cut in 0..summary.len() {
            assert!(
                c.decode_summary(&summary[..cut], s.entries.len()).is_none(),
                "cut={cut}"
            );
        }

        // Oversized buffers (trailing bytes) are rejected, zero or not.
        for extra in [0u8, 0xFF] {
            let mut fat = sketch.clone();
            fat.push(extra);
            assert!(c.decode_sketch(&fat, d.len(), 1023, 8).is_none());
            let mut fat = summary.clone();
            fat.push(extra);
            assert!(c.decode_summary(&fat, s.entries.len()).is_none());
        }

        // Nonzero padding bits in the final byte are rejected.
        let pad = sketch.len() as u64 * 8 - (c.sizes.counter_bits + d.len() as u64 * 33);
        if pad > 0 {
            let mut dirty = sketch.clone();
            *dirty.last_mut().unwrap() |= 1;
            assert!(c.decode_sketch(&dirty, d.len(), 1023, 8).is_none());
        }

        // Hostile entry counts fail fast without allocating.
        for n in [d.len() + 1, 1 << 20, usize::MAX / 64, usize::MAX] {
            assert!(c.decode_sketch(&sketch, n, 1023, 8).is_none());
        }
        for n in [s.entries.len() + 1, 1 << 20, usize::MAX] {
            assert!(c.decode_summary(&summary, n).is_none());
        }

        // Byte-level corruption over round-tripped encodings never panics
        // (it may decode to a different-but-valid payload or fail — both
        // are clean outcomes).
        for i in 0..sketch.len() {
            let mut b = sketch.clone();
            b[i] ^= 0xA5;
            let _ = c.decode_sketch(&b, d.len(), 1023, 8);
        }
        for i in 0..summary.len() {
            let mut b = summary.clone();
            b[i] ^= 0xA5;
            let _ = c.decode_summary(&b, s.entries.len());
        }
    }

    #[test]
    fn malformed_summary_frames_are_rejected() {
        let c = ctx();
        let entry = |value, rmin, rmax| Entry { value, rmin, rmax };
        let frames = [
            ("zero ranks", vec![entry(3, 0, 0), entry(5, 2, 2)]),
            ("rmax above count", vec![entry(3, 1, 1), entry(5, 2, 3)]),
            ("values out of order", vec![entry(5, 1, 1), entry(3, 2, 2)]),
            ("ranks cross a rise", vec![entry(3, 2, 2), entry(5, 1, 2)]),
        ];
        for (what, entries) in frames {
            let s = RankSummary { entries, count: 2 };
            let bytes = c.encode_summary(&s);
            assert_eq!(c.decode_summary(&bytes, 2), None, "{what}");
        }
    }

    /// The structure every digest keeps: ids sorted, unique and inside the
    /// tree, counts positive and summing to `n`.
    fn assert_sketch_shape(d: &QDigest, what: &str) {
        let ids = d.entries().iter().map(|e| e.0);
        assert!(ids.clone().zip(ids.skip(1)).all(|(a, b)| a < b), "{what}");
        let tree = 1..2u64 << d.depth();
        assert!(
            d.entries()
                .iter()
                .all(|&(id, c)| c > 0 && tree.contains(&id)),
            "{what}"
        );
        assert_eq!(
            d.entries().iter().map(|e| e.1).sum::<u64>(),
            d.count(),
            "{what}"
        );
    }

    /// The structure every summary keeps: values sorted and
    /// `1 ≤ rmin ≤ rmax ≤ count`.
    fn assert_summary_shape(s: &RankSummary, what: &str) {
        let e = &s.entries;
        assert!(e.windows(2).all(|w| w[0].value <= w[1].value), "{what}");
        assert!(
            e.iter()
                .all(|e| 1 <= e.rmin && e.rmin <= e.rmax && e.rmax <= s.count),
            "{what}: {e:?} of {}",
            s.count
        );
    }

    #[test]
    fn single_bit_flips_never_panic_and_accepted_frames_merge_cleanly() {
        // Every single-bit flip of a few encoded payloads either fails to
        // decode or yields a frame that merges — both ways — into a
        // digest or summary of the same shape as the ones a run builds.
        let c = ctx();
        let digest = |values: &[Value], k| {
            let mut d = QDigest::new(0, 1023, k);
            for &v in values {
                d.merge(QDigest::singleton(0, 1023, k, v));
            }
            d
        };
        let summary = |values: &[Value], capacity| {
            let mut s = RankSummary::empty();
            for &v in values {
                s.merge(RankSummary::singleton(v));
                s.prune(capacity);
            }
            s
        };
        let spread: Vec<Value> = (0..40).map(|i| (i * 379) % 1024).collect();
        let ties: Vec<Value> = (0..40).map(|i| 500 + i % 5).collect();
        let sketches = [
            (digest(&[5, 5, 17, 900, 1023, 0, 512, 300], 8), 8),
            (digest(&spread, 4), 4),
            (digest(&ties, 2), 2),
        ];
        let summaries = [
            summary(&[7, 9000, 42, 65535, 0, 42], 6),
            summary(&spread, 5),
            summary(&ties, 4),
        ];
        for (n, (d, k)) in sketches.iter().enumerate() {
            let bytes = c.encode_sketch(d);
            for bit in 0..bytes.len() * 8 {
                let mut b = bytes.clone();
                b[bit / 8] ^= 0x80 >> (bit % 8);
                let Some(x) = c.decode_sketch(&b, d.len(), 1023, *k) else {
                    continue;
                };
                let what = format!("sketch {n}, bit {bit}");
                for (mut into, from) in [(d.clone(), &x), (x.clone(), d)] {
                    into.merge_digest(from);
                    assert_sketch_shape(&into, &what);
                }
            }
        }
        for (n, s) in summaries.iter().enumerate() {
            let bytes = c.encode_summary(s);
            for bit in 0..bytes.len() * 8 {
                let mut b = bytes.clone();
                b[bit / 8] ^= 0x80 >> (bit % 8);
                let Some(x) = c.decode_summary(&b, s.entries.len()) else {
                    continue;
                };
                let what = format!("summary {n}, bit {bit}");
                assert_summary_shape(&x, &what);
                for (mut into, from) in [(s.clone(), &x), (x.clone(), s)] {
                    into.merge_summary(from);
                    assert_summary_shape(&into, &what);
                    into.prune(4);
                    assert_summary_shape(&into, &what);
                }
            }
        }
    }

    #[test]
    fn merged_and_pruned_summaries_always_decode() {
        // The decoder's checks hold for every summary a run can build:
        // tree-shaped merges and prunes over heavily tied values.
        let c = ctx();
        let mut rng = wsn_net::splitmix::SplitMix64::new(11);
        for capacity in 2..=24 {
            let mut layer: Vec<RankSummary> = (0..64)
                .map(|_| RankSummary::singleton((rng.next_u64() % 9) as Value))
                .collect();
            while layer.len() > 1 {
                let mut next = Vec::new();
                for pair in layer.chunks(2) {
                    let mut s = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        s.merge_summary(b);
                    }
                    s.prune(capacity);
                    let bytes = c.encode_summary(&s);
                    assert_eq!(c.decode_summary(&bytes, s.entries.len()).as_ref(), Some(&s));
                    next.push(s);
                }
                layer = next;
            }
        }
    }

    #[test]
    fn validation_payload_size_matches_charge() {
        let c = ctx();
        for style in [HintStyle::MinMax, HintStyle::MaxDiff] {
            let mut p = crate::validation::node_validation(3, 900, 500, style, Some((-5, 5)))
                .expect("state changed");
            p.extra.vals.push(505);
            let bytes = c.encode_validation(&p, 500);
            // Bit-exact up to the final byte's padding.
            let charged = p.payload_bits(&c.sizes);
            assert_eq!(bytes.len() as u64, charged.div_ceil(8), "{style:?}");
        }
    }
}
