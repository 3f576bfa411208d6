//! Reference equivalence of the root-side helpers the filter protocols
//! share.
//!
//! The functions below carry, verbatim, the inline code each helper
//! replaced: the `(l + into) − outof` update POS, HBC and IQ each wrote
//! out, POS's probe counters, LCLL's signed-delta closure, the anchor match
//! of descent and retrieval, the `g = n − l − e` pattern, and the walks to
//! the bucket holding a rank in descent and LCLL-H, LCLL-S, and LCLL-R's
//! locate and refocus, each with the fallback its caller took when the
//! walk fell off the end. The random inputs reach the corners only message
//! loss reaches in a run: counters that drive `l` or `g` below zero,
//! deltas below zero, ranks above a histogram's total, rank zero and
//! all-zero histograms.

use wsn_net::splitmix::SplitMix64;

use crate::buckets::bucket_holding;
use crate::lcll::apply_delta;
use crate::lcll_range::{locate, Located};
use crate::payloads::MovementCounters;
use crate::rank::{Counts, Side};
use crate::retrieval::RankAnchor;

const SIDES: [Side; 3] = [Side::Lt, Side::Eq, Side::Gt];

/// POS's, HBC's and IQ's validation update of the root counts.
fn moved_reference(counts: Counts, c: &MovementCounters) -> Counts {
    let n_total = counts.n();
    let l = (counts.l + c.into_lt).saturating_sub(c.outof_lt);
    let g = (counts.g + c.into_gt).saturating_sub(c.outof_gt);
    Counts {
        l,
        g,
        e: n_total.saturating_sub(l + g),
    }
}

/// POS's probe counters for a node whose side changed.
fn between_reference(old_side: Side, new_side: Side) -> MovementCounters {
    let mut c = MovementCounters::default();
    match old_side {
        Side::Lt => c.outof_lt = 1,
        Side::Gt => c.outof_gt = 1,
        Side::Eq => {}
    }
    match new_side {
        Side::Lt => c.into_lt = 1,
        Side::Gt => c.into_gt = 1,
        Side::Eq => {}
    }
    c
}

/// LCLL's and LCLL-R's delta closure.
fn apply_reference(base: u64, d: i64) -> u64 {
    if d >= 0 {
        base + d as u64
    } else {
        base.saturating_sub((-d) as u64)
    }
}

/// Descent's and retrieval's anchor match.
fn below_reference(anchor: RankAnchor, inside: u64) -> u64 {
    match anchor {
        RankAnchor::BelowLo(b) => b,
        RankAnchor::AtMostHi(t) => t.saturating_sub(inside),
    }
}

/// Descent's and LCLL-H's walk: the bucket and the count before it, the
/// last bucket and the whole total when the walk falls off the end.
fn descent_walk_reference(counts: &[u64], rank_in: u64) -> (usize, u64) {
    let mut cum = 0u64;
    let mut chosen = counts.len() - 1;
    for (i, &c) in counts.iter().enumerate() {
        if cum + c >= rank_in {
            chosen = i;
            break;
        }
        cum += c;
    }
    (chosen, cum)
}

/// LCLL-S's walk over unit buckets: `None` kept the old filter.
fn slip_walk_reference(counts: &[u64], below_window: u64, k: u64) -> Option<(usize, u64)> {
    let rank_in = k - below_window;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if cum + c >= rank_in {
            return Some((i, below_window + cum));
        }
        cum += c;
    }
    None
}

/// LCLL-R's refocus walk, counting on from `below`: `None` kept the last
/// quantile.
fn refocus_walk_reference(counts: &[u64], below: u64, k: u64) -> Option<(usize, u64)> {
    let mut cum = below;
    for (j, &c) in counts.iter().enumerate() {
        if cum + c >= k {
            return Some((j, cum));
        }
        cum += c;
    }
    None
}

/// LCLL-R's two-level locate.
fn locate_reference(
    top_counts: &[u64],
    focus: usize,
    sub_counts: &[u64],
    k: u64,
) -> Option<Located> {
    let mut cum = 0u64;
    for (t, &top) in top_counts.iter().enumerate() {
        let c = if t == focus {
            sub_counts.iter().sum()
        } else {
            top
        };
        if cum + c >= k {
            if t != focus {
                return Some(Located::TopBucket {
                    bucket: t,
                    below: cum,
                });
            }
            for (j, &sc) in sub_counts.iter().enumerate() {
                if cum + sc >= k {
                    return Some(Located::SubCell {
                        cell: j,
                        below: cum,
                        inside: sc,
                    });
                }
                cum += sc;
            }
            return None;
        }
        cum += c;
    }
    None
}

/// A draw below `bound ≥ 1`.
fn below(rng: &mut SplitMix64, bound: u64) -> u64 {
    rng.next_u64() % bound
}

/// A histogram of 1–8 buckets, all zero one time in four, otherwise with
/// counts below 5 (many zero buckets).
fn histogram(rng: &mut SplitMix64) -> Vec<u64> {
    let len = 1 + below(rng, 8) as usize;
    let zero = below(rng, 4) == 0;
    (0..len)
        .map(|_| if zero { 0 } else { below(rng, 5) })
        .collect()
}

#[test]
fn count_updates_match_the_inline_code() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for _ in 0..20_000 {
        let counts = Counts {
            l: below(&mut rng, 6),
            e: below(&mut rng, 4),
            g: below(&mut rng, 6),
        };
        // Exits above l or g drive them below zero, as lost or duplicated
        // reports can.
        let c = MovementCounters {
            outof_lt: below(&mut rng, 9),
            into_lt: below(&mut rng, 4),
            outof_gt: below(&mut rng, 9),
            into_gt: below(&mut rng, 4),
        };
        assert_eq!(
            counts.moved(&c),
            moved_reference(counts, &c),
            "{counts:?} {c:?}"
        );

        let (l, e, n) = (below(&mut rng, 8), below(&mut rng, 8), below(&mut rng, 12));
        let inline = Counts {
            l,
            e,
            g: n.saturating_sub(l + e),
        };
        assert_eq!(Counts::new(l, e, n), inline);

        let (b, inside) = (below(&mut rng, 8), below(&mut rng, 12));
        for anchor in [RankAnchor::BelowLo(b), RankAnchor::AtMostHi(b)] {
            assert_eq!(anchor.below(inside), below_reference(anchor, inside));
        }
    }
    for from in SIDES {
        for to in SIDES {
            let want = if from == to {
                MovementCounters::default()
            } else {
                between_reference(from, to)
            };
            assert_eq!(
                MovementCounters::between(from, to),
                want,
                "{from:?} → {to:?}"
            );
        }
    }
}

#[test]
fn lcll_deltas_match_the_inline_code() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for _ in 0..20_000 {
        let base = below(&mut rng, 10);
        // Deltas from −20 to 20: most negative ones exceed the base.
        let d = below(&mut rng, 41) as i64 - 20;
        assert_eq!(apply_delta(base, d), apply_reference(base, d), "{base} {d}");
    }
}

#[test]
fn bucket_walks_match_the_inline_code() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for _ in 0..20_000 {
        let counts = histogram(&mut rng);
        let total: u64 = counts.iter().sum();
        // Ranks from 0 to past the total.
        let rank = below(&mut rng, total + 4);
        let found = bucket_holding(counts.iter().copied(), rank);

        // Descent and LCLL-H fall back to the last bucket.
        let descent = found.unwrap_or((counts.len() - 1, total));
        assert_eq!(
            descent,
            descent_walk_reference(&counts, rank),
            "{counts:?} {rank}"
        );

        // LCLL-S keeps the old filter on `None`.
        let below_window = below(&mut rng, 6);
        let k = below_window + rank;
        let slip = bucket_holding(counts.iter().copied(), k - below_window)
            .map(|(i, before)| (i, below_window + before));
        assert_eq!(slip, slip_walk_reference(&counts, below_window, k));

        // LCLL-R's refocus counts on from a `below` that loss can push
        // past k.
        let (from, k) = (below(&mut rng, 6), below(&mut rng, total + 8));
        let refocus = bucket_holding(counts.iter().copied(), k.saturating_sub(from))
            .map(|(j, before)| (j, from + before));
        assert_eq!(refocus, refocus_walk_reference(&counts, from, k));
    }
}

#[test]
fn lcll_r_locate_matches_the_inline_code() {
    let mut rng = SplitMix64::new(0x5EED_0004);
    for _ in 0..20_000 {
        let top = histogram(&mut rng);
        let sub = histogram(&mut rng);
        let focus = below(&mut rng, top.len() as u64) as usize;
        let total: u64 = top.iter().sum::<u64>() - top[focus] + sub.iter().sum::<u64>();
        let k = below(&mut rng, total + 4);
        assert_eq!(
            locate(&top, focus, &sub, k),
            locate_reference(&top, focus, &sub, k),
            "{top:?} focus {focus} {sub:?} k {k}"
        );
    }
}
