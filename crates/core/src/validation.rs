//! The shared validation convergecast of the POS family (§3.2, §4.1, §4.2).
//!
//! At the beginning of every update round each node compares the interval
//! (`lt`/`eq`/`gt` of the current filter) of its new measurement against
//! that of its previous one. Nodes whose measurement *switched* intervals
//! contribute movement counters plus a hint bounding the new quantile; IQ
//! nodes additionally contribute their raw value whenever it falls inside
//! the interval Ξ.

use wsn_net::{Aggregate, MessageSizes};

use crate::payloads::{MovementCounters, ValueList};
use crate::rank::side_interval;
use crate::Value;

/// How hints are encoded in validation packets (§5.1.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintStyle {
    /// POS: two hints — the minimum and maximum measurement among all
    /// values that changed their state.
    MinMax,
    /// HBC/IQ: a single value — the maximum distance between the filter
    /// and any measurement that changed its state. Cheaper on the wire but
    /// yields a symmetric (possibly wider) refinement interval.
    MaxDiff,
}

impl HintStyle {
    /// Number of value-sized hint fields on the wire.
    fn hint_fields(self) -> usize {
        match self {
            HintStyle::MinMax => 2,
            HintStyle::MaxDiff => 1,
        }
    }
}

/// The aggregated validation payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationPayload {
    /// Movement counters (aggregated by summing).
    pub counters: MovementCounters,
    /// Minimum changed measurement (MinMax style; `Value::MAX` when none).
    pub hint_min: Value,
    /// Maximum changed measurement (MinMax style; `Value::MIN` when none).
    pub hint_max: Value,
    /// Maximum |measurement − filter| among changed values (MaxDiff style).
    pub max_diff: u64,
    /// IQ's multiset `A`: raw measurements inside Ξ (empty for POS/HBC).
    pub extra: ValueList,
    /// Wire encoding of hints — identical on all nodes, not transmitted.
    pub style: HintStyle,
}

impl ValidationPayload {
    /// A payload that records no movement.
    pub(crate) fn empty(style: HintStyle) -> Self {
        ValidationPayload {
            counters: MovementCounters::default(),
            hint_min: Value::MAX,
            hint_max: Value::MIN,
            max_diff: 0,
            extra: ValueList::default(),
            style,
        }
    }

    /// Lower bound on the new quantile when it moved *down* past the
    /// filter: no measurement below this bound changed state, so (per the
    /// hint argument of POS) the new quantile cannot lie below it.
    pub fn lower_bound(&self, filter: Value) -> Value {
        match self.style {
            HintStyle::MinMax => self.hint_min.min(filter),
            HintStyle::MaxDiff => filter - self.max_diff as Value,
        }
    }

    /// Upper bound on the new quantile when it moved *up* past the filter.
    pub fn upper_bound(&self, filter: Value) -> Value {
        match self.style {
            HintStyle::MinMax => self.hint_max.max(filter),
            HintStyle::MaxDiff => filter + self.max_diff as Value,
        }
    }
}

impl Aggregate for ValidationPayload {
    fn merge(&mut self, other: Self) {
        self.counters.merge(&other.counters);
        self.hint_min = self.hint_min.min(other.hint_min);
        self.hint_max = self.hint_max.max(other.hint_max);
        self.max_diff = self.max_diff.max(other.max_diff);
        self.extra.merge(other.extra);
    }

    fn merge_from(&mut self, other: &mut Option<Self>) {
        if let Some(other) = other {
            self.counters.merge(&other.counters);
            self.hint_min = self.hint_min.min(other.hint_min);
            self.hint_max = self.hint_max.max(other.hint_max);
            self.max_diff = self.max_diff.max(other.max_diff);
            self.extra.vals.extend_from_slice(&other.extra.vals);
        }
    }

    fn copy_from(slot: &mut Option<Self>, other: &mut Option<Self>) {
        match (slot, other) {
            (Some(to), Some(from)) => {
                to.extra.vals.clone_from(&from.extra.vals);
                *to = ValidationPayload {
                    extra: std::mem::take(&mut to.extra),
                    ..*from
                };
            }
            (to, from) => *to = from.clone(),
        }
    }

    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        4 * sizes.counter_bits
            + self.style.hint_fields() as u64 * sizes.value_bits
            + self.extra.payload_bits(sizes)
    }

    fn value_count(&self) -> usize {
        self.extra.value_count()
    }
}

/// One node's validation contribution, or `None` if the node stays silent.
///
/// * `prev`/`cur` — the node's measurement in the previous/current round,
/// * `filter` — the node's current filter (last known quantile),
/// * `xi` — IQ's per-node interval offsets `(ξ_l, ξ_r)`; values inside
///   `[filter+ξ_l, filter+ξ_r]` (other than the filter itself) are
///   transmitted directly (§4.2.2).
pub fn node_validation(
    prev: Value,
    cur: Value,
    filter: Value,
    style: HintStyle,
    xi: Option<(Value, Value)>,
) -> Option<ValidationPayload> {
    let mut slot = None;
    write_node_validation(&mut slot, prev, cur, filter, style, xi);
    slot
}

/// [`node_validation`] written into a reused wave slot: overwrites `slot`
/// (keeping its storage) and returns `true` when the node contributes,
/// leaves it as it was and returns `false` when it stays silent.
pub(crate) fn write_node_validation(
    slot: &mut Option<ValidationPayload>,
    prev: Value,
    cur: Value,
    filter: Value,
    style: HintStyle,
    xi: Option<(Value, Value)>,
) -> bool {
    write_node_validation_interval(slot, prev, cur, filter, filter, style, xi)
}

/// Interval-filter generalization of [`write_node_validation`], used by
/// the §4.1.2 variant of HBC: the `eq` interval is `[lb, ub]` (the bounds
/// of the last refinement request) rather than a single threshold. `xi`
/// offsets, when given, are relative to `lb`/`ub` respectively.
pub(crate) fn write_node_validation_interval(
    slot: &mut Option<ValidationPayload>,
    prev: Value,
    cur: Value,
    lb: Value,
    ub: Value,
    style: HintStyle,
    xi: Option<(Value, Value)>,
) -> bool {
    let old_side = side_interval(prev, lb, ub);
    let new_side = side_interval(cur, lb, ub);
    let changed = old_side != new_side;

    let in_xi = match xi {
        Some((xl, xr)) => (cur < lb || cur > ub) && cur >= lb + xl && cur <= ub + xr,
        None => false,
    };

    if !changed && !in_xi {
        return false;
    }

    let p = slot.get_or_insert_with(|| ValidationPayload::empty(style));
    let mut extra = std::mem::take(&mut p.extra);
    extra.vals.clear();
    *p = ValidationPayload {
        extra,
        ..ValidationPayload::empty(style)
    };
    if changed {
        p.counters = MovementCounters::between(old_side, new_side);
        p.hint_min = cur;
        p.hint_max = cur;
        // Distance to the nearest interval bound (0 only for moves onto
        // the interval, which never extend the refinement range).
        p.max_diff = if cur < lb {
            cur.abs_diff(lb)
        } else if cur > ub {
            cur.abs_diff(ub)
        } else {
            0
        };
    }
    if in_xi {
        p.extra.vals.push(cur);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unchanged_node_is_silent() {
        assert!(node_validation(3, 4, 10, HintStyle::MinMax, None).is_none());
        assert!(node_validation(10, 10, 10, HintStyle::MinMax, None).is_none());
        assert!(node_validation(12, 15, 10, HintStyle::MaxDiff, None).is_none());
    }

    #[test]
    fn crossing_the_filter_sets_counters_and_hints() {
        let p = node_validation(3, 15, 10, HintStyle::MinMax, None).unwrap();
        assert_eq!(p.counters.outof_lt, 1);
        assert_eq!(p.counters.into_gt, 1);
        assert_eq!(p.counters.into_lt, 0);
        assert_eq!(p.hint_min, 15);
        assert_eq!(p.hint_max, 15);
        assert_eq!(p.max_diff, 5);
    }

    #[test]
    fn landing_on_the_filter_counts_only_outof() {
        let p = node_validation(3, 10, 10, HintStyle::MinMax, None).unwrap();
        assert_eq!(p.counters.outof_lt, 1);
        assert_eq!(p.counters.into_lt, 0);
        assert_eq!(p.counters.into_gt, 0);
    }

    #[test]
    fn leaving_the_filter_counts_only_into() {
        let p = node_validation(10, 3, 10, HintStyle::MinMax, None).unwrap();
        assert_eq!(p.counters.into_lt, 1);
        assert_eq!(p.counters.outof_lt, 0);
        assert_eq!(p.counters.outof_gt, 0);
    }

    #[test]
    fn xi_membership_sends_value_without_state_change() {
        let p = node_validation(8, 9, 10, HintStyle::MaxDiff, Some((-3, 2))).unwrap();
        assert!(p.counters.is_zero());
        assert_eq!(p.extra.vals, vec![9]);
    }

    #[test]
    fn filter_value_itself_is_not_retransmitted() {
        // §4.2.2: "if v(n_i) ≠ v_k^{t−1}" — the filter value is implicit.
        assert!(node_validation(10, 10, 10, HintStyle::MaxDiff, Some((-3, 3))).is_none());
    }

    #[test]
    fn out_of_xi_value_not_included() {
        // 11 -> 14: stays in gt and outside Ξ -> silent.
        assert!(node_validation(11, 14, 10, HintStyle::MaxDiff, Some((-3, 3))).is_none());
        // 9 -> 14 crosses the filter: counters yes, but no Ξ value.
        let p = node_validation(9, 14, 10, HintStyle::MaxDiff, Some((-3, 3))).unwrap();
        assert!(p.extra.vals.is_empty());
        assert_eq!(p.counters.outof_lt, 1);
    }

    #[test]
    fn merge_aggregates_counters_hints_and_values() {
        let mut a = node_validation(3, 15, 10, HintStyle::MinMax, None).unwrap();
        let b = node_validation(12, 4, 10, HintStyle::MinMax, None).unwrap();
        a.merge(b);
        assert_eq!(a.counters.outof_lt, 1);
        assert_eq!(a.counters.into_lt, 1);
        assert_eq!(a.counters.outof_gt, 1);
        assert_eq!(a.counters.into_gt, 1);
        assert_eq!(a.hint_min, 4);
        assert_eq!(a.hint_max, 15);
        assert_eq!(a.max_diff, 6);
    }

    #[test]
    fn bounds_from_both_styles() {
        let mut p = node_validation(12, 4, 10, HintStyle::MinMax, None).unwrap();
        assert_eq!(p.lower_bound(10), 4);
        assert_eq!(p.upper_bound(10), 10); // no upward mover yet
        p.style = HintStyle::MaxDiff;
        assert_eq!(p.lower_bound(10), 4);
        assert_eq!(p.upper_bound(10), 16); // symmetric widening
    }

    #[test]
    fn payload_sizes_differ_by_style() {
        let sizes = MessageSizes::default();
        let pos = node_validation(3, 15, 10, HintStyle::MinMax, None).unwrap();
        let hbc = node_validation(3, 15, 10, HintStyle::MaxDiff, None).unwrap();
        assert_eq!(pos.payload_bits(&sizes), 4 * 16 + 2 * 16);
        assert_eq!(hbc.payload_bits(&sizes), 4 * 16 + 16);
        let iq = node_validation(8, 9, 10, HintStyle::MaxDiff, Some((-3, 2))).unwrap();
        assert_eq!(iq.payload_bits(&sizes), 4 * 16 + 16 + 16);
        assert_eq!(iq.value_count(), 1);
    }
}
