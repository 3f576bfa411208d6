//! GKS — an ε-tolerant *continuous* variant of the GK summary method
//! (Greenwald & Khanna, "Space-Efficient Online Computation of Quantile
//! Summaries"), maintaining sink-side state across epochs.
//!
//! The exact [`crate::Gk`] treats every round as a fresh snapshot and pays
//! the full summary/counting cascade each time. GKS exploits the
//! continuous-query structure the paper builds on (§4): most rounds the
//! quantile barely moves, so a *validation* exchange — broadcast the
//! current answer, convergecast the exact `(l, e, g)` counts against it —
//! suffices to certify that the standing answer is still within the error
//! budget `⌊ε·n⌋` ranks of the true k-th value. Only when validation
//! fails does a *refinement epoch* run: a GK-style narrowing loop
//! ([`crate::summary::RankSummary`] convergecasts + exact counting),
//! extended with an ε early-exit — the loop stops as soon as any summary
//! entry's certified global rank interval `[below + rmin, below + rmax]`
//! fits inside `[k − tol, k + tol]`. The final interval is kept as sink
//! state and seeds the next epoch, so slow drift re-certifies from a
//! narrow interval instead of the full value range.
//!
//! With `ε = 0` the early-exit degenerates to requiring an exact pin and
//! the protocol behaves like a validation-gated exact GK.

use wsn_net::{Aggregate, MessageSizes, Network, NodeId};

use crate::gk::{counting_pass, narrow, Candidates, Stores};
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::rank::{Counts, Side};
use crate::summary::RankSummary;
use crate::Value;

/// Validation counts aggregate: `(l, e, g)` against the standing answer.
#[derive(Debug, Clone, Copy, Default)]
struct CountsMsg(Counts);

impl Aggregate for CountsMsg {
    fn merge(&mut self, other: Self) {
        self.0.l += other.0.l;
        self.0.e += other.0.e;
        self.0.g += other.0.g;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        3 * sizes.counter_bits
    }
}

/// Sink state carried across epochs: the last refined interval and the
/// exact below-count it was certified with.
#[derive(Debug, Clone)]
struct SinkState {
    lo: Value,
    hi: Value,
}

/// The GK sink-summary protocol: ε-tolerant continuous quantiles with
/// near-zero traffic on unchanged rounds.
#[derive(Debug, Clone)]
pub struct GkSinkQuantile {
    query: QueryConfig,
    /// Error budget, in thousandths (`ε = eps_milli / 1000`).
    eps_milli: u32,
    /// Summary entries per forwarded message.
    capacity: usize,
    last: Option<Value>,
    state: Option<SinkState>,
    last_iterations: u32,
    /// True when the previous round ended in a refinement epoch
    /// (observable for tests/metrics, not on the wire).
    refined_last_round: bool,
    stores: Stores,
}

impl GkSinkQuantile {
    /// Creates a GKS query with error budget `ε = eps_milli/1000`.
    /// `capacity` bounds summary entries per message; 0 derives the
    /// largest capacity that fits one payload (like [`crate::Gk`]).
    pub fn new(query: QueryConfig, sizes: &MessageSizes, eps_milli: u32, capacity: u32) -> Self {
        let derived =
            ((sizes.max_payload_bits - sizes.counter_bits) / sizes.summary_entry_bits()).max(4);
        let capacity = if capacity == 0 {
            derived as usize
        } else {
            (capacity as usize).max(2)
        };
        GkSinkQuantile {
            query,
            eps_milli: eps_milli.min(1000),
            capacity,
            last: None,
            state: None,
            last_iterations: 0,
            refined_last_round: false,
            stores: Stores::default(),
        }
    }

    /// The configured error budget in thousandths.
    pub fn eps_milli(&self) -> u32 {
        self.eps_milli
    }

    /// Summary capacity per message.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Narrowing iterations used by the last round (0 = validation only).
    pub fn last_iterations(&self) -> u32 {
        self.last_iterations
    }

    /// True when the previous round needed a refinement epoch.
    pub fn refined_last_round(&self) -> bool {
        self.refined_last_round
    }

    /// The error budget in ranks at population size `n`.
    fn tol(&self, n: u64) -> u64 {
        self.eps_milli as u64 * n / 1000
    }

    /// Validation exchange: broadcast the standing answer, collect exact
    /// `(l, e, g)` counts against it.
    fn validation_pass(&mut self, net: &mut Network, values: &[Value], q: Value) -> Counts {
        net.broadcast_into(net.sizes().value_bits, &mut self.stores.recv);
        let recv = &self.stores.recv;
        let count = |id: NodeId| {
            let idx = id.index();
            recv.get(idx).then(|| {
                let mut c = Counts::default();
                match crate::rank::side(values[idx - 1], q) {
                    Side::Lt => c.l = 1,
                    Side::Eq => c.e = 1,
                    Side::Gt => c.g = 1,
                }
                CountsMsg(c)
            })
        };
        net.convergecast(count).unwrap_or_default().0
    }

    /// An entry whose certified global rank interval
    /// `[below + rmin, below + rmax]` fits inside `[k − tol, k + tol]`
    /// (an answer provably within the budget), if any. Prefers the entry
    /// whose interval midpoint is closest to `k`.
    fn certified_answer(summary: &RankSummary, below: u64, k: u64, tol: u64) -> Option<Value> {
        let lo_ok = k.saturating_sub(tol);
        let hi_ok = k + tol;
        summary
            .entries
            .iter()
            .filter(|e| below + e.rmin >= lo_ok && below + e.rmax <= hi_ok)
            .min_by_key(|e| {
                let mid = 2 * below + e.rmin + e.rmax; // 2× midpoint
                mid.abs_diff(2 * k)
            })
            .map(|e| e.value)
    }

    /// One refinement epoch: GK-style narrowing with ε early-exit,
    /// seeded from the previous epoch's interval when it still brackets
    /// the target rank. Returns the new answer.
    fn refine(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let n_total = values.len() as u64;
        let k = self.query.k;
        let tol = self.tol(n_total);
        let (lo, hi) = (self.query.range_min, self.query.range_max);
        let mut candidates = Candidates {
            lo,
            hi,
            below: 0,
            inside: n_total,
        };

        // Seed from cross-epoch state: one counting pass verifies the old
        // interval still brackets rank k. Slow drift keeps this narrow
        // interval valid, skipping the expensive full-range iterations.
        if let Some(state) = self.state.clone() {
            if (state.lo, state.hi) != (lo, hi) {
                self.last_iterations += 1;
                let recv = &mut self.stores.recv;
                let c = counting_pass(net, recv, values, lo, hi, state.lo, state.hi);
                if c.below < k && k <= c.below + c.inside {
                    candidates = Candidates {
                        lo: state.lo,
                        hi: state.hi,
                        below: c.below,
                        inside: c.inside,
                    };
                }
            }
        }

        // ε early-exit: any entry already certified within the budget
        // ends the epoch without further traffic.
        let certified =
            |summary: &RankSummary, below| Self::certified_answer(summary, below, k, tol);
        let (result, (lo, hi)) = narrow(
            net,
            &mut self.stores,
            self.capacity,
            values,
            k,
            self.last,
            &mut self.last_iterations,
            candidates,
            certified,
        );
        self.state = Some(SinkState { lo, hi });
        result
    }
}

impl ContinuousQuantile for GkSinkQuantile {
    fn name(&self) -> &'static str {
        "GKS"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        self.last_iterations = 0;
        self.refined_last_round = false;

        // Validation: certify the standing answer against exact counts.
        if let Some(q) = self.last {
            net.set_phase(wsn_net::Phase::Validation);
            let counts = self.validation_pass(net, values, q);
            let n_obs = counts.n();
            let k = self.query.k;
            let tol = self.tol(n_obs);
            // Accept iff the answer's rank span [l+1, l+e] is within tol
            // of k: l < k + tol and l + e + tol ≥ k. Degenerates to the
            // exact validity condition (l < k ≤ l+e) at tol = 0.
            let accept = n_obs >= k && counts.l < k + tol && counts.l + counts.e + tol >= k;
            if accept {
                return q;
            }
            net.set_phase(wsn_net::Phase::Refinement);
        } else {
            net.set_phase(wsn_net::Phase::Init);
        }

        self.refined_last_round = true;
        let result = self.refine(net, values);
        self.last = Some(result);
        result
    }

    /// Advertised bound `⌊ε·n⌋`: both the validation acceptance rule and
    /// the refinement early-exit certify answers to exactly this budget.
    fn rank_tolerance(&self, n: u64) -> u64 {
        self.tol(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::{Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    /// True rank error of answer `v` (mirrors the runner's definition).
    fn rank_error(values: &[Value], v: Value, k: u64) -> u64 {
        let l = values.iter().filter(|&&x| x < v).count() as u64;
        let le = values.iter().filter(|&&x| x <= v).count() as u64;
        if l < k && k <= le {
            0
        } else if k <= l {
            l + 1 - k
        } else {
            k - le.max(1)
        }
    }

    fn drifting_values(n: usize, t: u64, range: u64) -> Vec<Value> {
        (0..n as u64)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(t / 4);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                ((z >> 33) % range) as Value
            })
            .collect()
    }

    #[test]
    fn zero_tolerance_degenerates_to_exact() {
        let n = 50;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 4095);
        let mut alg = GkSinkQuantile::new(query, &MessageSizes::default(), 0, 0);
        assert_eq!(alg.rank_tolerance(n as u64), 0);
        for t in 0..12u64 {
            let values = drifting_values(n, t, 4096);
            let ans = alg.round(&mut net, &values);
            assert_eq!(
                rank_error(&values, ans, query.k),
                0,
                "t={t}: answer {ans} not exact"
            );
        }
    }

    #[test]
    fn boundary_ranks_have_no_off_by_one() {
        // φ = 0 (rank 1, the minimum) and φ = 1 (rank n, the maximum) are
        // where acceptance off-by-ones live: an interval test accepting
        // rank 0 or n+1 would return a neighbor of the extremum. At ε = 0
        // the answer must sit exactly at the boundary rank.
        let n = 60;
        for (phi, k) in [(0.0, 1u64), (1.0, n as u64)] {
            let query = QueryConfig::phi(phi, n, 0, 4095);
            assert_eq!(query.k, k, "phi={phi}");
            for eps_milli in [0u32, 100] {
                let mut net = line_net(n);
                let mut alg = GkSinkQuantile::new(query, &MessageSizes::default(), eps_milli, 0);
                let tol = alg.rank_tolerance(n as u64);
                for t in 0..10u64 {
                    let values = drifting_values(n, t, 4096);
                    let ans = alg.round(&mut net, &values);
                    assert!(
                        rank_error(&values, ans, k) <= tol,
                        "phi={phi} eps={eps_milli} t={t}: answer {ans}, tol {tol}"
                    );
                }
            }
        }
    }

    #[test]
    fn answers_stay_within_the_advertised_tolerance() {
        let n = 80;
        let query = QueryConfig::median(n, 0, 1 << 14);
        for eps_milli in [20u32, 100, 300] {
            let mut net = line_net(n);
            let mut alg = GkSinkQuantile::new(query, &MessageSizes::default(), eps_milli, 0);
            let tol = alg.rank_tolerance(n as u64);
            for t in 0..15u64 {
                let values = drifting_values(n, t, 1 << 14);
                let ans = alg.round(&mut net, &values);
                assert!(
                    rank_error(&values, ans, query.k) <= tol,
                    "eps={eps_milli} t={t}: answer {ans}, tol {tol}"
                );
            }
        }
    }

    #[test]
    fn unchanged_rounds_skip_refinement() {
        // n > values_per_message so an epoch engages the full summary
        // cascade, not just direct retrieval.
        let n = 100;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 16_383);
        let mut alg = GkSinkQuantile::new(query, &MessageSizes::default(), 100, 0);
        let values = drifting_values(n, 0, 16_384);
        alg.round(&mut net, &values);
        assert!(alg.refined_last_round(), "init round must refine");
        let bits_after_init = net.stats().bits;
        // Static data: every further round is validation-only.
        for _ in 0..5 {
            alg.round(&mut net, &values);
            assert!(!alg.refined_last_round(), "static round must not refine");
        }
        let per_round = (net.stats().bits - bits_after_init) / 5;
        // Validation: one value broadcast + one counts convergecast. Far
        // below a single summary pass over the same network.
        let mut probe = GkSinkQuantile::new(query, &MessageSizes::default(), 100, 0);
        let mut net2 = line_net(n);
        probe.round(&mut net2, &values); // init epoch, includes ≥1 summary pass
        let epoch_bits = net2.stats().bits;
        assert!(
            per_round * 3 < epoch_bits,
            "validation round ({per_round} bits) should be far under an epoch ({epoch_bits} bits)"
        );
    }

    #[test]
    fn drift_within_tolerance_keeps_the_standing_answer() {
        let n = 40;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 100_000);
        let mut alg = GkSinkQuantile::new(query, &MessageSizes::default(), 200, 0);
        let base: Vec<Value> = (0..n as i64).map(|i| i * 1000).collect();
        let first = alg.round(&mut net, &base);
        // Shift a couple of values: the true median's rank moves by < tol.
        let mut drifted = base.clone();
        drifted[0] += 50_000; // one value crosses the median
        let second = alg.round(&mut net, &drifted);
        assert_eq!(first, second, "within-tolerance drift must not refine");
        assert!(!alg.refined_last_round());
        let tol = alg.rank_tolerance(n as u64);
        assert!(rank_error(&drifted, second, query.k) <= tol);
    }

    #[test]
    fn capacity_override_and_derivation() {
        let sizes = MessageSizes::default();
        let q = QueryConfig::median(10, 0, 100);
        assert_eq!(GkSinkQuantile::new(q, &sizes, 100, 0).capacity(), 21);
        assert_eq!(GkSinkQuantile::new(q, &sizes, 100, 8).capacity(), 8);
        assert_eq!(GkSinkQuantile::new(q, &sizes, 100, 1).capacity(), 2);
    }

    #[test]
    fn certified_answer_respects_the_window() {
        use crate::summary::Entry;
        let s = RankSummary {
            entries: vec![
                Entry {
                    value: 10,
                    rmin: 1,
                    rmax: 3,
                },
                Entry {
                    value: 20,
                    rmin: 4,
                    rmax: 6,
                },
                Entry {
                    value: 30,
                    rmin: 8,
                    rmax: 14,
                },
            ],
            count: 14,
        };
        // k=5, tol=1: only the middle entry's [4,6] fits [4,6].
        assert_eq!(GkSinkQuantile::certified_answer(&s, 0, 5, 1), Some(20));
        // tol=0: nothing is pinned exactly.
        assert_eq!(GkSinkQuantile::certified_answer(&s, 0, 5, 0), None);
        // A below-offset shifts every certified interval by `below`.
        assert_eq!(GkSinkQuantile::certified_answer(&s, 10, 15, 2), Some(20));
        assert_eq!(GkSinkQuantile::certified_answer(&s, 10, 12, 2), Some(10));
    }
}
