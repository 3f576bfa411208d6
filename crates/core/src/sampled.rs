//! Probabilistic quantiles by node sampling (§3.1: "exact solutions can
//! usually be made probabilistic by querying only a subset of nodes, e.g.,
//! by employing a layered architecture as described in \[28\]").
//!
//! A fixed random *layer* of nodes participates; everyone else only
//! relays. The root computes the exact φ-quantile **of the sample**, which
//! estimates the population quantile with a rank error that concentrates
//! like `O(√(|N|²·p(1−p)/m))` for sample size `m` — the energy/accuracy
//! dial the paper's related work points at. The `sampling` experiment
//! quantifies that dial against the exact protocols.

use wsn_net::{Network, WaveStore};

use crate::payloads::ValueList;
use crate::protocol::{measurement, ContinuousQuantile, QueryConfig};
use crate::rank::{kth_smallest_mut, rank_of_phi};
use crate::retrieval::delivered;
use crate::Value;

/// TAG over a sampled layer: per round, only layer members report, pruned
/// to the sample's k'-smallest along the tree.
#[derive(Debug, Clone)]
pub struct SampledQuantile {
    query: QueryConfig,
    phi: f64,
    /// Layer membership per sensor (index 0 = sensor 1).
    member: Vec<bool>,
    sample_size: usize,
    last: Option<Value>,
    /// Collection storage, reused every round.
    lists: WaveStore<ValueList>,
}

impl SampledQuantile {
    /// Creates a sampled query: each sensor joins the layer independently
    /// with probability `p`, drawn from the deterministic `seed`. At least
    /// one member is guaranteed (the first sensor joins if none did).
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1` and `n > 0`.
    pub fn new(query: QueryConfig, phi: f64, n: usize, p: f64, seed: u64) -> Self {
        assert!(n > 0, "need sensors");
        assert!(p > 0.0 && p <= 1.0, "sampling probability in (0, 1]");
        // splitmix64-based membership draw (self-contained, reproducible).
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            // Divide by 2^64 (not u64::MAX) so the uniform is strictly in
            // [0, 1): with /u64::MAX the draw could be exactly 1.0 and
            // `next() < p` would exclude a sensor even at p = 1.0.
            (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
        };
        let mut member: Vec<bool> = (0..n).map(|_| next() < p).collect();
        if !member.iter().any(|&m| m) {
            member[0] = true;
        }
        let sample_size = member.iter().filter(|&&m| m).count();
        SampledQuantile {
            query,
            phi,
            member,
            sample_size,
            last: None,
            lists: WaveStore::new(),
        }
    }

    /// Number of layer members.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// The sample-side rank `k' = ⌊φ·m⌋` targeted each round.
    pub fn sample_rank(&self) -> u64 {
        rank_of_phi(self.phi, self.sample_size)
    }
}

impl ContinuousQuantile for SampledQuantile {
    fn name(&self) -> &'static str {
        "Sampled"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let k_sample = self.sample_rank() as usize;
        let member = &self.member;
        let own = |id: wsn_net::NodeId, slot: &mut Option<ValueList>| {
            let v = measurement(values, id);
            let sampled = member[id.index() - 1];
            if sampled {
                slot.get_or_insert_with(ValueList::default).set_single(v);
            }
            sampled
        };
        let prune = |_, l: &mut ValueList| l.keep_smallest(k_sample);
        let collected = delivered(net.convergecast_in(&mut self.lists, own, prune));
        let q = if collected.is_empty() {
            self.last.unwrap_or(self.query.range_min)
        } else {
            kth_smallest_mut(
                collected,
                (k_sample as u64).min(collected.len() as u64).max(1),
            )
        };
        self.last = Some(q);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::{MessageSizes, Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn full_sampling_is_exact() {
        let n = 30;
        let query = QueryConfig::median(n, 0, 1023);
        let mut alg = SampledQuantile::new(query, 0.5, n, 1.0, 7);
        assert_eq!(alg.sample_size(), n);
        let mut net = line_net(n);
        for t in 0..10i64 {
            let values: Vec<Value> = (0..n as i64).map(|i| (i * 31 + t * 7) % 1024).collect();
            assert_eq!(
                alg.round(&mut net, &values),
                crate::rank::kth_smallest(&values, query.k)
            );
        }
    }

    #[test]
    fn sampling_rate_controls_membership() {
        let n = 2000;
        let query = QueryConfig::median(n, 0, 1023);
        for &p in &[0.1f64, 0.3, 0.7] {
            let alg = SampledQuantile::new(query, 0.5, n, p, 11);
            let m = alg.sample_size() as f64;
            let expect = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (m - expect).abs() < 5.0 * sd,
                "p={p}: {m} members vs expected {expect}"
            );
        }
    }

    #[test]
    fn estimate_is_close_on_smooth_data_and_cheaper_than_tag() {
        let n = 300;
        let query = QueryConfig::median(n, 0, 10_000);
        let mut sampled = SampledQuantile::new(query, 0.5, n, 0.2, 3);
        let mut tag = crate::Tag::new(query);
        let mut net_s = line_net(n);
        let mut net_t = line_net(n);
        let values: Vec<Value> = (0..n as i64).map(|i| i * 30).collect();
        let est = sampled.round(&mut net_s, &values);
        let truth = tag.round(&mut net_t, &values);
        // Rank error within a few standard deviations of binomial sampling.
        let rank_est = values.iter().filter(|&&v| v < est).count() as f64;
        let rank_truth = values.iter().filter(|&&v| v < truth).count() as f64;
        assert!(
            (rank_est - rank_truth).abs() < 0.25 * n as f64,
            "rank {rank_est} vs {rank_truth}"
        );
        // And the sample moved far fewer values.
        assert!(net_s.stats().values < net_t.stats().values / 2);
    }

    #[test]
    fn full_probability_includes_every_sensor() {
        // p = 1.0 must make the layer the whole network for *any* seed:
        // the membership uniform is strictly in [0, 1), so `next() < 1.0`
        // can never exclude a sensor.
        for seed in 0..64u64 {
            for n in [1usize, 7, 100] {
                let query = QueryConfig::median(n, 0, 1023);
                let alg = SampledQuantile::new(query, 0.5, n, 1.0, seed);
                assert_eq!(alg.sample_size(), n, "seed={seed} n={n}");
            }
        }
    }

    #[test]
    fn at_least_one_member_is_guaranteed() {
        let query = QueryConfig::median(5, 0, 100);
        // Absurdly small p: the constructor still guarantees a member.
        let alg = SampledQuantile::new(query, 0.5, 5, 1e-12, 1);
        assert!(alg.sample_size() >= 1);
    }

    #[test]
    #[should_panic(expected = "sampling probability")]
    fn rejects_zero_probability() {
        let _ = SampledQuantile::new(QueryConfig::median(5, 0, 100), 0.5, 5, 0.0, 1);
    }
}
