//! Constant-density scale workload, shared by the `simulate scale` CI
//! smoke gate and the benchmark's `scale_10k` workload.
//!
//! The paper's figures all run inside a fixed 200 m × 200 m arena, where
//! node count changes *density*. Here the arena grows with
//! `n` so average degree stays ≈ 13 (the Table 2 operating point) and
//! the per-round work scales linearly — the regime the struct-of-arrays
//! engine is built for.

use cqp_core::hbc::HbcConfig;
use cqp_core::{ContinuousQuantile, Hbc, QueryConfig};
use wsn_data::Rng;
use wsn_net::{MessageSizes, Network, Point, RadioModel, RoutingTree, Topology, Value};

/// Radio range ρ of Table 2.
pub const RHO: f64 = 35.0;

/// Target average degree (the Table 2 default density: 1000 nodes on
/// 200 m × 200 m with ρ = 35 gives π·ρ²·(n+1)/A ≈ 9.6; we aim slightly
/// denser so even a 100 k-node draw stays essentially connected).
pub const DEG: f64 = 13.0;

/// Builds an `n`-sensor constant-density world. Uses the orphan-tolerant
/// spanning tree: at this density a random geometric graph is connected
/// up to a handful of stragglers, and a perf workload has no reason to
/// re-draw a 100 k-node placement over them.
pub fn build_world(n: usize, seed: u64) -> Network {
    let side = (((n + 1) as f64) * std::f64::consts::PI * RHO * RHO / DEG).sqrt();
    let mut rng = Rng::seed_from_u64(seed);
    let raw = wsn_data::placement::uniform(n, side, side, &mut rng);
    let positions: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let topo = Topology::build(positions, RHO);
    let alive = vec![true; n + 1];
    let (tree, orphans) = RoutingTree::spanning_alive(&topo, &alive);
    assert!(
        orphans.len() * 100 < n,
        "placement too sparse: {} of {} nodes orphaned",
        orphans.len(),
        n
    );
    Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
}

/// Drifting integer measurements: cheap, deterministic, and changing
/// enough every round that HBC's bound maintenance stays busy.
pub fn sample(values: &mut [Value], t: u32) {
    for (i, v) in values.iter_mut().enumerate() {
        *v = (100 + (i as u64 * 11) % 80 + (t as u64 * 17) % 120) as Value;
    }
}

/// Runs `rounds` HBC rounds on a fresh protocol instance over `net` and
/// returns the last reported median.
pub fn hbc_rounds(net: &mut Network, n: usize, rounds: u32) -> Value {
    let query = QueryConfig::median(n, 0, 1023);
    let mut alg = Hbc::new(query, HbcConfig::default(), &MessageSizes::default());
    let mut values = vec![0 as Value; n];
    let mut last = 0;
    for t in 0..rounds {
        sample(&mut values, t);
        last = alg.round(net, &values);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_runs_and_answers() {
        let mut net = build_world(200, 7);
        assert_eq!(net.len(), 201);
        let answer = hbc_rounds(&mut net, 200, 3);
        // Samples live in [100, 299]; the median must too.
        assert!((100..300).contains(&answer), "median {answer} out of range");
    }

    #[test]
    fn sample_is_deterministic_and_drifts() {
        let mut a = vec![0; 32];
        let mut b = vec![0; 32];
        sample(&mut a, 5);
        sample(&mut b, 5);
        assert_eq!(a, b);
        sample(&mut b, 6);
        assert_ne!(a, b, "consecutive rounds must differ");
    }
}
