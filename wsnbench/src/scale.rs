//! `scale_10k`: one HBC instance on a 10 000-sensor constant-density
//! world (`wsn_bench::scale`), whose per-node arrays spill a 2 MiB L2, on
//! lossless links. A unit is one round; the first rounds after a warm-up
//! form the reference.

use cqp_core::hbc::HbcConfig;
use cqp_core::{ContinuousQuantile, Hbc, QueryConfig};
use wsn_bench::scale;
use wsn_data::Rng;
use wsn_net::{MessageSizes, Network, NodeId, Point, RadioModel, RoutingTree, Topology, Value};

use crate::common::{
    catch, mix, probe, rank_error, timed, traced_unit, Budget, NetCounts, Outcome, Workload,
};
use crate::trace::Tracer;

pub struct Scale {
    seed: u64,
    sensors: usize,
    warmup: u32,
    reference_rounds: usize,
    setup_worlds: u64,
}

impl Scale {
    pub fn new(seed: u64) -> Scale {
        Scale {
            seed,
            sensors: 10_000,
            warmup: 200,
            reference_rounds: 1000,
            setup_worlds: 9,
        }
    }

    /// The same workload on 300 sensors, for tests.
    #[cfg(test)]
    pub fn smoke(seed: u64) -> Scale {
        Scale {
            seed,
            sensors: 300,
            warmup: 5,
            reference_rounds: 10,
            setup_worlds: 2,
        }
    }

    fn hbc(&self, net: &Network) -> (Hbc, Oracle) {
        let query = QueryConfig::median(self.sensors, 0, 1023);
        let alg = Hbc::new(query, HbcConfig::default(), &MessageSizes::default());
        let reached = (1..=self.sensors)
            .filter(|&i| net.is_reachable(NodeId(i as u32)))
            .collect();
        let oracle = Oracle {
            reached,
            values: Vec::new(),
            k: query.k,
        };
        (alg, oracle)
    }

    /// Folds round `i` after the warm-up into the reference: every answer,
    /// then the ledger and counters once the last reference round is done.
    fn refer(&self, out: &mut Outcome, i: usize, answer: Value, net: &Network) {
        if i >= self.reference_rounds {
            return;
        }
        out.reference.digest.push(&answer.to_le_bytes());
        if i + 1 == self.reference_rounds {
            let rounds = self.warmup as u64 + self.reference_rounds as u64;
            let hotspot = net.ledger().max_sensor_consumption();
            let counts = NetCounts::of(net);
            let r = &mut out.reference;
            r.add(
                &format!("{:016x} {counts:?}", hotspot.to_bits()),
                hotspot / rounds as f64,
                counts.bits as f64 / rounds as f64,
            );
            r.add_counts(counts, rounds);
        }
    }
}

/// The rank check for a world whose orphaned sensors (up to 1 %) never
/// reach the sink: HBC answers rank `k` of the sensors that do.
struct Oracle {
    reached: Vec<usize>,
    values: Vec<Value>,
    k: u64,
}

impl Oracle {
    fn exact(&mut self, values: &[Value], answer: Value) -> bool {
        self.values.clear();
        self.values
            .extend(self.reached.iter().map(|&i| values[i - 1]));
        rank_error(&self.values, answer, self.k) == 0
    }
}

/// `wsn_bench::scale::build_world` up to the tree, so that set-up time
/// splits into the world and `Network::new`.
fn world(n: usize, seed: u64) -> (Topology, RoutingTree) {
    let side =
        (((n + 1) as f64) * std::f64::consts::PI * scale::RHO * scale::RHO / scale::DEG).sqrt();
    let mut rng = Rng::seed_from_u64(seed);
    let raw = wsn_data::placement::uniform(n, side, side, &mut rng);
    let positions: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let topo = Topology::build(positions, scale::RHO);
    let (tree, orphans) = RoutingTree::spanning_alive(&topo, &vec![true; n + 1]);
    assert!(orphans.len() * 100 < n, "placement too sparse");
    (topo, tree)
}

impl Workload for Scale {
    fn reference_units(&self) -> usize {
        self.reference_rounds
    }

    fn unit(&self) -> &'static str {
        "one HBC round over all sensors"
    }

    fn measure(&self, budget: &mut Budget) -> Outcome {
        let mut out = Outcome::default();
        let mut first = None;
        for i in 0..self.setup_worlds {
            let (dt, net) = timed(|| scale::build_world(self.sensors, mix(self.seed, i)));
            out.setup_s.push(dt);
            first.get_or_insert(net);
        }
        let mut net = first.expect("at least one world");
        let (mut alg, mut oracle) = self.hbc(&net);
        let mut values = vec![0 as Value; self.sensors];
        for t in 0..self.warmup {
            scale::sample(&mut values, t);
            alg.round(&mut net, &values);
        }
        let mut i = 0;
        while budget.more(i) {
            let t = self.warmup + i as u32;
            let round = catch(|| {
                timed(|| {
                    scale::sample(&mut values, t);
                    alg.round(&mut net, &values)
                })
            });
            let Ok((dt, answer)) = round else {
                out.record(false);
                break;
            };
            out.unit_s.push(dt);
            out.record(oracle.exact(&values, answer));
            self.refer(&mut out, i, answer, &net);
            i += 1;
        }
        out
    }

    fn trace(&self, budget: &mut Budget, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut first = None;
        for i in 0..self.setup_worlds {
            let start = tr.elapsed_ns();
            let (topo, tree) = tr.span("setup", "world", || world(self.sensors, mix(self.seed, i)));
            let net = tr.span("setup", "network", || {
                Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
            });
            out.setup_s.push((tr.elapsed_ns() - start) as f64 * 1e-9);
            first.get_or_insert(net);
        }
        let mut net = first.expect("at least one world");
        let (mut alg, mut oracle) = self.hbc(&net);
        let mut values = vec![0 as Value; self.sensors];
        tr.span("warmup", "hbc_rounds", || {
            for t in 0..self.warmup {
                scale::sample(&mut values, t);
                alg.round(&mut net, &values);
            }
        });
        let before = NetCounts::of(&net);
        let mut i = 0;
        while budget.more(i) {
            let t = self.warmup + i as u32;
            tr.set_unit(i as u32);
            let (dt, round) = traced_unit(tr, "round", |tr| {
                tr.span("data", "sample", || scale::sample(&mut values, t));
                tr.span("protocol", "HBC", || alg.round(&mut net, &values))
            });
            let Ok(answer) = round else {
                out.record(false);
                break;
            };
            out.unit_s.push(dt);
            let exact = tr.span("oracle", "rank_error", || oracle.exact(&values, answer));
            out.record(exact);
            self.refer(&mut out, i, answer, &net);
            i += 1;
        }
        out.traced_counts = NetCounts::of(&net).since(&before);
        out.probe = Some(probe(net.topology(), net.tree(), tr));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_world_builds_the_library_world() {
        let mut lib = scale::build_world(300, 9);
        let (topo, tree) = world(300, 9);
        let mut split = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        let mut answers = Vec::new();
        for net in [&mut lib, &mut split] {
            answers.push(scale::hbc_rounds(net, 300, 4));
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(NetCounts::of(&lib), NetCounts::of(&split));
        assert_eq!(
            lib.ledger().max_sensor_consumption().to_bits(),
            split.ledger().max_sensor_consumption().to_bits()
        );
    }
}
