//! `paper_batch` and `dynamic_lossy`: one query per run, the path behind
//! `experiments` and `simulate --all`. A unit is one pass over the
//! protocol list on run index `r`, in the world `run_once` draws for
//! `(seed, r)`.

use cqp_core::protocol::QueryConfig;
use wsn_net::loss::LossModel;
use wsn_net::{EnergyAuditor, FailureModel, Network, NodeId, ReliabilityConfig};
use wsn_sim::runner::{build_world, run_once};
use wsn_sim::{AlgorithmKind, DynamicsConfig, RunMetrics, SimulationConfig, Value};

use crate::common::{
    catch, mix, probe, rank_error, run_rng, timed, traced_unit, Budget, NetCounts, Outcome,
    Workload,
};
use crate::trace::Tracer;

pub struct Solo {
    cfg: SimulationConfig,
    kinds: Vec<AlgorithmKind>,
    /// Passes whose outputs form the reference digest.
    reference_passes: usize,
    /// Worlds built for the set-up time.
    setup_worlds: u32,
    unit: &'static str,
}

impl Solo {
    /// The Table 2 world (1000 sensors, 200 m × 200 m, ρ = 35 m, τ = 125,
    /// ψ = 10 %) for Table 2's 250 rounds, through the 8-protocol battery.
    pub fn paper_batch(seed: u64) -> Solo {
        Solo {
            cfg: SimulationConfig {
                rounds: 250,
                runs: 1,
                seed: mix(seed, 0),
                ..SimulationConfig::default()
            },
            kinds: AlgorithmKind::battery(100, 0).to_vec(),
            reference_passes: 6,
            setup_worlds: 25,
            unit: "one 250-round run of each of the 8 battery protocols",
        }
    }

    /// The Table 2 world with 5 % loss under ARQ and recovery, sensors
    /// moving a quarter radio range every 4 rounds, drifting links and a
    /// 10 % duty cycle, through HBC and IQ. Churn stays off: at 1 % churn
    /// HBC is exact on only 13 % of rounds.
    pub fn dynamic_lossy(seed: u64) -> Solo {
        Solo {
            cfg: SimulationConfig {
                rounds: 250,
                runs: 1,
                seed: mix(seed, 0),
                loss: Some(0.05),
                reliability: ReliabilityConfig::recovering(3, 4),
                dynamics: Some(DynamicsConfig {
                    mobility_step: 0.25 * 35.0,
                    churn: 0.0,
                    drift: 0.1,
                    duty_milli: 100,
                    epoch: 4,
                }),
                ..SimulationConfig::default()
            },
            kinds: vec![AlgorithmKind::Hbc, AlgorithmKind::Iq],
            reference_passes: 5,
            setup_worlds: 25,
            unit: "one 250-round run of HBC and of IQ",
        }
    }

    /// The same workload on a 60-sensor, 12-round world, for tests.
    #[cfg(test)]
    pub fn smoke(mut self) -> Solo {
        self.cfg.sensor_count = 60;
        self.cfg.radio_range = 80.0;
        self.cfg.rounds = 12;
        self.reference_passes = 2;
        self.setup_worlds = 2;
        self
    }

    fn set_up(&self, r: u32) -> Network {
        let mut rng = run_rng(self.cfg.seed, r);
        let (_, topo, tree) = build_world(&self.cfg, &mut rng);
        Network::new(topo, tree, self.cfg.radio, self.cfg.sizes)
    }

    /// Checks one pass and folds it into the reference when `pass` is a
    /// reference pass.
    fn judge<'a>(
        &self,
        out: &mut Outcome,
        pass: usize,
        runs: impl Iterator<Item = (&'a RunMetrics, Option<NetCounts>)>,
    ) {
        // As in `wsn_check::invariants`, answers must be within tolerance
        // only where the population cannot move: under mobility a round
        // can miss the oracle's rank, which the digest still records.
        let moving = self
            .cfg
            .dynamics
            .is_some_and(|d| d.mobility_step > 0.0 || d.churn > 0.0);
        let mut ok = true;
        for (m, counts) in runs {
            ok &= (moving || m.max_rank_error <= m.rank_tolerance) && m.audit_discrepancies == 0;
            if pass < self.reference_passes {
                let r = &mut out.reference;
                r.add(
                    &format!("{m:?}"),
                    m.max_node_energy_per_round,
                    m.bits_per_round,
                );
                if let Some(c) = counts {
                    r.add_counts(c, self.cfg.rounds as u64);
                }
            }
        }
        out.record(ok);
    }
}

impl Workload for Solo {
    fn reference_units(&self) -> usize {
        self.reference_passes
    }

    fn unit(&self) -> &'static str {
        self.unit
    }

    fn measure(&self, budget: &mut Budget) -> Outcome {
        let mut out = Outcome::default();
        for r in 0..self.setup_worlds {
            out.setup_s.push(timed(|| self.set_up(r)).0);
        }
        let mut pass = 0;
        while budget.more(pass) {
            let (dt, runs) = timed(|| {
                catch(|| {
                    self.kinds
                        .iter()
                        .map(|&k| run_once(&self.cfg, k, pass as u32))
                        .collect::<Vec<_>>()
                })
            });
            out.unit_s.push(dt);
            match runs {
                Ok(runs) => self.judge(&mut out, pass, runs.iter().map(|m| (m, None))),
                Err(_) => out.record(false),
            }
            pass += 1;
        }
        out
    }

    fn trace(&self, budget: &mut Budget, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        for r in 0..self.setup_worlds {
            let start = tr.elapsed_ns();
            let mut rng = run_rng(self.cfg.seed, r);
            let (_, topo, tree) = tr.span("setup", "world", || build_world(&self.cfg, &mut rng));
            tr.span("setup", "network", || {
                Network::new(topo, tree, self.cfg.radio, self.cfg.sizes)
            });
            out.setup_s.push((tr.elapsed_ns() - start) as f64 * 1e-9);
        }
        let mut last = None;
        let mut pass = 0;
        while budget.more(pass) {
            tr.set_unit(pass as u32);
            let (dt, runs) = traced_unit(tr, "pass", |tr| {
                self.kinds
                    .iter()
                    .map(|&k| traced_run_once(&self.cfg, k, pass as u32, tr))
                    .collect::<Vec<_>>()
            });
            out.unit_s.push(dt);
            match runs {
                Ok(mut runs) => {
                    let counts: Vec<NetCounts> =
                        runs.iter().map(|(_, n)| NetCounts::of(n)).collect();
                    counts.iter().for_each(|c| out.traced_counts.add(c));
                    self.judge(
                        &mut out,
                        pass,
                        runs.iter().zip(counts).map(|((m, _), c)| (m, Some(c))),
                    );
                    last = runs.pop().map(|(_, net)| net);
                }
                Err(_) => out.record(false),
            }
            pass += 1;
        }
        if let Some(net) = last {
            out.probe = Some(probe(net.topology(), net.tree(), tr));
        }
        out
    }
}

/// `wsn_sim::runner::run_once_capture` with a span around every call into
/// a layer: the same RNG draws in the same order, so the metrics and the
/// final network are identical to the untraced run's.
pub fn traced_run_once(
    cfg: &SimulationConfig,
    kind: AlgorithmKind,
    run_index: u32,
    tr: &mut Tracer,
) -> (RunMetrics, Network) {
    tr.begin("run", kind.name());
    let mut rng = run_rng(cfg.seed, run_index);
    let (mut dataset, topo, tree) = tr.span("setup", "world", || build_world(cfg, &mut rng));
    let n = dataset.sensor_count();
    let query = QueryConfig::phi(cfg.phi, n, dataset.range_min(), dataset.range_max());
    let mut alg = kind.build(query, &cfg.sizes);
    let mut net = tr.span("setup", "network", || {
        Network::new(topo, tree, cfg.radio, cfg.sizes)
    });
    net.set_audit(cfg.audit);
    net.set_telemetry(cfg.telemetry);
    net.set_wave_workers(cfg.wave_workers);
    if let Some(p) = cfg.loss {
        net.set_loss(Some(LossModel::new(p, rng.next_u64())));
    }
    net.set_reliability(cfg.reliability);
    if let Some(pf) = cfg.node_failure {
        net.set_failures(Some(FailureModel::new(pf, rng.next_u64())));
    }
    let mut dynamics = wsn_sim::dynamics::init(cfg.dynamics.as_ref(), cfg.loss, &mut net, &mut rng);
    let moving_population = cfg
        .dynamics
        .as_ref()
        .is_some_and(|d| d.churn > 0.0 || d.mobility_step > 0.0);

    let mut values = vec![0 as Value; n];
    let mut reachable = Vec::new();
    let (mut exact_rounds, mut rank_error_sum, mut max_rank_error) = (0u32, 0u64, 0u64);
    for t in 0..cfg.rounds {
        net.fail_round();
        if let Some(d) = dynamics.as_mut() {
            if tr.span("dynamics", "apply", || d.apply(t, &mut net)) {
                alg.topology_changed();
            }
        }
        tr.span("data", "sample_round", || {
            dataset.sample_round(t, &mut values)
        });
        let answer = tr.span("protocol", kind.name(), || alg.round(&mut net, &values));
        let err = tr.span("oracle", "rank_error", || {
            if cfg.node_failure.is_some() || moving_population {
                reachable.clear();
                reachable.extend(
                    (1..=n)
                        .filter(|&i| net.is_reachable(NodeId(i as u32)))
                        .map(|i| values[i - 1]),
                );
                let m = reachable.len();
                if m == 0 {
                    0
                } else if cfg.node_failure.is_some() {
                    let k = (cfg.phi * m as f64).ceil() as u64;
                    rank_error(&reachable, answer, k.clamp(1, m as u64))
                } else {
                    rank_error(&reachable, answer, cqp_core::rank::rank_of_phi(cfg.phi, m))
                }
            } else {
                rank_error(&values, answer, query.k)
            }
        });
        exact_rounds += (err == 0) as u32;
        rank_error_sum += err;
        max_rank_error = max_rank_error.max(err);
    }

    let (audit_events, audit_discrepancies) = if cfg.audit {
        let report = tr.span("audit", "verify", || EnergyAuditor::verify(&net));
        (report.events, report.discrepancies.len() as u32)
    } else {
        (0, 0)
    };
    let rounds = cfg.rounds.max(1) as f64;
    let ledger = net.ledger();
    let stats = net.stats();
    let rel = net.reliability_stats();
    let metrics = RunMetrics {
        max_node_energy_per_round: ledger.max_sensor_consumption() / rounds,
        lifetime_rounds: ledger.estimated_lifetime_rounds(net.model()),
        messages_per_round: stats.messages as f64 / rounds,
        values_per_round: stats.values as f64 / rounds,
        bits_per_round: stats.bits as f64 / rounds,
        exact_rounds,
        total_rounds: cfg.rounds,
        mean_rank_error: rank_error_sum as f64 / rounds,
        max_rank_error,
        rank_tolerance: alg.rank_tolerance(n as u64),
        hotspot_rx_fraction: ledger.hotspot_rx_fraction(),
        delivery_rate: rel.delivery_rate(),
        retransmissions_per_round: rel.retransmissions as f64 / rounds,
        peak_round_energy: ledger.max_round_sensor_consumption(),
        failed_nodes: rel.failed_nodes as u32,
        rebuilds: rel.rebuilds as u32,
        phase_joules: net.phases().joules(),
        phase_bits: net.phases().bits(),
        audit_events,
        audit_discrepancies,
        hists: net.histograms().total(),
    };
    tr.end();
    (metrics, net)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced driver reproduces `run_once`'s metrics (traffic, ledger,
    /// exact rounds, everything) for every protocol of both workloads,
    /// including an audited and a failing-node variant of the oracle.
    #[test]
    fn traced_runs_reproduce_run_once() {
        for solo in [Solo::paper_batch(3).smoke(), Solo::dynamic_lossy(3).smoke()] {
            let failing = SimulationConfig {
                node_failure: Some(0.02),
                audit: true,
                ..solo.cfg.clone()
            };
            for cfg in [&solo.cfg, &failing] {
                for &kind in &AlgorithmKind::battery(100, 0) {
                    let mut tr = Tracer::default();
                    let (traced, _) = traced_run_once(cfg, kind, 1, &mut tr);
                    assert_eq!(traced, run_once(cfg, kind, 1), "{}", kind.name());
                    assert_eq!(tr.depth(), 0);
                }
            }
        }
    }
}
