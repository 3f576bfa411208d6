//! Executes simulation runs and aggregates their metrics.

use cqp_core::protocol::QueryConfig;
use wsn_data::som::som_placement;
use wsn_data::walks::{RandomWalkDataset, RegimeDataset};
use wsn_data::{Dataset, PressureDataset, Rng, SyntheticDataset};
use wsn_net::{EnergyAuditor, Network, Point, RoutingTree, Topology};

use crate::config::{AlgorithmKind, DatasetSpec, SimulationConfig};
use crate::metrics::{AggregatedMetrics, RunMetrics};
use crate::world::World;
use crate::Value;

/// Deployment area used by all experiments (§5.1.2: 200 m × 200 m).
pub const AREA: f64 = 200.0;

/// How often a disconnected random placement is re-drawn before giving up.
pub const MAX_PLACEMENT_ATTEMPTS: u32 = 200;

/// Builds dataset + connected topology + routing tree for one run,
/// re-drawing disconnected placements. [`World::new`] builds every run's
/// world through it; it stays public so harnesses can time world
/// construction on its own.
///
/// # Panics
/// Panics when no connected placement is found within
/// [`MAX_PLACEMENT_ATTEMPTS`] draws — a sign the configuration's radio
/// range is far too small for its node density.
pub fn build_world(
    cfg: &SimulationConfig,
    rng: &mut Rng,
) -> (Box<dyn Dataset>, Topology, RoutingTree) {
    for _ in 0..MAX_PLACEMENT_ATTEMPTS {
        let (dataset, positions): (Box<dyn Dataset>, Vec<Point>) = match &cfg.dataset {
            DatasetSpec::Synthetic(scfg) => {
                let raw = wsn_data::placement::uniform(cfg.sensor_count, AREA, AREA, rng);
                let positions: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
                let sensor_pos: Vec<(f64, f64)> = raw[1..].to_vec();
                let ds = SyntheticDataset::generate(scfg.clone(), &sensor_pos, rng);
                (Box::new(ds), positions)
            }
            DatasetSpec::Pressure(pcfg) => {
                let ds = PressureDataset::generate(pcfg.clone(), rng);
                let firsts = ds.first_measurements();
                let sensor_pos = som_placement(&firsts, AREA, AREA, rng);
                // The paper re-selects the root between runs; we place the
                // sink at a random position (node traces stay fixed).
                let mut positions = vec![Point::new(
                    rng.range_f64(0.0, AREA),
                    rng.range_f64(0.0, AREA),
                )];
                positions.extend(sensor_pos.iter().map(|&(x, y)| Point::new(x, y)));
                (Box::new(ds), positions)
            }
            DatasetSpec::RandomWalk { range_size, step } => {
                let raw = wsn_data::placement::uniform(cfg.sensor_count, AREA, AREA, rng);
                let positions: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
                let ds =
                    RandomWalkDataset::new(cfg.sensor_count, 0, *range_size as i64 - 1, *step, rng);
                (Box::new(ds), positions)
            }
            DatasetSpec::Regime {
                range_size,
                phase_len,
                drift,
            } => {
                let raw = wsn_data::placement::uniform(cfg.sensor_count, AREA, AREA, rng);
                let positions: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
                let ds = RegimeDataset::new(
                    cfg.sensor_count,
                    0,
                    *range_size as i64 - 1,
                    *phase_len,
                    *drift,
                    rng,
                );
                (Box::new(ds), positions)
            }
        };
        let topo = Topology::build(positions, cfg.radio_range);
        if let Ok(tree) = RoutingTree::shortest_path_tree(&topo) {
            return (dataset, topo, tree);
        }
    }
    panic!(
        "could not find a connected placement for |N|={} ρ={} after {} attempts",
        cfg.sensor_count, cfg.radio_range, MAX_PLACEMENT_ATTEMPTS
    );
}

/// Absolute rank error of answer `v` against the true rank `k` (0 when `v`
/// is a value of rank k, i.e. `l < k ≤ l + e`).
pub(crate) fn rank_error(values: &[Value], v: Value, k: u64) -> u64 {
    // Single fused pass over the measurements (this runs once per
    // simulated round, on every round).
    let (mut l, mut e) = (0u64, 0u64);
    for &x in values {
        l += (x < v) as u64;
        e += (x == v) as u64;
    }
    if k > l && k <= l + e {
        0
    } else if k <= l {
        l + 1 - k
    } else {
        k - (l + e).max(1)
    }
}

/// A protocol factory: how ablation studies inject custom configurations
/// into the standard runner. `Sync` so runs can share it across worker
/// threads (factories are pure constructors over plain config data).
pub type ProtocolBuilder<'a> = &'a (dyn Fn(QueryConfig, &wsn_net::MessageSizes) -> Box<dyn cqp_core::ContinuousQuantile>
         + Sync);

/// Executes one simulation run and returns its metrics.
pub fn run_once(cfg: &SimulationConfig, kind: AlgorithmKind, run_index: u32) -> RunMetrics {
    run_once_with(cfg, &|q, s| kind.build(q, s), run_index)
}

/// [`run_once`] with a custom protocol factory.
pub fn run_once_with(
    cfg: &SimulationConfig,
    builder: ProtocolBuilder<'_>,
    run_index: u32,
) -> RunMetrics {
    run_once_capture(cfg, builder, run_index).0
}

/// [`run_once_with`] that also hands back the final [`Network`], so parity
/// harnesses can digest state the metrics summarize (the full audit log,
/// per-node histograms, per-round ledger snapshots) byte for byte.
pub fn run_once_capture(
    cfg: &SimulationConfig,
    builder: ProtocolBuilder<'_>,
    run_index: u32,
) -> (RunMetrics, Network) {
    let mut world = World::new(cfg, run_index);
    let n = world.sensor_count();
    let mut alg = builder(world.query(cfg.phi), &cfg.sizes);

    let mut exact_rounds = 0u32;
    let mut rank_error_sum = 0u64;
    let mut max_rank_error = 0u64;
    for t in 0..cfg.rounds {
        if world.begin_round(t) {
            alg.topology_changed();
        }
        let answer = world.round(alg.as_mut());
        let err = world.rank_error(cfg.phi, answer);
        if err == 0 {
            exact_rounds += 1;
        }
        rank_error_sum += err;
        max_rank_error = max_rank_error.max(err);
    }
    let net = world.into_net();

    let (audit_events, audit_discrepancies) = if cfg.audit {
        let report = EnergyAuditor::verify(&net);
        debug_assert!(
            report.is_clean(),
            "energy audit failed: {:?}",
            report.discrepancies
        );
        (report.events, report.discrepancies.len() as u32)
    } else {
        (0, 0)
    };

    let rounds = cfg.rounds.max(1) as f64;
    let ledger = net.ledger();
    let hotspot = ledger.max_sensor_consumption() / rounds;
    let stats = net.stats();
    let rel = net.reliability_stats();
    let metrics = RunMetrics {
        max_node_energy_per_round: hotspot,
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
    (metrics, net)
}

/// Literal network-lifetime measurement: replays dataset rounds (cycling
/// after `cfg.rounds`) until the first sensor's cumulative consumption
/// exceeds its initial energy supply, and returns that round number.
/// Slower than the extrapolated estimate in [`RunMetrics`] but makes no
/// stationarity assumption (DESIGN.md §3.3). `max_rounds` bounds runaway
/// configurations.
pub fn run_until_death(
    cfg: &SimulationConfig,
    kind: AlgorithmKind,
    run_index: u32,
    max_rounds: u32,
) -> Option<u32> {
    let mut world = World::new(cfg, run_index);
    let mut alg = kind.build(world.query(cfg.phi), &cfg.sizes);
    for t in 0..max_rounds {
        if world.begin_round(t) {
            alg.topology_changed();
        }
        world.round(alg.as_mut());
        let net = world.net();
        if net.ledger().max_sensor_consumption() > net.model().initial_energy {
            return Some(t + 1);
        }
    }
    None
}

/// Executes `cfg.runs` runs (re-drawing topology each time, §5.1) and
/// aggregates. Runs execute in parallel on [`crate::parallel::thread_count`]
/// workers; every run seeds its own RNG from `(cfg.seed, run_index)`, so
/// the aggregate is bit-identical to the sequential loop.
pub fn run_experiment(cfg: &SimulationConfig, kind: AlgorithmKind) -> AggregatedMetrics {
    run_experiment_with(cfg, &|q, s| kind.build(q, s))
}

/// [`run_experiment`] with a custom protocol factory (ablation studies).
pub fn run_experiment_with(
    cfg: &SimulationConfig,
    builder: ProtocolBuilder<'_>,
) -> AggregatedMetrics {
    run_experiment_with_threads(cfg, builder, crate::parallel::thread_count())
}

/// [`run_experiment`] with an explicit worker count (`1` = sequential).
pub fn run_experiment_threads(
    cfg: &SimulationConfig,
    kind: AlgorithmKind,
    threads: usize,
) -> AggregatedMetrics {
    run_experiment_with_threads(cfg, &|q, s| kind.build(q, s), threads)
}

/// [`run_experiment_with`] with an explicit worker count (`1` = sequential).
pub fn run_experiment_with_threads(
    cfg: &SimulationConfig,
    builder: ProtocolBuilder<'_>,
    threads: usize,
) -> AggregatedMetrics {
    let runs = crate::parallel::map_indexed(cfg.runs as usize, threads, |r| {
        run_once_with(cfg, builder, r as u32)
    });
    AggregatedMetrics::from_runs(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SimulationConfig {
        SimulationConfig {
            sensor_count: 60,
            rounds: 25,
            runs: 2,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn rank_error_definition() {
        let values = vec![1, 2, 2, 3, 9];
        // k = 3 -> value 2 (ranks 2..3).
        assert_eq!(rank_error(&values, 2, 3), 0);
        assert_eq!(rank_error(&values, 2, 2), 0);
        assert_eq!(rank_error(&values, 2, 4), 1);
        assert_eq!(rank_error(&values, 9, 3), 2); // rank of 9 is 5
        assert_eq!(rank_error(&values, 1, 3), 2); // rank of 1 is 1
                                                  // A value not present at all: 5 sits above 4 values, so it acts
                                                  // like rank 5 -> two ranks away from k = 3.
        assert_eq!(rank_error(&values, 5, 3), 2);
    }

    #[test]
    fn every_algorithm_is_exact_in_simulation() {
        let cfg = tiny_cfg();
        for kind in AlgorithmKind::PAPER_SET {
            let agg = run_experiment(&cfg, kind);
            assert_eq!(agg.exactness, 1.0, "{} must be exact", kind.name());
            assert_eq!(agg.mean_rank_error, 0.0);
            assert!(agg.max_node_energy_per_round > 0.0);
            assert!(agg.lifetime_rounds.is_finite());
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = tiny_cfg();
        let a = run_once(&cfg, AlgorithmKind::Iq, 0);
        let b = run_once(&cfg, AlgorithmKind::Iq, 0);
        assert_eq!(a, b);
        let c = run_once(&cfg, AlgorithmKind::Iq, 1);
        assert_ne!(a, c, "different runs should differ");
    }

    #[test]
    fn tag_costs_more_than_continuous_protocols() {
        let cfg = tiny_cfg();
        let tag = run_experiment(&cfg, AlgorithmKind::Tag);
        let iq = run_experiment(&cfg, AlgorithmKind::Iq);
        assert!(
            tag.max_node_energy_per_round > iq.max_node_energy_per_round,
            "TAG {} should be costlier than IQ {}",
            tag.max_node_energy_per_round,
            iq.max_node_energy_per_round
        );
        assert!(tag.lifetime_rounds < iq.lifetime_rounds);
    }

    #[test]
    fn pressure_world_builds_and_runs() {
        let cfg = SimulationConfig {
            rounds: 15,
            runs: 1,
            dataset: DatasetSpec::Pressure(wsn_data::PressureConfig {
                sensor_count: 80,
                steps: 64,
                ..wsn_data::PressureConfig::default()
            }),
            ..SimulationConfig::default()
        };
        let agg = run_experiment(&cfg, AlgorithmKind::Iq);
        assert_eq!(agg.exactness, 1.0);
    }

    #[test]
    fn literal_lifetime_agrees_with_the_estimate() {
        let cfg = SimulationConfig {
            sensor_count: 60,
            rounds: 40,
            runs: 1,
            ..SimulationConfig::default()
        };
        let estimated = run_once(&cfg, AlgorithmKind::Iq, 0).lifetime_rounds;
        let literal = run_until_death(&cfg, AlgorithmKind::Iq, 0, 20_000)
            .expect("network must eventually die") as f64;
        let ratio = literal / estimated;
        assert!(
            (0.7..=1.4).contains(&ratio),
            "literal {literal} vs estimated {estimated}"
        );
    }

    #[test]
    fn walk_and_regime_datasets_run_exactly() {
        for dataset in [
            DatasetSpec::RandomWalk {
                range_size: 1024,
                step: 5,
            },
            DatasetSpec::Regime {
                range_size: 1024,
                phase_len: 10,
                drift: 3,
            },
        ] {
            let cfg = SimulationConfig {
                sensor_count: 60,
                rounds: 40,
                runs: 1,
                dataset,
                ..SimulationConfig::default()
            };
            for kind in [
                AlgorithmKind::Iq,
                AlgorithmKind::Hbc,
                AlgorithmKind::Adaptive,
            ] {
                let m = run_experiment(&cfg, kind);
                assert_eq!(m.exactness, 1.0, "{}", kind.name());
            }
        }
    }

    #[test]
    fn degenerate_worlds_yield_numbers_not_nans() {
        // Every sensor fails in round 0: essentially zero traffic, the
        // worst case for every ratio denominator.
        let all_fail = SimulationConfig {
            node_failure: Some(1.0),
            sensor_count: 12,
            radio_range: 80.0,
            rounds: 4,
            runs: 1,
            ..SimulationConfig::default()
        };
        for kind in [AlgorithmKind::Tag, AlgorithmKind::Iq, AlgorithmKind::Hbc] {
            let m = run_once(&all_fail, kind, 0);
            assert!(m.is_nan_free(), "{} produced a NaN: {m:?}", kind.name());
            assert!(m.hotspot_rx_fraction >= 0.0);
            assert!(m.mean_rank_error >= 0.0);
        }
        // A zero-round world never divides by its (absent) rounds.
        let no_rounds = SimulationConfig {
            rounds: 0,
            ..all_fail
        };
        let m = run_once(&no_rounds, AlgorithmKind::Tag, 0);
        assert!(m.is_nan_free());
        assert_eq!(m.hotspot_rx_fraction, 0.0);
        assert_eq!(m.bits_per_round, 0.0);
        assert_eq!(m.exactness(), 1.0);
    }

    #[test]
    fn loss_mode_runs_and_reports_rank_error() {
        let cfg = SimulationConfig {
            loss: Some(0.3),
            ..tiny_cfg()
        };
        // With 30% loss some rounds will be wrong, but nothing panics and
        // the error is quantified.
        let agg = run_experiment(&cfg, AlgorithmKind::Pos);
        assert!(agg.exactness <= 1.0);
        assert!(agg.mean_rank_error >= 0.0);
        // Fire-and-forget: nothing is retransmitted, hops go missing.
        assert_eq!(agg.retransmissions_per_round, 0.0);
        assert!(agg.delivery_rate < 1.0);
    }

    #[test]
    fn arq_with_recovery_restores_exactness_under_loss() {
        let lossy = SimulationConfig {
            loss: Some(0.3),
            ..tiny_cfg()
        };
        let reliable = SimulationConfig {
            reliability: wsn_net::ReliabilityConfig::recovering(3, 4),
            ..lossy.clone()
        };
        let raw = run_experiment(&lossy, AlgorithmKind::Pos);
        let rel = run_experiment(&reliable, AlgorithmKind::Pos);
        assert!(rel.exactness > raw.exactness || raw.exactness == 1.0);
        assert_eq!(rel.exactness, 1.0, "three retries + recovery at p=0.3");
        assert!(rel.retransmissions_per_round > 0.0);
        // Reliability costs energy: the hotspot pays for retries and ACKs.
        assert!(rel.max_node_energy_per_round > raw.max_node_energy_per_round);
    }

    #[test]
    fn retry_budget_zero_matches_the_plain_lossy_run() {
        let lossy = SimulationConfig {
            loss: Some(0.25),
            ..tiny_cfg()
        };
        let budget0 = SimulationConfig {
            reliability: wsn_net::ReliabilityConfig::arq(0),
            ..lossy.clone()
        };
        let a = run_once(&lossy, AlgorithmKind::Hbc, 0);
        let b = run_once(&budget0, AlgorithmKind::Hbc, 0);
        assert_eq!(a, b, "budget 0 must be bit-identical to plain loss");
    }

    #[test]
    fn node_failures_are_injected_and_survived() {
        let cfg = SimulationConfig {
            node_failure: Some(0.01),
            reliability: wsn_net::ReliabilityConfig::recovering(2, 2),
            ..tiny_cfg()
        };
        let agg = run_experiment(&cfg, AlgorithmKind::Iq);
        assert!(agg.failed_nodes > 0.0, "1% per round over 25 rounds");
        assert!(agg.exactness > 0.0);
        // Failure schedules are part of the deterministic run seed.
        let a = run_once(&cfg, AlgorithmKind::Iq, 0);
        let b = run_once(&cfg, AlgorithmKind::Iq, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn audited_runs_are_clean_and_perturb_nothing() {
        let plain_cfg = SimulationConfig {
            loss: Some(0.3),
            reliability: wsn_net::ReliabilityConfig::recovering(3, 4),
            node_failure: Some(0.01),
            ..tiny_cfg()
        };
        let audited_cfg = SimulationConfig {
            audit: true,
            ..plain_cfg.clone()
        };
        let plain = run_once(&plain_cfg, AlgorithmKind::Pos, 0);
        let audited = run_once(&audited_cfg, AlgorithmKind::Pos, 0);
        assert!(audited.audit_events > 0, "lossy run must log traffic");
        assert_eq!(audited.audit_discrepancies, 0, "ledger must reconcile");
        // Auditing is observation only: every other metric is bit-identical.
        let neutralized = RunMetrics {
            audit_events: 0,
            ..audited
        };
        assert_eq!(neutralized, plain);
    }

    #[test]
    fn phase_traffic_partitions_the_totals() {
        let cfg = tiny_cfg();
        let m = run_once(&cfg, AlgorithmKind::Hbc, 0);
        let joules: f64 = m.phase_joules.iter().sum();
        assert!(joules > 0.0, "phases must see the traffic");
        let bits: u64 = m.phase_bits.iter().sum();
        let total_bits = m.bits_per_round * cfg.rounds as f64;
        assert!(
            (bits as f64 - total_bits).abs() <= 1e-6 * total_bits,
            "phase bits {bits} vs stats bits {total_bits}"
        );
        // HBC never runs wave recovery on reliable links.
        assert_eq!(m.phase_bits[wsn_net::Phase::Recovery.index()], 0);
    }

    #[test]
    fn peak_round_energy_bounds_the_mean() {
        let m = run_once(&tiny_cfg(), AlgorithmKind::Pos, 0);
        assert!(m.peak_round_energy > 0.0);
        assert!(m.peak_round_energy >= m.max_node_energy_per_round);
    }
}
