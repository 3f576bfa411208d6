//! One seeded world per run — the single owner of how a run is set up,
//! advanced and judged (DESIGN.md §3.3).
//!
//! Everything that runs a simulated world — the solo runner, the literal
//! lifetime run, the serve runner, traced runs and the metamorphic battery
//! — goes through a [`World`], so none of them knows
//!
//! * the run seed mix and the order of every RNG draw ([`World::new`]),
//! * which loss, ARQ, failure and dynamics models are installed,
//! * the per-round fail → dynamics → sample step ([`World::begin_round`]),
//! * which population the oracle judges at which rank ([`World::oracle`]).
//!
//! A driver closes each accounting round: a solo run through
//! [`World::round`] (begin → notify → execute → close), the multi-query
//! service by executing every due query ([`World::execute`]) and then
//! calling [`Network::end_round`] once.

use cqp_core::protocol::QueryConfig;
use cqp_core::ContinuousQuantile;
use wsn_data::{Dataset, Rng};
use wsn_net::loss::LossModel;
use wsn_net::{FailureModel, Network, NodeId};

use crate::config::SimulationConfig;
use crate::dynamics::DynamicsState;
use crate::runner::{rank_error, try_build_world, UnconnectableWorld};
use crate::Value;

/// The population the oracle judges, fixed by the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Population {
    /// Every sensor, at `rank_of_phi(φ, n)`: nobody can drop out.
    Every,
    /// Under crash-stop failures: the reachable sensors, at `⌈φ·m⌉`
    /// clamped to `[1, m]` — what a clairvoyant observer of the surviving,
    /// connected network would report.
    Surviving,
    /// Under churn or mobility: the reachable sensors, at the protocol's
    /// own `rank_of_phi(φ, m)`, so on a connected mobile world `k` reduces
    /// exactly to the query's rank and exactness under rebuilds is
    /// asserted rather than excused.
    Moving,
}

/// A seeded world: dataset, network and every installed model of one run.
pub struct World {
    net: Network,
    dataset: Box<dyn Dataset>,
    dynamics: Option<DynamicsState>,
    /// This round's measurements (`values[i]` is sensor `i + 1`'s).
    values: Vec<Value>,
    /// This round's reachable measurements; maintained only when the
    /// population can shrink.
    reachable: Vec<Value>,
    population: Population,
    /// Dataset rounds before the replay cycles (`cfg.rounds`, at least 1).
    cycle: u32,
}

impl World {
    /// Builds run `run_index` of `cfg`: mixes the run seed, builds the
    /// dataset, topology and routing tree ([`crate::runner::build_world`]),
    /// enables audit and telemetry as configured, then draws the loss seed,
    /// installs the reliability layer, draws the failure seed and forks the
    /// dynamics stream — in that order, which fixes every RNG stream of the
    /// run.
    ///
    /// # Panics
    /// Panics when [`crate::runner::build_world`] finds no connected
    /// placement; [`World::try_new`] returns that as an error instead.
    pub fn new(cfg: &SimulationConfig, run_index: u32) -> World {
        World::try_new(cfg, run_index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`World::new`], returning [`UnconnectableWorld`] when no connected
    /// placement is found.
    pub fn try_new(cfg: &SimulationConfig, run_index: u32) -> Result<World, UnconnectableWorld> {
        let mut rng = Rng::seed_from_u64(
            cfg.seed
                ^ (run_index as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(1),
        );
        let (dataset, topo, tree) = try_build_world(cfg, &mut rng)?;
        let n = dataset.sensor_count();
        assert_eq!(n + 1, topo.len(), "dataset and topology disagree");
        let mut net = Network::new(topo, tree, cfg.radio, cfg.sizes);
        // The audit log is a pure observer (no RNG draws, no charges), so
        // enabling it cannot change any other metric; likewise the span
        // recorder, which only reads the wall clock.
        net.set_audit(cfg.audit);
        net.set_telemetry(cfg.telemetry);
        if let Some(p) = cfg.loss {
            net.set_loss(Some(LossModel::new(p, rng.next_u64())));
        }
        net.set_reliability(cfg.reliability);
        // Drawn only when failures are on, so reliable/lossy runs keep the
        // exact RNG streams (and therefore results) they had without the
        // failure extension.
        if let Some(pf) = cfg.node_failure {
            net.set_failures(Some(FailureModel::new(pf, rng.next_u64())));
        }
        // The dynamics stream forks last, after every gated legacy draw,
        // and only for non-static configs — so legacy worlds replay their
        // exact historical streams.
        let dynamics = crate::dynamics::init(cfg.dynamics.as_ref(), cfg.loss, &mut net, &mut rng);
        let moving = cfg
            .dynamics
            .as_ref()
            .is_some_and(|d| d.churn > 0.0 || d.mobility_step > 0.0);
        let population = if cfg.node_failure.is_some() {
            Population::Surviving
        } else if moving {
            Population::Moving
        } else {
            Population::Every
        };
        Ok(World {
            net,
            dataset,
            dynamics,
            values: vec![0; n],
            reachable: Vec::new(),
            population,
            cycle: cfg.rounds.max(1),
        })
    }

    /// Number of sensors `|N|`.
    pub fn sensor_count(&self) -> usize {
        self.values.len()
    }

    /// The `φ`-quantile query over every sensor and the dataset's range.
    pub fn query(&self, phi: f64) -> QueryConfig {
        let (lo, hi) = (self.dataset.range_min(), self.dataset.range_max());
        QueryConfig::phi(phi, self.sensor_count(), lo, hi)
    }

    /// Starts round `t`: advances the failure process, then the dynamics
    /// processes (which see the true `t`), then samples the dataset at
    /// `t mod cfg.rounds`, so runs longer than the dataset replay it
    /// cyclically. Returns `true` iff the dynamics rebuilt the routing
    /// tree — the caller then notifies its protocols via
    /// [`ContinuousQuantile::topology_changed`].
    ///
    /// Liveness and the tree change only here, never inside a protocol
    /// round, so the reachable population taken here holds for the whole
    /// round.
    pub fn begin_round(&mut self, t: u32) -> bool {
        self.net.fail_round();
        let rebuilt = match self.dynamics.as_mut() {
            Some(d) => d.apply(t, &mut self.net),
            None => false,
        };
        self.dataset.sample_round(t % self.cycle, &mut self.values);
        if self.population != Population::Every {
            let (net, values) = (&self.net, &self.values);
            self.reachable.clear();
            self.reachable.extend(
                (1..=values.len())
                    .filter(|&i| net.is_reachable(NodeId(i as u32)))
                    .map(|i| values[i - 1]),
            );
        }
        rebuilt
    }

    /// Runs round `t` of `alg` alone: starts the round
    /// ([`World::begin_round`]), tells `alg` when its tree was rebuilt,
    /// executes it and closes the accounting round.
    pub fn round(&mut self, t: u32, alg: &mut dyn ContinuousQuantile) -> Value {
        if self.begin_round(t) {
            alg.topology_changed();
        }
        alg.round(&mut self.net, &self.values)
    }

    /// Executes `alg` over this round's measurements and leaves the
    /// accounting round open for the caller to close.
    pub fn execute(&mut self, alg: &mut dyn ContinuousQuantile) -> Value {
        alg.execute(&mut self.net, &self.values)
    }

    /// This round's measurements, one per sensor.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The network, mutably (lanes, frame sharing, round closes).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Consumes the world, keeping the network for digests and audits.
    pub fn into_net(self) -> Network {
        self.net
    }

    /// The population this round's `φ`-quantile is judged against and its
    /// true rank `k` — `None` when nobody is reachable.
    pub fn oracle(&self, phi: f64) -> Option<(&[Value], u64)> {
        let population = match self.population {
            Population::Every => &self.values,
            Population::Surviving | Population::Moving => &self.reachable,
        };
        let m = population.len();
        if m == 0 {
            return None;
        }
        let k = match self.population {
            Population::Surviving => ((phi * m as f64).ceil() as u64).clamp(1, m as u64),
            Population::Every | Population::Moving => cqp_core::rank::rank_of_phi(phi, m),
        };
        Some((population, k))
    }

    /// Absolute rank error of `answer` to this round's `φ`-quantile (0 when
    /// nobody is reachable: there is nothing to be wrong about).
    pub fn rank_error(&self, phi: f64, answer: Value) -> u64 {
        self.oracle(phi)
            .map_or(0, |(population, k)| rank_error(population, answer, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlgorithmKind, DynamicsConfig};
    use crate::runner::run_once_capture;
    use crate::trace::trace_run;
    use wsn_net::{Phase, ReliabilityConfig};

    fn base() -> SimulationConfig {
        SimulationConfig {
            sensor_count: 60,
            rounds: 24,
            runs: 1,
            audit: true,
            ..SimulationConfig::default()
        }
    }

    /// A traced run over `World::new(cfg, 0)` is run 0 of `cfg`: its rows
    /// sum to the runner's traffic, its exact rows number the runner's
    /// exact rounds, and the two ledgers agree bit for bit.
    fn assert_trace_replays_the_runner(cfg: &SimulationConfig, kind: AlgorithmKind) {
        let (m, net) = run_once_capture(cfg, &|q, s| kind.build(q, s), 0);
        let mut world = World::new(cfg, 0);
        let mut alg = kind.build(world.query(cfg.phi), &cfg.sizes);
        let rows = trace_run(&mut world, alg.as_mut(), cfg.rounds, cfg.phi);
        let name = kind.name();
        let traced = world.net();
        assert_eq!(
            rows.iter().map(|r| r.messages).sum::<u64>(),
            net.stats().messages
        );
        assert_eq!(
            rows.iter().map(|r| r.bits).sum::<u64>(),
            net.stats().bits,
            "{name}"
        );
        let exact = rows.iter().filter(|r| r.quantile == r.truth).count() as u32;
        assert_eq!(exact, m.exact_rounds, "{name}");
        for r in &rows {
            assert_eq!(
                r.phase_bits.iter().sum::<u64>(),
                r.bits,
                "{name} round {}",
                r.round
            );
        }
        let (a, b) = (traced.ledger(), net.ledger());
        assert_eq!(a.rounds(), b.rounds(), "{name}");
        assert_eq!(a.tx_bits_per_node(), b.tx_bits_per_node(), "{name}");
        assert_eq!(a.rx_bits_per_node(), b.rx_bits_per_node(), "{name}");
    }

    #[test]
    fn traced_lossy_failing_worlds_replay_the_runner() {
        let cfg = SimulationConfig {
            loss: Some(0.3),
            reliability: ReliabilityConfig::recovering(2, 1),
            node_failure: Some(0.02),
            ..base()
        };
        for kind in [AlgorithmKind::Pos, AlgorithmKind::Hbc, AlgorithmKind::Iq] {
            assert_trace_replays_the_runner(&cfg, kind);
        }
        // The world is genuinely lossy and failing: both models drew.
        let (m, net) = run_once_capture(&cfg, &|q, s| AlgorithmKind::Pos.build(q, s), 0);
        assert!(net.reliability_stats().retransmissions > 0);
        assert!(m.failed_nodes > 0);
    }

    #[test]
    fn traced_mobile_churning_duty_cycled_worlds_replay_the_runner() {
        let cfg = SimulationConfig {
            dynamics: Some(DynamicsConfig {
                mobility_step: 10.0,
                churn: 0.02,
                duty_milli: 100,
                epoch: 4,
                ..DynamicsConfig::default()
            }),
            ..base()
        };
        for kind in [AlgorithmKind::Tag, AlgorithmKind::Hbc, AlgorithmKind::Iq] {
            assert_trace_replays_the_runner(&cfg, kind);
        }
        let mut world = World::new(&cfg, 0);
        let mut alg = AlgorithmKind::Hbc.build(world.query(cfg.phi), &cfg.sizes);
        let rows = trace_run(&mut world, alg.as_mut(), cfg.rounds, cfg.phi);
        let rebuild: u64 = rows
            .iter()
            .map(|r| r.phase_bits[Phase::Rebuild.index()])
            .sum();
        assert!(rebuild > 0, "mobility epochs charge rebuild beacons");
    }

    #[test]
    fn oracle_conventions_follow_the_configuration() {
        // Static world: every sensor at ⌊φ·n⌋.
        let mut world = World::new(&base(), 0);
        world.begin_round(0);
        let (population, k) = world.oracle(0.3).expect("sensors exist");
        assert_eq!((population.len(), k), (60, 18));
        // Crash-stop failures: the reachable sensors at ⌈φ·m⌉. With every
        // sensor dead, nobody is reachable and every answer is excused.
        let doomed = SimulationConfig {
            node_failure: Some(1.0),
            ..base()
        };
        let mut world = World::new(&doomed, 0);
        world.begin_round(0);
        assert_eq!(world.oracle(0.5), None);
        assert_eq!(world.rank_error(0.5, 12345), 0);
        let failing = SimulationConfig {
            node_failure: Some(0.1),
            ..base()
        };
        let mut world = World::new(&failing, 0);
        world.begin_round(0);
        let (population, k) = world.oracle(0.3).expect("survivors");
        let m = population.len() as u64;
        assert!(m < 60, "10% failures strike in round 0");
        assert_eq!(k, ((0.3 * m as f64).ceil() as u64).clamp(1, m));
    }
}
