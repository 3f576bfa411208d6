//! Dynamic-world processes: node mobility, churn, link-quality drift and
//! duty-cycled radios (DESIGN.md §3.3k).
//!
//! [`DynamicsState`] owns every stochastic process behind a dynamic world
//! and advances them once per round, *before* the protocol round:
//!
//! 1. **Drift** — the loss probability random-walks inside
//!    `base ± amplitude` ([`wsn_net::LossDrift`]); the loss model's fate
//!    stream is retuned in place, never restarted.
//! 2. **Churn** — each sensor independently toggles between departed and
//!    joined with the configured per-round probability. Joins re-enter at
//!    a fresh uniform position drawn from the dynamics stream
//!    (deterministic join placement); departures are crash-stop. The node
//!    universe never changes size, and the sink never churns.
//! 3. **Mobility** — on every epoch boundary (`t % epoch == 0`) all
//!    sensors advance along their waypoint walks
//!    ([`wsn_data::WaypointWalk`]); the sink stays put.
//!
//! Any churn toggle or mobility advance re-derives the disk graph from
//! the current positions and forces one routing-tree rebuild
//! ([`wsn_net::Network::dynamics_rebuild`]), charged under
//! [`wsn_net::Phase::Rebuild`]. Drift alone never rebuilds: link quality
//! changes the loss process, not the connectivity graph. Duty-cycled
//! idle listening is not a per-round event at all — the network charges
//! it inside `end_round` once [`wsn_net::Network::set_duty_cycle`] is set.
//!
//! **Determinism.** The dynamics stream is forked from the run RNG *after*
//! every gated legacy draw (loss seed, failure seed), and only when a
//! non-static [`DynamicsConfig`] is present — so static worlds draw
//! nothing and replay their historical streams byte-identically. All
//! dynamics decisions happen on the run's thread between rounds, never
//! inside a wave.

use wsn_data::{Rng, WaypointWalk};
use wsn_net::{LossDrift, Network, NodeId, Point, Topology};

use crate::config::DynamicsConfig;
use crate::runner::AREA;

/// Live state of the dynamic-world processes for one run.
#[derive(Debug, Clone)]
pub struct DynamicsState {
    cfg: DynamicsConfig,
    /// The sink's (immobile) position.
    sink: Point,
    /// Sensor positions and waypoints (sensor `i` = node `i + 1`). With
    /// `mobility_step == 0` the walk is frozen and only serves churn's
    /// join placement.
    walk: WaypointWalk,
    drift: Option<LossDrift>,
    /// Churn draws (one per sensor per round, outcome-independent).
    rng: Rng,
    radio_range: f64,
}

impl DynamicsState {
    /// Builds the dynamics processes for a run over the freshly built
    /// `topo`. `loss_base` is the configured static loss probability the
    /// drift walk is centered on (`None` disables drift — there is no
    /// loss process to drive). Forks its own streams from `rng`.
    pub fn new(
        cfg: &DynamicsConfig,
        topo: &Topology,
        loss_base: Option<f64>,
        rng: &mut Rng,
    ) -> DynamicsState {
        let mut dyn_rng = rng.fork();
        let start: Vec<Point> = topo.sensor_ids().map(|id| topo.position(id)).collect();
        let walk = WaypointWalk::new(start, AREA, AREA, cfg.mobility_step, &mut dyn_rng);
        let drift = match (cfg.drift > 0.0, loss_base) {
            (true, Some(base)) => Some(LossDrift::new(base, cfg.drift, dyn_rng.next_u64())),
            _ => None,
        };
        DynamicsState {
            cfg: *cfg,
            sink: topo.position(NodeId::ROOT),
            walk,
            drift,
            rng: dyn_rng,
            radio_range: topo.radio_range(),
        }
    }

    /// Advances every process by one round (call before the protocol
    /// round of round `t`). Returns `true` iff the routing tree was
    /// rebuilt — the caller then notifies the protocol via
    /// [`cqp_core::ContinuousQuantile::topology_changed`].
    pub fn apply(&mut self, t: u32, net: &mut Network) -> bool {
        if let Some(d) = self.drift.as_mut() {
            net.set_loss_probability(d.advance());
        }
        let mut changed = false;
        if self.cfg.churn > 0.0 {
            // One draw per sensor regardless of outcome, so the stream
            // position is a pure function of (round, sensor count).
            for i in 1..net.len() {
                if self.rng.next_f64() < self.cfg.churn {
                    let joining = !net.alive()[i];
                    net.set_node_alive(NodeId(i as u32), joining);
                    if joining {
                        self.walk.replace(i - 1);
                    }
                    changed = true;
                }
            }
        }
        if self.cfg.mobility_step > 0.0 && t.is_multiple_of(self.cfg.epoch.max(1)) {
            self.walk.advance();
            changed = true;
        }
        if changed {
            let mut positions = Vec::with_capacity(net.len());
            positions.push(self.sink);
            positions.extend_from_slice(self.walk.positions());
            net.dynamics_rebuild(Some(Topology::build(positions, self.radio_range)));
        }
        changed
    }
}

/// Installs the per-network dynamics knobs (duty cycle) and builds the
/// per-run [`DynamicsState`] — or nothing, for static worlds: a `None`
/// config *and* an all-zero config both draw nothing from `rng` and touch
/// nothing, so legacy runs replay byte-identically.
pub fn init(
    cfg: Option<&DynamicsConfig>,
    loss_base: Option<f64>,
    net: &mut Network,
    rng: &mut Rng,
) -> Option<DynamicsState> {
    let d = cfg?;
    if d.is_static() {
        return None;
    }
    net.set_duty_cycle(d.duty_milli);
    Some(DynamicsState::new(d, net.topology(), loss_base, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::{MessageSizes, RadioModel, RoutingTree};

    fn world(n: usize, range: f64, seed: u64) -> (Network, Rng) {
        let mut rng = Rng::seed_from_u64(seed);
        let raw = wsn_data::placement::uniform(n, AREA, AREA, &mut rng);
        let positions: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let topo = Topology::build(positions, range);
        let tree = RoutingTree::shortest_path_tree(&topo).expect("connected");
        let net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        (net, rng)
    }

    #[test]
    fn static_config_initializes_nothing_and_draws_nothing() {
        let (mut net, mut rng) = world(20, 300.0, 1);
        let before = rng.clone();
        assert!(init(None, None, &mut net, &mut rng).is_none());
        assert!(init(Some(&DynamicsConfig::default()), None, &mut net, &mut rng).is_none());
        assert_eq!(net.duty_cycle(), 0);
        // The run stream is untouched by static initialization.
        let mut a = before;
        let mut b = rng;
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mobility_rebuilds_on_epoch_boundaries_only() {
        let (mut net, mut rng) = world(12, 300.0, 2);
        let cfg = DynamicsConfig {
            mobility_step: 5.0,
            epoch: 3,
            ..DynamicsConfig::default()
        };
        let mut st = init(Some(&cfg), None, &mut net, &mut rng).expect("dynamic");
        let rebuilt: Vec<bool> = (0..7).map(|t| st.apply(t, &mut net)).collect();
        assert_eq!(rebuilt, [true, false, false, true, false, false, true]);
        assert_eq!(net.reliability_stats().rebuilds, 3);
        assert!(
            net.phases().joules()[wsn_net::Phase::Rebuild.index()] > 0.0,
            "beacon waves must charge rebuild joules"
        );
    }

    #[test]
    fn churn_toggles_and_rejoins_deterministically() {
        let (mut net, mut rng) = world(16, 300.0, 3);
        let cfg = DynamicsConfig {
            churn: 0.3,
            ..DynamicsConfig::default()
        };
        let mut st = init(Some(&cfg), None, &mut net, &mut rng).expect("dynamic");
        let mut saw_departure = false;
        let mut saw_join = false;
        let mut prev_alive: Vec<bool> = net.alive().to_vec();
        for t in 0..30 {
            st.apply(t, &mut net);
            for (p, c) in prev_alive.iter().zip(net.alive()) {
                if *p && !*c {
                    saw_departure = true;
                }
                if !*p && *c {
                    saw_join = true;
                }
            }
            prev_alive = net.alive().to_vec();
            assert!(net.alive()[0], "the sink never churns");
        }
        assert!(saw_departure && saw_join, "30 rounds at 30% churn");
        assert!(net.reliability_stats().rebuilds > 0);
    }

    #[test]
    fn drift_retunes_without_rebuilding() {
        let (mut net, mut rng) = world(10, 300.0, 4);
        net.set_loss(Some(wsn_net::LossModel::new(0.2, 7)));
        let cfg = DynamicsConfig {
            drift: 0.15,
            ..DynamicsConfig::default()
        };
        let mut st = init(Some(&cfg), Some(0.2), &mut net, &mut rng).expect("dynamic");
        for t in 0..20 {
            assert!(!st.apply(t, &mut net), "drift alone never rebuilds");
        }
        assert_eq!(net.reliability_stats().rebuilds, 0);
    }

    #[test]
    fn duty_cycle_is_installed_on_the_network() {
        let (mut net, mut rng) = world(10, 300.0, 5);
        let cfg = DynamicsConfig {
            duty_milli: 250,
            ..DynamicsConfig::default()
        };
        let st = init(Some(&cfg), None, &mut net, &mut rng);
        assert!(st.is_some(), "duty alone is a dynamic world");
        assert_eq!(net.duty_cycle(), 250);
    }
}
