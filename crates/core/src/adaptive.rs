//! Runtime switching between HBC and IQ.
//!
//! §4.2 observes that POS, HBC and IQ share enough structure to "switch
//! between these approaches without reinitializing the network and always
//! use the best algorithm within a given environment, however we leave
//! heuristics to select the best solution for future research". This module
//! implements that future work with a simple cost-tracking heuristic:
//!
//! * run the current protocol and keep an exponentially weighted moving
//!   average (EWMA) of its per-round bits on air;
//! * after a minimum dwell time, switch when the other protocol's last
//!   known EWMA undercuts the current one by a margin;
//! * periodically trial the other protocol anyway so its estimate never
//!   goes permanently stale.
//!
//! A switch transfers the shared state (filter, counts, previous values)
//! and costs one broadcast — the mode announcement (nodes must know which
//! validation format to use next round).

use wsn_net::Network;

use crate::hbc::{Hbc, HbcConfig};
use crate::iq::{Iq, IqConfig};
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::Value;

/// Which protocol is currently driving the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Interval-based Quantiles.
    Iq,
    /// Histogram-Based Continuous.
    Hbc,
}

/// Tuning knobs of the switching heuristic.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// EWMA smoothing factor for per-round cost (weight of the new sample).
    pub ewma_alpha: f64,
    /// Minimum rounds in a mode before a switch is considered.
    pub min_dwell: u32,
    /// Switch when `other_ewma < margin * current_ewma`.
    pub margin: f64,
    /// Force a trial of the other mode when its estimate is older than
    /// this many rounds.
    pub staleness: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            ewma_alpha: 0.25,
            min_dwell: 8,
            margin: 0.85,
            staleness: 60,
        }
    }
}

/// The adaptive HBC↔IQ protocol.
#[derive(Debug, Clone)]
pub struct Adaptive {
    hbc: Hbc,
    iq: Iq,
    mode: Mode,
    config: AdaptiveConfig,
    initialized: bool,
    ewma: [Option<f64>; 2],
    age: [u32; 2],
    rounds_in_mode: u32,
    switches: u32,
}

impl Adaptive {
    /// Creates an adaptive query starting in IQ mode.
    pub fn new(query: QueryConfig, sizes: &wsn_net::MessageSizes) -> Self {
        Adaptive::with_configs(
            query,
            HbcConfig::default(),
            IqConfig::default(),
            AdaptiveConfig::default(),
            sizes,
        )
    }

    /// Fully parameterized constructor.
    pub fn with_configs(
        query: QueryConfig,
        hbc: HbcConfig,
        iq: IqConfig,
        config: AdaptiveConfig,
        sizes: &wsn_net::MessageSizes,
    ) -> Self {
        Adaptive {
            hbc: Hbc::new(query, hbc, sizes),
            iq: Iq::new(query, iq),
            mode: Mode::Iq,
            config,
            initialized: false,
            ewma: [None, None],
            age: [0, 0],
            rounds_in_mode: 0,
            switches: 0,
        }
    }

    /// The protocol currently in charge.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// How many mode switches happened so far.
    pub fn switches(&self) -> u32 {
        self.switches
    }

    fn slot(mode: Mode) -> usize {
        match mode {
            Mode::Iq => 0,
            Mode::Hbc => 1,
        }
    }

    fn other(mode: Mode) -> Mode {
        match mode {
            Mode::Iq => Mode::Hbc,
            Mode::Hbc => Mode::Iq,
        }
    }

    /// Transfers the current protocol's shared state into the other one,
    /// `target`, and charges the mode announcement broadcast.
    fn switch_to(&mut self, net: &mut Network, target: Mode) {
        let n = net.len();
        match target {
            Mode::Iq => {
                let (filter, counts, prev) = self.hbc.shared_state();
                self.iq.adopt(n, filter, counts, prev);
            }
            Mode::Hbc => {
                let (filter, counts, prev) = self.iq.shared_state();
                self.hbc.adopt(n, filter, counts, prev);
            }
        }
        // Mode announcement: one value-sized flag.
        net.broadcast(net.sizes().value_bits);
        self.mode = target;
        self.rounds_in_mode = 0;
        self.switches += 1;
    }

    /// Executes the protocol in charge and updates its cost estimate.
    /// Returns the answer and whether a mode switch may follow, which it
    /// never does after the initialization round.
    fn execute_member(&mut self, net: &mut Network, values: &[Value]) -> (Value, bool) {
        if !self.initialized {
            // Initialize through IQ (any member works, §4.2.1).
            let q = self.iq.execute(net, values);
            self.initialized = true;
            self.rounds_in_mode = 1;
            return (q, false);
        }

        let bits_before = net.stats().bits;
        let q = match self.mode {
            Mode::Iq => self.iq.execute(net, values),
            Mode::Hbc => self.hbc.execute(net, values),
        };
        let cost = (net.stats().bits - bits_before) as f64;

        let cur = Self::slot(self.mode);
        let a = self.config.ewma_alpha;
        self.ewma[cur] = Some(match self.ewma[cur] {
            Some(prev) => (1.0 - a) * prev + a * cost,
            None => cost,
        });
        self.age[cur] = 0;
        self.age[Self::slot(Self::other(self.mode))] += 1;
        self.rounds_in_mode += 1;
        (q, true)
    }

    fn maybe_switch(&mut self, net: &mut Network) {
        if self.rounds_in_mode < self.config.min_dwell {
            return;
        }
        let cur = Self::slot(self.mode);
        let oth = Self::slot(Self::other(self.mode));
        let stale = self.age[oth] > self.config.staleness;
        let better = match (self.ewma[cur], self.ewma[oth]) {
            (Some(c), Some(o)) => o < self.config.margin * c,
            (_, None) => true, // never measured: trial it
            _ => false,
        };
        if stale || better {
            self.switch_to(net, Self::other(self.mode));
        }
    }
}

impl ContinuousQuantile for Adaptive {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    /// Books a mode announcement inside the round it follows.
    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let (q, settled) = self.execute_member(net, values);
        if settled {
            self.maybe_switch(net);
        }
        q
    }

    /// Closes the round before the mode announcement, so a solo run books
    /// the announcement in the next accounting round.
    fn round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let (q, settled) = self.execute_member(net, values);
        net.end_round();
        if settled {
            self.maybe_switch(net);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;
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
    fn adaptive_is_exact_across_switches() {
        let n = 30;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 10_000);
        let mut alg = Adaptive::new(query, &MessageSizes::default());
        for t in 0..120 {
            // Alternate between calm and wild phases to force switching.
            let values: Vec<Value> = if (t / 30) % 2 == 0 {
                (0..n).map(|i| 3000 + i as Value * 3 + t as Value).collect()
            } else {
                (0..n)
                    .map(|i| (i as Value * 991 + t as Value * 7919) % 10_000)
                    .collect()
            };
            let got = alg.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k), "round {t}");
        }
        assert!(alg.switches() > 0, "phases should trigger switching");
    }

    #[test]
    fn dwell_time_prevents_thrashing() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1000);
        let mut alg = Adaptive::new(query, &MessageSizes::default());
        for t in 0..50 {
            let values: Vec<Value> = (0..n).map(|i| 100 + i as Value + t as Value).collect();
            alg.round(&mut net, &values);
        }
        // With min_dwell = 8 over 50 rounds there can be at most ~6 switches.
        assert!(alg.switches() <= 6, "switches {}", alg.switches());
    }

    #[test]
    fn starts_in_iq_mode() {
        let alg = Adaptive::new(QueryConfig::median(10, 0, 100), &MessageSizes::default());
        assert_eq!(alg.mode(), Mode::Iq);
    }
}
