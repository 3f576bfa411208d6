//! The first-order radio energy model and per-node energy ledger.
//!
//! §5.1.4 of the paper uses the well-known cost function (e.g. Heinzelman
//! et al.): sending `s` bits over range `ρ` costs `s · (α + β · ρ^p)`,
//! receiving costs `s · γ`, sleeping is free. The paper prints the
//! constants as "50mJ/bit" / "10pJ/bit/m²" with 30 mJ initial supply — the
//! mJ is a unit typo for nJ (see DESIGN.md §3.2); we use nanojoules.

use crate::bitset::NodeBits;
use crate::topology::NodeId;

/// Radio energy parameters. All energies in joules, sizes in bits,
/// distances in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// α: distance-independent transmit cost per bit (J/bit).
    pub alpha: f64,
    /// β: distance-dependent transmit cost per bit per m^p (J/bit/m^p).
    pub beta: f64,
    /// p: path-loss exponent.
    pub path_loss: f64,
    /// γ: receive cost per bit (J/bit).
    pub recv: f64,
    /// Initial energy supply of every sensor node (J). The root is
    /// unconstrained (§2).
    pub initial_energy: f64,
}

impl Default for RadioModel {
    fn default() -> Self {
        RadioModel {
            alpha: 50e-9,
            beta: 10e-12,
            path_loss: 2.0,
            recv: 50e-9,
            initial_energy: 30e-3,
        }
    }
}

impl RadioModel {
    /// Energy to transmit `bits` over distance/range `range` meters.
    pub fn tx_energy(&self, bits: u64, range: f64) -> f64 {
        bits as f64 * self.tx_coef(range)
    }

    /// Per-bit transmit cost at `range`: `tx_energy(b, r)` is exactly
    /// `b as f64 * tx_coef(r)`, with the same parenthesisation, so hot
    /// loops may hoist the coefficient (and its `powf`) out of a wave
    /// without changing a single result bit.
    pub fn tx_coef(&self, range: f64) -> f64 {
        self.alpha + self.beta * range.powf(self.path_loss)
    }

    /// Energy to receive `bits`.
    pub fn rx_energy(&self, bits: u64) -> f64 {
        bits as f64 * self.recv
    }

    /// Per-bit receive cost; `rx_energy(b)` is exactly `b as f64 * rx_coef()`.
    pub fn rx_coef(&self) -> f64 {
        self.recv
    }
}

/// Tracks cumulative energy consumption per node, with per-round snapshots.
///
/// Node `0` (the root) is tracked for completeness but has an infinite
/// supply, so it never limits the network lifetime.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    consumed: Vec<f64>,
    /// Transmit share of `consumed` (the §5.2.1 analyses split hotspot
    /// growth into sending vs receiving energy).
    consumed_tx: Vec<f64>,
    round_start: Vec<f64>,
    rounds_recorded: u32,
    /// Per-node maximum over completed rounds of the energy spent in a
    /// single round.
    max_round_consumption: Vec<f64>,
}

impl EnergyLedger {
    /// A fresh ledger for `n` nodes (root included).
    pub fn new(n: usize) -> Self {
        EnergyLedger {
            consumed: vec![0.0; n],
            consumed_tx: vec![0.0; n],
            round_start: vec![0.0; n],
            rounds_recorded: 0,
            max_round_consumption: vec![0.0; n],
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.consumed.len()
    }

    /// True iff the ledger tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.consumed.is_empty()
    }

    /// Charges `joules` to node `id` (reception / unclassified).
    pub fn charge(&mut self, id: NodeId, joules: f64) {
        debug_assert!(joules >= 0.0, "cannot credit energy");
        self.consumed[id.index()] += joules;
    }

    /// Charges `joules` of *transmit* energy to node `id`.
    pub fn charge_tx(&mut self, id: NodeId, joules: f64) {
        debug_assert!(joules >= 0.0, "cannot credit energy");
        self.consumed[id.index()] += joules;
        self.consumed_tx[id.index()] += joules;
    }

    /// Books one lossless broadcast wave in a single pass over the nodes:
    /// every node in `receivers` pays `rx`, then every node in
    /// `transmitters` pays `tx` as transmit energy — for each node the
    /// additions, and their order, of one reception from its parent
    /// followed by its own transmission.
    ///
    /// Every node takes both additions: a node outside a mask adds `-0.0`,
    /// which leaves every total unchanged bit for bit (`x + -0.0` is `x` for
    /// either zero and every other number; `+0.0` would turn a `-0.0` total
    /// into `+0.0`), so the totals are the ones per-reception charges would
    /// leave.
    pub(crate) fn charge_broadcast(
        &mut self,
        receivers: &NodeBits,
        rx: f64,
        transmitters: &NodeBits,
        tx: f64,
    ) {
        debug_assert!(rx >= 0.0 && tx >= 0.0, "cannot credit energy");
        let masks = receivers.words().iter().zip(transmitters.words());
        let nodes = self
            .consumed
            .chunks_mut(64)
            .zip(self.consumed_tx.chunks_mut(64));
        for ((&rw, &tw), (consumed, consumed_tx)) in masks.zip(nodes) {
            for (k, (c, ct)) in consumed.iter_mut().zip(consumed_tx).enumerate() {
                let rx = if rw >> k & 1 != 0 { rx } else { -0.0 };
                let tx = if tw >> k & 1 != 0 { tx } else { -0.0 };
                *c = *c + rx + tx;
                *ct += tx;
            }
        }
    }

    /// Total energy consumed by `id` so far.
    pub fn consumed(&self, id: NodeId) -> f64 {
        self.consumed[id.index()]
    }

    /// Transmit energy consumed by `id` so far.
    pub fn consumed_tx(&self, id: NodeId) -> f64 {
        self.consumed_tx[id.index()]
    }

    /// Receive (non-transmit) energy consumed by `id` so far.
    pub fn consumed_rx(&self, id: NodeId) -> f64 {
        self.consumed[id.index()] - self.consumed_tx[id.index()]
    }

    /// Receive-energy fraction of the hottest sensor — the quantity behind
    /// §5.2.1's "the vast majority of their increase in energy consumption
    /// comes from the growing number of values an intermediate node has to
    /// receive".
    pub fn hotspot_rx_fraction(&self) -> f64 {
        let Some(hot) = self.hottest_sensor() else {
            return 0.0;
        };
        let total = self.consumed(hot);
        if total <= 0.0 {
            0.0
        } else {
            self.consumed_rx(hot) / total
        }
    }

    /// Marks the end of a round: records per-round deltas and resets the
    /// round baseline.
    pub fn end_round(&mut self) {
        for i in 0..self.consumed.len() {
            let delta = self.consumed[i] - self.round_start[i];
            if delta > self.max_round_consumption[i] {
                self.max_round_consumption[i] = delta;
            }
            self.round_start[i] = self.consumed[i];
        }
        self.rounds_recorded += 1;
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u32 {
        self.rounds_recorded
    }

    /// The maximum *cumulative* consumption over sensor nodes (the
    /// "hot-spot" energy; root excluded since it is mains-powered).
    pub fn max_sensor_consumption(&self) -> f64 {
        self.consumed[1..].iter().copied().fold(0.0, f64::max)
    }

    /// The id of the sensor node with the highest cumulative consumption,
    /// or `None` for a root-only ledger (the root is mains-powered and is
    /// never a hotspot candidate).
    pub fn hottest_sensor(&self) -> Option<NodeId> {
        let (idx, _) = self.consumed.get(1..)?.iter().enumerate().fold(
            (usize::MAX, f64::MIN),
            |acc, (i, &e)| {
                if acc.0 == usize::MAX || e > acc.1 {
                    (i, e)
                } else {
                    acc
                }
            },
        );
        (idx != usize::MAX).then(|| NodeId(idx as u32 + 1))
    }

    /// The highest energy any node spent within `id`'s single costliest
    /// completed round (recorded by [`EnergyLedger::end_round`]).
    pub fn max_round_consumption(&self, id: NodeId) -> f64 {
        self.max_round_consumption[id.index()]
    }

    /// The single costliest sensor-round observed so far: the maximum over
    /// sensors of the per-round consumption peak. This is the worst-case
    /// burst a node's power budget must survive (as opposed to
    /// [`EnergyLedger::max_sensor_consumption`], the *cumulative* hotspot).
    /// Zero until a round completes or for a root-only ledger.
    pub fn max_round_sensor_consumption(&self) -> f64 {
        self.max_round_consumption
            .get(1..)
            .unwrap_or(&[])
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Mean per-round consumption of each node (`consumed / rounds`).
    /// All-zero until at least one round completed — the division by zero
    /// rounds would otherwise poison every entry with NaN (idle ledger) or
    /// ∞ (charged but never snapshotted), and those propagate silently
    /// through any downstream mean/max.
    pub fn mean_per_round(&self) -> Vec<f64> {
        if self.rounds_recorded == 0 {
            return vec![0.0; self.consumed.len()];
        }
        self.consumed
            .iter()
            .map(|&e| e / self.rounds_recorded as f64)
            .collect()
    }

    /// Cumulative consumption of every node, indexed by node id (the
    /// replay target of [`crate::audit::EnergyAuditor`]).
    pub fn consumed_per_node(&self) -> &[f64] {
        &self.consumed
    }

    /// Cumulative *transmit* consumption of every node, indexed by node id.
    pub fn consumed_tx_per_node(&self) -> &[f64] {
        &self.consumed_tx
    }

    /// Estimated network lifetime in rounds: how many rounds until the
    /// first *sensor* runs out of energy, assuming every future round costs
    /// each node its observed per-round mean (DESIGN.md §3.3). Returns
    /// `f64::INFINITY` if no node consumed anything.
    pub fn estimated_lifetime_rounds(&self, model: &RadioModel) -> f64 {
        if self.rounds_recorded == 0 {
            return f64::INFINITY;
        }
        let max_mean = self.consumed[1..]
            .iter()
            .map(|&e| e / self.rounds_recorded as f64)
            .fold(0.0, f64::max);
        if max_mean <= 0.0 {
            f64::INFINITY
        } else {
            model.initial_energy / max_mean
        }
    }

    /// Id of the first sensor that would die under a literal replay of the
    /// observed rounds, together with the round number of its death, or
    /// `None` if nothing ever dies.
    pub fn first_death(&self, model: &RadioModel) -> Option<(NodeId, f64)> {
        if self.rounds_recorded == 0 {
            return None;
        }
        let mut best: Option<(NodeId, f64)> = None;
        for i in 1..self.consumed.len() {
            let mean = self.consumed[i] / self.rounds_recorded as f64;
            if mean > 0.0 {
                let rounds = model.initial_energy / mean;
                if best.is_none_or(|(_, r)| rounds < r) {
                    best = Some((NodeId(i as u32), rounds));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_energy_formula() {
        let m = RadioModel::default();
        // 1000 bits over 35 m: 1000 * (50e-9 + 10e-12 * 1225).
        let e = m.tx_energy(1000, 35.0);
        let expect = 1000.0 * (50e-9 + 10e-12 * 35.0 * 35.0);
        assert!((e - expect).abs() < 1e-15);
    }

    #[test]
    fn rx_energy_formula() {
        let m = RadioModel::default();
        assert!((m.rx_energy(8) - 8.0 * 50e-9).abs() < 1e-18);
    }

    #[test]
    fn ledger_tracks_max_and_rounds() {
        let m = RadioModel::default();
        let mut l = EnergyLedger::new(3);
        l.charge(NodeId(1), 1e-6);
        l.charge(NodeId(2), 3e-6);
        l.end_round();
        l.charge(NodeId(1), 5e-6);
        l.end_round();
        assert_eq!(l.rounds(), 2);
        assert!((l.consumed(NodeId(1)) - 6e-6).abs() < 1e-18);
        assert!((l.max_sensor_consumption() - 6e-6).abs() < 1e-18);
        assert_eq!(l.hottest_sensor(), Some(NodeId(1)));
        // Mean per round: node1 3e-6, node2 1.5e-6 -> lifetime 30e-3/3e-6 = 1e4.
        let lt = l.estimated_lifetime_rounds(&m);
        assert!((lt - 1e4).abs() / 1e4 < 1e-12);
        let (who, when) = l.first_death(&m).unwrap();
        assert_eq!(who, NodeId(1));
        assert!((when - 1e4).abs() / 1e4 < 1e-12);
    }

    #[test]
    fn tx_rx_split_adds_up() {
        let mut l = EnergyLedger::new(3);
        l.charge_tx(NodeId(1), 3e-6);
        l.charge(NodeId(1), 1e-6);
        assert!((l.consumed_tx(NodeId(1)) - 3e-6).abs() < 1e-18);
        assert!((l.consumed_rx(NodeId(1)) - 1e-6).abs() < 1e-18);
        assert!((l.consumed(NodeId(1)) - 4e-6).abs() < 1e-18);
        // Node 1 is the hotspot; rx fraction = 0.25.
        assert!((l.hotspot_rx_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn root_only_ledger_has_no_hotspot() {
        // Regression: this used to return NodeId(1), a node that does not
        // exist in a root-only ledger.
        let mut l = EnergyLedger::new(1);
        l.charge(NodeId::ROOT, 1e-3);
        assert_eq!(l.hottest_sensor(), None);
        assert_eq!(l.hotspot_rx_fraction(), 0.0);
        assert_eq!(l.max_round_sensor_consumption(), 0.0);
        assert_eq!(EnergyLedger::new(0).hottest_sensor(), None);
    }

    #[test]
    fn max_round_consumption_tracks_the_costliest_round() {
        let mut l = EnergyLedger::new(3);
        l.charge(NodeId(1), 2e-6);
        l.charge(NodeId(2), 1e-6);
        l.end_round();
        l.charge(NodeId(1), 5e-6);
        l.end_round();
        l.charge(NodeId(1), 1e-6);
        l.end_round();
        assert!((l.max_round_consumption(NodeId(1)) - 5e-6).abs() < 1e-18);
        assert!((l.max_round_consumption(NodeId(2)) - 1e-6).abs() < 1e-18);
        assert!((l.max_round_sensor_consumption() - 5e-6).abs() < 1e-18);
        // Energy charged after the last end_round is not yet a peak.
        let mut fresh = EnergyLedger::new(2);
        fresh.charge(NodeId(1), 9e-6);
        assert_eq!(fresh.max_round_sensor_consumption(), 0.0);
    }

    /// Regression: with zero completed rounds, `mean_per_round` used to
    /// divide by zero — NaN per node on an idle ledger, ∞ once anything
    /// had been charged. It must return a zeroed per-node vector instead.
    #[test]
    fn mean_per_round_with_zero_rounds_is_zero_not_nan() {
        let mut l = EnergyLedger::new(3);
        assert_eq!(l.mean_per_round(), vec![0.0; 3]);
        l.charge(NodeId(1), 5e-6);
        let means = l.mean_per_round();
        assert_eq!(means.len(), 3);
        assert!(means.iter().all(|m| m.is_finite() && *m == 0.0));
        // After a round completes the real means appear.
        l.end_round();
        assert!((l.mean_per_round()[1] - 5e-6).abs() < 1e-18);
    }

    #[test]
    fn idle_network_lives_forever() {
        let m = RadioModel::default();
        let mut l = EnergyLedger::new(4);
        l.end_round();
        assert!(l.estimated_lifetime_rounds(&m).is_infinite());
        assert!(l.first_death(&m).is_none());
    }

    #[test]
    fn root_never_dies() {
        let m = RadioModel::default();
        let mut l = EnergyLedger::new(2);
        l.charge(NodeId::ROOT, 1.0); // huge, but the root is mains powered
        l.charge(NodeId(1), 1e-9);
        l.end_round();
        let (who, _) = l.first_death(&m).unwrap();
        assert_eq!(who, NodeId(1));
    }
}
