//! The first-order radio energy model and per-node energy ledger.
//!
//! §5.1.4 of the paper uses the well-known cost function (e.g. Heinzelman
//! et al.): sending `s` bits over range `ρ` costs `s · (α + β · ρ^p)`,
//! receiving costs `s · γ`, sleeping is free. The paper prints the
//! constants as "50mJ/bit" / "10pJ/bit/m²" with 30 mJ initial supply — the
//! mJ is a unit typo for nJ (see DESIGN.md §3.2); we use nanojoules.
//!
//! Every radio charge is therefore bits at one of two per-bit [`Prices`],
//! so bits are the unit of account: the [`EnergyLedger`] keeps each node's
//! transmitted and received bits as integers, whose totals do not depend
//! on the order they were added in, and derives joules only when they are
//! read.

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
    /// `b as f64 * tx_coef(r)`.
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

    /// The per-bit prices of a network whose radios reach `range` meters.
    pub fn prices(&self, range: f64) -> Prices {
        Prices {
            tx: self.tx_coef(range),
            rx: self.rx_coef(),
        }
    }
}

/// The two per-bit prices of one network: the transmit cost at its radio
/// range and the receive cost. Every radio charge is bits at one of them
/// (idle listening is priced as received bits), so a node's joules are
/// exactly `tx_bits · tx + rx_bits · rx`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prices {
    /// Transmit cost per bit ([`RadioModel::tx_coef`]), joules.
    pub tx: f64,
    /// Receive cost per bit ([`RadioModel::rx_coef`]), joules.
    pub rx: f64,
}

impl Prices {
    /// The joules of `tx_bits` sent and `rx_bits` received.
    #[inline]
    pub fn joules(&self, tx_bits: u64, rx_bits: u64) -> f64 {
        tx_bits as f64 * self.tx + rx_bits as f64 * self.rx
    }
}

/// Tracks the bits each node has sent and received, with per-round peaks.
/// Joules are derived from the bits at the network's [`Prices`] when they
/// are read.
///
/// Node `0` (the root) is tracked for completeness but has an infinite
/// supply, so it never limits the network lifetime.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    prices: Prices,
    /// Bits each node transmitted (the §5.2.1 analyses split hotspot
    /// growth into sending vs receiving energy).
    tx_bits: Vec<u64>,
    /// Bits each node received, idle listening included.
    rx_bits: Vec<u64>,
    /// Each node's joules at the last round boundary.
    round_start: Vec<f64>,
    rounds_recorded: u32,
    /// Per-node maximum over completed rounds of the energy spent in a
    /// single round.
    max_round_consumption: Vec<f64>,
}

impl EnergyLedger {
    /// A fresh ledger for `n` nodes (root included) at `prices`.
    pub fn new(n: usize, prices: Prices) -> Self {
        EnergyLedger {
            prices,
            tx_bits: vec![0; n],
            rx_bits: vec![0; n],
            round_start: vec![0.0; n],
            rounds_recorded: 0,
            max_round_consumption: vec![0.0; n],
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.tx_bits.len()
    }

    /// True iff the ledger tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.tx_bits.is_empty()
    }

    /// Charges node `id` for transmitting `bits`.
    #[inline]
    pub fn charge_tx(&mut self, id: NodeId, bits: u64) {
        self.tx_bits[id.index()] += bits;
    }

    /// Charges node `id` for receiving (or idly listening for) `bits`.
    #[inline]
    pub fn charge_rx(&mut self, id: NodeId, bits: u64) {
        self.rx_bits[id.index()] += bits;
    }

    /// Books one lossless broadcast wave of `bits` per transmission: every
    /// node in `receivers` receives `bits` and every node in
    /// `transmitters` sends them, in one pass over the nodes.
    pub(crate) fn charge_broadcast(
        &mut self,
        receivers: &NodeBits,
        transmitters: &NodeBits,
        bits: u64,
    ) {
        for (totals, mask) in [
            (&mut self.rx_bits, receivers),
            (&mut self.tx_bits, transmitters),
        ] {
            for (&word, totals) in mask.words().iter().zip(totals.chunks_mut(64)) {
                for (k, total) in totals.iter_mut().enumerate() {
                    *total += bits * (word >> k & 1);
                }
            }
        }
    }

    /// Bits every node transmitted, indexed by node id (what
    /// [`crate::audit::EnergyAuditor`] reconciles).
    pub fn tx_bits_per_node(&self) -> &[u64] {
        &self.tx_bits
    }

    /// Bits every node received, idle listening included, indexed by node
    /// id.
    pub fn rx_bits_per_node(&self) -> &[u64] {
        &self.rx_bits
    }

    /// Total energy consumed by node index `i` so far.
    #[inline]
    fn joules(&self, i: usize) -> f64 {
        self.prices.joules(self.tx_bits[i], self.rx_bits[i])
    }

    /// Total energy consumed by `id` so far.
    pub fn consumed(&self, id: NodeId) -> f64 {
        self.joules(id.index())
    }

    /// Receive energy (idle listening included) consumed by `id` so far.
    pub fn consumed_rx(&self, id: NodeId) -> f64 {
        self.prices.joules(0, self.rx_bits[id.index()])
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
        for i in 0..self.len() {
            let now = self.joules(i);
            let delta = now - self.round_start[i];
            if delta > self.max_round_consumption[i] {
                self.max_round_consumption[i] = delta;
            }
            self.round_start[i] = now;
        }
        self.rounds_recorded += 1;
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u32 {
        self.rounds_recorded
    }

    /// Every sensor's energy consumed so far (the root is mains-powered),
    /// in id order.
    fn sensor_joules(&self) -> impl Iterator<Item = f64> + '_ {
        (1..self.len()).map(|i| self.joules(i))
    }

    /// The maximum *cumulative* consumption over sensor nodes (the
    /// "hot-spot" energy; root excluded since it is mains-powered).
    pub fn max_sensor_consumption(&self) -> f64 {
        self.sensor_joules().fold(0.0, f64::max)
    }

    /// The id of the sensor node with the highest cumulative consumption,
    /// or `None` for a root-only ledger (the root is mains-powered and is
    /// never a hotspot candidate).
    pub fn hottest_sensor(&self) -> Option<NodeId> {
        let (idx, _) =
            self.sensor_joules()
                .enumerate()
                .fold((usize::MAX, f64::MIN), |acc, (i, e)| {
                    if acc.0 == usize::MAX || e > acc.1 {
                        (i, e)
                    } else {
                        acc
                    }
                });
        (idx != usize::MAX).then(|| NodeId(idx as u32 + 1))
    }

    /// The energy `id` spent in its single costliest completed round
    /// (recorded by [`EnergyLedger::end_round`]).
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

    /// Estimated network lifetime in rounds: how many rounds until the
    /// first *sensor* runs out of energy, assuming every future round costs
    /// each node its observed per-round mean (DESIGN.md §3.3). Returns
    /// `f64::INFINITY` if no node consumed anything.
    pub fn estimated_lifetime_rounds(&self, model: &RadioModel) -> f64 {
        if self.rounds_recorded == 0 {
            return f64::INFINITY;
        }
        let max_mean = self
            .sensor_joules()
            .map(|e| e / self.rounds_recorded as f64)
            .fold(0.0, f64::max);
        if max_mean <= 0.0 {
            f64::INFINITY
        } else {
            model.initial_energy / max_mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 nJ per bit sent, 1 nJ per bit received.
    const PRICES: Prices = Prices { tx: 2e-9, rx: 1e-9 };

    #[test]
    fn tx_energy_formula() {
        let m = RadioModel::default();
        // 1000 bits over 35 m: 1000 * (50e-9 + 10e-12 * 1225).
        let e = m.tx_energy(1000, 35.0);
        let expect = 1000.0 * (50e-9 + 10e-12 * 35.0 * 35.0);
        assert!((e - expect).abs() < 1e-15);
        let prices = m.prices(35.0);
        assert_eq!(prices.joules(1000, 0), e);
        assert_eq!(prices.joules(0, 8), m.rx_energy(8));
    }

    #[test]
    fn rx_energy_formula() {
        let m = RadioModel::default();
        assert!((m.rx_energy(8) - 8.0 * 50e-9).abs() < 1e-18);
    }

    #[test]
    fn joules_are_derived_from_bits_in_any_order() {
        let prices = RadioModel::default().prices(35.0);
        let charges = [
            (1, 300, true),
            (2, 88, false),
            (1, 17, false),
            (2, 1024, true),
        ];
        let mut forward = EnergyLedger::new(3, prices);
        let mut backward = EnergyLedger::new(3, prices);
        for (ledger, order) in [
            (&mut forward, charges.to_vec()),
            (&mut backward, charges.iter().rev().copied().collect()),
        ] {
            for (node, bits, tx) in order {
                if tx {
                    ledger.charge_tx(NodeId(node), bits);
                } else {
                    ledger.charge_rx(NodeId(node), bits);
                }
            }
        }
        assert_eq!(forward.tx_bits_per_node(), backward.tx_bits_per_node());
        assert_eq!(forward.rx_bits_per_node(), backward.rx_bits_per_node());
        for i in 0..3 {
            let id = NodeId(i as u32);
            let (tx, rx) = (forward.tx_bits_per_node()[i], forward.rx_bits_per_node()[i]);
            let exact = prices.joules(tx, rx);
            assert_eq!(forward.consumed(id).to_bits(), exact.to_bits());
            assert_eq!(backward.consumed(id).to_bits(), exact.to_bits());
        }
        assert_eq!(forward.tx_bits_per_node(), [0, 300, 1024]);
        assert_eq!(forward.rx_bits_per_node(), [0, 17, 88]);
    }

    #[test]
    fn a_broadcast_books_each_mask_once() {
        let mut l = EnergyLedger::new(70, PRICES);
        let (mut receivers, mut transmitters) = (NodeBits::new(), NodeBits::new());
        receivers.reset(70);
        transmitters.reset(70);
        for i in [1, 2, 65, 69] {
            receivers.set(i);
        }
        for i in [0, 2, 65] {
            transmitters.set(i);
        }
        l.charge_broadcast(&receivers, &transmitters, 40);
        l.charge_broadcast(&receivers, &transmitters, 2);
        for i in 0..70 {
            let booked = |mask: &NodeBits| if mask.get(i) { 42 } else { 0 };
            assert_eq!(l.rx_bits_per_node()[i], booked(&receivers));
            assert_eq!(l.tx_bits_per_node()[i], booked(&transmitters));
        }
    }

    #[test]
    fn ledger_tracks_max_and_rounds() {
        let m = RadioModel::default();
        let mut l = EnergyLedger::new(3, PRICES);
        l.charge_rx(NodeId(1), 1000);
        l.charge_rx(NodeId(2), 3000);
        l.end_round();
        l.charge_rx(NodeId(1), 5000);
        l.end_round();
        assert_eq!(l.rounds(), 2);
        assert!((l.consumed(NodeId(1)) - 6e-6).abs() < 1e-18);
        assert!((l.max_sensor_consumption() - 6e-6).abs() < 1e-18);
        assert_eq!(l.hottest_sensor(), Some(NodeId(1)));
        // Mean per round: node1 3e-6, node2 1.5e-6 -> lifetime 30e-3/3e-6 = 1e4.
        let lt = l.estimated_lifetime_rounds(&m);
        assert!((lt - 1e4).abs() / 1e4 < 1e-12);
    }

    #[test]
    fn tx_rx_split_adds_up() {
        let mut l = EnergyLedger::new(3, PRICES);
        l.charge_tx(NodeId(1), 1500);
        l.charge_rx(NodeId(1), 1000);
        assert!((l.consumed_rx(NodeId(1)) - 1e-6).abs() < 1e-18);
        assert!((l.consumed(NodeId(1)) - 4e-6).abs() < 1e-18);
        // Node 1 is the hotspot; rx fraction = 0.25.
        assert!((l.hotspot_rx_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn root_only_ledger_has_no_hotspot() {
        // Regression: this used to return NodeId(1), a node that does not
        // exist in a root-only ledger.
        let mut l = EnergyLedger::new(1, PRICES);
        l.charge_rx(NodeId::ROOT, 1_000_000);
        assert_eq!(l.hottest_sensor(), None);
        assert_eq!(l.hotspot_rx_fraction(), 0.0);
        assert_eq!(l.max_round_sensor_consumption(), 0.0);
        assert_eq!(EnergyLedger::new(0, PRICES).hottest_sensor(), None);
    }

    #[test]
    fn max_round_consumption_tracks_the_costliest_round() {
        let mut l = EnergyLedger::new(3, PRICES);
        l.charge_rx(NodeId(1), 2000);
        l.charge_rx(NodeId(2), 1000);
        l.end_round();
        l.charge_rx(NodeId(1), 5000);
        l.end_round();
        l.charge_rx(NodeId(1), 1000);
        l.end_round();
        assert!((l.max_round_consumption(NodeId(1)) - 5e-6).abs() < 1e-18);
        assert!((l.max_round_consumption(NodeId(2)) - 1e-6).abs() < 1e-18);
        assert!((l.max_round_sensor_consumption() - 5e-6).abs() < 1e-18);
        // Energy charged after the last end_round is not yet a peak.
        let mut fresh = EnergyLedger::new(2, PRICES);
        fresh.charge_rx(NodeId(1), 9000);
        assert_eq!(fresh.max_round_sensor_consumption(), 0.0);
    }

    #[test]
    fn idle_network_lives_forever() {
        let m = RadioModel::default();
        let mut l = EnergyLedger::new(4, PRICES);
        l.end_round();
        assert!(l.estimated_lifetime_rounds(&m).is_infinite());
    }

    #[test]
    fn root_never_dies() {
        let m = RadioModel::default();
        let mut l = EnergyLedger::new(2, PRICES);
        l.charge_rx(NodeId::ROOT, 1 << 40); // huge, but the root is mains powered
        l.charge_rx(NodeId(1), 1);
        l.end_round();
        assert_eq!(l.hottest_sensor(), Some(NodeId(1)));
        // The lifetime is node 1's: one received bit per round.
        let lifetime = l.estimated_lifetime_rounds(&m);
        assert_eq!(lifetime, m.initial_energy / PRICES.rx);
    }
}
