#![warn(missing_docs)]
//! # wsn-net — wireless sensor network substrate
//!
//! This crate models the physical and logical layers of a hierarchical
//! wireless sensor network as used by the EDBT 2014 paper *"Continuous
//! Quantile Query Processing in Wireless Sensor Networks"*:
//!
//! * [`geometry`] — 2-D points and distances,
//! * [`topology`] — the physical connectivity (disk) graph `G_p`,
//! * [`tree`] — the logical routing tree `G_l` (a shortest-path tree),
//! * [`message`] — message sizing constants and fragmentation,
//! * [`energy`] — the first-order radio energy model and per-node ledger,
//! * [`network`] — convergecast / broadcast engines with in-network
//!   aggregation and energy accounting,
//! * [`loss`] — optional Bernoulli link-loss model (paper §6 future work),
//! * [`reliability`] — optional ARQ, wave recovery and crash-stop node
//!   failures with routing-tree repair (the other half of §6),
//! * [`splitmix`] — the workspace-shared splitmix64 generator behind every
//!   stochastic model,
//! * [`audit`] — per-transmission event log, per-phase traffic and energy
//!   attribution and an auditor that reconciles the ledger's bits exactly
//!   at every round boundary.
//!
//! The substrate is deliberately protocol-agnostic: quantile algorithms in
//! `cqp-core` express themselves purely through [`network::Network`]
//! primitives, and all energy accounting happens here.
//!
//! ```
//! use wsn_net::{Aggregate, MessageSizes, Network, Point, RadioModel,
//!               RoutingTree, Topology};
//!
//! // A sum-of-readings aggregate.
//! #[derive(Default)]
//! struct Sum(u64);
//! impl Aggregate for Sum {
//!     fn merge(&mut self, other: Self) { self.0 += other.0; }
//!     fn payload_bits(&self, sizes: &MessageSizes) -> u64 { sizes.counter_bits }
//! }
//!
//! let positions = (0..4).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
//! let topo = Topology::build(positions, 12.0);
//! let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
//! let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
//!
//! let total = net.convergecast(|id| Some(Sum(id.0 as u64))).unwrap();
//! assert_eq!(total.0, 1 + 2 + 3);
//! assert!(net.ledger().max_sensor_consumption() > 0.0); // tx/rx charged
//! ```

pub mod audit;
#[cfg(test)]
mod audit_reference;
pub mod bitset;
pub mod codec;
pub mod energy;
pub mod geometry;
pub mod loss;
pub mod message;
pub mod network;
#[cfg(test)]
mod reference;
pub mod reliability;
pub mod splitmix;
pub mod topology;
pub mod tree;

pub use audit::{
    lane_breakdowns, lane_breakdowns_by_round, AuditLog, AuditReport, EnergyAuditor, LaneBook,
    Phase, PhaseBreakdown, PhaseCounters, Tariff, TxEvent, TxKind,
};
pub use bitset::NodeBits;
pub use energy::{EnergyLedger, Prices, RadioModel};
pub use geometry::Point;
pub use loss::{LossDrift, LossModel};
pub use message::{MessageSizes, PayloadSize};
pub use network::{Aggregate, Network, TrafficStats, WaveStore};
pub use reliability::{FailureModel, ReliabilityConfig, ReliabilityStats, WaveReport};
pub use topology::{NodeId, Topology};
pub use tree::RoutingTree;
/// The telemetry substrate (`wsn-obs`), re-exported so downstream crates
/// reach histogram/span/capture types through one dependency.
pub use wsn_obs as obs;

/// A sensor measurement. The paper works on an integer universe
/// `[r_min, r_max]`; we use `i64` so that algorithms can form open-ended
/// bounds (`i64::MIN`/`i64::MAX` stand in for −∞/∞) without overflow in
/// interval arithmetic.
pub type Value = i64;
