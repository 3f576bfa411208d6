#![warn(missing_docs)]
//! # cqp-core — exact continuous quantile queries in WSNs
//!
//! Implementations of every algorithm evaluated in *"Continuous Quantile
//! Query Processing in Wireless Sensor Networks"* (EDBT 2014):
//!
//! | Module | Algorithm | Source |
//! |---|---|---|
//! | [`tag`] | TAG exact quantile (k-smallest forwarding) | Madden et al. \[17\], §5.1.6 |
//! | [`pos`] | POS — binary-search continuous quantiles | Cox et al. \[9\], §3.2 |
//! | [`lcll`] | LCLL-H / LCLL-S — message-size histograms | Liu et al. \[16\], §5.1.6 |
//! | [`hbc`] | **HBC** — cost-model `b`-ary continuous refinement | paper §4.1 |
//! | [`iq`] | **IQ** — interval heuristic, ≤ 1 refinement | paper §4.2 |
//! | [`adaptive`] | HBC↔IQ runtime switching | paper §4.2 / §6 future work |
//! | [`cost_model`] | optimal bucket count via Lambert W | prior work \[21\], §4.1 |
//! | [`qdigest`] | **QD** — q-digest mergeable sketch (approximate) | Shrivastava et al., extension |
//! | [`gk_sink`] | **GKS** — ε-tolerant GK sink summary (approximate) | Greenwald–Khanna, extension |
//!
//! The paper's protocols are *exact*: the value returned each round equals
//! the true k-th smallest measurement (asserted against an oracle
//! throughout the test suite). They differ only in how much communication
//! — and therefore energy — they spend to learn it. The sketch family
//! (QD, GKS) instead certifies a bounded rank error `⌊ε·n⌋`, advertised
//! through [`ContinuousQuantile::rank_tolerance`] and enforced by the same
//! differential oracle at that tolerance.
//!
//! Protocols speak to the network exclusively through
//! [`wsn_net::Network`] convergecast/broadcast primitives; all energy
//! accounting lives in `wsn-net`.
//!
//! ```
//! use cqp_core::{ContinuousQuantile, Iq, QueryConfig};
//! use cqp_core::iq::IqConfig;
//! use wsn_net::{MessageSizes, Network, Point, RadioModel, RoutingTree, Topology};
//!
//! // A sink plus four sensors on a line, 12 m radio range.
//! let positions = (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
//! let topo = Topology::build(positions, 12.0);
//! let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
//! let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
//!
//! // Continuous median over the integer universe [0, 1023].
//! let query = QueryConfig::median(4, 0, 1023);
//! let mut iq = Iq::new(query, IqConfig::default());
//! assert_eq!(iq.round(&mut net, &[17, 42, 99, 7]), 17);  // init round
//! assert_eq!(iq.round(&mut net, &[18, 43, 99, 9]), 18);  // continuous round
//! assert!(net.ledger().max_sensor_consumption() > 0.0);
//! ```

pub mod adaptive;
pub mod buckets;
pub mod cost_model;
pub mod descent;
mod filter;
pub mod gk;
pub mod gk_sink;
pub mod hbc;
#[cfg(test)]
mod helper_reference;
pub mod init;
pub mod iq;
pub mod lcll;
pub mod lcll_range;
pub mod payloads;
pub mod pos;
pub mod protocol;
pub mod qdigest;
pub mod rank;
pub mod recovery;
#[cfg(test)]
mod reference;
pub mod retrieval;
pub mod sampled;
pub mod service;
pub mod snapshot;
pub mod summary;
pub mod tag;
pub mod validation;
pub mod wire;

pub use adaptive::Adaptive;
pub use gk::Gk;
pub use gk_sink::GkSinkQuantile;
pub use hbc::{Hbc, HbcConfig};
pub use iq::{Iq, IqConfig};
pub use lcll::{Lcll, RefiningStrategy};
pub use lcll_range::LcllRange;
pub use pos::Pos;
pub use protocol::{ContinuousQuantile, QueryConfig};
pub use qdigest::{QDigest, QDigestQuantile};
pub use sampled::SampledQuantile;
pub use service::{ExecGroup, PlanCache, QuerySpec, Service, TrafficPlan};
pub use tag::Tag;

/// A sensor measurement (re-exported from `wsn-net`).
pub type Value = wsn_net::Value;
