#![warn(missing_docs)]
//! # wsn-sim — simulation runner for continuous quantile queries
//!
//! Reproduces the evaluation methodology of §5.1: given a configuration
//! (node count, radio range, dataset, algorithm), it builds the physical
//! topology and shortest-path routing tree, replays the dataset round by
//! round through the chosen protocol, verifies every answer against a
//! centralized oracle, and reports the paper's performance indicators —
//! maximum per-node energy consumption and network lifetime — averaged
//! over rounds and simulation runs.
//!
//! * [`config`] — simulation parameters (Table 2 defaults),
//! * [`dynamics`] — mobility, churn, link drift and duty-cycled radios,
//! * [`world`] — one seeded world per run: seeding, model installs, the
//!   round start and the oracle,
//! * [`runner`] — a single run and multi-run aggregation,
//! * [`metrics`] — the measured indicators,
//! * [`experiments`] — the pre-configured sweeps behind every figure,
//! * [`parallel`] — the deterministic std-only worker pool behind them,
//! * [`parity`] — byte-exact engine digests for the refactor-parity suite,
//! * [`trace`] — per-round instrumentation with CSV export,
//! * [`multi`] — the §2 multi-measurement-node expansion,
//! * [`scenario`] — flat integer scenario descriptions (the `wsn-check`
//!   fuzzer's input language) and their expansion into configurations,
//! * [`report`] — plain-text table rendering.

pub mod config;
pub mod dynamics;
pub mod experiments;
pub mod metrics;
pub mod multi;
pub mod parallel;
pub mod parity;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod trace;
pub mod world;

pub use config::{AlgorithmKind, DatasetSpec, DynamicsConfig, SimulationConfig};
pub use metrics::{AggregatedMetrics, RunMetrics};
pub use runner::{run_experiment, run_experiment_threads, run_once};
pub use scenario::{DataSource, Scenario};
pub use service::{
    serve, serve_capture, serve_monitored, QueryReport, ServeEvent, ServeQuery, ServeReport,
};
pub use world::World;

/// A sensor measurement.
pub type Value = wsn_net::Value;
