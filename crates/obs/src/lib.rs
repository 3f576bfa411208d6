#![warn(missing_docs)]
//! # wsn-obs — runtime telemetry for the WSN simulator
//!
//! The evaluation of the paper (§5) lives and dies on *where* bits and
//! rounds go: validation vs. refinement traffic, hotspot load, per-round
//! behaviour. This crate is the observability substrate the rest of the
//! workspace taps into:
//!
//! * [`hist`] — fixed-size log-bucketed histograms ([`LogHistogram`]) and
//!   per-node collections of them ([`NodeHistograms`]): message size, hop
//!   depth, ARQ retries and subtree fan-in, in a compact 216-byte block
//!   per node, with **no heap allocation in the recording path** (a bucket
//!   increment is an inline counter write; only a node that outgrows its
//!   16 counters allocates, once, for a dense set);
//! * [`span`] — an allocation-free-when-disabled span/event [`Recorder`]
//!   with wall-clock timing: rounds, protocol phases,
//!   convergecast/broadcast waves, ARQ retries;
//! * [`capture`] — packet-level capture records ([`PacketRecord`]), a JSONL
//!   wire format, and a replaying differ ([`capture::diff`]) that reports
//!   the first divergent (round, node, frame) between two captures;
//! * [`export`] — Chrome-trace/Perfetto JSON for spans and a
//!   Prometheus-style text dump for metrics and histograms;
//! * [`monitor`] — the service-level monitoring plane: per-query live
//!   metrics rows, deterministic round-boundary watchdogs raising typed
//!   [`HealthEvent`]s, and a fixed-capacity flight recorder whose JSONL
//!   post-mortem captures the rounds leading up to the first event.
//!
//! The crate is deliberately a leaf: **zero dependencies**, not even on
//! `wsn-net`. The network engine depends on *it* and feeds it plain
//! integers, so every layer of the stack (network, protocols, runner, CLI)
//! can share one vocabulary of telemetry types without cycles.

pub mod capture;
pub mod export;
pub mod hist;
#[cfg(test)]
mod hist_reference;
pub mod monitor;
pub mod span;

pub use capture::{diff, CaptureDiff, Divergence, PacketRecord};
pub use export::{chrome_trace, escape_label, PromDump};
pub use hist::{HistKind, HistogramSet, LogHistogram, NodeHistograms};
pub use monitor::{
    FlightRecorder, HealthEvent, HealthKind, Monitor, MonitorConfig, QueryRow, RoundFrame,
    SlotSample,
};
pub use span::{Recorder, SpanEvent, SpanKind, SpanStart};
