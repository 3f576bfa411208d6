//! # wsn-bench — experiment and simulation binaries
//!
//! Two binaries drive the simulator:
//!
//! * the `experiments` binary (`cargo run -p wsn-bench --release --bin
//!   experiments`) prints, for every figure of §5 plus the two future-work
//!   extensions, the same rows/series the paper plots;
//! * the `simulate` binary runs single cells, traced runs, the fuzzer, the
//!   continuous-query service and the `scale` throughput smoke.
//!
//! This library crate holds the binaries' one flag parser ([`cli`]), the
//! JSON reader/writer of their machine-readable outputs ([`json`]), the
//! constant-density `scale` workload ([`scale`]) and re-exports the pieces
//! the entry points share.

pub mod cli;
pub mod json;
pub mod scale;

pub use wsn_sim::experiments;
pub use wsn_sim::report;
