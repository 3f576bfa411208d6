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

/// Expected qualitative shapes from the paper, checked by the
/// `experiment_shapes` integration test and reported by the binary.
pub mod shapes {
    use wsn_sim::config::AlgorithmKind;
    use wsn_sim::experiments::SweepResults;

    /// Extracts the hotspot-energy series of `alg` across the sweep's
    /// cells (`None` where skipped).
    pub fn energy_series(results: &SweepResults, alg: AlgorithmKind) -> Vec<Option<f64>> {
        let idx = results
            .sweep
            .algorithms
            .iter()
            .position(|&a| a == alg)
            .expect("algorithm not part of sweep");
        results.results[idx]
            .iter()
            .map(|m| m.as_ref().map(|m| m.max_node_energy_per_round))
            .collect()
    }

    /// True iff the series is (weakly) increasing over its defined cells.
    pub fn non_decreasing(series: &[Option<f64>], tolerance: f64) -> bool {
        let vals: Vec<f64> = series.iter().flatten().copied().collect();
        vals.windows(2).all(|w| w[1] >= w[0] * (1.0 - tolerance))
    }
}
