//! # wsn-bench — benchmark harness
//!
//! Two entry points regenerate the paper's evaluation:
//!
//! * the `experiments` binary (`cargo run -p wsn-bench --release --bin
//!   experiments`) prints, for every figure of §5 plus the two future-work
//!   extensions, the same rows/series the paper plots;
//! * the zero-dependency [`harness`] benches (`cargo bench`) time
//!   representative simulation cells and the protocol-level hot paths and
//!   merge their numbers into `BENCH_results.json`.
//!
//! This library crate holds the bench harness, the binaries' one flag
//! parser ([`cli`]) and re-exports the pieces the entry points share.

pub mod cli;
pub mod harness;
pub mod json;
pub mod regress;
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
