//! Scale family: HBC rounds on constant-density worlds of 1 k / 10 k /
//! 100 k nodes.
//!
//! The workload (constant-density world, drifting measurements, full HBC
//! rounds: convergecasts, broadcasts, ledger, histograms) lives in
//! [`wsn_bench::scale`], shared with the `simulate scale` CI smoke gate.
//! Worlds are built once, outside the timed region.

use wsn_bench::harness::Harness;
use wsn_bench::scale::{build_world, hbc_rounds};

fn main() {
    let mut h = Harness::from_args("scale");

    for &(n, rounds) in &[(1_000usize, 1_000u32), (10_000, 1_000), (100_000, 1_000)] {
        let mut net = build_world(n, 0x5CA1E ^ n as u64);
        let r = h.bench(&format!("hbc/n={n}/rounds={rounds}"), || {
            hbc_rounds(&mut net, n, rounds)
        });
        if let Some(r) = r {
            h.note(
                &format!("hbc_ns_per_node_round/n={n}"),
                r.median_ns as f64 / (n as f64 * rounds as f64),
            );
        }
    }

    h.finish();
}
