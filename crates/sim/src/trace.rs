//! Per-round instrumentation: run any protocol over a [`World`] and
//! record what happened each round — the raw series behind time plots
//! like Figure 4 — with CSV export.

use std::fmt::Write as _;

use cqp_core::ContinuousQuantile;
use wsn_net::{Network, Phase, TrafficStats};

use crate::world::World;
use crate::Value;

/// One round of a traced run. A round spans [`World::begin_round`] as well
/// as the protocol round, so failure repairs and rebuild beacons count in
/// the round they happen in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round index `t`.
    pub round: u32,
    /// The answer the protocol produced.
    pub quantile: Value,
    /// The oracle's k-th value ([`World::oracle`]): equal to `quantile`
    /// exactly when the round's rank error is 0 — including rounds where
    /// nobody is reachable, which the oracle excuses.
    pub truth: Value,
    /// Messages transmitted in this round.
    pub messages: u64,
    /// Raw measurements transmitted in this round (hop-counted).
    pub values: u64,
    /// Bits on air in this round.
    pub bits: u64,
    /// Hotspot energy consumed in this round (J).
    pub hotspot_energy: f64,
    /// Smallest measurement in the network this round.
    pub min: Value,
    /// Largest measurement this round.
    pub max: Value,
    /// Bits on air in this round per protocol phase, indexed by
    /// [`Phase::index`] (every phase of [`Phase::ALL`]); they sum to
    /// `bits`.
    pub phase_bits: [u64; Phase::COUNT],
}

/// Runs `alg` for `rounds` rounds of `world`, recording every round and
/// judging each answer as the `phi`-quantile. The protocol keeps running
/// even when its answer diverges from the oracle (loss experiments), so
/// the trace shows the divergence.
pub fn trace_run(
    world: &mut World,
    alg: &mut dyn ContinuousQuantile,
    rounds: u32,
    phi: f64,
) -> Vec<RoundRecord> {
    let totals = |net: &Network| -> (TrafficStats, f64, [u64; Phase::COUNT]) {
        let hotspot = net.ledger().max_sensor_consumption();
        (*net.stats(), hotspot, net.phases().bits())
    };
    let mut out = Vec::with_capacity(rounds as usize);
    let (mut prev_stats, mut prev_hotspot, mut prev_phase_bits) = totals(world.net());
    for t in 0..rounds {
        if world.begin_round(t) {
            alg.topology_changed();
        }
        let quantile = world.round(alg);
        let truth = world.oracle(phi).map_or(quantile, |(population, k)| {
            cqp_core::rank::kth_smallest(population, k)
        });
        let (stats, hotspot, phase_bits) = totals(world.net());
        let values = world.values();
        out.push(RoundRecord {
            round: t,
            quantile,
            truth,
            messages: stats.messages - prev_stats.messages,
            values: stats.values - prev_stats.values,
            bits: stats.bits - prev_stats.bits,
            hotspot_energy: hotspot - prev_hotspot,
            // A sensor-less network has no measurements; record a neutral 0
            // rather than panicking on a degenerate (but legal) world.
            min: values.iter().min().copied().unwrap_or_default(),
            max: values.iter().max().copied().unwrap_or_default(),
            phase_bits: std::array::from_fn(|i| phase_bits[i] - prev_phase_bits[i]),
        });
        prev_stats = stats;
        prev_hotspot = hotspot;
        prev_phase_bits = phase_bits;
    }
    out
}

/// Initialization-overhead summary of a trace: `(bits of round 0, largest
/// bits of any later round)` — the comparison behind "the full collection
/// dominates update rounds". Returns `None` for traces with fewer than two
/// rounds, where no later round exists to compare against (the guarded
/// form of the `trace[1..] ... .max().unwrap()` pattern).
pub fn init_overhead(trace: &[RoundRecord]) -> Option<(u64, u64)> {
    let (first, rest) = trace.split_first()?;
    let later_max = rest.iter().map(|r| r.bits).max()?;
    Some((first.bits, later_max))
}

/// Renders a trace as CSV (with header), ready for external plotting:
/// one `bits_<phase>` column per [`Phase::ALL`], summing to `bits`.
pub fn to_csv(trace: &[RoundRecord]) -> String {
    let mut out =
        String::from("round,quantile,truth,messages,values,bits,hotspot_energy_j,min,max");
    for phase in Phase::ALL {
        let _ = write!(out, ",bits_{}", phase.name());
    }
    out.push('\n');
    for r in trace {
        let _ = write!(
            out,
            "{},{},{},{},{},{},{:.9e},{},{}",
            r.round,
            r.quantile,
            r.truth,
            r.messages,
            r.values,
            r.bits,
            r.hotspot_energy,
            r.min,
            r.max,
        );
        for bits in r.phase_bits {
            let _ = write!(out, ",{bits}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlgorithmKind, SimulationConfig};

    /// An 80-sensor Table 2 world at ρ = 40 m with IQ asking the median.
    fn iq_world() -> (World, Box<dyn ContinuousQuantile>) {
        let cfg = SimulationConfig {
            sensor_count: 80,
            radio_range: 40.0,
            seed: 7,
            ..SimulationConfig::default()
        };
        let world = World::new(&cfg, 0);
        let iq = AlgorithmKind::Iq.build(world.query(0.5), &cfg.sizes);
        (world, iq)
    }

    #[test]
    fn trace_matches_oracle_and_sums_to_totals() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, iq.as_mut(), 30, 0.5);
        assert_eq!(trace.len(), 30);
        for r in &trace {
            assert_eq!(r.quantile, r.truth, "round {}", r.round);
            assert!(r.min <= r.quantile && r.quantile <= r.max);
        }
        let sum_msgs: u64 = trace.iter().map(|r| r.messages).sum();
        assert_eq!(sum_msgs, world.net().stats().messages);
        let sum_bits: u64 = trace.iter().map(|r| r.bits).sum();
        assert_eq!(sum_bits, world.net().stats().bits);
    }

    #[test]
    fn init_round_is_the_expensive_one() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, iq.as_mut(), 20, 0.5);
        let (init_bits, later_max) = init_overhead(&trace).expect("20-round trace");
        assert!(
            init_bits > later_max,
            "full collection ({init_bits}) must dominate update rounds ({later_max})"
        );
    }

    #[test]
    fn degenerate_traces_are_guarded_not_panicking() {
        // 0-round and 1-round traces run without panicking, and the
        // init-overhead comparison declines rather than indexing past the
        // end.
        let (mut world, mut iq) = iq_world();
        let empty = trace_run(&mut world, iq.as_mut(), 0, 0.5);
        assert!(empty.is_empty());
        assert_eq!(init_overhead(&empty), None);
        assert_eq!(to_csv(&empty).lines().count(), 1, "header only");

        let (mut world, mut iq) = iq_world();
        let one = trace_run(&mut world, iq.as_mut(), 1, 0.5);
        assert_eq!(one.len(), 1);
        assert_eq!(init_overhead(&one), None, "no later rounds to compare");

        let (mut world, mut iq) = iq_world();
        let two = trace_run(&mut world, iq.as_mut(), 2, 0.5);
        let (init_bits, later) = init_overhead(&two).expect("two rounds suffice");
        assert_eq!(init_bits, two[0].bits);
        assert_eq!(later, two[1].bits);
    }

    #[test]
    fn phase_bits_partition_the_round_bits() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, iq.as_mut(), 15, 0.5);
        for r in &trace {
            assert_eq!(
                r.phase_bits.iter().sum::<u64>(),
                r.bits,
                "round {}",
                r.round
            );
        }
        // Round 0 is the initialization collection; afterwards IQ's traffic
        // is validation (plus occasional refinements), never init again.
        assert!(trace[0].phase_bits[Phase::Init.index()] > 0);
        assert_eq!(trace[1].phase_bits[Phase::Init.index()], 0);
        assert!(trace[1].phase_bits[Phase::Validation.index()] > 0);
    }

    #[test]
    fn csv_has_header_and_one_line_per_round() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, iq.as_mut(), 10, 0.5);
        let csv = to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 11);
        assert!(lines[0].starts_with("round,quantile,truth"));
        assert!(lines[0].ends_with(",bits_other,bits_rebuild"));
        assert!(lines[1].starts_with("0,"));
        let columns = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == columns));
    }
}
