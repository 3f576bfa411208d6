//! The performance indicators of §5.1.5, plus the per-phase energy
//! breakdown and audit counters of the transmission-audit layer.

use wsn_net::obs::HistogramSet;
use wsn_net::Phase;

/// Metrics of a single simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Mean per-round energy of the hottest sensor node (J/round) — the
    /// "maximum per-node energy consumption" indicator.
    pub max_node_energy_per_round: f64,
    /// Network lifetime in rounds (until the first sensor exhausts its
    /// 30 mJ supply, extrapolated from per-round means; DESIGN.md §3.3).
    pub lifetime_rounds: f64,
    /// Messages transmitted per round (network-wide).
    pub messages_per_round: f64,
    /// Measurements transmitted per round (each hop counts).
    pub values_per_round: f64,
    /// Bits on air per round.
    pub bits_per_round: f64,
    /// Rounds whose answer equaled the oracle's k-th value.
    pub exact_rounds: u32,
    /// Total rounds executed.
    pub total_rounds: u32,
    /// Mean absolute rank error of the answers (0 when always exact;
    /// meaningful under message loss, §6).
    pub mean_rank_error: f64,
    /// Worst absolute rank error of any round (0 when always exact).
    pub max_rank_error: u64,
    /// Rank error the protocol certifies, `⌊ε·n⌋` for the sketch family
    /// and 0 for the exact battery ([`cqp_core::ContinuousQuantile::rank_tolerance`]).
    pub rank_tolerance: u64,
    /// Receive-energy fraction of the hotspot node (§5.2.1's analysis of
    /// where the energy goes as density grows).
    pub hotspot_rx_fraction: f64,
    /// Fraction of logical payload hops delivered (1.0 on reliable links).
    pub delivery_rate: f64,
    /// ARQ data-frame retransmissions per round (0 without ARQ).
    pub retransmissions_per_round: f64,
    /// Costliest single round of any sensor (J) — the peak the
    /// `max_round_consumption` ledger tracks, as opposed to the per-round
    /// *mean* of the hotspot.
    pub peak_round_energy: f64,
    /// Sensors killed by the crash-stop failure process (0 without one).
    pub failed_nodes: u32,
    /// Routing-tree rebuilds forced by the dynamics layer (mobility
    /// epochs, churn); failure-driven repairs are not counted here.
    pub rebuilds: u32,
    /// Total energy charged per protocol phase (J), indexed by
    /// [`Phase::index`] (init, validation, refinement, recovery, other,
    /// rebuild).
    pub phase_joules: [f64; Phase::COUNT],
    /// Total bits on air per protocol phase, indexed like `phase_joules`.
    pub phase_bits: [u64; Phase::COUNT],
    /// Transmission events checked by the energy audit (0 when the run
    /// was not audited).
    pub audit_events: u64,
    /// Ledger/replay mismatches the auditor found (always 0 on a healthy
    /// build; any other value is a conservation bug).
    pub audit_discrepancies: u32,
    /// Network-wide telemetry histograms (message bits, hop depth, ARQ
    /// retries, convergecast fan-in): every node's always-on histograms
    /// merged. Fixed-size (`Copy`), so the run metrics stay plain data.
    pub hists: HistogramSet,
}

impl Default for RunMetrics {
    /// A neutral all-zero run on perfectly reliable links.
    fn default() -> Self {
        RunMetrics {
            max_node_energy_per_round: 0.0,
            lifetime_rounds: 0.0,
            messages_per_round: 0.0,
            values_per_round: 0.0,
            bits_per_round: 0.0,
            exact_rounds: 0,
            total_rounds: 0,
            mean_rank_error: 0.0,
            max_rank_error: 0,
            rank_tolerance: 0,
            hotspot_rx_fraction: 0.0,
            delivery_rate: 1.0,
            retransmissions_per_round: 0.0,
            peak_round_energy: 0.0,
            failed_nodes: 0,
            rebuilds: 0,
            phase_joules: [0.0; Phase::COUNT],
            phase_bits: [0; Phase::COUNT],
            audit_events: 0,
            audit_discrepancies: 0,
            hists: HistogramSet::default(),
        }
    }
}

impl RunMetrics {
    /// Fraction of rounds answered exactly.
    pub fn exactness(&self) -> f64 {
        if self.total_rounds == 0 {
            return 1.0;
        }
        self.exact_rounds as f64 / self.total_rounds as f64
    }

    /// The degenerate-world contract: every ratio metric is a *number* —
    /// zero-traffic worlds (all sensors dead in round 0, or `rounds == 0`)
    /// yield 0.0 (or `+∞` for the never-dies lifetime), never NaN. Each
    /// ratio's producer guards its denominator
    /// ([`wsn_net::EnergyLedger::hotspot_rx_fraction`],
    /// [`wsn_net::ReliabilityStats::delivery_rate`], the runner's
    /// `rounds.max(1)`); this check pins the contract at the metrics
    /// boundary so a future unguarded ratio cannot slip through.
    pub fn is_nan_free(&self) -> bool {
        !(self.max_node_energy_per_round.is_nan()
            || self.lifetime_rounds.is_nan()
            || self.messages_per_round.is_nan()
            || self.values_per_round.is_nan()
            || self.bits_per_round.is_nan()
            || self.mean_rank_error.is_nan()
            || self.hotspot_rx_fraction.is_nan()
            || self.delivery_rate.is_nan()
            || self.retransmissions_per_round.is_nan()
            || self.peak_round_energy.is_nan()
            || self.exactness().is_nan()
            || self.phase_joules.iter().any(|j| j.is_nan()))
    }
}

/// Mean and standard deviation over simulation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedMetrics {
    /// Number of runs aggregated.
    pub runs: u32,
    /// Mean hotspot energy per round (J/round).
    pub max_node_energy_per_round: f64,
    /// Std-dev of the hotspot energy.
    pub max_node_energy_std: f64,
    /// Mean lifetime (rounds).
    pub lifetime_rounds: f64,
    /// Std-dev of the lifetime.
    pub lifetime_std: f64,
    /// Mean messages per round.
    pub messages_per_round: f64,
    /// Mean values per round.
    pub values_per_round: f64,
    /// Mean bits per round.
    pub bits_per_round: f64,
    /// Fraction of exact rounds across all runs.
    pub exactness: f64,
    /// Mean absolute rank error.
    pub mean_rank_error: f64,
    /// Worst absolute rank error of any round in any run.
    pub max_rank_error: u64,
    /// Largest rank tolerance any run certified (identical across runs of
    /// the same configuration; `max` keeps the aggregation conservative).
    pub rank_tolerance: u64,
    /// Mean hotspot receive-energy fraction.
    pub hotspot_rx_fraction: f64,
    /// Mean payload-hop delivery rate.
    pub delivery_rate: f64,
    /// Mean ARQ retransmissions per round.
    pub retransmissions_per_round: f64,
    /// Mean peak single-round sensor energy (J).
    pub peak_round_energy: f64,
    /// Mean sensors killed per run.
    pub failed_nodes: f64,
    /// Mean dynamics-driven routing-tree rebuilds per run.
    pub rebuilds: f64,
    /// Mean per-run energy per protocol phase (J), indexed by
    /// [`Phase::index`].
    pub phase_joules: [f64; Phase::COUNT],
    /// Mean per-run bits on air per protocol phase.
    pub phase_bits: [f64; Phase::COUNT],
    /// Transmission events audited across all runs.
    pub audit_events: u64,
    /// Auditor discrepancies across all runs (must be 0).
    pub audit_discrepancies: u64,
    /// Telemetry histograms of every run merged (bucket-wise sums, not
    /// means: counts stay counts).
    pub hists: HistogramSet,
}

impl AggregatedMetrics {
    /// Aggregates per-run metrics.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_runs(runs: &[RunMetrics]) -> Self {
        assert!(!runs.is_empty(), "need at least one run");
        let n = runs.len() as f64;
        let mean = |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(f).sum::<f64>() / n;
        let std = |f: &dyn Fn(&RunMetrics) -> f64, m: f64| {
            // An immortal run (nothing ever spends energy — e.g. the only
            // sensor churns out in round 0) estimates an infinite lifetime;
            // `inf − inf` would poison the std with a NaN that breaks
            // aggregate equality (NaN ≠ NaN). A value equal to its
            // (infinite) mean deviates by zero; a finite value against an
            // infinite mean genuinely spreads infinitely.
            let dev = |r: &RunMetrics| {
                let d = f(r) - m;
                if d.is_nan() {
                    0.0
                } else {
                    d.powi(2)
                }
            };
            (runs.iter().map(dev).sum::<f64>() / n).sqrt()
        };
        let energy = mean(&|r: &RunMetrics| r.max_node_energy_per_round);
        let lifetime = mean(&|r: &RunMetrics| r.lifetime_rounds);
        AggregatedMetrics {
            runs: runs.len() as u32,
            max_node_energy_per_round: energy,
            max_node_energy_std: std(&|r: &RunMetrics| r.max_node_energy_per_round, energy),
            lifetime_rounds: lifetime,
            lifetime_std: std(&|r: &RunMetrics| r.lifetime_rounds, lifetime),
            messages_per_round: mean(&|r: &RunMetrics| r.messages_per_round),
            values_per_round: mean(&|r: &RunMetrics| r.values_per_round),
            bits_per_round: mean(&|r: &RunMetrics| r.bits_per_round),
            exactness: mean(&|r: &RunMetrics| r.exactness()),
            mean_rank_error: mean(&|r: &RunMetrics| r.mean_rank_error),
            max_rank_error: runs.iter().map(|r| r.max_rank_error).max().unwrap_or(0),
            rank_tolerance: runs.iter().map(|r| r.rank_tolerance).max().unwrap_or(0),
            hotspot_rx_fraction: mean(&|r: &RunMetrics| r.hotspot_rx_fraction),
            delivery_rate: mean(&|r: &RunMetrics| r.delivery_rate),
            retransmissions_per_round: mean(&|r: &RunMetrics| r.retransmissions_per_round),
            peak_round_energy: mean(&|r: &RunMetrics| r.peak_round_energy),
            failed_nodes: mean(&|r: &RunMetrics| r.failed_nodes as f64),
            rebuilds: mean(&|r: &RunMetrics| r.rebuilds as f64),
            phase_joules: std::array::from_fn(|p| mean(&|r: &RunMetrics| r.phase_joules[p])),
            phase_bits: std::array::from_fn(|p| mean(&|r: &RunMetrics| r.phase_bits[p] as f64)),
            audit_events: runs.iter().map(|r| r.audit_events).sum(),
            audit_discrepancies: runs.iter().map(|r| r.audit_discrepancies as u64).sum(),
            hists: runs.iter().fold(HistogramSet::default(), |mut acc, r| {
                acc.merge(&r.hists);
                acc
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(e: f64, lt: f64, exact: u32, total: u32) -> RunMetrics {
        RunMetrics {
            max_node_energy_per_round: e,
            lifetime_rounds: lt,
            messages_per_round: 10.0,
            values_per_round: 5.0,
            bits_per_round: 100.0,
            exact_rounds: exact,
            total_rounds: total,
            mean_rank_error: 0.0,
            hotspot_rx_fraction: 0.5,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn aggregation_means_and_stds() {
        let agg = AggregatedMetrics::from_runs(&[run(1.0, 100.0, 10, 10), run(3.0, 300.0, 5, 10)]);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.max_node_energy_per_round, 2.0);
        assert_eq!(agg.max_node_energy_std, 1.0);
        assert_eq!(agg.lifetime_rounds, 200.0);
        assert_eq!(agg.exactness, 0.75);
    }

    #[test]
    fn immortal_runs_keep_the_lifetime_std_finite() {
        // Two immortal runs (infinite lifetime estimate): they agree, so
        // the spread is zero — and crucially not NaN, which would make the
        // aggregate unequal to itself and trip the thread-parity oracle.
        let agg = AggregatedMetrics::from_runs(&[
            run(1.0, f64::INFINITY, 10, 10),
            run(0.0, f64::INFINITY, 10, 10),
        ]);
        assert_eq!(agg.lifetime_rounds, f64::INFINITY);
        assert_eq!(agg.lifetime_std, 0.0);
        assert_eq!(agg, agg.clone(), "aggregate must equal itself");
    }

    #[test]
    fn mixed_mortality_spreads_infinitely_but_never_nan() {
        let agg = AggregatedMetrics::from_runs(&[
            run(1.0, 100.0, 10, 10),
            run(1.0, f64::INFINITY, 10, 10),
        ]);
        assert_eq!(agg.lifetime_rounds, f64::INFINITY);
        assert_eq!(agg.lifetime_std, f64::INFINITY);
        assert!(!agg.lifetime_std.is_nan());
    }

    #[test]
    fn exactness_of_single_run() {
        assert_eq!(run(1.0, 1.0, 9, 10).exactness(), 0.9);
        let empty = RunMetrics {
            total_rounds: 0,
            ..run(1.0, 1.0, 0, 0)
        };
        assert_eq!(empty.exactness(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn rejects_empty_aggregation() {
        let _ = AggregatedMetrics::from_runs(&[]);
    }

    #[test]
    fn zero_traffic_run_has_no_nan_ratios() {
        // The all-zero default is exactly what a world with no surviving
        // traffic produces — every ratio must already be a clean number.
        let dead = RunMetrics::default();
        assert!(dead.is_nan_free());
        assert_eq!(dead.hotspot_rx_fraction, 0.0);
        assert_eq!(dead.exactness(), 1.0);
        let agg = AggregatedMetrics::from_runs(&[dead]);
        assert!(!agg.hotspot_rx_fraction.is_nan());
        assert!(!agg.max_node_energy_std.is_nan());
    }

    #[test]
    fn nan_detection_actually_fires() {
        let bad = RunMetrics {
            hotspot_rx_fraction: f64::NAN,
            ..RunMetrics::default()
        };
        assert!(!bad.is_nan_free());
    }
}
