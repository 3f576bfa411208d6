//! Simulation configuration (§5.1.7, Table 2).

use cqp_core::hbc::HbcConfig;
use cqp_core::iq::IqConfig;
use cqp_core::lcll::RefiningStrategy;
use cqp_core::{
    Adaptive, ContinuousQuantile, Gk, GkSinkQuantile, Hbc, Iq, Lcll, LcllRange, Pos,
    QDigestQuantile, QueryConfig, Tag,
};
use wsn_data::pressure::PressureConfig;
use wsn_data::synthetic::SyntheticConfig;
use wsn_net::{MessageSizes, RadioModel, ReliabilityConfig};

/// Which protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// TAG baseline \[17\].
    Tag,
    /// POS binary-search baseline \[9\].
    Pos,
    /// LCLL with hierarchical refining \[16\].
    LcllH,
    /// LCLL with slip refining \[16\].
    LcllS,
    /// LCLL, range-anchored reconstruction (static bucket hierarchy).
    LcllR,
    /// HBC (paper §4.1, default improvements).
    Hbc,
    /// HBC §4.1.2 no-threshold-broadcast variant.
    HbcNb,
    /// IQ (paper §4.2).
    Iq,
    /// Adaptive HBC↔IQ switching (future work).
    Adaptive,
    /// Summary-based exact snapshot method (§3.1, \[10\]).
    Gk,
    /// Q-digest mergeable sketch (approximate, `⌊ε·n⌋` rank error;
    /// extension). `eps_milli` is ε in thousandths.
    QDigest {
        /// Error budget ε in thousandths (e.g. 100 = 10 %).
        eps_milli: u32,
    },
    /// GK-style ε-tolerant incremental sink summary (approximate;
    /// extension). `capacity` 0 derives the per-message entry budget
    /// from the payload size.
    GkSink {
        /// Error budget ε in thousandths.
        eps_milli: u32,
        /// Summary entries per message (0 = derived from payload size).
        capacity: u32,
    },
}

impl AlgorithmKind {
    /// The six algorithms compared in §5 of the paper.
    pub const PAPER_SET: [AlgorithmKind; 6] = [
        AlgorithmKind::Tag,
        AlgorithmKind::Pos,
        AlgorithmKind::LcllH,
        AlgorithmKind::LcllS,
        AlgorithmKind::Hbc,
        AlgorithmKind::Iq,
    ];

    /// Every protocol the `simulate` CLI runs, in `--all` order. The
    /// sketch family sits at the default ε = 0.1 and derived capacity;
    /// pick other operating points through [`AlgorithmKind::battery`].
    pub const ALL: [AlgorithmKind; 12] = [
        AlgorithmKind::Tag,
        AlgorithmKind::Pos,
        AlgorithmKind::LcllH,
        AlgorithmKind::LcllS,
        AlgorithmKind::LcllR,
        AlgorithmKind::Hbc,
        AlgorithmKind::HbcNb,
        AlgorithmKind::Iq,
        AlgorithmKind::Adaptive,
        AlgorithmKind::Gk,
        AlgorithmKind::QDigest { eps_milli: 100 },
        AlgorithmKind::GkSink {
            eps_milli: 100,
            capacity: 0,
        },
    ];

    /// The full differential-oracle battery: the paper set plus the two
    /// approximate sketch protocols at the given ε/capacity operating
    /// point (8 protocols; `crates/check` runs every scenario through it).
    pub fn battery(eps_milli: u32, capacity: u32) -> [AlgorithmKind; 8] {
        [
            AlgorithmKind::Tag,
            AlgorithmKind::Pos,
            AlgorithmKind::LcllH,
            AlgorithmKind::LcllS,
            AlgorithmKind::Hbc,
            AlgorithmKind::Iq,
            AlgorithmKind::QDigest { eps_milli },
            AlgorithmKind::GkSink {
                eps_milli,
                capacity,
            },
        ]
    }

    /// True for the approximate sketch protocols (non-zero certified
    /// rank tolerance); the exact battery returns false.
    pub fn is_approximate(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::QDigest { .. } | AlgorithmKind::GkSink { .. }
        )
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::Tag => "TAG",
            AlgorithmKind::Pos => "POS",
            AlgorithmKind::LcllH => "LCLL-H",
            AlgorithmKind::LcllS => "LCLL-S",
            AlgorithmKind::LcllR => "LCLL-R",
            AlgorithmKind::Hbc => "HBC",
            AlgorithmKind::HbcNb => "HBC-nb",
            AlgorithmKind::Iq => "IQ",
            AlgorithmKind::Adaptive => "Adaptive",
            AlgorithmKind::Gk => "GK",
            AlgorithmKind::QDigest { .. } => "QD",
            AlgorithmKind::GkSink { .. } => "GKS",
        }
    }

    /// Instantiates the protocol for a query.
    pub fn build(&self, query: QueryConfig, sizes: &MessageSizes) -> Box<dyn ContinuousQuantile> {
        match self {
            AlgorithmKind::Tag => Box::new(Tag::new(query)),
            AlgorithmKind::Pos => Box::new(Pos::new(query)),
            AlgorithmKind::LcllH => {
                Box::new(Lcll::new(query, RefiningStrategy::Hierarchical, sizes))
            }
            AlgorithmKind::LcllS => Box::new(Lcll::new(query, RefiningStrategy::Slip, sizes)),
            AlgorithmKind::LcllR => Box::new(LcllRange::new(query, sizes)),
            AlgorithmKind::Hbc => Box::new(Hbc::new(query, HbcConfig::default(), sizes)),
            AlgorithmKind::HbcNb => Box::new(Hbc::new(
                query,
                HbcConfig {
                    direct_retrieval: false,
                    eliminate_threshold_broadcast: true,
                    ..HbcConfig::default()
                },
                sizes,
            )),
            AlgorithmKind::Iq => Box::new(Iq::new(query, IqConfig::default())),
            AlgorithmKind::Adaptive => Box::new(Adaptive::new(query, sizes)),
            AlgorithmKind::Gk => Box::new(Gk::new(query, sizes)),
            AlgorithmKind::QDigest { eps_milli } => {
                Box::new(QDigestQuantile::new(query, *eps_milli))
            }
            AlgorithmKind::GkSink {
                eps_milli,
                capacity,
            } => Box::new(GkSinkQuantile::new(query, sizes, *eps_milli, *capacity)),
        }
    }
}

/// Which dataset drives the measurements.
#[derive(Debug, Clone)]
pub enum DatasetSpec {
    /// The synthetic sinusoidal workload (§5.1.2); nodes placed uniformly.
    Synthetic(SyntheticConfig),
    /// The barometric-pressure traces (§5.1.3); nodes placed by a SOM and
    /// the node count comes from the dataset itself.
    Pressure(PressureConfig),
    /// Per-node bounded random walks (extension; uniform placement).
    /// Fields: value-range size and maximum per-round step.
    RandomWalk {
        /// Number of values in the universe (range is `[0, size)`).
        range_size: u64,
        /// Maximum per-round step per node.
        step: i64,
    },
    /// Calm-drift / turbulence regime switching (extension; uniform
    /// placement). The stress test for [`AlgorithmKind::Adaptive`].
    Regime {
        /// Number of values in the universe.
        range_size: u64,
        /// Rounds per regime phase.
        phase_len: u32,
        /// Per-round drift during calm phases.
        drift: i64,
    },
}

/// Dynamic-world knobs: mobility, churn, link drift and duty-cycled
/// radios (see `crate::dynamics` and DESIGN.md §3.3k). All zeros — the
/// [`Default`] — is the static world; the runner then draws nothing from
/// the dynamics stream, so a `Some(DynamicsConfig::default())` run is
/// bit-identical to a `None` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// Euclidean meters each sensor moves per mobility epoch (waypoint
    /// walk; `0.0` = static placement). The sink never moves.
    pub mobility_step: f64,
    /// Per-round probability that a sensor churns (toggles between
    /// departed and joined). `0.0` disables churn.
    pub churn: f64,
    /// Link-drift amplitude: the loss probability random-walks within
    /// `base ± drift` (clamped to `[0, 1]`). `0.0` pins the configured
    /// loss rate. Only meaningful with a loss model installed.
    pub drift: f64,
    /// Duty-cycle listen fraction in per-mille (`0..=1000`): idle-listen
    /// joules charged per live sensor per round. `0` = no idle radio.
    pub duty_milli: u32,
    /// Rounds per mobility epoch (positions advance and links re-derive
    /// every `epoch` rounds). Clamped to at least 1.
    pub epoch: u32,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            mobility_step: 0.0,
            churn: 0.0,
            drift: 0.0,
            duty_milli: 0,
            epoch: 1,
        }
    }
}

impl DynamicsConfig {
    /// True iff every knob is at its static-world zero.
    pub fn is_static(&self) -> bool {
        self.mobility_step == 0.0 && self.churn == 0.0 && self.drift == 0.0 && self.duty_milli == 0
    }
}

/// Full configuration of one experiment cell.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of sensor nodes `|N|` (ignored for pressure, which fixes
    /// 1022 nodes like the paper unless overridden in its config).
    pub sensor_count: usize,
    /// Radio range ρ in meters.
    pub radio_range: f64,
    /// Rounds per simulation run (paper: 250).
    pub rounds: u32,
    /// Simulation runs to average over (paper: 20). Topology (and, for the
    /// synthetic dataset, placement) changes between runs.
    pub runs: u32,
    /// Quantile parameter φ (paper: the median, 0.5).
    pub phi: f64,
    /// Master seed.
    pub seed: u64,
    /// Radio energy model.
    pub radio: RadioModel,
    /// Message sizing.
    pub sizes: MessageSizes,
    /// Bernoulli message-loss probability (`None` = reliable links, the
    /// paper's assumption; `Some` enables the §6 extension).
    pub loss: Option<f64>,
    /// Reliability layer (ARQ retries + wave recovery). The default is
    /// fire-and-forget, bit-identical to the plain lossy path; it only
    /// acts when `loss` is set.
    pub reliability: ReliabilityConfig,
    /// Per-round crash-stop node-failure probability (`None` = immortal
    /// nodes, the paper's assumption). The routing tree is repaired after
    /// every failure.
    pub node_failure: Option<f64>,
    /// Record every transmission and replay it through the energy auditor
    /// after each run, asserting that the ledger's per-node per-round
    /// charges reconcile bit-exactly with the recorded traffic. Costs
    /// memory proportional to the traffic volume; off by default.
    pub audit: bool,
    /// Record wall-clock spans at wave granularity (rounds, phases,
    /// convergecast/broadcast waves; never one per send) during each run.
    /// Off by default: a disabled recorder costs one branch per tap point
    /// and keeps the hot path allocation-free. Spans only observe: every
    /// charge, digest and audit event is the same with this flag on.
    /// Telemetry histograms are always on regardless of this flag.
    pub telemetry: bool,
    /// Ignored: every run's waves execute on the run's own thread
    /// (parallelism is per run, see [`crate::parallel`]). Within-run wave
    /// workers were removed because they never ran faster than one
    /// thread; the field stays so existing configurations keep compiling.
    pub wave_workers: usize,
    /// Dynamic-world processes (mobility, churn, drift, duty cycle).
    /// `None` — and `Some` with every knob at zero — is the static world
    /// of the paper, bit-identical to releases without this field.
    pub dynamics: Option<DynamicsConfig>,
    /// Dataset.
    pub dataset: DatasetSpec,
}

impl Default for SimulationConfig {
    /// The defaults of Table 2: |N| = 1000, ρ = 35 m, 250 rounds, 20 runs,
    /// median query, synthetic dataset with τ = 125 and ψ = 10 %.
    fn default() -> Self {
        SimulationConfig {
            sensor_count: 1000,
            radio_range: 35.0,
            rounds: 250,
            runs: 20,
            phi: 0.5,
            seed: 0xC0FFEE,
            radio: RadioModel::default(),
            sizes: MessageSizes::default(),
            loss: None,
            reliability: ReliabilityConfig::default(),
            node_failure: None,
            audit: false,
            telemetry: false,
            wave_workers: 1,
            dynamics: None,
            dataset: DatasetSpec::Synthetic(SyntheticConfig::default()),
        }
    }
}

impl SimulationConfig {
    /// A scaled-down configuration for fast tests and CI (fewer nodes,
    /// rounds and runs; same structure).
    pub fn quick() -> Self {
        SimulationConfig {
            sensor_count: 120,
            rounds: 60,
            runs: 3,
            ..SimulationConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_matches_section_5() {
        let names: Vec<&str> = AlgorithmKind::PAPER_SET.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["TAG", "POS", "LCLL-H", "LCLL-S", "HBC", "IQ"]);
    }

    #[test]
    fn build_produces_matching_names() {
        let sizes = MessageSizes::default();
        let q = QueryConfig::median(100, 0, 1023);
        for kind in [
            AlgorithmKind::Tag,
            AlgorithmKind::Pos,
            AlgorithmKind::LcllH,
            AlgorithmKind::LcllS,
            AlgorithmKind::LcllR,
            AlgorithmKind::Hbc,
            AlgorithmKind::HbcNb,
            AlgorithmKind::Iq,
            AlgorithmKind::Adaptive,
            AlgorithmKind::Gk,
            AlgorithmKind::QDigest { eps_milli: 100 },
            AlgorithmKind::GkSink {
                eps_milli: 100,
                capacity: 0,
            },
        ] {
            let alg = kind.build(q, &sizes);
            assert_eq!(alg.name(), kind.name());
        }
    }

    #[test]
    fn battery_is_paper_set_plus_sketches() {
        let battery = AlgorithmKind::battery(100, 0);
        assert_eq!(battery.len(), 8);
        assert_eq!(&battery[..6], &AlgorithmKind::PAPER_SET[..]);
        assert!(battery[6].is_approximate());
        assert!(battery[7].is_approximate());
        assert_eq!(battery[6].name(), "QD");
        assert_eq!(battery[7].name(), "GKS");
        assert!(AlgorithmKind::PAPER_SET.iter().all(|k| !k.is_approximate()));
    }

    #[test]
    fn defaults_follow_table_2() {
        let cfg = SimulationConfig::default();
        assert_eq!(cfg.sensor_count, 1000);
        assert_eq!(cfg.radio_range, 35.0);
        assert_eq!(cfg.rounds, 250);
        assert_eq!(cfg.runs, 20);
        assert_eq!(cfg.phi, 0.5);
        match cfg.dataset {
            DatasetSpec::Synthetic(s) => {
                assert_eq!(s.period, 125);
                assert_eq!(s.noise_percent, 10.0);
            }
            _ => panic!("default dataset must be synthetic"),
        }
    }
}
