//! The invariant battery: everything one scenario is checked against.
//!
//! Each scenario expands to a [`wsn_sim::SimulationConfig`] (audit layer
//! always on) and runs every protocol of the paper's §5 comparison set.
//! The checks split by world class:
//!
//! * **Always** — no panics; the energy-audit replay reconciles
//!   (`audit_discrepancies == 0`); the always-on message-size histogram
//!   counts exactly the messages the traffic stats saw; the pure oracle
//!   obeys its metamorphic properties.
//! * **Reliable worlds** (`loss = 0`, no failures — the paper's operating
//!   assumption) — every protocol answers the oracle's value every round
//!   (`exactness == 1`, zero rank error), and the protocol-level
//!   metamorphic runs (rotation, affine) agree with the identity run.
//! * **Multi-run scenarios** — 1-thread and 2-thread execution of the same
//!   experiment must aggregate bit-identically.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cqp_core::rank::{kth_equivariant_under_affine, kth_invariant_under_rotation, rank_of_phi};
use wsn_data::Rng;
use wsn_net::obs::{HealthKind, HistKind, MonitorConfig};
use wsn_net::{lane_breakdowns, lane_breakdowns_by_round, PhaseBreakdown};
use wsn_sim::runner::run_experiment_threads;
use wsn_sim::{
    serve, serve_capture, serve_monitored, AggregatedMetrics, AlgorithmKind, Scenario, Value,
};

use crate::meta;

/// One invariant violation, with enough context to read the failure
/// without re-running anything.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A protocol (or the harness around it) panicked.
    Panic {
        /// Protocol display name.
        algorithm: &'static str,
        /// The panic payload.
        message: String,
    },
    /// A reliable-world run answered inexactly.
    Inexact {
        /// Protocol display name.
        algorithm: &'static str,
        /// Fraction of exact rounds (must be 1.0).
        exactness: f64,
        /// Mean absolute rank error (must be 0.0).
        mean_rank_error: f64,
    },
    /// An approximate protocol exceeded its advertised rank tolerance on a
    /// reliable world (ε-tolerant oracle mode: the sketch family may be
    /// inexact, but never by more than the `⌊ε·n⌋` ranks it certifies).
    ToleranceExceeded {
        /// Protocol display name.
        algorithm: &'static str,
        /// Worst observed rank error across all rounds and runs.
        max_rank_error: u64,
        /// The tolerance the protocol advertised.
        rank_tolerance: u64,
    },
    /// The energy-audit replay did not reconcile with the ledger.
    AuditDiscrepancy {
        /// Protocol display name.
        algorithm: &'static str,
        /// Number of ledger/replay mismatches.
        discrepancies: u64,
    },
    /// The message-size histogram disagrees with the traffic stats.
    TelemetryMismatch {
        /// Protocol display name.
        algorithm: &'static str,
        /// Messages counted by the `MsgBits` histogram.
        histogram_count: u64,
        /// Messages implied by the aggregated traffic stats.
        expected: f64,
    },
    /// 1-thread and 2-thread execution aggregated differently.
    ThreadParity {
        /// Protocol display name.
        algorithm: &'static str,
    },
    /// A pure-oracle metamorphic property failed.
    OracleMetamorphic {
        /// `"rotation"` or `"affine"`.
        property: &'static str,
    },
    /// A protocol-level metamorphic run diverged from the identity run.
    ProtocolMetamorphic {
        /// Protocol display name.
        algorithm: &'static str,
        /// `"rotation"` or `"affine"`.
        property: &'static str,
        /// First diverging round.
        round: usize,
    },
    /// A query served by the multi-query engine answered differently from
    /// a reference run of the same query.
    ServeIdentity {
        /// Service slot of the diverging query.
        slot: u32,
        /// Protocol display name.
        algorithm: &'static str,
        /// The reference that disagreed (`"solo"` = the query's own
        /// singleton service, `"unshared"` = the same workload without
        /// frame sharing).
        against: &'static str,
    },
    /// The multi-query service's per-query accounting failed to
    /// reconcile.
    ServeAccounting {
        /// What broke.
        detail: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Panic { algorithm, message } => {
                write!(f, "{algorithm}: panic: {message}")
            }
            Violation::Inexact {
                algorithm,
                exactness,
                mean_rank_error,
            } => write!(
                f,
                "{algorithm}: inexact on reliable links (exactness={exactness}, mean_rank_error={mean_rank_error})"
            ),
            Violation::ToleranceExceeded {
                algorithm,
                max_rank_error,
                rank_tolerance,
            } => write!(
                f,
                "{algorithm}: rank error {max_rank_error} exceeds the advertised tolerance {rank_tolerance}"
            ),
            Violation::AuditDiscrepancy {
                algorithm,
                discrepancies,
            } => write!(
                f,
                "{algorithm}: energy audit found {discrepancies} ledger/replay mismatches"
            ),
            Violation::TelemetryMismatch {
                algorithm,
                histogram_count,
                expected,
            } => write!(
                f,
                "{algorithm}: MsgBits histogram counted {histogram_count} messages, traffic stats imply {expected}"
            ),
            Violation::ThreadParity { algorithm } => {
                write!(f, "{algorithm}: 1-thread and 2-thread aggregates differ")
            }
            Violation::OracleMetamorphic { property } => {
                write!(f, "oracle: {property} metamorphic property failed")
            }
            Violation::ProtocolMetamorphic {
                algorithm,
                property,
                round,
            } => write!(
                f,
                "{algorithm}: {property} metamorphic run diverged at round {round}"
            ),
            Violation::ServeIdentity {
                slot,
                algorithm,
                against,
            } => write!(
                f,
                "serve: slot {slot} ({algorithm}) diverged from its {against} run"
            ),
            Violation::ServeAccounting { detail } => {
                write!(f, "serve: {detail}")
            }
        }
    }
}

/// Counts of checks *performed* (not violations), summed over scenarios
/// for the fuzz summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Protocol batteries executed (scenarios × paper-set protocols).
    pub batteries: u64,
    /// Energy-audit reconciliations.
    pub audit: u64,
    /// Histogram/traffic reconciliations.
    pub telemetry: u64,
    /// Reliable-world exactness checks.
    pub exactness: u64,
    /// 1-vs-2-thread parity checks.
    pub parity: u64,
    /// Metamorphic checks (oracle-level + protocol-level).
    pub metamorphic: u64,
    /// Multi-query serve batteries (shared/unshared/solo identity plus
    /// lane accounting).
    pub serve: u64,
    /// Watchdog-replay reconciliations (monitored serve runs checked for
    /// zero perturbation and fire-iff budget events).
    pub watchdog: u64,
}

impl Tally {
    /// Accumulates another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.batteries += other.batteries;
        self.audit += other.audit;
        self.telemetry += other.telemetry;
        self.exactness += other.exactness;
        self.parity += other.parity;
        self.metamorphic += other.metamorphic;
        self.serve += other.serve;
        self.watchdog += other.watchdog;
    }
}

/// What checking one scenario produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Violations found (empty = scenario passed).
    pub violations: Vec<Violation>,
    /// Checks performed.
    pub tally: Tally,
}

/// Extracts a readable message from a caught panic payload.
pub fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| panic_text(&*e))
}

/// The protocol-level affine metamorphic run maps every value `v` to
/// `AFFINE_SCALE · v + AFFINE_OFFSET` ([`meta::answers`]).
pub const AFFINE_SCALE: Value = 3;

/// See [`AFFINE_SCALE`].
pub const AFFINE_OFFSET: Value = 1000;

/// Runs the full invariant battery against one scenario.
pub fn check(scenario: &Scenario) -> ScenarioReport {
    let mut violations = Vec::new();
    let mut tally = Tally::default();
    let cfg = scenario.to_config();

    // Protocol batteries: run every paper protocol plus the two sketch
    // protocols (at the scenario's ε and capacity) sequentially and check
    // the per-run accounting invariants.
    let mut aggs: Vec<(AlgorithmKind, AggregatedMetrics)> = Vec::new();
    for kind in AlgorithmKind::battery(scenario.eps_milli, scenario.capacity) {
        tally.batteries += 1;
        match catch(|| run_experiment_threads(&cfg, kind, 1)) {
            Err(message) => violations.push(Violation::Panic {
                algorithm: kind.name(),
                message,
            }),
            Ok(agg) => {
                tally.audit += 1;
                if agg.audit_discrepancies != 0 {
                    violations.push(Violation::AuditDiscrepancy {
                        algorithm: kind.name(),
                        discrepancies: agg.audit_discrepancies,
                    });
                }
                tally.telemetry += 1;
                let expected = agg.messages_per_round * cfg.rounds as f64 * cfg.runs as f64;
                let counted = agg.hists.get(HistKind::MsgBits).count();
                if (counted as f64 - expected).abs() > 0.5 {
                    violations.push(Violation::TelemetryMismatch {
                        algorithm: kind.name(),
                        histogram_count: counted,
                        expected,
                    });
                }
                if scenario.is_reliable_world() {
                    tally.exactness += 1;
                    if kind.is_approximate() {
                        // ε-tolerant oracle mode: the sketch family must
                        // stay within the rank tolerance it advertised.
                        if agg.max_rank_error > agg.rank_tolerance {
                            violations.push(Violation::ToleranceExceeded {
                                algorithm: kind.name(),
                                max_rank_error: agg.max_rank_error,
                                rank_tolerance: agg.rank_tolerance,
                            });
                        }
                    } else if agg.exactness != 1.0 || agg.mean_rank_error != 0.0 {
                        violations.push(Violation::Inexact {
                            algorithm: kind.name(),
                            exactness: agg.exactness,
                            mean_rank_error: agg.mean_rank_error,
                        });
                    }
                }
                aggs.push((kind, agg));
            }
        }
    }

    // Parallel parity: multi-run scenarios re-run one protocol (chosen by
    // the scenario seed) on two workers; the aggregate must be
    // bit-identical to the sequential one.
    if cfg.runs >= 2 && !aggs.is_empty() {
        let (kind, sequential) = aggs[(scenario.seed % aggs.len() as u64) as usize];
        tally.parity += 1;
        match catch(|| run_experiment_threads(&cfg, kind, 2)) {
            Err(message) => violations.push(Violation::Panic {
                algorithm: kind.name(),
                message,
            }),
            Ok(parallel) => {
                if parallel != sequential {
                    violations.push(Violation::ThreadParity {
                        algorithm: kind.name(),
                    });
                }
            }
        }
    }

    // Oracle-level metamorphic properties on a synthetic value multiset
    // drawn from the scenario seed (cheap, so always checked).
    tally.metamorphic += 1;
    let mut rng = Rng::seed_from_u64(scenario.seed);
    let n = scenario.nodes.max(1);
    let values: Vec<Value> = (0..n).map(|_| rng.range_i64(-1024, 1024)).collect();
    let k = rank_of_phi(scenario.phi(), n);
    let rot = 1 + (scenario.seed % n as u64) as usize;
    if !kth_invariant_under_rotation(&values, k, rot) {
        violations.push(Violation::OracleMetamorphic {
            property: "rotation",
        });
    }
    if !kth_equivariant_under_affine(&values, k, 3, -7) {
        violations.push(Violation::OracleMetamorphic { property: "affine" });
    }

    // Protocol-level metamorphic runs: reliable worlds only (the streams
    // must be loss-randomness-free to be comparable), one protocol per
    // scenario to bound cost.
    if scenario.is_reliable_world() {
        tally.metamorphic += 1;
        let kind = AlgorithmKind::PAPER_SET
            [(scenario.seed % AlgorithmKind::PAPER_SET.len() as u64) as usize];
        let runs = (
            meta::answers(scenario, kind, 1, 0, 0),
            meta::answers(scenario, kind, 1, 0, rot),
            meta::answers(scenario, kind, AFFINE_SCALE, AFFINE_OFFSET, 0),
        );
        match runs {
            (Ok(identity), Ok(rotated), Ok(affine)) => {
                if let Some(round) = (0..identity.len()).find(|&t| rotated[t] != identity[t]) {
                    violations.push(Violation::ProtocolMetamorphic {
                        algorithm: kind.name(),
                        property: "rotation",
                        round,
                    });
                }
                let image = |v: Value| AFFINE_SCALE * v + AFFINE_OFFSET;
                if let Some(round) = (0..identity.len()).find(|&t| affine[t] != image(identity[t]))
                {
                    violations.push(Violation::ProtocolMetamorphic {
                        algorithm: kind.name(),
                        property: "affine",
                        round,
                    });
                }
            }
            (a, b, c) => {
                for message in [a.err(), b.err(), c.err()].into_iter().flatten() {
                    violations.push(Violation::Panic {
                        algorithm: kind.name(),
                        message,
                    });
                }
            }
        }
    }

    // Multi-query service battery (scenarios carrying a serve workload):
    // the shared engine must answer every query exactly as the unshared
    // engine (frame sharing is pure accounting); on reliable worlds every
    // query must also match its own singleton service bit-for-bit and
    // sketches must honor their advertised tolerance; frame sharing may
    // only cheapen traffic; per-query lane charges must partition the
    // global phase ledger and replay bit-exactly from the audit log.
    if scenario.queries > 1 {
        tally.serve += 1;
        let workload = scenario.workload();
        match catch(|| {
            (
                serve(&cfg, &workload, &[], false, 0),
                serve_capture(&cfg, &workload, &[], true, 0),
            )
        }) {
            Err(message) => violations.push(Violation::Panic {
                algorithm: "serve",
                message,
            }),
            Ok((unshared, (shared, net))) => {
                for (mode, r) in [("unshared", &unshared), ("shared", &shared)] {
                    if r.audit_discrepancies != 0 {
                        violations.push(Violation::ServeAccounting {
                            detail: format!(
                                "{mode}: audit replay found {} mismatches",
                                r.audit_discrepancies
                            ),
                        });
                    }
                    for qr in &r.queries {
                        if qr.charges != r.lanes[qr.slot as usize] {
                            violations.push(Violation::ServeAccounting {
                                detail: format!(
                                    "{mode}: slot {} charges diverge from its lane",
                                    qr.slot
                                ),
                            });
                        }
                        if scenario.is_reliable_world() && qr.max_rank_error > qr.rank_tolerance {
                            violations.push(Violation::ToleranceExceeded {
                                algorithm: qr.query.algorithm.name(),
                                max_rank_error: qr.max_rank_error,
                                rank_tolerance: qr.rank_tolerance,
                            });
                        }
                    }
                }
                if shared.total_bits > unshared.total_bits {
                    violations.push(Violation::ServeAccounting {
                        detail: format!(
                            "frame sharing grew traffic: {} > {} bits",
                            shared.total_bits, unshared.total_bits
                        ),
                    });
                }
                for (u, s) in unshared.queries.iter().zip(&shared.queries) {
                    if u.answers != s.answers {
                        violations.push(Violation::ServeIdentity {
                            slot: u.slot,
                            algorithm: u.query.algorithm.name(),
                            against: "unshared",
                        });
                    }
                }
                // Lane attribution must equal the audit log's own lane
                // books exactly (serve counts a diverging lane as an audit
                // discrepancy; this check names the failure).
                let replayed = lane_breakdowns(net.audit_log(), shared.lanes.len());
                if replayed != shared.lanes {
                    violations.push(Violation::ServeAccounting {
                        detail: "lane replay diverged from live attribution".to_string(),
                    });
                }
                // The lanes partition the phase books' bits, sent and
                // received alike.
                let global = net.phases();
                let side_total = |b: &PhaseBreakdown, received: bool| -> u64 {
                    let side = if received { b.rx_bits() } else { b.bits() };
                    side.iter().sum()
                };
                for received in [false, true] {
                    let lanes: u64 = shared.lanes.iter().map(|l| side_total(l, received)).sum();
                    if lanes != side_total(global, received) {
                        violations.push(Violation::ServeAccounting {
                            detail: "lane charges do not partition the phase ledger".to_string(),
                        });
                    }
                }
                // Solo identity: with no per-transmission loss randomness
                // the multi-query engine is invisible — each query answers
                // exactly as its own singleton service.
                if scenario.is_reliable_world() {
                    for (i, q) in workload.iter().enumerate() {
                        match catch(|| serve(&cfg, std::slice::from_ref(q), &[], false, 0)) {
                            Err(message) => violations.push(Violation::Panic {
                                algorithm: q.algorithm.name(),
                                message,
                            }),
                            Ok(solo) => {
                                if solo.queries[0].answers != unshared.queries[i].answers {
                                    violations.push(Violation::ServeIdentity {
                                        slot: i as u32,
                                        algorithm: q.algorithm.name(),
                                        against: "solo",
                                    });
                                }
                            }
                        }
                    }
                }
                // Watchdog replay (DESIGN.md §3.3j): monitoring is pure
                // observation — the monitored run must reproduce the
                // unmonitored report bit-for-bit — and the BudgetOverrun
                // watchdog must fire exactly at the first round boundary
                // where the lane energy replayed from the audit log
                // crosses the budget (same round, same slot), and never
                // otherwise. The 1 µJ budget makes most lanes overrun
                // while follower lanes (honestly zero) never do, so both
                // directions of the iff are exercised.
                tally.watchdog += 1;
                let mon_cfg = MonitorConfig {
                    budget_joules: Some(1e-6),
                    ..MonitorConfig::default()
                };
                match catch(|| serve_monitored(&cfg, &workload, &[], true, 0, Some(&mon_cfg))) {
                    Err(message) => violations.push(Violation::Panic {
                        algorithm: "serve-monitor",
                        message,
                    }),
                    Ok((monitored, monitor, mnet)) => {
                        if monitored != shared {
                            violations.push(Violation::ServeAccounting {
                                detail: "attaching a monitor perturbed the serve report"
                                    .to_string(),
                            });
                        }
                        let monitor = monitor.expect("a monitor config was attached");
                        let budget = mon_cfg.budget_joules.expect("set above");
                        let by_round = lane_breakdowns_by_round(
                            mnet.audit_log(),
                            monitored.lanes.len(),
                            monitored.rounds,
                        );
                        for (slot, _lane) in monitored.lanes.iter().enumerate() {
                            // Every slot admits at round 0 here, so its
                            // baseline lane book is zero and the replayed
                            // cumulative energy is the monitor's own view.
                            let expected = (0..monitored.rounds)
                                .find(|&r| by_round[r as usize][slot].total_joules() > budget);
                            let actual = monitor.events().iter().find_map(|e| match e.kind {
                                HealthKind::BudgetOverrun { .. } if e.slot == Some(slot as u32) => {
                                    Some(e.round)
                                }
                                _ => None,
                            });
                            if expected != actual {
                                violations.push(Violation::ServeAccounting {
                                    detail: format!(
                                        "slot {slot}: BudgetOverrun fired at {actual:?} but the audit replay says {expected:?}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    ScenarioReport { violations, tally }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_sim::DataSource;

    fn base() -> Scenario {
        Scenario {
            seed: 3,
            nodes: 10,
            range_milli: 3000,
            rounds: 5,
            runs: 2,
            phi_milli: 500,
            loss_milli: 0,
            retries: 0,
            recovery: 0,
            failure_milli: 0,
            eps_milli: 100,
            capacity: 0,
            queries: 1,
            mobility_milli: 0,
            churn_milli: 0,
            drift_milli: 0,
            duty_milli: 0,
            source: DataSource::Sinusoid {
                period: 16,
                noise_permille: 100,
            },
        }
    }

    #[test]
    fn a_reliable_scenario_passes_the_full_battery() {
        let report = check(&base());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.tally.batteries, 8, "paper set + QD + GKS");
        assert_eq!(report.tally.exactness, 8);
        assert_eq!(report.tally.parity, 1);
        assert_eq!(report.tally.metamorphic, 2);
        assert_eq!(report.tally.serve, 0, "single-query scenarios skip serve");
    }

    #[test]
    fn a_multi_query_scenario_passes_the_serve_battery() {
        let s = Scenario {
            queries: 16,
            runs: 1,
            ..base()
        };
        let report = check(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.tally.serve, 1);
        assert_eq!(report.tally.watchdog, 1);
    }

    #[test]
    fn a_lossy_scenario_skips_exactness_but_still_audits() {
        let s = Scenario {
            loss_milli: 400,
            retries: 2,
            recovery: 1,
            runs: 1,
            ..base()
        };
        let report = check(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.tally.exactness, 0, "lossy worlds skip exactness");
        assert_eq!(report.tally.audit, 8);
        assert_eq!(report.tally.parity, 0, "single-run scenarios skip parity");
    }

    #[test]
    fn total_blackout_terminates_cleanly() {
        let s = Scenario {
            loss_milli: 1000,
            retries: 3,
            recovery: 2,
            runs: 1,
            rounds: 3,
            nodes: 6,
            ..base()
        };
        let report = check(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn a_duty_cycled_world_keeps_the_exactness_bar() {
        // Duty-cycled listening spends idle joules but never changes an
        // answer, so the world stays reliable and the full exactness bar
        // (plus the audit replay over the new Idle events) applies.
        let s = Scenario {
            duty_milli: 250,
            runs: 1,
            ..base()
        };
        assert!(s.is_dynamic_world() && s.is_reliable_world());
        let report = check(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.tally.exactness, 8);
        assert_eq!(report.tally.audit, 8);
    }

    #[test]
    fn a_mobile_churning_world_audits_and_reconciles() {
        // Mobility + churn force routing rebuilds mid-run; exactness is
        // waived (orphaning is possible) but the audit replay, telemetry
        // reconciliation, and panic-freedom must all survive the rebuilds.
        let s = Scenario {
            mobility_milli: 250,
            churn_milli: 50,
            duty_milli: 100,
            runs: 2,
            ..base()
        };
        assert!(s.is_dynamic_world() && !s.is_reliable_world());
        let report = check(&s);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.tally.exactness, 0, "mobile worlds skip exactness");
        assert_eq!(report.tally.audit, 8);
        assert_eq!(report.tally.parity, 1, "thread parity holds under rebuilds");
    }

    #[test]
    fn violations_render_readably() {
        let v = Violation::Inexact {
            algorithm: "IQ",
            exactness: 0.5,
            mean_rank_error: 1.25,
        };
        assert_eq!(
            v.to_string(),
            "IQ: inexact on reliable links (exactness=0.5, mean_rank_error=1.25)"
        );
        let p = Violation::OracleMetamorphic { property: "affine" };
        assert_eq!(p.to_string(), "oracle: affine metamorphic property failed");
        let t = Violation::ToleranceExceeded {
            algorithm: "QD",
            max_rank_error: 9,
            rank_tolerance: 4,
        };
        assert_eq!(
            t.to_string(),
            "QD: rank error 9 exceeds the advertised tolerance 4"
        );
    }

    #[test]
    fn exact_degenerate_epsilon_holds_the_sketches_to_exactness() {
        // ε = 0 makes rank_tolerance 0 for QD and GKS, so the ε-tolerant
        // branch degenerates to the same zero-error bar as the exact set.
        let report = check(&Scenario {
            eps_milli: 0,
            runs: 1,
            ..base()
        });
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.tally.batteries, 8);
    }
}
