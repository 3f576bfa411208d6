//! Engine-parity digests: a byte-exact textual fingerprint of everything a
//! simulation run produces.
//!
//! The struct-of-arrays wave engine (DESIGN.md §3.3g) promises bit-for-bit
//! identical results to the original per-node engine. That contract is
//! enforced by replaying the pinned fuzz corpus through
//! [`scenario_digest`] and comparing against a golden file generated by
//! the pre-refactor engine (`crates/check/tests/engine_parity.rs`).
//!
//! The digest covers three layers, each rendered without any float
//! formatting ambiguity (`f64` values print as their raw bit patterns):
//!
//! * every [`crate::metrics::RunMetrics`] field, including per-phase
//!   joules/bits,
//! * the merged *and* per-node telemetry histograms,
//! * the full audit log: every [`wsn_net::TxEvent`] and every per-round
//!   ledger snapshot, hashed with FNV-1a in emission order.

use std::fmt::Write as _;

use wsn_net::obs::{HistKind, LogHistogram};

use crate::config::{AlgorithmKind, SimulationConfig};
use crate::runner::run_once_capture;
use crate::scenario::Scenario;

/// 64-bit FNV-1a running hash over heterogeneous integer fields.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn push(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }
}

/// Renders an `f64` as its exact bit pattern (16 hex digits).
fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The algorithms every corpus scenario is replayed through: the paper's
/// six plus every extension protocol, so the parity suite pins the whole
/// zoo, not just the headline protocols.
pub const PARITY_SET: [AlgorithmKind; 10] = [
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
];

/// Digest of every run of `cfg` under `kind` (one block per run).
pub fn config_digest(cfg: &SimulationConfig, kind: AlgorithmKind) -> String {
    let mut out = String::new();
    for run in 0..cfg.runs {
        let (m, net) = run_once_capture(cfg, &|q, s| kind.build(q, s), run);
        let _ = writeln!(out, "alg {} run {run}", kind.name());
        let _ = writeln!(
            out,
            "  energy hotspot={} lifetime={} peak={} rx_frac={}",
            bits(m.max_node_energy_per_round),
            bits(m.lifetime_rounds),
            bits(m.peak_round_energy),
            bits(m.hotspot_rx_fraction),
        );
        let _ = writeln!(
            out,
            "  traffic msgs={} vals={} bits={} delivery={} retx={}",
            bits(m.messages_per_round),
            bits(m.values_per_round),
            bits(m.bits_per_round),
            bits(m.delivery_rate),
            bits(m.retransmissions_per_round),
        );
        let _ = writeln!(
            out,
            "  answers exact={}/{} rank_err={} max_err={} tol={} failed={}",
            m.exact_rounds,
            m.total_rounds,
            bits(m.mean_rank_error),
            m.max_rank_error,
            m.rank_tolerance,
            m.failed_nodes,
        );
        // The phase lines print the five legacy phases only, so static
        // worlds (which cannot charge the appended rebuild phase) keep the
        // exact golden bytes of pre-dynamics releases; rebuild activity
        // gets its own line below, emitted only when nonzero.
        let legacy = wsn_net::Phase::LEGACY_COUNT;
        let joules: Vec<String> = m.phase_joules[..legacy].iter().map(|&j| bits(j)).collect();
        let _ = writeln!(out, "  phase_joules {}", joules.join(" "));
        let pbits: Vec<String> = m.phase_bits[..legacy]
            .iter()
            .map(|b| b.to_string())
            .collect();
        let _ = writeln!(out, "  phase_bits {}", pbits.join(" "));
        let rb = wsn_net::Phase::Rebuild.index();
        if m.phase_joules[rb] != 0.0 || m.phase_bits[rb] != 0 || m.rebuilds != 0 {
            let _ = writeln!(
                out,
                "  rebuild count={} joules={} bits={}",
                m.rebuilds,
                bits(m.phase_joules[rb]),
                m.phase_bits[rb]
            );
        }

        // Merged histograms: full bucket vectors (32 buckets per kind).
        for kind in HistKind::ALL {
            let h = m.hists.get(kind);
            let mut line = format!(
                "  hist {} count={} sum={} max={} buckets=",
                kind.name(),
                h.count(),
                h.sum(),
                h.max()
            );
            for i in 0..LogHistogram::BUCKETS {
                let _ = write!(line, "{},", h.bucket_count(i));
            }
            let _ = writeln!(out, "{line}");
        }
        // Per-node histograms, hashed (n × 4 × 32 counters is too wide to
        // print, but every counter still participates in the digest).
        let mut hash = Fnv::new();
        let per_node = net.histograms();
        for node in 0..per_node.len() {
            let set = per_node.node(node);
            for kind in HistKind::ALL {
                let h = set.get(kind);
                for i in 0..LogHistogram::BUCKETS {
                    hash.push(h.bucket_count(i));
                }
            }
        }
        let _ = writeln!(out, "  hist per_node fnv={:016x}", hash.0);

        // Audit log: every TxEvent field in emission order, then every
        // per-round ledger snapshot. Loss draws, ARQ retries, recovery
        // climbs — any reordering of any charge changes this hash.
        let mut hash = Fnv::new();
        let log = net.audit_log();
        for e in log.events() {
            hash.push(e.round as u64);
            hash.push(e.phase.index() as u64);
            hash.push(e.kind.index() as u64);
            hash.push(e.src.0 as u64);
            hash.push(e.dst.0 as u64);
            hash.push(e.fragments);
            hash.push(e.bits);
            hash.push_f64(e.joules_tx);
            hash.push_f64(e.joules_rx);
        }
        let _ = writeln!(
            out,
            "  audit events={} fnv={:016x} discrepancies={}",
            log.events().len(),
            hash.0,
            m.audit_discrepancies
        );
        let mut hash = Fnv::new();
        for snap in log.snapshots() {
            hash.push(snap.round as u64);
            for &j in &snap.consumed {
                hash.push_f64(j);
            }
            for &j in &snap.consumed_tx {
                hash.push_f64(j);
            }
        }
        let _ = writeln!(
            out,
            "  audit snapshots={} fnv={:016x}",
            log.snapshots().len(),
            hash.0
        );
    }
    out
}

/// Digest of one corpus scenario under every [`PARITY_SET`] algorithm plus
/// the two approximate sketch protocols at the scenario's own (ε,
/// capacity).
pub fn scenario_digest(scenario: &Scenario) -> String {
    let cfg = scenario.to_config();
    let mut out = String::new();
    for kind in PARITY_SET {
        out.push_str(&config_digest(&cfg, kind));
    }
    for kind in [
        AlgorithmKind::QDigest {
            eps_milli: scenario.eps_milli,
        },
        AlgorithmKind::GkSink {
            eps_milli: scenario.eps_milli,
            capacity: scenario.capacity,
        },
    ] {
        out.push_str(&config_digest(&cfg, kind));
    }
    out
}

/// Digest of a serve run: every query's `(round, answer)` stream, its
/// per-lane phase charges (bit patterns), the workload aggregates and the
/// full audit log — everything the multi-query determinism contract
/// covers. A transient admitted-then-retired query leaves the surviving
/// lanes byte-identical (in unshared mode).
pub fn serve_digest(
    cfg: &SimulationConfig,
    initial: &[crate::service::ServeQuery],
    events: &[crate::service::ServeEvent],
    shared: bool,
) -> String {
    let (report, net) = crate::service::serve_capture(cfg, initial, events, shared, 0);
    serve_report_digest(&report, &net)
}

/// [`serve_digest`] over an already-executed run, so callers that need
/// the report or network for other purposes (the CLI, the monitoring
/// zero-perturbation tests) don't pay for a second run.
pub fn serve_report_digest(report: &crate::service::ServeReport, net: &wsn_net::Network) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve rounds={} bits={} msgs={} exec={} served={} plan={}h/{}m",
        report.rounds,
        report.total_bits,
        report.total_messages,
        report.executions,
        report.served,
        report.plan_hits,
        report.plan_misses,
    );
    for q in &report.queries {
        let mut hash = Fnv::new();
        for &(t, v) in &q.answers {
            hash.push(t as u64);
            hash.push(v as u64);
        }
        let joules: Vec<String> = q.charges.joules().iter().map(|&j| bits(j)).collect();
        let qbits: Vec<String> = q.charges.bits().iter().map(|b| b.to_string()).collect();
        let _ = writeln!(
            out,
            "  query slot={} phi={} epoch={} alg={} admitted={} due={} exact={} err_sum={} max_err={} answers_fnv={:016x} lane_joules={} lane_bits={}",
            q.slot,
            q.query.phi_milli,
            q.query.epoch,
            q.query.algorithm.name(),
            q.admitted,
            q.answers.len(),
            q.exact_rounds,
            q.rank_error_sum,
            q.max_rank_error,
            hash.0,
            joules.join(","),
            qbits.join(","),
        );
    }
    let mut hash = Fnv::new();
    for e in net.audit_log().events() {
        hash.push(e.round as u64);
        hash.push(e.lane as u64);
        hash.push(e.phase.index() as u64);
        hash.push(e.kind.index() as u64);
        hash.push(e.src.0 as u64);
        hash.push(e.dst.0 as u64);
        hash.push(e.fragments);
        hash.push(e.bits);
        hash.push_f64(e.joules_tx);
        hash.push_f64(e.joules_rx);
    }
    let _ = writeln!(
        out,
        "  audit events={} fnv={:016x} discrepancies={}",
        net.audit_log().events().len(),
        hash.0,
        report.audit_discrepancies
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DataSource;

    fn tiny() -> Scenario {
        Scenario {
            seed: 11,
            nodes: 12,
            range_milli: 2500,
            rounds: 4,
            runs: 1,
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
    fn digest_is_reproducible() {
        assert_eq!(scenario_digest(&tiny()), scenario_digest(&tiny()));
    }

    #[test]
    fn digest_sees_every_layer() {
        let d = scenario_digest(&tiny());
        assert!(d.contains("alg TAG run 0"));
        assert!(d.contains("alg GK run 0"));
        assert!(d.contains("alg QD run 0"));
        assert!(d.contains("alg GKS run 0"));
        assert!(d.contains("phase_joules"));
        assert!(d.contains("hist msg_bits"));
        assert!(d.contains("hist per_node fnv="));
        assert!(d.contains("audit events="));
        assert!(d.contains("audit snapshots="));
        // Corpus scenarios always audit, so the log must be non-empty.
        assert!(!d.contains("audit events=0 "));
    }

    #[test]
    fn digest_distinguishes_scenarios() {
        let other = Scenario { seed: 12, ..tiny() };
        assert_ne!(scenario_digest(&tiny()), scenario_digest(&other));
    }

    #[test]
    fn rebuild_line_appears_only_in_dynamic_worlds() {
        // Static worlds must keep pre-dynamics golden bytes: no rebuild
        // line, phase vectors printed at legacy width.
        let stat = scenario_digest(&tiny());
        assert!(!stat.contains("  rebuild "));
        let dynamic = Scenario {
            mobility_milli: 250,
            churn_milli: 50,
            duty_milli: 100,
            ..tiny()
        };
        let d = scenario_digest(&dynamic);
        assert!(d.contains("  rebuild count="));
    }
}
