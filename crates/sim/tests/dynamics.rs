//! Dynamic-world integration battery (DESIGN.md §3.3k): mobility, churn,
//! link drift and duty-cycled radios, checked end to end — oracle
//! exactness where the world stays reliable, bit-exact audit replay with
//! nonzero rebuild joules where it does not, histogram↔traffic
//! reconciliation.

use wsn_net::obs::HistKind;
use wsn_net::Phase;
use wsn_sim::runner::{run_experiment_threads, AREA};
use wsn_sim::{AlgorithmKind, DataSource, DynamicsConfig, Scenario, SimulationConfig};

fn base() -> Scenario {
    Scenario {
        seed: 0xD14A,
        nodes: 12,
        range_milli: 3000,
        rounds: 8,
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

/// The histogram↔traffic reconciliation every battery run must satisfy:
/// the always-on `MsgBits` histogram counts exactly the data messages the
/// traffic stats saw (rebuild beacons included on both sides).
fn assert_telemetry_reconciles(agg: &wsn_sim::AggregatedMetrics, cfg: &SimulationConfig) {
    let expected = agg.messages_per_round * cfg.rounds as f64 * cfg.runs as f64;
    let counted = agg.hists.get(HistKind::MsgBits).count();
    assert!(
        (counted as f64 - expected).abs() < 0.5,
        "histogram counted {counted} messages, traffic stats imply {expected}"
    );
}

#[test]
fn duty_cycled_worlds_keep_oracle_exactness() {
    // Duty-cycled listening spends idle joules but never touches an
    // answer: the full exact-protocol bar holds, the idle charges land in
    // the ledger (Other phase), and the audit replays them bit-exactly.
    let s = Scenario {
        duty_milli: 1000,
        ..base()
    };
    assert!(s.is_dynamic_world() && s.is_reliable_world());
    let cfg = s.to_config();
    for kind in AlgorithmKind::PAPER_SET {
        let agg = run_experiment_threads(&cfg, kind, 1);
        assert_eq!(agg.exactness, 1.0, "{} inexact under duty", kind.name());
        assert_eq!(agg.mean_rank_error, 0.0, "{}", kind.name());
        assert_eq!(agg.audit_discrepancies, 0, "{}", kind.name());
        assert!(
            agg.phase_joules[Phase::Other.index()] > 0.0,
            "{}: idle listening must cost energy",
            kind.name()
        );
        assert_eq!(agg.rebuilds, 0.0, "duty alone never rebuilds");
        assert_telemetry_reconciles(&agg, &cfg);
    }
}

#[test]
fn fully_connected_mobility_keeps_oracle_exactness() {
    // A radio range covering the whole area diagonal keeps every waypoint
    // position connected, so mobility rebuilds the tree every epoch
    // without ever orphaning a node — and the floor-rank oracle must be
    // answered exactly by the exact protocols despite the rebuilds.
    let s = Scenario {
        mobility_milli: 500,
        ..base()
    };
    let cfg = SimulationConfig {
        radio_range: AREA * std::f64::consts::SQRT_2 + 1.0,
        ..s.to_config()
    };
    for kind in [AlgorithmKind::Tag, AlgorithmKind::Pos, AlgorithmKind::Hbc] {
        let agg = run_experiment_threads(&cfg, kind, 1);
        assert!(agg.rebuilds > 0.0, "{}: mobility must rebuild", kind.name());
        assert_eq!(
            agg.exactness,
            1.0,
            "{} inexact while connected",
            kind.name()
        );
        assert_eq!(agg.mean_rank_error, 0.0, "{}", kind.name());
        assert_eq!(agg.audit_discrepancies, 0, "{}", kind.name());
        assert_telemetry_reconciles(&agg, &cfg);
    }
}

#[test]
fn mobile_churning_worlds_audit_nonzero_rebuild_joules() {
    let s = Scenario {
        mobility_milli: 250,
        churn_milli: 50,
        duty_milli: 100,
        ..base()
    };
    assert!(!s.is_reliable_world(), "churn demotes the world");
    let cfg = s.to_config();
    for kind in [AlgorithmKind::Pos, AlgorithmKind::Iq, AlgorithmKind::LcllH] {
        let agg = run_experiment_threads(&cfg, kind, 1);
        assert!(agg.rebuilds > 0.0, "{}: no rebuilds recorded", kind.name());
        let rb = Phase::Rebuild.index();
        assert!(
            agg.phase_joules[rb] > 0.0,
            "{}: rebuild joules must be attributed",
            kind.name()
        );
        assert!(agg.phase_bits[rb] > 0.0, "{}", kind.name());
        assert_eq!(
            agg.audit_discrepancies,
            0,
            "{}: rebuild joules must replay bit-exactly",
            kind.name()
        );
        assert_telemetry_reconciles(&agg, &cfg);
    }
}

#[test]
fn drifting_lossy_worlds_audit_cleanly() {
    let s = Scenario {
        loss_milli: 300,
        drift_milli: 400,
        retries: 2,
        recovery: 1,
        ..base()
    };
    let cfg = s.to_config();
    let agg = run_experiment_threads(&cfg, AlgorithmKind::Hbc, 1);
    assert_eq!(agg.audit_discrepancies, 0);
    assert_eq!(agg.rebuilds, 0.0, "drift retunes loss, never the tree");
    assert_telemetry_reconciles(&agg, &cfg);
}

#[test]
fn static_dynamics_config_is_byte_identical_to_none() {
    // Boundary: duty 0%, mobility 0, churn 0, drift 0 — an installed but
    // all-zero dynamics config must not perturb a single byte of the run.
    let s = base();
    let none = s.to_config();
    assert!(none.dynamics.is_none());
    let zeroed = SimulationConfig {
        dynamics: Some(DynamicsConfig::default()),
        ..s.to_config()
    };
    for kind in [AlgorithmKind::Pos, AlgorithmKind::Iq] {
        assert_eq!(
            wsn_sim::parity::config_digest(&none, kind),
            wsn_sim::parity::config_digest(&zeroed, kind),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn drift_without_loss_is_inert() {
    // Boundary: drift pinned over a lossless world — there is no loss
    // probability to walk, so the run is byte-identical to the static one.
    let drifting = Scenario {
        drift_milli: 1000,
        ..base()
    };
    assert!(drifting.is_reliable_world(), "inert drift stays reliable");
    assert_eq!(
        wsn_sim::parity::config_digest(&base().to_config(), AlgorithmKind::Hbc),
        wsn_sim::parity::config_digest(&drifting.to_config(), AlgorithmKind::Hbc),
    );
}

#[test]
fn drift_pinned_at_total_blackout_terminates() {
    // Boundary: loss 1.0 with maximum drift amplitude — the drift walk
    // clamps inside [0, 1] and the run must terminate cleanly.
    let s = Scenario {
        loss_milli: 1000,
        drift_milli: 1000,
        retries: 1,
        rounds: 4,
        runs: 1,
        ..base()
    };
    let agg = run_experiment_threads(&s.to_config(), AlgorithmKind::Pos, 1);
    assert_eq!(agg.audit_discrepancies, 0);
}

#[test]
fn one_node_mobile_world_survives() {
    // Boundary: a single mobile sensor — the walk, the rebuilds and the
    // oracle all degenerate but nothing may panic or leak a discrepancy.
    let s = Scenario {
        nodes: 1,
        mobility_milli: 1000,
        duty_milli: 1000,
        rounds: 6,
        runs: 1,
        ..base()
    };
    let agg = run_experiment_threads(&s.to_config(), AlgorithmKind::Tag, 1);
    assert!(agg.rebuilds > 0.0);
    assert_eq!(agg.audit_discrepancies, 0);
}

#[test]
fn heavy_churn_with_joins_from_round_zero_audits_cleanly() {
    // Boundary: churn aggressive enough that departures and re-joins both
    // happen early (round 0 draws churn like every other round). The
    // audit must reconcile across every forced rebuild.
    let s = Scenario {
        churn_milli: 200,
        rounds: 12,
        runs: 1,
        ..base()
    };
    let agg = run_experiment_threads(&s.to_config(), AlgorithmKind::Pos, 1);
    assert!(agg.rebuilds > 0.0, "heavy churn must force rebuilds");
    assert_eq!(agg.audit_discrepancies, 0);
}
