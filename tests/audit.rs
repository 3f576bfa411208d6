//! Energy-conservation audits across the full protocol stack: every joule
//! the ledger charges must be re-derivable, bit-exactly, from the recorded
//! transmission log — under loss, ARQ retransmissions, wave recovery and
//! crash-stop node failures, for every paper protocol.

use wsn_sim::runner::{run_experiment_threads, run_once};
use wsn_sim::{AlgorithmKind, SimulationConfig};

fn audited_cfg() -> SimulationConfig {
    SimulationConfig {
        sensor_count: 60,
        rounds: 20,
        runs: 2,
        loss: Some(0.3),
        reliability: wsn_net::ReliabilityConfig::recovering(3, 4),
        node_failure: Some(0.01),
        audit: true,
        ..SimulationConfig::default()
    }
}

#[test]
fn every_protocol_reconciles_under_loss_arq_and_failures() {
    let cfg = audited_cfg();
    for kind in [
        AlgorithmKind::Pos,
        AlgorithmKind::Hbc,
        AlgorithmKind::Iq,
        AlgorithmKind::LcllH,
        AlgorithmKind::LcllS,
        AlgorithmKind::Tag,
    ] {
        let m = run_once(&cfg, kind, 0);
        assert!(
            m.audit_events > 0,
            "{} must record traffic under audit",
            kind.name()
        );
        assert_eq!(
            m.audit_discrepancies,
            0,
            "{}: every ledger charge must replay bit-exactly",
            kind.name()
        );
    }
}

#[test]
fn audited_metrics_are_identical_to_unaudited_ones() {
    let audited = audited_cfg();
    let plain = SimulationConfig {
        audit: false,
        ..audited.clone()
    };
    for kind in [AlgorithmKind::Iq, AlgorithmKind::Tag] {
        let a = run_once(&audited, kind, 1);
        let b = run_once(&plain, kind, 1);
        assert_eq!(a.audit_discrepancies, 0);
        let neutral = wsn_sim::metrics::RunMetrics {
            audit_events: 0,
            ..a
        };
        assert_eq!(
            neutral,
            b,
            "{}: auditing must be pure observation",
            kind.name()
        );
    }
}

#[test]
fn audit_is_scheduling_invariant() {
    // The audited aggregate — including per-phase energy, event and
    // discrepancy counts — must be bit-identical however runs are spread
    // over workers.
    let cfg = SimulationConfig {
        runs: 4,
        ..audited_cfg()
    };
    let sequential = run_experiment_threads(&cfg, AlgorithmKind::Pos, 1);
    let parallel = run_experiment_threads(&cfg, AlgorithmKind::Pos, 8);
    assert_eq!(sequential, parallel);
    assert!(sequential.audit_events > 0);
    assert_eq!(sequential.audit_discrepancies, 0);
}

#[test]
fn phase_accounting_covers_all_traffic() {
    let cfg = audited_cfg();
    let m = run_once(&cfg, AlgorithmKind::Hbc, 0);
    let phase_bits: u64 = m.phase_bits.iter().sum();
    let total_bits = m.bits_per_round * cfg.rounds as f64;
    assert!(
        (phase_bits as f64 - total_bits).abs() <= 1e-6 * total_bits,
        "per-phase bits {phase_bits} must partition the global count {total_bits}"
    );
    // Loss + recovering reliability makes the recovery phase visible.
    assert!(
        m.phase_joules[wsn_net::Phase::Recovery.index()] > 0.0,
        "wave recovery must be attributed to the recovery phase"
    );
}

#[test]
fn a_corrupted_ledger_is_flagged() {
    use wsn_net::{
        EnergyAuditor, MessageSizes, Network, NodeId, Point, RadioModel, RoutingTree, Topology,
    };

    let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
    let topo = Topology::build(positions, 12.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
    net.set_audit(true);
    for _ in 0..3 {
        net.broadcast(256);
        net.end_round();
    }
    assert!(EnergyAuditor::verify(&net).is_clean());

    // A phantom charge that no transmission explains must be caught.
    let mut forged = net.ledger().clone();
    forged.charge(NodeId(2), 1e-9);
    let report = EnergyAuditor::verify_parts(net.audit_log(), &forged);
    assert!(!report.is_clean(), "the forged ledger must not reconcile");
    assert!(report
        .discrepancies
        .iter()
        .any(|d| d.node == NodeId(2) && d.what == "final total"));
}
