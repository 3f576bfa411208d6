//! Energy-conservation audits across the full protocol stack: every bit
//! the ledger charges must be re-derivable, exactly, from the recorded
//! transmission log — under loss, ARQ retransmissions, wave recovery and
//! crash-stop node failures, for every paper protocol — and the ledger,
//! the traffic stats and the phase and lane books must count the same
//! bits after every round. Only the driver closes a round: a protocol's
//! `execute` leaves it open, its `round` closes it once, and a served
//! session closes one accounting round per simulated round.

use wsn_net::{EnergyAuditor, Network, Phase, PhaseBreakdown, TxKind};
use wsn_sim::runner::{run_experiment_threads, run_once};
use wsn_sim::service::serve_capture;
use wsn_sim::{AlgorithmKind, DynamicsConfig, ServeEvent, ServeQuery, SimulationConfig, World};

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

    // A phantom bit that no transmission explains must be caught.
    let mut forged = net.ledger().clone();
    forged.charge_rx(NodeId(2), 1);
    let report = EnergyAuditor::verify_parts(net.audit_log(), &forged);
    assert!(!report.is_clean(), "the forged ledger must not reconcile");
    assert!(report
        .discrepancies
        .iter()
        .any(|d| d.node == NodeId(2) && d.what == "final rx bits" && d.actual == d.expected + 1));
}

/// Asserts that the ledger's bits sent, summed over nodes, equal the
/// traffic stats' bits on air and the phase and lane books' bits, and that
/// its bits received equal the phase and lane books' received bits.
fn assert_books_agree(net: &Network, ctx: &str) {
    let ledger = net.ledger();
    let sent: u64 = ledger.tx_bits_per_node().iter().sum();
    let received: u64 = ledger.rx_bits_per_node().iter().sum();
    let phases = net.phases();
    let lanes = net.lane_book().breakdowns(0);
    let lane_total = |side: fn(&PhaseBreakdown) -> [u64; Phase::COUNT]| -> u64 {
        lanes.iter().flat_map(side).sum()
    };
    assert_eq!(sent, net.stats().bits, "{ctx}: traffic bits");
    assert_eq!(sent, phases.bits().iter().sum::<u64>(), "{ctx}: phase bits");
    assert_eq!(sent, lane_total(PhaseBreakdown::bits), "{ctx}: lane bits");
    let phase_received: u64 = phases.rx_bits().iter().sum();
    assert_eq!(received, phase_received, "{ctx}: phase rx bits");
    assert_eq!(
        received,
        lane_total(PhaseBreakdown::rx_bits),
        "{ctx}: lane rx bits"
    );
}

#[test]
fn ledger_traffic_phase_and_lane_bits_agree_after_every_round() {
    let base = SimulationConfig {
        sensor_count: 60,
        rounds: 15,
        runs: 1,
        ..SimulationConfig::default()
    };
    let worlds = [
        ("static", base.clone()),
        ("lossy", audited_cfg()),
        (
            "mobile and duty-cycled",
            SimulationConfig {
                dynamics: Some(DynamicsConfig {
                    mobility_step: 10.0,
                    duty_milli: 100,
                    epoch: 3,
                    ..DynamicsConfig::default()
                }),
                ..base.clone()
            },
        ),
    ];
    let battery = AlgorithmKind::battery(100, 0);
    for (name, cfg) in &worlds {
        for kind in battery {
            let mut world = World::new(cfg, 0);
            let mut alg = kind.build(world.query(cfg.phi), &cfg.sizes);
            for t in 0..cfg.rounds {
                world.round(t, alg.as_mut());
                let ctx = format!("{name}, {}, round {t}", kind.name());
                assert_books_agree(world.net(), &ctx);
            }
            // Each world exercises what it is there for: repairs under
            // loss, rebuild beacons and idle listening when mobile.
            let phases = world.net().phases();
            let rx = |phase: Phase| phases.rx_bits()[phase.index()];
            match *name {
                "lossy" => assert!(rx(Phase::Recovery) > 0, "{}", kind.name()),
                "mobile and duty-cycled" => {
                    assert!(rx(Phase::Rebuild) > 0 && rx(Phase::Other) > 0)
                }
                _ => assert_eq!(rx(Phase::Other), 0),
            }
        }
    }
    // A serve world with shared frames, every battery protocol in a lane
    // of its own. A session of `rounds` rounds is the prefix of a longer
    // one, so checking each session's end checks every round.
    let workload: Vec<ServeQuery> = battery
        .iter()
        .enumerate()
        .map(|(i, &algorithm)| ServeQuery {
            algorithm,
            phi_milli: [500, 250, 900, 100][i % 4],
            epoch: 1 + i as u32 % 2,
        })
        .collect();
    for rounds in 1..=8 {
        let cfg = SimulationConfig {
            rounds,
            ..base.clone()
        };
        let (report, net) = serve_capture(&cfg, &workload, &[], true, 0);
        assert_eq!(report.rounds, rounds);
        assert_eq!(net.lane_book().len(), workload.len());
        assert_books_agree(&net, &format!("serve, round {}", rounds - 1));
    }
}

/// The rounds a network has closed, as its ledger and its audit count
/// them, and the idle-listening bits its duty-cycled sensors were charged
/// at those closes.
fn closes(net: &Network) -> (u32, u32, u64) {
    let report = EnergyAuditor::verify(net);
    assert!(report.is_clean(), "{:?}", report.discrepancies);
    let idle = net.audit_log().events().filter(|e| e.kind == TxKind::Idle);
    let idle = idle.map(|e| e.bits).sum();
    (net.ledger().rounds(), report.rounds_checked, idle)
}

#[test]
fn execute_leaves_the_round_open_and_round_closes_it_once() {
    let cfg = SimulationConfig {
        sensor_count: 60,
        rounds: 8,
        runs: 1,
        audit: true,
        dynamics: Some(DynamicsConfig {
            duty_milli: 100,
            ..DynamicsConfig::default()
        }),
        ..SimulationConfig::default()
    };
    for kind in AlgorithmKind::ALL {
        let name = kind.name();
        let mut world = World::new(&cfg, 0);
        let mut alg = kind.build(world.query(cfg.phi), &cfg.sizes);
        for t in 0..cfg.rounds {
            let (rounds, checked, idle) = closes(world.net());
            if t % 2 == 0 {
                world.begin_round(t);
                world.execute(alg.as_mut());
                let open = closes(world.net());
                assert_eq!(open, (rounds, checked, idle), "{name} round {t}: execute");
                world.net_mut().end_round();
            } else {
                world.round(t, alg.as_mut());
            }
            let (after, after_checked, after_idle) = closes(world.net());
            assert_eq!(after, rounds + 1, "{name} round {t}: ledger rounds");
            assert_eq!(
                after_checked,
                checked + 1,
                "{name} round {t}: audited rounds"
            );
            assert!(
                after_idle > idle,
                "{name} round {t}: a close charges idle listening"
            );
        }
    }
}

#[test]
fn a_served_session_closes_one_accounting_round_per_round() {
    let cfg = SimulationConfig {
        sensor_count: 40,
        rounds: 10,
        runs: 1,
        audit: true,
        ..SimulationConfig::default()
    };
    let query = |algorithm, phi_milli, epoch| ServeQuery {
        algorithm,
        phi_milli,
        epoch,
    };
    let initial = [
        query(AlgorithmKind::Iq, 500, 1),
        query(AlgorithmKind::Adaptive, 250, 1),
        query(AlgorithmKind::Hbc, 900, 2),
    ];
    let events = [
        ServeEvent::Admit {
            round: 3,
            query: query(AlgorithmKind::Adaptive, 750, 2),
        },
        ServeEvent::Retire { round: 6, slot: 0 },
    ];
    for shared in [false, true] {
        let (report, net) = serve_capture(&cfg, &initial, &events, shared, 0);
        assert_eq!(report.rounds, cfg.rounds);
        let audit = EnergyAuditor::verify(&net);
        assert!(
            audit.is_clean(),
            "shared {shared}: {:?}",
            audit.discrepancies
        );
        assert_eq!(net.ledger().rounds(), cfg.rounds, "shared {shared}");
        assert_eq!(audit.rounds_checked, cfg.rounds, "shared {shared}");
    }
}
