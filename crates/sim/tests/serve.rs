//! Multi-query service determinism (DESIGN.md §3.3i): monitoring and span
//! recording never perturb the serve runner's full output — every query's
//! answer stream, its per-lane phase charges, and the audit log — in solo
//! or shared framing; its health events are the same whichever worker
//! threads execute the runs, and a transient query
//! (admitted then retired mid-run) leaves the surviving queries' answers
//! and ledger charges bit-identical in solo framing (under shared framing
//! the transient's piggybacked frames legitimately change the survivors'
//! marginal accounting).

use wsn_net::obs::{HealthKind, MonitorConfig};
use wsn_sim::parity::{serve_digest, serve_report_digest};
use wsn_sim::{
    serve, serve_monitored, AlgorithmKind, DataSource, Scenario, ServeEvent, ServeQuery,
    SimulationConfig,
};

fn scenario() -> Scenario {
    Scenario {
        seed: 0xD15C,
        nodes: 16,
        range_milli: 2500,
        rounds: 10,
        runs: 1,
        phi_milli: 500,
        loss_milli: 0,
        retries: 0,
        recovery: 0,
        failure_milli: 0,
        eps_milli: 100,
        capacity: 0,
        queries: 5,
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

fn cfg() -> SimulationConfig {
    scenario().to_config()
}

fn transient_events() -> Vec<ServeEvent> {
    vec![
        ServeEvent::Admit {
            round: 3,
            query: ServeQuery {
                algorithm: AlgorithmKind::Iq,
                phi_milli: 300,
                epoch: 1,
            },
        },
        ServeEvent::Retire { round: 7, slot: 5 },
    ]
}

/// Monitoring "fully enabled": every watchdog armed, tight recorder.
fn full_monitoring() -> MonitorConfig {
    MonitorConfig {
        stale_limit: 8,
        dead_lane_limit: 4,
        cache_window: 4,
        cache_hit_floor_milli: 100,
        budget_joules: Some(1e-6),
        recorder_capacity: 8,
    }
}

#[test]
fn monitoring_and_flight_recorder_never_perturb_the_digest() {
    let workload = scenario().workload();
    let events = transient_events();
    let mc = full_monitoring();
    for shared in [false, true] {
        let plain = serve_digest(&cfg(), &workload, &events, shared);
        let telemetered = SimulationConfig {
            telemetry: true,
            ..cfg()
        };
        assert_eq!(
            plain,
            serve_digest(&telemetered, &workload, &events, shared),
            "shared={shared}: span recording changed the digest"
        );
        let (report, monitor, net) =
            serve_monitored(&cfg(), &workload, &events, shared, 0, Some(&mc));
        assert_eq!(
            plain,
            serve_report_digest(&report, &net),
            "shared={shared}: monitoring changed the digest"
        );
        let m = monitor.expect("monitor attached");
        assert!(!m.recorder().is_empty(), "flight recorder was recording");
        assert!(
            m.events()
                .iter()
                .any(|e| matches!(e.kind, HealthKind::BudgetOverrun { .. })),
            "shared={shared}: the 1 µJ budget must overrun"
        );
    }
}

#[test]
fn health_events_land_on_the_same_rounds_and_slots_at_any_worker_count() {
    let workload = scenario().workload();
    let events = transient_events();
    let mc = full_monitoring();
    // Four monitored runs, executed on 1, 2 and 8 run-level worker threads.
    let run = |workers: usize| {
        wsn_sim::parallel::map_indexed(4, workers, |r| {
            let (_, monitor, _) =
                serve_monitored(&cfg(), &workload, &events, false, r as u32, Some(&mc));
            monitor.expect("monitor attached").events().to_vec()
        })
    };
    let golden = run(1);
    for (r, stream) in golden.iter().enumerate() {
        assert!(
            stream
                .iter()
                .any(|e| matches!(e.kind, HealthKind::BudgetOverrun { .. })),
            "run {r}: the 1 µJ budget must overrun"
        );
    }
    for workers in [2usize, 8] {
        assert_eq!(
            golden,
            run(workers),
            "health events diverged at {workers} worker threads"
        );
    }
}

#[test]
fn a_transient_query_leaves_the_survivors_bit_identical() {
    let workload = scenario().workload();
    let baseline = serve(&cfg(), &workload, &[], false, 0);
    let perturbed = serve(&cfg(), &workload, &transient_events(), false, 0);

    assert_eq!(perturbed.queries.len(), baseline.queries.len() + 1);
    let transient = &perturbed.queries[workload.len()];
    assert_eq!(transient.admitted, 3);
    assert_eq!(transient.answers.len(), 4, "due rounds 3..=6");

    for (b, p) in baseline.queries.iter().zip(&perturbed.queries) {
        assert_eq!(b.answers, p.answers, "slot {}: answers changed", b.slot);
        assert_eq!(
            b.charges, p.charges,
            "slot {}: lane charges changed",
            b.slot
        );
        assert_eq!(b.exact_rounds, p.exact_rounds);
        assert_eq!(b.max_rank_error, p.max_rank_error);
    }
    // The transient's own traffic is the only delta in the global ledger.
    let transient_bits: u64 = transient.charges.bits().iter().sum();
    assert_eq!(baseline.total_bits + transient_bits, perturbed.total_bits);
    assert_eq!(baseline.audit_discrepancies, 0);
    assert_eq!(perturbed.audit_discrepancies, 0);
}
