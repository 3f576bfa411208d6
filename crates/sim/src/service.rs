//! The multi-query continuous service runner: executes a *workload* of
//! concurrent continuous quantile queries over one shared network.
//!
//! The paper's runner ([`crate::runner`]) drives a single query; this
//! module drives many — each `{φ, epoch, algorithm}` query registers into
//! a [`cqp_core::Service`] slot (which doubles as its audit *lane*), the
//! planner compiles the due set of every round into a traffic plan, and
//! the runner executes the plan's groups in deterministic slot order.
//! Multi-query optimization happens at two levels:
//!
//! * **dedup / refinement reuse** — queries with identical
//!   `(algorithm, φ, epoch, admission round)` share one protocol instance:
//!   the group leader executes, followers copy the certified answer at
//!   zero marginal traffic (the degenerate — always-sound — case of
//!   overlapping certified intervals);
//! * **shared frames** — with [`serve`]'s `shared` flag, all waves of one
//!   round pack per-link 802.15.4 frames together
//!   ([`wsn_net::Network::set_shared_frames`]), so each additional due
//!   query pays only its marginal payload bits, not its own headers.
//!
//! Rounds are *held* ([`wsn_net::Network::set_round_hold`]) so every due
//! query executes inside one accounting round; the runner closes each
//! round with `finish_round`, giving one ledger snapshot and one
//! shared-frame window per simulated round regardless of workload size.

use cqp_core::service::{QuerySpec, Service};
use cqp_core::ContinuousQuantile;
use wsn_net::obs::{Monitor, MonitorConfig};
use wsn_net::{lane_breakdowns, EnergyAuditor, MessageSizes, Network, Phase, PhaseBreakdown};

use crate::config::{AlgorithmKind, SimulationConfig};
use crate::world::World;
use crate::Value;

/// One continuous query of a serve workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeQuery {
    /// Protocol answering the query.
    pub algorithm: AlgorithmKind,
    /// Quantile fraction φ in thousandths (`0` = minimum, `1000` =
    /// maximum).
    pub phi_milli: u32,
    /// Reporting epoch in rounds (due when `round % epoch == 0`; `0` acts
    /// as every round).
    pub epoch: u32,
}

impl ServeQuery {
    /// The quantile parameter φ in `[0, 1]`.
    pub fn phi(&self) -> f64 {
        self.phi_milli.min(1000) as f64 / 1000.0
    }
}

/// A scheduled change to the active query set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeEvent {
    /// Register a query at the start of `round` (before that round's
    /// waves).
    Admit {
        /// Round the query becomes active.
        round: u32,
        /// The query.
        query: ServeQuery,
    },
    /// Retire the query in `slot` at the start of `round`.
    Retire {
        /// Round the retirement takes effect.
        round: u32,
        /// Service slot to vacate (as assigned by admission order —
        /// initial queries take slots `0..k` in order).
        slot: u32,
    },
}

/// Per-query results of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Service slot (= audit lane) the query occupied.
    pub slot: u32,
    /// The query.
    pub query: ServeQuery,
    /// Round the query was admitted.
    pub admitted: u32,
    /// `(round, answer)` for every due round while active — the identity
    /// fuzzers compare against the query's solo run.
    pub answers: Vec<(u32, Value)>,
    /// Due rounds answered exactly (rank error 0 against the oracle).
    pub exact_rounds: u32,
    /// Sum of absolute rank errors over due rounds.
    pub rank_error_sum: u64,
    /// Worst absolute rank error of any due round.
    pub max_rank_error: u64,
    /// Certified rank tolerance (`⌊ε·n⌋` for sketches, 0 exact).
    pub rank_tolerance: u64,
    /// Energy/traffic charged to this query's lane while it was active,
    /// by protocol phase. Followers of a dedup group honestly show zero —
    /// their leader's lane carries the group's traffic.
    pub charges: PhaseBreakdown,
}

impl QueryReport {
    /// Fraction of this query's due rounds answered exactly.
    pub fn exactness(&self) -> f64 {
        if self.answers.is_empty() {
            return 1.0;
        }
        self.exact_rounds as f64 / self.answers.len() as f64
    }
}

/// Results of one serve run: per-query reports plus workload aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One report per admitted query, in admission order.
    pub queries: Vec<QueryReport>,
    /// Rounds simulated.
    pub rounds: u32,
    /// Total bits on air.
    pub total_bits: u64,
    /// Total data messages (fragments).
    pub total_messages: u64,
    /// Protocol executions performed (group leaders).
    pub executions: u64,
    /// Query-rounds served (executions + free riders).
    pub served: u64,
    /// Traffic-plan cache hits.
    pub plan_hits: u64,
    /// Traffic-plan cache misses (compilations).
    pub plan_misses: u64,
    /// Transmission events replayed by the auditor (0 when not audited).
    pub audit_events: u64,
    /// Auditor discrepancies (must be 0).
    pub audit_discrepancies: u32,
    /// Live per-lane breakdowns, indexed by slot. The replayed
    /// (`lane_breakdowns`) view is asserted bit-identical when auditing.
    pub lanes: Vec<PhaseBreakdown>,
}

/// A stable 64-bit shape id for an [`AlgorithmKind`] — every parameter
/// that affects execution participates, so two queries dedup only when
/// their protocols are interchangeable.
fn algo_shape(kind: &AlgorithmKind) -> u64 {
    let (idx, a, b) = match *kind {
        AlgorithmKind::Tag => (0u64, 0u64, 0u64),
        AlgorithmKind::Pos => (1, 0, 0),
        AlgorithmKind::LcllH => (2, 0, 0),
        AlgorithmKind::LcllS => (3, 0, 0),
        AlgorithmKind::LcllR => (4, 0, 0),
        AlgorithmKind::Hbc => (5, 0, 0),
        AlgorithmKind::HbcNb => (6, 0, 0),
        AlgorithmKind::Iq => (7, 0, 0),
        AlgorithmKind::Adaptive => (8, 0, 0),
        AlgorithmKind::Gk => (9, 0, 0),
        AlgorithmKind::QDigest { eps_milli } => (10, eps_milli as u64, 0),
        AlgorithmKind::GkSink {
            eps_milli,
            capacity,
        } => (11, eps_milli as u64, capacity as u64),
    };
    let mut h = 0xcbf29ce484222325u64;
    for word in [idx, a, b] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The planner spec of a query admitted at `admit_round`. The admission
/// round is folded into the shape so only queries admitted *together*
/// dedup — a later duplicate starts fresh protocol state and must run its
/// own instance to match its solo run.
fn spec_of(q: &ServeQuery, admit_round: u32) -> QuerySpec {
    QuerySpec {
        algo: algo_shape(&q.algorithm) ^ (admit_round as u64).wrapping_mul(0x9E3779B97F4A7C15),
        phi_milli: q.phi_milli,
        eps_milli: 0,
        epoch: q.epoch,
    }
}

/// A live protocol instance shared by every slot whose spec matches.
struct Instance {
    spec: QuerySpec,
    alg: Box<dyn ContinuousQuantile>,
}

struct SlotState {
    query: ServeQuery,
    report_index: usize,
    /// The lane's charges at admission, so slot reuse still yields honest
    /// per-query deltas.
    baseline: PhaseBreakdown,
}

/// The active query set of a serve run: the planner's slots, the protocol
/// instances behind them, one report per admitted query and the optional
/// monitor that mirrors them.
struct Registry {
    svc: Service,
    instances: Vec<Instance>,
    slots: Vec<Option<SlotState>>,
    reports: Vec<QueryReport>,
    monitor: Option<Monitor>,
}

impl Registry {
    /// Registers `q` at `round`, reusing a matching instance (dedup).
    fn admit(&mut self, round: u32, q: ServeQuery, world: &World, sizes: &MessageSizes) {
        let spec = spec_of(&q, round);
        let slot = self.svc.admit(spec);
        let index = match self.instances.iter().position(|i| i.spec == spec) {
            Some(index) => index,
            None => {
                let alg = q.algorithm.build(world.query(q.phi()), sizes);
                self.instances.push(Instance { spec, alg });
                self.instances.len() - 1
            }
        };
        let tolerance = self.instances[index]
            .alg
            .rank_tolerance(world.sensor_count() as u64);
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(SlotState {
            query: q,
            report_index: self.reports.len(),
            baseline: world.net().lane_book().get(slot as u32),
        });
        if let Some(m) = self.monitor.as_mut() {
            let name = q.algorithm.name();
            m.register(slot as u32, round, name, q.phi_milli, q.epoch, tolerance);
        }
        self.reports.push(QueryReport {
            slot: slot as u32,
            query: q,
            admitted: round,
            answers: Vec::new(),
            exact_rounds: 0,
            rank_error_sum: 0,
            max_rank_error: 0,
            rank_tolerance: tolerance,
            charges: PhaseBreakdown::default(),
        });
    }

    /// Vacates `slot`, closing its report's lane delta.
    fn retire(&mut self, slot: u32, world: &World) {
        let spec = self.svc.retire(slot as usize);
        if let Some(state) = self.slots.get_mut(slot as usize).and_then(Option::take) {
            let now = world.net().lane_book().get(slot);
            self.reports[state.report_index].charges = delta_of(&now, &state.baseline);
        }
        if let Some(m) = self.monitor.as_mut() {
            m.retire(slot);
        }
        if let Some(spec) = spec {
            // Drop the instance only when no active slot still references
            // it (followers keep it alive).
            if !self.svc.active().any(|(_, s)| *s == spec) {
                self.instances.retain(|i| i.spec != spec);
            }
        }
    }
}

fn delta_of(now: &PhaseBreakdown, base: &PhaseBreakdown) -> PhaseBreakdown {
    let mut out = PhaseBreakdown::default();
    for phase in Phase::ALL {
        let (now, base) = (now.get(phase), base.get(phase));
        out.charge(
            phase,
            now.messages - base.messages,
            now.bits - base.bits,
            now.joules - base.joules,
        );
    }
    out
}

/// Runs a serve workload: `initial` queries admitted at round 0 (slots in
/// order), `events` applied at the start of their rounds (in the order
/// given), `shared` enabling frame packing across the round's waves.
/// It drives the same [`World`] as [`crate::runner::run_once_capture`],
/// so a single-query workload replays exactly the world of a solo run.
pub fn serve(
    cfg: &SimulationConfig,
    initial: &[ServeQuery],
    events: &[ServeEvent],
    shared: bool,
    run_index: u32,
) -> ServeReport {
    serve_capture(cfg, initial, events, shared, run_index).0
}

/// [`serve`] that also hands back the final [`Network`] for parity
/// digests and audits.
pub fn serve_capture(
    cfg: &SimulationConfig,
    initial: &[ServeQuery],
    events: &[ServeEvent],
    shared: bool,
    run_index: u32,
) -> (ServeReport, Network) {
    let (report, _, net) = serve_monitored(cfg, initial, events, shared, run_index, None);
    (report, net)
}

/// [`serve_capture`] with the monitoring plane attached: when
/// `monitor_cfg` is given, a [`Monitor`] rides along the run — queries
/// register on admit, every served answer and every lane's cumulative
/// charges feed the registry, and watchdogs evaluate at each round
/// boundary.
///
/// The monitor is strictly read-only with respect to the engine: it is
/// fed values the runner already computed for its own reports (lane-book
/// deltas, rank errors, plan-cache counters), never consulted for any
/// decision, and never touches the [`Network`]. A monitored run therefore
/// produces the *byte-identical* [`ServeReport`], audit log and digest of
/// an unmonitored one — pinned by `crates/sim/tests/serve.rs` — and,
/// because everything it observes comes from the deterministic lane
/// books, its health-event stream is itself reproducible bit for bit.
pub fn serve_monitored(
    cfg: &SimulationConfig,
    initial: &[ServeQuery],
    events: &[ServeEvent],
    shared: bool,
    run_index: u32,
    monitor_cfg: Option<&MonitorConfig>,
) -> (ServeReport, Option<Monitor>, Network) {
    let mut world = World::new(cfg, run_index);
    world.net_mut().set_shared_frames(shared);
    world.net_mut().set_round_hold(true);

    let mut reg = Registry {
        svc: Service::new(),
        instances: Vec::new(),
        slots: Vec::new(),
        reports: Vec::new(),
        monitor: monitor_cfg.map(|c| Monitor::new(*c)),
    };
    for &q in initial {
        reg.admit(0, q, &world, &cfg.sizes);
    }

    let mut executions = 0u64;
    let mut served = 0u64;

    for t in 0..cfg.rounds {
        for ev in events {
            match *ev {
                ServeEvent::Admit { round, query } if round == t => {
                    reg.admit(t, query, &world, &cfg.sizes)
                }
                ServeEvent::Retire { round, slot } if round == t => reg.retire(slot, &world),
                _ => {}
            }
        }

        if world.begin_round(t) {
            for inst in reg.instances.iter_mut() {
                inst.alg.topology_changed();
            }
        }
        // Any tree change — failure repair or dynamics rebuild — must
        // invalidate cached traffic plans.
        let rel = world.net().reliability_stats();
        let plan = reg.svc.plan(t, rel.repairs + rel.rebuilds);

        for group in &plan.groups {
            let spec = *reg.svc.get(group.leader).expect("planned slot is active");
            world.net_mut().set_lane(group.leader as u32);
            let inst = reg
                .instances
                .iter_mut()
                .find(|i| i.spec == spec)
                .expect("active spec has an instance");
            let answer = world.round(inst.alg.as_mut());
            executions += 1;

            for &slot in std::iter::once(&group.leader).chain(&group.followers) {
                served += 1;
                let Some(state) = reg.slots[slot].as_ref() else {
                    continue;
                };
                let report = &mut reg.reports[state.report_index];
                report.answers.push((t, answer));
                let err = world.rank_error(state.query.phi(), answer);
                if err == 0 {
                    report.exact_rounds += 1;
                }
                report.rank_error_sum += err;
                report.max_rank_error = report.max_rank_error.max(err);
                if let Some(m) = reg.monitor.as_mut() {
                    m.observe_answer(slot as u32, t, err, slot == group.leader);
                }
            }
        }
        world.net_mut().finish_round();

        // Round boundary: feed the monitor each active lane's cumulative
        // charges since admission (the same delta the final report uses)
        // and let the watchdogs evaluate. Pure reads — the engine never
        // sees the monitor.
        if let Some(m) = reg.monitor.as_mut() {
            for (slot, entry) in reg.slots.iter().enumerate() {
                if let Some(state) = entry {
                    let now = world.net().lane_book().get(slot as u32);
                    let delta = delta_of(&now, &state.baseline);
                    m.observe_lane(
                        slot as u32,
                        delta.total_joules(),
                        delta.bits().iter().sum(),
                        delta.bits()[Phase::Refinement.index()],
                    );
                }
            }
            m.end_round(t, reg.svc.cache().hits, reg.svc.cache().misses);
        }
    }

    // Close out still-active queries' lane deltas.
    let net = world.into_net();
    for (slot, entry) in reg.slots.iter().enumerate() {
        if let Some(state) = entry {
            let now = net.lane_book().get(slot as u32);
            reg.reports[state.report_index].charges = delta_of(&now, &state.baseline);
        }
    }

    let (audit_events, audit_discrepancies) = if cfg.audit {
        let report = EnergyAuditor::verify(&net);
        debug_assert!(
            report.is_clean(),
            "serve energy audit failed: {:?}",
            report.discrepancies
        );
        // The lane replay must reproduce the live lane book bit-for-bit.
        let live = net.lane_book();
        let replayed = lane_breakdowns(net.audit_log(), live.len());
        debug_assert_eq!(replayed.len(), live.len());
        for (lane, replay) in replayed.iter().enumerate() {
            debug_assert_eq!(
                replay,
                &live.get(lane as u32),
                "lane {lane} replay diverged from live attribution"
            );
        }
        (report.events, report.discrepancies.len() as u32)
    } else {
        (0, 0)
    };

    let stats = net.stats();
    // Cover every admitted slot, not just charged lanes — a follower that
    // free-rode for its whole life still gets an (all-zero) lane.
    let lanes: Vec<PhaseBreakdown> = (0..net.lane_book().len().max(reg.svc.slot_count()))
        .map(|l| net.lane_book().get(l as u32))
        .collect();
    let report = ServeReport {
        queries: reg.reports,
        rounds: cfg.rounds,
        total_bits: stats.bits,
        total_messages: stats.messages,
        executions,
        served,
        plan_hits: reg.svc.cache().hits,
        plan_misses: reg.svc.cache().misses,
        audit_events,
        audit_discrepancies,
        lanes,
    };
    (report, reg.monitor, net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once_capture;

    fn cfg() -> SimulationConfig {
        SimulationConfig {
            sensor_count: 16,
            radio_range: 70.0,
            rounds: 10,
            runs: 1,
            seed: 0xFEED,
            audit: true,
            ..SimulationConfig::default()
        }
    }

    fn q(kind: AlgorithmKind, phi_milli: u32, epoch: u32) -> ServeQuery {
        ServeQuery {
            algorithm: kind,
            phi_milli,
            epoch,
        }
    }

    #[test]
    fn singleton_workload_matches_the_solo_runner_bit_for_bit() {
        let cfg = cfg();
        let (solo, solo_net) = run_once_capture(&cfg, &|qc, s| AlgorithmKind::Iq.build(qc, s), 0);
        let (serve, serve_net) =
            serve_capture(&cfg, &[q(AlgorithmKind::Iq, 500, 1)], &[], false, 0);
        assert_eq!(serve.queries.len(), 1);
        assert_eq!(serve.queries[0].answers.len(), 10);
        assert_eq!(serve.queries[0].exact_rounds, solo.exact_rounds);
        assert_eq!(serve_net.stats().bits, solo_net.stats().bits);
        assert_eq!(serve_net.stats().messages, solo_net.stats().messages);
        assert_eq!(serve.audit_discrepancies, 0);
    }

    #[test]
    fn duplicate_queries_dedup_to_one_execution() {
        let cfg = cfg();
        let queries = [q(AlgorithmKind::Tag, 500, 1), q(AlgorithmKind::Tag, 500, 1)];
        let (report, _) = serve_capture(&cfg, &queries, &[], false, 0);
        assert_eq!(report.executions, 10, "one execution per round");
        assert_eq!(report.served, 20, "both queries served every round");
        assert_eq!(report.queries[0].answers, report.queries[1].answers);
        // The follower's lane is honestly zero.
        let follower = &report.queries[1].charges;
        assert_eq!(follower.bits().iter().sum::<u64>(), 0);
        // And the workload costs what one query costs.
        let (single, _) = serve_capture(&cfg, &queries[..1], &[], false, 0);
        assert_eq!(report.total_bits, single.total_bits);
    }

    #[test]
    fn epochs_skip_rounds_and_shared_frames_only_cheapen() {
        let cfg = cfg();
        let queries = [
            q(AlgorithmKind::Tag, 500, 1),
            q(AlgorithmKind::Tag, 250, 2),
            q(AlgorithmKind::Iq, 750, 3),
        ];
        let (plain, _) = serve_capture(&cfg, &queries, &[], false, 0);
        assert_eq!(plain.queries[0].answers.len(), 10);
        assert_eq!(plain.queries[1].answers.len(), 5);
        assert_eq!(plain.queries[2].answers.len(), 4); // rounds 0,3,6,9
        let (shared, _) = serve_capture(&cfg, &queries, &[], true, 0);
        assert!(shared.total_bits <= plain.total_bits);
        assert_eq!(shared.audit_discrepancies, 0);
        // Sharing never changes any answer.
        for (a, b) in plain.queries.iter().zip(&shared.queries) {
            assert_eq!(a.answers, b.answers);
        }
        // Plan cache: 3 distinct due shapes (r0-type, odd, even-not-0 ...)
        // — far fewer misses than rounds.
        assert!(shared.plan_misses < 10);
        assert!(shared.plan_hits + shared.plan_misses == 10);
    }

    #[test]
    fn lane_charges_partition_the_global_breakdown() {
        let cfg = cfg();
        let queries = [
            q(AlgorithmKind::Tag, 500, 1),
            q(AlgorithmKind::Iq, 250, 1),
            q(AlgorithmKind::Pos, 900, 2),
        ];
        let (report, net) = serve_capture(&cfg, &queries, &[], true, 0);
        let global = net.phases();
        let lane_bits: u64 = report
            .lanes
            .iter()
            .map(|l| l.bits().iter().sum::<u64>())
            .sum();
        assert_eq!(lane_bits, global.bits().iter().sum::<u64>());
        let lane_msgs: u64 = report
            .lanes
            .iter()
            .map(|l| l.messages().iter().sum::<u64>())
            .sum();
        assert_eq!(lane_msgs, global.messages().iter().sum::<u64>());
        // Every active query's delta-since-admit equals its live lane.
        for qr in &report.queries {
            assert_eq!(&qr.charges, &report.lanes[qr.slot as usize]);
        }
    }

    #[test]
    fn admit_and_retire_take_effect_at_their_rounds() {
        let cfg = cfg();
        let initial = [q(AlgorithmKind::Tag, 500, 1)];
        let events = [
            ServeEvent::Admit {
                round: 3,
                query: q(AlgorithmKind::Iq, 250, 1),
            },
            ServeEvent::Retire { round: 7, slot: 1 },
        ];
        let (report, _) = serve_capture(&cfg, &initial, &events, false, 0);
        assert_eq!(report.queries.len(), 2);
        let transient = &report.queries[1];
        assert_eq!(transient.admitted, 3);
        assert_eq!(
            transient
                .answers
                .iter()
                .map(|&(t, _)| t)
                .collect::<Vec<_>>(),
            vec![3, 4, 5, 6],
            "active rounds 3..7 only"
        );
        // The survivor served every round.
        assert_eq!(report.queries[0].answers.len(), 10);
    }

    #[test]
    fn an_attached_monitor_never_perturbs_the_report() {
        let cfg = cfg();
        let queries = [
            q(AlgorithmKind::Tag, 500, 1),
            q(AlgorithmKind::Iq, 250, 2),
            q(AlgorithmKind::Iq, 250, 2),
        ];
        let (plain, _) = serve_capture(&cfg, &queries, &[], true, 0);
        let strict = MonitorConfig {
            budget_joules: Some(1e-12),
            stale_limit: 1,
            dead_lane_limit: 1,
            cache_window: 1,
            cache_hit_floor_milli: 1000,
            recorder_capacity: 4,
        };
        let (monitored, monitor, _) = serve_monitored(&cfg, &queries, &[], true, 0, Some(&strict));
        assert_eq!(plain, monitored, "monitoring must be invisible");
        let m = monitor.expect("monitor attached");
        assert!(m.is_unhealthy(), "strict thresholds must trip watchdogs");
    }

    #[test]
    fn a_tiny_budget_overruns_on_a_deterministic_round_and_slot() {
        let cfg = cfg();
        let queries = [q(AlgorithmKind::Tag, 500, 1), q(AlgorithmKind::Tag, 500, 1)];
        let mc = MonitorConfig {
            budget_joules: Some(1e-9),
            stale_limit: 0,
            dead_lane_limit: 0,
            cache_window: 0,
            ..MonitorConfig::default()
        };
        let (_, monitor, _) = serve_monitored(&cfg, &queries, &[], false, 0, Some(&mc));
        let m = monitor.expect("monitor attached");
        let overruns: Vec<_> = m
            .events()
            .iter()
            .filter(|e| matches!(e.kind, wsn_net::obs::HealthKind::BudgetOverrun { .. }))
            .collect();
        // The leader's lane carries all the traffic: it overruns in its
        // first round; the follower's lane stays at zero forever.
        assert_eq!(overruns.len(), 1);
        assert_eq!(overruns[0].slot, Some(0));
        assert_eq!(overruns[0].round, 0);
        assert!(m.row(1).unwrap().joules == 0.0, "follower lane is free");
    }

    #[test]
    fn monitor_rows_track_registry_lifecycle() {
        let cfg = cfg();
        let initial = [q(AlgorithmKind::Tag, 500, 1)];
        let events = [
            ServeEvent::Admit {
                round: 3,
                query: q(AlgorithmKind::Iq, 250, 1),
            },
            ServeEvent::Retire { round: 7, slot: 1 },
        ];
        let mc = MonitorConfig::default();
        let (report, monitor, _) = serve_monitored(&cfg, &initial, &events, false, 0, Some(&mc));
        let m = monitor.expect("monitor attached");
        assert_eq!(m.rows().count(), 2);
        let transient = m.row(1).unwrap();
        assert_eq!(transient.admitted, 3);
        assert!(!transient.active, "retired");
        assert_eq!(transient.answers, 4, "due rounds 3..=6");
        let survivor = m.row(0).unwrap();
        assert!(survivor.active);
        assert_eq!(survivor.answers, 10);
        assert_eq!(survivor.staleness, 0);
        assert_eq!(
            survivor.joules,
            report.queries[0].charges.total_joules(),
            "registry mirrors the report's lane delta"
        );
        assert_eq!(m.recorder().len(), 10, "one frame per round");
    }

    #[test]
    fn late_duplicate_does_not_join_the_original_instance() {
        let cfg = cfg();
        let initial = [q(AlgorithmKind::Iq, 500, 1)];
        let events = [ServeEvent::Admit {
            round: 4,
            query: q(AlgorithmKind::Iq, 500, 1),
        }];
        let (report, _) = serve_capture(&cfg, &initial, &events, false, 0);
        // Both run: the late duplicate starts fresh state, so the round-4
        // executions are 2 (no dedup across admission rounds).
        assert_eq!(report.executions, 10 + 6);
    }
}
