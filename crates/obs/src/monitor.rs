//! The service-level monitoring plane: per-query live metrics, watchdogs
//! and a flight recorder for the continuous serve loop.
//!
//! A continuous query is a long-running tenant: the sink must notice when
//! its answer goes stale, its energy budget drains, its observed rank
//! error breaks the ε·n SLO it was admitted under, or its lane stops
//! carrying traffic it should be carrying. This module is that ops layer,
//! kept deliberately passive — the serve runner *feeds* the [`Monitor`]
//! plain integers and floats it already computed for its own accounting,
//! and the monitor never touches the network, so enabling monitoring
//! cannot perturb a digest (pinned by `crates/sim/tests/serve.rs`).
//!
//! **Watchdog determinism contract.** Every watchdog is evaluated inside
//! [`Monitor::end_round`], from values the engine produced in its
//! deterministic accounting (lane books, plan-cache counters, served
//! answers). Those values are reproducible bit for bit, so the
//! health-event stream — kinds, rounds, slots, payload values — is too.
//! No wall-clock, no sampling, no cross-slot iteration order beyond
//! ascending slot index. Each watchdog *latches* per
//! `(slot, kind)`: it fires on the first round boundary where its
//! condition holds and stays quiet afterwards, so the event stream is
//! bounded by `slots × kinds` and trivially replayable (the fuzzer
//! re-derives each condition from the audit log's lane deltas and asserts
//! the event fired iff the replayed condition held).
//!
//! **Flight recorder.** A fixed-capacity ring of per-round
//! [`RoundFrame`]s (newest frames win). When the first health event
//! fires, the monitor snapshots the ring as JSONL — the post-mortem: the
//! last `capacity` rounds *leading up to* the failure — which the CLI
//! writes out via `serve --health-json`. The ring keeps recording
//! afterwards, so an on-demand dump at end of run is also available.

use crate::export::{escape_label, PromDump};
use std::fmt::Write as _;

/// Watchdog thresholds and recorder sizing. The defaults are lenient
/// enough that a healthy workload raises nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Rounds a query may go without a fresh answer before
    /// [`HealthKind::StaleAnswer`] fires (`0` disables). Must exceed the
    /// largest epoch in the workload to stay quiet on healthy runs.
    pub stale_limit: u32,
    /// Consecutive rounds a query may *lead an execution* while its lane
    /// gains zero bits before [`HealthKind::DeadLane`] fires (`0`
    /// disables).
    pub dead_lane_limit: u32,
    /// Plan-cache lookups before the [`HealthKind::CacheThrash`] watchdog
    /// arms (`0` disables) — a cold cache always starts with misses.
    pub cache_window: u64,
    /// Minimum plan-cache hit rate (milli-units) once armed.
    pub cache_hit_floor_milli: u32,
    /// Optional per-query energy budget in joules: a lane whose
    /// cumulative charge since admission exceeds it raises
    /// [`HealthKind::BudgetOverrun`].
    pub budget_joules: Option<f64>,
    /// Flight-recorder depth in rounds.
    pub recorder_capacity: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            stale_limit: 8,
            dead_lane_limit: 4,
            cache_window: 16,
            cache_hit_floor_milli: 100,
            budget_joules: None,
            recorder_capacity: 64,
        }
    }
}

/// What a [`HealthEvent`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthKind {
    /// A query's cumulative lane energy exceeded its budget.
    BudgetOverrun {
        /// Joules charged to the lane since admission.
        joules: f64,
        /// The configured budget.
        budget: f64,
    },
    /// A query went too many rounds without a fresh answer.
    StaleAnswer {
        /// Rounds since the last answer (or since admission).
        staleness: u32,
        /// The configured limit.
        limit: u32,
    },
    /// An answer's observed rank error exceeded the query's certified
    /// ε·n tolerance.
    SloViolation {
        /// The offending rank error.
        rank_error: u64,
        /// The certified tolerance.
        tolerance: u64,
    },
    /// A query kept leading executions whose waves charged its lane zero
    /// bits — traffic it should be causing is not happening.
    DeadLane {
        /// Consecutive zero-bit led rounds observed.
        idle_rounds: u32,
        /// The configured limit.
        limit: u32,
    },
    /// The plan cache's hit rate fell below the floor after the warm-up
    /// window.
    CacheThrash {
        /// Cache hits so far.
        hits: u64,
        /// Cache misses so far.
        misses: u64,
        /// The configured floor (milli-units).
        floor_milli: u32,
    },
}

impl HealthKind {
    /// Number of distinct kinds (the latch table width).
    pub const COUNT: usize = 5;

    /// Dense index into per-kind tables.
    pub fn index(&self) -> usize {
        match self {
            HealthKind::BudgetOverrun { .. } => 0,
            HealthKind::StaleAnswer { .. } => 1,
            HealthKind::SloViolation { .. } => 2,
            HealthKind::DeadLane { .. } => 3,
            HealthKind::CacheThrash { .. } => 4,
        }
    }

    /// Snake-case display name (doubles as the JSONL `kind` field and the
    /// CLI's `kind=` health line).
    pub fn name(&self) -> &'static str {
        match self {
            HealthKind::BudgetOverrun { .. } => "budget_overrun",
            HealthKind::StaleAnswer { .. } => "stale_answer",
            HealthKind::SloViolation { .. } => "slo_violation",
            HealthKind::DeadLane { .. } => "dead_lane",
            HealthKind::CacheThrash { .. } => "cache_thrash",
        }
    }
}

/// One raised watchdog, stamped with the round boundary that raised it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthEvent {
    /// Round at whose boundary the watchdog fired.
    pub round: u32,
    /// The offending query slot (`None` for service-global events —
    /// currently only [`HealthKind::CacheThrash`]).
    pub slot: Option<u32>,
    /// What fired, with its evidence.
    pub kind: HealthKind,
}

impl HealthEvent {
    /// One JSONL line describing this event.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            r#"{{"type":"health","round":{},"slot":{},"kind":"{}""#,
            self.round,
            match self.slot {
                Some(s) => s.to_string(),
                None => "null".to_string(),
            },
            self.kind.name()
        );
        match self.kind {
            HealthKind::BudgetOverrun { joules, budget } => {
                let _ = write!(out, r#","joules":{joules},"budget":{budget}"#);
            }
            HealthKind::StaleAnswer { staleness, limit } => {
                let _ = write!(out, r#","staleness":{staleness},"limit":{limit}"#);
            }
            HealthKind::SloViolation {
                rank_error,
                tolerance,
            } => {
                let _ = write!(out, r#","rank_error":{rank_error},"tolerance":{tolerance}"#);
            }
            HealthKind::DeadLane { idle_rounds, limit } => {
                let _ = write!(out, r#","idle_rounds":{idle_rounds},"limit":{limit}"#);
            }
            HealthKind::CacheThrash {
                hits,
                misses,
                floor_milli,
            } => {
                let _ = write!(
                    out,
                    r#","hits":{hits},"misses":{misses},"floor_milli":{floor_milli}"#
                );
            }
        }
        out.push('}');
        out
    }
}

/// One query's live metrics row, keyed by its service slot (= audit
/// lane).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Service slot / audit lane.
    pub slot: u32,
    /// Protocol display name (label-escaped on export).
    pub algorithm: String,
    /// Quantile fraction in milli-units.
    pub phi_milli: u32,
    /// Reporting epoch in rounds.
    pub epoch: u32,
    /// Round the query was admitted.
    pub admitted: u32,
    /// Certified rank tolerance (`⌊ε·n⌋`; 0 exact) — the accuracy SLO.
    pub tolerance: u64,
    /// Whether the query is still registered.
    pub active: bool,
    /// Round of the most recent answer, if any.
    pub last_answer_round: Option<u32>,
    /// Rounds since the last answer (or since admission), as of the last
    /// round boundary.
    pub staleness: u32,
    /// Answers delivered so far.
    pub answers: u64,
    /// Rank error of the most recent answer.
    pub last_rank_error: u64,
    /// Worst rank error of any answer.
    pub max_rank_error: u64,
    /// Joules charged to the lane since admission.
    pub joules: f64,
    /// Bits charged to the lane since admission.
    pub bits: u64,
    /// Consecutive answered rounds whose lane gained refinement traffic —
    /// each is a round where validation rejected the previous answer.
    pub validation_failure_streak: u32,
    /// Consecutive rounds this query led an execution while its lane
    /// gained zero bits (the [`HealthKind::DeadLane`] counter).
    pub lead_idle_streak: u32,
    /// Latch table: which watchdog kinds already fired for this slot.
    fired: [bool; HealthKind::COUNT],
    /// Previous round's cumulative lane bits, for per-round deltas.
    prev_bits: u64,
    /// Previous round's cumulative refinement bits.
    prev_refinement_bits: u64,
    /// Whether this slot was answered this round (reset at boundary).
    answered_this_round: bool,
    /// Whether this slot led an execution this round.
    led_this_round: bool,
}

/// One flight-recorder frame: a compact end-of-round summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFrame {
    /// The round that just ended.
    pub round: u32,
    /// Cumulative plan-cache hits at the boundary.
    pub plan_hits: u64,
    /// Cumulative plan-cache misses at the boundary.
    pub plan_misses: u64,
    /// Health events raised at this boundary.
    pub events: Vec<HealthEvent>,
    /// Per-slot samples, ascending slot order (active slots only).
    pub slots: Vec<SlotSample>,
}

/// One slot's sample inside a [`RoundFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSample {
    /// Service slot.
    pub slot: u32,
    /// Whether the slot was answered this round.
    pub answered: bool,
    /// Staleness at the boundary.
    pub staleness: u32,
    /// Rank error of the latest answer.
    pub rank_error: u64,
    /// Cumulative joules since admission.
    pub joules: f64,
    /// Cumulative bits since admission.
    pub bits: u64,
    /// Validation-failure streak at the boundary.
    pub streak: u32,
}

impl RoundFrame {
    /// One JSONL line describing this frame.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            r#"{{"type":"round","round":{},"plan_hits":{},"plan_misses":{},"slots":["#,
            self.round, self.plan_hits, self.plan_misses
        );
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"slot":{},"answered":{},"staleness":{},"rank_error":{},"joules":{},"bits":{},"streak":{}}}"#,
                s.slot, s.answered, s.staleness, s.rank_error, s.joules, s.bits, s.streak
            );
        }
        out.push_str("]}");
        out
    }
}

/// Fixed-capacity ring of the most recent [`RoundFrame`]s.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    frames: Vec<RoundFrame>,
    capacity: usize,
    /// Index of the oldest frame once the ring has wrapped.
    start: usize,
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` frames (`0` is
    /// clamped to 1 — a recorder that can hold nothing records nothing
    /// useful).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            frames: Vec::new(),
            capacity: capacity.max(1),
            start: 0,
        }
    }

    /// Appends a frame, evicting the oldest when full.
    pub fn push(&mut self, frame: RoundFrame) {
        if self.frames.len() < self.capacity {
            self.frames.push(frame);
        } else {
            self.frames[self.start] = frame;
            self.start = (self.start + 1) % self.capacity;
        }
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Maximum frames held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames in chronological order (oldest first).
    pub fn frames(&self) -> impl Iterator<Item = &RoundFrame> {
        let (tail, head) = self.frames.split_at(self.start);
        head.iter().chain(tail.iter())
    }

    /// The recorder's contents as JSONL (one `round` line per frame).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in self.frames() {
            out.push_str(&f.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// The monitoring plane: registry rows, watchdogs and the flight
/// recorder. Fed by the serve runner; read by exporters and the CLI.
#[derive(Debug, Clone)]
pub struct Monitor {
    config: MonitorConfig,
    rows: Vec<Option<QueryRow>>,
    events: Vec<HealthEvent>,
    recorder: FlightRecorder,
    /// JSONL snapshot of the ring taken when the first event fired.
    postmortem: Option<String>,
    plan_hits: u64,
    plan_misses: u64,
    /// Events raised by the most recent `end_round` (index into
    /// `events`).
    round_events_from: usize,
    cache_fired: bool,
}

impl Monitor {
    /// An empty monitor with the given thresholds.
    pub fn new(config: MonitorConfig) -> Self {
        Monitor {
            recorder: FlightRecorder::new(config.recorder_capacity),
            config,
            rows: Vec::new(),
            events: Vec::new(),
            postmortem: None,
            plan_hits: 0,
            plan_misses: 0,
            round_events_from: 0,
            cache_fired: false,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Registers a query into `slot` at the start of `round`.
    pub fn register(
        &mut self,
        slot: u32,
        round: u32,
        algorithm: &str,
        phi_milli: u32,
        epoch: u32,
        tolerance: u64,
    ) {
        let idx = slot as usize;
        if idx >= self.rows.len() {
            self.rows.resize_with(idx + 1, || None);
        }
        self.rows[idx] = Some(QueryRow {
            slot,
            algorithm: algorithm.to_string(),
            phi_milli,
            epoch,
            admitted: round,
            tolerance,
            active: true,
            last_answer_round: None,
            staleness: 0,
            answers: 0,
            last_rank_error: 0,
            max_rank_error: 0,
            joules: 0.0,
            bits: 0,
            validation_failure_streak: 0,
            lead_idle_streak: 0,
            fired: [false; HealthKind::COUNT],
            prev_bits: 0,
            prev_refinement_bits: 0,
            answered_this_round: false,
            led_this_round: false,
        });
    }

    /// Marks the query in `slot` retired (its row stays readable).
    pub fn retire(&mut self, slot: u32) {
        if let Some(row) = self.rows.get_mut(slot as usize).and_then(Option::as_mut) {
            row.active = false;
        }
    }

    /// Records one served answer for `slot` in `round` with its observed
    /// rank error, noting whether the slot led the execution.
    pub fn observe_answer(&mut self, slot: u32, round: u32, rank_error: u64, led: bool) {
        if let Some(row) = self.rows.get_mut(slot as usize).and_then(Option::as_mut) {
            row.last_answer_round = Some(round);
            row.answers += 1;
            row.last_rank_error = rank_error;
            row.max_rank_error = row.max_rank_error.max(rank_error);
            row.answered_this_round = true;
            row.led_this_round = led;
        }
    }

    /// Updates `slot`'s cumulative lane charges since admission (joules,
    /// total bits, refinement-phase bits). Call once per active slot per
    /// round, before [`Monitor::end_round`].
    pub fn observe_lane(&mut self, slot: u32, joules: f64, bits: u64, refinement_bits: u64) {
        if let Some(row) = self.rows.get_mut(slot as usize).and_then(Option::as_mut) {
            row.joules = joules;
            row.bits = bits;
            // Streak bookkeeping uses the per-round deltas; the cumulative
            // values land in the row directly.
            if row.answered_this_round {
                if refinement_bits > row.prev_refinement_bits {
                    row.validation_failure_streak += 1;
                } else {
                    row.validation_failure_streak = 0;
                }
            }
            if row.led_this_round {
                if bits == row.prev_bits {
                    row.lead_idle_streak += 1;
                } else {
                    row.lead_idle_streak = 0;
                }
            }
            row.prev_bits = bits;
            row.prev_refinement_bits = refinement_bits;
        }
    }

    /// Closes `round`: evaluates every watchdog, records a flight
    /// frame, and returns the events raised at this boundary.
    pub fn end_round(&mut self, round: u32, plan_hits: u64, plan_misses: u64) -> &[HealthEvent] {
        self.plan_hits = plan_hits;
        self.plan_misses = plan_misses;
        self.round_events_from = self.events.len();

        let cfg = self.config;
        let mut raised: Vec<HealthEvent> = Vec::new();
        for row in self.rows.iter_mut().flatten() {
            if !row.active {
                continue;
            }
            row.staleness = match row.last_answer_round {
                Some(r) => round - r,
                None => round + 1 - row.admitted,
            };
            let mut fire = |row: &mut QueryRow, kind: HealthKind| {
                if !row.fired[kind.index()] {
                    row.fired[kind.index()] = true;
                    raised.push(HealthEvent {
                        round,
                        slot: Some(row.slot),
                        kind,
                    });
                }
            };
            if let Some(budget) = cfg.budget_joules {
                if row.joules > budget {
                    fire(
                        row,
                        HealthKind::BudgetOverrun {
                            joules: row.joules,
                            budget,
                        },
                    );
                }
            }
            if cfg.stale_limit > 0 && row.staleness >= cfg.stale_limit {
                fire(
                    row,
                    HealthKind::StaleAnswer {
                        staleness: row.staleness,
                        limit: cfg.stale_limit,
                    },
                );
            }
            if row.answered_this_round && row.last_rank_error > row.tolerance {
                fire(
                    row,
                    HealthKind::SloViolation {
                        rank_error: row.last_rank_error,
                        tolerance: row.tolerance,
                    },
                );
            }
            if cfg.dead_lane_limit > 0 && row.lead_idle_streak >= cfg.dead_lane_limit {
                fire(
                    row,
                    HealthKind::DeadLane {
                        idle_rounds: row.lead_idle_streak,
                        limit: cfg.dead_lane_limit,
                    },
                );
            }
            row.answered_this_round = false;
            row.led_this_round = false;
        }

        if !self.cache_fired && cfg.cache_window > 0 {
            let lookups = plan_hits + plan_misses;
            if lookups >= cfg.cache_window {
                let rate_milli = (plan_hits.saturating_mul(1000) / lookups) as u32;
                if rate_milli < cfg.cache_hit_floor_milli {
                    self.cache_fired = true;
                    raised.push(HealthEvent {
                        round,
                        slot: None,
                        kind: HealthKind::CacheThrash {
                            hits: plan_hits,
                            misses: plan_misses,
                            floor_milli: cfg.cache_hit_floor_milli,
                        },
                    });
                }
            }
        }

        let frame = RoundFrame {
            round,
            plan_hits,
            plan_misses,
            events: raised.clone(),
            slots: self
                .rows
                .iter()
                .flatten()
                .filter(|r| r.active)
                .map(|r| SlotSample {
                    slot: r.slot,
                    answered: r.last_answer_round == Some(round),
                    staleness: r.staleness,
                    rank_error: r.last_rank_error,
                    joules: r.joules,
                    bits: r.bits,
                    streak: r.validation_failure_streak,
                })
                .collect(),
        };
        self.recorder.push(frame);

        let first_event = self.events.is_empty() && !raised.is_empty();
        self.events.extend(raised);
        if first_event {
            // Post-mortem: the ring as it stood when monitoring first saw
            // trouble — the `capacity` rounds leading up to the failure.
            let mut dump = self.recorder.to_jsonl();
            for e in &self.events {
                dump.push_str(&e.to_json_line());
                dump.push('\n');
            }
            self.postmortem = Some(dump);
        }
        &self.events[self.round_events_from..]
    }

    /// All health events raised so far, in raise order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// True iff any watchdog fired.
    pub fn is_unhealthy(&self) -> bool {
        !self.events.is_empty()
    }

    /// The registry rows, ascending slot order (including retired rows).
    pub fn rows(&self) -> impl Iterator<Item = &QueryRow> {
        self.rows.iter().flatten()
    }

    /// One row by slot.
    pub fn row(&self, slot: u32) -> Option<&QueryRow> {
        self.rows.get(slot as usize).and_then(Option::as_ref)
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Plan-cache hit rate in milli-units (1000 when no lookups yet).
    pub fn cache_hit_rate_milli(&self) -> u32 {
        let lookups = self.plan_hits + self.plan_misses;
        self.plan_hits
            .saturating_mul(1000)
            .checked_div(lookups)
            .unwrap_or(1000) as u32
    }

    /// The JSONL dump: the ring snapshot taken at the first health event
    /// when one fired (the post-mortem), otherwise the current ring —
    /// `round` lines followed by one `health` line per event.
    pub fn health_jsonl(&self) -> String {
        if let Some(snap) = &self.postmortem {
            return snap.clone();
        }
        let mut out = self.recorder.to_jsonl();
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Appends the registry to a Prometheus dump: per-query gauges and
    /// counters labelled `slot`/`algorithm`/`phi_milli` (label values are
    /// escaped), plus service-global cache and health series.
    pub fn prom(&self, dump: &mut PromDump) {
        for row in self.rows() {
            let labels = format!(
                r#"slot="{}",algorithm="{}",phi_milli="{}""#,
                row.slot,
                escape_label(&row.algorithm),
                row.phi_milli
            );
            dump.gauge(
                "wsn_query_staleness_rounds",
                &labels,
                "rounds since the query last answered",
                row.staleness as f64,
            );
            dump.gauge(
                "wsn_query_max_rank_error",
                &labels,
                "worst observed rank error",
                row.max_rank_error as f64,
            );
            dump.gauge(
                "wsn_query_rank_tolerance",
                &labels,
                "certified eps*n rank tolerance (the accuracy SLO)",
                row.tolerance as f64,
            );
            dump.gauge(
                "wsn_query_lane_joules",
                &labels,
                "energy charged to the query lane since admission",
                row.joules,
            );
            dump.counter(
                "wsn_query_lane_bits_total",
                &labels,
                "bits charged to the query lane since admission",
                row.bits,
            );
            dump.counter(
                "wsn_query_answers_total",
                &labels,
                "answers delivered",
                row.answers,
            );
            dump.gauge(
                "wsn_query_validation_failure_streak",
                &labels,
                "consecutive answered rounds needing refinement",
                row.validation_failure_streak as f64,
            );
        }
        dump.counter(
            "wsn_plan_cache_hits_total",
            "",
            "traffic-plan cache hits",
            self.plan_hits,
        );
        dump.counter(
            "wsn_plan_cache_misses_total",
            "",
            "traffic-plan cache misses",
            self.plan_misses,
        );
        dump.gauge(
            "wsn_plan_cache_hit_rate_milli",
            "",
            "plan-cache hit rate in milli-units",
            self.cache_hit_rate_milli() as f64,
        );
        let mut by_kind = [0u64; HealthKind::COUNT];
        for e in &self.events {
            by_kind[e.kind.index()] += 1;
        }
        for (i, name) in [
            "budget_overrun",
            "stale_answer",
            "slo_violation",
            "dead_lane",
            "cache_thrash",
        ]
        .iter()
        .enumerate()
        {
            dump.counter(
                "wsn_health_events_total",
                &format!(r#"kind="{name}""#),
                "watchdog events raised",
                by_kind[i],
            );
        }
    }

    /// A text status table of the registry as of the last round boundary.
    pub fn status_table(&self) -> String {
        let mut out = String::from(
            "slot alg        phi  epoch stale maxerr tol  answers lane_mj    bits       streak state\n",
        );
        for row in self.rows() {
            let _ = writeln!(
                out,
                "{:<4} {:<10} {:<4} {:<5} {:<5} {:<6} {:<4} {:<7} {:<10.4} {:<10} {:<6} {}",
                row.slot,
                row.algorithm,
                row.phi_milli,
                row.epoch,
                row.staleness,
                row.max_rank_error,
                row.tolerance,
                row.answers,
                row.joules * 1e3,
                row.bits,
                row.validation_failure_streak,
                if row.active { "active" } else { "retired" },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(cfg: MonitorConfig) -> Monitor {
        let mut m = Monitor::new(cfg);
        m.register(0, 0, "IQ", 500, 1, 0);
        m
    }

    #[test]
    fn budget_overrun_latches_on_first_crossing() {
        let mut m = monitor(MonitorConfig {
            budget_joules: Some(1e-3),
            ..MonitorConfig::default()
        });
        m.observe_answer(0, 0, 0, true);
        m.observe_lane(0, 5e-4, 100, 0);
        assert!(m.end_round(0, 0, 1).is_empty(), "under budget");
        m.observe_answer(0, 1, 0, true);
        m.observe_lane(0, 2e-3, 200, 0);
        let events = m.end_round(1, 0, 2).to_vec();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].round, 1);
        assert_eq!(events[0].slot, Some(0));
        assert!(matches!(
            events[0].kind,
            HealthKind::BudgetOverrun { budget, .. } if budget == 1e-3
        ));
        // Latched: staying over budget raises nothing new.
        m.observe_answer(0, 2, 0, true);
        m.observe_lane(0, 3e-3, 300, 0);
        assert!(m.end_round(2, 0, 3).is_empty());
        assert_eq!(m.events().len(), 1);
        assert!(m.is_unhealthy());
    }

    #[test]
    fn staleness_counts_from_last_answer_or_admission() {
        let mut m = monitor(MonitorConfig {
            stale_limit: 3,
            ..MonitorConfig::default()
        });
        m.observe_answer(0, 0, 0, true);
        m.observe_lane(0, 0.0, 10, 0);
        m.end_round(0, 0, 1);
        assert_eq!(m.row(0).unwrap().staleness, 0);
        for t in 1..3 {
            m.observe_lane(0, 0.0, 10, 0);
            assert!(m.end_round(t, 0, 1).is_empty(), "round {t}");
        }
        m.observe_lane(0, 0.0, 10, 0);
        let events = m.end_round(3, 0, 1).to_vec();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            HealthKind::StaleAnswer {
                staleness: 3,
                limit: 3
            }
        ));
        // A never-answered query counts from admission.
        let mut m2 = monitor(MonitorConfig {
            stale_limit: 2,
            ..MonitorConfig::default()
        });
        m2.end_round(0, 0, 0);
        assert_eq!(m2.row(0).unwrap().staleness, 1);
        let events = m2.end_round(1, 0, 0).to_vec();
        assert_eq!(events.len(), 1, "staleness 2 hits the limit");
    }

    #[test]
    fn slo_violation_compares_against_the_tolerance() {
        let mut m = Monitor::new(MonitorConfig::default());
        m.register(3, 0, "QD", 250, 1, 5);
        m.observe_answer(3, 0, 5, true);
        m.observe_lane(3, 0.0, 10, 0);
        assert!(m.end_round(0, 0, 1).is_empty(), "at tolerance is fine");
        m.observe_answer(3, 1, 6, true);
        m.observe_lane(3, 0.0, 20, 0);
        let events = m.end_round(1, 0, 2).to_vec();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            HealthKind::SloViolation {
                rank_error: 6,
                tolerance: 5
            }
        ));
    }

    #[test]
    fn dead_lane_needs_consecutive_zero_bit_led_rounds() {
        let mut m = monitor(MonitorConfig {
            dead_lane_limit: 2,
            ..MonitorConfig::default()
        });
        // Led round with traffic: streak resets.
        m.observe_answer(0, 0, 0, true);
        m.observe_lane(0, 1e-6, 100, 0);
        m.end_round(0, 0, 1);
        // Two led rounds with no new bits.
        m.observe_answer(0, 1, 0, true);
        m.observe_lane(0, 1e-6, 100, 0);
        assert!(m.end_round(1, 0, 1).is_empty());
        m.observe_answer(0, 2, 0, true);
        m.observe_lane(0, 1e-6, 100, 0);
        let events = m.end_round(2, 0, 1).to_vec();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, HealthKind::DeadLane { .. }));
        // A follower (led = false) never trips the watchdog.
        let mut f = monitor(MonitorConfig {
            dead_lane_limit: 1,
            stale_limit: 0,
            ..MonitorConfig::default()
        });
        for t in 0..5 {
            f.observe_answer(0, t, 0, false);
            f.observe_lane(0, 0.0, 0, 0);
            assert!(f.end_round(t, 0, 1).is_empty(), "round {t}");
        }
    }

    #[test]
    fn cache_thrash_arms_after_the_window() {
        let mut m = Monitor::new(MonitorConfig {
            cache_window: 4,
            cache_hit_floor_milli: 500,
            ..MonitorConfig::default()
        });
        assert!(m.end_round(0, 0, 2).is_empty(), "window not reached");
        let events = m.end_round(1, 1, 4).to_vec();
        assert_eq!(events.len(), 1, "5 lookups, 20% hits < 50% floor");
        assert_eq!(events[0].slot, None);
        assert!(matches!(
            events[0].kind,
            HealthKind::CacheThrash {
                hits: 1,
                misses: 4,
                floor_milli: 500
            }
        ));
        // Latched.
        assert!(m.end_round(2, 1, 6).is_empty());
        // A healthy cache never fires.
        let mut ok = Monitor::new(MonitorConfig {
            cache_window: 4,
            cache_hit_floor_milli: 500,
            ..MonitorConfig::default()
        });
        for t in 0..8 {
            assert!(ok.end_round(t, 10, 2).is_empty());
        }
        assert_eq!(ok.cache_hit_rate_milli(), 833);
    }

    #[test]
    fn validation_failure_streak_follows_refinement_deltas() {
        let mut m = monitor(MonitorConfig::default());
        m.observe_answer(0, 0, 0, true);
        m.observe_lane(0, 0.0, 100, 40);
        m.end_round(0, 0, 1);
        assert_eq!(m.row(0).unwrap().validation_failure_streak, 1);
        m.observe_answer(0, 1, 0, true);
        m.observe_lane(0, 0.0, 150, 80);
        m.end_round(1, 0, 1);
        assert_eq!(m.row(0).unwrap().validation_failure_streak, 2);
        // A validation-only round resets the streak.
        m.observe_answer(0, 2, 0, true);
        m.observe_lane(0, 0.0, 160, 80);
        m.end_round(2, 0, 1);
        assert_eq!(m.row(0).unwrap().validation_failure_streak, 0);
    }

    #[test]
    fn flight_recorder_ring_keeps_the_newest_frames() {
        let mut rec = FlightRecorder::new(3);
        for round in 0..5 {
            rec.push(RoundFrame {
                round,
                plan_hits: 0,
                plan_misses: 0,
                events: Vec::new(),
                slots: Vec::new(),
            });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        let rounds: Vec<u32> = rec.frames().map(|f| f.round).collect();
        assert_eq!(rounds, vec![2, 3, 4], "oldest first, newest kept");
    }

    #[test]
    fn postmortem_snapshots_the_ring_at_first_event() {
        let mut m = monitor(MonitorConfig {
            budget_joules: Some(1e-6),
            recorder_capacity: 2,
            ..MonitorConfig::default()
        });
        m.observe_answer(0, 0, 0, true);
        m.observe_lane(0, 0.0, 0, 0);
        m.end_round(0, 0, 1);
        m.observe_answer(0, 1, 0, true);
        m.observe_lane(0, 1e-3, 100, 0);
        m.end_round(1, 0, 1);
        let snap = m.health_jsonl();
        assert!(snap.contains(r#""type":"round","round":0"#));
        assert!(snap.contains(r#""kind":"budget_overrun""#));
        // Later rounds do not disturb the post-mortem.
        m.observe_answer(0, 2, 0, true);
        m.observe_lane(0, 2e-3, 200, 0);
        m.end_round(2, 0, 1);
        assert_eq!(m.health_jsonl(), snap);
    }

    #[test]
    fn health_jsonl_without_events_is_the_live_ring() {
        let mut m = monitor(MonitorConfig::default());
        m.observe_answer(0, 0, 2, true);
        // tolerance 0, rank_error 2 would fire SloViolation — use a clean
        // answer instead.
        let mut clean = monitor(MonitorConfig::default());
        clean.observe_answer(0, 0, 0, true);
        clean.observe_lane(0, 1e-6, 64, 0);
        clean.end_round(0, 3, 1);
        let dump = clean.health_jsonl();
        assert!(dump.contains(r#""type":"round""#));
        assert!(!dump.contains(r#""type":"health""#));
        drop(m);
    }

    #[test]
    fn prom_dump_carries_per_query_series_and_health_counters() {
        let mut m = Monitor::new(MonitorConfig::default());
        m.register(0, 0, "IQ", 500, 1, 0);
        m.register(1, 0, "QD\"x\\y", 250, 2, 9);
        m.observe_answer(0, 0, 0, true);
        m.observe_lane(0, 1.5e-3, 640, 0);
        m.end_round(0, 2, 1);
        let mut dump = PromDump::new();
        m.prom(&mut dump);
        let text = dump.finish();
        assert_eq!(
            text.matches("# TYPE wsn_query_lane_joules gauge").count(),
            1
        );
        assert!(text
            .contains(r#"wsn_query_lane_joules{slot="0",algorithm="IQ",phi_milli="500"} 0.0015"#));
        assert!(text.contains(r#"algorithm="QD\"x\\y""#), "labels escaped");
        assert!(text.contains(r#"wsn_health_events_total{kind="budget_overrun"} 0"#));
        assert!(text.contains("wsn_plan_cache_hit_rate_milli 666"));
    }

    #[test]
    fn status_table_lists_every_row() {
        let mut m = Monitor::new(MonitorConfig::default());
        m.register(0, 0, "IQ", 500, 1, 0);
        m.register(2, 0, "TAG", 1000, 4, 0);
        m.retire(2);
        let table = m.status_table();
        assert!(table.contains("slot"));
        assert!(table.contains("IQ"));
        assert!(table.contains("retired"));
    }

    #[test]
    fn round_frame_json_lines_are_flat_objects() {
        let frame = RoundFrame {
            round: 7,
            plan_hits: 3,
            plan_misses: 1,
            events: Vec::new(),
            slots: vec![SlotSample {
                slot: 0,
                answered: true,
                staleness: 0,
                rank_error: 2,
                joules: 1e-4,
                bits: 512,
                streak: 1,
            }],
        };
        let line = frame.to_json_line();
        assert!(line.starts_with(r#"{"type":"round","round":7"#));
        assert!(line.contains(r#""slots":[{"slot":0,"answered":true"#));
        let ev = HealthEvent {
            round: 7,
            slot: None,
            kind: HealthKind::CacheThrash {
                hits: 1,
                misses: 9,
                floor_milli: 100,
            },
        };
        assert!(ev.to_json_line().contains(r#""slot":null"#));
    }
}
