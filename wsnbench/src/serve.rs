//! `serve_64q`: 64 continuous queries (8 distinct ones, so the service
//! runs 8 executions per round and copies the rest) on one audited,
//! monitored 1000-sensor network with shared frames. A unit is one
//! `serve_monitored` session.

use wsn_net::obs::{Monitor, MonitorConfig};
use wsn_net::{lane_breakdowns, EnergyAuditor, Network};
use wsn_sim::parity::serve_report_digest;
use wsn_sim::runner::build_world;
use wsn_sim::{serve_monitored, DataSource, Scenario, ServeQuery, ServeReport, SimulationConfig};

use crate::common::{
    catch, mix, probe, run_rng, timed, traced_unit, Budget, NetCounts, Outcome, Workload,
};
use crate::stats::median;
use crate::trace::Tracer;

pub struct Serve {
    seed: u64,
    nodes: usize,
    rounds: u32,
    queries: u32,
    reference_sessions: usize,
    setup_worlds: u64,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        Serve {
            seed,
            nodes: 1000,
            rounds: 300,
            queries: 64,
            reference_sessions: 3,
            setup_worlds: 25,
        }
    }

    /// The same workload on 40 sensors for 12 rounds, for tests.
    #[cfg(test)]
    pub fn smoke(seed: u64) -> Serve {
        Serve {
            seed,
            nodes: 40,
            rounds: 12,
            queries: 16,
            reference_sessions: 2,
            setup_worlds: 2,
        }
    }

    /// The session-`i` scenario (audit on, as `to_config` sets it).
    fn scenario(&self, i: u64) -> Scenario {
        Scenario {
            seed: mix(self.seed, i),
            nodes: self.nodes,
            range_milli: 2500,
            rounds: self.rounds,
            runs: 1,
            phi_milli: 500,
            loss_milli: 0,
            retries: 0,
            recovery: 0,
            failure_milli: 0,
            eps_milli: 100,
            capacity: 0,
            queries: self.queries,
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

    fn set_up(cfg: &SimulationConfig) -> Network {
        let (_, topo, tree) = build_world(cfg, &mut run_rng(cfg.seed, 0));
        Network::new(topo, tree, cfg.radio, cfg.sizes)
    }

    /// Checks a session and folds reference sessions into the reference.
    fn judge(&self, out: &mut Outcome, i: usize, report: &ServeReport, net: &Network) -> bool {
        if i < self.reference_sessions {
            let rounds = report.rounds.max(1) as f64;
            out.reference.add(
                &serve_report_digest(report, net),
                net.ledger().max_sensor_consumption() / rounds,
                report.total_bits as f64 / rounds,
            );
            out.reference
                .add_counts(NetCounts::of(net), report.rounds as u64);
        }
        report.audit_discrepancies == 0
            && report
                .queries
                .iter()
                .all(|q| q.max_rank_error <= q.rank_tolerance)
    }
}

fn session(
    cfg: &SimulationConfig,
    workload: &[ServeQuery],
    monitor: bool,
) -> (ServeReport, Option<Monitor>, Network) {
    let mc = MonitorConfig::default();
    serve_monitored(cfg, workload, &[], true, 0, monitor.then_some(&mc))
}

impl Workload for Serve {
    fn reference_units(&self) -> usize {
        self.reference_sessions
    }

    fn unit(&self) -> &'static str {
        "one monitored, audited serve session"
    }

    fn measure(&self, budget: &mut Budget) -> Outcome {
        let mut out = Outcome::default();
        for i in 0..self.setup_worlds {
            let cfg = self.scenario(i).to_config();
            out.setup_s.push(timed(|| Self::set_up(&cfg)).0);
        }
        let workload = self.scenario(0).workload();
        let mut i = 0;
        while budget.more(i) {
            let cfg = self.scenario(i as u64).to_config();
            let (dt, run) = timed(|| catch(|| session(&cfg, &workload, true)));
            out.unit_s.push(dt);
            let ok = run.is_ok_and(|(report, _, net)| self.judge(&mut out, i, &report, &net));
            out.record(ok);
            i += 1;
        }
        out
    }

    /// Besides each session, times the audit replay and lane replay on its
    /// network and two comparison sessions, one without the monitor and
    /// one without the audit log (spans in layer `baseline`).
    fn trace(&self, budget: &mut Budget, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        for i in 0..self.setup_worlds {
            let cfg = self.scenario(i).to_config();
            let start = tr.elapsed_ns();
            let (_, topo, tree) = tr.span("setup", "world", || {
                build_world(&cfg, &mut run_rng(cfg.seed, 0))
            });
            tr.span("setup", "network", || {
                Network::new(topo, tree, cfg.radio, cfg.sizes)
            });
            out.setup_s.push((tr.elapsed_ns() - start) as f64 * 1e-9);
        }
        let workload = self.scenario(0).workload();
        let (mut executions, mut served, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
        let (mut health, mut events, mut rounds) = (0usize, 0u64, 0u64);
        let mut last_tree = None;
        let mut i = 0;
        while budget.more(i) {
            let cfg = self.scenario(i as u64).to_config();
            tr.set_unit(i as u32);
            let (dt, run) = traced_unit(tr, "session", |tr| {
                tr.span("service", "serve_monitored", || {
                    session(&cfg, &workload, true)
                })
            });
            out.unit_s.push(dt);
            let Ok((report, monitor, net)) = run else {
                out.record(false);
                i += 1;
                continue;
            };
            let mut ok = tr.span("parity", "serve_report_digest", || {
                self.judge(&mut out, i, &report, &net)
            });
            let audit = tr.span("audit", "verify", || EnergyAuditor::verify(&net));
            let lanes = tr.span("audit", "lane_replay", || {
                lane_breakdowns(net.audit_log(), report.lanes.len())
            });
            ok &= audit.is_clean() && lanes == report.lanes;
            if i < self.reference_sessions {
                executions += report.executions;
                served += report.served;
                hits += report.plan_hits;
                misses += report.plan_misses;
                health += monitor.map_or(0, |m| m.events().len());
                events += audit.events;
                rounds += report.rounds as u64;
            }
            out.traced_counts.add(&NetCounts::of(&net));
            last_tree = Some((net.topology().clone(), net.tree().clone()));
            drop(net);
            let plain = tr.span("baseline", "no_monitor", || {
                catch(|| session(&cfg, &workload, false))
            });
            ok &= plain.is_ok_and(|(r, _, _)| r == report);
            let unaudited = SimulationConfig {
                audit: false,
                ..cfg.clone()
            };
            let quiet = tr.span("baseline", "no_audit", || {
                catch(|| session(&unaudited, &workload, true))
            });
            ok &= quiet.is_ok();
            out.record(ok);
            i += 1;
        }
        if let Some((topo, tree)) = last_tree {
            out.probe = Some(probe(&topo, &tree, tr));
        }
        let session_s = median(&tr.durations_s("service", None));
        let ratio = |name| session_s / median(&tr.durations_s("baseline", Some(name)));
        let sessions = self.reference_sessions.max(1) as f64;
        out.extras = vec![
            (
                "service.executions_per_round",
                executions as f64 / rounds.max(1) as f64,
            ),
            (
                "service.dedup_ratio",
                served as f64 / executions.max(1) as f64,
            ),
            (
                "service.plan_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("monitor.overhead_ratio", ratio("no_monitor")),
            ("monitor.health_events", health as f64 / sessions),
            (
                "audit.events_per_round",
                events as f64 / rounds.max(1) as f64,
            ),
            ("audit.overhead_ratio", ratio("no_audit")),
        ];
        out
    }
}
