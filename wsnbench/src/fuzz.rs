//! `fuzz_mixed`: the scenario fuzzer over thousands of tiny lossy,
//! dynamic and serve worlds, heavy on set-up, audit and checks. A unit is
//! one `wsn_check::fuzz` segment of 50 scenarios from its own master seed.

use wsn_check::{gen, invariants, FuzzReport, Tally};
use wsn_net::{Network, RoutingTree, Topology};
use wsn_sim::runner::build_world;

use crate::common::{catch, mix, probe, run_rng, timed, traced_unit, Budget, Outcome, Workload};
use crate::trace::Tracer;

pub struct Fuzz {
    seed: u64,
    segment: u64,
    reference_segments: usize,
    setup_worlds: u64,
}

impl Fuzz {
    pub fn new(seed: u64) -> Fuzz {
        Fuzz {
            seed,
            segment: 50,
            reference_segments: 20,
            setup_worlds: 200,
        }
    }

    /// The same workload with 6-scenario segments, for tests.
    #[cfg(test)]
    pub fn smoke(seed: u64) -> Fuzz {
        Fuzz {
            seed,
            segment: 6,
            reference_segments: 2,
            setup_worlds: 3,
        }
    }

    /// Builds the world and network of scenario `j` of the first segment;
    /// `None` when the generator drew a world with no connected placement
    /// (the invariant battery reports those itself).
    fn set_up(&self, j: u64) -> Option<Network> {
        let cfg = gen::scenario(mix(self.seed, 0), j).to_config();
        let (_, topo, tree) = catch(|| build_world(&cfg, &mut run_rng(cfg.seed, 0))).ok()?;
        Some(Network::new(topo, tree, cfg.radio, cfg.sizes))
    }

    fn refer(&self, out: &mut Outcome, i: usize, report: &FuzzReport) {
        if i < self.reference_segments {
            out.reference.digest.push(report.summary().as_bytes());
        }
    }
}

/// The gen + check loop inside `wsn_check::fuzz` (without shrinking,
/// which only runs on failures), with a span around each call. Returns
/// the summed tally and the failing scenario count.
pub fn traced_segment(tr: &mut Tracer, master: u64, count: u64) -> (Tally, u64) {
    let mut tally = Tally::default();
    let mut failures = 0;
    for j in 0..count {
        let s = tr.span("check", "gen", || gen::scenario(master, j));
        let report = tr.span("check", "invariants", || invariants::check(&s));
        tally.add(&report.tally);
        failures += !report.violations.is_empty() as u64;
    }
    (tally, failures)
}

impl Workload for Fuzz {
    fn reference_units(&self) -> usize {
        self.reference_segments
    }

    fn unit(&self) -> &'static str {
        "one fuzz segment of 50 scenarios"
    }

    fn measure(&self, budget: &mut Budget) -> Outcome {
        let mut out = Outcome::default();
        for j in 0..self.setup_worlds {
            let (dt, net) = timed(|| self.set_up(j));
            if net.is_some() {
                out.setup_s.push(dt);
            }
        }
        let mut i = 0;
        while budget.more(i) {
            let master = mix(self.seed, i as u64);
            let (dt, run) = timed(|| catch(|| wsn_check::fuzz(master, self.segment, 1)));
            out.unit_s.push(dt);
            out.attempted += self.segment;
            match run {
                Ok(report) => {
                    out.failed += report.failures.len() as u64;
                    self.refer(&mut out, i, &report);
                }
                Err(_) => out.failed += self.segment,
            }
            i += 1;
        }
        out
    }

    fn trace(&self, budget: &mut Budget, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut largest: Option<(Topology, RoutingTree)> = None;
        for j in 0..self.setup_worlds {
            let cfg = gen::scenario(mix(self.seed, 0), j).to_config();
            let (start, depth) = (tr.elapsed_ns(), tr.depth());
            let built = catch(|| {
                tr.span("setup", "world", || {
                    build_world(&cfg, &mut run_rng(cfg.seed, 0))
                })
            });
            let Ok((_, topo, tree)) = built else {
                tr.unwind_to(depth);
                continue;
            };
            let net = tr.span("setup", "network", || {
                Network::new(topo, tree, cfg.radio, cfg.sizes)
            });
            out.setup_s.push((tr.elapsed_ns() - start) as f64 * 1e-9);
            if largest.as_ref().is_none_or(|(t, _)| t.len() < net.len()) {
                largest = Some((net.topology().clone(), net.tree().clone()));
            }
        }
        let (mut tally, mut scenarios, mut violations) = (Tally::default(), 0u64, 0u64);
        let mut i = 0;
        while budget.more(i) {
            let master = mix(self.seed, i as u64);
            tr.set_unit(i as u32);
            let (dt, run) =
                traced_unit(tr, "segment", |tr| traced_segment(tr, master, self.segment));
            out.unit_s.push(dt);
            out.attempted += self.segment;
            match run {
                Ok((t, failures)) => {
                    out.failed += failures;
                    violations += failures;
                    let report = FuzzReport {
                        master_seed: master,
                        scenarios: self.segment,
                        tally: t,
                        failures: Vec::new(),
                    };
                    self.refer(&mut out, i, &report);
                    if i < self.reference_segments {
                        tally.add(&t);
                        scenarios += self.segment;
                    }
                }
                Err(_) => out.failed += self.segment,
            }
            i += 1;
        }
        if let Some((topo, tree)) = largest {
            out.probe = Some(probe(&topo, &tree, tr));
        }
        let checks = tally.batteries
            + tally.audit
            + tally.telemetry
            + tally.exactness
            + tally.parity
            + tally.metamorphic
            + tally.serve
            + tally.watchdog;
        out.extras = vec![
            (
                "check.checks_per_scenario",
                checks as f64 / scenarios.max(1) as f64,
            ),
            ("check.violations", violations as f64),
        ];
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_segments_reproduce_the_fuzz_tally() {
        for master in [1, 42] {
            let (tally, failures) = traced_segment(&mut Tracer::default(), master, 12);
            let report = wsn_check::fuzz(master, 12, 1);
            assert_eq!(tally, report.tally);
            assert_eq!(failures, report.failures.len() as u64);
        }
    }
}
