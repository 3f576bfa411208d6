//! Ad-hoc simulation CLI: run any protocol on any workload configuration
//! and print the §5.1 metrics — or a per-round CSV trace for plotting.
//!
//! ```text
//! simulate --algorithm IQ --nodes 500 --rounds 250 --runs 5
//! simulate --algorithm HBC --dataset pressure --skip 8 --range pessimistic
//! simulate --algorithm POS --loss 0.05
//! simulate --algorithm IQ --csv trace.csv       # one traced run as CSV
//! simulate --all --nodes 300                    # compare every protocol
//! simulate --algorithm IQ --events run.trace.json --capture run.jsonl \
//!          --metrics-out metrics.prom           # telemetry exporters
//! simulate diff a.jsonl b.jsonl                 # first divergent frame
//! simulate fuzz --scenarios 1000 --seed 42      # invariant fuzz campaign
//! simulate fuzz --repro '{"seed":4807,...}'     # replay one repro line
//! simulate scale --nodes 10000 --rounds 200     # engine throughput gate
//! ```

use std::io::Write;
use std::str::FromStr;

use cqp_core::service::{QuerySpec, Service};
use wsn_bench::cli::{usage_error, Argv};
use wsn_bench::json::Json;
use wsn_data::pressure::{PressureConfig, RangeSetting};
use wsn_data::synthetic::SyntheticConfig;
use wsn_net::EnergyAuditor;
use wsn_sim::config::{AlgorithmKind, DatasetSpec, SimulationConfig};
use wsn_sim::metrics::AggregatedMetrics;
use wsn_sim::runner::run_experiment_threads;
use wsn_sim::{ServeEvent, World};

#[derive(Debug)]
struct Args {
    algorithm: Option<AlgorithmKind>,
    all: bool,
    nodes: usize,
    rounds: u32,
    runs: u32,
    phi: f64,
    rho: f64,
    period: u32,
    noise: f64,
    dataset: String,
    skip: u32,
    range: String,
    loss: Option<f64>,
    retries: u32,
    recovery: u32,
    node_failures: Option<f64>,
    mobility: bool,
    churn: bool,
    drift: bool,
    duty: bool,
    audit: bool,
    seed: u64,
    csv: Option<String>,
    json: Option<String>,
    events: Option<String>,
    capture: Option<String>,
    metrics_out: Option<String>,
    threads: usize,
}

impl Args {
    /// True when a traced-run artifact was asked for.
    fn traced(&self) -> bool {
        self.csv.is_some() || self.events.is_some() || self.capture.is_some()
    }
}

impl Default for Args {
    fn default() -> Self {
        Args {
            algorithm: None,
            all: false,
            nodes: 1000,
            rounds: 250,
            runs: 5,
            phi: 0.5,
            rho: 35.0,
            period: 125,
            noise: 10.0,
            dataset: "synthetic".into(),
            skip: 1,
            range: "optimistic".into(),
            loss: None,
            retries: 0,
            recovery: 0,
            node_failures: None,
            mobility: false,
            churn: false,
            drift: false,
            duty: false,
            audit: false,
            seed: 0xC0FFEE,
            csv: None,
            json: None,
            events: None,
            capture: None,
            metrics_out: None,
            threads: wsn_sim::parallel::thread_count(),
        }
    }
}

/// Every protocol the CLI runs, in `--all` order. The sketch family sits
/// at the default ε = 0.1 and derived capacity; pick other operating
/// points through the library API.
const ALGORITHMS: [AlgorithmKind; 12] = [
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
    AlgorithmKind::QDigest { eps_milli: 100 },
    AlgorithmKind::GkSink {
        eps_milli: 100,
        capacity: 0,
    },
];

const POSITIVE: &str = "a positive integer";
const UNIT: &str = "a fraction in [0, 1]";

fn in_unit(p: &f64) -> bool {
    (0.0..=1.0).contains(p)
}

fn parse_args(argv: Vec<String>) -> Args {
    let mut args = Args::default();
    let mut argv = Argv::new(argv, USAGE);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--algorithm" | "-a" => {
                let name = argv.value(&flag);
                let kind = ALGORITHMS
                    .into_iter()
                    .find(|a| a.name().eq_ignore_ascii_case(&name));
                args.algorithm =
                    Some(kind.unwrap_or_else(|| argv.fail(format!("unknown algorithm {name}"))));
            }
            "--all" => args.all = true,
            "--nodes" | "-n" => args.nodes = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--rounds" => args.rounds = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--runs" => args.runs = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--phi" => args.phi = argv.parse(&flag, UNIT, in_unit),
            "--rho" => {
                let domain = "a positive finite radio range";
                args.rho = argv.parse(&flag, domain, |r: &f64| r.is_finite() && *r > 0.0)
            }
            "--period" => args.period = argv.parse(&flag, POSITIVE, |&t| t > 0),
            "--noise" => {
                let domain = "a percentage in [0, 100]";
                args.noise = argv.parse(&flag, domain, |p| (0.0..=100.0).contains(p))
            }
            "--dataset" => args.dataset = argv.value(&flag),
            "--skip" => args.skip = argv.parse(&flag, POSITIVE, |&s| s > 0),
            "--range" => args.range = argv.value(&flag),
            "--loss" => args.loss = Some(argv.parse(&flag, UNIT, in_unit)),
            "--retries" => args.retries = argv.parse(&flag, "a retry count", |_| true),
            "--recovery" => args.recovery = argv.parse(&flag, "a pass count", |_| true),
            "--node-failures" => args.node_failures = Some(argv.parse(&flag, UNIT, in_unit)),
            "--mobility" => args.mobility = true,
            "--churn" => args.churn = true,
            "--drift" => args.drift = true,
            "--duty" => args.duty = true,
            "--audit" => args.audit = true,
            "--seed" => args.seed = argv.parse(&flag, "a seed", |_| true),
            "--csv" => args.csv = Some(argv.value(&flag)),
            "--json" => args.json = Some(argv.value(&flag)),
            "--events" => args.events = Some(argv.value(&flag)),
            "--capture" => args.capture = Some(argv.value(&flag)),
            "--metrics-out" => args.metrics_out = Some(argv.value(&flag)),
            "--threads" => args.threads = parse_threads(&mut argv, &flag),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => argv.fail(format!("unknown argument {other}")),
        }
    }
    if args.algorithm.is_none() && !args.all {
        argv.fail("pass --algorithm <name> or --all");
    }
    if args.all && args.traced() {
        argv.fail("--csv/--events/--capture trace one --algorithm, not --all");
    }
    args
}

/// A `--threads` value: any count, 0 meaning 1.
fn parse_threads(argv: &mut Argv, flag: &str) -> usize {
    argv.parse::<usize>(flag, "a thread count", |_| true).max(1)
}

const USAGE: &str = "usage: simulate (--algorithm TAG|POS|LCLL-H|LCLL-S|LCLL-R|HBC|HBC-nb|IQ|Adaptive|GK|QD|GKS | --all)
                [--nodes N] [--rounds R] [--runs K] [--phi F] [--rho M]
                [--dataset synthetic|pressure|walk|regime] [--period T] [--noise PSI]
                [--skip S] [--range optimistic|pessimistic]
                [--loss P] [--retries R] [--recovery PASSES] [--node-failures P]
                [--mobility] [--churn] [--drift] [--duty]
                [--audit] [--seed S] [--csv FILE] [--json FILE] [--threads N]
                [--events FILE] [--capture FILE] [--metrics-out FILE]
       simulate diff A.jsonl B.jsonl
       simulate fuzz [--scenarios N] [--seed S] [--threads N]
                     [--corpus FILE] [--repro LINE]
       simulate scale [--nodes N] [--rounds R] [--seed S] [--budget-secs T]
       simulate serve [--queries Q] [--nodes N] [--rounds R] [--phi F]
                      [--seed S] [--shared] [--audit]
                      [--admit ROUND:PHI_MILLI] [--retire ROUND:SLOT]
                      [--digest] [--json FILE]
                      [--monitor] [--budget-mj X] [--health-json FILE]
                      [--metrics-out FILE] [--status-every N]
       simulate bench-diff BASELINE.json CURRENT.json [--tolerance X]

Every unknown flag, missing value or value outside its domain prints this
text and exits with status 2.

--audit replays every recorded transmission through the energy auditor and
prints the per-phase energy breakdown; any ledger discrepancy makes the
process exit with status 1. --json additionally writes the aggregated
metrics (including per-phase energy/bits and audit counters) to FILE.

Dynamic worlds (DESIGN.md §3.3k), each flag at a fixed documented
operating point: --mobility moves every sensor on a waypoint walk by
0.25 radio ranges each 4-round epoch (the sink stays put); --churn
toggles each sensor alive/dead with probability 1% per round (joins
re-place the node); --drift random-walks the link-loss probability with
amplitude 0.1 around the --loss base (inert without --loss); --duty
charges a 10% idle-listen duty cycle to every alive sensor's ledger each
round. Mobility and churn rebuild the routing tree (charged to the
`rebuild` phase and replayed bit-exactly under --audit).

Telemetry exporters (one traced run, like --csv): --events writes a
Chrome-trace/Perfetto JSON span timeline, --capture writes a JSONL
packet-level capture, --metrics-out writes a Prometheus-style text dump
(with the full aggregated experiment instead when no traced-run flag is
given). A traced run replays run 0 of the batch experiment, honouring
every world flag above; its --csv has one bits_<phase> column per
protocol phase (they sum to bits), and --audit verifies its audit log
(exit 1 on a discrepancy). `simulate diff` compares two captures and reports the first
divergent frame (exit 0 identical, 1 divergent, 2 on bad input).

`simulate fuzz` runs the wsn-check invariant fuzzer: N seeded scenarios
(default 100, seed 42), the 8-protocol battery (every paper protocol plus
the QD/GKS sketches at the scenario's ε, held to their advertised ⌊ε·n⌋
rank tolerance), checked against the centralized oracle, the energy-audit
replay, telemetry reconciliation, thread parity and metamorphic
properties; failures are shrunk to one-line repros. --corpus replays a pinned corpus first and appends new shrunk
repros to it; --repro replays one repro line. Exit 0 clean, 1 on any
violation, 2 on bad input.

`simulate serve` runs the continuous multi-query service: Q concurrent
queries (mixed protocols, φ including both boundaries, mixed epochs) over
one shared network, compiled into per-round traffic plans with execution
dedup and — under --shared — piggybacked frame packing. --admit/--retire
change the query set mid-run; --audit prints the per-lane charge table;
--digest prints the byte-exact parity digest. Exit 0 clean, 1 on any
audit discrepancy, 2 on bad usage — including an --admit into a full
(64-query) service or a --retire of a slot not active at its round.

Serve monitoring: any of --monitor/--budget-mj/--health-json/
--metrics-out/--status-every attaches the observability monitor (never
perturbs the digest). --budget-mj arms the per-query energy-budget
watchdog at X millijoules; --status-every prints a one-line status every
N rounds plus the final registry table; --health-json dumps the flight
recorder and health events as JSONL (the post-mortem ring snapshot when
a watchdog fired); --metrics-out writes per-query Prometheus series. A
monitored serve exits 1 when any watchdog fired. `simulate bench-diff`
compares two BENCH_results.json files and exits 1 when any shared cell's
median slowed past the tolerance band (default 0.5 = 50%).

`simulate scale` is the engine-throughput smoke gate: it runs R full HBC
rounds on an N-node constant-density world (the `scale` bench workload),
prints the wall clock and per-round cost, and exits 1 when the run
exceeds the --budget-secs wall-clock budget (positive and finite;
default: no budget).
--threads parallelizes across runs; results are bit-identical at any
setting.";

/// Reads an input file; an unreadable one is a usage error.
fn read_input(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(format!("reading {path}: {e}"), USAGE))
}

/// `simulate diff a.jsonl b.jsonl` — parse two packet captures and report
/// the first divergent frame, or "identical". Exit code 0 when identical,
/// 1 on divergence, 2 on unreadable/malformed input.
fn run_diff(paths: &[String]) -> ! {
    let [path_a, path_b] = paths else {
        usage_error("diff takes exactly two capture files", USAGE);
    };
    let load = |path: &String| {
        wsn_net::obs::capture::parse_jsonl(&read_input(path))
            .unwrap_or_else(|e| usage_error(format!("{path}: {e}"), USAGE))
    };
    let (a, b) = (load(path_a), load(path_b));
    let d = wsn_net::obs::diff(&a, &b);
    match d.divergence {
        None => {
            println!("identical: {} frames", d.len_a);
            std::process::exit(0);
        }
        Some(div) => {
            println!(
                "captures diverge at frame {} (round {}, node {}): {} {} vs {}  [{} vs {} frames total]",
                div.frame, div.round, div.node, div.field, div.a, div.b, d.len_a, d.len_b
            );
            std::process::exit(1);
        }
    }
}

/// `simulate bench-diff BASELINE CURRENT [--tolerance X]` — the bench
/// regression gate: compare two `BENCH_results.json` files cell by cell
/// and fail when any shared cell's median slowed past the tolerance band
/// (default 50%). Exit 0 clean, 1 on regression, 2 on bad input.
fn run_bench_diff(argv: Vec<String>) -> ! {
    let mut tolerance = wsn_bench::regress::DEFAULT_TOLERANCE;
    let mut paths = Vec::new();
    let mut argv = Argv::new(argv, USAGE);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--tolerance" => {
                tolerance = argv.parse(&arg, "a non-negative fraction", |t: &f64| *t >= 0.0)
            }
            _ => paths.push(arg),
        }
    }
    let [baseline_path, current_path] = &paths[..] else {
        argv.fail("bench-diff takes exactly two results files");
    };
    let load = |path: &String| {
        Json::parse(&read_input(path)).unwrap_or_else(|e| argv.fail(format!("{path}: {e}")))
    };
    let cmp = wsn_bench::regress::compare(&load(baseline_path), &load(current_path), tolerance);
    print!("{}", cmp.render(tolerance));
    std::process::exit(if cmp.is_clean() { 0 } else { 1 });
}

/// `simulate fuzz` — the deterministic invariant fuzz campaign of the
/// `wsn-check` crate. Exit code 0 when every scenario (and every corpus
/// entry) passes the battery, 1 on any violation, 2 on bad usage or
/// unparsable input.
///
/// `--repro '<line>'` replays a single repro line instead of fuzzing.
/// `--corpus FILE` replays every pinned line before the campaign and
/// appends the shrunk repro of any new failure to the file.
fn run_fuzz(argv: Vec<String>) -> ! {
    let mut scenarios: u64 = 100;
    let mut seed: u64 = 42;
    let mut threads = wsn_sim::parallel::thread_count();
    let mut corpus: Option<String> = None;
    let mut repro: Option<String> = None;
    let mut argv = Argv::new(argv, USAGE);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scenarios" => scenarios = argv.parse(&flag, "a scenario count", |_| true),
            "--seed" => seed = argv.parse(&flag, "a seed", |_| true),
            "--threads" => threads = parse_threads(&mut argv, &flag),
            "--corpus" => corpus = Some(argv.value(&flag)),
            "--repro" => repro = Some(argv.value(&flag)),
            other => argv.fail(format!("unknown fuzz argument {other}")),
        }
    }

    // Violations are *reported*, not crashed on: silence the default
    // panic printer so caught protocol panics do not spray backtraces
    // over the deterministic summary.
    std::panic::set_hook(Box::new(|_| {}));

    if let Some(line) = repro {
        let scenario =
            wsn_check::parse_line(&line).unwrap_or_else(|e| argv.fail(format!("--repro: {e}")));
        let report = wsn_check::check(&scenario);
        if report.violations.is_empty() {
            println!("repro: clean");
            std::process::exit(0);
        }
        println!("repro: {} violation(s)", report.violations.len());
        for v in &report.violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }

    let mut exit_code = 0;
    if let Some(path) = &corpus {
        let entries = wsn_check::corpus_entries(&read_input(path))
            .unwrap_or_else(|e| argv.fail(format!("{path}: {e}")));
        let mut regressed = 0usize;
        for (line, scenario) in &entries {
            let report = wsn_check::check(scenario);
            if !report.violations.is_empty() {
                regressed += 1;
                println!("corpus line {line} REGRESSED:");
                for v in &report.violations {
                    println!("  {v}");
                }
            }
        }
        println!("corpus: {} entries, {} regressed", entries.len(), regressed);
        if regressed > 0 {
            exit_code = 1;
        }
    }

    let report = wsn_check::fuzz(seed, scenarios, threads);
    print!("{}", report.summary());
    if !report.is_clean() {
        exit_code = 1;
        if let Some(path) = &corpus {
            let mut add = String::new();
            for f in &report.failures {
                add.push_str(&format!(
                    "# found by fuzz: seed={} index={}\n{}\n",
                    seed,
                    f.index,
                    wsn_check::to_line(&f.shrunk)
                ));
            }
            let appended = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut file| file.write_all(add.as_bytes()));
            match appended {
                Ok(()) => eprintln!(
                    "appended {} shrunk repro(s) to {path}",
                    report.failures.len()
                ),
                Err(e) => eprintln!("error: appending to {path}: {e}"),
            }
        }
    }
    std::process::exit(exit_code);
}

/// `simulate scale` — the struct-of-arrays engine throughput gate: time
/// full HBC rounds on an n-node constant-density world (the same workload
/// as the `scale` bench family) and fail when the wall clock exceeds the
/// budget. Exit 0 within budget, 1 over budget, 2 on bad usage. CI wraps
/// this in `timeout(1)` as a belt-and-suspenders hang guard.
fn run_scale(argv: Vec<String>) -> ! {
    use std::time::Instant;

    let mut nodes: usize = 10_000;
    let mut rounds: u32 = 200;
    let mut seed: u64 = 0x5CA1E;
    let mut budget_secs: Option<f64> = None;
    let mut argv = Argv::new(argv, USAGE);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--nodes" => nodes = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--rounds" => rounds = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--seed" => seed = argv.parse(&flag, "a seed", |_| true),
            "--budget-secs" => {
                let domain = "a positive finite number of seconds";
                budget_secs = Some(argv.parse(&flag, domain, |t: &f64| t.is_finite() && *t > 0.0))
            }
            other => argv.fail(format!("unknown scale argument {other}")),
        }
    }

    let built = Instant::now();
    let mut net = wsn_bench::scale::build_world(nodes, seed);
    eprintln!(
        "scale: built {} nodes (avg degree target {}) in {:.2}s",
        net.len(),
        wsn_bench::scale::DEG,
        built.elapsed().as_secs_f64()
    );

    let start = Instant::now();
    let answer = wsn_bench::scale::hbc_rounds(&mut net, nodes, rounds);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "scale: n={nodes} rounds={rounds} wall={elapsed:.2}s round={:.3}ms ns/(node*round)={:.0} median={answer}",
        elapsed * 1e3 / rounds as f64,
        elapsed * 1e9 / (nodes as f64 * rounds as f64),
    );
    if let Some(budget) = budget_secs {
        if elapsed > budget {
            eprintln!("scale: FAILED — {elapsed:.2}s exceeds the {budget:.2}s budget");
            std::process::exit(1);
        }
        eprintln!("scale: within the {budget:.2}s budget");
    }
    std::process::exit(0);
}

fn build_config(args: &Args) -> Result<SimulationConfig, String> {
    let dataset = match args.dataset.as_str() {
        "synthetic" => DatasetSpec::Synthetic(SyntheticConfig {
            period: args.period,
            noise_percent: args.noise,
            ..SyntheticConfig::default()
        }),
        "walk" => DatasetSpec::RandomWalk {
            range_size: 1024,
            step: 5,
        },
        "regime" => DatasetSpec::Regime {
            range_size: 1024,
            phase_len: 50,
            drift: 3,
        },
        "pressure" => {
            let range = match args.range.as_str() {
                "optimistic" => RangeSetting::Optimistic,
                "pessimistic" => RangeSetting::Pessimistic,
                other => return Err(format!("unknown range setting {other}")),
            };
            DatasetSpec::Pressure(PressureConfig {
                sensor_count: args.nodes,
                steps: args.rounds as usize * args.skip as usize + 1,
                skip: args.skip,
                range,
                ..PressureConfig::default()
            })
        }
        other => return Err(format!("unknown dataset {other}")),
    };
    let dynamics = (args.mobility || args.churn || args.drift || args.duty).then_some(
        wsn_sim::DynamicsConfig {
            mobility_step: if args.mobility { 0.25 * args.rho } else { 0.0 },
            churn: if args.churn { 0.01 } else { 0.0 },
            drift: if args.drift { 0.1 } else { 0.0 },
            duty_milli: if args.duty { 100 } else { 0 },
            epoch: wsn_sim::Scenario::MOBILITY_EPOCH,
        },
    );
    Ok(SimulationConfig {
        sensor_count: args.nodes,
        radio_range: args.rho,
        rounds: args.rounds,
        runs: args.runs,
        phi: args.phi,
        seed: args.seed,
        loss: args.loss,
        reliability: wsn_net::ReliabilityConfig::recovering(args.retries, args.recovery),
        node_failure: args.node_failures,
        dynamics,
        audit: args.audit,
        dataset,
        ..SimulationConfig::default()
    })
}

/// Writes `text` to `path`, mapping IO errors to a printable message.
fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("writing {path}: {e}"))
}

/// Runs one fully-instrumented run — run 0 of the batch experiment, the
/// same [`World`] with every world flag — and emits whichever artifacts
/// were requested: `--csv` per-round trace, `--events` Chrome-trace span
/// timeline, `--capture` JSONL packet capture, `--metrics-out` Prometheus
/// dump of the run's telemetry histograms and traffic totals. Under
/// `--audit` it then verifies the run's audit log.
fn traced_run(args: &Args, cfg: &SimulationConfig, kind: AlgorithmKind) -> Result<(), String> {
    // The packet capture rides on the audit log; spans need the
    // recorder. Only pay for what was asked.
    let cfg = SimulationConfig {
        audit: cfg.audit || args.capture.is_some(),
        telemetry: cfg.telemetry || args.events.is_some(),
        ..cfg.clone()
    };
    let mut world = std::panic::catch_unwind(|| World::new(&cfg, 0))
        .map_err(|_| "could not find a connected placement".to_string())?;
    let mut alg = kind.build(world.query(cfg.phi), &cfg.sizes);
    let trace = wsn_sim::trace::trace_run(&mut world, alg.as_mut(), cfg.rounds, cfg.phi);
    let net = world.net();
    if let Some(path) = &args.csv {
        write_file(path, &wsn_sim::trace::to_csv(&trace))?;
        eprintln!("wrote {} rounds to {path}", trace.len());
    }
    if let Some(path) = &args.events {
        let events = net.recorder().events();
        write_file(path, &wsn_net::obs::chrome_trace(events))?;
        eprintln!("wrote {} span events to {path}", events.len());
    }
    if let Some(path) = &args.capture {
        let frames = net.capture();
        write_file(path, &wsn_net::obs::capture::to_jsonl(&frames))?;
        eprintln!("wrote {} captured frames to {path}", frames.len());
    }
    if let Some(path) = &args.metrics_out {
        let mut dump = wsn_net::obs::PromDump::new();
        let labels = format!(r#"protocol="{}""#, kind.name());
        let stats = net.stats();
        dump.counter(
            "wsn_rounds_total",
            &labels,
            "simulation rounds executed",
            trace.len() as u64,
        );
        dump.counter(
            "wsn_messages_total",
            &labels,
            "messages transmitted",
            stats.messages,
        );
        dump.counter("wsn_bits_total", &labels, "bits on air", stats.bits);
        prom_histograms(&mut dump, &labels, &net.histograms().total());
        write_file(path, &dump.finish())?;
        eprintln!("wrote telemetry metrics to {path}");
    }
    if args.audit {
        audit_verdict(EnergyAuditor::verify(net).discrepancies.len() as u64);
    }
    Ok(())
}

/// Prints the energy-audit verdict and exits 1 on any ledger discrepancy.
fn audit_verdict(discrepancies: u64) {
    if discrepancies > 0 {
        eprintln!("energy audit FAILED: {discrepancies} ledger discrepancies");
        std::process::exit(1);
    }
    eprintln!("energy audit passed: every ledger charge reconciled bit-exactly");
}

/// Appends the four telemetry histograms of a [`wsn_net::obs::HistogramSet`] to a
/// Prometheus dump under `wsn_<kind>` series names.
fn prom_histograms(
    dump: &mut wsn_net::obs::PromDump,
    labels: &str,
    hists: &wsn_net::obs::HistogramSet,
) {
    use wsn_net::obs::HistKind;
    for kind in HistKind::ALL {
        let (name, help) = match kind {
            HistKind::MsgBits => (
                "wsn_msg_bits",
                "per-message bits on air (incl. retransmissions)",
            ),
            HistKind::HopDepth => ("wsn_hop_depth", "routing-tree depth of each transmitter"),
            HistKind::Retries => ("wsn_retries", "ARQ retransmissions per link send"),
            HistKind::FanIn => ("wsn_fan_in", "children merged per convergecast send"),
        };
        dump.histogram(name, labels, help, hists.get(kind));
    }
}

/// Serializes an aggregate — the §5.1 indicators plus the per-phase
/// energy/traffic breakdown and audit counters — as a JSON object.
fn metrics_json(m: &AggregatedMetrics) -> Json {
    let by_phase = |vals: [f64; wsn_net::Phase::COUNT]| {
        Json::Obj(
            wsn_net::Phase::ALL
                .iter()
                .map(|p| (p.name().to_string(), Json::Num(vals[p.index()])))
                .collect(),
        )
    };
    Json::Obj(vec![
        ("runs".into(), Json::int(m.runs as u64)),
        (
            "max_node_energy_per_round_j".into(),
            Json::Num(m.max_node_energy_per_round),
        ),
        ("lifetime_rounds".into(), Json::Num(m.lifetime_rounds)),
        ("messages_per_round".into(), Json::Num(m.messages_per_round)),
        ("values_per_round".into(), Json::Num(m.values_per_round)),
        ("bits_per_round".into(), Json::Num(m.bits_per_round)),
        ("exactness".into(), Json::Num(m.exactness)),
        ("mean_rank_error".into(), Json::Num(m.mean_rank_error)),
        ("delivery_rate".into(), Json::Num(m.delivery_rate)),
        (
            "retransmissions_per_round".into(),
            Json::Num(m.retransmissions_per_round),
        ),
        ("failed_nodes".into(), Json::Num(m.failed_nodes)),
        ("phase_joules".into(), by_phase(m.phase_joules)),
        ("phase_bits".into(), by_phase(m.phase_bits)),
        ("audit_events".into(), Json::int(m.audit_events)),
        (
            "audit_discrepancies".into(),
            Json::int(m.audit_discrepancies),
        ),
    ])
}

/// A `ROUND:VALUE` pair: the argument of serve's `--admit` and `--retire`.
struct RoundPair(u32, u32);

impl FromStr for RoundPair {
    type Err = String;

    fn from_str(raw: &str) -> Result<RoundPair, String> {
        match raw.split_once(':').map(|(a, b)| (a.parse(), b.parse())) {
            Some((Ok(round), Ok(value))) => Ok(RoundPair(round, value)),
            _ => Err(format!("expected ROUND:VALUE, got `{raw}`")),
        }
    }
}

/// Replays the admits and retires that fall inside a `rounds`-round run
/// through a [`Service`], in the order `serve_monitored` applies them
/// (`initial` queries first, then each round's events as given), and
/// names the first one the service cannot take: an admit into a full
/// service or a retire of a slot that is not active.
fn check_schedule(initial: usize, events: &[ServeEvent], rounds: u32) -> Result<(), String> {
    let round_of = |e: &ServeEvent| match *e {
        ServeEvent::Admit { round, .. } | ServeEvent::Retire { round, .. } => round,
    };
    let mut schedule: Vec<ServeEvent> = events
        .iter()
        .copied()
        .filter(|e| round_of(e) < rounds)
        .collect();
    schedule.sort_by_key(round_of);
    let mut svc = Service::new();
    let spec = QuerySpec {
        algo: 0,
        phi_milli: 0,
        eps_milli: 0,
        epoch: 1,
    };
    for _ in 0..initial {
        svc.admit(spec);
    }
    for ev in schedule {
        match ev {
            ServeEvent::Admit { round, query } => {
                if svc.active_count() == Service::MAX_QUERIES {
                    return Err(format!(
                        "--admit {round}:{}: the service is already full ({} queries)",
                        query.phi_milli,
                        Service::MAX_QUERIES
                    ));
                }
                svc.admit(spec);
            }
            ServeEvent::Retire { round, slot } => {
                if svc.retire(slot as usize).is_none() {
                    return Err(format!(
                        "--retire {round}:{slot}: slot {slot} is not active at round {round}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `simulate serve` — the continuous multi-query service: admits the
/// standard `Scenario::workload` battery (mixed protocols, φ including
/// both boundaries, mixed epochs) over one shared network, optionally
/// applies admit/retire events mid-run, and prints per-query answers and
/// lane charges plus the shared-plan aggregates. `--digest` prints the
/// byte-exact parity digest instead.
/// Exit 0 clean, 1 on any audit discrepancy, 2 on bad usage.
fn run_serve(argv: Vec<String>) -> ! {
    use wsn_sim::{DataSource, Scenario, ServeQuery};

    let mut queries: u32 = 16;
    let mut nodes: usize = 24;
    let mut rounds: u32 = 12;
    let mut phi_milli: u32 = 500;
    let mut seed: u64 = 0x5EE5;
    let mut shared = false;
    let mut digest = false;
    let mut audit_table = false;
    let mut json: Option<String> = None;
    let mut monitor_on = false;
    let mut budget_mj: Option<f64> = None;
    let mut health_json: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut status_every: u32 = 0;
    let mut events: Vec<ServeEvent> = Vec::new();
    let mut argv = Argv::new(argv, USAGE);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--queries" => {
                queries = argv.parse(&flag, "an integer in 1..=64", |n| (1..=64).contains(n))
            }
            "--nodes" => nodes = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--rounds" => rounds = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--phi" => phi_milli = (argv.parse(&flag, UNIT, in_unit) * 1000.0).round() as u32,
            "--seed" => seed = argv.parse(&flag, "a seed", |_| true),
            "--shared" => shared = true,
            "--digest" => digest = true,
            "--audit" => audit_table = true,
            "--json" => json = Some(argv.value(&flag)),
            "--monitor" => monitor_on = true,
            "--budget-mj" => {
                let domain = "a positive number of millijoules";
                budget_mj = Some(argv.parse(&flag, domain, |mj: &f64| *mj > 0.0))
            }
            "--health-json" => health_json = Some(argv.value(&flag)),
            "--metrics-out" => metrics_out = Some(argv.value(&flag)),
            "--status-every" => status_every = argv.parse(&flag, POSITIVE, |&n| n > 0),
            "--admit" => {
                let domain = "ROUND:PHI_MILLI with PHI_MILLI at most 1000";
                let RoundPair(round, phi) = argv.parse(&flag, domain, |p: &RoundPair| p.1 <= 1000);
                let query = ServeQuery {
                    algorithm: AlgorithmKind::Tag,
                    phi_milli: phi,
                    epoch: 1,
                };
                events.push(ServeEvent::Admit { round, query });
            }
            "--retire" => {
                let RoundPair(round, slot) = argv.parse(&flag, "ROUND:SLOT", |_| true);
                events.push(ServeEvent::Retire { round, slot });
            }
            other => argv.fail(format!("unknown serve argument {other}")),
        }
    }
    if let Err(e) = check_schedule(queries as usize, &events, rounds) {
        argv.fail(e);
    }

    let sc = Scenario {
        seed,
        nodes,
        range_milli: 2500,
        rounds,
        runs: 1,
        phi_milli,
        loss_milli: 0,
        retries: 0,
        recovery: 0,
        failure_milli: 0,
        eps_milli: 100,
        capacity: 0,
        queries,
        mobility_milli: 0,
        churn_milli: 0,
        drift_milli: 0,
        duty_milli: 0,
        source: DataSource::Sinusoid {
            period: 16,
            noise_permille: 100,
        },
    };
    let cfg = sc.to_config();
    let workload = sc.workload();

    // Any monitoring flag attaches the monitor; the flight recorder is
    // sized to the whole run so `--status-every` can replay every round.
    let monitor_cfg = (monitor_on
        || budget_mj.is_some()
        || health_json.is_some()
        || metrics_out.is_some()
        || status_every > 0)
        .then(|| wsn_net::obs::MonitorConfig {
            budget_joules: budget_mj.map(|mj| mj * 1e-3),
            recorder_capacity: rounds as usize,
            ..wsn_net::obs::MonitorConfig::default()
        });

    if digest {
        // With monitoring attached the digest comes from the *monitored*
        // run, so CI can diff it against a monitor-off digest to prove
        // the zero-perturbation contract on the release binary.
        match &monitor_cfg {
            Some(mc) => {
                let (report, _, net) =
                    wsn_sim::serve_monitored(&cfg, &workload, &events, shared, 0, Some(mc));
                print!("{}", wsn_sim::parity::serve_report_digest(&report, &net));
            }
            None => print!(
                "{}",
                wsn_sim::parity::serve_digest(&cfg, &workload, &events, shared)
            ),
        }
        std::process::exit(0);
    }

    let (report, monitor, _net) =
        wsn_sim::serve_monitored(&cfg, &workload, &events, shared, 0, monitor_cfg.as_ref());
    println!(
        "serve: {} queries over {} rounds on {} nodes ({} framing)",
        report.queries.len(),
        report.rounds,
        nodes,
        if shared { "shared" } else { "solo" },
    );
    println!(
        "plan: {} executions for {} query-rounds served, cache {} hits / {} misses",
        report.executions, report.served, report.plan_hits, report.plan_misses
    );
    println!(
        "traffic: {} bits, {} messages | audit: {} events, {} discrepancies",
        report.total_bits, report.total_messages, report.audit_events, report.audit_discrepancies
    );
    println!("slot alg     phi    epoch admit due  exact maxerr tol lane_bits");
    for q in &report.queries {
        let lane_bits: u64 = q.charges.bits().iter().sum();
        println!(
            "{:>4} {:<7} {:<6} {:>5} {:>5} {:>4} {:>5} {:>6} {:>3} {:>9}",
            q.slot,
            q.query.algorithm.name(),
            q.query.phi_milli as f64 / 1000.0,
            q.query.epoch,
            q.admitted,
            q.answers.len(),
            q.exact_rounds,
            q.max_rank_error,
            q.rank_tolerance,
            lane_bits,
        );
    }
    if audit_table {
        println!(
            "lane breakdown (bits by phase: init/validation/refinement/recovery/other/rebuild):"
        );
        for (lane, b) in report.lanes.iter().enumerate() {
            let bits = b.bits();
            println!(
                "  lane {lane}: {} {} {} {} {} {}",
                bits[0], bits[1], bits[2], bits[3], bits[4], bits[5]
            );
        }
    }
    if let Some(m) = &monitor {
        if status_every > 0 {
            for frame in m.recorder().frames() {
                if (frame.round + 1) % status_every == 0 || frame.round + 1 == report.rounds {
                    let answered = frame.slots.iter().filter(|s| s.answered).count();
                    println!(
                        "status round {:>3}: {}/{} slots answered, cache {}h/{}m, {} health event(s)",
                        frame.round,
                        answered,
                        frame.slots.len(),
                        frame.plan_hits,
                        frame.plan_misses,
                        frame.events.len(),
                    );
                }
            }
        }
        println!(
            "monitor: cache hit rate {:.1}%, {} health event(s)",
            m.cache_hit_rate_milli() as f64 / 10.0,
            m.events().len(),
        );
        print!("{}", m.status_table());
        for e in m.events() {
            let slot = e.slot.map_or_else(|| "-".into(), |s| s.to_string());
            println!(
                "health: round={} slot={} kind={}",
                e.round,
                slot,
                e.kind.name()
            );
        }
        if let Some(path) = &health_json {
            if let Err(e) = std::fs::write(path, m.health_jsonl()) {
                eprintln!("error: --health-json {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote flight-recorder dump to {path}");
        }
        if let Some(path) = &metrics_out {
            let mut dump = wsn_net::obs::PromDump::new();
            m.prom(&mut dump);
            if let Err(e) = std::fs::write(path, dump.finish()) {
                eprintln!("error: --metrics-out {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote monitor metrics to {path}");
        }
    }
    if let Some(path) = json {
        let mut out = String::from("{\"queries\":[");
        for (i, q) in report.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let lane_bits: u64 = q.charges.bits().iter().sum();
            out.push_str(&format!(
                "{{\"slot\":{},\"algorithm\":\"{}\",\"phi_milli\":{},\"epoch\":{},\
                 \"admitted\":{},\"answered\":{},\"exact\":{},\"max_rank_error\":{},\
                 \"rank_tolerance\":{},\"lane_bits\":{}}}",
                q.slot,
                q.query.algorithm.name(),
                q.query.phi_milli,
                q.query.epoch,
                q.admitted,
                q.answers.len(),
                q.exact_rounds,
                q.max_rank_error,
                q.rank_tolerance,
                lane_bits,
            ));
        }
        out.push_str(&format!(
            "],\"rounds\":{},\"total_bits\":{},\"total_messages\":{},\"executions\":{},\
             \"served\":{},\"plan_hits\":{},\"plan_misses\":{},\"audit_events\":{},\
             \"audit_discrepancies\":{}}}\n",
            report.rounds,
            report.total_bits,
            report.total_messages,
            report.executions,
            report.served,
            report.plan_hits,
            report.plan_misses,
            report.audit_events,
            report.audit_discrepancies,
        ));
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("error: --json {path}: {e}");
            std::process::exit(2);
        }
    }
    let unhealthy = monitor.as_ref().is_some_and(|m| m.is_unhealthy());
    if unhealthy {
        eprintln!("serve: UNHEALTHY — a watchdog fired (see the health lines above)");
    }
    std::process::exit(if report.audit_discrepancies == 0 && !unhealthy {
        0
    } else {
        1
    });
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("diff") => run_diff(&argv[1..]),
        Some("bench-diff") => run_bench_diff(argv.split_off(1)),
        Some("serve") => run_serve(argv.split_off(1)),
        Some("fuzz") => run_fuzz(argv.split_off(1)),
        Some("scale") => run_scale(argv.split_off(1)),
        _ => {}
    }
    let args = parse_args(argv);
    let cfg = build_config(&args).unwrap_or_else(|e| usage_error(e, USAGE));

    if args.traced() {
        let kind = args
            .algorithm
            .expect("validated: traced runs name one algorithm");
        if let Err(e) = traced_run(&args, &cfg, kind) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }

    let kinds: Vec<AlgorithmKind> = if args.all {
        ALGORITHMS.to_vec()
    } else {
        vec![args.algorithm.expect("validated")]
    };

    let reliability_on = cfg.reliability.is_enabled() || cfg.node_failure.is_some();
    print!(
        "{:>9}  {:>15}  {:>14}  {:>11}  {:>12}  {:>9}  {:>10}",
        "algorithm",
        "energy[mJ/rnd]",
        "lifetime[rnd]",
        "msgs/round",
        "values/round",
        "exact[%]",
        "rank error"
    );
    if reliability_on {
        print!(
            "  {:>12}  {:>10}  {:>7}",
            "retx/round", "deliv[%]", "failed"
        );
    }
    println!();
    let mut collected = Vec::new();
    let mut discrepancies = 0u64;
    for kind in kinds {
        let m = run_experiment_threads(&cfg, kind, args.threads);
        print!(
            "{:>9}  {:>15.4}  {:>14.1}  {:>11.1}  {:>12.1}  {:>9.1}  {:>10.2}",
            kind.name(),
            m.max_node_energy_per_round * 1e3,
            m.lifetime_rounds,
            m.messages_per_round,
            m.values_per_round,
            m.exactness * 100.0,
            m.mean_rank_error
        );
        if reliability_on {
            print!(
                "  {:>12.2}  {:>10.2}  {:>7.1}",
                m.retransmissions_per_round,
                m.delivery_rate * 100.0,
                m.failed_nodes
            );
        }
        println!();
        discrepancies += m.audit_discrepancies;
        collected.push((kind, m));
    }
    if args.audit {
        for (kind, m) in &collected {
            println!();
            print!(
                "{}",
                wsn_sim::report::render_phase_breakdown(kind.name(), m)
            );
        }
    }
    if let Some(path) = &args.json {
        let mut root = Json::Obj(vec![]);
        for (kind, m) in &collected {
            root.set(kind.name(), metrics_json(m));
        }
        if let Err(e) = std::fs::write(path, root.pretty()) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote metrics for {} algorithm(s) to {path}",
            collected.len()
        );
    }
    if let Some(path) = &args.metrics_out {
        let mut dump = wsn_net::obs::PromDump::new();
        for (kind, m) in &collected {
            let labels = format!(r#"protocol="{}""#, kind.name());
            dump.gauge(
                "wsn_max_node_energy_joules_per_round",
                &labels,
                "mean per-round energy of the hotspot sensor",
                m.max_node_energy_per_round,
            );
            dump.gauge(
                "wsn_lifetime_rounds",
                &labels,
                "network lifetime in rounds",
                m.lifetime_rounds,
            );
            dump.gauge(
                "wsn_messages_per_round",
                &labels,
                "messages transmitted per round",
                m.messages_per_round,
            );
            dump.gauge(
                "wsn_bits_per_round",
                &labels,
                "bits on air per round",
                m.bits_per_round,
            );
            dump.gauge(
                "wsn_exactness_ratio",
                &labels,
                "fraction of rounds answered exactly",
                m.exactness,
            );
            dump.gauge(
                "wsn_delivery_ratio",
                &labels,
                "fraction of payload hops delivered",
                m.delivery_rate,
            );
            dump.counter(
                "wsn_audit_events_total",
                &labels,
                "transmissions replayed by the energy auditor",
                m.audit_events,
            );
            prom_histograms(&mut dump, &labels, &m.hists);
        }
        if let Err(e) = std::fs::write(path, dump.finish()) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote Prometheus metrics for {} algorithm(s) to {path}",
            collected.len()
        );
    }
    if args.audit {
        audit_verdict(discrepancies);
    }
}
