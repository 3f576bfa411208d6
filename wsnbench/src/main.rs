//! `wsnbench`: end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! wsnbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! One process runs one workload in a single-threaded closed loop: each
//! unit starts when the previous one returns. The untraced run
//! (`--trace 0`) times the library entry points users call and prints the
//! end-to-end metrics. The traced run (`--trace 1`) first repeats the
//! untraced loop for half the time, then drives the same units through
//! each layer's public functions inside spans for the other half, writes
//! the spans to `--spans` and prints the per-layer metrics. The seed only
//! feeds the input generators. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Exit status: 0 when every unit passed its checks, 1 when a unit failed
//! (a rank error beyond the protocol's tolerance, an audit discrepancy, a
//! fuzz violation, a panic, or traced outputs differing from untraced
//! ones), 2 on a usage error or a debug build.

mod common;
mod fuzz;
mod heap;
mod scale;
mod serve;
mod solo;
mod stats;
mod trace;

use std::path::PathBuf;

use common::{Budget, Outcome, Workload};
use stats::{median, peak_rss_mib, tail};
use trace::Tracer;

const USAGE: &str =
    "usage: wsnbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
workloads: scale_10k paper_batch dynamic_lossy serve_64q fuzz_mixed";

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 5] = [
    "scale_10k",
    "paper_batch",
    "dynamic_lossy",
    "serve_64q",
    "fuzz_mixed",
];

/// End-to-end metrics, as BENCHMARK.json lists them.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("unit_ms", "ms"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, as BENCHMARK.json lists them. A layer's time is
/// given as its share of the traced wall time, so that a layer a workload
/// bypasses reads 0; absolute self times are printed above the result.
const PER_LAYER: [(&str, &str); 43] = [
    ("setup.world_s", "s"),
    ("setup.network_s", "s"),
    ("setup.share", "fraction"),
    ("data.share", "fraction"),
    ("protocol.share", "fraction"),
    ("protocol.round_tail_ratio", "ratio"),
    ("protocol.TAG.share", "fraction"),
    ("protocol.POS.share", "fraction"),
    ("protocol.LCLL-H.share", "fraction"),
    ("protocol.LCLL-S.share", "fraction"),
    ("protocol.HBC.share", "fraction"),
    ("protocol.IQ.share", "fraction"),
    ("protocol.QD.share", "fraction"),
    ("protocol.GKS.share", "fraction"),
    ("net.convergecasts_per_round", "count/round"),
    ("net.broadcasts_per_round", "count/round"),
    ("net.messages_per_round", "count/round"),
    ("net.bits_per_round", "bit/round"),
    ("net.retransmissions_per_round", "count/round"),
    ("net.acks_per_round", "count/round"),
    ("net.convergecast_ns_per_node", "ns"),
    ("net.broadcast_ns_per_node", "ns"),
    ("net.sweep_floor_share", "fraction"),
    ("dynamics.share", "fraction"),
    ("dynamics.rebuilds_per_round", "count/round"),
    ("oracle.share", "fraction"),
    ("service.share", "fraction"),
    ("service.executions_per_round", "count/round"),
    ("service.dedup_ratio", "ratio"),
    ("service.plan_hit_ratio", "fraction"),
    ("monitor.overhead_ratio", "ratio"),
    ("monitor.health_events", "count"),
    ("audit.verify_share", "fraction"),
    ("audit.lane_replay_share", "fraction"),
    ("audit.events_per_round", "count/round"),
    ("audit.overhead_ratio", "ratio"),
    ("check.gen_share", "fraction"),
    ("check.invariants_share", "fraction"),
    ("check.checks_per_scenario", "count"),
    ("check.violations", "count"),
    ("sim.hotspot_mj_per_round", "mJ"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "fraction"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) = (None, 1, 10.0, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "scale_10k" => Box::new(scale::Scale::new(seed)),
        "paper_batch" => Box::new(solo::Solo::paper_batch(seed)),
        "dynamic_lossy" => Box::new(solo::Solo::dynamic_lossy(seed)),
        "serve_64q" => Box::new(serve::Serve::new(seed)),
        "fuzz_mixed" => Box::new(fuzz::Fuzz::new(seed)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// What the run prints as its last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; such a run is not `correct`.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Times the workload with tracing off and reports the end-to-end metrics.
/// Times are host-normalized (see [`Budget::normalize`]): they read as
/// times on the reference machine. Raw times are printed too.
fn untraced(w: &dyn Workload, seconds: f64) -> Report {
    let mut budget = Budget::new(seconds, w.reference_units());
    let out = w.measure(&mut budget);
    let slowdown = budget.slowdown();
    let unit_ms: Vec<f64> = budget
        .normalize(&out.unit_s)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let raw_ms: Vec<f64> = out.unit_s.iter().map(|s| s * 1e3).collect();
    let heap_mib: Vec<f64> = budget
        .unit_peak_heap
        .iter()
        .map(|&b| b as f64 / (1 << 20) as f64)
        .collect();
    let setup_s = median(&out.setup_s);
    let values = [
        setup_s / budget.setup_slowdown(),
        median(&unit_ms),
        median(&heap_mib),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    println!(
        "host          slowdown {slowdown:.4} over {} probe bursts",
        budget.bursts()
    );
    println!(
        "setup_s       median {setup_s:.6} s raw over {} set-ups",
        out.setup_s.len()
    );
    let tail = tail(&unit_ms, 10).map_or(String::new(), |(p, v)| format!(", p{p:.2} {v:.3} ms"));
    println!(
        "unit_ms       median {:.3} ms{tail} over {} units",
        values[1],
        unit_ms.len()
    );
    println!(
        "unit_raw      median {:.3} ms, not normalized",
        median(&raw_ms)
    );
    let max_heap = heap_mib.iter().fold(0.0f64, |a, &b| a.max(b));
    println!(
        "peak_heap_mib median {:.3} MiB, max {max_heap:.3} MiB",
        values[2]
    );
    if let Some(rss) = peak_rss_mib() {
        println!("peak_rss      {rss:.1} MiB (VmHWM)");
    }
    println!("failed_ratio  {}/{}", out.failed, out.attempted);
    print_reference(&out);
    Report {
        correct: out.failed == 0 && metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    }
}

fn print_reference(out: &Outcome) {
    let r = &out.reference;
    println!(
        "sim_digest    {:016x} (hotspot_mj_per_round {}, bits_per_round {}, over the reference units)",
        r.digest.0,
        r.hotspot_mj_per_round(),
        r.bits_per_round()
    );
}

/// Runs the untraced loop, then the traced one, and reports per-layer
/// metrics. Traced and untraced reference outputs must agree.
fn traced(w: &dyn Workload, args: &Args) -> Report {
    let mut plain_budget = Budget::new(args.seconds / 2.0, w.reference_units());
    let plain = w.measure(&mut plain_budget);
    let mut tr = Tracer::default();
    let mut budget = Budget::new(args.seconds / 2.0, w.reference_units());
    let out = w.trace(&mut budget, &mut tr);
    let wall_ns = tr.elapsed_ns();
    let same = plain.reference.digest == out.reference.digest;
    print_reference(&plain);
    print_reference(&out);
    if !same {
        println!("traced and untraced reference outputs differ");
    }
    print_layers(&tr, wall_ns);
    let overhead =
        median(&budget.normalize(&out.unit_s)) / median(&plain_budget.normalize(&plain.unit_s));
    let mut values = per_layer(&out, &tr, wall_ns);
    values.push(("trace.overhead_ratio", overhead));
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            println!("{name:<32} {v:>14.6} {unit}");
            (name, v, unit)
        })
        .collect();
    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!(".bench_build/wsnbench-spans-{}.csv", args.workload))
    });
    let written = tr.write_csv(&path);
    match &written {
        Ok(()) => println!(
            "spans         {} written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("wsnbench: writing {}: {e}", path.display()),
    }
    Report {
        correct: same
            && written.is_ok()
            && plain.failed + out.failed == 0
            && metrics.iter().all(|m| m.1.is_finite()),
        attempted: plain.attempted + out.attempted,
        failed: plain.failed + out.failed,
        metrics,
    }
}

/// Self time per layer over the traced wall time.
fn print_layers(tr: &Tracer, wall_ns: u64) {
    let own = tr.self_ns();
    let mut layers: Vec<(&str, u64)> = Vec::new();
    for (s, &ns) in tr.spans().iter().zip(&own) {
        match layers.iter_mut().find(|l| l.0 == s.layer) {
            Some(l) => l.1 += ns,
            None => layers.push((s.layer, ns)),
        }
    }
    println!("layer         self_s        share");
    for (layer, ns) in layers {
        let share = ns as f64 / wall_ns.max(1) as f64;
        println!("{layer:<12} {:>8.4} s {share:>10.4}", ns as f64 * 1e-9);
    }
    println!("traced wall   {:.4} s", wall_ns as f64 * 1e-9);
}

fn per_layer(out: &Outcome, tr: &Tracer, wall_ns: u64) -> Vec<(&'static str, f64)> {
    let own = tr.self_ns();
    let wall = wall_ns.max(1) as f64;
    let self_ns = |layer: &str, name: Option<&str>| -> f64 {
        tr.spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer == layer && name.is_none_or(|n| s.name == n))
            .fold(0.0, |sum, (_, &ns)| sum + ns as f64)
    };
    let share = |layer: &str, name: Option<&str>| self_ns(layer, name) / wall;
    let rounds = tr.durations_s("protocol", None);
    let protocol_ns = self_ns("protocol", None);
    let floor_ns = out.probe.map_or(0.0, |p| {
        let c = &out.traced_counts;
        (c.convergecasts as f64 * p.convergecast_ns_per_node
            + c.broadcasts as f64 * p.broadcast_ns_per_node)
            * p.sensors as f64
    });
    let r = &out.reference;
    let mut m = vec![
        (
            "setup.world_s",
            median(&tr.durations_s("setup", Some("world"))),
        ),
        (
            "setup.network_s",
            median(&tr.durations_s("setup", Some("network"))),
        ),
        ("setup.share", share("setup", None)),
        ("data.share", share("data", None)),
        ("protocol.share", share("protocol", None)),
        (
            "protocol.round_tail_ratio",
            tail(&rounds, 10).map_or(0.0, |(_, v)| v / median(&rounds)),
        ),
        (
            "net.convergecasts_per_round",
            r.per_round(r.counts.convergecasts),
        ),
        ("net.broadcasts_per_round", r.per_round(r.counts.broadcasts)),
        ("net.messages_per_round", r.per_round(r.counts.messages)),
        ("net.bits_per_round", r.per_round(r.counts.bits)),
        (
            "net.retransmissions_per_round",
            r.per_round(r.counts.retransmissions),
        ),
        ("net.acks_per_round", r.per_round(r.counts.acks)),
        (
            "net.convergecast_ns_per_node",
            out.probe.map_or(0.0, |p| p.convergecast_ns_per_node),
        ),
        (
            "net.broadcast_ns_per_node",
            out.probe.map_or(0.0, |p| p.broadcast_ns_per_node),
        ),
        (
            "net.sweep_floor_share",
            if protocol_ns > 0.0 {
                floor_ns / protocol_ns
            } else {
                0.0
            },
        ),
        ("dynamics.share", share("dynamics", None)),
        (
            "dynamics.rebuilds_per_round",
            r.per_round(r.counts.rebuilds),
        ),
        ("oracle.share", share("oracle", None)),
        ("service.share", share("service", None)),
        ("audit.verify_share", share("audit", Some("verify"))),
        (
            "audit.lane_replay_share",
            share("audit", Some("lane_replay")),
        ),
        ("check.gen_share", share("check", Some("gen"))),
        ("check.invariants_share", share("check", Some("invariants"))),
        ("sim.hotspot_mj_per_round", r.hotspot_mj_per_round()),
        ("trace.coverage", tr.top_level_ns() as f64 / wall),
    ];
    for (metric, name) in [
        ("protocol.TAG.share", "TAG"),
        ("protocol.POS.share", "POS"),
        ("protocol.LCLL-H.share", "LCLL-H"),
        ("protocol.LCLL-S.share", "LCLL-S"),
        ("protocol.HBC.share", "HBC"),
        ("protocol.IQ.share", "IQ"),
        ("protocol.QD.share", "QD"),
        ("protocol.GKS.share", "GKS"),
    ] {
        m.push((metric, share("protocol", Some(name))));
    }
    m.extend(out.extras.iter().copied());
    m
}

/// Git revision (read from `.git` in the working directory, so outside
/// a git checkout it is `unknown`), build profile, cores, CPU and caches.
fn stamp() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(".git/HEAD")
        .and_then(|head| match head.strip_prefix("ref: ") {
            None => Some(head),
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            }),
        })
        .unwrap_or_else(|| "unknown".into());
    let cpu = read("/proc/cpuinfo")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: &str| {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let unified = read(&format!("{dir}/type"))? != "Instruction";
                (read(&format!("{dir}/level"))? == level && unified)
                    .then(|| read(&format!("{dir}/size")))
                    .flatten()
            })
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "rev={rev} profile=release nproc={nproc} cpu=\"{cpu}\" l2={} l3={}",
        cache("2"),
        cache("3")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wsnbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("wsnbench: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    println!(
        "wsnbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("machine       {}", stamp());
    let w = workload(args.workload, args.seed);
    println!("unit          {}", w.unit());
    let report = if args.trace {
        traced(&*w, &args)
    } else {
        untraced(&*w, args.seconds)
    };
    println!("{}", report.json());
    if !report.correct || report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_bench::json::Json;

    fn smoke(name: &str, seed: u64) -> Box<dyn Workload> {
        match name {
            "scale_10k" => Box::new(scale::Scale::smoke(seed)),
            "paper_batch" => Box::new(solo::Solo::paper_batch(seed).smoke()),
            "dynamic_lossy" => Box::new(solo::Solo::dynamic_lossy(seed).smoke()),
            "serve_64q" => Box::new(serve::Serve::smoke(seed)),
            "fuzz_mixed" => Box::new(fuzz::Fuzz::smoke(seed)),
            _ => unreachable!(),
        }
    }

    /// All five workloads run end to end at smoke size, pass their checks,
    /// and trace to the same simulated outputs they produce untraced.
    #[test]
    fn every_workload_runs_and_traces_identically_at_smoke_size() {
        let mut computed = std::collections::HashSet::new();
        for name in WORKLOADS {
            let w = smoke(name, 5);
            let plain = w.measure(&mut Budget::new(0.0, w.reference_units()));
            let mut tr = Tracer::default();
            let out = w.trace(&mut Budget::new(0.0, w.reference_units()), &mut tr);
            for o in [&plain, &out] {
                assert!(
                    o.attempted > 0 && o.failed == 0,
                    "{name}: {}/{} failed",
                    o.failed,
                    o.attempted
                );
                assert!(!o.setup_s.is_empty() && !o.unit_s.is_empty(), "{name}");
            }
            assert_eq!(plain.reference.digest, out.reference.digest, "{name}");
            assert!(out.probe.is_some(), "{name}");
            for (metric, v) in per_layer(&out, &tr, tr.elapsed_ns()) {
                assert!(
                    PER_LAYER.iter().any(|m| m.0 == metric),
                    "{name}: {metric} is not a listed metric"
                );
                assert!(v.is_finite() && v >= 0.0, "{name}: {metric} = {v}");
                computed.insert(metric);
            }
        }
        // `traced` adds the overhead ratio, which needs the untraced half.
        for (metric, _) in PER_LAYER {
            let by_traced = metric == "trace.overhead_ratio";
            assert!(
                by_traced || computed.contains(metric),
                "no workload computes {metric}"
            );
        }
    }

    /// BENCHMARK.json names exactly the workloads and metrics this binary
    /// prints, and the result line is JSON.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        for (key, table) in [
            ("end_to_end", END_TO_END.to_vec()),
            ("per_layer", PER_LAYER.to_vec()),
        ] {
            let listed: Vec<(String, String)> = list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.00123, "s"), ("unit_ms", 12.5, "ms")],
        };
        let line = Json::parse(&report.json()).expect("result line is JSON");
        assert_eq!(line.get("attempted"), Some(&Json::Num(3.0)));
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_rejected() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_64q --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve_64q", 7, 2.5, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload scale_10k --trace 2",
            "--workload scale_10k --seconds -1",
            "--workload scale_10k --seed",
            "--workload scale_10k --color red",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
