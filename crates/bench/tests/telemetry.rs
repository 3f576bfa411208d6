//! End-to-end telemetry tests at the top of the stack: the Chrome-trace
//! exporter must produce JSON our own parser accepts, and the packet
//! capture + differ must localize a seeded divergence between two real
//! simulation runs.

use wsn_bench::json::Json;
use wsn_net::obs::{self, capture, HistKind};
use wsn_net::Network;
use wsn_sim::config::{AlgorithmKind, SimulationConfig};
use wsn_sim::trace::trace_run;
use wsn_sim::World;

/// Builds a small connected world and runs IQ over it for `rounds` rounds
/// with the audit log and span recorder on, returning the network for
/// inspection.
fn telemetered_run(seed: u64, rounds: u32) -> Network {
    let cfg = SimulationConfig {
        sensor_count: 60,
        radio_range: 60.0,
        seed,
        audit: true,
        telemetry: true,
        ..SimulationConfig::default()
    };
    let mut world = World::new(&cfg, 0);
    let mut alg = AlgorithmKind::Iq.build(world.query(0.5), &cfg.sizes);
    let trace = trace_run(&mut world, alg.as_mut(), rounds, 0.5);
    assert_eq!(trace.len(), rounds as usize);
    world.into_net()
}

#[test]
fn chrome_trace_of_a_real_run_is_valid_json() {
    let net = telemetered_run(11, 8);
    let events = net.recorder().events();
    assert!(!events.is_empty(), "telemetry was on");
    let text = obs::chrome_trace(events);
    let doc = Json::parse(&text).expect("exporter must emit valid JSON");
    let Some(Json::Arr(items)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    // Every item is an object with a ph marker; the span count reconciles
    // with the recorder.
    let mut spans = 0usize;
    let mut metadata = 0usize;
    for item in items {
        match item.get("ph") {
            Some(Json::Str(ph)) if ph == "M" => metadata += 1,
            Some(Json::Str(ph)) if ph == "X" => spans += 1,
            other => panic!("unexpected ph: {other:?}"),
        }
    }
    assert_eq!(spans, events.len());
    assert_eq!(metadata, 1, "one thread_name record, for the engine track");
    // The engine track and the protocol phases must be present by name.
    assert!(text.contains(r#""name":"engine""#));
    assert!(text.contains(r#""name":"round""#));
    assert!(text.contains(r#""name":"convergecast""#));
}

#[test]
fn capture_diff_localizes_a_seeded_divergence() {
    // Same seed twice: the simulator is deterministic, so the captures are
    // frame-for-frame identical through serialization and parsing.
    let capture = |net: Network| -> Vec<capture::PacketRecord> {
        let log = net.audit_log();
        log.events().map(|e| e.to_packet_record()).collect()
    };
    let a = capture(telemetered_run(42, 6));
    let b = capture(telemetered_run(42, 6));
    let jsonl_a = capture::to_jsonl(&a);
    let jsonl_b = capture::to_jsonl(&b);
    let parsed_a = capture::parse_jsonl(&jsonl_a).unwrap();
    let parsed_b = capture::parse_jsonl(&jsonl_b).unwrap();
    assert!(obs::diff(&parsed_a, &parsed_b).is_identical());

    // Flip one bit on the wire in the middle of capture B: the differ must
    // name exactly that frame, its round and transmitter, and the field.
    let mut tampered = parsed_b.clone();
    let victim = tampered.len() / 2;
    tampered[victim].bits ^= 1;
    let d = obs::diff(&parsed_a, &tampered);
    let div = d.divergence.expect("single-bit flip must be found");
    assert_eq!(div.frame, victim);
    assert_eq!(div.round, parsed_a[victim].round);
    assert_eq!(div.node, parsed_a[victim].src);
    assert_eq!(div.field, "bits");
}

/// Runs the real `simulate` binary with `args` in `dir` and returns
/// `(exit code, stdout)`.
fn simulate(dir: &std::path::Path, args: &[&str]) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("simulate binary must run");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Scratch directory for binary-level tests, unique per test name.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-telemetry-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes a packet capture with the real binary and returns its filename.
fn capture_with_binary(dir: &std::path::Path, name: &str, seed: &str) {
    let (code, _) = simulate(
        dir,
        &[
            "--algorithm",
            "IQ",
            "--nodes",
            "40",
            "--rho",
            "80",
            "--rounds",
            "5",
            "--seed",
            seed,
            "--capture",
            name,
        ],
    );
    assert_eq!(code, 0, "capture run must succeed");
    assert!(dir.join(name).exists(), "capture file must be written");
}

/// `simulate diff` through the real binary: identical captures (same
/// seed) exit 0, divergent captures (different seed) exit 1, and every
/// bad-input shape — missing file, malformed JSONL, wrong arg count —
/// exits 2. This is the contract CI scripts rely on.
#[test]
fn diff_exit_codes_through_the_real_binary() {
    let dir = scratch("diff");
    capture_with_binary(&dir, "a.jsonl", "42");
    capture_with_binary(&dir, "same.jsonl", "42");
    capture_with_binary(&dir, "other.jsonl", "43");

    let (code, out) = simulate(&dir, &["diff", "a.jsonl", "same.jsonl"]);
    assert_eq!(code, 0, "same seed, same capture: {out}");
    assert!(out.starts_with("identical:"), "{out}");

    let (code, out) = simulate(&dir, &["diff", "a.jsonl", "other.jsonl"]);
    assert_eq!(code, 1, "different seed must diverge: {out}");
    assert!(out.contains("diverge"), "{out}");

    let (code, _) = simulate(&dir, &["diff", "a.jsonl", "missing.jsonl"]);
    assert_eq!(code, 2, "missing file is a usage error");

    std::fs::write(dir.join("garbage.jsonl"), "{not json at all\n").unwrap();
    let (code, _) = simulate(&dir, &["diff", "a.jsonl", "garbage.jsonl"]);
    assert_eq!(code, 2, "malformed capture is a usage error");

    let (code, _) = simulate(&dir, &["diff", "a.jsonl"]);
    assert_eq!(code, 2, "diff takes exactly two files");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `simulate fuzz` through the real binary: a clean bounded campaign
/// exits 0 with byte-identical output across invocations, a valid clean
/// repro line exits 0, and unparsable input exits 2.
#[test]
fn fuzz_exit_codes_through_the_real_binary() {
    let dir = scratch("fuzz");
    let campaign = ["fuzz", "--scenarios", "6", "--seed", "5", "--threads", "2"];
    let (code, first) = simulate(&dir, &campaign);
    assert_eq!(code, 0, "{first}");
    assert!(first.starts_with("fuzz: seed=5 scenarios=6"), "{first}");
    let (code, second) = simulate(&dir, &campaign);
    assert_eq!(code, 0);
    assert_eq!(first, second, "fuzz summaries are byte-deterministic");

    let clean_repro = r#"{"seed":1,"nodes":1,"range_milli":4000,"rounds":2,"runs":1,"phi_milli":500,"loss_milli":0,"retries":0,"recovery":0,"failure_milli":0,"source":"sinusoid","p1":8,"p2":0,"p3":0}"#;
    let (code, out) = simulate(&dir, &["fuzz", "--repro", clean_repro]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("clean"), "{out}");

    let (code, _) = simulate(&dir, &["fuzz", "--repro", "not a repro line"]);
    assert_eq!(code, 2, "unparsable repro is a usage error");

    let (code, _) = simulate(&dir, &["fuzz", "--scenarios", "many"]);
    assert_eq!(code, 2, "non-numeric --scenarios is a usage error");

    let (code, _) = simulate(&dir, &["fuzz", "--corpus", "no-such-corpus.txt"]);
    assert_eq!(code, 2, "missing corpus file is a usage error");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Batch `simulate` through the real binary: every flag value outside its
/// domain exits 2 with the usage text — rejected at the CLI instead of
/// panicking (exit 101) on a library assert.
#[test]
fn batch_flag_domain_errors_exit_2_through_the_real_binary() {
    let dir = scratch("flags");
    // A world known to connect (the capture runs above use it too).
    let base = [
        "--algorithm",
        "TAG",
        "--nodes",
        "40",
        "--rho",
        "80",
        "--rounds",
        "2",
        "--runs",
        "1",
    ];
    let bad: [&[&str]; 14] = [
        &["--nodes", "0"],
        &["--rounds", "0"],
        &["--runs", "0"],
        &["--rho", "0"],
        &["--rho", "-5"],
        &["--rho", "NaN"],
        &["--phi", "1.5"],
        &["--phi", "-0.1"],
        &["--phi", "NaN"],
        &["--period", "0"],
        &["--noise", "101"],
        &["--noise", "-1"],
        &["--noise", "NaN"],
        &["--skip", "0", "--dataset", "pressure"],
    ];
    for flags in bad {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
            .current_dir(&dir)
            .args(base)
            .args(flags)
            .output()
            .expect("simulate binary must run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage: simulate"), "{flags:?}: {stderr}");
    }
    let (code, _) = simulate(&dir, &base);
    assert_eq!(code, 0, "the in-domain baseline runs");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn histograms_reconcile_with_traffic_stats() {
    let net = telemetered_run(7, 8);
    let total = net.histograms().total();
    assert_eq!(
        total.get(HistKind::MsgBits).count(),
        net.stats().messages,
        "one histogram sample per transmitted message"
    );
    assert_eq!(total.get(HistKind::MsgBits).sum(), net.stats().bits);
}
