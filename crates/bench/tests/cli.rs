//! Binary-level tests of the traced run and the one flag parser: a traced
//! run builds the batch runner's world with every world flag, its CSV
//! carries one bit column per protocol phase, `--audit` checks it, and
//! every subcommand's bad values exit 2 with the usage text.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wsn_bench::json::Json;

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary must run")
}

fn simulate(dir: &Path, args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_simulate"), dir, args)
}

/// Scratch directory for binary-level tests, unique per test name.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes a traced CSV of POS on the 60-node seed-13 world with `extra`
/// world flags and returns its text.
fn traced_csv(dir: &Path, name: &str, extra: &[&str]) -> String {
    let base = [
        "--algorithm",
        "POS",
        "--nodes",
        "60",
        "--rounds",
        "10",
        "--seed",
        "13",
        "--csv",
        name,
    ];
    let out = simulate(dir, &[&base[..], extra].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{extra:?}: {stderr}");
    std::fs::read_to_string(dir.join(name)).expect("CSV written")
}

/// Column `name` of every data row of `csv`.
fn column(csv: &str, name: &str) -> Vec<u64> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let i = header.iter().position(|h| *h == name).expect("column");
    lines
        .map(|l| l.split(',').nth(i).unwrap().parse().unwrap())
        .collect()
}

#[test]
fn traced_runs_honour_the_world_flags() {
    let dir = scratch("world");
    let lossless = traced_csv(&dir, "a.csv", &[]);
    let lossy = traced_csv(
        &dir,
        "b.csv",
        &["--loss", "0.3", "--retries", "2", "--recovery", "2"],
    );
    assert_ne!(lossless, lossy, "--loss must reach the traced world");
    assert!(column(&lossy, "bits_recovery").iter().any(|&b| b > 0));

    let mobile = traced_csv(&dir, "c.csv", &["--mobility"]);
    assert!(column(&mobile, "bits_rebuild").iter().any(|&b| b > 0));
    let phases: Vec<Vec<u64>> = [
        "bits_init",
        "bits_validation",
        "bits_refinement",
        "bits_recovery",
        "bits_other",
        "bits_rebuild",
    ]
    .iter()
    .map(|p| column(&mobile, p))
    .collect();
    for (row, bits) in column(&mobile, "bits").into_iter().enumerate() {
        let sum: u64 = phases.iter().map(|p| p[row]).sum();
        assert_eq!(sum, bits, "row {row}: phase columns must sum to bits");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audited_traced_run_reports_a_clean_audit() {
    let dir = scratch("audit");
    let args = [
        "--algorithm",
        "IQ",
        "--nodes",
        "60",
        "--rounds",
        "10",
        "--seed",
        "13",
        "--loss",
        "0.2",
        "--retries",
        "2",
        "--churn",
        "--audit",
        "--csv",
        "t.csv",
    ];
    let out = simulate(&dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("energy audit passed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_values_of_every_subcommand_exit_2_with_the_usage_text() {
    let dir = scratch("usage");
    let cases: [&[&str]; 10] = [
        &["scale", "--budget-secs", "nan"],
        &["scale", "--budget-secs", "-1"],
        &["scale", "--budget-secs", "inf"],
        &["scale", "--nodes", "0"],
        &["--all", "--csv", "x"],
        &["--algorithm", "IQ", "--all", "--events", "x"],
        &["serve", "--queries", "64", "--admit", "1:500"],
        &["serve", "--retire", "2:40"],
        &["serve", "--admit", "1:1001"],
        &["fuzz", "--threads", "x"],
    ];
    for args in cases {
        let out = simulate(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: simulate"), "{args:?}: {stderr}");
    }
    assert!(!dir.join("x").exists(), "no artifact for a rejected run");

    let out = run(env!("CARGO_BIN_EXE_experiments"), &dir, &["--threads", "x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: experiments"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unconnectable_worlds_exit_2_with_one_error_line() {
    // Five sensors in 200 m × 200 m at ρ = 35 m never connect: a batch
    // run, a batch over every protocol and a traced run all refuse the
    // configuration before running, with no panic and no artifact.
    let dir = scratch("unconnectable");
    let cases: [&[&str]; 3] = [
        &["--algorithm", "HBC", "--nodes", "5"],
        &["--all", "--nodes", "5"],
        &["--algorithm", "HBC", "--nodes", "5", "--csv", "x"],
    ];
    for args in cases {
        let out = simulate(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: could not find a connected placement"));
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
    assert!(!dir.join("x").exists(), "no artifact for a rejected run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_schedules_inside_the_service_still_run() {
    let dir = scratch("serve");
    // 63 queries leave room for one admit; slot 2 is active at round 4,
    // and a retire past the run's end never applies.
    let args = [
        "serve",
        "--queries",
        "63",
        "--nodes",
        "12",
        "--rounds",
        "6",
        "--admit",
        "1:500",
        "--retire",
        "4:2",
        "--retire",
        "9:40",
    ];
    let out = simulate(&dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--json` carries the accuracy fields of the energy/accuracy frontier:
/// on fast-drifting data the exact HBC reads 0 and 0, and the q-digest
/// certifies a rank tolerance of `⌊ε·n⌋` (ε = 0.1 on 200 sensors) and
/// stays within it.
#[test]
fn json_output_carries_the_rank_error_and_tolerance() {
    let dir = scratch("json");
    let nodes = 200;
    for (alg, tolerance) in [("HBC", 0), ("QD", nodes / 10)] {
        let file = format!("{alg}.json");
        let nodes = nodes.to_string();
        let args = [
            "--algorithm",
            alg,
            "--nodes",
            &nodes,
            "--rounds",
            "20",
            "--runs",
            "1",
            "--period",
            "8",
            "--noise",
            "50",
            "--json",
            &file,
        ];
        let out = simulate(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{alg}: {stderr}");
        let text = std::fs::read_to_string(dir.join(&file)).expect("JSON written");
        let doc = Json::parse(&text).expect("valid JSON");
        let metrics = doc.get(alg).expect("one object per algorithm");
        let num = |key: &str| match metrics.get(key) {
            Some(Json::Num(v)) => *v,
            other => panic!("{alg}: {key} is {other:?}"),
        };
        assert_eq!(num("rank_tolerance"), tolerance as f64, "{alg}");
        assert!(num("max_rank_error") <= num("rank_tolerance"), "{alg}");
        let Some(Json::Obj(phases)) = metrics.get("phase_joules") else {
            panic!("{alg}: phase_joules is not an object");
        };
        let total: f64 = phases
            .iter()
            .map(|(_, v)| match v {
                Json::Num(j) => *j,
                other => panic!("{alg}: phase joules {other:?}"),
            })
            .sum();
        assert!(total > 0.0, "{alg}: the run spent energy");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
