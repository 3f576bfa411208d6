//! Binary-level tests of the serve monitoring plane: the exit-code
//! contracts CI scripts rely on, and the flight-recorder JSONL
//! round-tripping through our own JSON parser.

use wsn_bench::json::Json;

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
    let dir = std::env::temp_dir().join(format!("wsn-monitor-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const SERVE: &[&str] = &[
    "serve",
    "--queries",
    "4",
    "--nodes",
    "16",
    "--rounds",
    "8",
    "--seed",
    "9",
];

/// A healthy monitored serve exits 0 and prints the status table; a
/// deliberately tiny energy budget trips the BudgetOverrun watchdog,
/// flips the exit code to 1, and dumps a flight-recorder post-mortem
/// whose every JSONL line parses with `wsn_bench::json`.
#[test]
fn monitored_serve_exit_codes_and_health_dump_through_the_real_binary() {
    let dir = scratch("serve");

    let healthy: Vec<&str> = [SERVE, &["--monitor", "--status-every", "4"]].concat();
    let (code, out) = simulate(&dir, &healthy);
    assert_eq!(code, 0, "healthy monitored serve: {out}");
    assert!(out.contains("monitor: cache hit rate"), "{out}");
    assert!(out.contains("status round"), "{out}");
    assert!(out.contains("active"), "registry table present: {out}");

    let overrun: Vec<&str> = [
        SERVE,
        &["--budget-mj", "0.000001", "--health-json", "health.jsonl"],
    ]
    .concat();
    let (code, out) = simulate(&dir, &overrun);
    assert_eq!(code, 1, "tiny budget must trip the watchdog: {out}");
    assert!(out.contains("kind=budget_overrun"), "{out}");

    let dump = std::fs::read_to_string(dir.join("health.jsonl")).expect("dump written");
    let mut rounds = 0usize;
    let mut overruns = 0usize;
    for line in dump.lines().filter(|l| !l.is_empty()) {
        let doc = Json::parse(line).expect("every JSONL line parses");
        match doc.get("type") {
            Some(Json::Str(t)) if t == "round" => rounds += 1,
            Some(Json::Str(t)) if t == "health" => {
                if matches!(doc.get("kind"), Some(Json::Str(k)) if k == "budget_overrun") {
                    overruns += 1;
                }
                assert!(matches!(doc.get("round"), Some(Json::Num(_))), "{line}");
            }
            other => panic!("unexpected line type {other:?}: {line}"),
        }
    }
    assert!(rounds > 0, "post-mortem carries ring frames");
    assert!(overruns > 0, "post-mortem carries the overrun events");

    // Monitoring must not perturb the digest (release-binary replica of
    // the library-level zero-perturbation test).
    let digest: Vec<&str> = [SERVE, &["--digest"]].concat();
    let monitored_digest: Vec<&str> = [SERVE, &["--digest", "--monitor"]].concat();
    let (code_a, plain) = simulate(&dir, &digest);
    let (code_b, monitored) = simulate(&dir, &monitored_digest);
    assert_eq!((code_a, code_b), (0, 0));
    assert_eq!(plain, monitored, "monitoring changed the serve digest");

    let _ = std::fs::remove_dir_all(&dir);
}
