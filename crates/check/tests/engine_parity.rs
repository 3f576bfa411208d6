//! Engine-parity suite: replays every pinned scenario in
//! `tests/fuzz_corpus.txt` through [`wsn_sim::parity::scenario_digest`]
//! and compares the result byte-for-byte against `tests/parity_golden.txt`
//! (repository root), a golden file generated by the pre-refactor
//! per-node wave engine.
//!
//! The digest covers run metrics, per-phase energy, merged and per-node
//! histograms, and the full audit log — all floats as raw bit patterns —
//! so any reordering of a loss draw, an energy charge, or an audit append
//! fails the suite.
//!
//! Regenerate (only when intentionally changing observable behavior):
//!
//! ```text
//! WSN_PARITY_REWRITE=1 cargo test -p wsn-check --test engine_parity
//! ```

use wsn_check::corpus_entries;
use wsn_sim::parity::scenario_digest;

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

fn corpus_text() -> String {
    std::fs::read_to_string(repo_path("tests/fuzz_corpus.txt"))
        .expect("tests/fuzz_corpus.txt must exist")
}

/// Renders the golden document: one `== corpus line N` section per
/// scenario, each followed by that scenario's full digest.
fn render() -> String {
    let mut out = String::from(
        "# Engine-parity golden digests. Generated from tests/fuzz_corpus.txt by\n\
         # `WSN_PARITY_REWRITE=1 cargo test -p wsn-check --test engine_parity`.\n\
         # Never edit by hand; regenerate only when observable behavior is\n\
         # intentionally changed (and explain the change in the commit).\n",
    );
    for (line, scenario) in corpus_entries(&corpus_text()).expect("corpus must parse") {
        out.push_str(&format!("== corpus line {line}\n"));
        out.push_str(&scenario_digest(&scenario));
    }
    out
}

#[test]
fn corpus_digests_match_golden() {
    let golden_path = repo_path("tests/parity_golden.txt");
    let current = render();
    if std::env::var_os("WSN_PARITY_REWRITE").is_some() {
        std::fs::write(&golden_path, &current).expect("golden file must be writable");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/parity_golden.txt must exist (WSN_PARITY_REWRITE=1 to generate)");
    // Compare line-by-line first so a mismatch names the layer that moved
    // instead of dumping two 100 kB documents.
    for (i, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
        assert_eq!(g, c, "engine output diverged from golden at line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        current.lines().count(),
        "digest line count diverged from golden"
    );
}
