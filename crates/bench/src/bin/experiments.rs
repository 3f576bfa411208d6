//! Regenerates every table and figure of the paper's evaluation (§5) plus
//! the future-work extensions.
//!
//! ```text
//! cargo run -p wsn-bench --release --bin experiments            # everything, full scale
//! cargo run -p wsn-bench --release --bin experiments -- --quick # scaled-down
//! cargo run -p wsn-bench --release --bin experiments -- --figure fig7
//! cargo run -p wsn-bench --release --bin experiments -- --figure fig4
//! ```

use std::time::Instant;

use wsn_bench::cli::{usage_error, Argv};
use wsn_sim::experiments::{self, run_sweep_threads};
use wsn_sim::report::{
    render_ablation, render_ablation_with_error, render_table, render_xi_trace, Indicator,
};

/// Every figure id, in the order a full run regenerates them.
const FIGURES: [&str; 17] = [
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "loss",
    "reliability",
    "adaptive",
    "phi",
    "lcllcmp",
    "exactcmp",
    "sketch",
    "dynamics",
    "sampling",
    "serve",
    "ablation",
];

const USAGE: &str = "usage: experiments [--quick] [--threads N] \
                [--figure fig4|fig6|fig7|fig8|fig9|fig10|loss|reliability|adaptive|phi|lcllcmp|exactcmp|sketch|dynamics|sampling|serve|ablation]";

fn main() {
    let mut quick = false;
    let mut figure: Option<String> = None;
    let mut threads = wsn_sim::parallel::thread_count();
    let mut argv = Argv::new(std::env::args().skip(1).collect(), USAGE);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                threads = argv
                    .parse::<usize>(&flag, "a thread count", |_| true)
                    .max(1)
            }
            "--figure" => figure = Some(argv.value(&flag)),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => argv.fail(format!("unknown argument: {other}")),
        }
    }

    let wanted: Vec<&str> = match &figure {
        Some(f) => vec![f.as_str()],
        None => FIGURES.to_vec(),
    };

    for id in wanted {
        let start = Instant::now();
        if id == "sampling" {
            eprintln!("running sampling trade-off …");
            println!(
                "{}",
                render_ablation_with_error(
                    "Ext. — Probabilistic quantiles by node sampling (§3.1)",
                    &experiments::sampling_tradeoff(quick)
                )
            );
        } else if id == "serve" {
            eprintln!("running multi-query service trade-off …");
            let rows = experiments::serve_tradeoff(quick);
            let base = rows.last().map(|r| r.bits).unwrap_or(0);
            println!(
                "Ext. — Continuous multi-query service (§3.3i): one shared network vs 16 independent runs"
            );
            println!(
                "{:<28} {:>12} {:>10} {:>11} {:>8} {:>9}",
                "variant", "bits", "messages", "executions", "served", "vs indep"
            );
            for r in &rows {
                let ratio = if base > 0 {
                    r.bits as f64 / base as f64
                } else {
                    1.0
                };
                println!(
                    "{:<28} {:>12} {:>10} {:>11} {:>8} {:>8.2}x",
                    r.label, r.bits, r.messages, r.executions, r.served, ratio
                );
            }
            println!();
        } else if id == "ablation" {
            eprintln!("running ablations …");
            println!(
                "{}",
                render_ablation(
                    "Ablation A — HBC bucket count (cost model vs. fixed b)",
                    &experiments::ablation_buckets(quick)
                )
            );
            println!(
                "{}",
                render_ablation(
                    "Ablation B — IQ parameters",
                    &experiments::ablation_iq(quick)
                )
            );
            println!(
                "{}",
                render_ablation(
                    "Ablation C — direct value retrieval [21]",
                    &experiments::ablation_retrieval(quick)
                )
            );
            println!(
                "{}",
                render_ablation(
                    "Ablation D — initialization strategy (init round only)",
                    &experiments::ablation_init(quick)
                )
            );
        } else if id == "fig4" {
            let trace = experiments::fig4_trace(125);
            println!("{}", render_xi_trace(&trace));
            let refined = trace.iter().filter(|r| r.refined).count();
            println!(
                "({} of {} rounds needed a refinement)\n",
                refined,
                trace.len()
            );
        } else {
            let Some(sweep) = experiments::by_id(id, quick) else {
                usage_error(format!("unknown figure id: {id}"), USAGE);
            };
            eprintln!("running {} on {threads} thread(s) …", sweep.id);
            let results = run_sweep_threads(&sweep, threads);
            println!("{}", render_table(&results, Indicator::MaxEnergy));
            println!("{}", render_table(&results, Indicator::Lifetime));
            if id == "loss" {
                println!("{}", render_table(&results, Indicator::RankError));
                println!("{}", render_table(&results, Indicator::Exactness));
            }
            if id == "sketch" {
                println!("{}", render_table(&results, Indicator::RankError));
                println!("{}", render_table(&results, Indicator::MaxRankError));
            }
            if id == "reliability" {
                println!("{}", render_table(&results, Indicator::RankError));
                println!("{}", render_table(&results, Indicator::Exactness));
                println!("{}", render_table(&results, Indicator::Retransmissions));
                println!("{}", render_table(&results, Indicator::Delivery));
            }
        }
        eprintln!("[{id} done in {:.1?}]\n", start.elapsed());
    }
}
