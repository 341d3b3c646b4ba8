//! Experiment report generator.
//!
//! ```text
//! cargo run -p bp-bench --release --bin report             # everything, paper scale
//! cargo run -p bp-bench --release --bin report -- e1       # one experiment
//! cargo run -p bp-bench --release --bin report -- all 20 5 # custom days / trials
//! ```

use bp_bench::experiments as exp;
use std::io::{ErrorKind, Write as _};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let days: u32 = args
        .get(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(exp::FULL_DAYS);
    let trials: u64 = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(10);
    let report = match which {
        "e1" => exp::e1_storage_overhead(days),
        "e2" => exp::e2_query_latency(days),
        "e3" => exp::e3_history_scale(days),
        "e4" => exp::e4_contextual_vs_textual(trials),
        "e5" => exp::e5_personalization(trials),
        "e6" => exp::e6_time_contextual(trials),
        "e7" => exp::e7_download_lineage(trials),
        "a1" => exp::a1_versioning(days),
        "a2" => exp::a2_factorization(days),
        "a3" => exp::a3_time_relationships(days.min(20)),
        "a4" => exp::a4_second_class(days.min(20)),
        "a5" => exp::a5_algorithms(trials, days),
        "all" => exp::run_all(days, trials),
        other => {
            eprintln!("unknown experiment {other:?}; use e1..e7, a1..a5, or all");
            std::process::exit(1);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{report}").and_then(|()| stdout.flush()) {
        Ok(()) => {}
        // The reader stopped early (`report a5 1 | head -n 5`): it has
        // read what it wanted, so the report ends quietly.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("report: writing the report failed: {e}");
            std::process::exit(1);
        }
    }
}
