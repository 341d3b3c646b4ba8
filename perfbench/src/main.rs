//! Paper-scale benchmark of the browser-provenance store.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload recall|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the seeded 79-day profile, runs the workload's closed loop, checks
//! every answer, and prints one JSON line last on stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced pass with
//! `--trace 1`. Progress and the answer digest go to stderr; profiles and
//! span dumps live under `.perfbench_work/` in the working directory.
//! See `perfbench/README.md` for the workloads and every metric.

mod checks;
mod inputs;
mod run;
mod spans;
mod stats;

use run::{Args, Report, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload recall|mixed --seed N --seconds S --trace 0|1";

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args).and_then(|r| json(&r)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&args("--workload mixed --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Mixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(parse(&args("--workload capture --seed 7 --seconds 20")).is_err());
        assert!(parse(&args("--workload recall --seed 7 --seconds 0")).is_err());
        assert!(parse(&args("--workload recall --seed 7 --seconds 5 --trace 2")).is_err());
        assert!(parse(&args("--workload recall --seed 7")).is_err());
        assert!(parse(&args("--workload recall --seed")).is_err());
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![run::Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
        };
        assert_eq!(
            json(&r).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let mut nan = r.clone();
        nan.metrics[0].value = f64::NAN;
        assert!(json(&nan).is_err());
    }
}
