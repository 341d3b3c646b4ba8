//! Smoke test of a running `browserprov serve` daemon.
//!
//! ```text
//! cargo run -p bp-bench --release --bin bench -- --serve-smoke HOST:PORT
//! ```
//!
//! Every observability endpoint is scraped over a raw TCP socket,
//! `/metrics` must expose a non-empty `bp_` metric family, one histogram
//! exemplar's trace ID must resolve through `/tracez?id=`, and
//! per-endpoint scrape latencies are reported. Exits nonzero on any
//! failed scrape. Timing the store is perfbench's job (`perfbench/`).

use bp_obs::ClockHandle;

const USAGE: &str = "usage: bench --serve-smoke HOST:PORT";

/// One raw-socket HTTP/1.1 GET; returns `(status, body)`.
fn http_get(addr: &str, target: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write {target}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read {target}: {e}"))?;
    let status: u16 = raw
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{target}: malformed status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|x| x.1.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Smoke-tests a live `browserprov serve` daemon at `addr` (`host:port`).
fn run_serve_smoke(addr: &str) -> Result<bool, String> {
    let clock = ClockHandle::real();
    let endpoints = [
        "/healthz",
        "/readyz",
        "/metrics",
        "/metrics.json",
        "/tracez",
        "/profilez",
        "/debug/flightz",
    ];
    let mut ok = true;
    for target in endpoints {
        let t0 = clock.start();
        match http_get(addr, target) {
            Ok((status, body)) => {
                let elapsed = t0.elapsed();
                let mut problems = Vec::new();
                if status != 200 {
                    problems.push(format!("status {status}"));
                }
                match target {
                    "/metrics" if !body.lines().any(|l| l.starts_with("bp_")) => {
                        problems.push("no bp_ metric family".to_owned());
                    }
                    "/metrics.json" if !body.trim_start().starts_with('{') => {
                        problems.push("body is not JSON".to_owned());
                    }
                    "/debug/flightz" if !body.starts_with("# bp-flight dump v1") => {
                        problems.push("missing flight-dump header".to_owned());
                    }
                    _ => {}
                }
                if problems.is_empty() {
                    eprintln!(
                        "bench: serve-smoke {target:<16} 200 in {}us ({} bytes)",
                        elapsed.as_micros(),
                        body.len()
                    );
                } else {
                    ok = false;
                    eprintln!(
                        "bench: serve-smoke {target:<16} FAILED: {}",
                        problems.join(", ")
                    );
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("bench: serve-smoke {target:<16} FAILED: {e}");
            }
        }
    }
    match check_trace_exemplars(addr) {
        Ok(id) => eprintln!("bench: serve-smoke tracing: exemplar {id} resolved via /tracez?id="),
        Err(e) => {
            ok = false;
            eprintln!("bench: serve-smoke tracing FAILED: {e}");
        }
    }
    eprintln!(
        "bench: serve-smoke {}",
        if ok { "passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// The request-tracing smoke: `/metrics.json` must expose histogram
/// exemplars for the query-latency families, and at least one exemplar's
/// trace ID must resolve through `/tracez?id=`. CI boots the daemon with
/// `--inject-latency-us`, so every query is a retained deadline miss and
/// the newest exemplar is always findable; polled because the first
/// query pass has to land before any exemplar exists. Returns the
/// resolved trace ID.
fn check_trace_exemplars(addr: &str) -> Result<String, String> {
    const QUERY_HISTOGRAMS: [&str; 3] = [
        "query.context.latency_us",
        "query.textual.latency_us",
        "query.timectx.latency_us",
    ];
    let clock = ClockHandle::real();
    let started = clock.start();
    let mut last = String::from("no exemplars seen yet");
    while started.elapsed() < std::time::Duration::from_secs(60) {
        let (status, body) = http_get(addr, "/metrics.json")?;
        if status == 200 {
            let doc = bp_obs::json::parse(&body)
                .map_err(|e| format!("/metrics.json does not parse: {e:?}"))?;
            let ids: Vec<String> = QUERY_HISTOGRAMS
                .iter()
                .filter_map(|name| doc.get("histograms")?.get(name)?.get("exemplars"))
                .filter_map(|exemplars| exemplars.as_array())
                .flatten()
                .filter_map(|ex| ex.get("trace_id")?.as_str().map(str::to_owned))
                .collect();
            for id in ids {
                let (status, by_id) = http_get(addr, &format!("/tracez?id={id}"))?;
                if status == 200 && by_id.contains(&id) {
                    return Ok(id);
                }
                last = format!("exemplar {id} not (or no longer) retained");
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
    Err(last)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.as_slice() {
        [flag, addr] if flag == "--serve-smoke" => run_serve_smoke(addr),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("bench: error: {message}");
            std::process::exit(2);
        }
    }
}
