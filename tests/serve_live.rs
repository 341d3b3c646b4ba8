//! Live integration tests for `browserprov serve` — the observability
//! plane is exercised over real sockets against a real daemon process.
//!
//! Each test boots its own daemon on an OS-assigned port (discovered via
//! the `<profile>/serve.port` file), drives it over HTTP, and shuts it
//! down with SIGTERM, asserting a clean exit. The soak duration defaults
//! to 60 seconds per the acceptance bar; set `BP_SERVE_SOAK_SECS` to
//! shorten it during local iteration.

use bp_obs::ClockHandle;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A serve daemon under test. Killed on drop so a failing assertion
/// never leaks a background process.
struct ServeChild {
    child: Child,
    profile: PathBuf,
    port: u16,
}

impl ServeChild {
    fn spawn(tag: &str, extra: &[&str]) -> ServeChild {
        let profile =
            std::env::temp_dir().join(format!("bp-serve-live-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&profile);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_browserprov"));
        cmd.arg("serve")
            .args(["--profile"])
            .arg(&profile)
            .args(["--port", "0"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("spawn browserprov serve");
        // The port file is written right after bind, before the first
        // replay cycle, so this resolves quickly even in debug builds.
        let port_file = profile.join("serve.port");
        let waited = ClockHandle::real().start();
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    break port;
                }
            }
            assert!(
                waited.elapsed() < Duration::from_secs(60),
                "serve.port never appeared in {}",
                profile.display()
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        ServeChild {
            child,
            profile,
            port,
        }
    }

    fn get(&self, target: &str) -> Result<(u16, String), String> {
        http_get(self.port, target)
    }

    /// Polls until `check` passes or the timeout elapses; returns the
    /// winning response body.
    fn wait_for(
        &self,
        target: &str,
        timeout: Duration,
        check: impl Fn(u16, &str) -> bool,
    ) -> String {
        let waited = ClockHandle::real().start();
        let mut last = String::from("(no response)");
        while waited.elapsed() < timeout {
            if let Ok((status, body)) = self.get(target) {
                if check(status, &body) {
                    return body;
                }
                last = format!("status {status}: {body}");
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        panic!("timed out waiting on {target}; last: {last}");
    }

    /// SIGTERM, then asserts the daemon exits zero within the timeout.
    fn terminate_cleanly(mut self) {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM")
            .success();
        assert!(ok, "kill -TERM {pid} failed");
        let waited = ClockHandle::real().start();
        loop {
            match self.child.try_wait().expect("wait on serve") {
                Some(status) => {
                    assert!(status.success(), "serve exited {status} after SIGTERM");
                    break;
                }
                None => {
                    assert!(
                        waited.elapsed() < Duration::from_secs(30),
                        "serve did not exit within 30s of SIGTERM"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        let profile = std::mem::take(&mut self.profile);
        std::mem::forget(self);
        let _ = std::fs::remove_dir_all(profile);
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.profile);
    }
}

fn http_get(port: u16, target: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status: u16 = raw
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|x| x.1.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Reads an unlabeled sample (`name value`) out of Prometheus text.
fn metric(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let mut parts = line.split_ascii_whitespace();
        (parts.next() == Some(name))
            .then(|| parts.next())??
            .parse()
            .ok()
    })
}

fn soak_secs() -> u64 {
    std::env::var("BP_SERVE_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// The acceptance soak: scrape `/metrics` every 250 ms for the full soak
/// window and require every scrape to parse, counters to be monotone,
/// and the daemon to keep making progress (replay cycles + SLO samples
/// both advance). Ends with a clean SIGTERM.
#[test]
fn soak_metrics_scrapes_stay_consistent() {
    // The soak replays the standard 79-day history (the serve default);
    // the first cycle takes a while in debug builds, hence the long
    // readiness allowance.
    let serve = ServeChild::spawn("soak", &[]);
    // The burn-rate gauges are published before the first request is
    // served, not at the first periodic SLO evaluation.
    let (status, body) = serve.get("/metrics").expect("first scrape");
    assert_eq!(status, 200);
    for gauge in ["bp_slo_burn_rate_5m", "bp_slo_burn_rate_1h"] {
        assert_eq!(
            metric(&body, gauge),
            Some(0.0),
            "{gauge} in the first scrape"
        );
    }
    serve.wait_for("/readyz", Duration::from_secs(180), |s, _| s == 200);

    let mut last_requests = 0.0f64;
    let mut last_samples = 0.0f64;
    let mut last_cycles = 0.0f64;
    let mut scrapes = 0u64;
    let soak = ClockHandle::real().start();
    let soak_window = Duration::from_secs(soak_secs());
    while soak.elapsed() < soak_window {
        let (status, body) = serve.get("/metrics").expect("scrape /metrics");
        assert_eq!(status, 200, "scrape {scrapes} failed");
        // A counter is registered on first increment, so very early
        // scrapes may not carry every family yet; absent reads as 0 and
        // the end-of-soak assertions still require all three to appear.
        let requests = metric(&body, "bp_serve_http_requests_total").unwrap_or(0.0);
        let samples = metric(&body, "bp_slo_samples_total").unwrap_or(0.0);
        let cycles = metric(&body, "bp_serve_replay_cycles_total").unwrap_or(0.0);
        assert!(
            requests >= last_requests,
            "bp_serve_http_requests_total went backwards: {last_requests} -> {requests}"
        );
        assert!(
            samples >= last_samples,
            "bp_slo_samples_total went backwards: {last_samples} -> {samples}"
        );
        assert!(
            cycles >= last_cycles,
            "bp_serve_replay_cycles_total went backwards: {last_cycles} -> {cycles}"
        );
        (last_requests, last_samples, last_cycles) = (requests, samples, cycles);
        scrapes += 1;
        std::thread::sleep(Duration::from_millis(250));
    }
    assert!(scrapes >= 4, "soak made only {scrapes} scrapes");
    assert!(last_samples > 0.0, "no SLO samples recorded during soak");
    assert!(last_cycles > 0.0, "no replay cycles completed during soak");
    // The scrapes themselves are the daemon's request traffic.
    assert!(last_requests >= scrapes as f64 - 1.0);
    serve.terminate_cleanly();
}

/// `/healthz` must flip to 503 when the profile directory stops being
/// writable, and recover once it is writable again. Root can write
/// through any permission bits, so the test blocks the probe path itself:
/// a directory where the probe file goes makes the write fail with
/// EISDIR for every uid.
#[test]
fn healthz_flips_unhealthy_when_profile_unwritable() {
    let serve = ServeChild::spawn("healthz", &["--days", "2"]);
    serve.wait_for("/healthz", Duration::from_secs(60), |s, body| {
        s == 200 && body.trim() == "ok"
    });

    let probe = serve.profile.join(".healthz.probe");
    let _ = std::fs::remove_file(&probe);
    std::fs::create_dir(&probe).expect("block the probe path");
    serve.wait_for("/healthz", Duration::from_secs(10), |s, _| s == 503);
    let (_, body) = serve.get("/healthz").expect("unhealthy body");
    assert!(
        body.contains("unhealthy"),
        "503 body should explain itself: {body}"
    );

    std::fs::remove_dir(&probe).expect("unblock the probe path");
    serve.wait_for("/healthz", Duration::from_secs(10), |s, _| s == 200);
    serve.terminate_cleanly();
}

/// A forced worker panic (via the gated `/debug/panicz` endpoint) must
/// leave a complete flight dump on disk while the daemon survives and
/// keeps serving.
#[test]
fn forced_worker_panic_writes_complete_flight_dump() {
    let serve = ServeChild::spawn("panic", &["--days", "2", "--allow-debug-panic"]);
    serve.wait_for("/readyz", Duration::from_secs(60), |s, _| s == 200);

    let (status, _) = serve.get("/debug/panicz").expect("trigger debug panic");
    assert_eq!(status, 202);

    let dump_path = serve.profile.join("flight.dump");
    let waited = ClockHandle::real().start();
    let dump = loop {
        if let Ok(text) = std::fs::read_to_string(&dump_path) {
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "flight.dump never appeared"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        dump.starts_with("# bp-flight dump v1"),
        "dump header missing: {}",
        dump.lines().next().unwrap_or_default()
    );
    assert!(
        dump.contains("debug panic requested"),
        "panic event missing from flight dump"
    );
    // Every retained line after the header must be a complete JSON
    // object — a torn dump would betray the recorder.
    for line in dump.lines().skip(1).filter(|l| !l.is_empty()) {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "torn flight-dump line: {line}"
        );
    }

    // The daemon itself survived the worker panic.
    let (status, _) = serve.get("/healthz").expect("daemon survived panic");
    assert_eq!(status, 200);
    serve.terminate_cleanly();
}

/// `/tracez` without a query string and `/profilez` render one ring of
/// sampled span trees two ways: once a sampled pass has left a
/// personalize tree, its EXPLAIN table nests the inner contextual
/// search's table.
#[test]
fn tracez_and_profilez_render_the_same_sampled_passes() {
    let serve = ServeChild::spawn("rings", &["--days", "2", "--query-interval-ms", "20"]);
    serve.wait_for("/tracez", Duration::from_secs(60), |s, body| {
        s == 200 && body.lines().any(|l| l.starts_with("query.personalize  "))
    });
    let (status, body) = serve.get("/profilez").expect("scrape /profilez");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.starts_with("query.personalize  total "))
        .unwrap_or_else(|| panic!("no personalize table in /profilez:\n{body}"));
    let mut table = lines[start + 1..]
        .iter()
        .take_while(|l| !l.starts_with("query."));
    assert!(
        table.any(|l| l.starts_with("  query.context  total ")),
        "the personalize table must nest its contextual search's:\n{body}"
    );
    serve.terminate_cleanly();
}

/// The request-tracing acceptance path, end to end: a forced deadline
/// miss must leave a retained trace in `/tracez` findable by `?min_ms=`
/// and `?id=`, the same trace ID stamped on the structured log line in
/// the flight recorder, a histogram exemplar in `/metrics.json` pointing
/// at a retained trace, and the fast-burn alert line naming the worst
/// retained offenders.
#[test]
fn deadline_miss_traces_are_retrievable_end_to_end() {
    let serve = ServeChild::spawn(
        "tracing",
        &[
            "--days",
            "2",
            "--inject-latency-us",
            "300000",
            "--query-interval-ms",
            "20",
        ],
    );
    serve.wait_for("/readyz", Duration::from_secs(60), |s, _| s == 200);

    // 1. A deadline-missed trace is retained and searchable by latency
    //    floor; the same ID resolves via `?id=`. The retention ring
    //    churns quickly under the injected-latency barrage, so pick the
    //    newest match and retry the pair until a lookup lands.
    let waited = ClockHandle::real().start();
    let trace_id = loop {
        assert!(
            waited.elapsed() < Duration::from_secs(60),
            "no deadline-miss trace became retrievable by id"
        );
        let found = serve
            .get("/tracez?min_ms=250")
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| {
                let line = body.lines().rfind(|l| l.contains("deadline_miss"))?;
                let id = line.split_ascii_whitespace().next()?.to_owned();
                assert_eq!(id.len(), 16, "trace IDs render as 16 hex digits: {line}");
                let (status, by_id) = serve.get(&format!("/tracez?id={id}")).ok()?;
                (status == 200 && by_id.contains(&id) && by_id.contains("deadline_miss"))
                    .then_some(id)
            });
        if let Some(id) = found {
            break id;
        }
        std::thread::sleep(Duration::from_millis(100));
    };

    // 2. The same ID is stamped on the structured deadline-miss log line
    //    held by the flight recorder (fetched promptly: the flight ring
    //    holds ~4k events and the miss barrage churns it).
    let (status, flight) = serve.get("/debug/flightz").expect("flight dump");
    assert_eq!(status, 200);
    let stamp = format!("\"trace_id\":\"{trace_id}\"");
    assert!(
        flight.contains(&stamp),
        "flight recorder lost the trace stamp {trace_id}"
    );

    // 3. `/metrics.json` carries histogram exemplars for the query-latency
    //    families, each pointing at a trace by its canonical ID.
    let body = serve.wait_for("/metrics.json", Duration::from_secs(30), |s, body| {
        s == 200 && body.contains("\"exemplars\":")
    });
    let doc = bp_obs::json::parse(&body).expect("metrics.json parses");
    let histograms = doc.get("histograms").expect("histograms object");
    let exemplar_id = [
        "query.context.latency_us",
        "query.textual.latency_us",
        "query.timectx.latency_us",
    ]
    .iter()
    .find_map(|name| {
        histograms
            .get(name)?
            .get("exemplars")?
            .as_array()?
            .first()?
            .get("trace_id")?
            .as_str()
            .map(str::to_owned)
    })
    .expect("a query-latency histogram carries an exemplar");
    assert_eq!(exemplar_id.len(), 16, "{exemplar_id}");

    // 4. The fast-burn alert line names the worst retained offenders.
    serve.wait_for("/metrics", Duration::from_secs(60), |s, body| {
        s == 200 && metric(body, "bp_slo_alerts_total").unwrap_or(0.0) >= 1.0
    });
    let (status, flight) = serve.get("/debug/flightz").expect("flight after alert");
    assert_eq!(status, 200);
    let alert_line = flight
        .lines()
        .find(|l| l.contains("SLO fast burn:") && l.contains("\"worst_traces\""))
        .expect("fast-burn alert line with worst_traces reached the flight recorder");
    let worst = alert_line
        .split("\"worst_traces\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("worst_traces parses");
    assert!(
        worst.split(',').all(|id| id.len() == 16),
        "worst_traces must be canonical trace IDs: {worst}"
    );

    serve.terminate_cleanly();
}

/// `--inject-latency-us 300000` pushes every query past the 200 ms
/// deadline; the fast-burn rule must trip exactly once (the alert is
/// latched) and the burn-rate gauges must report the saturated burn.
#[test]
fn injected_latency_trips_fast_burn_rule_exactly_once() {
    let serve = ServeChild::spawn(
        "burn",
        &[
            "--days",
            "2",
            "--inject-latency-us",
            "300000",
            "--query-interval-ms",
            "20",
        ],
    );
    serve.wait_for("/readyz", Duration::from_secs(60), |s, _| s == 200);

    // Wait until the SLO engine has evaluated enough all-miss samples to
    // fire the alert.
    let body = serve.wait_for("/metrics", Duration::from_secs(60), |s, body| {
        s == 200 && metric(body, "bp_slo_alerts_total").unwrap_or(0.0) >= 1.0
    });
    assert_eq!(metric(&body, "bp_slo_alerts_total"), Some(1.0));
    // Gauges are scaled thousandths; an all-miss 99% objective burns at
    // 100x, far past the 14.4x fast threshold.
    let burn_5m = metric(&body, "bp_slo_burn_rate_5m").expect("5m burn gauge");
    assert!(burn_5m >= 14_400.0, "5m burn rate too low: {burn_5m}");

    // Keep scraping: the alert is latched, so the counter must stay at
    // exactly one while misses continue.
    let latched = ClockHandle::real().start();
    while latched.elapsed() < Duration::from_secs(5) {
        let (status, body) = serve.get("/metrics").expect("follow-up scrape");
        assert_eq!(status, 200);
        assert_eq!(
            metric(&body, "bp_slo_alerts_total"),
            Some(1.0),
            "fast-burn alert fired more than once"
        );
        std::thread::sleep(Duration::from_millis(250));
    }
    serve.terminate_cleanly();
}
