//! `browserprov serve` — the long-running observability daemon.
//!
//! Runs the full stack continuously instead of one-shot: a feeder thread
//! replays simulated browsing into the capture pipeline, a query worker
//! exercises the seven §2 query paths against the live store, and an HTTP
//! endpoint (hand-rolled, [`bp_obs::httpx`]) serves the observability
//! plane:
//!
//! | endpoint          | body                                              |
//! |-------------------|---------------------------------------------------|
//! | `/metrics`        | Prometheus text exposition of every live metric   |
//! | `/metrics.json`   | the same registry as JSON                         |
//! | `/healthz`        | liveness: WAL dir writable, capture thread alive  |
//! | `/readyz`         | readiness: warmed up, queue drained, snapshots on |
//! | `/tracez`         | recent query span trees; `?min_ms=&path=&id=`     |
//! |                   | (plus `format=json`) searches tail-sampled traces |
//! | `/profilez`       | recent query EXPLAIN profiles                     |
//! | `/debug/flightz`  | the in-memory flight-recorder dump                |
//! | `/debug/panicz`   | (only with `--allow-debug-panic`) crash a worker  |
//!
//! `SIGTERM`/`SIGINT` stop the daemon gracefully; `SIGUSR1` writes a
//! flight dump to `<profile>/flight.dump` without stopping. The bound
//! port is written to `<profile>/serve.port` so scripts and tests can
//! discover an ephemeral `--port 0`.
//!
//! Query latencies are scored against the paper's 200 ms interactive
//! bound by an in-process SLO engine ([`bp_obs::slo`]): burn-rate gauges
//! `bp_slo_burn_rate.{5m,1h}` and a latched fast-burn alert. See
//! EXPERIMENTS.md E9; `--inject-latency-us` exists to rehearse the alert.

use crate::args::Args;
use crate::commands::{export_metrics, import_metrics};
use crate::signals;
use bp_core::{CaptureConfig, CapturePipeline, ProvenanceBrowser, SharedBrowser};
use bp_graph::traverse::Budget;
use bp_obs::slo::SloEngine;
use bp_obs::{expo, flight, httpx, log, names, profile, sampler, trace, ClockHandle, Obs};
use bp_query::{
    contextual_history_search, first_recognizable_ancestor, personalize_query,
    textual_history_search, time_contextual_search, ContextualConfig, LineageConfig,
    PersonalizeConfig, TimeContextConfig,
};
use bp_sim::calibrate;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The paper's interactive bound: queries must answer within 200 ms.
const QUERY_DEADLINE: Duration = Duration::from_millis(200);

/// How many span trees / EXPLAIN profiles `/tracez` and `/profilez` keep.
const DEBUG_RING_CAPACITY: usize = 32;

/// Collect a trace + profile on every Nth query-worker iteration. Sampling
/// keeps the rings fresh without paying collection cost on the hot path.
const DEBUG_SAMPLE_EVERY: u64 = 16;

/// `/readyz` fails once the capture queue backs up this far.
const READY_MAX_QUEUE_DEPTH: i64 = 100_000;

/// Events the feeder submits per burst — sized to fill (but not overrun)
/// one capture drain batch.
const FEEDER_CHUNK: usize = 64;

/// Parsed `serve` options.
struct ServeOptions {
    profile: PathBuf,
    port: u16,
    days: u32,
    seed: u64,
    duration: Option<Duration>,
    snapshot_interval: Duration,
    inject_latency: Duration,
    query_interval: Duration,
    allow_debug_panic: bool,
}

impl ServeOptions {
    fn parse(args: &Args) -> Result<ServeOptions, String> {
        let duration_s = args.opt_int("duration-s", 0u64)?;
        Ok(ServeOptions {
            profile: PathBuf::from(args.opt("profile", "./profile")),
            port: args.opt_int("port", 0u16)?,
            days: args.opt_int("days", 79u32)?,
            seed: args.opt_int("seed", 42u64)?,
            duration: (duration_s > 0).then(|| Duration::from_secs(duration_s)),
            snapshot_interval: Duration::from_secs(
                args.opt_int("snapshot-interval-s", 30u64)?.max(1),
            ),
            inject_latency: Duration::from_micros(args.opt_int("inject-latency-us", 0u64)?),
            query_interval: Duration::from_millis(args.opt_int("query-interval-ms", 50u64)?.max(1)),
            allow_debug_panic: args.has("allow-debug-panic"),
        })
    }
}

/// State shared between the HTTP handler and the worker threads.
struct ServeState {
    obs: Obs,
    shared: SharedBrowser,
    pipeline: Arc<CapturePipeline>,
    slo: SloEngine,
    profile_dir: PathBuf,
    profile_label: String,
    allow_debug_panic: bool,
    /// Set once the feeder has applied its first day of history.
    ready: AtomicBool,
    /// All workers exit when this goes true.
    stop: AtomicBool,
    /// Unix ms of the last successful snapshot (start time until then).
    last_snapshot_ms: AtomicU64,
    snapshot_interval: Duration,
    traces: Mutex<VecDeque<String>>,
    profiles: Mutex<VecDeque<String>>,
}

impl ServeState {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Liveness: the WAL directory accepts writes and the capture thread
    /// has not died on a storage error.
    fn health(&self) -> Result<(), String> {
        if let Some(failure) = self.pipeline.failure() {
            return Err(format!("capture pipeline stopped: {failure}"));
        }
        let probe = self.profile_dir.join(".healthz.probe");
        std::fs::write(&probe, b"bp-healthz\n")
            .map_err(|e| format!("WAL dir not writable: {e}"))?;
        let _ = std::fs::remove_file(&probe);
        Ok(())
    }

    /// Readiness: warmed up, capture queue draining, snapshots recent.
    fn readiness(&self) -> Result<(), String> {
        self.health()?;
        if !self.ready.load(Ordering::SeqCst) {
            return Err("still replaying initial history".to_owned());
        }
        let depth = self.obs.gauge(names::CAPTURE_QUEUE_DEPTH).get();
        if depth > READY_MAX_QUEUE_DEPTH {
            return Err(format!("capture queue backed up ({depth} events)"));
        }
        let age_ms =
            bp_obs::unix_time_ms().saturating_sub(self.last_snapshot_ms.load(Ordering::SeqCst));
        let stale_after = self.snapshot_interval * 10;
        if age_ms > stale_after.as_millis() as u64 {
            return Err(format!("last snapshot {age_ms} ms ago"));
        }
        Ok(())
    }

    fn push_ring(ring: &Mutex<VecDeque<String>>, entry: String) {
        let mut ring = ring.lock();
        if ring.len() == DEBUG_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    fn render_ring(ring: &Mutex<VecDeque<String>>, empty_hint: &str) -> String {
        let ring = ring.lock();
        if ring.is_empty() {
            return format!("{empty_hint}\n");
        }
        ring.iter().cloned().collect::<Vec<_>>().join("\n")
    }
}

/// Routes one HTTP request.
fn handle(state: &ServeState, request: &httpx::Request) -> httpx::Response {
    state.obs.counter(names::BP_SERVE_HTTP_REQUESTS_TOTAL).inc();
    match request.path.as_str() {
        "/metrics" => {
            let snap = state.obs.registry().snapshot();
            let mut body = expo::render_prometheus(&snap);
            body.push_str(&expo::render_labeled_sample(
                "bp_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("profile", state.profile_label.as_str()),
                ],
                1,
            ));
            httpx::Response::metrics_text(body)
        }
        "/metrics.json" => {
            let snap = state.obs.registry().snapshot();
            httpx::Response::json(200, expo::render_json(&snap))
        }
        "/healthz" => match state.health() {
            Ok(()) => httpx::Response::text(200, "ok\n"),
            Err(reason) => httpx::Response::text(503, format!("unhealthy: {reason}\n")),
        },
        "/readyz" => match state.readiness() {
            Ok(()) => httpx::Response::text(200, "ready\n"),
            Err(reason) => httpx::Response::text(503, format!("not ready: {reason}\n")),
        },
        "/tracez" => {
            if request.query.is_empty() {
                // Legacy view: the periodic span-tree ring.
                httpx::Response::text(
                    200,
                    ServeState::render_ring(&state.traces, "# no traces collected yet"),
                )
            } else {
                // `?min_ms=&path=&id=&format=json` searches the tail
                // sampler's retained traces.
                let mut min_us = None;
                let mut path_filter = None;
                let mut id = None;
                let mut json = false;
                for pair in request.query.split('&').filter(|p| !p.is_empty()) {
                    let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
                    match key {
                        "min_ms" => min_us = value.parse::<u64>().ok().map(|ms| ms * 1_000),
                        "path" => path_filter = Some(value.to_owned()),
                        "id" => id = trace::parse_trace_id(value),
                        "format" => json = value == "json",
                        _ => {}
                    }
                }
                let matches = sampler::global().search(min_us, path_filter.as_deref(), id);
                if json {
                    let body = format!(
                        "{{\"traces\":[{}]}}",
                        matches
                            .iter()
                            .map(sampler::TraceRecord::to_json)
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    httpx::Response::json(200, body)
                } else {
                    let mut body = format!("# {} retained traces matched\n", matches.len());
                    for record in &matches {
                        body.push_str(&record.render_line());
                        body.push('\n');
                        // Exact-ID lookups include the span tree when one
                        // was captured for that request.
                        if id.is_some() {
                            if let Some(tree) = &record.tree {
                                body.push_str(tree);
                            }
                        }
                    }
                    httpx::Response::text(200, body)
                }
            }
        }
        "/profilez" => {
            // Merge capture-batch profiles (collected on the capture
            // thread during sampled windows) into the ring, so ingest
            // flushes render next to query EXPLAIN tables.
            for p in state.pipeline.take_profiles() {
                ServeState::push_ring(&state.profiles, p.render_table());
            }
            httpx::Response::text(
                200,
                ServeState::render_ring(&state.profiles, "# no profiles collected yet"),
            )
        }
        "/debug/flightz" => httpx::Response::text(200, flight::global().render()),
        "/debug/panicz" if state.allow_debug_panic => {
            // A deliberate worker crash: proves the panic hook leaves a
            // complete flight dump while the daemon itself survives.
            std::thread::spawn(|| {
                panic!("debug panic requested via /debug/panicz");
            });
            httpx::Response::text(202, "worker panic scheduled\n")
        }
        "/" => httpx::Response::text(
            200,
            "browserprov serve\n\
             endpoints: /metrics /metrics.json /healthz /readyz /tracez /profilez \
             /debug/flightz\n",
        ),
        _ => httpx::Response::not_found(),
    }
}

/// Replays simulated browsing into the capture pipeline, cycling the
/// event-log generation with a fresh seed (and shifted timestamps) each
/// pass so capture never idles for as long as the daemon runs.
fn feeder_loop(state: &ServeState, days: u32, seed: u64) {
    let clock = ClockHandle::real();
    let web = calibrate::paper_web(seed);
    let cycle_span = Duration::from_secs(u64::from(days) + 1) * 86_400;
    let mut cycle: u64 = 0;
    while !state.stopping() {
        // One trace context per replay cycle: the cycle's log lines and
        // every capture-thread ingest of its events share the ID (the
        // context rides each submitted event across the queue).
        let _ctx = trace::enter_new(&clock);
        let events = calibrate::days_history(&web, seed.wrapping_add(cycle), days);
        log::info(
            "bp_cli::serve",
            "replay cycle starting",
            &[
                ("cycle", cycle.to_string()),
                ("events", events.len().to_string()),
            ],
        );
        // Submit in chunks: one queue-depth update and one channel burst
        // per chunk feeds the capture thread's batched drain (it applies
        // a whole chunk under one write lock and one WAL frame group).
        for chunk in events.chunks(FEEDER_CHUNK) {
            if state.stopping() {
                return;
            }
            let shifted = chunk.iter().map(|event| {
                let mut event = event.clone();
                event.at = event.at.plus(cycle_span * cycle as u32);
                event
            });
            if state.pipeline.submit_all(shifted) < chunk.len() {
                log::error(
                    "bp_cli::serve",
                    "capture pipeline gone; feeder exiting",
                    &[],
                );
                return;
            }
            // Pace the replay so capture interleaves with queries rather
            // than arriving as one burst, and so the queue stays bounded.
            std::thread::sleep(Duration::from_millis(1));
        }
        state.pipeline.flush();
        state.ready.store(true, Ordering::SeqCst);
        state.obs.counter(names::BP_SERVE_REPLAY_CYCLES_TOTAL).inc();
        cycle += 1;
    }
}

/// Runs one pass over the seven §2 query paths, recording each against
/// the 200 ms SLO. Returns the rendered output of the last query (unused
/// except to keep the calls from being optimized into nothing).
fn run_query_pass(state: &ServeState, inject: Duration, pass: u64) {
    let clock = ClockHandle::real();
    let contextual = ContextualConfig {
        budget: Budget::new().with_deadline(QUERY_DEADLINE),
        ..ContextualConfig::default()
    };
    let sample_debug = pass.is_multiple_of(DEBUG_SAMPLE_EVERY);
    if sample_debug {
        trace::set_enabled(true);
        let _ = trace::take_roots();
        profile::set_enabled(true);
        let _ = profile::take();
    }
    // Seven paths: context, ppr, textual, personalize, timectx, lineage,
    // describe. The simulator's topic vocabulary guarantees "news" and
    // "software" resolve.
    let browser = state.shared.read();
    for name in [
        "context",
        "ppr",
        "textual",
        "personalize",
        "timectx",
        "lineage",
        "describe",
    ] {
        if state.stopping() {
            break;
        }
        // One trace context per request: the query path reuses it (via
        // `trace::ensure`), its root span, log lines, histogram exemplars,
        // and tail-sampler record all share this ID.
        let ctx = trace::enter_new(&clock);
        let trace_id = ctx.context().map(|c| c.trace_id);
        let sw = clock.start();
        match name {
            "context" => {
                let _ = contextual_history_search(&browser, "news", &contextual);
            }
            "ppr" => {
                let _ = bp_query::contextual_history_search_ppr(
                    &browser,
                    "news",
                    &contextual,
                    &bp_graph::pagerank::PageRankConfig::default(),
                );
            }
            "textual" => {
                let _ = textual_history_search(&browser, "news", &contextual);
            }
            "personalize" => {
                let _ = personalize_query(&browser, "news", &PersonalizeConfig::default());
            }
            "timectx" => {
                let _ = time_contextual_search(
                    &browser,
                    "news",
                    "software",
                    &TimeContextConfig::default(),
                );
            }
            "lineage" => {
                if let Some(download) = browser
                    .graph()
                    .nodes_of_kind(bp_graph::NodeKind::Download)
                    .next()
                {
                    let config = LineageConfig {
                        budget: Budget::new().with_deadline(QUERY_DEADLINE),
                        ..LineageConfig::default()
                    };
                    let _ = first_recognizable_ancestor(&browser, download, &config);
                }
            }
            _ => {
                let _ = bp_query::describe_origin(
                    &browser,
                    "news",
                    &bp_query::DescribeConfig::default(),
                );
            }
        }
        let elapsed = sw.elapsed() + inject;
        let good = elapsed <= QUERY_DEADLINE;
        state.slo.record(good);
        if !good {
            // The serve-level deadline includes injected latency the query
            // path itself never saw, so offer the miss here too — the tail
            // sampler retains every deadline miss unconditionally.
            if let Some(trace_id) = trace_id {
                sampler::global().offer(sampler::TraceRecord {
                    trace_id,
                    path: name,
                    elapsed_us: elapsed.as_micros() as u64,
                    outcome: sampler::TraceOutcome::DeadlineMiss,
                    unix_ms: 0,
                    tree: None,
                });
            }
            log::warn(
                "bp_cli::serve",
                "query missed the interactive deadline",
                &[
                    ("path", name.to_owned()),
                    ("elapsed", format!("{elapsed:?}")),
                ],
            );
        }
        drop(ctx);
    }
    drop(browser);
    if sample_debug {
        trace::set_enabled(false);
        profile::set_enabled(false);
        let roots = trace::take_roots();
        if !roots.is_empty() {
            for root in &roots {
                // Opportunistic: when this request's record survived the
                // tail decision, its `/tracez?id=` entry gains the tree.
                if let Some(id) = root.trace_id {
                    sampler::global().attach_tree(id, root.render());
                }
            }
            let rendered: String = roots.iter().map(|r| r.render()).collect();
            ServeState::push_ring(&state.traces, rendered);
        }
        for p in profile::take() {
            ServeState::push_ring(&state.profiles, p.render_table());
        }
    }
}

/// The query worker: continuously exercises every query path.
fn query_loop(state: &ServeState, inject: Duration, interval: Duration) {
    let mut pass = 0u64;
    while !state.stopping() {
        if state.ready.load(Ordering::SeqCst) {
            run_query_pass(state, inject, pass);
            pass += 1;
        }
        std::thread::sleep(interval);
    }
}

/// Housekeeping: SLO evaluation (~1 s), periodic snapshots, signal
/// handling, uptime gauge, and the `--duration-s` clock.
fn maintenance_loop(
    state: &ServeState,
    shutdown: &httpx::ShutdownHandle,
    duration: Option<Duration>,
) {
    let clock = ClockHandle::real();
    let started = clock.start();
    let mut last_snapshot = clock.start();
    let mut last_evaluate = clock.start();
    loop {
        if signals::shutdown_requested() || duration.is_some_and(|d| started.elapsed() >= d) {
            state.stop.store(true, Ordering::SeqCst);
            shutdown.shutdown();
            return;
        }
        if signals::take_flight_dump_request() {
            let path = state.profile_dir.join("flight.dump");
            match flight::global().dump_to(&path) {
                Ok(()) => log::info(
                    "bp_cli::serve",
                    "flight dump written on SIGUSR1",
                    &[("path", path.display().to_string())],
                ),
                Err(e) => log::error(
                    "bp_cli::serve",
                    "flight dump failed",
                    &[("error", e.to_string())],
                ),
            }
        }
        if last_evaluate.elapsed() >= Duration::from_secs(1) {
            last_evaluate = clock.start();
            let _ = state.slo.evaluate();
            state
                .obs
                .gauge(names::BP_SERVE_UPTIME_SECONDS)
                .set(started.elapsed().as_secs() as i64);
        }
        if state.ready.load(Ordering::SeqCst) && last_snapshot.elapsed() >= state.snapshot_interval
        {
            last_snapshot = clock.start();
            let result = state.shared.with_mut(|b| b.snapshot());
            match result {
                Ok(()) => {
                    state
                        .last_snapshot_ms
                        .store(bp_obs::unix_time_ms(), Ordering::SeqCst);
                }
                Err(e) => log::error(
                    "bp_cli::serve",
                    "periodic snapshot failed",
                    &[("error", e.to_string())],
                ),
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs the daemon until a signal or `--duration-s` elapses.
///
/// # Errors
///
/// Returns a displayable error string when an integer option is not a
/// number, the profile cannot be opened or the port cannot be bound.
pub fn run(args: &Args) -> Result<String, String> {
    let options = ServeOptions::parse(args)?;
    signals::install();
    log::set_stderr(true);
    std::fs::create_dir_all(&options.profile).map_err(|e| e.to_string())?;
    flight::install_panic_hook(options.profile.join("flight.dump"));
    import_metrics(args);

    let browser = ProvenanceBrowser::open(&options.profile, CaptureConfig::default())
        .map_err(|e| e.to_string())?;
    let obs = browser.obs().clone();
    let pipeline = Arc::new(CapturePipeline::start(browser));
    let shared = pipeline.shared();

    let server = httpx::Server::bind(&format!("127.0.0.1:{}", options.port))
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    let port_file = options.profile.join("serve.port");
    std::fs::write(&port_file, format!("{}\n", addr.port())).map_err(|e| e.to_string())?;

    let state = Arc::new(ServeState {
        obs: obs.clone(),
        shared: shared.clone(),
        pipeline: Arc::clone(&pipeline),
        slo: SloEngine::new(obs.clone(), ClockHandle::real()),
        profile_dir: options.profile.clone(),
        profile_label: options.profile.display().to_string(),
        allow_debug_panic: options.allow_debug_panic,
        ready: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        last_snapshot_ms: AtomicU64::new(bp_obs::unix_time_ms()),
        snapshot_interval: options.snapshot_interval,
        traces: Mutex::new(VecDeque::new()),
        profiles: Mutex::new(VecDeque::new()),
    });
    log::info(
        "bp_cli::serve",
        "serve daemon listening",
        &[
            ("addr", addr.to_string()),
            ("profile", state.profile_label.clone()),
            ("days", options.days.to_string()),
        ],
    );

    let feeder = {
        let state = Arc::clone(&state);
        let (days, seed) = (options.days, options.seed);
        std::thread::spawn(move || feeder_loop(&state, days, seed))
    };
    let query_worker = {
        let state = Arc::clone(&state);
        let (inject, interval) = (options.inject_latency, options.query_interval);
        std::thread::spawn(move || query_loop(&state, inject, interval))
    };
    let maintenance = {
        let state = Arc::clone(&state);
        let shutdown = server.shutdown_handle();
        let duration = options.duration;
        std::thread::spawn(move || maintenance_loop(&state, &shutdown, duration))
    };

    // Serve blocks here until maintenance requests shutdown; it joins all
    // in-flight connections before returning.
    let handler_state = Arc::clone(&state);
    server.serve(move |request| handle(&handler_state, request));

    state.stop.store(true, Ordering::SeqCst);
    let _ = feeder.join();
    let _ = query_worker.join();
    let _ = maintenance.join();

    // Teardown order matters: drain the capture queue, persist, then drop
    // the last pipeline handle (its Drop joins the capture thread).
    pipeline.flush();
    let uptime = state.obs.gauge(names::BP_SERVE_UPTIME_SECONDS).get();
    let requests = state.obs.counter(names::BP_SERVE_HTTP_REQUESTS_TOTAL).get();
    if let Err(e) = shared.with_mut(|b| b.sync()) {
        log::error(
            "bp_cli::serve",
            "final sync failed",
            &[("error", e.to_string())],
        );
    }
    export_metrics(args);
    let _ = std::fs::remove_file(&port_file);
    drop(state);
    drop(shared);
    drop(pipeline);
    log::info("bp_cli::serve", "serve daemon stopped", &[]);
    Ok(format!(
        "serve stopped after {uptime}s: {requests} HTTP requests answered on {addr}\n"
    ))
}
