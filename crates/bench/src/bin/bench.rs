//! Continuous benchmark harness.
//!
//! Runs the standard simulated history through ingest and all seven query
//! paths, summarizes latencies from bp-obs log₂ histograms, and writes the
//! schema-versioned `BENCH_<git-short-sha>.json` + `BENCH_latest.json`;
//! the sha gains a `-dirty` suffix when tracked files differ from HEAD.
//!
//! ```text
//! cargo run -p bp-bench --release --bin bench                    # paper scale (79 days)
//! cargo run -p bp-bench --release --bin bench -- --days 7        # CI quick run
//! cargo run -p bp-bench --release --bin bench -- --days 7 \
//!     --compare BENCH_baseline.json --threshold 20               # regression gate
//! ```
//!
//! `--compare` exits nonzero when any path's p95 grew past the threshold
//! (default 20%) and the `--floor-us` noise floor. On top of that broad
//! sweep, the relevance paths (`context`/`ppr`/`personalize`) are held to
//! the tighter `--gate-threshold` (default 15%) over `--gate-floor-us`
//! (default 100) — they carry the frozen-graph perf headline.
//!
//! Every run also replays the stream through the batched capture
//! pipeline against a group-commit WAL and reports the sustained
//! throughput as `ingest.events_per_sec` plus a `wal` section
//! (groups, events/group, drain batch sizes, sync p95). Two absolute
//! gates ride on top of the relative comparison: `--ingest-floor EPS`
//! fails the run when sustained throughput drops below the floor, and
//! `--e1-max RATIO` fails it when the E1 storage-overhead ratio rises
//! above the ceiling — both work with or without `--compare`.
//!
//! `--serve-smoke HOST:PORT` switches to smoke-testing a running
//! `browserprov serve` daemon instead: every observability endpoint is
//! scraped over a raw TCP socket, `/metrics` must expose a non-empty
//! `bp_` metric family, and per-endpoint scrape latencies are reported.
//! Exits nonzero on any failed scrape.

use bp_bench::fixtures::{history, TempProfile};
use bp_bench::report::{
    compare, compare_paths, median_us, BenchReport, FrozenStats, LatencySummary, StoreSizes,
    WalStats,
};
use bp_core::{CaptureConfig, CapturePipeline, ProvenanceBrowser};
use bp_obs::profile::Profile;
use bp_obs::{profile, ClockHandle, Obs};
use bp_places::{PlacesDb, PlacesIngester};
use bp_query::{
    contextual_history_search, contextual_history_search_ppr, describe_origin, find_download,
    first_recognizable_ancestor, personalize_query, textual_history_search, time_contextual_search,
    ContextualConfig, DescribeConfig, LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_sim::web::TOPICS;
use bp_storage::SyncPolicy;
use std::collections::BTreeMap;
use std::time::Duration;

/// The query paths the frozen-graph work accelerates; `--compare` holds
/// these to the tighter `--gate-threshold` on top of the broad sweep.
const RELEVANCE_PATHS: [&str; 3] = ["context", "ppr", "personalize"];

struct Options {
    days: u32,
    runs: u64,
    out_dir: String,
    compare_with: Option<String>,
    threshold_pct: f64,
    floor_us: u64,
    gate_threshold_pct: f64,
    gate_floor_us: u64,
    ingest_floor: Option<f64>,
    e1_max: Option<f64>,
    serve_smoke: Option<String>,
}

fn parse_options(raw: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        days: 79,
        runs: 40,
        out_dir: ".".to_owned(),
        compare_with: None,
        threshold_pct: 20.0,
        floor_us: 0,
        gate_threshold_pct: 15.0,
        gate_floor_us: 100,
        ingest_floor: None,
        e1_max: None,
        serve_smoke: None,
    };
    let mut i = 0;
    while i < raw.len() {
        let value = |i: usize| -> Result<&String, String> {
            raw.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", raw[i]))
        };
        match raw[i].as_str() {
            "--days" => {
                opts.days = value(i)?.parse().map_err(|_| "--days must be a number")?;
                i += 2;
            }
            "--runs" => {
                opts.runs = value(i)?.parse().map_err(|_| "--runs must be a number")?;
                i += 2;
            }
            "--out-dir" => {
                opts.out_dir = value(i)?.clone();
                i += 2;
            }
            "--compare" => {
                opts.compare_with = Some(value(i)?.clone());
                i += 2;
            }
            "--threshold" => {
                opts.threshold_pct = value(i)?
                    .parse()
                    .map_err(|_| "--threshold must be a number")?;
                i += 2;
            }
            "--floor-us" => {
                opts.floor_us = value(i)?
                    .parse()
                    .map_err(|_| "--floor-us must be a number")?;
                i += 2;
            }
            "--gate-threshold" => {
                opts.gate_threshold_pct = value(i)?
                    .parse()
                    .map_err(|_| "--gate-threshold must be a number")?;
                i += 2;
            }
            "--gate-floor-us" => {
                opts.gate_floor_us = value(i)?
                    .parse()
                    .map_err(|_| "--gate-floor-us must be a number")?;
                i += 2;
            }
            "--ingest-floor" => {
                opts.ingest_floor = Some(
                    value(i)?
                        .parse()
                        .map_err(|_| "--ingest-floor must be a number")?,
                );
                i += 2;
            }
            "--e1-max" => {
                opts.e1_max = Some(value(i)?.parse().map_err(|_| "--e1-max must be a number")?);
                i += 2;
            }
            "--serve-smoke" => {
                opts.serve_smoke = Some(value(i)?.clone());
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

/// The commit a report describes: `git rev-parse --short HEAD`, marked
/// by [`report_sha`] when tracked files differ from it.
fn git_short_sha() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let sha = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_default();
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    report_sha(&sha, status.as_deref())
}

/// The name of a report of the tree at short sha `sha` whose `git status
/// --porcelain --untracked-files=no` printed `status`: the sha itself for
/// a clean tree, `<sha>-dirty` when a tracked file is modified or the
/// status could not be read, and `nogit` without a sha. Untracked files
/// (earlier reports among them) leave a tree clean.
fn report_sha(sha: &str, status: Option<&str>) -> String {
    let sha = sha.trim();
    if sha.is_empty() {
        return "nogit".to_owned();
    }
    match status {
        Some(status) if status.trim().is_empty() => sha.to_owned(),
        _ => format!("{sha}-dirty"),
    }
}

/// Accumulates `path.stage` wall-time samples from a profile tree.
fn collect_stages(p: &Profile, into: &mut BTreeMap<String, Vec<u64>>) {
    for s in &p.stages {
        into.entry(format!("{}.{}", p.query, s.name))
            .or_default()
            .push(s.wall_us);
    }
    for child in &p.children {
        collect_stages(child, into);
    }
}

fn run_benchmark(opts: &Options) -> Result<BenchReport, String> {
    let obs = Obs::isolated();
    let clock = ClockHandle::real();
    eprintln!("bench: generating {}-day history...", opts.days);
    let h = history(opts.days);

    // Ingest, one latency sample per event.
    let dir = TempProfile::new(&format!("bench-{}", opts.days));
    let mut browser = ProvenanceBrowser::open_with_obs(
        dir.path(),
        CaptureConfig::default(),
        SyncPolicy::OsManaged,
        obs.clone(),
    )
    .map_err(|e| e.to_string())?;
    let ingest_hist = obs.histogram("bench.ingest.latency_us");
    for event in &h.events {
        let t0 = clock.start();
        browser.ingest(event).map_err(|e| e.to_string())?;
        ingest_hist.record_duration(t0.elapsed());
    }
    eprintln!(
        "bench: ingested {} events ({} nodes, {} edges)",
        h.events.len(),
        browser.graph().node_count(),
        browser.graph().edge_count()
    );

    // Sustained-ingest throughput: the same stream replayed through the
    // batched capture pipeline against a group-commit WAL, in its own
    // profile + registry so its telemetry stays separable. Events/sec is
    // wall time from first submit to the flush ack (i.e. every event
    // applied), the write path the paper's always-on capture relies on.
    eprintln!("bench: measuring sustained ingest throughput...");
    let tput_obs = Obs::isolated();
    let tput_dir = TempProfile::new(&format!("bench-tput-{}", opts.days));
    let tput_browser = ProvenanceBrowser::open_with_obs(
        tput_dir.path(),
        CaptureConfig::default(),
        // A wide commit window so the sync amortizes across many drain
        // batches: at full tilt a 256-event group lands every few ms, and
        // a 5ms-style window would fsync at *every* group boundary —
        // measuring the disk, not the write path. 50ms of bounded loss is
        // the standard group-commit trade (cf. innodb_flush_log_at_timeout).
        SyncPolicy::GroupCommit {
            max_events: 4096,
            max_delay: Duration::from_millis(50),
        },
        tput_obs.clone(),
    )
    .map_err(|e| e.to_string())?;
    let pipeline = CapturePipeline::start(tput_browser);
    // Sustained means sustained: one warmup cycle absorbs thread
    // startup and cold caches, then the stream replays time-shifted
    // (the serve feeder's scheme) until ≥20k events have gone through;
    // the clock runs from first measured submit to the flush ack.
    let cycle_span = Duration::from_secs(u64::from(opts.days) + 1) * 86_400;
    let shifted = |cycle: u32| {
        h.events.iter().map(move |event| {
            let mut event = event.clone();
            event.at = event.at.plus(cycle_span * cycle);
            event
        })
    };
    if pipeline.submit_all(shifted(0)) != h.events.len() {
        return Err("throughput warmup rejected events".to_owned());
    }
    pipeline.flush();
    let cycles = (20_000 / h.events.len().max(1) + 1) as u32;
    let expected = h.events.len() * cycles as usize;
    let mut submitted = 0usize;
    let t0 = clock.start();
    for cycle in 1..=cycles {
        submitted += pipeline.submit_all(shifted(cycle));
    }
    pipeline.flush();
    let tput_wall = t0.elapsed();
    if let Some(failure) = pipeline.failure() {
        return Err(format!("throughput pipeline failed: {failure}"));
    }
    if submitted != expected {
        return Err(format!(
            "throughput pipeline accepted {submitted} of {expected} events"
        ));
    }
    let ingest_events_per_sec = submitted as f64 / tput_wall.as_secs_f64().max(1e-9);
    drop(pipeline.shutdown());
    let tput_snap = tput_obs.registry().snapshot();
    let counter = |name: &str| tput_snap.counters.get(name).copied().unwrap_or(0);
    let hist = |name: &str| tput_snap.histograms.get(name);
    let wal = WalStats {
        appends: counter("wal.appends_total"),
        bytes_written: counter("wal.bytes_written"),
        groups: counter("wal.group_commit.groups"),
        group_events: counter("wal.group_commit.events"),
        batch_p50: hist("capture.batch_len").map_or(0, |h| h.p50()),
        batch_p95: hist("capture.batch_len").map_or(0, |h| h.p95()),
        sync_p95_us: hist("wal.group_commit.sync_us").map_or(0, |h| h.p95()),
    };
    eprintln!(
        "bench: sustained ingest {:.0} events/sec ({} events in {:.3}s; \
         {} wal groups, {:.1} events/group, batch p50={} p95={})",
        ingest_events_per_sec,
        submitted,
        tput_wall.as_secs_f64(),
        wal.groups,
        wal.events_per_group(),
        wal.batch_p50,
        wal.batch_p95
    );

    // Workload inputs drawn from the simulator's topic vocabularies and
    // the captured downloads, cycled to fill the per-path run count.
    let terms: Vec<&str> = TOPICS
        .iter()
        .flat_map(|t| t.vocabulary.iter().copied())
        .collect();
    let downloads: Vec<(bp_graph::NodeId, String)> = browser
        .graph()
        .nodes_of_kind(bp_graph::NodeKind::Download)
        .filter_map(|n| {
            browser
                .graph()
                .node(n)
                .ok()
                .map(|node| (n, node.key().to_owned()))
        })
        .collect();
    if terms.is_empty() || downloads.is_empty() {
        return Err("history produced no query inputs".to_owned());
    }

    // All seven query paths, profiled: latency samples feed bp-obs log₂
    // histograms, per-stage walls feed the stage medians.
    profile::set_enabled(true);
    let _ = profile::take();
    let mut stage_samples: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let contextual = ContextualConfig::default();
    let personalize = PersonalizeConfig::default();
    let runs = opts.runs as usize;
    for run in 0..runs {
        let term = terms[run % terms.len()];
        let pair = (term, terms[(run + 7) % terms.len()]);
        let (dl, dl_key) = &downloads[run % downloads.len()];
        let t = |name: &str, elapsed: std::time::Duration| {
            obs.histogram(&format!("bench.query.{name}.latency_us"))
                .record_duration(elapsed);
        };
        t(
            "context",
            contextual_history_search(&browser, term, &contextual).elapsed,
        );
        t(
            "ppr",
            contextual_history_search_ppr(
                &browser,
                term,
                &contextual,
                &bp_graph::pagerank::PageRankConfig::default(),
            )
            .elapsed,
        );
        t(
            "textual",
            textual_history_search(&browser, term, &contextual).elapsed,
        );
        let t0 = clock.start();
        let _ = personalize_query(&browser, term, &personalize);
        t("personalize", t0.elapsed());
        t(
            "timectx",
            time_contextual_search(&browser, pair.0, pair.1, &TimeContextConfig::default()).elapsed,
        );
        let t0 = clock.start();
        let _ = first_recognizable_ancestor(&browser, *dl, &LineageConfig::default());
        t("lineage", t0.elapsed());
        let t0 = clock.start();
        let _ = describe_origin(&browser, dl_key, &DescribeConfig::default());
        t("describe", t0.elapsed());
        // find_download keeps the lineage entry point honest (and cheap).
        let _ = find_download(&browser, dl_key);
        for p in profile::take() {
            collect_stages(&p, &mut stage_samples);
        }
    }
    profile::set_enabled(false);
    eprintln!("bench: ran {} invocations per query path", opts.runs);

    // Frozen-snapshot/cache telemetry, sampled before compaction so it
    // reflects the query workload alone.
    let (builds, build_us) = browser.frozen_stats();
    let cache = browser.score_cache().stats();
    let frozen = FrozenStats {
        builds,
        build_us,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        cache_bytes: cache.bytes as u64,
    };

    // Store sizes after compaction.
    browser.snapshot().map_err(|e| e.to_string())?;
    let size = browser.size_report();
    let sizes = StoreSizes {
        events: h.events.len() as u64,
        nodes: browser.graph().node_count() as u64,
        edges: browser.graph().edge_count() as u64,
        snapshot_bytes: size.snapshot_bytes,
        log_bytes: size.log_bytes,
    };

    // The E1 headline: bytes this repo actually ships (delta/column
    // snapshot + residual WAL) over the Places baseline for the same
    // event stream. The paper reports 1.395 for its relational schema;
    // that rendering stays measured in EXPERIMENTS.md E1, but the gate
    // tracks the store the write path really produces.
    let mut places = PlacesDb::new();
    let mut ingester = PlacesIngester::new();
    ingester
        .ingest_all(&mut places, &h.events)
        .map_err(|e| format!("{e:?}"))?;
    let places_bytes = places.encoded_size().max(1);
    let store_bytes = size.snapshot_bytes + size.log_bytes;
    let e1_overhead_ratio = store_bytes as f64 / places_bytes as f64;

    let snapshot = obs.registry().snapshot();
    let latency = |name: &str| {
        snapshot
            .histograms
            .get(name)
            .map(LatencySummary::from_histogram)
            .unwrap_or_default()
    };
    let mut queries = BTreeMap::new();
    for path in [
        "context",
        "ppr",
        "textual",
        "personalize",
        "timectx",
        "lineage",
        "describe",
    ] {
        queries.insert(
            path.to_owned(),
            latency(&format!("bench.query.{path}.latency_us")),
        );
    }
    let stage_medians_us = stage_samples
        .into_iter()
        .map(|(name, mut samples)| (name, median_us(&mut samples)))
        .collect();

    Ok(BenchReport {
        git_sha: git_short_sha(),
        days: opts.days,
        runs_per_path: opts.runs,
        sizes,
        e1_overhead_ratio,
        frozen,
        ingest: latency("bench.ingest.latency_us"),
        ingest_events_per_sec,
        wal,
        queries,
        stage_medians_us,
    })
}

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

fn run(raw: &[String]) -> Result<bool, String> {
    let opts = parse_options(raw)?;
    if let Some(addr) = &opts.serve_smoke {
        return run_serve_smoke(addr);
    }
    let report = run_benchmark(&opts)?;
    let text = report.to_json();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    for name in [
        format!("BENCH_{}.json", report.git_sha),
        "BENCH_latest.json".to_owned(),
    ] {
        let path = std::path::Path::new(&opts.out_dir).join(name);
        std::fs::write(&path, &text).map_err(|e| e.to_string())?;
        eprintln!("bench: wrote {}", path.display());
    }
    for (path, q) in &report.queries {
        eprintln!(
            "bench: {path:<12} p50={}us p95={}us p99={}us (n={})",
            q.p50_us, q.p95_us, q.p99_us, q.count
        );
    }
    let f = &report.frozen;
    eprintln!(
        "bench: frozen builds={} build_us={} cache hit-rate={:.1}% \
         ({} hit / {} miss / {} evicted, {} bytes)",
        f.builds,
        f.build_us,
        f.hit_rate() * 100.0,
        f.cache_hits,
        f.cache_misses,
        f.cache_evictions,
        f.cache_bytes
    );
    let mut ok = true;
    // Absolute gates, independent of any baseline: the write-path
    // throughput floor and the E1 storage-overhead ceiling.
    if let Some(floor) = opts.ingest_floor {
        if report.ingest_events_per_sec < floor {
            ok = false;
            eprintln!(
                "bench: ingest-floor FAILED: {:.0} events/sec < floor {:.0}",
                report.ingest_events_per_sec, floor
            );
        } else {
            eprintln!(
                "bench: ingest-floor clean ({:.0} events/sec >= {:.0})",
                report.ingest_events_per_sec, floor
            );
        }
    }
    if let Some(max) = opts.e1_max {
        if report.e1_overhead_ratio > max {
            ok = false;
            eprintln!(
                "bench: e1-max FAILED: overhead ratio {:.4} > ceiling {:.2}",
                report.e1_overhead_ratio, max
            );
        } else {
            eprintln!(
                "bench: e1-max clean (overhead ratio {:.4} <= {:.2})",
                report.e1_overhead_ratio, max
            );
        }
    }
    let Some(baseline_path) = &opts.compare_with else {
        return Ok(ok);
    };
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = BenchReport::from_json(&baseline_text)
        .map_err(|e| format!("baseline {baseline_path}: {e}"))?;
    let regressions = compare(&baseline, &report, opts.threshold_pct, opts.floor_us);
    if regressions.is_empty() {
        eprintln!(
            "bench: no p95 regressions vs {baseline_path} (threshold {:.0}%, floor {}us)",
            opts.threshold_pct, opts.floor_us
        );
    } else {
        ok = false;
        eprintln!(
            "bench: {} p95 regression(s) vs {baseline_path} (threshold {:.0}%, floor {}us):",
            regressions.len(),
            opts.threshold_pct,
            opts.floor_us
        );
        for r in &regressions {
            eprintln!("bench:   {r}");
        }
    }
    // The frozen-graph paths carry the perf headline; hold them to the
    // tighter gate so a regression can't hide inside the broad tolerance.
    let gated = compare_paths(
        &baseline,
        &report,
        opts.gate_threshold_pct,
        opts.gate_floor_us,
        &RELEVANCE_PATHS,
    );
    if gated.is_empty() {
        eprintln!(
            "bench: relevance gate clean ({}; threshold {:.0}%, floor {}us)",
            RELEVANCE_PATHS.join("/"),
            opts.gate_threshold_pct,
            opts.gate_floor_us
        );
    } else {
        ok = false;
        eprintln!(
            "bench: relevance gate FAILED (threshold {:.0}%, floor {}us):",
            opts.gate_threshold_pct, opts.gate_floor_us
        );
        for r in &gated {
            eprintln!("bench:   {r}");
        }
    }
    Ok(ok)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("bench: error: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::report_sha;

    #[test]
    fn report_sha_marks_a_modified_tracked_tree() {
        assert_eq!(report_sha("268191a\n", Some("")), "268191a");
        assert_eq!(
            report_sha("268191a\n", Some(" M crates/graph/src/frozen.rs\n")),
            "268191a-dirty"
        );
        assert_eq!(
            report_sha("268191a", Some("M  CHANGES.md\nD  old.rs\n")),
            "268191a-dirty",
            "staged changes count too"
        );
        assert_eq!(report_sha("268191a", None), "268191a-dirty");
        assert_eq!(report_sha("", Some("")), "nogit");
    }
}
