//! `browserprov` subcommand implementations.
//!
//! Every command returns its output as a `String` so the logic is unit
//! testable; `main` only prints.

use crate::args::Args;
use bp_core::{eventlog, CaptureConfig, ProvenanceBrowser};
use bp_graph::dot::{to_dot, DotOptions};
use bp_graph::stats::stats;
use bp_graph::traverse::Budget;
use bp_obs::{expo, profile, trace, ClockHandle, Obs};
use bp_query::{
    contextual_history_search, downloads_descending_from, find_download,
    first_recognizable_ancestor, personalize_query, textual_history_search, time_contextual_search,
    ContextualConfig, LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_sim::calibrate;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Usage text.
pub const USAGE: &str = "browserprov — a provenance-aware browser history backend

USAGE:
  browserprov generate  --days N --seed S --out FILE   generate a simulated event log
  browserprov ingest    --profile DIR FILE             ingest an event log into a profile
  browserprov stats     --profile DIR                  graph and storage statistics
  browserprov stats     --profile DIR --metrics        live metrics (Prometheus text + journal);
                                                       --metrics-json for JSON exposition
  browserprov search    --profile DIR QUERY [--textual|--ppr|--hits]
                                                       history search: contextual (default),
                                                       plain textual, PageRank, or HITS-blended
  browserprov personalize --profile DIR QUERY          locally expand a web query
  browserprov when      --profile DIR SUBJECT --with COMPANION  time-contextual search
  browserprov lineage   --profile DIR FILEPATH         first recognizable ancestor of a download
  browserprov whence    --profile DIR KEY              narrate how an object came to be
  browserprov downloads-from --profile DIR URL         downloads descending from a page
  browserprov query     --profile DIR SUB ARGS...      run one use-case query path
                                                       (SUB: context|ppr|textual|personalize|
                                                       timectx|lineage|describe; timectx takes
                                                       SUBJECT --with COMPANION); any other
                                                       first word runs as a QL string (see docs)
  browserprov dot       --profile DIR [--around KEY --radius N]
                                                       export the graph (or one key's
                                                       neighborhood) as Graphviz DOT
  browserprov snapshot  --profile DIR                  compact the store
  browserprov redact    --profile DIR KEY              scrub a URL/query/path from history
  browserprov tree      --profile DIR [--depth N]      render the navigation tree (Ayers-Stasko view)
  browserprov serve     --profile DIR [--port P]       run the live observability daemon:
                                                       continuous capture + queries with
                                                       /metrics /healthz /readyz /tracez
                                                       /profilez /debug/flightz endpoints
                                                       (--days N --seed S --duration-s T
                                                       --snapshot-interval-s T
                                                       --inject-latency-us U
                                                       --query-interval-ms T
                                                       --allow-debug-panic); writes the bound
                                                       port to DIR/serve.port; SIGTERM stops,
                                                       SIGUSR1 dumps the flight recorder

Common options:
  --profile DIR   profile directory (default ./profile)
  --budget MS     query deadline in milliseconds (default unlimited)
  --trace         (search/personalize/when/lineage/query) print a span
                  tree with per-stage timings after the results
  --trace-id      (same commands) assign the run a request trace ID and
                  print it; log lines, histogram exemplars, and retained
                  /tracez records of the run all carry the same ID
  --explain       (query) print the EXPLAIN profile: per-stage wall time,
                  rows in/out, node/edge touches, budget use, truncation
  --explain-json  (query) the same profile as JSON
";

/// Runs one command, returning its textual output.
///
/// # Errors
///
/// Returns a displayable error string on any failure.
pub fn run(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "generate" => generate(args),
        "ingest" => ingest(args),
        "stats" => stats_cmd(args),
        "search" => search(args),
        "personalize" => personalize(args),
        "when" => when(args),
        "lineage" => lineage(args),
        "whence" => whence(args),
        "downloads-from" => downloads_from(args),
        "query" => query_cmd(args),
        "dot" => dot(args),
        "snapshot" => snapshot(args),
        "redact" => redact(args),
        "tree" => tree(args),
        "serve" => crate::serve::run(args),
        "" | "help" | "--help" => Ok(USAGE.to_owned()),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn open(args: &Args) -> Result<ProvenanceBrowser, String> {
    let profile = args.opt("profile", "./profile");
    ProvenanceBrowser::open(&profile, CaptureConfig::default()).map_err(|e| e.to_string())
}

/// The query budget: unbounded without `--budget`, else a deadline of
/// that many milliseconds.
fn budget(args: &Args) -> Result<Budget, String> {
    let budget = Budget::new();
    if !args.has("budget") {
        return Ok(budget);
    }
    let ms = args.opt_int("budget", 0u64)?;
    Ok(budget.with_deadline(Duration::from_millis(ms)))
}

/// Where the profile persists its metrics between CLI invocations.
fn metrics_path(args: &Args) -> PathBuf {
    PathBuf::from(args.opt("profile", "./profile")).join("metrics.snapshot")
}

/// Merges the profile's persisted metrics into the live registry. Each
/// CLI invocation is one short-lived process; importing first means
/// counters and histograms accumulate across runs, while gauges are
/// overwritten by whatever the freshly opened store publishes.
pub(crate) fn import_metrics(args: &Args) {
    if let Ok(text) = std::fs::read_to_string(metrics_path(args)) {
        let _ = expo::import_snapshot(Obs::global().registry(), &text);
    }
}

/// Writes the live registry back next to the profile (best-effort).
pub(crate) fn export_metrics(args: &Args) {
    let snap = Obs::global().registry().snapshot();
    let _ = std::fs::write(metrics_path(args), expo::export_snapshot(&snap));
}

/// Runs `f` with span collection enabled when `--trace` was passed and
/// returns its result plus the rendered span tree (empty without the
/// flag). `--trace-id` additionally mints a request trace context up
/// front — the run's log lines, exemplars, and tail-sampler record all
/// share the printed ID, usable against `/tracez?id=` and flight dumps.
fn with_trace<R>(args: &Args, f: impl FnOnce() -> R) -> (R, String) {
    let ctx = args
        .has("trace-id")
        .then(|| trace::enter_new(&ClockHandle::real()));
    let id_note = ctx
        .as_ref()
        .and_then(|guard| guard.context())
        .map(|c| format!("\ntrace id: {}\n", trace::format_trace_id(c.trace_id)))
        .unwrap_or_default();
    if !args.has("trace") {
        return (f(), id_note);
    }
    trace::set_enabled(true);
    let _ = trace::take_roots();
    let result = f();
    trace::set_enabled(false);
    let mut rendered = String::from("\ntrace:\n");
    for root in trace::take_roots() {
        rendered.push_str(&root.render());
    }
    rendered.push_str(&id_note);
    (result, rendered)
}

/// Runs `f` with EXPLAIN profiling enabled when `--explain` or
/// `--explain-json` was passed and returns its result plus the rendered
/// profile (empty without either flag).
fn with_explain<R>(args: &Args, f: impl FnOnce() -> R) -> (R, String) {
    let json = args.has("explain-json");
    if !args.has("explain") && !json {
        return (f(), String::new());
    }
    profile::set_enabled(true);
    let _ = profile::take();
    let result = f();
    profile::set_enabled(false);
    let mut rendered = String::new();
    for p in profile::take() {
        if json {
            rendered.push_str(&p.to_json());
        } else {
            rendered.push('\n');
            rendered.push_str(&p.render_table());
        }
    }
    (result, rendered)
}

fn generate(args: &Args) -> Result<String, String> {
    let days = args.opt_int("days", 7u32)?;
    let seed = args.opt_int("seed", 42u64)?;
    let out = args.opt("out", "events.log");
    let web = calibrate::paper_web(seed);
    let events = calibrate::days_history(&web, seed, days);
    let text = eventlog::format_log(&events);
    std::fs::write(&out, text).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} events ({} days, seed {}) to {}",
        events.len(),
        days,
        seed,
        out
    ))
}

fn ingest(args: &Args) -> Result<String, String> {
    let path = args
        .positional
        .first()
        .ok_or("ingest requires an event-log file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let events = eventlog::parse_log(&text).map_err(|e| e.to_string())?;
    import_metrics(args);
    let mut browser = open(args)?;
    let n = browser.ingest_all(&events).map_err(|e| e.to_string())?;
    browser.sync().map_err(|e| e.to_string())?;
    export_metrics(args);
    let report = browser.size_report();
    Ok(format!(
        "ingested {} events: {} nodes, {} edges, {} bytes on disk",
        n,
        browser.graph().node_count(),
        browser.graph().edge_count(),
        report.total_bytes()
    ))
}

fn stats_cmd(args: &Args) -> Result<String, String> {
    if args.has("metrics") || args.has("metrics-json") {
        return metrics_report(args);
    }
    let browser = open(args)?;
    let s = stats(browser.graph());
    let report = browser.size_report();
    let mut out = String::new();
    let _ = writeln!(out, "nodes: {}", s.nodes);
    let _ = writeln!(out, "edges: {}", s.edges);
    for (kind, count) in &s.nodes_by_kind {
        let _ = writeln!(out, "  node kind {kind}: {count}");
    }
    for (kind, count) in &s.edges_by_kind {
        let _ = writeln!(out, "  edge kind {kind}: {count}");
    }
    let _ = writeln!(out, "mean degree: {:.2}", s.mean_degree);
    let _ = writeln!(out, "isolated nodes: {}", s.isolated_nodes);
    let _ = writeln!(
        out,
        "on disk: {} bytes (snapshot {}, log {})",
        report.total_bytes(),
        report.snapshot_bytes,
        report.log_bytes
    );
    let _ = writeln!(
        out,
        "interned strings: {} ({} bytes)",
        report.interned_strings, report.interned_bytes
    );
    Ok(out)
}

/// `stats --metrics[-json]`: the full observability report. Restores the
/// profile's accumulated metrics, exercises each §2 use-case query path
/// once so its latency histogram and the deadline SLO counters hold fresh
/// samples, then renders every metric plus the event journal.
fn metrics_report(args: &Args) -> Result<String, String> {
    let budget = budget(args)?;
    import_metrics(args);
    let browser = open(args)?;
    let contextual = ContextualConfig {
        budget: budget.clone(),
        ..ContextualConfig::default()
    };
    // Vocabulary guaranteed by the simulator's topic lists; on an empty
    // or foreign profile these simply record near-zero-hit samples.
    let _ = contextual_history_search(&browser, "news", &contextual);
    let _ = personalize_query(&browser, "news", &PersonalizeConfig::default());
    let _ = time_contextual_search(&browser, "news", "software", &TimeContextConfig::default());
    if let Some(download) = browser
        .graph()
        .nodes_of_kind(bp_graph::NodeKind::Download)
        .next()
    {
        let config = LineageConfig {
            budget,
            ..LineageConfig::default()
        };
        let _ = first_recognizable_ancestor(&browser, download, &config);
    }
    let snap = Obs::global().registry().snapshot();
    let mut out = if args.has("metrics-json") {
        expo::render_json(&snap)
    } else {
        expo::render_prometheus(&snap)
    };
    if !args.has("metrics-json") {
        let events = Obs::global().journal().events();
        if !events.is_empty() {
            out.push_str("\n# journal\n");
            for e in events {
                let _ = writeln!(out, "# [{:?}] {}", e.level, e.message);
            }
        }
    }
    export_metrics(args);
    Ok(out)
}

fn search(args: &Args) -> Result<String, String> {
    let query = args.positional.join(" ");
    if query.is_empty() {
        return Err("search requires a query".to_owned());
    }
    let budget = budget(args)?;
    import_metrics(args);
    let browser = open(args)?;
    let mut config = ContextualConfig {
        budget,
        ..ContextualConfig::default()
    };
    if args.has("hits") {
        config.hits_weight = 1.0;
    }
    let (result, traced) = with_trace(args, || {
        if args.has("textual") {
            textual_history_search(&browser, &query, &config)
        } else if args.has("ppr") {
            bp_query::contextual_history_search_ppr(
                &browser,
                &query,
                &config,
                &bp_graph::pagerank::PageRankConfig::default(),
            )
        } else {
            contextual_history_search(&browser, &query, &config)
        }
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} hits in {:?}{}",
        result.hits.len(),
        result.elapsed,
        if result.truncated { " (truncated)" } else { "" }
    );
    for hit in &result.hits {
        let _ = writeln!(
            out,
            "  {:>8.4}  [{}] {}  {}",
            hit.score,
            hit.kind,
            hit.key,
            hit.title.as_deref().unwrap_or("")
        );
    }
    out.push_str(&traced);
    export_metrics(args);
    Ok(out)
}

fn personalize(args: &Args) -> Result<String, String> {
    let query = args.positional.join(" ");
    if query.is_empty() {
        return Err("personalize requires a query".to_owned());
    }
    let config = PersonalizeConfig {
        contextual: ContextualConfig {
            budget: budget(args)?,
            ..ContextualConfig::default()
        },
        ..PersonalizeConfig::default()
    };
    import_metrics(args);
    let browser = open(args)?;
    let (expanded, traced) = with_trace(args, || personalize_query(&browser, &query, &config));
    let mut out = if expanded.is_unchanged() {
        format!("no history context for {query:?}; query unchanged")
    } else {
        format!(
            "expanded query: {:?} (added: {})",
            expanded.to_query_string(),
            expanded.added_terms.join(", ")
        )
    };
    out.push_str(&traced);
    export_metrics(args);
    Ok(out)
}

fn when(args: &Args) -> Result<String, String> {
    let subject = args.positional.join(" ");
    let companion = args.opt("with", "");
    if subject.is_empty() || companion.is_empty() {
        return Err("when requires SUBJECT and --with COMPANION".to_owned());
    }
    let config = TimeContextConfig {
        budget: budget(args)?,
        ..TimeContextConfig::default()
    };
    import_metrics(args);
    let browser = open(args)?;
    let (result, traced) = with_trace(args, || {
        time_contextual_search(&browser, &subject, &companion, &config)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} hits for {subject:?} associated with {companion:?} ({:?})",
        result.hits.len(),
        result.elapsed
    );
    for hit in &result.hits {
        let _ = writeln!(
            out,
            "  {:>8.4}  {}  {}",
            hit.score,
            hit.key,
            hit.title.as_deref().unwrap_or("")
        );
    }
    out.push_str(&traced);
    export_metrics(args);
    Ok(out)
}

fn lineage(args: &Args) -> Result<String, String> {
    let path = args
        .positional
        .first()
        .ok_or("lineage requires a download file path")?;
    let budget = budget(args)?;
    import_metrics(args);
    let browser = open(args)?;
    let download =
        find_download(&browser, path).ok_or_else(|| format!("no download recorded for {path}"))?;
    let config = LineageConfig {
        budget,
        ..LineageConfig::default()
    };
    let (answer, traced) = with_trace(args, || {
        first_recognizable_ancestor(&browser, download, &config)
    });
    let result = match answer {
        Some(answer) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "first recognizable ancestor: {} ({} visits, {} hops, {:?})",
                answer.url,
                answer.visit_count,
                answer.path.hops(),
                answer.elapsed
            );
            let _ = writeln!(out, "path:");
            for &node in &answer.path.nodes {
                if let Ok(n) = browser.graph().node(node) {
                    let _ = writeln!(out, "  [{}] {}", n.kind(), n.key());
                }
            }
            out.push_str(&traced);
            Ok(out)
        }
        None => Ok(format!(
            "no recognizable ancestor found for {path} (within budget){traced}"
        )),
    };
    export_metrics(args);
    result
}

fn whence(args: &Args) -> Result<String, String> {
    let key = args
        .positional
        .first()
        .ok_or("whence requires a URL/query/path")?;
    let budget = budget(args)?;
    let browser = open(args)?;
    let config = bp_query::DescribeConfig {
        budget,
        ..bp_query::DescribeConfig::default()
    };
    bp_query::describe_origin(&browser, key, &config)
        .ok_or_else(|| format!("nothing in history matches {key:?}"))
}

fn downloads_from(args: &Args) -> Result<String, String> {
    let url = args
        .positional
        .first()
        .ok_or("downloads-from requires a URL")?;
    let budget = budget(args)?;
    let browser = open(args)?;
    let (downloads, truncated) = downloads_descending_from(&browser, url, &budget);
    let mut out = String::new();
    let _ = writeln!(out, "{} downloads descend from {url}", downloads.len());
    for (_, path) in &downloads {
        let _ = writeln!(out, "  {path}");
    }
    if truncated {
        out.push_str("truncated: the budget ran out, so more may descend from it\n");
    }
    Ok(out)
}

fn query_cmd(args: &Args) -> Result<String, String> {
    match args.positional.first().map(String::as_str) {
        Some(
            "context" | "ppr" | "textual" | "personalize" | "timectx" | "lineage" | "describe",
        ) => query_usecase(args),
        _ => query_ql(args),
    }
}

/// Renders scored hits the way `search`/`when` do.
fn render_hits(result: &bp_query::QueryResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} hits in {:?}{}",
        result.hits.len(),
        result.elapsed,
        if result.truncated { " (truncated)" } else { "" }
    );
    for hit in &result.hits {
        let _ = writeln!(
            out,
            "  {:>8.4}  [{}] {}  {}",
            hit.score,
            hit.kind,
            hit.key,
            hit.title.as_deref().unwrap_or("")
        );
    }
    out
}

/// `query <sub> ARGS…`: runs one named query path, with `--trace` and
/// `--explain[-json]` observability.
fn query_usecase(args: &Args) -> Result<String, String> {
    let sub = args.positional[0].clone();
    let rest = args.positional[1..].join(" ");
    if rest.is_empty() {
        return Err(format!("query {sub} requires an argument"));
    }
    let budget = budget(args)?;
    import_metrics(args);
    let browser = open(args)?;
    let contextual = ContextualConfig {
        budget: budget.clone(),
        ..ContextualConfig::default()
    };
    let (body, explained) = with_explain(args, || {
        let (body, traced) = with_trace(args, || -> Result<String, String> {
            match sub.as_str() {
                "context" => Ok(render_hits(&contextual_history_search(
                    &browser,
                    &rest,
                    &contextual,
                ))),
                "ppr" => Ok(render_hits(&bp_query::contextual_history_search_ppr(
                    &browser,
                    &rest,
                    &contextual,
                    &bp_graph::pagerank::PageRankConfig::default(),
                ))),
                "textual" => Ok(render_hits(&textual_history_search(
                    &browser,
                    &rest,
                    &contextual,
                ))),
                "personalize" => {
                    let config = PersonalizeConfig {
                        contextual: contextual.clone(),
                        ..PersonalizeConfig::default()
                    };
                    let expanded = personalize_query(&browser, &rest, &config);
                    Ok(if expanded.is_unchanged() {
                        format!("no history context for {rest:?}; query unchanged\n")
                    } else {
                        format!("expanded query: {:?}\n", expanded.to_query_string())
                    })
                }
                "timectx" => {
                    let companion = args.opt("with", "");
                    if companion.is_empty() {
                        return Err("query timectx requires SUBJECT --with COMPANION".to_owned());
                    }
                    let config = TimeContextConfig {
                        budget: budget.clone(),
                        ..TimeContextConfig::default()
                    };
                    Ok(render_hits(&time_contextual_search(
                        &browser, &rest, &companion, &config,
                    )))
                }
                "lineage" => {
                    let download = find_download(&browser, &rest)
                        .ok_or_else(|| format!("no download recorded for {rest}"))?;
                    let config = LineageConfig {
                        budget: budget.clone(),
                        ..LineageConfig::default()
                    };
                    Ok(
                        match first_recognizable_ancestor(&browser, download, &config) {
                            Some(a) => format!(
                                "first recognizable ancestor: {} ({} visits, {} hops)\n",
                                a.url,
                                a.visit_count,
                                a.path.hops()
                            ),
                            None => {
                                format!(
                                    "no recognizable ancestor found for {rest} (within budget)\n"
                                )
                            }
                        },
                    )
                }
                "describe" => {
                    let config = bp_query::DescribeConfig {
                        budget: budget.clone(),
                        ..bp_query::DescribeConfig::default()
                    };
                    bp_query::describe_origin(&browser, &rest, &config)
                        .ok_or_else(|| format!("nothing in history matches {rest:?}"))
                }
                other => Err(format!("unknown query path {other:?}")),
            }
        });
        body.map(|b| b + &traced)
    });
    let mut out = body?;
    out.push_str(&explained);
    export_metrics(args);
    Ok(out)
}

fn query_ql(args: &Args) -> Result<String, String> {
    let text = args.positional.join(" ");
    if text.is_empty() {
        return Err("query requires a query string".to_owned());
    }
    let budget = budget(args)?;
    import_metrics(args);
    let browser = open(args)?;
    let (rows, traced) = with_trace(args, || bp_query::ql::run(&browser, &text, &budget));
    let rows = rows.map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} rows ({:?}){}",
        rows.rows.len(),
        rows.elapsed,
        if rows.truncated { " (truncated)" } else { "" }
    );
    for row in &rows.rows {
        let _ = writeln!(
            out,
            "  {} depth={} [{}] {}",
            row.node, row.depth, row.kind, row.key
        );
    }
    out.push_str(&traced);
    export_metrics(args);
    Ok(out)
}

fn dot(args: &Args) -> Result<String, String> {
    let browser = open(args)?;
    let graph = browser.graph();
    match args.options.get("around") {
        Some(key) if !key.is_empty() => {
            // Export only the neighborhood of a key: BFS both directions
            // within --radius hops from every node carrying it.
            let radius = args.opt_int("radius", 2usize)?;
            let starts = browser.graph().nodes_with_key(key);
            if starts.is_empty() {
                return Err(format!("no history object with key {key:?}"));
            }
            let frozen = browser.frozen();
            let mut keep = std::collections::HashSet::new();
            for &start in starts {
                for direction in [
                    bp_graph::traverse::Direction::Ancestors,
                    bp_graph::traverse::Direction::Descendants,
                ] {
                    let t = bp_graph::traverse::bfs(
                        &frozen,
                        start,
                        direction,
                        |_| true,
                        &Budget::new().with_max_depth(radius),
                    );
                    keep.extend(t.node_ids());
                }
            }
            Ok(bp_graph::dot::to_dot_filtered(
                graph,
                &DotOptions::default(),
                |n| keep.contains(&n),
            ))
        }
        _ => Ok(to_dot(graph, &DotOptions::default())),
    }
}

fn snapshot(args: &Args) -> Result<String, String> {
    import_metrics(args);
    let mut browser = open(args)?;
    browser.snapshot().map_err(|e| e.to_string())?;
    export_metrics(args);
    let report = browser.size_report();
    Ok(format!(
        "snapshot written: {} bytes (log reset)",
        report.snapshot_bytes
    ))
}

fn tree(args: &Args) -> Result<String, String> {
    let depth = args.opt_int("depth", 6usize)?;
    let max_nodes = args.opt_int("max-nodes", 200usize)?;
    let browser = open(args)?;
    let forest = bp_graph::tree::HistoryTree::extract(browser.graph());
    let mut out = format!(
        "navigation forest: {} trees, {} tree edges (encoded: {} bytes)\n",
        forest.roots().len(),
        forest.edge_count(),
        forest.encode().len()
    );
    out.push_str(&forest.render_ascii(browser.graph(), depth, max_nodes));
    Ok(out)
}

fn redact(args: &Args) -> Result<String, String> {
    let key = args
        .positional
        .first()
        .ok_or("redact requires a URL/query/path to scrub")?;
    import_metrics(args);
    let mut browser = open(args)?;
    let n = browser.redact(key).map_err(|e| e.to_string())?;
    if n == 0 {
        export_metrics(args);
        return Ok(format!("nothing in history matches {key:?}"));
    }
    // Compact immediately so the string leaves the disk too.
    browser.snapshot().map_err(|e| e.to_string())?;
    export_metrics(args);
    Ok(format!(
        "redacted {n} history objects for {key:?}; store compacted (content scrubbed from disk)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-cli-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn parse(line: &str) -> Args {
        let raw: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        Args::parse(&raw)
    }

    fn run_line(line: &str) -> Result<String, String> {
        run(&parse(line))
    }

    #[test]
    fn budget_is_a_deadline_in_milliseconds_or_an_error() {
        assert_eq!(budget(&parse("search news")).unwrap().deadline(), None);
        assert_eq!(
            budget(&parse("search news --budget 250"))
                .unwrap()
                .deadline(),
            Some(Duration::from_millis(250))
        );
        for malformed in ["--budget abc", "--budget 1.5", "--budget --trace"] {
            let err = budget(&parse(&format!("search news {malformed}"))).unwrap_err();
            assert!(err.starts_with("--budget takes a whole number"), "{err}");
        }
    }

    #[test]
    fn malformed_numeric_options_fail_the_command() {
        let dir = TempDir::new("malformed");
        let profile = dir.path("profile");
        let err = run_line(&format!("search --profile {profile} news --budget abc")).unwrap_err();
        assert!(err.contains("--budget") && err.contains("\"abc\""), "{err}");
        assert!(
            !std::path::Path::new(&profile).exists(),
            "the option is checked before the profile opens"
        );
        let err = run_line(&format!("serve --profile {profile} --port 8O8O")).unwrap_err();
        assert!(err.contains("--port") && err.contains("\"8O8O\""), "{err}");
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_line("help").unwrap().contains("USAGE"));
        assert!(run_line("").unwrap().contains("USAGE"));
        let err = run_line("frobnicate").unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn generate_ingest_stats_search_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let log = dir.path("events.log");
        let profile = dir.path("profile");

        let out = run_line(&format!("generate --days 2 --seed 7 --out {log}")).unwrap();
        assert!(out.contains("events"), "{out}");

        let out = run_line(&format!("ingest --profile {profile} {log}")).unwrap();
        assert!(out.contains("nodes"), "{out}");

        let out = run_line(&format!("stats --profile {profile}")).unwrap();
        assert!(out.contains("nodes:"), "{out}");
        assert!(out.contains("edge kind"), "{out}");

        // Search for a word guaranteed by the simulator's vocabularies,
        // with every algorithm variant.
        for flag in ["", "--textual", "--ppr", "--hits"] {
            let out = run_line(&format!("search --profile {profile} news {flag}")).unwrap();
            assert!(out.contains("hits"), "{flag}: {out}");
        }

        let out = run_line(&format!(
            "query --profile {profile} nodes where type = search_term limit 3"
        ))
        .unwrap();
        assert!(out.contains("rows"), "{out}");

        let out = run_line(&format!("snapshot --profile {profile}")).unwrap();
        assert!(out.contains("snapshot written"), "{out}");

        let out = run_line(&format!("dot --profile {profile}")).unwrap();
        assert!(out.starts_with("digraph"));

        let out = run_line(&format!("tree --profile {profile} --depth 3")).unwrap();
        assert!(out.contains("navigation forest"), "{out}");
        assert!(out.contains("[visit]"), "{out}");

        // whence narrates any object in history.
        let out = run_line(&format!(
            "query --profile {profile} nodes where type = download limit 1"
        ))
        .unwrap();
        if let Some(path) = out.lines().nth(1).and_then(|l| l.split_whitespace().last()) {
            let story = run_line(&format!("whence --profile {profile} {path}")).unwrap();
            assert!(story.contains("…"), "{story}");
        }
        assert!(run_line(&format!("whence --profile {profile} /absent")).is_err());

        // Scoped dot export around a real key is much smaller than the
        // full graph.
        let full = run_line(&format!("dot --profile {profile}")).unwrap();
        let log_text = std::fs::read_to_string(&log).unwrap();
        let url = log_text
            .lines()
            .find_map(|l| l.split('\t').nth(4).filter(|f| f.starts_with("http")))
            .unwrap();
        let scoped = run_line(&format!(
            "dot --profile {profile} --around {url} --radius 1"
        ))
        .unwrap();
        assert!(scoped.starts_with("digraph"));
        assert!(
            scoped.len() < full.len(),
            "{} vs {}",
            scoped.len(),
            full.len()
        );
        assert!(run_line(&format!(
            "dot --profile {profile} --around http://nope/ --radius 1"
        ))
        .is_err());

        // downloads-from says when the budget cut the search short.
        let out = run_line(&format!("downloads-from --profile {profile} {url}")).unwrap();
        assert!(out.contains("downloads descend from"), "{out}");
        assert!(!out.contains("truncated"), "{out}");
        let out = run_line(&format!(
            "downloads-from --profile {profile} {url} --budget 0"
        ))
        .unwrap();
        assert!(out.contains("truncated"), "{out}");
    }

    #[test]
    fn query_usecase_dispatch_and_explain() {
        let dir = TempDir::new("explain");
        let log = dir.path("events.log");
        let profile = dir.path("profile");
        run_line(&format!("generate --days 2 --seed 7 --out {log}")).unwrap();
        run_line(&format!("ingest --profile {profile} {log}")).unwrap();

        // Every use-case subcommand dispatches.
        for sub in ["context", "ppr", "textual"] {
            let out = run_line(&format!("query --profile {profile} {sub} news")).unwrap();
            assert!(out.contains("hits"), "{sub}: {out}");
        }
        let out = run_line(&format!("query --profile {profile} personalize news")).unwrap();
        assert!(out.contains("query"), "{out}");
        let out = run_line(&format!(
            "query --profile {profile} timectx news --with software"
        ))
        .unwrap();
        assert!(out.contains("hits"), "{out}");
        assert!(run_line(&format!("query --profile {profile} timectx news")).is_err());
        assert!(run_line(&format!("query --profile {profile} lineage /nope.bin")).is_err());

        // --trace-id prints the minted request ID in the canonical 16-hex
        // format, and the ID is findable in the tail sampler afterwards.
        let out = run_line(&format!(
            "query --profile {profile} context news --trace-id"
        ))
        .unwrap();
        let id_line = out
            .lines()
            .find(|l| l.starts_with("trace id: "))
            .unwrap_or_else(|| panic!("no trace id line in {out}"));
        let hex = id_line.trim_start_matches("trace id: ");
        assert_eq!(hex.len(), 16, "{id_line}");
        let id = bp_obs::trace::parse_trace_id(hex).expect("id parses");
        assert!(id != 0);

        // --explain prints the per-stage table with every plan stage, the
        // budget story, and the (other) remainder row.
        let out = run_line(&format!("query --profile {profile} context news --explain")).unwrap();
        assert!(out.contains("query.context  total"), "{out}");
        for stage in ["text_seeds", "expand", "hits", "blend", "(other)"] {
            assert!(out.contains(stage), "missing {stage}: {out}");
        }
        assert!(out.contains("budget none"), "{out}");
        let out = run_line(&format!(
            "query --profile {profile} context news --budget 200 --explain"
        ))
        .unwrap();
        assert!(out.contains("budget 200.00ms"), "{out}");

        // --explain-json emits parseable JSON with the same accounting.
        let out = run_line(&format!(
            "query --profile {profile} context news --explain-json"
        ))
        .unwrap();
        let json_line = out.lines().find(|l| l.starts_with('{')).unwrap();
        let v = bp_obs::json::parse(json_line).expect("explain JSON parses");
        assert_eq!(v.get("query").and_then(|q| q.as_str()), Some("context"));
        assert!(v.get("stages").and_then(|s| s.as_array()).is_some());

        // The nested personalize profile carries its contextual child.
        let out = run_line(&format!(
            "query --profile {profile} personalize news --explain"
        ))
        .unwrap();
        assert!(out.contains("query.personalize"), "{out}");
        assert!(out.contains("query.context"), "{out}");
    }

    #[test]
    fn search_requires_query() {
        let dir = TempDir::new("noquery");
        let profile = dir.path("profile");
        assert!(run_line(&format!("search --profile {profile}")).is_err());
        assert!(run_line(&format!("when --profile {profile}")).is_err());
        assert!(run_line(&format!("lineage --profile {profile}")).is_err());
    }

    #[test]
    fn lineage_reports_missing_download() {
        let dir = TempDir::new("nodl");
        let profile = dir.path("profile");
        // Create an empty profile first.
        run_line(&format!("stats --profile {profile}")).unwrap();
        let err = run_line(&format!("lineage --profile {profile} /nope.bin")).unwrap_err();
        assert!(err.contains("no download"), "{err}");
    }

    #[test]
    fn redact_command_scrubs_history() {
        let dir = TempDir::new("redact");
        let log = dir.path("events.log");
        let profile = dir.path("profile");
        run_line(&format!("generate --days 1 --seed 3 --out {log}")).unwrap();
        run_line(&format!("ingest --profile {profile} {log}")).unwrap();
        // Find some URL from the log to redact.
        let text = std::fs::read_to_string(&log).unwrap();
        let url = text
            .lines()
            .find_map(|l| l.split('\t').nth(4).filter(|f| f.starts_with("http")))
            .unwrap()
            .to_owned();
        let out = run_line(&format!("redact --profile {profile} {url}")).unwrap();
        assert!(out.contains("redacted"), "{out}");
        assert!(out.contains("compacted"), "{out}");
        // Redacting again finds nothing.
        let out = run_line(&format!("redact --profile {profile} {url}")).unwrap();
        assert!(out.contains("nothing in history"), "{out}");
        // Missing argument errors.
        assert!(run_line(&format!("redact --profile {profile}")).is_err());
    }

    #[test]
    fn ingest_rejects_bad_files() {
        let dir = TempDir::new("badfile");
        let profile = dir.path("profile");
        assert!(run_line(&format!("ingest --profile {profile} /does/not/exist")).is_err());
        let bad = dir.path("bad.log");
        std::fs::write(&bad, "this is not an event log\n").unwrap();
        assert!(run_line(&format!("ingest --profile {profile} {bad}")).is_err());
    }
}
