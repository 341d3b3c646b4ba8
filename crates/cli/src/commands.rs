//! `browserprov` subcommand implementations.
//!
//! Every command returns its output as a `String` so the logic is unit
//! testable; `main` only prints.

use crate::args::Args;
use bp_core::{eventlog, CaptureConfig, ProvenanceBrowser};
use bp_graph::dot::{to_dot, DotOptions};
use bp_graph::stats::stats;
use bp_graph::traverse::Budget;
use bp_obs::{expo, flight, profile, trace, ClockHandle, Obs};
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
  browserprov stats     --profile DIR --metrics        live metrics (Prometheus text + recent events);
                                                       --metrics-json for JSON exposition
  browserprov search    --profile DIR QUERY [--textual|--ppr|--hits]
                                                       history search: contextual (default),
                                                       plain textual, PageRank, or HITS-blended
  browserprov personalize --profile DIR QUERY          locally expand a web query
  browserprov when      --profile DIR SUBJECT --with COMPANION  time-contextual search
  browserprov lineage   --profile DIR FILEPATH         first recognizable ancestor of a download
  browserprov whence    --profile DIR KEY              narrate how an object came to be
  browserprov downloads-from --profile DIR URL         downloads descending from a page
  browserprov query     --profile DIR QL...            run a query-language string (see docs)
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
                                                       --inject-latency-us U
                                                       --query-interval-ms T
                                                       --allow-debug-panic); writes the bound
                                                       port to DIR/serve.port; SIGTERM stops,
                                                       SIGUSR1 dumps the flight recorder

Common options:
  --profile DIR   profile directory (default ./profile)
  --budget MS     query deadline in milliseconds (default unlimited)
  --trace         (search, personalize, when, lineage, whence,
                  downloads-from, query) print a span tree with
                  per-stage timings after the results
  --trace-id      (same commands) assign the run a request trace ID and
                  print it; log lines, histogram exemplars, and retained
                  /tracez records of the run all carry the same ID
  --explain       (same commands) print the EXPLAIN profile: per-stage
                  wall time, rows in/out, node/edge touches, budget use,
                  truncation
  --explain-json  (same commands) the same profile as JSON
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
        "query" => query(args),
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

/// Runs `f`, collecting its span trees when `--trace`, `--explain` or
/// `--explain-json` asks to see them, and returns its result plus what
/// was asked for, in that order: the trees, the `--trace-id` line, and
/// the EXPLAIN tables or JSON lines read off the same trees. `--trace-id`
/// mints a request trace context up front — the run's log lines,
/// exemplars, and tail-sampler record all share the printed ID, usable
/// against `/tracez?id=` and flight dumps.
fn observe<R>(args: &Args, f: impl FnOnce() -> R) -> (R, String) {
    let ctx = args
        .has("trace-id")
        .then(|| trace::enter_new(&ClockHandle::real()));
    let id_note = ctx
        .as_ref()
        .and_then(|guard| guard.context())
        .map(|c| format!("\ntrace id: {}\n", trace::format_trace_id(c.trace_id)))
        .unwrap_or_default();
    let json = args.has("explain-json");
    let explain = json || args.has("explain");
    let tree = args.has("trace");
    if !tree && !explain {
        return (f(), id_note);
    }
    trace::set_enabled(true);
    let _ = trace::take_roots();
    let result = f();
    trace::set_enabled(false);
    let roots = trace::take_roots();
    let mut rendered = String::new();
    if tree {
        rendered.push_str("\ntrace:\n");
        for root in &roots {
            rendered.push_str(&root.render());
        }
    }
    rendered.push_str(&id_note);
    if explain {
        for p in profile::from_spans(&roots) {
            if json {
                rendered.push_str(&p.to_json());
            } else {
                rendered.push('\n');
                rendered.push_str(&p.render_table());
            }
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
/// samples, then renders every metric plus the flight recorder's
/// retained events.
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
        let entries = flight::global().snapshot();
        if !entries.is_empty() {
            out.push_str("\n# flight recorder\n");
            for entry in entries {
                let _ = writeln!(out, "# {}", entry.event.to_json_line());
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
    let (result, traced) = observe(args, || {
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
    let out = render_hits(&result) + &traced;
    export_metrics(args);
    Ok(out)
}

/// Renders scored hits: a count line, then one line per hit.
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
    let (expanded, traced) = observe(args, || personalize_query(&browser, &query, &config));
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
    let (result, traced) = observe(args, || {
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
    let (answer, traced) = observe(args, || {
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
    import_metrics(args);
    let browser = open(args)?;
    let config = bp_query::DescribeConfig {
        budget,
        ..bp_query::DescribeConfig::default()
    };
    let (story, traced) = observe(args, || bp_query::describe_origin(&browser, key, &config));
    export_metrics(args);
    Ok(story.ok_or_else(|| format!("nothing in history matches {key:?}"))? + &traced)
}

fn downloads_from(args: &Args) -> Result<String, String> {
    let url = args
        .positional
        .first()
        .ok_or("downloads-from requires a URL")?;
    let budget = budget(args)?;
    import_metrics(args);
    let browser = open(args)?;
    let ((downloads, truncated), traced) =
        observe(args, || downloads_descending_from(&browser, url, &budget));
    export_metrics(args);
    let mut out = String::new();
    let _ = writeln!(out, "{} downloads descend from {url}", downloads.len());
    for (_, path) in &downloads {
        let _ = writeln!(out, "  {path}");
    }
    if truncated {
        out.push_str("truncated: the budget ran out, so more may descend from it\n");
    }
    out.push_str(&traced);
    Ok(out)
}

/// `query QL...`: runs one query-language string.
fn query(args: &Args) -> Result<String, String> {
    let text = args.positional.join(" ");
    if text.is_empty() {
        return Err("query requires a query string".to_owned());
    }
    let budget = budget(args)?;
    import_metrics(args);
    let browser = open(args)?;
    let (rows, traced) = observe(args, || bp_query::ql::run(&browser, &text, &budget));
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

    /// The first URL an event log visits.
    fn first_url(log: &str) -> String {
        std::fs::read_to_string(log)
            .unwrap()
            .lines()
            .find_map(|l| l.split('\t').nth(4).filter(|f| f.starts_with("http")))
            .unwrap()
            .to_owned()
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
        let out = run_line(&format!("downloads-from --profile {profile} {url} --trace")).unwrap();
        assert!(out.contains("\ntrace:\nquery.downloads_from"), "{out}");
    }

    #[test]
    fn query_commands_trace_and_explain() {
        let dir = TempDir::new("explain");
        let log = dir.path("events.log");
        let profile = dir.path("profile");
        run_line(&format!("generate --days 2 --seed 7 --out {log}")).unwrap();
        run_line(&format!("ingest --profile {profile} {log}")).unwrap();

        let out = run_line(&format!("personalize --profile {profile} news")).unwrap();
        assert!(out.contains("query"), "{out}");
        let out = run_line(&format!("when --profile {profile} news --with software")).unwrap();
        assert!(out.contains("hits"), "{out}");
        assert!(run_line(&format!("when --profile {profile} news")).is_err());

        // --trace-id prints the minted request ID in the canonical 16-hex
        // format, and the ID is findable in the tail sampler afterwards.
        let out = run_line(&format!("search --profile {profile} news --trace-id")).unwrap();
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
        let out = run_line(&format!("search --profile {profile} news --explain")).unwrap();
        assert!(out.contains("query.context  total"), "{out}");
        for stage in ["text_seeds", "expand", "hits", "blend", "(other)"] {
            assert!(out.contains(stage), "missing {stage}: {out}");
        }
        assert!(out.contains("budget none"), "{out}");
        let out = run_line(&format!(
            "search --profile {profile} news --budget 200 --explain"
        ))
        .unwrap();
        assert!(out.contains("budget 200.00ms"), "{out}");

        // --explain-json emits parseable JSON with the same accounting.
        let out = run_line(&format!("search --profile {profile} news --explain-json")).unwrap();
        let json_line = out.lines().find(|l| l.starts_with('{')).unwrap();
        let v = bp_obs::json::parse(json_line).expect("explain JSON parses");
        assert_eq!(v.get("query").and_then(|q| q.as_str()), Some("context"));
        assert!(v.get("stages").and_then(|s| s.as_array()).is_some());

        // Every query command takes --explain, whence included.
        let url = first_url(&log);
        for (line, root) in [
            ("search news --textual".to_owned(), "query.textual"),
            ("search news --ppr".to_owned(), "query.ppr"),
            ("when news --with software".to_owned(), "query.timectx"),
            (format!("whence {url}"), "query.describe"),
        ] {
            let (command, rest) = line.split_once(' ').unwrap();
            let out = run_line(&format!("{command} --profile {profile} {rest} --explain"));
            let out = out.unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(out.contains(&format!("{root}  total")), "{line}: {out}");
        }

        // The nested personalize profile carries its contextual child.
        let out = run_line(&format!("personalize --profile {profile} news --explain")).unwrap();
        assert!(out.contains("query.personalize"), "{out}");
        assert!(out.contains("query.context"), "{out}");

        // --trace with --explain renders one run's span trees both ways:
        // the tree first, then the EXPLAIN tables read off it.
        let out = run_line(&format!(
            "personalize --profile {profile} news --trace --explain"
        ))
        .unwrap();
        let tree = out.find("\ntrace:\nquery.personalize  ");
        let table = out.find("\nquery.personalize  total ");
        assert!(
            tree.is_some_and(|tree| table.is_some_and(|table| tree < table)),
            "{out}"
        );
        assert!(out.contains("│  └─ query.context  "), "{out}");
        assert!(out.contains("\n  query.context  total "), "{out}");
        assert_eq!(out.matches("query.personalize  total").count(), 1, "{out}");
    }

    #[test]
    fn whence_and_downloads_from_persist_their_metrics() {
        let dir = TempDir::new("persist");
        let log = dir.path("events.log");
        let profile = dir.path("profile");
        run_line(&format!("generate --days 1 --seed 5 --out {log}")).unwrap();
        run_line(&format!("ingest --profile {profile} {log}")).unwrap();
        let url = first_url(&log);
        let snapshot = std::path::Path::new(&profile).join("metrics.snapshot");
        for command in ["whence", "downloads-from"] {
            std::fs::remove_file(&snapshot).unwrap();
            run_line(&format!("{command} --profile {profile} {url}")).unwrap();
            assert!(snapshot.exists(), "{command} wrote no metrics snapshot");
        }
    }

    #[test]
    fn metrics_report_lists_the_flight_recorders_events() {
        let dir = TempDir::new("events");
        let log = dir.path("events.log");
        let profile = dir.path("profile");
        run_line(&format!("generate --days 1 --seed 5 --out {log}")).unwrap();
        run_line(&format!("ingest --profile {profile} {log}")).unwrap();
        // Opening the profile again replays its log, and the recovery
        // line lands in the flight recorder the report prints.
        let out = run_line(&format!("stats --profile {profile} --metrics")).unwrap();
        let events = out
            .split_once("\n# flight recorder\n")
            .map(|(_, events)| events)
            .unwrap_or_else(|| panic!("no flight recorder section: {out}"));
        assert!(
            events.lines().any(
                |l| l.starts_with("# {") && l.contains("\"msg\":\"write-ahead log recovered\"")
            ),
            "{events}"
        );
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
