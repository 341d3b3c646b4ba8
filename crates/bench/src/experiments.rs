//! The experiment suite: one function per table/figure in the paper's
//! evaluation (§4) plus the DESIGN.md ablations. Each returns a formatted
//! report block; the `report` binary prints them and EXPERIMENTS.md
//! records paper-vs-measured.

use crate::fixtures::{history, ingest, History, TempProfile, SEED};
use crate::relschema::RelationalProvenance;
use bp_core::{CaptureConfig, ProvenanceBrowser};
use bp_graph::stats::{connected_components, second_class_fraction, stats};
use bp_graph::traverse::Budget;
use bp_graph::{EdgeKind, NodeKind};
use bp_obs::ClockHandle;
use bp_places::{PlacesDb, PlacesIngester};
use bp_query::{
    contextual_history_search, downloads_descending_from, find_download,
    first_recognizable_ancestor, personalize_query, textual_history_search, time_contextual_search,
    ContextualConfig, LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_sim::scenario;
use bp_sim::web::TOPICS;
use std::fmt::Write as _;
use std::time::Duration;

/// Default duration used by the paper-scale experiments.
pub const FULL_DAYS: u32 = 79;

fn header(id: &str, title: &str, paper: &str) -> String {
    format!("== {id}: {title}\n   paper: {paper}\n")
}

/// Builds the shared paper-scale fixture once.
pub fn paper_fixture(days: u32) -> (History, TempProfile, ProvenanceBrowser) {
    let h = history(days);
    let (profile, browser) = ingest(&h, CaptureConfig::default(), &format!("paper-{days}"));
    (h, profile, browser)
}

/// What E1 measures on one history.
#[derive(Debug)]
pub struct E1Sizes {
    /// Events in the history.
    pub events: usize,
    /// Places' encoded bytes for the same events.
    pub places_bytes: usize,
    /// One entry per capture configuration, in report order.
    pub captures: Vec<E1Capture>,
}

/// E1's sizes under one capture configuration.
#[derive(Debug)]
pub struct E1Capture {
    /// The configuration's name in the report.
    pub name: &'static str,
    /// The provenance graph as relational rows, the paper's schema.
    pub relational: RelationalProvenance,
    /// This repo's store after compaction: snapshot plus log bytes.
    pub store_bytes: usize,
}

/// Measures E1 on the `days`-day history: Places, then the provenance
/// store under each capture configuration.
pub fn e1_sizes(days: u32) -> E1Sizes {
    let h = history(days);
    let mut places = PlacesDb::new();
    let mut ingester = PlacesIngester::new();
    ingester
        .ingest_all(&mut places, &h.events)
        .expect("stream valid for Places");
    let captures = [
        ("paper-prototype capture", CaptureConfig::paper_prototype()),
        ("full capture (+overlap edges)", CaptureConfig::default()),
    ]
    .into_iter()
    .map(|(name, config)| {
        let (_profile, mut browser) = ingest(&h, config, &format!("e1-{days}"));
        let relational = RelationalProvenance::from_graph(browser.graph());
        browser.snapshot().expect("snapshot succeeds");
        E1Capture {
            name,
            relational,
            store_bytes: browser.size_report().total_bytes() as usize,
        }
    })
    .collect();
    E1Sizes {
        events: h.events.len(),
        places_bytes: places.encoded_size(),
        captures,
    }
}

/// E1 — storage overhead of the provenance schema over Places.
pub fn e1_storage_overhead(days: u32) -> String {
    let mut out = header(
        "E1",
        "storage overhead over Places",
        "39.5% overhead; < 5 MB absolute on the real history",
    );
    let sizes = e1_sizes(days);
    let places_bytes = sizes.places_bytes;

    let overhead = |x: usize| 100.0 * (x as f64 - places_bytes as f64) / places_bytes as f64;
    let mb = |x: usize| x as f64 / 1_048_576.0;
    let _ = writeln!(out, "   days simulated               : {days}");
    let _ = writeln!(out, "   events                       : {}", sizes.events);
    let _ = writeln!(
        out,
        "   Places baseline              : {places_bytes:>9} bytes ({:.2} MB)",
        mb(places_bytes)
    );

    for capture in &sizes.captures {
        let name = capture.name;
        // The paper-faithful representation: provenance as relational rows.
        let rel_bytes = capture.relational.encoded_size();
        let (r_strings, r_nodes, r_edges, r_attrs) = capture.relational.row_counts();
        // This repo's optimized graph store (compacted snapshot).
        let opt_bytes = capture.store_bytes;
        let _ = writeln!(out, "   [{name}]");
        let _ = writeln!(
            out,
            "     provenance schema (relational, as in paper): {rel_bytes:>9} bytes ({:.2} MB) -> overhead {:+.1}%",
            mb(rel_bytes),
            overhead(rel_bytes)
        );
        let _ = writeln!(
            out,
            "       rows: {r_strings} strings, {r_nodes} nodes, {r_edges} edges, {r_attrs} attrs"
        );
        let _ = writeln!(
            out,
            "     provenance store (this repo's log+snapshot): {opt_bytes:>9} bytes ({:.2} MB) -> overhead {:+.1}%",
            mb(opt_bytes),
            overhead(opt_bytes)
        );
        let _ = writeln!(
            out,
            "     absolute cost of provenance (relational)   : {:.2} MB (paper: < 5 MB)",
            mb(rel_bytes)
        );
    }
    out
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn latency_line(name: &str, mut samples: Vec<Duration>) -> String {
    samples.sort();
    let under = samples.iter().filter(|d| d.as_millis() < 200).count();
    format!(
        "   {name:<22} n={:<4} median={:>9.3?} p90={:>9.3?} max={:>9.3?}  <200ms: {}/{}\n",
        samples.len(),
        percentile(&samples, 0.5),
        percentile(&samples, 0.9),
        samples.last().copied().unwrap_or(Duration::ZERO),
        under,
        samples.len()
    )
}

/// E2 — latency of the four use-case queries at paper scale.
pub fn e2_query_latency(days: u32) -> String {
    let mut out = header(
        "E2",
        "use-case query latency",
        "queries complete < 200 ms in the majority of cases; boundable otherwise",
    );
    let (_h, _profile, browser) = paper_fixture(days);
    let s = stats(browser.graph());
    let _ = writeln!(out, "   history: {} nodes, {} edges", s.nodes, s.edges);

    // Query terms drawn from every topic vocabulary (100 instances each).
    let queries: Vec<&str> = TOPICS
        .iter()
        .flat_map(|t| t.vocabulary.iter().copied())
        .take(100)
        .collect();

    // Contextual history search.
    let config = ContextualConfig::default();
    let mut contextual = Vec::new();
    for q in &queries {
        contextual.push(contextual_history_search(&browser, q, &config).elapsed);
    }
    out.push_str(&latency_line("contextual search", contextual));

    // Personalized web search (expansion computation).
    let pconfig = PersonalizeConfig::default();
    let mut personal = Vec::new();
    for q in &queries {
        let t0 = ClockHandle::real().start();
        let _ = personalize_query(&browser, q, &pconfig);
        personal.push(t0.elapsed());
    }
    out.push_str(&latency_line("personalize", personal));

    // Time-contextual search (subject/companion pairs across topics).
    let tconfig = TimeContextConfig::default();
    let mut timectx = Vec::new();
    for pair in queries.chunks(2).take(50) {
        if let [a, b] = pair {
            timectx.push(time_contextual_search(&browser, a, b, &tconfig).elapsed);
        }
    }
    out.push_str(&latency_line("time-contextual", timectx));

    // Download lineage over every captured download (up to 100).
    let lconfig = LineageConfig {
        recognizable_visits: 2,
        ..LineageConfig::default()
    };
    let mut lineage = Vec::new();
    for dl in browser.graph().nodes_of_kind(NodeKind::Download).take(100) {
        let t0 = ClockHandle::real().start();
        let _ = first_recognizable_ancestor(&browser, dl, &lconfig);
        lineage.push(t0.elapsed());
    }
    out.push_str(&latency_line("download lineage", lineage));

    // The bounded variant: a deliberately heavy query under a 200 ms cap.
    let bounded_config = ContextualConfig {
        budget: Budget::new().with_deadline(Duration::from_millis(200)),
        max_results: 1000,
        ..ContextualConfig::default()
    };
    let heavy = TOPICS
        .iter()
        .map(|t| t.vocabulary[0])
        .collect::<Vec<_>>()
        .join(" ");
    let r = contextual_history_search(&browser, &heavy, &bounded_config);
    let _ = writeln!(
        out,
        "   bounded heavy query     elapsed={:?} truncated={}",
        r.elapsed, r.truncated
    );
    out
}

/// E3 — history scale (the 25,000 nodes / 79 days figure).
pub fn e3_history_scale(days: u32) -> String {
    let mut out = header(
        "E3",
        "history scale",
        "one author's history: > 25,000 nodes over 79 days",
    );
    let (h, _profile, browser) = paper_fixture(days);
    let s = stats(browser.graph());
    let per_day = s.nodes as f64 / f64::from(days);
    let _ = writeln!(out, "   days={} events={}", h.days, h.events.len());
    let _ = writeln!(
        out,
        "   nodes={} edges={} ({:.0} nodes/day; paper implies ~316/day)",
        s.nodes, s.edges, per_day
    );
    let _ = writeln!(out, "   projected to 79 days: {:.0} nodes", per_day * 79.0);
    for (kind, count) in &s.nodes_by_kind {
        let _ = writeln!(out, "     {kind:<12} {count}");
    }
    let _ = writeln!(
        out,
        "   second-class relationship fraction: {:.1}%",
        100.0 * second_class_fraction(browser.graph())
    );
    out
}

/// E4 — contextual vs textual history search (the rosebud scenario).
pub fn e4_contextual_vs_textual(trials: u64) -> String {
    let mut out = header(
        "E4",
        "contextual history search finds textual misses (§2.1)",
        "provenance connects 'rosebud' to Citizen Kane; textual search cannot",
    );
    let mut textual_hits = 0u64;
    let mut contextual_hits = 0u64;
    let mut contextual_top10 = 0u64;
    let mut rank_sum = 0usize;
    for trial in 0..trials {
        let (_web, s) = scenario::rosebud(SEED + trial);
        let profile = TempProfile::new(&format!("e4-{trial}"));
        let mut browser =
            ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
        browser.ingest_all(&s.events).unwrap();
        let config = ContextualConfig::default();
        if textual_history_search(&browser, &s.markers.query, &config)
            .contains_key(&s.markers.target_url)
        {
            textual_hits += 1;
        }
        let contextual = contextual_history_search(&browser, &s.markers.query, &config);
        if let Some(rank) = contextual.rank_of_key(&s.markers.target_url) {
            contextual_hits += 1;
            rank_sum += rank;
            if rank < 10 {
                contextual_top10 += 1;
            }
        }
    }
    let _ = writeln!(out, "   trials (distinct users/seeds) : {trials}");
    let _ = writeln!(
        out,
        "   textual search finds target    : {textual_hits}/{trials}"
    );
    let _ = writeln!(
        out,
        "   contextual search finds target : {contextual_hits}/{trials}"
    );
    let _ = writeln!(
        out,
        "   ... and ranks it in the top 10 : {contextual_top10}/{trials} (mean rank {:.1})",
        rank_sum as f64 / contextual_hits.max(1) as f64
    );
    out
}

/// E5 — personalized web search (gardener vs cinephile).
pub fn e5_personalization(trials: u64) -> String {
    let mut out = header(
        "E5",
        "client-side web-search personalization (§2.2)",
        "the gardener's 'rosebud' finds flowers without telling the engine who she is",
    );
    let mut improved = 0u64;
    let mut unchanged = 0u64;
    let mut leaks = 0u64;
    let mut frac_plain_sum = 0.0;
    let mut frac_pers_sum = 0.0;
    for trial in 0..trials {
        let (web, s) = scenario::gardener(SEED + trial);
        let profile = TempProfile::new(&format!("e5-{trial}"));
        let mut browser =
            ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
        browser.ingest_all(&s.events).unwrap();
        let expanded = personalize_query(&browser, &s.markers.query, &PersonalizeConfig::default());
        if expanded.is_unchanged() {
            unchanged += 1;
            continue;
        }
        let outgoing = expanded.to_query_string();
        if outgoing.contains("http") || outgoing.contains('/') {
            leaks += 1;
        }
        let gardening_frac = |ids: &[usize]| {
            ids.iter()
                .filter(|&&id| web.page(id).url.contains("gardening"))
                .count() as f64
                / ids.len().max(1) as f64
        };
        let plain = gardening_frac(&web.search(&s.markers.query, 10));
        let personalized = gardening_frac(&web.search(&outgoing, 10));
        frac_plain_sum += plain;
        frac_pers_sum += personalized;
        if personalized > plain {
            improved += 1;
        }
    }
    let ran = trials - unchanged;
    let _ = writeln!(
        out,
        "   trials                         : {trials} ({unchanged} had no context)"
    );
    let _ = writeln!(
        out,
        "   mean gardening fraction in top-10: plain {:.2} -> personalized {:.2}",
        frac_plain_sum / ran.max(1) as f64,
        frac_pers_sum / ran.max(1) as f64
    );
    let _ = writeln!(out, "   strictly improved              : {improved}/{ran}");
    let _ = writeln!(
        out,
        "   history leaked to engine       : {leaks}/{ran} (must be 0)"
    );
    out
}

/// E6 — time-contextual history search (wine & plane tickets).
pub fn e6_time_contextual(trials: u64) -> String {
    let mut out = header(
        "E6",
        "time-contextual history search (§2.3)",
        "'wine associated with plane tickets' returns the remembered page",
    );
    let mut found = 0u64;
    let mut reduction_sum = 0.0;
    for trial in 0..trials {
        let (_web, s) = scenario::wine_and_tickets(SEED + trial);
        let profile = TempProfile::new(&format!("e6-{trial}"));
        let mut browser =
            ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
        browser.ingest_all(&s.events).unwrap();
        let result = time_contextual_search(
            &browser,
            &s.markers.query,
            &s.markers.companion_query,
            &TimeContextConfig::default(),
        );
        if result.contains_key(&s.markers.target_url) {
            found += 1;
        }
        let plain = browser.text_index().search(&s.markers.query).len();
        reduction_sum += plain as f64 / result.hits.len().max(1) as f64;
    }
    let _ = writeln!(out, "   trials                         : {trials}");
    let _ = writeln!(out, "   remembered page found          : {found}/{trials}");
    let _ = writeln!(
        out,
        "   mean candidate-set reduction   : {:.1}x",
        reduction_sum / trials.max(1) as f64
    );
    out
}

/// E7 — download lineage (the drive-by).
pub fn e7_download_lineage(trials: u64) -> String {
    let mut out = header(
        "E7",
        "download lineage path queries (§2.4)",
        "first recognizable ancestor + all downloads descending from an untrusted page",
    );
    let mut correct_ancestor = 0u64;
    let mut all_descendants = 0u64;
    for trial in 0..trials {
        let (_web, s) = scenario::driveby(SEED + trial);
        let profile = TempProfile::new(&format!("e7-{trial}"));
        let mut browser =
            ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
        browser.ingest_all(&s.events).unwrap();
        let dl = find_download(&browser, &s.markers.download_path).unwrap();
        if let Some(answer) = first_recognizable_ancestor(&browser, dl, &LineageConfig::default()) {
            if answer.url == s.markers.recognizable_url {
                correct_ancestor += 1;
            }
        }
        let (descendants, _) =
            downloads_descending_from(&browser, &s.markers.untrusted_url, &Budget::new());
        if descendants.len() >= 3
            && descendants
                .iter()
                .any(|(_, p)| p == &s.markers.download_path)
        {
            all_descendants += 1;
        }
    }
    let _ = writeln!(out, "   trials                         : {trials}");
    let _ = writeln!(
        out,
        "   correct recognizable ancestor  : {correct_ancestor}/{trials}"
    );
    let _ = writeln!(
        out,
        "   untrusted-page audit complete  : {all_descendants}/{trials}"
    );
    out
}

/// A1 — node versioning vs Firefox-style edge timestamping (§3.1).
pub fn a1_versioning(days: u32) -> String {
    let mut out = header(
        "A1",
        "cycle breaking: visit instances vs edge-timestamp records",
        "Firefox's per-traversal records make link queries slow (§3.1)",
    );
    let (_h, _profile, browser) = paper_fixture(days);
    let graph = browser.graph();

    // Our scheme: visit-instance nodes. A "link query" (all traversals of
    // URL A -> URL B) walks the per-node adjacency of A's few versions.
    let visits: Vec<_> = graph.nodes_of_kind(NodeKind::PageVisit).collect();

    // Firefox-like scheme: one record per traversal in a flat table; a
    // link query scans it. Build the flat table from the same graph.
    let mut traversal_table: Vec<(String, String)> = Vec::new();
    for (_, e) in graph.edges() {
        if e.kind() == EdgeKind::Link {
            let (Ok(src), Ok(dst)) = (graph.node(e.src()), graph.node(e.dst())) else {
                continue;
            };
            traversal_table.push((src.key().to_owned(), dst.key().to_owned()));
        }
    }
    // Pick the most common link as the query target.
    let mut counts: std::collections::HashMap<(&str, &str), usize> =
        std::collections::HashMap::new();
    for (a, b) in &traversal_table {
        *counts.entry((a, b)).or_insert(0) += 1;
    }
    let Some((&(qa, qb), _)) = counts.iter().max_by_key(|(_, &c)| c) else {
        return out + "   (no link traversals in history)\n";
    };
    let (qa, qb) = (qa.to_owned(), qb.to_owned());

    // Flat-scan cost.
    let t0 = ClockHandle::real().start();
    let mut flat_hits = 0usize;
    for _ in 0..100 {
        flat_hits = traversal_table
            .iter()
            .filter(|(a, b)| *a == qa && *b == qb)
            .count();
    }
    let flat_time = t0.elapsed() / 100;

    // Versioned-graph cost: look up the URL's visit versions via the
    // graph's key table, walk only their out-edges.
    let t0 = ClockHandle::real().start();
    let mut graph_hits = 0usize;
    for _ in 0..100 {
        graph_hits = graph
            .nodes_with_key(&qa)
            .iter()
            .flat_map(|&v| graph.parents(v))
            .filter(|(eid, dst)| {
                graph.edge(*eid).unwrap().kind() == EdgeKind::Link
                    && graph.node(*dst).is_ok_and(|n| n.key() == qb)
            })
            .count();
    }
    let graph_time = t0.elapsed() / 100;

    let _ = writeln!(out, "   visit instances                : {}", visits.len());
    let _ = writeln!(
        out,
        "   flat traversal records         : {}",
        traversal_table.len()
    );
    let _ = writeln!(
        out,
        "   link query '{} -> {}'",
        &qa[..qa.len().min(40)],
        &qb[..qb.len().min(40)]
    );
    let _ = writeln!(
        out,
        "   flat-table scan (Firefox-like) : {flat_time:?} ({flat_hits} hits)"
    );
    let _ = writeln!(
        out,
        "   versioned graph (this repo)    : {graph_time:?} ({graph_hits} hits)"
    );
    out
}

/// A2 — factorized vs raw edge-structure storage (§3.1, Chapman et al.).
pub fn a2_factorization(days: u32) -> String {
    let mut out = header(
        "A2",
        "structural factorization",
        "factorization methods are 'almost certainly applicable' (§3.1)",
    );
    let (_h, _profile, browser) = paper_fixture(days);
    let graph = browser.graph();
    let t0 = ClockHandle::real().start();
    let fact = bp_storage::factorize(graph);
    let encode_time = t0.elapsed();
    let raw = bp_storage::raw_structure_size(graph);
    let t0 = ClockHandle::real().start();
    let decoded = bp_storage::defactorize(&fact).expect("roundtrip");
    let decode_time = t0.elapsed();
    assert_eq!(decoded.len(), graph.edge_count());
    let _ = writeln!(
        out,
        "   edges                          : {}",
        fact.edge_count()
    );
    let _ = writeln!(
        out,
        "   distinct kind signatures       : {}",
        fact.signature_count()
    );
    let _ = writeln!(out, "   raw structure bytes            : {raw}");
    let _ = writeln!(
        out,
        "   factorized bytes               : {} ({:.1}% of raw)",
        fact.encoded_size(),
        100.0 * fact.encoded_size() as f64 / raw as f64
    );
    let _ = writeln!(out, "   encode {encode_time:?} / decode {decode_time:?}");
    // §3.1's other storage idea: the navigation-tree property. The tree
    // covers only navigation edges, but encodes them at ~1 byte each.
    let tree = bp_graph::tree::HistoryTree::extract(graph);
    let tree_bytes = tree.encode().len();
    let _ = writeln!(
        out,
        "   navigation-tree subset         : {} of {} edges in {} bytes ({:.2} bytes/edge; Ayers-Stasko property)",
        tree.edge_count(),
        graph.edge_count(),
        tree_bytes,
        tree_bytes as f64 / tree.edge_count().max(1) as f64
    );
    out
}

/// A3 — close records & temporal overlap: cost and capability (§3.2).
pub fn a3_time_relationships(days: u32) -> String {
    let mut out = header(
        "A3",
        "close records + temporal overlap",
        "without closes, 'every page is always open' (§3.2)",
    );
    let h = history(days);
    let (_p1, mut with) = ingest(&h, CaptureConfig::default(), "a3-with");
    let without_config = CaptureConfig {
        record_close: false,
        record_temporal_overlap: false,
        ..CaptureConfig::default()
    };
    let (_p2, mut without) = ingest(&h, without_config, "a3-without");
    with.snapshot().unwrap();
    without.snapshot().unwrap();
    let wb = with.size_report().total_bytes();
    let wob = without.size_report().total_bytes();
    let _ = writeln!(
        out,
        "   store with closes+overlap      : {wb} bytes, {} edges",
        with.graph().edge_count()
    );
    let _ = writeln!(
        out,
        "   store without (Firefox-like)   : {wob} bytes, {} edges",
        without.graph().edge_count()
    );
    let _ = writeln!(
        out,
        "   cost of time relationships     : {:+.1}%",
        100.0 * (wb as f64 - wob as f64) / wob as f64
    );
    // Capability: a controlled §2.3 situation — fifty wine pages read on
    // separate days, exactly one while plane tickets were open. With close
    // records the query isolates it; without, "every page is always open"
    // and they all match.
    let events = controlled_wine_history();
    let p3 = TempProfile::new("a3-cap-with");
    let mut cap_with = ProvenanceBrowser::open(p3.path(), CaptureConfig::default()).unwrap();
    cap_with.ingest_all(&events).unwrap();
    let p4 = TempProfile::new("a3-cap-without");
    let wo_config = CaptureConfig {
        record_close: false,
        record_temporal_overlap: false,
        ..CaptureConfig::default()
    };
    let mut cap_without = ProvenanceBrowser::open(p4.path(), wo_config).unwrap();
    cap_without.ingest_all(&events).unwrap();
    // Uncapped so the hit counts show the real candidate sets.
    let config = TimeContextConfig {
        max_results: usize::MAX,
        ..TimeContextConfig::default()
    };
    let target = "http://rare-wine.example/the-bottle";
    let r_with = time_contextual_search(&cap_with, "wine", "plane tickets", &config);
    let r_without = time_contextual_search(&cap_without, "wine", "plane tickets", &config);
    let _ = writeln!(
        out,
        "   controlled §2.3 query hits with closes   : {} of 51 wine pages (target rank {:?})",
        r_with.hits.len(),
        r_with.rank_of_key(target)
    );
    let _ = writeln!(
        out,
        "   controlled §2.3 query hits without closes: {} of 51 wine pages (target rank {:?})",
        r_without.hits.len(),
        r_without.rank_of_key(target)
    );
    out
}

/// Fifty wine pages across fifty days, plus one wine page viewed while a
/// plane-tickets tab was open. Ground truth for the A3 capability check.
fn controlled_wine_history() -> Vec<bp_core::BrowserEvent> {
    use bp_core::{BrowserEvent, EventKind, NavigationCause, TabId};
    use bp_graph::Timestamp;
    let t = |s: i64| Timestamp::from_secs(s);
    let mut events = vec![BrowserEvent::tab_opened(t(0), TabId(0), None)];
    for day in 0..50i64 {
        events.push(BrowserEvent::navigate(
            t(day * 86_400 + 100),
            TabId(0),
            format!("http://wine{day}.example/notes"),
            Some("wine tasting notes"),
            NavigationCause::Typed,
        ));
    }
    let s0 = 60 * 86_400;
    events.push(BrowserEvent::navigate(
        t(s0),
        TabId(0),
        "http://rare-wine.example/the-bottle",
        Some("rare wine bottle"),
        NavigationCause::Typed,
    ));
    events.push(BrowserEvent::tab_opened(
        t(s0 + 30),
        TabId(1),
        Some(TabId(0)),
    ));
    events.push(BrowserEvent::navigate(
        t(s0 + 40),
        TabId(1),
        "http://travel.example/plane-tickets",
        Some("cheap plane tickets"),
        NavigationCause::Typed,
    ));
    events.push(BrowserEvent::new(
        t(s0 + 600),
        EventKind::TabClosed { tab: TabId(1) },
    ));
    events.push(BrowserEvent::new(
        t(s0 + 700),
        EventKind::TabClosed { tab: TabId(0) },
    ));
    events
}

/// A4 — dropping second-class relationships fragments the history (§3.2).
pub fn a4_second_class(days: u32) -> String {
    let mut out = header(
        "A4",
        "second-class relationships",
        "typed-location users 'generate sparsely connected metadata' (§3.2)",
    );
    let h = history(days);
    let (_p1, full) = ingest(&h, CaptureConfig::default(), "a4-full");
    let (_p2, firefox) = ingest(&h, CaptureConfig::firefox_like(), "a4-ff");
    let (g_full, g_ff) = (full.graph(), firefox.graph());
    let (f_full, f_ff) = (full.frozen(), firefox.frozen());
    let nav_only =
        |k: EdgeKind| k.is_causal() && k != EdgeKind::InstanceOf && k != EdgeKind::VersionOf;
    let _ = writeln!(
        out,
        "   provenance-aware: {} edges, {} components (nav edges only: {})",
        g_full.edge_count(),
        connected_components(&f_full, |_| true),
        connected_components(&f_full, nav_only),
    );
    let _ = writeln!(
        out,
        "   firefox-like    : {} edges, {} components (nav edges only: {})",
        g_ff.edge_count(),
        connected_components(&f_ff, |_| true),
        connected_components(&f_ff, nav_only),
    );
    let _ = writeln!(
        out,
        "   second-class fraction of provenance-aware edges: {:.1}%",
        100.0 * second_class_fraction(g_full)
    );
    // Unconnected navigations: visits with no incoming/outgoing
    // navigational edge at all. One pass over the edges marks both ends
    // of every such edge.
    let orphan_visits = |g: &bp_graph::ProvenanceGraph| {
        let mut related = vec![false; g.node_count()];
        for (_, e) in g.edges() {
            if e.kind() != EdgeKind::InstanceOf && e.kind() != EdgeKind::VersionOf {
                related[e.src().as_usize()] = true;
                related[e.dst().as_usize()] = true;
            }
        }
        g.nodes_of_kind(NodeKind::PageVisit)
            .filter(|v| !related[v.as_usize()])
            .count()
    };
    let _ = writeln!(
        out,
        "   visits with no recorded relationship: provenance-aware {} vs firefox-like {}",
        orphan_visits(g_full),
        orphan_visits(g_ff)
    );
    out
}

/// A5 — context-algorithm comparison (§4 future work: "more intelligent
/// algorithms"): one-shot neighborhood expansion vs expansion + HITS
/// authority vs personalized PageRank, on the rosebud retrieval task and
/// on paper-scale latency.
pub fn a5_algorithms(trials: u64, days: u32) -> String {
    let mut out = header(
        "A5",
        "context algorithms: expansion vs +HITS vs personalized PageRank",
        "§4: 'we must now develop more intelligent algorithms'",
    );
    use bp_query::contextual_history_search_ppr;
    let ppr_config = bp_graph::pagerank::PageRankConfig::default();
    let mut found = [0u64; 3];
    let mut rank_sum = [0usize; 3];
    for trial in 0..trials {
        let (_web, s) = scenario::rosebud(SEED + trial);
        let profile = TempProfile::new(&format!("a5-{trial}"));
        let mut browser =
            ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
        browser.ingest_all(&s.events).unwrap();
        let configs = [
            ContextualConfig::default(),
            ContextualConfig {
                hits_weight: 1.0,
                ..ContextualConfig::default()
            },
        ];
        for (i, config) in configs.iter().enumerate() {
            let r = contextual_history_search(&browser, &s.markers.query, config);
            if let Some(rank) = r.rank_of_key(&s.markers.target_url) {
                found[i] += 1;
                rank_sum[i] += rank;
            }
        }
        let r = contextual_history_search_ppr(
            &browser,
            &s.markers.query,
            &ContextualConfig::default(),
            &ppr_config,
        );
        if let Some(rank) = r.rank_of_key(&s.markers.target_url) {
            found[2] += 1;
            rank_sum[2] += rank;
        }
    }
    for (i, name) in ["expansion", "expansion + HITS", "personalized PageRank"]
        .iter()
        .enumerate()
    {
        let _ = writeln!(
            out,
            "   {name:<24} finds target {}/{trials}, mean rank {:.1}",
            found[i],
            rank_sum[i] as f64 / found[i].max(1) as f64
        );
    }
    // Latency at paper scale.
    let (_h, _profile, browser) = paper_fixture(days.min(20));
    let mut samples = (Vec::new(), Vec::new());
    for topic in TOPICS.iter().take(20) {
        let q = topic.vocabulary[0];
        let t0 = ClockHandle::real().start();
        let _ = contextual_history_search(&browser, q, &ContextualConfig::default());
        samples.0.push(t0.elapsed());
        let t0 = ClockHandle::real().start();
        let _ =
            contextual_history_search_ppr(&browser, q, &ContextualConfig::default(), &ppr_config);
        samples.1.push(t0.elapsed());
    }
    out.push_str(&latency_line("expansion latency", samples.0));
    out.push_str(&latency_line("PPR latency", samples.1));
    out
}

/// Runs every experiment at the given scale, concatenating reports.
pub fn run_all(days: u32, trials: u64) -> String {
    let mut out = String::new();
    out.push_str(&e1_storage_overhead(days));
    out.push('\n');
    out.push_str(&e2_query_latency(days));
    out.push('\n');
    out.push_str(&e3_history_scale(days));
    out.push('\n');
    out.push_str(&e4_contextual_vs_textual(trials));
    out.push('\n');
    out.push_str(&e5_personalization(trials));
    out.push('\n');
    out.push_str(&e6_time_contextual(trials));
    out.push('\n');
    out.push_str(&e7_download_lineage(trials));
    out.push('\n');
    out.push_str(&a1_versioning(days));
    out.push('\n');
    out.push_str(&a2_factorization(days));
    out.push('\n');
    out.push_str(&a3_time_relationships(days.min(20)));
    out.push('\n');
    out.push_str(&a4_second_class(days.min(20)));
    out.push('\n');
    out.push_str(&a5_algorithms(trials, days));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs_at_small_scale() {
        let report = e1_storage_overhead(2);
        assert!(report.contains("Places baseline"));
        assert!(report.contains("overhead"));
    }

    /// E1's ceiling: on the 7-day history the compacted store, under
    /// every capture configuration, takes at most 1.8× the bytes Places
    /// takes for the same events. A capture or encoding change that
    /// bloats the store fails here.
    #[test]
    fn e1_compacted_store_stays_within_1_8x_places_at_7_days() {
        let sizes = e1_sizes(7);
        for capture in &sizes.captures {
            let ratio = capture.store_bytes as f64 / sizes.places_bytes as f64;
            assert!(
                ratio <= 1.8,
                "{}: store {} B over Places {} B is {ratio:.3}",
                capture.name,
                capture.store_bytes,
                sizes.places_bytes
            );
        }
    }

    #[test]
    fn e4_scenarios_pass_at_small_scale() {
        let report = e4_contextual_vs_textual(2);
        assert!(
            report.contains("contextual search finds target : 2/2"),
            "{report}"
        );
        assert!(
            report.contains("textual search finds target    : 0/2"),
            "{report}"
        );
    }

    #[test]
    fn e7_scenarios_pass_at_small_scale() {
        let report = e7_download_lineage(2);
        assert!(
            report.contains("correct recognizable ancestor  : 2/2"),
            "{report}"
        );
    }

    #[test]
    fn ablations_run_at_small_scale() {
        assert!(a2_factorization(1).contains("factorized bytes"));
        assert!(a4_second_class(1).contains("second-class fraction"));
    }
}
