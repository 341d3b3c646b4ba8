//! The workloads: set-up, the timed closed loop, and the checks and
//! metrics that follow it.

use crate::checks::{self, Digest};
use crate::inputs::{History, Path, Query, QueryStream};
use crate::spans::{self, Tracer};
use crate::stats;
use bp_core::{BrowserEvent, CaptureConfig, CapturePipeline, ProvenanceBrowser, SharedBrowser};
use bp_graph::frozen::{expand_frozen, personalized_pagerank_frozen, CacheStats, FrozenGraph};
use bp_graph::pagerank::PageRankConfig;
use bp_graph::{NodeId, NodeKind};
use bp_obs::Obs;
use bp_places::{PlacesDb, PlacesIngester};
use bp_query::{
    contextual_history_search, contextual_history_search_ppr, first_recognizable_ancestor,
    personalize_query, time_contextual_search, ContextualConfig, ExpandedQuery, LineageAnswer,
    LineageConfig, PersonalizeConfig, QueryResult, TimeContextConfig,
};
use bp_storage::{ProvenanceStore, SyncPolicy};
use std::hint::black_box;
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Events per chunk in bulk capture: the `serve` feeder's `FEEDER_CHUNK`.
const BULK_CHUNK: usize = 64;
/// Events per chunk in `mixed`, one chunk before every query.
const MIXED_CHUNK: usize = 16;
/// Set-ups before the timed stream; `setup_s` is their median and
/// `open_ms` the median of their reopens.
const SETUPS: usize = 5;
/// Untimed warm-up queries after set-up (one round is every path once).
const WARMUP_ROUNDS: usize = 4;
/// Queries per second of `--seconds`. On a 2-vCPU VM `recall` answers
/// ~190 queries/s, so its stream lasts about `--seconds`; `mixed` takes 55
/// steps per second of it, so that 20 s give over 1000 queries, and as
/// its graph grows its stream lasts about 1.3 × `--seconds`.
const RECALL_QUERIES_PER_S: f64 = 150.0;
const MIXED_STEPS_PER_S: f64 = 55.0;

/// The end-to-end metrics `--trace 0` reports, in report order: those
/// whose spread over ten seeds stayed within 20% in every set of runs,
/// plus `setup_s`. The other user-visible timings (`lineage_p50_ms`,
/// `query_p99_ms`, `capture_events_per_s`, `open_ms`) are reported with
/// the per-layer metrics; `perfbench/README.md` gives the spreads that
/// left them out.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "search_p50_ms",
    "ppr_p50_ms",
    "personalize_p50_ms",
    "timectx_p50_ms",
    "visible_p50_ms",
    "store_overhead_ratio",
    "peak_rss_mb",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Queries against the profile at rest; after every round of five, a
    /// bulk chunk captured into a second profile.
    Recall,
    /// A 16-event capture chunk before every query, on one profile.
    Mixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "recall" => Some(Workload::Recall),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Recall => "recall",
            Workload::Mixed => "mixed",
        }
    }
}

/// One run's request.
#[derive(Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the history and the query stream.
    pub seed: u64,
    /// Sizes the timed work.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead.
    pub trace: bool,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (queries plus capture chunks).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

/// The queries of one pass, fixed by the workload and `--seconds` so that
/// every count repeats for a seed. The chunks follow from them.
fn planned_queries(workload: Workload, seconds: f64) -> usize {
    let rate = match workload {
        Workload::Recall => RECALL_QUERIES_PER_S,
        Workload::Mixed => MIXED_STEPS_PER_S,
    };
    ((seconds * rate).round() as usize).max(1)
}

/// Default query configurations: no deadline, PageRank on one job.
#[derive(Default)]
struct Configs {
    contextual: ContextualConfig,
    pagerank: PageRankConfig,
    personalize: PersonalizeConfig,
    timectx: TimeContextConfig,
    lineage: LineageConfig,
}

/// The run's directory under `.perfbench_work/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: String) -> Result<Self, String> {
        let path = PathBuf::from(".perfbench_work").join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn median(v: &[f64]) -> Result<f64, String> {
    stats::median(v).ok_or_else(|| "no samples".to_owned())
}

/// The highest percentile up to p99 that leaves ten samples beyond it.
fn tail_of<'a>(samples: impl IntoIterator<Item = &'a f64>) -> Result<f64, String> {
    let values: Vec<f64> = samples.into_iter().copied().collect();
    let p = stats::supported_tail(values.len(), 99.0)
        .ok_or_else(|| format!("{} samples support no tail percentile", values.len()))?;
    Ok(stats::percentile(&stats::sorted(&values), p).expect("supported_tail implies samples"))
}

fn open(dir: &FsPath) -> Result<ProvenanceBrowser, String> {
    ProvenanceBrowser::open_with_obs(
        dir,
        CaptureConfig::default(),
        SyncPolicy::OsManaged,
        Obs::isolated(),
    )
    .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// The CSR snapshot of the graph: the one call into `frozen()`.
fn csr(b: &ProvenanceBrowser) -> Arc<FrozenGraph> {
    b.frozen()
}

/// How long the set-ups and their reopens took.
#[derive(Debug, Default)]
struct SetupTimes {
    /// Whole set-ups, s.
    total_s: Vec<f64>,
    /// Each set-up's reopen of the 79-day profile at rest (snapshot plus
    /// empty log), ms.
    open_ms: Vec<f64>,
}

/// Builds the 79-day profile at rest in `dir` — open, ingest the history,
/// snapshot, reopen, first CSR — and records how long that and its reopen
/// took. A traced set-up also opens the bare store before the reopen,
/// outside the timed total, to split an open into recovery and reindex.
fn set_up(
    dir: &FsPath,
    history: &History,
    mut tracer: Option<&mut Tracer>,
    times: &mut SetupTimes,
) -> Result<ProvenanceBrowser, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let mut browser = open(dir)?;
    browser
        .ingest_all(&history.events)
        .map_err(|e| format!("ingest: {e}"))?;
    let snapshot = match tracer.as_deref_mut() {
        Some(t) => t.time("storage.snapshot", 0, None, || browser.snapshot()),
        None => browser.snapshot(),
    };
    snapshot.map_err(|e| format!("snapshot: {e}"))?;
    drop(browser);
    let mut probe_s = 0.0;
    if let Some(t) = tracer.as_deref_mut() {
        let probe = Instant::now();
        let store = t.time("storage.recover", 0, None, || {
            ProvenanceStore::open_with_obs(dir, SyncPolicy::OsManaged, Obs::isolated())
        });
        drop(store.map_err(|e| format!("open {}: {e}", dir.display()))?);
        probe_s = probe.elapsed().as_secs_f64();
    }
    let reopen = Instant::now();
    let browser = match tracer {
        Some(t) => t.time("core.open", 0, None, || open(dir)),
        None => open(dir),
    }?;
    times.open_ms.push(ms(reopen));
    black_box(csr(&browser));
    times.total_s.push(start.elapsed().as_secs_f64() - probe_s);
    Ok(browser)
}

/// Untimed queries from a stream of their own, after set-up.
fn warm_up(browser: &ProvenanceBrowser, configs: &Configs, seed: u64) -> Result<(), String> {
    let warmup = QueryStream::new(seed.wrapping_add(1), downloads(browser)?);
    for q in warmup.take(WARMUP_ROUNDS * Path::ALL.len()) {
        black_box(answer(browser, &q, configs));
    }
    Ok(())
}

/// The profile's downloads, the lineage targets.
fn downloads(browser: &ProvenanceBrowser) -> Result<Vec<NodeId>, String> {
    let d: Vec<NodeId> = browser.graph().nodes_of_kind(NodeKind::Download).collect();
    if d.is_empty() {
        return Err("the history has no downloads".to_owned());
    }
    Ok(d)
}

/// One query's answer.
enum Answer {
    Ranked(QueryResult),
    Expanded(ExpandedQuery),
    Lineage(Option<LineageAnswer>),
}

impl Answer {
    /// Whether the answer found anything: a hit, an added term, an
    /// ancestor.
    fn found(&self) -> bool {
        match self {
            Answer::Ranked(r) => !r.hits.is_empty(),
            Answer::Expanded(e) => !e.added_terms.is_empty(),
            Answer::Lineage(l) => l.is_some(),
        }
    }
}

fn answer(b: &ProvenanceBrowser, q: &Query, c: &Configs) -> Answer {
    match *q {
        Query::Search(t) => Answer::Ranked(contextual_history_search(b, t, &c.contextual)),
        Query::Ppr(t) => Answer::Ranked(contextual_history_search_ppr(
            b,
            t,
            &c.contextual,
            &c.pagerank,
        )),
        Query::Personalize(t) => Answer::Expanded(personalize_query(b, t, &c.personalize)),
        Query::Timectx(s, with) => Answer::Ranked(time_contextual_search(b, s, with, &c.timectx)),
        Query::Lineage(d) => Answer::Lineage(first_recognizable_ancestor(b, d, &c.lineage)),
    }
}

/// Checks an answer and folds it into the digest.
fn check(
    b: &ProvenanceBrowser,
    q: &Query,
    c: &Configs,
    a: &Answer,
    digest: &mut Digest,
) -> Result<(), String> {
    digest.write_u64(q.path().index() as u64);
    match (a, q) {
        (Answer::Ranked(r), _) => {
            checks::digest_ranked(digest, r);
            let kinds = match q {
                Query::Timectx(..) => &c.timectx.result_kinds,
                _ => &c.contextual.result_kinds,
            };
            checks::check_ranked(r, kinds)
        }
        (Answer::Expanded(e), Query::Personalize(t)) => {
            for term in &e.added_terms {
                digest.write(term.as_bytes());
            }
            checks::check_expanded(t, e, c.personalize.expansion_terms)
        }
        (Answer::Lineage(Some(l)), Query::Lineage(d)) => {
            digest.write(l.url.as_bytes());
            for n in &l.path.nodes {
                digest.write_u64(u64::from(n.index()));
            }
            checks::check_lineage(b, *d, l, c.lineage.recognizable_visits)
        }
        (Answer::Lineage(None), _) => Ok(()),
        _ => Err("answer does not match its query".to_owned()),
    }
}

/// Where capture chunks go: the background pipeline (untraced), or the
/// capture thread's own calls made directly under the write lock, so each
/// can be timed (traced).
enum Writer {
    Pipeline(CapturePipeline),
    Direct(SharedBrowser),
}

impl Writer {
    fn start(browser: ProvenanceBrowser, traced: bool) -> Self {
        if traced {
            Writer::Direct(SharedBrowser::new(browser))
        } else {
            Writer::Pipeline(CapturePipeline::start(browser))
        }
    }

    fn shared(&self) -> SharedBrowser {
        match self {
            Writer::Pipeline(p) => p.shared(),
            Writer::Direct(s) => s.clone(),
        }
    }

    /// Stops capture and hands the browser back.
    fn finish(self) -> Result<ProvenanceBrowser, String> {
        match self {
            Writer::Pipeline(p) => {
                if let Some(failure) = p.failure() {
                    return Err(format!("capture pipeline failed: {failure}"));
                }
                Ok(p.shutdown())
            }
            Writer::Direct(s) => s
                .try_into_inner()
                .map_err(|_| "browser still shared".to_owned()),
        }
    }
}

/// Samples and counts of one pass over the workload's stream.
#[derive(Default)]
struct Samples {
    /// Per-path latency, ms (in a traced pass: snapshot call plus entry).
    latency: [Vec<f64>; 5],
    /// Per-path answers that found something.
    found: [usize; 5],
    /// Per-chunk `submit_all` to `flush` ack, ms.
    visible: Vec<f64>,
    /// Per-chunk `submit_all` time, µs.
    submit: Vec<f64>,
    /// Per-chunk `flush` time, ms.
    flush: Vec<f64>,
    /// PageRank iterations per traced `ppr` query.
    ppr_iterations: Vec<f64>,
    events: usize,
    chunks: usize,
    queries: usize,
    failed: u64,
    digest: Digest,
    first_error: Option<String>,
}

impl Samples {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
    }

    /// Fails the pass once for each path that found nothing for half or
    /// more of its queries (at seed 42 every path finds something for
    /// over 99% of them): a path that stopped answering would otherwise
    /// pass every check and read as a speed-up.
    fn require_answers(&mut self) {
        for p in Path::ALL {
            let (asked, found) = (self.latency[p.index()].len(), self.found[p.index()]);
            if asked > 0 && 2 * found <= asked {
                self.fail(format!(
                    "{}: {found} of {asked} answers found anything",
                    p.span()
                ));
            }
        }
    }
}

/// One pass: the workload's timed stream.
struct Pass<'a> {
    history: &'a History,
    configs: &'a Configs,
    stream: QueryStream,
    tracer: Option<&'a mut Tracer>,
    op: u64,
    s: Samples,
}

impl Pass<'_> {
    fn query(&mut self, b: &ProvenanceBrowser) {
        let q = self.stream.next().expect("the query stream is endless");
        self.op += 1;
        let (latency, a) = match self.tracer.as_deref_mut() {
            None => {
                let start = Instant::now();
                let a = answer(b, &q, self.configs);
                (ms(start), a)
            }
            Some(t) => traced_query(t, self.op, b, &q, self.configs, &mut self.s.ppr_iterations),
        };
        let path = q.path().index();
        self.s.latency[path].push(latency);
        self.s.found[path] += usize::from(a.found());
        self.s.queries += 1;
        if let Err(e) = check(b, &q, self.configs, &a, &mut self.s.digest) {
            self.s.fail(format!("{q:?}: {e}"));
        }
    }

    /// Captures replay events `from..from + len` as one chunk.
    fn chunk(&mut self, w: &Writer, from: usize, len: usize) {
        let chunk = self.history.replay_chunk(from, len);
        self.op += 1;
        let ok = match (w, self.tracer.as_deref_mut()) {
            (Writer::Pipeline(p), _) => {
                let rejected = p.rejected_events();
                let start = Instant::now();
                let accepted = p.submit_all(chunk);
                let submitted = start.elapsed();
                let flush = Instant::now();
                p.flush();
                self.s.visible.push(ms(start));
                self.s.flush.push(ms(flush));
                self.s.submit.push(submitted.as_secs_f64() * 1e6);
                accepted == len && p.rejected_events() == rejected
            }
            (Writer::Direct(shared), t) => {
                let t = t.expect("only a traced pass captures directly");
                traced_chunk(t, self.op, shared, &chunk)
            }
        };
        if !ok {
            self.s
                .fail(format!("chunk of replay events {from}..{}", from + len));
        }
        self.s.events += len;
        self.s.chunks += 1;
    }
}

/// Applies a chunk as the capture thread does — one write group — timing
/// each call.
fn traced_chunk(t: &mut Tracer, op: u64, shared: &SharedBrowser, chunk: &[BrowserEvent]) -> bool {
    let root = t.begin("core.chunk", op, None);
    let ok = shared.with_mut(|b| {
        b.begin_write_group();
        let mut ok = true;
        for e in chunk {
            ok &= t
                .time("core.ingest", op, Some(root), || b.ingest(e))
                .is_ok();
        }
        let group = t.time("storage.write_group", op, Some(root), || {
            b.end_write_group()
        });
        ok && group.is_ok()
    });
    t.end(root);
    ok
}

/// A query with spans: the snapshot call first (it pays any rebuild a
/// mutation forced), then the entry point, then — as the entry point's
/// children — the layer calls it makes internally, repeated with the same
/// inputs so their cost can be subtracted from it. Returns the snapshot
/// call plus the entry point, ms, and the answer.
fn traced_query(
    t: &mut Tracer,
    op: u64,
    b: &ProvenanceBrowser,
    q: &Query,
    c: &Configs,
    ppr_iterations: &mut Vec<f64>,
) -> (f64, Answer) {
    let root = t.begin("op.query", op, None);
    let frozen: Option<Arc<FrozenGraph>> = q
        .path()
        .frozen()
        .then(|| t.time("graph.frozen", op, Some(root), || csr(b)));
    let entry = t.begin(q.path().span(), op, Some(root));
    let a = answer(b, q, c);
    t.end(entry);
    let parent = Some(entry);
    let seeds = |t: &mut Tracer, term: &str| {
        let hits = t.time("text.search", op, parent, || b.text_index().search(term));
        let max = hits.first().map_or(1.0, |(_, s)| *s).max(f64::EPSILON);
        hits.iter()
            .map(|&(doc, s)| (NodeId::new(doc), s / max))
            .collect::<Vec<_>>()
    };
    match (*q, frozen.as_deref()) {
        (Query::Search(term), Some(f)) | (Query::Personalize(term), Some(f)) => {
            let s = seeds(t, term);
            let cfg = match q {
                Query::Search(_) => &c.contextual,
                _ => &c.personalize.contextual,
            };
            black_box(t.time("graph.expand", op, parent, || {
                expand_frozen(f, &s, &cfg.expansion, &cfg.budget)
            }));
        }
        (Query::Ppr(term), Some(f)) => {
            let s = seeds(t, term);
            let scores = t.time("graph.ppr_kernel", op, parent, || {
                personalized_pagerank_frozen(f, &s, &c.pagerank, &c.contextual.budget)
            });
            ppr_iterations.push(scores.iterations as f64);
            black_box(scores);
        }
        (Query::Timectx(subject, companion), _) => {
            black_box(seeds(t, subject));
            black_box(seeds(t, companion));
        }
        // Lineage walks the CSR through a function private to bp-query:
        // there is no public layer call to repeat, so its self time is
        // the whole entry span.
        _ => {}
    }
    t.end(root);
    let spans = t.spans();
    let snapshot_ns = if frozen.is_some() {
        spans[root + 1].dur()
    } else {
        0
    };
    ((snapshot_ns + spans[entry].dur()) as f64 / 1e6, a)
}

/// Program counters of one browser, read by registry name.
#[derive(Debug, Clone, Copy)]
struct Counters {
    wal_bytes: u64,
    batches: u64,
}

impl Counters {
    fn read(b: &ProvenanceBrowser) -> Self {
        let snap = b.obs().registry().snapshot();
        Counters {
            wal_bytes: snap.counters.get("wal.bytes_written").copied().unwrap_or(0),
            batches: snap
                .histograms
                .get("capture.batch_len")
                .map_or(0, |h| h.count),
        }
    }

    /// What was counted since `before`.
    fn since(self, before: Counters) -> Counters {
        Counters {
            wal_bytes: self.wal_bytes - before.wal_bytes,
            batches: self.batches - before.batches,
        }
    }
}

/// What a pass leaves behind for the checks and metrics.
struct PassResult {
    s: Samples,
    /// The profile the queries read, when the capture went elsewhere.
    queried: Option<ProvenanceBrowser>,
    /// The profile the capture went into, and its directory.
    captured: ProvenanceBrowser,
    captured_dir: PathBuf,
    /// Score-cache activity during the timed queries.
    cache: CacheDelta,
    /// Counters of the captured profile over the pass.
    counters: Counters,
    /// Process peak resident set right after the timed stream, MiB.
    peak_rss_mb: f64,
}

impl PassResult {
    fn queried(&self) -> &ProvenanceBrowser {
        self.queried.as_ref().unwrap_or(&self.captured)
    }
}

/// Builds the workload's profiles under `dir` and runs its timed stream:
/// queries on the 79-day profile, capture into a second one (`recall`)
/// or into the queried profile itself (`mixed`).
fn run_pass(
    args: &Args,
    dir: &FsPath,
    history: &History,
    configs: &Configs,
    mut tracer: Option<&mut Tracer>,
    times: &mut SetupTimes,
) -> Result<PassResult, String> {
    let traced = tracer.is_some();
    let browser = set_ups(&dir.join("profile"), history, tracer.as_deref_mut(), times)?;
    let captured_dir = dir.join(match args.workload {
        Workload::Recall => "capture",
        Workload::Mixed => "profile",
    });
    let target = match args.workload {
        Workload::Recall => Some(set_up(
            &captured_dir,
            history,
            None,
            &mut SetupTimes::default(),
        )?),
        Workload::Mixed => None,
    };
    warm_up(&browser, configs, args.seed)?;
    let mut pass = Pass {
        history,
        configs,
        stream: QueryStream::new(args.seed, downloads(&browser)?),
        tracer,
        op: 0,
        s: Samples::default(),
    };
    let queries = planned_queries(args.workload, args.seconds);
    let cache_before = cache_stats(&browser);
    let (queried, captured, before) = match target {
        Some(target) => {
            // The queried profile stays at rest: its queries must not
            // write, and the capture goes into `target`, one chunk per
            // round of queries, so that the capture samples span the run
            // as the query samples do; the host's speed swings over
            // seconds.
            let rest = Counters::read(&browser);
            let before = Counters::read(&target);
            let w = Writer::start(target, traced);
            for k in 1..=queries {
                pass.query(&browser);
                if k % Path::ALL.len() == 0 {
                    pass.chunk(&w, pass.s.events, BULK_CHUNK);
                }
            }
            if Counters::read(&browser).since(rest).wal_bytes != 0 {
                pass.s.fail("the queries wrote to the log".to_owned());
            }
            (Some(browser), w.finish()?, before)
        }
        None => {
            let before = Counters::read(&browser);
            let w = Writer::start(browser, traced);
            let shared = w.shared();
            for _ in 0..queries {
                pass.chunk(&w, pass.s.events, MIXED_CHUNK);
                pass.query(&shared.read());
            }
            drop(shared);
            (None, w.finish()?, before)
        }
    };
    pass.s.require_answers();
    let cache_after = cache_stats(queried.as_ref().unwrap_or(&captured));
    Ok(PassResult {
        s: pass.s,
        queried,
        counters: Counters::read(&captured).since(before),
        captured,
        captured_dir,
        cache: CacheDelta::new(&cache_before, &cache_after),
        peak_rss_mb: peak_rss_mb()?,
    })
}

/// The score cache's counters: the one call into `score_cache()`.
fn cache_stats(b: &ProvenanceBrowser) -> CacheStats {
    b.score_cache().stats()
}

/// Score-cache hits, misses and evictions over the timed queries.
#[derive(Debug, Clone, Copy)]
struct CacheDelta {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheDelta {
    fn new(before: &CacheStats, after: &CacheStats) -> Self {
        CacheDelta {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
        }
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Reopens the profile and checks it recovers the live graph; returns
/// `(nodes, edges)`.
fn check_recovery(browser: &ProvenanceBrowser, dir: &FsPath) -> Result<(usize, usize), String> {
    let live = (browser.graph().node_count(), browser.graph().edge_count());
    let reopened = open(dir)?;
    let recovered = (reopened.graph().node_count(), reopened.graph().edge_count());
    if recovered != live {
        return Err(format!(
            "reopen recovered {recovered:?}, live graph had {live:?}"
        ));
    }
    Ok(live)
}

/// (snapshot + log bytes) ÷ the Places encoding of the same events.
fn overhead_ratio(
    browser: &ProvenanceBrowser,
    history: &History,
    events: usize,
) -> Result<f64, String> {
    let size = browser.size_report();
    let mut places = PlacesDb::new();
    let mut ingester = PlacesIngester::new();
    let err = |e| format!("places: {e:?}");
    ingester
        .ingest_all(&mut places, &history.events)
        .map_err(err)?;
    for i in 0..events {
        ingester
            .ingest(&mut places, &history.replay_event(i))
            .map_err(err)?;
    }
    Ok((size.snapshot_bytes + size.log_bytes) as f64 / places.encoded_size().max(1) as f64)
}

/// Runs `SETUPS` set-ups in `dir` and returns the last one's browser.
fn set_ups(
    dir: &FsPath,
    history: &History,
    mut tracer: Option<&mut Tracer>,
    times: &mut SetupTimes,
) -> Result<ProvenanceBrowser, String> {
    let mut browser = None;
    for _ in 0..SETUPS {
        drop(browser.take());
        browser = Some(set_up(dir, history, tracer.as_deref_mut(), times)?);
    }
    Ok(browser.expect("SETUPS > 0"))
}

/// Runs one benchmark invocation.
pub fn run(args: &Args) -> Result<Report, String> {
    let clock = Instant::now();
    let lap = |what: &str| {
        eprintln!(
            "perfbench: {what} done at {:.2} s",
            clock.elapsed().as_secs_f64()
        )
    };
    let history = History::generate(args.seed, bp_sim::calibrate::PAPER_DAYS);
    let configs = Configs::default();
    let work = WorkDir::new(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ))?;
    lap("input generation");

    let mut times = SetupTimes::default();
    let untraced = run_pass(
        args,
        &work.0.join("untraced"),
        &history,
        &configs,
        None,
        &mut times,
    )?;
    lap("set-up and timed stream");
    let s = &untraced.s;
    let mut failed = s.failed;
    let mut attempted = (s.queries + s.chunks) as u64;
    let mut errors: Vec<String> = s.first_error.iter().cloned().collect();
    let frozen_builds = untraced.queried().frozen_stats().0;
    let size = untraced.captured.size_report();
    let ratio = overhead_ratio(&untraced.captured, &history, s.events)?;
    let counts = check_recovery(&untraced.captured, &untraced.captured_dir).unwrap_or_else(|e| {
        errors.push(e);
        (0, 0)
    });
    lap("recovery and size checks");
    eprintln!(
        "perfbench: workload={} seed={} digest={:016x} queries={} found={:?} chunks={} \
         events={} final_nodes={} final_edges={} frozen_builds={} cache_hits={}",
        args.workload.name(),
        args.seed,
        s.digest.value(),
        s.queries,
        s.found,
        s.chunks,
        s.events,
        counts.0,
        counts.1,
        frozen_builds,
        untraced.cache.hits,
    );

    let mut user_visible = vec![metric("setup_s", median(&times.total_s)?, "s")];
    user_visible.extend(timings(s, &times)?);
    user_visible.extend([
        metric("store_overhead_ratio", ratio, "ratio"),
        metric("peak_rss_mb", untraced.peak_rss_mb, "MiB"),
    ]);
    let (end_to_end, ungated): (Vec<Metric>, Vec<Metric>) = user_visible
        .into_iter()
        .partition(|m| END_TO_END.contains(&m.name));

    let metrics = if args.trace {
        let mut tracer = Tracer::default();
        let traced = run_pass(
            args,
            &work.0.join("traced"),
            &history,
            &configs,
            Some(&mut tracer),
            &mut SetupTimes::default(),
        )?;
        lap("traced stream");
        attempted += (traced.s.queries + traced.s.chunks) as u64;
        failed += traced.s.failed;
        errors.extend(traced.s.first_error.iter().cloned());
        let graph = traced.captured.graph();
        eprintln!(
            "perfbench: traced pass digest={:016x}",
            traced.s.digest.value()
        );
        if (graph.node_count(), graph.edge_count()) != counts {
            errors.push("the traced pass built a different graph".to_owned());
        }
        let dump = PathBuf::from(".perfbench_work").join(format!(
            "spans-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        tracer
            .dump(&dump)
            .map_err(|e| format!("{}: {e}", dump.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            dump.display()
        );
        let mut m = per_layer(&LayerInputs {
            untraced: &untraced,
            traced: &traced.s,
            frozen_builds,
            snapshot_bytes: size.snapshot_bytes,
            log_bytes: size.log_bytes,
            tracer: &tracer,
        })?;
        m.extend(ungated);
        m
    } else {
        end_to_end
    };
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    Ok(Report {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The user-visible timings of the untraced pass, besides `setup_s`.
fn timings(s: &Samples, times: &SetupTimes) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    for p in Path::ALL {
        m.push(metric(p.p50_metric(), median(&s.latency[p.index()])?, "ms"));
    }
    let capture_s: f64 = s.visible.iter().sum::<f64>() / 1e3;
    m.extend([
        metric("query_p99_ms", tail_of(s.latency.iter().flatten())?, "ms"),
        metric("capture_events_per_s", s.events as f64 / capture_s, "1/s"),
        metric("visible_p50_ms", median(&s.visible)?, "ms"),
        metric("open_ms", median(&times.open_ms)?, "ms"),
    ]);
    Ok(m)
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    untraced: &'a PassResult,
    traced: &'a Samples,
    frozen_builds: u64,
    snapshot_bytes: u64,
    log_bytes: u64,
    tracer: &'a Tracer,
}

/// Per-layer metrics: call times from the traced pass's spans, counters
/// and pipeline timings from the untraced pass.
fn per_layer(i: &LayerInputs) -> Result<Vec<Metric>, String> {
    let all = i.tracer.spans();
    let self_ns = spans::self_times(all);
    // Median over the spans named `name` of `value(span index) / scale`.
    let med = |name: &str, scale: f64, value: &dyn Fn(usize) -> f64| -> Result<f64, String> {
        let v: Vec<f64> = (0..all.len())
            .filter(|&k| all[k].name == name)
            .map(|k| value(k) / scale)
            .collect();
        stats::median(&v).ok_or_else(|| format!("no {name} spans"))
    };
    let dur = |k: usize| all[k].dur() as f64;
    let own = |k: usize| self_ns[k] as f64;
    let u = &i.untraced.s;
    let mut m = Vec::new();
    for p in Path::ALL {
        m.push(metric(p.self_metric(), med(p.span(), 1e6, &own)?, "ms"));
    }
    let mut overhead = Vec::new();
    for p in Path::ALL {
        let base = median(&u.latency[p.index()])?;
        let traced = median(&i.traced.latency[p.index()])?;
        overhead.push((traced / base - 1.0) * 100.0);
    }
    let CacheDelta {
        hits,
        misses,
        evictions,
    } = i.untraced.cache;
    let counters = i.untraced.counters;
    let recover_ms = med("storage.recover", 1e6, &dur)?;
    m.extend([
        metric(
            "graph.frozen_build_ms",
            med("graph.frozen", 1e6, &dur)?,
            "ms",
        ),
        metric("graph.frozen_builds", i.frozen_builds as f64, "count"),
        metric(
            "graph.ppr_kernel_ms",
            med("graph.ppr_kernel", 1e6, &dur)?,
            "ms",
        ),
        metric(
            "graph.ppr_iterations",
            median(&i.traced.ppr_iterations)?,
            "count",
        ),
        metric("graph.expand_ms", med("graph.expand", 1e6, &dur)?, "ms"),
        metric(
            "graph.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        metric("graph.cache_evictions", evictions as f64, "count"),
        metric("text.search_us", med("text.search", 1e3, &dur)?, "us"),
        metric("core.ingest_us", med("core.ingest", 1e3, &dur)?, "us"),
        metric("core.submit_us", median(&u.submit)?, "us"),
        metric("core.flush_wait_ms", median(&u.flush)?, "ms"),
        metric(
            "core.batches_per_chunk",
            counters.batches as f64 / u.chunks.max(1) as f64,
            "ratio",
        ),
        metric("core.visible_p99_ms", tail_of(&u.visible)?, "ms"),
        metric(
            "core.reindex_ms",
            med("core.open", 1e6, &dur)? - recover_ms,
            "ms",
        ),
        metric("storage.recover_ms", recover_ms, "ms"),
        metric(
            "storage.snapshot_ms",
            med("storage.snapshot", 1e6, &dur)?,
            "ms",
        ),
        metric(
            "storage.write_group_us",
            med("storage.write_group", 1e3, &dur)?,
            "us",
        ),
        metric(
            "storage.wal_bytes_per_event",
            counters.wal_bytes as f64 / u.events.max(1) as f64,
            "B/event",
        ),
        metric("storage.snapshot_bytes", i.snapshot_bytes as f64, "bytes"),
        metric("storage.log_bytes", i.log_bytes as f64, "bytes"),
        metric("bench.trace_overhead_pct", median(&overhead)?, "%"),
    ]);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_path_that_mostly_finds_nothing_fails_the_pass() {
        let mut s = Samples::default();
        for p in Path::ALL {
            s.latency[p.index()] = vec![1.0; 10];
            s.found[p.index()] = 10;
        }
        s.found[Path::Lineage.index()] = 6;
        s.require_answers();
        assert_eq!(s.failed, 0);
        s.found[Path::Search.index()] = 5;
        s.found[Path::Lineage.index()] = 0;
        s.require_answers();
        assert_eq!(s.failed, 2);
        assert!(s.first_error.unwrap().starts_with("query.search: 5 of 10"));
    }

    #[test]
    fn planned_work_scales_with_seconds() {
        assert_eq!(planned_queries(Workload::Recall, 20.0), 3000);
        assert_eq!(planned_queries(Workload::Mixed, 20.0), 1100);
        assert_eq!(planned_queries(Workload::Mixed, 0.001), 1);
    }
}
