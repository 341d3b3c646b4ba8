//! Every metric name, declared once with its kind.
//!
//! [`Obs::counter`](crate::Obs::counter), [`Obs::gauge`](crate::Obs::gauge)
//! and [`Obs::histogram`](crate::Obs::histogram) take only the constants
//! below, and only this module can make one, so an emit site cannot
//! misspell a name or use it as the wrong kind. A misspelt name does not
//! compile:
//!
//! ```compile_fail
//! let obs = bp_obs::Obs::isolated();
//! obs.counter("ingest.frames_totl").inc();
//! ```
//!
//! Nor does a counter's name handed to `gauge`:
//!
//! ```compile_fail
//! let obs = bp_obs::Obs::isolated();
//! obs.gauge(bp_obs::names::CAPTURE_EVENTS_TOTAL).set(1);
//! ```
//!
//! To add a metric, declare it here and emit it through the constant.
//! Dashboards, the SLO rules and the exposition read these names
//! verbatim (dots become underscores in the Prometheus text); a unit test
//! rejects two declarations that the Prometheus charset would merge.

macro_rules! kinds {
    ($($(#[$doc:meta])* $ty:ident;)*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $ty(&'static str);

        impl $ty {
            /// The name as registered; the Prometheus text turns its dots
            /// into underscores.
            pub const fn as_str(self) -> &'static str {
                self.0
            }
        }
    )*};
}

kinds! {
    /// The name of a [`Counter`](crate::Counter).
    CounterName;
    /// The name of a [`Gauge`](crate::Gauge).
    GaugeName;
    /// The name of a [`Histogram`](crate::Histogram).
    HistogramName;
}

macro_rules! declare {
    ($($(#[$doc:meta])* $kind:ident $konst:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $konst: $kind = $kind($name);)*

        /// Every declaration as `(kind, name)`, in declaration order.
        #[cfg(test)]
        const ALL: &[(&str, &str)] = &[$((stringify!($kind), $name)),*];
    };
}

declare! {
    // --- write-ahead log ---
    /// Frames appended to the log.
    CounterName WAL_APPENDS_TOTAL = "wal.appends_total";
    /// Bytes appended to the log.
    CounterName WAL_BYTES_WRITTEN = "wal.bytes_written";
    /// Events written by group commits.
    CounterName WAL_GROUP_COMMIT_EVENTS = "wal.group_commit.events";
    /// Group commits written.
    CounterName WAL_GROUP_COMMIT_GROUPS = "wal.group_commit.groups";
    /// Frames replayed from the log at open.
    CounterName WAL_RECOVERED_FRAMES = "wal.recovered_frames";
    /// Torn log tails cut off at open.
    CounterName WAL_TORN_TAIL_TRUNCATIONS = "wal.torn_tail_truncations";
    /// Time a group commit spent in fsync, in µs.
    HistogramName WAL_GROUP_COMMIT_SYNC_US = "wal.group_commit.sync_us";

    // --- storage ---
    /// Snapshots written (log compactions).
    CounterName STORAGE_COMPACTIONS_TOTAL = "storage.compactions_total";
    /// Nodes redacted.
    CounterName STORAGE_REDACTIONS_TOTAL = "storage.redactions_total";
    /// Edges in the live graph.
    GaugeName STORAGE_GRAPH_EDGES = "storage.graph_edges";
    /// Nodes in the live graph.
    GaugeName STORAGE_GRAPH_NODES = "storage.graph_nodes";
    /// Bytes of interned strings.
    GaugeName STORAGE_INTERNER_BYTES = "storage.interner_bytes";
    /// Interned strings.
    GaugeName STORAGE_INTERNER_STRINGS = "storage.interner_strings";
    /// Time a snapshot took to write, in µs.
    HistogramName STORAGE_SNAPSHOT_DURATION_US = "storage.snapshot_duration_us";

    // --- capture pipeline ---
    /// Submissions that waited for queue space.
    CounterName CAPTURE_BACKPRESSURE_STALLS = "capture.backpressure_stalls";
    /// Edges capture added.
    CounterName CAPTURE_EDGES_ADDED = "capture.edges_added";
    /// Events capture rejected.
    CounterName CAPTURE_EVENTS_REJECTED = "capture.events_rejected";
    /// Events capture applied.
    CounterName CAPTURE_EVENTS_TOTAL = "capture.events_total";
    /// Pipeline flushes.
    CounterName CAPTURE_FLUSHES = "capture.flushes";
    /// Events waiting in the capture queue.
    GaugeName CAPTURE_QUEUE_DEPTH = "capture.queue_depth";
    /// Events per drained batch.
    HistogramName CAPTURE_BATCH_LEN = "capture.batch_len";
    /// Store operations per applied batch.
    HistogramName CAPTURE_BATCH_OPS = "capture.batch_ops";

    // --- query + SLO ---
    /// Queries that truncated themselves to honor their deadline.
    CounterName QUERY_DEADLINE_BOUNDED = "query.deadline.bounded";
    /// Queries that finished within their deadline.
    CounterName QUERY_DEADLINE_HIT = "query.deadline.hit";
    /// Queries that overran their deadline.
    CounterName QUERY_DEADLINE_MISS = "query.deadline.miss";
    /// Contextual search latency (expansion and PageRank), in µs.
    HistogramName QUERY_CONTEXT_LATENCY_US = "query.context.latency_us";
    /// `describe` latency, in µs.
    HistogramName QUERY_DESCRIBE_LATENCY_US = "query.describe.latency_us";
    /// Latency of the downloads descending from a page, in µs.
    HistogramName QUERY_DOWNLOADS_FROM_LATENCY_US = "query.downloads_from.latency_us";
    /// Latency of a node's full causal lineage, in µs.
    HistogramName QUERY_FULL_LINEAGE_LATENCY_US = "query.full_lineage.latency_us";
    /// First-recognizable-ancestor latency, in µs.
    HistogramName QUERY_LINEAGE_LATENCY_US = "query.lineage.latency_us";
    /// Query personalization latency, in µs.
    HistogramName QUERY_PERSONALIZE_LATENCY_US = "query.personalize.latency_us";
    /// Query-language latency, in µs.
    HistogramName QUERY_QL_LATENCY_US = "query.ql.latency_us";
    /// Textual baseline search latency, in µs.
    HistogramName QUERY_TEXTUAL_LATENCY_US = "query.textual.latency_us";
    /// Time-contextual search latency, in µs.
    HistogramName QUERY_TIMECTX_LATENCY_US = "query.timectx.latency_us";

    // --- score cache of ranked answers ---
    /// Ranked answers served from the cache.
    CounterName BP_GRAPH_CACHE_HIT = "bp_graph_cache.hit";
    /// Ranked answers computed afresh.
    CounterName BP_GRAPH_CACHE_MISS = "bp_graph_cache.miss";
    /// Ranked answers evicted from the cache.
    CounterName BP_GRAPH_CACHE_EVICT = "bp_graph_cache.evict";
    /// Bytes the cache holds.
    GaugeName BP_GRAPH_CACHE_BYTES = "bp_graph_cache.bytes";

    // --- frozen-graph snapshot refresh ---
    /// Snapshot refreshes that extended the CSR.
    CounterName BP_GRAPH_FROZEN_EXTEND = "bp_graph_frozen.extend";
    /// Snapshot refreshes that rebuilt the CSR.
    CounterName BP_GRAPH_FROZEN_REBUILD = "bp_graph_frozen.rebuild";
    /// Time a snapshot refresh took, in µs.
    HistogramName BP_GRAPH_FROZEN_BUILD_US = "bp_graph_frozen.build_us";

    // --- serve daemon ---
    /// HTTP requests served.
    CounterName BP_SERVE_HTTP_REQUESTS_TOTAL = "bp_serve_http_requests_total";
    /// Replay cycles run.
    CounterName BP_SERVE_REPLAY_CYCLES_TOTAL = "bp_serve_replay_cycles_total";
    /// Seconds since the daemon started.
    GaugeName BP_SERVE_UPTIME_SECONDS = "bp_serve_uptime_seconds";
    /// Fast-burn alerts fired.
    CounterName BP_SLO_ALERTS_TOTAL = "bp_slo_alerts_total";
    /// Deadline misses the SLO engine recorded.
    CounterName BP_SLO_MISSES_TOTAL = "bp_slo_misses_total";
    /// Samples the SLO engine recorded.
    CounterName BP_SLO_SAMPLES_TOTAL = "bp_slo_samples_total";
    /// Error-budget burn rate over the short window, ×1000.
    GaugeName BP_SLO_BURN_RATE_5M = "bp_slo_burn_rate.5m";
    /// Error-budget burn rate over the long window, ×1000.
    GaugeName BP_SLO_BURN_RATE_1H = "bp_slo_burn_rate.1h";

    // --- request tracing (tail sampler) ---
    /// Traces the tail sampler kept.
    CounterName BP_TRACE_SAMPLER_KEPT = "bp_trace_sampler.kept";
    /// Traces the tail sampler dropped.
    CounterName BP_TRACE_SAMPLER_DROPPED = "bp_trace_sampler.dropped";
    /// Kept traces evicted from the ring.
    CounterName BP_TRACE_SAMPLER_EVICTED = "bp_trace_sampler.evicted";

    // --- derived tables ---
    /// Rows in the Places-style baseline.
    GaugeName PLACES_ROWS = "places.rows";
    /// Documents in the text index.
    GaugeName TEXT_DOCS = "text.docs";
    /// Postings in the text index.
    GaugeName TEXT_POSTINGS = "text.postings";
    /// Terms in the text index.
    GaugeName TEXT_TERMS = "text.terms";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::sanitize;
    use std::collections::BTreeMap;

    /// The first pair of declarations whose exposed series would share a
    /// Prometheus name: their sanitized names, or a histogram's
    /// `_bucket`/`_sum`/`_count` series.
    fn collision<'a>(decls: &[(&'a str, &'a str)]) -> Option<(&'a str, &'a str)> {
        let mut exposed: BTreeMap<String, &str> = BTreeMap::new();
        for &(kind, name) in decls {
            let base = sanitize(name);
            let mut series = vec![base.clone()];
            if kind == "HistogramName" {
                series.extend(["_bucket", "_sum", "_count"].map(|s| format!("{base}{s}")));
            }
            for s in series {
                if let Some(earlier) = exposed.insert(s, name) {
                    return Some((earlier, name));
                }
            }
        }
        None
    }

    #[test]
    fn declared_names_stay_distinct_in_the_exposition() {
        assert_eq!(collision(ALL), None);
    }

    #[test]
    fn names_that_sanitize_alike_collide() {
        let decls = [("CounterName", "a.b"), ("CounterName", "a_b")];
        assert_eq!(collision(&decls), Some(("a.b", "a_b")));
        let decls = [("CounterName", "q.x_count"), ("HistogramName", "q.x")];
        assert_eq!(collision(&decls), Some(("q.x_count", "q.x")));
        assert_eq!(
            collision(&[("GaugeName", "a.b"), ("GaugeName", "a.c")]),
            None
        );
    }
}
