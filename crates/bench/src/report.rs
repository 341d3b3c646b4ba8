//! Machine-readable benchmark reports (`BENCH_*.json`) and the regression
//! comparator behind `bench --compare`.
//!
//! The report schema is versioned and renders with sorted keys
//! (`schema_version` first) so diffs between commits are stable. Latency
//! summaries come from [`bp_obs::Histogram`] log₂ histograms via the
//! interpolated quantile estimator, which is exactly what the live
//! metrics exposition publishes — the benchmark and production numbers
//! share one estimator.

use bp_obs::json::{self, Value};
use bp_obs::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the `BENCH_*.json` schema. Bump on any field change.
///
/// v2 added the `frozen` section (CSR snapshot builds, PageRank worker
/// count, score-cache hit/miss/evict/bytes); v3 added
/// `ingest.events_per_sec` and the `wal` section (group-commit
/// append/sync telemetry from the sustained-ingest phase); v4 dropped
/// `frozen.jobs`, as the PageRank kernel is serial. A v3 document's
/// `jobs` key is ignored, so the committed v3 baseline stays comparable.
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// Oldest schema version `from_json` still accepts.
pub const BENCH_SCHEMA_MIN_VERSION: u64 = 3;

/// Frozen-snapshot and score-cache telemetry for one run (schema v2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrozenStats {
    /// CSR snapshot rebuilds over the whole run.
    pub builds: u64,
    /// Wall time of the most recent snapshot build, microseconds.
    pub build_us: u64,
    /// Score-cache lookups served from cache.
    pub cache_hits: u64,
    /// Score-cache lookups that had to compute fresh scores.
    pub cache_misses: u64,
    /// Cache entries dropped (stale epoch or LRU byte pressure).
    pub cache_evictions: u64,
    /// Estimated cache bytes held at end of run.
    pub cache_bytes: u64,
}

impl FrozenStats {
    /// Cache hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"build_us\": {}, \"builds\": {}, \"cache_bytes\": {}, \
             \"cache_evictions\": {}, \"cache_hit_rate\": {:.4}, \"cache_hits\": {}, \
             \"cache_misses\": {}}}",
            self.build_us,
            self.builds,
            self.cache_bytes,
            self.cache_evictions,
            self.hit_rate(),
            self.cache_hits,
            self.cache_misses
        )
    }

    fn from_json(v: &Value) -> Option<Self> {
        // `cache_hit_rate` is derived on render and ignored on parse, as
        // is the `jobs` count documents before v4 carry.
        Some(FrozenStats {
            builds: v.get("builds")?.as_u64()?,
            build_us: v.get("build_us")?.as_u64()?,
            cache_hits: v.get("cache_hits")?.as_u64()?,
            cache_misses: v.get("cache_misses")?.as_u64()?,
            cache_evictions: v.get("cache_evictions")?.as_u64()?,
            cache_bytes: v.get("cache_bytes")?.as_u64()?,
        })
    }
}

/// Write-ahead-log group-commit telemetry from the sustained-ingest
/// phase (schema v3): how the batched capture drain amortized WAL
/// appends and fsyncs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Frames appended to the log.
    pub appends: u64,
    /// Bytes written to the log (frame headers included).
    pub bytes_written: u64,
    /// Frame groups committed under one sync.
    pub groups: u64,
    /// Events carried by those groups.
    pub group_events: u64,
    /// Median capture drain batch size.
    pub batch_p50: u64,
    /// 95th-percentile capture drain batch size.
    pub batch_p95: u64,
    /// 95th-percentile group sync wall time, microseconds.
    pub sync_p95_us: u64,
}

impl WalStats {
    /// Mean events per committed group; 0 when no groups committed.
    pub fn events_per_group(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.group_events as f64 / self.groups as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"appends\": {}, \"batch_p50\": {}, \"batch_p95\": {}, \
             \"bytes_written\": {}, \"group_events\": {}, \"groups\": {}, \
             \"sync_p95_us\": {}}}",
            self.appends,
            self.batch_p50,
            self.batch_p95,
            self.bytes_written,
            self.group_events,
            self.groups,
            self.sync_p95_us
        )
    }

    fn from_json(v: &Value) -> Option<Self> {
        Some(WalStats {
            appends: v.get("appends")?.as_u64()?,
            bytes_written: v.get("bytes_written")?.as_u64()?,
            groups: v.get("groups")?.as_u64()?,
            group_events: v.get("group_events")?.as_u64()?,
            batch_p50: v.get("batch_p50")?.as_u64()?,
            batch_p95: v.get("batch_p95")?.as_u64()?,
            sync_p95_us: v.get("sync_p95_us")?.as_u64()?,
        })
    }
}

/// Latency distribution of one measured path, in microseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Interpolated median.
    pub p50_us: u64,
    /// Interpolated 95th percentile.
    pub p95_us: u64,
    /// Interpolated 99th percentile.
    pub p99_us: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Largest sample.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes a histogram snapshot with the interpolated estimator.
    pub fn from_histogram(snap: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: snap.count,
            p50_us: snap.p50(),
            p95_us: snap.p95(),
            p99_us: snap.p99(),
            mean_us: snap.mean(),
            max_us: snap.max,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"max_us\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}}}",
            self.count, self.max_us, self.mean_us, self.p50_us, self.p95_us, self.p99_us
        )
    }

    fn from_json(v: &Value) -> Option<Self> {
        Some(LatencySummary {
            count: v.get("count")?.as_u64()?,
            p50_us: v.get("p50_us")?.as_u64()?,
            p95_us: v.get("p95_us")?.as_u64()?,
            p99_us: v.get("p99_us")?.as_u64()?,
            mean_us: v.get("mean_us")?.as_f64()?,
            max_us: v.get("max_us")?.as_u64()?,
        })
    }
}

/// Store shape and size at the end of the benchmark run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreSizes {
    /// Events ingested.
    pub events: u64,
    /// Graph nodes.
    pub nodes: u64,
    /// Graph edges.
    pub edges: u64,
    /// Compacted snapshot bytes.
    pub snapshot_bytes: u64,
    /// Write-ahead-log bytes.
    pub log_bytes: u64,
}

/// One complete benchmark run, serializable to `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// `git rev-parse --short HEAD` at run time (`"nogit"` outside a repo).
    pub git_sha: String,
    /// Days of simulated history the run used.
    pub days: u32,
    /// Query invocations per path.
    pub runs_per_path: u64,
    /// Store shape and size.
    pub sizes: StoreSizes,
    /// Relational-provenance bytes over the Places baseline (the E1
    /// headline; the paper reports 1.395).
    pub e1_overhead_ratio: f64,
    /// Frozen-snapshot builds and score-cache traffic (schema v2;
    /// defaults to zeros when parsing a v1 document).
    pub frozen: FrozenStats,
    /// Per-event ingest latency.
    pub ingest: LatencySummary,
    /// Sustained-ingest throughput through the batched capture pipeline
    /// (schema v3; rendered as `ingest.events_per_sec`, 0 when parsing
    /// an older document).
    pub ingest_events_per_sec: f64,
    /// WAL group-commit telemetry from the sustained-ingest phase
    /// (schema v3; defaults to zeros when parsing an older document).
    pub wal: WalStats,
    /// Per-query-path latency, keyed by path name (all seven paths).
    pub queries: BTreeMap<String, LatencySummary>,
    /// Median wall time per EXPLAIN stage, keyed `path.stage`.
    pub stage_medians_us: BTreeMap<String, u64>,
}

impl BenchReport {
    /// Renders the schema-versioned JSON document: sorted keys throughout,
    /// `schema_version` first.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"days\": {},\n  \
             \"e1_overhead_ratio\": {:.4},\n",
            self.days, self.e1_overhead_ratio
        );
        let _ = writeln!(out, "  \"frozen\": {},", self.frozen.to_json());
        let _ = writeln!(out, "  \"git_sha\": \"{}\",", self.git_sha);
        // The ingest object carries the per-event latency summary plus
        // the sustained-throughput headline, keys still sorted.
        let _ = writeln!(
            out,
            "  \"ingest\": {{\"count\": {}, \"events_per_sec\": {:.1}, \"max_us\": {}, \
             \"mean_us\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}},",
            self.ingest.count,
            self.ingest_events_per_sec,
            self.ingest.max_us,
            self.ingest.mean_us,
            self.ingest.p50_us,
            self.ingest.p95_us,
            self.ingest.p99_us
        );
        let _ = write!(out, "  \"queries\": {{");
        for (i, (name, q)) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {}", q.to_json());
        }
        out.push_str("\n  },\n");
        let _ = writeln!(out, "  \"runs_per_path\": {},", self.runs_per_path);
        let _ = writeln!(
            out,
            "  \"sizes\": {{\"edges\": {}, \"events\": {}, \"log_bytes\": {}, \
             \"nodes\": {}, \"snapshot_bytes\": {}}},",
            self.sizes.edges,
            self.sizes.events,
            self.sizes.log_bytes,
            self.sizes.nodes,
            self.sizes.snapshot_bytes
        );
        let _ = write!(out, "  \"stage_medians_us\": {{");
        for (i, (name, us)) in self.stage_medians_us.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {us}");
        }
        out.push_str("\n  },\n");
        let _ = writeln!(out, "  \"wal\": {}", self.wal.to_json());
        out.push_str("}\n");
        out
    }

    /// Parses a `BENCH_*.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/mismatched field on any
    /// deviation from the schema, including an unknown `schema_version`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let version = v
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or("missing schema_version")?;
        if !(BENCH_SCHEMA_MIN_VERSION..=BENCH_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "schema_version {version} unsupported (accepted: \
                 {BENCH_SCHEMA_MIN_VERSION}..={BENCH_SCHEMA_VERSION})"
            ));
        }
        let frozen = v.get("frozen").ok_or("missing frozen")?;
        let frozen = FrozenStats::from_json(frozen).ok_or("malformed frozen")?;
        let wal = v.get("wal").ok_or("missing wal")?;
        let wal = WalStats::from_json(wal).ok_or("malformed wal")?;
        let ingest_obj = v.get("ingest").ok_or("missing ingest")?;
        let ingest_events_per_sec = ingest_obj
            .get("events_per_sec")
            .ok_or("missing ingest.events_per_sec")?
            .as_f64()
            .ok_or("malformed ingest.events_per_sec")?;
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let sizes = v.get("sizes").ok_or("missing sizes")?;
        let su = |key: &str| -> Result<u64, String> {
            sizes
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing sizes.{key}"))
        };
        let mut queries = BTreeMap::new();
        for (name, q) in v
            .get("queries")
            .and_then(Value::as_object)
            .ok_or("missing queries")?
        {
            let summary =
                LatencySummary::from_json(q).ok_or_else(|| format!("malformed queries.{name}"))?;
            queries.insert(name.clone(), summary);
        }
        let mut stage_medians_us = BTreeMap::new();
        for (name, us) in v
            .get("stage_medians_us")
            .and_then(Value::as_object)
            .ok_or("missing stage_medians_us")?
        {
            stage_medians_us.insert(
                name.clone(),
                us.as_u64()
                    .ok_or_else(|| format!("malformed stage_medians_us.{name}"))?,
            );
        }
        Ok(BenchReport {
            git_sha: v
                .get("git_sha")
                .and_then(Value::as_str)
                .ok_or("missing git_sha")?
                .to_owned(),
            days: u("days")? as u32,
            runs_per_path: u("runs_per_path")?,
            sizes: StoreSizes {
                events: su("events")?,
                nodes: su("nodes")?,
                edges: su("edges")?,
                snapshot_bytes: su("snapshot_bytes")?,
                log_bytes: su("log_bytes")?,
            },
            e1_overhead_ratio: v
                .get("e1_overhead_ratio")
                .and_then(Value::as_f64)
                .ok_or("missing e1_overhead_ratio")?,
            frozen,
            ingest: LatencySummary::from_json(ingest_obj).ok_or("malformed ingest")?,
            ingest_events_per_sec,
            wal,
            queries,
            stage_medians_us,
        })
    }
}

/// One detected p95 regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The regressed path (`ingest` or a query path name).
    pub path: String,
    /// Baseline p95 in microseconds.
    pub baseline_p95_us: u64,
    /// Current p95 in microseconds.
    pub current_p95_us: u64,
    /// Observed ratio (current / baseline).
    pub ratio: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: p95 {}us -> {}us ({:.2}x)",
            self.path, self.baseline_p95_us, self.current_p95_us, self.ratio
        )
    }
}

/// Compares `current` against `baseline`: any path whose p95 grew by more
/// than `threshold_pct` percent — and whose current p95 also exceeds
/// `floor_us`, so micro-latency noise cannot fail a build — is a
/// regression. Paths present on only one side are ignored (new scenarios
/// are not regressions; removed ones have nothing to compare).
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold_pct: f64,
    floor_us: u64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    let mut check = |path: &str, base: &LatencySummary, cur: &LatencySummary| {
        if base.count == 0 || cur.count == 0 || cur.p95_us <= floor_us {
            return;
        }
        let allowed = base.p95_us as f64 * (1.0 + threshold_pct / 100.0);
        if cur.p95_us as f64 > allowed {
            out.push(Regression {
                path: path.to_owned(),
                baseline_p95_us: base.p95_us,
                current_p95_us: cur.p95_us,
                ratio: cur.p95_us as f64 / base.p95_us.max(1) as f64,
            });
        }
    };
    check("ingest", &baseline.ingest, &current.ingest);
    for (name, base) in &baseline.queries {
        if let Some(cur) = current.queries.get(name) {
            check(name, base, cur);
        }
    }
    out.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// Like [`compare`], but only the named paths participate. The CI
/// relevance gate holds `context`/`ppr`/`personalize` to a tighter
/// threshold than the broad sweep without dragging every other path
/// down to it.
pub fn compare_paths(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold_pct: f64,
    floor_us: u64,
    paths: &[&str],
) -> Vec<Regression> {
    compare(baseline, current, threshold_pct, floor_us)
        .into_iter()
        .filter(|r| paths.contains(&r.path.as_str()))
        .collect()
}

/// Computes the median of a sample set (0 for an empty set).
pub fn median_us(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_obs::Histogram;

    fn sample_report() -> BenchReport {
        let h = Histogram::default();
        for v in [900, 1000, 1100, 1200, 5000] {
            h.record(v);
        }
        let latency = LatencySummary::from_histogram(&h.snapshot());
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
            queries.insert(path.to_owned(), latency.clone());
        }
        let mut stage_medians_us = BTreeMap::new();
        stage_medians_us.insert("context.expand".to_owned(), 480);
        stage_medians_us.insert("context.blend".to_owned(), 120);
        BenchReport {
            git_sha: "abc1234".to_owned(),
            days: 7,
            runs_per_path: 5,
            sizes: StoreSizes {
                events: 4000,
                nodes: 2500,
                edges: 6000,
                snapshot_bytes: 200_000,
                log_bytes: 10_000,
            },
            e1_overhead_ratio: 1.395,
            frozen: FrozenStats {
                builds: 2,
                build_us: 1_800,
                cache_hits: 35,
                cache_misses: 5,
                cache_evictions: 1,
                cache_bytes: 65_536,
            },
            ingest: latency.clone(),
            ingest_events_per_sec: 281_250.5,
            wal: WalStats {
                appends: 4000,
                bytes_written: 512_000,
                groups: 20,
                group_events: 4000,
                batch_p50: 180,
                batch_p95: 256,
                sync_p95_us: 900,
            },
            queries,
            stage_medians_us,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("parses");
        assert_eq!(parsed, report);
        // schema_version leads the document.
        assert!(text.trim_start().starts_with("{\n  \"schema_version\": 4"));
        // The frozen section renders its derived hit rate.
        assert!(text.contains("\"cache_hit_rate\": 0.8750"), "{text}");
        assert!((parsed.frozen.hit_rate() - 0.875).abs() < 1e-9);
        // The throughput headline rides inside the ingest object and the
        // wal section survives the trip.
        assert!(text.contains("\"events_per_sec\": 281250.5"), "{text}");
        assert!((parsed.wal.events_per_group() - 200.0).abs() < 1e-9);
        // All seven query paths carry percentiles.
        for path in [
            "context",
            "ppr",
            "textual",
            "personalize",
            "timectx",
            "lineage",
            "describe",
        ] {
            let q = &parsed.queries[path];
            assert!(q.p50_us <= q.p95_us && q.p95_us <= q.p99_us);
            assert!(q.count > 0);
        }
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        // 1 and 2 predate the frozen and wal sections; no baseline in
        // that shape is kept any more.
        for version in [1, 2, 999] {
            let text = sample_report().to_json().replace(
                "\"schema_version\": 4",
                &format!("\"schema_version\": {version}"),
            );
            assert!(BenchReport::from_json(&text)
                .unwrap_err()
                .contains(&format!("schema_version {version}")));
        }
    }

    #[test]
    fn documents_missing_a_section_are_malformed() {
        let report = sample_report();
        let text = report.to_json();
        let frozen_line = format!("  \"frozen\": {},\n", report.frozen.to_json());
        assert_eq!(
            BenchReport::from_json(&text.replace(&frozen_line, "")).unwrap_err(),
            "missing frozen"
        );
        let wal_line = format!("  \"wal\": {}\n", report.wal.to_json());
        let no_wal = text.replace(&wal_line, "").replace("  },\n}\n", "  }\n}\n");
        assert_eq!(BenchReport::from_json(&no_wal).unwrap_err(), "missing wal");
        let no_eps = text.replace(
            &format!("\"events_per_sec\": {:.1}, ", report.ingest_events_per_sec),
            "",
        );
        assert_eq!(
            BenchReport::from_json(&no_eps).unwrap_err(),
            "missing ingest.events_per_sec"
        );
    }

    #[test]
    fn v3_documents_carrying_a_jobs_count_parse() {
        // v3 documents, the committed baseline among them, still record
        // the PageRank worker count; the key is ignored.
        let expected = sample_report();
        let text = expected
            .to_json()
            .replace("\"schema_version\": 4", "\"schema_version\": 3")
            .replace("\"cache_misses\": 5}", "\"cache_misses\": 5, \"jobs\": 1}");
        assert!(text.contains("\"jobs\": 1"), "{text}");
        assert_eq!(BenchReport::from_json(&text).expect("v3 parses"), expected);
    }

    #[test]
    fn compare_paths_gates_only_the_named_paths() {
        let baseline = sample_report();
        let mut slow = baseline.clone();
        // Both regress 2x, but only ppr is inside the gate.
        for path in ["ppr", "lineage"] {
            let q = slow.queries.get_mut(path).unwrap();
            q.p95_us *= 2;
        }
        let gated = compare_paths(
            &baseline,
            &slow,
            15.0,
            0,
            &["context", "ppr", "personalize"],
        );
        assert_eq!(gated.len(), 1, "{gated:?}");
        assert_eq!(gated[0].path, "ppr");
        // The broad compare still sees both.
        assert_eq!(compare(&baseline, &slow, 15.0, 0).len(), 2);
    }

    #[test]
    fn compare_flags_a_synthetic_2x_slowdown() {
        let baseline = sample_report();
        let mut slow = baseline.clone();
        // Synthetic regression: the context path doubles its p95.
        let ctx = slow.queries.get_mut("context").unwrap();
        ctx.p95_us *= 2;
        ctx.p99_us *= 2;
        let regressions = compare(&baseline, &slow, 20.0, 0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert_eq!(regressions[0].path, "context");
        assert!((regressions[0].ratio - 2.0).abs() < 0.01);
        assert!(regressions[0].to_string().contains("2.00x"));
    }

    #[test]
    fn compare_tolerates_noise_within_threshold_and_floor() {
        let baseline = sample_report();
        let mut a_bit_slower = baseline.clone();
        for q in a_bit_slower.queries.values_mut() {
            q.p95_us = (q.p95_us as f64 * 1.15) as u64;
        }
        assert!(compare(&baseline, &a_bit_slower, 20.0, 0).is_empty());
        // A 3x jump on a sub-floor latency is noise, not a regression.
        let mut tiny = baseline.clone();
        tiny.queries.get_mut("context").unwrap().p95_us *= 3;
        assert!(compare(&baseline, &tiny, 20.0, 1_000_000).is_empty());
        // Paths only one side knows are ignored.
        let mut extra = baseline.clone();
        extra
            .queries
            .insert("novel".to_owned(), baseline.ingest.clone());
        assert!(compare(&baseline, &extra, 20.0, 0).is_empty());
    }

    #[test]
    fn median_handles_edges() {
        assert_eq!(median_us(&mut []), 0);
        assert_eq!(median_us(&mut [7]), 7);
        assert_eq!(median_us(&mut [3, 1, 2]), 2);
    }
}
