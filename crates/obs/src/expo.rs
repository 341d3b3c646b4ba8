//! Exposition and persistence of metric snapshots.
//!
//! Three renderings of a [`RegistrySnapshot`]:
//!
//! * **Prometheus text** — `# TYPE` headers, cumulative `_bucket{le=…}`
//!   histogram series, `_sum`/`_count`; names sanitized to the Prometheus
//!   charset.
//! * **JSON** — a single object with `counters`/`gauges`/`histograms`
//!   keys, histograms carrying count/sum/max and p50/p95/p99 readouts.
//! * **Snapshot text** — a line-oriented format that round-trips exactly
//!   (`import_snapshot` merges it into a live registry), used to carry the
//!   capture-session metrics of `browserprov generate` forward into a
//!   later `browserprov stats` invocation.

use crate::metrics::{HistogramSnapshot, MetricsRegistry, RegistrySnapshot, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

/// Maps a metric name onto the Prometheus charset (`[a-zA-Z0-9_:]`).
/// Metric names must not *start* with a digit, so a leading digit gets an
/// underscore prefix.
pub(crate) fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('_');
    }
    out.extend(name.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == ':' {
            c
        } else {
            '_'
        }
    }));
    out
}

/// Escapes a label *value* per the Prometheus text exposition format:
/// backslash, double-quote, and line-feed are the only characters with
/// escape sequences (`\\`, `\"`, `\n`); everything else — including other
/// control characters and full UTF-8 — passes through verbatim. Dropping
/// or mangling any of the three would make hostile label values (paths
/// with quotes, messages with newlines) parse as different series or break
/// the line orientation of the format.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders one labeled sample line (`name{k="v",…} value`), sanitizing the
/// metric/label names and escaping the label values. Used for info-style
/// series such as `bp_build_info{version="…",profile="…"} 1`, whose label
/// values (filesystem paths) can contain arbitrary bytes.
pub fn render_labeled_sample(name: &str, labels: &[(&str, &str)], value: i64) -> String {
    let mut out = sanitize(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (label, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}=\"{}\"", sanitize(label), escape_label_value(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
    out
}

/// Renders the snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in &snap.histograms {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, n) in hist.buckets.iter().enumerate() {
            cumulative += n;
            // Only emit boundaries up to the data; +Inf closes the series.
            if cumulative > 0 && *n > 0 {
                let le = crate::metrics::bucket_bounds(i).1;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
        // Interpolated percentile readouts as plain series, so dashboards
        // get p50/p95/p99 without a quantile-capable backend.
        let _ = writeln!(out, "{name}_p50 {}", hist.p50());
        let _ = writeln!(out, "{name}_p95 {}", hist.p95());
        let _ = writeln!(out, "{name}_p99 {}", hist.p99());
        // Exemplars as comment annotations: the classic text format has no
        // exemplar syntax (that's OpenMetrics), and comments keep every
        // scraper happy while still carrying bucket → trace-ID links.
        for ex in &hist.exemplars {
            let le = crate::metrics::bucket_bounds(ex.bucket).1;
            let _ = writeln!(
                out,
                "# EXEMPLAR {name}_bucket{{le=\"{le}\"}} trace_id={} value={}",
                crate::trace::format_trace_id(ex.trace_id),
                ex.value
            );
        }
    }
    out
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Version of the JSON exposition schema ([`render_json`]). Bump on any
/// breaking change to the document's shape so external tooling can gate.
pub const JSON_SCHEMA_VERSION: u64 = 1;

/// Renders the snapshot as a JSON object with a **stable, documented
/// schema** external tooling can depend on:
///
/// ```json
/// {
///   "schema_version": 1,
///   "counters":   { "<name>": <u64>, ... },
///   "gauges":     { "<name>": <i64>, ... },
///   "histograms": { "<name>": {"count": u64, "sum": u64, "max": u64,
///                               "p50": u64, "p95": u64, "p99": u64}, ... }
/// }
/// ```
///
/// Metric names are sorted lexicographically within each section;
/// percentiles are interpolated
/// ([`HistogramSnapshot::quantile_interpolated`]) in microseconds for
/// latency histograms.
pub fn render_json(snap: &RegistrySnapshot) -> String {
    let mut out = format!("{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"counters\": {{");
    let mut first = true;
    for (name, value) in &snap.counters {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {value}", json_escape(name));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    first = true;
    for (name, value) in &snap.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {value}", json_escape(name));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    first = true;
    for (name, hist) in &snap.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}",
            json_escape(name),
            hist.count,
            hist.sum,
            hist.max,
            hist.p50(),
            hist.p95(),
            hist.p99()
        );
        // The exemplars key appears exactly when the histogram has any:
        // `le` is the bucket's inclusive upper bound, `trace_id` the
        // canonical 16-hex-digit form `/tracez?id=` accepts.
        if !hist.exemplars.is_empty() {
            out.push_str(", \"exemplars\": [");
            for (i, ex) in hist.exemplars.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"le\": {}, \"trace_id\": \"{}\", \"value\": {}}}",
                    crate::metrics::bucket_bounds(ex.bucket).1,
                    crate::trace::format_trace_id(ex.trace_id),
                    ex.value
                );
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Version header of the snapshot persistence format.
const SNAPSHOT_HEADER: &str = "# bp-obs snapshot v1";

/// Serializes the snapshot in the line-oriented persistence format.
pub fn export_snapshot(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{SNAPSHOT_HEADER}");
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "counter {name} {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "gauge {name} {value}");
    }
    for (name, hist) in &snap.histograms {
        let _ = write!(out, "hist {name} {} {} {}", hist.count, hist.sum, hist.max);
        for (i, n) in hist.buckets.iter().enumerate() {
            if *n > 0 {
                let _ = write!(out, " {i}:{n}");
            }
        }
        out.push('\n');
    }
    out
}

/// A malformed snapshot line encountered by [`import_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for SnapshotParseError {}

/// Merges a persisted snapshot into `registry`: counters and histograms
/// accumulate, gauges take the persisted level.
///
/// # Errors
///
/// Returns the first malformed line. Metrics parsed before the error have
/// already been merged.
pub fn import_snapshot(registry: &MetricsRegistry, text: &str) -> Result<(), SnapshotParseError> {
    let err = |line: usize, reason: &str| SnapshotParseError {
        line,
        reason: reason.to_owned(),
    };
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let kind = parts.next().unwrap_or_default();
        let name = parts
            .next()
            .ok_or_else(|| err(line_no, "missing metric name"))?;
        match kind {
            "counter" => {
                let value: u64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(line_no, "bad counter value"))?;
                registry.counter(name).add(value);
            }
            "gauge" => {
                let value: i64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(line_no, "bad gauge value"))?;
                registry.gauge(name).set(value);
            }
            "hist" => {
                let mut snap = HistogramSnapshot::empty();
                snap.count = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(line_no, "bad histogram count"))?;
                snap.sum = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(line_no, "bad histogram sum"))?;
                snap.max = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(line_no, "bad histogram max"))?;
                for pair in parts {
                    let (bucket, count) = pair
                        .split_once(':')
                        .ok_or_else(|| err(line_no, "bad bucket pair"))?;
                    let bucket: usize = bucket
                        .parse()
                        .map_err(|_| err(line_no, "bad bucket index"))?;
                    if bucket >= HISTOGRAM_BUCKETS {
                        return Err(err(line_no, "bucket index out of range"));
                    }
                    snap.buckets[bucket] = count
                        .parse()
                        .map_err(|_| err(line_no, "bad bucket count"))?;
                }
                registry.histogram(name).merge(&snap);
            }
            other => return Err(err(line_no, &format!("unknown record kind {other:?}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("capture.events_total").add(42);
        r.gauge("capture.queue_depth").set(3);
        let h = r.histogram("query.context.latency_us");
        h.record(150);
        h.record(900);
        r
    }

    #[test]
    fn prometheus_text_has_types_and_series() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(
            text.contains("# TYPE capture_events_total counter"),
            "{text}"
        );
        assert!(text.contains("capture_events_total 42"), "{text}");
        assert!(text.contains("# TYPE capture_queue_depth gauge"), "{text}");
        assert!(
            text.contains("query_context_latency_us_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("query_context_latency_us_sum 1050"), "{text}");
    }

    #[test]
    fn json_contains_quantiles() {
        let text = render_json(&sample_registry().snapshot());
        assert!(text.contains("\"schema_version\": 1"), "{text}");
        assert!(text.contains("\"capture.events_total\": 42"), "{text}");
        assert!(text.contains("\"p99\""), "{text}");
        assert!(text.contains("\"max\": 900"), "{text}");
    }

    #[test]
    fn prometheus_text_has_percentile_series() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(text.contains("query_context_latency_us_p50 "), "{text}");
        assert!(text.contains("query_context_latency_us_p95 "), "{text}");
        assert!(text.contains("query_context_latency_us_p99 "), "{text}");
    }

    /// The satellite contract: `stats --metrics-json` output is a stable,
    /// parseable document. Render → parse → every metric's value round
    /// trips, the schema version gates, and keys come out sorted.
    #[test]
    fn json_exposition_round_trips_through_parser() {
        let registry = sample_registry();
        registry.counter("a.first").add(1);
        registry.counter("z.last").add(2);
        registry.gauge("negative.level").set(-17);
        let snap = registry.snapshot();
        let text = render_json(&snap);

        let doc = crate::json::parse(&text).expect("exposition JSON parses");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(JSON_SCHEMA_VERSION)
        );
        let counters = doc.get("counters").and_then(|c| c.as_object()).unwrap();
        assert_eq!(counters.len(), snap.counters.len());
        for (name, value) in &snap.counters {
            assert_eq!(counters[name].as_u64(), Some(*value), "counter {name}");
        }
        let gauges = doc.get("gauges").and_then(|g| g.as_object()).unwrap();
        assert_eq!(gauges["negative.level"].as_f64(), Some(-17.0));
        let hists = doc.get("histograms").and_then(|h| h.as_object()).unwrap();
        for (name, hist) in &snap.histograms {
            let entry = &hists[name];
            assert_eq!(
                entry.get("count").and_then(|v| v.as_u64()),
                Some(hist.count)
            );
            assert_eq!(entry.get("sum").and_then(|v| v.as_u64()), Some(hist.sum));
            assert_eq!(entry.get("max").and_then(|v| v.as_u64()), Some(hist.max));
            for p in ["p50", "p95", "p99"] {
                assert!(
                    entry.get(p).and_then(|v| v.as_u64()).is_some(),
                    "{name}.{p}"
                );
            }
        }
        // Keys appear in sorted order in the rendered document itself.
        let a = text.find("\"a.first\"").unwrap();
        let c = text.find("\"capture.events_total\"").unwrap();
        let z = text.find("\"z.last\"").unwrap();
        assert!(a < c && c < z, "counter keys must render sorted");
    }

    #[test]
    fn snapshot_roundtrips_through_import() {
        let source = sample_registry();
        let exported = export_snapshot(&source.snapshot());

        let target = MetricsRegistry::new();
        target.counter("capture.events_total").add(8);
        import_snapshot(&target, &exported).unwrap();

        let merged = target.snapshot();
        assert_eq!(merged.counters["capture.events_total"], 50);
        assert_eq!(merged.gauges["capture.queue_depth"], 3);
        let hist = &merged.histograms["query.context.latency_us"];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 1050);
        assert_eq!(hist.max, 900);
    }

    #[test]
    fn import_rejects_garbage_with_line_numbers() {
        let registry = MetricsRegistry::new();
        let bad = "# bp-obs snapshot v1\ncounter ok 5\nwat is this\n";
        let e = import_snapshot(&registry, bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.reason.contains("unknown record kind"), "{e}");
        // The line before the error still merged.
        assert_eq!(registry.counter("ok").get(), 5);
    }

    #[test]
    fn json_escaping_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn label_values_escape_exactly_the_spec_set() {
        assert_eq!(escape_label_value(r"C:\tmp"), r"C:\\tmp");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // Tabs, carriage returns, and UTF-8 pass through verbatim.
        assert_eq!(escape_label_value("a\tb\rc é"), "a\tb\rc é");
    }

    #[test]
    fn labeled_samples_render_and_never_break_line_orientation() {
        let line = render_labeled_sample(
            "bp_build_info",
            &[("version", "0.1.0"), ("profile", "/tmp/a\nb\"c\\d")],
            1,
        );
        assert_eq!(
            line,
            "bp_build_info{version=\"0.1.0\",profile=\"/tmp/a\\nb\\\"c\\\\d\"} 1\n"
        );
        // Exactly one newline: the terminator. Hostile values cannot
        // smuggle extra sample lines into the exposition.
        assert_eq!(line.matches('\n').count(), 1);
        let bare = render_labeled_sample("bp_up", &[], 1);
        assert_eq!(bare, "bp_up 1\n");
    }

    #[test]
    fn sanitize_prefixes_leading_digits() {
        assert_eq!(sanitize("2xx.responses"), "_2xx_responses");
        assert_eq!(sanitize("ok.name"), "ok_name");
    }

    #[test]
    fn exemplars_render_in_both_expositions() {
        let r = MetricsRegistry::new();
        let h = r.histogram("query.context.latency_us");
        {
            let _ctx = crate::trace::enter(crate::trace::Context {
                trace_id: 0xbeef,
                sampled_hint: false,
            });
            h.record(900); // bucket [512, 1023], le 1023
        }
        h.record(150); // untraced: no exemplar for this bucket

        let snap = r.snapshot();
        let hist = &snap.histograms["query.context.latency_us"];
        assert_eq!(hist.exemplars.len(), 1);
        assert_eq!(hist.exemplars[0].trace_id, 0xbeef);
        assert_eq!(hist.exemplars[0].value, 900);

        let text = render_prometheus(&snap);
        assert!(
            text.contains(
                "# EXEMPLAR query_context_latency_us_bucket{le=\"1023\"} \
                 trace_id=000000000000beef value=900"
            ),
            "{text}"
        );

        let json = render_json(&snap);
        assert!(
            json.contains("\"exemplars\": [{\"le\": 1023, \"trace_id\": \"000000000000beef\", \"value\": 900}]"),
            "{json}"
        );
        assert!(crate::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn exemplars_do_not_leak_through_snapshot_persistence() {
        let r = MetricsRegistry::new();
        {
            let _ctx = crate::trace::enter(crate::trace::Context {
                trace_id: 0xfeed,
                sampled_hint: false,
            });
            r.histogram("h").record(40);
        }
        let exported = export_snapshot(&r.snapshot());
        assert!(!exported.contains("feed"), "{exported}");
        let target = MetricsRegistry::new();
        import_snapshot(&target, &exported).unwrap();
        let merged = target.snapshot();
        assert!(merged.histograms["h"].exemplars.is_empty());
        assert_eq!(merged.histograms["h"].count, 1);
    }
}
