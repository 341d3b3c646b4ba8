//! Structured, leveled, JSON-lines logging.
//!
//! Library crates emit [`LogEvent`]s (level + target + message + key/value
//! fields) instead of bare `eprintln!` (clippy's `print_stderr` enforces that).
//! Every accepted event is:
//!
//! * appended to the process-wide [flight recorder](crate::flight) so the
//!   last ~4k events survive to a panic dump, and
//! * optionally written to stderr as one JSON line (off by default so CLI
//!   output and test harnesses stay clean; `serve` turns it on).
//!
//! Events are filtered by a `BP_LOG`-style spec (`info`,
//! `warn,bp_storage=debug`, …): a default level plus per-target-prefix
//! overrides, longest prefix wins. Timestamps come from
//! [`unix_time_ms`], the workspace's one
//! mockable wall-clock read, so tests pin time and assert exact lines.

use crate::clock::unix_time_ms;
use parking_lot::RwLock;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Severity of a log event, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Very fine-grained flow tracing.
    Trace,
    /// Diagnostic detail useful when chasing a bug.
    Debug,
    /// Routine but notable milestones.
    Info,
    /// Degraded but handled conditions.
    Warn,
    /// Lost work or broken invariants.
    Error,
}

impl LogLevel {
    /// The canonical uppercase name (`"INFO"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Trace => "TRACE",
            LogLevel::Debug => "DEBUG",
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
        }
    }

    /// Parses a case-insensitive level name.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "trace" => Some(LogLevel::Trace),
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" | "warning" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured log event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEvent {
    /// Wall-clock milliseconds since the Unix epoch at emit time.
    pub unix_ms: u64,
    /// Severity.
    pub level: LogLevel,
    /// Dotted module-ish origin (`bp_storage::wal`, `bp_cli::serve`, …).
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Structured key/value context.
    pub fields: Vec<(String, String)>,
}

impl LogEvent {
    /// Renders the event as one JSON object line (no trailing newline).
    ///
    /// Key order is fixed (`ts`, `level`, `target`, `msg`, then fields in
    /// emit order) so log lines diff cleanly and tests can assert exact
    /// output.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.message.len());
        let _ = write!(
            out,
            "{{\"ts\":{},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
            self.unix_ms,
            self.level,
            crate::expo::json_escape(&self.target),
            crate::expo::json_escape(&self.message),
        );
        for (key, value) in &self.fields {
            let _ = write!(
                out,
                ",\"{}\":\"{}\"",
                crate::expo::json_escape(key),
                crate::expo::json_escape(value)
            );
        }
        out.push('}');
        out
    }
}

/// A parsed filter spec: default level plus per-target-prefix overrides.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Filter {
    default: LogLevel,
    /// `(target_prefix, minimum_level)`, longest prefix wins.
    targets: Vec<(String, LogLevel)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut filter = Filter {
            default: LogLevel::Info,
            targets: Vec::new(),
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(level) = LogLevel::parse(level.trim()) {
                        filter.targets.push((target.trim().to_owned(), level));
                    }
                }
                None => {
                    if let Some(level) = LogLevel::parse(part) {
                        filter.default = level;
                    }
                }
            }
        }
        // Longest prefix first, so lookup can take the first match.
        filter.targets.sort_by_key(|t| std::cmp::Reverse(t.0.len()));
        filter
    }

    fn min_level(&self, target: &str) -> LogLevel {
        self.targets
            .iter()
            .find(|(prefix, _)| target.starts_with(prefix.as_str()))
            .map(|(_, level)| *level)
            .unwrap_or(self.default)
    }
}

struct Logger {
    filter: RwLock<Filter>,
    stderr: AtomicBool,
}

fn logger() -> &'static Logger {
    static LOGGER: OnceLock<Logger> = OnceLock::new();
    LOGGER.get_or_init(|| {
        let spec = std::env::var("BP_LOG").unwrap_or_default();
        Logger {
            filter: RwLock::new(Filter::parse(&spec)),
            stderr: AtomicBool::new(false),
        }
    })
}

/// Replaces the active filter with one parsed from `spec`
/// (`"warn,bp_storage=debug"`). Unparseable parts are ignored; the default
/// level when none is given is `info`.
pub fn set_filter_spec(spec: &str) {
    *logger().filter.write() = Filter::parse(spec);
}

/// Turns the stderr JSON-lines sink on or off (off by default; the flight
/// recorder always receives accepted events).
pub fn set_stderr(on: bool) {
    logger().stderr.store(on, Ordering::Relaxed);
}

/// Whether an event at `level` for `target` would currently be accepted.
pub fn enabled(level: LogLevel, target: &str) -> bool {
    level >= logger().filter.read().min_level(target)
}

/// Emits one structured event (if the filter accepts it): records it in
/// the flight recorder and — when enabled — writes one JSON line to
/// stderr. When a [`crate::trace::Context`] is active on the emitting
/// thread the event gains a trailing `trace_id` field, so every log line
/// and flight-recorder entry of a request carries its identity without
/// call sites threading it by hand.
pub fn log(level: LogLevel, target: &str, message: &str, fields: &[(&str, String)]) {
    if !enabled(level, target) {
        return;
    }
    let mut event = LogEvent {
        unix_ms: unix_time_ms(),
        level,
        target: target.to_owned(),
        message: message.to_owned(),
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    };
    if let Some(id) = crate::trace::current_id() {
        event
            .fields
            .push(("trace_id".to_owned(), crate::trace::format_trace_id(id)));
    }
    crate::flight::global().record_log(&event);
    if logger().stderr.load(Ordering::Relaxed) {
        #[expect(
            clippy::print_stderr,
            reason = "the logger's own sink: the one sanctioned raw-stderr write in a library crate"
        )]
        {
            eprintln!("{}", event.to_json_line());
        }
    }
}

/// [`log`] at `Debug`.
pub fn debug(target: &str, message: &str, fields: &[(&str, String)]) {
    log(LogLevel::Debug, target, message, fields);
}

/// [`log`] at `Info`.
pub fn info(target: &str, message: &str, fields: &[(&str, String)]) {
    log(LogLevel::Info, target, message, fields);
}

/// [`log`] at `Warn`.
pub fn warn(target: &str, message: &str, fields: &[(&str, String)]) {
    log(LogLevel::Warn, target, message, fields);
}

/// [`log`] at `Error`.
pub fn error(target: &str, message: &str, fields: &[(&str, String)]) {
    log(LogLevel::Error, target, message, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Trace < LogLevel::Debug);
        assert!(LogLevel::Warn < LogLevel::Error);
        assert_eq!(LogLevel::parse("WARN"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("warning"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("nope"), None);
        assert_eq!(LogLevel::Error.to_string(), "ERROR");
    }

    #[test]
    fn filter_spec_prefix_overrides() {
        let f = Filter::parse("warn,bp_storage=debug,bp_storage::wal=error");
        assert_eq!(f.default, LogLevel::Warn);
        assert_eq!(f.min_level("bp_core::capture"), LogLevel::Warn);
        assert_eq!(f.min_level("bp_storage::store"), LogLevel::Debug);
        // Longest prefix wins over the shorter bp_storage override.
        assert_eq!(f.min_level("bp_storage::wal"), LogLevel::Error);
    }

    #[test]
    fn filter_spec_garbage_is_ignored() {
        let f = Filter::parse("bogus,, x = nope ,debug");
        assert_eq!(f.default, LogLevel::Debug);
        assert!(f.targets.is_empty());
    }

    #[test]
    fn json_line_is_deterministic_under_mock_clock() {
        crate::clock::set_mock_unix_time_ms(Some(1_700_000_000_000));
        let event = LogEvent {
            unix_ms: unix_time_ms(),
            level: LogLevel::Warn,
            target: "bp_test".into(),
            message: "quo\"ted\nline".into(),
            fields: vec![("k".into(), "v\\w".into())],
        };
        crate::clock::set_mock_unix_time_ms(None);
        assert_eq!(
            event.to_json_line(),
            "{\"ts\":1700000000000,\"level\":\"WARN\",\"target\":\"bp_test\",\
             \"msg\":\"quo\\\"ted\\nline\",\"k\":\"v\\\\w\"}"
        );
        // The rendered line parses back as JSON.
        let doc = crate::json::parse(&event.to_json_line()).expect("log line parses");
        assert_eq!(doc.get("level").and_then(|v| v.as_str()), Some("WARN"));
        assert_eq!(doc.get("k").and_then(|v| v.as_str()), Some("v\\w"));
    }

    #[test]
    fn accepted_events_reach_the_flight_recorder() {
        let before = crate::flight::global().total_recorded();
        log(
            LogLevel::Error,
            "bp_log_test",
            "recorded",
            &[("n", "1".to_owned())],
        );
        assert!(crate::flight::global().total_recorded() > before);
    }

    #[test]
    fn active_context_stamps_log_and_flight_entries() {
        let _ctx = crate::trace::enter(crate::trace::Context {
            trace_id: 0x1dea,
            sampled_hint: false,
        });
        log(
            LogLevel::Error,
            "bp_log_test_ctx",
            "stamped",
            &[("k", "v".to_owned())],
        );
        let entry = crate::flight::global()
            .snapshot()
            .into_iter()
            .rev()
            .find(|e| e.event.target == "bp_log_test_ctx")
            .expect("event retained");
        assert_eq!(
            entry
                .event
                .fields
                .last()
                .map(|(k, v)| (k.as_str(), v.as_str())),
            Some(("trace_id", "0000000000001dea"))
        );
        // The caller's own fields survive ahead of the stamp.
        assert_eq!(entry.event.fields[0].0, "k");
    }

    #[test]
    fn filtered_events_are_dropped() {
        set_filter_spec("error,bp_log_test_quiet=error");
        let before = crate::flight::global().total_recorded();
        debug("bp_log_test_quiet", "dropped", &[]);
        assert_eq!(crate::flight::global().total_recorded(), before);
        assert!(!enabled(LogLevel::Info, "bp_log_test_quiet"));
        set_filter_spec("info");
        assert!(enabled(LogLevel::Info, "bp_log_test_quiet"));
    }
}
