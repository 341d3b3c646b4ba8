//! # bp-obs — observability for the browser-provenance stack
//!
//! A dependency-light metrics, tracing, and event-journal layer (only
//! `parking_lot` beyond std). The paper argues a provenance-aware browser
//! must hold a latency/durability envelope (capture keeps up with
//! browsing; queries answer interactively); this crate makes that envelope
//! *observable* at runtime rather than only in offline experiments:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s (sharded atomics),
//!   [`Gauge`]s, and log₂-bucketed [`Histogram`]s with p50/p95/p99/max
//!   readout, under the names [`names`] declares.
//! * [`trace`] — span-based tracing with thread-local span stacks,
//!   rendering per-stage timing trees for `--trace` query runs.
//! * [`profile`] — query EXPLAIN profiles: per-stage wall time, rows
//!   in/out, node/edge touches, and truncation points for `--explain`.
//! * [`Journal`] — a fixed-capacity ring buffer of notable events
//!   (recoveries, compactions, deadline misses, redactions).
//! * [`expo`] — Prometheus-style text and JSON exposition, plus a
//!   round-trippable snapshot format so one CLI invocation's metrics can
//!   be merged into a later one's report.
//! * [`log`] — structured leveled JSON-lines logging with env-style
//!   filtering; accepted events also land in the [`flight`] recorder.
//! * [`flight`] — a ring buffer of the last ~4k log/span events, dumped on
//!   panic, `SIGUSR1`, or `/debug/flightz`.
//! * [`sampler`] — tail-based trace retention: deadline-missed,
//!   truncated, and errored requests are always kept, a deterministic
//!   1-in-N of the rest, in a bounded searchable ring behind `/tracez`.
//! * [`slo`] — error-budget tracking with multi-window burn-rate rules
//!   over the paper's 200 ms query deadline.
//! * [`httpx`] — a dependency-free HTTP/1.1 server for the `serve`
//!   daemon's `/metrics`, `/healthz`, and debug endpoints.
//! * [`ClockHandle`] — a mockable monotonic clock behind every latency
//!   measurement.
//!
//! Instrumented components hold an [`Obs`] handle. Production code uses
//! [`Obs::global`]; tests that assert exact counts use [`Obs::isolated`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Diagnostics go through bp_obs::log, leveled and flight-recorded.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod clock;
pub mod expo;
pub mod flight;
pub mod httpx;
mod journal;
pub mod json;
pub mod log;
mod metrics;
pub mod names;
pub mod profile;
pub mod sampler;
pub mod slo;
pub mod trace;

pub use clock::{unix_time_ms, Clock, ClockHandle, MockClock, RealClock, Stopwatch};
pub use journal::{Journal, JournalEvent, Level};
pub use log::{LogEvent, LogLevel};
pub use metrics::{
    bucket_bounds, bucket_index, BucketExemplar, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use names::{CounterName, GaugeName, HistogramName};

use std::sync::{Arc, OnceLock};

/// A handle bundling the metric registry and event journal a component
/// reports into.
#[derive(Clone, Debug)]
pub struct Obs {
    registry: Arc<MetricsRegistry>,
    journal: Arc<Journal>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::global()
    }
}

impl Obs {
    /// The process-wide registry and journal (what the CLI reports).
    pub fn global() -> Obs {
        static GLOBAL: OnceLock<Obs> = OnceLock::new();
        GLOBAL.get_or_init(Obs::isolated).clone()
    }

    /// A private registry and journal, unshared with the rest of the
    /// process. Used by tests asserting exact metric values.
    pub fn isolated() -> Obs {
        Obs {
            registry: Arc::new(MetricsRegistry::new()),
            journal: Arc::new(Journal::default()),
        }
    }

    /// The metric registry behind this handle.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The event journal behind this handle.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The counter declared as `name`.
    pub fn counter(&self, name: CounterName) -> Arc<Counter> {
        self.registry.counter(name.as_str())
    }

    /// The gauge declared as `name`.
    pub fn gauge(&self, name: GaugeName) -> Arc<Gauge> {
        self.registry.gauge(name.as_str())
    }

    /// The histogram declared as `name`.
    pub fn histogram(&self, name: HistogramName) -> Arc<Histogram> {
        self.registry.histogram(name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_shared_isolated_is_not() {
        Obs::global().registry().counter("lib.test.shared").inc();
        assert_eq!(Obs::global().registry().counter("lib.test.shared").get(), 1);

        let a = Obs::isolated();
        let b = Obs::isolated();
        a.counter(names::CAPTURE_FLUSHES).inc();
        assert_eq!(b.counter(names::CAPTURE_FLUSHES).get(), 0);
    }

    #[test]
    fn journal_reachable_through_obs() {
        let obs = Obs::isolated();
        obs.journal().record(Level::Info, "hello");
        assert_eq!(obs.journal().events().len(), 1);
    }
}
