//! One query's clock, deadline and instrumentation.
//!
//! Every public query entry point opens one [`Scope`]. It pins the
//! query's [`Budget`], so the deadline runs from one instant read once
//! from the budget's clock, and every stage and kernel handed
//! [`Scope::budget`] spends that one deadline. It also enters the trace
//! context from that same reading and opens the root span, which carries
//! the query's EXPLAIN plan and budget; each [`Stage`] span carries its
//! EXPLAIN accounting, so one span tree is both the `--trace` tree and
//! the `--explain` profile.
//! Every return path ends it with [`Scope::finish`] (or [`Scope::fail`]),
//! which reads the clock once and reports that elapsed time to the
//! latency histogram, the deadline SLO counters, the tail sampler, the
//! root span and the caller's result.

use bp_graph::traverse::Budget;
use bp_obs::clock::ClockHandle;
use bp_obs::profile::QueryPlan;
use bp_obs::sampler::{self, TraceOutcome, TraceRecord};
use bp_obs::trace::{self, Explain, Truncation, Work};
use bp_obs::{names, Histogram, HistogramName, Obs};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// One run of a query path, from entry to its one reported latency.
///
/// A scope opened on a budget that is already pinned is nested in the
/// scope that pinned it (personalization's inner contextual search): it
/// shares that instant and leaves the deadline counters to the outer
/// scope, so one user query is counted once.
pub(crate) struct Scope<'a> {
    obs: &'a Obs,
    /// The path's name in the tail sampler and in deadline-miss lines.
    path: &'static str,
    latency: Arc<Histogram>,
    budget: Cow<'a, Budget>,
    nested: bool,
    /// What the root span tells EXPLAIN: the plan and the deadline.
    explain: Explain,
    span: trace::SpanGuard,
    _context: trace::ContextGuard,
}

impl<'a> Scope<'a> {
    /// Opens the scope of one query under root span `span` and EXPLAIN
    /// `plan`, bounded by `budget`. Its latency goes to the histogram
    /// `latency`, named `query.<path>.latency_us`.
    pub(crate) fn open(
        obs: &'a Obs,
        span: &'static str,
        plan: Option<&'static QueryPlan>,
        latency: HistogramName,
        budget: &'a Budget,
    ) -> Self {
        let nested = budget.is_pinned();
        let budget = budget.pinned();
        // The pinned instant also seeds the trace id: opening a scope
        // reads the clock once.
        let context = trace::ensure(budget.start_micros().unwrap_or_default());
        let explain = plan.map_or(Explain::None, |plan| Explain::Query {
            plan,
            budget_us: budget.deadline().map(|d| d.as_micros() as u64),
        });
        let name = latency.as_str();
        let path = name
            .strip_prefix("query.")
            .and_then(|rest| rest.strip_suffix(".latency_us"))
            .unwrap_or(name);
        Scope {
            obs,
            path,
            latency: obs.histogram(latency),
            budget,
            nested,
            explain,
            span: trace::span(span),
            _context: context,
        }
    }

    /// The query's pinned budget: stages check [`Budget::expired`] on it
    /// and kernels take it as their budget.
    pub(crate) fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Opens stage `name`: a span timed on the query's clock while spans
    /// are collected, one reading when it opens and one when it closes.
    pub(crate) fn stage(&self, name: &'static str) -> Stage<'_> {
        let clock = self.budget.clock();
        Stage(trace::enabled().then(|| OpenStage {
            clock,
            start: clock.now_micros(),
            span: trace::span(name),
            work: Cell::default(),
        }))
    }

    /// Ends a query that answered, `truncated` when a limit cut it short,
    /// and returns its elapsed time.
    pub(crate) fn finish(self, truncated: bool) -> Duration {
        let elapsed = self.budget.elapsed();
        self.latency.record_duration(elapsed);
        let deadline = self.budget.deadline();
        // A miss outranks truncation: a truncated query that still blew
        // its deadline is the worse story.
        let outcome = match deadline {
            Some(d) if elapsed > d => TraceOutcome::DeadlineMiss,
            _ if truncated => TraceOutcome::Truncated,
            _ => TraceOutcome::Ok,
        };
        if let Some(deadline) = deadline.filter(|_| !self.nested) {
            self.classify(elapsed, deadline, truncated);
        }
        self.close(elapsed, outcome)
    }

    /// Ends a query that failed; the tail sampler keeps every failure.
    pub(crate) fn fail(self) -> Duration {
        let elapsed = self.budget.elapsed();
        self.close(elapsed, TraceOutcome::Error)
    }

    /// Counts the query against its deadline: `bounded` when it truncated
    /// itself to honor the budget (the paper's "can be bound to that
    /// time"), then `hit` or `miss`. A miss means the interactive-latency
    /// envelope broke, so it is also logged, and the flight recorder
    /// keeps the line.
    fn classify(&self, elapsed: Duration, deadline: Duration, truncated: bool) {
        let obs = self.obs;
        if truncated {
            obs.counter(names::QUERY_DEADLINE_BOUNDED).inc();
        }
        if elapsed <= deadline {
            obs.counter(names::QUERY_DEADLINE_HIT).inc();
            return;
        }
        obs.counter(names::QUERY_DEADLINE_MISS).inc();
        bp_obs::log::warn(
            "bp_query::scope",
            "query exceeded its deadline",
            &[
                ("use_case", self.path.to_owned()),
                ("deadline", format!("{deadline:?}")),
                ("elapsed", format!("{elapsed:?}")),
            ],
        );
    }

    /// Offers the finished request to the process-wide tail sampler (the
    /// retention decision behind `/tracez`), then closes the root span on
    /// `elapsed`.
    fn close(self, elapsed: Duration, outcome: TraceOutcome) -> Duration {
        if let Some(trace_id) = trace::current_id() {
            sampler::global().offer(TraceRecord {
                trace_id,
                path: self.path,
                elapsed_us: elapsed.as_micros() as u64,
                outcome,
                unix_ms: 0,
                tree: None,
            });
        }
        self.span.finish_with(elapsed, self.explain);
        elapsed
    }
}

/// One stage of a query; `None` while spans are not collected.
pub(crate) struct Stage<'a>(Option<OpenStage<'a>>);

/// A collected stage: the query's clock, the reading the stage opened
/// at, its span, and the EXPLAIN accounting the span closes with.
struct OpenStage<'a> {
    clock: &'a ClockHandle,
    start: u64,
    span: trace::SpanGuard,
    work: Cell<Work>,
}

impl Stage<'_> {
    fn record(&self, f: impl FnOnce(&mut Work)) {
        if let Some(open) = &self.0 {
            let mut work = open.work.get();
            f(&mut work);
            open.work.set(work);
        }
    }

    /// Records items consumed and produced.
    pub(crate) fn rows(&self, rows_in: usize, rows_out: usize) {
        self.record(|work| {
            work.rows_in = rows_in as u64;
            work.rows_out = rows_out as u64;
        });
    }

    /// Records graph nodes and edges touched.
    pub(crate) fn touched(&self, nodes: usize, edges: usize) {
        self.record(|work| {
            work.nodes_touched = nodes as u64;
            work.edges_touched = edges as u64;
        });
    }

    /// Notes `text` on this stage's span; `text` is built only while spans
    /// are collected.
    pub(crate) fn note(&self, text: impl FnOnce() -> String) {
        if self.0.is_some() {
            trace::note(text());
        }
    }

    /// Marks this stage as where a limit cut the query short: `cause` cut
    /// it, leaving an estimated `remaining` of `items` unprocessed. The
    /// span tree notes `truncated: <cause>, ~<remaining> <items>` (just
    /// `truncated: <cause>` when `items` is empty).
    pub(crate) fn truncated(&self, remaining: u64, cause: &'static str, items: &'static str) {
        self.record(|work| {
            work.truncation.get_or_insert(Truncation {
                remaining,
                cause,
                items,
            });
        });
    }
}

impl Drop for Stage<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let wall = Duration::from_micros(open.clock.now_micros().saturating_sub(open.start));
            open.span
                .finish_with(wall, Explain::Stage(open.work.into_inner()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_obs::clock::ClockHandle;
    use bp_obs::profile;

    use std::sync::Mutex;

    static PLAN: QueryPlan = QueryPlan {
        query: "scoped",
        stages: &["only"],
    };

    /// Serializes the tests that switch span collection, a process-wide
    /// flag.
    static COLLECTION: Mutex<()> = Mutex::new(());

    /// Opening a scope reads the query's clock once, for the pin, with
    /// collection on or off: the trace id and the root span start from
    /// that reading.
    #[test]
    fn opening_a_scope_reads_the_clock_once() {
        let _gate = COLLECTION.lock().unwrap_or_else(|e| e.into_inner());
        for collection in [false, true] {
            let (clock, mock) = ClockHandle::mock();
            mock.set_auto_tick_micros(1);
            let budget = Budget::new().with_clock(clock.clone());
            let obs = Obs::isolated();
            trace::set_enabled(collection);
            // Each reading advances the clock by 1 µs, the bracketing ones too.
            let before = clock.now_micros();
            let scope = Scope::open(
                &obs,
                "scoped",
                Some(&PLAN),
                names::QUERY_QL_LATENCY_US,
                &budget,
            );
            let readings = clock.now_micros() - before - 1;
            scope.finish(false);
            trace::set_enabled(false);
            let profiles = profile::from_spans(&trace::take_roots());
            assert_eq!(readings, 1, "collection {collection}");
            assert_eq!(profiles.len(), usize::from(collection));
        }
    }

    /// A collected stage reads the query's clock once when it opens and
    /// once when it closes; with collection off it reads none.
    #[test]
    fn a_profiled_stage_reads_the_clock_twice() {
        let _gate = COLLECTION.lock().unwrap_or_else(|e| e.into_inner());
        for collection in [false, true] {
            let (clock, mock) = ClockHandle::mock();
            mock.set_auto_tick_micros(1);
            let budget = Budget::new().with_clock(clock.clone());
            let obs = Obs::isolated();
            trace::set_enabled(collection);
            let scope = Scope::open(
                &obs,
                "scoped",
                Some(&PLAN),
                names::QUERY_QL_LATENCY_US,
                &budget,
            );
            // Each reading advances the clock by 1 µs, the bracketing ones too.
            let before = clock.now_micros();
            drop(scope.stage("only"));
            let readings = clock.now_micros() - before - 1;
            scope.finish(false);
            trace::set_enabled(false);
            let profiles = profile::from_spans(&trace::take_roots());
            assert_eq!(
                readings,
                2 * u64::from(collection),
                "collection {collection}"
            );
            if collection {
                assert_eq!(profiles.len(), 1);
                assert_eq!(profiles[0].stages.len(), 1);
                assert_eq!(profiles[0].stages[0].wall_us, 1);
            }
        }
    }
}
