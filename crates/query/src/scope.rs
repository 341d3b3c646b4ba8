//! One query's clock, deadline and instrumentation.
//!
//! Every public query entry point opens one [`Scope`]. It pins the
//! query's [`Budget`], so the deadline runs from one instant read once
//! from the budget's clock, and every stage and kernel handed
//! [`Scope::budget`] spends that one deadline. It also enters the trace
//! context and opens the root span and the EXPLAIN profile on that clock,
//! from that same reading.
//! Every return path ends it with [`Scope::finish`] (or [`Scope::fail`]),
//! which reads the clock once and reports that elapsed time to the
//! latency histogram, the deadline SLO counters, the tail sampler, the
//! root span, the profile and the caller's result.

use bp_graph::traverse::Budget;
use bp_obs::clock::ClockHandle;
use bp_obs::profile::{self, QueryPlan};
use bp_obs::sampler::{self, TraceOutcome, TraceRecord};
use bp_obs::{trace, Histogram, Level, Obs};
use std::borrow::Cow;
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
    span: trace::SpanGuard,
    profile: Option<profile::QueryGuard>,
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
        latency: &'static str,
        budget: &'a Budget,
    ) -> Self {
        let nested = budget.is_pinned();
        let budget = budget.pinned();
        let clock = budget.clock();
        // The pinned instant also seeds the trace id and opens the
        // profile: opening a scope reads the clock once.
        let start_us = budget.start_micros().unwrap_or_default();
        let context = trace::ensure(start_us);
        let span = trace::span(span);
        let profile = plan.map(|plan| profile::begin(plan, clock, start_us, budget.deadline()));
        let path = latency
            .strip_prefix("query.")
            .and_then(|rest| rest.strip_suffix(".latency_us"))
            .unwrap_or(latency);
        Scope {
            obs,
            path,
            latency: obs.histogram(latency),
            budget,
            nested,
            span,
            profile,
            _context: context,
        }
    }

    /// The query's pinned budget: stages check [`Budget::expired`] on it
    /// and kernels take it as their budget.
    pub(crate) fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Opens stage `name`: its span and its EXPLAIN stage, timed once on
    /// the query's clock while either is collected: one reading when it
    /// opens and one when it closes.
    pub(crate) fn stage(&self, name: &'static str) -> Stage<'_> {
        let clock = self.budget.clock();
        let collected = trace::enabled() || profile::enabled();
        Stage(collected.then(|| {
            let start = clock.now_micros();
            (
                clock,
                start,
                trace::span(name),
                profile::stage_at(name, start),
            )
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
    /// envelope broke, so it is also journaled and logged.
    fn classify(&self, elapsed: Duration, deadline: Duration, truncated: bool) {
        let obs = self.obs;
        if truncated {
            obs.counter("query.deadline.bounded").inc();
        }
        if elapsed <= deadline {
            obs.counter("query.deadline.hit").inc();
            return;
        }
        obs.counter("query.deadline.miss").inc();
        let path = self.path;
        obs.journal().record(
            Level::Warn,
            format!("query.{path} exceeded its {deadline:?} deadline (took {elapsed:?})"),
        );
        bp_obs::log::warn(
            "bp_query::scope",
            "query exceeded its deadline",
            &[
                ("use_case", path.to_owned()),
                ("deadline", format!("{deadline:?}")),
                ("elapsed", format!("{elapsed:?}")),
            ],
        );
    }

    /// Offers the finished request to the process-wide tail sampler (the
    /// retention decision behind `/tracez`), then closes the root span
    /// and the profile on `elapsed`.
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
        self.span.finish_with(elapsed);
        if let Some(profile) = self.profile {
            profile.finish_with(elapsed);
        }
        elapsed
    }
}

/// One stage of a query: the query's clock, the reading the stage opened
/// at, its span and its EXPLAIN stage; `None` while neither is collected.
pub(crate) struct Stage<'a>(Option<(&'a ClockHandle, u64, trace::SpanGuard, profile::StageGuard)>);

impl Stage<'_> {
    fn profile(&self) -> Option<&profile::StageGuard> {
        self.0.as_ref().map(|(_, _, _, stage)| stage)
    }

    /// Records items consumed and produced.
    pub(crate) fn rows(&self, rows_in: usize, rows_out: usize) {
        if let Some(p) = self.profile() {
            p.rows(rows_in, rows_out);
        }
    }

    /// Records graph nodes and edges touched.
    pub(crate) fn touched(&self, nodes: usize, edges: usize) {
        if let Some(p) = self.profile() {
            p.touched(nodes, edges);
        }
    }

    /// Marks this stage as where a limit cut the query short, with an
    /// estimate of the items left unprocessed.
    pub(crate) fn truncated(&self, remaining_estimate: u64) {
        if let Some(p) = self.profile() {
            p.truncated(remaining_estimate);
        }
    }
}

impl Drop for Stage<'_> {
    fn drop(&mut self) {
        if let Some((clock, start, span, stage)) = self.0.take() {
            let wall = Duration::from_micros(clock.now_micros().saturating_sub(start));
            span.finish_with(wall);
            stage.finish_with(wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_obs::clock::ClockHandle;

    use std::sync::Mutex;

    static PLAN: QueryPlan = QueryPlan {
        query: "scoped",
        stages: &["only"],
    };

    /// Serializes the tests that switch profiling, a process-wide flag.
    static PROFILING: Mutex<()> = Mutex::new(());

    /// Opening a scope reads the query's clock once, for the pin, with
    /// profiling on or off: the trace id and the profile start from that
    /// reading.
    #[test]
    fn opening_a_scope_reads_the_clock_once() {
        let _gate = PROFILING.lock().unwrap_or_else(|e| e.into_inner());
        for profiling in [false, true] {
            let (clock, mock) = ClockHandle::mock();
            mock.set_auto_tick_micros(1);
            let budget = Budget::new().with_clock(clock.clone());
            let obs = Obs::default();
            profile::set_enabled(profiling);
            // Each reading advances the clock by 1 µs, the bracketing ones too.
            let before = clock.now_micros();
            let scope = Scope::open(
                &obs,
                "scoped",
                Some(&PLAN),
                "query.scoped.latency_us",
                &budget,
            );
            let readings = clock.now_micros() - before - 1;
            scope.finish(false);
            profile::set_enabled(false);
            let profiles = profile::take();
            assert_eq!(readings, 1, "profiling {profiling}");
            assert_eq!(profiles.len(), usize::from(profiling));
        }
    }

    /// A profiled stage reads the query's clock once when it opens and
    /// once when it closes: its EXPLAIN stage opens at the scope's reading
    /// instead of taking one of its own.
    #[test]
    fn a_profiled_stage_reads_the_clock_twice() {
        let _gate = PROFILING.lock().unwrap_or_else(|e| e.into_inner());
        let (clock, mock) = ClockHandle::mock();
        mock.set_auto_tick_micros(1);
        let budget = Budget::new().with_clock(clock.clone());
        let obs = Obs::default();
        profile::set_enabled(true);
        let scope = Scope::open(
            &obs,
            "scoped",
            Some(&PLAN),
            "query.scoped.latency_us",
            &budget,
        );
        // Each reading advances the clock by 1 µs, the bracketing ones too.
        let before = clock.now_micros();
        drop(scope.stage("only"));
        let readings = clock.now_micros() - before - 1;
        scope.finish(false);
        profile::set_enabled(false);
        let profiles = profile::take();
        assert_eq!(readings, 2);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].stages.len(), 1);
        assert_eq!(profiles[0].stages[0].wall_us, 1);
    }
}
