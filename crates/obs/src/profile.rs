//! Query EXPLAIN profiles: per-stage accounting for one query execution.
//!
//! Where [`crate::trace`] answers "what happened on this thread" with a
//! free-form span tree, this module answers the narrower EXPLAIN question:
//! *for one query, where did the time and the work go?* Each query path
//! declares a static [`QueryPlan`] naming its stages (candidate scan,
//! graph traversal, text-index lookup, rank/merge, …). When profiling is
//! enabled, [`begin`] opens a profile against the query's own
//! [`ClockHandle`] — so deadline tests drive profile timings with a mock
//! clock — and each [`stage`] guard records wall time, rows in/out,
//! node/edge touches, and the truncation point into a [`Profile`] tree
//! that renders as an aligned text table ([`Profile::render_table`]) or
//! JSON ([`Profile::to_json`]) for `browserprov query <sub> --explain`.
//!
//! Profiling is off by default and costs one relaxed atomic load per
//! [`begin`]/[`stage`] call when disabled. Collection is thread-local;
//! nested queries (personalize wraps contextual search) attach as child
//! profiles.

use crate::clock::ClockHandle;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns profile collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiles are currently being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The static shape of one query path: its name and the ordered stages it
/// may execute. Declared once per query function; stages the execution
/// never entered still appear in the rendered plan (with zero work), so a
/// reader sees what *could* have run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// Query path name (e.g. `context`, `lineage`).
    pub query: &'static str,
    /// Ordered stage names.
    pub stages: &'static [&'static str],
}

/// Measured work of one executed stage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageProfile {
    /// Stage name (one of the plan's stages).
    pub name: &'static str,
    /// Wall time in microseconds, measured on the query's clock.
    pub wall_us: u64,
    /// Items the stage consumed (seeds, candidates, …).
    pub rows_in: u64,
    /// Items the stage produced.
    pub rows_out: u64,
    /// Graph nodes the stage touched.
    pub nodes_touched: u64,
    /// Graph edges the stage touched.
    pub edges_touched: u64,
    /// `true` if the deadline (or another budget limit) cut this stage
    /// short.
    pub truncated: bool,
}

/// One finished query profile: per-stage accounting plus the deadline
/// story, with nested child profiles for queries that wrap other queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Query path name, from the plan.
    pub query: &'static str,
    /// The plan's declared stages (executed or not).
    pub planned: Vec<&'static str>,
    /// Total query wall time in microseconds.
    pub total_us: u64,
    /// Deadline budget in microseconds, when the query had one.
    pub budget_us: Option<u64>,
    /// `true` if any limit truncated the work.
    pub truncated: bool,
    /// The stage at which truncation struck, when it did.
    pub truncation_stage: Option<&'static str>,
    /// Caller's estimate of items left unprocessed at truncation.
    pub remaining_estimate: Option<u64>,
    /// Executed stages, in execution order.
    pub stages: Vec<StageProfile>,
    /// Profiles of nested queries begun while this one was open.
    pub children: Vec<Profile>,
}

impl Profile {
    /// Share of the deadline budget consumed, when a budget was set.
    pub fn budget_used_pct(&self) -> Option<f64> {
        self.budget_us.map(|b| {
            if b == 0 {
                100.0
            } else {
                self.total_us as f64 / b as f64 * 100.0
            }
        })
    }

    /// Sum of executed stage wall times in microseconds.
    pub fn stages_total_us(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_us).sum()
    }

    /// Renders the profile as an aligned text table. Stage times plus the
    /// `(other)` remainder row sum exactly to the reported total.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let _ = write!(
            out,
            "{pad}query.{}  total {}",
            self.query,
            us(self.total_us)
        );
        match (self.budget_us, self.budget_used_pct()) {
            (Some(b), Some(pct)) => {
                let _ = write!(out, "  budget {} ({pct:.1}% used)", us(b));
            }
            _ => {
                let _ = write!(out, "  budget none");
            }
        }
        if self.truncated {
            let _ = write!(out, "  TRUNCATED");
            if let Some(stage) = self.truncation_stage {
                let _ = write!(out, " at {stage}");
            }
            if let Some(rem) = self.remaining_estimate {
                let _ = write!(out, " (~{rem} items remaining)");
            }
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "{pad}{:<14} {:>10} {:>6} {:>9} {:>9} {:>9} {:>9}  flags",
            "stage", "time", "%", "rows in", "rows out", "nodes", "edges"
        );
        let mut accounted = 0u64;
        let render_stage = |out: &mut String, s: &StageProfile| {
            let share = if self.total_us == 0 {
                0.0
            } else {
                s.wall_us as f64 / self.total_us as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{pad}{:<14} {:>10} {:>5.1}% {:>9} {:>9} {:>9} {:>9}  {}",
                s.name,
                us(s.wall_us),
                share,
                s.rows_in,
                s.rows_out,
                s.nodes_touched,
                s.edges_touched,
                if s.truncated { "truncated" } else { "" }
            );
        };
        for s in &self.stages {
            accounted += s.wall_us;
            render_stage(out, s);
        }
        // Planned stages the execution never entered.
        for &name in &self.planned {
            if !self.stages.iter().any(|s| s.name == name) {
                let _ = writeln!(
                    out,
                    "{pad}{:<14} {:>10} {:>6} {:>9} {:>9} {:>9} {:>9}  skipped",
                    name, "-", "-", "-", "-", "-", "-"
                );
            }
        }
        let other = self.total_us.saturating_sub(accounted);
        let share = if self.total_us == 0 {
            0.0
        } else {
            other as f64 / self.total_us as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "{pad}{:<14} {:>10} {:>5.1}% {:>9} {:>9} {:>9} {:>9}  ",
            "(other)",
            us(other),
            share,
            "-",
            "-",
            "-",
            "-"
        );
        for child in &self.children {
            self_render_child(child, out, indent + 1);
        }
    }

    /// Serializes the profile (and its children) as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out.push('\n');
        out
    }

    fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"query\": \"{}\", \"total_us\": {}, \"budget_us\": ",
            self.query, self.total_us
        );
        match self.budget_us {
            Some(b) => {
                let _ = write!(out, "{b}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"truncated\": {}", self.truncated);
        let _ = write!(out, ", \"truncation_stage\": ");
        match self.truncation_stage {
            Some(s) => {
                let _ = write!(out, "\"{s}\"");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"remaining_estimate\": ");
        match self.remaining_estimate {
            Some(r) => {
                let _ = write!(out, "{r}");
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"wall_us\": {}, \"rows_in\": {}, \"rows_out\": {}, \
                 \"nodes_touched\": {}, \"edges_touched\": {}, \"truncated\": {}}}",
                s.name,
                s.wall_us,
                s.rows_in,
                s.rows_out,
                s.nodes_touched,
                s.edges_touched,
                s.truncated
            );
        }
        out.push_str("], \"children\": [");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

fn self_render_child(child: &Profile, out: &mut String, indent: usize) {
    child.render_into(out, indent);
}

/// Formats a microsecond reading for the table (`832us`, `12.41ms`, `1.20s`).
fn us(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.2}s", v as f64 / 1_000_000.0)
    } else if v >= 1_000 {
        format!("{:.2}ms", v as f64 / 1_000.0)
    } else {
        format!("{v}us")
    }
}

struct OpenProfile {
    plan: &'static QueryPlan,
    clock: ClockHandle,
    start_us: u64,
    budget_us: Option<u64>,
    truncated: bool,
    truncation_stage: Option<&'static str>,
    remaining_estimate: Option<u64>,
    stages: Vec<StageProfile>,
    children: Vec<Profile>,
}

thread_local! {
    static STACK: RefCell<Vec<OpenProfile>> = const { RefCell::new(Vec::new()) };
    static FINISHED: RefCell<Vec<Profile>> = const { RefCell::new(Vec::new()) };
}

/// Opens a profile for one execution of `plan`, timed on `clock` (the
/// query's own time source, so mock-clock tests drive profile timings)
/// from its reading `start_us`, and accounted against `budget`. A no-op
/// when profiling is disabled.
#[must_use = "the profile closes when this guard drops"]
pub fn begin(
    plan: &'static QueryPlan,
    clock: &ClockHandle,
    start_us: u64,
    budget: Option<Duration>,
) -> QueryGuard {
    if !enabled() {
        return QueryGuard { open: false };
    }
    STACK.with(|stack| {
        stack.borrow_mut().push(OpenProfile {
            plan,
            clock: clock.clone(),
            start_us,
            budget_us: budget.map(|d| d.as_micros() as u64),
            truncated: false,
            truncation_stage: None,
            remaining_estimate: None,
            stages: Vec::new(),
            children: Vec::new(),
        })
    });
    QueryGuard { open: true }
}

/// Drains the finished root profiles collected on this thread.
pub fn take() -> Vec<Profile> {
    FINISHED.with(|f| std::mem::take(&mut *f.borrow_mut()))
}

/// Closes its profile on drop, attaching it to the enclosing profile or
/// the thread's finished list.
#[derive(Debug)]
pub struct QueryGuard {
    open: bool,
}

impl QueryGuard {
    /// Closes the profile, pinning `total` as the reported total (the
    /// query's own measured latency, so table and result agree exactly).
    pub fn finish_with(mut self, total: Duration) {
        self.close(Some(total.as_micros() as u64));
    }

    fn close(&mut self, total_override: Option<u64>) {
        if !self.open {
            return;
        }
        self.open = false;
        let profile = STACK.with(|stack| {
            let open = stack.borrow_mut().pop()?;
            let total_us = total_override
                .unwrap_or_else(|| open.clock.now_micros().saturating_sub(open.start_us));
            Some(Profile {
                query: open.plan.query,
                planned: open.plan.stages.to_vec(),
                total_us,
                budget_us: open.budget_us,
                truncated: open.truncated,
                truncation_stage: open.truncation_stage,
                remaining_estimate: open.remaining_estimate,
                stages: open.stages,
                children: open.children,
            })
        });
        let Some(profile) = profile else { return };
        STACK.with(|stack| {
            if let Some(parent) = stack.borrow_mut().last_mut() {
                parent.children.push(profile);
            } else {
                FINISHED.with(|f| f.borrow_mut().push(profile));
            }
        });
    }
}

impl Drop for QueryGuard {
    fn drop(&mut self) {
        self.close(None);
    }
}

/// Opens a stage of the innermost open profile. Inert when profiling is
/// disabled or no profile is open.
#[must_use = "the stage closes when this guard drops"]
pub fn stage(name: &'static str) -> StageGuard {
    if !enabled() {
        return StageGuard::inert();
    }
    let start = STACK.with(|stack| stack.borrow().last().map(|open| open.clock.now_micros()));
    start.map_or_else(StageGuard::inert, |start_us| stage_at(name, start_us))
}

/// [`stage`] for a caller that has just read the profile's clock itself:
/// the stage opens at that reading, `start_us`, without reading the
/// clock again.
#[must_use = "the stage closes when this guard drops"]
pub fn stage_at(name: &'static str, start_us: u64) -> StageGuard {
    if !enabled() || STACK.with(|stack| stack.borrow().is_empty()) {
        return StageGuard::inert();
    }
    StageGuard {
        live: true,
        start_us,
        record: RefCell::new(StageProfile {
            name,
            ..StageProfile::default()
        }),
        remaining: RefCell::new(None),
    }
}

/// Accumulates one stage's accounting; pushed into the open profile when
/// dropped.
#[derive(Debug)]
pub struct StageGuard {
    live: bool,
    start_us: u64,
    record: RefCell<StageProfile>,
    remaining: RefCell<Option<u64>>,
}

impl StageGuard {
    fn inert() -> Self {
        StageGuard {
            live: false,
            start_us: 0,
            record: RefCell::new(StageProfile::default()),
            remaining: RefCell::new(None),
        }
    }

    /// Records items consumed and produced.
    pub fn rows(&self, rows_in: usize, rows_out: usize) {
        if self.live {
            let mut r = self.record.borrow_mut();
            r.rows_in = rows_in as u64;
            r.rows_out = rows_out as u64;
        }
    }

    /// Records graph nodes and edges touched.
    pub fn touched(&self, nodes: usize, edges: usize) {
        if self.live {
            let mut r = self.record.borrow_mut();
            r.nodes_touched = nodes as u64;
            r.edges_touched = edges as u64;
        }
    }

    /// Marks this stage as the truncation point, with the caller's
    /// estimate of items left unprocessed. The profile keeps the *first*
    /// truncation it sees.
    pub fn truncated(&self, remaining_estimate: u64) {
        if self.live {
            self.record.borrow_mut().truncated = true;
            *self.remaining.borrow_mut() = Some(remaining_estimate);
        }
    }

    /// Closes the stage, recording `wall` as its wall time instead of the
    /// guard's own measurement, so a caller that timed the stage once can
    /// give its span the same number.
    pub fn finish_with(mut self, wall: Duration) {
        self.close(Some(wall.as_micros() as u64));
    }

    fn close(&mut self, wall_override: Option<u64>) {
        if !self.live {
            return;
        }
        self.live = false;
        let mut record = self.record.borrow_mut().clone();
        let remaining = *self.remaining.borrow();
        STACK.with(|stack| {
            if let Some(open) = stack.borrow_mut().last_mut() {
                record.wall_us = wall_override
                    .unwrap_or_else(|| open.clock.now_micros().saturating_sub(self.start_us));
                if record.truncated {
                    open.truncated = true;
                    if open.truncation_stage.is_none() {
                        open.truncation_stage = Some(record.name);
                        open.remaining_estimate = remaining;
                    }
                }
                open.stages.push(record);
            }
        });
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        self.close(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockHandle;

    /// Serializes tests that flip the process-wide enable flag.
    fn with_profiling<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static GATE: Mutex<()> = Mutex::new(());
        let _lock = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    static PLAN: QueryPlan = QueryPlan {
        query: "testpath",
        stages: &["scan", "traverse", "rank"],
    };

    #[test]
    fn disabled_profiles_collect_nothing() {
        set_enabled(false);
        {
            let _q = begin(&PLAN, &ClockHandle::real(), 0, None);
            let _s = stage("scan");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn stage_times_come_from_the_query_clock() {
        let profiles = with_profiling(|| {
            let (clock, mock) = ClockHandle::mock();
            let q = begin(
                &PLAN,
                &clock,
                clock.now_micros(),
                Some(Duration::from_millis(200)),
            );
            {
                let s = stage("scan");
                s.rows(10, 4);
                mock.advance_micros(300);
                drop(s);
            }
            {
                let s = stage("traverse");
                s.touched(40, 55);
                mock.advance_micros(700);
                drop(s);
            }
            drop(q);
            take()
        });
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.query, "testpath");
        assert_eq!(p.total_us, 1000);
        assert_eq!(p.budget_us, Some(200_000));
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[0].name, "scan");
        assert_eq!(p.stages[0].wall_us, 300);
        assert_eq!(p.stages[0].rows_in, 10);
        assert_eq!(p.stages[0].rows_out, 4);
        assert_eq!(p.stages[1].wall_us, 700);
        assert_eq!(p.stages[1].nodes_touched, 40);
        assert_eq!(p.stages[1].edges_touched, 55);
        // Stage walls account for the whole total on a mock clock.
        assert_eq!(p.stages_total_us(), p.total_us);
        assert!(!p.truncated);
    }

    #[test]
    fn truncation_point_and_estimate_are_kept() {
        let profiles = with_profiling(|| {
            let (clock, mock) = ClockHandle::mock();
            let q = begin(
                &PLAN,
                &clock,
                clock.now_micros(),
                Some(Duration::from_micros(100)),
            );
            {
                let s = stage("traverse");
                mock.advance_micros(150);
                s.truncated(42);
            }
            q.finish_with(Duration::from_micros(150));
            take()
        });
        let p = &profiles[0];
        assert!(p.truncated);
        assert_eq!(p.truncation_stage, Some("traverse"));
        assert_eq!(p.remaining_estimate, Some(42));
        assert_eq!(p.total_us, 150);
        assert!(p.budget_used_pct().is_some_and(|pct| pct > 100.0));
    }

    #[test]
    fn nested_profiles_attach_as_children() {
        static INNER: QueryPlan = QueryPlan {
            query: "inner",
            stages: &["work"],
        };
        let profiles = with_profiling(|| {
            let clock = ClockHandle::real();
            let q = begin(&PLAN, &clock, clock.now_micros(), None);
            {
                let inner = begin(&INNER, &clock, clock.now_micros(), None);
                {
                    let _s = stage("work");
                }
                drop(inner);
            }
            drop(q);
            take()
        });
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].children.len(), 1);
        assert_eq!(profiles[0].children[0].query, "inner");
        // The inner stage belongs to the inner profile, not the outer.
        assert!(profiles[0].stages.is_empty());
        assert_eq!(profiles[0].children[0].stages.len(), 1);
    }

    #[test]
    fn table_renders_all_stages_and_other_row() {
        let profiles = with_profiling(|| {
            let (clock, mock) = ClockHandle::mock();
            let q = begin(
                &PLAN,
                &clock,
                clock.now_micros(),
                Some(Duration::from_millis(200)),
            );
            {
                let s = stage("scan");
                mock.advance_micros(400);
                drop(s);
            }
            mock.advance_micros(100); // unaccounted plumbing
            drop(q);
            take()
        });
        let table = profiles[0].render_table();
        assert!(table.contains("query.testpath"), "{table}");
        assert!(table.contains("scan"), "{table}");
        assert!(table.contains("(other)"), "{table}");
        // Planned-but-skipped stages still show.
        assert!(table.contains("traverse"), "{table}");
        assert!(table.contains("skipped"), "{table}");
        assert!(table.contains("budget 200.00ms"), "{table}");
    }

    #[test]
    fn json_serialization_parses_back() {
        let profiles = with_profiling(|| {
            let (clock, mock) = ClockHandle::mock();
            let q = begin(
                &PLAN,
                &clock,
                clock.now_micros(),
                Some(Duration::from_micros(50)),
            );
            {
                let s = stage("rank");
                s.rows(7, 3);
                mock.advance_micros(80);
                s.truncated(9);
            }
            drop(q);
            take()
        });
        let text = profiles[0].to_json();
        let v = crate::json::parse(&text).expect("profile JSON parses");
        assert_eq!(v.get("query").and_then(|q| q.as_str()), Some("testpath"));
        assert_eq!(v.get("budget_us").and_then(|b| b.as_u64()), Some(50));
        assert_eq!(v.get("truncated").and_then(|t| t.as_bool()), Some(true));
        assert_eq!(
            v.get("truncation_stage").and_then(|s| s.as_str()),
            Some("rank")
        );
        assert_eq!(
            v.get("remaining_estimate").and_then(|r| r.as_u64()),
            Some(9)
        );
        let stages = v.get("stages").and_then(|s| s.as_array()).unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].get("rows_in").and_then(|r| r.as_u64()), Some(7));
    }

    #[test]
    fn stage_outside_profile_is_inert() {
        with_profiling(|| {
            let s = stage("orphan");
            s.rows(1, 1);
            drop(s);
            assert!(take().is_empty());
        });
    }
}
