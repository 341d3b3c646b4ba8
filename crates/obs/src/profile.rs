//! Query EXPLAIN profiles: per-stage accounting for one query execution.
//!
//! Where a [`SpanNode`] tree answers "what happened on this thread", a
//! [`Profile`] answers the narrower EXPLAIN question: *for one query,
//! where did the time and the work go?* Each query path declares a static
//! [`QueryPlan`] naming its stages (candidate scan, graph traversal,
//! text-index lookup, rank/merge, …). Its root span carries the plan and
//! the deadline budget, and each stage span carries rows in/out,
//! node/edge touches and the truncation point, timed on the query's own
//! clock (so deadline tests drive them with a mock clock).
//! [`from_spans`] reads profiles off the finished trees; they render as an
//! aligned text table ([`Profile::render_table`]) or JSON
//! ([`Profile::to_json`]) for `--explain` on `browserprov search` and the
//! other query commands. Nested queries (personalize wraps contextual
//! search) become child profiles.

use crate::trace::{Explain, SpanNode};
use std::fmt::Write as _;

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
            child.render_into(out, indent + 1);
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

/// The EXPLAIN profiles in finished span trees: one per outermost span
/// that carries a query plan, with the queries run inside it as its
/// children. Stage spans outside any plan's span belong to no profile.
pub fn from_spans(roots: &[SpanNode]) -> Vec<Profile> {
    let mut profiles = Vec::new();
    for root in roots {
        collect(root, &mut profiles);
    }
    profiles
}

/// Pushes the profile of `span`'s query, or of each outermost query under
/// it, onto `out`.
fn collect(span: &SpanNode, out: &mut Vec<Profile>) {
    let Explain::Query { plan, budget_us } = span.explain else {
        for child in &span.children {
            collect(child, out);
        }
        return;
    };
    let mut profile = Profile {
        query: plan.query,
        planned: plan.stages.to_vec(),
        total_us: span.duration.as_micros() as u64,
        budget_us,
        truncated: false,
        truncation_stage: None,
        remaining_estimate: None,
        stages: Vec::new(),
        children: Vec::new(),
    };
    profile.account(&span.children);
    out.push(profile);
}

impl Profile {
    /// Accounts the spans under this query's root, in the order they
    /// closed: stages into its stages, nested queries into its children.
    /// The profile keeps the first truncation it sees.
    fn account(&mut self, spans: &[SpanNode]) {
        for span in spans {
            match span.explain {
                Explain::Query { .. } => collect(span, &mut self.children),
                Explain::None => self.account(&span.children),
                Explain::Stage(work) => {
                    // A span closes after everything opened inside it.
                    self.account(&span.children);
                    if let Some(truncation) = work.truncation {
                        self.truncated = true;
                        if self.truncation_stage.is_none() {
                            self.truncation_stage = Some(span.name);
                            self.remaining_estimate = Some(truncation.remaining);
                        }
                    }
                    self.stages.push(StageProfile {
                        name: span.name,
                        wall_us: span.duration.as_micros() as u64,
                        rows_in: work.rows_in,
                        rows_out: work.rows_out,
                        nodes_touched: work.nodes_touched,
                        edges_touched: work.edges_touched,
                        truncated: work.truncation.is_some(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockHandle;
    use crate::trace::{Truncation, Work};
    use std::time::Duration;

    static PLAN: QueryPlan = QueryPlan {
        query: "testpath",
        stages: &["scan", "traverse", "rank"],
    };

    fn span(name: &'static str, us: u64, explain: Explain, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            duration: Duration::from_micros(us),
            note: None,
            trace_id: None,
            explain,
            children,
        }
    }

    /// A run of `plan` that took `total_us` against `budget_us`.
    fn query(
        plan: &'static QueryPlan,
        total_us: u64,
        budget_us: Option<u64>,
        children: Vec<SpanNode>,
    ) -> SpanNode {
        span(
            "query",
            total_us,
            Explain::Query { plan, budget_us },
            children,
        )
    }

    fn stage(name: &'static str, wall_us: u64, work: Work) -> SpanNode {
        span(name, wall_us, Explain::Stage(work), Vec::new())
    }

    fn cut(remaining: u64) -> Option<Truncation> {
        Some(Truncation {
            remaining,
            cause: "deadline hit",
            items: "items left",
        })
    }

    #[test]
    fn disabled_profiles_collect_nothing() {
        // Collection off leaves no spans; spans without a plan leave no
        // profile.
        assert!(from_spans(&[]).is_empty());
        let plain = span("plain", 5, Explain::None, vec![]);
        assert!(from_spans(&[plain]).is_empty());
    }

    #[test]
    fn stage_times_come_from_the_query_clock() {
        // The query times each stage on its own clock and closes the
        // stage's span on that duration; the profile reads it back.
        let (clock, mock) = ClockHandle::mock();
        let start = clock.now_micros();
        let lap = |us| {
            let at = clock.now_micros();
            mock.advance_micros(us);
            clock.now_micros() - at
        };
        let (scan, traverse) = (lap(300), lap(700));
        let total = clock.now_micros() - start;
        let scanned = Work {
            rows_in: 10,
            rows_out: 4,
            ..Work::default()
        };
        let traversed = Work {
            nodes_touched: 40,
            edges_touched: 55,
            ..Work::default()
        };
        let root = query(
            &PLAN,
            total,
            Some(200_000),
            vec![
                stage("scan", scan, scanned),
                stage("traverse", traverse, traversed),
            ],
        );
        let profiles = from_spans(&[root]);
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
        let truncated = |remaining| Work {
            truncation: cut(remaining),
            ..Work::default()
        };
        let root = query(
            &PLAN,
            150,
            Some(100),
            vec![
                stage("traverse", 100, truncated(42)),
                stage("rank", 50, truncated(7)),
            ],
        );
        let p = &from_spans(&[root])[0];
        assert!(p.truncated);
        assert_eq!(p.truncation_stage, Some("traverse"), "the first cut");
        assert_eq!(p.remaining_estimate, Some(42));
        assert!(p.stages.iter().all(|s| s.truncated));
        assert_eq!(p.total_us, 150);
        assert!(p.budget_used_pct().is_some_and(|pct| pct > 100.0));
    }

    #[test]
    fn nested_profiles_attach_as_children() {
        static INNER: QueryPlan = QueryPlan {
            query: "inner",
            stages: &["work"],
        };
        // The outer query's stage runs the inner query, as personalize's
        // `contextual` stage runs a contextual search.
        let inner = query(&INNER, 20, None, vec![stage("work", 10, Work::default())]);
        let outer_stage = span("scan", 25, Explain::Stage(Work::default()), vec![inner]);
        let root = query(&PLAN, 30, None, vec![outer_stage]);
        let profiles = from_spans(&[root]);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].children.len(), 1);
        assert_eq!(profiles[0].children[0].query, "inner");
        // The inner stage belongs to the inner profile, not the outer.
        let names = |p: &Profile| p.stages.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(&profiles[0]), vec!["scan"]);
        assert_eq!(names(&profiles[0].children[0]), vec!["work"]);
    }

    #[test]
    fn table_renders_all_stages_and_other_row() {
        // 100 µs of plumbing outside the one executed stage.
        let root = query(
            &PLAN,
            500,
            Some(200_000),
            vec![stage("scan", 400, Work::default())],
        );
        let table = from_spans(&[root])[0].render_table();
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
        let ranked = Work {
            rows_in: 7,
            rows_out: 3,
            truncation: cut(9),
            ..Work::default()
        };
        let root = query(&PLAN, 80, Some(50), vec![stage("rank", 80, ranked)]);
        let text = from_spans(&[root])[0].to_json();
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
        // A stage span outside any plan's span belongs to no profile; a
        // planned query under plain spans is still found.
        let orphan = stage("orphan", 1, Work::default());
        let planned = query(&PLAN, 5, None, vec![]);
        let root = span("plain", 9, Explain::None, vec![orphan, planned]);
        let profiles = from_spans(&[root]);
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].stages.is_empty());
    }
}
