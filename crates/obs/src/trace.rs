//! Span-based tracing with thread-local span stacks: the one tree a
//! query's run is recorded in.
//!
//! Collection is off by default and costs one relaxed atomic load per
//! [`span`] call when off. When on, each guard pushes onto the current
//! thread's open-span stack; closing a guard pops it and attaches the
//! finished [`SpanNode`] to its parent, or to the thread's finished roots
//! when it was outermost. [`take_roots`] drains those roots. A span reads
//! no clock: it closes on the duration its caller measured on the query's
//! own clock. Query spans also carry what EXPLAIN reports ([`Explain`]),
//! so one collection renders two ways: as an indented tree with per-stage
//! timings ([`SpanNode::render`]) and as EXPLAIN tables and JSON
//! ([`crate::profile::from_spans`]).

use crate::clock::ClockHandle;
use crate::profile::QueryPlan;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span collection on or off process-wide: `--trace`, `--explain`
/// and the `serve` daemon's sampled passes all collect through it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Head-sampling hint period: [`Context::generate`] sets `sampled_hint`
/// on a deterministic 1-in-this fraction of trace IDs. The hint lets a
/// layer opt into extra per-request work (e.g. span collection) up front;
/// the *retention* decision is the tail sampler's and happens at request
/// end with the outcome in hand.
pub const SAMPLE_HINT_EVERY: u64 = 16;

/// A request-scoped identity that flows with the work: stamped onto root
/// spans, structured log lines, flight-recorder events, and histogram
/// exemplars while active on the current thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Context {
    /// Nonzero request identifier (rendered as 16 hex digits everywhere).
    pub trace_id: u64,
    /// Head-sampling hint (deterministic 1-in-[`SAMPLE_HINT_EVERY`]).
    pub sampled_hint: bool,
}

/// Renders a trace ID the one canonical way (16 lowercase hex digits) so
/// logs, `/tracez`, exemplars, and the CLI agree byte-for-byte.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses [`format_trace_id`] output (also accepts plain decimal).
pub fn parse_trace_id(text: &str) -> Option<u64> {
    let text = text.trim();
    u64::from_str_radix(text, 16)
        .ok()
        .or_else(|| text.parse().ok())
}

/// splitmix64 finalizer: a cheap, well-mixed bijection on `u64`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Context {
    /// Generates a fresh context from a clock reading, `now_us`, mixed
    /// with a process-wide counter (two concurrent entry points that read
    /// the same microsecond still get distinct IDs) and a per-process seed.
    /// The seed matters: the monotonic clock counts from *process
    /// start*, so without wall-clock + pid entropy two one-shot CLI
    /// invocations that mint their first ID at the same startup offset
    /// would collide exactly. IDs are never zero.
    pub fn generate(now_us: u64) -> Context {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| {
            splitmix64(crate::clock::unix_time_ms() ^ u64::from(std::process::id()).rotate_left(40))
        });
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut id = splitmix64(now_us.rotate_left(20) ^ n ^ seed);
        if id == 0 {
            id = 1;
        }
        Context {
            trace_id: id,
            sampled_hint: id.is_multiple_of(SAMPLE_HINT_EVERY),
        }
    }
}

thread_local! {
    static CURRENT: Cell<Option<Context>> = const { Cell::new(None) };
}

/// The context active on this thread, if any.
pub fn current() -> Option<Context> {
    CURRENT.with(Cell::get)
}

/// The active trace ID on this thread, if any.
pub fn current_id() -> Option<u64> {
    current().map(|c| c.trace_id)
}

/// Installs `context` on this thread until the guard drops (the previous
/// context, if any, is restored — contexts nest like spans do).
#[must_use = "the context deactivates when this guard drops"]
pub fn enter(context: Context) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(Some(context)));
    ContextGuard {
        installed: Some(context),
        restore: Some(prev),
    }
}

/// Generates a fresh context from `clock` and installs it.
#[must_use = "the context deactivates when this guard drops"]
pub fn enter_new(clock: &ClockHandle) -> ContextGuard {
    enter(Context::generate(clock.now_micros()))
}

/// Enters a fresh context, minted from the clock reading `now_us`, only
/// when none is active: entry points call this unconditionally, so a path
/// invoked inside another request (e.g. personalize running the contextual
/// search) reuses the caller's ID instead of minting a second one.
#[must_use = "the context deactivates when this guard drops"]
pub fn ensure(now_us: u64) -> ContextGuard {
    if current().is_some() {
        ContextGuard {
            installed: None,
            restore: None,
        }
    } else {
        enter(Context::generate(now_us))
    }
}

/// Restores the previously active context on drop. A guard returned by
/// [`ensure`] under an already-active context restores nothing.
#[derive(Debug)]
pub struct ContextGuard {
    /// What this guard installed (`None` for a no-op guard).
    installed: Option<Context>,
    /// `Some(prev)` to restore on drop; `None` for a no-op guard.
    restore: Option<Option<Context>>,
}

impl ContextGuard {
    /// The context this guard installed (`None` for a no-op guard).
    pub fn context(&self) -> Option<Context> {
        self.installed
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.restore.take() {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

/// What a span tells EXPLAIN.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Explain {
    /// Nothing: the span is outside any query plan.
    #[default]
    None,
    /// The root span of one run of a query path.
    Query {
        /// The path's plan.
        plan: &'static QueryPlan,
        /// The query's deadline in microseconds, when it had one.
        budget_us: Option<u64>,
    },
    /// A stage of the query whose span encloses it.
    Stage(Work),
}

/// The EXPLAIN accounting a stage's span carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Items the stage consumed (seeds, candidates, …).
    pub rows_in: u64,
    /// Items the stage produced.
    pub rows_out: u64,
    /// Graph nodes the stage touched.
    pub nodes_touched: u64,
    /// Graph edges the stage touched.
    pub edges_touched: u64,
    /// Where a limit cut the stage short, if one did.
    pub truncation: Option<Truncation>,
}

/// Where a limit cut a stage short. The span tree shows it as the note
/// `truncated: <cause>, ~<remaining> <items>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncation {
    /// The caller's estimate of the items left unprocessed.
    pub remaining: u64,
    /// What cut the stage short (`deadline hit`).
    pub cause: &'static str,
    /// What the remaining items are (`iterations left`); empty when the
    /// note leaves the estimate out.
    pub items: &'static str,
}

impl Truncation {
    fn note(&self) -> String {
        if self.items.is_empty() {
            format!("truncated: {}", self.cause)
        } else {
            format!(
                "truncated: {}, ~{} {}",
                self.cause, self.remaining, self.items
            )
        }
    }
}

/// One finished span: a named duration with nested child spans.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Stage name (e.g. `query.context/traverse`).
    pub name: &'static str,
    /// The duration the span's caller measured.
    pub duration: Duration,
    /// Free-form annotation attached via [`note`] while the span was open,
    /// followed by the stage's truncation (e.g. `truncated: deadline hit,
    /// ~12 iterations left`).
    pub note: Option<String>,
    /// The request [`Context`] ID active when this span closed as a root
    /// (`None` for child spans and for roots closed outside any context).
    pub trace_id: Option<u64>,
    /// What EXPLAIN reads off this span.
    pub explain: Explain,
    /// Spans opened (and closed) while this one was open.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Renders the span tree as indented lines with per-stage timings and
    /// each child's share of its parent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}  {:.3?}", self.name, self.duration);
        if let Some(id) = self.trace_id {
            let _ = write!(out, "  trace={}", format_trace_id(id));
        }
        if let Some(note) = &self.note {
            let _ = write!(out, "  [{note}]");
        }
        out.push('\n');
        render_children(&self.children, self.duration, "", &mut out);
        out
    }
}

fn render_children(children: &[SpanNode], parent: Duration, prefix: &str, out: &mut String) {
    for (i, child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        let (branch, cont) = if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        let share = if parent.as_nanos() == 0 {
            0.0
        } else {
            child.duration.as_nanos() as f64 / parent.as_nanos() as f64 * 100.0
        };
        let _ = write!(
            out,
            "{prefix}{branch}{}  {:.3?} ({share:.1}%)",
            child.name, child.duration
        );
        if let Some(note) = &child.note {
            let _ = write!(out, "  [{note}]");
        }
        out.push('\n');
        render_children(
            &child.children,
            child.duration,
            &format!("{prefix}{cont}"),
            out,
        );
    }
}

struct OpenSpan {
    name: &'static str,
    note: Option<String>,
    children: Vec<SpanNode>,
}

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    static ROOTS: RefCell<Vec<SpanNode>> = const { RefCell::new(Vec::new()) };
}

/// Opens a span named `name`, reading no clock. The span closes on the
/// duration its caller measured ([`SpanGuard::finish_with`]). A no-op
/// while collection is off.
#[must_use = "finish the span with the duration its caller measured"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: false };
    }
    STACK.with(|stack| {
        stack.borrow_mut().push(OpenSpan {
            name,
            note: None,
            children: Vec::new(),
        })
    });
    SpanGuard { open: true }
}

/// Joins `text` onto a span's note with `"; "`.
fn append_note(note: &mut Option<String>, text: String) {
    match note {
        Some(existing) => {
            existing.push_str("; ");
            existing.push_str(&text);
        }
        None => *note = Some(text),
    }
}

/// Annotates the innermost open span on this thread (no-op while
/// collection is off or no span is open). Repeated notes on the same span
/// join with `"; "`; a stage's truncation follows them.
pub fn note(text: impl Into<String>) {
    if !enabled() {
        return;
    }
    STACK.with(|stack| {
        if let Some(open) = stack.borrow_mut().last_mut() {
            append_note(&mut open.note, text.into());
        }
    });
}

/// Drains the finished root spans collected on this thread.
pub fn take_roots() -> Vec<SpanNode> {
    ROOTS.with(|roots| std::mem::take(&mut *roots.borrow_mut()))
}

/// Closes its span, attaching it to the parent span or the thread's
/// finished roots. A guard dropped without [`SpanGuard::finish_with`] (a
/// query unwinding) closes its span with a zero duration.
#[derive(Debug)]
pub struct SpanGuard {
    open: bool,
}

impl SpanGuard {
    /// Closes the span on `duration`, the time its caller measured, and
    /// gives it what it tells EXPLAIN.
    pub fn finish_with(mut self, duration: Duration, explain: Explain) {
        self.close(duration, explain);
    }

    fn close(&mut self, duration: Duration, explain: Explain) {
        if !self.open {
            return;
        }
        self.open = false;
        let node = STACK.with(|stack| {
            let open = stack.borrow_mut().pop()?;
            let mut note = open.note;
            if let Explain::Stage(Work {
                truncation: Some(truncation),
                ..
            }) = explain
            {
                append_note(&mut note, truncation.note());
            }
            Some(SpanNode {
                name: open.name,
                duration,
                note,
                trace_id: None,
                explain,
                children: open.children,
            })
        });
        let Some(mut node) = node else { return };
        STACK.with(|stack| {
            if let Some(parent) = stack.borrow_mut().last_mut() {
                parent.children.push(node);
            } else {
                node.trace_id = current_id();
                ROOTS.with(|roots| roots.borrow_mut().push(node));
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(Duration::ZERO, Explain::None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-wide enable flag.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static GATE: Mutex<()> = Mutex::new(());
        let _lock = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_roots();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_spans_collect_nothing() {
        set_enabled(false);
        {
            let _a = span("a");
            let _b = span("b");
        }
        assert!(take_roots().is_empty());
    }

    #[test]
    fn nesting_builds_a_tree() {
        let roots = with_tracing(|| {
            {
                let _root = span("root");
                {
                    let _child = span("child");
                    let _grand = span("grand");
                }
                let _sibling = span("sibling");
            }
            take_roots()
        });
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.name, "root");
        // Drop order closes "grand" before "child"; both nest under root.
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["child", "sibling"]);
        assert_eq!(root.children[0].children[0].name, "grand");
    }

    #[test]
    fn finish_with_pins_the_root_duration() {
        let roots = with_tracing(|| {
            let root = span("q");
            root.finish_with(Duration::from_micros(1234), Explain::None);
            take_roots()
        });
        assert_eq!(roots[0].duration, Duration::from_micros(1234));
    }

    #[test]
    fn render_shows_every_stage() {
        let roots = with_tracing(|| {
            {
                let root = span("outer");
                {
                    let _c = span("inner");
                }
                root.finish_with(Duration::from_millis(10), Explain::None);
            }
            take_roots()
        });
        let text = roots[0].render();
        assert!(text.contains("outer"), "{text}");
        assert!(text.contains("└─ inner"), "{text}");
        assert!(text.contains('%'), "{text}");
    }

    #[test]
    fn notes_attach_to_the_innermost_open_span() {
        let roots = with_tracing(|| {
            {
                let _root = span("outer");
                {
                    let _c = span("inner");
                    note("truncated: deadline hit");
                    note("~12 items remaining");
                }
                note("outer-level note");
            }
            take_roots()
        });
        let root = &roots[0];
        assert_eq!(root.note.as_deref(), Some("outer-level note"));
        assert_eq!(
            root.children[0].note.as_deref(),
            Some("truncated: deadline hit; ~12 items remaining")
        );
        let text = root.render();
        assert!(
            text.contains("[truncated: deadline hit; ~12 items remaining]"),
            "{text}"
        );
        assert!(text.contains("[outer-level note]"), "{text}");
    }

    #[test]
    fn a_stage_truncation_follows_its_notes() {
        let work = |remaining, items| Work {
            truncation: Some(Truncation {
                remaining,
                cause: "deadline hit",
                items,
            }),
            ..Work::default()
        };
        let roots = with_tracing(|| {
            let root = span("query");
            let walk = span("walk");
            note("score cache hit");
            walk.finish_with(Duration::from_micros(3), Explain::Stage(work(7, "")));
            let blend = span("blend");
            blend.finish_with(
                Duration::from_micros(3),
                Explain::Stage(work(12, "candidates unscored")),
            );
            root.finish_with(Duration::from_micros(9), Explain::None);
            take_roots()
        });
        let [walk, blend] = &roots[0].children[..] else {
            panic!("two stages: {roots:?}");
        };
        assert_eq!(
            walk.note.as_deref(),
            Some("score cache hit; truncated: deadline hit")
        );
        assert_eq!(
            blend.note.as_deref(),
            Some("truncated: deadline hit, ~12 candidates unscored")
        );
        assert_eq!(
            blend.explain,
            Explain::Stage(work(12, "candidates unscored"))
        );
    }

    #[test]
    fn note_without_open_span_is_inert() {
        with_tracing(|| {
            note("orphan");
            assert!(take_roots().is_empty());
        });
        set_enabled(false);
        note("disabled"); // must not panic
    }

    #[test]
    fn successive_roots_accumulate_until_taken() {
        let roots = with_tracing(|| {
            drop(span("one"));
            drop(span("two"));
            take_roots()
        });
        let names: Vec<_> = roots.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["one", "two"]);
        assert!(take_roots().is_empty());
    }

    #[test]
    fn generated_ids_are_distinct_and_nonzero() {
        // Even from one clock reading the process counter keeps IDs apart.
        let a = Context::generate(0);
        let b = Context::generate(0);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn trace_id_round_trips_through_the_canonical_format() {
        let id = 0x0123_4567_89ab_cdef;
        let text = format_trace_id(id);
        assert_eq!(text.len(), 16);
        assert_eq!(parse_trace_id(&text), Some(id));
        assert_eq!(parse_trace_id("42"), Some(0x42));
        assert_eq!(parse_trace_id("zz"), None);
    }

    #[test]
    fn contexts_nest_and_restore() {
        assert_eq!(current(), None);
        let outer = Context {
            trace_id: 7,
            sampled_hint: false,
        };
        let inner = Context {
            trace_id: 9,
            sampled_hint: true,
        };
        {
            let g1 = enter(outer);
            assert_eq!(current(), Some(outer));
            assert_eq!(g1.context(), Some(outer));
            {
                let _g2 = enter(inner);
                assert_eq!(current_id(), Some(9));
            }
            assert_eq!(current(), Some(outer), "inner guard restores outer");
        }
        assert_eq!(current(), None, "outer guard restores empty");
    }

    #[test]
    fn ensure_reuses_an_active_context() {
        let g1 = ensure(1);
        let id = current_id().expect("ensure installed a context");
        {
            let g2 = ensure(2);
            assert_eq!(g2.context(), None, "nested ensure is a no-op guard");
            assert_eq!(current_id(), Some(id));
        }
        assert_eq!(current_id(), Some(id));
        drop(g1);
        assert_eq!(current(), None);
    }

    #[test]
    fn root_spans_are_stamped_with_the_active_trace_id() {
        let roots = with_tracing(|| {
            let _ctx = enter(Context {
                trace_id: 0xabcd,
                sampled_hint: false,
            });
            {
                let _root = span("stamped");
                let _child = span("child");
            }
            take_roots()
        });
        assert_eq!(roots[0].trace_id, Some(0xabcd));
        assert_eq!(roots[0].children[0].trace_id, None, "children unstamped");
        assert!(
            roots[0].render().contains("trace=000000000000abcd"),
            "{}",
            roots[0].render()
        );
    }
}
