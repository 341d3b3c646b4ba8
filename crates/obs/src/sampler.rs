//! Tail-based trace sampling: keep the traces worth keeping.
//!
//! Head sampling decides before the work runs and therefore cannot
//! prefer the interesting requests; this sampler decides *after* the
//! root span closes, with the outcome in hand. Every deadline-missed,
//! truncated, or errored request is retained unconditionally; of the
//! unremarkable rest a deterministic 1-in-N survives (the trace ID is
//! already a splitmix64-mixed value, so `id % N` is an unbiased coin
//! that every layer can re-derive without coordination). Retained
//! traces live in a bounded ring — old entries are evicted, never the
//! decision counters — and are searchable by latency floor, path, and
//! exact ID for the `/tracez` endpoint.
//!
//! Accounting: `bp_trace_sampler.kept` / `.dropped` count decisions,
//! `bp_trace_sampler.evicted` counts retained traces later pushed out
//! of the ring.

use crate::trace;
use crate::{names, Counter, Obs};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Retained-trace ring capacity of [`global`].
pub const DEFAULT_CAPACITY: usize = 256;

/// Keep one in this many unremarkable traces (deterministic on the ID).
pub const DEFAULT_KEEP_ONE_IN: u64 = 16;

/// How a request ended, from the sampler's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Finished inside its deadline, untruncated.
    Ok,
    /// Blew through its latency deadline.
    DeadlineMiss,
    /// Returned early with partial results (budget truncation).
    Truncated,
    /// Failed outright.
    Error,
}

impl TraceOutcome {
    /// Stable lowercase label (used in `/tracez` text and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::DeadlineMiss => "deadline_miss",
            TraceOutcome::Truncated => "truncated",
            TraceOutcome::Error => "error",
        }
    }

    /// Whether the tail rule retains this outcome unconditionally.
    fn always_keep(self) -> bool {
        !matches!(self, TraceOutcome::Ok)
    }
}

/// One finished request as offered to (and retained by) the sampler.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// The request's trace ID (see [`trace::Context`]).
    pub trace_id: u64,
    /// Entry-point name (`context`, `lineage`, `ql`, …).
    pub path: &'static str,
    /// End-to-end latency in microseconds.
    pub elapsed_us: u64,
    /// How the request ended.
    pub outcome: TraceOutcome,
    /// Wall-clock arrival time (stamped by [`TailSampler::offer`]).
    pub unix_ms: u64,
    /// Rendered span tree, attached later when span collection was on
    /// for this request (see [`TailSampler::attach_tree`]).
    pub tree: Option<String>,
}

impl TraceRecord {
    /// One summary line: `id  path  elapsed  outcome`.
    pub fn render_line(&self) -> String {
        format!(
            "{}  {:<12}  {:>10}us  {}",
            trace::format_trace_id(self.trace_id),
            self.path,
            self.elapsed_us,
            self.outcome.as_str()
        )
    }

    /// The record as one JSON object (tree included when attached).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"trace_id\":\"{}\",\"path\":\"{}\",\"elapsed_us\":{},\"outcome\":\"{}\",\"unix_ms\":{}",
            trace::format_trace_id(self.trace_id),
            self.path,
            self.elapsed_us,
            self.outcome.as_str(),
            self.unix_ms
        );
        if let Some(tree) = &self.tree {
            let _ = write!(out, ",\"tree\":\"{}\"", crate::expo::json_escape(tree));
        }
        out.push('}');
        out
    }
}

/// The tail sampler: outcome-aware retention over a bounded ring.
#[derive(Debug)]
pub struct TailSampler {
    keep_one_in: u64,
    capacity: usize,
    kept: Arc<Counter>,
    dropped: Arc<Counter>,
    evicted: Arc<Counter>,
    ring: Mutex<VecDeque<TraceRecord>>,
}

impl TailSampler {
    /// A sampler reporting into `obs`, keeping 1-in-`keep_one_in` of
    /// unremarkable traces in a ring of `capacity` entries.
    pub fn new(obs: &Obs, keep_one_in: u64, capacity: usize) -> TailSampler {
        TailSampler {
            keep_one_in: keep_one_in.max(1),
            capacity: capacity.max(1),
            kept: obs.counter(names::BP_TRACE_SAMPLER_KEPT),
            dropped: obs.counter(names::BP_TRACE_SAMPLER_DROPPED),
            evicted: obs.counter(names::BP_TRACE_SAMPLER_EVICTED),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The tail decision for one finished request. Returns whether the
    /// record was retained. Deadline misses, truncations, and errors are
    /// always kept; of the rest, exactly the IDs with
    /// `trace_id % keep_one_in == 0` survive.
    pub fn offer(&self, mut record: TraceRecord) -> bool {
        let keep = record.outcome.always_keep() || record.trace_id.is_multiple_of(self.keep_one_in);
        if !keep {
            self.dropped.inc();
            return false;
        }
        if record.unix_ms == 0 {
            record.unix_ms = crate::clock::unix_time_ms();
        }
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.inc();
        }
        ring.push_back(record);
        drop(ring);
        self.kept.inc();
        true
    }

    /// Attaches a rendered span tree to a retained trace. A no-op when
    /// the ID was dropped or already evicted — tree attachment is
    /// opportunistic (span collection is periodic under `serve`).
    pub fn attach_tree(&self, trace_id: u64, tree: String) {
        let mut ring = self.ring.lock();
        if let Some(record) = ring.iter_mut().rev().find(|r| r.trace_id == trace_id) {
            record.tree = Some(tree);
        }
    }

    /// All retained traces, oldest first.
    pub fn retained(&self) -> Vec<TraceRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Retained traces matching every given filter, oldest first:
    /// latency at least `min_us`, path containing `path`, exact `id`.
    pub fn search(
        &self,
        min_us: Option<u64>,
        path: Option<&str>,
        id: Option<u64>,
    ) -> Vec<TraceRecord> {
        self.ring
            .lock()
            .iter()
            .filter(|r| min_us.is_none_or(|m| r.elapsed_us >= m))
            .filter(|r| path.is_none_or(|p| r.path.contains(p)))
            .filter(|r| id.is_none_or(|i| r.trace_id == i))
            .cloned()
            .collect()
    }

    /// The slowest retained deadline-missing traces, worst first, as
    /// `(trace_id, elapsed_us)` pairs — the SLO fast-burn alert cites
    /// these so an operator can jump straight to `/tracez?id=`.
    pub fn worst_offenders(&self, n: usize) -> Vec<(u64, u64)> {
        let mut misses: Vec<(u64, u64)> = self
            .ring
            .lock()
            .iter()
            .filter(|r| r.outcome == TraceOutcome::DeadlineMiss)
            .map(|r| (r.trace_id, r.elapsed_us))
            .collect();
        misses.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        misses.truncate(n);
        misses
    }
}

/// The process-wide sampler every query path's tail decision lands in
/// (counters report into [`Obs::global`]).
pub fn global() -> &'static TailSampler {
    static GLOBAL: OnceLock<TailSampler> = OnceLock::new();
    GLOBAL.get_or_init(|| TailSampler::new(&Obs::global(), DEFAULT_KEEP_ONE_IN, DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, elapsed_us: u64, outcome: TraceOutcome) -> TraceRecord {
        TraceRecord {
            trace_id: id,
            path: "context",
            elapsed_us,
            outcome,
            unix_ms: 1,
            tree: None,
        }
    }

    #[test]
    fn keeps_every_interesting_outcome_and_one_in_n_of_the_rest() {
        let obs = Obs::isolated();
        let sampler = TailSampler::new(&obs, 16, 64);
        // IDs 1..=48: exactly 16 and 32 and 48 are divisible by 16.
        for id in 1..=48 {
            sampler.offer(record(id, 100, TraceOutcome::Ok));
        }
        assert!(sampler.offer(record(1001, 300_000, TraceOutcome::DeadlineMiss)));
        assert!(sampler.offer(record(1002, 900, TraceOutcome::Truncated)));
        assert!(sampler.offer(record(1003, 50, TraceOutcome::Error)));
        assert_eq!(obs.counter(names::BP_TRACE_SAMPLER_KEPT).get(), 3 + 3);
        assert_eq!(obs.counter(names::BP_TRACE_SAMPLER_DROPPED).get(), 45);
        assert_eq!(obs.counter(names::BP_TRACE_SAMPLER_EVICTED).get(), 0);
        let kept: Vec<u64> = sampler.retained().iter().map(|r| r.trace_id).collect();
        assert_eq!(kept, vec![16, 32, 48, 1001, 1002, 1003]);
    }

    #[test]
    fn decision_is_deterministic_in_the_trace_id() {
        let a = TailSampler::new(&Obs::isolated(), 4, 8);
        let b = TailSampler::new(&Obs::isolated(), 4, 8);
        for id in 1..=40 {
            assert_eq!(
                a.offer(record(id, 10, TraceOutcome::Ok)),
                b.offer(record(id, 10, TraceOutcome::Ok)),
                "id {id} sampled differently across instances"
            );
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_evictions() {
        let obs = Obs::isolated();
        let sampler = TailSampler::new(&obs, 1, 4);
        for id in 1..=10 {
            sampler.offer(record(id, id * 10, TraceOutcome::Ok));
        }
        let kept: Vec<u64> = sampler.retained().iter().map(|r| r.trace_id).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]);
        assert_eq!(obs.counter(names::BP_TRACE_SAMPLER_KEPT).get(), 10);
        assert_eq!(obs.counter(names::BP_TRACE_SAMPLER_EVICTED).get(), 6);
    }

    #[test]
    fn search_filters_compose() {
        let sampler = TailSampler::new(&Obs::isolated(), 1, 16);
        sampler.offer(TraceRecord {
            path: "lineage",
            ..record(1, 50, TraceOutcome::Ok)
        });
        sampler.offer(record(2, 250_000, TraceOutcome::DeadlineMiss));
        sampler.offer(record(3, 400_000, TraceOutcome::DeadlineMiss));
        let slow = sampler.search(Some(200_000), None, None);
        assert_eq!(slow.len(), 2);
        let by_path = sampler.search(None, Some("line"), None);
        assert_eq!(by_path.len(), 1);
        assert_eq!(by_path[0].trace_id, 1);
        let by_id = sampler.search(None, None, Some(3));
        assert_eq!(by_id.len(), 1);
        assert_eq!(by_id[0].elapsed_us, 400_000);
        assert!(sampler.search(Some(1), Some("lineage"), Some(2)).is_empty());
    }

    #[test]
    fn worst_offenders_are_misses_sorted_by_latency() {
        let sampler = TailSampler::new(&Obs::isolated(), 1, 16);
        sampler.offer(record(1, 999_999, TraceOutcome::Truncated));
        sampler.offer(record(2, 210_000, TraceOutcome::DeadlineMiss));
        sampler.offer(record(3, 500_000, TraceOutcome::DeadlineMiss));
        sampler.offer(record(4, 300_000, TraceOutcome::DeadlineMiss));
        assert_eq!(sampler.worst_offenders(2), vec![(3, 500_000), (4, 300_000)]);
    }

    #[test]
    fn attach_tree_targets_the_retained_record() {
        let sampler = TailSampler::new(&Obs::isolated(), 1, 16);
        sampler.offer(record(7, 100, TraceOutcome::Ok));
        sampler.attach_tree(7, "query.context  1ms\n".to_owned());
        sampler.attach_tree(999, "orphan\n".to_owned()); // no-op
        let retained = sampler.retained();
        assert_eq!(retained[0].tree.as_deref(), Some("query.context  1ms\n"));
        let json = retained[0].to_json();
        assert!(json.contains("\"tree\":\"query.context"), "{json}");
        assert!(crate::json::parse(&json).is_ok(), "{json}");
    }
}
