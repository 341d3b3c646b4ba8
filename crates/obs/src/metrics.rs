//! The metrics registry: named counters, gauges, and log₂ histograms.
//!
//! Handles returned by the registry are `Arc`s; hot paths resolve a metric
//! once at construction time and then touch only atomics. A counter is one
//! atomic: no workload has many cores writing one counter at once.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: one zero bucket plus one per power of two
/// up to `2^63..=u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// An instantaneous signed level (queue depth, resident rows, bytes held).
#[derive(Default, Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Moves the level up by `n`.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Moves the level down by `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Maps a sample to its log₂ bucket: 0 → bucket 0, otherwise
/// `floor(log2(v)) + 1`, so bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` range of samples landing in bucket `idx`.
///
/// # Panics
///
/// Panics if `idx >= HISTOGRAM_BUCKETS`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < HISTOGRAM_BUCKETS, "bucket {idx} out of range");
    if idx == 0 {
        (0, 0)
    } else if idx == HISTOGRAM_BUCKETS - 1 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (idx - 1), (1u64 << idx) - 1)
    }
}

/// A lock-free log₂-bucketed histogram of `u64` samples (typically
/// microseconds). Records are constant-time; quantiles come from a
/// [`HistogramSnapshot`].
///
/// When a [`crate::trace::Context`] is active on the recording thread,
/// each bucket also remembers the last trace ID + value that landed in
/// it — the *exemplar* that lets a dashboard jump from a latency bucket
/// to one concrete retained trace. The (id, value) pair is written with
/// two relaxed stores: a racing pair may interleave the ID of one sample
/// with the value of another, but both landed in the same bucket, so
/// either combination is a valid exemplar of that bucket.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    exemplar_ids: [AtomicU64; HISTOGRAM_BUCKETS],
    exemplar_values: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            exemplar_ids: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            exemplar_values: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample. When a trace context is active on this thread,
    /// the sample's bucket adopts it as the bucket's exemplar (trace IDs
    /// are never zero, so a zero slot means "no exemplar yet").
    pub fn record(&self, value: u64) {
        let idx = bucket_index(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        if let Some(id) = crate::trace::current_id() {
            self.exemplar_ids[idx].store(id, Ordering::Relaxed);
            self.exemplar_values[idx].store(value, Ordering::Relaxed);
        }
    }

    /// Records a [`std::time::Duration`] in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for quantile readout and exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            exemplars: (0..HISTOGRAM_BUCKETS)
                .filter_map(|i| {
                    let trace_id = self.exemplar_ids[i].load(Ordering::Relaxed);
                    (trace_id != 0).then(|| BucketExemplar {
                        bucket: i,
                        trace_id,
                        value: self.exemplar_values[i].load(Ordering::Relaxed),
                    })
                })
                .collect(),
        }
    }

    /// Folds another histogram's snapshot into this one (used when merging
    /// metrics persisted by an earlier process). Exemplars are *not*
    /// merged: a trace ID from an earlier process points at a trace ring
    /// that no longer exists, so carrying it over would mint dead links.
    pub fn merge(&self, other: &HistogramSnapshot) {
        for (i, n) in other.buckets.iter().enumerate() {
            if *n > 0 {
                self.buckets[i].fetch_add(*n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
        self.max.fetch_max(other.max, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50())
            .field("max", &s.max)
            .finish()
    }
}

/// One bucket's exemplar: the last traced sample that landed in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketExemplar {
    /// Bucket index (see [`bucket_bounds`]).
    pub bucket: usize,
    /// Trace ID of the sample (never zero).
    pub trace_id: u64,
    /// The sample value itself.
    pub value: u64,
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Per-bucket exemplars (only buckets that have one), ascending by
    /// bucket index. Ephemeral: not persisted by the snapshot format and
    /// not carried by [`Histogram::merge`].
    pub exemplars: Vec<BucketExemplar>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            exemplars: Vec::new(),
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q ≤ 1): the upper
    /// edge of the bucket containing that rank, clamped to the observed
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Interpolated estimate of the `q`-quantile (0 < q ≤ 1): the rank is
    /// located in its log₂ bucket and positioned linearly within the
    /// bucket's `[lo, hi]` range (samples assumed uniform inside a
    /// bucket), clamped to the observed maximum. Tighter than
    /// [`HistogramSnapshot::quantile`]'s upper bound — exact for data
    /// uniform within buckets, and never off by more than one bucket
    /// width. Returns 0 when empty.
    pub fn quantile_interpolated(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let below = seen as f64;
            seen += n;
            if (seen as f64) >= rank {
                let (lo, hi) = bucket_bounds(i);
                // The observed max tightens the top bucket's upper edge
                // (for lower buckets hi < max already).
                let hi = hi.min(self.max);
                // Fraction of this bucket's samples at or below the rank.
                let frac = ((rank - below) / *n as f64).clamp(0.0, 1.0);
                let width = hi.saturating_sub(lo) as f64;
                let value = lo as f64 + frac * width;
                return (value.round() as u64).min(self.max);
            }
        }
        self.max
    }

    /// Interpolated median.
    pub fn p50(&self) -> u64 {
        self.quantile_interpolated(0.50)
    }

    /// Interpolated 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile_interpolated(0.95)
    }

    /// Interpolated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile_interpolated(0.99)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every metric in a registry, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Named metric store. Lookup takes a read lock; first use of a name takes
/// a write lock once. Callers on hot paths should resolve handles up front.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().get(name) {
        return found.clone();
    }
    map.write()
        .entry(name.to_owned())
        .or_insert_with(|| Arc::new(T::default()))
        .clone()
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_adds() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn bucket_index_known_values() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_tile_the_domain() {
        assert_eq!(bucket_bounds(0), (0, 0));
        let mut expected_lo = 1u64;
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lower bound");
            assert!(hi >= lo);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(bucket_bounds(HISTOGRAM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 10, 100, 1000, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.max, 5000);
        assert!(s.p50() >= 3, "p50 {} under-estimates", s.p50());
        assert_eq!(s.p99(), 5000, "top quantile clamps to observed max");
        assert!(s.mean() > 0.0);
    }

    /// Exact quantile of a sample set, for ground truth: the smallest
    /// value with at least ⌈q·n⌉ samples at or below it.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn interpolated_quantiles_match_uniform_distribution() {
        // 1..=1000 uniformly: within a log2 bucket the data really is
        // uniform, so interpolation should land within a hair of exact.
        let h = Histogram::default();
        let samples: Vec<u64> = (1..=1000).collect();
        for &v in &samples {
            h.record(v);
        }
        let s = h.snapshot();
        for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99] {
            let exact = exact_quantile(&samples, q);
            let est = s.quantile_interpolated(q);
            let err = est.abs_diff(exact);
            assert!(
                err <= 2,
                "q={q}: interpolated {est} vs exact {exact} (err {err})"
            );
            // The interpolated estimate never exceeds the upper bound.
            assert!(
                est <= s.quantile(q),
                "q={q}: {est} > bound {}",
                s.quantile(q)
            );
        }
    }

    #[test]
    fn interpolated_quantiles_on_skewed_distribution_stay_in_bucket() {
        // Heavily skewed: 90 fast samples at ~100, 10 slow at ~100_000.
        let h = Histogram::default();
        let mut samples = Vec::new();
        for i in 0..90u64 {
            samples.push(100 + i);
        }
        for i in 0..10u64 {
            samples.push(100_000 + 1000 * i);
        }
        for &v in &samples {
            h.record(v);
        }
        samples.sort();
        let s = h.snapshot();
        for q in [0.50, 0.95, 0.99] {
            let exact = exact_quantile(&samples, q);
            let est = s.quantile_interpolated(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                (lo..=hi).contains(&est) || est == s.max.min(hi),
                "q={q}: estimate {est} outside exact value's bucket [{lo}, {hi}]"
            );
        }
        // p50 sits in the fast mode, p99 in the slow tail.
        assert!(s.p50() < 1000, "p50 {}", s.p50());
        assert!(s.p99() >= 100_000, "p99 {}", s.p99());
    }

    #[test]
    fn interpolated_quantile_edge_cases() {
        let empty = HistogramSnapshot::empty();
        assert_eq!(empty.quantile_interpolated(0.5), 0);

        // All-zero samples: bucket 0 has zero width.
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().quantile_interpolated(0.99), 0);

        // One sample: every quantile is that sample.
        let h = Histogram::default();
        h.record(777);
        let s = h.snapshot();
        assert_eq!(s.quantile_interpolated(0.01), s.quantile_interpolated(0.99));
        assert!(s.quantile_interpolated(0.5) <= 777);
        // Clamped to the observed max at the top.
        assert_eq!(s.quantile_interpolated(1.0), 777.min(s.max));
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = Histogram::default();
        a.record(5);
        let b = Histogram::default();
        b.record(1000);
        b.record(7);
        a.merge(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1012);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn registry_returns_same_instance_per_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x").get(), 2);
        r.gauge("g").set(3);
        r.histogram("h").record(9);
        let snap = r.snapshot();
        assert_eq!(snap.counters["x"], 2);
        assert_eq!(snap.gauges["g"], 3);
        assert_eq!(snap.histograms["h"].count, 1);
    }
}
