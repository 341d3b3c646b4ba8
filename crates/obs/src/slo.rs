//! An in-process SLO engine: error budgets and multi-window burn rates.
//!
//! The paper's operational claim is a 200 ms interactive bound on
//! provenance queries. This module tracks that bound as a *service level
//! objective* — "≥ 99% of deadline-classified queries hit the deadline" —
//! and evaluates Google-SRE-style multi-window burn-rate rules over it,
//! entirely in-process (no external alerting stack):
//!
//! * every finished query records one good/bad sample into per-second
//!   buckets ([`SloEngine::record`]);
//! * a periodic [`SloEngine::evaluate`] computes the burn rate — observed
//!   miss fraction divided by the error budget — over a short (5 m) and a
//!   long (1 h) window, publishes both as `bp_slo_burn_rate.*` gauges (in
//!   thousandths, since gauges are integers), and fires a latched alert on
//!   the rising edge of the fast-burn rule (both windows ≥ threshold).
//!
//! A burn rate of 1.0 (gauge value 1000) means the error budget is being
//! consumed exactly as fast as it accrues; 14.4 — the classic fast-burn
//! page threshold — exhausts a 30-day budget in ~2 days. Time comes from a
//! [`ClockHandle`], so tests drive whole windows with a mock clock and
//! assert the rule trips exactly once per burn episode (the latch resets
//! only after the rule clears). See EXPERIMENTS.md E9.

use crate::clock::ClockHandle;
use crate::log;
use crate::{names, Obs};
use parking_lot::Mutex;
use std::time::Duration;

/// Fraction of samples that must be good.
pub const OBJECTIVE: f64 = 0.99;
/// The short evaluation window, published as `bp_slo_burn_rate.5m`.
pub const SHORT_WINDOW: Duration = Duration::from_secs(5 * 60);
/// The long evaluation window, published as `bp_slo_burn_rate.1h`.
pub const LONG_WINDOW: Duration = Duration::from_secs(60 * 60);
/// Burn-rate threshold of the fast rule.
pub const FAST_BURN_THRESHOLD: f64 = 14.4;
/// Minimum samples in the short window before the rule may fire — a
/// single early miss is noise, not an incident.
pub const MIN_SAMPLES: u64 = 10;

/// One evaluation's readout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloStatus {
    /// Burn rate over the short window.
    pub short_burn: f64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// Samples inside the short window.
    pub short_samples: u64,
    /// Whether the fast-burn rule is currently firing (latched).
    pub firing: bool,
    /// Alerts fired since the engine started.
    pub alerts: u64,
}

/// One per-second sample bucket.
#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    second: u64,
    good: u64,
    bad: u64,
}

struct Inner {
    buckets: Vec<Bucket>,
    firing: bool,
    alerts: u64,
}

/// The engine. Cheap to record into (one mutex over a fixed array); meant
/// to be evaluated on a ~1 s cadence by the owning daemon.
pub struct SloEngine {
    obs: Obs,
    clock: ClockHandle,
    inner: Mutex<Inner>,
}

impl SloEngine {
    /// Builds an engine reporting into `obs`, timed by `clock`.
    pub fn new(obs: Obs, clock: ClockHandle) -> SloEngine {
        SloEngine {
            obs,
            clock,
            inner: Mutex::new(Inner {
                buckets: vec![Bucket::default(); LONG_WINDOW.as_secs() as usize],
                firing: false,
                alerts: 0,
            }),
        }
    }

    /// Records one sample: `good` means the query met its deadline.
    pub fn record(&self, good: bool) {
        let second = self.clock.now_micros() / 1_000_000;
        let mut inner = self.inner.lock();
        let len = inner.buckets.len() as u64;
        let bucket = &mut inner.buckets[(second % len) as usize];
        if bucket.second != second {
            *bucket = Bucket {
                second,
                good: 0,
                bad: 0,
            };
        }
        if good {
            bucket.good += 1;
        } else {
            bucket.bad += 1;
        }
        self.obs.counter(names::BP_SLO_SAMPLES_TOTAL).inc();
        if !good {
            self.obs.counter(names::BP_SLO_MISSES_TOTAL).inc();
        }
    }

    /// Sums `(good, bad)` over the trailing `window` ending at `now_sec`.
    fn window_totals(inner: &Inner, now_sec: u64, window: Duration) -> (u64, u64) {
        let span = window.as_secs().max(1);
        let oldest = now_sec.saturating_sub(span - 1);
        let mut good = 0;
        let mut bad = 0;
        for bucket in &inner.buckets {
            if bucket.second >= oldest && bucket.second <= now_sec && (bucket.good | bucket.bad) > 0
            {
                good += bucket.good;
                bad += bucket.bad;
            }
        }
        (good, bad)
    }

    fn burn(good: u64, bad: u64) -> f64 {
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / (1.0 - OBJECTIVE)
    }

    /// Evaluates both windows, publishes the burn gauges, and fires the
    /// fast-burn alert on its rising edge (a log event, kept by the flight
    /// recorder, and `bp_slo_alerts_total`). Returns the readout.
    pub fn evaluate(&self) -> SloStatus {
        let now_sec = self.clock.now_micros() / 1_000_000;
        let mut inner = self.inner.lock();
        let (short_good, short_bad) = Self::window_totals(&inner, now_sec, SHORT_WINDOW);
        let (long_good, long_bad) = Self::window_totals(&inner, now_sec, LONG_WINDOW);
        let short_burn = Self::burn(short_good, short_bad);
        let long_burn = Self::burn(long_good, long_bad);
        let short_samples = short_good + short_bad;

        self.obs
            .gauge(names::BP_SLO_BURN_RATE_5M)
            .set((short_burn * 1000.0) as i64);
        self.obs
            .gauge(names::BP_SLO_BURN_RATE_1H)
            .set((long_burn * 1000.0) as i64);

        let condition = short_samples >= MIN_SAMPLES
            && short_burn >= FAST_BURN_THRESHOLD
            && long_burn >= FAST_BURN_THRESHOLD;
        if condition && !inner.firing {
            inner.firing = true;
            inner.alerts += 1;
            self.obs.counter(names::BP_SLO_ALERTS_TOTAL).inc();
            let message = format!(
                "SLO fast burn: burn rate {short_burn:.1}x over 5m / {long_burn:.1}x over 1h \
                 (threshold {FAST_BURN_THRESHOLD}x) — the {}% objective is burning its error budget",
                OBJECTIVE * 100.0,
            );
            // Name names: the tail sampler always retains deadline-missed
            // traces, so the alert line links straight to the worst
            // offenders an operator should pull up via `/tracez?id=`.
            let worst = crate::sampler::global()
                .worst_offenders(3)
                .into_iter()
                .map(|(id, _)| crate::trace::format_trace_id(id))
                .collect::<Vec<_>>()
                .join(",");
            let mut fields = vec![
                ("short_burn", format!("{short_burn:.3}")),
                ("long_burn", format!("{long_burn:.3}")),
            ];
            if !worst.is_empty() {
                fields.push(("worst_traces", worst));
            }
            log::error("bp_obs::slo", &message, &fields);
        } else if !condition && inner.firing {
            inner.firing = false;
            log::info(
                "bp_obs::slo",
                "SLO fast burn cleared",
                &[("short_burn", format!("{short_burn:.3}"))],
            );
        }
        SloStatus {
            short_burn,
            long_burn,
            short_samples,
            firing: inner.firing,
            alerts: inner.alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> (SloEngine, std::sync::Arc<crate::MockClock>, Obs) {
        let (clock, mock) = ClockHandle::mock();
        let obs = Obs::isolated();
        (SloEngine::new(obs.clone(), clock), mock, obs)
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let (engine, mock, obs) = engine();
        for _ in 0..300 {
            mock.advance(Duration::from_secs(1));
            for _ in 0..5 {
                engine.record(true);
            }
            let status = engine.evaluate();
            assert!(!status.firing);
        }
        assert_eq!(obs.counter(names::BP_SLO_ALERTS_TOTAL).get(), 0);
        assert_eq!(obs.gauge(names::BP_SLO_BURN_RATE_5M).get(), 0);
    }

    #[test]
    fn sustained_misses_trip_the_fast_rule_exactly_once() {
        let (engine, mock, obs) = engine();
        // 60 s of pure misses: burn = (1.0 miss fraction) / 0.01 budget =
        // 100x in both windows — far past 14.4.
        let mut alerts_seen = 0;
        for _ in 0..60 {
            mock.advance(Duration::from_secs(1));
            engine.record(false);
            let status = engine.evaluate();
            if status.firing {
                alerts_seen = status.alerts;
            }
        }
        assert_eq!(alerts_seen, 1, "latch must fire exactly once");
        assert_eq!(obs.counter(names::BP_SLO_ALERTS_TOTAL).get(), 1);
        assert!(obs.gauge(names::BP_SLO_BURN_RATE_5M).get() >= 14_400);
        assert!(obs.gauge(names::BP_SLO_BURN_RATE_1H).get() >= 14_400);
        // The alert reached the flight recorder.
        let flight = crate::flight::global().snapshot();
        assert!(
            flight
                .iter()
                .any(|e| e.event.target == "bp_obs::slo"
                    && e.event.message.contains("SLO fast burn")),
            "no fast-burn alert among {} flight entries",
            flight.len()
        );
    }

    #[test]
    fn latch_resets_after_recovery_and_can_refire() {
        let (engine, mock, obs) = engine();
        for _ in 0..30 {
            mock.advance(Duration::from_secs(1));
            engine.record(false);
            engine.evaluate();
        }
        assert_eq!(obs.counter(names::BP_SLO_ALERTS_TOTAL).get(), 1);
        // Long quiet recovery: both windows age the misses out.
        mock.advance(Duration::from_secs(2 * 3600));
        for _ in 0..60 {
            mock.advance(Duration::from_secs(1));
            engine.record(true);
            let status = engine.evaluate();
            assert!(!status.firing, "rule must clear after recovery");
        }
        // A second burn episode fires a second alert.
        for _ in 0..30 {
            mock.advance(Duration::from_secs(1));
            engine.record(false);
            engine.evaluate();
        }
        assert_eq!(obs.counter(names::BP_SLO_ALERTS_TOTAL).get(), 2);
    }

    #[test]
    fn fast_burn_alert_names_the_worst_retained_traces() {
        // Seed the process-global tail sampler with a deadline-missed
        // trace, then trip the latch: the alert's log event must carry a
        // `worst_traces` field naming that trace ID.
        let miss_id: u64 = 0x5105_u64 << 32 | 0xfeed;
        crate::sampler::global().offer(crate::sampler::TraceRecord {
            trace_id: miss_id,
            path: "query.slo_test",
            elapsed_us: 987_654,
            outcome: crate::sampler::TraceOutcome::DeadlineMiss,
            unix_ms: 1,
            tree: None,
        });
        let (engine, mock, _obs) = engine();
        for _ in 0..30 {
            mock.advance(Duration::from_secs(1));
            engine.record(false);
            engine.evaluate();
        }
        let hex = crate::trace::format_trace_id(miss_id);
        let entry = crate::flight::global()
            .snapshot()
            .into_iter()
            .rev()
            .find(|e| {
                e.event.target == "bp_obs::slo"
                    && e.event
                        .fields
                        .iter()
                        .any(|(k, v)| k == "worst_traces" && v.contains(&hex))
            });
        assert!(entry.is_some(), "alert line should name trace {hex}");
    }

    #[test]
    fn min_samples_suppresses_early_noise() {
        let (engine, mock, _obs) = engine();
        mock.advance(Duration::from_secs(1));
        engine.record(false);
        let status = engine.evaluate();
        assert!(status.short_burn > 14.4, "one miss is a 100x burn rate");
        assert!(!status.firing, "but too few samples to page on");
    }
}
