//! Time sources for instrumentation.
//!
//! All bp-obs timing flows through a [`ClockHandle`] so that code under
//! test can swap the process-wide monotonic clock for a [`MockClock`] and
//! drive time by hand (deadline tests, latency assertions). Production
//! code pays one virtual call per reading; readings are monotonic
//! microseconds since an arbitrary process-local anchor.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A monotonic microsecond source.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds elapsed since this clock's anchor.
    fn now_micros(&self) -> u64;
}

/// The process monotonic clock ([`Instant`] behind a shared anchor).
#[derive(Debug, Default, Clone, Copy)]
pub struct RealClock;

#[expect(
    clippy::disallowed_methods,
    reason = "the process-wide monotonic anchor behind RealClock"
)]
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

impl Clock for RealClock {
    fn now_micros(&self) -> u64 {
        anchor().elapsed().as_micros() as u64
    }
}

/// A hand-driven clock for tests: time only moves when told to, or — with
/// [`MockClock::set_auto_tick_micros`] — by a fixed step per reading, so
/// deadline loops expire deterministically without real sleeps.
#[derive(Debug, Default)]
pub struct MockClock {
    micros: AtomicU64,
    auto_tick_us: AtomicU64,
}

impl MockClock {
    /// A mock clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.micros
            .fetch_add(d.as_micros() as u64, Ordering::SeqCst);
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_micros(&self, us: u64) {
        self.micros.fetch_add(us, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute reading.
    pub fn set_micros(&self, us: u64) {
        self.micros.store(us, Ordering::SeqCst);
    }

    /// Makes every subsequent reading advance the clock by `us`
    /// microseconds (after returning the pre-tick value). Zero — the
    /// default — restores fully manual time.
    pub fn set_auto_tick_micros(&self, us: u64) {
        self.auto_tick_us.store(us, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_micros(&self) -> u64 {
        let tick = self.auto_tick_us.load(Ordering::SeqCst);
        if tick == 0 {
            self.micros.load(Ordering::SeqCst)
        } else {
            self.micros.fetch_add(tick, Ordering::SeqCst)
        }
    }
}

/// A cheaply clonable handle to some [`Clock`].
#[derive(Clone, Debug)]
pub struct ClockHandle(Arc<dyn Clock>);

impl Default for ClockHandle {
    fn default() -> Self {
        Self::real()
    }
}

impl ClockHandle {
    /// The process-wide real monotonic clock.
    pub fn real() -> Self {
        ClockHandle(Arc::new(RealClock))
    }

    /// A fresh mock clock plus a handle for advancing it.
    pub fn mock() -> (Self, Arc<MockClock>) {
        let mock = Arc::new(MockClock::new());
        (ClockHandle(mock.clone()), mock)
    }

    /// Wraps an arbitrary clock implementation.
    pub fn from_clock(clock: Arc<dyn Clock>) -> Self {
        ClockHandle(clock)
    }

    /// Current reading in microseconds since the clock's anchor.
    pub fn now_micros(&self) -> u64 {
        self.0.now_micros()
    }

    /// Starts a stopwatch at the current reading.
    pub fn start(&self) -> Stopwatch {
        Stopwatch {
            clock: self.clone(),
            start_micros: self.now_micros(),
        }
    }
}

static MOCK_UNIX_MS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Wall-clock milliseconds since the Unix epoch.
///
/// This is the workspace's one sanctioned wall-clock read (everything else
/// is monotonic and flows through [`ClockHandle`]; clippy's
/// `disallowed_methods`, configured in `clippy.toml`, enforces both).
/// Journal entries need calendar time, which an anchored monotonic clock
/// cannot provide. Tests can pin the value with [`set_mock_unix_time_ms`].
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one wall-clock read; journal entries need calendar time"
)]
pub fn unix_time_ms() -> u64 {
    let mock = MOCK_UNIX_MS.load(Ordering::Relaxed);
    if mock != u64::MAX {
        return mock;
    }
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX - 1))
        .unwrap_or(0)
}

/// Pins (`Some`) or releases (`None`) the value [`unix_time_ms`] returns.
/// Test-only in spirit; `u64::MAX` is reserved as the "not mocked" state.
pub fn set_mock_unix_time_ms(ms: Option<u64>) {
    MOCK_UNIX_MS.store(ms.unwrap_or(u64::MAX), Ordering::Relaxed);
}

/// Measures elapsed time against the [`ClockHandle`] it was started from.
#[derive(Clone, Debug)]
pub struct Stopwatch {
    clock: ClockHandle,
    start_micros: u64,
}

impl Stopwatch {
    /// Microseconds since the stopwatch started.
    pub fn elapsed_micros(&self) -> u64 {
        self.clock.now_micros().saturating_sub(self.start_micros)
    }

    /// Elapsed time since the stopwatch started.
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.elapsed_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let clock = ClockHandle::real();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_moves_only_when_told() {
        let (clock, mock) = ClockHandle::mock();
        let sw = clock.start();
        assert_eq!(sw.elapsed_micros(), 0);
        mock.advance(Duration::from_millis(3));
        assert_eq!(sw.elapsed(), Duration::from_millis(3));
        mock.advance_micros(7);
        assert_eq!(sw.elapsed_micros(), 3_007);
        mock.set_micros(1);
        // Going backwards saturates rather than underflowing.
        assert_eq!(sw.elapsed_micros(), 1);
    }

    #[test]
    fn auto_tick_advances_per_reading() {
        let (clock, mock) = ClockHandle::mock();
        mock.set_auto_tick_micros(250);
        assert_eq!(clock.now_micros(), 0);
        assert_eq!(clock.now_micros(), 250);
        assert_eq!(clock.now_micros(), 500);
        mock.set_auto_tick_micros(0);
        assert_eq!(clock.now_micros(), 750);
        assert_eq!(clock.now_micros(), 750, "manual mode holds still again");
    }

    #[test]
    fn unix_time_can_be_pinned() {
        set_mock_unix_time_ms(Some(1_234_567));
        assert_eq!(unix_time_ms(), 1_234_567);
        set_mock_unix_time_ms(None);
        assert!(unix_time_ms() > 1_600_000_000_000, "should be real time");
    }

    #[test]
    fn stopwatch_starts_at_current_reading() {
        let (clock, mock) = ClockHandle::mock();
        mock.set_micros(500);
        let sw = clock.start();
        mock.set_micros(650);
        assert_eq!(sw.elapsed_micros(), 150);
    }
}
