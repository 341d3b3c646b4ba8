//! Timestamps and open/close intervals.
//!
//! Firefox time-stamps page *visits* but records no corresponding close
//! event, so "it is impossible to determine whether two pages were open
//! simultaneously; from the perspective of Firefox history, every page is
//! always open" (§3.2). This module supplies the missing piece: a
//! [`TimeInterval`] pairing an open timestamp with an optional close
//! timestamp, plus the overlap predicate that powers time-contextual search.

use crate::error::GraphError;
use core::fmt;
use std::time::Duration;

/// A point in time, in microseconds since an arbitrary epoch.
///
/// Firefox Places stores visit dates as microseconds since the Unix epoch
/// (`PRTime`); we keep the same unit so size accounting against the Places
/// baseline is apples-to-apples.
///
/// # Examples
///
/// ```
/// use bp_graph::Timestamp;
/// let t = Timestamp::from_micros(1_000_000);
/// assert_eq!(t.as_secs(), 1);
/// assert!(t < t.plus_micros(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// The zero timestamp (the epoch itself).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from microseconds since the epoch.
    #[inline]
    pub const fn from_micros(micros: i64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from whole seconds since the epoch.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Returns microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Returns whole seconds since the epoch (truncating).
    #[inline]
    pub const fn as_secs(self) -> i64 {
        self.0 / 1_000_000
    }

    /// Returns this timestamp advanced by `micros` microseconds.
    #[inline]
    #[must_use]
    pub const fn plus_micros(self, micros: i64) -> Self {
        Timestamp(self.0 + micros)
    }

    /// Returns this timestamp advanced by a [`Duration`].
    #[inline]
    #[must_use]
    pub fn plus(self, d: Duration) -> Self {
        Timestamp(self.0 + d.as_micros() as i64)
    }

    /// Returns the absolute distance between two timestamps.
    #[inline]
    pub fn distance(self, other: Timestamp) -> Duration {
        Duration::from_micros((self.0 - other.0).unsigned_abs())
    }

    /// Signed difference `self - other` in microseconds.
    #[inline]
    pub const fn micros_since(self, other: Timestamp) -> i64 {
        self.0 - other.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

/// A half-open interval during which a history object was "open".
///
/// `close` is `None` while the object is still open — e.g. a tab that has
/// not been closed, or the trailing page of a session. A still-open
/// interval extends to infinity for the purposes of [`overlaps`].
///
/// [`overlaps`]: TimeInterval::overlaps
///
/// # Examples
///
/// ```
/// use bp_graph::{TimeInterval, Timestamp};
/// let a = TimeInterval::closed(Timestamp::from_secs(0), Timestamp::from_secs(10));
/// let b = TimeInterval::closed(Timestamp::from_secs(5), Timestamp::from_secs(15));
/// let c = TimeInterval::closed(Timestamp::from_secs(11), Timestamp::from_secs(12));
/// assert!(a.overlaps(&b));
/// assert!(!a.overlaps(&c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeInterval {
    open: Timestamp,
    close: Option<Timestamp>,
}

impl TimeInterval {
    /// Creates an interval that has been opened but not yet closed.
    #[inline]
    pub const fn open_at(open: Timestamp) -> Self {
        TimeInterval { open, close: None }
    }

    /// Creates a closed interval.
    ///
    /// # Panics
    ///
    /// Panics if `close` precedes `open`; a page cannot close before it
    /// opens.
    #[inline]
    pub fn closed(open: Timestamp, close: Timestamp) -> Self {
        assert!(close >= open, "interval closes before it opens");
        TimeInterval {
            open,
            close: Some(close),
        }
    }

    /// The opening timestamp.
    #[inline]
    pub const fn open(&self) -> Timestamp {
        self.open
    }

    /// The closing timestamp, if the interval has been closed.
    #[inline]
    pub const fn close(&self) -> Option<Timestamp> {
        self.close
    }

    /// Returns `true` if the interval has not been closed.
    #[inline]
    pub const fn is_open(&self) -> bool {
        self.close.is_none()
    }

    /// Checks that the interval may close at `close`.
    ///
    /// # Errors
    ///
    /// [`GraphError::ClosesBeforeOpen`] if `close` precedes the opening
    /// timestamp.
    #[inline]
    pub fn check_close(&self, close: Timestamp) -> Result<(), GraphError> {
        if close < self.open {
            return Err(GraphError::ClosesBeforeOpen {
                open: self.open,
                close,
            });
        }
        Ok(())
    }

    /// Closes the interval at `close`.
    ///
    /// # Errors
    ///
    /// [`GraphError::ClosesBeforeOpen`] if `close` precedes the opening
    /// timestamp; the interval is left as it was.
    #[inline]
    pub fn close_at(&mut self, close: Timestamp) -> Result<(), GraphError> {
        self.check_close(close)?;
        self.close = Some(close);
        Ok(())
    }

    /// Duration of the interval, or `None` if it is still open.
    #[inline]
    pub fn duration(&self) -> Option<Duration> {
        self.close.map(|c| c.distance(self.open))
    }

    /// Returns `true` if the two intervals share any instant.
    ///
    /// Still-open intervals are treated as extending to infinity, matching
    /// the paper's observation that without close records "every page is
    /// always open" — here only genuinely unclosed pages behave that way.
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        let self_ends_before_other_starts = matches!(self.close, Some(c) if c < other.open);
        let other_ends_before_self_starts = matches!(other.close, Some(c) if c < self.open);
        !(self_ends_before_other_starts || other_ends_before_self_starts)
    }

    /// Returns `true` if `t` lies inside the interval.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.open && self.close.is_none_or(|c| t <= c)
    }

    /// Returns `true` if the two intervals are within `gap` of one another
    /// (overlapping intervals trivially satisfy this).
    ///
    /// Time-contextual search (§2.3) treats pages viewed "within a similar
    /// time span" as related even when their open intervals do not strictly
    /// overlap; `gap` sets how generous that span is.
    pub fn within(&self, other: &TimeInterval, gap: Duration) -> bool {
        if self.overlaps(other) {
            return true;
        }
        let gap_us = gap.as_micros() as i64;
        if let Some(c) = self.close {
            if other.open.micros_since(c) >= 0 && other.open.micros_since(c) <= gap_us {
                return true;
            }
        }
        if let Some(c) = other.close {
            if self.open.micros_since(c) >= 0 && self.open.micros_since(c) <= gap_us {
                return true;
            }
        }
        false
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.close {
            Some(c) => write!(f, "[{}, {}]", self.open, c),
            None => write!(f, "[{}, ...)", self.open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_micros(500);
        assert_eq!(t.plus_micros(500).as_micros(), 1000);
        assert_eq!(
            t.plus(Duration::from_micros(500)),
            Timestamp::from_micros(1000)
        );
        assert_eq!(secs(2).micros_since(secs(1)), 1_000_000);
        assert_eq!(secs(1).distance(secs(3)), Duration::from_secs(2));
        assert_eq!(secs(3).distance(secs(1)), Duration::from_secs(2));
    }

    #[test]
    fn closed_interval_basics() {
        let iv = TimeInterval::closed(secs(1), secs(5));
        assert!(!iv.is_open());
        assert_eq!(iv.duration(), Some(Duration::from_secs(4)));
        assert!(iv.contains(secs(3)));
        assert!(!iv.contains(secs(6)));
        assert!(iv.contains(secs(1)));
        assert!(iv.contains(secs(5)));
    }

    #[test]
    fn open_interval_extends_forever() {
        let iv = TimeInterval::open_at(secs(10));
        assert!(iv.is_open());
        assert_eq!(iv.duration(), None);
        assert!(iv.contains(secs(1_000_000)));
        assert!(!iv.contains(secs(9)));
        let other = TimeInterval::closed(secs(100), secs(200));
        assert!(iv.overlaps(&other));
    }

    #[test]
    #[should_panic(expected = "closes before it opens")]
    fn closed_interval_rejects_inverted_bounds() {
        let _ = TimeInterval::closed(secs(5), secs(1));
    }

    #[test]
    fn close_at_transitions() {
        let mut iv = TimeInterval::open_at(secs(1));
        iv.close_at(secs(4)).unwrap();
        assert_eq!(iv.close(), Some(secs(4)));
        assert!(!iv.overlaps(&TimeInterval::open_at(secs(5))));
    }

    #[test]
    fn a_close_before_the_open_is_rejected() {
        let mut iv = TimeInterval::open_at(secs(5));
        assert_eq!(
            iv.close_at(secs(4)),
            Err(GraphError::ClosesBeforeOpen {
                open: secs(5),
                close: secs(4)
            })
        );
        assert!(iv.is_open(), "a rejected close leaves the interval open");
        iv.close_at(secs(5)).unwrap();
        assert_eq!(iv.close(), Some(secs(5)));
    }

    #[test]
    fn overlap_cases() {
        let a = TimeInterval::closed(secs(0), secs(10));
        assert!(a.overlaps(&TimeInterval::closed(secs(5), secs(15))));
        assert!(
            a.overlaps(&TimeInterval::closed(secs(10), secs(20))),
            "touching counts"
        );
        assert!(!a.overlaps(&TimeInterval::closed(secs(11), secs(12))));
        assert!(
            a.overlaps(&TimeInterval::closed(secs(2), secs(3))),
            "containment"
        );
        // Symmetry.
        let b = TimeInterval::closed(secs(5), secs(15));
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn within_gap() {
        let a = TimeInterval::closed(secs(0), secs(10));
        let b = TimeInterval::closed(secs(12), secs(20));
        assert!(!a.overlaps(&b));
        assert!(a.within(&b, Duration::from_secs(5)));
        assert!(!a.within(&b, Duration::from_secs(1)));
        assert!(b.within(&a, Duration::from_secs(5)), "within is symmetric");
    }

    #[test]
    fn both_open_intervals_always_overlap() {
        let a = TimeInterval::open_at(secs(1));
        let b = TimeInterval::open_at(secs(1_000));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn display_renders_open_and_closed() {
        assert_eq!(
            TimeInterval::closed(secs(0), secs(1)).to_string(),
            "[0us, 1000000us]"
        );
        assert!(TimeInterval::open_at(secs(0)).to_string().ends_with("...)"));
    }
}
