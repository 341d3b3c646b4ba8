//! Wraparound stress tests for the one bounded event ring: the flight
//! recorder must survive many concurrent writers pushing far past
//! capacity without tearing entries, and must drain oldest-first.
//!
//! Torn-entry detection: every writer encodes `(writer, counter)` into the
//! event it records — in the message, the `unix_ms` stamp, and a field —
//! so any cross-contamination between two writers' entries is visible as a
//! mismatch between the three encodings.

use bp_obs::flight::{FlightEntry, FlightRecorder};
use bp_obs::{LogEvent, LogLevel};
use std::sync::Arc;

const WRITERS: u64 = 8;
const PER_WRITER: u64 = 4_000;

fn encoded_event(writer: u64, counter: u64) -> LogEvent {
    let token = writer * 1_000_000 + counter;
    LogEvent {
        unix_ms: token,
        level: LogLevel::Info,
        target: format!("writer{writer}"),
        message: format!("w{writer}c{counter}"),
        fields: vec![("token".to_owned(), token.to_string())],
    }
}

/// Panics unless every encoding inside `entry` agrees on one
/// `(writer, counter)` pair — i.e. the entry is not torn.
fn assert_consistent(entry: &FlightEntry) {
    let writer = entry.event.unix_ms / 1_000_000;
    let counter = entry.event.unix_ms % 1_000_000;
    assert_eq!(
        entry.event.message,
        format!("w{writer}c{counter}"),
        "torn entry: message disagrees with stamp in {entry:?}"
    );
    assert_eq!(
        entry.event.target,
        format!("writer{writer}"),
        "torn entry: target disagrees with stamp in {entry:?}"
    );
    assert_eq!(
        entry.event.fields,
        vec![("token".to_owned(), entry.event.unix_ms.to_string())],
        "torn entry: field disagrees with stamp in {entry:?}"
    );
    assert!(writer < WRITERS && counter < PER_WRITER, "{entry:?}");
}

#[test]
fn concurrent_writers_never_tear_and_drain_oldest_first() {
    let ring = Arc::new(FlightRecorder::new(512));
    let handles: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for counter in 0..PER_WRITER {
                    ring.record_log(&encoded_event(writer, counter));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    assert_eq!(ring.total_recorded(), WRITERS * PER_WRITER);
    let entries = ring.snapshot();
    assert_eq!(entries.len(), 512, "full ring retains exactly capacity");
    for entry in &entries {
        assert_consistent(entry);
    }
    // Oldest-first, strictly increasing, and all from the newest window of
    // tickets (nothing older than capacity-from-the-end survives).
    for pair in entries.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "{pair:?}");
    }
    let floor = WRITERS * PER_WRITER - 512;
    assert!(
        entries.iter().all(|e| e.seq >= floor),
        "an evicted-generation entry survived the wraparound"
    );
}

#[test]
fn snapshots_taken_mid_storm_are_internally_consistent() {
    let ring = Arc::new(FlightRecorder::new(256));
    let writers: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for counter in 0..PER_WRITER {
                    ring.record_log(&encoded_event(writer, counter));
                }
            })
        })
        .collect();
    // Read concurrently with the writes: every observed entry must be
    // whole and every observed snapshot strictly ordered.
    for _ in 0..200 {
        let entries = ring.snapshot();
        for entry in &entries {
            assert_consistent(entry);
        }
        for pair in entries.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "{pair:?}");
        }
    }
    for handle in writers {
        handle.join().unwrap();
    }
}

#[test]
fn render_during_wraparound_stays_line_oriented() {
    let ring = Arc::new(FlightRecorder::new(64));
    let writer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            for counter in 0..PER_WRITER {
                ring.record_log(&encoded_event(0, counter));
            }
        })
    };
    for _ in 0..50 {
        let text = ring.render();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("# bp-flight dump v1:"), "{header}");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
    writer.join().unwrap();
}
