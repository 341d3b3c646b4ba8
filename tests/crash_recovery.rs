//! Crash-recovery integration: the durable store survives restarts,
//! snapshots, crashes inside a compaction, and torn log tails with zero
//! committed-data loss.

use bp_core::{eventlog, CaptureConfig, CoreError, ProvenanceBrowser};
use bp_obs::{names, Obs};
use bp_sim::calibrate;
use bp_storage::{StorageError, SyncPolicy, Wal};
use std::io::Write as _;
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bp-it-crash-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fingerprint(browser: &ProvenanceBrowser) -> (usize, usize, usize, String) {
    let g = browser.graph();
    let sample: String = g
        .nodes()
        .take(200)
        .map(|(id, n)| format!("{id}:{n};"))
        .collect();
    (
        g.node_count(),
        g.edge_count(),
        browser.store().interner().len(),
        sample,
    )
}

/// Every node and edge, and the interned strings in id order.
fn history(browser: &ProvenanceBrowser) -> Vec<String> {
    let g = browser.graph();
    let nodes = g.nodes().map(|(id, n)| format!("N {id} {n:?}"));
    let edges = g.edges().map(|(id, e)| format!("E {id} {e:?}"));
    let interner = browser.store().interner();
    let strings = interner.iter().map(|(id, s)| format!("S {id} {s}"));
    nodes.chain(edges).chain(strings).collect()
}

fn open_with(dir: &Path, obs: &Obs) -> ProvenanceBrowser {
    let config = CaptureConfig::default();
    ProvenanceBrowser::open_with_obs(dir, config, SyncPolicy::OsManaged, obs.clone()).unwrap()
}

#[test]
fn restart_preserves_everything() {
    let dir = TempDir::new("restart");
    let web = calibrate::paper_web(21);
    let events = calibrate::days_history(&web, 21, 3);
    let before = {
        let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browser.ingest_all(&events).unwrap();
        fingerprint(&browser)
    };
    let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(fingerprint(&browser), before);
    assert!(browser.graph().verify_acyclic());
}

#[test]
fn snapshot_then_more_events_then_restart() {
    let dir = TempDir::new("snapshot");
    let web = calibrate::paper_web(22);
    let day1 = calibrate::days_history(&web, 22, 1);
    let mut generator_events = calibrate::days_history(&web, 22, 2);
    let day2: Vec<_> = generator_events.split_off(day1.len());
    assert!(!day2.is_empty());

    let before = {
        let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browser.ingest_all(&day1).unwrap();
        browser.snapshot().unwrap();
        browser.ingest_all(&day2).unwrap();
        fingerprint(&browser)
    };
    let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(fingerprint(&browser), before);
    // And the snapshot actually holds data.
    assert!(browser.size_report().snapshot_bytes > 0);
    assert!(browser.size_report().log_bytes > 0);
}

#[test]
fn torn_log_tail_is_discarded_quietly() {
    let dir = TempDir::new("torn");
    let web = calibrate::paper_web(23);
    let events = calibrate::days_history(&web, 23, 2);
    let before = {
        let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browser.ingest_all(&events).unwrap();
        browser.sync().unwrap();
        fingerprint(&browser)
    };
    // Simulate a crash mid-append: garbage at the log tail.
    let log = dir.0.join("log.wal");
    let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
    f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    drop(f);

    let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(fingerprint(&browser), before, "committed data intact");
}

#[test]
fn truncated_log_recovers_a_prefix_and_accepts_new_writes() {
    let dir = TempDir::new("prefix");
    let web = calibrate::paper_web(24);
    let events = calibrate::days_history(&web, 24, 1);
    {
        let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browser.ingest_all(&events).unwrap();
        browser.sync().unwrap();
    }
    // Chop the log mid-frame.
    let log = dir.0.join("log.wal");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    let recovered_nodes = browser.graph().node_count();
    assert!(recovered_nodes > 0, "a prefix survives");
    assert!(browser.graph().verify_acyclic());
    // The store keeps working after the amputation.
    let more = calibrate::days_history(&web, 25, 1);
    browser.ingest_all(&more).unwrap();
    assert!(browser.graph().node_count() > recovered_nodes);
    // And the post-recovery writes survive another restart.
    let after = fingerprint(&browser);
    drop(browser);
    let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(fingerprint(&browser), after);
}

#[test]
fn repeated_snapshot_cycles_are_stable() {
    let dir = TempDir::new("cycles");
    let web = calibrate::paper_web(26);
    let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    for day in 0..3 {
        let events = {
            // Each day continues the same deterministic stream.
            let all = calibrate::days_history(&web, 26, day + 1);
            let prev = if day == 0 {
                0
            } else {
                calibrate::days_history(&web, 26, day).len()
            };
            all[prev..].to_vec()
        };
        browser.ingest_all(&events).unwrap();
        browser.snapshot().unwrap();
    }
    let before = fingerprint(&browser);
    drop(browser);
    let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(fingerprint(&browser), before);
    let empty = TempDir::new("cycles-empty");
    let fresh = ProvenanceBrowser::open(&empty.0, CaptureConfig::default()).unwrap();
    assert_eq!(
        browser.size_report().log_bytes,
        fresh.size_report().log_bytes,
        "fully compacted: the log holds only its header, as a fresh profile's does"
    );
}

/// A crash between a compaction's rename and its log reset leaves the new
/// snapshot beside the log it covers. The profile reopens to the full
/// history: recovery skips that log and starts the next generation's.
#[test]
fn a_crash_between_the_snapshot_rename_and_the_log_reset_loses_nothing() {
    let dir = TempDir::new("rename-window");
    let web = calibrate::paper_web(42);
    let events = calibrate::days_history(&web, 42, 4);
    let (first, rest) = events.split_at(events.len() / 2);
    let log = dir.0.join("log.wal");
    let live = {
        let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browser.ingest_all(first).unwrap();
        browser.snapshot().unwrap();
        browser.ingest_all(rest).unwrap();
        let covered = std::fs::read(&log).unwrap();
        browser.snapshot().unwrap();
        // The crash: the new snapshot is in place, the log not yet reset.
        std::fs::write(&log, covered).unwrap();
        history(&browser)
    };
    let obs = Obs::isolated();
    let browser = open_with(&dir.0, &obs);
    assert_eq!(history(&browser), live, "the live store's full history");
    assert_eq!(
        obs.counter(names::STORAGE_STALE_LOGS_SKIPPED_TOTAL).get(),
        1
    );
    assert_eq!(browser.store().log_generation(), 3);
    drop(browser);
    // The skipped log was reset, so the next open skips nothing.
    let obs = Obs::isolated();
    assert_eq!(history(&open_with(&dir.0, &obs)), live);
    assert_eq!(
        obs.counter(names::STORAGE_STALE_LOGS_SKIPPED_TOTAL).get(),
        0
    );
}

/// A snapshot from an earlier generation put back beside a later
/// generation's log is refused as corrupt, and the profile is left as it
/// was: that log follows another snapshot, so replaying it onto this one
/// would build a history that never happened.
#[test]
fn an_older_snapshot_beside_a_newer_log_is_refused_as_corrupt() {
    let dir = TempDir::new("old-snapshot");
    let web = calibrate::paper_web(27);
    let events = calibrate::days_history(&web, 27, 3);
    let third = events.len() / 3;
    let snapshot = dir.0.join("snapshot.bps");
    let older = {
        let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browser.ingest_all(&events[..third]).unwrap();
        browser.snapshot().unwrap();
        let older = std::fs::read(&snapshot).unwrap();
        browser.ingest_all(&events[third..2 * third]).unwrap();
        browser.snapshot().unwrap();
        browser.ingest_all(&events[2 * third..]).unwrap();
        older
    };
    std::fs::write(&snapshot, older).unwrap();
    let files = || ["snapshot.bps", "log.wal"].map(|f| std::fs::read(dir.0.join(f)).unwrap());
    let before = files();
    let err = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap_err();
    assert!(
        matches!(err, CoreError::Storage(StorageError::Corrupt { .. })),
        "{err}"
    );
    assert!(files() == before, "a refused profile is left as it was");
}

/// Written by the code from before logs carried a generation: the first
/// 60 events of `events.log`, a compaction (a `BPSNAP\x02` snapshot), then
/// the other 60 into a log without a header frame.
const V2_PROFILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/v2_profile"
);

/// A profile from before log generations opens to the history that the
/// same events build today, and its next compaction rewrites it in the
/// new format: a `BPSNAP\x03` snapshot covering generation 1, and a log
/// of generation 2.
#[test]
fn a_profile_from_before_log_generations_opens_and_compacts_to_the_new_format() {
    let fixture = Path::new(V2_PROFILE);
    let dir = TempDir::new("v2-profile");
    std::fs::create_dir_all(&dir.0).unwrap();
    for file in ["snapshot.bps", "log.wal"] {
        std::fs::copy(fixture.join(file), dir.0.join(file)).unwrap();
    }
    let text = std::fs::read_to_string(fixture.join("events.log")).unwrap();
    let events = eventlog::parse_log(&text).unwrap();
    assert_eq!(events.len(), 120);
    let today_dir = TempDir::new("v2-profile-today");
    let mut today = ProvenanceBrowser::open(&today_dir.0, CaptureConfig::default()).unwrap();
    today.ingest_all(&events[..60]).unwrap();
    today.snapshot().unwrap();
    today.ingest_all(&events[60..]).unwrap();

    let mut old = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(history(&old), history(&today));
    assert_eq!(
        old.store().log_generation(),
        1,
        "a headerless log is generation 1"
    );
    old.snapshot().unwrap();
    let header = |file: &str| {
        let mut wal = Wal::open(dir.0.join(file), SyncPolicy::OsManaged).unwrap();
        wal.read_all().unwrap().frames.remove(0)
    };
    assert_eq!(header("snapshot.bps"), b"BPSNAP\x03\x01\0\0\0\0\0\0\0");
    assert_eq!(header("log.wal"), b"BPLOG\x01\x02\0\0\0\0\0\0\0");
    let live = history(&old);
    drop(old);
    let reopened = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(history(&reopened), live);
}
