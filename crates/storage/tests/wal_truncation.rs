//! Exhaustive torn-group recovery: a frame-group truncated at *every*
//! byte offset recovers exactly the complete prefix of its events.
//!
//! Group commit batches many event frames into one contiguous `write`,
//! so a crash can now land mid-group, not just mid-frame. The recovery
//! contract is prefix-exact: whatever byte the write tore at, replay
//! yields the longest run of whole, checksum-clean frames and nothing
//! else — no partial event, no resurrected bytes past the tear. These
//! tests don't sample tear points; they enumerate every byte offset of
//! the encoded group (including offset 0 and mid-header tears), for
//! several seeded payload mixes, and check the replayed frames are
//! bit-identical to the expected prefix. A store's log starts with a
//! header frame carrying its generation; a tear inside that frame is
//! checked too.

use bp_graph::Timestamp;
use bp_storage::{ProvenanceStore, SyncPolicy, Wal};
use std::fs;
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bp-wal-trunc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Deterministic splitmix-style PRNG so each payload mix reproduces from
/// its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Event-shaped payloads of seed-determined sizes, including empty and
/// one-byte frames (the smallest legal events) so tears land inside
/// headers as often as inside payloads.
fn payloads(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed ^ 0x5eed);
    (0..count)
        .map(|i| {
            let len = (rng.next() % 41) as usize; // 0..=40 bytes
            (0..len)
                .map(|j| (seed as u8) ^ (i as u8) ^ (j as u8))
                .collect()
        })
        .collect()
}

/// On-disk length of one frame: 4-byte length + 4-byte CRC + payload.
fn frame_len(payload: &[u8]) -> u64 {
    8 + payload.len() as u64
}

/// How many whole frames fit in the first `cut` bytes of the group.
fn expected_prefix(group: &[Vec<u8>], cut: u64) -> usize {
    let mut end = 0u64;
    for (i, p) in group.iter().enumerate() {
        end += frame_len(p);
        if end > cut {
            return i;
        }
    }
    group.len()
}

#[test]
fn every_byte_truncation_of_a_frame_group_recovers_the_complete_prefix() {
    for seed in [3u64, 17, 91] {
        let dir = TempDir::new(&format!("group-{seed}"));
        let group = payloads(seed, 24);
        let wal_path = dir.file("full.wal");
        {
            let mut wal = Wal::open(&wal_path, SyncPolicy::OsManaged).unwrap();
            let receipt = wal.append_group(&group).unwrap();
            assert_eq!(receipt.frames, group.len());
        }
        let full = fs::read(&wal_path).unwrap();
        let total: u64 = group.iter().map(|p| frame_len(p)).sum();
        assert_eq!(
            full.len() as u64,
            total,
            "frame layout drifted (seed {seed})"
        );

        for cut in 0..=full.len() {
            let torn_path = dir.file("torn.wal");
            fs::write(&torn_path, &full[..cut]).unwrap();
            let mut wal = Wal::open(&torn_path, SyncPolicy::OsManaged).unwrap();
            let want = expected_prefix(&group, cut as u64);
            let contents = wal.read_all().unwrap();
            // Bit-identical prefix, nothing more.
            assert_eq!(
                contents.frames.len(),
                want,
                "cut at byte {cut} (seed {seed})"
            );
            for (i, frame) in contents.frames.iter().enumerate() {
                assert_eq!(frame, &group[i], "frame {i} at cut {cut} (seed {seed})");
            }
            // The open itself truncated the torn remainder, so the log is
            // immediately appendable and the new frame lands after the
            // surviving prefix.
            let tear_mid_frame = {
                let clean: u64 = group[..want].iter().map(|p| frame_len(p)).sum();
                cut as u64 > clean
            };
            assert_eq!(
                wal.truncated_on_open(),
                tear_mid_frame,
                "torn-tail detection at cut {cut} (seed {seed})"
            );
            wal.append(b"post-recovery").unwrap();
            let after = wal.read_all().unwrap();
            assert_eq!(after.frames.len(), want + 1);
            assert_eq!(after.frames[want], b"post-recovery");
            assert!(!after.torn_tail, "reopened log must be clean");
        }
    }
}

#[test]
fn bitflips_inside_a_group_stop_replay_at_the_corrupt_frame() {
    // Corruption, not truncation: flip one byte at every offset of the
    // group. The flipped frame (header or payload) must fail its CRC or
    // length check, and replay must keep exactly the frames before it.
    let dir = TempDir::new("bitflip");
    let group = payloads(7, 12);
    let wal_path = dir.file("full.wal");
    {
        let mut wal = Wal::open(&wal_path, SyncPolicy::OsManaged).unwrap();
        wal.append_group(&group).unwrap();
    }
    let full = fs::read(&wal_path).unwrap();
    let mut frame_starts = Vec::new();
    let mut off = 0u64;
    for p in &group {
        frame_starts.push(off);
        off += frame_len(p);
    }
    for flip in 0..full.len() {
        let mut corrupt = full.clone();
        corrupt[flip] ^= 0x40;
        let torn_path = dir.file("corrupt.wal");
        fs::write(&torn_path, &corrupt).unwrap();
        let mut wal = Wal::open(&torn_path, SyncPolicy::OsManaged).unwrap();
        let contents = wal.read_all().unwrap();
        // The frame containing the flipped byte is the first casualty;
        // everything before it survives bit-identical. (Replay may stop
        // there even if later bytes happen to re-align — stopping early
        // is the contract, scavenging is not.)
        let victim = frame_starts
            .iter()
            .rposition(|&s| s <= flip as u64)
            .unwrap();
        assert!(
            contents.frames.len() <= victim,
            "flip at {flip}: replay ran past the corrupt frame"
        );
        for (i, frame) in contents.frames.iter().enumerate() {
            assert_eq!(frame, &group[i], "flip at {flip}: prefix not intact");
        }
    }
}

/// A log torn inside its header frame (a crash while a compaction reset
/// it, or while a fresh profile started it) reads as the empty log of the
/// generation after the snapshot's: the store recovers the snapshot's
/// history and writes that header again.
#[test]
fn a_log_torn_inside_its_header_reads_as_the_next_generations_empty_log() {
    for compactions in [0u64, 2] {
        let dir = TempDir::new(&format!("header-{compactions}"));
        let profile = dir.file("profile");
        let mut store = ProvenanceStore::open(&profile, SyncPolicy::Always).unwrap();
        for i in 0..compactions {
            let at = Timestamp::from_secs(i as i64);
            store.add_visit(&format!("http://p{i}/"), at).unwrap();
            store.snapshot().unwrap();
        }
        let generation = compactions + 1;
        assert_eq!(store.log_generation(), generation);
        let nodes = store.graph().node_count();
        drop(store);
        let log = profile.join("log.wal");
        let header = fs::read(&log).unwrap();
        assert_eq!(header.len(), 8 + 6 + 8, "the log holds only its header");
        for cut in 0..header.len() {
            fs::write(&log, &header[..cut]).unwrap();
            let store = ProvenanceStore::open(&profile, SyncPolicy::Always).unwrap();
            assert_eq!(store.log_generation(), generation, "cut at byte {cut}");
            assert_eq!(store.graph().node_count(), nodes, "cut at byte {cut}");
            drop(store);
            assert_eq!(fs::read(&log).unwrap(), header, "cut at byte {cut}");
        }
    }
}
