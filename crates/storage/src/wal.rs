//! Append-only write-ahead log with checksummed frames.
//!
//! Frame layout: `[len: u32 LE][crc32c(payload): u32 LE][payload]`.
//! Appends are atomic at the frame level: recovery scans frames from the
//! head and stops at the first missing/truncated/corrupt frame, truncating
//! the file back to the last clean frame boundary — a torn tail (the
//! browser crashed mid-write) loses at most the final uncommitted record,
//! never earlier history.

// An on-disk codec: every conversion is checked, never an `as` cast.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::cast::{offset_u64, usize_from_u64};
use crate::crc::crc32c;
use crate::error::{StorageError, StorageResult};
use bp_obs::ClockHandle;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

const FRAME_HEADER: usize = 8;
/// Frames above this size are presumed corrupt length fields; no single
/// history record comes close.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Durability policy for appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every append (slowest, strongest).
    Always,
    /// Let the OS flush; [`Wal::sync`] can be called at batch boundaries.
    #[default]
    OsManaged,
    /// Group commit: frames accumulate unsynced and [`Wal::append_group`]
    /// (or [`Wal::append`]) issues one `fsync` once `max_events` frames
    /// have been appended since the last sync **or** `max_delay` has
    /// elapsed since it — amortizing the sync cost over a whole batch
    /// while bounding how much committed-in-memory history a power loss
    /// can cost.
    GroupCommit {
        /// Sync after this many unsynced frames (≥ 1; 0 behaves as 1).
        max_events: usize,
        /// Sync when this much wall-clock has passed since the last sync.
        max_delay: Duration,
    },
}

/// What one [`Wal::append_group`] call did, for metric accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupAppend {
    /// Frames written by this group.
    pub frames: usize,
    /// Total bytes written (headers included).
    pub bytes: u64,
    /// Whether this group's boundary triggered an `fsync`.
    pub synced: bool,
    /// Time the `fsync` took, in microseconds (0 when not synced).
    pub sync_micros: u64,
}

/// An append-only checksummed record log.
///
/// # Examples
///
/// ```
/// use bp_storage::{Wal, SyncPolicy};
/// # fn main() -> Result<(), bp_storage::StorageError> {
/// let dir = std::env::temp_dir().join(format!("bp-wal-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("log.wal");
/// # let _ = std::fs::remove_file(&path);
/// let mut wal = Wal::open(&path, SyncPolicy::OsManaged)?;
/// wal.append(b"record one")?;
/// wal.append(b"record two")?;
/// let records = wal.read_all()?;
/// assert_eq!(records.frames.len(), 2);
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Offset of the end of the last known-good frame.
    clean_len: u64,
    /// Whether [`Wal::open`] found and truncated a torn tail.
    truncated_on_open: bool,
    /// Frames appended since the last `fsync` (drives
    /// [`SyncPolicy::GroupCommit`]'s `max_events` threshold).
    unsynced_frames: usize,
    /// Time source for sync pacing and timing (mockable in tests).
    clock: ClockHandle,
    /// `clock` reading at the last `fsync` (drives `max_delay`).
    last_sync_us: u64,
}

/// The readable content of a log: clean frames plus torn-tail diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// Payloads of every intact frame, in append order.
    pub frames: Vec<Vec<u8>>,
    /// Byte offset of the end of the last intact frame.
    pub clean_len: u64,
    /// `true` if bytes after `clean_len` were ignored (torn tail).
    pub torn_tail: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` and validates existing
    /// frames, truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] for filesystem failures.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> StorageResult<Self> {
        Self::open_with_clock(path, policy, ClockHandle::real())
    }

    /// [`Wal::open`] with an explicit time source, so tests can drive
    /// [`SyncPolicy::GroupCommit`]'s `max_delay` with a mock clock.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] for filesystem failures.
    pub fn open_with_clock(
        path: impl AsRef<Path>,
        policy: SyncPolicy,
        clock: ClockHandle,
    ) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let contents = scan(&mut file)?;
        if contents.torn_tail {
            file.set_len(contents.clean_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let last_sync_us = clock.now_micros();
        Ok(Wal {
            file,
            path,
            policy,
            clean_len: contents.clean_len,
            truncated_on_open: contents.torn_tail,
            unsynced_frames: 0,
            clock,
            last_sync_us,
        })
    }

    /// `true` if opening this log found a torn tail and truncated it.
    pub fn truncated_on_open(&self) -> bool {
        self.truncated_on_open
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current length of committed data in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.clean_len
    }

    /// Appends one payload as a checksummed frame.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::FrameTooLarge`] for payloads over
    /// `MAX_FRAME` bytes — the length field would wrap (or the frame
    /// would read back as a torn tail, discarding every frame after it),
    /// so the append is refused before any byte reaches the file. Returns
    /// [`StorageError::Io`] on write failure; the in-memory clean length
    /// only advances after a successful write (and sync, under
    /// [`SyncPolicy::Always`]).
    pub fn append(&mut self, payload: &[u8]) -> StorageResult<()> {
        self.append_group(&[payload]).map(|_| ())
    }

    /// Appends several payloads as one contiguous frame-group: every
    /// payload gets its own checksummed frame (so recovery replays any
    /// complete prefix of them after a torn write), but the group shares a
    /// single `write` call and at most one `fsync` at its boundary — the
    /// group-commit optimization. Under [`SyncPolicy::GroupCommit`] the
    /// sync is further amortized across groups: it fires only once
    /// `max_events` frames are unsynced or `max_delay` has elapsed.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::FrameTooLarge`] if **any** payload is
    /// oversized — checked before a single byte reaches the file, so a
    /// refused group leaves the log untouched. Returns
    /// [`StorageError::Io`] on write/sync failure.
    pub fn append_group(&mut self, payloads: &[impl AsRef<[u8]>]) -> StorageResult<GroupAppend> {
        if payloads.is_empty() {
            return Ok(GroupAppend {
                frames: 0,
                bytes: 0,
                synced: false,
                sync_micros: 0,
            });
        }
        // Validate every length up front: all-or-nothing.
        let mut total = 0usize;
        for payload in payloads {
            frame_payload_len(payload.as_ref().len())?;
            total += FRAME_HEADER + payload.as_ref().len();
        }
        let mut group = Vec::with_capacity(total);
        for payload in payloads {
            let payload = payload.as_ref();
            // Validated above; re-deriving keeps the header honest.
            let len = frame_payload_len(payload.len())?;
            group.extend_from_slice(&len.to_le_bytes());
            group.extend_from_slice(&crc32c(payload).to_le_bytes());
            group.extend_from_slice(payload);
        }
        self.file.write_all(&group)?;
        self.unsynced_frames += payloads.len();
        let (synced, sync_micros) = if self.due_for_sync() {
            let sw = self.clock.start();
            self.file.sync_data()?;
            let micros = sw.elapsed_micros();
            self.unsynced_frames = 0;
            self.last_sync_us = self.clock.now_micros();
            (true, micros)
        } else {
            (false, 0)
        };
        self.clean_len += offset_u64(group.len());
        Ok(GroupAppend {
            frames: payloads.len(),
            bytes: offset_u64(group.len()),
            synced,
            sync_micros,
        })
    }

    /// Whether the policy wants an `fsync` at this group boundary.
    fn due_for_sync(&self) -> bool {
        match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::OsManaged => false,
            SyncPolicy::GroupCommit {
                max_events,
                max_delay,
            } => {
                let delay_us = u64::try_from(max_delay.as_micros()).unwrap_or(u64::MAX);
                self.unsynced_frames >= max_events.max(1)
                    || self.clock.now_micros().saturating_sub(self.last_sync_us) >= delay_us
            }
        }
    }

    /// Flushes pending appends to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] on sync failure.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.file.sync_data()?;
        self.unsynced_frames = 0;
        self.last_sync_us = self.clock.now_micros();
        Ok(())
    }

    /// Re-reads and validates the whole log from disk.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] on read failure. Corruption is not an
    /// error: it terminates the scan and is reported via
    /// [`WalContents::torn_tail`].
    pub fn read_all(&mut self) -> StorageResult<WalContents> {
        let contents = scan(&mut self.file)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(contents)
    }

    /// Truncates the log to zero length (used after a snapshot compaction).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] on failure.
    pub fn reset(&mut self) -> StorageResult<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.clean_len = 0;
        self.unsynced_frames = 0;
        self.last_sync_us = self.clock.now_micros();
        Ok(())
    }
}

/// Validates a payload length for encoding into a frame header.
///
/// Factored out of [`Wal::append`] so the boundary can be tested without
/// materializing multi-gigabyte payloads.
///
/// # Errors
///
/// Returns [`StorageError::FrameTooLarge`] when `payload_len` exceeds
/// [`MAX_FRAME`]. Before this check existed, a payload of exactly
/// `u32::MAX + 1` bytes encoded a length field of 0 — the frame's own
/// payload would be replayed as empty and every byte after the header
/// misparsed as garbage frames.
fn frame_payload_len(payload_len: usize) -> StorageResult<u32> {
    match u32::try_from(payload_len) {
        Ok(len) if len <= MAX_FRAME => Ok(len),
        _ => Err(StorageError::FrameTooLarge {
            len: offset_u64(payload_len),
            max: MAX_FRAME,
        }),
    }
}

fn scan(file: &mut File) -> StorageResult<WalContents> {
    file.seek(SeekFrom::Start(0))?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let mut clean_len = 0u64;
    let mut torn_tail = false;
    while pos < data.len() {
        if pos + FRAME_HEADER > data.len() {
            torn_tail = true;
            break;
        }
        let (Ok(len_bytes), Ok(crc_bytes)) = (
            <[u8; 4]>::try_from(&data[pos..pos + 4]),
            <[u8; 4]>::try_from(&data[pos + 4..pos + 8]),
        ) else {
            // Unreachable: the header-length check above guarantees both
            // slices are exactly four bytes. Treated as a torn tail rather
            // than a panic path (`clippy::unreachable`).
            torn_tail = true;
            break;
        };
        let len = u32::from_le_bytes(len_bytes);
        let crc = u32::from_le_bytes(crc_bytes);
        if len > MAX_FRAME {
            torn_tail = true;
            break;
        }
        let start = pos + FRAME_HEADER;
        let Some(end) = usize_from_u64(u64::from(len)).and_then(|l| start.checked_add(l)) else {
            torn_tail = true;
            break;
        };
        if end > data.len() {
            torn_tail = true;
            break;
        }
        let payload = &data[start..end];
        if crc32c(payload) != crc {
            torn_tail = true;
            break;
        }
        frames.push(payload.to_vec());
        pos = end;
        clean_len = offset_u64(end);
    }
    Ok(WalContents {
        frames,
        clean_len,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-wal-test-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn append_and_read_back() {
        let dir = TempDir::new("basic");
        let mut wal = Wal::open(dir.file("a.wal"), SyncPolicy::Always).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"").unwrap();
        wal.append(b"three").unwrap();
        let contents = wal.read_all().unwrap();
        assert_eq!(
            contents.frames,
            vec![b"one".to_vec(), vec![], b"three".to_vec()]
        );
        assert!(!contents.torn_tail);
    }

    #[test]
    fn reopen_preserves_frames() {
        let dir = TempDir::new("reopen");
        let path = dir.file("a.wal");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"persisted").unwrap();
        }
        let mut wal = Wal::open(&path, SyncPolicy::OsManaged).unwrap();
        let contents = wal.read_all().unwrap();
        assert_eq!(contents.frames, vec![b"persisted".to_vec()]);
        // And appends continue after the existing tail.
        wal.append(b"more").unwrap();
        assert_eq!(wal.read_all().unwrap().frames.len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = TempDir::new("torn");
        let path = dir.file("a.wal");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"good one").unwrap();
            wal.append(b"good two").unwrap();
        }
        // Simulate a crash mid-append: write a partial frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[42u8, 0, 0]).unwrap();
        }
        let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        let contents = wal.read_all().unwrap();
        assert_eq!(contents.frames.len(), 2, "both committed frames survive");
        assert!(!contents.torn_tail, "tail was truncated at open");
        // The file is physically truncated.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), contents.clean_len);
    }

    #[test]
    fn corrupt_payload_stops_replay_at_last_good_frame() {
        let dir = TempDir::new("bitrot");
        let path = dir.file("a.wal");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"frame-a").unwrap();
            wal.append(b"frame-b").unwrap();
        }
        // Flip a bit in the second frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload_start = 8 + 7 + 8; // frame1 hdr + payload + frame2 hdr
        bytes[second_payload_start] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        let contents = wal.read_all().unwrap();
        assert_eq!(contents.frames, vec![b"frame-a".to_vec()]);
    }

    #[test]
    fn absurd_length_field_treated_as_torn() {
        let dir = TempDir::new("hugelen");
        let path = dir.file("a.wal");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        let contents = wal.read_all().unwrap();
        assert!(contents.frames.is_empty());
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = TempDir::new("reset");
        let mut wal = Wal::open(dir.file("a.wal"), SyncPolicy::Always).unwrap();
        wal.append(b"x").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.read_all().unwrap().frames.is_empty());
        wal.append(b"y").unwrap();
        assert_eq!(wal.read_all().unwrap().frames, vec![b"y".to_vec()]);
    }

    #[test]
    fn len_bytes_tracks_appends() {
        let dir = TempDir::new("len");
        let mut wal = Wal::open(dir.file("a.wal"), SyncPolicy::OsManaged).unwrap();
        assert_eq!(wal.len_bytes(), 0);
        wal.append(b"12345").unwrap();
        assert_eq!(wal.len_bytes(), 8 + 5);
        wal.sync().unwrap();
    }

    #[test]
    fn payload_lengths_around_u32_max_are_rejected_not_truncated() {
        // Regression: `payload.len() as u32` silently truncated the length
        // field, so a payload of u32::MAX + 1 bytes wrote a header claiming
        // length 0. Checked without allocating 4 GiB.
        assert!(matches!(
            frame_payload_len(u64::MAX as usize),
            Err(StorageError::FrameTooLarge { .. })
        ));
        let wrap = usize::try_from(u64::from(u32::MAX) + 1).unwrap();
        assert!(matches!(
            frame_payload_len(wrap),
            Err(StorageError::FrameTooLarge { len, max: MAX_FRAME })
                if len == u64::from(u32::MAX) + 1
        ));
        // Boundary: exactly MAX_FRAME is allowed, one more is not.
        let max = usize::try_from(MAX_FRAME).unwrap();
        assert_eq!(frame_payload_len(max).unwrap(), MAX_FRAME);
        assert!(frame_payload_len(max + 1).is_err());
        assert_eq!(frame_payload_len(0).unwrap(), 0);
    }

    #[test]
    fn oversized_append_is_refused_and_log_stays_intact() {
        let dir = TempDir::new("oversize");
        let mut wal = Wal::open(dir.file("a.wal"), SyncPolicy::Always).unwrap();
        wal.append(b"before").unwrap();
        let len_before = wal.len_bytes();
        let huge = vec![0u8; usize::try_from(MAX_FRAME).unwrap() + 1];
        assert!(matches!(
            wal.append(&huge),
            Err(StorageError::FrameTooLarge { .. })
        ));
        // Nothing was written: committed length unchanged, replay clean.
        assert_eq!(wal.len_bytes(), len_before);
        let contents = wal.read_all().unwrap();
        assert_eq!(contents.frames, vec![b"before".to_vec()]);
        assert!(!contents.torn_tail);
        // And the log still accepts normal appends afterwards.
        wal.append(b"after").unwrap();
        assert_eq!(wal.read_all().unwrap().frames.len(), 2);
    }

    #[test]
    fn append_group_writes_one_frame_per_payload() {
        let dir = TempDir::new("group");
        let mut wal = Wal::open(dir.file("a.wal"), SyncPolicy::OsManaged).unwrap();
        let receipt = wal
            .append_group(&[b"alpha".as_slice(), b"".as_slice(), b"gamma".as_slice()])
            .unwrap();
        assert_eq!(receipt.frames, 3);
        assert_eq!(receipt.bytes, (8 + 5) + 8 + (8 + 5));
        assert!(!receipt.synced, "OsManaged never syncs at the boundary");
        let contents = wal.read_all().unwrap();
        assert_eq!(
            contents.frames,
            vec![b"alpha".to_vec(), vec![], b"gamma".to_vec()]
        );
        // An empty group is a no-op.
        let empty: &[&[u8]] = &[];
        assert_eq!(wal.append_group(empty).unwrap().frames, 0);
        assert_eq!(wal.read_all().unwrap().frames.len(), 3);
    }

    #[test]
    fn append_group_refuses_oversized_member_without_writing() {
        let dir = TempDir::new("group-oversize");
        let mut wal = Wal::open(dir.file("a.wal"), SyncPolicy::OsManaged).unwrap();
        let huge = vec![0u8; usize::try_from(MAX_FRAME).unwrap() + 1];
        let group = vec![b"ok".to_vec(), huge];
        assert!(matches!(
            wal.append_group(&group),
            Err(StorageError::FrameTooLarge { .. })
        ));
        // Nothing — not even the valid first member — reached the file.
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.read_all().unwrap().frames.is_empty());
    }

    #[test]
    fn group_commit_policy_syncs_on_event_threshold() {
        let dir = TempDir::new("group-events");
        let policy = SyncPolicy::GroupCommit {
            max_events: 4,
            max_delay: Duration::from_secs(3600),
        };
        let mut wal = Wal::open(dir.file("a.wal"), policy).unwrap();
        // 3 unsynced frames: below the threshold, no sync.
        let r = wal
            .append_group(&[b"a".as_slice(), b"b".as_slice(), b"c".as_slice()])
            .unwrap();
        assert!(!r.synced);
        // One more crosses max_events = 4.
        let r = wal.append_group(&[b"d".as_slice()]).unwrap();
        assert!(r.synced);
        // Counter reset: the next small group doesn't sync again.
        let r = wal.append_group(&[b"e".as_slice()]).unwrap();
        assert!(!r.synced);
    }

    #[test]
    fn group_commit_policy_syncs_on_delay() {
        let dir = TempDir::new("group-delay");
        let policy = SyncPolicy::GroupCommit {
            max_events: 1_000_000,
            max_delay: Duration::ZERO,
        };
        let mut wal = Wal::open(dir.file("a.wal"), policy).unwrap();
        // Zero delay: every boundary is past due.
        let r = wal.append_group(&[b"a".as_slice()]).unwrap();
        assert!(r.synced);
    }

    #[test]
    fn group_commit_delay_is_mock_clock_driven() {
        let dir = TempDir::new("group-mock");
        let policy = SyncPolicy::GroupCommit {
            max_events: 1_000_000,
            max_delay: Duration::from_millis(5),
        };
        let (clock, mock) = bp_obs::ClockHandle::mock();
        let mut wal = Wal::open_with_clock(dir.file("a.wal"), policy, clock).unwrap();
        let r = wal.append_group(&[b"a".as_slice()]).unwrap();
        assert!(!r.synced, "inside the delay window");
        mock.advance(Duration::from_millis(5));
        let r = wal.append_group(&[b"b".as_slice()]).unwrap();
        assert!(r.synced, "delay elapsed forces the sync");
        // The sync reset the window: immediately after, no sync again.
        let r = wal.append_group(&[b"c".as_slice()]).unwrap();
        assert!(!r.synced);
    }

    #[test]
    fn always_policy_syncs_every_group() {
        let dir = TempDir::new("group-always");
        let mut wal = Wal::open(dir.file("a.wal"), SyncPolicy::Always).unwrap();
        let r = wal
            .append_group(&[b"a".as_slice(), b"b".as_slice()])
            .unwrap();
        assert!(r.synced);
    }

    #[test]
    fn truncating_inside_a_frame_group_recovers_the_complete_prefix() {
        // Property (ISSUE 10 satellite): cut the file at EVERY byte offset
        // inside a multi-frame group — recovery must yield exactly the
        // complete-prefix frames, never a partial or reordered set.
        let dir = TempDir::new("group-torn");
        let path = dir.file("full.wal");
        let payloads: Vec<Vec<u8>> = (0..7)
            .map(|i| format!("group-frame-{i}-{}", "x".repeat(i * 3)).into_bytes())
            .collect();
        {
            let mut wal = Wal::open(&path, SyncPolicy::OsManaged).unwrap();
            // Two groups: 4 frames + 3 frames.
            wal.append_group(&payloads[..4]).unwrap();
            wal.append_group(&payloads[4..]).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Frame boundaries for the expected-prefix computation.
        let mut boundaries = vec![0usize];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + FRAME_HEADER + p.len());
        }
        for cut in 0..=full.len() {
            let cut_path = dir.file(&format!("cut-{cut}.wal"));
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let mut wal = Wal::open(&cut_path, SyncPolicy::OsManaged).unwrap();
            let contents = wal.read_all().unwrap();
            let expected = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(
                contents.frames.len(),
                expected,
                "cut at byte {cut}: complete-prefix frame count"
            );
            for (frame, want) in contents.frames.iter().zip(&payloads) {
                assert_eq!(frame, want);
            }
            // Appends continue cleanly after recovery.
            wal.append(b"after").unwrap();
            assert_eq!(wal.read_all().unwrap().frames.len(), expected + 1);
        }
    }

    #[test]
    fn every_prefix_truncation_recovers_cleanly() {
        // Property: cutting the file at ANY byte keeps a prefix of frames.
        let dir = TempDir::new("prefix");
        let path = dir.file("a.wal");
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            for i in 0..5 {
                wal.append(format!("frame-{i}").as_bytes()).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            let cut_path = dir.file(&format!("cut-{cut}.wal"));
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let mut wal = Wal::open(&cut_path, SyncPolicy::OsManaged).unwrap();
            let contents = wal.read_all().unwrap();
            // Frames must be an exact prefix of the originals.
            for (i, frame) in contents.frames.iter().enumerate() {
                assert_eq!(frame, format!("frame-{i}").as_bytes());
            }
            assert!(contents.frames.len() <= 5);
        }
    }
}
