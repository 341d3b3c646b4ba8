//! # bp-core — browser provenance capture
//!
//! The primary contribution of *The Case for Browser Provenance* (Margo &
//! Seltzer, TaPP '09), as a library: characterize browser history metadata
//! as **provenance** and store it in "a single, homogeneous provenance
//! graph store that describes and relates every kind of history object"
//! (§3.4).
//!
//! - [`BrowserEvent`]/[`EventKind`]/[`NavigationCause`] — the observable
//!   browser actions of the §3 taxonomy (links, typed locations, bookmarks,
//!   redirects, searches, forms, tabs, embeds, downloads);
//! - [`CaptureEngine`]/[`CaptureConfig`] — the capture layer mapping events
//!   to versioned nodes and typed derives-from edges, including everything
//!   today's browsers drop (§3.2's "second-class citizens":
//!   typed-location, new-tab, temporal-overlap, and close records);
//! - [`ProvenanceBrowser`] — the embedding facade: capture + durable store
//!   (`bp-storage`) + textual index (`bp-text`);
//! - [`eventlog`] — a plain-text serialization of event streams.
//!
//! The §2 use-case queries live in the companion crate `bp-query`.
//!
//! # Example: capture the §2.1 "rosebud" history
//!
//! ```
//! use bp_core::{ProvenanceBrowser, BrowserEvent, NavigationCause, TabId, CaptureConfig};
//! use bp_graph::Timestamp;
//!
//! # fn main() -> Result<(), bp_core::CoreError> {
//! let dir = std::env::temp_dir().join(format!("bp-core-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default())?;
//! let t0 = Timestamp::from_secs(0);
//! browser.ingest(&BrowserEvent::tab_opened(t0, TabId(0), None))?;
//! browser.ingest(&BrowserEvent::navigate(
//!     t0.plus_micros(1_000_000), TabId(0), "http://se/?q=rosebud",
//!     Some("rosebud - Search"),
//!     NavigationCause::SearchQuery { query: "rosebud".into() },
//! ))?;
//! browser.ingest(&BrowserEvent::navigate(
//!     t0.plus_micros(2_000_000), TabId(0), "http://films/kane",
//!     Some("Citizen Kane"), NavigationCause::Link,
//! ))?;
//! // The search term is now literally in Citizen Kane's lineage.
//! assert!(browser.graph().verify_acyclic());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns errors or degrades instead of aborting.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Diagnostics go through bp_obs::log, leveled and flight-recorded.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

mod browser;
mod capture;
mod error;
mod event;
pub mod eventlog;
mod shared;

pub use browser::ProvenanceBrowser;
pub use capture::{CaptureConfig, CaptureEngine, CaptureOutcome};
pub use error::{CoreError, CoreResult};
pub use event::{BrowserEvent, EventKind, NavigationCause, TabId};
pub use shared::{CapturePipeline, SharedBrowser};

#[cfg(test)]
mod proptests {
    use super::*;
    use bp_graph::Timestamp;
    use proptest::prelude::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-core-prop-{tag}-{}-{:?}",
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

    /// Random but *session-shaped* event scripts: tabs open/close/navigate
    /// with arbitrary interleavings and causes.
    #[derive(Debug, Clone)]
    enum Act {
        Open(u8),
        OpenFrom(u8, u8),
        Close(u8),
        Nav(u8, u8, u8),
        Embed(u8, u8),
        Bookmark(u8),
        Download(u8, u8),
    }

    fn act_strategy() -> impl Strategy<Value = Act> {
        prop_oneof![
            2 => (0u8..4).prop_map(Act::Open),
            1 => (0u8..4, 0u8..4).prop_map(|(a, b)| Act::OpenFrom(a, b)),
            1 => (0u8..4).prop_map(Act::Close),
            5 => (0u8..4, 0u8..10, 0u8..8).prop_map(|(t, u, c)| Act::Nav(t, u, c)),
            1 => (0u8..4, 0u8..5).prop_map(|(t, u)| Act::Embed(t, u)),
            1 => (0u8..4).prop_map(Act::Bookmark),
            1 => (0u8..4, 0u8..5).prop_map(|(t, p)| Act::Download(t, p)),
        ]
    }

    fn cause_for(code: u8, url_pool: u8) -> NavigationCause {
        match code {
            0 => NavigationCause::Link,
            1 => NavigationCause::Typed,
            2 => NavigationCause::Reload,
            3 => NavigationCause::BackForward,
            4 => NavigationCause::SearchQuery {
                query: format!("query {url_pool}"),
            },
            5 => NavigationCause::FormSubmit {
                fields: format!("f={url_pool}"),
            },
            6 => NavigationCause::Redirect { status: 302 },
            _ => NavigationCause::Bookmark {
                bookmark_url: format!("http://p{url_pool}/"),
            },
        }
    }

    fn event_for(act: &Act, at: Timestamp) -> BrowserEvent {
        match act {
            Act::Open(t) => BrowserEvent::tab_opened(at, TabId(*t as u32), None),
            Act::OpenFrom(t, o) => {
                BrowserEvent::tab_opened(at, TabId(*t as u32), Some(TabId(*o as u32)))
            }
            Act::Close(t) => BrowserEvent::tab_closed(at, TabId(*t as u32)),
            Act::Nav(t, u, c) => BrowserEvent::navigate(
                at,
                TabId(*t as u32),
                format!("http://p{u}/"),
                Some(&format!("Page {u}")),
                cause_for(*c, *u),
            ),
            Act::Embed(t, u) => BrowserEvent::new(
                at,
                EventKind::EmbedLoad {
                    tab: TabId(*t as u32),
                    url: format!("http://cdn/{u}.js"),
                },
            ),
            Act::Bookmark(t) => BrowserEvent::new(
                at,
                EventKind::BookmarkAdd {
                    tab: TabId(*t as u32),
                    name: "bm".to_owned(),
                },
            ),
            Act::Download(t, p) => BrowserEvent::new(
                at,
                EventKind::Download {
                    tab: TabId(*t as u32),
                    path: format!("/tmp/f{p}"),
                    bytes: 100,
                },
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Whatever the user does, the captured graph stays acyclic, every
        /// event either applies or is rejected (never panics), and the
        /// recovered-on-reopen graph matches the live one.
        #[test]
        fn capture_is_robust_and_recoverable(acts in prop::collection::vec(act_strategy(), 1..80)) {
            let dir = TempDir::new("robust");
            let mut browser =
                ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
            let mut clock = 0i64;
            let mut applied = 0usize;
            for act in &acts {
                clock += 1;
                let event = event_for(act, Timestamp::from_secs(clock));
                match browser.ingest(&event) {
                    Ok(_) => applied += 1,
                    Err(CoreError::BadEvent(_)) => {} // rejected cleanly
                    Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
                }
                prop_assert!(browser.graph().verify_acyclic());
            }
            let nodes = browser.graph().node_count();
            let edges = browser.graph().edge_count();
            prop_assert!(applied == 0 || nodes > 0);
            drop(browser);
            let reopened = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
            prop_assert_eq!(reopened.graph().node_count(), nodes);
            prop_assert_eq!(reopened.graph().edge_count(), edges);
        }

        /// Event-log round trip: any event stream the simulator could emit
        /// formats to text and parses back identically.
        #[test]
        fn eventlog_roundtrips(acts in prop::collection::vec(act_strategy(), 0..50)) {
            let mut clock = 0i64;
            let events: Vec<BrowserEvent> = acts
                .iter()
                .map(|act| {
                    clock += 1;
                    event_for(act, Timestamp::from_secs(clock))
                })
                .collect();
            let text = eventlog::format_log(&events);
            let parsed = eventlog::parse_log(&text).unwrap();
            prop_assert_eq!(parsed, events);
        }
    }
}
