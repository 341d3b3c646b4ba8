//! Ingesting the browser event stream the way Firefox 3 would.
//!
//! The E1 comparison requires both stores to see the *same* history. This
//! module consumes the identical [`BrowserEvent`] stream `bp-core` captures
//! from, but records only what Places records (§3): visits with transition
//! types and referrer chains, titles, bookmarks, location-bar inputs, and
//! download annotations. Search terms, form relationships, tab/overlap
//! structure, and close times are dropped — they are exactly the metadata
//! the paper argues browsers should keep.

use crate::db::{PlacesDb, Transition};
use crate::table::{RowId, TableError};
use bp_core::{BrowserEvent, EventKind, NavigationCause, TabId};
use std::collections::HashMap;

/// Feeds browser events into a [`PlacesDb`].
#[derive(Debug, Default)]
pub struct PlacesIngester {
    /// Last visit rowid per tab — the referrer (`from_visit`) source.
    last_visit: HashMap<TabId, RowId>,
    /// Current URL per tab (for bookmark/download attribution).
    current_url: HashMap<TabId, String>,
    /// Session counter: Places groups visits into sessions.
    session: i64,
}

impl PlacesIngester {
    /// Creates an ingester.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one event. Events Places does not model (tab open/close)
    /// update only the ingester's in-memory tab tracking.
    ///
    /// # Errors
    ///
    /// Propagates [`TableError`]s from the underlying tables.
    pub fn ingest(&mut self, db: &mut PlacesDb, event: &BrowserEvent) -> Result<(), TableError> {
        match &event.kind {
            EventKind::TabOpened { tab, .. } => {
                // A new tab starts a new visit session.
                self.session += 1;
                self.last_visit.remove(tab);
                self.current_url.remove(tab);
                Ok(())
            }
            EventKind::TabClosed { tab } => {
                // Places records no close event (§3.2).
                self.last_visit.remove(tab);
                self.current_url.remove(tab);
                Ok(())
            }
            EventKind::Navigate {
                tab,
                url,
                title,
                cause,
            } => {
                let (transition, from) = match cause {
                    NavigationCause::Link => (Transition::Link, self.last_visit.get(tab)),
                    // Typed navigations record no referrer — §3.2's
                    // "sparsely connected metadata" irony — but they do
                    // train the autocomplete input history.
                    NavigationCause::Typed => (Transition::Typed, None),
                    NavigationCause::Bookmark { .. } => (Transition::Bookmark, None),
                    NavigationCause::Redirect { status } => (
                        if *status == 301 {
                            Transition::RedirectPermanent
                        } else {
                            Transition::RedirectTemporary
                        },
                        self.last_visit.get(tab),
                    ),
                    // A search is just a link-ish navigation to Places;
                    // the query string is not captured (§3.3).
                    NavigationCause::SearchQuery { .. } => (Transition::Link, None),
                    NavigationCause::FormSubmit { .. } => {
                        (Transition::Link, self.last_visit.get(tab))
                    }
                    NavigationCause::BackForward => (Transition::Link, None),
                    NavigationCause::Reload => (Transition::Reload, self.last_visit.get(tab)),
                };
                let visit =
                    db.record_visit(url, event.at, transition, from.copied(), self.session)?;
                if let Some(t) = title {
                    db.set_title(url, t)?;
                }
                if matches!(cause, NavigationCause::Typed) {
                    // Approximate the typed prefix with the URL's head.
                    let input: String = url
                        .trim_start_matches("http://")
                        .trim_start_matches("https://")
                        .chars()
                        .take(6)
                        .collect();
                    db.record_input(url, &input)?;
                }
                self.last_visit.insert(*tab, visit);
                self.current_url.insert(*tab, url.clone());
                Ok(())
            }
            EventKind::EmbedLoad { tab, url } => {
                let from = self.last_visit.get(tab).copied();
                db.record_visit(url, event.at, Transition::Embed, from, self.session)?;
                Ok(())
            }
            EventKind::BookmarkAdd { tab, name } => {
                if let Some(url) = self.current_url.get(tab) {
                    let url = url.clone();
                    db.add_bookmark(&url, name, event.at)?;
                }
                Ok(())
            }
            EventKind::Download { tab, path, .. } => {
                if let Some(url) = self.current_url.get(tab) {
                    let url = url.clone();
                    db.record_download(&url, path, event.at)?;
                    db.record_visit(
                        &url,
                        event.at,
                        Transition::Download,
                        self.last_visit.get(tab).copied(),
                        self.session,
                    )?;
                }
                Ok(())
            }
        }
    }

    /// Applies a whole event stream.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first failure.
    pub fn ingest_all<'a>(
        &mut self,
        db: &mut PlacesDb,
        events: impl IntoIterator<Item = &'a BrowserEvent>,
    ) -> Result<usize, TableError> {
        let mut n = 0;
        for event in events {
            self.ingest(db, event)?;
            n += 1;
        }
        bp_obs::Obs::global()
            .gauge(bp_obs::names::PLACES_ROWS)
            .set(db.row_count() as i64);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_graph::Timestamp;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn stream() -> Vec<BrowserEvent> {
        vec![
            BrowserEvent::tab_opened(t(0), TabId(0), None),
            BrowserEvent::navigate(
                t(1),
                TabId(0),
                "http://se/?q=rosebud",
                Some("rosebud - Search"),
                NavigationCause::SearchQuery {
                    query: "rosebud".to_owned(),
                },
            ),
            BrowserEvent::navigate(
                t(2),
                TabId(0),
                "http://films/kane",
                Some("Citizen Kane"),
                NavigationCause::Link,
            ),
            BrowserEvent::new(
                t(3),
                EventKind::BookmarkAdd {
                    tab: TabId(0),
                    name: "Kane".to_owned(),
                },
            ),
            BrowserEvent::new(
                t(4),
                EventKind::Download {
                    tab: TabId(0),
                    path: "/tmp/kane.jpg".to_owned(),
                    bytes: 100,
                },
            ),
            BrowserEvent::tab_closed(t(5), TabId(0)),
        ]
    }

    #[test]
    fn full_stream_populates_tables() {
        let mut db = PlacesDb::new();
        let mut ing = PlacesIngester::new();
        assert_eq!(ing.ingest_all(&mut db, &stream()).unwrap(), 6);
        assert_eq!(db.places().len(), 2);
        // search visit + kane visit + download visit
        assert_eq!(db.visits().len(), 3);
        assert_eq!(db.bookmarks().len(), 1);
        assert_eq!(db.annos().len(), 1);
    }

    #[test]
    fn link_visits_chain_referrers() {
        let mut db = PlacesDb::new();
        let mut ing = PlacesIngester::new();
        ing.ingest_all(&mut db, &stream()).unwrap();
        // kane visit's from_visit is the search visit.
        let kane_visit = 2;
        assert_eq!(
            db.visits().cell(kane_visit, "from_visit").unwrap().as_int(),
            Some(1)
        );
    }

    #[test]
    fn search_terms_are_not_captured() {
        // The defining gap (§3.3): Places has no record of "rosebud" as an
        // object — only as a substring of the results page URL.
        let mut db = PlacesDb::new();
        let mut ing = PlacesIngester::new();
        ing.ingest_all(&mut db, &stream()).unwrap();
        let hits = db.history_search("rosebud");
        assert_eq!(hits.len(), 1, "only the results page matches textually");
        assert_eq!(db.url_of(hits[0].0).unwrap(), "http://se/?q=rosebud");
    }

    #[test]
    fn typed_navigations_have_no_referrer_but_train_autocomplete() {
        let mut db = PlacesDb::new();
        let mut ing = PlacesIngester::new();
        let events = vec![
            BrowserEvent::tab_opened(t(0), TabId(0), None),
            BrowserEvent::navigate(t(1), TabId(0), "http://a/", None, NavigationCause::Link),
            BrowserEvent::navigate(t(2), TabId(0), "http://b/", None, NavigationCause::Typed),
        ];
        ing.ingest_all(&mut db, &events).unwrap();
        let typed_visit = 2;
        assert_eq!(
            db.visits()
                .cell(typed_visit, "from_visit")
                .unwrap()
                .as_int(),
            Some(0),
            "typed navigation drops the relationship (§3.2)"
        );
        assert_eq!(db.input_history().len(), 1);
    }

    #[test]
    fn tab_events_only_affect_session_tracking() {
        let mut db = PlacesDb::new();
        let mut ing = PlacesIngester::new();
        ing.ingest(&mut db, &BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        ing.ingest(&mut db, &BrowserEvent::tab_closed(t(1), TabId(0)))
            .unwrap();
        assert_eq!(db.encoded_size(), 0, "no rows from tab events");
    }

    #[test]
    fn downloads_without_a_page_are_dropped() {
        let mut db = PlacesDb::new();
        let mut ing = PlacesIngester::new();
        ing.ingest(&mut db, &BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        ing.ingest(
            &mut db,
            &BrowserEvent::new(
                t(1),
                EventKind::Download {
                    tab: TabId(0),
                    path: "/tmp/x".to_owned(),
                    bytes: 1,
                },
            ),
        )
        .unwrap();
        assert_eq!(db.annos().len(), 0);
    }

    #[test]
    fn sessions_increment_per_tab_open() {
        let mut db = PlacesDb::new();
        let mut ing = PlacesIngester::new();
        ing.ingest(&mut db, &BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        ing.ingest(
            &mut db,
            &BrowserEvent::navigate(t(1), TabId(0), "http://a/", None, NavigationCause::Link),
        )
        .unwrap();
        ing.ingest(&mut db, &BrowserEvent::tab_opened(t(2), TabId(1), None))
            .unwrap();
        ing.ingest(
            &mut db,
            &BrowserEvent::navigate(t(3), TabId(1), "http://b/", None, NavigationCause::Link),
        )
        .unwrap();
        assert_eq!(db.visits().cell(1, "session").unwrap().as_int(), Some(1));
        assert_eq!(db.visits().cell(2, "session").unwrap().as_int(), Some(2));
    }
}
