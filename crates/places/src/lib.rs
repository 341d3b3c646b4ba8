//! # bp-places — the Firefox Places baseline
//!
//! The paper measures its provenance schema's storage overhead *over the
//! Firefox Places schema* ("the total storage overhead of this schema over
//! Places is 39.5%", §4) and motivates its use cases against what Places
//! can already answer. This crate is that baseline, built from scratch:
//!
//! - a mini relational engine ([`Table`], [`Value`]) with rowids, unique
//!   and secondary indexes, and SQLite-flavoured size accounting;
//! - the Places schema ([`PlacesDb`]): `moz_places`, `moz_historyvisits`
//!   (with Firefox [`Transition`] codes), `moz_bookmarks`,
//!   `moz_inputhistory`, `moz_annos`;
//! - an ingester ([`PlacesIngester`]) that consumes the *same* browser
//!   event stream as `bp-core` but records only what Firefox records —
//!   dropping search terms, form lineage, tab structure, and close times,
//!   exactly the §3.2–3.3 gaps the paper documents.
//!
//! # Example
//!
//! ```
//! use bp_places::{PlacesDb, Transition};
//! use bp_graph::Timestamp;
//!
//! # fn main() -> Result<(), bp_places::TableError> {
//! let mut db = PlacesDb::new();
//! db.record_visit("http://example.com/", Timestamp::from_secs(1), Transition::Typed, None, 1)?;
//! db.set_title("http://example.com/", "Example Domain")?;
//! let hits = db.history_search("example");
//! assert_eq!(hits.len(), 1);
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

mod db;
mod ingest;
mod table;
mod value;

pub use db::{PlacesDb, Transition};
pub use ingest::PlacesIngester;
pub use table::{Column, RowId, Table, TableError};
pub use value::Value;

#[cfg(test)]
mod proptests {
    use super::*;
    use bp_graph::Timestamp;
    use proptest::prelude::*;

    proptest! {
        /// Visit counts are always consistent with the number of visit
        /// rows per place, whatever interleaving of URLs arrives.
        #[test]
        fn visit_counts_consistent(urls in prop::collection::vec(0u8..10, 1..100)) {
            let mut db = PlacesDb::new();
            for (i, u) in urls.iter().enumerate() {
                db.record_visit(
                    &format!("http://p{u}/"),
                    Timestamp::from_secs(i as i64),
                    Transition::Link,
                    None,
                    1,
                ).unwrap();
            }
            for (place, row) in db.places().iter() {
                let count = row[2].as_int().unwrap();
                let actual = db
                    .visits()
                    .lookup("place_id", &Value::Int(place))
                    .unwrap()
                    .len() as i64;
                prop_assert_eq!(count, actual);
            }
        }

        /// Search results always textually contain every query word.
        #[test]
        fn search_results_contain_query(
            pages in prop::collection::vec(("[a-z]{3,8}", "[a-z]{3,8}"), 1..30),
            probe_index in 0usize..30,
        ) {
            let mut db = PlacesDb::new();
            for (i, (host, word)) in pages.iter().enumerate() {
                let url = format!("http://{host}.example/{i}");
                db.record_visit(&url, Timestamp::from_secs(i as i64), Transition::Link, None, 1).unwrap();
                db.set_title(&url, word).unwrap();
            }
            let (_, probe) = &pages[probe_index % pages.len()];
            for (id, _) in db.history_search(probe) {
                let url = db.url_of(id).unwrap().to_lowercase();
                let title = db
                    .places()
                    .cell(id, "title")
                    .unwrap()
                    .as_text()
                    .unwrap_or("")
                    .to_lowercase();
                prop_assert!(url.contains(probe.as_str()) || title.contains(probe.as_str()));
            }
        }

        /// Size accounting is monotone under inserts.
        #[test]
        fn size_is_monotone(urls in prop::collection::vec(0u8..20, 1..50)) {
            let mut db = PlacesDb::new();
            let mut last = 0;
            for (i, u) in urls.iter().enumerate() {
                db.record_visit(
                    &format!("http://p{u}/page"),
                    Timestamp::from_secs(i as i64),
                    Transition::Link,
                    None,
                    1,
                ).unwrap();
                let size = db.encoded_size();
                prop_assert!(size > last, "size must grow with each visit");
                last = size;
            }
        }
    }
}
