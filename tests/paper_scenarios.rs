//! The four §2 scenarios, end to end: simulator ground truth → capture →
//! query → the paper's claimed outcome.

use bp_core::{CaptureConfig, ProvenanceBrowser};
use bp_graph::traverse::Budget;
use bp_query::{
    contextual_history_search, downloads_descending_from, find_download,
    first_recognizable_ancestor, personalize_query, textual_history_search, time_contextual_search,
    ContextualConfig, LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_sim::scenario;
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bp-it-scenario-{tag}-{}-{:?}",
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

fn ingest(events: &[bp_core::BrowserEvent], tag: &str) -> (TempDir, ProvenanceBrowser) {
    let dir = TempDir::new(tag);
    let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    browser.ingest_all(events).unwrap();
    (dir, browser)
}

#[test]
fn s21_contextual_search_finds_what_textual_misses() {
    let (_web, s) = scenario::rosebud(31);
    let (_dir, browser) = ingest(&s.events, "rosebud");
    let config = ContextualConfig::default();

    let textual = textual_history_search(&browser, &s.markers.query, &config);
    assert!(
        !textual.contains_key(&s.markers.target_url),
        "textual search must miss the Kane page (it contains no 'rosebud')"
    );

    let contextual = contextual_history_search(&browser, &s.markers.query, &config);
    assert!(
        contextual.contains_key(&s.markers.target_url),
        "contextual search must find it: {:?}",
        contextual.top_keys(10)
    );
    assert!(contextual.elapsed.as_millis() < 200);
}

#[test]
fn s22_personalization_disambiguates_rosebud() {
    let (web, s) = scenario::gardener(32);
    let (_dir, browser) = ingest(&s.events, "gardener");

    let expanded = personalize_query(&browser, &s.markers.query, &PersonalizeConfig::default());
    assert!(
        !expanded.is_unchanged(),
        "a week of gardening must drive expansion"
    );
    // The expanded query improves the rank of gardening pages at the
    // engine without sending it any history.
    let outgoing = expanded.to_query_string();
    assert!(!outgoing.contains("http"));
    let plain: Vec<usize> = web.search(&s.markers.query, 10);
    let personalized: Vec<usize> = web.search(&outgoing, 10);
    let gardening_frac = |ids: &[usize]| {
        ids.iter()
            .filter(|&&id| web.page(id).url.contains("gardening"))
            .count() as f64
            / ids.len().max(1) as f64
    };
    assert!(
        gardening_frac(&personalized) >= gardening_frac(&plain),
        "personalization must not reduce topical precision: {:?} -> {:?}",
        gardening_frac(&plain),
        gardening_frac(&personalized)
    );
}

#[test]
fn s23_wine_associated_with_plane_tickets() {
    let (_web, s) = scenario::wine_and_tickets(33);
    let (_dir, browser) = ingest(&s.events, "wine");

    let result = time_contextual_search(
        &browser,
        &s.markers.query,
        &s.markers.companion_query,
        &TimeContextConfig::default(),
    );
    assert!(
        result.contains_key(&s.markers.target_url),
        "the remembered wine page must surface: {:?}",
        result.top_keys(10)
    );
    // The whole point: far fewer hits than a plain wine search.
    let plain = browser.text_index().search(&s.markers.query);
    assert!(result.hits.len() < plain.len());
    assert!(result.elapsed.as_millis() < 200);
}

#[test]
fn s24_download_lineage_and_untrusted_descendants() {
    let (_web, s) = scenario::driveby(34);
    let (_dir, browser) = ingest(&s.events, "driveby");

    let dl = find_download(&browser, &s.markers.download_path).expect("download captured");
    let answer = first_recognizable_ancestor(&browser, dl, &LineageConfig::default())
        .expect("a recognizable ancestor exists");
    assert_eq!(
        answer.url, s.markers.recognizable_url,
        "the familiar forum is the first recognizable ancestor"
    );
    assert!(answer.elapsed.as_millis() < 200);

    let (suspicious, truncated) =
        downloads_descending_from(&browser, &s.markers.untrusted_url, &Budget::new());
    assert!(!truncated, "an unbounded search runs to the end");
    assert!(
        suspicious.len() >= 3,
        "payload plus the later installers: {suspicious:?}"
    );
    assert!(suspicious
        .iter()
        .any(|(_, p)| p == &s.markers.download_path));
}

#[test]
fn scenarios_survive_restart() {
    // The scenario answers must hold after close/reopen (recovery).
    let (_web, s) = scenario::driveby(35);
    let dir = TempDir::new("restart");
    {
        let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browser.ingest_all(&s.events).unwrap();
    }
    let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    let dl = find_download(&browser, &s.markers.download_path).unwrap();
    let answer = first_recognizable_ancestor(&browser, dl, &LineageConfig::default()).unwrap();
    assert_eq!(answer.url, s.markers.recognizable_url);
}
