//! The user behaviour model: turning a synthetic web into an event stream.
//!
//! Generates day-structured browsing sessions — searches, link-following,
//! typed navigations to favourites, tabs, bookmarks, forms, downloads,
//! redirects, embedded content — with the statistical shape the paper's
//! history had ("more than 25,000 nodes over the past 79 days", §3). Every
//! emitted stream is valid for the capture layer: tabs exist before they
//! navigate, bookmarks exist before they are clicked, downloads happen on
//! pages.

use crate::web::{SyntheticWeb, TOPICS};
use bp_core::{BrowserEvent, EventKind, NavigationCause, TabId};
use bp_graph::Timestamp;
use rand::Rng;

/// Relative action frequencies for one simulated user.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// Interest weights per topic index (unlisted topics are never
    /// browsed deliberately).
    pub interests: Vec<(usize, f64)>,
    /// Sessions per day (inclusive range).
    pub sessions_per_day: (u32, u32),
    /// Actions per session (inclusive range).
    pub actions_per_session: (u32, u32),
    /// Action weights; normalized at sample time.
    pub weights: ActionWeights,
}

/// Weights for each action the simulated user can take.
#[derive(Debug, Clone)]
pub struct ActionWeights {
    /// Issue a web search on an interest topic.
    pub search: f64,
    /// Follow a link from the current page (or a search result).
    pub follow_link: f64,
    /// Type a favourite URL into the location bar.
    pub typed: f64,
    /// Open a new tab from the current one.
    pub new_tab: f64,
    /// Close a tab.
    pub close_tab: f64,
    /// Press back.
    pub back: f64,
    /// Bookmark the current page.
    pub bookmark_add: f64,
    /// Navigate via an existing bookmark.
    pub bookmark_click: f64,
    /// Download from the current page.
    pub download: f64,
    /// Submit a form (travel/search style).
    pub form: f64,
    /// Reload the current page.
    pub reload: f64,
}

impl Default for ActionWeights {
    fn default() -> Self {
        ActionWeights {
            search: 12.0,
            follow_link: 45.0,
            typed: 10.0,
            new_tab: 6.0,
            close_tab: 5.0,
            back: 8.0,
            bookmark_add: 2.0,
            bookmark_click: 4.0,
            download: 2.0,
            form: 3.0,
            reload: 3.0,
        }
    }
}

fn topic_index(name: &str) -> usize {
    TOPICS
        .iter()
        .position(|t| t.name == name)
        .expect("known topic")
}

impl UserProfile {
    /// A generic multi-interest user.
    pub fn generic() -> Self {
        UserProfile {
            interests: vec![
                (topic_index("news"), 3.0),
                (topic_index("technology"), 2.0),
                (topic_index("sports"), 1.0),
                (topic_index("cooking"), 1.0),
            ],
            sessions_per_day: (2, 4),
            actions_per_session: (8, 30),
            weights: ActionWeights::default(),
        }
    }

    /// The §2.2 gardener: searches "rosebud" meaning the flower.
    pub fn gardener() -> Self {
        UserProfile {
            interests: vec![
                (topic_index("gardening"), 6.0),
                (topic_index("cooking"), 1.5),
                (topic_index("news"), 1.0),
            ],
            ..Self::generic()
        }
    }

    /// The §2.1 cinephile: searches "rosebud" and finds Citizen Kane.
    pub fn cinephile() -> Self {
        UserProfile {
            interests: vec![
                (topic_index("film"), 6.0),
                (topic_index("news"), 1.5),
                (topic_index("technology"), 1.0),
            ],
            ..Self::generic()
        }
    }

    /// The §2.3 wine enthusiast who also shops for plane tickets.
    pub fn wine_enthusiast() -> Self {
        UserProfile {
            interests: vec![
                (topic_index("wine"), 5.0),
                (topic_index("travel"), 3.0),
                (topic_index("cooking"), 1.0),
            ],
            ..Self::generic()
        }
    }

    fn sample_topic(&self, rng: &mut impl Rng) -> usize {
        let total: f64 = self.interests.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen::<f64>() * total;
        for &(topic, w) in &self.interests {
            x -= w;
            if x <= 0.0 {
                return topic;
            }
        }
        self.interests.last().expect("non-empty interests").0
    }
}

#[derive(Debug, Clone)]
struct TabSim {
    id: TabId,
    /// Current page id in the synthetic web, or None for a results page.
    page: Option<usize>,
    /// Query whose results page we are on, if any.
    results_of: Option<String>,
    /// Back stack of page ids.
    back_stack: Vec<usize>,
}

/// Generates event streams for one user against one web.
#[derive(Debug)]
pub struct SessionGenerator<'w, R> {
    web: &'w SyntheticWeb,
    profile: UserProfile,
    rng: R,
    clock: Timestamp,
    tabs: Vec<TabSim>,
    next_tab: u32,
    bookmarks: Vec<String>,
    downloads: u64,
    redirects: u64,
}

impl<'w, R: Rng> SessionGenerator<'w, R> {
    /// Creates a generator starting at timestamp zero.
    pub fn new(web: &'w SyntheticWeb, profile: UserProfile, rng: R) -> Self {
        SessionGenerator {
            web,
            profile,
            rng,
            clock: Timestamp::EPOCH,
            tabs: Vec::new(),
            next_tab: 0,
            bookmarks: Vec::new(),
            downloads: 0,
            redirects: 0,
        }
    }

    fn tick(&mut self, min_s: i64, max_s: i64) -> Timestamp {
        let dwell = self.rng.gen_range(min_s..=max_s);
        self.clock = self.clock.plus_micros(dwell * 1_000_000);
        self.clock
    }

    fn open_tab(&mut self, events: &mut Vec<BrowserEvent>, opener: Option<TabId>) -> usize {
        let id = TabId(self.next_tab);
        self.next_tab += 1;
        let at = self.tick(1, 5);
        events.push(BrowserEvent::tab_opened(at, id, opener));
        self.tabs.push(TabSim {
            id,
            page: None,
            results_of: None,
            back_stack: Vec::new(),
        });
        self.tabs.len() - 1
    }

    fn navigate(
        &mut self,
        events: &mut Vec<BrowserEvent>,
        tab_idx: usize,
        page_id: usize,
        cause: NavigationCause,
    ) {
        let at = self.tick(3, 180);
        let page = self.web.page(page_id);
        let tab = self.tabs[tab_idx].id;
        events.push(BrowserEvent::navigate(
            at,
            tab,
            &page.url,
            Some(&page.title),
            cause,
        ));
        // Occasionally the page pulls embedded third-party content.
        if self.rng.gen_bool(0.25) {
            let at = self.tick(1, 2);
            events.push(BrowserEvent::new(
                at,
                EventKind::EmbedLoad {
                    tab,
                    url: format!("http://cdn.example/assets/{}.js", page_id % 50),
                },
            ));
        }
        let state = &mut self.tabs[tab_idx];
        if let Some(prev) = state.page {
            state.back_stack.push(prev);
        }
        state.page = Some(page_id);
        state.results_of = None;
    }

    /// Navigate with a chance of a redirect hop through a shortener.
    fn navigate_maybe_redirected(
        &mut self,
        events: &mut Vec<BrowserEvent>,
        tab_idx: usize,
        page_id: usize,
        cause: NavigationCause,
    ) {
        // Redirects require an origin page; 10% of link follows hop
        // through a shortener first.
        let has_origin =
            self.tabs[tab_idx].page.is_some() || self.tabs[tab_idx].results_of.is_some();
        if has_origin && matches!(cause, NavigationCause::Link) && self.rng.gen_bool(0.1) {
            self.redirects += 1;
            let at = self.tick(2, 30);
            let tab = self.tabs[tab_idx].id;
            events.push(BrowserEvent::navigate(
                at,
                tab,
                format!("http://short.example/{}", self.redirects),
                None,
                NavigationCause::Link,
            ));
            let at = self.tick(1, 1);
            let page = self.web.page(page_id);
            events.push(BrowserEvent::navigate(
                at,
                tab,
                &page.url,
                Some(&page.title),
                NavigationCause::Redirect {
                    status: if self.rng.gen_bool(0.5) { 301 } else { 302 },
                },
            ));
            let state = &mut self.tabs[tab_idx];
            if let Some(prev) = state.page {
                state.back_stack.push(prev);
            }
            state.page = Some(page_id);
            state.results_of = None;
        } else {
            self.navigate(events, tab_idx, page_id, cause);
        }
    }

    fn do_search(&mut self, events: &mut Vec<BrowserEvent>, tab_idx: usize) {
        let topic = self.profile.sample_topic(&mut self.rng);
        let vocab = TOPICS[topic].vocabulary;
        let mut query = vocab[self.rng.gen_range(0..vocab.len())].to_owned();
        if self.rng.gen_bool(0.4) {
            let second = vocab[self.rng.gen_range(0..vocab.len())];
            if second != query {
                query.push(' ');
                query.push_str(second);
            }
        }
        let at = self.tick(3, 60);
        let tab = self.tabs[tab_idx].id;
        events.push(BrowserEvent::navigate(
            at,
            tab,
            SyntheticWeb::search_url(&query),
            Some(&format!("{query} — search")),
            NavigationCause::SearchQuery {
                query: query.clone(),
            },
        ));
        let state = &mut self.tabs[tab_idx];
        if let Some(prev) = state.page {
            state.back_stack.push(prev);
        }
        state.page = None;
        state.results_of = Some(query.clone());
        // Usually click through to a result.
        if self.rng.gen_bool(0.85) {
            let results = self.web.search(&query, 10);
            if !results.is_empty() {
                let pick = self.rng.gen_range(0..results.len().min(5));
                self.navigate_maybe_redirected(
                    events,
                    tab_idx,
                    results[pick],
                    NavigationCause::Link,
                );
            }
        }
    }

    fn step(&mut self, events: &mut Vec<BrowserEvent>) {
        if self.tabs.is_empty() {
            self.open_tab(events, None);
        }
        let tab_idx = self.rng.gen_range(0..self.tabs.len());
        let w = self.profile.weights.clone();
        let choices = [
            (w.search, 0),
            (w.follow_link, 1),
            (w.typed, 2),
            (w.new_tab, 3),
            (w.close_tab, 4),
            (w.back, 5),
            (w.bookmark_add, 6),
            (w.bookmark_click, 7),
            (w.download, 8),
            (w.form, 9),
            (w.reload, 10),
        ];
        let total: f64 = choices.iter().map(|(w, _)| w).sum();
        let mut x = self.rng.gen::<f64>() * total;
        let mut action = 1;
        for (weight, a) in choices {
            x -= weight;
            if x <= 0.0 {
                action = a;
                break;
            }
        }
        match action {
            0 => self.do_search(events, tab_idx),
            1 => {
                // Follow a link from the current context.
                let target = match (&self.tabs[tab_idx].page, &self.tabs[tab_idx].results_of) {
                    (Some(page_id), _) => {
                        let links = &self.web.page(*page_id).links;
                        if links.is_empty() {
                            None
                        } else {
                            Some(links[self.rng.gen_range(0..links.len())])
                        }
                    }
                    (None, Some(query)) => {
                        let results = self.web.search(query, 10);
                        if results.is_empty() {
                            None
                        } else {
                            Some(results[self.rng.gen_range(0..results.len())])
                        }
                    }
                    (None, None) => None,
                };
                match target {
                    Some(t) => {
                        self.navigate_maybe_redirected(events, tab_idx, t, NavigationCause::Link)
                    }
                    None => self.do_search(events, tab_idx),
                }
            }
            2 => {
                // Typed navigation to a popular page of an interest topic.
                let topic = self.profile.sample_topic(&mut self.rng);
                let page_id = self.web.sample_topic_page(topic, &mut self.rng).id;
                self.navigate(events, tab_idx, page_id, NavigationCause::Typed);
            }
            3 => {
                let opener = self.tabs[tab_idx].id;
                let new_idx = self.open_tab(events, Some(opener));
                let topic = self.profile.sample_topic(&mut self.rng);
                let page_id = self.web.sample_topic_page(topic, &mut self.rng).id;
                self.navigate(events, new_idx, page_id, NavigationCause::Link);
            }
            4 => {
                if self.tabs.len() > 1 {
                    let at = self.tick(1, 10);
                    let tab = self.tabs.remove(tab_idx);
                    events.push(BrowserEvent::tab_closed(at, tab.id));
                }
            }
            5 => {
                if let Some(prev) = self.tabs[tab_idx].back_stack.pop() {
                    let at = self.tick(1, 20);
                    let page = self.web.page(prev);
                    let tab = self.tabs[tab_idx].id;
                    events.push(BrowserEvent::navigate(
                        at,
                        tab,
                        &page.url,
                        Some(&page.title),
                        NavigationCause::BackForward,
                    ));
                    self.tabs[tab_idx].page = Some(prev);
                    self.tabs[tab_idx].results_of = None;
                }
            }
            6 => {
                if let Some(page_id) = self.tabs[tab_idx].page {
                    let page = self.web.page(page_id);
                    if !self.bookmarks.contains(&page.url) {
                        let at = self.tick(1, 10);
                        events.push(BrowserEvent::new(
                            at,
                            EventKind::BookmarkAdd {
                                tab: self.tabs[tab_idx].id,
                                name: page.title.clone(),
                            },
                        ));
                        self.bookmarks.push(page.url.clone());
                    }
                }
            }
            7 => {
                if !self.bookmarks.is_empty() {
                    let url = self.bookmarks[self.rng.gen_range(0..self.bookmarks.len())].clone();
                    if let Some(page) = self.web.pages().iter().find(|p| p.url == url) {
                        let page_id = page.id;
                        self.navigate(
                            events,
                            tab_idx,
                            page_id,
                            NavigationCause::Bookmark { bookmark_url: url },
                        );
                    }
                }
            }
            8 => {
                if let Some(page_id) = self.tabs[tab_idx].page {
                    // File-hosting pages always have something to grab;
                    // ordinary pages occasionally do (a PDF, an image).
                    if self.web.page(page_id).offers_download || self.rng.gen_bool(0.3) {
                        self.downloads += 1;
                        let at = self.tick(5, 120);
                        events.push(BrowserEvent::new(
                            at,
                            EventKind::Download {
                                tab: self.tabs[tab_idx].id,
                                path: format!("/home/user/downloads/file-{}.bin", self.downloads),
                                bytes: self.rng.gen_range(10_000..50_000_000),
                            },
                        ));
                    }
                }
            }
            9 => {
                // A form submission on a travel-flavoured flow.
                if self.tabs[tab_idx].page.is_some() {
                    let topic = self.profile.sample_topic(&mut self.rng);
                    let vocab = TOPICS[topic].vocabulary;
                    let field = vocab[self.rng.gen_range(0..vocab.len())];
                    let page_id = self.web.sample_topic_page(topic, &mut self.rng).id;
                    self.navigate(
                        events,
                        tab_idx,
                        page_id,
                        NavigationCause::FormSubmit {
                            fields: format!("q={field}&when=soon"),
                        },
                    );
                }
            }
            _ => {
                if let Some(page_id) = self.tabs[tab_idx].page {
                    self.navigate(events, tab_idx, page_id, NavigationCause::Reload);
                }
            }
        }
    }

    /// Generates one day of browsing starting at `day * 24h`.
    pub fn generate_day(&mut self, day: u32) -> Vec<BrowserEvent> {
        let mut events = Vec::new();
        // Jump the clock to this day's morning (sessions never cross days).
        let day_start = i64::from(day) * 86_400 + 8 * 3_600;
        if self.clock.as_secs() < day_start {
            self.clock = Timestamp::from_secs(day_start);
        }
        let (lo, hi) = self.profile.sessions_per_day;
        let sessions = self.rng.gen_range(lo..=hi);
        for _ in 0..sessions {
            let (alo, ahi) = self.profile.actions_per_session;
            let actions = self.rng.gen_range(alo..=ahi);
            for _ in 0..actions {
                self.step(&mut events);
            }
            // Inter-session gap: 1–4 hours.
            let gap = self.rng.gen_range(3_600..4 * 3_600);
            self.clock = self.clock.plus_micros(gap * 1_000_000);
        }
        events
    }

    /// Generates `days` full days of browsing.
    pub fn generate(&mut self, days: u32) -> Vec<BrowserEvent> {
        let mut events = Vec::new();
        for day in 0..days {
            events.extend(self.generate_day(day));
        }
        events
    }

    /// Bookmarked URLs so far.
    pub fn bookmarks(&self) -> &[String] {
        &self.bookmarks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::WebConfig;
    use bp_core::{CaptureConfig, ProvenanceBrowser};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn web() -> SyntheticWeb {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        SyntheticWeb::generate(
            &WebConfig {
                pages_per_topic: 100,
                ..WebConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let w = web();
        let mut g1 =
            SessionGenerator::new(&w, UserProfile::generic(), ChaCha8Rng::seed_from_u64(1));
        let mut g2 =
            SessionGenerator::new(&w, UserProfile::generic(), ChaCha8Rng::seed_from_u64(1));
        assert_eq!(g1.generate(3), g2.generate(3));
    }

    #[test]
    fn timestamps_are_nondecreasing() {
        let w = web();
        let mut g = SessionGenerator::new(&w, UserProfile::generic(), ChaCha8Rng::seed_from_u64(2));
        let events = g.generate(5);
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "{:?} then {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn streams_are_valid_for_capture() {
        let w = web();
        for seed in 0..5u64 {
            let mut g =
                SessionGenerator::new(&w, UserProfile::generic(), ChaCha8Rng::seed_from_u64(seed));
            let events = g.generate(3);
            let dir = std::env::temp_dir().join(format!(
                "bp-sim-valid-{seed}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default()).unwrap();
            let n = browser.ingest_all(&events).unwrap();
            assert_eq!(n, events.len(), "every event must apply cleanly");
            assert!(browser.graph().verify_acyclic());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn profiles_browse_their_topics() {
        let w = web();
        let mut g = SessionGenerator::new(
            &w,
            UserProfile::wine_enthusiast(),
            ChaCha8Rng::seed_from_u64(3),
        );
        let events = g.generate(10);
        let urls: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Navigate { url, .. } => Some(url.as_str()),
                _ => None,
            })
            .collect();
        let wine = urls.iter().filter(|u| u.contains("wine")).count();
        let sports = urls.iter().filter(|u| u.contains("sports")).count();
        assert!(wine > sports, "wine {wine} vs sports {sports}");
    }

    #[test]
    fn streams_contain_variety() {
        let w = web();
        let mut g = SessionGenerator::new(&w, UserProfile::generic(), ChaCha8Rng::seed_from_u64(4));
        let events = g.generate(20);
        let has = |f: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::TabOpened { .. })));
        assert!(has(&|k| matches!(k, EventKind::TabClosed { .. })));
        assert!(has(&|k| matches!(
            k,
            EventKind::Navigate {
                cause: NavigationCause::SearchQuery { .. },
                ..
            }
        )));
        assert!(has(&|k| matches!(
            k,
            EventKind::Navigate {
                cause: NavigationCause::Typed,
                ..
            }
        )));
        assert!(has(&|k| matches!(
            k,
            EventKind::Navigate {
                cause: NavigationCause::Redirect { .. },
                ..
            }
        )));
        assert!(has(&|k| matches!(k, EventKind::EmbedLoad { .. })));
        assert!(has(&|k| matches!(k, EventKind::BookmarkAdd { .. })));
        assert!(has(&|k| matches!(k, EventKind::Download { .. })));
        assert!(has(&|k| matches!(
            k,
            EventKind::Navigate {
                cause: NavigationCause::FormSubmit { .. },
                ..
            }
        )));
    }

    #[test]
    fn day_boundaries_respected() {
        let w = web();
        let mut g = SessionGenerator::new(&w, UserProfile::generic(), ChaCha8Rng::seed_from_u64(5));
        let day0 = g.generate_day(0);
        let day5 = g.generate_day(5);
        assert!(day0.last().unwrap().at < day5.first().unwrap().at);
        assert!(day5.first().unwrap().at.as_secs() >= 5 * 86_400);
    }
}
