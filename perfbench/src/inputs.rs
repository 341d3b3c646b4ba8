//! Seeded inputs: the browsing history, its time-shifted replay copies,
//! and the query stream. The program only ever sees what these produce.

use bp_core::{BrowserEvent, EventKind, TabId};
use bp_graph::NodeId;
use bp_sim::calibrate;
use bp_sim::web::TOPICS;
use std::collections::BTreeSet;
use std::time::Duration;

/// splitmix64: a small seeded generator for the query stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded browsing history plus the replay scheme built on it.
#[derive(Debug)]
pub struct History {
    /// The simulated days, closed by one `TabClosed` per tab still open,
    /// so every replay copy starts and ends with no open tab.
    pub events: Vec<BrowserEvent>,
    /// Offset between consecutive replay copies: the history's days plus
    /// one, as the `serve` feeder shifts its replay cycles.
    shift: Duration,
}

impl History {
    /// Generates `days` of the paper-scale user profile for `seed`.
    pub fn generate(seed: u64, days: u32) -> Self {
        let web = calibrate::paper_web(seed);
        let mut events = calibrate::days_history(&web, seed, days);
        close_open_tabs(&mut events);
        History {
            events,
            shift: Duration::from_secs(u64::from(days) + 1) * 86_400,
        }
    }

    /// Event `i` of the replay stream: copy `1 + i / len` of the history,
    /// shifted past every earlier copy.
    pub fn replay_event(&self, i: usize) -> BrowserEvent {
        let n = self.events.len();
        let copy = (1 + i / n) as u32;
        let mut event = self.events[i % n].clone();
        event.at = event.at.plus(self.shift * copy);
        event
    }

    /// Replay events `from..from + len`.
    pub fn replay_chunk(&self, from: usize, len: usize) -> Vec<BrowserEvent> {
        (from..from + len).map(|i| self.replay_event(i)).collect()
    }
}

/// Appends a `TabClosed` (one second after the last event) for each tab
/// the stream leaves open: the browser shuts down at the end of the
/// history, and a replayed copy can open its tabs again.
fn close_open_tabs(events: &mut Vec<BrowserEvent>) {
    let mut open = BTreeSet::new();
    for event in events.iter() {
        match &event.kind {
            EventKind::TabOpened { tab, .. } => {
                open.insert(*tab);
            }
            EventKind::TabClosed { tab } => {
                open.remove(tab);
            }
            _ => {}
        }
    }
    let Some(last) = events.last().map(|e| e.at) else {
        return;
    };
    let at = last.plus(Duration::from_secs(1));
    events.extend(
        open.into_iter()
            .map(|tab: TabId| BrowserEvent::tab_closed(at, tab)),
    );
}

/// The §2 use-case query paths, in round-robin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `contextual_history_search` (§2.1).
    Search,
    /// `contextual_history_search_ppr`.
    Ppr,
    /// `personalize_query` (§2.2).
    Personalize,
    /// `time_contextual_search` (§2.3).
    Timectx,
    /// `first_recognizable_ancestor` (§2.4).
    Lineage,
}

impl Path {
    /// Every path, in stream order.
    pub const ALL: [Path; 5] = [
        Path::Search,
        Path::Ppr,
        Path::Personalize,
        Path::Timectx,
        Path::Lineage,
    ];

    /// Name of the span around the entry point.
    pub fn span(self) -> &'static str {
        match self {
            Path::Search => "query.search",
            Path::Ppr => "query.ppr",
            Path::Personalize => "query.personalize",
            Path::Timectx => "query.timectx",
            Path::Lineage => "query.lineage",
        }
    }

    /// Median latency metric.
    pub fn p50_metric(self) -> &'static str {
        match self {
            Path::Search => "search_p50_ms",
            Path::Ppr => "ppr_p50_ms",
            Path::Personalize => "personalize_p50_ms",
            Path::Timectx => "timectx_p50_ms",
            Path::Lineage => "lineage_p50_ms",
        }
    }

    /// Per-layer self-time metric of the entry point.
    pub fn self_metric(self) -> &'static str {
        match self {
            Path::Search => "query.search_self_ms",
            Path::Ppr => "query.ppr_self_ms",
            Path::Personalize => "query.personalize_self_ms",
            Path::Timectx => "query.timectx_self_ms",
            Path::Lineage => "query.lineage_self_ms",
        }
    }

    /// Position in [`Path::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the path reads the frozen CSR snapshot.
    pub fn frozen(self) -> bool {
        self != Path::Timectx
    }
}

/// One use-case query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Contextual search for a term.
    Search(&'static str),
    /// PageRank-context search for a term.
    Ppr(&'static str),
    /// Query expansion of a term.
    Personalize(&'static str),
    /// Subject term seen at about the time of a companion term.
    Timectx(&'static str, &'static str),
    /// Recognizable ancestor of a download node.
    Lineage(NodeId),
}

impl Query {
    /// The entry point this query calls.
    pub fn path(&self) -> Path {
        match self {
            Query::Search(_) => Path::Search,
            Query::Ppr(_) => Path::Ppr,
            Query::Personalize(_) => Path::Personalize,
            Query::Timectx(..) => Path::Timectx,
            Query::Lineage(_) => Path::Lineage,
        }
    }
}

/// Draws every item of a population once per round, each round in a new
/// seeded order: uniform like sampling with replacement, but a run's
/// draws cover the population evenly, so a run's medians do not depend
/// on which items a short sample happened to repeat.
#[derive(Debug)]
struct Deck<T> {
    items: Vec<T>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>, seed: u64) -> Self {
        Deck {
            next: items.len(),
            items,
            rng: Rng::new(seed),
        }
    }

    fn draw(&mut self) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = self.rng.below(i + 1);
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// The query stream: paths round-robin; each path draws its terms from
/// its own deck of the simulator's topic vocabularies (the time-context
/// companion from one more), and lineage its targets from a deck of the
/// profile's downloads.
#[derive(Debug)]
pub struct QueryStream {
    terms: [Deck<&'static str>; 5],
    downloads: Deck<NodeId>,
    issued: usize,
}

impl QueryStream {
    /// A stream for `seed` over `downloads` (non-empty).
    pub fn new(seed: u64, downloads: Vec<NodeId>) -> Self {
        let words: Vec<&'static str> = TOPICS
            .iter()
            .flat_map(|t| t.vocabulary.iter().copied())
            .collect();
        // Decorrelated from the history generator, which uses `seed`.
        let mut rng = Rng::new(seed ^ 0xD1B5_4A32_D192_ED03);
        QueryStream {
            terms: std::array::from_fn(|_| Deck::new(words.clone(), rng.next_u64())),
            downloads: Deck::new(downloads, rng.next_u64()),
            issued: 0,
        }
    }
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let path = Path::ALL[self.issued % Path::ALL.len()];
        self.issued += 1;
        let [search, ppr, personalize, subject, companion] = &mut self.terms;
        Some(match path {
            Path::Search => Query::Search(search.draw()),
            Path::Ppr => Query::Ppr(ppr.draw()),
            Path::Personalize => Query::Personalize(personalize.draw()),
            Path::Timectx => Query::Timectx(subject.draw(), companion.draw()),
            Path::Lineage => Query::Lineage(self.downloads.draw()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::eventlog::format_log;

    fn bytes(seed: u64) -> (String, String) {
        let h = History::generate(seed, 2);
        let mut events = format_log(&h.events);
        events.push_str(&format_log(&h.replay_chunk(0, 2 * h.events.len() + 3)));
        let downloads = (0..7).map(NodeId::new).collect();
        let queries: Vec<Query> = QueryStream::new(seed, downloads).take(200).collect();
        (events, format!("{queries:?}"))
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        assert_eq!(bytes(42), bytes(42));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let (events_a, queries_a) = bytes(42);
        let (events_b, queries_b) = bytes(43);
        assert_ne!(events_a, events_b);
        assert_ne!(queries_a, queries_b);
    }

    #[test]
    fn replay_copies_leave_no_tab_open_and_move_forward_in_time() {
        let h = History::generate(7, 2);
        let n = h.events.len();
        let mut open = BTreeSet::new();
        let mut last = h.events[0].at;
        for i in 0..3 * n {
            let e = if i < n {
                h.events[i].clone()
            } else {
                h.replay_event(i - n)
            };
            assert!(e.at >= last, "event {i} goes back in time");
            last = e.at;
            match e.kind {
                EventKind::TabOpened { tab, .. } => assert!(open.insert(tab), "{tab} reopened"),
                EventKind::TabClosed { tab } => assert!(open.remove(&tab), "{tab} not open"),
                _ => {}
            }
            if (i + 1) % n == 0 {
                assert!(open.is_empty(), "copy ends with tabs open");
            }
        }
    }

    #[test]
    fn queries_go_round_robin_and_cover_each_deck_evenly() {
        let downloads: Vec<NodeId> = (0..7).map(NodeId::new).collect();
        let qs: Vec<Query> = QueryStream::new(1, downloads).take(5 * 320).collect();
        let mut searched = std::collections::BTreeMap::new();
        let mut targets = std::collections::BTreeMap::new();
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.path(), Path::ALL[i % 5]);
            match q {
                Query::Search(t) => *searched.entry(*t).or_insert(0) += 1,
                Query::Lineage(d) => *targets.entry(*d).or_insert(0) += 1,
                _ => {}
            }
        }
        // 320 searches over the 160-word vocabulary (one word, "rosebud",
        // is in two topics): two full rounds.
        assert_eq!(searched.values().sum::<i32>(), 320);
        assert!(searched.values().all(|&n| n == 2 || n == 4), "{searched:?}");
        // 320 lineage targets over 7 downloads: 45 full rounds plus 5.
        assert!(targets.values().all(|&n| n == 45 || n == 46), "{targets:?}");
    }
}
