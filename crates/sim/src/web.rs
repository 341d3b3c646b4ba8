//! The synthetic web: topical pages, domains, links, and a search engine.
//!
//! Experiments need a web for the simulated user to browse. Pages belong
//! to **topics** (gardening, film, wine, travel, …), carry titles and
//! content drawn from the topic's vocabulary, and link preferentially
//! within their topic with Zipfian popularity — enough structure that
//! contextual search has real signal to find and personalization has real
//! ambiguity to resolve (the paper's "rosebud" is deliberately a word with
//! two topical readings, §2.1–2.2).

use rand::distributions::Distribution;
use rand::Rng;

/// A topic with its vocabulary.
#[derive(Debug, Clone)]
pub struct Topic {
    /// Topic name (also its domain stem).
    pub name: &'static str,
    /// Vocabulary: words pages of this topic use in titles and content.
    pub vocabulary: &'static [&'static str],
}

/// The fixed topic universe. "rosebud" deliberately appears in both the
/// film and gardening vocabularies.
pub static TOPICS: &[Topic] = &[
    Topic {
        name: "film",
        vocabulary: &[
            "film", "movie", "cinema", "director", "actor", "scene", "classic", "review",
            "rosebud", "kane", "citizen", "noir", "reel", "screen", "script", "oscar", "drama",
            "plot", "cast", "sled",
        ],
    },
    Topic {
        name: "gardening",
        vocabulary: &[
            "garden",
            "flower",
            "rosebud",
            "rose",
            "soil",
            "seed",
            "bloom",
            "prune",
            "spring",
            "plant",
            "petal",
            "shrub",
            "compost",
            "bulb",
            "stem",
            "greenhouse",
            "perennial",
            "mulch",
            "trellis",
            "bud",
        ],
    },
    Topic {
        name: "wine",
        vocabulary: &[
            "wine",
            "vineyard",
            "tasting",
            "bottle",
            "vintage",
            "cellar",
            "grape",
            "napa",
            "red",
            "white",
            "cork",
            "winery",
            "sommelier",
            "barrel",
            "blend",
            "estate",
            "reserve",
            "aroma",
            "tannin",
            "pour",
        ],
    },
    Topic {
        name: "travel",
        vocabulary: &[
            "travel",
            "flight",
            "plane",
            "ticket",
            "hotel",
            "airport",
            "booking",
            "trip",
            "fare",
            "destination",
            "luggage",
            "tour",
            "itinerary",
            "airline",
            "departure",
            "arrival",
            "visa",
            "beach",
            "city",
            "journey",
        ],
    },
    Topic {
        name: "cooking",
        vocabulary: &[
            "recipe",
            "cooking",
            "kitchen",
            "bake",
            "oven",
            "flavor",
            "dish",
            "ingredient",
            "sauce",
            "roast",
            "grill",
            "spice",
            "dough",
            "simmer",
            "chef",
            "menu",
            "dinner",
            "breakfast",
            "dessert",
            "pan",
        ],
    },
    Topic {
        name: "technology",
        vocabulary: &[
            "software",
            "code",
            "computer",
            "program",
            "network",
            "data",
            "server",
            "cloud",
            "browser",
            "provenance",
            "graph",
            "storage",
            "query",
            "database",
            "algorithm",
            "system",
            "kernel",
            "compile",
            "debug",
            "release",
        ],
    },
    Topic {
        name: "news",
        vocabulary: &[
            "news",
            "report",
            "headline",
            "politics",
            "economy",
            "market",
            "election",
            "policy",
            "world",
            "local",
            "breaking",
            "analysis",
            "opinion",
            "editor",
            "journalist",
            "story",
            "press",
            "media",
            "update",
            "coverage",
        ],
    },
    Topic {
        name: "sports",
        vocabulary: &[
            "game",
            "team",
            "score",
            "league",
            "match",
            "player",
            "season",
            "coach",
            "stadium",
            "final",
            "tournament",
            "goal",
            "racing",
            "champion",
            "record",
            "training",
            "fitness",
            "running",
            "cycling",
            "swimming",
        ],
    },
];

/// One synthetic page.
#[derive(Debug, Clone)]
pub struct Page {
    /// Stable page id (index into [`SyntheticWeb::pages`]).
    pub id: usize,
    /// Full URL.
    pub url: String,
    /// Title text (topic vocabulary).
    pub title: String,
    /// Body terms (for the search engine's index).
    pub content: Vec<&'static str>,
    /// Topic index into [`TOPICS`].
    pub topic: usize,
    /// Outgoing link targets (page ids).
    pub links: Vec<usize>,
    /// `true` if downloading from this page is plausible (file-hosting
    /// flavoured pages).
    pub offers_download: bool,
}

/// Zipf-like popularity sampler over `n` items (rank 1 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler for `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over zero items");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }
}

impl Distribution<usize> for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x: f64 = rng.gen();
        self.cumulative.partition_point(|&c| c < x)
    }
}

/// The generated web.
#[derive(Debug, Clone)]
pub struct SyntheticWeb {
    /// All pages, id-indexed.
    pages: Vec<Page>,
    /// Page ids per topic.
    by_topic: Vec<Vec<usize>>,
    /// Popularity sampler within a topic.
    zipf: Zipf,
}

/// Configuration for web generation.
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// Pages per topic.
    pub pages_per_topic: usize,
    /// Outgoing links per page.
    pub links_per_page: usize,
    /// Fraction of links that stay within the page's topic.
    pub intra_topic_fraction: f64,
    /// Zipf exponent for popularity.
    pub zipf_exponent: f64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            pages_per_topic: 400,
            links_per_page: 8,
            intra_topic_fraction: 0.8,
            zipf_exponent: 1.0,
        }
    }
}

impl SyntheticWeb {
    /// Generates a web from `config` using `rng`.
    pub fn generate(config: &WebConfig, rng: &mut impl Rng) -> Self {
        let mut pages = Vec::new();
        let mut by_topic: Vec<Vec<usize>> = vec![Vec::new(); TOPICS.len()];
        for (topic_idx, topic) in TOPICS.iter().enumerate() {
            for i in 0..config.pages_per_topic {
                let id = pages.len();
                let vocab = topic.vocabulary;
                let mut content: Vec<&'static str> = Vec::with_capacity(8);
                for _ in 0..8 {
                    content.push(vocab[rng.gen_range(0..vocab.len())]);
                }
                let w1 = vocab[rng.gen_range(0..vocab.len())];
                let w2 = vocab[rng.gen_range(0..vocab.len())];
                let domain_no = i % 20;
                let offers_download = i % 17 == 0;
                let url = format!("http://{}{domain_no}.example/{w1}/{w2}-{i}", topic.name);
                let title = format!("{w1} {w2} — {} page {i}", topic.name);
                pages.push(Page {
                    id,
                    url,
                    title,
                    content,
                    topic: topic_idx,
                    links: Vec::new(),
                    offers_download,
                });
                by_topic[topic_idx].push(id);
            }
        }
        let zipf = Zipf::new(config.pages_per_topic, config.zipf_exponent);
        // Wire links with topical locality and Zipfian target popularity.
        let n_topics = TOPICS.len();
        #[allow(
            clippy::needless_range_loop,
            reason = "`pages` is mutated at [id] below"
        )]
        for id in 0..pages.len() {
            let topic = pages[id].topic;
            let mut links = Vec::with_capacity(config.links_per_page);
            for _ in 0..config.links_per_page {
                let target_topic = if rng.gen_bool(config.intra_topic_fraction) {
                    topic
                } else {
                    rng.gen_range(0..n_topics)
                };
                let rank = zipf.sample(rng).min(by_topic[target_topic].len() - 1);
                let target = by_topic[target_topic][rank];
                if target != id && !links.contains(&target) {
                    links.push(target);
                }
            }
            pages[id].links = links;
        }
        SyntheticWeb {
            pages,
            by_topic,
            zipf,
        }
    }

    /// All pages.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// One page by id.
    pub fn page(&self, id: usize) -> &Page {
        &self.pages[id]
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` if the web has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Samples a page of `topic` with Zipfian popularity.
    pub fn sample_topic_page(&self, topic: usize, rng: &mut impl Rng) -> &Page {
        let ids = &self.by_topic[topic];
        let rank = self.zipf.sample(rng).min(ids.len() - 1);
        &self.pages[ids[rank]]
    }

    /// The search engine: ranks pages by query-term overlap with their
    /// title and content, with a popularity tiebreak. Returns up to `k`
    /// page ids. This is what the simulated user clicks through, and the
    /// target surface for the §2.2 personalization experiment.
    pub fn search(&self, query: &str, k: usize) -> Vec<usize> {
        let terms: Vec<String> = query.split_whitespace().map(str::to_lowercase).collect();
        if terms.is_empty() {
            return Vec::new();
        }
        let mut scored: Vec<(usize, f64)> = Vec::new();
        for page in &self.pages {
            let mut score = 0.0;
            for term in &terms {
                let in_title = page.title.to_lowercase().contains(term.as_str());
                let in_content = page.content.iter().any(|w| w == term);
                if in_title {
                    score += 2.0;
                }
                if in_content {
                    score += 1.0;
                }
            }
            if score > 0.0 {
                // Popularity tiebreak: earlier pages in a topic are the
                // Zipf-popular ones.
                let rank_bonus = 1.0 / (1.0 + (page.id % 400) as f64);
                scored.push((page.id, score + rank_bonus));
            }
        }
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored.into_iter().map(|(id, _)| id).collect()
    }

    /// URL of the search-results page for a query.
    pub fn search_url(query: &str) -> String {
        let encoded: String = query
            .chars()
            .map(|c| if c == ' ' { '+' } else { c })
            .collect();
        format!("http://search.example/?q={encoded}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn web() -> SyntheticWeb {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        SyntheticWeb::generate(&WebConfig::default(), &mut rng)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = web();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let b = SyntheticWeb::generate(&WebConfig::default(), &mut rng);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.pages().iter().zip(b.pages()) {
            assert_eq!(pa.url, pb.url);
            assert_eq!(pa.links, pb.links);
        }
    }

    #[test]
    fn pages_cover_all_topics() {
        let w = web();
        assert_eq!(w.len(), TOPICS.len() * 400);
        for topic in 0..TOPICS.len() {
            assert!(w.pages().iter().any(|p| p.topic == topic));
        }
    }

    #[test]
    fn links_mostly_stay_in_topic() {
        let w = web();
        let mut intra = 0usize;
        let mut total = 0usize;
        for page in w.pages() {
            for &l in &page.links {
                total += 1;
                if w.page(l).topic == page.topic {
                    intra += 1;
                }
            }
            assert!(!page.links.contains(&page.id), "no self links");
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "intra-topic fraction {frac}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng).min(99)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 10 * counts[50].max(1) / 2);
    }

    #[test]
    fn search_finds_topical_pages() {
        let w = web();
        let hits = w.search("wine tasting", 10);
        assert!(!hits.is_empty());
        // Top hits should be wine-topic pages.
        let wine_topic = TOPICS.iter().position(|t| t.name == "wine").unwrap();
        let top_topical = hits
            .iter()
            .take(5)
            .filter(|&&id| w.page(id).topic == wine_topic)
            .count();
        assert!(top_topical >= 3, "{top_topical}/5 topical");
    }

    #[test]
    fn rosebud_is_ambiguous_by_design() {
        let w = web();
        let hits = w.search("rosebud", 20);
        let film = TOPICS.iter().position(|t| t.name == "film").unwrap();
        let garden = TOPICS.iter().position(|t| t.name == "gardening").unwrap();
        let topics: Vec<usize> = hits.iter().map(|&id| w.page(id).topic).collect();
        assert!(topics.contains(&film), "film pages match rosebud");
        assert!(topics.contains(&garden), "gardening pages match rosebud");
    }

    #[test]
    fn search_is_deterministic_and_bounded() {
        let w = web();
        assert_eq!(w.search("wine", 5), w.search("wine", 5));
        assert!(w.search("wine", 5).len() <= 5);
        assert!(w.search("", 5).is_empty());
        assert!(w.search("zzzznonexistent", 5).is_empty());
    }

    #[test]
    fn search_url_encodes_spaces() {
        assert_eq!(
            SyntheticWeb::search_url("wine tasting"),
            "http://search.example/?q=wine+tasting"
        );
    }

    #[test]
    fn some_pages_offer_downloads() {
        let w = web();
        assert!(w.pages().iter().any(|p| p.offers_download));
        assert!(w.pages().iter().any(|p| !p.offers_download));
    }
}
