//! Ranking functions: TF weighting, IDF, cosine similarity, and
//! term-frequency profiles for query expansion.
//!
//! "Personalizing Web Search performs term frequency analysis on the
//! results of a contextual history search to find terms in user history
//! associated with the search term" (§4). [`TermProfile`] is that analysis.

use std::collections::HashMap;

/// Sub-linear term-frequency weight: `1 + ln(tf)` for `tf ≥ 1`, else 0.
///
/// # Examples
///
/// ```
/// use bp_text::tf_weight;
/// assert_eq!(tf_weight(0), 0.0);
/// assert_eq!(tf_weight(1), 1.0);
/// assert!(tf_weight(10) < 10.0);
/// ```
pub fn tf_weight(tf: u32) -> f64 {
    if tf == 0 {
        0.0
    } else {
        1.0 + (tf as f64).ln()
    }
}

/// Smoothed inverse document frequency: `ln(1 + N / df)`.
///
/// Smoothing keeps the value positive even for terms present in every
/// document, so scores stay comparable on tiny histories.
///
/// # Examples
///
/// ```
/// use bp_text::idf;
/// assert!(idf(100, 1) > idf(100, 50));
/// assert!(idf(10, 10) > 0.0);
/// ```
pub fn idf(total_docs: usize, document_frequency: usize) -> f64 {
    if document_frequency == 0 {
        return 0.0;
    }
    (1.0 + total_docs as f64 / document_frequency as f64).ln()
}

/// Cosine similarity between two sparse term-weight vectors.
///
/// Returns 0.0 when either vector is empty or zero.
pub fn cosine(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dot: f64 = small
        .iter()
        .filter_map(|(t, &w)| large.get(t).map(|&v| w * v))
        .sum();
    let na: f64 = a.values().map(|w| w * w).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|w| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// A weighted bag of (stemmed) terms accumulated from weighted documents.
///
/// Used by personalized web search: documents in the contextual
/// neighborhood of the query contribute their terms, weighted by their
/// contextual relevance; the profile's top terms — minus the query's own —
/// become client-side expansion terms.
///
/// # Examples
///
/// ```
/// use bp_text::TermProfile;
/// let mut p = TermProfile::new();
/// p.add_text("rosebud flowers gardening", 1.0);
/// p.add_text("flowers spring", 0.5);
/// let top = p.top_terms(1, &["rosebud".into()]);
/// assert_eq!(top[0].0, "flower");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermProfile {
    weights: HashMap<String, f64>,
    /// The token and stem buffers of [`TermProfile::add_text`], kept from
    /// call to call.
    token: String,
    stem: String,
}

impl TermProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every significant term of `text`, each weighted by `weight`,
    /// in token order. Tokens and stems go into buffers the profile keeps
    /// from call to call, so only a term new to the profile allocates.
    pub fn add_text(&mut self, text: &str, weight: f64) {
        let Self {
            weights,
            token,
            stem,
        } = self;
        crate::tokenize::for_each_significant_token(text, token, |token| {
            stem.clear();
            crate::stem::stem_into(token, stem);
            match weights.get_mut(stem.as_str()) {
                Some(total) => *total += weight,
                None => {
                    weights.insert(stem.clone(), 0.0 + weight);
                }
            }
        });
    }

    /// Adds one already-stemmed term with an explicit weight.
    pub fn add_term(&mut self, term: impl Into<String>, weight: f64) {
        *self.weights.entry(term.into()).or_insert(0.0) += weight;
    }

    /// Total weight of a stemmed term.
    pub fn weight_of(&self, term: &str) -> f64 {
        self.weights.get(term).copied().unwrap_or(0.0)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if no terms have been added.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The `k` heaviest terms, excluding any whose stem appears in
    /// `exclude` (callers pass the original query terms). Deterministic:
    /// ties break lexicographically. Only the `k` returned terms are
    /// cloned.
    pub fn top_terms(&self, k: usize, exclude: &[String]) -> Vec<(String, f64)> {
        let excluded: Vec<_> = exclude.iter().map(|t| crate::stem::stem(t)).collect();
        let mut ranked: Vec<(&str, f64)> = self
            .weights
            .iter()
            .filter(|(t, _)| !excluded.iter().any(|e| e == *t))
            .map(|(t, &w)| (t.as_str(), w))
            .collect();
        let heavier_first = |a: &(&str, f64), b: &(&str, f64)| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(b.0))
        };
        ranked.sort_by(heavier_first);
        ranked.truncate(k);
        ranked.into_iter().map(|(t, w)| (t.to_owned(), w)).collect()
    }

    /// Immutable view of the sparse vector (for cosine comparisons).
    pub fn as_map(&self) -> &HashMap<String, f64> {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tf_weight_is_sublinear_and_monotone() {
        assert_eq!(tf_weight(0), 0.0);
        assert_eq!(tf_weight(1), 1.0);
        assert!(tf_weight(2) > tf_weight(1));
        assert!(tf_weight(101) - tf_weight(100) < tf_weight(2) - tf_weight(1));
    }

    #[test]
    fn idf_prefers_rare_terms() {
        assert!(idf(1000, 1) > idf(1000, 100));
        assert_eq!(idf(1000, 0), 0.0);
        assert!(idf(5, 5) > 0.0, "smoothing keeps ubiquitous terms positive");
    }

    #[test]
    fn cosine_identical_vectors_is_one() {
        let mut a = HashMap::new();
        a.insert("wine".to_owned(), 2.0);
        a.insert("tasting".to_owned(), 1.0);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_disjoint_vectors_is_zero() {
        let mut a = HashMap::new();
        a.insert("wine".to_owned(), 1.0);
        let mut b = HashMap::new();
        b.insert("plane".to_owned(), 1.0);
        assert_eq!(cosine(&a, &b), 0.0);
        assert_eq!(cosine(&a, &HashMap::new()), 0.0);
    }

    #[test]
    fn cosine_is_symmetric() {
        let mut a = HashMap::new();
        a.insert("x".to_owned(), 1.0);
        a.insert("y".to_owned(), 2.0);
        let mut b = HashMap::new();
        b.insert("y".to_owned(), 3.0);
        b.insert("z".to_owned(), 1.0);
        assert!((cosine(&a, &b) - cosine(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn profile_accumulates_weighted_text() {
        let mut p = TermProfile::new();
        p.add_text("flower garden", 1.0);
        p.add_text("flower", 0.5);
        assert!((p.weight_of("flower") - 1.5).abs() < 1e-12);
        assert!((p.weight_of("garden") - 1.0).abs() < 1e-12);
        assert_eq!(p.weight_of("absent"), 0.0);
    }

    #[test]
    fn top_terms_excludes_query_stems() {
        let mut p = TermProfile::new();
        p.add_text("rosebud rosebud flowers", 1.0);
        let top = p.top_terms(5, &["rosebuds".to_owned()]);
        assert!(
            top.iter().all(|(t, _)| t != "rosebud"),
            "query stem excluded"
        );
        assert_eq!(top[0].0, "flower");
    }

    #[test]
    fn top_terms_truncates_and_orders() {
        let mut p = TermProfile::new();
        p.add_term("a", 3.0);
        p.add_term("b", 2.0);
        p.add_term("c", 1.0);
        let top = p.top_terms(2, &[]);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "a");
        assert_eq!(top[1].0, "b");
    }

    #[test]
    fn ties_break_lexicographically() {
        let mut p = TermProfile::new();
        p.add_term("zeta", 1.0);
        p.add_term("alpha", 1.0);
        let top = p.top_terms(2, &[]);
        assert_eq!(top[0].0, "alpha");
    }

    #[test]
    fn stopword_scaffolding_never_enters_profiles() {
        let mut p = TermProfile::new();
        p.add_text("http://www.example.com/index.html wine", 1.0);
        assert_eq!(p.len(), 1, "only 'wine' survives: {:?}", p.as_map());
        assert!(p.weight_of("wine") > 0.0);
    }
}
