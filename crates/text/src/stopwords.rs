//! English + web-navigation stopwords.
//!
//! Besides the usual English function words, history text is saturated with
//! URL scaffolding ("http", "www", "com", "html") that carries no retrieval
//! signal; filtering it keeps term-frequency analysis (§4, "Personalizing
//! Web Search") focused on the user's actual vocabulary.

/// Sorted list of stopwords, none longer than [`MAX_LEN`] bytes. It is the
/// one list: [`KEYS`] is derived from it at compile time.
pub(crate) const STOPWORDS: &[&str] = &[
    "about", "after", "all", "also", "and", "any", "are", "because", "been", "before", "but",
    "can", "com", "could", "did", "does", "example", "for", "from", "had", "has", "have", "her",
    "here", "him", "his", "how", "htm", "html", "http", "https", "index", "into", "its", "just",
    "more", "most", "net", "not", "now", "off", "only", "org", "other", "our", "out", "over",
    "page", "php", "she", "should", "site", "some", "such", "than", "that", "the", "their", "them",
    "then", "there", "these", "they", "this", "those", "through", "under", "very", "was", "were",
    "what", "when", "where", "which", "while", "who", "why", "will", "with", "would", "www", "you",
    "your",
];

/// The longest word a key holds: seven bytes, and the length in the eighth.
const MAX_LEN: usize = 7;

/// Packs a word of at most [`MAX_LEN`] bytes into one integer: its bytes
/// from the most significant down, zero-padded, then its length in the
/// low byte. The length tells `"the"` from `"the\0"`, and keys order as
/// their words do, so the sorted list packs to sorted keys.
const fn pack(word: &[u8]) -> u64 {
    let mut key = 0u64;
    let mut i = 0;
    while i < MAX_LEN {
        key <<= 8;
        if i < word.len() {
            key |= word[i] as u64;
        }
        i += 1;
    }
    key << 8 | word.len() as u64
}

/// [`STOPWORDS`] packed, in the same order. Building it fails the compile
/// if a word is too long to pack or the list is not sorted and free of
/// duplicates.
static KEYS: [u64; STOPWORDS.len()] = {
    let mut keys = [0u64; STOPWORDS.len()];
    let mut i = 0;
    while i < keys.len() {
        let word = STOPWORDS[i].as_bytes();
        assert!(word.len() <= MAX_LEN, "a stopword is too long to pack");
        keys[i] = pack(word);
        assert!(
            i == 0 || keys[i - 1] < keys[i],
            "STOPWORDS must stay sorted"
        );
        i += 1;
    }
    keys
};

/// Returns `true` if `token` (already lowercased) is a stopword.
///
/// # Examples
///
/// ```
/// use bp_text::is_stopword;
/// assert!(is_stopword("the"));
/// assert!(is_stopword("http"));
/// assert!(!is_stopword("rosebud"));
/// ```
pub fn is_stopword(token: &str) -> bool {
    // No stopword is longer than a key holds.
    token.len() <= MAX_LEN && KEYS.binary_search(&pack(token.as_bytes())).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_deduped() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted, STOPWORDS,
            "STOPWORDS must stay sorted for binary search"
        );
    }

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "and", "with", "http", "www", "com", "html"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["rosebud", "wine", "flower", "kane", "gardening"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn case_sensitive_by_contract() {
        // Callers lowercase first; uppercase input is simply not found.
        assert!(!is_stopword("The"));
    }

    #[test]
    fn every_listed_word_and_nothing_near_it() {
        for w in STOPWORDS {
            assert!(is_stopword(w), "{w}");
            // Padding and extension must not alias a listed word.
            assert!(!is_stopword(&format!("{w}\0")), "{w}\\0");
            assert!(!is_stopword(&format!("\0{w}")), "\\0{w}");
            assert!(!is_stopword(&format!("{w}{w}")), "{w}{w}");
        }
        assert!(!is_stopword(""));
        assert!(!is_stopword("because1"), "longer than any key");
    }
}
