//! Tokenization of page titles, URLs, and synthetic page content.
//!
//! History search is first of all *textual* search over "the search term in
//! both its title and URL" (§2.1); the tokenizer therefore understands URL
//! punctuation (slashes, dots, query separators) as word breaks in addition
//! to ordinary whitespace.

/// Calls `f` with each lowercase alphanumeric token of `text`, in order.
///
/// Every token is lowercased into `buf`, which the next token reuses, so
/// a caller that keeps `buf` from call to call tokenizes without
/// allocating once it holds the longest token. This is the only
/// tokenizing loop: indexing, search and term profiles all run on it.
pub(crate) fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            buf.push(c.to_ascii_lowercase());
        } else if !c.is_ascii() && c.is_alphanumeric() {
            // Lowercasing can emit combining marks that are not themselves
            // alphanumeric (e.g. 'İ' → "i\u{307}"); keep tokens pure.
            buf.extend(c.to_lowercase().filter(|lc| lc.is_alphanumeric()));
        } else if !buf.is_empty() {
            f(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(buf);
    }
}

/// Calls `f` with each significant token of `text`: tokens of at least
/// three bytes that are not stopwords. `buf` is [`for_each_token`]'s.
pub(crate) fn for_each_significant_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    for_each_token(text, buf, |token| {
        if token.len() >= 3 && !crate::stopwords::is_stopword(token) {
            f(token);
        }
    });
}

/// Splits text into lowercase alphanumeric tokens.
///
/// Any non-alphanumeric character is a separator, so URLs tokenize
/// naturally: `http://films.example/kane?ref=rosebud` yields
/// `["http", "films", "example", "kane", "ref", "rosebud"]`.
///
/// # Examples
///
/// ```
/// use bp_text::tokenize;
/// assert_eq!(tokenize("Citizen Kane (1941)"), vec!["citizen", "kane", "1941"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |token| {
        tokens.push(token.to_owned());
    });
    tokens
}

/// Tokenizes and drops stopwords and very short tokens; the standard
/// pipeline for indexing and querying.
///
/// # Examples
///
/// ```
/// use bp_text::significant_tokens;
/// let toks = significant_tokens("the rosebud of a sled");
/// assert_eq!(toks, vec!["rosebud", "sled"]);
/// ```
pub fn significant_tokens(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_significant_token(text, &mut String::new(), |token| {
        tokens.push(token.to_owned());
    });
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(tokenize("a b,c.d"), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("RoseBud"), vec!["rosebud"]);
    }

    #[test]
    fn url_tokenization() {
        assert_eq!(
            tokenize("http://films.example/kane?ref=rosebud"),
            vec!["http", "films", "example", "kane", "ref", "rosebud"]
        );
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ???").is_empty());
    }

    #[test]
    fn digits_are_tokens() {
        assert_eq!(tokenize("room 101"), vec!["room", "101"]);
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("Überraschung"), vec!["überraschung"]);
    }

    #[test]
    fn significant_drops_stopwords_and_short_tokens() {
        let toks = significant_tokens("The quick ox at a web");
        assert_eq!(toks, vec!["quick", "web"]);
    }
}
