//! A light suffix-stripping stemmer.
//!
//! Personalized web search (§2.2) must recognize that a user who visits
//! "gardening" pages is interested in a "garden" — matching inflected forms
//! is enough for that; a full Porter stemmer is not required. This stemmer
//! strips common English inflectional suffixes conservatively (never below
//! three characters) so distinct stems rarely collide.

use std::borrow::Cow;

/// The suffix rules as `(suffix, replacement)`, tried in order: the first
/// whose suffix the token ends with and whose base keeps three characters
/// fires.
const RULES: &[(&str, &str)] = &[
    ("ational", "ate"),
    ("fulness", "ful"),
    ("iveness", "ive"),
    ("ization", "ize"),
    ("iness", "y"),
    ("ings", ""),
    ("edly", ""),
    ("ing", ""),
    ("ies", "y"),
    ("ed", ""),
    ("es", ""),
    ("ly", ""),
    ("s", ""),
];

/// `ENDS_A_SUFFIX[b]` is `true` if some rule's suffix ends in byte `b`:
/// a token whose last byte is not one of them stems to itself.
static ENDS_A_SUFFIX: [bool; 256] = {
    let mut ends = [false; 256];
    let mut i = 0;
    while i < RULES.len() {
        let suffix = RULES[i].0.as_bytes();
        assert!(!suffix.is_empty(), "a rule strips a suffix");
        ends[suffix[suffix.len() - 1] as usize] = true;
        i += 1;
    }
    ends
};

/// Stems a lowercase token by stripping common inflectional suffixes.
///
/// The algorithm applies at most one suffix rule, the first that fits of
/// `-ational → -ate`, `-fulness → -ful`, `-iveness → -ive`,
/// `-ization → -ize`, `-iness → -y`, `-ings`, `-edly`, `-ing`,
/// `-ies → -y`, `-ed`, `-es`, `-ly` and `-s`. A rule only fires if the
/// remaining stem keeps at least three characters.
///
/// The stem borrows a prefix of `token` unless its rule appends a
/// replacement (`-ational → -ate`, `-ies → -y`, ...), so most tokens stem
/// without allocating.
///
/// # Examples
///
/// ```
/// use bp_text::stem;
/// assert_eq!(stem("gardening"), "garden");
/// assert_eq!(stem("flowers"), "flower");
/// assert_eq!(stem("tickets"), "ticket");
/// assert_eq!(stem("wine"), "wine");
/// ```
pub fn stem(token: &str) -> Cow<'_, str> {
    match split(token) {
        (base, "") => Cow::Borrowed(base),
        (base, replacement) => Cow::Owned([base, replacement].concat()),
    }
}

/// Appends the stem of `token` to `out`: [`stem`] for callers that keep
/// their own buffer.
pub(crate) fn stem_into(token: &str, out: &mut String) {
    let (base, replacement) = split(token);
    out.push_str(base);
    out.push_str(replacement);
}

/// The stem of `token` as a prefix of it and the replacement to append.
fn split(token: &str) -> (&str, &'static str) {
    if !token
        .as_bytes()
        .last()
        .is_some_and(|&last| ENDS_A_SUFFIX[usize::from(last)])
    {
        return (token, "");
    }
    for &(suffix, replacement) in RULES {
        let Some(base) = token.strip_suffix(suffix) else {
            continue;
        };
        let chars = base.chars().count();
        if chars < 3 {
            continue;
        }
        if !replacement.is_empty() {
            return (base, replacement);
        }
        // Undouble a trailing doubled consonant left by -ing/-ed
        // stripping ("stopping" -> "stopp" -> "stop").
        let mut tail = base.chars().rev();
        if let (Some(last), Some(prev)) = (tail.next(), tail.next()) {
            if chars >= 4 && last == prev && !"aeiou".contains(last) && last != 's' {
                return (&base[..base.len() - last.len_utf8()], "");
            }
        }
        return (base, "");
    }
    (token, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plural_stripping() {
        assert_eq!(stem("flowers"), "flower");
        assert_eq!(stem("roses"), "ros"); // -es rule; acceptable collision space
        assert_eq!(stem("tickets"), "ticket");
    }

    #[test]
    fn ing_and_ed() {
        assert_eq!(stem("gardening"), "garden");
        assert_eq!(stem("visited"), "visit");
        assert_eq!(stem("shopping"), "shop");
        assert_eq!(stem("stopping"), "stop");
    }

    #[test]
    fn ies_to_y() {
        assert_eq!(stem("wineries"), "winery");
        assert_eq!(stem("movies"), "movy"); // consistent, if not pretty
    }

    #[test]
    fn short_tokens_untouched() {
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("ing"), "ing");
        assert_eq!(stem("bed"), "bed");
    }

    #[test]
    fn unsuffixed_tokens_untouched() {
        assert_eq!(stem("wine"), "wine");
        assert_eq!(stem("rosebud"), "rosebud");
    }

    #[test]
    fn stemming_is_idempotent_on_common_vocab() {
        for w in ["garden", "flower", "ticket", "wine", "visit", "shop"] {
            assert_eq!(stem(&stem(w)), stem(w));
        }
    }

    #[test]
    fn related_forms_share_a_stem() {
        assert_eq!(stem("gardening"), stem("gardens"));
        assert_eq!(stem("flowering"), stem("flowers"));
    }

    #[test]
    fn ss_not_undoubled() {
        // "glasses" -> "glass"; trailing double-s is legitimate.
        assert_eq!(stem("glasses"), "glass");
    }
}
