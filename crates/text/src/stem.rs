//! A light suffix-stripping stemmer.
//!
//! Personalized web search (§2.2) must recognize that a user who visits
//! "gardening" pages is interested in a "garden" — matching inflected forms
//! is enough for that; a full Porter stemmer is not required. This stemmer
//! strips common English inflectional suffixes conservatively (never below
//! three characters) so distinct stems rarely collide.

use std::borrow::Cow;

/// Stems a lowercase token by stripping common inflectional suffixes.
///
/// The algorithm applies at most one suffix rule, longest first:
/// `-ational → -ate`, `-iness → -y`, `-fulness`, `-ings`, `-ing`, `-edly`,
/// `-eds`, `-ed`, `-ies → -y`, `-es`, `-s`, `-ly`. A rule only fires if the
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
    // (suffix, replacement)
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
    for (suffix, replacement) in RULES {
        let Some(base) = token.strip_suffix(suffix) else {
            continue;
        };
        let chars = base.chars().count();
        if chars < 3 {
            continue;
        }
        if !replacement.is_empty() {
            return Cow::Owned(format!("{base}{replacement}"));
        }
        // Undouble a trailing doubled consonant left by -ing/-ed
        // stripping ("stopping" -> "stopp" -> "stop").
        let mut tail = base.chars().rev();
        if let (Some(last), Some(prev)) = (tail.next(), tail.next()) {
            if chars >= 4 && last == prev && !"aeiou".contains(last) && last != 's' {
                return Cow::Borrowed(&base[..base.len() - last.len_utf8()]);
            }
        }
        return Cow::Borrowed(base);
    }
    Cow::Borrowed(token)
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
