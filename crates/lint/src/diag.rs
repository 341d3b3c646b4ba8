//! Diagnostics: violations, line mapping, and allowlist directives.

use std::fmt;

/// How serious a finding is. Everything bp-lint reports today fails the
/// build; the severity only affects display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A rule violation (fails `check`).
    Error,
}

/// One rule violation at a concrete source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id (`L004` … `L010`, or `L000` for directive misuse).
    pub rule: &'static str,
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Severity (always [`Severity::Error`] today).
    pub severity: Severity,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A suppression that matched a violation.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule suppressed.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// Line the suppressed violation was on.
    pub line: u32,
    /// The written justification from the directive.
    pub reason: String,
}

/// A reasoned allow directive that suppressed nothing this run: the
/// code it guarded was fixed or moved, so the allowlist entry is dead
/// weight and should be deleted (`check --audit-allowlist` fails on
/// these).
#[derive(Debug, Clone)]
pub struct StaleAllow {
    /// Workspace-relative path of the file holding the directive.
    pub path: String,
    /// Line the directive comment starts on.
    pub line: u32,
    /// Rules the directive names.
    pub rules: Vec<String>,
    /// The written justification, kept for the audit message.
    pub reason: String,
}

impl std::fmt::Display for StaleAllow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: stale allow({}): suppresses nothing — remove it (reason was: {})",
            self.path,
            self.line,
            self.rules.join(", "),
            self.reason
        )
    }
}

/// Byte-offset → (line, column) mapping for one file.
#[derive(Debug)]
pub struct LineMap {
    /// Byte offset of the start of each line; `starts[0] == 0`.
    starts: Vec<usize>,
}

impl LineMap {
    /// Builds the map for `src`.
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineMap { starts }
    }

    /// 1-based (line, column) of a byte offset.
    pub fn locate(&self, offset: usize) -> (u32, u32) {
        let line_idx = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let line = u32::try_from(line_idx + 1).unwrap_or(u32::MAX);
        let col = u32::try_from(offset - self.starts[line_idx] + 1).unwrap_or(u32::MAX);
        (line, col)
    }

    /// 1-based line of a byte offset.
    pub fn line_of(&self, offset: usize) -> u32 {
        self.locate(offset).0
    }
}

/// A parsed `bp-lint: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// Rules the directive suppresses.
    pub rules: Vec<String>,
    /// The mandatory written reason (empty string when omitted — L000).
    pub reason: String,
    /// Line the directive comment starts on.
    pub line: u32,
    /// Line the directive applies to: its own line when code shares it,
    /// otherwise the next line.
    pub target_line: u32,
}

/// Parses one comment body for an allow directive. Accepts
/// `bp-lint: allow(L009): reason` and `bp-lint: allow(L004, L005): reason`.
pub fn parse_directive(comment: &str) -> Option<(Vec<String>, String)> {
    let at = comment.find("bp-lint:")?;
    let rest = comment[at + "bp-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    // Only real rule ids (`L` + digits) make a directive; this keeps prose
    // like "use `bp-lint: allow(...)`" in docs from parsing as one.
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty()
        || !rules.iter().all(|r| {
            r.len() == 4 && r.starts_with('L') && r[1..].bytes().all(|b| b.is_ascii_digit())
        })
    {
        return None;
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix(':').map_or("", str::trim).to_string();
    Some((rules, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_map_locates() {
        let m = LineMap::new("ab\ncd\n");
        assert_eq!(m.locate(0), (1, 1));
        assert_eq!(m.locate(1), (1, 2));
        assert_eq!(m.locate(3), (2, 1));
        assert_eq!(m.locate(4), (2, 2));
    }

    #[test]
    fn directive_parses_with_reason() {
        let (rules, reason) =
            parse_directive("// bp-lint: allow(L009): the caller's budget bounds this loop")
                .unwrap();
        assert_eq!(rules, vec!["L009"]);
        assert_eq!(reason, "the caller's budget bounds this loop");
    }

    #[test]
    fn directive_multiple_rules_and_missing_reason() {
        let (rules, reason) = parse_directive("// bp-lint: allow(L004, L005)").unwrap();
        assert_eq!(rules, vec!["L004", "L005"]);
        assert!(reason.is_empty());
    }

    #[test]
    fn non_directives_ignored() {
        assert!(parse_directive("// just a comment about bp-lint").is_none());
        assert!(parse_directive("// bp-lint: allow()").is_none());
    }
}
