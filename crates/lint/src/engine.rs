//! The rule engine: walks workspace `.rs` files, builds a per-file
//! [`FileContext`] (tokens plus just enough structure — test regions,
//! function extents, brace matching), runs every rule, and applies
//! `bp-lint: allow(...)` suppressions.
//!
//! `check_tree` is the full pipeline: one pass over the sorted files runs
//! the per-file rules and distills each file's fact summary, the
//! summaries feed the whole-program [`Program`] that the interprocedural
//! rules (L007–L010) run over, and the combined findings are sorted into
//! canonical (path, line, col, rule) order.

use crate::callgraph::Program;
use crate::diag::{
    parse_directive, Directive, LineMap, Severity, StaleAllow, Suppression, Violation,
};
use crate::lexer::{lex, Lexed, TokenKind};
use crate::parser::parse_file;
use crate::rules::{all_global_rules, all_rules, Rule, METRICS_REGISTRY_PATH};
use crate::symbols::{summarize, FileSummary};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One function found in a file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// Whether a `pub` modifier precedes it (any visibility restriction
    /// counts: `pub(crate)` is still an API the rest of the crate calls).
    pub is_pub: bool,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range (inclusive start, exclusive end) of the parameter list
    /// including the parentheses.
    pub params: (usize, usize),
    /// Token range of the body including braces; `None` for bodiless
    /// declarations (traits, extern blocks).
    pub body: Option<(usize, usize)>,
}

/// Everything a rule gets to look at for one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with unix separators.
    pub rel_path: String,
    /// The file's source text.
    pub src: &'a str,
    /// Lexer output (tokens + comments).
    pub lexed: &'a Lexed,
    /// Offset → line/col mapping.
    pub lines: LineMap,
    /// Byte ranges of test-only code (`#[cfg(test)]` modules, `#[test]`
    /// functions). Files under `tests/` or `benches/` are wholly test.
    pub test_regions: Vec<(usize, usize)>,
    /// `true` when the entire file is test/bench scaffolding.
    pub whole_file_test: bool,
    /// Functions in source order.
    pub fns: Vec<FnInfo>,
    /// For each token index of an opening `(`/`[`/`{`, the index of its
    /// matching closer (usize::MAX when unbalanced).
    pub match_close: Vec<usize>,
}

impl<'a> FileContext<'a> {
    /// The text of token `i`.
    pub fn text(&self, i: usize) -> &'a str {
        let t = &self.lexed.tokens[i];
        &self.src[t.start..t.end]
    }

    /// `true` when token `i` exists and its text equals `s`.
    pub fn is(&self, i: usize, s: &str) -> bool {
        i < self.lexed.tokens.len() && self.text(i) == s
    }

    /// `true` when the byte offset falls inside a test region.
    pub fn in_test(&self, offset: usize) -> bool {
        self.whole_file_test
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Builds a violation at token `i`.
    pub fn violation(&self, rule: &'static str, i: usize, message: String) -> Violation {
        let (line, col) = self.lines.locate(self.lexed.tokens[i].start);
        Violation {
            rule,
            path: self.rel_path.clone(),
            line,
            col,
            message,
            severity: Severity::Error,
        }
    }
}

/// Builds the match table for `(`/`[`/`{` tokens.
pub(crate) fn match_delims(ctx_tokens: &Lexed, src: &str) -> Vec<usize> {
    let toks = &ctx_tokens.tokens;
    let mut close = vec![usize::MAX; toks.len()];
    let mut stack: Vec<(usize, u8)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match src.as_bytes()[t.start] {
            b'(' | b'[' | b'{' => stack.push((i, src.as_bytes()[t.start])),
            b')' => pop_matching(&mut stack, &mut close, i, b'('),
            b']' => pop_matching(&mut stack, &mut close, i, b'['),
            b'}' => pop_matching(&mut stack, &mut close, i, b'{'),
            _ => {}
        }
    }
    close
}

fn pop_matching(stack: &mut Vec<(usize, u8)>, close: &mut [usize], i: usize, open: u8) {
    // Pop until the matching opener kind; tolerates unbalanced input.
    while let Some((j, k)) = stack.pop() {
        if k == open {
            close[j] = i;
            return;
        }
    }
}

/// Scans tokens for `#[cfg(test)] mod`, `#[test] fn`, and all `fn` items.
fn scan_structure(ctx: &mut FileContext<'_>) {
    let toks = &ctx.lexed.tokens;
    let n = toks.len();
    let mut i = 0usize;
    let mut pending_cfg_test = false;
    let mut pending_test_fn = false;
    while i < n {
        let t = ctx.text(i);
        // Attribute: #[...] or #![...]
        if t == "#" && (ctx.is(i + 1, "[") || (ctx.is(i + 1, "!") && ctx.is(i + 2, "["))) {
            let open = if ctx.is(i + 1, "[") { i + 1 } else { i + 2 };
            let close = ctx.match_close[open];
            if close == usize::MAX {
                i += 1;
                continue;
            }
            let mut has_cfg = false;
            let mut has_test = false;
            for j in open + 1..close {
                match ctx.text(j) {
                    "cfg" => has_cfg = true,
                    "test" => has_test = true,
                    _ => {}
                }
            }
            if has_cfg && has_test {
                pending_cfg_test = true;
            } else if has_test {
                pending_test_fn = true;
            }
            i = close + 1;
            continue;
        }
        if t == "mod" {
            if i + 2 < n && ctx.is(i + 2, "{") {
                let close = ctx.match_close[i + 2];
                if pending_cfg_test && close != usize::MAX {
                    ctx.test_regions.push((toks[i + 2].start, toks[close].end));
                }
            }
            pending_cfg_test = false;
            pending_test_fn = false;
            i += 1;
            continue;
        }
        if t == "fn" && toks[i].kind == TokenKind::Ident {
            let info = scan_fn(ctx, i);
            if let Some(info) = info {
                if pending_test_fn || pending_cfg_test {
                    if let Some((bs, be)) = info.body {
                        ctx.test_regions.push((toks[bs].start, toks[be].end));
                    }
                }
                let resume = info.params.1.max(i + 1);
                ctx.fns.push(info);
                pending_cfg_test = false;
                pending_test_fn = false;
                i = resume;
                continue;
            }
            pending_cfg_test = false;
            pending_test_fn = false;
            i += 1;
            continue;
        }
        // Any other token consumes pending attributes (e.g. `#[cfg(test)]
        // use …;`), except modifiers that can sit between an attribute and
        // the `fn`/`mod` it decorates.
        if !matches!(
            t,
            "pub"
                | "("
                | ")"
                | "crate"
                | "super"
                | "self"
                | "in"
                | "const"
                | "unsafe"
                | "async"
                | "extern"
        ) && toks[i].kind != TokenKind::Str
        {
            pending_cfg_test = false;
            pending_test_fn = false;
        }
        i += 1;
    }
}

/// Parses one `fn` item starting at token `at` (the `fn` keyword).
fn scan_fn(ctx: &FileContext<'_>, at: usize) -> Option<FnInfo> {
    let toks = &ctx.lexed.tokens;
    let n = toks.len();
    let name_idx = at + 1;
    if name_idx >= n || toks[name_idx].kind != TokenKind::Ident {
        return None;
    }
    let name = ctx.text(name_idx).to_string();
    // Skip generics between name and params.
    let mut j = name_idx + 1;
    if ctx.is(j, "<") {
        let mut depth = 0i32;
        while j < n {
            match ctx.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                "(" | "[" => {
                    // Skip delimited groups inside generics wholesale.
                    let c = ctx.match_close[j];
                    if c == usize::MAX {
                        return None;
                    }
                    j = c;
                }
                _ => {}
            }
            j += 1;
        }
    }
    if !ctx.is(j, "(") {
        return None;
    }
    let params_close = ctx.match_close[j];
    if params_close == usize::MAX {
        return None;
    }
    let params = (j, params_close + 1);
    // After params: return type / where clause, then `{` body or `;`.
    let mut k = params_close + 1;
    let mut body = None;
    while k < n {
        match ctx.text(k) {
            ";" => break,
            "{" => {
                let c = ctx.match_close[k];
                if c != usize::MAX {
                    body = Some((k, c));
                }
                break;
            }
            "(" | "[" => {
                let c = ctx.match_close[k];
                if c == usize::MAX {
                    break;
                }
                k = c + 1;
            }
            _ => k += 1,
        }
    }
    // Visibility: walk back over modifiers for a `pub`.
    let mut is_pub = false;
    let mut back = at;
    for _ in 0..8 {
        if back == 0 {
            break;
        }
        back -= 1;
        match ctx.text(back) {
            "pub" => {
                is_pub = true;
                break;
            }
            "const" | "unsafe" | "async" | "extern" | ")" | "(" | "crate" | "super" | "self"
            | "in" => {}
            _ => break,
        }
    }
    Some(FnInfo {
        name,
        is_pub,
        fn_tok: at,
        params,
        body,
    })
}

/// Builds a [`FileContext`] from source text.
pub fn build_context<'a>(rel_path: &str, src: &'a str, lexed: &'a Lexed) -> FileContext<'a> {
    let match_close = match_delims(lexed, src);
    let whole_file_test = rel_path.contains("/tests/") || rel_path.contains("/benches/");
    let mut ctx = FileContext {
        rel_path: rel_path.to_string(),
        src,
        lexed,
        lines: LineMap::new(src),
        test_regions: Vec::new(),
        whole_file_test,
        fns: Vec::new(),
        match_close,
    };
    scan_structure(&mut ctx);
    ctx
}

/// The outcome of per-file analysis: everything `check_tree` needs
/// downstream.
struct FileAnalysis {
    /// Raw (pre-suppression) per-file violations, including L000, in
    /// (line, col, rule) order.
    raw: Vec<Violation>,
    /// Allowlist directives found in the file.
    directives: Vec<Directive>,
    /// The interprocedural fact summary.
    summary: FileSummary,
}

/// Runs the per-file tier (token rules, directives, fact summary) over
/// one file.
fn analyze_file(rules: &[Box<dyn Rule>], rel_path: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let ctx = build_context(rel_path, src, &lexed);
    let directives = collect_directives(&ctx);

    let mut raw: Vec<Violation> = Vec::new();
    // Directive misuse is itself a violation: reasons are mandatory.
    for d in &directives {
        if d.reason.is_empty() {
            let rules = d.rules.join(", ");
            raw.push(Violation {
                rule: "L000",
                path: ctx.rel_path.clone(),
                line: d.line,
                col: 1,
                message: format!(
                    "allow({rules}) directive is missing its mandatory reason \
                     (write `// bp-lint: allow({rules}): <why this site is safe>`)"
                ),
                severity: Severity::Error,
            });
        }
    }
    for rule in rules {
        raw.extend(rule.check(&ctx));
    }
    raw.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));

    let ast = parse_file(src, &lexed, &ctx.match_close);
    let summary = summarize(rel_path, &ast, &ctx.lines);
    FileAnalysis {
        raw,
        directives,
        summary,
    }
}

/// Routes raw violations through the per-file directives into the
/// report, as surviving violations or recorded suppressions.
fn apply_suppressions(
    raw: Vec<Violation>,
    directives: &HashMap<String, Vec<Directive>>,
    report: &mut CheckReport,
) {
    static NO_DIRECTIVES: Vec<Directive> = Vec::new();
    for v in raw {
        let ds = directives.get(&v.path).unwrap_or(&NO_DIRECTIVES);
        let hit = (v.rule != "L000")
            .then(|| {
                ds.iter().find(|d| {
                    !d.reason.is_empty()
                        && d.target_line == v.line
                        && d.rules.iter().any(|r| r == v.rule)
                })
            })
            .flatten();
        if let Some(d) = hit {
            report.suppressions.push(Suppression {
                rule: v.rule.to_string(),
                path: v.path.clone(),
                line: v.line,
                reason: d.reason.clone(),
            });
        } else {
            report.violations.push(v);
        }
    }
}

/// Audits the allowlist: every reasoned directive must have earned its
/// keep by suppressing at least one finding this run. Directives with an
/// empty reason are excluded — L000 already flags those as violations.
fn collect_stale_allows(
    directives: &HashMap<String, Vec<Directive>>,
    suppressions: &[Suppression],
) -> Vec<StaleAllow> {
    let mut stale = Vec::new();
    for (path, ds) in directives {
        for d in ds {
            if d.reason.is_empty() {
                continue;
            }
            let used = suppressions.iter().any(|s| {
                s.path == *path && s.line == d.target_line && d.rules.iter().any(|r| r == &s.rule)
            });
            if !used {
                stale.push(StaleAllow {
                    path: path.clone(),
                    line: d.line,
                    rules: d.rules.clone(),
                    reason: d.reason.clone(),
                });
            }
        }
    }
    stale.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    stale
}

/// The outcome of checking a tree.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Violations that survived suppression, in (path, line, col, rule)
    /// order.
    pub violations: Vec<Violation>,
    /// Allowlisted (suppressed) findings with their reasons.
    pub suppressions: Vec<Suppression>,
    /// Reasoned allow directives that suppressed nothing — candidates
    /// for deletion, fatal under `check --audit-allowlist`.
    pub stale_allows: Vec<StaleAllow>,
    /// Number of files scanned.
    pub files: usize,
}

impl CheckReport {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The engine: a rule set plus walking/suppression logic.
pub struct Engine {
    rules: Vec<Box<dyn Rule>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with every built-in rule.
    pub fn new() -> Self {
        Engine { rules: all_rules() }
    }

    /// Checks one file's source, applying directives. Per-file rules
    /// only — the interprocedural tier needs the whole tree.
    pub fn check_file(&self, rel_path: &str, src: &str, report: &mut CheckReport) {
        let analysis = analyze_file(&self.rules, rel_path, src);
        let mut directives = HashMap::new();
        directives.insert(rel_path.to_string(), analysis.directives);
        apply_suppressions(analysis.raw, &directives, report);
        report.files += 1;
    }

    /// The full pipeline over every eligible `.rs` file under `root`:
    /// per-file analysis, whole-program rules, suppression, canonical
    /// ordering.
    pub fn check_tree(&self, root: &Path) -> std::io::Result<CheckReport> {
        let mut rels = Vec::new();
        collect_rs_files(root, root, &mut rels)?;
        rels.sort();
        let mut report = CheckReport {
            files: rels.len(),
            ..CheckReport::default()
        };
        let mut directives: HashMap<String, Vec<Directive>> = HashMap::with_capacity(rels.len());
        let mut summaries: Vec<FileSummary> = Vec::with_capacity(rels.len());
        let mut all_raw: Vec<Violation> = Vec::new();
        for rel in &rels {
            let src = std::fs::read_to_string(root.join(rel))?;
            let rel = rel.to_string_lossy().replace('\\', "/");
            let analysis = analyze_file(&self.rules, &rel, &src);
            all_raw.extend(analysis.raw);
            directives.insert(rel, analysis.directives);
            summaries.push(analysis.summary);
        }

        let registry = std::fs::read_to_string(root.join(METRICS_REGISTRY_PATH)).ok();
        let prog = Program::new(summaries, registry);
        for rule in all_global_rules() {
            all_raw.extend(rule.check(&prog));
        }

        apply_suppressions(all_raw, &directives, &mut report);
        report.stale_allows = collect_stale_allows(&directives, &report.suppressions);
        report.violations.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
        report
            .suppressions
            .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
        Ok(report)
    }
}

/// Collects directives and computes each one's target line.
fn collect_directives(ctx: &FileContext<'_>) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in &ctx.lexed.comments {
        let body = &ctx.src[c.start..c.end];
        // Doc comments only ever *document* the directive syntax (e.g. the
        // `parse_directive` rustdoc); a live allow is always a plain `//`
        // or `/* */` comment.
        if body.starts_with("///")
            || body.starts_with("//!")
            || body.starts_with("/**")
            || body.starts_with("/*!")
        {
            continue;
        }
        if let Some((rules, reason)) = parse_directive(body) {
            let line = ctx.lines.line_of(c.start);
            // If any code token shares the comment's line, the directive
            // covers that line; a directive alone on its line covers the
            // next line.
            let has_code_on_line = ctx
                .lexed
                .tokens
                .iter()
                .any(|t| ctx.lines.line_of(t.start) == line && t.start < c.start);
            let target_line = if has_code_on_line { line } else { line + 1 };
            out.push(Directive {
                rules,
                reason,
                line,
                target_line,
            });
        }
    }
    out
}

/// Recursively collects workspace-relative `.rs` paths under `dir`.
///
/// Skips `target/`, `shims/` (vendored stand-ins for external crates —
/// their API shape is dictated by the crates they mirror), hidden
/// directories, and bp-lint's own test fixtures (which violate rules on
/// purpose).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "shims" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Convenience: checks the tree at `root` with the default engine.
pub fn check_root(root: &Path) -> std::io::Result<CheckReport> {
    Engine::new().check_tree(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_src(path: &str, src: &str) -> CheckReport {
        let mut report = CheckReport::default();
        Engine::new().check_file(path, src, &mut report);
        report
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\n";
        let lexed = lex(src);
        let ctx = build_context("crates/storage/src/x.rs", src, &lexed);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(ctx.in_test(unwrap_at));
        assert!(!ctx.in_test(src.find("fn a").unwrap()));
    }

    #[test]
    fn fns_are_extracted_with_visibility() {
        let src = "pub fn alpha(x: u32) -> u32 { x }\nfn beta() {}\npub(crate) fn gamma<T: Ord>(t: T) {}\n";
        let lexed = lex(src);
        let ctx = build_context("crates/query/src/x.rs", src, &lexed);
        let names: Vec<(&str, bool)> = ctx
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![("alpha", true), ("beta", false), ("gamma", true)]
        );
    }

    #[test]
    fn directive_without_reason_is_l000() {
        let src = "// bp-lint: allow(L005)\nfn f() {}\n";
        let report = check_src("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "L000");
    }

    /// A public query entry point that loops without a deadline: one
    /// L005 finding, on its first line.
    const UNBOUNDED: &str =
        "pub fn scan(b: &ProvenanceBrowser) -> u32 {\n    for _ in 0..9 {}\n    0\n}\n";

    #[test]
    fn directive_suppresses_next_line_with_reason() {
        let src = format!("// bp-lint: allow(L005): test of suppression\n{UNBOUNDED}");
        let report = check_src("crates/query/src/x.rs", &src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.suppressions.len(), 1);
        assert_eq!(report.suppressions[0].reason, "test of suppression");
    }

    #[test]
    fn directive_on_same_line_suppresses() {
        let src = UNBOUNDED.replacen('\n', " // bp-lint: allow(L005): demo\n", 1);
        let report = check_src("crates/query/src/x.rs", &src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.suppressions.len(), 1);
    }

    #[test]
    fn doc_comments_never_parse_as_directives() {
        // Rustdoc describing the syntax must not register a phantom allow
        // (which the allowlist audit would then flag as stale).
        let src = format!("/// Accepts `bp-lint: allow(L005): reason`.\n{UNBOUNDED}");
        let lexed = lex(&src);
        let ctx = build_context("crates/query/src/x.rs", &src, &lexed);
        assert!(collect_directives(&ctx).is_empty());
        let report = check_src("crates/query/src/x.rs", &src);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "L005");
    }

    #[test]
    fn stale_allow_audit_flags_only_unused_reasoned_directives() {
        let path = "crates/core/src/x.rs".to_string();
        let mut directives: HashMap<String, Vec<Directive>> = HashMap::new();
        directives.insert(
            path.clone(),
            vec![
                Directive {
                    rules: vec!["L005".to_string()],
                    reason: "earned its keep".to_string(),
                    line: 4,
                    target_line: 5,
                },
                Directive {
                    rules: vec!["L005".to_string(), "L004".to_string()],
                    reason: "the guarded code was deleted".to_string(),
                    line: 9,
                    target_line: 10,
                },
                // Reasonless: L000 territory, not the audit's.
                Directive {
                    rules: vec!["L005".to_string()],
                    reason: String::new(),
                    line: 20,
                    target_line: 21,
                },
            ],
        );
        let suppressions = vec![Suppression {
            rule: "L005".to_string(),
            path: path.clone(),
            line: 5,
            reason: "earned its keep".to_string(),
        }];
        let stale = collect_stale_allows(&directives, &suppressions);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].line, 9);
        assert_eq!(stale[0].rules, vec!["L005".to_string(), "L004".to_string()]);
        assert!(stale[0].to_string().contains("stale allow(L005, L004)"));
    }
}
