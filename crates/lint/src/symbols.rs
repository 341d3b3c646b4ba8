//! Per-file fact extraction: distills the AST into flat, cheap-to-store
//! summaries of every function — its signature, the calls it makes
//! (with receiver chains, loop context, and interesting argument
//! shapes), and whether it ever mentions the SLO deadline types. The
//! interprocedural rules operate on these summaries, never on the AST
//! itself.

use crate::ast::{AstFile, Block, Expr, FnItem, Item};
use crate::diag::LineMap;

/// Facts about one source file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSummary {
    /// Workspace-relative path, unix separators.
    pub rel_path: String,
    /// The crate the file belongs to (`storage` for
    /// `crates/storage/src/store.rs`), empty when not under `crates/`.
    pub crate_name: String,
    /// `true` for files under `tests/` or `benches/`.
    pub whole_file_test: bool,
    /// Functions in source order (including test fns, flagged).
    pub fns: Vec<FnSummary>,
}

/// Facts about one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type name, empty for free functions.
    pub impl_type: String,
    /// `true` when any visibility modifier precedes the fn.
    pub is_pub: bool,
    /// `true` for `#[test]` fns, fns in `#[cfg(test)]` mods, or fns in
    /// whole-file-test files.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Parameter names in order (`self` included for methods).
    pub param_names: Vec<String>,
    /// Parameter types, space-joined source tokens, same order.
    pub param_tys: Vec<String>,
    /// `true` when the body names `Budget` or `Scope` anywhere.
    pub mentions_deadline: bool,
    /// Every call and method call in the body (loops included).
    pub calls: Vec<CallFact>,
}

/// One call site inside a function body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallFact {
    /// Callee name (final path segment or method name).
    pub name: String,
    /// For path calls, the second-to-last segment (`slo` in
    /// `crate::slo::observe`, `Deadline` in `Deadline::start`); empty
    /// for unqualified and method calls.
    pub qual: String,
    /// For method calls, the rendered receiver chain (`self.graph`,
    /// `state.shared`, `_` when the receiver is itself a call); empty
    /// for path calls.
    pub recv: String,
    /// `true` for `recv.name(...)`, `false` for `path(...)`.
    pub is_method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
    /// `true` when the call sits inside a loop body or loop header.
    pub in_loop: bool,
    /// Argument count (receiver excluded for method calls).
    pub argc: usize,
    /// `(position, value)` for string-literal arguments.
    pub str_args: Vec<(usize, String)>,
    /// `(position, pattern)` for `format!` arguments; `{…}` holes
    /// become `*`.
    pub fmt_args: Vec<(usize, String)>,
    /// `(position, param index)` for arguments that are exactly one of
    /// the enclosing function's parameters.
    pub param_args: Vec<(usize, usize)>,
    /// `(position, chain)` for arguments that are path/field chains
    /// (`state.traces`) — used to substitute lock identities through
    /// helper calls.
    pub path_args: Vec<(usize, String)>,
}

impl FnSummary {
    /// The key rules display for this function (`Type::name` or `name`).
    pub fn display(&self) -> String {
        if self.impl_type.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.impl_type, self.name)
        }
    }
}

/// Extracts the crate name from a workspace-relative path.
pub fn crate_of(rel_path: &str) -> String {
    rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

/// Builds the summary for one parsed file.
pub fn summarize(rel_path: &str, ast: &AstFile, lines: &LineMap) -> FileSummary {
    let whole_file_test = rel_path.contains("/tests/") || rel_path.contains("/benches/");
    let mut out = FileSummary {
        rel_path: rel_path.to_string(),
        crate_name: crate_of(rel_path),
        whole_file_test,
        fns: Vec::new(),
    };
    collect_items(&ast.items, "", whole_file_test, lines, &mut out.fns);
    out
}

fn collect_items(
    items: &[Item],
    impl_type: &str,
    in_test: bool,
    lines: &LineMap,
    out: &mut Vec<FnSummary>,
) {
    for item in items {
        match item {
            Item::Fn(f) => out.push(summarize_fn(f, impl_type, in_test, lines)),
            Item::Impl(im) => collect_items(&im.items, &im.type_name, in_test, lines, out),
            Item::Mod(m) => collect_items(&m.items, impl_type, in_test || m.cfg_test, lines, out),
            Item::Other => {}
        }
    }
}

fn summarize_fn(f: &FnItem, impl_type: &str, in_test: bool, lines: &LineMap) -> FnSummary {
    let (line, col) = lines.locate(f.span.start);
    let mut s = FnSummary {
        name: f.name.clone(),
        impl_type: impl_type.to_string(),
        is_pub: f.is_pub,
        is_test: f.is_test || in_test,
        line,
        col,
        param_names: f.params.iter().map(|p| p.name.clone()).collect(),
        param_tys: f.params.iter().map(|p| p.ty.clone()).collect(),
        mentions_deadline: false,
        calls: Vec::new(),
    };
    if let Some(body) = &f.body {
        let mut cx = Walk {
            lines,
            param_names: &s.param_names,
            calls: &mut s.calls,
            mentions_deadline: &mut s.mentions_deadline,
        };
        cx.exprs(&body.exprs, false);
    }
    s
}

struct Walk<'a> {
    lines: &'a LineMap,
    param_names: &'a [String],
    calls: &'a mut Vec<CallFact>,
    mentions_deadline: &'a mut bool,
}

impl Walk<'_> {
    fn block(&mut self, b: &Block, in_loop: bool) {
        self.exprs(&b.exprs, in_loop);
    }

    fn exprs(&mut self, exprs: &[Expr], in_loop: bool) {
        for e in exprs {
            self.expr(e, in_loop);
        }
    }

    fn expr(&mut self, e: &Expr, in_loop: bool) {
        match e {
            Expr::Path { segs, .. } => {
                if segs.iter().any(|s| s == "Budget" || s == "Scope") {
                    *self.mentions_deadline = true;
                }
            }
            Expr::StrLit { .. } => {}
            Expr::Call { callee, args, span } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    let name = segs.last().cloned().unwrap_or_default();
                    let qual = if segs.len() >= 2 {
                        segs[segs.len() - 2].clone()
                    } else {
                        String::new()
                    };
                    self.push_call(name, qual, String::new(), false, *span, args, in_loop);
                }
                self.expr(callee, in_loop);
                self.exprs(args, in_loop);
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                span,
            } => {
                let chain = recv.chain().unwrap_or_else(|| "_".to_string());
                self.push_call(
                    name.clone(),
                    String::new(),
                    chain,
                    true,
                    *span,
                    args,
                    in_loop,
                );
                self.expr(recv, in_loop);
                self.exprs(args, in_loop);
            }
            Expr::Field { base, .. } => self.expr(base, in_loop),
            Expr::Macro { args, .. } | Expr::Group { exprs: args, .. } => self.exprs(args, in_loop),
            Expr::Loop { header, body, .. } => {
                // Header calls iterate too (`for n in g.nodes()`).
                self.exprs(header, true);
                self.block(body, true);
            }
            Expr::Block(b) => self.block(b, in_loop),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_call(
        &mut self,
        name: String,
        qual: String,
        recv: String,
        is_method: bool,
        span: crate::ast::Span,
        args: &[Expr],
        in_loop: bool,
    ) {
        let (line, col) = self.lines.locate(span.start);
        let mut fact = CallFact {
            name,
            qual,
            recv,
            is_method,
            line,
            col,
            in_loop,
            argc: args.len(),
            ..CallFact::default()
        };
        for (pos, arg) in args.iter().enumerate() {
            match arg {
                Expr::StrLit { value, .. } => fact.str_args.push((pos, value.clone())),
                Expr::Macro { name, args, .. } if name == "format" => {
                    if let Some(Expr::StrLit { value, .. }) = args.first() {
                        fact.fmt_args.push((pos, fmt_pattern(value)));
                    }
                }
                Expr::Path { segs, .. } if segs.len() == 1 => {
                    if let Some(idx) = self.param_names.iter().position(|p| *p == segs[0]) {
                        fact.param_args.push((pos, idx));
                    }
                    fact.path_args.push((pos, segs[0].clone()));
                }
                _ => {
                    if let Some(chain) = arg.chain() {
                        fact.path_args.push((pos, chain));
                    }
                }
            }
        }
        self.calls.push(fact);
    }
}

/// Turns a `format!` template into a match pattern: each `{…}` hole
/// becomes `*`; doubled braces are the literal characters.
pub fn fmt_pattern(template: &str) -> String {
    let mut out = String::new();
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => {
                if chars.peek() == Some(&'{') {
                    chars.next();
                    out.push('{');
                } else {
                    for inner in chars.by_ref() {
                        if inner == '}' {
                            break;
                        }
                    }
                    out.push('*');
                }
            }
            '}' => {
                if chars.peek() == Some(&'}') {
                    chars.next();
                }
                out.push('}');
            }
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::match_delims;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn summary(path: &str, src: &str) -> FileSummary {
        let lexed = lex(src);
        let close = match_delims(&lexed, src);
        let ast = parse_file(src, &lexed, &close);
        summarize(path, &ast, &LineMap::new(src))
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/storage/src/store.rs"), "storage");
        assert_eq!(crate_of("README.rs"), "");
    }

    #[test]
    fn methods_carry_impl_type_and_receivers() {
        let src = r#"
            impl ProvenanceStore {
                pub fn add_node(&mut self, op: Op) {
                    self.commit(op);
                }
                fn commit(&mut self, op: Op) {
                    self.graph.add_node(op.id);
                    self.wal.append(payload);
                }
            }
        "#;
        let s = summary("crates/storage/src/store.rs", src);
        assert_eq!(s.crate_name, "storage");
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].impl_type, "ProvenanceStore");
        assert!(s.fns[0].is_pub);
        let commit = &s.fns[1];
        let add = commit.calls.iter().find(|c| c.name == "add_node").unwrap();
        assert_eq!(add.recv, "self.graph");
        let app = commit.calls.iter().find(|c| c.name == "append").unwrap();
        assert_eq!(app.recv, "self.wal");
    }

    #[test]
    fn loop_context_and_deadline_mentions() {
        let src = r#"
            pub fn walk(browser: &ProvenanceBrowser) {
                let scope = crate::scope::Scope::open(browser);
                for n in browser.graph().nodes() {
                    score(n);
                }
            }
            fn score(n: NodeId) -> f64 { weight(n) }
        "#;
        let s = summary("crates/query/src/context.rs", src);
        let walk = &s.fns[0];
        assert!(walk.mentions_deadline);
        let nodes = walk.calls.iter().find(|c| c.name == "nodes").unwrap();
        assert!(nodes.in_loop);
        let score = walk.calls.iter().find(|c| c.name == "score").unwrap();
        assert!(score.in_loop);
        let open = walk.calls.iter().find(|c| c.name == "open").unwrap();
        assert!(!open.in_loop);
        assert_eq!(open.qual, "Scope");
        let score_fn = &s.fns[1];
        let weight = score_fn.calls.iter().find(|c| c.name == "weight").unwrap();
        assert!(!weight.in_loop);
    }

    #[test]
    fn interesting_args_are_recorded() {
        let src = r#"
            fn observe(obs: &Obs, latency_metric: &str) {
                obs.histogram(latency_metric);
                obs.counter("query.deadline.hit");
                obs.gauge(&format!("bench.query.{name}.latency_us"));
                push_ring(&state.traces, entry);
            }
        "#;
        let s = summary("crates/obs/src/slo.rs", src);
        let f = &s.fns[0];
        let hist = f.calls.iter().find(|c| c.name == "histogram").unwrap();
        assert_eq!(hist.param_args, vec![(0, 1)]);
        let ctr = f.calls.iter().find(|c| c.name == "counter").unwrap();
        assert_eq!(ctr.str_args, vec![(0, "query.deadline.hit".to_string())]);
        let g = f.calls.iter().find(|c| c.name == "gauge").unwrap();
        assert_eq!(
            g.fmt_args,
            vec![(0, "bench.query.*.latency_us".to_string())]
        );
        let pr = f.calls.iter().find(|c| c.name == "push_ring").unwrap();
        assert_eq!(pr.argc, 2);
        assert!(pr
            .path_args
            .iter()
            .any(|(pos, chain)| *pos == 0 && chain == "state.traces"));
    }

    #[test]
    fn test_fns_are_flagged() {
        let src = r#"
            fn real() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.counter("junk"); }
            }
        "#;
        let s = summary("crates/obs/src/metrics.rs", src);
        assert!(!s.fns[0].is_test);
        assert!(s.fns[1].is_test);
        let s2 = summary("crates/storage/tests/wal.rs", "fn helper() {}");
        assert!(s2.whole_file_test);
        assert!(s2.fns[0].is_test);
    }

    #[test]
    fn fmt_patterns() {
        assert_eq!(
            fmt_pattern("bench.query.{name}.latency_us"),
            "bench.query.*.latency_us"
        );
        assert_eq!(fmt_pattern("plain"), "plain");
        assert_eq!(fmt_pattern("{{literal}}"), "{literal}");
        assert_eq!(fmt_pattern("{a}{b}"), "**");
    }
}
