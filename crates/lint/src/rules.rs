//! The rule set: repo-specific invariants L004, L005 and L007–L010.
//!
//! L004 and L005 are token-pattern checks over the [`FileContext`], one
//! file at a time. L007–L010 are whole-program rules over the
//! [`Program`] view (symbol summaries + call graph); they implement the
//! provenance-completeness proof (L007), deadlock freedom (L008),
//! deadline propagation (L009), and the metric-name registry (L010).
//! The ids L001–L003 and L006 are retired: clippy enforces those
//! invariants (see the root `clippy.toml` and the library crates'
//! `deny` attributes). See the crate docs for the one-line summaries and
//! DESIGN.md for the full rationale.

use crate::callgraph::{Program, LOCK_PRIMITIVES};
use crate::diag::{Severity, Violation};
use crate::engine::{FileContext, FnInfo};
use crate::symbols::CallFact;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A single lint rule.
pub trait Rule {
    /// Stable rule id (`L004`…).
    fn id(&self) -> &'static str;
    /// One-line description for `bp-lint rules` and docs.
    fn description(&self) -> &'static str;
    /// Runs the rule over one file.
    fn check(&self, ctx: &FileContext<'_>) -> Vec<Violation>;
}

/// Every built-in rule, in id order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(DeterministicSerialization), Box::new(SloGuard)]
}

/// A whole-program (interprocedural) rule.
pub trait GlobalRule {
    /// Stable rule id (`L007`…).
    fn id(&self) -> &'static str;
    /// One-line description for `bp-lint rules` and docs.
    fn description(&self) -> &'static str;
    /// Runs the rule over the whole program.
    fn check(&self, prog: &Program) -> Vec<Violation>;
}

/// Every built-in global rule, in id order.
pub fn all_global_rules() -> Vec<Box<dyn GlobalRule>> {
    vec![
        Box::new(WalBeforeMutate),
        Box::new(LockOrder),
        Box::new(DeadlinePropagation),
        Box::new(MetricNameRegistry),
    ]
}

/// Function-call names that feed bytes to an encoder or WAL frame (L004).
const ENCODE_SINKS: [&str; 8] = [
    "encode",
    "write_u64",
    "write_u32",
    "write_i64",
    "write_str",
    "write_bytes",
    "append",
    "serialize",
];

/// Iterator methods whose order leaks the hasher's state (L004).
const ORDER_LEAKING_ITERS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

// ---------------------------------------------------------------------------
// L004 — deterministic-serialization
// ---------------------------------------------------------------------------

/// L004: no default-hasher map iteration inside functions that feed an
/// encoder/WAL frame — on-disk bytes must be replay-deterministic.
pub struct DeterministicSerialization;

impl DeterministicSerialization {
    /// Collects struct fields declared with a hash-container type.
    fn hash_fields(ctx: &FileContext<'_>) -> BTreeSet<String> {
        let mut fields = BTreeSet::new();
        let toks = &ctx.lexed.tokens;
        // Pattern: `ident : … HashMap|HashSet … ,|}` inside struct bodies.
        // A simple approximation: any `name :` whose following tokens up
        // to the next `,` or `}` at the same depth mention HashMap/HashSet.
        for i in 0..toks.len() {
            if ctx.text(i) != "struct" {
                continue;
            }
            // find `{`
            let mut j = i + 1;
            let mut body = None;
            while j < toks.len() && j < i + 40 {
                match ctx.text(j) {
                    "{" => {
                        body = Some((j, ctx.match_close[j]));
                        break;
                    }
                    ";" | "(" => break,
                    _ => j += 1,
                }
            }
            let Some((open, close)) = body else { continue };
            if close == usize::MAX {
                continue;
            }
            let mut k = open + 1;
            while k < close {
                // field name followed by `:`
                if toks[k].kind == crate::lexer::TokenKind::Ident && ctx.is(k + 1, ":") {
                    let name = ctx.text(k).to_string();
                    let mut m = k + 2;
                    let mut mentions_hash = false;
                    let mut depth = 0i32;
                    while m < close {
                        match ctx.text(m) {
                            "<" => depth += 1,
                            ">" => depth -= 1,
                            "," if depth <= 0 => break,
                            "HashMap" | "HashSet" => mentions_hash = true,
                            _ => {}
                        }
                        m += 1;
                    }
                    if mentions_hash {
                        fields.insert(name);
                    }
                    k = m;
                } else {
                    k += 1;
                }
            }
        }
        fields
    }

    /// Collects local bindings / params with a hash-container type inside
    /// one function.
    fn hash_locals(ctx: &FileContext<'_>, f: &FnInfo) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        let toks = &ctx.lexed.tokens;
        // Params: split on top-level commas; a param mentioning
        // HashMap/HashSet marks its leading identifier.
        let (ps, pe) = f.params;
        let mut start = ps + 1;
        let mut depth = 0i32;
        for j in ps + 1..pe.saturating_sub(1) {
            let t = ctx.text(j);
            match t {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "," if depth == 0 => {
                    mark_param(ctx, start, j, &mut names);
                    start = j + 1;
                }
                _ => {}
            }
        }
        mark_param(ctx, start, pe.saturating_sub(1), &mut names);
        // Lets: `let [mut] NAME … ;` whose statement mentions a hash type.
        if let Some((bs, be)) = f.body {
            let mut i = bs + 1;
            while i < be {
                if ctx.text(i) == "let" {
                    let mut j = i + 1;
                    if ctx.is(j, "mut") {
                        j += 1;
                    }
                    if j < be && toks[j].kind == crate::lexer::TokenKind::Ident {
                        let name = ctx.text(j).to_string();
                        // Scan to the end of the statement at brace depth 0.
                        let mut m = j + 1;
                        let mut mentions = false;
                        let mut d = 0i32;
                        while m < be {
                            match ctx.text(m) {
                                "(" | "[" | "{" => d += 1,
                                ")" | "]" | "}" => d -= 1,
                                ";" if d <= 0 => break,
                                "HashMap" | "HashSet" => mentions = true,
                                _ => {}
                            }
                            m += 1;
                        }
                        if mentions {
                            names.insert(name);
                        }
                        i = m;
                        continue;
                    }
                }
                i += 1;
            }
        }
        names
    }
}

fn mark_param(ctx: &FileContext<'_>, start: usize, end: usize, names: &mut BTreeSet<String>) {
    if start >= end {
        return;
    }
    let mut mentions = false;
    for j in start..end {
        if matches!(ctx.text(j), "HashMap" | "HashSet") {
            mentions = true;
        }
    }
    if !mentions {
        return;
    }
    // First ident before the `:` is the binding name (skip `mut`).
    let mut j = start;
    while j < end {
        let t = ctx.text(j);
        if t == "mut" {
            j += 1;
            continue;
        }
        if ctx.lexed.tokens[j].kind == crate::lexer::TokenKind::Ident && ctx.is(j + 1, ":") {
            names.insert(t.to_string());
        }
        break;
    }
}

impl Rule for DeterministicSerialization {
    fn id(&self) -> &'static str {
        "L004"
    }
    fn description(&self) -> &'static str {
        "no default-hasher HashMap/HashSet iteration inside functions that \
         feed an encoder/WAL frame — use BTreeMap or sort first"
    }
    fn check(&self, ctx: &FileContext<'_>) -> Vec<Violation> {
        let fields = Self::hash_fields(ctx);
        let mut out = Vec::new();
        for f in &ctx.fns {
            let Some((bs, be)) = f.body else { continue };
            if ctx.in_test(ctx.lexed.tokens[bs].start) {
                continue;
            }
            // Does this function call an encode sink?
            let mut has_sink = false;
            for i in bs..be {
                if ENCODE_SINKS.contains(&ctx.text(i)) && ctx.is(i + 1, "(") {
                    has_sink = true;
                    break;
                }
            }
            if !has_sink {
                continue;
            }
            let locals = Self::hash_locals(ctx, f);
            // Iteration sites: NAME.iter()/… or `for … in … NAME …`.
            for i in bs..be {
                let t = ctx.text(i);
                if ORDER_LEAKING_ITERS.contains(&t)
                    && ctx.is(i + 1, "(")
                    && i > 0
                    && ctx.is(i - 1, ".")
                {
                    // receiver: NAME or self.FIELD
                    let recv = i.checked_sub(2).map(|r| ctx.text(r)).unwrap_or("");
                    let is_field = i >= 4
                        && ctx.is(i - 3, ".")
                        && ctx.is(i - 4, "self")
                        && fields.contains(recv);
                    if locals.contains(recv) || is_field {
                        out.push(ctx.violation(
                            self.id(),
                            i,
                            format!(
                                "iterating `{recv}` (std HashMap/HashSet) in a function \
                                 that feeds an encoder: iteration order is nondeterministic, \
                                 so on-disk bytes would differ across runs — use \
                                 BTreeMap/BTreeSet or collect-and-sort before encoding"
                            ),
                        ));
                    }
                }
                if t == "for" {
                    // header: tokens between `in` and the loop `{`.
                    let mut j = i + 1;
                    let mut saw_in = false;
                    while j < be {
                        let tj = ctx.text(j);
                        if tj == "in" {
                            saw_in = true;
                        } else if tj == "{" {
                            break;
                        } else if saw_in {
                            let named_local = locals.contains(tj);
                            let named_field = fields.contains(tj)
                                && j >= 2
                                && ctx.is(j - 1, ".")
                                && ctx.is(j - 2, "self");
                            // `for x in m.iter()` is already caught by the
                            // method-call check above; don't double-report.
                            let method_call_follows = ctx.is(j + 1, ".")
                                && ORDER_LEAKING_ITERS.contains(&ctx.text(j + 2));
                            if (named_local || named_field) && !method_call_follows {
                                out.push(ctx.violation(
                                    self.id(),
                                    j,
                                    format!(
                                        "`for` loop over `{tj}` (std HashMap/HashSet) in a \
                                         function that feeds an encoder: iteration order is \
                                         nondeterministic, so on-disk bytes would differ across \
                                         runs — use BTreeMap/BTreeSet or collect-and-sort first"
                                    ),
                                ));
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// L005 — slo-guard
// ---------------------------------------------------------------------------

/// L005: public query entry points open a query `Scope` (or pin their
/// `Budget`) before unbounded iteration, so every loop can check the one
/// deadline that runs from entry (the paper's 200 ms bound, statically
/// enforced).
pub struct SloGuard;

impl Rule for SloGuard {
    fn id(&self) -> &'static str {
        "L005"
    }
    fn description(&self) -> &'static str {
        "every pub fn in crates/query that executes a use-case query \
         (takes &ProvenanceBrowser and loops) must open a query Scope or pin its Budget"
    }
    fn check(&self, ctx: &FileContext<'_>) -> Vec<Violation> {
        if !ctx.rel_path.starts_with("crates/query/src/") {
            return Vec::new();
        }
        let mut out = Vec::new();
        for f in &ctx.fns {
            if !f.is_pub {
                continue;
            }
            let Some((bs, be)) = f.body else { continue };
            if ctx.in_test(ctx.lexed.tokens[f.fn_tok].start) {
                continue;
            }
            // Use-case entry point: takes the browser.
            let takes_browser =
                (f.params.0..f.params.1).any(|i| ctx.text(i) == "ProvenanceBrowser");
            if !takes_browser {
                continue;
            }
            let mut loops = false;
            let mut consults_deadline = false;
            for i in bs..be {
                match ctx.text(i) {
                    "for" | "while" | "loop" => loops = true,
                    "Scope" | "pinned" => consults_deadline = true,
                    _ => {}
                }
            }
            if loops && !consults_deadline {
                out.push(ctx.violation(
                    self.id(),
                    f.fn_tok,
                    format!(
                        "pub fn `{}` executes a query with loops but never opens a query \
                         Scope or pins its Budget; open one at entry and check the \
                         budget's `expired()` before unbounded iteration (E2's 200 ms bound)",
                        f.name
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// L007 — wal-before-mutate (the provenance-completeness proof)
// ---------------------------------------------------------------------------

/// The storage type whose state the WAL protects.
const STORE_TYPE: &str = "ProvenanceStore";

/// Store fields and the method names that mutate them (L007). The
/// interner is deliberately absent: `DefineString` frames are emitted by
/// `intern()` itself and replay is idempotent on the string table.
const MUTATION_SETS: &[(&str, &[&str])] = &[
    (
        "graph",
        &["add_node", "add_edge_full", "node_mut", "redact_node"],
    ),
    ("keys", &["insert", "remove_key"]),
    ("times", &["insert", "close"]),
];

/// L007: every store mutation is WAL-dominated on all public call paths.
///
/// The paper's completeness claim dies the moment one mutation path
/// skips the log: a crash then silently reverts provenance the user
/// believes is durable. This rule walks the call graph from every
/// public `ProvenanceStore` method; a path that reaches a mutating call
/// without passing through a function that (transitively) appends to
/// the WAL — or one that *reads* it, which marks the recovery/replay
/// context where mutations reconstruct already-logged state — is a
/// completeness hole, reported with the full call path.
pub struct WalBeforeMutate;

impl GlobalRule for WalBeforeMutate {
    fn id(&self) -> &'static str {
        "L007"
    }
    fn description(&self) -> &'static str {
        "every ProvenanceStore mutation must be dominated by a WAL append on \
         all call paths from public entry points (recovery's replay, which \
         reads the WAL, is the one sanctioned exception)"
    }
    fn check(&self, prog: &Program) -> Vec<Violation> {
        let files = &prog.files;
        let g = &prog.graph;
        let n = g.nodes.len();
        let mut direct_append = vec![false; n];
        let mut reads_wal = vec![false; n];
        let mut mutations: Vec<Vec<(u32, u32, String)>> = vec![Vec::new(); n];
        for i in 0..n {
            if g.is_test(files, i) {
                continue;
            }
            let f = g.fn_at(files, i);
            let file = g.file_at(files, i);
            for c in &f.calls {
                if c.is_method && c.name == "append" {
                    let tail = c.recv.rsplit('.').next().unwrap_or("");
                    if tail == "wal" || tail == "snap" {
                        direct_append[i] = true;
                    }
                }
                if c.is_method && c.name == "read_all" {
                    reads_wal[i] = true;
                }
                if file.crate_name == "storage" && f.impl_type == STORE_TYPE && c.is_method {
                    if let Some(field) = c.recv.strip_prefix("self.") {
                        let mutating = MUTATION_SETS
                            .iter()
                            .any(|(fld, names)| *fld == field && names.contains(&c.name.as_str()));
                        if mutating {
                            mutations[i].push((c.line, c.col, format!("{}.{}", c.recv, c.name)));
                        }
                    }
                }
            }
        }
        // can_append: does the function (transitively) append to the WAL?
        let mut can_append = direct_append;
        loop {
            let mut changed = false;
            for i in 0..n {
                if !can_append[i] && g.edges[i].iter().any(|e| can_append[e.to]) {
                    can_append[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let barrier = |i: usize| can_append[i] || reads_wal[i];

        let mut out = Vec::new();
        let mut reported: BTreeSet<(String, u32, u32)> = BTreeSet::new();
        for entry in 0..n {
            let f = g.fn_at(files, entry);
            let file = g.file_at(files, entry);
            if file.crate_name != "storage"
                || f.impl_type != STORE_TYPE
                || !f.is_pub
                || g.is_test(files, entry)
                || barrier(entry)
            {
                continue;
            }
            let mut parent: HashMap<usize, usize> = HashMap::new();
            let mut visited: HashSet<usize> = HashSet::from([entry]);
            let mut queue = VecDeque::from([entry]);
            while let Some(m) = queue.pop_front() {
                for (line, col, desc) in &mutations[m] {
                    let mf = g.file_at(files, m);
                    let key = (mf.rel_path.clone(), *line, *col);
                    if !reported.insert(key) {
                        continue;
                    }
                    let mut path_nodes = vec![m];
                    let mut cur = m;
                    while let Some(&p) = parent.get(&cur) {
                        path_nodes.push(p);
                        cur = p;
                    }
                    path_nodes.reverse();
                    let path_str = path_nodes
                        .iter()
                        .map(|&x| g.fn_at(files, x).display())
                        .collect::<Vec<_>>()
                        .join(" -> ");
                    out.push(Violation {
                        rule: self.id(),
                        path: mf.rel_path.clone(),
                        line: *line,
                        col: *col,
                        message: format!(
                            "store mutation `{desc}` is reachable from public entry \
                             `{}` with no dominating WAL append (call path: {path_str}); \
                             a crash here silently loses provenance — route the \
                             mutation through commit() or append the frame first",
                            g.fn_at(files, entry).display()
                        ),
                        severity: Severity::Error,
                    });
                }
                for e in &g.edges[m] {
                    if !barrier(e.to) && visited.insert(e.to) {
                        parent.insert(e.to, m);
                        queue.push_back(e.to);
                    }
                }
            }
        }
        sort_violations(&mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// L008 — lock-order
// ---------------------------------------------------------------------------

/// A lock identity: a concrete field/static, or "the caller's i-th
/// parameter" awaiting substitution at call sites.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum LockId {
    Concrete(String),
    Param(usize),
}

/// Maps a receiver/argument chain to a lock identity. `self.<field>`
/// receivers are qualified by the impl type so `Journal.inner` and
/// `SloEngine.inner` stay distinct locks.
fn lock_id_of_chain(chain: &str, impl_type: &str, params: &[String]) -> Option<LockId> {
    if chain.is_empty() || chain == "_" || chain == "self" {
        return None;
    }
    if let Some(rest) = chain.strip_prefix("self.") {
        let qual = if impl_type.is_empty() {
            format!("self.{rest}")
        } else {
            format!("{impl_type}.{rest}")
        };
        return Some(LockId::Concrete(qual));
    }
    if let Some(i) = params.iter().position(|p| p == chain) {
        return Some(LockId::Param(i));
    }
    Some(LockId::Concrete(
        chain.rsplit('.').next().unwrap_or(chain).to_string(),
    ))
}

/// L008: the cross-crate lock-order graph must be acyclic.
///
/// Collects every `*.lock()`/`.read()`/`.write()` acquisition, computes
/// which locks each function (transitively) acquires — substituting
/// parameters at call sites so helpers like `push_ring(&self.traces)`
/// resolve to the caller's lock — and records an ordered pair whenever a
/// second lock is acquired after an earlier one in the same function. A
/// cycle in the resulting order graph is a potential deadlock. Self-pairs
/// (`A` then `A` again) are excluded: guard drops are invisible to this
/// analysis, and read-then-write on the same `RwLock` is the metrics
/// registry's normal upgrade pattern.
pub struct LockOrder;

impl GlobalRule for LockOrder {
    fn id(&self) -> &'static str {
        "L008"
    }
    fn description(&self) -> &'static str {
        "nested lock acquisitions must follow one global order — a cycle in \
         the lock-order graph across serve/capture/obs is a potential deadlock"
    }
    fn check(&self, prog: &Program) -> Vec<Violation> {
        let files = &prog.files;
        let g = &prog.graph;
        let n = g.nodes.len();

        // Direct lock events per node, in call order: (call index, ids).
        let mut direct: Vec<Vec<(usize, LockId)>> = vec![Vec::new(); n];
        for (i, events) in direct.iter_mut().enumerate() {
            if g.is_test(files, i) {
                continue;
            }
            let f = g.fn_at(files, i);
            for (ci, c) in f.calls.iter().enumerate() {
                if c.is_method && c.argc == 0 && LOCK_PRIMITIVES.contains(&c.name.as_str()) {
                    if let Some(id) = lock_id_of_chain(&c.recv, &f.impl_type, &f.param_names) {
                        events.push((ci, id));
                    }
                }
            }
        }

        // lockset: all locks a function may acquire, transitively, with
        // callee params substituted through call arguments.
        let mut lockset: Vec<BTreeSet<LockId>> = direct
            .iter()
            .map(|evs| evs.iter().map(|(_, id)| id.clone()).collect())
            .collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                let f = g.fn_at(files, i);
                let mut add: Vec<LockId> = Vec::new();
                for e in &g.edges[i] {
                    let call = &f.calls[e.call_idx];
                    for id in substituted_lockset(&lockset[e.to], call, i, prog) {
                        if !lockset[i].contains(&id) {
                            add.push(id);
                        }
                    }
                }
                for id in add {
                    lockset[i].insert(id);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Ordered pairs: lock A held (directly acquired earlier in this
        // fn), then lock B acquired — directly or inside a callee.
        type Site = (String, u32, u32, String);
        let mut pairs: BTreeMap<(String, String), Site> = BTreeMap::new();
        for (i, events) in direct.iter().enumerate() {
            if g.is_test(files, i) {
                continue;
            }
            let f = g.fn_at(files, i);
            let file = g.file_at(files, i);
            let mut held: Vec<String> = Vec::new();
            let mut direct_iter = events.iter().peekable();
            for (ci, c) in f.calls.iter().enumerate() {
                // Locks this call contributes.
                let mut contributed: Vec<String> = Vec::new();
                if let Some((dci, id)) = direct_iter.peek() {
                    if *dci == ci {
                        if let LockId::Concrete(name) = id {
                            contributed.push(name.clone());
                        }
                        direct_iter.next();
                    }
                }
                for e in g.edges[i].iter().filter(|e| e.call_idx == ci) {
                    for id in substituted_lockset(&lockset[e.to], c, i, prog) {
                        if let LockId::Concrete(name) = id {
                            contributed.push(name);
                        }
                    }
                }
                for b in &contributed {
                    for a in &held {
                        if a != b {
                            pairs.entry((a.clone(), b.clone())).or_insert_with(|| {
                                (file.rel_path.clone(), c.line, c.col, f.display())
                            });
                        }
                    }
                }
                // Only direct acquisitions stay held past the call.
                if let Some(last) = contributed.first() {
                    let was_direct = direct[i].iter().any(|(dci, id)| {
                        *dci == ci && matches!(id, LockId::Concrete(nm) if nm == last)
                    });
                    if was_direct && !held.contains(last) {
                        held.push(last.clone());
                    }
                }
            }
        }

        // Cycle detection: an edge (u, v) participates in a cycle iff v
        // reaches u in the pair graph.
        let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (u, v) in pairs.keys() {
            adj.entry(u).or_default().push(v);
        }
        let reaches = |from: &String, to: &String| -> bool {
            let mut seen: BTreeSet<&String> = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(x) = stack.pop() {
                if x == to {
                    return true;
                }
                if seen.insert(x) {
                    if let Some(next) = adj.get(x) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
            false
        };
        let mut out = Vec::new();
        for ((u, v), (path, line, col, fn_disp)) in &pairs {
            if reaches(v, u) {
                let counter = pairs
                    .get(&(v.clone(), u.clone()))
                    .map(|(p, l, _, _)| format!("`{v}` -> `{u}` at {p}:{l}"))
                    .unwrap_or_else(|| format!("`{v}` transitively orders before `{u}`"));
                out.push(Violation {
                    rule: self.id(),
                    path: path.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "lock-order cycle: `{fn_disp}` acquires `{v}` while holding \
                         `{u}`, but elsewhere {counter} — a concurrent interleaving \
                         can deadlock; pick one global order for these locks"
                    ),
                    severity: Severity::Error,
                });
            }
        }
        sort_violations(&mut out);
        out
    }
}

/// Substitutes a callee's lockset through one call site: concrete locks
/// pass through, parameter locks resolve via the matching argument chain
/// (and may resolve to a caller parameter, staying symbolic).
fn substituted_lockset(
    callee_set: &BTreeSet<LockId>,
    call: &CallFact,
    caller_node: usize,
    prog: &Program,
) -> Vec<LockId> {
    let g = &prog.graph;
    let caller = g.fn_at(&prog.files, caller_node);
    let mut out = Vec::new();
    for id in callee_set {
        match id {
            LockId::Concrete(_) => out.push(id.clone()),
            LockId::Param(j) => {
                // The callee's params may include `self`; call args never
                // do. Try both alignments — at worst we substitute the
                // wrong chain and over-approximate one lock name.
                for pos in [*j, j.wrapping_sub(1)] {
                    if let Some((_, chain)) = call.path_args.iter().find(|(p, _)| *p == pos) {
                        if let Some(sub) =
                            lock_id_of_chain(chain, &caller.impl_type, &caller.param_names)
                        {
                            out.push(sub);
                            break;
                        }
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L009 — deadline-propagation
// ---------------------------------------------------------------------------

/// Method names that walk graph structure (L009): a loop calling one of
/// these touches an unbounded amount of history.
const GRAPH_WALK_NAMES: &[&str] = &[
    "nodes",
    "edges",
    "node",
    "edge",
    "parents",
    "children",
    "neighbors",
    "out_edges",
    "in_edges",
    "edges_from",
    "edges_to",
    "bfs",
    "expand",
];

/// L009: interprocedural deadline propagation (L005's closure).
///
/// L005 checks the seven public query entry points; this rule follows
/// the call graph, so a helper three calls deep that loops over graph
/// nodes without taking or constructing a query `Scope` or `Budget`
/// still breaks the 200 ms interactive bound — invisible to any
/// file-local check.
pub struct DeadlinePropagation;

impl GlobalRule for DeadlinePropagation {
    fn id(&self) -> &'static str {
        "L009"
    }
    fn description(&self) -> &'static str {
        "any function reachable from a query entry point that loops over \
         graph nodes/edges must take or construct a query Scope or Budget"
    }
    fn check(&self, prog: &Program) -> Vec<Violation> {
        let files = &prog.files;
        let g = &prog.graph;
        let n = g.nodes.len();
        // Entry points live in the query crate, but propagation follows
        // the call graph into the graph crate too: the relevance kernels
        // (frozen PPR, expansion, HITS) do the actual unbounded walking
        // on the query paths' behalf, and a kernel loop that cannot see a
        // Scope or Budget breaks the interactive bound just as surely as
        // a query-crate loop.
        let in_scope = |i: usize| {
            let c = g.file_at(files, i).crate_name.as_str();
            (c == "query" || c == "graph") && !g.is_test(files, i)
        };

        // Multi-source BFS from the public browser-taking entry points,
        // remembering one representative entry per reached node.
        let mut entry_of: Vec<Option<usize>> = vec![None; n];
        let mut queue = VecDeque::new();
        for (i, slot) in entry_of.iter_mut().enumerate() {
            if g.file_at(files, i).crate_name != "query" || g.is_test(files, i) {
                continue;
            }
            let f = g.fn_at(files, i);
            if f.is_pub && f.param_tys.iter().any(|t| t.contains("ProvenanceBrowser")) {
                *slot = Some(i);
                queue.push_back(i);
            }
        }
        while let Some(m) = queue.pop_front() {
            for e in &g.edges[m] {
                if in_scope(e.to) && entry_of[e.to].is_none() {
                    entry_of[e.to] = entry_of[m];
                    queue.push_back(e.to);
                }
            }
        }

        let mut out = Vec::new();
        for (i, slot) in entry_of.iter().enumerate() {
            let Some(entry) = *slot else { continue };
            let f = g.fn_at(files, i);
            let protected = f.mentions_deadline
                || f.param_tys
                    .iter()
                    .any(|t| t.contains("Scope") || t.contains("Budget"));
            if protected {
                continue;
            }
            let graph_loop = f.calls.iter().find(|c| {
                c.in_loop
                    && (c.recv.contains("graph") || GRAPH_WALK_NAMES.contains(&c.name.as_str()))
            });
            if let Some(c) = graph_loop {
                let file = g.file_at(files, i);
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: c.line,
                    col: c.col,
                    message: format!(
                        "`{}` loops over graph structure (`{}`) but neither takes nor \
                         constructs a query Scope or Budget, and it is reachable from \
                         query entry point `{}` — thread the deadline through so the \
                         200ms interactive bound can truncate this walk",
                        f.display(),
                        c.name,
                        g.fn_at(files, entry).display()
                    ),
                    severity: Severity::Error,
                });
            }
        }
        sort_violations(&mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// L010 — metric-name-registry
// ---------------------------------------------------------------------------

/// The registry file's workspace-relative path.
pub const METRICS_REGISTRY_PATH: &str = "METRICS.registry";

/// Emission methods on the bp-obs handle.
const METRIC_EMITTERS: &[&str] = &["counter", "gauge", "histogram"];

/// One parsed registry entry.
struct RegEntry {
    kind: String,
    pattern: String,
    line: u32,
}

/// L010: every emitted metric name appears in `METRICS.registry`.
///
/// Dashboards and SLO alerts reference metric names as strings; a typo
/// at an emit site silently produces a dead series and a flatlined
/// alert. The registry is the single checked-in source of truth: emit
/// sites must match it (literal names, `format!` patterns via `*`
/// wildcards, and names threaded through parameters — `Scope::open`'s
/// `latency` — are all resolved through the call graph), unused
/// entries are flagged as dead, and names that collide after Prometheus
/// sanitization are rejected.
pub struct MetricNameRegistry;

impl GlobalRule for MetricNameRegistry {
    fn id(&self) -> &'static str {
        "L010"
    }
    fn description(&self) -> &'static str {
        "every metric name emitted through bp-obs must appear in \
         METRICS.registry (and every registry entry must still be emitted); \
         `*` wildcards cover format!-built names"
    }
    fn check(&self, prog: &Program) -> Vec<Violation> {
        let files = &prog.files;
        let g = &prog.graph;
        let n = g.nodes.len();
        let mut out = Vec::new();

        // --- collect emissions, propagating names through parameters ---
        // (kind, name-or-pattern, is_pattern, path, line, col)
        type Emission = (String, String, bool, String, u32, u32);
        let mut emissions: Vec<Emission> = Vec::new();
        // (node, param index) -> kinds emitted through that parameter.
        let mut param_sinks: HashMap<(usize, usize), BTreeSet<String>> = HashMap::new();
        for i in 0..n {
            if g.is_test(files, i) {
                continue;
            }
            let f = g.fn_at(files, i);
            let file = g.file_at(files, i);
            for c in &f.calls {
                if !(c.is_method && c.argc == 1 && METRIC_EMITTERS.contains(&c.name.as_str())) {
                    continue;
                }
                if let Some((_, name)) = c.str_args.first() {
                    emissions.push((
                        c.name.clone(),
                        name.clone(),
                        false,
                        file.rel_path.clone(),
                        c.line,
                        c.col,
                    ));
                } else if let Some((_, pat)) = c.fmt_args.first() {
                    emissions.push((
                        c.name.clone(),
                        pat.clone(),
                        true,
                        file.rel_path.clone(),
                        c.line,
                        c.col,
                    ));
                } else if let Some((_, pi)) = c.param_args.first() {
                    param_sinks
                        .entry((i, *pi))
                        .or_default()
                        .insert(c.name.clone());
                }
            }
        }
        // Fixpoint: resolve arguments feeding parameter sinks.
        loop {
            let mut changed = false;
            for i in 0..n {
                if g.is_test(files, i) {
                    continue;
                }
                let f = g.fn_at(files, i);
                let file = g.file_at(files, i);
                for e in &g.edges[i] {
                    let call = &f.calls[e.call_idx];
                    let callee = g.fn_at(files, e.to);
                    let callee_self = callee.param_names.first().is_some_and(|p| p == "self");
                    let param_of_pos = |pos: usize| pos + usize::from(callee_self);
                    for (pos, name) in &call.str_args {
                        if let Some(kinds) = param_sinks.get(&(e.to, param_of_pos(*pos))) {
                            for k in kinds.clone() {
                                let em = (
                                    k,
                                    name.clone(),
                                    false,
                                    file.rel_path.clone(),
                                    call.line,
                                    call.col,
                                );
                                if !emissions.contains(&em) {
                                    emissions.push(em);
                                    changed = true;
                                }
                            }
                        }
                    }
                    for (pos, pat) in &call.fmt_args {
                        if let Some(kinds) = param_sinks.get(&(e.to, param_of_pos(*pos))) {
                            for k in kinds.clone() {
                                let em = (
                                    k,
                                    pat.clone(),
                                    true,
                                    file.rel_path.clone(),
                                    call.line,
                                    call.col,
                                );
                                if !emissions.contains(&em) {
                                    emissions.push(em);
                                    changed = true;
                                }
                            }
                        }
                    }
                    for (pos, caller_pi) in &call.param_args {
                        if let Some(kinds) = param_sinks.get(&(e.to, param_of_pos(*pos))).cloned() {
                            let slot = param_sinks.entry((i, *caller_pi)).or_default();
                            for k in kinds {
                                if slot.insert(k) {
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // --- parse the registry ---
        let Some(text) = &prog.registry else {
            if !emissions.is_empty() {
                out.push(Violation {
                    rule: self.id(),
                    path: METRICS_REGISTRY_PATH.to_string(),
                    line: 1,
                    col: 1,
                    message: format!(
                        "{} metric emission(s) found but METRICS.registry does not \
                         exist — create it with one `<counter|gauge|histogram> <name>` \
                         line per metric (`*` wildcards allowed)",
                        emissions.len()
                    ),
                    severity: Severity::Error,
                });
            }
            sort_violations(&mut out);
            return out;
        };
        let mut entries: Vec<RegEntry> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = u32::try_from(ln + 1).unwrap_or(u32::MAX);
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let mut parts = body.split_whitespace();
            let (kind, pattern) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if !METRIC_EMITTERS.contains(&kind) || pattern.is_empty() || parts.next().is_some() {
                out.push(Violation {
                    rule: self.id(),
                    path: METRICS_REGISTRY_PATH.to_string(),
                    line,
                    col: 1,
                    message: format!(
                        "malformed registry line `{body}` — expected \
                         `<counter|gauge|histogram> <name>`"
                    ),
                    severity: Severity::Error,
                });
                continue;
            }
            entries.push(RegEntry {
                kind: kind.to_string(),
                pattern: pattern.to_string(),
                line,
            });
        }

        // --- emit sites vs. registry ---
        let mut used = vec![false; entries.len()];
        for (kind, name, is_pattern, path, line, col) in &emissions {
            let mut any_name_match = false;
            let mut kind_match = false;
            for (ei, entry) in entries.iter().enumerate() {
                let matches = if *is_pattern {
                    patterns_intersect(name, &entry.pattern)
                } else {
                    glob_match(&entry.pattern, name)
                };
                if matches {
                    any_name_match = true;
                    if entry.kind == *kind {
                        kind_match = true;
                        used[ei] = true;
                    }
                }
            }
            if !any_name_match {
                out.push(Violation {
                    rule: self.id(),
                    path: path.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "metric `{name}` ({kind}) is not in METRICS.registry — \
                         add it, or fix the emit-site typo (dashboards reference \
                         registry names verbatim)"
                    ),
                    severity: Severity::Error,
                });
            } else if !kind_match {
                out.push(Violation {
                    rule: self.id(),
                    path: path.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "metric `{name}` is emitted as a {kind} but registered \
                         with a different type in METRICS.registry"
                    ),
                    severity: Severity::Error,
                });
            }
        }
        // --- dead registry entries ---
        for (ei, entry) in entries.iter().enumerate() {
            if !used[ei] {
                out.push(Violation {
                    rule: self.id(),
                    path: METRICS_REGISTRY_PATH.to_string(),
                    line: entry.line,
                    col: 1,
                    message: format!(
                        "registry entry `{} {}` matches no emit site — the metric \
                         was removed or renamed; delete the entry or fix the name",
                        entry.kind, entry.pattern
                    ),
                    severity: Severity::Error,
                });
            }
        }
        // --- post-sanitization collisions ---
        for (ai, a) in entries.iter().enumerate() {
            if a.pattern.contains('*') {
                continue;
            }
            for b in entries.iter().skip(ai + 1) {
                if b.pattern.contains('*') || a.pattern == b.pattern {
                    continue;
                }
                if prom_sanitize(&a.pattern) == prom_sanitize(&b.pattern) {
                    out.push(Violation {
                        rule: self.id(),
                        path: METRICS_REGISTRY_PATH.to_string(),
                        line: b.line,
                        col: 1,
                        message: format!(
                            "registry names `{}` and `{}` collide after Prometheus \
                             sanitization (both become `{}`) — their exposition \
                             series would merge",
                            a.pattern,
                            b.pattern,
                            prom_sanitize(&a.pattern)
                        ),
                        severity: Severity::Error,
                    });
                }
            }
        }
        sort_violations(&mut out);
        out
    }
}

/// Glob match: `*` in `pattern` matches any (possibly empty) substring.
fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // dp[i][j]: p[..i] matches t[..j]
    let mut dp = vec![vec![false; t.len() + 1]; p.len() + 1];
    dp[0][0] = true;
    for i in 1..=p.len() {
        if p[i - 1] == '*' {
            dp[i][0] = dp[i - 1][0];
        }
        for j in 1..=t.len() {
            dp[i][j] = if p[i - 1] == '*' {
                dp[i - 1][j] || dp[i][j - 1]
            } else {
                dp[i - 1][j - 1] && p[i - 1] == t[j - 1]
            };
        }
    }
    dp[p.len()][t.len()]
}

/// `true` when two `*`-wildcard patterns can match a common string.
fn patterns_intersect(a: &str, b: &str) -> bool {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // dp[i][j]: a[i..] and b[j..] share a common expansion. Computed
    // backwards so each cell only depends on later ones.
    let mut dp = vec![vec![false; b.len() + 1]; a.len() + 1];
    dp[a.len()][b.len()] = true;
    for i in (0..=a.len()).rev() {
        for j in (0..=b.len()).rev() {
            if i == a.len() && j == b.len() {
                continue;
            }
            let mut ok = false;
            if i < a.len() && a[i] == '*' {
                ok = dp[i + 1][j] || (j < b.len() && dp[i][j + 1]);
            }
            if !ok && j < b.len() && b[j] == '*' {
                ok = dp[i][j + 1] || (i < a.len() && dp[i + 1][j]);
            }
            if !ok && i < a.len() && j < b.len() && a[i] == b[j] && a[i] != '*' && b[j] != '*' {
                ok = dp[i + 1][j + 1];
            }
            dp[i][j] = ok;
        }
    }
    dp[0][0]
}

/// Mirrors `bp_obs`'s Prometheus exposition sanitizer: non
/// `[a-zA-Z0-9:]` bytes become `_`, and a leading digit gains a `_`
/// prefix.
fn prom_sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Sorts violations into the canonical (path, line, col, rule) order.
fn sort_violations(v: &mut [Violation]) {
    v.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
}

#[cfg(test)]
mod tests {
    use crate::engine::{CheckReport, Engine};

    fn check(path: &str, src: &str) -> CheckReport {
        let mut r = CheckReport::default();
        Engine::new().check_file(path, src, &mut r);
        r
    }

    #[test]
    fn l004_flags_hash_iteration_feeding_encoder() {
        let src = "use std::collections::HashMap;\n\
                   fn encode_all(m: &HashMap<u32, u32>, out: &mut Vec<u8>) {\n\
                       for (k, v) in m.iter() { write_u64(out, *k); write_u64(out, *v); }\n\
                   }\nfn write_u64(_o: &mut Vec<u8>, _v: u32) {}\n";
        let r = check("crates/storage/src/factorize.rs", src);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "L004");
    }

    #[test]
    fn l004_spares_btreemap_and_sinkless_fns() {
        let clean = "use std::collections::BTreeMap;\n\
                     fn encode_all(m: &BTreeMap<u32, u32>, out: &mut Vec<u8>) {\n\
                         for (k, v) in m.iter() { write_u64(out, *k); }\n\
                     }\nfn write_u64(_o: &mut Vec<u8>, _v: u32) {}\n";
        assert!(check("crates/storage/src/factorize.rs", clean).is_clean());
        let no_sink = "use std::collections::HashMap;\n\
                       fn tally(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n";
        assert!(check("crates/storage/src/factorize.rs", no_sink).is_clean());
    }

    #[test]
    fn l005_requires_deadline_in_looping_pub_query_fns() {
        let bad = "pub fn search(b: &ProvenanceBrowser) -> u32 {\n\
                       let mut n = 0; for _ in 0..10 { n += 1; } n\n\
                   }\n";
        let r = check("crates/query/src/context.rs", bad);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "L005");
        let good = "pub fn search(b: &ProvenanceBrowser, c: &Config) -> u32 {\n\
                        let scope = Scope::open(b.obs(), &SEARCH, \"m\", &c.budget);\n\
                        let mut n = 0; for _ in 0..10 { if scope.budget().expired() { break; } n += 1; } n\n\
                    }\n";
        assert!(check("crates/query/src/context.rs", good).is_clean());
        let pinned = "pub fn walk(b: &ProvenanceBrowser, budget: &Budget) -> u32 {\n\
                          let budget = budget.pinned();\n\
                          let mut n = 0; for _ in 0..10 { if budget.expired() { break; } n += 1; } n\n\
                      }\n";
        assert!(check("crates/query/src/lineage.rs", pinned).is_clean());
        // Non-browser helpers and private fns are exempt.
        let helper = "pub fn rank(xs: &[u32]) -> u32 { let mut n = 0; for x in xs { n += x; } n }";
        assert!(check("crates/query/src/context.rs", helper).is_clean());
    }
}

#[cfg(test)]
mod global_tests {
    use super::*;
    use crate::diag::LineMap;
    use crate::engine::match_delims;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::symbols::summarize;

    fn program(files: &[(&str, &str)], registry: Option<&str>) -> Program {
        let summaries = files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let close = match_delims(&lexed, src);
                let ast = parse_file(src, &lexed, &close);
                summarize(path, &ast, &LineMap::new(src))
            })
            .collect();
        Program::new(summaries, registry.map(str::to_string))
    }

    fn run(
        rule: &dyn GlobalRule,
        files: &[(&str, &str)],
        registry: Option<&str>,
    ) -> Vec<Violation> {
        rule.check(&program(files, registry))
    }

    // ---- L007 ----

    const STORE_OK: &str = r#"
        impl ProvenanceStore {
            pub fn add_node(&mut self, ev: Event) { self.commit(op, batch); }
            fn commit(&mut self, op: Op, batch: Batch) {
                self.apply_structural(op);
                self.append_frame(op);
            }
            fn apply_structural(&mut self, op: Op) {
                self.graph.add_node(op);
                self.keys.insert(k, v);
            }
            fn append_frame(&mut self, op: Op) { self.wal.append(frame); }
            pub fn recover(&mut self) {
                for frame in self.wal.read_all() { self.replay(frame); }
            }
            fn replay(&mut self, frame: Frame) { self.apply_structural(op); }
        }
    "#;

    #[test]
    fn l007_guarded_flow_and_recovery_are_clean() {
        let out = run(
            &WalBeforeMutate,
            &[("crates/storage/src/store.rs", STORE_OK)],
            None,
        );
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn l007_seeded_bypass_caught_with_call_path() {
        let src = r#"
            impl ProvenanceStore {
                pub fn fast_annotate(&mut self, id: NodeId, note: Str) {
                    self.poke(id, note);
                }
                fn poke(&mut self, id: NodeId, note: Str) {
                    self.graph.node_mut(id);
                }
                pub fn add_node(&mut self, ev: Event) { self.commit(op); }
                fn commit(&mut self, op: Op) {
                    self.graph.add_node(op);
                    self.wal.append(frame);
                }
            }
        "#;
        let out = run(
            &WalBeforeMutate,
            &[("crates/storage/src/store.rs", src)],
            None,
        );
        assert_eq!(out.len(), 1, "got: {out:?}");
        let v = &out[0];
        assert_eq!(v.rule, "L007");
        assert!(v.message.contains("self.graph.node_mut"));
        assert!(v.message.contains("ProvenanceStore::fast_annotate"));
        assert!(
            v.message
                .contains("ProvenanceStore::fast_annotate -> ProvenanceStore::poke"),
            "missing call path: {}",
            v.message
        );
    }

    // ---- L008 ----

    #[test]
    fn l008_inverted_pair_is_a_cycle() {
        let src = r#"
            impl Daemon {
                fn render(&self) {
                    let t = self.traces.lock();
                    let p = self.profiles.lock();
                }
                fn snapshot(&self) {
                    let p = self.profiles.lock();
                    let t = self.traces.lock();
                }
            }
        "#;
        let out = run(&LockOrder, &[("crates/cli/src/serve.rs", src)], None);
        assert_eq!(out.len(), 2, "got: {out:?}");
        assert!(out.iter().all(|v| v.rule == "L008"));
        assert!(out[0].message.contains("Daemon.profiles"));
        assert!(out[0].message.contains("Daemon.traces"));
    }

    #[test]
    fn l008_consistent_order_is_clean() {
        let src = r#"
            impl Daemon {
                fn render(&self) {
                    let t = self.traces.lock();
                    let p = self.profiles.lock();
                }
                fn snapshot(&self) {
                    let t = self.traces.lock();
                    let p = self.profiles.lock();
                }
            }
        "#;
        let out = run(&LockOrder, &[("crates/cli/src/serve.rs", src)], None);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn l008_read_then_write_same_lock_is_clean() {
        let src = r#"
            impl Registry {
                fn get_or_insert(&self, name: Str) -> Handle {
                    if let Some(h) = self.map.read().get(name) { return h; }
                    self.map.write().insert(name)
                }
            }
        "#;
        let out = run(&LockOrder, &[("crates/obs/src/metrics.rs", src)], None);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn l008_cycle_through_param_helper() {
        // One side of the inversion happens inside a helper that takes the
        // lock as a parameter — only visible after substitution.
        let src = r#"
            impl Daemon {
                fn a(&self) {
                    let t = self.traces.lock();
                    push_ring(&self.profiles, item);
                }
                fn b(&self) {
                    let p = self.profiles.lock();
                    let t = self.traces.lock();
                }
            }
            fn push_ring(ring: &Ring, item: Item) {
                let g = ring.lock();
            }
        "#;
        let out = run(&LockOrder, &[("crates/cli/src/serve.rs", src)], None);
        assert!(!out.is_empty(), "cycle through helper not detected");
        assert!(out.iter().any(|v| v.message.contains("Daemon.profiles")));
    }

    // ---- L009 ----

    #[test]
    fn l009_deadline_free_helper_flagged() {
        let files = [(
            "crates/query/src/lineage.rs",
            r#"
                pub fn lineage(b: &ProvenanceBrowser, id: NodeId) -> Vec<NodeId> {
                    walk_up(b, id)
                }
                fn walk_up(b: &ProvenanceBrowser, id: NodeId) -> Vec<NodeId> {
                    for e in b.graph.edges_to(id) { out.push(e); }
                    out
                }
                "#,
        )];
        let out = run(&DeadlinePropagation, &files, None);
        assert_eq!(out.len(), 1, "got: {out:?}");
        assert_eq!(out[0].rule, "L009");
        assert!(out[0].message.contains("walk_up"));
        assert!(out[0].message.contains("lineage"));
    }

    #[test]
    fn l009_threaded_budget_is_clean() {
        let files = [(
            "crates/query/src/lineage.rs",
            r#"
                pub fn lineage(b: &ProvenanceBrowser, id: NodeId, dl: &Budget) -> Vec<NodeId> {
                    walk_up(b, id, dl)
                }
                fn walk_up(b: &ProvenanceBrowser, id: NodeId, dl: &Budget) -> Vec<NodeId> {
                    for e in b.graph.edges_to(id) {
                        if dl.expired() { break; }
                        out.push(e);
                    }
                    out
                }
                "#,
        )];
        let out = run(&DeadlinePropagation, &files, None);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn l009_unreachable_loop_not_flagged() {
        // A graph loop in a non-query crate, or unreachable from entries,
        // is out of scope for L009.
        let files = [(
            "crates/storage/src/compact.rs",
            "pub fn sweep(g: &Graph) { for n in g.nodes() { visit(n); } }",
        )];
        let out = run(&DeadlinePropagation, &files, None);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    // ---- L010 ----

    #[test]
    fn l010_typo_flagged_against_registry() {
        let files = [(
            "crates/query/src/context.rs",
            r#"fn f(obs: &Obs) { obs.counter("query.dedline.hit"); }"#,
        )];
        let out = run(
            &MetricNameRegistry,
            &files,
            Some("counter query.deadline.hit\n"),
        );
        assert_eq!(out.len(), 2, "got: {out:?}");
        // Emit-site typo…
        assert!(out
            .iter()
            .any(|v| v.path.ends_with("context.rs") && v.message.contains("query.dedline.hit")));
        // …and the now-dead registry entry.
        assert!(
            out.iter()
                .any(|v| v.path == METRICS_REGISTRY_PATH
                    && v.message.contains("matches no emit site"))
        );
    }

    #[test]
    fn l010_exact_and_wildcard_matches_are_clean() {
        let files = [(
            "crates/bench/src/main.rs",
            r#"
            fn f(obs: &Obs, name: Str) {
                obs.counter("wal.appends_total");
                obs.histogram(&format!("bench.query.{name}.latency_us"));
            }
            "#,
        )];
        let registry = "counter wal.appends_total\nhistogram bench.query.*.latency_us\n";
        let out = run(&MetricNameRegistry, &files, Some(registry));
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn l010_param_flow_through_observe() {
        // The name is a literal at the call site of a helper; the helper
        // emits through its parameter. The diagnostic lands on the caller.
        let files = [
            (
                "crates/query/src/slo.rs",
                r#"
                pub fn observe(obs: &Obs, use_case: Str, latency_metric: Str, us: u64) {
                    obs.histogram(latency_metric);
                }
                "#,
            ),
            (
                "crates/query/src/context.rs",
                r#"
                pub fn search(b: &ProvenanceBrowser) {
                    crate::slo::observe(obs, uc, "query.context.latency_us", us);
                }
                "#,
            ),
        ];
        let out = run(&MetricNameRegistry, &files, Some("counter other\n"));
        assert!(
            out.iter().any(|v| v.path.ends_with("context.rs")
                && v.message.contains("query.context.latency_us")),
            "param flow missed: {out:?}"
        );
    }

    #[test]
    fn l010_kind_mismatch_and_sanitize_collision() {
        let files = [(
            "crates/obs/src/slo.rs",
            r#"fn f(obs: &Obs) { obs.gauge("bp_slo_burn_rate.5m"); obs.counter("bp_slo_burn_rate.1h"); }"#,
        )];
        let registry = "counter bp_slo_burn_rate.5m\ncounter bp_slo_burn_rate.1h\ncounter bp_slo_burn_rate_5m\n";
        let out = run(&MetricNameRegistry, &files, Some(registry));
        // gauge vs counter mismatch on .5m …
        assert!(
            out.iter().any(|v| v.message.contains("different type")),
            "no kind mismatch: {out:?}"
        );
        // … and .5m vs _5m collide post-sanitization.
        assert!(
            out.iter()
                .any(|v| v.message.contains("collide after Prometheus")),
            "no collision: {out:?}"
        );
    }

    #[test]
    fn l010_missing_registry_only_when_emitting() {
        let emitting = [(
            "crates/obs/src/x.rs",
            r#"fn f(obs: &Obs) { obs.counter("a.b"); }"#,
        )];
        let silent = [("crates/obs/src/x.rs", "fn f() {}")];
        assert_eq!(run(&MetricNameRegistry, &emitting, None).len(), 1);
        assert!(run(&MetricNameRegistry, &silent, None).is_empty());
    }

    #[test]
    fn l010_malformed_line_flagged() {
        let files = [(
            "crates/obs/src/x.rs",
            r#"fn f(obs: &Obs) { obs.counter("a.b"); }"#,
        )];
        let out = run(
            &MetricNameRegistry,
            &files,
            Some("counter a.b\nbogus-kind name\n"),
        );
        assert!(
            out.iter().any(|v| v.message.contains("malformed")),
            "got: {out:?}"
        );
    }

    #[test]
    fn glob_and_intersection_helpers() {
        assert!(glob_match(
            "bench.query.*.latency_us",
            "bench.query.context.latency_us"
        ));
        assert!(!glob_match(
            "bench.query.*.latency_us",
            "bench.query.context.count"
        ));
        assert!(glob_match("*", ""));
        assert!(patterns_intersect("bench.*.latency_us", "bench.query.*"));
        assert!(!patterns_intersect("bench.*.latency_us", "wal.*"));
        assert_eq!(prom_sanitize("bp_slo_burn_rate.5m"), "bp_slo_burn_rate_5m");
        assert_eq!(prom_sanitize("5xx"), "_5xx");
    }
}
