//! The read-optimized execution layer: CSR snapshots, the PageRank
//! kernel over a jagged-diagonal slot layout, frozen neighborhood
//! expansion, and the epoch-keyed answer cache.
//!
//! The live [`ProvenanceGraph`] is built for capture: append-only arenas
//! whose edge arena, in source order, is the out-adjacency. Every query
//! walk runs over a [`FrozenGraph`] — a compressed-sparse-row snapshot
//! with dense `u32` indexing, contiguous forward/reverse edge arrays, and
//! per-node conductance; its reverse rows are the graph's only
//! in-adjacency. The relevance kernels here (personalized PageRank,
//! neighborhood expansion), [`crate::hits`] and the BFS of
//! [`crate::traverse`]. The PageRank kernel reads the rows through a slot
//! layout built on its first walk over the snapshot.
//!
//! Snapshots are invalidated by the graph **epoch**
//! ([`ProvenanceGraph::epoch`]): every mutation bumps it, and a
//! [`FrozenHandle`] refreshes lazily on the first read at a newer epoch.
//! Because the live arenas are append-only and only
//! [`ProvenanceGraph::redact_node`] rewrites a key, the refresh usually
//! *extends* the previous snapshot with the appended nodes and edges;
//! it builds in full only the first time and after a redaction.
//!
//! Ranked answers are memoized in a [`ScoreCache`] keyed by
//! `(epoch, walk + blend fingerprint)`. An entry holds the blend's
//! winners, at most `max_results` of them (about 1 KB at 25), rather than
//! the walk's score vector (16 B per scored node, ~384 KB at the paper's
//! 25k nodes), so the cache holds thousands of distinct queries of one
//! epoch and a repeat skips walk and blend alike. It can never serve
//! stale answers, because a mutation changes the epoch half of every key.

use crate::edge::EdgeKind;
use crate::graph::ProvenanceGraph;
use crate::ids::{EdgeId, NodeId};
use crate::neighborhood::ExpansionConfig;
use crate::node::NodeKind;
use crate::pagerank::PageRankConfig;
use crate::traverse::{Budget, Direction};
use bp_obs::clock::ClockHandle;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Nodes per partial sum of the PageRank kernel's reductions (pushed
/// mass and L1 delta): each chunk sums its nodes in id order, and the
/// chunk sums fold in chunk order. Scores depend on this grouping bit
/// for bit, so it never changes.
const CHUNK: usize = 1024;

/// `AUTOMATIC[code]` tells whether the edge kind with that
/// [`EdgeKind::code`] is automatic (dropped when a walk excludes
/// automatic edges).
const AUTOMATIC: [bool; 16] = {
    let mut table = [false; 16];
    let mut i = 0;
    while i < EdgeKind::ALL.len() {
        table[EdgeKind::ALL[i].code() as usize] = EdgeKind::ALL[i].is_automatic();
        i += 1;
    }
    table
};

/// Base walk weight of an edge kind: temporal-overlap edges participate
/// at reduced conductance (they are association, not navigation).
#[inline]
fn base_weight(kind_code: u8) -> f64 {
    if kind_code == EdgeKind::TemporalOverlap.code() {
        0.4
    } else {
        1.0
    }
}

/// The damping-free pull coefficient of a slot of kind `kind_code` whose
/// target has conductance `(all, noauto)`: `w(kind) / conductance`, with
/// every edge participating or, when automatic edges are excluded, over
/// the non-automatic conductance (an automatic slot then carries
/// nothing).
#[inline]
fn pull_coefficient(
    kind_code: u8,
    (all, noauto): (f64, f64),
    include_automatic_edges: bool,
) -> f64 {
    let cond = if include_automatic_edges {
        all
    } else if AUTOMATIC[kind_code as usize] {
        return 0.0;
    } else {
        noauto
    };
    if cond > 0.0 {
        base_weight(kind_code) / cond
    } else {
        0.0
    }
}

/// One direction of the CSR adjacency: row `i` lists node `i`'s edges as
/// `(other endpoint, kind code)` in edge-id order.
#[derive(Debug, PartialEq)]
struct Rows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    kinds: Vec<u8>,
}

impl Rows {
    fn with_capacity(rows: usize, slots: usize) -> Rows {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Rows {
            offsets,
            targets: Vec::with_capacity(slots),
            kinds: Vec::with_capacity(slots),
        }
    }

    /// Rows `0..n` holding `slots`, each `(row, endpoint, kind code)`,
    /// placed by a stable counting sort on the row, so a row keeps its
    /// slots in the order given.
    fn sorted(n: usize, slots: impl Iterator<Item = (u32, u32, u8)> + Clone) -> Rows {
        let mut offsets = vec![0u32; n + 1];
        for (row, _, _) in slots.clone() {
            offsets[row as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        let mut kinds = vec![0u8; targets.len()];
        for (row, endpoint, kind) in slots {
            let slot = &mut next[row as usize];
            targets[*slot as usize] = endpoint;
            kinds[*slot as usize] = kind;
            *slot += 1;
        }
        Rows {
            offsets,
            targets,
            kinds,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn range(&self, row: usize) -> Range<usize> {
        self.offsets[row] as usize..self.offsets[row + 1] as usize
    }

    /// Row `row`'s slots as `(endpoint, kind code)`, in row order.
    fn slots(&self, row: usize) -> impl Iterator<Item = (u32, u8)> + '_ {
        let slots = self.range(row);
        self.targets[slots.clone()]
            .iter()
            .copied()
            .zip(self.kinds[slots].iter().copied())
    }

    /// These rows grown to `n` rows, each row followed by its entries in
    /// `added`: `(row, endpoint, kind code)`, sorted by row and, within a
    /// row, in edge-id order.
    fn extend(&self, n: usize, added: &[(u32, u32, u8)]) -> Rows {
        let mut out = Rows::with_capacity(n, self.targets.len() + added.len());
        let mut touched: Vec<u32> = added.iter().map(|&(row, _, _)| row).collect();
        touched.dedup();
        let mut added = added;
        for run in runs(&touched, self.len(), n) {
            match run {
                Run::Carried(rows) => {
                    let slots = carry(&self.offsets, rows, &mut out.offsets, out.targets.len());
                    out.targets.extend_from_slice(&self.targets[slots.clone()]);
                    out.kinds.extend_from_slice(&self.kinds[slots]);
                }
                Run::Rewritten(row) => {
                    if row < self.len() {
                        let slots = self.range(row);
                        out.targets.extend_from_slice(&self.targets[slots.clone()]);
                        out.kinds.extend_from_slice(&self.kinds[slots]);
                    }
                    let k = added.partition_point(|&(r, _, _)| r as usize == row);
                    for &(_, endpoint, kind) in &added[..k] {
                        out.targets.push(endpoint);
                        out.kinds.push(kind);
                    }
                    added = &added[k..];
                    out.offsets.push(out.targets.len() as u32);
                }
            }
        }
        out
    }
}

/// One step of laying out a grown CSR array from its previous layout.
enum Run {
    /// Rows whose slots are unchanged: one bulk copy.
    Carried(Range<usize>),
    /// A row with new slots, or a new row: written afresh.
    Rewritten(usize),
}

/// Splits rows `0..n` into runs carried from an `old_rows`-row layout
/// and rows to rewrite: those in `touched` (ascending) and every row at
/// or past `old_rows`.
fn runs(touched: &[u32], old_rows: usize, n: usize) -> Vec<Run> {
    let mut out = Vec::with_capacity(2 * touched.len() + n - old_rows + 1);
    let mut next = 0;
    let rewritten = touched
        .iter()
        .map(|&row| row as usize)
        .take_while(|&row| row < old_rows)
        .chain(old_rows..n);
    for row in rewritten {
        if next < row {
            out.push(Run::Carried(next..row));
        }
        out.push(Run::Rewritten(row));
        next = row + 1;
    }
    if next < old_rows {
        out.push(Run::Carried(next..old_rows));
    }
    out
}

/// Appends the end offsets of the old `rows`, shifted to follow the `len`
/// slots already written, and returns those rows' slots in the old layout.
fn carry(old: &[u32], rows: Range<usize>, offsets: &mut Vec<u32>, len: usize) -> Range<usize> {
    let (lo, hi) = (old[rows.start] as usize, old[rows.end] as usize);
    let shift = (len - lo) as u32;
    offsets.extend(old[rows.start + 1..=rows.end].iter().map(|&o| o + shift));
    lo..hi
}

/// An immutable CSR snapshot of a [`ProvenanceGraph`] at one epoch.
///
/// Forward rows are the graph's edge arena in order (derivations, toward
/// ancestors), which the graph keeps in source order, so a forward slot's
/// index is its [`EdgeId`]. Reverse rows (toward descendants) are the
/// arena stably sorted by destination: each lists a node's in-edges in
/// edge-id order, and they are the graph's only in-adjacency. Relevance
/// walks treat edges as undirected, so a node's incidence list is its
/// forward row followed by its reverse row.
pub struct FrozenGraph {
    epoch: u64,
    /// [`ProvenanceGraph::redactions`] when the snapshot was taken.
    redactions: u64,
    n: usize,
    fwd: Rows,
    rev: Rows,
    /// Per node, its undirected conductance `(all edges, non-automatic
    /// edges)`: the denominators of the PageRank coefficients of the
    /// slots pointing at it.
    cond: Vec<(f64, f64)>,
    /// The PageRank kernel's slot layouts, indexed by
    /// `include_automatic_edges`, each built on the first walk that
    /// needs it. Snapshots no PageRank query reads never pay for one.
    pull: [OnceLock<PullLayout>; 2],
    /// `key_rep[i]` is the lowest node id whose key string equals node
    /// `i`'s — the canonical representative of its dedup group. Blend
    /// passes collapse multiple visit versions of one URL through this
    /// table instead of hashing key strings per candidate.
    key_rep: Vec<u32>,
}

impl std::fmt::Debug for FrozenGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenGraph")
            .field("epoch", &self.epoch)
            .field("nodes", &self.n)
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// The `key_rep` entry of node `id`: the first node of its key's entry
/// in the graph's key table, which lists ids in ascending order.
fn key_rep_of(graph: &ProvenanceGraph, id: NodeId) -> u32 {
    graph
        .node(id)
        .ok()
        .and_then(|node| graph.nodes_with_key(node.key()).first())
        .map_or(id.index(), |first| first.index())
}

impl FrozenGraph {
    /// Snapshots `graph` into CSR form. O(V + E).
    pub fn build(graph: &ProvenanceGraph) -> FrozenGraph {
        let n = graph.node_count();
        let edges = graph
            .edges()
            .map(|(_, e)| (e.src().index(), e.dst().index(), e.kind().code()));
        let fwd = Rows::sorted(n, edges.clone());
        let rev = Rows::sorted(n, edges.map(|(src, dst, kind)| (dst, src, kind)));
        // Conductance counts each edge once (from its forward slot) into
        // both endpoints, mirroring the undirected walk. Each node's sum
        // runs in this loop's order — by owning source node, then slot —
        // which `conductance` reproduces for a single node.
        let mut cond = vec![(0.0f64, 0.0f64); n];
        for i in 0..n {
            for s in fwd.range(i) {
                let kind = fwd.kinds[s];
                let w = base_weight(kind);
                let t = fwd.targets[s] as usize;
                cond[i].0 += w;
                cond[t].0 += w;
                if !AUTOMATIC[kind as usize] {
                    cond[i].1 += w;
                    cond[t].1 += w;
                }
            }
        }
        // Key-dedup groups: one string hash per node at snapshot time
        // buys hash-free dedup on every blend afterwards.
        let key_rep = graph.node_ids().map(|id| key_rep_of(graph, id)).collect();
        FrozenGraph {
            epoch: graph.epoch(),
            redactions: graph.redactions(),
            n,
            fwd,
            rev,
            cond,
            pull: Default::default(),
            key_rep,
        }
    }

    /// Whether this snapshot can grow into one of `graph`: the graph has
    /// only gained nodes and edges, or edited intervals and attributes,
    /// since. Its arenas are append-only and only a redaction rewrites a
    /// key, so old rows, conductances and key groups all hold.
    fn can_extend(&self, graph: &ProvenanceGraph) -> bool {
        graph.redactions() == self.redactions
            && graph.epoch() > self.epoch
            && graph.node_count() >= self.n
            && graph.edge_count() >= self.edge_count()
    }

    /// The snapshot of `graph` grown from this one, which must be a
    /// snapshot of the same graph that `can_extend` accepts. Rows without
    /// new edges are copied in bulk; rows with new edges get them
    /// appended. Conductance is recomputed only for the endpoints of new
    /// edges, so every array comes out bit-identical to
    /// [`FrozenGraph::build`]'s.
    fn extend(&self, graph: &ProvenanceGraph) -> FrozenGraph {
        let n = graph.node_count();
        // Appended edges are the arena's tail, already in source order;
        // each one extends its source's forward row and its destination's
        // reverse row.
        let out_added: Vec<(u32, u32, u8)> = graph
            .edges_from(self.edge_count())
            .map(|(_, e)| (e.src().index(), e.dst().index(), e.kind().code()))
            .collect();
        let mut in_added: Vec<(u32, u32, u8)> =
            out_added.iter().map(|&(s, d, k)| (d, s, k)).collect();
        // A stable sort: a row's additions stay in edge-id order.
        in_added.sort_by_key(|&(row, _, _)| row);
        let fwd = self.fwd.extend(n, &out_added);
        let rev = self.rev.extend(n, &in_added);
        let mut touched: Vec<u32> = out_added
            .iter()
            .chain(&in_added)
            .map(|&(row, _, _)| row)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut key_rep = Vec::with_capacity(n);
        key_rep.extend_from_slice(&self.key_rep);
        for i in self.n..n {
            key_rep.push(key_rep_of(graph, NodeId::new(i as u32)));
        }
        let mut next = FrozenGraph {
            epoch: graph.epoch(),
            redactions: self.redactions,
            n,
            fwd,
            rev,
            cond: Vec::new(),
            pull: Default::default(),
            key_rep,
        };

        // Only endpoints of new edges change conductance.
        let mut cond = Vec::with_capacity(n);
        cond.extend_from_slice(&self.cond);
        cond.resize(n, (0.0, 0.0));
        for &x in &touched {
            cond[x as usize] = next.conductance(x as usize);
        }
        next.cond = cond;
        next
    }

    /// Node `x`'s undirected conductance `(all edges, non-automatic
    /// edges)`, summed in [`FrozenGraph::build`]'s order so the result is
    /// bit-identical: by owning (source) node, then slot. Every in-edge of
    /// `x` comes from a newer node, and its reverse row lists them in
    /// edge-id and therefore source order, so that order is `x`'s forward
    /// slots, then its reverse slots.
    fn conductance(&self, x: usize) -> (f64, f64) {
        let kinds = self.fwd.kinds[self.fwd.range(x)]
            .iter()
            .chain(&self.rev.kinds[self.rev.range(x)]);
        let mut cond = (0.0f64, 0.0f64);
        for &kind in kinds {
            let w = base_weight(kind);
            cond.0 += w;
            if !AUTOMATIC[kind as usize] {
                cond.1 += w;
            }
        }
        cond
    }

    /// The graph epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges (each edge has one forward and one reverse slot).
    pub fn edge_count(&self) -> usize {
        self.fwd.targets.len()
    }

    /// The key-dedup table: `key_reps()[i]` is the lowest node id sharing
    /// node `i`'s key string. Indexed by dense node id; blend passes use
    /// it to collapse versions of one URL without hashing key strings.
    pub fn key_reps(&self) -> &[u32] {
        &self.key_rep
    }

    /// Forward (out) adjacency of `node`: `(target, kind)` in edge-id
    /// order — the same order [`ProvenanceGraph::parents`] yields.
    pub fn out_edges_of(&self, node: u32) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        Self::row_edges(&self.fwd, node)
    }

    /// Reverse (in) adjacency of `node`: `(source, kind)` in edge-id
    /// order.
    pub fn in_edges_of(&self, node: u32) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        Self::row_edges(&self.rev, node)
    }

    /// `node`'s row toward `direction`: its out-edges toward ancestors or
    /// its in-edges toward descendants, in edge-id order.
    pub(crate) fn edges_toward(
        &self,
        node: u32,
        direction: Direction,
    ) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        let rows = match direction {
            Direction::Ancestors => &self.fwd,
            Direction::Descendants => &self.rev,
        };
        Self::row_edges(rows, node)
    }

    /// The id of the edge in slot `slot` of `node`'s row toward
    /// `direction`, or `None` past the row's end. A forward slot's index
    /// is its id. Slot `k` of a reverse row names a source `s`: if `j`
    /// earlier slots of the row come from `s`, the edge is the `(j+1)`-th
    /// slot of `s`'s forward row that targets `node`, since both rows list
    /// the parallel edges from `s` to `node` in edge-id order.
    pub(crate) fn edge_id(&self, node: u32, direction: Direction, slot: u32) -> Option<EdgeId> {
        let node = node as usize;
        if node >= self.n {
            return None;
        }
        let slot = slot as usize;
        if direction == Direction::Ancestors {
            let fwd = self.fwd.range(node);
            return (slot < fwd.len()).then(|| EdgeId::new((fwd.start + slot) as u32));
        }
        let rev = self.rev.range(node);
        if slot >= rev.len() {
            return None;
        }
        let at = rev.start + slot;
        let src = self.rev.targets[at];
        let earlier = self.rev.targets[rev.start..at]
            .iter()
            .filter(|&&s| s == src)
            .count();
        let row = self.fwd.range(src as usize);
        let offset = self.fwd.targets[row.clone()]
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t as usize == node)
            .nth(earlier)?
            .0;
        Some(EdgeId::new((row.start + offset) as u32))
    }

    fn row_edges(rows: &Rows, node: u32) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        rows.slots(node as usize).map(|(other, kind)| {
            (
                other,
                // Kind codes were written from EdgeKind::code, so this
                // lookup cannot miss; Link is a harmless degrade.
                EdgeKind::from_code(kind).unwrap_or(EdgeKind::Link),
            )
        })
    }

    /// The PageRank kernel's slot layout for one automatic-edge setting,
    /// built on first use.
    fn pull_layout(&self, include_automatic_edges: bool) -> &PullLayout {
        self.pull[usize::from(include_automatic_edges)]
            .get_or_init(|| PullLayout::build(self, include_automatic_edges))
    }
}

/// A snapshot's incidence rows laid out for the PageRank kernel, in
/// jagged-diagonal form. Row `i` is node `i`'s forward slots followed by
/// its reverse slots, each weighted `w(kind) / conductance(target)` for
/// one automatic-edge setting.
///
/// Rows are ordered by length, longest first, ties by node id, and
/// stored column by column: column `j` holds slot `j` of every row longer
/// than `j`, and those rows are a prefix of the row order. The kernel
/// sweeps each column as one multiply-add per row across independent
/// rows, so the add chains of many rows advance together and no branch
/// marks a row's end; each row still adds its slots in row order.
struct PullLayout {
    /// `position[i]` is node `i`'s place in the row order.
    position: Vec<u32>,
    /// Column `j`'s slots are `columns[j]..columns[j + 1]`, one per row
    /// longer than `j`, in row order.
    columns: Vec<u32>,
    /// Per slot, the node it pulls from.
    targets: Vec<u32>,
    /// Per slot, its damping-free pull coefficient.
    weights: Vec<f64>,
}

impl PullLayout {
    fn build(frozen: &FrozenGraph, include_automatic_edges: bool) -> PullLayout {
        let (fwd, rev) = (&frozen.fwd, &frozen.rev);
        let len: Vec<usize> = (0..frozen.n)
            .map(|i| fwd.range(i).len() + rev.range(i).len())
            .collect();
        // A stable sort: equal lengths keep ascending node ids.
        let mut order: Vec<u32> = (0..frozen.n as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(len[i as usize]));
        let mut position = vec![0u32; frozen.n];
        for (k, &i) in order.iter().enumerate() {
            position[i as usize] = k as u32;
        }
        // Column `j` holds the rows longer than `j`: a prefix of the order
        // that shrinks as `j` grows.
        let width = order.first().map_or(0, |&i| len[i as usize]);
        let mut columns = Vec::with_capacity(width + 1);
        columns.push(0u32);
        let mut rows = order.len();
        for j in 0..width {
            while len[order[rows - 1] as usize] <= j {
                rows -= 1;
            }
            columns.push(columns[j] + rows as u32);
        }
        let total = columns[width] as usize;
        let mut targets = vec![0u32; total];
        let mut weights = vec![0.0f64; total];
        for (k, &i) in order.iter().enumerate() {
            let i = i as usize;
            for (j, (t, kind)) in fwd.slots(i).chain(rev.slots(i)).enumerate() {
                let s = columns[j] as usize + k;
                targets[s] = t;
                weights[s] =
                    pull_coefficient(kind, frozen.cond[t as usize], include_automatic_edges);
            }
        }
        PullLayout {
            position,
            columns,
            targets,
            weights,
        }
    }
}

// ---------------------------------------------------------------------------
// Personalized PageRank kernel
// ---------------------------------------------------------------------------

/// Converged scores from the frozen kernel, sparse and sorted by node id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrozenScores {
    /// `(node, score)` for every node with positive mass, ascending id.
    pub entries: Vec<(u32, f64)>,
    /// Power iterations performed.
    pub iterations: usize,
    /// `true` if the budget deadline stopped iteration before convergence.
    pub truncated: bool,
}

impl FrozenScores {
    /// Converts into the map-based [`crate::pagerank::PageRankScores`]
    /// shape that the kernel's tests compare.
    #[cfg(test)]
    pub(crate) fn into_scores(self) -> crate::pagerank::PageRankScores {
        crate::pagerank::PageRankScores {
            score: self
                .entries
                .into_iter()
                .map(|(i, s)| (NodeId::new(i), s))
                .collect(),
            iterations: self.iterations,
        }
    }

    /// Largest score (0.0 when empty) — one O(n) pass, no sort.
    pub fn max_score(&self) -> f64 {
        self.entries.iter().fold(0.0f64, |m, &(_, s)| m.max(s))
    }
}

/// Runs personalized PageRank with restart over a [`FrozenGraph`], with
/// flat score buffers, serially.
///
/// Walks are undirected, temporal-overlap edges conduct at 0.4, automatic
/// edges are droppable via `config.include_automatic_edges` (their
/// coefficients are then zero), and the restart mass is `1 − damping`
/// plus whatever strands on degree-0 nodes; iteration stops at L1
/// convergence.
///
/// Each iteration pulls mass over the snapshot's `PullLayout` for the
/// automatic-edge setting, which the first walk over a snapshot builds.
/// Every row adds its slots in row order, and pushed mass and L1 delta
/// are summed per 1024-node chunk and folded in chunk order, so the
/// scores are a pure function of the snapshot, seeds and config, bit
/// for bit.
///
/// `budget.deadline()` runs from the budget's pinned instant (this entry
/// for an unpinned budget), so a walk that pays the layout build counts
/// it, and is honored at iteration boundaries: the first boundary past
/// the deadline returns the partially-converged scores with `truncated`
/// set rather than blocking the interactive bound. At least one
/// iteration always runs.
pub fn personalized_pagerank_frozen(
    frozen: &FrozenGraph,
    seeds: &[(NodeId, f64)],
    config: &PageRankConfig,
    budget: &Budget,
) -> FrozenScores {
    let budget = budget.pinned();
    let n = frozen.n;
    let mut restart = vec![0.0f64; n];
    let mut total = 0.0;
    for &(node, w) in seeds {
        if node.as_usize() < n && w > 0.0 {
            restart[node.as_usize()] += w;
            total += w;
        }
    }
    if total <= 0.0 {
        return FrozenScores::default();
    }
    for r in &mut restart {
        *r /= total;
    }
    if config.max_iterations == 0 {
        // Zero iterations means the walk never leaves the seeds.
        return FrozenScores {
            entries: positive_entries(&restart),
            iterations: 0,
            truncated: false,
        };
    }

    let layout = frozen.pull_layout(config.include_automatic_edges);
    let mut cur = restart.clone();
    let mut next = vec![0.0f64; n];
    // Pulled mass per row, in the layout's row order.
    let mut pulled = vec![0.0f64; n];
    let mut partials = vec![0.0f64; n.div_ceil(CHUNK)];
    let mut iterations = 0;
    loop {
        pulled.fill(0.0);
        for column in layout.columns.windows(2) {
            let slots = column[0] as usize..column[1] as usize;
            let (targets, weights) = (&layout.targets[slots.clone()], &layout.weights[slots]);
            for ((acc, &t), &w) in pulled.iter_mut().zip(targets).zip(weights) {
                *acc += w * cur[t as usize];
            }
        }
        // Back to node order, damped once per node.
        for ((out, position), partial) in next
            .chunks_mut(CHUNK)
            .zip(layout.position.chunks(CHUNK))
            .zip(&mut partials)
        {
            let mut pushed = 0.0f64;
            for (x, &k) in out.iter_mut().zip(position) {
                *x = config.damping * pulled[k as usize];
                pushed += *x;
            }
            *partial = pushed;
        }
        let slack = 1.0 - partials.iter().sum::<f64>();
        // Restart mass and the L1 delta against the previous iterate.
        for (((out, prev), restart), partial) in next
            .chunks_mut(CHUNK)
            .zip(cur.chunks(CHUNK))
            .zip(restart.chunks(CHUNK))
            .zip(&mut partials)
        {
            let mut delta = 0.0f64;
            for ((x, &p), &r) in out.iter_mut().zip(prev).zip(restart) {
                *x += slack * r;
                delta += (*x - p).abs();
            }
            *partial = delta;
        }
        std::mem::swap(&mut cur, &mut next);
        iterations += 1;
        let delta: f64 = partials.iter().sum();
        let expired = budget.expired();
        if delta < config.tolerance || iterations >= config.max_iterations || expired {
            return FrozenScores {
                entries: positive_entries(&cur),
                iterations,
                truncated: expired && delta >= config.tolerance,
            };
        }
    }
}

/// `(node, score)` for every node with a positive score, ascending id.
fn positive_entries(scores: &[f64]) -> Vec<(u32, f64)> {
    scores
        .iter()
        .enumerate()
        .filter_map(|(i, &s)| (s > 0.0).then_some((i as u32, s)))
        .collect()
}

// ---------------------------------------------------------------------------
// Frozen neighborhood expansion
// ---------------------------------------------------------------------------

/// Result of [`expand_frozen`]: sparse accumulated relevance, sorted by
/// node id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrozenExpansion {
    /// `(node, weight)` for every reached node, ascending id.
    pub entries: Vec<(u32, f64)>,
    /// `true` if a budget limit stopped the expansion early.
    pub truncated: bool,
}

/// Spreads relevance from weighted `seeds` outward through the snapshot
/// (both directions — context flows along an edge either way), with
/// per-hop decay and per-kind multipliers, within `budget`.
///
/// Expansion is layered: a node accumulates weight from every path that
/// first reaches it (all arrivals within its BFS layer sum), so a node
/// connected to several seeds outranks a node connected to one — the
/// "relevance of their provenance neighbors" reordering of Shah et al.
/// Weight never echoes back to already-reached nodes, so a seed–neighbor
/// pair cannot inflate each other by bouncing. When `max_nodes` would be
/// exceeded, the heaviest next-layer entries fill the cap; the deadline
/// is checked per frontier node. Sums run over CSR rows in slot order
/// into flat buffers, so the weights are deterministic.
pub fn expand_frozen(
    frozen: &FrozenGraph,
    seeds: &[(NodeId, f64)],
    config: &ExpansionConfig,
    budget: &Budget,
) -> FrozenExpansion {
    let n = frozen.n;
    let budget = budget.pinned();
    let mut kind_weight = [1.0f64; 16];
    for kind in EdgeKind::ALL {
        kind_weight[kind.code() as usize] = config.weight_of(kind);
    }
    let mut weight = vec![0.0f64; n];
    let mut reached = vec![false; n];
    let mut reached_ids: Vec<u32> = Vec::new();
    let mut truncated = false;
    let mut frontier: Vec<(u32, f64)> = Vec::new();
    for &(node, w) in seeds {
        if node.as_usize() < n && w > 0.0 {
            let i = node.index();
            if !reached[i as usize] {
                reached[i as usize] = true;
                reached_ids.push(i);
            }
            weight[i as usize] += w;
            frontier.push((i, w));
        }
    }
    let max_hops = budget
        .max_depth()
        .map_or(config.max_hops, |d| d.min(config.max_hops));

    let mut next_weight = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    'hops: for _hop in 0..max_hops {
        if frontier.is_empty() {
            break;
        }
        for &(node, w) in &frontier {
            if budget.expired() {
                truncated = true;
                break 'hops;
            }
            let spread_base = w * config.decay;
            for s in frozen.fwd.range(node as usize) {
                let nbr = frozen.fwd.targets[s];
                if reached[nbr as usize] {
                    continue; // layered: no echo back to reached nodes
                }
                let spread = spread_base * kind_weight[frozen.fwd.kinds[s] as usize];
                if spread < config.min_weight {
                    continue;
                }
                if next_weight[nbr as usize] == 0.0 {
                    touched.push(nbr);
                }
                next_weight[nbr as usize] += spread;
            }
            for s in frozen.rev.range(node as usize) {
                let nbr = frozen.rev.targets[s];
                if reached[nbr as usize] {
                    continue;
                }
                let spread = spread_base * kind_weight[frozen.rev.kinds[s] as usize];
                if spread < config.min_weight {
                    continue;
                }
                if next_weight[nbr as usize] == 0.0 {
                    touched.push(nbr);
                }
                next_weight[nbr as usize] += spread;
            }
        }
        if let Some(max) = budget.max_nodes() {
            if reached_ids.len() + touched.len() > max {
                truncated = true;
                // Keep the heaviest next-layer entries up to the cap.
                let mut entries: Vec<(u32, f64)> = touched
                    .iter()
                    .map(|&i| (i, next_weight[i as usize]))
                    .collect();
                entries.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                entries.truncate(max.saturating_sub(reached_ids.len()));
                for &(i, w) in &entries {
                    reached[i as usize] = true;
                    reached_ids.push(i);
                    weight[i as usize] += w;
                }
                for &i in &touched {
                    next_weight[i as usize] = 0.0;
                }
                touched.clear();
                break;
            }
        }
        frontier.clear();
        for &i in &touched {
            let w = next_weight[i as usize];
            next_weight[i as usize] = 0.0;
            reached[i as usize] = true;
            reached_ids.push(i);
            weight[i as usize] += w;
            frontier.push((i, w));
        }
        touched.clear();
    }
    reached_ids.sort_unstable();
    FrozenExpansion {
        entries: reached_ids
            .into_iter()
            .map(|i| (i, weight[i as usize]))
            .collect(),
        truncated,
    }
}

// ---------------------------------------------------------------------------
// Epoch-keyed answer cache
// ---------------------------------------------------------------------------

/// Which query family a cache entry belongs to (same seeds hash the same
/// for PageRank and expansion; the domain keeps their entries apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheDomain {
    /// Answers ranked over personalized-PageRank scores.
    PageRank,
    /// Answers ranked over neighborhood-expansion weights.
    Expansion,
}

/// A cache key: graph epoch + query domain + request fingerprint.
/// Mutations bump the epoch, so stale entries can never be returned —
/// they simply stop matching and are dropped by the first insert at a
/// newer epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`ProvenanceGraph::epoch`] at compute time.
    pub epoch: u64,
    /// Query family.
    pub domain: CacheDomain,
    /// [`fingerprint_answer`] over the walk's [`fingerprint_ppr`] /
    /// [`fingerprint_expansion`] and the blend's settings.
    pub fingerprint: u64,
}

/// One ranked winner of a blend: a node and its score components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedHit {
    /// The winning node.
    pub node: NodeId,
    /// Its blended score.
    pub score: f64,
    /// Its textual component.
    pub text: f64,
    /// Its provenance-context component.
    pub context: f64,
}

/// A cached answer: the winners of one blend, best first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CachedAnswer {
    /// At most `max_results` winners, in rank order.
    pub hits: Vec<CachedHit>,
    /// Whether the producing walk truncated itself (deterministic
    /// `max_nodes` truncation only — deadline-truncated answers are
    /// never cached).
    pub truncated: bool,
}

impl CachedAnswer {
    /// An empty answer with room for `capacity` winners.
    pub fn with_capacity(capacity: usize) -> Self {
        CachedAnswer {
            hits: Vec::with_capacity(capacity),
            truncated: false,
        }
    }

    fn cost_bytes(&self) -> usize {
        // The winners' buffer as allocated, plus map/Arc bookkeeping.
        self.hits.capacity() * std::mem::size_of::<CachedHit>() + 96
    }
}

/// Counters and occupancy for one [`ScoreCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached answer.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped (stale epoch or LRU byte pressure).
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Estimated bytes held.
    pub bytes: usize,
}

struct CacheSlot {
    value: Arc<CachedAnswer>,
    bytes: usize,
    last_used: u64,
}

struct CacheInner {
    /// Every entry's key is at this epoch.
    epoch: u64,
    map: HashMap<CacheKey, CacheSlot>,
    bytes: usize,
    budget: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A byte-budgeted, epoch-keyed LRU cache of ranked answers, shared by
/// the `ppr`, `context`, and `personalize` query paths.
///
/// Thread-safe behind one mutex: lookups copy an [`Arc`] out, so the
/// lock is held only for the map probe, never while an answer is read.
pub struct ScoreCache {
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for ScoreCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreCache {
    /// Default byte budget. An answer costs about 1 KB at 25 hits
    /// whatever the history's size, so 8 MiB holds thousands: far more
    /// than the distinct queries one epoch of the paper's 25k-node
    /// history sees between mutations.
    pub const DEFAULT_BUDGET_BYTES: usize = 8 * 1024 * 1024;

    /// A cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget(Self::DEFAULT_BUDGET_BYTES)
    }

    /// A cache that evicts least-recently-used entries once the estimated
    /// held bytes exceed `budget_bytes`.
    pub fn with_budget(budget_bytes: usize) -> Self {
        ScoreCache {
            inner: Mutex::new(CacheInner {
                epoch: 0,
                map: HashMap::new(),
                bytes: 0,
                budget: budget_bytes.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedAnswer>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let value = slot.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key`, first dropping every entry when the
    /// key is at a newer epoch than the cache, then least-recently-used
    /// entries until the byte budget holds. An insert at an older epoch
    /// is ignored: the graph has moved past it. Returns how many entries
    /// were evicted.
    pub fn put(&self, key: CacheKey, value: Arc<CachedAnswer>) -> u64 {
        let mut inner = self.lock();
        let mut evicted = 0u64;
        if key.epoch < inner.epoch {
            return 0;
        }
        if key.epoch > inner.epoch {
            // Stale epochs can never match again.
            evicted += inner.map.len() as u64;
            inner.map.clear();
            inner.bytes = 0;
            inner.epoch = key.epoch;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let bytes = value.cost_bytes();
        if let Some(old) = inner.map.insert(
            key,
            CacheSlot {
                value,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        // LRU pressure; the entry just inserted has the newest tick, so it
        // survives unless it alone exceeds the budget.
        while inner.bytes > inner.budget && inner.map.len() > 1 {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(slot) = inner.map.remove(&oldest) {
                inner.bytes -= slot.bytes;
                evicted += 1;
            }
        }
        inner.evictions += evicted;
        evicted
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix_seeds(mut h: u64, seeds: &[(NodeId, f64)]) -> u64 {
    let mut canon: Vec<(u32, u64)> = seeds
        .iter()
        .map(|&(n, w)| (n.index(), w.to_bits()))
        .collect();
    canon.sort_unstable();
    h = mix(h, canon.len() as u64);
    for (n, w) in canon {
        h = mix(h, u64::from(n));
        h = mix(h, w);
    }
    h
}

fn mix_budget(mut h: u64, budget: &Budget) -> u64 {
    // Only the deterministic caps participate: the deadline shapes
    // *whether* a result is cacheable (truncated results are not), never
    // what a complete result contains.
    h = mix(h, budget.max_nodes().map_or(u64::MAX, |v| v as u64));
    h = mix(h, budget.max_depth().map_or(u64::MAX, |v| v as u64));
    h
}

/// Fingerprints a PageRank request: canonicalized seed set, the scoring
/// parameters of [`PageRankConfig`], and the deterministic budget caps.
pub fn fingerprint_ppr(seeds: &[(NodeId, f64)], config: &PageRankConfig, budget: &Budget) -> u64 {
    let mut h = mix(FNV_OFFSET, 0x7070_7252); // "ppr" domain tag
    h = mix_seeds(h, seeds);
    h = mix(h, config.damping.to_bits());
    h = mix(h, config.max_iterations as u64);
    h = mix(h, config.tolerance.to_bits());
    h = mix(h, u64::from(config.include_automatic_edges));
    mix_budget(h, budget)
}

/// Fingerprints an expansion request: canonicalized seed set, every
/// [`ExpansionConfig`] knob (kind weights in declaration order), and the
/// deterministic budget caps.
pub fn fingerprint_expansion(
    seeds: &[(NodeId, f64)],
    config: &ExpansionConfig,
    budget: &Budget,
) -> u64 {
    let mut h = mix(FNV_OFFSET, 0x6578_7061); // "expa" domain tag
    h = mix_seeds(h, seeds);
    h = mix(h, config.decay.to_bits());
    h = mix(h, config.max_hops as u64);
    h = mix(h, config.min_weight.to_bits());
    h = mix(h, config.kind_weights.len() as u64);
    for &(kind, w) in &config.kind_weights {
        h = mix(h, u64::from(kind.code()));
        h = mix(h, w.to_bits());
    }
    mix_budget(h, budget)
}

/// Fingerprints a ranked answer: `walk`, the [`fingerprint_ppr`] or
/// [`fingerprint_expansion`] of the walk it ranks, mixed with every blend
/// setting the ranking reads — the text, context and HITS weights, the
/// result cap, and the eligible kinds in order.
pub fn fingerprint_answer(
    walk: u64,
    text_weight: f64,
    context_weight: f64,
    hits_weight: f64,
    max_results: usize,
    result_kinds: &[NodeKind],
) -> u64 {
    let mut h = mix(walk, 0x626c_656e); // "blen" tag
    h = mix(h, text_weight.to_bits());
    h = mix(h, context_weight.to_bits());
    h = mix(h, hits_weight.to_bits());
    h = mix(h, max_results as u64);
    h = mix(h, result_kinds.len() as u64);
    for kind in result_kinds {
        h = mix(h, u64::from(kind.code()));
    }
    h
}

// ---------------------------------------------------------------------------
// Snapshot handle
// ---------------------------------------------------------------------------

/// How [`FrozenHandle::snapshot`] brought a stale snapshot up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refresh {
    /// Grown from the previous snapshot: the graph had only gained nodes
    /// and edges, or edited intervals and attributes, since.
    Extended,
    /// Built from the live graph: the first snapshot, or the first after
    /// a redaction rewrote a key.
    Rebuilt,
}

/// Owns the current [`FrozenGraph`] snapshot and refreshes it lazily when
/// the live graph's epoch moves — the frozen half of the frozen/live
/// split. Readers share snapshots via [`Arc`], so a refresh never
/// invalidates a walk already in flight.
///
/// A handle follows one graph through its mutations: equal epochs are
/// taken to mean equal contents, and a later epoch to mean the graph the
/// previous snapshot was taken of, grown or edited since.
#[derive(Default)]
pub struct FrozenHandle {
    slot: Mutex<Option<Arc<FrozenGraph>>>,
    builds: AtomicU64,
    last_build_us: AtomicU64,
}

impl std::fmt::Debug for FrozenHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenHandle")
            .field("builds", &self.builds())
            .field("last_build_us", &self.last_build_us())
            .finish()
    }
}

impl FrozenHandle {
    /// An empty handle (first snapshot builds on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current snapshot of `graph`: cached while the epoch matches,
    /// otherwise extended from the previous one (or rebuilt when it
    /// cannot be) and timed. The second value says which refresh ran and
    /// what it cost; it is `None` for a cached snapshot.
    pub fn snapshot(
        &self,
        graph: &ProvenanceGraph,
    ) -> (Arc<FrozenGraph>, Option<(Refresh, Duration)>) {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(f) = slot.as_ref() {
            if f.epoch() == graph.epoch() {
                return (f.clone(), None);
            }
        }
        let sw = ClockHandle::real().start();
        // The slot stays empty until the refresh succeeds, so a panic
        // inside it (which poisons the mutex) leaves no half-grown state:
        // the next call rebuilds.
        let (f, refresh) = match slot.take() {
            Some(prev) if prev.can_extend(graph) => (prev.extend(graph), Refresh::Extended),
            _ => (FrozenGraph::build(graph), Refresh::Rebuilt),
        };
        let f = Arc::new(f);
        let took = sw.elapsed();
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.last_build_us
            .store(took.as_micros() as u64, Ordering::Relaxed);
        *slot = Some(f.clone());
        (f, Some((refresh, took)))
    }

    /// The snapshot the last refresh produced, as it is: possibly behind
    /// the graph, and never refreshed by this call. `None` before the
    /// first snapshot.
    pub fn current(&self) -> Option<Arc<FrozenGraph>> {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// How many snapshots this handle has produced, extended or rebuilt.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Wall time of the most recent refresh, in microseconds.
    pub fn last_build_us(&self) -> u64 {
        self.last_build_us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::live::expand;
    use crate::node::{Node, NodeKind};
    use crate::pagerank::personalized_pagerank;
    use crate::time::Timestamp;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A deterministic tangled history: a long chain with periodic
    /// cross-links, overlap edges, and automatic edges, added by source.
    fn tangled(n: usize) -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i as i64))))
            .collect();
        for i in 1..n {
            g.add_edge(ids[i], ids[i - 1], EdgeKind::Link, t(1))
                .unwrap();
            if i % 3 == 2 {
                g.add_edge(ids[i], ids[i / 2], EdgeKind::TemporalOverlap, t(2))
                    .unwrap();
            }
            if i % 5 == 4 {
                g.add_edge(ids[i], ids[i - 3], EdgeKind::Redirect, t(3))
                    .unwrap();
            }
        }
        g
    }

    #[test]
    fn csr_matches_live_adjacency_and_kinds() {
        let g = tangled(40);
        let f = FrozenGraph::build(&g);
        assert_eq!(f.node_count(), g.node_count());
        assert_eq!(f.edge_count(), g.edge_count());
        assert_eq!(f.epoch(), g.epoch());
        let in_adjacency = g.in_adjacency();
        for id in g.node_ids() {
            let live_out: Vec<(u32, EdgeKind)> = g
                .parents(id)
                .map(|(e, p)| (p.index(), g.edge(e).unwrap().kind()))
                .collect();
            let frozen_out: Vec<(u32, EdgeKind)> = f.out_edges_of(id.index()).collect();
            assert_eq!(live_out, frozen_out, "out row of {id:?}");
            let live_in: Vec<(u32, EdgeKind)> = in_adjacency[id.as_usize()]
                .iter()
                .map(|&(e, c)| (c.index(), g.edge(e).unwrap().kind()))
                .collect();
            let frozen_in: Vec<(u32, EdgeKind)> = f.in_edges_of(id.index()).collect();
            assert_eq!(live_in, frozen_in, "in row of {id:?}");
        }
    }

    #[test]
    fn kernel_agrees_with_wrapper_entry_point() {
        let g = tangled(200);
        let f = FrozenGraph::build(&g);
        let seeds = vec![(NodeId::new(7), 1.0)];
        let config = PageRankConfig::default();
        let from_kernel =
            personalized_pagerank_frozen(&f, &seeds, &config, &Budget::new()).into_scores();
        let from_wrapper = personalized_pagerank(&g, &seeds, &config);
        assert_eq!(from_kernel, from_wrapper);
    }

    #[test]
    fn automatic_edge_filter_zeroes_automatic_slots() {
        let mut g = ProvenanceGraph::new();
        let seed = g.add_node(Node::new(NodeKind::PageVisit, "s", t(0)));
        let by_link = g.add_node(Node::new(NodeKind::PageVisit, "l", t(1)));
        let by_redirect = g.add_node(Node::new(NodeKind::PageVisit, "r", t(1)));
        g.add_edge(by_link, seed, EdgeKind::Link, t(1)).unwrap();
        g.add_edge(by_redirect, seed, EdgeKind::Redirect, t(1))
            .unwrap();
        let f = FrozenGraph::build(&g);
        // The seed's row is its two in-edges: the link, then the
        // redirect. Only the link carries mass without automatic edges.
        assert_eq!(
            layout_row(f.pull_layout(true), seed.index()),
            [(by_link.index(), 1.0), (by_redirect.index(), 1.0)]
        );
        assert_eq!(
            layout_row(f.pull_layout(false), seed.index()),
            [(by_link.index(), 1.0), (by_redirect.index(), 0.0)]
        );
        let config = PageRankConfig {
            include_automatic_edges: false,
            ..PageRankConfig::default()
        };
        let scores =
            personalized_pagerank_frozen(&f, &[(seed, 1.0)], &config, &Budget::new()).into_scores();
        assert!(scores.score_of(by_link) > 0.0);
        assert_eq!(
            scores.score_of(by_redirect),
            0.0,
            "redirect carries no mass"
        );
    }

    #[test]
    fn zero_deadline_truncates_at_an_iteration_boundary() {
        let g = tangled(500);
        let f = FrozenGraph::build(&g);
        let scores = personalized_pagerank_frozen(
            &f,
            &[(NodeId::new(0), 1.0)],
            &PageRankConfig::default(),
            &Budget::new().with_deadline(Duration::ZERO),
        );
        assert!(scores.truncated);
        assert!(scores.iterations >= 1, "at least one iteration completes");
        assert!(!scores.entries.is_empty(), "partial scores still returned");
    }

    #[test]
    fn expansion_matches_the_live_implementation() {
        let g = tangled(60);
        let f = FrozenGraph::build(&g);
        let seeds = vec![(NodeId::new(0), 1.0), (NodeId::new(30), 0.7)];
        let config = ExpansionConfig::default();
        let live = expand(&g, &seeds, &config, &Budget::new());
        let frozen = expand_frozen(&f, &seeds, &config, &Budget::new());
        assert_eq!(live.weight.len(), frozen.entries.len());
        for &(node, w) in &frozen.entries {
            let lw = live.weight_of(NodeId::new(node));
            assert!(
                (lw - w).abs() < 1e-12,
                "node {node}: live {lw} vs frozen {w}"
            );
        }
        assert_eq!(live.truncated, frozen.truncated);
        // max_nodes truncation keeps the same heaviest set.
        let budget = Budget::new().with_max_nodes(10);
        let live = expand(&g, &seeds, &config, &budget);
        let frozen = expand_frozen(&f, &seeds, &config, &budget);
        assert!(live.truncated && frozen.truncated);
        assert_eq!(live.weight.len(), frozen.entries.len());
        for &(node, w) in &frozen.entries {
            assert!((live.weight_of(NodeId::new(node)) - w).abs() < 1e-12);
        }
    }

    #[test]
    fn cache_is_epoch_keyed_and_byte_budgeted() {
        // An answer with room for four hits costs 4 * 32 + 96 = 224
        // bytes; a 448-byte budget holds exactly two.
        assert_eq!(std::mem::size_of::<CachedHit>(), 32);
        let cache = ScoreCache::with_budget(2 * 224);
        let value = |first: u32| {
            let mut answer = CachedAnswer::with_capacity(4);
            answer.hits.extend((first..first + 4).map(|i| CachedHit {
                node: NodeId::new(i),
                score: 2.0,
                text: 1.0,
                context: 0.5,
            }));
            Arc::new(answer)
        };
        let key = |epoch, fp| CacheKey {
            epoch,
            domain: CacheDomain::PageRank,
            fingerprint: fp,
        };
        let first_node = |k| {
            cache
                .get(&k)
                .map(|a: Arc<CachedAnswer>| a.hits[0].node.index())
        };
        assert_eq!(first_node(key(1, 1)), None);
        cache.put(key(1, 1), value(0));
        cache.put(key(1, 2), value(10));
        assert_eq!(cache.get(&key(1, 1)), Some(value(0)), "same epoch hits");
        assert_eq!(first_node(key(2, 1)), None, "newer epoch misses");
        // A put at epoch 2 drops every epoch-1 entry and counts each.
        assert_eq!(cache.put(key(2, 1), value(20)), 2);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions, stats.bytes), (1, 2, 224));
        // A put at an older epoch is ignored: the graph has moved on.
        assert_eq!(cache.put(key(1, 3), value(30)), 0);
        assert_eq!(first_node(key(1, 3)), None);
        // LRU byte pressure: the least recently used entry goes first.
        cache.put(key(2, 2), value(40));
        assert_eq!(first_node(key(2, 1)), Some(20)); // refreshes fp=1
        assert_eq!(cache.put(key(2, 3), value(50)), 1, "over budget");
        assert_eq!(first_node(key(2, 1)), Some(20), "refreshed entry kept");
        assert_eq!(first_node(key(2, 2)), None, "LRU entry evicted");
        assert_eq!(first_node(key(2, 3)), Some(50));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (4, 4, 3));
        assert_eq!((stats.entries, stats.bytes), (2, 2 * 224));
    }

    #[test]
    fn fingerprints_separate_seeds_configs_and_budgets() {
        let seeds_a = vec![(NodeId::new(1), 1.0), (NodeId::new(2), 0.5)];
        let seeds_b = vec![(NodeId::new(2), 0.5), (NodeId::new(1), 1.0)];
        let seeds_c = vec![(NodeId::new(1), 1.0)];
        let cfg = PageRankConfig::default();
        let budget = Budget::new();
        assert_eq!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_b, &cfg, &budget),
            "seed order is canonicalized"
        );
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_c, &cfg, &budget)
        );
        let other_cfg = PageRankConfig {
            damping: 0.3,
            ..PageRankConfig::default()
        };
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_a, &other_cfg, &budget)
        );
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_a, &cfg, &Budget::new().with_max_nodes(5))
        );
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_expansion(&seeds_a, &ExpansionConfig::default(), &budget),
            "domains are tagged apart"
        );
        // An answer's key separates every blend setting, the kinds in
        // order, and the walk it ranks.
        let walk = fingerprint_ppr(&seeds_a, &cfg, &budget);
        let kinds = [NodeKind::PageVisit, NodeKind::Download];
        let answer = |walk, text, context, hits, max, kinds: &[NodeKind]| {
            fingerprint_answer(walk, text, context, hits, max, kinds)
        };
        let base = answer(walk, 1.0, 1.5, 0.0, 25, &kinds);
        assert_eq!(base, answer(walk, 1.0, 1.5, 0.0, 25, &kinds));
        let variants = [
            base,
            answer(walk, 2.0, 1.5, 0.0, 25, &kinds),
            answer(walk, 1.0, 1.0, 0.0, 25, &kinds),
            answer(walk, 1.0, 1.5, 3.0, 25, &kinds),
            answer(walk, 1.0, 1.5, 0.0, 5, &kinds),
            answer(walk, 1.0, 1.5, 0.0, 25, &kinds[..1]),
            answer(walk, 1.0, 1.5, 0.0, 25, &[kinds[1], kinds[0]]),
            answer(walk + 1, 1.0, 1.5, 0.0, 25, &kinds),
        ];
        let distinct: std::collections::HashSet<u64> = variants.iter().copied().collect();
        assert_eq!(distinct.len(), variants.len());
    }

    #[test]
    fn handle_rebuilds_only_when_the_epoch_moves() {
        let mut g = tangled(30);
        let handle = FrozenHandle::new();
        let (first, refresh) = handle.snapshot(&g);
        assert_eq!(refresh.map(|(how, _)| how), Some(Refresh::Rebuilt));
        let (again, refresh) = handle.snapshot(&g);
        assert!(Arc::ptr_eq(&first, &again), "same epoch: shared snapshot");
        assert_eq!(refresh, None);
        assert_eq!(handle.builds(), 1);
        // Later epochs extend the snapshot, except after a key rewrite;
        // either way the result equals a fresh build.
        let how = |g: &ProvenanceGraph| {
            let (f, refresh) = handle.snapshot(g);
            assert_same_arrays(&f, &FrozenGraph::build(g)).unwrap();
            refresh.map(|(how, _)| how)
        };
        let a = g.add_node(Node::new(NodeKind::PageVisit, "u3", t(40)));
        g.add_edge(a, NodeId::new(2), EdgeKind::Link, t(40))
            .unwrap();
        let b = g.add_version(NodeKind::PageVisit, "u7", t(41));
        g.add_edge(b, a, EdgeKind::TemporalOverlap, t(41)).unwrap();
        let c = g.add_node(Node::new(NodeKind::PageVisit, "u9", t(42)));
        g.add_edge(c, NodeId::new(10), EdgeKind::Embed, t(42))
            .unwrap();
        assert_eq!(how(&g), Some(Refresh::Extended), "appends");
        assert!(!Arc::ptr_eq(&first, &handle.snapshot(&g).0));
        g.node_mut(a).unwrap().close_at(t(50)).unwrap();
        assert_eq!(how(&g), Some(Refresh::Extended), "content edit");
        g.redact_node(NodeId::new(3), "[redacted]").unwrap();
        assert_eq!(how(&g), Some(Refresh::Rebuilt), "key rewrite");
        g.add_node(Node::new(NodeKind::PageVisit, "[redacted]", t(60)));
        assert_eq!(how(&g), Some(Refresh::Extended), "appends again");
        assert_eq!(handle.builds(), 5, "every snapshot produced counts");
    }

    /// Fails unless `a` and `b` hold the same arrays, `f64`s compared by
    /// bits.
    fn assert_same_arrays(a: &FrozenGraph, b: &FrozenGraph) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.epoch, b.epoch);
        prop_assert_eq!(a.n, b.n);
        prop_assert_eq!(&a.fwd, &b.fwd);
        prop_assert_eq!(&a.rev, &b.rev);
        prop_assert_eq!(cond_bits(&a.cond), cond_bits(&b.cond));
        prop_assert_eq!(&a.key_rep, &b.key_rep);
        Ok(())
    }

    fn cond_bits(cond: &[(f64, f64)]) -> Vec<(u64, u64)> {
        cond.iter()
            .map(|&(all, noauto)| (all.to_bits(), noauto.to_bits()))
            .collect()
    }

    /// Fails unless `f` describes `g` as computed here straight from the
    /// live graph: adjacency rows, per-node conductance by bits, and the
    /// lowest node id per key.
    fn assert_matches_live(f: &FrozenGraph, g: &ProvenanceGraph) -> Result<(), TestCaseError> {
        let mut cond = vec![(0.0f64, 0.0f64); g.node_count()];
        for id in g.node_ids() {
            for (eid, dst) in g.parents(id) {
                let kind = g.edge(eid).unwrap().kind();
                let w = if kind == EdgeKind::TemporalOverlap {
                    0.4
                } else {
                    1.0
                };
                cond[id.as_usize()].0 += w;
                cond[dst.as_usize()].0 += w;
                if !kind.is_automatic() {
                    cond[id.as_usize()].1 += w;
                    cond[dst.as_usize()].1 += w;
                }
            }
        }
        let mut first_of_key: HashMap<&str, u32> = HashMap::new();
        prop_assert_eq!(f.node_count(), g.node_count());
        prop_assert_eq!(f.edge_count(), g.edge_count());
        prop_assert_eq!(cond_bits(&f.cond), cond_bits(&cond));
        let in_adjacency = g.in_adjacency();
        for id in g.node_ids() {
            let row: Vec<(u32, EdgeKind)> = g
                .parents(id)
                .chain(in_adjacency[id.as_usize()].iter().copied())
                .map(|(e, other)| (other.index(), g.edge(e).unwrap().kind()))
                .collect();
            let out: Vec<(u32, EdgeKind)> = f.out_edges_of(id.index()).collect();
            let incoming: Vec<(u32, EdgeKind)> = f.in_edges_of(id.index()).collect();
            prop_assert_eq!(&row[..g.out_degree(id)], &out[..]);
            prop_assert_eq!(&row[g.out_degree(id)..], &incoming[..]);
            let key = g.node(id).unwrap().key();
            let rep = *first_of_key.entry(key).or_insert(id.index());
            prop_assert_eq!(f.key_reps()[id.as_usize()], rep);
        }
        Ok(())
    }

    /// Node `node`'s row in `layout`: `(target, weight)` per slot, in row
    /// order.
    fn layout_row(layout: &PullLayout, node: u32) -> Vec<(u32, f64)> {
        let k = layout.position[node as usize] as usize;
        layout
            .columns
            .windows(2)
            .take_while(|column| column[0] as usize + k < column[1] as usize)
            .map(|column| {
                let s = column[0] as usize + k;
                (layout.targets[s], layout.weights[s])
            })
            .collect()
    }

    #[test]
    fn layout_stores_rows_longest_first_column_by_column() {
        let g = tangled(40);
        let f = FrozenGraph::build(&g);
        let layout = f.pull_layout(true);
        let mut order = vec![0u32; f.n];
        for (i, &k) in layout.position.iter().enumerate() {
            order[k as usize] = i as u32;
        }
        let in_adjacency = g.in_adjacency();
        let len = |i: u32| g.out_degree(NodeId::new(i)) + in_adjacency[i as usize].len();
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                len(a) > len(b) || (len(a) == len(b) && a < b),
                "{a} before {b}"
            );
        }
        for id in g.node_ids() {
            let row: Vec<u32> = layout_row(layout, id.index())
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            let live: Vec<u32> = g
                .parents(id)
                .chain(in_adjacency[id.as_usize()].iter().copied())
                .map(|(_, other)| other.index())
                .collect();
            assert_eq!(row, live, "row of {id:?}");
        }
        assert_eq!(layout.targets.len(), 2 * f.edge_count());
    }

    /// Personalized PageRank written plainly: node by node, each node's
    /// forward slots then reverse slots weighted `w(kind) /
    /// conductance(target)`, with pushed mass and L1 delta summed per
    /// 1024-node chunk and the chunk sums folded in chunk order. No
    /// deadline.
    fn reference_pagerank(
        f: &FrozenGraph,
        seeds: &[(NodeId, f64)],
        config: &PageRankConfig,
    ) -> FrozenScores {
        let n = f.n;
        let mut restart = vec![0.0f64; n];
        let mut total = 0.0;
        for &(node, w) in seeds {
            if node.as_usize() < n && w > 0.0 {
                restart[node.as_usize()] += w;
                total += w;
            }
        }
        if total <= 0.0 {
            return FrozenScores::default();
        }
        for r in &mut restart {
            *r /= total;
        }
        let weight = |kind: u8, target: u32| {
            let kind = EdgeKind::from_code(kind).unwrap();
            let w = if kind == EdgeKind::TemporalOverlap {
                0.4
            } else {
                1.0
            };
            let (all, noauto) = f.cond[target as usize];
            let cond = match (config.include_automatic_edges, kind.is_automatic()) {
                (true, _) => all,
                (false, true) => return 0.0,
                (false, false) => noauto,
            };
            if cond > 0.0 {
                w / cond
            } else {
                0.0
            }
        };
        let mut cur = restart.clone();
        let mut iterations = 0;
        loop {
            let mut next = vec![0.0f64; n];
            let mut pushed = Vec::new();
            for lo in (0..n).step_by(CHUNK) {
                let mut sum = 0.0;
                for (i, x) in next.iter_mut().enumerate().skip(lo).take(CHUNK) {
                    let mut acc = 0.0;
                    for (t, kind) in f.fwd.slots(i).chain(f.rev.slots(i)) {
                        acc += weight(kind, t) * cur[t as usize];
                    }
                    *x = config.damping * acc;
                    sum += *x;
                }
                pushed.push(sum);
            }
            let slack = 1.0 - pushed.iter().sum::<f64>();
            let mut deltas = Vec::new();
            for lo in (0..n).step_by(CHUNK) {
                let mut delta = 0.0;
                for (i, x) in next.iter_mut().enumerate().skip(lo).take(CHUNK) {
                    *x += slack * restart[i];
                    delta += (*x - cur[i]).abs();
                }
                deltas.push(delta);
            }
            cur = next;
            iterations += 1;
            if deltas.iter().sum::<f64>() < config.tolerance || iterations >= config.max_iterations
            {
                break;
            }
        }
        FrozenScores {
            entries: cur
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| (s > 0.0).then_some((i as u32, s)))
                .collect(),
            iterations,
            truncated: false,
        }
    }

    /// Fails unless the kernel scores `f` exactly as
    /// [`reference_pagerank`] does, under both automatic-edge settings:
    /// the same entries with scores equal by bits, the same iteration
    /// count, and the same `truncated` flag.
    fn assert_scores_like_the_reference(
        f: &FrozenGraph,
        seeds: &[(NodeId, f64)],
        config: &PageRankConfig,
    ) -> Result<(), TestCaseError> {
        let bits = |s: &FrozenScores| {
            s.entries
                .iter()
                .map(|&(i, x)| (i, x.to_bits()))
                .collect::<Vec<_>>()
        };
        for include_automatic_edges in [true, false] {
            let config = PageRankConfig {
                include_automatic_edges,
                ..config.clone()
            };
            let got = personalized_pagerank_frozen(f, seeds, &config, &Budget::new());
            let want = reference_pagerank(f, seeds, &config);
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.truncated, want.truncated);
            prop_assert_eq!(bits(&got), bits(&want));
        }
        Ok(())
    }

    /// SplitMix64: the random graphs below are drawn from one `u64`.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `nodes` nodes and about `degree * nodes` edges of every kind, each
    /// from a node to a uniformly drawn older one, added by source.
    fn random_graph(nodes: usize, degree: usize, state: &mut u64) -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        for i in 0..nodes {
            g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i as i64)));
        }
        let mut links = Vec::new();
        for _ in 0..degree * nodes {
            let src = splitmix(state) % nodes as u64;
            if src == 0 {
                continue;
            }
            let dst = splitmix(state) % src;
            let kind = EdgeKind::ALL[splitmix(state) as usize % EdgeKind::ALL.len()];
            links.push((NodeId::new(src as u32), NodeId::new(dst as u32), kind));
        }
        links.sort_by_key(|&(src, _, _)| src);
        for (src, dst, kind) in links {
            g.add_edge(src, dst, kind, t(0)).unwrap();
        }
        g
    }

    /// One step of growing a graph: a node, a version, an edge, a content
    /// edit, or now and then a redaction. An edge leaves the last edge's
    /// source or a newer node for an older one. Returns the two existing
    /// nodes the step drew.
    fn grow(g: &mut ProvenanceGraph, (op, a, b, k): (u8, u16, u16, u8)) -> (NodeId, NodeId) {
        let n = g.node_count() as u32;
        let (a, b) = (NodeId::new(u32::from(a) % n), NodeId::new(u32::from(b) % n));
        let last = g.edges().last().map_or(1, |(_, e)| e.src().index().max(1));
        let key = format!("u{}", k % 8);
        let kind = EdgeKind::from_code(k).unwrap_or(EdgeKind::Link);
        match op {
            0..=19 => {
                g.add_node(Node::new(NodeKind::ALL[usize::from(k) % 7], key, t(100)));
            }
            20..=29 => {
                g.add_version(NodeKind::PageVisit, &key, t(100));
            }
            30..=84 => {
                let src = last + a.index() % (n - last);
                let dst = b.index() % src;
                g.add_edge(NodeId::new(src), NodeId::new(dst), kind, t(100))
                    .unwrap();
            }
            85..=94 => {
                g.node_mut(a).unwrap().attrs_mut().set("title", key);
            }
            _ => {
                g.redact_node(a, format!("[redacted {}]", b.index() % 3))
                    .unwrap();
            }
        }
        (a, b)
    }

    proptest! {
        /// The CSR snapshot round-trips every node, edge, and kind filter
        /// of the live graph: adjacency rows match in content and order,
        /// and every node's conductance, with and without automatic
        /// edges, equals the live graph's by bits.
        #[test]
        fn csr_round_trips_random_graphs(
            links in prop::collection::vec((1u8..30, 0u8..30, 0u8..15), 0..120),
        ) {
            let mut g = ProvenanceGraph::new();
            for i in 0..30 {
                g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i)));
            }
            // Each link from a node to an older one, added by source.
            let mut links: Vec<(u32, u32, u8)> = links
                .iter()
                .map(|&(src, dst, k)| (u32::from(src), u32::from(dst) % u32::from(src), k))
                .collect();
            links.sort_by_key(|&(src, _, _)| src);
            for (src, dst, k) in links {
                let kind = EdgeKind::from_code(k).unwrap_or(EdgeKind::Link);
                g.add_edge(NodeId::new(src), NodeId::new(dst), kind, t(i64::from(src)))
                    .unwrap();
            }
            assert_matches_live(&FrozenGraph::build(&g), &g)?;
        }

        /// A handle fed a graph growing step by step — nodes, versions,
        /// edges, content edits, and now and then
        /// a redaction — hands out snapshots identical, bit for bit, to a
        /// fresh build, and matching the live graph.
        #[test]
        fn extended_snapshots_equal_full_builds(
            steps in prop::collection::vec((0u8..100, 0u16..1000, 0u16..1000, 0u8..15), 1..60),
        ) {
            let mut g = tangled(12);
            let handle = FrozenHandle::new();
            for &step in &steps {
                grow(&mut g, step);
                // Skip some snapshots so extensions span several steps.
                if step.3 % 3 != 0 {
                    let (f, _) = handle.snapshot(&g);
                    assert_same_arrays(&f, &FrozenGraph::build(&g))?;
                    assert_matches_live(&f, &g)?;
                }
            }
            let (f, _) = handle.snapshot(&g);
            assert_same_arrays(&f, &FrozenGraph::build(&g))?;
            assert_matches_live(&f, &g)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Snapshots grown through a handle, their conductance extended
        /// rather than rebuilt, score exactly as the reference does.
        #[test]
        fn grown_snapshots_score_like_the_reference(
            steps in prop::collection::vec((0u8..100, 0u16..1000, 0u16..1000, 0u8..15), 1..40),
        ) {
            let mut g = tangled(12);
            let handle = FrozenHandle::new();
            for &step in &steps {
                let (a, b) = grow(&mut g, step);
                if step.3 % 3 != 0 {
                    let (f, _) = handle.snapshot(&g);
                    let seeds = [(a, 1.0), (b, 0.5)];
                    assert_scores_like_the_reference(&f, &seeds, &PageRankConfig::default())?;
                }
            }
        }

        /// The kernel scores random graphs exactly as the reference does.
        /// Most draws span several 1024-node chunks, so a change to the
        /// order of any sum, within a row or across chunks, shows.
        #[test]
        fn kernel_matches_the_reference_bit_for_bit(
            nodes in 1usize..3000,
            degree in 0usize..4,
            seed in any::<u64>(),
            damping in 0usize..3,
            max_iterations in 1usize..60,
        ) {
            let mut state = seed;
            let g = random_graph(nodes, degree, &mut state);
            let f = FrozenGraph::build(&g);
            // One draw may fall past the last node; seeds there are
            // ignored.
            let seeds: Vec<(NodeId, f64)> = (0..3)
                .map(|_| {
                    let node = splitmix(&mut state) % (nodes as u64 + 1);
                    (NodeId::new(node as u32), 0.25 * (1 + splitmix(&mut state) % 4) as f64)
                })
                .collect();
            let config = PageRankConfig {
                damping: [0.5, 0.7, 0.85][damping],
                max_iterations,
                ..PageRankConfig::default()
            };
            assert_scores_like_the_reference(&f, &seeds, &config)?;
        }
    }
}
