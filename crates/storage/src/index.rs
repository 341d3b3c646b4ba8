//! Secondary index: time-interval overlap.
//!
//! §3.4's vision demands that "relationships, paths, and neighborhoods …
//! be queried with the same power as node objects"; practically, the query
//! layer needs two entry points beyond adjacency: find nodes by URL / key
//! (the graph's own key table, `ProvenanceGraph::nodes_with_key`), and
//! find nodes whose open interval overlaps a time range ([`TimeIndex`],
//! the substrate of time-contextual search, §2.3).

use bp_graph::{NodeId, TimeInterval, Timestamp};

const BLOCK: usize = 256;

/// [`TimeIndex`]'s position of a node id that was never inserted.
const UNINDEXED: u32 = u32::MAX;

/// An interval-overlap index over node open/close intervals.
///
/// Entries are kept sorted by opening timestamp (history events arrive
/// nearly in order, so inserts are usually appends). Overlap queries use a
/// binary search on the open bound plus per-block maximum-close summaries
/// to skip blocks that cannot contain overlaps — `O(log n + blocks + k)`.
///
/// # Examples
///
/// ```
/// use bp_storage::TimeIndex;
/// use bp_graph::{NodeId, TimeInterval, Timestamp};
/// let mut idx = TimeIndex::new();
/// idx.insert(NodeId::new(0), TimeInterval::closed(Timestamp::from_secs(0), Timestamp::from_secs(10)));
/// idx.insert(NodeId::new(1), TimeInterval::closed(Timestamp::from_secs(20), Timestamp::from_secs(30)));
/// let hits = idx.overlapping(&TimeInterval::closed(Timestamp::from_secs(5), Timestamp::from_secs(15)));
/// assert_eq!(hits, vec![NodeId::new(0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeIndex {
    /// (open, close, node), sorted by open then node.
    entries: Vec<(Timestamp, Option<Timestamp>, NodeId)>,
    /// Per-block max close; `None` means the block contains a still-open
    /// interval (max = +infinity).
    block_max_close: Vec<Option<Timestamp>>,
    /// Position of each node's entry, indexed by node id, for close-time
    /// updates; [`UNINDEXED`] for ids never inserted.
    position: Vec<u32>,
}

impl TimeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts `node` with `interval`. Appends are O(1) amortized when
    /// opens arrive in nondecreasing order; out-of-order inserts shift.
    pub fn insert(&mut self, node: NodeId, interval: TimeInterval) {
        let entry = (interval.open(), interval.close(), node);
        let at = if self.entries.last().is_none_or(|last| last.0 <= entry.0) {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let at = self
                .entries
                .partition_point(|e| (e.0, e.2) <= (entry.0, entry.2));
            self.entries.insert(at, entry);
            // Positions after the insertion point shift right.
            for pos in &mut self.position {
                if *pos != UNINDEXED && *pos as usize >= at {
                    *pos += 1;
                }
            }
            at
        };
        let slot = node.as_usize();
        if self.position.len() <= slot {
            self.position.resize(slot + 1, UNINDEXED);
        }
        // Entries are one per node id, so a position fits in a `u32`.
        self.position[slot] = at as u32;
        self.refresh_blocks_from(at);
    }

    /// Updates the close timestamp of a previously inserted node.
    ///
    /// Unknown nodes are ignored (the caller may index only some kinds).
    pub fn close(&mut self, node: NodeId, at: Timestamp) {
        match self.position.get(node.as_usize()) {
            Some(&pos) if pos != UNINDEXED => {
                let pos = pos as usize;
                self.entries[pos].1 = Some(at);
                self.refresh_block(pos / BLOCK);
            }
            _ => {}
        }
    }

    /// All nodes whose interval overlaps `query`, in open-timestamp order.
    pub fn overlapping(&self, query: &TimeInterval) -> Vec<NodeId> {
        let mut out = Vec::new();
        // Entries opening after the query closes can never overlap.
        let end = match query.close() {
            Some(c) => self.entries.partition_point(|e| e.0 <= c),
            None => self.entries.len(),
        };
        let q_open = query.open();
        let full_blocks = end / BLOCK;
        for block in 0..=full_blocks {
            let start = block * BLOCK;
            if start >= end {
                break;
            }
            // Skip blocks whose intervals all close before the query opens.
            if let Some(Some(max_close)) = self.block_max_close.get(block) {
                if *max_close < q_open {
                    continue;
                }
            }
            let stop = ((block + 1) * BLOCK).min(end);
            for &(open, close, node) in &self.entries[start..stop] {
                let iv = match close {
                    Some(c) => TimeInterval::closed(open, c),
                    None => TimeInterval::open_at(open),
                };
                if iv.overlaps(query) {
                    out.push(node);
                }
            }
        }
        out
    }

    /// All nodes whose interval overlaps `query` excluding `exclude`
    /// (callers pass the anchor node itself).
    pub fn overlapping_except(&self, query: &TimeInterval, exclude: NodeId) -> Vec<NodeId> {
        let mut v = self.overlapping(query);
        v.retain(|&n| n != exclude);
        v
    }

    fn refresh_blocks_from(&mut self, pos: usize) {
        let first_block = pos / BLOCK;
        let last_block = (self.entries.len().saturating_sub(1)) / BLOCK;
        for b in first_block..=last_block {
            self.refresh_block(b);
        }
    }

    fn refresh_block(&mut self, block: usize) {
        let start = block * BLOCK;
        let stop = ((block + 1) * BLOCK).min(self.entries.len());
        if start >= stop {
            return;
        }
        let mut max: Option<Timestamp> = Some(Timestamp::from_micros(i64::MIN));
        for &(_, close, _) in &self.entries[start..stop] {
            match (max, close) {
                (Some(m), Some(c)) if c > m => max = Some(c),
                (_, None) => {
                    max = None; // still-open interval: +infinity
                    break;
                }
                _ => {}
            }
        }
        if self.block_max_close.len() <= block {
            self.block_max_close.resize(block + 1, None);
        }
        self.block_max_close[block] = max;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn secs(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn closed(a: i64, b: i64) -> TimeInterval {
        TimeInterval::closed(secs(a), secs(b))
    }

    #[test]
    fn time_index_overlap_basics() {
        let mut idx = TimeIndex::new();
        idx.insert(NodeId::new(0), closed(0, 10));
        idx.insert(NodeId::new(1), closed(5, 15));
        idx.insert(NodeId::new(2), closed(20, 30));
        assert_eq!(
            idx.overlapping(&closed(8, 12)),
            vec![NodeId::new(0), NodeId::new(1)]
        );
        assert_eq!(idx.overlapping(&closed(16, 19)), vec![]);
        assert_eq!(idx.overlapping(&closed(25, 26)), vec![NodeId::new(2)]);
    }

    #[test]
    fn open_intervals_always_overlap_later_queries() {
        let mut idx = TimeIndex::new();
        idx.insert(NodeId::new(0), TimeInterval::open_at(secs(0)));
        assert_eq!(idx.overlapping(&closed(1_000, 2_000)), vec![NodeId::new(0)]);
    }

    #[test]
    fn close_updates_future_queries() {
        let mut idx = TimeIndex::new();
        idx.insert(NodeId::new(0), TimeInterval::open_at(secs(0)));
        idx.close(NodeId::new(0), secs(10));
        assert!(idx.overlapping(&closed(20, 30)).is_empty());
        assert_eq!(idx.overlapping(&closed(5, 8)), vec![NodeId::new(0)]);
        // Closing an unknown node is a no-op.
        idx.close(NodeId::new(99), secs(1));
    }

    #[test]
    fn overlapping_except_removes_anchor() {
        let mut idx = TimeIndex::new();
        idx.insert(NodeId::new(0), closed(0, 10));
        idx.insert(NodeId::new(1), closed(5, 15));
        assert_eq!(
            idx.overlapping_except(&closed(0, 20), NodeId::new(0)),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut idx = TimeIndex::new();
        idx.insert(NodeId::new(0), closed(100, 110));
        idx.insert(NodeId::new(1), closed(50, 60)); // earlier open
        idx.insert(NodeId::new(2), closed(75, 80));
        assert_eq!(
            idx.overlapping(&closed(0, 200)),
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(0)]
        );
        // Close still lands on the right entry after shifting.
        idx.close(NodeId::new(0), secs(105));
        assert!(idx.overlapping(&closed(106, 120)).is_empty());
    }

    #[test]
    fn block_skipping_crosses_block_boundaries() {
        let mut idx = TimeIndex::new();
        // 1000 short intervals, then one long-lived interval.
        for i in 0..1000 {
            idx.insert(NodeId::new(i), closed(i as i64 * 10, i as i64 * 10 + 5));
        }
        idx.insert(NodeId::new(1000), closed(0, 1_000_000));
        let hits = idx.overlapping(&closed(999_000, 999_001));
        assert_eq!(hits, vec![NodeId::new(1000)]);
        assert_eq!(idx.len(), 1001);
        assert!(!idx.is_empty());
    }

    proptest! {
        /// The block-skipping query matches a brute-force scan.
        #[test]
        fn overlap_matches_bruteforce(
            intervals in prop::collection::vec((0i64..500, 0i64..50, any::<bool>()), 1..200),
            q_open in 0i64..600,
            q_len in 0i64..100,
        ) {
            let mut idx = TimeIndex::new();
            let mut raw = Vec::new();
            for (i, &(open, len, still_open)) in intervals.iter().enumerate() {
                let node = NodeId::new(i as u32);
                let iv = if still_open {
                    TimeInterval::open_at(secs(open))
                } else {
                    closed(open, open + len)
                };
                idx.insert(node, iv);
                raw.push((node, iv));
            }
            let query = closed(q_open, q_open + q_len);
            let mut expect: Vec<NodeId> = raw
                .iter()
                .filter(|(_, iv)| iv.overlaps(&query))
                .map(|(n, _)| *n)
                .collect();
            let mut got = idx.overlapping(&query);
            expect.sort();
            got.sort();
            prop_assert_eq!(got, expect);
        }

        /// Random close updates keep results equal to brute force.
        #[test]
        fn closes_match_bruteforce(
            opens in prop::collection::vec(0i64..300, 1..100),
            closes in prop::collection::vec((0usize..100, 0i64..400), 0..50),
            q_open in 0i64..400,
        ) {
            let mut idx = TimeIndex::new();
            let mut raw: Vec<(NodeId, TimeInterval)> = Vec::new();
            for (i, &open) in opens.iter().enumerate() {
                let node = NodeId::new(i as u32);
                let iv = TimeInterval::open_at(secs(open));
                idx.insert(node, iv);
                raw.push((node, iv));
            }
            for &(who, when) in &closes {
                if who < raw.len() {
                    let (node, iv) = raw[who];
                    if when >= iv.open().as_secs() && iv.is_open() {
                        idx.close(node, secs(when));
                        raw[who].1 = TimeInterval::closed(iv.open(), secs(when));
                    }
                }
            }
            let query = closed(q_open, q_open + 50);
            let mut expect: Vec<NodeId> = raw
                .iter()
                .filter(|(_, iv)| iv.overlaps(&query))
                .map(|(n, _)| *n)
                .collect();
            let mut got = idx.overlapping(&query);
            expect.sort();
            got.sort();
            prop_assert_eq!(got, expect);
        }
    }
}
