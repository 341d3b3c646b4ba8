//! Concurrent PageRank walks over consecutive snapshots of a growing
//! graph. Every snapshot a `FrozenHandle` extends carries the previous
//! one's slot layout, and the first walk over it grows that layout: in
//! place when nothing else holds it, as a copy while an older snapshot
//! or walk still does. That makes the layout the one piece of state
//! that snapshots share.
//!
//! Each step, the main thread publishes the newest snapshot beside the
//! scores of the same walks over a snapshot built from scratch, and a
//! barrier releases the workers onto it together: they race for its
//! layout while the main thread extends the next snapshot from it. On
//! odd steps the previous snapshot stays published and the workers walk
//! it again, so the newest layout must grow as a copy; on even steps it
//! is dropped first, so the layout may grow in place. Every result must
//! equal the reference bit for bit. CI runs this file under
//! ThreadSanitizer.

use bp_graph::frozen::{personalized_pagerank_frozen, FrozenGraph, FrozenHandle};
use bp_graph::pagerank::PageRankConfig;
use bp_graph::traverse::Budget;
use bp_graph::{EdgeKind, Node, NodeId, NodeKind, ProvenanceGraph, Timestamp};
use std::sync::{Arc, Barrier, Mutex};

const WORKERS: usize = 3;
const STEPS: u32 = 30;

/// Seeds of every walk: the oldest node and one in the middle of the
/// initial graph.
const SEEDS: [(NodeId, f64); 2] = [(NodeId::new(0), 1.0), (NodeId::new(150), 0.5)];

/// One snapshot and the bits of the walk over a fresh build of the same
/// graph.
struct Published {
    step: u32,
    snapshot: Arc<FrozenGraph>,
    expected: Vec<(u32, u64)>,
}

/// The newest snapshot, and on odd steps the one before it.
type Step = (Arc<Published>, Option<Arc<Published>>);

fn walk(snapshot: &FrozenGraph) -> Vec<(u32, u64)> {
    personalized_pagerank_frozen(snapshot, &SEEDS, &PageRankConfig::default(), &Budget::new())
        .entries
        .iter()
        .map(|&(i, s)| (i, s.to_bits()))
        .collect()
}

/// Adds `count` nodes, each linked to two older nodes (the second edge
/// automatic), so old rows and old conductances change too.
fn grow(g: &mut ProvenanceGraph, count: u32) {
    for _ in 0..count {
        let n = g.node_count() as u32;
        let at = Timestamp::from_secs(i64::from(n));
        let x = g.add_node(Node::new(NodeKind::PageVisit, format!("u{n}"), at));
        g.add_edge(x, NodeId::new(n / 2), EdgeKind::Link, at)
            .unwrap();
        g.add_edge(x, NodeId::new(n - 1), EdgeKind::Redirect, at)
            .unwrap();
    }
}

/// Fails unless walking `published` gives the fresh build's bits.
fn check(published: &Published) {
    assert_eq!(
        walk(&published.snapshot),
        published.expected,
        "step {}",
        published.step
    );
}

#[test]
fn concurrent_walks_over_growing_snapshots_match_fresh_builds() {
    let mut g = ProvenanceGraph::new();
    g.add_node(Node::new(
        NodeKind::PageVisit,
        "u0",
        Timestamp::from_secs(0),
    ));
    grow(&mut g, 299);
    let handle = FrozenHandle::new();
    let current: Mutex<Option<Step>> = Mutex::new(None);
    // `released` lets the workers take the step; `taken` lets the main
    // thread go on to the next one while they walk it.
    let (released, taken) = (Barrier::new(WORKERS + 1), Barrier::new(WORKERS + 1));
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let (current, released, taken) = (&current, &released, &taken);
            scope.spawn(move || {
                for step in 0..=STEPS {
                    released.wait();
                    let (newest, older) = current.lock().unwrap().clone().unwrap();
                    taken.wait();
                    assert_eq!(newest.step, step);
                    // Workers alternate which snapshot they walk first,
                    // so walks of the older one run beside the newest
                    // layout's growth.
                    let mut published: Vec<&Published> =
                        std::iter::once(&*newest).chain(older.as_deref()).collect();
                    if worker % 2 == 1 {
                        published.reverse();
                    }
                    for published in published {
                        check(published);
                    }
                }
            });
        }
        let mut previous: Option<Arc<Published>> = None;
        for step in 0..=STEPS {
            if step > 0 {
                grow(&mut g, 5);
            }
            let (snapshot, _) = handle.snapshot(&g);
            let fresh = FrozenGraph::build(&g);
            let expected = walk(&fresh);
            let newest = Arc::new(Published {
                step,
                snapshot,
                expected,
            });
            let older = previous.take().filter(|_| step % 2 == 1);
            *current.lock().unwrap() = Some((newest.clone(), older));
            previous = Some(newest);
            released.wait();
            taken.wait();
        }
    });
}
