//! Ad-hoc phase timing for the ingest path (developer tool).

use bp_bench::fixtures;
use bp_core::{CaptureConfig, CaptureEngine};
use bp_storage::{ProvenanceStore, SyncPolicy};

fn main() {
    let days: u32 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let history = fixtures::history(days);
    println!(
        "generate {} events: {:?}",
        history.events.len(),
        t0.elapsed()
    );

    // Phase 1: capture engine only (graph + storage, no text index).
    let profile = fixtures::TempProfile::new("profile-engine");
    let store = ProvenanceStore::open(profile.path(), SyncPolicy::OsManaged).unwrap();
    let mut engine = CaptureEngine::new(store, CaptureConfig::default());
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for event in &history.events {
        engine.handle(event).unwrap();
    }
    println!("capture engine only: {:?}", t0.elapsed());
    let store = engine.into_store();
    println!(
        "  nodes={} edges={}",
        store.graph().node_count(),
        store.graph().edge_count()
    );
    drop(store);

    // Phase 2: full browser (adds text indexing).
    let profile2 = fixtures::TempProfile::new("profile-browser");
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let mut browser =
        bp_core::ProvenanceBrowser::open(profile2.path(), CaptureConfig::default()).unwrap();
    browser.ingest_all(&history.events).unwrap();
    println!("full browser ingest: {:?}", t0.elapsed());

    // Phase 3: recovery replay.
    drop(browser);
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let _b = bp_core::ProvenanceBrowser::open(profile2.path(), CaptureConfig::default()).unwrap();
    println!("recovery replay: {:?}", t0.elapsed());
    component_timing(days);
    find_nonmonotone(days);
    edge_mix(days);
    store_op_costs();
    durable_baseline();
}

/// Per-event ingest under `SyncPolicy::Always` — the durability class
/// group commit replaces (one fsync per event). Small sample; fsync
/// dominates so a few hundred events give a stable per-event cost.
fn durable_baseline() {
    let history = fixtures::history(2);
    let sample = &history.events[..history.events.len().min(200)];
    let profile = fixtures::TempProfile::new("profile-durable");
    let store = ProvenanceStore::open(profile.path(), SyncPolicy::Always).unwrap();
    let mut engine = CaptureEngine::new(store, CaptureConfig::default());
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for event in sample {
        engine.handle(event).unwrap();
    }
    let wall = t0.elapsed();
    println!(
        "durable (Always) x{}: {:?} ({:?}/event, {:.0} events/sec)",
        sample.len(),
        wall,
        wall / u32::try_from(sample.len()).unwrap(),
        sample.len() as f64 / wall.as_secs_f64()
    );
}

/// Microbenchmark of the individual store mutations the capture engine
/// issues per event, to see where the per-event microseconds go.
fn store_op_costs() {
    use bp_graph::{EdgeKind, NodeKind, Timestamp};
    let profile = fixtures::TempProfile::new("profile-ops");
    let mut store = ProvenanceStore::open(profile.path(), SyncPolicy::OsManaged).unwrap();
    const N: usize = 10_000;
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let mut visits = Vec::with_capacity(N);
    for i in 0..N {
        visits.push(
            store
                .add_visit(
                    &format!("http://host{}/page/{i}", i % 97),
                    Timestamp::from_secs(i as i64),
                )
                .unwrap(),
        );
    }
    println!(
        "add_visit x{N}: {:?} ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for i in 1..N {
        store
            .add_edge(
                visits[i],
                visits[i - 1],
                EdgeKind::Link,
                Timestamp::from_secs(i as i64),
            )
            .unwrap();
    }
    println!(
        "add_edge x{N}: {:?} ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for (i, &v) in visits.iter().enumerate() {
        store.set_node_attr(v, "title", "A Title").unwrap();
        let _ = i;
    }
    println!(
        "set_node_attr x{N}: {:?} ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for (i, &v) in visits.iter().enumerate() {
        store
            .close_node(v, Timestamp::from_secs((N + i) as i64))
            .unwrap();
    }
    println!(
        "close_node x{N}: {:?} ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let mut hits = 0usize;
    for i in 0..N {
        if store
            .graph()
            .latest_version_of(
                NodeKind::PageVisit,
                &format!("http://host{}/page/{i}", i % 97),
            )
            .is_some()
        {
            hits += 1;
        }
    }
    println!(
        "latest_version_of x{N}: {:?} ({:?}/op, {hits} hits)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );

    // Decompose add_node: interner, graph insert (with its key table),
    // time index.
    let urls: Vec<String> = (0..N)
        .map(|i| format!("http://host{}/fresh/{i}", i % 97))
        .collect();
    let interner = bp_storage::ShardedInterner::new();
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for u in &urls {
        interner.intern(u);
    }
    println!(
        "intern fresh x{N}: {:?} ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let mut total = 0usize;
    for i in 0..N as u32 {
        total += interner.resolve(i).map_or(0, |s| s.len());
    }
    println!(
        "resolve x{N}: {:?} ({:?}/op, {total} bytes)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
    let mut g = bp_graph::ProvenanceGraph::new();
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let mut ids = Vec::with_capacity(N);
    for (i, u) in urls.iter().enumerate() {
        ids.push(g.add_node(bp_graph::Node::new(
            NodeKind::PageVisit,
            u.as_str(),
            Timestamp::from_secs(i as i64),
        )));
    }
    println!(
        "graph add_node x{N}: {:?} ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
    let mut times = bp_storage::TimeIndex::new();
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for (i, &id) in ids.iter().enumerate() {
        times.insert(
            id,
            bp_graph::TimeInterval::open_at(Timestamp::from_secs(i as i64)),
        );
    }
    println!(
        "time index insert x{N}: {:?} ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / N as u32
    );
}

#[allow(dead_code)]
fn component_timing(days: u32) {
    let history = fixtures::history(days);
    let profile = fixtures::TempProfile::new("profile-components");
    let mut browser =
        bp_core::ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
    browser.ingest_all(&history.events).unwrap();
    let g = browser.graph();
    println!("monotone: {}", g.is_monotone());

    // Graph rebuild.
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let mut g2 = bp_graph::ProvenanceGraph::new();
    for (_, n) in g.nodes() {
        g2.add_node(n.clone());
    }
    for (_, e) in g.edges() {
        g2.add_edge(e.src(), e.dst(), e.kind(), e.at()).unwrap();
    }
    println!("graph rebuild: {:?}", t0.elapsed());

    // TimeIndex rebuild.
    let t0 = bp_obs::clock::ClockHandle::real().start();
    let mut times = bp_storage::TimeIndex::new();
    for (id, n) in g.nodes() {
        times.insert(id, *n.interval());
    }
    println!("time index rebuild: {:?}", t0.elapsed());

    // Close replay against the time index (the capture path closes most
    // nodes once).
    let t0 = bp_obs::clock::ClockHandle::real().start();
    for (id, n) in g.nodes() {
        if let Some(c) = n.interval().close() {
            times.close(id, c);
        }
    }
    println!("time index closes: {:?}", t0.elapsed());
}

#[allow(dead_code)]
fn find_nonmonotone(days: u32) {
    let history = fixtures::history(days.min(5));
    let profile = fixtures::TempProfile::new("profile-nonmono");
    let mut browser =
        bp_core::ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
    browser.ingest_all(&history.events).unwrap();
    let g = browser.graph();
    for (_, e) in g.edges() {
        if e.src() < e.dst() {
            let src = g.node(e.src()).unwrap();
            let dst = g.node(e.dst()).unwrap();
            println!(
                "LOW->HIGH {} : {} {} -> {} {}",
                e.kind(),
                e.src(),
                src.key(),
                e.dst(),
                dst.key()
            );
        }
    }
}

#[allow(dead_code)]
fn edge_mix(days: u32) {
    let history = fixtures::history(days);
    let profile = fixtures::TempProfile::new("profile-mix");
    let mut browser =
        bp_core::ProvenanceBrowser::open(profile.path(), CaptureConfig::default()).unwrap();
    browser.ingest_all(&history.events).unwrap();
    let s = bp_graph::stats::stats(browser.graph());
    for (kind, count) in &s.edges_by_kind {
        println!("edge {kind}: {count}");
    }
}
