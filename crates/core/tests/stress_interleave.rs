//! Deterministic-interleaving stress test for the capture queue: several
//! producer threads drive seeded schedules of valid and deliberately
//! invalid events — sent one by one or in `submit_all` chunks, with
//! flushes and yield-injection to perturb the interleaving — while
//! reader threads traverse the graph. After a flush the totals (visits,
//! rejections, queue depth) must be exact and each producer's events
//! applied in the order it sent them, for every seed.

use bp_core::{
    BrowserEvent, CaptureConfig, CapturePipeline, NavigationCause, ProvenanceBrowser, TabId,
};
use bp_graph::{EdgeKind, NodeKind, Timestamp};
use std::path::PathBuf;

const PRODUCERS: u32 = 4;
const NAVS_PER_PRODUCER: i64 = 200;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bp-stress-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A splitmix-style PRNG: deterministic per seed, no global state, so a
/// failing schedule is reproducible from its seed alone.
struct Schedule(u64);

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Yields at seed-determined points to perturb the interleaving.
    fn maybe_yield(&mut self) {
        if self.next().is_multiple_of(8) {
            std::thread::yield_now();
        }
    }
}

/// Sends one producer's events in order, each either on its own with
/// `submit` or held for a `submit_all` chunk of seed-determined length,
/// with a `flush` now and then.
struct Producer<'a> {
    pipeline: &'a CapturePipeline,
    schedule: Schedule,
    chunk: Vec<BrowserEvent>,
}

impl Producer<'_> {
    fn send(&mut self, event: BrowserEvent) {
        // Once a chunk is open every event joins it until it is sent, so
        // the producer's order survives the mix.
        if !self.chunk.is_empty() || self.schedule.next().is_multiple_of(3) {
            self.chunk.push(event);
            if self.schedule.next().is_multiple_of(6) {
                self.send_chunk();
            }
        } else {
            assert!(self.pipeline.submit(event));
        }
        if self.schedule.next().is_multiple_of(64) {
            self.send_chunk();
            self.pipeline.flush();
        }
        self.schedule.maybe_yield();
    }

    fn send_chunk(&mut self) {
        let chunk = std::mem::take(&mut self.chunk);
        let len = chunk.len();
        assert_eq!(self.pipeline.submit_all(chunk), len);
    }
}

#[test]
fn capture_totals_are_exact_under_seeded_interleavings() {
    for seed in [3u64, 11, 29] {
        let dir = TempDir::new(&format!("interleave-{seed}"));
        let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        let pipeline = CapturePipeline::start(browser);
        let shared = pipeline.shared();

        let mut expected_rejected = 0u64;
        std::thread::scope(|scope| {
            let mut producers = Vec::new();
            for p in 0..PRODUCERS {
                let pipeline = &pipeline;
                producers.push(scope.spawn(move || {
                    let mut producer = Producer {
                        pipeline,
                        schedule: Schedule::new(seed * 97 + u64::from(p)),
                        chunk: Vec::new(),
                    };
                    // Disjoint timestamp ranges per producer: the graph's
                    // invariants are node-id based, but disjoint ranges keep
                    // per-URL visit timelines sensible for the final checks.
                    let base = i64::from(p) * 1_000_000;
                    producer.send(BrowserEvent::tab_opened(
                        Timestamp::from_secs(base),
                        TabId(p),
                        None,
                    ));
                    let mut rejected = 0u64;
                    for i in 0..NAVS_PER_PRODUCER {
                        // Seed-determined fault injection: a navigation in a
                        // tab nobody opened must be counted, not applied —
                        // and must not disturb the valid stream around it.
                        if producer.schedule.next().is_multiple_of(16) {
                            producer.send(BrowserEvent::navigate(
                                Timestamp::from_secs(base + i),
                                TabId(100 + p),
                                format!("http://bad-{p}/"),
                                None,
                                NavigationCause::Link,
                            ));
                            rejected += 1;
                        }
                        producer.send(BrowserEvent::navigate(
                            Timestamp::from_secs(base + 1 + i),
                            TabId(p),
                            format!("http://p{p}/page{i}"),
                            None,
                            NavigationCause::Link,
                        ));
                    }
                    producer.send_chunk();
                    rejected
                }));
            }
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    let handle = shared.clone();
                    scope.spawn(move || {
                        let mut schedule = Schedule::new(seed * 131 + r);
                        for _ in 0..300 {
                            let guard = handle.read();
                            assert!(guard.graph().verify_acyclic());
                            drop(guard);
                            schedule.maybe_yield();
                        }
                    })
                })
                .collect();
            for producer in producers {
                expected_rejected += producer.join().unwrap();
            }
            for reader in readers {
                reader.join().unwrap();
            }
        });

        pipeline.flush();
        assert_eq!(pipeline.rejected_events(), expected_rejected, "seed {seed}");
        assert!(pipeline.failure().is_none(), "seed {seed}");
        {
            let guard = shared.read();
            // Every enqueue was matched by a drain: the depth gauge must
            // land on exactly zero, not "roughly zero".
            assert_eq!(guard.obs().gauge("capture.queue_depth").get(), 0);
            assert_eq!(
                guard
                    .graph()
                    .nodes_of_kind(bp_graph::NodeKind::PageVisit)
                    .count(),
                (PRODUCERS as usize) * (NAVS_PER_PRODUCER as usize),
                "seed {seed}"
            );
            assert!(guard.graph().verify_acyclic());
            // Per-producer order: each page is a later node than the one
            // before it in its tab, and links back to it.
            let g = guard.graph();
            for p in 0..PRODUCERS {
                let visit = |i: i64| {
                    g.latest_version_of(NodeKind::PageVisit, &format!("http://p{p}/page{i}"))
                        .expect("every valid navigation applied")
                        .0
                };
                for i in 1..NAVS_PER_PRODUCER {
                    let (prev, next) = (visit(i - 1), visit(i));
                    assert!(
                        prev < next,
                        "seed {seed}: page{i} of p{p} applied out of order"
                    );
                    assert!(
                        g.parents(next).any(|(e, parent)| parent == prev
                            && g.edge(e).unwrap().kind() == EdgeKind::Link),
                        "seed {seed}: page{i} of p{p} does not link back to page{}",
                        i - 1
                    );
                }
            }
        }
        drop(shared);

        let browser = pipeline.shutdown();
        for p in 0..PRODUCERS {
            assert_eq!(browser.visit_count(&format!("http://p{p}/page0")), 1);
            assert_eq!(
                browser.visit_count(&format!("http://bad-{p}/")),
                0,
                "rejected events must leave no trace"
            );
        }
    }
}
