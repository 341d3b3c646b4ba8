//! The store's heap cost per node, counted exactly.
//!
//! A counting global allocator wraps `System` and tracks the bytes and
//! blocks currently allocated. The workload is seeded by nothing but its
//! loop counters, so the counts repeat to the byte from run to run. This
//! file holds this one test, so no other test thread allocates while it
//! counts.
//!
//! Workload: 10,000 visits over 500 URLs on 50 hosts, each with a title
//! and a `Link` edge to the previous visit. Every URL is visited 20 times,
//! so per-key costs (interned string, key-table entry) are spread over 20
//! nodes and per-node costs (node, attributes, edges) dominate.

use bp_graph::{AttrValue, EdgeKind, Timestamp};
use bp_storage::{ProvenanceStore, SyncPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, counting the bytes and blocks it currently holds.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates two counters beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (usize, usize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

const VISITS: usize = 10_000;
const URLS: usize = 500;
const HOSTS: usize = 50;

/// Heap bytes and blocks per node stay under bounds set between the
/// store's counts while each node kept an out-edge and an in-edge list
/// (529.8 B and 4.10 blocks per node) and since its out-edges became a run
/// of the edge arena and its in-edges the CSR's reverse rows (425.7 B and
/// 2.10 blocks). Keys, attribute names and attribute maps stored once had
/// earlier brought the count down from 1,185.2 B and 6.25 blocks.
#[test]
fn heap_per_node_stays_under_its_bounds() {
    const MAX_BYTES_PER_NODE: f64 = 480.0;
    const MAX_BLOCKS_PER_NODE: f64 = 3.0;

    let dir = std::env::temp_dir().join(format!("bp-bytes-per-node-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ProvenanceStore::open(&dir, SyncPolicy::OsManaged).unwrap();
    let urls: Vec<String> = (0..URLS)
        .map(|u| format!("http://host{}.example/page/{u}", u % HOSTS))
        .collect();
    let titles: Vec<String> = (0..URLS).map(|u| format!("Page {u} title")).collect();

    let (bytes_before, blocks_before) = live();
    let mut prev = None;
    for i in 0..VISITS {
        let u = i * 7 % URLS;
        let at = Timestamp::from_secs(i as i64);
        let title = AttrValue::from(titles[u].as_str());
        let visit = store
            .add_visit_with_attrs(&urls[u], at, &[("title", title)])
            .unwrap();
        if let Some(prev) = prev {
            store.add_edge(visit, prev, EdgeKind::Link, at).unwrap();
        }
        prev = Some(visit);
    }
    let (bytes_after, blocks_after) = live();

    let nodes = store.graph().node_count();
    assert_eq!(nodes, VISITS);
    let bytes_per_node = (bytes_after - bytes_before) as f64 / nodes as f64;
    let blocks_per_node = (blocks_after - blocks_before) as f64 / nodes as f64;
    println!("heap per node: {bytes_per_node:.1} B in {blocks_per_node:.2} blocks");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        bytes_per_node < MAX_BYTES_PER_NODE,
        "{bytes_per_node:.1} B per node, bound {MAX_BYTES_PER_NODE}"
    );
    assert!(
        blocks_per_node < MAX_BLOCKS_PER_NODE,
        "{blocks_per_node:.2} blocks per node, bound {MAX_BLOCKS_PER_NODE}"
    );
}
