//! The debug-build lock-order check.
//!
//! Each thread lists the locks it holds. Taking lock B, blocking, while
//! holding A records the edge A→B in one process-wide order graph; if B
//! already reaches A there, the two orders can deadlock, so the
//! acquisition panics before it blocks. `try_*` acquisitions cannot
//! block, so they are listed as held but record no order. A lock is known
//! by a number drawn at its first acquisition, not by its address, and
//! leaves the graph when it is dropped, so a new lock at a freed lock's
//! address starts with no order.

use std::any::type_name;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A lock's number, 0 until its first acquisition.
#[derive(Default)]
pub(crate) struct LockId(AtomicU64);

/// One acquisition: the lock, its type and the call that took it.
#[derive(Clone, Copy)]
pub(crate) struct Site {
    id: u64,
    ty: &'static str,
    at: &'static Location<'static>,
}

/// A held acquisition; dropping it takes the lock off this thread's list.
pub(crate) struct Held(u64);

thread_local! {
    static HELD: RefCell<Vec<Site>> = const { RefCell::new(Vec::new()) };
}

/// `ORDER[a][b]` holds the two sites that first took `b` while `a` was
/// held.
type Order = BTreeMap<u64, BTreeMap<u64, (Site, Site)>>;
static ORDER: Mutex<Order> = Mutex::new(BTreeMap::new());

fn order() -> std::sync::MutexGuard<'static, Order> {
    ORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

impl LockId {
    pub(crate) const fn new() -> Self {
        LockId(AtomicU64::new(0))
    }

    fn get(&self) -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        match self.0.load(Ordering::Relaxed) {
            0 => {
                let fresh = NEXT.fetch_add(1, Ordering::Relaxed);
                match self
                    .0
                    .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => fresh,
                    Err(first) => first,
                }
            }
            id => id,
        }
    }

    /// A blocking acquisition of this lock, of type `L`, at the caller:
    /// orders it after every lock this thread holds.
    ///
    /// # Panics
    ///
    /// If this lock already precedes one of them, directly or through
    /// other locks.
    #[track_caller]
    pub(crate) fn ordered<L: ?Sized>(&self) -> Site {
        let site = self.unordered::<L>();
        let held = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
        if held.iter().all(|h| h.id == site.id) {
            return site;
        }
        let mut order = order();
        for before in held {
            // Re-reading an RwLock this thread already reads orders
            // nothing, and an edge was checked when it was recorded.
            let recorded = order
                .get(&before.id)
                .is_some_and(|n| n.contains_key(&site.id));
            if before.id == site.id || recorded {
                continue;
            }
            if let Some(cycle) = path(&order, site.id, before.id) {
                drop(order);
                let cycle: Vec<String> = cycle
                    .iter()
                    .map(|(a, b)| format!("{a} was held while {b} was taken"))
                    .collect();
                panic!(
                    "lock-order inversion: {site} while holding {before}, \
                     but earlier {}",
                    cycle.join(", then ")
                );
            }
            order
                .entry(before.id)
                .or_default()
                .insert(site.id, (before, site));
        }
        site
    }

    /// A non-blocking acquisition of this lock, of type `L`, at the
    /// caller: it cannot deadlock, so it records no order.
    #[track_caller]
    pub(crate) fn unordered<L: ?Sized>(&self) -> Site {
        Site {
            id: self.get(),
            ty: type_name::<L>(),
            at: Location::caller(),
        }
    }
}

impl Drop for LockId {
    fn drop(&mut self) {
        let id = *self.0.get_mut();
        if id != 0 {
            let mut order = order();
            order.remove(&id);
            for next in order.values_mut() {
                next.remove(&id);
            }
        }
    }
}

/// The recorded edges of a path from `from` to `to`, if there is one.
fn path(order: &Order, from: u64, to: u64) -> Option<Vec<(Site, Site)>> {
    let mut stack = vec![(from, Vec::new())];
    let mut seen = vec![from];
    while let Some((at, edges)) = stack.pop() {
        for (&next, &edge) in order.get(&at).into_iter().flatten() {
            let mut edges = edges.clone();
            edges.push(edge);
            if next == to {
                return Some(edges);
            }
            if !seen.contains(&next) {
                seen.push(next);
                stack.push((next, edges));
            }
        }
    }
    None
}

impl Site {
    /// Lists the acquisition as held by this thread.
    pub(crate) fn hold(self) -> Held {
        let _ = HELD.try_with(|h| h.borrow_mut().push(self));
        Held(self.id)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            if let Some(i) = h.iter().rposition(|s| s.id == self.0) {
                h.remove(i);
            }
        });
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock #{} ({}) taken at {}", self.id, self.ty, self.at)
    }
}
