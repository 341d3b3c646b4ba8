//! Offline drop-in shim for the `parking_lot` API surface this workspace
//! uses, backed by `std::sync`. The build environment has no access to a
//! crates registry, so the real crate cannot be fetched; this shim keeps
//! call sites source-compatible (`lock()`/`read()`/`write()` return guards
//! directly, no `Result`). Poisoning is deliberately transparent: a
//! panicked writer does not wedge every later lock acquisition, matching
//! parking_lot's behaviour.
//!
//! Debug builds also check lock order: an acquisition that would close a
//! cycle in the order the process has taken its locks in panics and names
//! both locks, so a test that takes two locks in both orders fails even
//! when its threads never interleave into the deadlock. Release builds
//! compile the check out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(debug_assertions)]
mod order;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};

/// A mutual-exclusion lock with parking_lot's panic-free API.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: order::LockId,
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            id: order::LockId::new(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let site = self.id.ordered::<Self>();
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: site.hold(),
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = untried(self.inner.try_lock())?;
        Some(MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: self.id.unordered::<Self>().hold(),
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock with parking_lot's panic-free API.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: order::LockId,
    inner: sync::RwLock<T>,
}

/// Shared-access guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

/// Exclusive-access guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            id: order::LockId::new(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access; many readers may hold it concurrently.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let site = self.id.ordered::<Self>();
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: site.hold(),
        }
    }

    /// Acquires exclusive access.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let site = self.id.ordered::<Self>();
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: site.hold(),
        }
    }

    /// Attempts shared access without blocking.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = untried(self.inner.try_read())?;
        Some(RwLockReadGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: self.id.unordered::<Self>().hold(),
        })
    }

    /// Attempts exclusive access without blocking.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = untried(self.inner.try_write())?;
        Some(RwLockWriteGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: self.id.unordered::<Self>().hold(),
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The guard of a `try_*` acquisition that succeeded, poisoned or not.
fn untried<G>(attempt: sync::TryLockResult<G>) -> Option<G> {
    match attempt {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a, *b);
        }
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn poisoned_lock_stays_usable() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn try_variants() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
        let l = RwLock::new(0);
        let r = l.read();
        assert!(l.try_write().is_none());
        assert!(l.try_read().is_some());
        drop(r);
        assert!(l.try_write().is_some());
    }

    /// Runs `f`, which must panic, and returns its panic message.
    #[cfg(debug_assertions)]
    fn inversion(f: impl FnOnce()) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the inversion must panic");
        panic.downcast::<String>().map(|s| *s).unwrap_or_default()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn two_locks_taken_in_both_orders_panic() {
        let a = Mutex::new(1u8);
        let b = RwLock::new(2u16);
        {
            let _a = a.lock();
            let _b = b.write();
        }
        let message = inversion(|| {
            let _b = b.read();
            let _a = a.lock();
        });
        assert!(message.starts_with("lock-order inversion"), "{message}");
        assert!(message.contains("Mutex<u8>"), "{message}");
        assert!(message.contains("RwLock<u16>"), "{message}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_three_lock_cycle_panics() {
        let (a, b, c) = (Mutex::new(()), Mutex::new(()), Mutex::new(()));
        {
            let _a = a.lock();
            let _b = b.lock();
        }
        {
            let _b = b.lock();
            let _c = c.lock();
        }
        let message = inversion(|| {
            let _c = c.lock();
            let _a = a.lock();
        });
        // The earlier order runs a → b → c: two recorded edges.
        assert_eq!(message.matches("was held while").count(), 2, "{message}");
    }

    #[test]
    fn a_consistent_order_does_not_panic() {
        let (a, b, c) = (Mutex::new(()), RwLock::new(()), Mutex::new(()));
        for _ in 0..2 {
            let _a = a.lock();
            let _b = b.read();
            let _c = c.lock();
        }
        {
            let _a = a.lock();
            let _c = c.lock();
        }
        // A try_lock cannot block, so it records no order against b.
        {
            let _b = b.write();
            let _a = a.try_lock();
        }
        let _a = a.lock();
        let _b = b.write();
    }

    #[test]
    fn a_repeated_read_does_not_panic() {
        let outer = Mutex::new(());
        let l = RwLock::new(1);
        let _outer = outer.lock();
        let first = l.read();
        let second = l.read();
        assert_eq!(*first + *second, 2);
    }
}
