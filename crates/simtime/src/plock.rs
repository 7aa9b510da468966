//! Thin, dependency-free locking primitives over `std::sync`.
//!
//! The workspace originally used `parking_lot`, whose `lock()` returns the
//! guard directly and whose `Condvar::wait` re-acquires through a `&mut`
//! guard. These wrappers keep that ergonomic surface on top of
//! `std::sync`, so the whole tree builds with zero external crates.
//! Poisoning is deliberately swallowed (`into_inner`): the virtual clock
//! has its own poison protocol ([`crate::SimClock::is_poisoned`]) and a
//! secondary panic from a poisoned std lock would only obscure the
//! original failure.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Mutual exclusion with a `parking_lot`-style `lock()` (no `Result`).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, returning the guard directly. A lock poisoned by
    /// a panicking holder is recovered, not propagated.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            lock: &self.inner,
        }
    }

    /// Try to acquire the lock without blocking; `None` if held elsewhere.
    /// A lock poisoned by a panicking holder is recovered, as in
    /// [`Mutex::lock`].
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                inner: Some(g),
                lock: &self.inner,
            }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
                lock: &self.inner,
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Guard returned by [`Mutex::lock`].
///
/// Holds the std guard in an `Option` so [`Condvar::wait`] can move it out
/// and back while the caller keeps a `&mut` borrow — mirroring
/// `parking_lot`'s wait-through-reference API.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    lock: &'a std::sync::Mutex<T>,
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Release the lock for the duration of `f`, then re-acquire it
    /// through the same guard (the caller keeps its `&mut` borrow).
    pub fn unlocked<R>(&mut self, f: impl FnOnce() -> R) -> R {
        drop(self.inner.take());
        let r = f();
        self.inner = Some(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        r
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// Condition variable whose `wait` takes the guard by `&mut`, like
/// `parking_lot`.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guarded lock and block until notified; the
    /// lock is re-acquired (through the same guard) before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present before wait");
        guard.inner = Some(self.inner.wait(inner).unwrap_or_else(|e| e.into_inner()));
    }

    /// Wake every thread blocked in [`Condvar::wait`].
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wake one thread blocked in [`Condvar::wait`].
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_guards_mutation() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn condvar_wait_through_reference() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().expect("worker thread panicked");
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "value survives a panicking holder");
    }
}
