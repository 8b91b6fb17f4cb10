//! Named lock wrappers for workspace lock-discipline checking.
//!
//! Every long-lived `Mutex`/`RwLock` in the workspace is constructed
//! through these wrappers with a **lock-class name** — the same name the
//! static registry (`roclock.order` at the workspace root) declares with
//! an order level. `roclock` (in `rocverify`) checks the declared order
//! statically; this module supplies the *dynamic witness* that validates
//! the static analysis against reality.
//!
//! With the `lockdep` feature **off** (the default) the wrappers are
//! transparent: one `&'static str` per lock object and zero per-acquire
//! work beyond the underlying `parking_lot` call.
//!
//! With `lockdep` **on**, each acquisition consults a thread-local stack
//! of currently-held lock names and records every (held → acquired)
//! pair into a process-global edge set. The first time an edge is seen
//! it is appended as a `from\tto` line to the file named by the
//! `ROCLOCK_WITNESS` environment variable (append-mode, so concurrent
//! test processes share one file; give an absolute path, since cargo runs
//! each test binary in its own package's directory). After a
//! witness-enabled test run, `roclock --witness <file>` fails if any
//! observed edge is missing from — or inverts — the declared static lock
//! graph, or if a declared edge was never observed.
//!
//! Witness notes:
//!
//! * A same-name edge (`a → a`) is recorded too: two locks of one
//!   declared class held at once is itself an ordering violation the
//!   static graph can never sanction.
//! * `Condvar::wait` releases and reacquires the mutex internally but
//!   does not re-record it: the held-stack position is unchanged and
//!   the edges of interest were recorded at first acquisition.

use std::ops::{Deref, DerefMut};

#[cfg(feature = "lockdep")]
mod witness {
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    static EDGES: parking_lot::Mutex<BTreeSet<(&'static str, &'static str)>> =
        parking_lot::Mutex::new(BTreeSet::new());

    thread_local! {
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Records against the held stack where it lies: an acquisition
    /// allocates nothing once its thread's stack has grown, so a witness
    /// run makes the allocator calls a plain run makes (the copy budget
    /// counts them under both).
    pub(super) fn acquire(name: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if !held.is_empty() {
                record_edges(&held, name);
            }
            held.push(name);
        });
    }

    pub(super) fn release(name: &'static str) {
        HELD.with(|h| {
            let mut v = h.borrow_mut();
            if let Some(pos) = v.iter().rposition(|n| *n == name) {
                v.remove(pos);
            }
        });
    }

    fn record_edges(held: &[&'static str], new: &'static str) {
        let mut edges = EDGES.lock();
        let fresh: Vec<&'static str> = held
            .iter()
            .copied()
            .filter(|h| edges.insert((*h, new)))
            .collect();
        if fresh.is_empty() {
            return;
        }
        let Ok(path) = std::env::var("ROCLOCK_WITNESS") else {
            return;
        };
        // A witness that loses edges would pass `roclock --witness` on
        // what it never saw: stop the run instead.
        if let Err(e) = super::append_edges(&path, &fresh, new) {
            #[expect(
                clippy::panic,
                reason = "a witness run that cannot record its edges must not pass as one that \
                          recorded none"
            )]
            {
                panic!("lockdep: cannot append to the witness file {path}: {e}");
            }
        }
    }
}

/// Append one `held\tnew` line per edge to the witness file at `path`.
/// One short line per edge; O_APPEND keeps lines whole even when several
/// test binaries write concurrently.
#[cfg(any(test, feature = "lockdep"))]
fn append_edges(path: &str, held: &[&str], new: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for h in held {
        writeln!(f, "{h}\t{new}")?;
    }
    Ok(())
}

/// A named [`parking_lot::Mutex`]. See the module docs for the witness
/// protocol behind the name.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

/// Guard for [`Mutex`]; releases the witness hold record on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockdep")]
    name: &'static str,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(name: &'static str, value: T) -> Self {
        Mutex {
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// The declared lock-class name (matches `roclock.order`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.inner.lock();
        #[cfg(feature = "lockdep")]
        witness::acquire(self.name);
        MutexGuard {
            #[cfg(feature = "lockdep")]
            name: self.name,
            inner,
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        #[cfg(feature = "lockdep")]
        witness::acquire(self.name);
        Some(MutexGuard {
            #[cfg(feature = "lockdep")]
            name: self.name,
            inner,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
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

#[cfg(feature = "lockdep")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.name);
    }
}

/// Condition variable for the named [`Mutex`]; delegates to the
/// underlying `parking_lot` condvar, reacquiring the guard in place.
#[derive(Debug, Default)]
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(parking_lot::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.0.wait(&mut guard.inner);
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A named [`parking_lot::RwLock`]. Read and write acquisitions record
/// the same lock-class name — the witness tracks ordering, not sharing.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    name: &'static str,
    inner: parking_lot::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockdep")]
    name: &'static str,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockdep")]
    name: &'static str,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(name: &'static str, value: T) -> Self {
        RwLock {
            name,
            inner: parking_lot::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// The declared lock-class name (matches `roclock.order`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = self.inner.read();
        #[cfg(feature = "lockdep")]
        witness::acquire(self.name);
        RwLockReadGuard {
            #[cfg(feature = "lockdep")]
            name: self.name,
            inner,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = self.inner.write();
        #[cfg(feature = "lockdep")]
        witness::acquire(self.name);
        RwLockWriteGuard {
            #[cfg(feature = "lockdep")]
            name: self.name,
            inner,
        }
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

#[cfg(feature = "lockdep")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.name);
    }
}

#[cfg(feature = "lockdep")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.name);
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a condvar round trip needs a second thread"
)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_round_trip() {
        let pair = Arc::new((Mutex::new("test.pair", 0usize), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = 42;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while *g != 42 {
            cv.wait(&mut g);
        }
        assert_eq!(*g, 42);
        drop(g);
        h.join().unwrap();
        assert_eq!(m.name(), "test.pair");
    }

    #[test]
    fn try_lock_and_rwlock() {
        let m = Mutex::new("test.m", 7u8);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().unwrap(), 7);

        let rw = RwLock::new("test.rw", vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(rw.read().len(), 3);
        assert_eq!(rw.name(), "test.rw");
    }

    #[test]
    fn a_witness_file_that_cannot_be_opened_is_an_error() {
        let dir = std::env::temp_dir().join(format!("lockdep-witness-{}", std::process::id()));
        let missing = dir.join("no-such-dir").join("witness.tsv");
        let err = append_edges(&missing.to_string_lossy(), &["a"], "b")
            .expect_err("a file under a missing directory cannot be opened");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("witness.tsv");
        append_edges(&file.to_string_lossy(), &["a", "c"], "b").unwrap();
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "a\tb\nc\tb\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
