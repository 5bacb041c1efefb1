//! A keyed single-flight table with a strict-LRU capacity bound.
//!
//! Every reuse mechanism of the workspace is this table: the
//! [`ArtifactStore`](crate::ArtifactStore)'s graph and prepared-OAG tables
//! (shared by the figure harness and the daemon), the harness's report
//! memo, and the daemon's request-key dedup. Each entry is an `Arc<E>`
//! created by the first caller of a key; for `E = OnceLock<V>`,
//! [`Memo::get_or_init`] runs the initializer once per key and blocks every
//! concurrent caller of that key on the winner, so a key raced by several
//! threads is still computed exactly once.
//!
//! **Eviction criterion: least recently used.** Every lookup stamps its
//! entry with a fresh tick of a table clock; inserting past the capacity
//! removes the entry with the oldest stamp. Evicting an entry whose value
//! is still being computed is safe: the callers already holding its `Arc`
//! keep it alive and get the value; later callers just no longer find it.
//!
//! **Panics are not memoized.** `OnceLock::get_or_init` leaves the cell
//! empty when its initializer panics, so the next caller of the key runs
//! the initializer again.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// How a lookup was satisfied, decided when the key was looked up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fetch {
    /// The entry existed and its value was ready.
    Hit,
    /// The entry existed but its value was still being computed; this
    /// caller waited for it.
    Coalesced,
    /// This caller created the entry (and computes its value).
    Miss,
}

/// Lookup and eviction counts of one [`Memo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Lookups that found a ready value.
    pub hits: u64,
    /// Lookups that found an entry still being computed.
    pub coalesced: u64,
    /// Lookups that created their entry.
    pub misses: u64,
    /// Entries removed by capacity pressure.
    pub evictions: u64,
}

/// A keyed single-flight table holding at most `capacity` entries.
pub struct Memo<K, E> {
    capacity: usize,
    table: Mutex<Table<K, E>>,
}

struct Table<K, E> {
    /// Ticks once per lookup; an entry's stamp is the tick of its last use.
    clock: u64,
    entries: HashMap<K, (u64, Arc<E>)>,
    counters: MemoCounters,
}

impl<K: Hash + Eq + Clone, E> Memo<K, E> {
    /// A table holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Memo {
            capacity: capacity.max(1),
            table: Mutex::new(Table {
                clock: 0,
                entries: HashMap::new(),
                counters: MemoCounters::default(),
            }),
        }
    }

    /// A table that never evicts.
    pub fn unbounded() -> Self {
        Memo::new(usize::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table<K, E>> {
        // Recover from poisoning rather than propagating it: every update
        // under the lock is one map insert or remove plus counter bumps, so
        // a panic unwinding through a past holder leaves the table valid.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry of `key`, marked most recently used, and how it was found.
    /// A miss inserts `make()`, evicting the least recently used entry if
    /// the table is then over capacity. `ready` tells a [`Fetch::Hit`]
    /// from a [`Fetch::Coalesced`] for an existing entry.
    pub fn entry(
        &self,
        key: K,
        make: impl FnOnce() -> E,
        ready: impl FnOnce(&E) -> bool,
    ) -> (Arc<E>, Fetch) {
        let mut table = self.lock();
        table.clock += 1;
        let now = table.clock;
        if let Some((stamp, entry)) = table.entries.get_mut(&key) {
            *stamp = now;
            let entry = entry.clone();
            let fetch = if ready(&entry) {
                table.counters.hits += 1;
                Fetch::Hit
            } else {
                table.counters.coalesced += 1;
                Fetch::Coalesced
            };
            return (entry, fetch);
        }
        let entry = Arc::new(make());
        table.entries.insert(key, (now, entry.clone()));
        table.counters.misses += 1;
        if table.entries.len() > self.capacity {
            // invariant: the table is over capacity, so it is non-empty.
            let lru = table
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("an over-capacity table has entries");
            table.entries.remove(&lru);
            table.counters.evictions += 1;
        }
        (entry, Fetch::Miss)
    }

    /// Removes `key`, so its next lookup is a miss. Callers already holding
    /// the entry keep it.
    pub fn forget(&self, key: &K) {
        self.lock().entries.remove(key);
    }

    /// The number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup and eviction counts so far.
    pub fn counters(&self) -> MemoCounters {
        self.lock().counters
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, OnceLock<V>> {
    /// The value of `key`, computing it with `init` if no caller has yet.
    /// Concurrent callers of one key share a single `init` run.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> (V, Fetch) {
        let (cell, fetch) = self.entry(key, OnceLock::new, |cell| cell.get().is_some());
        (cell.get_or_init(init).clone(), fetch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    #[test]
    fn evicts_least_recently_used() {
        let m: Memo<u32, OnceLock<&str>> = Memo::new(2);
        assert_eq!(m.get_or_init(1, || "a"), ("a", Fetch::Miss));
        assert_eq!(m.get_or_init(2, || "b"), ("b", Fetch::Miss));
        assert_eq!(m.get_or_init(1, || "x"), ("a", Fetch::Hit)); // 2 is now LRU
        assert_eq!(m.get_or_init(3, || "c"), ("c", Fetch::Miss)); // evicts 2
        assert_eq!(m.counters().evictions, 1);
        assert_eq!(m.get_or_init(1, || "x"), ("a", Fetch::Hit));
        assert_eq!(m.get_or_init(3, || "x"), ("c", Fetch::Hit));
        assert_eq!(m.get_or_init(2, || "b2"), ("b2", Fetch::Miss));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn forget_makes_the_next_lookup_a_miss() {
        let m: Memo<u32, OnceLock<u32>> = Memo::unbounded();
        m.get_or_init(7, || 1);
        m.forget(&7);
        assert!(m.is_empty());
        assert_eq!(m.get_or_init(7, || 2), (2, Fetch::Miss));
    }

    #[test]
    fn panicking_initializer_leaves_the_key_retryable() {
        let m: Memo<u32, OnceLock<u32>> = Memo::unbounded();
        let first = catch_unwind(AssertUnwindSafe(|| m.get_or_init(1, || panic!("boom"))));
        assert!(first.is_err());
        assert_eq!(m.get_or_init(1, || 5).0, 5, "the retry runs its own initializer");
        assert_eq!(m.get_or_init(1, || 6), (5, Fetch::Hit));
    }

    #[test]
    fn concurrent_callers_share_one_initializer() {
        let m: Memo<u32, OnceLock<Arc<u64>>> = Memo::unbounded();
        let runs = std::sync::atomic::AtomicU32::new(0);
        let results: Vec<(Arc<u64>, Fetch)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        m.get_or_init(1, || {
                            runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            Arc::new(42)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.into_inner(), 1);
        assert_eq!(results.iter().filter(|(_, f)| *f == Fetch::Miss).count(), 1);
        assert!(results.iter().all(|(v, _)| Arc::ptr_eq(v, &results[0].0)));
    }

    #[test]
    fn evicting_an_in_flight_entry_keeps_it_alive_for_its_waiters() {
        let m: Memo<u32, OnceLock<u32>> = Memo::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let memo = &m;
        std::thread::scope(|s| {
            let owner = s.spawn(move || {
                memo.get_or_init(1, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    10
                })
            });
            started_rx.recv().unwrap();
            let (entry, fetch) = m.entry(1, OnceLock::new, |c| c.get().is_some());
            assert_eq!(fetch, Fetch::Coalesced);
            assert_eq!(m.get_or_init(2, || 20), (20, Fetch::Miss)); // evicts key 1
            release_tx.send(()).unwrap();
            assert_eq!(owner.join().unwrap(), (10, Fetch::Miss));
            assert_eq!(entry.wait(), &10, "the evicted entry still delivers its value");
        });
        assert_eq!(m.get_or_init(1, || 11), (11, Fetch::Miss));
    }
}
