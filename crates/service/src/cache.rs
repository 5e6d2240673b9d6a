//! The daemon's shared solve cache.
//!
//! A bounded **LRU** memo table behind an `Arc<Mutex<…>>`,
//! implementing [`SolveCache`] so worker threads can hand it straight
//! to [`gridvo_core::Mechanism::run_cached`]. Hits and re-stores
//! refresh an entry's recency, so a standing program's hot solves
//! survive a churn of one-off requests that plain FIFO would let
//! evict them. Hit / miss counters feed the metrics snapshot's cache
//! hit rate.
//!
//! The cache is content-keyed and never invalidated: the key
//! ([`gridvo_core::solve_cache::solve_key`]) is a content hash of the
//! full solver input, so any registry mutation that changes what a
//! solve *means* (costs, times, membership, the free sub-pool of a
//! market formation) changes the key, while mutations the solver never
//! sees (trust reports, receipts, leases) leave every entry valid. The
//! capacity bound exists purely to bound memory.
//! `tests/cache_invalidation.rs` holds the differential guarantee:
//! cached and uncached daemons stay byte-identical across interleaved
//! mutations and formations.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use gridvo_core::solve_cache::{CachedSolve, SolveCache};

#[derive(Debug, Default)]
struct Inner {
    /// Entries with the tick of their last use.
    map: HashMap<u64, (CachedSolve, u64)>,
    /// Recency order: last-use tick → key, least recently used first.
    order: BTreeMap<u64, u64>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Inner {
    /// Stamp `key` (already in `map`) as the most recently used entry.
    fn touch(&mut self, key: u64) {
        self.tick += 1;
        if let Some((_, used)) = self.map.get_mut(&key) {
            self.order.remove(used);
            *used = self.tick;
            self.order.insert(self.tick, key);
        }
    }
}

/// Cache counters for the metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A clonable handle to the shared memo table (clones share storage).
#[derive(Debug, Clone)]
pub struct SharedSolveCache {
    inner: Arc<Mutex<Inner>>,
}

impl SharedSolveCache {
    /// A cache holding at most `capacity` solves (0 disables caching:
    /// every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        SharedSolveCache { inner: Arc::new(Mutex::new(Inner { capacity, ..Inner::default() })) }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheStats { hits: inner.hits, misses: inner.misses, entries: inner.map.len() }
    }
}

impl SolveCache for SharedSolveCache {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        match inner.map.get(&key).map(|(v, _)| v.clone()) {
            Some(v) => {
                inner.hits += 1;
                inner.touch(key);
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if inner.capacity == 0 {
            return;
        }
        if let Some((old, _)) = inner.map.get_mut(&key) {
            *old = value.clone();
        } else {
            inner.map.insert(key, (value.clone(), 0));
        }
        inner.touch(key);
        while inner.map.len() > inner.capacity {
            let Some((_, lru)) = inner.order.pop_first() else { break };
            inner.map.remove(&lru);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(nodes: u64) -> CachedSolve {
        CachedSolve { solved: None, nodes, incumbent_source: None, gap: None }
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = SharedSolveCache::new(8);
        assert!(c.lookup(1).is_none());
        c.store(1, &entry(5));
        assert_eq!(c.lookup(1).unwrap().nodes, 5);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn clones_share_storage() {
        let mut a = SharedSolveCache::new(8);
        let mut b = a.clone();
        a.store(9, &entry(1));
        assert!(b.lookup(9).is_some());
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut c = SharedSolveCache::new(2);
        c.store(1, &entry(1));
        c.store(2, &entry(2));
        c.store(3, &entry(3));
        assert_eq!(c.stats().entries, 2);
        assert!(c.lookup(1).is_none(), "least-recently-used entry evicted first");
        assert!(c.lookup(2).is_some());
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn hits_refresh_recency() {
        let mut c = SharedSolveCache::new(2);
        c.store(1, &entry(1));
        c.store(2, &entry(2));
        assert!(c.lookup(1).is_some(), "touch 1 so 2 becomes the LRU entry");
        c.store(3, &entry(3));
        assert!(c.lookup(2).is_none(), "2 was least recently used");
        assert!(c.lookup(1).is_some(), "the hit kept 1 resident");
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn re_stores_refresh_recency() {
        let mut c = SharedSolveCache::new(2);
        c.store(1, &entry(1));
        c.store(2, &entry(2));
        c.store(1, &entry(10));
        c.store(3, &entry(3));
        assert!(c.lookup(2).is_none(), "2 was least recently used after 1's re-store");
        assert_eq!(c.lookup(1).unwrap().nodes, 10, "re-store replaced the value");
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = SharedSolveCache::new(0);
        c.store(1, &entry(1));
        assert!(c.lookup(1).is_none());
        assert_eq!(c.stats().entries, 0);
    }
}
