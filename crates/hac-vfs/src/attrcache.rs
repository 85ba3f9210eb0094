//! Shared attribute cache.
//!
//! The paper (§4) stores an attribute cache in shared memory so that every
//! process sees file status without touching the underlying file system;
//! this sped up the Andrew benchmark's Scan phase. Here the cache is a
//! bounded map shared between all process handles of a [`crate::Vfs`], with
//! hit/miss accounting so the benchmarks can report its effect and its
//! memory footprint (the paper quotes ~16 KB per process).

use std::collections::{BTreeMap, HashMap};

use parking_lot::Mutex;

use crate::attr::{Attr, FileId};

/// Statistics kept by the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to fall through to the node table.
    pub misses: u64,
    /// Entries evicted due to capacity.
    pub evictions: u64,
    /// Entries invalidated by mutations.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Cached attribute and the tick it was last touched at.
    map: HashMap<FileId, (Attr, u64)>,
    /// The same entries ordered by last-touch tick, oldest first: the
    /// eviction order, kept in step with `map` by every call.
    order: BTreeMap<u64, FileId>,
    clock: u64,
    stats: CacheStats,
}

impl Inner {
    /// Stores `attr` under a fresh tick, at the young end of the order.
    fn touch(&mut self, attr: Attr) {
        self.clock += 1;
        self.order.insert(self.clock, attr.id);
        if let Some((_, old)) = self.map.insert(attr.id, (attr, self.clock)) {
            self.order.remove(&old);
        }
    }
}

/// A capacity-bounded attribute cache with exact LRU eviction.
///
/// Eviction removes the least recently touched entry, found in O(log n)
/// through an order index beside the map. The cache exists to model the
/// paper's shared-memory attribute cache and to make `stat`-heavy phases
/// cheap, so a miss on a full cache must cost no more than a hit.
#[derive(Debug)]
pub struct AttrCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl AttrCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        AttrCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks up an attribute, counting a hit or miss.
    pub fn get(&self, id: FileId) -> Option<Attr> {
        let mut inner = self.inner.lock();
        let Some(&(attr, _)) = inner.map.get(&id) else {
            inner.stats.misses += 1;
            return None;
        };
        inner.touch(attr);
        inner.stats.hits += 1;
        Some(attr)
    }

    /// Inserts or refreshes an attribute, evicting the least recently used
    /// entry if over capacity.
    pub fn put(&self, attr: Attr) {
        let mut inner = self.inner.lock();
        inner.touch(attr);
        if inner.map.len() > self.capacity {
            if let Some((_, victim)) = inner.order.pop_first() {
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
            }
        }
    }

    /// Drops the cached attribute for `id`, if present.
    pub fn invalidate(&self, id: FileId) {
        let mut inner = self.inner.lock();
        if let Some((_, tick)) = inner.map.remove(&id) {
            inner.order.remove(&tick);
            inner.stats.invalidations += 1;
        }
    }

    /// Empties the cache (used when restoring a snapshot).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes (entry payload only), for the §4 in-text
    /// memory-overhead experiment.
    pub fn resident_bytes(&self) -> u64 {
        let per_entry = (std::mem::size_of::<(FileId, (Attr, u64))>()
            + std::mem::size_of::<(u64, FileId)>()) as u64;
        self.len() as u64 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{LogicalTime, NodeKind};

    fn attr(id: u64) -> Attr {
        Attr {
            id: FileId(id),
            kind: NodeKind::File,
            size: 1,
            mtime: LogicalTime(1),
            ctime: LogicalTime(1),
            version: 0,
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = AttrCache::new(8);
        assert!(cache.get(FileId(1)).is_none());
        cache.put(attr(1));
        assert_eq!(cache.get(FileId(1)).unwrap().id, FileId(1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = AttrCache::new(2);
        cache.put(attr(1));
        cache.put(attr(2));
        // Touch 1 so that 2 becomes the LRU victim.
        cache.get(FileId(1));
        cache.put(attr(3));
        assert!(cache.get(FileId(2)).is_none());
        assert!(cache.get(FileId(1)).is_some());
        assert!(cache.get(FileId(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    /// Exact LRU reference: most recently used last.
    #[derive(Default)]
    struct Model {
        entries: Vec<Attr>,
        stats: CacheStats,
    }

    impl Model {
        fn get(&mut self, id: FileId) -> Option<Attr> {
            match self.entries.iter().position(|a| a.id == id) {
                Some(i) => {
                    let a = self.entries.remove(i);
                    self.entries.push(a);
                    self.stats.hits += 1;
                    Some(a)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn put(&mut self, attr: Attr, capacity: usize) {
            self.entries.retain(|a| a.id != attr.id);
            self.entries.push(attr);
            if self.entries.len() > capacity {
                self.entries.remove(0);
                self.stats.evictions += 1;
            }
        }

        fn invalidate(&mut self, id: FileId) {
            let before = self.entries.len();
            self.entries.retain(|a| a.id != id);
            if self.entries.len() < before {
                self.stats.invalidations += 1;
            }
        }
    }

    #[test]
    fn eviction_matches_a_naive_lru_model() {
        let cache = AttrCache::new(8);
        let mut model = Model::default();
        // xorshift64: a fixed, dependency-free op sequence.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 20 ids over 8 slots: hits, misses and evictions all occur.
            let id = FileId(x % 20);
            match (x >> 32) % 10 {
                0..=4 => assert_eq!(cache.get(id), model.get(id), "get {id:?} at {step}"),
                5..=8 => {
                    let mut a = attr(id.0);
                    a.version = step;
                    cache.put(a);
                    model.put(a, 8);
                }
                _ => {
                    cache.invalidate(id);
                    model.invalidate(id);
                }
            }
            assert_eq!(cache.len(), model.entries.len());
            assert_eq!(cache.stats(), model.stats, "at step {step}");
        }
        let stats = model.stats;
        assert!(stats.hits > 0 && stats.misses > 0 && stats.evictions > 0);
        assert!(stats.invalidations > 0);
    }

    #[test]
    fn invalidate_removes_entry() {
        let cache = AttrCache::new(4);
        cache.put(attr(5));
        cache.invalidate(FileId(5));
        assert!(cache.get(FileId(5)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // Invalidating a missing entry is a no-op.
        cache.invalidate(FileId(99));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn resident_bytes_tracks_len() {
        let cache = AttrCache::new(16);
        assert_eq!(cache.resident_bytes(), 0);
        cache.put(attr(1));
        cache.put(attr(2));
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() > 0);
    }
}
