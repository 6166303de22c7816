//! Promiscuous caching: a byte-bounded LRU of documents.
//!
//! "The more sophisticated P2P systems support promiscuous caching where
//! data is free to be cached anywhere at any time. This does not affect
//! the correctness of the system ... and is crucial to the performance of
//! the system if the fetching of remote data at every access is to be
//! avoided." (§3)
//!
//! Recency is an intrusive doubly-linked list threaded through a slab of
//! entries: `get`/`insert` touch in O(1) and eviction pops the list tail in
//! O(1). (The seed implementation stamped entries with a logical clock and
//! ran a full `min_by_key` scan per evicted document — O(n²) under churn.)

use crate::document::Document;
use gloss_overlay::Key;
use std::collections::HashMap;
use std::rc::Rc;

/// Null slot index terminating the recency list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    doc: Document,
    /// Next more-recently-used slot (towards the head).
    prev: u32,
    /// Next less-recently-used slot (towards the tail).
    next: u32,
}

/// A least-recently-used document cache bounded by total content bytes.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_bytes: usize,
    used_bytes: usize,
    /// guid → slot in `slots`.
    index: HashMap<Key, u32>,
    slots: Vec<Slot>,
    /// Reusable slot indices freed by `remove`/eviction.
    free: Vec<u32>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot (`NIL` when empty).
    tail: u32,
    /// Cache hits observed.
    pub hits: u64,
    /// Cache misses observed.
    pub misses: u64,
}

impl Default for LruCache {
    /// A zero-capacity cache (the recency-list sentinels must be `NIL`,
    /// not the all-zeroes a derived `Default` would produce).
    fn default() -> Self {
        LruCache::new(0)
    }
}

impl LruCache {
    /// Creates a cache bounded to `capacity_bytes` of document content.
    pub fn new(capacity_bytes: usize) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Unlinks a slot from the recency list (it stays in the slab).
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Links a slot in as the most recently used.
    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Moves a slot to the front of the recency list.
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Looks up a document, refreshing its recency and counting hit/miss.
    pub fn get(&mut self, guid: Key) -> Option<Document> {
        match self.index.get(&guid).copied() {
            Some(slot) => {
                self.touch(slot);
                self.hits += 1;
                Some(self.slots[slot as usize].doc.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks presence without counting or refreshing.
    pub fn contains(&self, guid: Key) -> bool {
        self.index.contains_key(&guid)
    }

    /// Inserts a document, evicting least-recently-used entries to fit.
    /// Documents larger than the whole capacity are ignored. Older
    /// versions never replace newer ones; a write-back of the version
    /// already cached refreshes its recency (a hot document re-written at
    /// its current version must not drift to the LRU tail).
    pub fn insert(&mut self, doc: Document) {
        if doc.size() > self.capacity_bytes {
            return;
        }
        if let Some(slot) = self.index.get(&doc.guid).copied() {
            let existing = &self.slots[slot as usize].doc;
            if existing.version > doc.version {
                return;
            }
            if existing.version == doc.version {
                self.touch(slot);
                return;
            }
            // Newer version: replace content in place.
            self.used_bytes -= existing.size();
            self.used_bytes += doc.size();
            self.slots[slot as usize].doc = doc;
            self.touch(slot);
            self.evict_to_fit(0);
            return;
        }
        self.evict_to_fit(doc.size());
        self.used_bytes += doc.size();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot { doc, prev: NIL, next: NIL };
                slot
            }
            None => {
                self.slots.push(Slot { doc, prev: NIL, next: NIL });
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(self.slots[slot as usize].doc.guid, slot);
        self.link_front(slot);
    }

    /// Pops recency-list tails until `extra` more bytes fit.
    fn evict_to_fit(&mut self, extra: usize) {
        while self.used_bytes + extra > self.capacity_bytes {
            let victim = self.tail;
            if victim == NIL {
                break;
            }
            self.unlink(victim);
            let evicted = &self.slots[victim as usize].doc;
            self.used_bytes -= evicted.size();
            let guid = evicted.guid;
            self.index.remove(&guid);
            self.release(victim);
        }
    }

    /// Returns a slot to the free list, releasing its payload (the slab
    /// slot itself is reused by `insert`).
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize].doc.content = Rc::default();
        self.free.push(slot);
    }

    /// Removes a document (e.g. on explicit invalidation).
    pub fn remove(&mut self, guid: Key) -> Option<Document> {
        let slot = self.index.remove(&guid)?;
        self.unlink(slot);
        let doc = self.slots[slot as usize].doc.clone();
        self.used_bytes -= doc.size();
        self.release(slot);
        Some(doc)
    }

    /// Empties the cache, keeping the hit/miss counters.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str, bytes: usize) -> Document {
        Document::new(name, vec![0u8; bytes])
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = LruCache::new(1000);
        let d = doc("a", 10);
        assert!(c.get(d.guid).is_none());
        c.insert(d.clone());
        assert!(c.get(d.guid).is_some());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(30);
        let (a, b, d) = (doc("a", 10), doc("b", 10), doc("d", 10));
        c.insert(a.clone());
        c.insert(b.clone());
        c.insert(d.clone());
        // Touch a and d; b is now LRU.
        c.get(a.guid);
        c.get(d.guid);
        c.insert(doc("e", 10));
        assert!(c.contains(a.guid));
        assert!(!c.contains(b.guid), "b was least recently used");
        assert!(c.contains(d.guid));
        assert!(c.used_bytes() <= 30);
    }

    #[test]
    fn oversized_documents_ignored() {
        let mut c = LruCache::new(10);
        c.insert(doc("big", 100));
        assert!(c.is_empty());
    }

    #[test]
    fn newer_version_replaces_older_never_reverse() {
        let mut c = LruCache::new(1000);
        let v1 = doc("m", 10);
        let v2 = v1.updated(vec![1u8; 20]);
        c.insert(v2.clone());
        c.insert(v1.clone()); // stale write-back: ignored
        assert_eq!(c.get(v1.guid).unwrap().version, 2);
        let v3 = v2.updated(vec![2u8; 5]);
        c.insert(v3);
        assert_eq!(c.get(v1.guid).unwrap().version, 3);
        assert_eq!(c.used_bytes(), 5);
    }

    #[test]
    fn same_version_writeback_refreshes_recency() {
        // Regression: the seed cache returned early on a same-version
        // re-insert without refreshing recency, so a hot document
        // re-written at its current version drifted to LRU and was
        // evicted prematurely.
        let mut c = LruCache::new(30);
        let (a, b, d) = (doc("a", 10), doc("b", 10), doc("d", 10));
        c.insert(a.clone());
        c.insert(b.clone());
        c.insert(d.clone());
        // Write a back at its current version; b is now the true LRU.
        c.insert(a.clone());
        c.insert(doc("e", 10));
        assert!(c.contains(a.guid), "same-version write-back must refresh recency");
        assert!(!c.contains(b.guid), "b was least recently used");
    }

    #[test]
    fn stale_writeback_does_not_refresh_recency() {
        let mut c = LruCache::new(30);
        let a1 = doc("a", 10);
        let a2 = a1.updated(vec![1u8; 10]);
        let (b, d) = (doc("b", 10), doc("d", 10));
        c.insert(a2.clone());
        c.insert(b.clone());
        c.insert(d.clone());
        // A stale (older-version) write-back is not a use of the cached
        // document: a stays the LRU and is evicted first.
        c.insert(a1);
        c.insert(doc("e", 10));
        assert!(!c.contains(a2.guid), "stale write-back must not refresh recency");
        assert!(c.contains(b.guid));
    }

    #[test]
    fn remove_and_clear() {
        let mut c = LruCache::new(100);
        let d = doc("a", 10);
        c.insert(d.clone());
        assert_eq!(c.remove(d.guid).unwrap().guid, d.guid);
        assert_eq!(c.used_bytes(), 0);
        c.insert(doc("b", 10));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_accounts_bytes_exactly() {
        let mut c = LruCache::new(25);
        for i in 0..10 {
            c.insert(doc(&format!("d{i}"), 10));
            assert!(c.used_bytes() <= 25);
            assert_eq!(c.used_bytes(), c.len() * 10, "byte accounting must match entry count");
        }
    }

    #[test]
    fn churn_preserves_exact_accounting_and_lru_order() {
        // Heavy mixed churn over a small cache: byte accounting stays
        // exact, the recency list stays consistent, and the survivors are
        // exactly the most recently touched documents.
        let mut c = LruCache::new(100);
        let docs: Vec<Document> = (0..64).map(|i| doc(&format!("d{i}"), 10)).collect();
        for round in 0..50usize {
            for (i, d) in docs.iter().enumerate() {
                c.insert(d.clone());
                if (i + round) % 3 == 0 {
                    c.get(docs[(i * 7 + round) % docs.len()].guid);
                }
                if (i + round) % 11 == 0 {
                    c.remove(docs[(i * 5 + round) % docs.len()].guid);
                }
                let expected: usize = c.len() * 10;
                assert_eq!(c.used_bytes(), expected);
                assert!(c.used_bytes() <= 100);
            }
        }
        // The last ten inserts (none removed since) are the MRU set.
        for d in docs.iter().rev().take(3) {
            assert!(c.contains(d.guid), "freshly inserted {} must survive", d.name);
        }
    }

    #[test]
    fn version_upgrade_larger_than_remaining_capacity_evicts_others() {
        let mut c = LruCache::new(30);
        let a1 = doc("a", 10);
        let (b, d) = (doc("b", 10), doc("d", 10));
        c.insert(a1.clone());
        c.insert(b.clone());
        c.insert(d.clone());
        // Upgrading a to 25 bytes must evict LRU entries, never a itself.
        let a2 = a1.updated(vec![3u8; 25]);
        c.insert(a2);
        assert_eq!(c.get(a1.guid).unwrap().version, 2);
        assert!(c.used_bytes() <= 30);
        assert_eq!(c.used_bytes(), 25);
    }
}
