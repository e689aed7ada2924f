//! The DSA's two private memories: the DSA cache (verified-loop store)
//! and the Verification Cache (iteration-2 data addresses).

use dsa_mem::U32Map;

use crate::plan::LoopTemplate;
use crate::stats::LoopClass;

/// What the DSA cache knows about a loop ID.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedKind {
    /// Verified vectorizable: the stored template rebuilds the SIMD work.
    Vectorizable(LoopTemplate),
    /// Verified non-vectorizable (or an outer loop of a nest); the DSA
    /// skips analysis on re-entry.
    NonVectorizable(LoopClass),
}

impl CachedKind {
    /// Approximate storage footprint of the entry, in bytes, modelling
    /// the 8 KB capacity of the hardware structure.
    pub(crate) fn size_bytes(&self) -> u32 {
        match self {
            // ID + range + class + per-stream records + per-arm records.
            CachedKind::Vectorizable(t) => {
                16 + 8 * t.streams.len() as u32 + 12 * t.arms.len() as u32
            }
            CachedKind::NonVectorizable(_) => 8,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    kind: CachedKind,
    last_use: u64,
}

/// The DSA cache: loop ID (first-instruction PC) → verdict + SIMD
/// template, with LRU replacement under a byte-capacity budget.
///
/// # Examples
///
/// ```
/// use dsa_core::{CachedKind, DsaCache, LoopClass};
///
/// let mut cache = DsaCache::new(8 * 1024);
/// assert!(cache.probe(0x40).is_none());
/// cache.insert(0x40, CachedKind::NonVectorizable(LoopClass::NonVectorizable));
/// assert!(cache.probe(0x40).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct DsaCache {
    capacity_bytes: u32,
    used_bytes: u32,
    /// Keyed by loop ID (a PC of the simulated program); the byte
    /// capacity bounds the entry count, so even colliding IDs cost a
    /// bounded probe.
    entries: U32Map<Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DsaCache {
    /// Creates an empty cache with the given capacity.
    pub fn new(capacity_bytes: u32) -> DsaCache {
        DsaCache {
            capacity_bytes,
            used_bytes: 0,
            entries: U32Map::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a loop ID, updating LRU state and hit/miss counters.
    pub fn probe(&mut self, loop_id: u32) -> Option<&CachedKind> {
        self.tick += 1;
        match self.entries.get_mut(&loop_id) {
            Some(e) => {
                e.last_use = self.tick;
                self.hits += 1;
                Some(&e.kind)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Reads an entry without touching statistics or LRU order.
    pub fn peek(&self, loop_id: u32) -> Option<&CachedKind> {
        self.entries.get(&loop_id).map(|e| &e.kind)
    }

    /// Mutable access to a vectorizable template (e.g. to update a
    /// sentinel loop's speculative range).
    pub fn template_mut(&mut self, loop_id: u32) -> Option<&mut LoopTemplate> {
        match self.entries.get_mut(&loop_id) {
            Some(Entry { kind: CachedKind::Vectorizable(t), .. }) => Some(t),
            _ => None,
        }
    }

    /// Inserts (or replaces) an entry, evicting LRU entries if the
    /// capacity would be exceeded. Returns the number of entries
    /// displaced, so the caller can report the evictions (the engine
    /// turns them into `cache-access`/`evict` telemetry events).
    pub fn insert(&mut self, loop_id: u32, kind: CachedKind) -> u32 {
        self.tick += 1;
        if let Some(old) = self.entries.remove(&loop_id) {
            self.used_bytes -= old.kind.size_bytes();
        }
        let mut evicted = 0u32;
        let size = kind.size_bytes();
        while self.used_bytes + size > self.capacity_bytes {
            // LRU victim selection; the loop guard plus this pattern
            // keeps the path panic-free on an empty map.
            let Some(victim) =
                self.entries.iter().min_by_key(|(_, e)| e.last_use).map(|(&k, _)| k)
            else {
                break;
            };
            if let Some(e) = self.entries.remove(&victim) {
                self.used_bytes -= e.kind.size_bytes();
                self.evictions += 1;
                evicted += 1;
            }
        }
        if size <= self.capacity_bytes {
            self.used_bytes += size;
            self.entries.insert(loop_id, Entry { kind, last_use: self.tick });
        }
        evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses, evictions)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> u32 {
        self.used_bytes
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.capacity_bytes
    }

    /// Snapshot export: every entry as `(loop_id, kind, last_use)`,
    /// sorted by loop ID so identical caches always export identically.
    pub(crate) fn export_entries(&self) -> Vec<(u32, CachedKind, u64)> {
        let mut out: Vec<(u32, CachedKind, u64)> = self
            .entries
            .iter()
            .map(|(&id, e)| (id, e.kind.clone(), e.last_use))
            .collect();
        out.sort_unstable_by_key(|&(id, _, _)| id);
        out
    }

    /// Snapshot export: the LRU tick and `(hits, misses, evictions)`
    /// counters, so a restored cache keeps the same replacement order
    /// and statistics.
    pub(crate) fn export_clock(&self) -> (u64, u64, u64, u64) {
        (self.tick, self.hits, self.misses, self.evictions)
    }

    /// Snapshot restore: rebuilds a cache from exported parts.
    /// `used_bytes` is recomputed from the entries (it is derived state,
    /// so a corrupted value cannot be smuggled in through a snapshot).
    pub(crate) fn from_parts(
        capacity_bytes: u32,
        entries: Vec<(u32, CachedKind, u64)>,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    ) -> DsaCache {
        let mut used_bytes = 0u32;
        let entries: U32Map<Entry> = entries
            .into_iter()
            .map(|(id, kind, last_use)| {
                used_bytes += kind.size_bytes();
                (id, Entry { kind, last_use })
            })
            .collect();
        DsaCache { capacity_bytes, used_bytes, entries, tick, hits, misses, evictions }
    }
}

/// The Verification Cache: holds the data-memory addresses of one
/// analysis iteration. Modelled as a capacity check — if an iteration
/// touches more addresses than fit, the loop cannot be verified.
#[derive(Debug, Clone, Copy)]
pub struct VerificationCache {
    capacity_bytes: u32,
    accesses: u64,
}

impl VerificationCache {
    /// Creates the cache with the given capacity.
    pub fn new(capacity_bytes: u32) -> VerificationCache {
        VerificationCache { capacity_bytes, accesses: 0 }
    }

    /// Whether `n_addresses` 32-bit addresses fit.
    pub fn fits(&self, n_addresses: usize) -> bool {
        (n_addresses as u32) * 4 <= self.capacity_bytes
    }

    /// Records `n` stores into the cache (statistics only).
    pub fn record_accesses(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.capacity_bytes
    }

    /// Snapshot restore: a cache with its access counter pre-loaded.
    pub(crate) fn with_accesses(capacity_bytes: u32, accesses: u64) -> VerificationCache {
        VerificationCache { capacity_bytes, accesses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LoopTemplate;

    fn vec_entry() -> CachedKind {
        CachedKind::Vectorizable(LoopTemplate::test_dummy())
    }

    #[test]
    fn probe_hit_miss_counters() {
        let mut c = DsaCache::new(1024);
        assert!(c.probe(0x40).is_none());
        c.insert(0x40, CachedKind::NonVectorizable(LoopClass::NonVectorizable));
        assert!(c.probe(0x40).is_some());
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn lru_eviction_under_capacity() {
        // Each non-vec entry is 8 bytes; capacity 24 holds 3.
        let mut c = DsaCache::new(24);
        for id in 0..3 {
            c.insert(id, CachedKind::NonVectorizable(LoopClass::NonVectorizable));
        }
        assert_eq!(c.len(), 3);
        c.probe(0); // 0 recently used; 1 is LRU
        let evicted = c.insert(100, CachedKind::NonVectorizable(LoopClass::NonVectorizable));
        assert_eq!(evicted, 1, "insert reports the displaced entry");
        assert_eq!(c.len(), 3);
        assert!(c.peek(1).is_none(), "LRU entry evicted");
        assert!(c.peek(0).is_some());
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = DsaCache::new(1024);
        c.insert(7, CachedKind::NonVectorizable(LoopClass::NonVectorizable));
        let small = c.used_bytes();
        c.insert(7, vec_entry());
        assert!(c.used_bytes() > small);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn vcache_capacity() {
        let v = VerificationCache::new(1024);
        assert!(v.fits(256));
        assert!(!v.fits(257));
    }
}
