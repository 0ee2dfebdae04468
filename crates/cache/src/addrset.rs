//! A presence-only set-associative cache over address keys, backed by flat
//! arrays — the hot-path sibling of [`SetAssocCache`](crate::SetAssocCache).
//!
//! The COM's instruction cache is probed once per simulated instruction; a
//! generic key/value cache with per-set `Vec`s and a hashing indexer is
//! measurable overhead there. `AddrSet` models exactly the same cache —
//! identical geometry semantics (`addr % sets` indexing, the configured
//! replacement policy, identical hit/miss/fill/eviction accounting as
//! [`SetAssocCache::with_indexer`] with the identity indexer) — but stores
//! only tags, in one flat allocation.

use crate::{CacheConfig, CacheStats, Replacement};

/// Sentinel tag for an invalid line. Word addresses in the COM are at most
/// 36-bit, so the all-ones tag can never collide with a real address.
const EMPTY: u64 = u64::MAX;

/// A presence set over `u64` address keys with set-associative geometry.
///
/// ```
/// use com_cache::{AddrSet, CacheConfig};
///
/// # fn main() -> Result<(), com_cache::CacheError> {
/// let mut ic = AddrSet::new(CacheConfig::new(4096, 2)?);
/// assert!(!ic.lookup(0x40));     // compulsory miss
/// ic.fill(0x40);
/// assert!(ic.lookup(0x40));
/// assert_eq!(ic.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AddrSet {
    config: CacheConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two, else 0 (fall back
    /// to the modulo). `addr & mask == addr % sets` in the former case, so
    /// indexing is identical to `SetAssocCache` either way.
    mask: u64,
    ways: usize,
    tags: Vec<u64>,
    /// Per line, the clock of its last use (LRU: fill or hit) or of its
    /// fill (FIFO); unused under Random.
    stamp: Vec<u64>,
    /// Whether a hit refreshes the stamp (LRU only).
    stamp_hits: bool,
    clock: u64,
    rng: u64,
    stats: CacheStats,
}

impl AddrSet {
    /// Creates an empty set with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways();
        AddrSet {
            config,
            sets,
            mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            ways,
            tags: vec![EMPTY; sets * ways],
            stamp: vec![0; sets * ways],
            stamp_hits: config.replacement() == Replacement::Lru,
            clock: 0,
            rng: config.seed(),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Statistics accumulated since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters but keeps contents (warmup boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of valid lines currently resident.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|t| **t != EMPTY).count()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn set_base(&self, addr: u64) -> usize {
        let set = if self.mask != 0 {
            (addr & self.mask) as usize
        } else {
            (addr % self.sets as u64) as usize
        };
        set * self.ways
    }

    /// Probes for `addr`, recording a hit or miss and refreshing recency.
    #[inline]
    pub fn lookup(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let base = self.set_base(addr);
        for w in 0..self.ways {
            if self.tags[base + w] == addr {
                if self.stamp_hits {
                    self.stamp[base + w] = self.clock;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts `addr`, evicting per the configured policy if the set is
    /// full. Returns the evicted address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.clock += 1;
        self.stats.fills += 1;
        let base = self.set_base(addr);
        for w in 0..self.ways {
            if self.tags[base + w] == addr {
                if self.stamp_hits {
                    self.stamp[base + w] = self.clock;
                }
                return None;
            }
        }
        for w in 0..self.ways {
            if self.tags[base + w] == EMPTY {
                self.tags[base + w] = addr;
                self.stamp[base + w] = self.clock;
                return None;
            }
        }
        let victim = match self.config.replacement() {
            Replacement::Lru | Replacement::Fifo => (0..self.ways)
                .min_by_key(|w| self.stamp[base + w])
                .expect("ways >= 1"),
            Replacement::Random => {
                // xorshift64* (same generator as SetAssocCache)
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % self.ways as u64) as usize
            }
        };
        self.stats.evictions += 1;
        let old = self.tags[base + victim];
        self.tags[base + victim] = addr;
        self.stamp[base + victim] = self.clock;
        Some(old)
    }

    /// Drops all contents (statistics are kept).
    pub fn clear(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssocCache;

    fn cfg(entries: usize, ways: usize) -> CacheConfig {
        CacheConfig::new(entries, ways).unwrap()
    }

    #[test]
    fn hit_after_fill() {
        let mut c = AddrSet::new(cfg(8, 2));
        assert!(!c.lookup(1));
        c.fill(1);
        assert!(c.lookup(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = AddrSet::new(cfg(2, 1));
        c.fill(0);
        assert_eq!(c.fill(2), Some(0), "0 evicted by conflicting 2");
        c.fill(1);
        assert!(c.lookup(1));
        assert!(c.lookup(2));
        assert!(!c.lookup(0));
    }

    #[test]
    fn matches_set_assoc_cache_access_for_access() {
        // The architectural contract: identical hit/miss/eviction stats to
        // SetAssocCache with the identity indexer, on an arbitrary
        // reference stream with reuse and conflicts, under every
        // replacement policy.
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let config = cfg(16, 2).with_replacement(policy).with_seed(7);
            let mut a = AddrSet::new(config);
            let mut b: SetAssocCache<u64, ()> = SetAssocCache::with_indexer(config, |k| *k);
            let mut x: u64 = 12345;
            for i in 0..10_000u64 {
                // Mix a hot working set with a sweeping stream.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = if i % 3 == 0 { i % 24 } else { x % 64 };
                let ha = a.lookup(addr);
                let hb = b.lookup(&addr).is_some();
                assert_eq!(ha, hb, "{policy}: divergence at access {i} addr {addr}");
                // Occasional refills of resident lines, which LRU counts
                // as a use and FIFO does not.
                if !ha || i % 7 == 0 {
                    assert_eq!(a.fill(addr), b.fill(addr, ()).map(|(k, ())| k));
                }
            }
            assert_eq!(a.stats(), b.stats(), "{policy}");
            assert_eq!(a.len(), b.len(), "{policy}");
        }
    }

    #[test]
    fn clear_keeps_stats() {
        let mut c = AddrSet::new(cfg(4, 4));
        c.fill(9);
        c.lookup(9);
        c.clear();
        assert!(!c.lookup(9));
        assert_eq!(c.stats().hits, 1);
        assert!(c.is_empty());
    }
}
