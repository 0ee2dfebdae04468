//! The instruction translation lookaside buffer (§2.1).
//!
//! "Abstract instruction decoding, although slow in software can be
//! mitigated by the use of an associative mechanism in the instruction
//! translation step which bears remarkable similarity to virtual address
//! translation. This is an instruction translation lookaside buffer (ITLB),
//! in which an opcode and the set of operand object datatypes are associated
//! to a method."
//!
//! The first level is a fixed-size probe array — the direct-mapped /
//! set-associative RAM the hardware actually describes: the key is packed
//! into one word, a multiplicative hash selects the set, and the ways of
//! that set are probed in place. No per-lookup heap hashing is involved,
//! which matters because *every* COM instruction translates through this
//! structure. The optional second level is a generic [`SetAssocCache`];
//! the tests check the probe array against it access for access.

use com_cache::{CacheConfig, CacheError, CacheStats, Replacement, SetAssocCache};
use com_isa::Opcode;
use com_mem::ClassId;

use crate::MethodRef;

/// The associative key: "an opcode and a set of operand classes" (§2.1).
///
/// The two slots carry the classes of the source operands (receiver first);
/// absent operands use [`ClassId::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ItlbKey {
    /// The abstract opcode (message selector).
    pub opcode: Opcode,
    /// Classes of the source operands, receiver first.
    pub classes: [ClassId; 2],
}

impl ItlbKey {
    /// Builds a key for a receiver-only send.
    pub fn unary(opcode: Opcode, receiver: ClassId) -> Self {
        ItlbKey {
            opcode,
            classes: [receiver, ClassId::NONE],
        }
    }

    /// Builds a key for a receiver + argument send.
    pub fn binary(opcode: Opcode, receiver: ClassId, arg: ClassId) -> Self {
        ItlbKey {
            opcode,
            classes: [receiver, arg],
        }
    }

    /// Packs the key into one tag word: opcode in bits 0..16, receiver
    /// class in 16..32, argument class in 32..48. The packing is injective,
    /// so tag equality is key equality.
    fn pack(self) -> u64 {
        self.opcode.0 as u64 | (self.classes[0].0 as u64) << 16 | (self.classes[1].0 as u64) << 32
    }

    /// Inverse of [`pack`](Self::pack).
    fn unpack(tag: u64) -> Self {
        ItlbKey {
            opcode: Opcode(tag as u16),
            classes: [ClassId((tag >> 16) as u16), ClassId((tag >> 32) as u16)],
        }
    }
}

impl core::fmt::Display for ItlbKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "({} {} {})",
            self.opcode, self.classes[0], self.classes[1]
        )
    }
}

/// Geometry of the ITLB, optionally with a second level.
///
/// §5: "If this hit ratio is insufficient, a larger second level ITLB can be
/// implemented in main memory and accessed by miss processing hardware. Only
/// a miss in both caches would result in a trap."
#[derive(Debug, Clone, Copy)]
pub struct ItlbConfig {
    /// First-level geometry.
    pub l1: CacheConfig,
    /// Optional second-level geometry (in main memory; slower but larger).
    pub l2: Option<CacheConfig>,
}

impl ItlbConfig {
    /// The paper's recommended first level: 512 entries, 2-way ("a 99% hit
    /// ratio can be realized with a 512 entry 2-way associative cache").
    ///
    /// # Errors
    ///
    /// Never fails for the built-in geometry; the `Result` mirrors
    /// [`CacheConfig::new`] so callers can build variants uniformly.
    pub fn paper_default() -> Result<Self, CacheError> {
        Ok(ItlbConfig {
            l1: CacheConfig::new(512, 2)?,
            l2: None,
        })
    }

    /// Adds a second level of `entries` × `ways`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] for inconsistent geometry.
    pub fn with_l2(mut self, entries: usize, ways: usize) -> Result<Self, CacheError> {
        self.l2 = Some(CacheConfig::new(entries, ways)?);
        Ok(self)
    }
}

/// Where an ITLB lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItlbHit {
    /// Found in the first level.
    L1,
    /// Found in the second level (promoted to L1).
    L2,
    /// Missed everywhere: full method lookup required.
    Miss,
}

/// One valid line of the probe array.
#[derive(Debug, Clone, Copy)]
struct ProbeLine {
    tag: u64,
    value: MethodRef,
    /// Monotonic counter value at last use (LRU) …
    last_used: u64,
    /// … and at fill time (FIFO).
    filled_at: u64,
}

/// The fixed-size probe array backing the first level: `sets × ways` lines
/// in one flat allocation, indexed by a multiplicative hash of the packed
/// key. `ways == 1` is the direct-mapped case; larger `ways` probe the
/// set's lines linearly, exactly as the hardware comparators would.
#[derive(Debug)]
struct ProbeArray {
    config: CacheConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two (single AND), else 0
    /// (fall back to modulo).
    mask: u64,
    ways: usize,
    lines: Vec<Option<ProbeLine>>,
    clock: u64,
    rng: u64,
    stats: CacheStats,
}

impl ProbeArray {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways();
        ProbeArray {
            config,
            sets,
            mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            ways,
            lines: vec![None; sets * ways],
            clock: 0,
            rng: config.seed(),
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_base(&self, tag: u64) -> usize {
        // Fibonacci hashing: one multiply, top bits mod the set count.
        let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let set = if self.mask != 0 {
            (h & self.mask) as usize
        } else {
            h as usize % self.sets
        };
        set * self.ways
    }

    #[inline]
    fn lookup(&mut self, key: ItlbKey) -> Option<MethodRef> {
        self.clock += 1;
        let tag = key.pack();
        let base = self.set_base(tag);
        for l in self.lines[base..base + self.ways].iter_mut().flatten() {
            if l.tag == tag {
                l.last_used = self.clock;
                self.stats.hits += 1;
                return Some(l.value);
            }
        }
        self.stats.misses += 1;
        None
    }

    fn fill(&mut self, key: ItlbKey, value: MethodRef) -> Option<(ItlbKey, MethodRef)> {
        self.clock += 1;
        self.stats.fills += 1;
        let tag = key.pack();
        let base = self.set_base(tag);
        let slot = &mut self.lines[base..base + self.ways];
        // Refill in place, or take the first invalid way.
        for line in slot.iter_mut() {
            match line {
                Some(l) if l.tag == tag => {
                    l.value = value;
                    l.last_used = self.clock;
                    return None;
                }
                _ => {}
            }
        }
        for line in slot.iter_mut() {
            if line.is_none() {
                *line = Some(ProbeLine {
                    tag,
                    value,
                    last_used: self.clock,
                    filled_at: self.clock,
                });
                return None;
            }
        }
        // Set full: evict per the configured policy.
        let victim = match self.config.replacement() {
            Replacement::Lru => slot
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.expect("set is full").last_used)
                .map(|(i, _)| i)
                .expect("set is nonempty"),
            Replacement::Fifo => slot
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.expect("set is full").filled_at)
                .map(|(i, _)| i)
                .expect("set is nonempty"),
            Replacement::Random => {
                // xorshift64*
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % self.ways as u64) as usize
            }
        };
        self.stats.evictions += 1;
        let old = slot[victim].replace(ProbeLine {
            tag,
            value,
            last_used: self.clock,
            filled_at: self.clock,
        });
        old.map(|l| (ItlbKey::unpack(l.tag), l.value))
    }

    fn clear(&mut self) {
        self.lines.iter_mut().for_each(|l| *l = None);
    }

    /// Resident line count (diagnostics).
    fn len(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }
}

/// The ITLB: a (possibly two-level) cache from [`ItlbKey`] to [`MethodRef`].
///
/// ```
/// use com_cache::CacheConfig;
/// use com_isa::{Opcode, PrimOp};
/// use com_mem::ClassId;
/// use com_obj::{Itlb, ItlbConfig, ItlbKey, MethodRef};
///
/// # fn main() -> Result<(), com_cache::CacheError> {
/// let mut itlb = Itlb::new(ItlbConfig::paper_default()?);
/// let key = ItlbKey::binary(Opcode::ADD, ClassId::SMALL_INT, ClassId::SMALL_INT);
/// assert!(itlb.lookup(key).is_none());
/// itlb.fill(key, MethodRef::Primitive(PrimOp::Add));
/// assert!(itlb.lookup(key).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Itlb {
    l1: ProbeArray,
    l2: Option<SetAssocCache<ItlbKey, MethodRef>>,
    last_hit: ItlbHit,
}

impl Itlb {
    /// Creates an ITLB with the given geometry.
    pub fn new(config: ItlbConfig) -> Self {
        Itlb {
            l1: ProbeArray::new(config.l1),
            l2: config.l2.map(SetAssocCache::new),
            last_hit: ItlbHit::Miss,
        }
    }

    /// Looks up a key; L2 hits are promoted into L1 (victims demoted).
    #[inline]
    pub fn lookup(&mut self, key: ItlbKey) -> Option<MethodRef> {
        if let Some(m) = self.l1.lookup(key) {
            self.last_hit = ItlbHit::L1;
            return Some(m);
        }
        if let Some(l2) = &mut self.l2 {
            if let Some(m) = l2.lookup(&key).copied() {
                self.last_hit = ItlbHit::L2;
                if let Some((vk, vv)) = self.l1.fill(key, m) {
                    l2.fill(vk, vv);
                }
                return Some(m);
            }
        }
        self.last_hit = ItlbHit::Miss;
        None
    }

    /// Where the most recent lookup hit.
    pub fn last_hit(&self) -> ItlbHit {
        self.last_hit
    }

    /// Installs a resolution after a miss; L1 victims demote to L2.
    pub fn fill(&mut self, key: ItlbKey, method: MethodRef) {
        if let Some((vk, vv)) = self.l1.fill(key, method) {
            if let Some(l2) = &mut self.l2 {
                l2.fill(vk, vv);
            }
        }
        if let Some(l2) = &mut self.l2 {
            l2.fill(key, method);
        }
    }

    /// Invalidates every cached resolution (required when a method is
    /// redefined — "no object code need ever be modified", §2.1, but stale
    /// translations must go).
    pub fn flush(&mut self) {
        self.l1.clear();
        if let Some(l2) = &mut self.l2 {
            l2.clear();
        }
    }

    /// Number of resolutions resident in the first level.
    pub fn l1_len(&self) -> usize {
        self.l1.len()
    }

    /// First-level statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats
    }

    /// Second-level statistics, if a second level exists.
    pub fn l2_stats(&self) -> Option<CacheStats> {
        self.l2.as_ref().map(|c| c.stats())
    }

    /// Resets statistics on both levels (warmup boundary, §5).
    pub fn reset_stats(&mut self) {
        self.l1.stats = CacheStats::default();
        if let Some(l2) = &mut self.l2 {
            l2.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::PrimOp;

    fn key(op: u16, r: u16) -> ItlbKey {
        ItlbKey::binary(Opcode(op), ClassId(r), ClassId::SMALL_INT)
    }

    fn add() -> MethodRef {
        MethodRef::Primitive(PrimOp::Add)
    }

    fn itlb() -> Itlb {
        Itlb::new(ItlbConfig::paper_default().unwrap())
    }

    /// Drives the probe array and the generic cache with the same access
    /// stream (lookup, fill on miss) and asserts they agree access for
    /// access: hits, values, evicted pairs and statistics.
    fn assert_matches_set_assoc_cache(config: CacheConfig, keys: impl Iterator<Item = ItlbKey>) {
        let mut probe = ProbeArray::new(config);
        let mut generic: SetAssocCache<ItlbKey, MethodRef> = SetAssocCache::new(config);
        for k in keys {
            let hit = probe.lookup(k);
            assert_eq!(hit, generic.lookup(&k).copied(), "lookup diverged at {k}");
            if hit.is_none() {
                let m = if k.opcode.0.is_multiple_of(2) {
                    add()
                } else {
                    MethodRef::Primitive(PrimOp::Sub)
                };
                assert_eq!(probe.fill(k, m), generic.fill(k, m), "fill diverged at {k}");
            }
        }
        assert_eq!(probe.stats, generic.stats());
        assert_eq!(probe.len(), generic.len());
    }

    #[test]
    fn probe_array_matches_set_assoc_cache_when_fully_associative() {
        // One set: set-index hashing is irrelevant, so both implement the
        // same replacement policy over the same lines.
        let mut x: u64 = 0x1985;
        let keys = (0..20_000).map(move |i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = if i % 4 != 0 { x % 12 } else { x % 300 } as u16;
            key(k % 64, k / 64 + 1)
        });
        assert_matches_set_assoc_cache(CacheConfig::new(16, 16).unwrap(), keys.clone());
        for policy in [Replacement::Fifo, Replacement::Random] {
            let config = CacheConfig::new(16, 16).unwrap().with_replacement(policy);
            assert_matches_set_assoc_cache(config, keys.clone());
        }
    }

    #[test]
    fn fill_then_hit() {
        {
            let mut itlb = itlb();
            assert_eq!(itlb.lookup(key(1, 1)), None);
            assert_eq!(itlb.last_hit(), ItlbHit::Miss);
            itlb.fill(key(1, 1), add());
            assert_eq!(itlb.lookup(key(1, 1)), Some(add()));
            assert_eq!(itlb.last_hit(), ItlbHit::L1);
            assert_eq!(itlb.l1_stats().hits, 1);
        }
    }

    #[test]
    fn key_packing_is_injective() {
        let keys = [
            key(1, 1),
            key(1, 2),
            key(2, 1),
            ItlbKey::unary(Opcode(1), ClassId(1)),
            ItlbKey::unary(Opcode(0x3FF), ClassId(0xFFFF)),
        ];
        for a in keys {
            assert_eq!(ItlbKey::unpack(a.pack()), a);
            for b in keys {
                assert_eq!(a.pack() == b.pack(), a == b);
            }
        }
    }

    #[test]
    fn distinct_class_signatures_are_distinct_entries() {
        {
            let mut itlb = itlb();
            itlb.fill(key(1, 1), add());
            assert_eq!(itlb.lookup(key(1, 2)), None, "different receiver class");
            assert_eq!(
                itlb.lookup(ItlbKey::unary(Opcode(1), ClassId(1))),
                None,
                "different arity signature"
            );
        }
    }

    #[test]
    fn l2_promotes_on_hit() {
        let cfg = ItlbConfig {
            l1: CacheConfig::new(2, 2).unwrap(),
            l2: Some(CacheConfig::new(64, 2).unwrap()),
        };
        let mut itlb = Itlb::new(cfg);
        // Fill three keys: one must be evicted from the tiny L1 into L2.
        for i in 0..3 {
            itlb.fill(key(i, 1), add());
        }
        let mut l2_hits = 0;
        for i in 0..3 {
            match itlb.lookup(key(i, 1)) {
                Some(_) => {
                    if itlb.last_hit() == ItlbHit::L2 {
                        l2_hits += 1;
                    }
                }
                None => panic!("entry {i} lost from both levels"),
            }
        }
        assert!(l2_hits >= 1, "expected at least one L2 promotion");
    }

    #[test]
    fn flush_clears_everything() {
        {
            let mut itlb = itlb();
            itlb.fill(key(1, 1), add());
            itlb.flush();
            assert_eq!(itlb.lookup(key(1, 1)), None);
            assert_eq!(itlb.l1_len(), 0);
        }
    }
}
