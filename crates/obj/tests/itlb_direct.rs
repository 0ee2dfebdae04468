//! Properties of the direct-mapped / set-associative ITLB probe array:
//! fill, evict, hit-rate, and equivalence with the generic
//! [`SetAssocCache`] when fully associative.

use com_cache::{CacheConfig, SetAssocCache};
use com_isa::{Opcode, PrimOp};
use com_mem::ClassId;
use com_obj::{Itlb, ItlbConfig, ItlbHit, ItlbKey, MethodRef};

fn key(op: u16, recv: u16, arg: u16) -> ItlbKey {
    ItlbKey::binary(Opcode(op), ClassId(recv), ClassId(arg))
}

fn method(i: u16) -> MethodRef {
    // Distinct payloads so value identity is observable.
    MethodRef::Primitive(if i.is_multiple_of(2) {
        PrimOp::Add
    } else {
        PrimOp::Sub
    })
}

fn cfg(entries: usize, ways: usize) -> ItlbConfig {
    ItlbConfig {
        l1: CacheConfig::new(entries, ways).unwrap(),
        l2: None,
    }
}

/// A deterministic stream of keys with a skewed (hot working set + tail)
/// distribution, like real dispatch traffic.
fn key_stream(n: usize) -> Vec<ItlbKey> {
    let mut x: u64 = 0x1985;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = if i % 4 != 0 {
            (x >> 33) % 16 // hot set: 16 signatures
        } else {
            (x >> 33) % 600 // tail: 600 signatures
        } as u16;
        out.push(key(k % 64, k / 64 + 1, 7));
    }
    out
}

#[test]
fn direct_mapped_single_line_conflicts() {
    // entries=1, ways=1: every distinct key conflicts with every other.
    let mut itlb = Itlb::new(cfg(1, 1));
    itlb.fill(key(1, 1, 1), method(0));
    assert_eq!(itlb.lookup(key(1, 1, 1)), Some(method(0)));
    itlb.fill(key(2, 2, 2), method(1));
    assert_eq!(itlb.lookup(key(2, 2, 2)), Some(method(1)));
    assert_eq!(itlb.lookup(key(1, 1, 1)), None, "conflict must evict");
    assert_eq!(itlb.l1_len(), 1);
    assert_eq!(itlb.l1_stats().evictions, 1);
}

#[test]
fn lru_within_a_set() {
    // Fully associative two-line cache: eviction order is pure LRU.
    let mut itlb = Itlb::new(cfg(2, 2));
    itlb.fill(key(1, 1, 1), method(1));
    itlb.fill(key(2, 2, 2), method(2));
    assert!(itlb.lookup(key(1, 1, 1)).is_some()); // 1 now most recent
    itlb.fill(key(3, 3, 3), method(3)); // evicts 2
    assert!(itlb.lookup(key(1, 1, 1)).is_some());
    assert!(itlb.lookup(key(3, 3, 3)).is_some());
    assert_eq!(itlb.lookup(key(2, 2, 2)), None, "LRU victim was 2");
}

#[test]
fn refill_replaces_in_place_without_eviction() {
    let mut itlb = Itlb::new(cfg(8, 2));
    itlb.fill(key(1, 1, 1), method(0));
    itlb.fill(key(1, 1, 1), method(1));
    assert_eq!(itlb.lookup(key(1, 1, 1)), Some(method(1)));
    assert_eq!(itlb.l1_len(), 1);
    assert_eq!(itlb.l1_stats().evictions, 0);
    assert_eq!(itlb.l1_stats().fills, 2);
}

#[test]
fn probe_array_matches_reference_when_fully_associative() {
    // With a single set, set-index hashing is irrelevant and both the probe
    // array and the generic cache implement plain LRU — they must agree
    // access for access.
    let mut probe = Itlb::new(cfg(16, 16));
    let mut reference: SetAssocCache<ItlbKey, MethodRef> =
        SetAssocCache::new(CacheConfig::new(16, 16).unwrap());
    for k in key_stream(20_000) {
        let a = probe.lookup(k);
        assert_eq!(a, reference.lookup(&k).copied(), "lookup diverged at {k}");
        if a.is_none() {
            let m = method(k.opcode.0);
            probe.fill(k, m);
            reference.fill(k, m);
        }
    }
    assert_eq!(probe.l1_stats(), reference.stats());
    assert_eq!(probe.l1_len(), reference.len());
}

#[test]
fn paper_geometry_absorbs_a_working_set() {
    // 512×2-way holds a dispatch working set far below capacity: after the
    // compulsory misses, everything hits ("a 99% hit ratio", §5).
    let mut itlb = Itlb::new(ItlbConfig::paper_default().unwrap());
    let keys: Vec<ItlbKey> = (0..100).map(|i| key(i % 64, i / 64 + 1, 3)).collect();
    for k in &keys {
        if itlb.lookup(*k).is_none() {
            itlb.fill(*k, method(k.opcode.0));
        }
    }
    itlb.reset_stats();
    for _ in 0..50 {
        for k in &keys {
            assert!(itlb.lookup(*k).is_some());
        }
    }
    let s = itlb.l1_stats();
    assert_eq!(s.misses, 0, "warm working set must not miss");
    assert_eq!(s.hits, 50 * keys.len() as u64);
}

#[test]
fn capacity_pressure_evicts_and_recovers() {
    // 600 distinct signatures through a 512-entry cache: evictions happen,
    // the cache stays bounded, and the skewed stream still mostly hits.
    let mut itlb = Itlb::new(ItlbConfig::paper_default().unwrap());
    let mut misses = 0u64;
    for k in key_stream(30_000) {
        if itlb.lookup(k).is_none() {
            misses += 1;
            itlb.fill(k, method(k.opcode.0));
        }
    }
    let s = itlb.l1_stats();
    assert!(s.evictions > 0, "over-capacity stream must evict");
    assert_eq!(s.misses, misses);
    assert!(itlb.l1_len() <= 512);
    let ratio = s.hits as f64 / (s.hits + s.misses) as f64;
    assert!(
        ratio > 0.80,
        "hit ratio {ratio:.3} too low for a skewed stream"
    );
}

#[test]
fn flush_empties_and_last_hit_tracks() {
    let mut itlb = Itlb::new(cfg(64, 2));
    let k = key(9, 9, 9);
    assert_eq!(itlb.lookup(k), None);
    assert_eq!(itlb.last_hit(), ItlbHit::Miss);
    itlb.fill(k, method(1));
    assert!(itlb.lookup(k).is_some());
    assert_eq!(itlb.last_hit(), ItlbHit::L1);
    itlb.flush();
    assert_eq!(itlb.l1_len(), 0);
    assert_eq!(itlb.lookup(k), None);
}

#[test]
fn two_level_demotion_and_promotion_with_probe_l1() {
    let config = ItlbConfig {
        l1: CacheConfig::new(2, 1).unwrap(),
        l2: Some(CacheConfig::new(128, 2).unwrap()),
    };
    let mut itlb = Itlb::new(config);
    // Far more keys than L1 holds: L1 victims demote to L2.
    let keys: Vec<ItlbKey> = (0..20).map(|i| key(i, i + 1, 2)).collect();
    for k in &keys {
        itlb.fill(*k, method(k.opcode.0));
    }
    let mut l2_hits = 0;
    for k in &keys {
        if itlb.lookup(*k).is_some() && itlb.last_hit() == ItlbHit::L2 {
            l2_hits += 1;
        }
    }
    assert!(l2_hits > 0, "L2 must serve L1 overflow");
}
