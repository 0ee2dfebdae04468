//! Virtual → absolute translation with an ATLB.
//!
//! §3.1: "A virtual address is translated to an absolute address aided by an
//! address translation lookaside buffer (ATLB). … Because virtual addresses
//! may be aliased and objects may move in physical memory, it is
//! prohibitively expensive to directly cache the translation from virtual to
//! physical space. For this reason, the translation proceeds in two steps."

use std::collections::HashMap;

use com_cache::{CacheConfig, CacheStats, FlatCache};
use com_fpa::{Fpa, FpaFormat, SegmentName};

use crate::{AbsAddr, ClassId, MemError, SegmentDescriptor, TeamId, TeamSpace};

/// The result of a successful virtual→absolute translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The absolute address of the referenced word.
    pub abs: AbsAddr,
    /// The object's class (from the segment descriptor) — the 16-bit class
    /// tag cached alongside words in the context cache.
    pub class: ClassId,
    /// Whether the descriptor came from the ATLB (vs the segment table).
    pub atlb_hit: bool,
}

/// The memory management unit: team spaces plus the ATLB.
#[derive(Debug, Clone)]
pub struct Mmu {
    format: FpaFormat,
    teams: HashMap<TeamId, TeamSpace>,
    atlb: FlatCache<(TeamId, SegmentName), SegmentDescriptor>,
    bounds_traps: u64,
    forward_traps: u64,
}

impl Mmu {
    /// Default ATLB geometry: 64 entries, 2-way (a "modest" buffer in the
    /// spirit of §5's translation caches).
    pub const DEFAULT_ATLB_ENTRIES: usize = 64;

    /// Creates an MMU with no teams and the default ATLB.
    pub fn new(format: FpaFormat) -> Self {
        let cfg = CacheConfig::new(Self::DEFAULT_ATLB_ENTRIES, 2).expect("valid default");
        Self::with_atlb(format, cfg)
    }

    /// Creates an MMU with a custom ATLB geometry.
    pub fn with_atlb(format: FpaFormat, atlb: CacheConfig) -> Self {
        Mmu {
            format,
            teams: HashMap::new(),
            // The ATLB is probed on every translation — it lives in a
            // flat probe array with the fast hash. Its exact conflict
            // mapping is not a recorded figure (unlike the trace-replay
            // caches), so the set hash is free to be the fast one.
            atlb: FlatCache::new(atlb),
            bounds_traps: 0,
            forward_traps: 0,
        }
    }

    /// The address format in use.
    pub fn format(&self) -> FpaFormat {
        self.format
    }

    /// Creates a team space; replaces any existing team of the same id.
    pub fn create_team(&mut self, id: TeamId) -> &mut TeamSpace {
        self.teams.insert(id, TeamSpace::new(id, self.format));
        self.teams.get_mut(&id).expect("just inserted")
    }

    /// Borrows a team space.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownTeam`] if the team does not exist.
    pub fn team(&self, id: TeamId) -> Result<&TeamSpace, MemError> {
        self.teams.get(&id).ok_or(MemError::UnknownTeam(id))
    }

    /// Mutably borrows a team space.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownTeam`] if the team does not exist.
    pub fn team_mut(&mut self, id: TeamId) -> Result<&mut TeamSpace, MemError> {
        self.teams.get_mut(&id).ok_or(MemError::UnknownTeam(id))
    }

    /// Fetches the descriptor for `(team, segment)`, consulting the ATLB
    /// first and filling it from the segment table on a miss.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownTeam`] or [`MemError::UnknownSegment`].
    pub fn descriptor(
        &mut self,
        team: TeamId,
        segment: SegmentName,
    ) -> Result<(SegmentDescriptor, bool), MemError> {
        if let Some(d) = self.atlb.lookup(&(team, segment)) {
            return Ok((*d, true));
        }
        let space = self.teams.get(&team).ok_or(MemError::UnknownTeam(team))?;
        let desc = *space
            .table
            .get(segment)
            .ok_or(MemError::UnknownSegment { team, segment })?;
        self.atlb.fill((team, segment), desc);
        Ok((desc, false))
    }

    /// Translates a virtual address to an absolute address, performing the
    /// bounds check of §3.1. "All segments are aligned on absolute addresses
    /// which are multiples of their sizes so no add is required" — the
    /// offset is OR-ed into the base.
    ///
    /// # Errors
    ///
    /// * [`MemError::GrowthForward`] — *recoverable trap*: the object grew;
    ///   the returned `new` address names the same word under the new, wider
    ///   segment. Callers repair the faulting pointer and retry.
    /// * [`MemError::Bounds`] — offset beyond the object's length with no
    ///   forwarding installed.
    /// * [`MemError::UnknownTeam`] / [`MemError::UnknownSegment`].
    pub fn translate(&mut self, team: TeamId, addr: Fpa) -> Result<Translation, MemError> {
        let (desc, atlb_hit) = self.descriptor(team, addr.segment())?;
        let offset = addr.offset();
        if offset < desc.length {
            return Ok(Translation {
                // Alignment invariant: base is a multiple of the segment
                // capacity, so OR is equivalent to ADD.
                abs: AbsAddr(desc.base.0 | offset),
                class: desc.class,
                atlb_hit,
            });
        }
        if let Some(fwd) = desc.forward {
            self.forward_traps += 1;
            let new = fwd.with_offset(offset).unwrap_or_else(|_| fwd.base());
            return Err(MemError::GrowthForward { old: addr, new });
        }
        self.bounds_traps += 1;
        Err(MemError::Bounds {
            addr,
            offset,
            length: desc.length,
        })
    }

    /// Translation that transparently follows growth forwarding (bounded
    /// chain), returning the final translation and the repaired pointer if
    /// any forwarding occurred. This is the software analogue of the trap
    /// handler that "replaces the old segment number with the new segment
    /// number" (§2.2).
    ///
    /// # Errors
    ///
    /// Same as [`translate`](Self::translate), except `GrowthForward` is
    /// followed (up to 64 hops) rather than surfaced.
    pub fn translate_following(
        &mut self,
        team: TeamId,
        addr: Fpa,
    ) -> Result<(Translation, Option<Fpa>), MemError> {
        let mut current = addr;
        let mut repaired = None;
        for _ in 0..64 {
            match self.translate(team, current) {
                Ok(t) => return Ok((t, repaired)),
                Err(MemError::GrowthForward { new, .. }) => {
                    current = new;
                    repaired = Some(new);
                }
                Err(e) => return Err(e),
            }
        }
        Err(MemError::Bounds {
            addr: current,
            offset: current.offset(),
            length: 0,
        })
    }

    /// Invalidates any ATLB entry for `(team, segment)` — required when a
    /// descriptor changes (growth, free, GC).
    pub fn invalidate(&mut self, team: TeamId, segment: SegmentName) {
        self.atlb.invalidate(&(team, segment));
    }

    /// ATLB statistics.
    pub fn atlb_stats(&self) -> CacheStats {
        self.atlb.stats()
    }

    /// Resets ATLB statistics (warmup boundary).
    pub fn reset_atlb_stats(&mut self) {
        self.atlb.reset_stats();
    }

    /// Bounds traps taken (non-recoverable).
    pub fn bounds_traps(&self) -> u64 {
        self.bounds_traps
    }

    /// Growth-forwarding traps taken (recoverable, §2.2).
    pub fn forward_traps(&self) -> u64 {
        self.forward_traps
    }

    /// Iterates over all team ids.
    pub fn team_ids(&self) -> impl Iterator<Item = TeamId> + '_ {
        self.teams.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_fpa::FpaFormat;

    fn setup() -> (Mmu, TeamId, Fpa) {
        let mut mmu = Mmu::new(FpaFormat::COM);
        let team = TeamId(0);
        mmu.create_team(team);
        let ts = mmu.team_mut(team).unwrap();
        let addr = ts.names.alloc_for_size(20).unwrap(); // exp 5, cap 32
        ts.table.insert(
            addr.segment(),
            SegmentDescriptor::new(AbsAddr(0x40), 20, ClassId(9)),
        );
        (mmu, team, addr)
    }

    #[test]
    fn translate_ors_offset_into_base() {
        let (mut mmu, team, addr) = setup();
        let t = mmu.translate(team, addr.with_offset(5).unwrap()).unwrap();
        assert_eq!(t.abs, AbsAddr(0x45));
        assert_eq!(t.class, ClassId(9));
        assert!(!t.atlb_hit, "first access misses the ATLB");
        let t2 = mmu.translate(team, addr.with_offset(6).unwrap()).unwrap();
        assert!(t2.atlb_hit, "second access hits the ATLB");
    }

    #[test]
    fn bounds_check_uses_length_not_capacity() {
        let (mut mmu, team, addr) = setup();
        // length is 20, capacity 32: offset 25 is in capacity but OOB.
        let bad = addr.with_offset(25).unwrap();
        assert!(matches!(
            mmu.translate(team, bad),
            Err(MemError::Bounds {
                offset: 25,
                length: 20,
                ..
            })
        ));
        assert_eq!(mmu.bounds_traps(), 1);
    }

    #[test]
    fn unknown_segment_and_team() {
        let (mut mmu, team, addr) = setup();
        let stray = Fpa::from_segment(SegmentName::new(7, 99), 0, FpaFormat::COM).unwrap();
        assert!(matches!(
            mmu.translate(team, stray),
            Err(MemError::UnknownSegment { .. })
        ));
        assert!(matches!(
            mmu.translate(TeamId(42), addr),
            Err(MemError::UnknownTeam(TeamId(42)))
        ));
    }

    #[test]
    fn growth_forwarding_trap_carries_new_address() {
        let (mut mmu, team, addr) = setup();
        // Install forwarding to a wider segment as grow() would.
        let new_base = {
            let ts = mmu.team_mut(team).unwrap();
            let new = ts.names.alloc_for_size(64).unwrap();
            ts.table.insert(
                new.segment(),
                SegmentDescriptor::new(AbsAddr(0x100), 50, ClassId(9)),
            );
            let old = ts.table.get_mut(addr.segment()).unwrap();
            old.forward = Some(new);
            new
        };
        mmu.invalidate(team, addr.segment());
        // In-bounds accesses through the old name still work.
        assert!(mmu.translate(team, addr.with_offset(10).unwrap()).is_ok());
        // Out-of-old-bounds access traps with the repaired pointer.
        let stale = addr.with_offset(25).unwrap();
        match mmu.translate(team, stale) {
            Err(MemError::GrowthForward { old, new }) => {
                assert_eq!(old, stale);
                assert_eq!(new.segment(), new_base.segment());
                assert_eq!(new.offset(), 25);
            }
            other => panic!("expected GrowthForward, got {other:?}"),
        }
        assert_eq!(mmu.forward_traps(), 1);
        // The following variant repairs transparently.
        let (t, repaired) = mmu.translate_following(team, stale).unwrap();
        assert_eq!(t.abs, AbsAddr(0x100 | 25));
        assert_eq!(repaired.unwrap().segment(), new_base.segment());
    }

    #[test]
    fn invalidate_forces_table_walk() {
        let (mut mmu, team, addr) = setup();
        mmu.translate(team, addr).unwrap();
        mmu.invalidate(team, addr.segment());
        let t = mmu.translate(team, addr).unwrap();
        assert!(!t.atlb_hit);
    }
}
