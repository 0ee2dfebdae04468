//! Layer counters read from a session's public stats accessors.

use com_vm::Session;

/// Cumulative simulated-machine counters of one session, grouped by the
/// crate that keeps them. Subtract two snapshots with [`since`](Self::since)
/// to attribute work to the calls between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `core`: simulated instructions retired.
    pub instructions: u64,
    /// `core`: full (ITLB-missing) method lookups.
    pub full_lookups: u64,
    /// `core`: traps dispatched to software handlers.
    pub soft_traps: u64,
    /// `obj`: ITLB hits.
    pub itlb_hits: u64,
    /// `obj`: ITLB accesses.
    pub itlb_accesses: u64,
    /// `cache`: instruction-cache hits.
    pub icache_hits: u64,
    /// `cache`: instruction-cache accesses.
    pub icache_accesses: u64,
    /// `core`: context-cache directory hits.
    pub dir_hits: u64,
    /// `core`: context-cache directory lookups.
    pub dir_lookups: u64,
    /// `core`: context-cache faults.
    pub ctx_faults: u64,
    /// `core`: context-cache copy-backs.
    pub ctx_copybacks: u64,
    /// `mem`: minor collections.
    pub gc_minor: u64,
    /// `mem`: full collections.
    pub gc_full: u64,
    /// `mem`: words scanned by collections.
    pub gc_scanned: u64,
    /// `mem`: words freed by collections.
    pub gc_freed: u64,
}

impl Counters {
    /// The session's counters now.
    pub fn of(session: &Session) -> Counters {
        let stats = session.stats();
        let itlb = session.itlb_stats().unwrap_or_default();
        let icache = session.icache_stats().unwrap_or_default();
        let ctx = session.ctx_cache_stats().unwrap_or_default();
        let gc = session.gc_totals();
        Counters {
            instructions: stats.instructions,
            full_lookups: stats.full_lookups,
            soft_traps: stats.soft_traps,
            itlb_hits: itlb.hits,
            itlb_accesses: itlb.accesses(),
            icache_hits: icache.hits,
            icache_accesses: icache.accesses(),
            dir_hits: ctx.directory_hits,
            dir_lookups: ctx.directory_lookups,
            ctx_faults: ctx.faults,
            ctx_copybacks: ctx.copybacks,
            gc_minor: gc.minor_collections,
            gc_full: gc.full_collections,
            gc_scanned: gc.minor_words_scanned + gc.full_words_scanned,
            gc_freed: gc.minor_words_freed + gc.full_words_freed,
        }
    }

    fn zip(self, o: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            instructions: f(self.instructions, o.instructions),
            full_lookups: f(self.full_lookups, o.full_lookups),
            soft_traps: f(self.soft_traps, o.soft_traps),
            itlb_hits: f(self.itlb_hits, o.itlb_hits),
            itlb_accesses: f(self.itlb_accesses, o.itlb_accesses),
            icache_hits: f(self.icache_hits, o.icache_hits),
            icache_accesses: f(self.icache_accesses, o.icache_accesses),
            dir_hits: f(self.dir_hits, o.dir_hits),
            dir_lookups: f(self.dir_lookups, o.dir_lookups),
            ctx_faults: f(self.ctx_faults, o.ctx_faults),
            ctx_copybacks: f(self.ctx_copybacks, o.ctx_copybacks),
            gc_minor: f(self.gc_minor, o.gc_minor),
            gc_full: f(self.gc_full, o.gc_full),
            gc_scanned: f(self.gc_scanned, o.gc_scanned),
            gc_freed: f(self.gc_freed, o.gc_freed),
        }
    }

    /// The work done between `base` and `self`.
    pub fn since(self, base: Counters) -> Counters {
        self.zip(base, u64::wrapping_sub)
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Counters) {
        *self = self.zip(other, u64::wrapping_add);
    }
}
