//! Machine configuration: geometry, cost parameters and ablation switches.
//! Each simulated structure has one implementation; the switches here
//! disable or resize a structure, never swap in a different one.

use com_cache::CacheConfig;
use com_fpa::FpaFormat;
use com_obj::{ItlbConfig, LookupCost};

/// Configuration of one COM instance.
///
/// The defaults reproduce the paper's machine: a 512×2-way ITLB (§5), a
/// 4096-entry 2-way instruction cache (§5 Figure 11), a 32-block context
/// cache (§2.3: "a context cache of this modest size would almost never
/// miss") with copyback enabled, and the §3.6 stall penalties. Every switch
/// exists for one of the paper's ablations (ITLB off, context cache off,
/// eager LIFO freeing off) or a GC cadence.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Virtual address format (COM 36-bit by default).
    pub format: FpaFormat,
    /// log2 of the absolute space size in words.
    pub space_log2: u8,
    /// ITLB geometry; `None` disables the ITLB entirely (ablation A1:
    /// every send pays the full association cost).
    pub itlb: Option<ItlbConfig>,
    /// Instruction cache geometry; `None` disables it (every fetch pays the
    /// miss penalty).
    pub icache: Option<CacheConfig>,
    /// Number of context cache blocks; `None` disables the context cache
    /// (ablation A2: contexts live in plain memory).
    pub ctx_blocks: Option<usize>,
    /// Enable the §2.3 copyback mechanism ("when only two blocks are free …
    /// the cache begins copying the LRU context back").
    pub copyback: bool,
    /// Free blocks at or below which copyback engages.
    pub copyback_low_water: usize,
    /// Treat read-after-write hazards (§3.6: the compiler must separate
    /// dependent instructions) as errors instead of one-cycle interlocks.
    pub strict_hazards: bool,
    /// Cycle cost of a full method lookup (charged on ITLB miss).
    pub lookup_cost: LookupCost,
    /// Cycles added by an instruction cache miss.
    pub icache_miss_penalty: u64,
    /// Cycles added by an `at:`/`at:put:` (or `new`/`grow`) memory access.
    pub memory_penalty: u64,
    /// Cycles to fault a context block in from memory (block fill).
    pub ctx_fault_penalty: u64,
    /// Steps between **minor** (nursery-only) collections; `None` disables
    /// periodic minor collection. When a step is a multiple of both the
    /// minor and a full interval, the full collection wins.
    pub gc_minor_interval: Option<u64>,
    /// Steps between automatic **full** garbage collections; `None`
    /// collects only when the free list and allocator are exhausted. When
    /// running generationally this is typically a large multiple of
    /// [`gc_minor_interval`](Self::gc_minor_interval).
    pub gc_full_interval: Option<u64>,
    /// Eagerly free LIFO contexts at return (§2.3). Disabling leaves every
    /// context to the garbage collector (half of experiment T5).
    pub eager_lifo_free: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            format: FpaFormat::COM,
            space_log2: 26,
            itlb: Some(ItlbConfig::paper_default().expect("paper geometry is valid")),
            icache: Some(CacheConfig::new(4096, 2).expect("paper geometry is valid")),
            ctx_blocks: Some(32),
            copyback: true,
            copyback_low_water: 2,
            strict_hazards: false,
            lookup_cost: LookupCost::default(),
            icache_miss_penalty: 8,
            memory_penalty: 4,
            ctx_fault_penalty: 32,
            gc_minor_interval: None,
            gc_full_interval: None,
            eager_lifo_free: true,
        }
    }
}

impl MachineConfig {
    /// The paper's configuration (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation A1: no ITLB — every abstract instruction pays the full
    /// association cost.
    pub fn without_itlb(mut self) -> Self {
        self.itlb = None;
        self
    }

    /// Ablation A2: no context cache — context words live in memory.
    pub fn without_context_cache(mut self) -> Self {
        self.ctx_blocks = None;
        self
    }

    /// Replaces the context cache block count.
    pub fn with_ctx_blocks(mut self, blocks: usize) -> Self {
        self.ctx_blocks = Some(blocks);
        self
    }

    /// Replaces the absolute-space size (`2^log2` words). Multi-tenant
    /// embeddings size each session's object space to its workload; the
    /// backing store is sparse, so this bounds addressability, not
    /// resident memory.
    pub fn with_space_log2(mut self, log2: u8) -> Self {
        self.space_log2 = log2;
        self
    }

    /// Disables eager LIFO context freeing (T5's GC-burden comparison).
    pub fn without_eager_lifo_free(mut self) -> Self {
        self.eager_lifo_free = false;
        self
    }

    /// Runs the garbage collector generationally: a minor (nursery-only)
    /// collection every `minor` steps and a full collection every `full`
    /// steps. Coincident steps run the full collection.
    pub fn with_generational_gc(mut self, minor: u64, full: u64) -> Self {
        self.gc_minor_interval = Some(minor);
        self.gc_full_interval = Some(full);
        self
    }

    /// Periodic minor collections only (full collections still run on
    /// allocator exhaustion).
    pub fn with_minor_gc_interval(mut self, minor: u64) -> Self {
        self.gc_minor_interval = Some(minor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_geometry() {
        let c = MachineConfig::default();
        let itlb = c.itlb.unwrap();
        assert_eq!(itlb.l1.entries(), 512);
        assert_eq!(itlb.l1.ways(), 2);
        let icache = c.icache.unwrap();
        assert_eq!(icache.entries(), 4096);
        assert_eq!(c.ctx_blocks, Some(32));
        assert!(c.copyback);
        assert!(c.eager_lifo_free);
    }

    #[test]
    fn generational_gc_builders() {
        let c = MachineConfig::paper().with_generational_gc(101, 809);
        assert_eq!(c.gc_minor_interval, Some(101));
        assert_eq!(c.gc_full_interval, Some(809));
        let c = MachineConfig::paper().with_minor_gc_interval(53);
        assert_eq!(c.gc_minor_interval, Some(53));
        assert_eq!(c.gc_full_interval, None);
    }

    #[test]
    fn ablation_builders() {
        let c = MachineConfig::paper()
            .without_itlb()
            .without_context_cache();
        assert!(c.itlb.is_none());
        assert!(c.ctx_blocks.is_none());
        let c = MachineConfig::paper().with_ctx_blocks(8);
        assert_eq!(c.ctx_blocks, Some(8));
    }
}
