//! The COM machine: registers, interpretation loop, traps.
//!
//! # Architectural statistics vs. wall-clock speed
//!
//! The machine keeps two notions of time that must never be confused:
//!
//! * **Architectural cycles** ([`CycleStats`], the cache hit/miss counters)
//!   model the *hardware the paper describes*. They are semantics: every
//!   optimisation of this simulator must leave them bit-identical on a
//!   given program. The regression tests in `tests/interp_fastpath.rs`
//!   enforce this by running the same workload through both interpreter
//!   loops.
//! * **Wall-clock speed** is how fast the simulator itself executes. The
//!   hot loop is free to change shape for wall-clock speed — and does:
//!   [`Machine::run`] is a *threaded* loop that borrows the current
//!   decoded method across the inner loop, re-fetching it only on
//!   call/return/xfer, resolves operands from their decode-time lowered
//!   form ([`LowOperand`]: context-slot offsets pre-biased, constants
//!   pre-fetched), dispatches through the direct-mapped ITLB probe array,
//!   and batches the per-instruction counters into loop-locals that are
//!   flushed at run end, trap, or control transfer.
//!
//! [`Machine::step`] (and [`Machine::run_stepwise`], which drives it) is
//! the reference interpreter: one instruction per call with every
//! invariant re-established from machine state, over the same simulated
//! structures as the threaded loop. It is the oracle the differential
//! tests compare the threaded loop to, and the baseline the bench
//! pipeline (`BENCH_interp.json`) measures it against.

// The hot paths repeatedly need one field of `self` (a context register)
// while `self.cc` is known-present; `if self.cc.is_some()` + a later
// `expect` keeps those borrows disjoint where `if let` could not.
#![allow(clippy::unnecessary_unwrap)]

use std::collections::{HashMap, HashSet};

use std::sync::Arc;

use com_cache::{AddrSet, CacheStats, FxBuildHasher};
use com_fpa::{Fpa, SegmentName};
use com_isa::{CodeObject, Instr, Opcode, OpcodeTable, Operand, PrimOp};
use com_mem::{
    gc,
    gc::{GcKind, GcStats},
    AbsAddr, AllocKind, ClassId, MemError, ObjectSpace, TeamId, Word,
};
use com_obj::{
    lookup_method, lookup_trap_handler, AtomTable, ClassTable, DefinedMethod, Itlb, ItlbKey,
    MethodRef, TrapSelector,
};

use crate::{
    ContextCache, CtxCacheStats, CycleStats, MachineConfig, MachineError, ProgramImage,
    CONTEXT_WORDS, CTX_ARG0, CTX_ARG1, CTX_RCP, CTX_RIP, OPERAND_BIAS,
};

/// An operand in its decode-time lowered form: context-mode operands carry
/// their final (bias-applied) context word offset, constant-mode operands
/// are pre-resolved to the value and class they will always produce. The
/// per-step translation work of [`Operand`] — mode match, bias add,
/// constant-table index — happens once, at decode.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LowOperand {
    /// Current-context slot (raw context word offset, bias applied).
    Cur(u64),
    /// Next-context slot (raw context word offset, bias applied).
    Next(u64),
    /// Constant, resolved against the method's constant table at decode.
    Imm(Word, ClassId),
    /// Constant index beyond the method's table (the index is carried for
    /// the trap). Kept as a lowered form — not a decode error — because
    /// the reference interpreter only traps this if the instruction
    /// actually executes.
    BadConst(u8),
}

/// A context-slot hazard source: (reads next context?, raw word offset).
type HazardSrc = Option<(bool, u64)>;

/// One instruction with its operands pre-lowered (§3.6 fast path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LowInstr {
    /// The original instruction (generic execution paths match on it).
    instr: Instr,
    /// Lowered A operand (three-address form only) — the destination, or
    /// the result-pointer slot when the return bit is set.
    a: LowOperand,
    /// Lowered B source (three-address form only).
    b: LowOperand,
    /// Lowered C source (three-address form only).
    c: LowOperand,
    /// Destination slot for the pure-data fast path: present when the
    /// instruction is three-address, does not return, and writes a
    /// context slot. `(next context?, raw word offset)`.
    dest: Option<(bool, u64)>,
    /// The context-mode source slots, for the §3.6 read-after-write hazard
    /// check: an O(1) compare of precomputed slots against the previous
    /// instruction's destination.
    hazards: [HazardSrc; 2],
}

impl LowInstr {
    fn lower_src(op: Operand, consts: &[(Word, ClassId)]) -> LowOperand {
        match op {
            Operand::Cur(o) => LowOperand::Cur(o as u64 + OPERAND_BIAS),
            Operand::Next(o) => LowOperand::Next(o as u64 + OPERAND_BIAS),
            Operand::Const(i) => match consts.get(i as usize) {
                Some((w, c)) => LowOperand::Imm(*w, *c),
                None => LowOperand::BadConst(i),
            },
        }
    }

    fn hazard_src(op: Operand) -> HazardSrc {
        match op {
            Operand::Cur(o) => Some((false, o as u64 + OPERAND_BIAS)),
            Operand::Next(o) => Some((true, o as u64 + OPERAND_BIAS)),
            Operand::Const(_) => None,
        }
    }

    fn lower(instr: Instr, consts: &[(Word, ClassId)]) -> LowInstr {
        match instr {
            Instr::Three { op, ret, a, b, c } => LowInstr {
                instr,
                a: Self::lower_src(a, consts),
                b: Self::lower_src(b, consts),
                c: Self::lower_src(c, consts),
                dest: if ret || op == Opcode::FJMP || op == Opcode::RJMP || op == Opcode::ATPUT {
                    None
                } else {
                    match a {
                        Operand::Cur(o) => Some((false, o as u64 + OPERAND_BIAS)),
                        Operand::Next(o) => Some((true, o as u64 + OPERAND_BIAS)),
                        Operand::Const(_) => None,
                    }
                },
                hazards: [Self::hazard_src(b), Self::hazard_src(c)],
            },
            Instr::Zero { nargs, .. } => LowInstr {
                instr,
                a: LowOperand::Imm(Word::Uninit, ClassId::NONE),
                b: LowOperand::Imm(Word::Uninit, ClassId::NONE),
                c: LowOperand::Imm(Word::Uninit, ClassId::NONE),
                dest: None,
                // Implicit operands arg1, arg2 of the next context.
                hazards: [
                    if nargs >= 1 {
                        Some((true, 1 + OPERAND_BIAS))
                    } else {
                        None
                    },
                    if nargs >= 2 {
                        Some((true, 2 + OPERAND_BIAS))
                    } else {
                        None
                    },
                ],
            },
        }
    }
}

/// The position-independent payload of a decoded method: the lowered
/// instruction stream and the pre-classed constant table. Bodies carry no
/// memory addresses, so one body can back the same method in any number of
/// machines — [`crate::LoadedImage`] pre-decodes every method once and
/// every [`Machine::load_image`] call binds the shared bodies to that
/// machine's stored code objects without re-decoding.
#[derive(Debug)]
pub(crate) struct DecodedBody {
    pub(crate) consts: Vec<(Word, ClassId)>,
    /// The instruction stream in decode-time lowered form; the original
    /// [`Instr`] rides along in each entry for the generic paths.
    pub(crate) low: Vec<LowInstr>,
    #[allow(dead_code)]
    pub(crate) n_args: u8,
}

impl DecodedBody {
    /// Decodes a [`CodeObject`] directly (no machine, no memory reads).
    /// Returns `None` when the method cannot be decoded
    /// position-independently — a constant without a primitive class
    /// (i.e. a pointer) needs the owning machine's space to classify, so
    /// such methods fall back to the per-machine lazy decode.
    pub(crate) fn from_code(code: &CodeObject) -> Option<DecodedBody> {
        let mut consts = Vec::with_capacity(code.consts.len());
        for w in &code.consts {
            consts.push((*w, w.primitive_class()?));
        }
        let low = code
            .instrs
            .iter()
            .map(|i| LowInstr::lower(*i, &consts))
            .collect();
        Some(DecodedBody {
            consts,
            low,
            n_args: code.n_args,
        })
    }
}

/// A decoded, resident method (simulator-side cache; the architectural
/// instruction cache is modelled separately for timing). Entries live in
/// the machine's decoded-method slab and are reached from an ITLB hit by
/// array index (the small integer carried in [`DefinedMethod::slab`]).
/// The per-machine part is just the binding — base capability and
/// absolute base of the stored code object; the body may be shared with
/// other machines through a [`crate::LoadedImage`].
#[derive(Debug)]
struct Decoded {
    /// Base capability of the stored code object.
    base: Fpa,
    /// Its absolute base (code objects are GC roots and the collector is
    /// non-moving, so this stays valid for the machine's lifetime).
    abs: AbsAddr,
    /// The decoded instruction stream and constants (possibly shared).
    body: Arc<DecodedBody>,
}

/// A context register: virtual address plus its pretranslated absolute base
/// ("the CP, NCP, and IP are pre-translated to absolute addresses and are
/// cached in special hardware registers", §3.6).
#[derive(Debug, Clone, Copy)]
struct CtxReg {
    fpa: Fpa,
    abs: AbsAddr,
    /// Context cache block index, when the context cache is enabled.
    block: Option<usize>,
}

/// One memoized frame of the dynamic call chain (see `Machine::shadow`).
#[derive(Debug, Clone, Copy)]
struct ShadowFrame {
    /// The caller's context register at call time.
    reg: CtxReg,
    /// The continuation stored into the caller's RIP slot.
    rip: Fpa,
    /// Decoded-slab slot of the caller's method.
    slab: u32,
}

/// Aggregate garbage-collection work across a machine's lifetime, split by
/// generation. Simulator-side observability (bench pipeline, reports) —
/// the *architectural* cost lives in [`CycleStats::gc_cycles`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcTotals {
    /// Minor (nursery-only) collections run.
    pub minor_collections: u64,
    /// Full collections run.
    pub full_collections: u64,
    /// Words scanned by minor collections.
    pub minor_words_scanned: u64,
    /// Words scanned by full collections.
    pub full_words_scanned: u64,
    /// Words freed by minor collections.
    pub minor_words_freed: u64,
    /// Words freed by full collections.
    pub full_words_freed: u64,
    /// Segments swept by minor collections.
    pub minor_segments_swept: u64,
    /// Segments swept by full collections.
    pub full_segments_swept: u64,
    /// Nursery survivors promoted to the tenured generation.
    pub promoted_segments: u64,
}

impl GcTotals {
    fn absorb(&mut self, st: &GcStats) {
        if st.minor {
            self.minor_collections += 1;
            self.minor_words_scanned += st.words_scanned;
            self.minor_words_freed += st.words_freed;
            self.minor_segments_swept += st.swept_segments;
        } else {
            self.full_collections += 1;
            self.full_words_scanned += st.words_scanned;
            self.full_words_freed += st.words_freed;
            self.full_segments_swept += st.swept_segments;
        }
        self.promoted_segments += st.promoted_segments;
    }

    /// Total words scanned across both generations.
    pub fn words_scanned(&self) -> u64 {
        self.minor_words_scanned + self.full_words_scanned
    }

    /// Total words freed across both generations.
    pub fn words_freed(&self) -> u64 {
        self.minor_words_freed + self.full_words_freed
    }
}

/// The outcome of a bounded run ([`Machine::run_for`]): done, or out of
/// budget with the machine ready to resume.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The entry send returned; the machine halted with this result.
    Done(RunResult),
    /// The step budget was exhausted mid-program. Machine state (registers,
    /// caches, GC cadence, statistics) is consistent; call
    /// [`Machine::run_for`] again to continue.
    OutOfBudget,
}

/// The outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The value the entry send stored through its result pointer.
    pub result: Word,
    /// Cycle accounting for the run.
    pub stats: CycleStats,
    /// Instructions executed.
    pub steps: u64,
}

/// One dispatch as observed at the ITLB boundary: the current method's
/// code base capability, the program counter, and the translation key
/// the machine is about to resolve.
#[derive(Debug, Clone, Copy)]
pub struct DispatchEvent {
    /// Code base capability of the method executing the send.
    pub method: Fpa,
    /// Program counter within that method.
    pub pc: u64,
    /// The ITLB key built from the opcode and operand class tags.
    pub key: ItlbKey,
}

/// A callback invoked on every instruction dispatch, before ITLB
/// translation — instrumentation for differential testing and trace
/// capture. Both interpreter paths (the generic `step` loop and the
/// lowered threaded loop) report through it; when none is installed the
/// hot loops pay only an `is_some` check.
pub struct DispatchObserver(Box<dyn FnMut(DispatchEvent) + Send>);

impl std::fmt::Debug for DispatchObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DispatchObserver(..)")
    }
}

/// The Caltech Object Machine.
///
/// ```
/// use com_core::{Machine, MachineConfig, ProgramImage};
/// use com_isa::{Assembler, Opcode, Operand};
/// use com_mem::{ClassId, Word};
///
/// # fn main() -> Result<(), com_core::MachineError> {
/// // A method on SmallInteger: "double" answers self + self.
/// let mut image = ProgramImage::empty();
/// let sel = image.opcodes.intern("double");
/// let mut asm = Assembler::new("SmallInteger>>double", 1);
/// // c2 <- c1 + c1 ; return c2 via the result pointer in c0
/// asm.emit_three(Opcode::ADD, Operand::Cur(2), Operand::Cur(1), Operand::Cur(1))?;
/// asm.emit_three_ret(Opcode::MOVE, Operand::Cur(0), Operand::Cur(2), Operand::Cur(2))?;
/// image.add_method(ClassId::SMALL_INT, sel, asm.finish()?);
///
/// let mut m = Machine::new(MachineConfig::default());
/// m.load(&image)?;
/// let out = m.send("double", Word::Int(21), &[], 10_000)?;
/// assert_eq!(out.result, Word::Int(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    space: ObjectSpace,
    team: TeamId,
    classes: ClassTable,
    atoms: AtomTable,
    opcodes: OpcodeTable,
    itlb: Option<Itlb>,
    icache: Option<AddrSet>,
    cc: Option<ContextCache>,
    /// Decoded-method slab: a resident-method hit is one array index.
    decoded: Vec<Arc<Decoded>>,
    /// Cold-path index (code virtual base → slab slot), consulted only
    /// when a dictionary entry has not been resolved to a slab slot yet
    /// (and on shadow-miss returns, to re-enter the caller's method).
    decoded_index: HashMap<u64, u32, FxBuildHasher>,
    code_roots: Vec<Fpa>,
    context_class: ClassId,
    cp: Option<CtxReg>,
    ncp: Option<CtxReg>,
    /// FP register: the free context list (simulated as a vector; each
    /// alloc/free is the paper's single memory reference).
    free_list: Vec<CtxReg>,
    /// Segments of contexts whose pointers escaped into heap objects —
    /// non-LIFO contexts that must be left to the garbage collector.
    escaped: HashSet<SegmentName, FxBuildHasher>,
    /// Simulator-side memo of the dynamic call chain: the caller's context
    /// register, continuation, and decoded-method slot are pushed at call
    /// and popped at return, so a LIFO return reuses the pretranslated
    /// caller base and re-enters the caller's method by slab index instead
    /// of re-translating. Purely an acceleration: entries are validated
    /// against the RCP/RIP actually read from the context, and the stack
    /// is discarded on any non-LIFO control flow (xfer, mismatch) and on
    /// GC (segment names can be recycled after a sweep).
    shadow: Vec<ShadowFrame>,
    /// Slab slot of the method `ip` currently points into.
    cur_slab: u32,
    /// Current method: base capability, absolute base, program counter.
    ip: Option<(Fpa, AbsAddr, Arc<Decoded>)>,
    /// Bumped on every control transfer (call/return/xfer/entry). The
    /// threaded loop snapshots this to know when its borrowed decoded
    /// method is stale and must be re-fetched.
    ip_gen: u64,
    pc: u64,
    privileged: bool,
    /// Code root of the current send's synthesized entry method, released
    /// (un-rooted, decode caches purged) once the send halts.
    entry_base: Option<Fpa>,
    /// Reusable slab slot for synthesized entry methods, so repeated sends
    /// do not grow the decoded-method slab.
    entry_slab: Option<u32>,
    result_cell: Option<Fpa>,
    last_dest: Option<(AbsAddr, u64)>,
    stats: CycleStats,
    gc_totals: GcTotals,
    steps: u64,
    halted: Option<Word>,
    observer: Option<DispatchObserver>,
}

impl Machine {
    /// Creates a machine with standard primitives installed and one team.
    pub fn new(config: MachineConfig) -> Self {
        let space = ObjectSpace::new(config.space_log2, config.format);
        let mut classes = ClassTable::new();
        com_obj::install_standard_primitives(&mut classes);
        let context_class = classes
            .define("Context", Some(ClassTable::OBJECT), 0)
            .expect("fresh table");
        Self::assemble(config, space, classes, context_class)
    }

    /// Boots a machine directly from a pre-decoded [`crate::LoadedImage`]
    /// — the cheapest constructor. When the image's pre-booted template
    /// matches `config`'s space geometry, the machine is assembled around
    /// clones of the template's space, class table and decoded slab;
    /// [`new`](Self::new)'s throwaway table and space are never built.
    /// Otherwise this is exactly `Machine::new` + [`load_image`]
    /// (Self::load_image).
    ///
    /// [`load_image`]: Self::load_image
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the fallback path.
    pub fn boot(
        config: MachineConfig,
        loaded: &crate::LoadedImage,
    ) -> Result<Machine, MachineError> {
        match loaded.template_for(config.format, config.space_log2) {
            Some(t) => {
                let space = t.space.lock().expect("template lock").clone();
                let mut m = Self::assemble(config, space, t.classes.clone(), t.context_class);
                m.finish_template_adopt(loaded, t);
                Ok(m)
            }
            None => {
                let mut m = Machine::new(config);
                m.load_image(loaded)?;
                Ok(m)
            }
        }
    }

    /// The common constructor tail: every register, cache and counter in
    /// its boot state around the given space and class table.
    fn assemble(
        config: MachineConfig,
        space: ObjectSpace,
        classes: ClassTable,
        context_class: ClassId,
    ) -> Machine {
        Machine {
            itlb: config.itlb.map(Itlb::new),
            icache: config.icache.map(AddrSet::new),
            cc: config.ctx_blocks.map(ContextCache::new),
            config,
            space,
            team: TeamId(0),
            classes,
            atoms: AtomTable::new(),
            opcodes: OpcodeTable::new(),
            decoded: Vec::new(),
            decoded_index: HashMap::default(),
            code_roots: Vec::new(),
            context_class,
            cp: None,
            ncp: None,
            free_list: Vec::new(),
            escaped: HashSet::default(),
            shadow: Vec::new(),
            cur_slab: DefinedMethod::UNRESOLVED,
            ip: None,
            ip_gen: 0,
            pc: 0,
            privileged: false,
            entry_base: None,
            entry_slab: None,
            result_cell: None,
            last_dest: None,
            stats: CycleStats::default(),
            gc_totals: GcTotals::default(),
            steps: 0,
            halted: None,
            observer: None,
        }
    }

    /// Loads a program image: adopts its class hierarchy and interning
    /// tables, stores every method's code object, and installs the defined
    /// methods into the class dictionaries.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn load(&mut self, image: &ProgramImage) -> Result<(), MachineError> {
        self.adopt_tables(image);
        for m in &image.methods {
            let base = m.code.store(&mut self.space, self.team)?;
            self.code_roots.push(base);
            self.classes.install(
                m.class,
                m.selector,
                MethodRef::Defined(DefinedMethod::new(base, m.code.n_args)),
            );
        }
        // Loading an image invalidates every decoded method: slab slots
        // cached in the ITLB would otherwise dangle into the old program.
        self.invalidate_decoded();
        Ok(())
    }

    /// Loads a pre-decoded [`crate::LoadedImage`]: adopts its tables, stores every
    /// method's code object, and installs **pre-resolved** defined methods
    /// whose decoded-slab entries reuse the image's shared bodies.
    ///
    /// This is the cheap multi-tenant boot path: the expensive work —
    /// compiling, decoding, operand lowering — was done once when the
    /// [`crate::LoadedImage`] was prepared, and is shared (via `Arc`) by every
    /// machine loaded from it. Only the per-machine state is built here:
    /// code words stored into this machine's object space and the slab
    /// bound to their addresses.
    ///
    /// Architectural behaviour and [`CycleStats`] are identical to
    /// [`load`](Self::load) followed by lazy decodes — decode work is
    /// simulator-side and charges no cycles.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn load_image(&mut self, loaded: &crate::LoadedImage) -> Result<(), MachineError> {
        let image = loaded.image();
        // Fast boot: a pristine machine whose geometry matches the image's
        // pre-booted template adopts the template wholesale — the space
        // with code already stored, the installed class table, and the
        // decoded slab are each one clone. (A machine that already holds
        // objects must not have its space replaced; it takes the
        // store-per-method path below.)
        let pristine = self.space.memory().buddy().live_blocks() == 0;
        if pristine {
            if let Some(t) = loaded.template_for(self.config.format, self.config.space_log2) {
                self.invalidate_decoded();
                self.space = t.space.lock().expect("template lock").clone();
                self.classes = t.classes.clone();
                self.context_class = t.context_class;
                self.code_roots.clear();
                self.finish_template_adopt(loaded, t);
                return Ok(());
            }
        }
        self.adopt_tables(image);
        self.invalidate_decoded();
        let decoded = &mut self.decoded;
        let decoded_index = &mut self.decoded_index;
        crate::loaded::store_and_install(
            &mut self.space,
            self.team,
            &mut self.classes,
            image,
            |i| loaded.body(i),
            &mut self.code_roots,
            |base, abs, body| {
                let id = u32::try_from(decoded.len()).expect("slab outgrew u32");
                decoded.push(Arc::new(Decoded { base, abs, body }));
                decoded_index.insert(base.raw(), id);
                id
            },
        )?;
        Ok(())
    }

    /// The shared tail of template adoption: interning tables, code
    /// roots, and the decoded slab (classes, context class and space are
    /// already in place).
    fn finish_template_adopt(
        &mut self,
        loaded: &crate::LoadedImage,
        t: &crate::loaded::BootTemplate,
    ) {
        self.atoms = loaded.image().atoms.clone();
        self.opcodes = loaded.image().opcodes.clone();
        self.code_roots.extend_from_slice(&t.code_roots);
        self.decoded = t
            .slab
            .iter()
            .map(|(base, abs, body)| {
                Arc::new(Decoded {
                    base: *base,
                    abs: *abs,
                    body: Arc::clone(body),
                })
            })
            .collect();
        self.decoded_index = t.index.clone();
    }

    /// Adopts an image's class hierarchy and interning tables.
    fn adopt_tables(&mut self, image: &ProgramImage) {
        self.classes = image.classes.clone();
        self.atoms = image.atoms.clone();
        self.opcodes = image.opcodes.clone();
        self.context_class = match self.classes.by_name("Context") {
            Some(c) => c,
            None => self
                .classes
                .define("Context", Some(ClassTable::OBJECT), 0)
                .expect("name free"),
        };
    }

    /// Drops every decoded method (and the caches that reach them): slab
    /// slots cached in the ITLB would otherwise dangle into an old program.
    fn invalidate_decoded(&mut self) {
        self.release_entry();
        self.decoded.clear();
        self.decoded_index.clear();
        self.shadow.clear();
        self.cur_slab = DefinedMethod::UNRESOLVED;
        self.entry_slab = None;
        if let Some(itlb) = &mut self.itlb {
            itlb.flush();
        }
    }

    /// The class table (inspection).
    pub fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// The atom table (inspection).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// The selector table (inspection).
    pub fn opcodes(&self) -> &OpcodeTable {
        &self.opcodes
    }

    /// The object space (inspection: allocation stats, ATLB stats).
    pub fn space(&self) -> &ObjectSpace {
        &self.space
    }

    /// Mutable object space access (test setup, workload data).
    pub fn space_mut(&mut self) -> &mut ObjectSpace {
        &mut self.space
    }

    /// The machine's team.
    pub fn team(&self) -> TeamId {
        self.team
    }

    /// The class used for contexts.
    pub fn context_class(&self) -> ClassId {
        self.context_class
    }

    /// Cycle statistics so far.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Aggregate garbage-collection work so far, split by generation.
    pub fn gc_totals(&self) -> GcTotals {
        self.gc_totals
    }

    /// ITLB first-level statistics, if an ITLB is configured.
    pub fn itlb_stats(&self) -> Option<CacheStats> {
        self.itlb.as_ref().map(|t| t.l1_stats())
    }

    /// Instruction cache statistics, if configured.
    pub fn icache_stats(&self) -> Option<CacheStats> {
        self.icache.as_ref().map(AddrSet::stats)
    }

    /// Context cache statistics, if configured.
    pub fn ctx_cache_stats(&self) -> Option<CtxCacheStats> {
        self.cc.as_ref().map(|c| c.stats())
    }

    /// Resets all statistics (warmup boundary); contents stay resident.
    pub fn reset_stats(&mut self) {
        self.stats = CycleStats::default();
        self.gc_totals = GcTotals::default();
        if let Some(t) = &mut self.itlb {
            t.reset_stats();
        }
        if let Some(c) = &mut self.icache {
            c.reset_stats();
        }
        if let Some(c) = &mut self.cc {
            c.reset_stats();
        }
    }

    /// Grants or revokes the PS privilege bit (`as:` legality, §3.3).
    pub fn set_privileged(&mut self, p: bool) {
        self.privileged = p;
    }

    /// Interns a selector (delegates to the opcode table).
    pub fn intern_selector(&mut self, name: &str) -> Opcode {
        self.opcodes.intern(name)
    }

    // ------------------------------------------------------------------
    // Word classes
    // ------------------------------------------------------------------

    fn class_of_word(&mut self, w: &Word) -> Result<ClassId, MachineError> {
        match w.primitive_class() {
            Some(c) => Ok(c),
            None => {
                let p = w.as_ptr().expect("only pointers lack primitive class");
                Ok(self.space.class_of(self.team, p)?)
            }
        }
    }

    // ------------------------------------------------------------------
    // Context access
    // ------------------------------------------------------------------

    #[inline]
    fn ctx_reg(&self, next: bool) -> Result<CtxReg, MachineError> {
        let r = if next { self.ncp } else { self.cp };
        r.ok_or(MachineError::NoContext)
    }

    #[inline(always)]
    fn ctx_read_raw(&mut self, next: bool, off: u64) -> Result<(Word, ClassId), MachineError> {
        if off >= CONTEXT_WORDS {
            return Err(MachineError::SlotOutOfRange { offset: off });
        }
        // Touch only the fields the chosen path needs — copying the whole
        // register out costs more than the cached read itself.
        if self.cc.is_some() {
            let reg = if next { &self.ncp } else { &self.cp };
            let block = match reg {
                Some(r) => r.block.expect("vector contexts are resident"),
                None => return Err(MachineError::NoContext),
            };
            Ok(self.cc.as_mut().expect("checked").read(block, off))
        } else {
            let reg = self.ctx_reg(next)?;
            let w =
                self.space
                    .read_kind(self.team, reg.fpa.with_offset(off)?, AllocKind::Context)?;
            let c = self.class_of_word(&w)?;
            Ok((w, c))
        }
    }

    #[inline(always)]
    fn ctx_write_raw(
        &mut self,
        next: bool,
        off: u64,
        w: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        if off >= CONTEXT_WORDS {
            return Err(MachineError::SlotOutOfRange { offset: off });
        }
        if self.cc.is_some() {
            let reg = if next { &self.ncp } else { &self.cp };
            let block = match reg {
                Some(r) => r.block.expect("vector contexts are resident"),
                None => return Err(MachineError::NoContext),
            };
            self.cc
                .as_mut()
                .expect("checked")
                .write(block, off, w, class);
            Ok(())
        } else {
            let reg = self.ctx_reg(next)?;
            self.space
                .write_kind(self.team, reg.fpa.with_offset(off)?, w, AllocKind::Context)?;
            Ok(())
        }
    }

    /// Reads an operand-space context slot (bias applied).
    #[inline]
    fn ctx_read(&mut self, next: bool, op_off: u64) -> Result<(Word, ClassId), MachineError> {
        self.ctx_read_raw(next, op_off + OPERAND_BIAS)
    }

    /// Writes an operand-space context slot (bias applied).
    fn ctx_write(
        &mut self,
        next: bool,
        op_off: u64,
        w: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        self.ctx_write_raw(next, op_off + OPERAND_BIAS, w, class)
    }

    // ------------------------------------------------------------------
    // Coherent memory access (at:/at:put: and indirect result writes)
    // ------------------------------------------------------------------

    /// Resolves `ptr` advanced by `idx` words, following growth forwarding
    /// when the stale exponent cannot even encode the offset (§2.2).
    fn index_addr(&mut self, ptr: Fpa, idx: u64) -> Result<Fpa, MachineError> {
        let mut p = ptr;
        for _ in 0..64 {
            match p.with_offset(p.offset() + idx) {
                Ok(a) => return Ok(a),
                Err(_) => {
                    // Out of this name's range: consult the descriptor for a
                    // forward, exactly like the bounds trap handler.
                    let seg = p.segment();
                    let ts = self.space.mmu().team(self.team)?;
                    match ts.table.get(seg).and_then(|d| d.forward) {
                        Some(fwd) => p = fwd.with_offset(p.offset()).unwrap_or(fwd),
                        None => {
                            return Err(MachineError::Mem(MemError::Bounds {
                                addr: p,
                                offset: p.offset() + idx,
                                length: 0,
                            }))
                        }
                    }
                }
            }
        }
        Err(MachineError::Mem(MemError::Bounds {
            addr: ptr,
            offset: idx,
            length: 0,
        }))
    }

    /// Memory read that checks the context cache directory first ("to
    /// access a context using an absolute address, the address is input to
    /// the cache directory", §3.6).
    fn mem_read(&mut self, p: Fpa) -> Result<(Word, ClassId), MachineError> {
        let t = self.space.translate(self.team, p)?;
        let kind = if t.class == self.context_class {
            AllocKind::Context
        } else {
            AllocKind::Object
        };
        if self.cc.is_some() && kind == AllocKind::Context {
            let base = AbsAddr(t.abs.0 & !(CONTEXT_WORDS - 1));
            let cc = self.cc.as_mut().expect("checked");
            if let Some(block) = cc.find(base) {
                let off = t.abs.0 & (CONTEXT_WORDS - 1);
                return Ok(self.cc.as_mut().expect("checked").read(block, off));
            }
        }
        let w = self.space.read_abs(t.abs, kind)?;
        let c = self.class_of_word(&w)?;
        Ok((w, c))
    }

    /// Memory write, coherent with the context cache, with escape marking:
    /// a context pointer stored into a *heap object* makes that context
    /// non-LIFO (it may outlive its activation).
    fn mem_write(&mut self, p: Fpa, w: Word, class: ClassId) -> Result<(), MachineError> {
        let t = self.space.translate(self.team, p)?;
        let target_is_context = t.class == self.context_class;
        if !target_is_context && class == self.context_class {
            if let Some(ptr) = w.as_ptr() {
                self.escaped.insert(ptr.segment());
                self.stats.contexts_left_to_gc += 1;
            }
        }
        let kind = if target_is_context {
            AllocKind::Context
        } else {
            AllocKind::Object
        };
        if self.cc.is_some() && target_is_context {
            let base = AbsAddr(t.abs.0 & !(CONTEXT_WORDS - 1));
            let cc = self.cc.as_mut().expect("checked");
            if let Some(block) = cc.find(base) {
                let off = t.abs.0 & (CONTEXT_WORDS - 1);
                self.cc
                    .as_mut()
                    .expect("checked")
                    .write(block, off, w, class);
                return Ok(());
            }
        }
        self.space.write_abs(t.abs, w, kind)?;
        Ok(())
    }

    /// Stores a method result through its result pointer. The common case
    /// — a LIFO return storing into the *caller's* context — is resolved
    /// against the shadow stack's pretranslated base instead of paying a
    /// translation; anything else (heap result cells, rewritten pointers)
    /// takes the general coherent write.
    fn store_result(&mut self, p: Fpa, value: Word, class: ClassId) -> Result<(), MachineError> {
        if let Some(frame) = self.shadow.last() {
            let seg = frame.reg.fpa.segment();
            if p.segment() == seg && p.offset() < CONTEXT_WORDS {
                // Alignment invariant: context bases are multiples of
                // the segment capacity, so OR equals ADD.
                let abs = AbsAddr(frame.reg.abs.0 | p.offset());
                // Mirror of `mem_write`'s context-target path (the
                // target is a context, so no escape marking applies).
                if self.cc.is_some() {
                    let base = AbsAddr(abs.0 & !(CONTEXT_WORDS - 1));
                    let hit = self.cc.as_mut().expect("checked").find(base);
                    if let Some(block) = hit {
                        let off = abs.0 & (CONTEXT_WORDS - 1);
                        self.cc
                            .as_mut()
                            .expect("checked")
                            .write(block, off, value, class);
                        return Ok(());
                    }
                }
                self.space.write_abs(abs, value, AllocKind::Context)?;
                return Ok(());
            }
        }
        self.mem_write(p, value, class)
    }

    // ------------------------------------------------------------------
    // Context allocation / free list
    // ------------------------------------------------------------------

    fn alloc_context(&mut self) -> Result<CtxReg, MachineError> {
        self.stats.contexts_allocated += 1;
        if let Some(mut reg) = self.free_list.pop() {
            // One memory reference pops the free list (§2.3); the block is
            // placed and cleared in the context cache.
            if let Some(cc) = &mut self.cc {
                let (block, ev) = cc.alloc_next(reg.abs);
                self.write_back(ev)?;
                reg.block = Some(block);
            } else {
                self.clear_context_memory(reg.fpa)?;
            }
            return Ok(reg);
        }
        // Pool empty: create a fresh context object.
        let fpa = match self.space.create(
            self.team,
            self.context_class,
            CONTEXT_WORDS,
            AllocKind::Context,
        ) {
            Ok(f) => f,
            Err(MemError::OutOfAbsoluteSpace { .. }) => {
                self.collect_garbage()?;
                self.space.create(
                    self.team,
                    self.context_class,
                    CONTEXT_WORDS,
                    AllocKind::Context,
                )?
            }
            Err(e) => return Err(e.into()),
        };
        let abs = self.space.translate(self.team, fpa)?.abs;
        let block = if let Some(cc) = &mut self.cc {
            let (block, ev) = cc.alloc_next(abs);
            self.write_back(ev)?;
            Some(block)
        } else {
            None
        };
        Ok(CtxReg { fpa, abs, block })
    }

    fn clear_context_memory(&mut self, fpa: Fpa) -> Result<(), MachineError> {
        for off in 0..CONTEXT_WORDS {
            self.space.write_kind(
                self.team,
                fpa.with_offset(off)?,
                Word::Uninit,
                AllocKind::Context,
            )?;
        }
        Ok(())
    }

    fn write_back(&mut self, ev: Option<crate::ctxcache::Eviction>) -> Result<(), MachineError> {
        if let Some(ev) = ev {
            if ev.dirty {
                for (i, (w, _)) in ev.words.iter().enumerate() {
                    self.space
                        .write_abs(ev.abs.offset(i as u64), *w, AllocKind::Context)?;
                }
            }
        }
        Ok(())
    }

    /// Runs the copyback engine if the free vector is low (§2.3). The copy
    /// runs "concurrently with program execution", so no cycles are charged.
    fn maybe_copyback(&mut self) -> Result<(), MachineError> {
        if !self.config.copyback {
            return Ok(());
        }
        let low = self.config.copyback_low_water;
        loop {
            let Some(cc) = &mut self.cc else {
                return Ok(());
            };
            if cc.free_count() > low {
                return Ok(());
            }
            let Some(ev) = cc.copyback_victim() else {
                return Ok(());
            };
            // Victim blocks may belong to CP/NCP ancestors; fix block links.
            self.write_back(Some(ev))?;
        }
    }

    // ------------------------------------------------------------------
    // Method residency
    // ------------------------------------------------------------------

    /// Decodes `code` into the slab (or finds it already there) and returns
    /// its slot. The hash probe here is the *cold* path: dispatch caches
    /// the returned slot in the ITLB, so a warm send never reaches this.
    fn ensure_decoded(&mut self, code: Fpa) -> Result<u32, MachineError> {
        let base = code.base();
        // Keyed on the virtual name, not the absolute base: a warm return
        // re-enters the caller's method without a translation.
        if let Some(&id) = self.decoded_index.get(&base.raw()) {
            return Ok(id);
        }
        let d = Arc::new(self.decode_from_memory(code)?);
        let id = u32::try_from(self.decoded.len()).expect("slab outgrew u32");
        self.decoded.push(d);
        self.decoded_index.insert(base.raw(), id);
        Ok(id)
    }

    /// Reads and decodes the code object at `code` from this machine's
    /// object space (the honest path — no shared body available).
    fn decode_from_memory(&mut self, code: Fpa) -> Result<Decoded, MachineError> {
        let base = code.base();
        let t = self.space.translate(self.team, base)?;
        // Header words come from memory, so a corrupted code object may
        // carry any Int here: negative or oversized counts are a malformed
        // method, not a cue to allocate unbounded buffers.
        let header = |m: &mut Self, off: u64| -> Result<i64, MachineError> {
            m.space
                .read_kind(m.team, base.with_offset(off)?, AllocKind::Code)?
                .as_int()
                .ok_or(MachineError::BadMethod(code))
        };
        let n_instrs =
            u64::try_from(header(self, 0)?).map_err(|_| MachineError::BadMethod(code))?;
        let n_args = u8::try_from(header(self, 1)?).map_err(|_| MachineError::BadMethod(code))?;
        let n_consts =
            u64::try_from(header(self, 2)?).map_err(|_| MachineError::BadMethod(code))?;
        // Oversized (but non-negative) counts fail at the first
        // out-of-object read below; cap the pre-reservation so they cannot
        // abort on allocation first.
        let mut instrs = Vec::with_capacity(n_instrs.min(4096) as usize);
        for i in 0..n_instrs {
            let w = self.space.read_kind(
                self.team,
                base.with_offset(CodeObject::HEADER_WORDS + i)?,
                AllocKind::Code,
            )?;
            let payload = w.as_instr().ok_or(MachineError::ExecutingData(w))?;
            instrs.push(Instr::decode(payload)?);
        }
        let mut consts = Vec::with_capacity(n_consts.min(4096) as usize);
        for i in 0..n_consts {
            let w = self.space.read_kind(
                self.team,
                base.with_offset(CodeObject::HEADER_WORDS + n_instrs + i)?,
                AllocKind::Code,
            )?;
            let c = self.class_of_word(&w)?;
            consts.push((w, c));
        }
        let low = instrs
            .iter()
            .map(|i| LowInstr::lower(*i, &consts))
            .collect();
        Ok(Decoded {
            base,
            abs: t.abs,
            body: Arc::new(DecodedBody {
                consts,
                low,
                n_args,
            }),
        })
    }

    /// Decodes a synthesized entry method into the machine's reusable
    /// entry slab slot (creating the slot on first use), so repeated sends
    /// do not grow the slab. Mirrors what [`ensure_decoded`](Self::ensure_decoded)
    /// would record.
    fn install_entry(&mut self, code: Fpa) -> Result<u32, MachineError> {
        let base = code.base();
        let d = Arc::new(self.decode_from_memory(code)?);
        let id = match self.entry_slab {
            Some(slot) => {
                self.decoded[slot as usize] = d;
                slot
            }
            None => {
                let id = u32::try_from(self.decoded.len()).expect("slab outgrew u32");
                self.decoded.push(d);
                self.entry_slab = Some(id);
                id
            }
        };
        self.decoded_index.insert(base.raw(), id);
        Ok(id)
    }

    /// Releases the previous send's synthesized entry method, if any: the
    /// code object loses its GC root (the collector may reclaim it) and
    /// the decode caches are purged so a later code object recycling the
    /// swept segment's name cannot hit the stale decode. Runs when a send
    /// halts and again defensively at the next [`start_send`]
    /// (covering sends that ended in a trap instead of a halt).
    ///
    /// [`start_send`]: Self::start_send
    fn release_entry(&mut self) {
        if let Some(base) = self.entry_base.take() {
            if let Some(pos) = self.code_roots.iter().rposition(|f| *f == base) {
                self.code_roots.swap_remove(pos);
            }
            self.decoded_index.remove(&base.base().raw());
        }
    }

    /// Number of code objects currently pinned as GC roots (observability
    /// for the repeated-send leak regression tests: this must not grow
    /// across completed sends).
    pub fn code_root_count(&self) -> usize {
        self.code_roots.len()
    }

    /// The decoded method at slab slot `id`.
    #[inline]
    fn slab_entry(&self, id: u32) -> (Fpa, AbsAddr, Arc<Decoded>) {
        let d = &self.decoded[id as usize];
        (d.base, d.abs, Arc::clone(d))
    }

    /// Installs a new current method, invalidating the threaded loop's
    /// borrowed decode.
    #[inline]
    fn set_ip(&mut self, f: Fpa, a: AbsAddr, d: Arc<Decoded>) {
        self.ip = Some((f, a, d));
        self.ip_gen = self.ip_gen.wrapping_add(1);
    }

    // ------------------------------------------------------------------
    // Operand fetch
    // ------------------------------------------------------------------

    fn fetch_operand(&mut self, op: Operand) -> Result<(Word, ClassId), MachineError> {
        match op {
            Operand::Cur(o) => self.ctx_read(false, o as u64),
            Operand::Next(o) => self.ctx_read(true, o as u64),
            Operand::Const(i) => {
                let (_, _, d) = self.ip.as_ref().ok_or(MachineError::NoContext)?;
                d.body
                    .consts
                    .get(i as usize)
                    .copied()
                    .ok_or(MachineError::ConstOutOfRange { index: i })
            }
        }
    }

    /// Absolute address of a context-slot operand, for hazard tracking.
    fn operand_abs(&self, op: Operand) -> Option<(AbsAddr, u64)> {
        match op {
            Operand::Cur(o) => self.cp.map(|r| (r.abs, o as u64 + OPERAND_BIAS)),
            Operand::Next(o) => self.ncp.map(|r| (r.abs, o as u64 + OPERAND_BIAS)),
            Operand::Const(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Installs a dispatch observer: `f` is invoked with the current
    /// method, program counter, and ITLB key for every instruction
    /// dispatch on both interpreter paths.
    pub fn set_dispatch_observer(&mut self, f: impl FnMut(DispatchEvent) + Send + 'static) {
        self.observer = Some(DispatchObserver(Box::new(f)));
    }

    /// Removes any installed dispatch observer.
    pub fn clear_dispatch_observer(&mut self) {
        self.observer = None;
    }

    /// Code base capabilities of the loaded methods, in image order
    /// (entry-send methods synthesized later are appended after them).
    /// Lets analysis tooling map a [`DispatchEvent::method`] capability
    /// back to a `ProgramImage` method index.
    pub fn code_roots(&self) -> &[Fpa] {
        &self.code_roots
    }

    #[cold]
    fn observe_dispatch(&mut self, key: ItlbKey) {
        let method = match &self.ip {
            Some((f, _, _)) => *f,
            None => return,
        };
        let pc = self.pc;
        if let Some(obs) = &mut self.observer {
            (obs.0)(DispatchEvent { method, pc, key });
        }
    }

    fn resolve(&mut self, key: ItlbKey) -> Result<MethodRef, MachineError> {
        if let Some(itlb) = &mut self.itlb {
            if let Some(m) = itlb.lookup(key) {
                return Ok(m);
            }
        }
        // Full association: "a step which always occurs in the execution of
        // Smalltalk" when the buffer misses.
        let out = lookup_method(&self.classes, key.classes[0], key.opcode);
        self.stats.full_lookups += 1;
        self.stats.lookup_cycles += out.cost_cycles(self.config.lookup_cost);
        if out.cycle {
            return Err(MachineError::ClassChainCycle {
                opcode: key.opcode,
                class: key.classes[0],
            });
        }
        let mut m = out.method.ok_or(MachineError::DoesNotUnderstand {
            opcode: key.opcode,
            class: key.classes[0],
        })?;
        // Resolve defined methods to their decoded-slab slot before caching,
        // so a later translation hit reaches code by one array index.
        if let MethodRef::Defined(d) = m {
            if !d.is_resolved() {
                let id = self.ensure_decoded(d.code)?;
                m = MethodRef::Defined(d.resolved(id));
            }
        }
        if let Some(itlb) = &mut self.itlb {
            itlb.fill(key, m);
        }
        Ok(m)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Halted`] when the program returns from its
    /// entry send, or any trap raised during execution.
    pub fn step(&mut self) -> Result<(), MachineError> {
        if let Some(w) = self.halted {
            return Err(MachineError::Halted(w));
        }
        let (method_fpa, method_abs, decoded) = match &self.ip {
            Some((f, a, d)) => (*f, *a, Arc::clone(d)),
            None => return Err(MachineError::NoContext),
        };
        if self.pc >= decoded.body.low.len() as u64 {
            return Err(MachineError::BadMethod(method_fpa));
        }
        // Step 1: fetch through the instruction cache.
        if let Some(ic) = &mut self.icache {
            let addr = method_abs.0 + CodeObject::HEADER_WORDS + self.pc;
            if !ic.lookup(addr) {
                ic.fill(addr);
                self.stats.icache_miss_cycles += self.config.icache_miss_penalty;
            }
        }
        let instr = decoded.body.low[self.pc as usize].instr;
        self.stats.instructions += 1;
        self.stats.base_cycles += 2;
        self.steps += 1;

        // Hazard check (§3.6): the compiler must not read the previous
        // instruction's destination.
        if let Some(last) = self.last_dest {
            let hazard = instr
                .sources()
                .iter()
                .filter_map(|s| self.operand_abs(*s))
                .any(|loc| loc == last);
            if hazard {
                if self.config.strict_hazards {
                    return Err(MachineError::Hazard { pc: self.pc });
                }
                self.stats.interlock_cycles += 1;
            }
        }
        self.last_dest = None;

        // Step 2: operand fetch (values + class tags).
        let (b, c, key) = match instr {
            Instr::Three { op, b, c, .. } => {
                let bv = self.fetch_operand(b)?;
                let cv = self.fetch_operand(c)?;
                (bv, cv, ItlbKey::binary(op, bv.1, cv.1))
            }
            Instr::Zero { op, nargs, .. } => {
                // Implicit operands: arg1 (receiver) and arg2 in the next
                // context. Dispatch still keys on the receiver's class even
                // for nargs = 0 sends (the receiver slot is always arg1).
                let bv = self.ctx_read(true, 1)?;
                let cv = if nargs >= 2 {
                    self.ctx_read(true, 2)?
                } else {
                    (Word::Uninit, ClassId::NONE)
                };
                let key = if nargs >= 2 {
                    ItlbKey::binary(op, bv.1, cv.1)
                } else {
                    ItlbKey::unary(op, bv.1)
                };
                (bv, cv, key)
            }
        };
        if self.observer.is_some() {
            self.observe_dispatch(key);
        }

        // Step 3: translate through the ITLB (or pay full lookup), then
        // steps 4-5: perform the operation / method call, store results.
        // A failed translation is offered to software trap dispatch
        // before it is allowed to kill the send.
        match self.resolve(key) {
            Ok(MethodRef::Primitive(p)) => self.exec_primitive(instr, p, b, c)?,
            Ok(MethodRef::Defined(d)) => self.do_call(instr, d, b, c)?,
            Err(e) => self.trap_dispatch(instr, b, c, e)?,
        }

        if let Some(kind) = self.gc_due(self.steps) {
            self.collect_garbage_kind(kind)?;
        }
        self.maybe_copyback()?;
        if let Some(w) = self.halted {
            return Err(MachineError::Halted(w));
        }
        Ok(())
    }

    fn truthy(&self, w: Word) -> Result<bool, MachineError> {
        match w {
            Word::Atom(a) => AtomTable::truthiness(a).ok_or(MachineError::BadBranchCondition(w)),
            Word::Int(i) => Ok(i != 0),
            other => Err(MachineError::BadBranchCondition(other)),
        }
    }

    fn exec_primitive(
        &mut self,
        instr: Instr,
        p: PrimOp,
        b: (Word, ClassId),
        c: (Word, ClassId),
    ) -> Result<(), MachineError> {
        let opcode = instr.opcode();
        let bad = |reason: &'static str| MachineError::BadOperands { opcode, reason };
        match p {
            PrimOp::Fjmp | PrimOp::Rjmp => {
                let taken = self.truthy(b.0)?;
                // The displacement is an unsigned magnitude (direction is
                // the opcode); a negative Int here is malformed code, not a
                // huge forward jump.
                let disp =
                    c.0.as_int()
                        .filter(|d| *d >= 0)
                        .ok_or_else(|| bad("jump displacement must be a non-negative integer"))?
                        as u64;
                if taken {
                    self.stats.taken_branches += 1;
                    self.stats.branch_delay_cycles += 1;
                    if p == PrimOp::Fjmp {
                        self.pc = (self.pc + 1)
                            .checked_add(disp)
                            .ok_or_else(|| bad("forward jump target overflows"))?;
                    } else {
                        let target = (self.pc + 1)
                            .checked_sub(disp)
                            .ok_or_else(|| bad("backward jump before method start"))?;
                        self.pc = target;
                    }
                } else {
                    self.pc += 1;
                }
                Ok(())
            }
            PrimOp::Xfer => self.do_xfer(instr),
            PrimOp::At => {
                self.stats.memory_op_cycles += self.config.memory_penalty;
                let ptr =
                    b.0.as_ptr()
                        .ok_or_else(|| bad("at: requires an object pointer"))?;
                let idx =
                    c.0.as_int()
                        .ok_or_else(|| bad("at: requires an integer index"))?;
                if idx < 0 {
                    return Err(bad("at: index is negative"));
                }
                let addr = self.index_addr(ptr, idx as u64)?;
                let v = self.mem_read(addr)?;
                self.write_result(instr, v.0, v.1)
            }
            PrimOp::AtPut => {
                self.stats.memory_op_cycles += self.config.memory_penalty;
                // a at: b put: c — A holds the value (read, not written).
                let (value, vclass) = match instr {
                    Instr::Three { a, .. } => self.fetch_operand(a)?,
                    Instr::Zero { .. } => return Err(bad("at:put: needs three operands")),
                };
                let ptr =
                    b.0.as_ptr()
                        .ok_or_else(|| bad("at:put: requires an object pointer"))?;
                let idx =
                    c.0.as_int()
                        .ok_or_else(|| bad("at:put: requires an integer index"))?;
                if idx < 0 {
                    return Err(bad("at:put: index is negative"));
                }
                let addr = self.index_addr(ptr, idx as u64)?;
                self.mem_write(addr, value, vclass)?;
                if instr.returns() {
                    self.do_return()?;
                } else {
                    self.pc += 1;
                }
                self.last_dest = None;
                Ok(())
            }
            PrimOp::Movea => {
                let target = match instr {
                    Instr::Three { b: src, .. } => src,
                    Instr::Zero { .. } => return Err(bad("movea needs operands")),
                };
                let ptr = match target {
                    Operand::Cur(o) => {
                        let r = self.ctx_reg(false)?;
                        r.fpa.with_offset(o as u64 + OPERAND_BIAS)?
                    }
                    Operand::Next(o) => {
                        let r = self.ctx_reg(true)?;
                        r.fpa.with_offset(o as u64 + OPERAND_BIAS)?
                    }
                    Operand::Const(_) => return Err(bad("movea of a constant")),
                };
                self.write_result(instr, Word::Ptr(ptr), self.context_class)
            }
            PrimOp::New => {
                self.stats.memory_op_cycles += self.config.memory_penalty;
                let class = ClassId(
                    b.0.as_int()
                        .ok_or_else(|| bad("new requires an integer class id"))?
                        as u16,
                );
                if self.classes.get(class).is_none() {
                    return Err(bad("new of an unknown class"));
                }
                let words =
                    c.0.as_int()
                        .ok_or_else(|| bad("new requires an integer size"))?;
                if words < 0 {
                    return Err(bad("new with negative size"));
                }
                let obj = match self
                    .space
                    .create(self.team, class, words as u64, AllocKind::Object)
                {
                    Ok(o) => o,
                    Err(MemError::OutOfAbsoluteSpace { .. }) => {
                        self.collect_garbage()?;
                        self.space
                            .create(self.team, class, words as u64, AllocKind::Object)?
                    }
                    Err(e) => return Err(e.into()),
                };
                self.write_result(instr, Word::Ptr(obj), class)
            }
            PrimOp::Grow => {
                self.stats.memory_op_cycles += self.config.memory_penalty;
                let ptr =
                    b.0.as_ptr()
                        .ok_or_else(|| bad("grow requires an object pointer"))?;
                let words =
                    c.0.as_int()
                        .ok_or_else(|| bad("grow requires an integer size"))?;
                if words < 0 {
                    return Err(bad("grow with negative size"));
                }
                let new = self.space.grow(self.team, ptr.base(), words as u64)?;
                let class = self.space.class_of(self.team, new)?;
                self.write_result(instr, Word::Ptr(new), class)
            }
            PrimOp::TagAs => {
                if !self.privileged {
                    return Err(MachineError::Privileged);
                }
                let code =
                    c.0.as_int()
                        .ok_or_else(|| bad("as: requires an integer tag code"))?;
                let v = match (b.0, code) {
                    (Word::Int(x), 3) => Word::Atom(com_mem::AtomId(x as u32)),
                    (Word::Int(x), 5) => {
                        let f =
                            Fpa::from_raw(x as u64, self.config.format).map_err(MemError::from)?;
                        Word::Ptr(f)
                    }
                    (Word::Atom(a), 1) => Word::Int(a.0 as i64),
                    (Word::Ptr(f), 1) => Word::Int(f.raw() as i64),
                    _ => return Err(bad("unsupported retagging")),
                };
                let class = self.class_of_word(&v)?;
                self.write_result(instr, v, class)
            }
            // Pure data operations. A function-unit operand trap is
            // offered to software trap dispatch (an installed
            // `badOperands:` handler) before it kills the send.
            other => {
                let v = match crate::exec::data_op(other, opcode, b.0, c.0) {
                    Ok(v) => v,
                    Err(e) => return self.trap_dispatch(instr, b, c, e),
                };
                let class = self.class_of_word(&v)?;
                self.write_result(instr, v, class)
            }
        }
    }

    /// Stores a primitive result per the instruction's format, performing
    /// the return sequence when the return bit is set.
    fn write_result(
        &mut self,
        instr: Instr,
        value: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        if instr.returns() {
            // "When a method completes it is expected to place its result
            // (if any) at the address specified by the first operand": the
            // A slot holds the result pointer; indirect through it.
            if let Instr::Three { a, .. } = instr {
                let (ptr_w, _) = self.fetch_operand(a)?;
                match ptr_w {
                    Word::Ptr(p) => self.store_result(p, value, class)?,
                    // No result expected (result pointer never set).
                    Word::Uninit => {}
                    other => {
                        return Err(MachineError::BadOperands {
                            opcode: instr.opcode(),
                            reason: "result pointer slot does not hold a pointer",
                        })
                        .inspect_err(|_e| {
                            let _ = other;
                        })
                    }
                }
            }
            self.do_return()?;
            self.last_dest = None;
            return Ok(());
        }
        match instr {
            Instr::Three { a, .. } => {
                match a {
                    Operand::Cur(o) => self.ctx_write(false, o as u64, value, class)?,
                    Operand::Next(o) => self.ctx_write(true, o as u64, value, class)?,
                    // Both the constructors and decode refuse constant-mode
                    // destinations; a typed trap keeps even a hand-built
                    // Instr from panicking the engine.
                    Operand::Const(_) => {
                        return Err(MachineError::BadOperands {
                            opcode: instr.opcode(),
                            reason: "constant-mode destination",
                        })
                    }
                }
                self.last_dest = self.operand_abs(a);
            }
            Instr::Zero { .. } => {
                return Err(MachineError::BadOperands {
                    opcode: instr.opcode(),
                    reason: "zero-address primitive without return bit has no destination",
                });
            }
        }
        self.pc += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Calls, returns, transfers
    // ------------------------------------------------------------------

    fn do_call(
        &mut self,
        instr: Instr,
        d: DefinedMethod,
        b: (Word, ClassId),
        c: (Word, ClassId),
    ) -> Result<(), MachineError> {
        self.do_call_impl(instr, d, b, c, false)
    }

    /// Calls a software trap handler in place of the faulting instruction:
    /// like [`do_call`](Self::do_call), but the argument register (arg2 of
    /// the handler's context) carries the reified trap message instead of
    /// the faulting instruction's C operand.
    fn do_call_reified(
        &mut self,
        instr: Instr,
        d: DefinedMethod,
        b: (Word, ClassId),
        msg: (Word, ClassId),
    ) -> Result<(), MachineError> {
        self.do_call_impl(instr, d, b, msg, true)
    }

    fn do_call_impl(
        &mut self,
        instr: Instr,
        d: DefinedMethod,
        b: (Word, ClassId),
        c: (Word, ClassId),
        reified: bool,
    ) -> Result<(), MachineError> {
        // Operand copy (automatic argument transmission, §3.5): arg0 is the
        // effective address of A, arg1 = B, arg2 = C. The B and C values
        // were already fetched for dispatch; the hardware copies them from
        // the operand buses rather than re-reading the context.
        let copied: u64 = match instr {
            Instr::Three { a, .. } => {
                let result_ptr = {
                    let r = match a {
                        Operand::Cur(_) => self.cp.as_ref(),
                        Operand::Next(_) => self.ncp.as_ref(),
                        Operand::Const(_) => unreachable!("validated at construction"),
                    }
                    .ok_or(MachineError::NoContext)?;
                    let o = match a {
                        Operand::Cur(o) | Operand::Next(o) => o,
                        Operand::Const(_) => unreachable!("validated at construction"),
                    };
                    Word::Ptr(r.fpa.with_offset(o as u64 + OPERAND_BIAS)?)
                };
                let arg0 = (result_ptr, self.context_class);
                if self.cc.is_some() {
                    let block = match self.ncp.as_ref() {
                        Some(r) => r.block.expect("vector contexts are resident"),
                        None => return Err(MachineError::NoContext),
                    };
                    self.cc
                        .as_mut()
                        .expect("checked")
                        .write_linkage(block, arg0, b, c);
                } else {
                    self.ctx_write_raw(true, CTX_ARG0, arg0.0, arg0.1)?;
                    self.ctx_write_raw(true, CTX_ARG1, b.0, b.1)?;
                    self.ctx_write_raw(true, CTX_ARG1 + 1, c.0, c.1)?;
                }
                3
            }
            // Programmer placed arguments already — except for a reified
            // handler call, whose trap message replaces the argument
            // register (one operand copied into the handler's context).
            Instr::Zero { .. } => {
                if reified {
                    self.ctx_write_raw(true, CTX_ARG1 + 1, c.0, c.1)?;
                    1
                } else {
                    0
                }
            }
        };
        self.stats.calls += 1;
        // One cycle to flush the prefetched instruction, one for the
        // linkage operations (§3.6), one per operand copied.
        self.stats.call_linkage_cycles += 2;
        self.stats.operand_copy_cycles += copied;

        // Store the continuation into the current context.
        let (method_fpa, _, _) = self.ip.as_ref().ok_or(MachineError::NoContext)?;
        let rip = method_fpa.with_offset(CodeObject::HEADER_WORDS + self.pc + 1)?;
        self.ctx_write_raw(false, CTX_RIP, Word::Ptr(rip), ClassId::INSTR)?;

        // CP <- NCP; the next context's RCP was set at allocation.
        let new_cp = self.ctx_reg(true)?;
        if let Some(caller) = self.cp {
            self.shadow.push(ShadowFrame {
                reg: caller,
                rip,
                slab: self.cur_slab,
            });
        }
        self.cp = Some(new_cp);
        if let Some(cc) = &mut self.cc {
            cc.set_current(new_cp.block);
            cc.set_next(None);
        }
        // Allocate the new next context ("any NCP relative accesses will be
        // held up until the new context is available").
        let mut next = self.alloc_context()?;
        if let Some(cc) = &mut self.cc {
            next.block = cc.next();
        }
        self.ncp = Some(next);
        self.ctx_write_raw(true, CTX_RCP, Word::Ptr(new_cp.fpa), self.context_class)?;

        // IP <- first instruction of the method. A slab-resolved reference
        // (the warm path: every ITLB hit) is one array index; only an
        // unresolved dictionary reference pays the decode/index probe.
        let id = if d.is_resolved() {
            d.slab
        } else {
            self.ensure_decoded(d.code)?
        };
        let (f, a, dec) = self.slab_entry(id);
        self.set_ip(f, a, dec);
        self.cur_slab = id;
        self.pc = 0;
        self.last_dest = None;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Software trap dispatch
    // ------------------------------------------------------------------

    /// Software trap dispatch — the paper's §2.1 position that type
    /// errors "are handled in software via message dispatch" rather than
    /// killing the program. When a send fails to resolve
    /// ([`MachineError::DoesNotUnderstand`]) or a function unit refuses
    /// its operands ([`MachineError::BadOperands`]), and the receiver's
    /// class chain installs the matching [`TrapSelector`] handler method
    /// (`doesNotUnderstand:` / `badOperands:`), the faulting operation is
    /// reified into a message object and the handler is called in its
    /// place: the handler's answer lands where the faulting operation's
    /// result would have gone (its arg0 is the faulting instruction's
    /// result pointer) and execution continues at the next instruction.
    ///
    /// Shared verbatim by [`step`](Self::step) and the threaded
    /// [`run`](Self::run) loop, so dispatch behaviour and every charged
    /// cycle are bit-identical between the two.
    ///
    /// The original trap propagates unchanged when:
    /// * the trap is any other kind (machine-integrity conditions);
    /// * the faulting instruction has the return bit set (its
    ///   continuation — store *and* return — is not representable as a
    ///   handler continuation);
    /// * the handler selector was never interned, or no class on the
    ///   receiver's chain defines it (the chain walk, when it happens, is
    ///   charged like any full lookup);
    /// * the handler resolves to a primitive (cannot accept a message).
    fn trap_dispatch(
        &mut self,
        instr: Instr,
        b: (Word, ClassId),
        c: (Word, ClassId),
        e: MachineError,
    ) -> Result<(), MachineError> {
        let kind = match &e {
            MachineError::DoesNotUnderstand { .. } => TrapSelector::DoesNotUnderstand,
            MachineError::BadOperands { .. } => TrapSelector::BadOperands,
            _ => return Err(e),
        };
        if instr.returns() {
            return Err(e);
        }
        let Some(handler_sel) = self.opcodes.get(kind.name()) else {
            return Err(e);
        };
        let (handler, out) = lookup_trap_handler(&self.classes, b.1, handler_sel);
        self.stats.full_lookups += 1;
        self.stats.lookup_cycles += out.cost_cycles(self.config.lookup_cost);
        if out.cycle {
            return Err(MachineError::ClassChainCycle {
                opcode: handler_sel,
                class: b.1,
            });
        }
        let Some(handler) = handler else {
            return Err(e);
        };
        let nargs = match instr {
            Instr::Three { .. } => 2u8,
            Instr::Zero { nargs, .. } => nargs,
        };
        let msg = self.reify_message(instr.opcode(), nargs, c)?;
        self.stats.soft_traps += 1;
        self.do_call_reified(instr, handler, b, msg)
    }

    /// Reifies a faulting operation into a three-word message object —
    /// `[selector opcode, nargs, argument]` — for a software trap
    /// handler. Charged as one memory operation (like `new`).
    ///
    /// The message records what the *instruction* transmitted, which is
    /// all this layer can see:
    ///
    /// * word 1 (`nargs`) counts operand-register arguments including
    ///   the receiver — the encoded count for a zero-format send, and
    ///   always 2 for a three-address send, whose B and C buses always
    ///   carry values. A source-level *unary* send compiled to
    ///   three-address form duplicates the receiver on C (compiler
    ///   convention, §3.5), so its message reads `nargs = 2` with the
    ///   receiver as the argument word.
    /// * word 2 is the faulting instruction's C operand (Uninit for a
    ///   one-operand zero-format send). Extra arguments of a send that
    ///   staged them into the next context stay readable in the
    ///   handler's own context slots 3.., which *are* the faulting
    ///   send's argument slots.
    fn reify_message(
        &mut self,
        opcode: Opcode,
        nargs: u8,
        arg: (Word, ClassId),
    ) -> Result<(Word, ClassId), MachineError> {
        self.stats.memory_op_cycles += self.config.memory_penalty;
        let msg = match self
            .space
            .create(self.team, ClassTable::OBJECT, 3, AllocKind::Object)
        {
            Ok(o) => o,
            Err(MemError::OutOfAbsoluteSpace { .. }) => {
                self.collect_garbage()?;
                self.space
                    .create(self.team, ClassTable::OBJECT, 3, AllocKind::Object)?
            }
            Err(e) => return Err(e.into()),
        };
        self.mem_write(msg, Word::Int(opcode.0 as i64), ClassId::SMALL_INT)?;
        self.mem_write(
            msg.with_offset(1)?,
            Word::Int(nargs as i64),
            ClassId::SMALL_INT,
        )?;
        self.mem_write(msg.with_offset(2)?, arg.0, arg.1)?;
        Ok((Word::Ptr(msg), ClassTable::OBJECT))
    }

    fn do_return(&mut self) -> Result<(), MachineError> {
        self.stats.returns += 1;
        let callee = self.ctx_reg(false)?;
        let (rcp, _) = self.ctx_read_raw(false, CTX_RCP)?;
        let caller_fpa = match rcp {
            Word::Ptr(p) => p,
            // RCP never set: returning from the entry send — halt. The
            // send is over, so its synthesized entry method is released
            // (un-rooted and purged) here.
            _ => {
                let result = match self.result_cell {
                    Some(cell) => self.mem_read(cell)?.0,
                    None => Word::Uninit,
                };
                self.halted = Some(result);
                self.release_entry();
                return Ok(());
            }
        };

        let old_ncp = self.ncp;
        let callee_escaped =
            !self.escaped.is_empty() && self.escaped.contains(&callee.fpa.segment());

        if callee_escaped || !self.config.eager_lifo_free {
            // Non-LIFO (or eager freeing disabled): the callee survives for
            // the garbage collector; keep the pre-allocated next context.
            if !self.config.eager_lifo_free && !callee_escaped {
                self.stats.contexts_left_to_gc += 1;
            }
        } else {
            // LIFO: recycle the callee as the next context and return the
            // pre-allocated next to the free list (explicit free, §2.3).
            if let Some(ncp) = old_ncp {
                if let Some(cc) = &mut self.cc {
                    match ncp.block {
                        // The pre-allocated next is still resident in its
                        // block; skip the directory probe.
                        Some(b) if cc.block_abs(b) == Some(ncp.abs) => cc.release_block(b),
                        _ => cc.release(ncp.abs),
                    }
                }
                self.free_list.push(CtxReg { block: None, ..ncp });
                self.stats.contexts_freed_lifo += 1;
            }
            let mut recycled = callee;
            if let Some(cc) = &mut self.cc {
                let block = callee.block.expect("current context resident");
                cc.recycle_as_next(block);
                recycled.block = Some(block);
            } else {
                self.clear_context_memory(callee.fpa)?;
            }
            self.ncp = Some(recycled);
        }

        // CP <- RCP: the caller may have been copied back; fault it in.
        // A LIFO return finds the caller's pretranslated base (and its
        // method's slab slot) on the shadow stack; anything else (xfer
        // games, RCP rewritten through memory) misses the memo and pays
        // the translation.
        let frame = match self.shadow.pop() {
            Some(f) if f.reg.fpa == caller_fpa => Some(f),
            Some(_) => {
                self.shadow.clear();
                None
            }
            None => None,
        };
        let caller_abs = match frame {
            Some(f) => f.reg.abs,
            None => self.space.translate(self.team, caller_fpa)?.abs,
        };
        // The memoized caller block is still valid when it caches the same
        // absolute base (copyback may have evicted it mid-call); then the
        // directory need not be consulted at all.
        let memo_block = frame.and_then(|f| {
            f.reg.block.filter(|b| {
                self.cc
                    .as_ref()
                    .is_some_and(|cc| cc.block_abs(*b) == Some(caller_abs))
            })
        });
        let caller_block = if let Some(b) = memo_block {
            Some(b)
        } else if let Some(cc) = &mut self.cc {
            match cc.find(caller_abs) {
                Some(bi) => Some(bi),
                None => {
                    // Context cache miss: fault the caller in from memory.
                    self.stats.ctx_fault_cycles += self.config.ctx_fault_penalty;
                    let mut words = Vec::with_capacity(CONTEXT_WORDS as usize);
                    for off in 0..CONTEXT_WORDS {
                        let w = self
                            .space
                            .read_abs(caller_abs.offset(off), AllocKind::Context)?;
                        let c = self.class_of_word(&w)?;
                        words.push((w, c));
                    }
                    let cc = self.cc.as_mut().expect("checked");
                    let (bi, ev) = cc.install(caller_abs, words);
                    self.write_back(ev)?;
                    Some(bi)
                }
            }
        } else {
            None
        };
        let caller = CtxReg {
            fpa: caller_fpa,
            abs: caller_abs,
            block: caller_block,
        };
        self.cp = Some(caller);
        if let Some(cc) = &mut self.cc {
            cc.set_current(caller_block);
        }
        if callee_escaped || !self.config.eager_lifo_free {
            // Refresh the next vector (it was untouched but the cc vectors
            // may have been disturbed by the fault path).
            if let (Some(cc), Some(ncp)) = (&mut self.cc, old_ncp) {
                cc.set_next(ncp.block);
            }
        }
        // Whether recycled or kept, the next context's RCP must name the
        // context control just returned into — it was linked to the (now
        // defunct) callee when it was allocated.
        self.ctx_write_raw(true, CTX_RCP, Word::Ptr(caller_fpa), self.context_class)?;

        // IP <- caller's RIP. When the continuation matches the memoized
        // frame, the caller's method is re-entered by slab index; any
        // divergence (the program rewrote its RIP) decodes the honest way.
        let (rip, _) = self.ctx_read_raw(false, CTX_RIP)?;
        let rip = rip.as_ptr().ok_or(MachineError::NoContext)?;
        let pc = rip.offset() - CodeObject::HEADER_WORDS;
        let id = match frame {
            Some(f) if f.rip == rip && (f.slab as usize) < self.decoded.len() => f.slab,
            _ => self.ensure_decoded(rip.base())?,
        };
        let (f, a, dec) = self.slab_entry(id);
        self.set_ip(f, a, dec);
        self.cur_slab = id;
        self.pc = pc;
        self.last_dest = None;
        Ok(())
    }

    /// XFER (§5): general control transfer to the next context. The current
    /// continuation is saved; the next context becomes current and its RIP
    /// is resumed; a fresh next context is allocated.
    fn do_xfer(&mut self, _instr: Instr) -> Result<(), MachineError> {
        // General transfer breaks LIFO call discipline: drop the memo.
        self.shadow.clear();
        self.stats.calls += 1;
        self.stats.call_linkage_cycles += 2;
        let (method_fpa, _, _) = self.ip.as_ref().ok_or(MachineError::NoContext)?;
        let rip = method_fpa.with_offset(CodeObject::HEADER_WORDS + self.pc + 1)?;
        self.ctx_write_raw(false, CTX_RIP, Word::Ptr(rip), ClassId::INSTR)?;
        let new_cp = self.ctx_reg(true)?;
        self.cp = Some(new_cp);
        if let Some(cc) = &mut self.cc {
            cc.set_current(new_cp.block);
            cc.set_next(None);
        }
        let mut next = self.alloc_context()?;
        if let Some(cc) = &mut self.cc {
            next.block = cc.next();
        }
        self.ncp = Some(next);
        self.ctx_write_raw(true, CTX_RCP, Word::Ptr(new_cp.fpa), self.context_class)?;
        let (tip, _) = self.ctx_read_raw(false, CTX_RIP)?;
        let tip = tip.as_ptr().ok_or(MachineError::NoContext)?;
        let method = tip.base();
        let pc = tip.offset() - CodeObject::HEADER_WORDS;
        let id = self.ensure_decoded(method)?;
        let (f, a, dec) = self.slab_entry(id);
        self.set_ip(f, a, dec);
        self.cur_slab = id;
        self.pc = pc;
        self.last_dest = None;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Runs a stop-the-world **full** collection (see
    /// [`collect_garbage_kind`](Self::collect_garbage_kind)).
    ///
    /// # Errors
    ///
    /// Propagates memory errors (a failing GC is a machine-fatal event).
    pub fn collect_garbage(&mut self) -> Result<(), MachineError> {
        self.collect_garbage_kind(GcKind::Full)
    }

    /// Runs a stop-the-world collection of the given generation scope:
    /// flush the context cache's dirty blocks (a bounded cost — at most
    /// the cache's block count), mark from the machine roots with every
    /// cache-resident context **pinned**, sweep, then drop stale
    /// bookkeeping.
    ///
    /// Residents are pinned — passed to [`gc::collect`]/
    /// [`gc::collect_minor`] as segments that are marked *and scanned* —
    /// because the context cache is machine state: its blocks may hold the
    /// only pointer to a captured context, stored through the cache's
    /// directory-bypassing write path where no write barrier runs. Without
    /// the pin, a minor collection would never scan a tenured resident
    /// context and would sweep the captured callee it alone references.
    ///
    /// # Errors
    ///
    /// Propagates memory errors (a failing GC is a machine-fatal event).
    pub fn collect_garbage_kind(&mut self, kind: GcKind) -> Result<(), MachineError> {
        // Memory must be coherent before the collector scans contexts.
        if let Some(cc) = &mut self.cc {
            for ev in cc.dirty_blocks() {
                for (i, (w, _)) in ev.words.iter().enumerate() {
                    self.space
                        .write_abs(ev.abs.offset(i as u64), *w, AllocKind::Context)?;
                }
            }
        }
        let mut roots: Vec<Fpa> = Vec::new();
        if let Some(cp) = self.cp {
            roots.push(cp.fpa);
        }
        if let Some(ncp) = self.ncp {
            roots.push(ncp.fpa);
        }
        roots.extend(self.free_list.iter().map(|r| r.fpa));
        roots.extend(self.code_roots.iter().copied());
        if let Some(cell) = self.result_cell {
            roots.push(cell);
        }
        // Pin every cache-resident context.
        let mut pinned: Vec<SegmentName> = Vec::new();
        if let Some(cc) = &self.cc {
            for abs in cc.resident() {
                if let Some(seg) = self.space.segment_at_base(abs) {
                    pinned.push(seg);
                }
            }
        }
        // Swept segment names can be recycled: a stale shadow entry could
        // otherwise validate against a recycled name.
        self.shadow.clear();
        let st = match kind {
            GcKind::Full => gc::collect(&mut self.space, self.team, &roots, &pinned)?,
            GcKind::Minor => gc::collect_minor(&mut self.space, self.team, &roots, &pinned)?,
        };
        self.stats.gc_runs += 1;
        if st.minor {
            self.stats.gc_minor_runs += 1;
        }
        self.stats.gc_cycles += st.cost_cycles();
        self.gc_totals.absorb(&st);
        // Swept names may be recycled; stale escape marks must not leak
        // onto fresh contexts.
        let team = self.team;
        let table_has = |space: &ObjectSpace, seg: &SegmentName| {
            space
                .mmu()
                .team(team)
                .map(|t| t.table.get(*seg).is_some())
                .unwrap_or(false)
        };
        let space_ref = &self.space;
        self.escaped.retain(|seg| table_has(space_ref, seg));
        // Decoded-method cache: code objects are roots, so still live.
        Ok(())
    }

    /// Which periodic collection is due once `step` instructions have
    /// completed, if any. Shared by [`step`](Self::step) and the threaded
    /// [`run`](Self::run) loop so the two charge GC cycles at identical
    /// boundaries; a step on both cadences runs the full collection.
    fn gc_due(&self, step: u64) -> Option<GcKind> {
        if let Some(interval) = self.config.gc_full_interval {
            if step.is_multiple_of(interval) {
                return Some(GcKind::Full);
            }
        }
        if let Some(interval) = self.config.gc_minor_interval {
            if step.is_multiple_of(interval) {
                return Some(GcKind::Minor);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Entry
    // ------------------------------------------------------------------

    /// Sends `selector` to `receiver` with `args` and runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownSelector`] if `selector` was never
    /// interned in the loaded image, [`MachineError::StepLimit`] if the
    /// program does not halt in `max_steps` instructions,
    /// [`MachineError::DoesNotUnderstand`] for a selector no class answers,
    /// or any trap the program raises.
    pub fn send(
        &mut self,
        selector: &str,
        receiver: Word,
        args: &[Word],
        max_steps: u64,
    ) -> Result<RunResult, MachineError> {
        let opcode = self.selector(selector)?;
        self.start_send(opcode, receiver, args)?;
        self.run(max_steps)
    }

    /// Resolves a selector name against the loaded image's interning
    /// table — the one place a missing name becomes
    /// [`MachineError::UnknownSelector`] (both [`send`](Self::send) and
    /// the embedding facade route through here).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownSelector`] if the name was never
    /// interned.
    pub fn selector(&self, name: &str) -> Result<Opcode, MachineError> {
        self.opcodes
            .get(name)
            .ok_or_else(|| MachineError::UnknownSelector(name.to_string()))
    }

    /// Abandons the current send (in flight, trapped, or completed) and
    /// unwinds the machine to a defined, re-callable state:
    ///
    /// * the synthesized entry method's code root is released;
    /// * the context registers, instruction pointer and result cell drop
    ///   out of the root set, and every context-cache block is released
    ///   (resident contexts are pinned by the collector, and with the
    ///   registers gone their contents are dead — free-list contexts are
    ///   cleared on reuse, so nothing needs writing back);
    /// * the pooled free contexts and stale escape marks are dropped
    ///   (both are per-call-graph state a fresh machine does not have);
    /// * the ITLB and instruction cache **contents** are flushed (their
    ///   cumulative statistics counters are machine history and stay).
    ///
    /// The abandoned call graph is then fully collectable, and the next
    /// [`start_send`](Self::start_send) is indistinguishable from one on
    /// a freshly booted machine: same answers, same [`CycleStats`]
    /// deltas, same heap after a collection. [`run_for`](Self::run_for)
    /// (and [`run_stepwise`](Self::run_stepwise)) route every trap exit
    /// through here, so an unhandled trap can never wedge the machine or
    /// leave the dead call graph rooted.
    pub fn abort_send(&mut self) {
        self.release_entry();
        self.cp = None;
        self.ncp = None;
        self.ip = None;
        self.result_cell = None;
        self.halted = None;
        self.shadow.clear();
        self.last_dest = None;
        self.cur_slab = DefinedMethod::UNRESOLVED;
        self.free_list.clear();
        self.escaped.clear();
        if let Some(cc) = &mut self.cc {
            cc.set_current(None);
            cc.set_next(None);
            for abs in cc.resident() {
                cc.release(abs);
            }
        }
        if let Some(itlb) = &mut self.itlb {
            itlb.flush();
        }
        if let Some(ic) = &mut self.icache {
            ic.clear();
        }
    }

    /// Prepares the bootstrap contexts and entry code for a send, without
    /// running. Useful for single-stepping tests.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors.
    pub fn start_send(
        &mut self,
        selector: Opcode,
        receiver: Word,
        args: &[Word],
    ) -> Result<(), MachineError> {
        self.halted = None;
        self.shadow.clear();
        // A trapped (never-halted) previous send left its entry rooted.
        self.release_entry();
        // A one-word cell receives the program result.
        let cell = self
            .space
            .create(self.team, ClassTable::OBJECT, 1, AllocKind::Object)?;
        self.result_cell = Some(cell);

        // Synthesise the entry method:
        //   0: <selector>/n         (the send)
        //   1: move/0 (ret)         (return-from-entry: halts the machine)
        let nargs = (1 + args.len()).min(2) as u8;
        let entry = CodeObject {
            name: format!("entry>>{selector}"),
            n_args: 1 + args.len() as u8,
            instrs: vec![
                Instr::zero(selector, nargs, false)?,
                Instr::zero(Opcode::MOVE, 0, true)?,
            ],
            consts: vec![],
        };
        let entry_base = entry.store(&mut self.space, self.team)?;
        self.code_roots.push(entry_base);
        self.entry_base = Some(entry_base);

        // Bootstrap contexts: main (current) and the callee's (next).
        let mut main = self.alloc_context()?;
        if let Some(cc) = &mut self.cc {
            main.block = cc.next();
            cc.set_current(main.block);
            cc.set_next(None);
        }
        self.cp = Some(main);
        let mut next = self.alloc_context()?;
        if let Some(cc) = &mut self.cc {
            next.block = cc.next();
        }
        self.ncp = Some(next);
        // main's RCP stays Uninit: returning into it halts the machine.
        self.ctx_write_raw(true, CTX_RCP, Word::Ptr(main.fpa), self.context_class)?;
        self.ctx_write_raw(true, CTX_ARG0, Word::Ptr(cell), ClassTable::OBJECT)?;
        let rclass = self.class_of_word(&receiver)?;
        self.ctx_write_raw(true, CTX_ARG1, receiver, rclass)?;
        for (i, a) in args.iter().enumerate() {
            let c = self.class_of_word(a)?;
            self.ctx_write_raw(true, CTX_ARG1 + 1 + i as u64, *a, c)?;
        }

        let id = self.install_entry(entry_base)?;
        let (f, a, dec) = self.slab_entry(id);
        self.set_ip(f, a, dec);
        self.cur_slab = id;
        self.pc = 0;
        self.last_dest = None;
        Ok(())
    }

    /// Runs until the entry send returns or `max_steps` is exhausted.
    ///
    /// Budget exhaustion surfaces as [`MachineError::StepLimit`]; callers
    /// that want to treat an exhausted budget as a resumable yield rather
    /// than an error should use [`run_for`](Self::run_for), which this
    /// delegates to.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::StepLimit`] on exhaustion or any trap.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, MachineError> {
        match self.run_for(max_steps)? {
            RunOutcome::Done(r) => Ok(r),
            RunOutcome::OutOfBudget => Err(MachineError::StepLimit),
        }
    }

    /// Runs for at most `budget` instructions, returning
    /// [`RunOutcome::Done`] when the entry send completes and
    /// [`RunOutcome::OutOfBudget`] when the budget runs out mid-program.
    ///
    /// Exhaustion is **not** an error: every machine invariant (registers,
    /// caches, GC cadence, [`CycleStats`]) is consistent at the yield
    /// point, and a later `run_for` continues exactly where this one
    /// stopped — a program driven by many small budgets produces the same
    /// result and bit-identical statistics as one uninterrupted run. This
    /// is the engine primitive under the `com-vm` facade's resumable
    /// `Session::resume` and its cooperative scheduler.
    ///
    /// This is the *threaded* hot loop: the current decoded method is
    /// borrowed across the inner loop and re-fetched only on control
    /// transfers, operands execute from their decode-time lowered form,
    /// and the per-instruction counters are batched into loop-locals that
    /// flush at run end, trap, or transfer. Architectural behaviour and
    /// statistics are bit-identical to [`run_stepwise`](Self::run_stepwise)
    /// — only wall-clock differs.
    ///
    /// # Errors
    ///
    /// Any trap the program raises — and a trap exit **unwinds**: the
    /// statistics accrued up to the faulting instruction are flushed and
    /// kept, then the machine routes through
    /// [`abort_send`](Self::abort_send), so the trapped call graph is
    /// immediately collectable and the next
    /// [`start_send`](Self::start_send) is indistinguishable from one on
    /// a fresh machine. (Budget exhaustion is a yield, not a trap: the
    /// in-flight call survives and resumes.)
    pub fn run_for(&mut self, budget: u64) -> Result<RunOutcome, MachineError> {
        match self.run_for_inner(budget) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.abort_send();
                Err(e)
            }
        }
    }

    /// [`run_for`](Self::run_for) without the trap-exit unwind: the
    /// threaded loop itself.
    fn run_for_inner(&mut self, budget: u64) -> Result<RunOutcome, MachineError> {
        /// Why an inner threaded segment ended.
        enum SegEnd {
            /// The step budget ran out mid-method.
            Budget,
            /// Control transferred (call/return/xfer): re-fetch the method.
            Transfer,
            /// The program halted.
            Halt,
            /// The periodic garbage collection came due.
            GcDue,
            /// The program counter left the method body.
            BadPc,
            /// A trap unwound execution.
            Trap(MachineError),
        }

        let mut remaining = budget;
        loop {
            if remaining == 0 {
                return Ok(RunOutcome::OutOfBudget);
            }
            if let Some(result) = self.halted {
                return Ok(RunOutcome::Done(RunResult {
                    result,
                    stats: self.stats,
                    steps: self.steps,
                }));
            }
            let (method_fpa, method_abs, dec) = match &self.ip {
                Some((f, a, d)) => (*f, *a, Arc::clone(d)),
                None => return Err(MachineError::NoContext),
            };
            let gen = self.ip_gen;
            let gc_on =
                self.config.gc_minor_interval.is_some() || self.config.gc_full_interval.is_some();
            let steps_base = self.steps;
            // Instructions completed against `dec`, not yet in the stats.
            let mut done: u64 = 0;
            let end = loop {
                if done == remaining {
                    break SegEnd::Budget;
                }
                let Some(low) = dec.body.low.get(self.pc as usize) else {
                    break SegEnd::BadPc;
                };
                // Step 1: fetch through the instruction cache.
                if let Some(ic) = &mut self.icache {
                    let addr = method_abs.0 + CodeObject::HEADER_WORDS + self.pc;
                    if !ic.lookup(addr) {
                        ic.fill(addr);
                        self.stats.icache_miss_cycles += self.config.icache_miss_penalty;
                    }
                }
                // The instruction issues: it counts even if a later stage
                // traps, exactly as the reference interpreter counts it.
                done += 1;
                if let Err(e) = self.exec_low(low) {
                    break SegEnd::Trap(e);
                }
                if gc_on && self.gc_due(steps_base + done).is_some() {
                    break SegEnd::GcDue;
                }
                if self.ip_gen != gen || self.halted.is_some() {
                    // The reference loop runs the copyback check after
                    // every instruction; here it runs only after control
                    // transfers (and halts). The two are event-identical:
                    // the free-block count only *decreases* via context
                    // allocation and installation, which happen solely in
                    // call/return/xfer (all of which bump `ip_gen`) — so
                    // between transfers the low-water check cannot newly
                    // trip, and the skipped checks were no-ops.
                    if let Err(e) = self.maybe_copyback() {
                        break SegEnd::Trap(e);
                    }
                    break if self.halted.is_some() {
                        SegEnd::Halt
                    } else {
                        SegEnd::Transfer
                    };
                }
            };
            // Flush the batched counters before anything can observe them.
            self.stats.instructions += done;
            self.stats.base_cycles += 2 * done;
            self.steps += done;
            remaining -= done;
            match end {
                SegEnd::Budget | SegEnd::Transfer => {}
                SegEnd::Halt => {
                    let result = self.halted.expect("halt segment end");
                    return Ok(RunOutcome::Done(RunResult {
                        result,
                        stats: self.stats,
                        steps: self.steps,
                    }));
                }
                SegEnd::GcDue => {
                    // Mirrors the reference interpreter's post-instruction
                    // sequence: collect, then copyback, then re-dispatch
                    // (the outer loop re-checks halt).
                    let kind = self.gc_due(self.steps).expect("a collection was due");
                    self.collect_garbage_kind(kind)?;
                    self.maybe_copyback()?;
                }
                SegEnd::BadPc => return Err(MachineError::BadMethod(method_fpa)),
                SegEnd::Trap(e) => return Err(e),
            }
        }
    }

    /// Executes one lowered instruction: hazard check, operand fetch,
    /// ITLB translation, then either the pure-data fast path (function
    /// unit straight to a context slot) or the shared generic paths.
    #[inline(always)]
    fn exec_low(&mut self, low: &LowInstr) -> Result<(), MachineError> {
        // Hazard check (§3.6): an O(1) compare of precomputed slots
        // against the previous instruction's destination.
        if let Some(last) = self.last_dest {
            let mut hazard = false;
            for (next, off) in low.hazards.into_iter().flatten() {
                let reg = if next { self.ncp } else { self.cp };
                if let Some(r) = reg {
                    if (r.abs, off) == last {
                        hazard = true;
                        break;
                    }
                }
            }
            if hazard {
                if self.config.strict_hazards {
                    return Err(MachineError::Hazard { pc: self.pc });
                }
                self.stats.interlock_cycles += 1;
            }
        }
        self.last_dest = None;

        // Step 2: operand fetch (values + class tags).
        let instr = low.instr;
        let (b, c, key) = match instr {
            Instr::Three { op, .. } => {
                let bv = self.read_low(low.b)?;
                let cv = self.read_low(low.c)?;
                (bv, cv, ItlbKey::binary(op, bv.1, cv.1))
            }
            Instr::Zero { op, nargs, .. } => {
                let bv = self.ctx_read(true, 1)?;
                let cv = if nargs >= 2 {
                    self.ctx_read(true, 2)?
                } else {
                    (Word::Uninit, ClassId::NONE)
                };
                let key = if nargs >= 2 {
                    ItlbKey::binary(op, bv.1, cv.1)
                } else {
                    ItlbKey::unary(op, bv.1)
                };
                (bv, cv, key)
            }
        };
        if self.observer.is_some() {
            self.observe_dispatch(key);
        }

        // Step 3: translate through the ITLB (or pay full lookup). A
        // failed translation is offered to software trap dispatch (the
        // same shared path `step` uses) before it kills the send.
        let method = match self.resolve(key) {
            Ok(m) => m,
            Err(e) => return self.trap_dispatch(instr, b, c, e),
        };

        // Steps 4-5: perform the operation, store results.
        match method {
            MethodRef::Primitive(p) => {
                if instr.returns() && is_pure_data(p) && matches!(instr, Instr::Three { .. }) {
                    // Fast return: function unit result through the result
                    // pointer, then the return sequence — the lowered
                    // mirror of `write_result`'s returning branch. An
                    // operand trap propagates directly: `trap_dispatch`
                    // refuses return-fused instructions before charging
                    // anything, so `?` here is exactly equivalent.
                    let v = crate::exec::data_op(p, instr.opcode(), b.0, c.0)?;
                    let class = self.class_of_word(&v)?;
                    let (ptr_w, _) = self.read_low(low.a)?;
                    match ptr_w {
                        Word::Ptr(ptr) => self.store_result(ptr, v, class)?,
                        // No result expected (result pointer never set).
                        Word::Uninit => {}
                        _ => {
                            return Err(MachineError::BadOperands {
                                opcode: instr.opcode(),
                                reason: "result pointer slot does not hold a pointer",
                            })
                        }
                    }
                    self.do_return()?;
                    self.last_dest = None;
                    return Ok(());
                }
                if let Some((dnext, doff)) = low.dest {
                    if is_pure_data(p) {
                        // Fast path: function unit result into a context
                        // slot. Charges exactly what the generic
                        // `exec_primitive` + `write_result` pair charges
                        // for the same instruction: nothing beyond base.
                        // An operand trap takes the same software
                        // dispatch offer the generic path takes.
                        let v = match crate::exec::data_op(p, instr.opcode(), b.0, c.0) {
                            Ok(v) => v,
                            Err(e) => return self.trap_dispatch(instr, b, c, e),
                        };
                        let class = self.class_of_word(&v)?;
                        self.ctx_write_raw(dnext, doff, v, class)?;
                        let reg = if dnext { &self.ncp } else { &self.cp };
                        self.last_dest = reg.as_ref().map(|r| (r.abs, doff));
                        self.pc += 1;
                        return Ok(());
                    }
                }
                self.exec_primitive(instr, p, b, c)
            }
            MethodRef::Defined(d) => self.do_call(instr, d, b, c),
        }
    }

    /// Fetches a lowered operand (the fast-path analogue of
    /// [`fetch_operand`](Self::fetch_operand)).
    #[inline(always)]
    fn read_low(&mut self, op: LowOperand) -> Result<(Word, ClassId), MachineError> {
        match op {
            LowOperand::Cur(off) => self.ctx_read_raw(false, off),
            LowOperand::Next(off) => self.ctx_read_raw(true, off),
            LowOperand::Imm(w, c) => Ok((w, c)),
            LowOperand::BadConst(i) => Err(MachineError::ConstOutOfRange { index: i }),
        }
    }

    /// Runs via the reference single-step interpreter: one
    /// [`step`](Self::step) per instruction, every invariant
    /// re-established from machine state each time, over the same simulated
    /// structures. Results and architectural statistics are bit-identical to
    /// [`run`](Self::run); only wall-clock differs. The bench pipeline
    /// measures the threaded loop against this baseline, and the
    /// differential tests use it as the oracle.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::StepLimit`] on exhaustion (the in-flight
    /// call survives and can be driven further, exactly like
    /// [`run_for`](Self::run_for)'s out-of-budget outcome) or any trap —
    /// and a trap exit unwinds through [`abort_send`](Self::abort_send)
    /// exactly as [`run_for`](Self::run_for)'s does, so the two loops
    /// leave bit-identical machines on every trap path.
    pub fn run_stepwise(&mut self, max_steps: u64) -> Result<RunResult, MachineError> {
        for _ in 0..max_steps {
            match self.step() {
                Ok(()) => {}
                Err(MachineError::Halted(result)) => {
                    return Ok(RunResult {
                        result,
                        stats: self.stats,
                        steps: self.steps,
                    })
                }
                Err(e) => {
                    self.abort_send();
                    return Err(e);
                }
            }
        }
        Err(MachineError::StepLimit)
    }
}

/// Whether a primitive is a pure data operation — the set
/// `exec_primitive` routes to [`data_op`](crate::exec::data_op). The
/// classification lives on [`PrimOp::is_pure_data`] so the static
/// verifier folds exactly the set the engine evaluates.
#[inline]
fn is_pure_data(p: PrimOp) -> bool {
    p.is_pure_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::Assembler;

    /// The engine's concurrency contract: a machine owns all of its
    /// mutable state (the decoded slab shares only immutable
    /// [`DecodedBody`]s behind `Arc`), so it may be moved across threads.
    /// Compile-time: regressing to a non-`Send` handle type (`Rc`, raw
    /// pointers) fails this test at build, not at runtime.
    #[test]
    fn machine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
        assert_send::<RunResult>();
        assert_send::<MachineError>();
    }

    fn image_with(
        class: ClassId,
        selector: &str,
        build: impl FnOnce(&mut Assembler),
    ) -> (ProgramImage, Opcode) {
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern(selector);
        let mut asm = Assembler::new(format!("test>>{selector}"), 2);
        build(&mut asm);
        img.add_method(class, sel, asm.finish().unwrap());
        (img, sel)
    }

    fn run(img: &ProgramImage, selector: &str, recv: Word, args: &[Word]) -> RunResult {
        let mut m = Machine::new(MachineConfig::default());
        m.load(img).unwrap();
        m.send(selector, recv, args, 100_000).unwrap()
    }

    #[test]
    fn primitive_add_via_defined_wrapper() {
        // SmallInteger>>plus: other — c3 <- self + other; return c3.
        let (img, _) = image_with(ClassId::SMALL_INT, "plus:", |asm| {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Cur(2),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(3),
                Operand::Cur(3),
            )
            .unwrap();
        });
        let out = run(&img, "plus:", Word::Int(20), &[Word::Int(22)]);
        assert_eq!(out.result, Word::Int(42));
        assert!(out.stats.calls >= 1);
        assert!(out.stats.returns >= 1);
    }

    #[test]
    fn constants_and_jumps() {
        // abs: return self < 0 ? self negated : self
        let (img, _) = image_with(ClassId::SMALL_INT, "abs", |asm| {
            let k0 = asm.intern_const(Word::Int(0));
            // c3 <- self < 0
            asm.emit_three(
                Opcode::LT,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Const(k0),
            )
            .unwrap();
            let neg = asm.label();
            asm.jump_if(Operand::Cur(3), neg);
            // return self
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(1),
                Operand::Cur(1),
            )
            .unwrap();
            asm.bind(neg);
            // c4 <- self negated ; return c4
            asm.emit_three(
                Opcode::NEG,
                Operand::Cur(4),
                Operand::Cur(1),
                Operand::Cur(1),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(4),
                Operand::Cur(4),
            )
            .unwrap();
        });
        assert_eq!(run(&img, "abs", Word::Int(-5), &[]).result, Word::Int(5));
        assert_eq!(run(&img, "abs", Word::Int(7), &[]).result, Word::Int(7));
    }

    #[test]
    fn recursion_and_deep_calls() {
        // SmallInteger>>sumto — recursive sum 1..self.
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("sumto");
        let mut asm = Assembler::new("SmallInteger>>sumto", 1);
        let k0 = asm.intern_const(Word::Int(0));
        let k1 = asm.intern_const(Word::Int(1));
        // c3 <- self <= 0
        asm.emit_three(
            Opcode::LE,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Const(k0),
        )
        .unwrap();
        let base = asm.label();
        asm.jump_if(Operand::Cur(3), base);
        // c4 <- self - 1 ; c5 <- c4 sumto ; c6 <- self + c5 ; return c6
        asm.emit_three(
            Opcode::SUB,
            Operand::Cur(4),
            Operand::Cur(1),
            Operand::Const(k1),
        )
        .unwrap();
        asm.emit_three(
            Opcode(sel.0),
            Operand::Cur(5),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap();
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(6),
            Operand::Cur(1),
            Operand::Cur(5),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(6),
            Operand::Cur(6),
        )
        .unwrap();
        asm.bind(base);
        // B must be context mode; MOVE takes its value from C (= 0).
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Const(k0),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

        let out = run(&img, "sumto", Word::Int(100), &[]);
        assert_eq!(out.result, Word::Int(5050));
        // 100 recursive calls plus the entry send.
        assert!(out.stats.calls >= 101);
        // Every call returns, plus the entry method's own halt-return.
        assert_eq!(out.stats.returns, out.stats.calls + 1);
        // LIFO discipline: every level freed eagerly.
        assert!(out.stats.contexts_freed_lifo >= 100);
    }

    #[test]
    fn call_cost_matches_paper() {
        // A method that immediately returns; called once via 3-operand form.
        let (img, _) = image_with(ClassId::SMALL_INT, "nop:", |asm| {
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(1),
                Operand::Cur(1),
            )
            .unwrap();
        });
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        let out = m.send("nop:", Word::Int(1), &[Word::Int(2)], 1000).unwrap();
        // Entry send is zero-operand: call linkage 2 cycles, no copies.
        // §3.6: zero-operand call delays execution 4 cycles total (2 base +
        // 1 flush + 1 linkage).
        let s = out.stats;
        assert_eq!(s.calls, 1);
        assert_eq!(s.call_linkage_cycles, 2);
        assert_eq!(s.operand_copy_cycles, 0);
    }

    #[test]
    fn captured_context_in_resident_slot_survives_minor_gc() {
        // The pinning-hole regression: a captured (nursery) context whose
        // only reference lives in a *cache-resident, dirty* slot of a
        // tenured context. The store went through the context cache's
        // directory-bypassing path, so no write barrier ran and the holder
        // is not in the remembered set; only pinning (and scanning) the
        // residents keeps the captured context alive through a minor
        // collection.
        let (img, _) = image_with(ClassId::SMALL_INT, "nop:", |asm| {
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(1),
                Operand::Cur(1),
            )
            .unwrap();
        });
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        let sel = m.opcodes().get("nop:").unwrap();
        m.start_send(sel, Word::Int(1), &[Word::Int(2)]).unwrap();
        // A full collection promotes the bootstrap contexts to tenured.
        m.collect_garbage().unwrap();
        // A fresh captured context: nursery, reachable from nothing yet.
        let captured = m
            .space
            .create(m.team, m.context_class, CONTEXT_WORDS, AllocKind::Context)
            .unwrap();
        // Store its pointer into a slot of the (resident, tenured) current
        // context — the cache write path, no barrier.
        let ctx_class = m.context_class;
        m.ctx_write_raw(false, CTX_ARG1 + 4, Word::Ptr(captured), ctx_class)
            .unwrap();
        assert_eq!(
            m.space.barrier_stats().remembered_segments,
            0,
            "the resident-slot store must not have gone through the barrier"
        );
        m.collect_garbage_kind(GcKind::Minor).unwrap();
        assert!(
            m.space.read(m.team, captured).is_ok(),
            "captured context reachable only through a cache-resident slot was swept"
        );
        assert_eq!(m.gc_totals().minor_collections, 1);
    }

    #[test]
    fn full_gc_pins_resident_contexts_instead_of_releasing_them() {
        // Every cache-resident context must keep its backing segment and
        // storage across a full collection — residents are part of the
        // machine state, not sweep-then-release fodder.
        let (img, _) = image_with(ClassId::SMALL_INT, "nop:", |asm| {
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(1),
                Operand::Cur(1),
            )
            .unwrap();
        });
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        let sel = m.opcodes().get("nop:").unwrap();
        m.start_send(sel, Word::Int(1), &[Word::Int(2)]).unwrap();
        m.collect_garbage().unwrap();
        let residents = m.cc.as_ref().expect("cc on").resident();
        assert!(!residents.is_empty());
        for abs in residents {
            assert!(
                m.space.memory().block_words(abs).is_some(),
                "resident context at {abs} lost its storage across a full GC"
            );
            assert!(
                m.space.segment_at_base(abs).is_some(),
                "resident context at {abs} lost its segment across a full GC"
            );
        }
    }

    #[test]
    fn send_of_uninterned_selector_errors_instead_of_panicking() {
        let img = ProgramImage::empty();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        match m.send("neverInterned:", Word::Int(1), &[], 100) {
            Err(MachineError::UnknownSelector(name)) => {
                assert_eq!(name, "neverInterned:");
            }
            other => panic!("expected UnknownSelector, got {other:?}"),
        }
        // The machine is still usable after the refused send.
        let sel = m.intern_selector("stillFine");
        assert!(m.opcodes().get("stillFine").is_some());
        let _ = sel;
    }

    #[test]
    fn repeated_sends_do_not_leak_entry_roots_or_heap() {
        // The per-send leak: every `start_send` used to pin the synthesized
        // entry method in `code_roots` forever, so roots (and the live heap
        // under GC) grew linearly with sends.
        let (img, _) = image_with(ClassId::SMALL_INT, "plus:", |asm| {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Cur(2),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(3),
                Operand::Cur(3),
            )
            .unwrap();
        });
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        // Warm up past the context cache's 32 blocks: cache-resident
        // contexts are pinned across collections (machine state), and each
        // can keep one dead entry-code object alive through its stale RIP
        // until its block is recycled — a *bounded* residual, saturated
        // after a few dozen sends. Anything growing past this warmup is a
        // real leak.
        for _ in 0..40 {
            m.send("plus:", Word::Int(1), &[Word::Int(2)], 10_000)
                .unwrap();
        }
        let roots = m.code_root_count();
        m.collect_garbage().unwrap();
        let live = m.space().memory().buddy().allocated_words();
        for i in 0..50 {
            let out = m
                .send("plus:", Word::Int(i), &[Word::Int(2)], 10_000)
                .unwrap();
            assert_eq!(out.result, Word::Int(i + 2));
            assert_eq!(
                m.code_root_count(),
                roots,
                "code roots grew across completed sends"
            );
        }
        m.collect_garbage().unwrap();
        assert_eq!(
            m.space().memory().buddy().allocated_words(),
            live,
            "live heap grew across 50 completed sends"
        );
    }

    #[test]
    fn run_for_yields_and_resumes_bit_identically() {
        // Driving a program with many tiny budgets must reproduce the
        // one-shot run exactly: same result, same CycleStats, same steps.
        let (img, _) = image_with(ClassId::SMALL_INT, "plus:", |asm| {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Cur(2),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(3),
                Operand::Cur(3),
            )
            .unwrap();
        });
        let one_shot = run(&img, "plus:", Word::Int(20), &[Word::Int(22)]);

        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        let sel = m.opcodes().get("plus:").unwrap();
        m.start_send(sel, Word::Int(20), &[Word::Int(22)]).unwrap();
        let mut yields = 0u32;
        let sliced = loop {
            match m.run_for(1).unwrap() {
                RunOutcome::Done(r) => break r,
                RunOutcome::OutOfBudget => yields += 1,
            }
        };
        assert_eq!(sliced.result, Word::Int(42));
        assert_eq!(sliced.result, one_shot.result);
        assert_eq!(sliced.stats, one_shot.stats);
        assert_eq!(sliced.steps, one_shot.steps);
        assert!(
            yields >= sliced.steps as u32 - 1,
            "budget of 1 must yield per step"
        );
    }

    #[test]
    fn load_image_shares_decoded_bodies_and_matches_lazy_load() {
        // A LoadedImage-booted machine must behave (results + CycleStats)
        // exactly like one that loaded the raw image and decoded lazily.
        let (img, _) = image_with(ClassId::SMALL_INT, "plus:", |asm| {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Cur(2),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(3),
                Operand::Cur(3),
            )
            .unwrap();
        });
        let loaded = crate::LoadedImage::prepare(img.clone());
        assert_eq!(loaded.predecoded(), loaded.methods());

        let mut shared = Machine::new(MachineConfig::default());
        shared.load_image(&loaded).unwrap();
        let mut lazy = Machine::new(MachineConfig::default());
        lazy.load(&img).unwrap();
        for i in 0..10 {
            let a = shared
                .send("plus:", Word::Int(i), &[Word::Int(2)], 10_000)
                .unwrap();
            let b = lazy
                .send("plus:", Word::Int(i), &[Word::Int(2)], 10_000)
                .unwrap();
            assert_eq!(a.result, b.result);
            assert_eq!(a.stats, b.stats, "send {i}: stats diverged");
        }
    }

    #[test]
    fn does_not_understand_traps() {
        let img = ProgramImage::empty();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        let sel = m.intern_selector("frobnicate");
        m.start_send(sel, Word::Int(1), &[]).unwrap();
        match m.run(100) {
            Err(MachineError::DoesNotUnderstand { class, .. }) => {
                assert_eq!(class, ClassId::SMALL_INT);
            }
            other => panic!("expected DNU, got {other:?}"),
        }
    }

    /// An image where SmallInteger installs a `doesNotUnderstand:`
    /// handler that answers the reified message's selector opcode (word
    /// 0), and interns `frobnicate` without defining it anywhere.
    fn dnu_handler_image() -> (ProgramImage, Opcode) {
        let mut img = ProgramImage::empty();
        let missing = img.opcodes.intern("frobnicate");
        let dnu = img
            .opcodes
            .intern(com_obj::TrapSelector::DoesNotUnderstand.name());
        // doesNotUnderstand: msg — c3 <- msg at 0 ; return c3.
        let mut asm = Assembler::new("SmallInteger>>doesNotUnderstand:", 2);
        let k0 = asm.intern_const(Word::Int(0));
        asm.emit_three(
            Opcode::RAWAT,
            Operand::Cur(3),
            Operand::Cur(2),
            Operand::Const(k0),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, dnu, asm.finish().unwrap());
        (img, missing)
    }

    #[test]
    fn dnu_handler_catches_failed_send_and_execution_continues() {
        // The entry send itself fails lookup; the handler's answer (the
        // reified selector opcode) becomes the program result — the
        // trapped-by-default condition ran to a halt instead.
        let (img, missing) = dnu_handler_image();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        m.start_send(missing, Word::Int(9), &[]).unwrap();
        let out = m.run(10_000).unwrap();
        assert_eq!(out.result, Word::Int(missing.0 as i64));
        assert_eq!(out.stats.soft_traps, 1);
        // The stepwise loop dispatches identically.
        let mut s = Machine::new(MachineConfig::default());
        s.load(&img).unwrap();
        s.start_send(missing, Word::Int(9), &[]).unwrap();
        let b = s.run_stepwise(10_000).unwrap();
        assert_eq!(b.result, out.result);
        assert_eq!(
            b.stats, out.stats,
            "handler dispatch diverged between loops"
        );
    }

    #[test]
    fn bad_operands_handler_catches_divide_by_zero() {
        // div0: c3 <- self / 0 ; return c3 — with a badOperands: handler
        // on SmallInteger answering the reified argument (the zero).
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("div0");
        let bad = img
            .opcodes
            .intern(com_obj::TrapSelector::BadOperands.name());
        let mut asm = Assembler::new("SmallInteger>>div0", 1);
        let k0 = asm.intern_const(Word::Int(0));
        asm.emit_three(
            Opcode::DIV,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Const(k0),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        // badOperands: msg — c3 <- 777 ; return c3 (a recovery value).
        let mut asm = Assembler::new("SmallInteger>>badOperands:", 2);
        let k = asm.intern_const(Word::Int(777));
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Const(k),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, bad, asm.finish().unwrap());

        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        let out = m.send("div0", Word::Int(14), &[], 10_000).unwrap();
        assert_eq!(out.result, Word::Int(777));
        assert_eq!(out.stats.soft_traps, 1);
    }

    #[test]
    fn trap_exit_unwinds_to_a_fresh_machine() {
        // The engine unwind contract: an unhandled trap routes through
        // abort_send, so the next start_send is indistinguishable from
        // one on a freshly booted machine — same answer, same CycleStats
        // delta, and (after a collection) the same live heap and roots.
        let (img, _) = image_with(ClassId::SMALL_INT, "plus:", |asm| {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Cur(2),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(3),
                Operand::Cur(3),
            )
            .unwrap();
        });
        let mut fresh = Machine::new(MachineConfig::default());
        fresh.load(&img).unwrap();
        let baseline = fresh
            .send("plus:", Word::Int(20), &[Word::Int(22)], 10_000)
            .unwrap();

        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        // Trap: an interned selector nothing answers (atom receiver).
        let missing = m.intern_selector("zap:");
        m.start_send(missing, Word::Atom(com_mem::AtomId(5)), &[Word::Int(1)])
            .unwrap();
        match m.run(10_000) {
            Err(MachineError::DoesNotUnderstand { .. }) => {}
            other => panic!("expected DNU, got {other:?}"),
        }
        // Unwound: registers and the trapped call graph are gone...
        assert_eq!(m.code_root_count(), fresh.code_root_count());
        // ...and the follow-up call is bit-identical to the fresh
        // machine's first call (warm-state leaks — ITLB, icache, context
        // pool — would show up here as cheaper lookups or fetches).
        let before = m.stats();
        let out = m
            .send("plus:", Word::Int(20), &[Word::Int(22)], 10_000)
            .unwrap();
        assert_eq!(out.result, baseline.result);
        assert_eq!(
            out.stats.since(&before),
            baseline.stats,
            "post-trap call diverged from a fresh machine's"
        );
        // After a full collection the trapped call left no live residue:
        // both machines hold exactly the same number of allocated words.
        m.collect_garbage().unwrap();
        fresh.collect_garbage().unwrap();
        assert_eq!(
            m.space().memory().buddy().allocated_words(),
            fresh.space().memory().buddy().allocated_words(),
            "the trapped call graph stayed live across GC"
        );
    }

    #[test]
    fn works_without_itlb_and_without_context_cache() {
        let (img, _) = image_with(ClassId::SMALL_INT, "plus:", |asm| {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Cur(2),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(3),
                Operand::Cur(3),
            )
            .unwrap();
        });
        for cfg in [
            MachineConfig::default().without_itlb(),
            MachineConfig::default().without_context_cache(),
            MachineConfig::default()
                .without_itlb()
                .without_context_cache(),
        ] {
            let mut m = Machine::new(cfg);
            m.load(&img).unwrap();
            let out = m
                .send("plus:", Word::Int(1), &[Word::Int(2)], 10_000)
                .unwrap();
            assert_eq!(out.result, Word::Int(3));
        }
    }

    #[test]
    fn itlb_eliminates_repeat_lookups() {
        let (img, _) = image_with(ClassId::SMALL_INT, "plus:", |asm| {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Cur(2),
            )
            .unwrap();
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(3),
                Operand::Cur(3),
            )
            .unwrap();
        });
        let mut m = Machine::new(MachineConfig::default());
        m.load(&img).unwrap();
        m.send("plus:", Word::Int(1), &[Word::Int(2)], 10_000)
            .unwrap();
        let first = m.stats().full_lookups;
        m.send("plus:", Word::Int(3), &[Word::Int(4)], 10_000)
            .unwrap();
        let second = m.stats().full_lookups - first;
        assert!(
            second < first,
            "warm ITLB must avoid lookups: {second} vs {first}"
        );
    }
}
