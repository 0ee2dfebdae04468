//! Regression tests for the threaded interpreter fast paths.
//!
//! The architectural contract (see `com_core::machine` module docs): the
//! threaded loop ([`Machine::run`]) and the reference single-step loop
//! ([`Machine::run_stepwise`]) must be *bit-identical* in everything the
//! simulation models — results, instruction counts, [`CycleStats`], and
//! cache statistics. Only wall-clock may differ.

use com_core::{CycleStats, Machine, MachineConfig, MachineError, ProgramImage};
use com_isa::{Assembler, Opcode, Operand};
use com_mem::{ClassId, Word};
use com_obj::ClassTable;

/// A recursive sum-to-n: calls, returns, branches, constants, interlocks.
fn sumto_image() -> (ProgramImage, &'static str) {
    let mut img = ProgramImage::empty();
    let sel = img.opcodes.intern("sumto");
    let mut asm = Assembler::new("SmallInteger>>sumto", 1);
    let k0 = asm.intern_const(Word::Int(0));
    let k1 = asm.intern_const(Word::Int(1));
    asm.emit_three(
        Opcode::LE,
        Operand::Cur(3),
        Operand::Cur(1),
        Operand::Const(k0),
    )
    .unwrap();
    let base = asm.label();
    asm.jump_if(Operand::Cur(3), base);
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
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(1),
        Operand::Const(k0),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
    (img, "sumto")
}

/// An image whose `answer` method returns `value` (for reload tests).
fn answer_image(value: i64) -> ProgramImage {
    let mut img = ProgramImage::empty();
    let sel = img.opcodes.intern("answer");
    let mut asm = Assembler::new("SmallInteger>>answer", 1);
    let k = asm.intern_const(Word::Int(value));
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(1),
        Operand::Const(k),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
    img
}

struct Observed {
    result: Result<(Word, u64), MachineError>,
    stats: CycleStats,
    itlb: Option<com_cache::CacheStats>,
    icache: Option<com_cache::CacheStats>,
    cc: Option<com_core::CtxCacheStats>,
}

fn observe(
    img: &ProgramImage,
    selector: &str,
    recv: Word,
    cfg: MachineConfig,
    max_steps: u64,
    stepwise: bool,
) -> Observed {
    let mut m = Machine::new(cfg);
    m.load(img).unwrap();
    let sel = m.opcodes().get(selector).unwrap();
    m.start_send(sel, recv, &[]).unwrap();
    let result = if stepwise {
        m.run_stepwise(max_steps)
    } else {
        m.run(max_steps)
    }
    .map(|r| (r.result, r.steps));
    Observed {
        result,
        stats: m.stats(),
        itlb: m.itlb_stats(),
        icache: m.icache_stats(),
        cc: m.ctx_cache_stats(),
    }
}

fn assert_bit_identical(
    img: &ProgramImage,
    selector: &str,
    recv: Word,
    cfg: MachineConfig,
    max_steps: u64,
) {
    let a = observe(img, selector, recv, cfg, max_steps, false);
    let b = observe(img, selector, recv, cfg, max_steps, true);
    assert_eq!(a.result, b.result, "results diverged");
    assert_eq!(a.stats, b.stats, "CycleStats diverged");
    assert_eq!(a.itlb, b.itlb, "ITLB stats diverged");
    assert_eq!(a.icache, b.icache, "icache stats diverged");
    assert_eq!(a.cc, b.cc, "context cache stats diverged");
}

#[test]
fn threaded_and_stepwise_loops_are_bit_identical() {
    let (img, sel) = sumto_image();
    for cfg in [
        MachineConfig::default(),
        MachineConfig::default().without_itlb(),
        MachineConfig::default().without_context_cache(),
        MachineConfig::default()
            .without_itlb()
            .without_context_cache(),
        MachineConfig::default().with_ctx_blocks(4), // deep nesting: copyback engages
        MachineConfig::default().without_eager_lifo_free(),
    ] {
        assert_bit_identical(&img, sel, Word::Int(150), cfg, 1_000_000);
    }
}

#[test]
fn loops_agree_at_step_limit_cutoff() {
    // The batched counters must flush exactly at the budget boundary.
    let (img, sel) = sumto_image();
    for max_steps in [1, 2, 3, 7, 50, 123] {
        let a = observe(
            &img,
            sel,
            Word::Int(100),
            MachineConfig::default(),
            max_steps,
            false,
        );
        let b = observe(
            &img,
            sel,
            Word::Int(100),
            MachineConfig::default(),
            max_steps,
            true,
        );
        assert!(matches!(a.result, Err(MachineError::StepLimit)));
        assert_eq!(a.result, b.result, "cutoff at {max_steps}");
        assert_eq!(a.stats, b.stats, "stats at cutoff {max_steps}");
        assert_eq!(a.stats.instructions, max_steps);
    }
}

#[test]
fn loops_agree_with_periodic_gc() {
    let (img, sel) = sumto_image();
    let cfg = MachineConfig {
        gc_full_interval: Some(97),
        ..MachineConfig::default()
    };
    let a = observe(&img, sel, Word::Int(80), cfg, 1_000_000, false);
    let b = observe(&img, sel, Word::Int(80), cfg, 1_000_000, true);
    assert_eq!(a.result, b.result);
    assert_eq!(a.stats, b.stats);
    assert!(a.stats.gc_runs > 0, "interval GC must actually run");
}

#[test]
fn loops_agree_with_generational_gc() {
    // The write barrier and the minor/full cadence must not perturb the
    // architectural contract: CycleStats (including `gc_cycles` from
    // `GcStats::cost_cycles`) bit-identical between the threaded loop and
    // the stepwise reference loop. Prime intervals land collections in the
    // middle of call bursts rather than on convenient boundaries.
    let (img, sel) = sumto_image();
    let configs = [
        // Minor-only cadence.
        MachineConfig {
            gc_minor_interval: Some(101),
            ..MachineConfig::default()
        },
        // Generational cadence: minor every 101 steps, full every 809.
        MachineConfig {
            gc_minor_interval: Some(101),
            gc_full_interval: Some(809),
            ..MachineConfig::default()
        },
        // Full and minor knobs on unrelated prime cadences.
        MachineConfig {
            gc_full_interval: Some(613),
            gc_minor_interval: Some(97),
            ..MachineConfig::default()
        },
        // Contexts left to the collector: the generational sweep carries
        // the whole reclamation load.
        MachineConfig {
            gc_minor_interval: Some(89),
            gc_full_interval: Some(89 * 7),
            ..MachineConfig::default().without_eager_lifo_free()
        },
        // No context cache: every context store takes the barrier path.
        MachineConfig {
            gc_minor_interval: Some(103),
            gc_full_interval: Some(103 * 5),
            ..MachineConfig::default().without_context_cache()
        },
    ];
    for cfg in configs {
        let a = observe(&img, sel, Word::Int(400), cfg, 1_000_000, false);
        let b = observe(&img, sel, Word::Int(400), cfg, 1_000_000, true);
        assert_eq!(a.result, b.result, "results diverged under {cfg:?}");
        assert_eq!(a.stats, b.stats, "CycleStats diverged under {cfg:?}");
        assert_eq!(a.itlb, b.itlb, "ITLB stats diverged");
        assert_eq!(a.icache, b.icache, "icache stats diverged");
        assert_eq!(a.cc, b.cc, "context cache stats diverged");
        assert!(
            a.stats.gc_minor_runs > 0,
            "minor collections must actually run"
        );
        assert!(a.stats.gc_cycles > 0, "GC cost must be charged");
        if cfg.gc_full_interval.is_some() {
            assert!(
                a.stats.gc_runs > a.stats.gc_minor_runs,
                "full collections must actually run"
            );
        }
    }
}

#[test]
fn decoded_slab_invalidated_across_load() {
    let mut m = Machine::new(MachineConfig::default());
    m.load(&answer_image(1)).unwrap();
    let out = m.send("answer", Word::Int(0), &[], 10_000).unwrap();
    assert_eq!(out.result, Word::Int(1));

    // Replace the program: the slab and every cached translation must be
    // dropped, or the warm ITLB would dispatch into the old image's code.
    m.load(&answer_image(2)).unwrap();
    let out = m.send("answer", Word::Int(0), &[], 10_000).unwrap();
    assert_eq!(
        out.result,
        Word::Int(2),
        "stale decoded method survived load()"
    );

    // Reloading the same program is also fine (fresh copies, fresh slab).
    m.load(&answer_image(2)).unwrap();
    let out = m.send("answer", Word::Int(0), &[], 10_000).unwrap();
    assert_eq!(out.result, Word::Int(2));
}

#[test]
fn warm_resends_reuse_the_slab_and_agree() {
    // Several sends on one machine: the second and later go through the
    // ITLB-resolved slab path end-to-end.
    let (img, sel) = sumto_image();
    let mut fast = Machine::new(MachineConfig::default());
    fast.load(&img).unwrap();
    let mut slow = Machine::new(MachineConfig::default());
    slow.load(&img).unwrap();
    for n in [10, 40, 160] {
        let s = fast.opcodes().get(sel).unwrap();
        fast.start_send(s, Word::Int(n), &[]).unwrap();
        let a = fast.run(1_000_000).unwrap();
        let s = slow.opcodes().get(sel).unwrap();
        slow.start_send(s, Word::Int(n), &[]).unwrap();
        let b = slow.run_stepwise(1_000_000).unwrap();
        assert_eq!(a.result, Word::Int(n * (n + 1) / 2));
        assert_eq!(a.result, b.result);
        assert_eq!(a.stats, b.stats);
    }
}

/// Every trap path, through both loops: the threaded loop and the
/// stepwise reference must agree on the error, the statistics accrued up
/// to the faulting instruction, and every cache's counters — and both
/// must unwind to machines that answer a follow-up send identically.
#[test]
fn trap_paths_are_bit_identical_between_loops() {
    use com_isa::Instr;

    // One image holding a trap-path method per trap kind, plus a healthy
    // method for the post-trap follow-up send.
    let mut img = ProgramImage::empty();
    let k = |asm: &mut Assembler, v: i64| asm.intern_const(Word::Int(v));

    // dnu: sends an interned-but-nowhere-defined selector.
    let missing = img.opcodes.intern("missingSelector:");
    let sel = img.opcodes.intern("dnu:");
    let mut asm = Assembler::new("SmallInteger>>dnu:", 2);
    asm.emit_three(
        Opcode(missing.0),
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
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

    // div0: divide by zero (BadOperands from the function unit).
    let sel = img.opcodes.intern("div0:");
    let mut asm = Assembler::new("SmallInteger>>div0:", 2);
    let k0 = k(&mut asm, 0);
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

    // uninit: an unwritten slot flows into dispatch — the receiver
    // classes as UndefinedObject and the add fails lookup.
    let sel = img.opcodes.intern("uninit:");
    let mut asm = Assembler::new("SmallInteger>>uninit:", 2);
    let k1 = k(&mut asm, 1);
    asm.emit_three(
        Opcode::ADD,
        Operand::Cur(4),
        Operand::Cur(9),
        Operand::Const(k1),
    )
    .unwrap();
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(4),
        Operand::Cur(4),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

    // badbranch: a jump whose condition is a pointer-free non-boolean.
    let sel = img.opcodes.intern("badbranch:");
    let mut asm = Assembler::new("SmallInteger>>badbranch:", 2);
    let kf = asm.intern_const(Word::Float(1.5));
    asm.emit(
        Instr::three(
            Opcode::FJMP,
            Operand::Cur(3),
            Operand::Const(kf),
            Operand::Const(kf),
        )
        .unwrap(),
    );
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(1),
        Operand::Cur(1),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

    // felloff: no return — the pc leaves the method body.
    let sel = img.opcodes.intern("felloff:");
    let mut asm = Assembler::new("SmallInteger>>felloff:", 2);
    asm.emit_three(
        Opcode::ADD,
        Operand::Cur(3),
        Operand::Cur(1),
        Operand::Cur(2),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

    // A healthy method for the post-trap follow-up.
    let sel = img.opcodes.intern("plus:");
    let mut asm = Assembler::new("SmallInteger>>plus:", 2);
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
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

    for trap_sel in ["dnu:", "div0:", "uninit:", "badbranch:", "felloff:"] {
        for cfg in [
            MachineConfig::default(),
            MachineConfig::default().without_itlb(),
            MachineConfig::default().without_context_cache(),
        ] {
            let drive = |stepwise: bool| {
                let mut m = Machine::new(cfg);
                m.load(&img).unwrap();
                let s = m.opcodes().get(trap_sel).unwrap();
                m.start_send(s, Word::Int(6), &[Word::Int(3)]).unwrap();
                let trap = if stepwise {
                    m.run_stepwise(10_000)
                } else {
                    m.run(10_000)
                }
                .map(|r| (r.result, r.steps));
                let trap_stats = m.stats();
                // The unwound machine must serve a follow-up send.
                let s = m.opcodes().get("plus:").unwrap();
                m.start_send(s, Word::Int(2), &[Word::Int(40)]).unwrap();
                let after = if stepwise {
                    m.run_stepwise(10_000)
                } else {
                    m.run(10_000)
                }
                .unwrap();
                (
                    trap,
                    trap_stats,
                    after.result,
                    m.stats(),
                    m.itlb_stats(),
                    m.icache_stats(),
                    m.ctx_cache_stats(),
                )
            };
            let a = drive(false);
            let b = drive(true);
            assert!(a.0.is_err(), "{trap_sel} must trap");
            assert_eq!(a.0, b.0, "{trap_sel}: errors diverged");
            assert_eq!(a.1, b.1, "{trap_sel}: trap-point stats diverged");
            assert_eq!(a.2, Word::Int(42), "{trap_sel}: follow-up wrong");
            assert_eq!(a.3, b.3, "{trap_sel}: post-trap stats diverged");
            assert_eq!(a.4, b.4, "{trap_sel}: ITLB stats diverged");
            assert_eq!(a.5, b.5, "{trap_sel}: icache stats diverged");
            assert_eq!(a.6, b.6, "{trap_sel}: ctx cache stats diverged");
        }
    }
}

/// The handler-dispatch paths (`doesNotUnderstand:` catching a failed
/// send, `badOperands:` catching a divide by zero) through both loops:
/// dispatch must be bit-identical, not just trap exits.
#[test]
fn handler_dispatch_is_bit_identical_between_loops() {
    let mut img = ProgramImage::empty();
    let missing = img.opcodes.intern("missingSelector:");
    let dnu = img
        .opcodes
        .intern(com_obj::TrapSelector::DoesNotUnderstand.name());
    let bad = img
        .opcodes
        .intern(com_obj::TrapSelector::BadOperands.name());

    // proxyBench: n failed sends + one handled divide by zero, looped.
    let sel = img.opcodes.intern("proxyBench");
    let mut asm = Assembler::new("SmallInteger>>proxyBench", 1);
    let k0 = asm.intern_const(Word::Int(0));
    let k1 = asm.intern_const(Word::Int(1));
    // c3 <- self (counter), c4 <- 0 (acc)
    asm.emit_three(
        Opcode::MOVE,
        Operand::Cur(3),
        Operand::Cur(1),
        Operand::Cur(1),
    )
    .unwrap();
    asm.emit_three(
        Opcode::MOVE,
        Operand::Cur(4),
        Operand::Cur(1),
        Operand::Const(k0),
    )
    .unwrap();
    let top = asm.label();
    let body = asm.label();
    let done = asm.label();
    asm.bind(top);
    asm.emit_three(
        Opcode::GT,
        Operand::Cur(5),
        Operand::Cur(3),
        Operand::Const(k0),
    )
    .unwrap();
    asm.jump_if(Operand::Cur(5), body);
    asm.jump(done);
    asm.bind(body);
    // c6 <- self missingSelector: c3   (DNU -> handler answers selector)
    asm.emit_three(
        Opcode(missing.0),
        Operand::Cur(6),
        Operand::Cur(1),
        Operand::Cur(3),
    )
    .unwrap();
    // c7 <- c6 / 0                      (BadOperands -> handler answers 5)
    asm.emit_three(
        Opcode::DIV,
        Operand::Cur(7),
        Operand::Cur(6),
        Operand::Const(k0),
    )
    .unwrap();
    // acc <- acc + c7 ; counter -= 1
    asm.emit_three(
        Opcode::ADD,
        Operand::Cur(4),
        Operand::Cur(4),
        Operand::Cur(7),
    )
    .unwrap();
    asm.emit_three(
        Opcode::SUB,
        Operand::Cur(3),
        Operand::Cur(3),
        Operand::Const(k1),
    )
    .unwrap();
    asm.jump(top);
    asm.bind(done);
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(4),
        Operand::Cur(4),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

    // doesNotUnderstand: msg — answer the reified selector opcode.
    let mut asm = Assembler::new("SmallInteger>>doesNotUnderstand:", 2);
    let kz = asm.intern_const(Word::Int(0));
    asm.emit_three(
        Opcode::RAWAT,
        Operand::Cur(3),
        Operand::Cur(2),
        Operand::Const(kz),
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

    // badOperands: msg — answer 5.
    let mut asm = Assembler::new("SmallInteger>>badOperands:", 2);
    let k5 = asm.intern_const(Word::Int(5));
    asm.emit_three(
        Opcode::MOVE,
        Operand::Cur(3),
        Operand::Cur(1),
        Operand::Const(k5),
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

    for cfg in [
        MachineConfig::default(),
        MachineConfig::default().without_itlb(),
        MachineConfig::default().without_context_cache(),
        MachineConfig {
            gc_minor_interval: Some(101),
            gc_full_interval: Some(809),
            ..MachineConfig::default()
        },
    ] {
        let a = observe(&img, "proxyBench", Word::Int(25), cfg, 1_000_000, false);
        let b = observe(&img, "proxyBench", Word::Int(25), cfg, 1_000_000, true);
        let (result, _) = a.result.clone().unwrap();
        assert_eq!(result, Word::Int(25 * 5), "handlers must carry the loop");
        assert_eq!(a.result, b.result);
        assert_eq!(a.stats, b.stats, "handler dispatch stats diverged");
        assert_eq!(a.itlb, b.itlb);
        assert_eq!(a.icache, b.icache);
        assert_eq!(a.cc, b.cc);
        assert_eq!(a.stats.soft_traps, 50, "25 DNUs + 25 handled divides");
    }
}

#[test]
fn class_chain_cycle_traps_as_corruption_not_dnu() {
    let mut img = ProgramImage::empty();
    img.opcodes.intern("frobnicate");
    // Corrupt the superclass chain: Object loops back to SmallInteger, so
    // looking anything up from an integer receiver walks a cycle.
    img.classes.get_mut(ClassTable::OBJECT).unwrap().superclass = Some(ClassId::SMALL_INT);
    let mut m = Machine::new(MachineConfig::default());
    m.load(&img).unwrap();
    let sel = m.opcodes().get("frobnicate").unwrap();
    m.start_send(sel, Word::Int(1), &[]).unwrap();
    match m.run(100) {
        Err(MachineError::ClassChainCycle { class, .. }) => {
            assert_eq!(class, ClassId::SMALL_INT);
        }
        other => panic!("expected ClassChainCycle, got {other:?}"),
    }
}
