//! Cross-crate integration tests: whole programs through the compiler,
//! both machines, the memory system and the GC.

use com_machine::core::{Machine, MachineConfig, MachineError};
use com_machine::fith::FithMachine;
use com_machine::mem::{AllocKind, Word};
use com_machine::stc::{compile_com, compile_fith, CompileOptions};
use com_machine::workloads;

#[test]
fn ackermann_values() {
    let src = r#"
        class SmallInteger
          method ack: n
            self = 0 ifTrue: [ ^n + 1 ].
            n = 0 ifTrue: [ ^(self - 1) ack: 1 ].
            ^(self - 1) ack: (self ack: n - 1)
          end
        end
    "#;
    let image = compile_com(src, CompileOptions::default()).unwrap();
    let mut m = Machine::new(MachineConfig::default());
    m.load(&image).unwrap();
    let a22 = m
        .send("ack:", Word::Int(2), &[Word::Int(2)], 10_000_000)
        .unwrap();
    assert_eq!(a22.result, Word::Int(7));
    let a23 = m
        .send("ack:", Word::Int(2), &[Word::Int(3)], 10_000_000)
        .unwrap();
    assert_eq!(a23.result, Word::Int(9));
    // Deep recursion pushed contexts through the 32-block cache: the
    // copyback engine must have engaged without corrupting state.
    let a31 = m
        .send("ack:", Word::Int(3), &[Word::Int(3)], 50_000_000)
        .unwrap();
    assert_eq!(a31.result, Word::Int(61));
}

#[test]
fn deep_recursion_survives_tiny_context_cache() {
    // fib via the calls workload source, on a 4-block cache: constant
    // copyback and faulting, same answer.
    let cfg = MachineConfig::default().with_ctx_blocks(4);
    let (out, m) = workloads::run_com(&workloads::CALLS, cfg, workloads::MAX_STEPS).unwrap();
    assert_eq!(out.result, Word::Int(workloads::CALLS.expected));
    let cc = m.ctx_cache_stats().unwrap();
    assert!(cc.copybacks > 0 || cc.faults > 0, "tiny cache must spill");
}

#[test]
fn all_ablation_configs_agree_on_every_workload() {
    for w in workloads::all() {
        let baseline = workloads::run_com(&w, MachineConfig::default(), workloads::MAX_STEPS)
            .unwrap()
            .0
            .result;
        for (label, cfg) in [
            ("no itlb", MachineConfig::default().without_itlb()),
            (
                "no ctx cache",
                MachineConfig::default().without_context_cache(),
            ),
            (
                "no eager free",
                MachineConfig::default().without_eager_lifo_free(),
            ),
            ("8 blocks", MachineConfig::default().with_ctx_blocks(8)),
            (
                "gc every 5k steps",
                MachineConfig {
                    gc_full_interval: Some(5_000),
                    ..MachineConfig::default()
                },
            ),
        ] {
            let got = workloads::run_com(&w, cfg, workloads::MAX_STEPS)
                .unwrap_or_else(|e| panic!("{} under {label}: {e}", w.name))
                .0
                .result;
            assert_eq!(got, baseline, "{} diverged under {label}", w.name);
        }
    }
}

#[test]
fn com_and_fith_agree_on_fresh_programs() {
    // A program written for this test only — not a workload — compiled to
    // both targets.
    let src = r#"
        class SmallInteger
          method collatz | n steps |
            n := self. steps := 0.
            [ n > 1 ] whileTrue: [
              n even ifTrue: [ n := n / 2 ] ifFalse: [ n := 3 * n + 1 ].
              steps := steps + 1 ].
            ^steps
          end
        end
    "#;
    let com_image = compile_com(src, CompileOptions::default()).unwrap();
    let fith_image = compile_fith(src, CompileOptions::default()).unwrap();
    for n in [6i64, 27, 97, 871] {
        let mut m = Machine::new(MachineConfig::default());
        m.load(&com_image).unwrap();
        let com = m
            .send("collatz", Word::Int(n), &[], 10_000_000)
            .unwrap()
            .result;
        let mut f = FithMachine::new(&fith_image);
        let fith = f
            .send(&fith_image, "collatz", Word::Int(n), &[], 10_000_000)
            .unwrap()
            .result;
        assert_eq!(com, fith, "collatz({n})");
    }
}

#[test]
fn gc_reclaims_workload_garbage_without_changing_results() {
    // trees allocates thousands of nodes; force frequent collections.
    let cfg = MachineConfig {
        gc_full_interval: Some(2_000),
        ..MachineConfig::default()
    };
    let (out, m) = workloads::run_com(&workloads::TREES, cfg, workloads::MAX_STEPS).unwrap();
    assert_eq!(out.result, Word::Int(workloads::TREES.expected));
    assert!(out.stats.gc_runs > 5, "expected frequent collections");
    // Storage must not grow monotonically: the tree stays reachable but
    // dead contexts and temporaries are reclaimed.
    let live = m.space().memory().buddy().allocated_words();
    let peak = m.space().memory().buddy().peak_words();
    assert!(live <= peak);
}

#[test]
fn instruction_safety_dnu_and_step_limit() {
    let src = "class SmallInteger method ok ^self end end";
    let image = compile_com(src, CompileOptions::default()).unwrap();
    let mut m = Machine::new(MachineConfig::default());
    m.load(&image).unwrap();
    // Atoms cannot multiply: dispatch must trap, not corrupt.
    let sel = m.intern_selector("undefinedThing");
    m.start_send(sel, Word::Int(3), &[]).unwrap();
    assert!(matches!(
        m.run(1000),
        Err(MachineError::DoesNotUnderstand { .. })
    ));
    // An infinite loop must hit the step budget, not hang.
    let looping = r#"
        class SmallInteger
          method forever | x | x := 0. [ true ] whileTrue: [ x := x + 1 ]. ^x end
        end
    "#;
    let image = compile_com(looping, CompileOptions::default()).unwrap();
    let mut m = Machine::new(MachineConfig::default());
    m.load(&image).unwrap();
    assert!(matches!(
        m.send("forever", Word::Int(0), &[], 10_000),
        Err(MachineError::StepLimit)
    ));
}

#[test]
fn escaped_contexts_survive_gc_and_still_work() {
    // A block outliving several GC cycles keeps its captured home alive.
    let src = r#"
        class SmallInteger
          method hold | acc blk i |
            acc := 0.
            blk := [ :d | acc := acc + d ].
            i := 0.
            [ i < self ] whileTrue: [ blk value: i. i := i + 1 ].
            ^acc
          end
        end
    "#;
    let cfg = MachineConfig {
        gc_full_interval: Some(500),
        ..MachineConfig::default()
    };
    let image = compile_com(src, CompileOptions::default()).unwrap();
    let mut m = Machine::new(cfg);
    m.load(&image).unwrap();
    let out = m.send("hold", Word::Int(200), &[], 10_000_000).unwrap();
    assert_eq!(out.result, Word::Int(199 * 200 / 2));
    assert!(out.stats.gc_runs > 0);
}

#[test]
fn object_allocation_stats_feed_t5() {
    let (_, m) = workloads::run_com(
        &workloads::TREES,
        MachineConfig::default(),
        workloads::MAX_STEPS,
    )
    .unwrap();
    let st = m.space().stats();
    assert!(
        st.allocs_of(AllocKind::Object) >= 230,
        "trees allocates nodes"
    );
    assert!(st.allocs_of(AllocKind::Context) > 0);
}

// ---------------------------------------------------------------------
// Embedding facade (`vm`): shared images, tenant sessions, scheduling
// ---------------------------------------------------------------------

use com_machine::vm::{Scheduler, Vm};

#[test]
fn one_image_many_tenants_runs_every_workload() {
    // Compile each workload once; its sessions share the image.
    for w in workloads::all() {
        let vm = workloads::vm_for(&w, MachineConfig::default(), CompileOptions::default());
        assert_eq!(
            vm.image().predecoded(),
            vm.image().methods(),
            "{}: every compiled method must pre-decode",
            w.name
        );
        let mut a = vm.session().unwrap();
        let mut b = vm.session().unwrap();
        let ra = workloads::run_on(&w, &mut a, workloads::MAX_STEPS).unwrap();
        let rb = workloads::run_on(&w, &mut b, workloads::MAX_STEPS).unwrap();
        assert_eq!(ra.result, Word::Int(w.expected), "{} tenant a", w.name);
        assert_eq!(rb.result, ra.result, "{} tenants disagree", w.name);
        assert_eq!(rb.stats, ra.stats, "{} twin tenants diverged", w.name);
    }
}

#[test]
fn reentrant_session_calls_match_fresh_machine_and_keep_roots_flat() {
    // Satellite: many sequential calls on ONE session must (a) keep
    // CycleStats bit-identical to the same send sequence on a fresh
    // engine-level machine driving the old API, and (b) never grow the
    // GC root set.
    let src = "class SmallInteger method tri ^self * (self + 1) / 2 end end";
    let vm = Vm::new(src).unwrap();
    let mut session = vm.session().unwrap();

    let image = compile_com(src, CompileOptions::default()).unwrap();
    let mut machine = Machine::new(MachineConfig::default());
    machine.load(&image).unwrap();

    let mut roots = None;
    for i in 1..=40i64 {
        let facade: i64 = session.call("tri", i).unwrap();
        let engine = machine.send("tri", Word::Int(i), &[], 1_000_000).unwrap();
        assert_eq!(Word::Int(facade), engine.result, "call {i}");
        // Cumulative stats stay bit-identical send after send: the facade
        // adds no architectural work.
        assert_eq!(session.stats(), engine.stats, "call {i}: stats diverged");
        let now = session.machine().code_root_count();
        match roots {
            None => roots = Some(now),
            Some(r) => assert_eq!(now, r, "call {i}: GC roots grew"),
        }
    }
}

#[test]
fn sixteen_tenants_round_robin_match_sequential_runs() {
    // The acceptance scenario in miniature: 16 sessions over shared
    // images, interleaved in 5000-step slices, must finish with results
    // and CycleStats identical to sequential execution.
    let picks = [
        workloads::CALLS,
        workloads::ARITH,
        workloads::DISPATCH,
        workloads::SORT,
    ];
    let vms: Vec<Vm> = picks
        .iter()
        .map(|w| workloads::vm_for(w, MachineConfig::default(), CompileOptions::default()))
        .collect();

    // Sequential baselines: one fresh session each, run to completion.
    let mut baselines = Vec::new();
    for i in 0..16 {
        let w = &picks[i % picks.len()];
        let mut s = vms[i % picks.len()].session().unwrap();
        let out = workloads::run_on(w, &mut s, workloads::MAX_STEPS).unwrap();
        assert_eq!(out.result, Word::Int(w.expected), "{} baseline", w.name);
        baselines.push(out);
    }

    // The same 16 tenants, interleaved.
    let mut sched = Scheduler::new(5_000);
    let mut ids = Vec::new();
    for i in 0..16 {
        let w = &picks[i % picks.len()];
        let mut s = vms[i % picks.len()].session().unwrap();
        s.call_start_with(w.entry, Word::Int(w.size), &[]).unwrap();
        ids.push(sched.spawn(s).unwrap());
    }
    sched.run();
    assert!(sched.rounds() > 1, "16 workloads must take several rounds");
    for (i, id) in ids.iter().enumerate() {
        let run = sched
            .session(*id)
            .unwrap()
            .last_run()
            .expect("task finished")
            .clone();
        assert_eq!(run.result, baselines[i].result, "tenant {i} result");
        assert_eq!(run.stats, baselines[i].stats, "tenant {i} stats");
    }
}
