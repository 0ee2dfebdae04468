//! The concurrency contract of the facade, end to end: the engine layer
//! is `Send`, sessions move freely across threads, and the parallel
//! worker-pool executor preserves per-tenant results and `CycleStats`
//! bit-for-bit against both solo and single-threaded-scheduler runs.

use com_core::CycleStats;
use com_mem::Word;
use com_vm::{Outcome, ParallelExecutor, Scheduler, Session, Vm, VmError};

const PROGRAM: &str = r#"
    class SmallInteger
      method factorial | acc |
        acc := 1.
        1 to: self do: [ :i | acc := acc * i ].
        ^acc
      end
      method tri ^self * (self + 1) / 2 end
      method fib
        self < 2 ifTrue: [ ^self ].
        ^(self - 1) fib + (self - 2) fib
      end
      method boom ^1 / (self - self) end
    end
"#;

/// (selector, receiver, expected) — a mixed bag of instruction streams.
fn tenant_mix() -> Vec<(&'static str, i64, i64)> {
    vec![
        ("factorial", 12, 479_001_600),
        ("fib", 13, 233),
        ("tri", 10_000, 50_005_000),
        ("factorial", 20, 2_432_902_008_176_640_000),
        ("fib", 10, 55),
        ("tri", 3, 6),
    ]
}

/// Runs every tenant alone, uninterrupted: the reference outcome.
fn solo_baselines(vm: &Vm) -> Vec<(Word, CycleStats)> {
    tenant_mix()
        .iter()
        .map(|(sel, n, expected)| {
            let mut s = vm.session().unwrap();
            let got: i64 = s.call(sel, *n).unwrap();
            assert_eq!(got, *expected, "{sel}({n}) self-check");
            let run = s.last_run().unwrap();
            (run.result, run.stats)
        })
        .collect()
}

fn started_sessions(vm: &Vm) -> Vec<Session> {
    tenant_mix()
        .iter()
        .map(|(sel, n, _)| {
            let mut s = vm.session().unwrap();
            s.call_start(sel, *n).unwrap();
            s
        })
        .collect()
}

#[test]
fn facade_thread_contract_is_compile_time() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    // The contract the crate docs state: Vm shared freely, Session moved
    // freely. (Session: !Sync is asserted by a compile_fail doctest on
    // the crate root — exclusive &mut-style driving is the design.)
    assert_send_sync::<Vm>();
    assert_send_sync::<com_vm::LoadedImage>();
    assert_send::<Session>();
    assert_send::<com_vm::Machine>();
    assert_send::<VmError>();
    assert_send::<Scheduler>();
    assert_send::<ParallelExecutor>();
}

#[test]
fn parallel_pool_is_bit_identical_to_solo_and_scheduler() {
    let vm = Vm::new(PROGRAM).unwrap();
    let solo = solo_baselines(&vm);

    // Single-threaded reference: the cooperative round-robin scheduler.
    let mut sched = Scheduler::new(701);
    let ids: Vec<_> = started_sessions(&vm)
        .into_iter()
        .map(|s| sched.spawn(s).unwrap())
        .collect();
    sched.run();

    for workers in [1, 2, 4, 8] {
        let pool = ParallelExecutor::new(workers, 701);
        let runs = pool.run(started_sessions(&vm));
        assert_eq!(runs.len(), solo.len());
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.error, None, "tenant {i} trapped at {workers} workers");
            assert_eq!(
                run.result,
                Some(solo[i].0),
                "tenant {i} result diverged at {workers} workers"
            );
            let stats = run.session.last_run().unwrap().stats;
            assert_eq!(
                stats, solo[i].1,
                "tenant {i} CycleStats diverged from solo at {workers} workers"
            );
            let sched_stats = sched.session(ids[i]).unwrap().last_run().unwrap().stats;
            assert_eq!(
                stats, sched_stats,
                "tenant {i} CycleStats diverged from the scheduler at {workers} workers"
            );
            assert!(run.slices >= 1);
        }
    }
}

#[test]
fn session_resumed_on_another_thread_is_bit_identical() {
    let vm = Vm::new(PROGRAM).unwrap();

    // Reference: started and driven to completion on this thread.
    let mut same = vm.session().unwrap();
    same.call_start("fib", 16).unwrap();
    let expected = loop {
        match same.resume::<i64>(97).unwrap() {
            Outcome::Done(n) => break n,
            Outcome::Yielded => {}
        }
    };
    let solo = same.last_run().unwrap().clone();

    // Start the call HERE, resume it over THERE, finish it back here.
    let mut s = vm.session().unwrap();
    s.call_start("fib", 16).unwrap();
    assert_eq!(s.resume::<i64>(97).unwrap(), Outcome::Yielded);
    let mut s = std::thread::spawn(move || {
        for _ in 0..3 {
            match s.resume::<i64>(97).unwrap() {
                Outcome::Yielded => {}
                Outcome::Done(_) => panic!("finished too early for the test to move it back"),
            }
        }
        s
    })
    .join()
    .unwrap();
    let got = loop {
        match s.resume::<i64>(97).unwrap() {
            Outcome::Done(n) => break n,
            Outcome::Yielded => {}
        }
    };

    assert_eq!(got, expected);
    let run = s.last_run().unwrap();
    assert_eq!(run.result, solo.result);
    assert_eq!(
        run.stats, solo.stats,
        "crossing threads changed the architectural statistics"
    );
    assert_eq!(run.steps, solo.steps);
}

#[test]
fn whole_sessions_spawned_and_finished_on_worker_threads() {
    let vm = Vm::new(PROGRAM).unwrap();
    let solo = solo_baselines(&vm);
    let runs: Vec<(usize, Word, CycleStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenant_mix()
            .into_iter()
            .enumerate()
            .map(|(i, (sel, n, _))| {
                let vm = &vm;
                scope.spawn(move || {
                    let mut s = vm.session().unwrap();
                    let _: i64 = s.call(sel, n).unwrap();
                    let run = s.last_run().unwrap();
                    (i, run.result, run.stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, result, stats) in runs {
        assert_eq!(result, solo[i].0);
        assert_eq!(stats, solo[i].1, "tenant {i} diverged on its own thread");
    }
}

#[test]
fn pool_reports_per_tenant_traps_without_disturbing_others() {
    let vm = Vm::new(PROGRAM).unwrap();
    let mut sessions = started_sessions(&vm);
    let mut bad = vm.session().unwrap();
    bad.call_start("boom", 3).unwrap();
    sessions.push(bad);
    let runs = ParallelExecutor::new(4, 500).run(sessions);
    let last = runs.last().unwrap();
    assert!(
        matches!(last.error, Some(VmError::Trap(_))),
        "the boom tenant must trap, got {:?}",
        last.error
    );
    for (i, (_, _, expected)) in tenant_mix().iter().enumerate() {
        assert_eq!(runs[i].result_as::<i64>().unwrap(), Some(*expected));
    }
}

#[test]
fn idle_sessions_come_back_with_a_per_tenant_error() {
    let vm = Vm::new(PROGRAM).unwrap();
    let idle = vm.session().unwrap();
    let runs = ParallelExecutor::new(2, 100).run(vec![idle]);
    assert_eq!(
        runs.len(),
        1,
        "the idle session must come back, not be dropped"
    );
    assert_eq!(runs[0].error, Some(VmError::NoCallInProgress));
    assert_eq!(runs[0].slices, 0);
    // The handed-back session is alive and usable.
    let mut s = runs.into_iter().next().unwrap().session;
    assert_eq!(s.call::<i64>("tri", 4).unwrap(), 10);
    assert!(ParallelExecutor::new(2, 100).run(Vec::new()).is_empty());
}

#[test]
fn zero_slice_stalls_every_tenant_instead_of_spinning() {
    let vm = Vm::new(PROGRAM).unwrap();
    // The pool: a zero budget yields without retiring anything; the
    // progress check must drain the pool with Stalled errors, not hang.
    let runs = ParallelExecutor::new(2, 0).run(started_sessions(&vm));
    for run in &runs {
        assert_eq!(run.error, Some(VmError::Stalled { slice: 0 }));
        assert_eq!(run.result, None);
    }
    // The single-threaded scheduler: same check, same surfaced error
    // (this used to spin forever).
    let mut sched = Scheduler::new(0);
    let ids: Vec<_> = started_sessions(&vm)
        .into_iter()
        .map(|s| sched.spawn(s).unwrap())
        .collect();
    sched.run();
    for id in ids {
        assert_eq!(sched.error(id), Some(&VmError::Stalled { slice: 0 }));
        assert_eq!(sched.result(id), None);
    }
}

#[test]
fn stalled_tenants_can_be_cancelled_and_reused() {
    let vm = Vm::new(PROGRAM).unwrap();
    let mut s = vm.session().unwrap();
    s.call_start("factorial", 10).unwrap();
    let mut runs = ParallelExecutor::new(1, 0).run(vec![s]);
    let mut s = runs.pop().unwrap().session;
    assert!(s.in_flight(), "a stalled call is still in flight");
    s.cancel();
    assert_eq!(s.call::<i64>("factorial", 5).unwrap(), 120);
}

#[test]
fn many_tenants_over_few_workers_all_finish() {
    let vm = Vm::new(PROGRAM).unwrap();
    let mut sessions = Vec::new();
    let mut expected = Vec::new();
    for i in 0..48i64 {
        let mut s = vm.session().unwrap();
        let n = 6 + (i % 11);
        s.call_start("fib", n).unwrap();
        sessions.push(s);
        expected.push(fib(n));
    }
    let runs = ParallelExecutor::new(3, 211).run(sessions);
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run.result_as::<i64>().unwrap(), Some(expected[i]));
    }
}

fn fib(n: i64) -> i64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}
