//! Service-runtime soak: the `com_vm::server` contract under injected
//! faults and overload (ISSUE 6 acceptance).
//!
//! Proves, against a deterministic [`FaultPlan`]:
//!
//! 1. tenants the plan does **not** touch finish with results and
//!    per-request `CycleStats` **bit-identical** to solo fault-free
//!    runs — and their drained sessions' cumulative stats match too;
//! 2. `SubmitError::QueueFull` backpressure fires at the configured
//!    depth instead of growing memory without bound;
//! 3. drain/shutdown resolves **every** ticket (completed, cancelled,
//!    or typed error) and returns **every** session — none lost.

use std::time::Duration;

use com_core::CycleStats;
use com_vm::server::{
    FaultKind, FaultPlan, Priority, Request, RetryPolicy, ServeError, Server, ServerConfig,
    SubmitError, TenantConfig, Ticket,
};
use com_vm::{Vm, VmError, Word};

const PROGRAM: &str = r#"
    class SmallInteger
      method tri | acc |
        acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc
      end
      method spin | n |
        n := 0. 1 to: self do: [ :i | n := n + i ]. ^n
      end
    end
"#;

fn vm() -> Vm {
    Vm::new(PROGRAM).unwrap()
}

fn config(workers: usize, depth: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_depth: depth,
        base_slice: 50,
        retry: RetryPolicy::default(),
    }
}

/// The workload tenant `t` sends as its request `r` (deterministic,
/// spread over sizes so slices interleave).
fn workload(tenant: usize, request: usize) -> i64 {
    5 + 2 * (tenant as i64 * 3 + request as i64)
}

/// Solo fault-free baseline: one fresh session runs tenant `t`'s whole
/// request sequence one-shot; returns each request's (result, delta) and
/// the session's final cumulative stats.
fn solo_baseline(vm: &Vm, tenant: usize, requests: usize) -> (Vec<(Word, CycleStats)>, CycleStats) {
    let mut s = vm.session().unwrap();
    let mut per_request = Vec::new();
    for r in 0..requests {
        let before = s.stats();
        let out = s
            .send_raw("tri", Word::Int(workload(tenant, r)), &[], u64::MAX)
            .unwrap();
        per_request.push((out.result, out.stats.since(&before)));
    }
    let total = s.stats();
    (per_request, total)
}

#[test]
fn soak_unaffected_tenants_stay_bit_identical_under_faults() {
    FaultPlan::silence_injected_panics();
    let vm = vm();
    const TENANTS: usize = 24;
    const REQUESTS: usize = 3;
    // Victims: one tenant per fault kind, each faulted on its middle
    // request at a step it will definitely reach (tri(n) retires well
    // over 4n instructions for these sizes).
    let victims: [(usize, FaultKind); 4] = [
        (3, FaultKind::Trap),
        (7, FaultKind::Stall),
        (11, FaultKind::WorkerPanic),
        (15, FaultKind::OutOfFuel),
    ];
    let mut plan = FaultPlan::new();
    for (t, kind) in victims {
        plan = plan.inject(&format!("t{t}"), 1, kind, 20);
    }
    assert_eq!(plan.len(), 4);

    let server = Server::with_faults(vm.clone(), config(4, 256), plan);
    for t in 0..TENANTS {
        server
            .register(&format!("t{t}"), TenantConfig::default())
            .unwrap();
    }
    let mut tickets: Vec<(usize, usize, Ticket)> = Vec::new();
    for r in 0..REQUESTS {
        for t in 0..TENANTS {
            let ticket = server
                .submit_within(
                    &format!("t{t}"),
                    Request::new("tri", workload(t, r)),
                    Duration::from_secs(10),
                )
                .unwrap();
            tickets.push((t, r, ticket));
        }
    }
    let mut responses: Vec<Vec<Option<com_vm::server::Response>>> =
        vec![vec![None; REQUESTS]; TENANTS];
    for (t, r, ticket) in tickets {
        responses[t][r] = Some(ticket.wait());
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, (TENANTS * REQUESTS) as u64);
    assert_eq!(stats.faults_injected, 4);
    let report = server.drain(Duration::from_secs(10));
    assert_eq!(
        report.sessions.len(),
        TENANTS,
        "every session must come back"
    );

    let victim_set: Vec<usize> = victims.iter().map(|(t, _)| *t).collect();
    for (t, tenant_responses) in responses.iter().enumerate() {
        let name = format!("t{t}");
        let session = &report
            .sessions
            .iter()
            .find(|(n, _)| *n == name)
            .expect("drained session")
            .1;
        if victim_set.contains(&t) {
            // The faulted request surfaces its planned typed error...
            let kind = victims.iter().find(|(v, _)| *v == t).unwrap().1;
            let resp = tenant_responses[1].as_ref().unwrap();
            match (&resp.outcome, kind) {
                (Err(ServeError::Vm(VmError::Trap(trap))), FaultKind::Trap) => {
                    assert_eq!(trap.stats.instructions, 20, "honest partial stats");
                }
                (Err(ServeError::Vm(VmError::Stalled { .. })), FaultKind::Stall) => {}
                (Err(ServeError::Vm(VmError::EnginePanic { message })), FaultKind::WorkerPanic) => {
                    assert!(message.contains("injected worker panic"));
                }
                (Err(ServeError::Vm(VmError::OutOfFuel { budget: 20 })), FaultKind::OutOfFuel) => {}
                other => panic!("tenant {t}: expected {kind:?} error, got {other:?}"),
            }
            // ...and the tenant's *other* requests still answer
            // correctly: the fault ended one call, not the session.
            for r in [0usize, 2] {
                let resp = tenant_responses[r].as_ref().unwrap();
                assert_eq!(
                    resp.result_as::<i64>().unwrap(),
                    (1..=workload(t, r)).sum::<i64>(),
                    "tenant {t} request {r} after its fault"
                );
            }
        } else {
            // Unaffected tenants: every request's result AND stats delta
            // bit-identical to the solo fault-free run, and the drained
            // session's cumulative stats too.
            let (solo, solo_total) = solo_baseline(&vm, t, REQUESTS);
            for r in 0..REQUESTS {
                let resp = tenant_responses[r].as_ref().unwrap();
                let word = *resp.outcome.as_ref().expect("unaffected request failed");
                assert_eq!(word, solo[r].0, "tenant {t} request {r} result diverged");
                assert_eq!(
                    resp.stats, solo[r].1,
                    "tenant {t} request {r} stats diverged from solo"
                );
                assert_eq!(resp.attempts, 1, "unaffected requests never retry");
            }
            assert_eq!(
                session.stats(),
                solo_total,
                "tenant {t}: drained session stats diverged from solo"
            );
        }
    }
}

#[test]
fn queue_full_backpressure_fires_at_the_configured_depth() {
    let vm = vm();
    const DEPTH: usize = 4;
    let server = Server::start(vm, config(1, DEPTH));
    server.register("hog", TenantConfig::default()).unwrap();
    // One long-running request occupies the single worker...
    let running = server
        .submit("hog", Request::new("spin", 50_000_000i64))
        .unwrap();
    // ...wait until the worker claims it so it no longer counts against
    // the queue depth.
    while server.queued() > 0 {
        std::thread::yield_now();
    }
    // Now exactly DEPTH more are admitted, and the next is refused.
    let queued: Vec<Ticket> = (0..DEPTH)
        .map(|_| server.submit("hog", Request::new("tri", 5i64)).unwrap())
        .collect();
    match server.submit("hog", Request::new("tri", 5i64)) {
        Err(SubmitError::QueueFull { depth: DEPTH }) => {}
        other => panic!("expected QueueFull at depth {DEPTH}, got {other:?}"),
    }
    assert_eq!(server.stats().max_queued, DEPTH);
    // Equal priority sheds nothing — the refusal above must not have
    // evicted anyone.
    assert_eq!(server.stats().shed, 0);
    // Shutdown still resolves every ticket.
    let report = server.drain(Duration::from_millis(10));
    assert_eq!(report.sessions.len(), 1);
    let mut outcomes = vec![running.wait().outcome];
    outcomes.extend(queued.into_iter().map(|t| t.wait().outcome));
    for o in outcomes {
        assert!(
            o.is_ok() || o == Err(ServeError::Cancelled),
            "every ticket resolves done-or-cancelled, got {o:?}"
        );
    }
}

#[test]
fn overload_sheds_strictly_lower_priority_work_only() {
    let vm = vm();
    const DEPTH: usize = 3;
    let server = Server::start(vm, config(1, DEPTH));
    server.register("hog", TenantConfig::default()).unwrap();
    let running = server
        .submit("hog", Request::new("spin", 50_000_000i64))
        .unwrap();
    while server.queued() > 0 {
        std::thread::yield_now();
    }
    let low: Vec<Ticket> = (0..DEPTH)
        .map(|_| {
            server
                .submit("hog", Request::new("tri", 5i64).priority(Priority::Low))
                .unwrap()
        })
        .collect();
    // A High submission sheds the most recent Low; a Low submission
    // outranks nothing and is refused.
    let high = server
        .submit("hog", Request::new("tri", 7i64).priority(Priority::High))
        .unwrap();
    match server.submit("hog", Request::new("tri", 5i64).priority(Priority::Low)) {
        Err(SubmitError::QueueFull { .. }) => {}
        other => panic!("expected QueueFull for the Low request, got {other:?}"),
    }
    assert_eq!(server.stats().shed, 1);
    // The most recently submitted Low request was the victim.
    let shed_count = low
        .into_iter()
        .filter(|t| {
            matches!(
                t.try_wait().map(|r| r.outcome),
                Some(Err(ServeError::Shed {
                    priority: Priority::Low
                }))
            )
        })
        .count();
    assert_eq!(shed_count, 1, "exactly one Low request must be shed");
    drop(running);
    drop(high);
    let report = server.drain(Duration::from_millis(10));
    assert_eq!(report.stats.shed, 1);
}

#[test]
fn drain_completes_or_cancels_everything_and_loses_no_session() {
    let vm = vm();
    let server = Server::start(vm, config(2, 64));
    for t in 0..6 {
        server
            .register(&format!("t{t}"), TenantConfig::default())
            .unwrap();
    }
    // A mix of fast and effectively-unbounded work.
    let mut tickets = Vec::new();
    for t in 0..6 {
        let name = format!("t{t}");
        tickets.push(server.submit(&name, Request::new("tri", 10i64)).unwrap());
        tickets.push(
            server
                .submit(&name, Request::new("spin", 500_000_000i64))
                .unwrap(),
        );
    }
    let report = server.drain(Duration::from_millis(50));
    // Every ticket resolved: fast ones done, unbounded ones cancelled.
    let mut done = 0;
    let mut cancelled = 0;
    for t in tickets {
        match t.wait().outcome {
            Ok(_) => done += 1,
            Err(ServeError::Cancelled) => cancelled += 1,
            other => panic!("drain left a ticket in state {other:?}"),
        }
    }
    assert_eq!(done + cancelled, 12);
    assert!(cancelled >= 6, "the unbounded spins cannot finish in grace");
    assert_eq!(report.stats.cancelled, cancelled as u64);
    // No session lost, and every one is immediately re-callable.
    assert_eq!(report.sessions.len(), 6);
    for (name, mut session) in report.sessions {
        assert!(!session.in_flight(), "{name}: drain left a call in flight");
        assert_eq!(session.call::<i64>("tri", 4).unwrap(), 10, "{name}");
    }
}

#[test]
fn idempotent_requests_recover_from_transient_faults_via_retry() {
    FaultPlan::silence_injected_panics();
    let vm = vm();
    // Stall, then panic, injected into the first attempts of two
    // idempotent requests: both recover on retry with the right answer.
    let plan = FaultPlan::new()
        .inject("a", 0, FaultKind::Stall, 20)
        .inject("a", 1, FaultKind::WorkerPanic, 20);
    let server = Server::with_faults(vm, config(2, 64), plan);
    server.register("a", TenantConfig::default()).unwrap();
    let expected: i64 = (1..=40).sum();
    for r in 0..2 {
        let resp = server
            .submit("a", Request::new("tri", 40i64).idempotent(true))
            .unwrap()
            .wait();
        assert_eq!(
            resp.result_as::<i64>().unwrap(),
            expected,
            "request {r} must recover via retry"
        );
        assert_eq!(resp.attempts, 2, "request {r}: one retry after the fault");
    }
    let stats = server.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.faults_injected, 2);
    assert_eq!(stats.completed, 2);
    // The same faults on non-idempotent requests are terminal: the
    // attempt had already executed, so retrying is forbidden.
    let plan = FaultPlan::new().inject("b", 0, FaultKind::Stall, 20);
    let server2 = Server::with_faults(Vm::new(PROGRAM).unwrap(), config(2, 64), plan);
    server2.register("b", TenantConfig::default()).unwrap();
    let resp = server2
        .submit("b", Request::new("tri", 40i64))
        .unwrap()
        .wait();
    match resp.outcome {
        Err(ServeError::Vm(VmError::Stalled { .. })) => {}
        other => panic!("non-idempotent in-flight call must not retry, got {other:?}"),
    }
    assert_eq!(resp.attempts, 1);
    assert_eq!(server2.stats().retries, 0);
    drop(server);
    drop(server2);
}

#[test]
fn submit_within_blocks_until_space_or_times_out() {
    let vm = vm();
    let server = Server::start(vm, config(1, 1));
    server.register("a", TenantConfig::default()).unwrap();
    server.register("b", TenantConfig::default()).unwrap();
    let running = server
        .submit("a", Request::new("spin", 200_000i64))
        .unwrap();
    while server.queued() > 0 {
        std::thread::yield_now();
    }
    // The queue (depth 1) is now full with a request for a second tenant.
    // The worker rotates tenants every slice, so it pops that request
    // after at most one more slice of `a` — however fast `spin` runs — and
    // the blocking submit then gets in.
    let queued = server.submit("b", Request::new("tri", 5i64)).unwrap();
    let waited = server
        .submit_within("b", Request::new("tri", 6i64), Duration::from_secs(10))
        .unwrap();
    assert_eq!(waited.wait().result_as::<i64>().unwrap(), 21);
    assert_eq!(queued.wait().result_as::<i64>().unwrap(), 15);
    assert!(running.wait().is_ok());
    // With the worker wedged on an unbounded spin and the queue full, a
    // short wait gives up with the typed timeout.
    let wedge = server
        .submit("a", Request::new("spin", 500_000_000i64))
        .unwrap();
    while server.queued() > 0 {
        std::thread::yield_now();
    }
    let fill = server.submit("a", Request::new("tri", 5i64)).unwrap();
    match server.submit_within("a", Request::new("tri", 6i64), Duration::from_millis(20)) {
        Err(SubmitError::Timeout { waited }) => {
            assert!(waited >= Duration::from_millis(20));
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    drop((wedge, fill));
    let _ = server.drain(Duration::from_millis(10));
}

#[test]
fn a_request_that_expires_in_the_queue_reports_no_work() {
    let vm = vm();
    let server = Server::start(vm, config(1, 8));
    server.register("a", TenantConfig::default()).unwrap();
    // The late request waits behind millions of instructions on the same
    // tenant, so its 1 ms deadline passes before it can start.
    let long = server.submit("a", Request::new("spin", 2_000_000i64));
    let late = Request::new("spin", 3i64).deadline(Duration::from_millis(1));
    let late = server.submit("a", late).unwrap();
    assert!(long.unwrap().wait().is_ok());
    let r = late.wait();
    assert!(
        matches!(r.outcome, Err(ServeError::DeadlineExceeded { .. })),
        "{r:?}"
    );
    assert_eq!(r.attempts, 0);
    assert_eq!(
        r.stats,
        CycleStats::default(),
        "a request that never started reported the tenant's earlier work"
    );
    drop(server);
}
