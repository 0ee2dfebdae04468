//! The one executor core: a contained slice driver ([`contained`] +
//! [`resume`]) and a FIFO run queue. [`ParallelExecutor`] drains the
//! queue on worker threads, [`Scheduler`] runs it inline with one worker
//! (spawn-order round robin), and the [`server`](crate::server) keeps
//! its own admission-aware queue but drives every call start and slice
//! through [`contained`].
//!
//! Sessions are isolated (each owns its object space, caches and
//! statistics; only the immutable image is shared), so a tenant's
//! results and `CycleStats` never depend on which worker ran a slice or
//! how slices interleaved: every executor matches a solo
//! [`Session::call`] run bit for bit.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use com_mem::Word;

use crate::{FromWord, Outcome, Session, VmError};

/// Runs `f` on `session` with panics contained to that session.
///
/// A panic (an engine invariant violation, or an injected fault) must
/// not unwind into an executor, where it would poison its locks and
/// lose every other tenant. On a panic the in-flight call is cancelled,
/// so the session comes back re-callable, and the panic surfaces as
/// [`VmError::EnginePanic`].
pub(crate) fn contained<T>(
    session: &mut Session,
    f: impl FnOnce(&mut Session) -> Result<T, VmError>,
) -> Result<T, VmError> {
    catch_unwind(AssertUnwindSafe(|| f(session))).unwrap_or_else(|payload| {
        cancel(session);
        Err(VmError::EnginePanic {
            message: panic_message(&*payload),
        })
    })
}

/// Abandons the session's in-flight call; if the machine is wedged
/// enough that even the unwind panics, the session is still handed back.
pub(crate) fn cancel(session: &mut Session) {
    let _ = catch_unwind(AssertUnwindSafe(|| session.cancel()));
}

/// One resume slice with the progress guard: a yield that retired no
/// instruction can never finish (a zero slice, or a wedged machine), so
/// it surfaces as [`VmError::Stalled`] instead of being rescheduled
/// forever. The call stays in flight; cancel it to reuse the session.
/// The engine retires at least one instruction per non-zero budget, so
/// a live call never trips this.
pub(crate) fn resume(session: &mut Session, slice: u64) -> Result<Outcome<Word>, VmError> {
    let before = session.stats().instructions;
    match session.resume_raw(slice)? {
        Outcome::Yielded if session.stats().instructions == before => {
            Err(VmError::Stalled { slice })
        }
        outcome => Ok(outcome),
    }
}

/// Renders a caught panic payload for [`VmError::EnginePanic`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A pre-slice test hook, called with (tenant index, slices so far)
/// inside the contained driver: a panicking hook lands exactly where an
/// engine panic would.
type SliceHook<'a> = &'a (dyn Fn(usize, u64) + Sync);

/// One tenant drained by an executor: [`ParallelExecutor::run`] returns
/// them in input order, and [`Scheduler`] keeps one per spawned task.
#[derive(Debug)]
pub struct TenantRun {
    /// The session, back from the executor: inspect
    /// [`last_run`](Session::last_run) and statistics on a completed
    /// tenant, or keep calling it — a trapped tenant's session is
    /// unwound and stays serviceable (its `last_run` is cleared; the
    /// trapped call's accounting is in [`error`](Self::error)).
    pub session: Session,
    /// The raw result word, if the call completed.
    pub result: Option<Word>,
    /// The error that ended the call: [`VmError::Trap`] (cause plus the
    /// unwound call's partial [`CycleStats`](com_core::CycleStats)),
    /// [`VmError::Stalled`] or [`VmError::EnginePanic`]. It never
    /// disturbs a sibling tenant.
    pub error: Option<VmError>,
    /// Resume slices the tenant consumed.
    pub slices: u64,
    /// Times the tenant resumed on a different worker than its previous
    /// slice — direct evidence of cross-thread session movement.
    pub migrations: u64,
}

impl TenantRun {
    /// A run not yet driven; `error` set means it will not be queued.
    fn new(session: Session, error: Option<VmError>) -> TenantRun {
        TenantRun {
            session,
            result: None,
            error,
            slices: 0,
            migrations: 0,
        }
    }

    /// The completed result, converted.
    ///
    /// # Errors
    ///
    /// [`VmError::Type`] if the result does not convert.
    pub fn result_as<R: FromWord>(&self) -> Result<Option<R>, VmError> {
        self.result.map(R::from_word).transpose()
    }
}

/// A tenant in the run queue.
struct Task {
    index: usize,
    run: TenantRun,
    last_worker: Option<usize>,
}

/// Drives every unfinished run to completion, trap or stall on
/// `workers` threads sharing one FIFO run queue, and returns the runs in
/// input order. The calling thread is worker 0, so one worker spawns no
/// thread.
///
/// A worker pops the queue front and drives one contained slice; a task
/// that yields goes to the back and the same worker, under the same
/// lock, pops the next front. The queue therefore never grows, and a
/// worker that finds it empty can never find work again: every live
/// task is held by a running worker, one each. Such a worker simply
/// returns, so no wakeup is ever needed.
fn drain(
    workers: usize,
    slice: u64,
    runs: Vec<TenantRun>,
    hook: Option<SliceHook<'_>>,
) -> Vec<TenantRun> {
    let (mut done, queue): (Vec<Task>, Vec<Task>) = runs
        .into_iter()
        .enumerate()
        .map(|(index, run)| Task {
            index,
            run,
            last_worker: None,
        })
        .partition(|t| t.run.result.is_some() || t.run.error.is_some());
    let helpers = workers.min(queue.len()).saturating_sub(1);
    let queue = Mutex::new(VecDeque::from(queue));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=helpers)
            .map(|w| {
                let queue = &queue;
                scope.spawn(move || work(w, slice, queue, hook))
            })
            .collect();
        done.extend(work(0, slice, &queue, hook));
        for handle in handles {
            done.extend(handle.join().expect("slice panics are contained"));
        }
    });
    done.sort_unstable_by_key(|t| t.index);
    done.into_iter().map(|t| t.run).collect()
}

/// Worker `w`: drive queue-front tasks one slice at a time until the
/// queue is empty; returns the tasks this worker finished.
fn work(
    w: usize,
    slice: u64,
    queue: &Mutex<VecDeque<Task>>,
    hook: Option<SliceHook<'_>>,
) -> Vec<Task> {
    let mut finished = Vec::new();
    let mut next = queue.lock().expect("run queue lock").pop_front();
    while let Some(mut task) = next {
        if task.last_worker.is_some_and(|prev| prev != w) {
            task.run.migrations += 1;
        }
        task.last_worker = Some(w);
        task.run.slices += 1;
        let outcome = contained(&mut task.run.session, |s| {
            if let Some(h) = hook {
                h(task.index, task.run.slices);
            }
            resume(s, slice)
        });
        let mut queue = queue.lock().expect("run queue lock");
        match outcome {
            Ok(Outcome::Yielded) => queue.push_back(task),
            Ok(Outcome::Done(word)) => {
                task.run.result = Some(word);
                finished.push(task);
            }
            // Includes Stalled: a yield that retired nothing would
            // requeue forever.
            Err(e) => {
                task.run.error = Some(e);
                finished.push(task);
            }
        }
        next = queue.pop_front();
    }
    finished
}

/// A fixed pool of worker threads that drains in-flight resumable
/// sessions, preserving the cooperative [`Session::resume`] yield
/// cadence — so every tenant finishes with a result and `CycleStats`
/// bit-identical to running alone (asserted by the `bench_parallel`
/// pipeline and this crate's tests).
///
/// ```
/// # fn main() -> Result<(), com_vm::VmError> {
/// let vm = com_vm::Vm::new(
///     "class SmallInteger method tri ^self * (self + 1) / 2 end end",
/// )?;
/// let mut tenants = Vec::new();
/// for n in [10i64, 100, 1000, 10000] {
///     let mut s = vm.session()?;
///     s.call_start("tri", n)?;
///     tenants.push(s);
/// }
/// let pool = com_vm::ParallelExecutor::new(4, 500);
/// let runs = pool.run(tenants);
/// assert_eq!(runs[3].result_as::<i64>()?, Some(50_005_000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    workers: usize,
    slice: u64,
}

impl ParallelExecutor {
    /// A pool of `workers` threads granting `slice` instructions per
    /// resume. A zero `slice` cannot make progress; rather than spin,
    /// [`run`](Self::run) reports every tenant as [`VmError::Stalled`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (nothing could ever run).
    pub fn new(workers: usize, slice: u64) -> ParallelExecutor {
        assert!(workers > 0, "a pool needs at least one worker");
        ParallelExecutor { workers, slice }
    }

    /// Worker threads in the pool (the calling thread is one of them).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Instructions granted per resume slice.
    pub fn slice(&self) -> u64 {
        self.slice
    }

    /// Drains every session to completion (or trap) across the pool and
    /// returns them in input order. A session without a resumable call
    /// in flight comes straight back with [`VmError::NoCallInProgress`].
    /// Traps, stalls and even panics are recorded per tenant (a panicking
    /// tenant's call is cancelled and reported as
    /// [`VmError::EnginePanic`]): one tenant's failure never disturbs
    /// another, and **no session is ever lost**.
    pub fn run(&self, sessions: Vec<Session>) -> Vec<TenantRun> {
        self.run_with(sessions, None)
    }

    fn run_with(&self, sessions: Vec<Session>, hook: Option<SliceHook<'_>>) -> Vec<TenantRun> {
        let runs = sessions
            .into_iter()
            .map(|session| {
                let idle = (!session.in_flight()).then_some(VmError::NoCallInProgress);
                TenantRun::new(session, idle)
            })
            .collect();
        drain(self.workers, self.slice, runs, hook)
    }
}

/// Handle to a task spawned on a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// Interleaves any number of in-flight [`Session`] calls on the calling
/// thread by giving each a fixed instruction budget per round, in spawn
/// order: the executors' run queue with one inline worker. Every task's
/// result and [`com_core::CycleStats`] stay bit-identical to running it
/// alone, as the `bench_sessions` pipeline asserts.
///
/// ```
/// # fn main() -> Result<(), com_vm::VmError> {
/// let vm = com_vm::Vm::new(
///     "class SmallInteger method tri ^self * (self + 1) / 2 end end",
/// )?;
/// let mut sched = com_vm::Scheduler::new(500);
/// let mut ids = Vec::new();
/// for n in [10i64, 100, 1000] {
///     let mut s = vm.session()?;
///     s.call_start("tri", n)?;
///     ids.push(sched.spawn(s)?);
/// }
/// sched.run();
/// assert_eq!(sched.result_as::<i64>(ids[2])?, Some(500_500));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scheduler {
    slice: u64,
    tasks: Vec<TenantRun>,
    rounds: u64,
}

impl Scheduler {
    /// A scheduler granting each task `slice` instructions per round. A
    /// zero slice cannot make progress; rather than spin,
    /// [`run`](Self::run) reports every unfinished task as
    /// [`VmError::Stalled`].
    pub fn new(slice: u64) -> Scheduler {
        Scheduler {
            slice,
            tasks: Vec::new(),
            rounds: 0,
        }
    }

    /// Adds a session whose resumable call is in flight (see
    /// [`Session::call_start`]).
    ///
    /// # Errors
    ///
    /// [`VmError::NoCallInProgress`] if the session has nothing to resume.
    pub fn spawn(&mut self, session: Session) -> Result<TaskId, VmError> {
        if !session.in_flight() {
            return Err(VmError::NoCallInProgress);
        }
        self.tasks.push(TenantRun::new(session, None));
        Ok(TaskId(self.tasks.len() - 1))
    }

    /// Round-robins until every task finishes, traps, stalls or panics.
    /// A failed task's [`error`](Self::error) says which, exactly as in
    /// [`TenantRun::error`]; it stops being scheduled, its session stays
    /// serviceable (reclaim it via [`into_sessions`](Self::into_sessions)),
    /// and every other task runs on undisturbed.
    pub fn run(&mut self) {
        self.run_with(None);
    }

    fn run_with(&mut self, hook: Option<SliceHook<'_>>) {
        let before: Vec<u64> = self.tasks.iter().map(|t| t.slices).collect();
        self.tasks = drain(1, self.slice, std::mem::take(&mut self.tasks), hook);
        // One worker sweeps the queue in rounds: the longest-running
        // task took one slice per round.
        self.rounds += self
            .tasks
            .iter()
            .zip(before)
            .map(|(t, b)| t.slices - b)
            .max()
            .unwrap_or(0);
    }

    /// Number of tasks spawned.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task was spawned.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Rounds swept so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// A finished task's raw result word.
    pub fn result(&self, id: TaskId) -> Option<Word> {
        self.tasks.get(id.0).and_then(|t| t.result)
    }

    /// A finished task's result, converted.
    ///
    /// # Errors
    ///
    /// [`VmError::Type`] if the result does not convert.
    pub fn result_as<R: FromWord>(&self, id: TaskId) -> Result<Option<R>, VmError> {
        self.result(id).map(R::from_word).transpose()
    }

    /// The error that ended a task, if it failed.
    pub fn error(&self, id: TaskId) -> Option<&VmError> {
        self.tasks.get(id.0).and_then(|t| t.error.as_ref())
    }

    /// Slices granted to a task so far (fairness observability).
    pub fn slices(&self, id: TaskId) -> u64 {
        self.tasks.get(id.0).map_or(0, |t| t.slices)
    }

    /// Borrow of a task's session (statistics inspection).
    pub fn session(&self, id: TaskId) -> Option<&Session> {
        self.tasks.get(id.0).map(|t| &t.session)
    }

    /// Tears the scheduler down into its sessions, in spawn order.
    pub fn into_sessions(self) -> Vec<Session> {
        self.tasks.into_iter().map(|t| t.session).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FaultPlan;
    use crate::Vm;

    const TRI: &str = r#"
        class SmallInteger
          method tri | acc |
            acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc
          end
        end
    "#;

    /// Drives `sessions` under `hook` through the inline [`Scheduler`]
    /// (`workers == 1`) or a [`ParallelExecutor`] pool.
    fn drive(workers: usize, sessions: Vec<Session>, hook: SliceHook<'_>) -> Vec<TenantRun> {
        if workers > 1 {
            return ParallelExecutor::new(workers, 17).run_with(sessions, Some(hook));
        }
        let mut sched = Scheduler::new(17);
        for s in sessions {
            sched.spawn(s).unwrap();
        }
        sched.run_with(Some(hook));
        sched.tasks
    }

    /// A panic while driving a slice is contained to its tenant, under
    /// the inline scheduler and a 3-worker pool alike: the panicking
    /// tenant comes back with `VmError::EnginePanic` and a serviceable
    /// session, and every sibling drains bit-identically to solo.
    #[test]
    fn worker_panic_is_contained_per_tenant() {
        FaultPlan::silence_injected_panics();
        let vm = Vm::new(TRI).unwrap();
        let sizes = [9i64, 14, 21, 33, 47];
        let solos: Vec<_> = sizes
            .iter()
            .map(|n| {
                let mut s = vm.session().unwrap();
                let _ = s.call::<i64>("tri", *n).unwrap();
                let run = s.last_run().unwrap();
                (run.result, run.stats)
            })
            .collect();

        for workers in [1, 3] {
            let mut sessions = Vec::new();
            for n in sizes {
                let mut s = vm.session().unwrap();
                s.call_start("tri", n).unwrap();
                sessions.push(s);
            }
            // The panicking tenant: a perfectly healthy call whose second
            // slice is interrupted by an injected worker panic.
            let mut bad = vm.session().unwrap();
            bad.call_start("tri", 10_000i64).unwrap();
            sessions.push(bad);
            let bad_index = sessions.len() - 1;

            let runs = drive(workers, sessions, &move |index, slices| {
                if index == bad_index && slices == 2 {
                    panic!("{}", crate::server::injector::INJECTED_PANIC);
                }
            });

            match &runs[bad_index].error {
                Some(VmError::EnginePanic { message }) => {
                    assert!(message.contains("injected worker panic"));
                }
                other => panic!("expected EnginePanic at {workers} workers, got {other:?}"),
            }
            assert_eq!(runs[bad_index].result, None);
            for (i, solo) in solos.iter().enumerate() {
                assert_eq!(runs[i].error, None, "sibling {i} disturbed");
                assert_eq!(runs[i].result, Some(solo.0));
                assert_eq!(
                    runs[i].session.last_run().unwrap().stats,
                    solo.1,
                    "sibling {i}: a worker panic changed its statistics at {workers} workers"
                );
            }
            // The panicked tenant's session is cancelled and re-callable.
            let mut revived = runs.into_iter().nth(bad_index).unwrap().session;
            assert!(!revived.in_flight());
            assert_eq!(revived.call::<i64>("tri", 4).unwrap(), 10);
        }
    }

    /// Every tenant panicking at once still drains the pool: no lock is
    /// poisoned, every session comes back.
    #[test]
    fn all_tenants_panicking_does_not_wedge_the_pool() {
        FaultPlan::silence_injected_panics();
        let vm = Vm::new(TRI).unwrap();
        let mut sessions = Vec::new();
        for _ in 0..6 {
            let mut s = vm.session().unwrap();
            s.call_start("tri", 10_000i64).unwrap();
            sessions.push(s);
        }
        let pool = ParallelExecutor::new(2, 25);
        let runs = pool.run_with(
            sessions,
            Some(&|_, _| panic!("{}", crate::server::injector::INJECTED_PANIC)),
        );
        assert_eq!(runs.len(), 6, "a session was lost");
        for run in runs {
            assert!(matches!(run.error, Some(VmError::EnginePanic { .. })));
        }
    }
}
