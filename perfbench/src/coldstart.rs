//! `coldstart`: a closed loop on one thread. Each operation takes one
//! source text to its first answered call — `VmBuilder::build`, then
//! `Vm::session`, then one call. The text is a shipped program (chosen in
//! seeded shuffled rounds) plus a seeded probe method whose answer the
//! benchmark computes itself, so every text is distinct: caching the
//! shared stdlib prelude can pay, memoizing whole sources cannot.

use crate::counters::Counters;
use crate::programs::{self, Cold};
use crate::rng::{Rng, Rounds};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{oracle, Metrics, Plan, Run};
use com_mem::Word;
use com_workloads::Workload;
use std::time::{Duration, Instant};

/// One generated cold start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdOp {
    /// Index into `com_workloads::all()`.
    pub program: usize,
    /// The probe's selector, unique per operation.
    pub selector: String,
    /// The probe method's source text.
    pub probe: String,
    /// The probe's receiver.
    pub receiver: i64,
    /// The probe's answer, computed here.
    pub expected: i64,
}

/// The seeded operation stream.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    rounds: Rounds,
    next: u64,
}

impl OpGen {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> OpGen {
        OpGen {
            rng: Rng::new(seed, 1),
            rounds: Rounds::new(crate::PROGRAMS.len(), Rng::new(seed, 2)),
            next: 0,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> ColdOp {
        self.next += 1;
        let a = self.rng.range(2, 999);
        let b = self.rng.range(0, 99_999);
        let receiver = self.rng.range(1, 9_999);
        let selector = format!("probe{}", self.next);
        ColdOp {
            program: self.rounds.next_index(),
            probe: format!("class SmallInteger method {selector} ^self * {a} + {b} end end"),
            selector,
            receiver,
            expected: receiver * a + b,
        }
    }
}

/// Runs until `deadline` or `max_ops` operations, whichever is first.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop after this long.
    pub time: Duration,
    /// Stop after this many operations.
    pub max_ops: u64,
}

impl Budget {
    /// A time-bounded budget.
    pub fn time(time: Duration) -> Budget {
        Budget {
            time,
            max_ops: u64::MAX,
        }
    }

    /// An operation-count-bounded budget.
    pub fn ops(max_ops: u64) -> Budget {
        Budget {
            time: Duration::MAX,
            max_ops,
        }
    }

    /// Whether the budget is spent after `ops` operations begun at `start`.
    pub fn done(&self, ops: u64, start: Instant) -> bool {
        ops >= self.max_ops || start.elapsed() >= self.time
    }
}

/// What one measured window saw.
#[derive(Debug)]
pub struct Window {
    /// Each operation's source-to-checked-answer latency, µs, in order.
    pub latency_us: Vec<f64>,
    /// The same latencies, per program.
    pub by_program: [Vec<f64>; crate::PROGRAMS.len()],
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Simulated counters summed over every operation's session.
    pub counters: Counters,
    /// Per-layer times of every operation (traced windows only).
    pub colds: Vec<Cold>,
    /// First-call host time per operation, µs.
    pub first_call_us: Vec<f64>,
}

impl Window {
    /// An empty record.
    pub fn new() -> Window {
        Window {
            latency_us: Vec::new(),
            by_program: Default::default(),
            ops: 0,
            failed: 0,
            seconds: 0.0,
            counters: Counters::default(),
            colds: Vec::new(),
            first_call_us: Vec::new(),
        }
    }
}

impl Default for Window {
    fn default() -> Window {
        Window::new()
    }
}

/// Runs cold starts from `gen` within `budget`, adding to `w`.
pub fn window(
    w: &mut Window,
    gen: &mut OpGen,
    programs: &[Workload],
    budget: Budget,
    tracer: &mut Tracer,
    run: &mut Run,
) {
    let (start, ops0) = (Instant::now(), w.ops);
    while !budget.done(w.ops - ops0, start) {
        let op = gen.next_op();
        w.ops += 1;
        let id = w.ops;
        let t0 = Instant::now();
        tracer.begin("op", id);
        let answered = programs::cold(&[programs[op.program].source, &op.probe], tracer, id)
            .and_then(|(mut session, times)| {
                let call = programs::call(
                    &mut session,
                    &op.selector,
                    op.receiver,
                    tracer,
                    "core.first_call",
                    id,
                )?;
                Ok((session, times, call))
            });
        tracer.end();
        let dt = t0.elapsed();
        match answered {
            Ok((session, times, call)) => {
                if call.result != Word::Int(op.expected) {
                    run.wrong(format!(
                        "{}: answered {:?}, expected {}",
                        op.selector, call.result, op.expected
                    ));
                }
                w.latency_us.push(dt.as_secs_f64() * 1e6);
                w.by_program[op.program].push(dt.as_secs_f64() * 1e6);
                w.first_call_us.push(call.ns as f64 / 1e3);
                w.counters.add(Counters::of(&session));
                if tracer.on() {
                    w.colds.push(times);
                }
            }
            Err(_) => w.failed += 1,
        }
    }
    w.seconds += start.elapsed().as_secs_f64();
}

/// One timed set-up: the fresh fidelity pass over every shipped program.
///
/// # Errors
///
/// As [`programs::fresh_pass`].
pub fn setup(
    programs: &[Workload],
    reference: &[oracle::Observation],
    tracer: &mut Tracer,
) -> Result<(f64, programs::FreshPass), String> {
    let t = Instant::now();
    let pass = programs::fresh_pass(programs, reference, tracer)?;
    Ok((t.elapsed().as_secs_f64(), pass))
}

/// Cuts `measure` into `SETUP_REPEATS − 1` stretches, runs `stretch` on
/// each, and times one more set-up after each. Spread over the run like
/// this, the set-ups sample the host's fast and slow states alike rather
/// than whichever one the run started in. Returns those set-ups' seconds.
///
/// # Errors
///
/// As [`programs::fresh_pass`].
pub fn with_setups(
    measure: std::time::Duration,
    programs: &[Workload],
    reference: &[oracle::Observation],
    mut stretch: impl FnMut(Budget),
) -> Result<Vec<f64>, String> {
    let n = crate::SETUP_REPEATS - 1;
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        stretch(Budget::time(measure / n as u32));
        secs.push(setup(programs, reference, &mut Tracer::new(false))?.0);
    }
    Ok(secs)
}

/// Records `core.call_ns_per_instr.<program>` from the fresh pass's calls.
pub fn put_fresh_ns_per_instr(m: &mut Metrics, pass: &programs::FreshPass) {
    for (name, call) in crate::PROGRAMS.iter().zip(&pass.calls) {
        m.put(
            format!("core.call_ns_per_instr.{name}"),
            crate::stats::ratio(call.ns as f64, call.delta.instructions as f64),
            "ns",
        );
    }
}

/// Records the source-to-session layer medians of `colds`.
pub fn put_cold_layers(m: &mut Metrics, colds: &[Cold]) {
    let us =
        |f: fn(&Cold) -> u64| median(&colds.iter().map(|c| f(c) as f64 / 1e3).collect::<Vec<_>>());
    m.put("stc.compile_us", us(|c| c.compile_ns), "us");
    let words: Vec<f64> = colds.iter().map(|c| c.code_words as f64).collect();
    m.put(
        "stc.code_words",
        crate::stats::ratio(words.iter().sum(), words.len() as f64),
        "count",
    );
    m.put("verify.verify_us", us(|c| c.verify_ns), "us");
    m.put("core.prepare_us", us(|c| c.prepare_ns), "us");
}

/// Runs the workload.
pub fn run(plan: Plan) -> Run {
    let mut run = Run::default();
    let programs = com_workloads::all();
    let reference = oracle::parse(oracle::RECORDED).expect("oracle.txt parses");
    let mut tracer = Tracer::new(plan.trace);
    let (first_setup, pass) = match setup(&programs, &reference, &mut tracer) {
        Ok(s) => s,
        Err(e) => {
            run.wrong(e);
            return run;
        }
    };
    let mut gen = OpGen::new(plan.seed);
    if !plan.trace {
        let mut w = Window::new();
        let setups = with_setups(plan.measure, &programs, &reference, |budget| {
            window(&mut w, &mut gen, &programs, budget, &mut tracer, &mut run)
        });
        let mut setup_secs = match setups {
            Ok(s) => s,
            Err(e) => {
                run.wrong(e);
                return run;
            }
        };
        setup_secs.push(first_setup);
        run.attempted = w.ops;
        run.failed = w.failed;
        let m = &mut run.metrics;
        m.put("setup_s", median(&setup_secs), "s");
        m.put("peak_rss_mb", crate::peak_rss_mb(), "MB");
        let d = &mut run.detail;
        let c = crate::put_closed_loop(m, d, "coldstart", &w.latency_us, &w.by_program, w.seconds);
        d.put("coldstart.first_answer_us_p50", c.p50, "us");
        d.put("coldstart.first_answer_us_p99", c.p99, "us");
        return run;
    }
    let (mut a, mut b) = (Window::new(), Window::new());
    let a_budget = Budget::time(plan.measure.mul_f64(crate::UNTRACED_SHARE));
    window(
        &mut a,
        &mut gen,
        &programs,
        a_budget,
        &mut Tracer::new(false),
        &mut run,
    );
    let b_budget = Budget::time(plan.measure.mul_f64(1.0 - crate::UNTRACED_SHARE));
    window(&mut b, &mut gen, &programs, b_budget, &mut tracer, &mut run);
    run.attempted = a.ops + b.ops;
    run.failed = a.failed + b.failed;
    let m = &mut run.metrics;
    put_cold_layers(m, &b.colds);
    m.put(
        "vm.session_us",
        median(
            &b.colds
                .iter()
                .map(|c| c.session_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    m.put("core.first_call_us", median(&b.first_call_us), "us");
    put_fresh_ns_per_instr(m, &pass);
    crate::put_counters(m, &b.counters);
    crate::put_no_server(m);
    crate::put_self_times(m, &tracer, b.ops);
    let p50 = |w: &Window| median(&w.latency_us);
    m.put(
        "trace.overhead_share",
        crate::overhead_share(p50(&a), p50(&b)),
        "ratio",
    );
    crate::write_trace(&tracer, "coldstart", plan.seed);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operations() {
        let ops = |seed| {
            let mut g = OpGen::new(seed);
            (0..40).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
        let distinct: std::collections::BTreeSet<String> =
            ops(5).into_iter().map(|o| o.probe).collect();
        assert_eq!(distinct.len(), 40, "every source text is distinct");
    }

    #[test]
    fn same_seed_same_counts() {
        let programs = com_workloads::all();
        let counts = |seed| {
            let mut run = Run::default();
            let mut w = Window::new();
            window(
                &mut w,
                &mut OpGen::new(seed),
                &programs,
                Budget::ops(12),
                &mut Tracer::new(false),
                &mut run,
            );
            assert!(run.wrong.is_empty(), "{:?}", run.wrong);
            assert_eq!(w.failed, 0);
            w.counters
        };
        assert_eq!(counts(9), counts(9));
    }
}
