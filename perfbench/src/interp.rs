//! `interp`: a closed loop on one thread over warm sessions, one per
//! shipped program. A seeded sequence of `send_raw` calls (shuffled
//! rounds, so the mix is exact) runs all 11 self-checking programs at
//! their shipped sizes — the simulator's hot path, where `core`, `obj`,
//! `cache` and `mem` do all the work.

use crate::coldstart::{put_cold_layers, setup, with_setups, Budget};
use crate::counters::Counters;
use crate::programs;
use crate::rng::{Rng, Rounds};
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::Tracer;
use crate::{oracle, Plan, Run, PROGRAMS};
use com_mem::Word;
use com_vm::Session;
use com_workloads::Workload;
use std::time::Instant;

/// What one measured window saw.
#[derive(Debug)]
pub struct Window {
    /// Each call's wall latency, µs, in order.
    pub latency_us: Vec<f64>,
    /// Per program, each call's wall latency, µs.
    pub by_program: [Vec<f64>; PROGRAMS.len()],
    /// Per-call host ns per simulated instruction.
    pub ns_per_instr: Vec<f64>,
    /// Calls attempted.
    pub ops: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per program: host ns and simulated instructions.
    pub per_program: [(u64, u64); PROGRAMS.len()],
    /// Simulated counters of the calls.
    pub counters: Counters,
}

impl Window {
    /// An empty record.
    pub fn new() -> Window {
        Window {
            latency_us: Vec::new(),
            by_program: Default::default(),
            ns_per_instr: Vec::new(),
            ops: 0,
            failed: 0,
            seconds: 0.0,
            per_program: Default::default(),
            counters: Counters::default(),
        }
    }
}

impl Default for Window {
    fn default() -> Window {
        Window::new()
    }
}

/// The warm sessions, one per shipped program, with what each call must
/// answer and retire.
#[derive(Debug)]
pub struct Warm {
    /// The programs, in `com_workloads::all()` order.
    pub programs: Vec<Workload>,
    /// Each program's recorded retired-instruction count.
    pub instructions: Vec<u64>,
    /// One warm session per program.
    pub sessions: Vec<Session>,
}

/// Runs warm calls in the order `rounds` draws, within `budget`, adding
/// to `w`. Each call's answer and retired-instruction delta are checked
/// against the program and its recorded count.
pub fn window(
    w: &mut Window,
    rounds: &mut Rounds,
    warm: &mut Warm,
    budget: Budget,
    tracer: &mut Tracer,
    run: &mut Run,
) {
    let (start, ops0) = (Instant::now(), w.ops);
    let instructions = &warm.instructions;
    while !budget.done(w.ops - ops0, start) {
        let p = rounds.next_index();
        let prog = &warm.programs[p];
        w.ops += 1;
        let session = &mut warm.sessions[p];
        let before = tracer.on().then(|| Counters::of(session));
        tracer.begin("op", w.ops);
        let call = programs::call(session, prog.entry, prog.size, tracer, "core.call", w.ops);
        tracer.end();
        match call {
            Ok(call) => {
                if call.result != Word::Int(prog.expected) {
                    run.wrong(format!(
                        "{}: answered {:?}, expected {}",
                        prog.name, call.result, prog.expected
                    ));
                }
                if call.delta.instructions != instructions[p] {
                    run.wrong(format!(
                        "{}: warm call retired {} instructions, recorded {}",
                        prog.name, call.delta.instructions, instructions[p]
                    ));
                }
                w.latency_us.push(call.ns as f64 / 1e3);
                w.by_program[p].push(call.ns as f64 / 1e3);
                w.ns_per_instr
                    .push(ratio(call.ns as f64, call.delta.instructions as f64));
                w.per_program[p].0 += call.ns;
                w.per_program[p].1 += call.delta.instructions;
                match before {
                    Some(b) => w.counters.add(Counters::of(session).since(b)),
                    None => w.counters.instructions += call.delta.instructions,
                }
            }
            Err(_) => w.failed += 1,
        }
    }
    w.seconds += start.elapsed().as_secs_f64();
}

/// Runs the workload.
pub fn run(plan: Plan) -> Run {
    let mut run = Run::default();
    let programs = com_workloads::all();
    let reference = oracle::parse(oracle::RECORDED).expect("oracle.txt parses");
    let instructions: Vec<u64> = programs
        .iter()
        .map(|w| {
            reference
                .iter()
                .find(|o| o.name == w.name)
                .and_then(oracle::Observation::instructions)
                .expect("oracle.txt records every program's instruction count")
        })
        .collect();
    let mut tracer = Tracer::new(plan.trace);
    let (first_setup, pass) = match setup(&programs, &reference, &mut tracer) {
        Ok(s) => s,
        Err(e) => {
            run.wrong(e);
            return run;
        }
    };
    let mut rounds = Rounds::new(PROGRAMS.len(), Rng::new(plan.seed, 3));
    let (colds, calls) = (pass.colds, pass.calls);
    let mut warm = Warm {
        programs: programs.clone(),
        instructions,
        sessions: pass.sessions,
    };
    if !plan.trace {
        let mut w = Window::new();
        let setups = with_setups(plan.measure, &programs, &reference, |budget| {
            window(
                &mut w,
                &mut rounds,
                &mut warm,
                budget,
                &mut tracer,
                &mut run,
            )
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
        let npi = sorted(w.ns_per_instr.clone());
        let m = &mut run.metrics;
        m.put("setup_s", median(&setup_secs), "s");
        m.put("peak_rss_mb", crate::peak_rss_mb(), "MB");
        let d = &mut run.detail;
        let c = crate::put_closed_loop(m, d, "interp", &w.latency_us, &w.by_program, w.seconds);
        // The kept mix is exact: as many calls of every program.
        let kept_instr = warm.instructions.iter().sum::<u64>() * (c.kept / PROGRAMS.len()) as u64;
        d.put(
            "interp.minstr_per_s",
            ratio(kept_instr as f64, c.kept_seconds) / 1e6,
            "Minstr/s",
        );
        d.put(
            "interp.ns_per_instr_p50",
            percentile(&npi, 0.5).unwrap_or(0.0),
            "ns",
        );
        d.put(
            "interp.ns_per_instr_p99",
            percentile(&npi, 0.99).unwrap_or(0.0),
            "ns",
        );
        d.put(
            "interp.minstr_per_s.all",
            w.counters.instructions as f64 / w.seconds / 1e6,
            "Minstr/s",
        );
        return run;
    }
    let (mut a, mut b) = (Window::new(), Window::new());
    let a_budget = Budget::time(plan.measure.mul_f64(crate::UNTRACED_SHARE));
    window(
        &mut a,
        &mut rounds,
        &mut warm,
        a_budget,
        &mut Tracer::new(false),
        &mut run,
    );
    let b_budget = Budget::time(plan.measure.mul_f64(1.0 - crate::UNTRACED_SHARE));
    window(
        &mut b,
        &mut rounds,
        &mut warm,
        b_budget,
        &mut tracer,
        &mut run,
    );
    run.attempted = a.ops + b.ops;
    run.failed = a.failed + b.failed;
    let m = &mut run.metrics;
    put_cold_layers(m, &colds);
    m.put(
        "vm.session_us",
        median(
            &colds
                .iter()
                .map(|c| c.session_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    let first: Vec<f64> = calls.iter().map(|c| c.ns as f64 / 1e3).collect();
    m.put("core.first_call_us", median(&first), "us");
    for (name, (ns, instr)) in PROGRAMS.iter().zip(b.per_program) {
        m.put(
            format!("core.call_ns_per_instr.{name}"),
            ratio(ns as f64, instr as f64),
            "ns",
        );
    }
    crate::put_counters(m, &b.counters);
    crate::put_no_server(m);
    crate::put_self_times(m, &tracer, b.ops);
    m.put(
        "trace.overhead_share",
        crate::overhead_share(median(&a.ns_per_instr), median(&b.ns_per_instr)),
        "ratio",
    );
    crate::write_trace(&tracer, "interp", plan.seed);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_calls_and_counts() {
        let programs = com_workloads::all();
        let reference = oracle::parse(oracle::RECORDED).unwrap();
        let instructions: Vec<u64> = programs
            .iter()
            .map(|w| {
                reference
                    .iter()
                    .find(|o| o.name == w.name)
                    .unwrap()
                    .instructions()
                    .unwrap()
            })
            .collect();
        let go = |seed| {
            let mut tracer = Tracer::new(true);
            let pass = programs::fresh_pass(&programs, &reference, &mut tracer).unwrap();
            let mut warm = Warm {
                programs: programs.clone(),
                instructions: instructions.clone(),
                sessions: pass.sessions,
            };
            let mut run = Run::default();
            let mut rounds = Rounds::new(PROGRAMS.len(), Rng::new(seed, 3));
            let mut w = Window::new();
            let budget = Budget::ops(22);
            window(
                &mut w,
                &mut rounds,
                &mut warm,
                budget,
                &mut tracer,
                &mut run,
            );
            assert!(run.wrong.is_empty(), "{:?}", run.wrong);
            (w.per_program, w.counters)
        };
        let calls = |seed| {
            let mut rounds = Rounds::new(PROGRAMS.len(), Rng::new(seed, 3));
            (0..22).map(|_| rounds.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(calls(4), calls(4));
        assert_ne!(calls(4), calls(5));
        let (per_program, counts) = go(4);
        let again = go(4);
        // Host times differ; simulated counts repeat exactly.
        assert_eq!(again.1, counts);
        let instr = |p: &[(u64, u64); PROGRAMS.len()]| p.map(|(_, i)| i);
        assert_eq!(instr(&again.0), instr(&per_program));
    }
}
