//! The wall-clock interpreter bench pipeline (`BENCH_interp.json`).
//!
//! Every perf PR from this one onward is judged against the trajectory
//! this harness records: nanoseconds per simulated instruction and
//! simulated instructions per second, per workload, for both interpreter
//! loops:
//!
//! * **baseline** — the single-step reference loop
//!   ([`com_core::Machine::run_stepwise`]), one `step()` per instruction.
//! * **threaded** — the hot loop ([`com_core::Machine::run`]).
//!
//! Both run `MachineConfig::default()`, so they share every simulated
//! structure (ITLB probe array, icache, ATLB, context cache); the
//! speedup isolates the loop itself. Full `CycleStats` are asserted equal
//! between the two on every workload; the *simulated* cycle counts are
//! semantics and do not change with interpreter speed (see
//! `com_core::machine` module docs). The end-to-end no-regression gate
//! for the hot path is the `perfbench` `interp` workload, not this
//! speedup.

use std::time::Instant;

use com_core::{Machine, MachineConfig, MachineError, RunResult};
use com_mem::Word;
use com_stc::{compile_com, CompileOptions};
use com_workloads::{self as workloads, Workload};

/// Which interpreter loop a measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// The stepwise reference loop.
    Baseline,
    /// The threaded hot loop.
    Threaded,
}

/// One timed run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock nanoseconds for the run (best of the measured repeats).
    pub wall_ns: u64,
    /// Simulated instructions executed.
    pub instructions: u64,
}

impl Sample {
    /// Wall nanoseconds per simulated instruction.
    pub fn ns_per_instr(&self) -> f64 {
        self.wall_ns as f64 / self.instructions.max(1) as f64
    }

    /// Simulated instructions per wall second.
    pub fn instr_per_sec(&self) -> f64 {
        self.instructions as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Measurement of one workload under both loops.
#[derive(Debug, Clone)]
pub struct Row {
    /// Bench row name (the experiment the workload stands in for).
    pub name: &'static str,
    /// Stepwise reference loop.
    pub baseline: Sample,
    /// Threaded loop.
    pub threaded: Sample,
    /// Simulated CPI (identical across loops by construction).
    pub cpi: f64,
}

impl Row {
    /// Wall-clock speedup of the threaded loop over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline.wall_ns as f64 / self.threaded.wall_ns.max(1) as f64
    }
}

fn run_send(
    m: &mut Machine,
    w: &Workload,
    l: Loop,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    let sel = m
        .opcodes()
        .get(w.entry)
        .unwrap_or_else(|| panic!("entry {} not interned", w.entry));
    m.start_send(sel, Word::Int(w.size), &[])?;
    let out = match l {
        Loop::Baseline => m.run_stepwise(max_steps)?,
        Loop::Threaded => m.run(max_steps)?,
    };
    assert_eq!(
        out.result,
        Word::Int(w.expected),
        "{} self-check failed under {l:?}",
        w.name
    );
    Ok(out)
}

/// Steady-state paired measurement of `w` under both loops.
///
/// One warm machine per loop; then `repeats` rounds, each timing one
/// window of sends on the baseline machine immediately followed by one on
/// the threaded machine. Pairing the windows cancels machine-wide noise
/// (frequency scaling, neighbours): each round yields a speedup under the
/// same conditions, and the reported row is the round with the median
/// speedup. Steady state is the honest regime for a hot-loop bench —
/// translation caches resident, the decoded slab warm.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if the workload miscompiles, fails its self-check, or executes
/// different instruction counts under the two loops.
pub fn measure_paired(
    w: &Workload,
    repeats: u32,
    max_steps: u64,
) -> Result<(Sample, Sample, RunResult), MachineError> {
    let image = compile_com(w.source, CompileOptions::default())
        .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));
    let mut machines = Vec::new();
    let mut per_send = 0;
    let mut warm_stats = None;
    for l in [Loop::Baseline, Loop::Threaded] {
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image)?;
        // Warmup: residency established, first-touch page faults taken.
        let warm = run_send(&mut m, w, l, max_steps)?;
        // The two loops must simulate the *same* architectural work —
        // full CycleStats, not just instruction counts.
        if let Some(prev) = warm_stats {
            assert_eq!(
                prev, warm.stats,
                "{}: simulated CycleStats diverged between loops",
                w.name
            );
        }
        warm_stats = Some(warm.stats);
        per_send = warm.stats.instructions.max(1);
        machines.push(m);
    }
    // Windows of at least ~100k simulated instructions, so a timed region
    // is well past timer jitter.
    let inner = (100_000 / per_send).clamp(2, 64) as u32;
    let window = |m: &mut Machine, l: Loop| -> Result<(u64, RunResult), MachineError> {
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..inner {
            last = Some(run_send(m, w, l, max_steps)?);
        }
        Ok((
            t0.elapsed().as_nanos() as u64 / u64::from(inner),
            last.expect("inner >= 1"),
        ))
    };
    let mut rounds = Vec::new();
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let (base_ns, _) = window(&mut machines[0], Loop::Baseline)?;
        let (fast_ns, o) = window(&mut machines[1], Loop::Threaded)?;
        rounds.push((base_ns, fast_ns));
        out = Some(o);
    }
    rounds.sort_by(|a, b| {
        let ra = a.0 as f64 / a.1 as f64;
        let rb = b.0 as f64 / b.1 as f64;
        ra.partial_cmp(&rb).expect("finite ratios")
    });
    let (base_ns, fast_ns) = rounds[rounds.len() / 2];
    Ok((
        Sample {
            wall_ns: base_ns,
            instructions: per_send,
        },
        Sample {
            wall_ns: fast_ns,
            instructions: per_send,
        },
        out.expect("at least one round"),
    ))
}

/// The bench rows: experiment-named workloads. `tab_call_cost` is the
/// call-linkage-dominated workload behind the T1 table; `tab_pipeline`
/// the mixed send/arith/branch pipeline workload behind T6; the rest
/// track the remaining hot paths.
pub fn bench_workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("tab_call_cost", workloads::CALLS),
        ("tab_pipeline", workloads::DISPATCH),
        ("arith", workloads::ARITH),
        ("sort", workloads::SORT),
        ("trees", workloads::TREES),
    ]
}

/// Runs the full pipeline: every bench workload under both loops.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if a workload's architectural result diverges between loops.
pub fn interp_rows(repeats: u32, max_steps: u64) -> Result<Vec<Row>, MachineError> {
    let mut rows = Vec::new();
    for (name, w) in bench_workloads() {
        let (base, fast, fast_out) = measure_paired(&w, repeats, max_steps)?;
        rows.push(Row {
            name,
            baseline: base,
            threaded: fast,
            cpi: fast_out.stats.cpi().unwrap_or(f64::NAN),
        });
    }
    Ok(rows)
}

/// Renders the rows as the machine-readable `BENCH_interp.json` document.
pub fn rows_to_json(rows: &[Row]) -> String {
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    }
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"interp\",\n  \"schema\": 1,\n");
    s.push_str("  \"unit\": {\"ns_per_instr\": \"wall nanoseconds per simulated instruction\", \"instr_per_sec\": \"simulated instructions per wall second\"},\n");
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"instructions\": {}, \"cpi_simulated\": {},\n",
            r.name,
            r.baseline.instructions,
            num(r.cpi)
        ));
        for (label, smp) in [("baseline", r.baseline), ("threaded", r.threaded)] {
            s.push_str(&format!(
                "     \"{}\": {{\"wall_ns\": {}, \"ns_per_instr\": {}, \"instr_per_sec\": {}}},\n",
                label,
                smp.wall_ns,
                num(smp.ns_per_instr()),
                num(smp.instr_per_sec())
            ));
        }
        s.push_str(&format!("     \"speedup\": {}}}", num(r.speedup())));
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let geomean = if rows.is_empty() {
        f64::NAN
    } else {
        (rows.iter().map(|r| r.speedup().ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    s.push_str(&format!(
        "  \"summary\": {{\"geomean_speedup\": {}}}\n}}\n",
        num(geomean)
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_valid_enough() {
        let rows = vec![Row {
            name: "tab_call_cost",
            baseline: Sample {
                wall_ns: 2_000,
                instructions: 100,
            },
            threaded: Sample {
                wall_ns: 1_000,
                instructions: 100,
            },
            cpi: 2.5,
        }];
        let j = rows_to_json(&rows);
        assert!(j.contains("\"speedup\": 2.000"));
        assert!(j.contains("\"geomean_speedup\": 2.000"));
        assert!(j.contains("\"tab_call_cost\""));
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn sample_rates() {
        let s = Sample {
            wall_ns: 2_000_000_000,
            instructions: 1_000_000,
        };
        assert!((s.ns_per_instr() - 2000.0).abs() < 1e-9);
        assert!((s.instr_per_sec() - 500_000.0).abs() < 1e-6);
    }
}
