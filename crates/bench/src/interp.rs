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
//! `com_core::machine` module docs). Wall clock follows the
//! [paired-round protocol](crate::harness), keyed on the speedup. The
//! end-to-end no-regression gate for the hot path is the `perfbench`
//! `interp` workload, not this speedup.

use std::time::Instant;

use com_core::{Machine, MachineConfig, MachineError, RunResult};
use com_workloads::{self as workloads, Workload};

use crate::harness::{artifact, boot, geomean, paired_rounds, send, Protocol};

/// One timed run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock nanoseconds per send in the median paired round.
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

/// Steady-state paired measurement of `w` under both loops, as the row
/// `name`.
///
/// One warm machine per loop; then `repeats` paired rounds, each timing
/// one window of sends on either machine, keyed on the speedup. Steady
/// state is the honest regime for a hot-loop bench — translation caches
/// resident, the decoded slab warm.
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
    name: &'static str,
    w: &Workload,
    repeats: u32,
    max_steps: u64,
) -> Result<Row, MachineError> {
    let mut machines = Vec::new();
    let mut per_send = 0;
    let mut warm_stats = None;
    for stepwise in [true, false] {
        let mut m = boot(w, MachineConfig::default())?;
        // Warmup: residency established, first-touch page faults taken.
        let warm = send(&mut m, w, stepwise, max_steps)?;
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
    // Both machines have run the same sends when the rounds end, and the
    // loops simulate identically, so the last send's stats give the CPI.
    let mut last = None;
    let mut window = |m: &mut Machine, stepwise: bool| -> Result<u64, MachineError> {
        let t0 = Instant::now();
        for _ in 0..inner {
            last = Some(send(m, w, stepwise, max_steps)?);
        }
        Ok(t0.elapsed().as_nanos() as u64 / u64::from(inner))
    };
    let round = paired_rounds(
        repeats,
        2,
        |a| window(&mut machines[a], a == 0),
        |r| r[0] as f64 / r[1] as f64,
    )?;
    let sample = |wall_ns| Sample {
        wall_ns,
        instructions: per_send,
    };
    let last: RunResult = last.expect("at least one round");
    let cpi = last.stats.cpi().unwrap_or(f64::NAN);
    Ok(Row {
        name,
        baseline: sample(round[0]),
        threaded: sample(round[1]),
        cpi,
    })
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
    bench_workloads()
        .iter()
        .map(|(name, w)| measure_paired(name, w, repeats, max_steps))
        .collect()
}

/// Renders the rows as the machine-readable `BENCH_interp.json` document.
pub fn rows_to_json(rows: &[Row], protocol: Protocol) -> String {
    artifact(
        "interp",
        protocol,
        |_| {},
        |j| {
            j.key("unit").object(|j| {
                j.field("ns_per_instr", "wall nanoseconds per simulated instruction")
                    .field("instr_per_sec", "simulated instructions per wall second");
            });
            j.key("workloads").array(|j| {
                for r in rows {
                    j.object(|j| {
                        j.field("name", r.name)
                            .field("instructions", r.baseline.instructions)
                            .field("cpi_simulated", r.cpi);
                        for (label, smp) in [("baseline", r.baseline), ("threaded", r.threaded)] {
                            j.key(label).object(|j| {
                                j.field("wall_ns", smp.wall_ns)
                                    .field("ns_per_instr", smp.ns_per_instr())
                                    .field("instr_per_sec", smp.instr_per_sec());
                            });
                        }
                        j.field("speedup", r.speedup());
                    });
                }
            });
            j.key("summary").object(|j| {
                j.field("geomean_speedup", geomean(rows.iter().map(Row::speedup)));
            });
        },
    )
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
        let j = rows_to_json(&rows, Protocol::new(3));
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
