//! The multi-tenant session bench pipeline (`BENCH_sessions.json`).
//!
//! Measures the two claims the `com-vm` facade makes:
//!
//! 1. **Spin-up** — spawning a tenant [`Session`] over a shared, immutable
//!    [`com_vm::LoadedImage`] must be ≥ 10× cheaper (wall clock) than the
//!    old one-tenant path, a fresh compile + load of the same program.
//!    Measured with the [paired-round protocol](crate::harness), keyed on
//!    that ratio.
//! 2. **Round-robin fidelity** — a 16-session cooperative round-robin run
//!    (the [`com_vm::Scheduler`] interleaving tenants in fixed instruction
//!    slices) must complete every workload with results *and*
//!    [`CycleStats`](com_core::CycleStats) bit-identical to sequential
//!    execution. Isolation is architectural, so this is asserted exactly,
//!    not approximately.

use std::time::Instant;

use com_core::MachineConfig;
use com_mem::Word;
use com_stc::CompileOptions;
use com_vm::{Scheduler, Session, Vm, VmError};
use com_workloads::{self as workloads, Workload};

use crate::harness::{artifact, paired_rounds, Protocol, Tenants};

/// Instruction slice each tenant receives per scheduler round.
pub const SLICE_STEPS: u64 = 5_000;

/// The workload set tenants cycle through (fast, varied instruction mixes).
pub fn tenant_workloads() -> Vec<Workload> {
    vec![
        workloads::CALLS,
        workloads::ARITH,
        workloads::DISPATCH,
        workloads::SORT,
    ]
}

/// Sessions spawned (and timed together) per paired round: per-session
/// spin-up is what a multi-tenant server pays at the margin, so each round
/// spawns a batch and reports the mean — single spawns are dominated by
/// the cache pollution of whatever ran before them.
pub const SPAWNS_PER_ROUND: u32 = 16;

/// Wall-clock numbers for the spin-up comparison (median paired round).
#[derive(Debug, Clone, Copy)]
pub struct SpinupMeasure {
    /// Nanoseconds for a fresh compile + load + ready-to-call machine.
    pub fresh_ns: u64,
    /// Nanoseconds per `vm.session()` on the shared image (mean of the
    /// round's batch of [`SPAWNS_PER_ROUND`]).
    pub session_ns: u64,
}

impl SpinupMeasure {
    /// How many times cheaper shared-image session spin-up is.
    pub fn speedup(&self) -> f64 {
        self.fresh_ns as f64 / self.session_ns.max(1) as f64
    }
}

/// One tenant's outcome in the round-robin comparison.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant index (spawn order).
    pub tenant: usize,
    /// Workload name.
    pub workload: &'static str,
    /// Result word of the interleaved run.
    pub result: Word,
    /// Instructions the tenant executed.
    pub instructions: u64,
    /// Scheduler slices the tenant consumed.
    pub slices: u64,
    /// Whether result and `CycleStats` matched sequential execution
    /// bit-for-bit.
    pub matches_sequential: bool,
}

/// The whole pipeline's output.
#[derive(Debug, Clone)]
pub struct SessionsReport {
    /// The spin-up comparison.
    pub spinup: SpinupMeasure,
    /// Per-tenant round-robin rows.
    pub tenants: Vec<TenantRow>,
    /// Scheduler rounds the interleaved run took.
    pub rounds: u64,
    /// Tenants in the round-robin run.
    pub sessions: usize,
    /// The spin-up comparison's rounds and host.
    pub protocol: Protocol,
}

impl SessionsReport {
    /// Whether every tenant matched sequential execution.
    pub fn all_match(&self) -> bool {
        self.tenants.iter().all(|t| t.matches_sequential)
    }
}

/// Times one fresh compile + load + ready machine (the old embedding
/// path) for the joined tenant program.
fn time_fresh(source: &str, config: MachineConfig) -> Result<u64, VmError> {
    let t0 = Instant::now();
    // The pre-facade path: compile the program and boot a machine from the
    // raw image (per-machine lazy decode ahead of it).
    let image = com_stc::compile_com(source, CompileOptions::default())?;
    let mut m = com_core::Machine::new(config);
    m.load(&image)?;
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&m);
    Ok(ns)
}

/// Times a batch of `vm.session()` spin-ups on the shared image,
/// returning the mean nanoseconds per session. The sessions stay alive
/// until after timing ends (their teardown is not spin-up).
fn time_session_batch(vm: &Vm, spawns: u32) -> Result<u64, VmError> {
    let mut live = Vec::with_capacity(spawns as usize);
    let t0 = Instant::now();
    for _ in 0..spawns.max(1) {
        live.push(vm.session()?);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&live);
    Ok(ns / u64::from(spawns.max(1)))
}

/// The paired-round spin-up comparison over `repeats` rounds.
///
/// # Errors
///
/// Propagates compile and boot errors.
pub fn measure_spinup(repeats: u32) -> Result<SpinupMeasure, VmError> {
    let source: String = tenant_workloads()
        .iter()
        .map(|w| w.source)
        .collect::<Vec<_>>()
        .join("\n");
    let config = MachineConfig::default();
    let vm = Vm::builder().source(&source).config(config).build()?;
    // Warm both paths once (allocator, lazy statics).
    time_fresh(&source, config)?;
    time_session_batch(&vm, SPAWNS_PER_ROUND)?;
    let round = paired_rounds(
        repeats,
        2,
        |a| {
            if a == 0 {
                time_fresh(&source, config)
            } else {
                time_session_batch(&vm, SPAWNS_PER_ROUND)
            }
        },
        |r| r[0] as f64 / r[1].max(1) as f64,
    )?;
    Ok(SpinupMeasure {
        fresh_ns: round[0],
        session_ns: round[1],
    })
}

/// Runs `sessions` tenants sequentially, then the same tenants under the
/// round-robin scheduler, asserting bit-identical results and statistics.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if a workload fails its self-check or a tenant never finishes.
pub fn measure_roundrobin(sessions: usize) -> Result<(Vec<TenantRow>, u64), VmError> {
    let set = Tenants::new(tenant_workloads())?;
    let mut sched = Scheduler::new(SLICE_STEPS);
    let ids = set
        .started(sessions)?
        .into_iter()
        .map(|s| sched.spawn(s))
        .collect::<Result<Vec<_>, _>>()?;
    sched.run();

    let mut rows = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let run = sched
            .session(*id)
            .and_then(Session::last_run)
            .unwrap_or_else(|| panic!("tenant {i} never finished"))
            .clone();
        rows.push(TenantRow {
            tenant: i,
            workload: set.workload(i).name,
            result: run.result,
            instructions: run.stats.instructions,
            slices: sched.slices(*id),
            matches_sequential: (run.result, run.stats) == *set.solo(i),
        });
    }
    Ok((rows, sched.rounds()))
}

/// Runs the whole pipeline.
///
/// # Errors
///
/// Propagates machine errors.
pub fn report(sessions: usize, repeats: u32) -> Result<SessionsReport, VmError> {
    let spinup = measure_spinup(repeats)?;
    let (tenants, rounds) = measure_roundrobin(sessions)?;
    Ok(SessionsReport {
        spinup,
        sessions,
        tenants,
        rounds,
        protocol: Protocol::new(repeats),
    })
}

/// Renders the report as the machine-readable `BENCH_sessions.json`.
pub fn report_to_json(r: &SessionsReport) -> String {
    let target_met = r.spinup.speedup() >= 10.0;
    artifact(
        "sessions",
        r.protocol,
        |j| {
            let names: Vec<&str> = tenant_workloads().iter().map(|w| w.name).collect();
            j.field("sessions", r.sessions)
                .field("slice_steps", SLICE_STEPS)
                .field("workloads", names)
                .field("spawns_per_round", SPAWNS_PER_ROUND);
        },
        |j| {
            j.key("unit").object(|j| {
                j.field("spinup_speedup", "fresh compile+load wall-ns over per-session shared-image session() wall-ns (mean of a spawns_per_round batch), median paired round");
            });
            j.key("spinup").object(|j| {
                j.field("fresh_ns", r.spinup.fresh_ns)
                    .field("session_ns", r.spinup.session_ns)
                    .field("speedup", r.spinup.speedup())
                    .field("target_10x_met", target_met);
            });
            j.key("roundrobin").object(|j| {
                j.field("rounds", r.rounds);
                j.key("tenants").array(|j| {
                    for t in &r.tenants {
                        j.object(|j| {
                            j.field("tenant", t.tenant)
                                .field("workload", t.workload)
                                .field("result", t.result.to_string())
                                .field("instructions", t.instructions)
                                .field("slices", t.slices)
                                .field("matches_sequential", t.matches_sequential);
                        });
                    }
                });
            });
            j.key("summary").object(|j| {
                j.field("spinup_speedup", r.spinup.speedup())
                    .field("target_10x_met", target_met)
                    .field("roundrobin_matches", r.all_match());
            });
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundrobin_four_tenants_matches_sequential() {
        let (rows, rounds) = measure_roundrobin(4).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rounds > 1, "workloads must outlast one slice");
        for row in &rows {
            assert!(row.matches_sequential, "{} diverged", row.workload);
        }
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let r = SessionsReport {
            spinup: SpinupMeasure {
                fresh_ns: 1_000_000,
                session_ns: 10_000,
            },
            sessions: 2,
            tenants: vec![TenantRow {
                tenant: 0,
                workload: "calls",
                result: Word::Int(610),
                instructions: 1234,
                slices: 5,
                matches_sequential: true,
            }],
            rounds: 6,
            protocol: Protocol::new(3),
        };
        let j = report_to_json(&r);
        assert!(j.contains("\"speedup\": 100.000"));
        assert!(j.contains("\"target_10x_met\": true"));
        assert!(j.contains("\"roundrobin_matches\": true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
