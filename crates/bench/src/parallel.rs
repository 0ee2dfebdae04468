//! The parallel-executor bench pipeline (`BENCH_parallel.json`).
//!
//! Measures the two claims the [`com_vm::ParallelExecutor`] makes:
//!
//! 1. **Fidelity** — draining N mixed tenants across a worker pool must
//!    leave every tenant's result *and*
//!    [`CycleStats`](com_core::CycleStats) bit-identical to solo
//!    execution, at every worker count. Isolation is architectural,
//!    so this is asserted exactly, not approximately — and it is what
//!    makes the throughput comparison meaningful: every configuration
//!    retires the *same* total instruction stream.
//! 2. **Scaling** — aggregate throughput (retired instructions per
//!    wall-second over the whole drain) at 4 workers must be ≥ 2× the
//!    1-worker figure. Wall-clock scaling needs real cores: the JSON
//!    records `host_cores` and flags `host_limited` when the host has
//!    fewer cores than the headline worker count (a 1-core container
//!    caps the honest speedup at ~1×; 2 cores cap 4 workers at 2×), so
//!    a hardware cap is distinguishable from a missed target on capable
//!    hardware.
//!
//! Wall clock follows the [paired-round protocol](crate::harness) with one
//! arm per worker count, keyed on the headline speedup. Each arm boots and
//! starts the full tenant set untimed and times only the drain. Speedups
//! divide by the same round's 1-worker drain, whichever order the round
//! ran its arms in.

use std::time::Instant;

use com_vm::{ParallelExecutor, VmError};
use com_workloads::{self as workloads, Workload};

use crate::harness::{artifact, paired_rounds, Protocol, Tenants};

/// Instruction slice per resume (same cadence as the sessions bench).
pub const SLICE_STEPS: u64 = 5_000;

/// Default tenants per drain.
pub const TENANTS: usize = 32;

/// Default worker counts measured, in order (1 must come first: it is
/// the denominator of every speedup).
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The workload set tenants cycle through — varied instruction mixes:
/// call-heavy, pure arithmetic, megamorphic dispatch, allocation +
/// pointer chasing, polymorphic compare-and-swap sorting.
pub fn tenant_workloads() -> Vec<Workload> {
    vec![
        workloads::CALLS,
        workloads::ARITH,
        workloads::DISPATCH,
        workloads::TREES,
        workloads::SORT,
    ]
}

/// One worker-count configuration of the median round.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Wall nanoseconds to drain the whole tenant set.
    pub wall_ns: u64,
    /// Total instructions retired across tenants (identical at every
    /// worker count — asserted).
    pub instructions: u64,
    /// Aggregate throughput in retired instructions per microsecond.
    pub throughput: f64,
    /// Speedup over the same round's 1-worker drain.
    pub speedup_vs_1: f64,
    /// Tenant slices that resumed on a different worker than the
    /// previous slice (cross-thread session movement, in production).
    pub migrations: u64,
}

/// `row`'s speedup over the 1-worker drain `one`.
fn speedup(one: &ScalingRow, row: &ScalingRow) -> f64 {
    one.wall_ns.max(1) as f64 / row.wall_ns.max(1) as f64
}

/// The row the acceptance bar reads: 4 workers when measured, else the
/// highest worker count. Every consumer of "the headline number" (the
/// report summary, the round-median selection, the binary's printout)
/// goes through here.
pub fn headline_row(rows: &[ScalingRow]) -> Option<&ScalingRow> {
    rows.iter().find(|r| r.workers == 4).or(rows.last())
}

/// The whole pipeline's output.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Median round, one row per worker count.
    pub rows: Vec<ScalingRow>,
    /// Tenants per drain.
    pub tenants: usize,
    /// Paired rounds timed and the host's cores.
    pub protocol: Protocol,
    /// Whether every tenant, at every worker count, matched its solo
    /// baseline bit-for-bit (result and `CycleStats`).
    pub all_match: bool,
}

impl ParallelReport {
    /// The 4-worker (or highest-measured) speedup over 1 worker.
    pub fn headline_speedup(&self) -> f64 {
        headline_row(&self.rows).map_or(0.0, |r| r.speedup_vs_1)
    }

    /// The worker count the headline speedup was measured at.
    pub fn headline_workers(&self) -> usize {
        headline_row(&self.rows).map_or(4, |r| r.workers)
    }

    /// Whether the ≥2× bar at 4 workers is met.
    pub fn target_met(&self) -> bool {
        self.headline_speedup() >= 2.0
    }

    /// Whether the host cannot express the headline configuration's
    /// parallelism: fewer cores than headline workers caps the ideal
    /// speedup at `host_cores`× (1 core → ~1×; 2 cores → exactly 2× with
    /// zero overhead, so the ≥2× bar is unreachable in practice). On
    /// such hosts an unmet target is a hardware cap, not a regression.
    pub fn host_limited(&self) -> bool {
        self.protocol.host_cores < self.headline_workers()
    }
}

/// One timed drain at one worker count; returns the row (speedup filled
/// in by the caller) after asserting every tenant against its baseline.
fn drain(workers: usize, tenants: usize, set: &Tenants) -> Result<ScalingRow, VmError> {
    // Boot stays outside the timed region: it is the sessions bench's
    // subject, not this one's.
    let sessions = set.started(tenants)?;
    let pool = ParallelExecutor::new(workers, SLICE_STEPS);
    let t0 = Instant::now();
    let runs = pool.run(sessions);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut instructions = 0u64;
    let mut migrations = 0u64;
    for (i, run) in runs.iter().enumerate() {
        let (expected_result, expected_stats) = set.solo(i);
        let w = set.workload(i);
        assert!(
            run.error.is_none(),
            "{} (tenant {i}) trapped at {workers} workers: {:?}",
            w.name,
            run.error
        );
        assert_eq!(
            run.result,
            Some(*expected_result),
            "{} (tenant {i}) result diverged at {workers} workers",
            w.name
        );
        let stats = run
            .session
            .last_run()
            .unwrap_or_else(|| panic!("tenant {i} has no run"))
            .stats;
        assert_eq!(
            &stats, expected_stats,
            "{} (tenant {i}) CycleStats diverged at {workers} workers",
            w.name
        );
        instructions += stats.instructions;
        migrations += run.migrations;
    }
    Ok(ScalingRow {
        workers,
        wall_ns,
        instructions,
        throughput: instructions as f64 / (wall_ns.max(1) as f64 / 1_000.0),
        speedup_vs_1: 0.0,
        migrations,
    })
}

/// Runs the whole pipeline: `repeats` paired rounds over the given
/// worker counts, keeping the round with the median headline speedup.
///
/// # Errors
///
/// Propagates compile, boot, and machine errors.
///
/// # Panics
///
/// Panics if any tenant's result or `CycleStats` diverges from its solo
/// baseline — fidelity is the precondition of the throughput numbers.
pub fn report(
    tenants: usize,
    worker_counts: &[usize],
    repeats: u32,
) -> Result<ParallelReport, VmError> {
    assert_eq!(
        worker_counts.first(),
        Some(&1),
        "worker counts must start at 1 (the speedup denominator)"
    );
    let set = Tenants::new(tenant_workloads())?;

    // Warm up: one small drain per worker count (thread spawn paths,
    // allocator, lazy statics).
    for &w in worker_counts {
        drain(w, set.workloads.len().min(tenants), &set)?;
    }

    let mut rows = paired_rounds(
        repeats,
        worker_counts.len(),
        |a| drain(worker_counts[a], tenants, &set),
        |r| headline_row(r).map_or(0.0, |h| speedup(&r[0], h)),
    )?;
    let one = rows[0];
    for row in &mut rows {
        row.speedup_vs_1 = speedup(&one, row);
        // The same work at every worker count — `drain`'s per-tenant
        // assertions guarantee it; double-check the totals.
        assert_eq!(
            row.instructions, one.instructions,
            "worker counts retired different instruction totals"
        );
    }
    Ok(ParallelReport {
        rows,
        tenants,
        protocol: Protocol::new(repeats),
        all_match: true, // divergence panics inside drain
    })
}

/// Renders the report as the machine-readable `BENCH_parallel.json`.
pub fn report_to_json(r: &ParallelReport) -> String {
    artifact(
        "parallel",
        r.protocol,
        |j| {
            let names: Vec<&str> = tenant_workloads().iter().map(|w| w.name).collect();
            let workers: Vec<usize> = r.rows.iter().map(|row| row.workers).collect();
            j.field("tenants", r.tenants)
                .field("slice_steps", SLICE_STEPS)
                .field("workloads", names)
                .field("worker_counts", workers);
        },
        |j| {
            j.key("unit").object(|j| {
                j.field("throughput", "retired instructions per wall-microsecond, aggregate over the whole drain; speedups are within-round ratios, median round kept");
            });
            j.key("rows").array(|j| {
                for row in &r.rows {
                    j.object(|j| {
                        j.field("workers", row.workers)
                            .field("wall_ns", row.wall_ns)
                            .field("instructions", row.instructions)
                            .field("throughput", row.throughput)
                            .field("speedup_vs_1", row.speedup_vs_1)
                            .field("migrations", row.migrations);
                    });
                }
            });
            j.key("equivalence").object(|j| {
                j.field("tenants", r.tenants)
                    .field("worker_counts_checked", r.rows.len())
                    .field("all_match", r.all_match);
            });
            j.key("summary").object(|j| {
                j.field("speedup_4w", r.headline_speedup())
                    .field("target_2x_met", r.target_met())
                    .field("host_cores", r.protocol.host_cores)
                    .field("host_limited", r.host_limited());
            });
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_drain_matches_baselines_at_every_worker_count() {
        // `drain` panics on any divergence, so running it IS the check.
        let set = Tenants::new(tenant_workloads()).unwrap();
        for workers in [1, 3] {
            let row = drain(workers, 7, &set).unwrap();
            assert_eq!(row.workers, workers);
            assert!(row.instructions > 0);
            assert!(row.wall_ns > 0);
        }
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let rows = vec![
            ScalingRow {
                workers: 1,
                wall_ns: 8_000_000,
                instructions: 4_000_000,
                throughput: 500.0,
                speedup_vs_1: 1.0,
                migrations: 0,
            },
            ScalingRow {
                workers: 4,
                wall_ns: 2_000_000,
                instructions: 4_000_000,
                throughput: 2000.0,
                speedup_vs_1: 4.0,
                migrations: 30,
            },
        ];
        let r = ParallelReport {
            rows,
            tenants: 32,
            protocol: Protocol {
                paired_rounds: 5,
                host_cores: 8,
            },
            all_match: true,
        };
        assert!(r.target_met());
        assert!(!r.host_limited());
        let j = report_to_json(&r);
        assert!(j.contains("\"speedup_4w\": 4.000"));
        assert!(j.contains("\"target_2x_met\": true"));
        assert!(j.contains("\"all_match\": true"));
        assert!(j.contains("\"host_cores\": 8"));
        assert!(j.contains(
            "\"worker_counts\": [\n      1,\n      4\n    ],\n    \"paired_rounds\": 5,"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
