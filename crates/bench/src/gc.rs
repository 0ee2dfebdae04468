//! The garbage-collection bench pipeline (`BENCH_gc.json`).
//!
//! Measures the §2.3 claim this repo's generational collector targets:
//! reclamation cost should be proportional to *garbage*, not to live-heap
//! size. The `churn` workload allocates a stream of short-lived scratch
//! arrays against a long-lived ballast whose size scales with the problem
//! size. Two machines run it at the same collection cadence:
//!
//! * **full** — every periodic collection is a full mark-sweep
//!   (`gc_full_interval = P`): each collection re-scans the whole live heap.
//! * **generational** — minor collections at the same cadence with an
//!   occasional full (`gc_minor_interval = P`, `gc_full_interval = 8P`):
//!   minor marks traverse only roots + pinned residents + remembered set
//!   + nursery.
//!
//! The headline metric is **words scanned per word reclaimed** — the
//! architectural cost of the collector per unit of useful work. The
//! acceptance bar: the generational configuration spends ≥2× fewer scanned
//! words per freed word, and its per-collection scan stays flat as the
//! live heap grows (sublinearity). Wall clock follows the
//! [paired-round protocol](crate::harness), keyed on the full-over-
//! generational wall ratio.
//!
//! Architectural integrity is asserted, not assumed: for every size the
//! generational configuration is run through both interpreter loops and
//! the full `CycleStats` must be bit-identical.

use std::time::Instant;

use com_core::{GcTotals, MachineConfig, MachineError, RunResult};
use com_workloads::{Workload, CHURN};

use crate::harness::{artifact, boot, geomean, paired_rounds, send, Protocol};

/// The shared collection cadence (prime, so collections land mid-burst).
pub const MINOR_INTERVAL: u64 = 1009;
/// Generational full collections every `MINOR_INTERVAL * FULL_FACTOR`.
pub const FULL_FACTOR: u64 = 8;

/// One configuration's collector work plus its wall time.
#[derive(Debug, Clone, Copy)]
pub struct GcMeasure {
    /// Collections run (minor + full).
    pub collections: u64,
    /// Minor collections among them.
    pub minor_collections: u64,
    /// Words traversed by marking, both generations.
    pub words_scanned: u64,
    /// Words of storage reclaimed.
    pub words_freed: u64,
    /// Wall nanoseconds for the send (median paired round).
    pub wall_ns: u64,
}

impl GcMeasure {
    fn new(t: GcTotals, wall_ns: u64) -> GcMeasure {
        GcMeasure {
            collections: t.full_collections + t.minor_collections,
            minor_collections: t.minor_collections,
            words_scanned: t.words_scanned(),
            words_freed: t.words_freed(),
            wall_ns,
        }
    }

    /// Words scanned per word reclaimed — the collector's unit cost.
    pub fn scanned_per_freed(&self) -> f64 {
        self.words_scanned as f64 / self.words_freed.max(1) as f64
    }

    /// Words scanned per collection (the sublinearity probe).
    pub fn scanned_per_collection(&self) -> f64 {
        self.words_scanned as f64 / self.collections.max(1) as f64
    }
}

/// Measurements for one churn problem size.
#[derive(Debug, Clone, Copy)]
pub struct GcRow {
    /// Problem size (iterations; ballast is `4 × size` words).
    pub size: i64,
    /// Live heap words at the end of the generational run.
    pub live_words: u64,
    /// Simulated instructions per send.
    pub instructions: u64,
    /// The full-collection-only configuration.
    pub full: GcMeasure,
    /// The generational configuration.
    pub generational: GcMeasure,
}

impl GcRow {
    /// How many times cheaper the generational collector's scanning is per
    /// reclaimed word (the ≥2× acceptance metric).
    pub fn scan_efficiency(&self) -> f64 {
        self.full.scanned_per_freed() / self.generational.scanned_per_freed().max(f64::MIN_POSITIVE)
    }
}

/// Closed-form expected answer of the churn workload for `n` iterations
/// (see the workload's doc comment).
pub fn churn_expected(n: i64) -> i64 {
    let acc_linear = n * (n + 1) / 2;
    let acc_cycle: i64 = (1..=n).map(|i| (i % 8) + 1).sum();
    let m = n / 10;
    let keep = 10 * m * (m + 1) / 2;
    acc_linear + acc_cycle + keep + n
}

/// The churn workload scaled to `size` iterations.
pub fn churn_at(size: i64) -> Workload {
    Workload {
        size,
        expected: churn_expected(size),
        ..CHURN
    }
}

fn full_config() -> MachineConfig {
    MachineConfig {
        gc_full_interval: Some(MINOR_INTERVAL),
        ..MachineConfig::default()
    }
}

fn generational_config() -> MachineConfig {
    MachineConfig::default().with_generational_gc(MINOR_INTERVAL, MINOR_INTERVAL * FULL_FACTOR)
}

/// Runs `w` once on a fresh machine, returning the result, the GC totals,
/// the final live-heap words and the wall time of the send.
fn run_once(
    w: &Workload,
    cfg: MachineConfig,
    stepwise: bool,
) -> Result<(RunResult, GcTotals, u64, u64), MachineError> {
    let mut m = boot(w, cfg)?;
    let t0 = Instant::now();
    let out = send(&mut m, w, stepwise, com_workloads::MAX_STEPS)?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let live = m.space().memory().buddy().allocated_words();
    Ok((out, m.gc_totals(), live, wall_ns))
}

/// Measures one churn size under both configurations with the
/// paired-round wall protocol, asserting the threaded and stepwise loops
/// stay bit-identical under the generational cadence.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if the workload miscompiles, fails its self-check, never
/// collects, or diverges between interpreter loops.
pub fn measure_size(size: i64, repeats: u32) -> Result<GcRow, MachineError> {
    let w = churn_at(size);

    // Architectural integrity: both loops, bit-identical CycleStats.
    let (fast, gen_totals, live_words, _) = run_once(&w, generational_config(), false)?;
    let (slow, slow_totals, _, _) = run_once(&w, generational_config(), true)?;
    assert_eq!(
        fast.stats, slow.stats,
        "CycleStats diverged between run and run_stepwise under gc_minor_interval (size {size})"
    );
    assert_eq!(gen_totals, slow_totals, "GC totals diverged between loops");
    let (full_out, full_totals, _, _) = run_once(&w, full_config(), false)?;
    assert!(
        full_totals.full_collections > 0 && gen_totals.minor_collections > 0,
        "collections must actually run at size {size}"
    );

    let configs = [full_config(), generational_config()];
    let round = paired_rounds(
        repeats,
        2,
        |a| run_once(&w, configs[a], false).map(|(.., ns)| ns),
        |r| r[0] as f64 / r[1].max(1) as f64,
    )?;

    Ok(GcRow {
        size,
        live_words,
        instructions: full_out.stats.instructions,
        full: GcMeasure::new(full_totals, round[0]),
        generational: GcMeasure::new(gen_totals, round[1]),
    })
}

/// Runs the full pipeline across `sizes`.
///
/// # Errors
///
/// Propagates machine errors.
pub fn gc_rows(sizes: &[i64], repeats: u32) -> Result<Vec<GcRow>, MachineError> {
    sizes.iter().map(|s| measure_size(*s, repeats)).collect()
}

/// Renders the rows as the machine-readable `BENCH_gc.json` document.
pub fn rows_to_json(rows: &[GcRow], protocol: Protocol) -> String {
    artifact(
        "gc",
        protocol,
        |j| {
            j.field("workload", "churn")
                .field("minor_interval", MINOR_INTERVAL)
                .field("full_factor", FULL_FACTOR);
        },
        |j| {
            j.key("unit").object(|j| {
                j.field(
                    "scanned_per_freed",
                    "mark-phase words scanned per word of storage reclaimed",
                )
                .field(
                    "scan_efficiency",
                    "full scanned_per_freed over generational scanned_per_freed",
                );
            });
            j.key("rows").array(|j| {
                for r in rows {
                    j.object(|j| {
                        j.field("size", r.size)
                            .field("live_words", r.live_words)
                            .field("instructions", r.instructions);
                        for (label, m) in [("full", r.full), ("generational", r.generational)] {
                            j.key(label).object(|j| {
                                j.field("collections", m.collections)
                                    .field("minor_collections", m.minor_collections)
                                    .field("words_scanned", m.words_scanned)
                                    .field("words_freed", m.words_freed)
                                    .field("scanned_per_freed", m.scanned_per_freed())
                                    .field("scanned_per_collection", m.scanned_per_collection())
                                    .field("wall_ns", m.wall_ns);
                            });
                        }
                        j.field("scan_efficiency", r.scan_efficiency());
                    });
                }
            });
            let geomean = geomean(rows.iter().map(GcRow::scan_efficiency));
            let met = rows.iter().all(|r| r.scan_efficiency() >= 2.0);
            j.key("summary").object(|j| {
                j.field("geomean_scan_efficiency", geomean)
                    .field("target_2x_met", met);
            });
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_expected_matches_the_shipped_workload() {
        assert_eq!(churn_expected(CHURN.size), CHURN.expected);
        // Spot checks of the closed form.
        assert_eq!(churn_expected(10), 55 + 41 + 10 + 10);
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let m = GcMeasure {
            collections: 4,
            minor_collections: 0,
            words_scanned: 4000,
            words_freed: 400,
            wall_ns: 1000,
        };
        let g = GcMeasure {
            collections: 4,
            minor_collections: 4,
            words_scanned: 800,
            words_freed: 400,
            wall_ns: 900,
        };
        let rows = vec![GcRow {
            size: 40,
            live_words: 1234,
            instructions: 5678,
            full: m,
            generational: g,
        }];
        let j = rows_to_json(&rows, Protocol::new(1));
        assert!(j.contains("\"scan_efficiency\": 5.000"));
        assert!(j.contains("\"target_2x_met\": true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn smoke_measure_tiny_size() {
        // End-to-end: collections run, loops agree, metrics are sane.
        let row = measure_size(60, 1).unwrap();
        assert!(row.generational.minor_collections > 0);
        assert!(row.full.words_freed > 0);
        assert!(row.generational.words_freed > 0);
    }
}
