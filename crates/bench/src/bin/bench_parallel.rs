//! Parallel-executor bench: emits `BENCH_parallel.json`.
//!
//! ```sh
//! cargo run --release --bin bench_parallel                 # writes BENCH_parallel.json
//! cargo run --release --bin bench_parallel -- out.json
//! cargo run --release --bin bench_parallel -- out.json --tenants 32 --workers 1,2,4,8 --repeats 5
//! ```
//!
//! Compares drain throughput at 4 workers against 1 (bar: ≥2×, flagged
//! `host_limited` on fewer cores), with every tenant bit-identical to
//! solo at every worker count. See `com_bench::parallel` for the
//! measurement and `com_bench::harness` for the paired-round protocol.

use com_bench::harness::{write_artifact, Args};
use com_bench::parallel::{report, report_to_json, TENANTS, WORKER_COUNTS};
use com_bench::print_table;

fn main() {
    let args = Args::from_env(&["--tenants n", "--workers a,b,c", "--repeats n"]);
    let out_path = args.output("BENCH_parallel.json");
    let tenants: usize = args.value("--tenants", TENANTS);
    let workers: Vec<usize> = args.list("--workers", WORKER_COUNTS.to_vec());
    let repeats: u32 = args.value("--repeats", 5);
    println!(
        "parallel bench — {tenants} tenants over workers {workers:?}, {repeats} paired rounds, median kept"
    );

    let r =
        report(tenants, &workers, repeats).unwrap_or_else(|e| panic!("parallel bench failed: {e}"));

    let table: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                format!("{}", row.workers),
                format!("{}", row.wall_ns),
                format!("{}", row.instructions),
                format!("{:.1}", row.throughput),
                format!("{:.2}x", row.speedup_vs_1),
                format!("{}", row.migrations),
            ]
        })
        .collect();
    print_table(
        "Aggregate drain throughput (median round)",
        &[
            "workers",
            "wall ns",
            "instructions",
            "instr/us",
            "speedup",
            "migrations",
        ],
        &table,
    );

    println!(
        "\nfidelity: {} tenants x {} worker counts all bit-identical to solo: {}",
        r.tenants,
        r.rows.len(),
        r.all_match,
    );
    println!(
        "scaling: {:.2}x at {} workers on a {}-core host {}",
        r.headline_speedup(),
        r.headline_workers(),
        r.protocol.host_cores,
        if r.target_met() {
            "(target ≥2x: MET)"
        } else if r.host_limited() {
            "(target ≥2x: HOST-LIMITED — fewer cores than workers caps wall-clock parallelism)"
        } else {
            "(target ≥2x: MISSED)"
        }
    );

    write_artifact(&out_path, &report_to_json(&r));
}
