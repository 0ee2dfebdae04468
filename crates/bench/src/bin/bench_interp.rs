//! Interpreter wall-clock bench: emits `BENCH_interp.json`.
//!
//! ```sh
//! cargo run --release --bin bench_interp            # writes BENCH_interp.json
//! cargo run --release --bin bench_interp -- out.json
//! ```
//!
//! Compares the stepwise reference loop against the threaded hot loop, in
//! wall ns per simulated instruction; `CycleStats` are asserted identical
//! across loops. See `com_bench::interp` for the measurement and
//! `com_bench::harness` for the paired-round protocol.

use com_bench::harness::{write_artifact, Args, Protocol};
use com_bench::interp::{interp_rows, rows_to_json};
use com_bench::print_table;

fn main() {
    let out_path = Args::from_env(&[]).output("BENCH_interp.json");
    let repeats = 3;
    println!("interpreter bench — {repeats} paired rounds per workload, median speedup kept");

    let rows = interp_rows(repeats, com_workloads::MAX_STEPS)
        .unwrap_or_else(|e| panic!("bench workload failed: {e}"));

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}", r.baseline.instructions),
                format!("{:.1}", r.baseline.ns_per_instr()),
                format!("{:.1}", r.threaded.ns_per_instr()),
                format!("{:.2}x", r.speedup()),
                format!("{:.0}k/s", r.threaded.instr_per_sec() / 1e3),
            ]
        })
        .collect();
    print_table(
        "Interpreter wall-clock (baseline = stepwise loop)",
        &[
            "workload",
            "instrs",
            "base ns/instr",
            "threaded ns/instr",
            "speedup",
            "threaded rate",
        ],
        &table,
    );

    write_artifact(&out_path, &rows_to_json(&rows, Protocol::new(repeats)));
}
