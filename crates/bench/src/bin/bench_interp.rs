//! Interpreter wall-clock bench: emits `BENCH_interp.json`.
//!
//! ```sh
//! cargo run --release --bin bench_interp            # writes BENCH_interp.json
//! cargo run --release --bin bench_interp -- out.json
//! ```
//!
//! Measures nanoseconds per simulated instruction for the stepwise
//! reference loop and the threaded hot loop (decode-time operand
//! resolution + batched cycle accounting), per workload, both on the
//! default machine configuration. The simulated `CycleStats` are
//! semantics and identical across loops; only wall clock differs.

use com_bench::interp::{interp_rows, rows_to_json};
use com_bench::print_table;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".to_string());
    let repeats = 3;
    println!("interpreter bench — {repeats} repeats per loop, best kept");

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

    let json = rows_to_json(&rows);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
