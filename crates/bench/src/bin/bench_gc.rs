//! Garbage-collection bench: emits `BENCH_gc.json`.
//!
//! ```sh
//! cargo run --release --bin bench_gc                     # writes BENCH_gc.json
//! cargo run --release --bin bench_gc -- out.json
//! cargo run --release --bin bench_gc -- out.json --sizes 60,120 --repeats 1
//! ```
//!
//! Compares full-only against generational collection on `churn`; bar:
//! ≥2× fewer words scanned per word freed, with `run`/`run_stepwise`
//! `CycleStats` bit-identical. See `com_bench::gc` for the measurement
//! and `com_bench::harness` for the paired-round protocol.

use com_bench::gc::{gc_rows, rows_to_json, GcRow};
use com_bench::harness::{write_artifact, Args, Protocol};
use com_bench::print_table;

fn main() {
    let args = Args::from_env(&["--sizes a,b,c", "--repeats n"]);
    let out_path = args.output("BENCH_gc.json");
    let sizes: Vec<i64> = args.list("--sizes", vec![120, 240, 480]);
    let repeats: u32 = args.value("--repeats", 3);
    println!("gc bench — sizes {sizes:?}, {repeats} paired rounds, median kept");

    let rows: Vec<GcRow> =
        gc_rows(&sizes, repeats).unwrap_or_else(|e| panic!("gc bench failed: {e}"));

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.size),
                format!("{}", r.live_words),
                format!("{:.1}", r.full.scanned_per_freed()),
                format!("{:.1}", r.generational.scanned_per_freed()),
                format!("{:.0}", r.full.scanned_per_collection()),
                format!("{:.0}", r.generational.scanned_per_collection()),
                format!("{:.2}x", r.scan_efficiency()),
            ]
        })
        .collect();
    print_table(
        "GC scanning cost (full mark-sweep vs generational)",
        &[
            "size",
            "live words",
            "full scan/freed",
            "gen scan/freed",
            "full scan/gc",
            "gen scan/gc",
            "efficiency",
        ],
        &table,
    );

    write_artifact(&out_path, &rows_to_json(&rows, Protocol::new(repeats)));

    for r in &rows {
        let e = r.scan_efficiency();
        println!(
            "size {}: {e:.2}x {}",
            r.size,
            if e >= 2.0 {
                "(target ≥2x: MET)"
            } else {
                "(target ≥2x: MISSED)"
            }
        );
    }
}
