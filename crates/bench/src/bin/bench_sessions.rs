//! Multi-tenant session bench: emits `BENCH_sessions.json`.
//!
//! ```sh
//! cargo run --release --bin bench_sessions                 # writes BENCH_sessions.json
//! cargo run --release --bin bench_sessions -- out.json
//! cargo run --release --bin bench_sessions -- out.json --sessions 16 --repeats 5
//! ```
//!
//! Compares shared-image `session()` spin-up against a fresh compile +
//! load (bar: ≥10× cheaper), and round-robin tenants bit-identical to
//! sequential runs. See `com_bench::sessions` for the measurement and
//! `com_bench::harness` for the paired-round protocol.

use com_bench::harness::{write_artifact, Args};
use com_bench::print_table;
use com_bench::sessions::{report, report_to_json};

fn main() {
    let args = Args::from_env(&["--sessions n", "--repeats n"]);
    let out_path = args.output("BENCH_sessions.json");
    let sessions: usize = args.value("--sessions", 16);
    let repeats: u32 = args.value("--repeats", 5);
    println!("sessions bench — {sessions} tenants, {repeats} paired spin-up rounds, median kept");

    let r = report(sessions, repeats).unwrap_or_else(|e| panic!("sessions bench failed: {e}"));

    println!(
        "\nspin-up: fresh compile+load {} ns, shared-image session() {} ns — {:.1}x {}",
        r.spinup.fresh_ns,
        r.spinup.session_ns,
        r.spinup.speedup(),
        if r.spinup.speedup() >= 10.0 {
            "(target ≥10x: MET)"
        } else {
            "(target ≥10x: MISSED)"
        }
    );

    let table: Vec<Vec<String>> = r
        .tenants
        .iter()
        .map(|t| {
            vec![
                format!("{}", t.tenant),
                t.workload.to_string(),
                format!("{}", t.result),
                format!("{}", t.instructions),
                format!("{}", t.slices),
                if t.matches_sequential { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "{}-session round-robin ({} rounds) vs sequential",
            r.sessions, r.rounds
        ),
        &[
            "tenant",
            "workload",
            "result",
            "instructions",
            "slices",
            "bit-identical",
        ],
        &table,
    );
    println!(
        "\nround-robin fidelity: {}",
        if r.all_match() {
            "every tenant bit-identical to its sequential run"
        } else {
            "DIVERGENCE DETECTED"
        }
    );

    write_artifact(&out_path, &report_to_json(&r));
    assert!(r.all_match(), "round-robin diverged from sequential");
}
