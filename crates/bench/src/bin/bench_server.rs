//! Service-runtime bench: emits `BENCH_server.json`.
//!
//! ```sh
//! cargo run --release --bin bench_server                  # writes BENCH_server.json
//! cargo run --release --bin bench_server -- out.json
//! cargo run --release --bin bench_server -- out.json --tenants 1000 --workers 4 --repeats 5
//! ```
//!
//! Compares p99 latency fault-free against a seeded 1% fault plan on the
//! same schedule; the bar, asserted here, is
//! `p99_with_faults ≤ 2 × p99_without`. See `com_bench::server` for the
//! measurement and `com_bench::harness` for the paired-round protocol.

use com_bench::harness::{write_artifact, Args};
use com_bench::print_table;
use com_bench::server::{report, report_to_json, REQUESTS_PER_TENANT, TENANTS, WORKERS};

fn main() {
    let args = Args::from_env(&["--tenants n", "--workers n", "--repeats n"]);
    let out_path = args.output("BENCH_server.json");
    let tenants: usize = args.value("--tenants", TENANTS);
    let workers: usize = args.value("--workers", WORKERS);
    let repeats: u32 = args.value("--repeats", 5);
    println!(
        "server bench — {tenants} tenants x {} requests over {workers} workers, {repeats} paired rounds, median p99-ratio kept",
        REQUESTS_PER_TENANT,
    );

    let r =
        report(tenants, workers, repeats).unwrap_or_else(|e| panic!("server bench failed: {e}"));

    let table: Vec<Vec<String>> = [&r.without, &r.with_faults]
        .iter()
        .map(|p| {
            vec![
                if p.faults { "1%" } else { "none" }.to_string(),
                format!("{:.0}", p.req_per_s),
                format!("{:.0}", p.p50_us),
                format!("{:.0}", p.p99_us),
                format!("{}", p.completed),
                format!("{}", p.failed),
                format!("{}", p.retries),
                format!("{}", p.faults_injected),
                format!("{}", p.max_queued),
            ]
        })
        .collect();
    print_table(
        "Sustained service latency (median round)",
        &[
            "faults",
            "req/s",
            "p50 us",
            "p99 us",
            "completed",
            "failed",
            "retries",
            "injected",
            "max queued",
        ],
        &table,
    );

    println!(
        "\ntail latency: p99 {:.0}us fault-free vs {:.0}us at 1% faults = {:.2}x on a {}-core host {}",
        r.without.p99_us,
        r.with_faults.p99_us,
        r.p99_ratio(),
        r.protocol.host_cores,
        if r.target_met() {
            "(target ≤2x: MET)"
        } else {
            "(target ≤2x: MISSED)"
        }
    );
    if r.host_limited() {
        println!(
            "note: host has fewer cores than workers; absolute throughput is time-sliced, the p99 ratio remains comparable"
        );
    }

    write_artifact(&out_path, &report_to_json(&r));
    assert!(
        r.target_met(),
        "acceptance: p99 with faults must stay within 2x of fault-free (got {:.2}x)",
        r.p99_ratio()
    );
}
