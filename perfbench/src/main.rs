//! The benchmark command:
//!
//! ```text
//! perfbench --workload <coldstart|interp|serve> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-oracle            # print oracle.txt for this build
//! perfbench --sweep <r1,r2,...> --seconds <s>  # serve latency per offered rate
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is a report with host metadata and the workload's own
//! figures. Exits 1 on any wrong answer or fidelity mismatch, 2 on bad
//! arguments.

use perfbench::{coldstart, interp, json_number, oracle, programs, serve, Metrics, Plan, Run};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload <coldstart|interp|serve> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       perfbench --record-oracle");
    eprintln!("       perfbench --sweep <rate,...> [--seconds <s>] [--seed <n>]");
    ExitCode::from(2)
}

/// The commit the checkout was made from, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn report(workload: &str, plan: &Plan, seconds: f64, run: &Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host = Metrics::default();
    host.put("serve.rate_low_rps", serve::RATE_LOW, "1/s");
    host.put("serve.rate_high_rps", serve::RATE_HIGH, "1/s");
    host.put("serve.p99_limit_us", serve::P99_LIMIT_US, "us");
    host.put("serve.workers", serve::workers() as f64, "count");
    let failed_share = perfbench::stats::ratio(run.failed as f64, run.attempted as f64);
    format!(
        "{{\"report\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"calibration\": {}, \"failed_share\": {}, \"wrong\": {:?}, \"detail\": {}}}}}",
        plan.seed,
        json_number(seconds),
        u8::from(plan.trace),
        commit(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        host.to_json(),
        json_number(failed_share),
        run.wrong,
        run.detail.to_json(),
    )
}

fn record_oracle() -> ExitCode {
    println!("# Fresh-session result and CycleStats of every shipped program.");
    println!("# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-oracle");
    for w in com_workloads::all() {
        let run = programs::cold(&[w.source], &mut perfbench::trace::Tracer::new(false), 0)
            .and_then(|(mut s, _)| {
                programs::call(
                    &mut s,
                    w.entry,
                    w.size,
                    &mut perfbench::trace::Tracer::new(false),
                    "core.first_call",
                    0,
                )
            });
        match run {
            Ok(call) => println!(
                "{}",
                oracle::Observation::new(w.name, call.result, &call.delta).to_line()
            ),
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn sweep(rates: &str, seed: u64, seconds: f64) -> ExitCode {
    let programs = com_workloads::all();
    let mut tracer = perfbench::trace::Tracer::new(false);
    let served = match serve::start(&programs, &mut tracer) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut run = Run::default();
    for (k, r) in rates
        .split(',')
        .filter_map(|r| r.parse::<f64>().ok())
        .enumerate()
    {
        let arrivals = serve::schedule(seed, k as u64, r, Duration::from_secs_f64(seconds));
        let ph = serve::phase(
            &served.server,
            &arrivals,
            r,
            &programs,
            &mut tracer,
            0,
            &mut run,
        );
        println!(
            "rate {r:>8.1}  n {:>6}  p50 {:>9.1}us  p99 {:>9.1}us  lag_p99 {:>8.1}us  queued_max {:>5}  grew {}  meets {}",
            ph.latency_us.len(),
            ph.latency(0.5),
            ph.latency(0.99),
            perfbench::stats::percentile(&ph.lag_us, 0.99).unwrap_or(0.0),
            ph.queued.iter().copied().fold(0.0, f64::max),
            ph.backlog_grew(),
            ph.meets_limit(),
        );
    }
    served.server.drain(Duration::from_secs(30));
    if run.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("wrong: {:?}", run.wrong);
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut rates) = (1u64, 10.0f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-oracle" {
            return record_oracle();
        }
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(),
            },
            "--sweep" => rates = Some(value.clone()),
            _ => return usage(),
        }
    }
    if let Some(rates) = rates {
        return sweep(&rates, seed, seconds);
    }
    let Some(workload) = workload else {
        return usage();
    };
    let plan = Plan {
        seed,
        measure: Duration::from_secs_f64(seconds),
        trace,
    };
    let mut run = match workload.as_str() {
        "coldstart" => coldstart::run(plan),
        "interp" => interp::run(plan),
        "serve" => serve::run(plan),
        _ => return usage(),
    };
    let expected: Vec<(String, &str)> = if trace {
        perfbench::per_layer_names()
    } else {
        perfbench::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let correct = run.wrong.is_empty();
    if correct {
        for (name, unit) in &expected {
            let found = run.metrics.0.iter().find(|m| &m.name == name);
            if found.map(|m| m.unit) != Some(unit) {
                eprintln!("metric {name} ({unit}) missing from the {workload} run");
                return ExitCode::FAILURE;
            }
        }
        let order: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
        run.metrics
            .0
            .sort_by_key(|m| order.iter().position(|n| *n == m.name));
    }
    println!("{}", report(&workload, &plan, seconds, &run));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        run.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for w in &run.wrong {
            eprintln!("wrong: {w}");
        }
        ExitCode::FAILURE
    }
}
