//! The repository benchmark: three workloads (`coldstart`, `interp`,
//! `serve`) driven only through public entry points, with end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//! See `README.md` beside this crate for why each workload exists and
//! which layer metric moves which end-to-end metric.

pub mod coldstart;
pub mod counters;
pub mod interp;
pub mod oracle;
pub mod programs;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use counters::Counters;
use std::time::Duration;

/// The shipped programs, in `com_workloads::all()` order; per-program
/// metric names use these.
pub const PROGRAMS: [&str; 11] = [
    "sort",
    "trees",
    "dispatch",
    "arith",
    "collections",
    "image",
    "closures",
    "churn",
    "dnu_proxy",
    "calls",
    "scheduler",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// Share of a run's timing windows the `serve` capacity is taken from:
/// the fastest tenth (see [`stats::Windows`]).
pub const FAST_SHARE: f64 = 0.1;

/// Share of each program's operations the closed loops' (`coldstart`,
/// `interp`) p50 and rate are taken from: its fastest 2%. Every
/// operation on a program does nearly the same work, so they differ
/// mostly by how the host let them run, and the host's fast moments are
/// often shorter than a round of the 11 programs (see `README.md`).
pub const FAST_CALL_SHARE: f64 = 0.02;

/// Consecutive stretches a closed loop's operations are cut into for its
/// p99, which is the median stretch's: a few slow stretches then do not
/// set the tail of the whole run.
pub const STRETCHES: usize = 10;

/// Share of a traced run measured with tracing off first, so the run can
/// report its own tracing overhead.
pub const UNTRACED_SHARE: f64 = 0.4;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_us_p50", "us"),
    ("latency_us_p99", "us"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics every traced run prints, with units.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("stc.compile_us", "us"),
        ("stc.code_words", "count"),
        ("verify.verify_us", "us"),
        ("core.prepare_us", "us"),
        ("vm.session_us", "us"),
        ("core.first_call_us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in PROGRAMS {
        names.push((format!("core.call_ns_per_instr.{p}"), "ns"));
    }
    for (n, u) in [
        ("core.instructions", "count"),
        ("obj.itlb_hit_ratio", "ratio"),
        ("obj.itlb_hits", "count"),
        ("obj.itlb_accesses", "count"),
        ("core.full_lookups", "count"),
        ("cache.icache_hit_ratio", "ratio"),
        ("cache.icache_hits", "count"),
        ("cache.icache_accesses", "count"),
        ("core.ctxcache.directory_hit_ratio", "ratio"),
        ("core.ctxcache.directory_hits", "count"),
        ("core.ctxcache.directory_lookups", "count"),
        ("core.ctxcache.faults", "count"),
        ("core.ctxcache.copybacks", "count"),
        ("mem.gc.minor_collections", "count"),
        ("mem.gc.full_collections", "count"),
        ("mem.gc.scanned_per_freed", "ratio"),
        ("mem.gc.words_scanned", "count"),
        ("mem.gc.words_freed", "count"),
        ("core.soft_traps", "count"),
        ("vm.server.submit_us_p99", "us"),
        ("vm.server.queued_p99", "count"),
        ("vm.server.max_queued", "count"),
        ("vm.server.instr_per_request", "count"),
        ("vm.server.retries", "count"),
        ("vm.server.shed", "count"),
        ("vm.server.deadline_exceeded", "count"),
        ("serve.gen_lag_us_p99", "us"),
        ("self_us.bench", "us"),
        ("self_us.stc", "us"),
        ("self_us.verify", "us"),
        ("self_us.core", "us"),
        ("self_us.vm", "us"),
        ("trace.overhead_share", "ratio"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name = value unit` (non-finite values are recorded as 0).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// As a JSON object `{name: {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A float as JSON, with every digit Rust's shortest round-trip form
/// keeps (non-finite values, which JSON cannot hold, as 0).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that ended in an error, were refused or were shed.
    pub failed: u64,
    /// Wrong answers and fidelity mismatches; any makes the run incorrect.
    pub wrong: Vec<String>,
    /// The result line's metrics: end-to-end untraced, per-layer traced.
    pub metrics: Metrics,
    /// Workload-specific figures under their own names, reported beside
    /// the result line's metrics.
    pub detail: Metrics,
}

impl Run {
    /// Records a wrong answer (kept to the first few).
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 8 {
            self.wrong.push(what);
        }
    }
}

/// How long one run measures and whether it traces.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload seed.
    pub seed: u64,
    /// Measured time.
    pub measure: Duration,
    /// Traced run.
    pub trace: bool,
}

/// The host's memory high-water mark in MiB (`VmHWM`), or 0 when the
/// platform does not report one.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the per-layer counter metrics of `c`, each ratio with its base.
pub fn put_counters(m: &mut Metrics, c: &Counters) {
    use stats::ratio;
    let f = |x: u64| x as f64;
    m.put("core.instructions", f(c.instructions), "count");
    m.put(
        "obj.itlb_hit_ratio",
        ratio(f(c.itlb_hits), f(c.itlb_accesses)),
        "ratio",
    );
    m.put("obj.itlb_hits", f(c.itlb_hits), "count");
    m.put("obj.itlb_accesses", f(c.itlb_accesses), "count");
    m.put("core.full_lookups", f(c.full_lookups), "count");
    m.put(
        "cache.icache_hit_ratio",
        ratio(f(c.icache_hits), f(c.icache_accesses)),
        "ratio",
    );
    m.put("cache.icache_hits", f(c.icache_hits), "count");
    m.put("cache.icache_accesses", f(c.icache_accesses), "count");
    m.put(
        "core.ctxcache.directory_hit_ratio",
        ratio(f(c.dir_hits), f(c.dir_lookups)),
        "ratio",
    );
    m.put("core.ctxcache.directory_hits", f(c.dir_hits), "count");
    m.put("core.ctxcache.directory_lookups", f(c.dir_lookups), "count");
    m.put("core.ctxcache.faults", f(c.ctx_faults), "count");
    m.put("core.ctxcache.copybacks", f(c.ctx_copybacks), "count");
    m.put("mem.gc.minor_collections", f(c.gc_minor), "count");
    m.put("mem.gc.full_collections", f(c.gc_full), "count");
    m.put(
        "mem.gc.scanned_per_freed",
        ratio(f(c.gc_scanned), f(c.gc_freed)),
        "ratio",
    );
    m.put("mem.gc.words_scanned", f(c.gc_scanned), "count");
    m.put("mem.gc.words_freed", f(c.gc_freed), "count");
    m.put("core.soft_traps", f(c.soft_traps), "count");
}

/// Records mean self time per operation for every layer the spans of
/// operations (not set-up) cover.
pub fn put_self_times(m: &mut Metrics, tracer: &trace::Tracer, ops: u64) {
    let by_layer = tracer.self_ns_by_layer(|s| s.op != 0);
    for layer in ["bench", "stc", "verify", "core", "vm"] {
        let ns = by_layer.get(layer).copied().unwrap_or(0) as f64;
        m.put(
            format!("self_us.{layer}"),
            stats::ratio(ns / 1e3, ops as f64),
            "us",
        );
    }
}

/// Records as zero the server's per-layer metrics, for a workload that
/// runs no server.
pub fn put_no_server(m: &mut Metrics) {
    for (name, unit) in per_layer_names() {
        if name.starts_with("vm.server.") || name.starts_with("serve.") {
            m.put(name, 0.0, unit);
        }
    }
}

/// Records a closed loop's `latency_us_p50`, `latency_us_p99` and
/// `ops_per_s` from each operation's latency: p50 and rate over the
/// fastest [`FAST_CALL_SHARE`] of each program's operations
/// (`by_program`), p99 as the median of [`STRETCHES`] consecutive
/// stretches' p99 (`in_order`). Beside them, in `d`, the whole run's p50
/// and rate and how many samples there were and were kept.
pub fn put_closed_loop(
    m: &mut Metrics,
    d: &mut Metrics,
    workload: &str,
    in_order: &[f64],
    by_program: &[Vec<f64>],
    seconds: f64,
) -> ClosedLoop {
    let kept = stats::fastest_of_each(by_program, FAST_CALL_SHARE);
    let kept_seconds = kept.iter().sum::<f64>() / 1e6;
    let all = stats::sorted(in_order.to_vec());
    let at = |xs: &[f64], p| stats::percentile(xs, p).unwrap_or(0.0);
    let p50 = at(&kept, 0.5);
    let p99 = stats::median_of_stretches(in_order, STRETCHES, 0.99);
    m.put("latency_us_p50", p50, "us");
    m.put("latency_us_p99", p99, "us");
    m.put(
        "ops_per_s",
        stats::ratio(kept.len() as f64, kept_seconds),
        "1/s",
    );
    d.put(
        format!("{workload}.samples_kept"),
        kept.len() as f64,
        "count",
    );
    d.put(format!("{workload}.samples"), all.len() as f64, "count");
    d.put(
        format!("{workload}.latency_us_p50.all"),
        at(&all, 0.5),
        "us",
    );
    d.put(
        format!("{workload}.ops_per_s.all"),
        stats::ratio(all.len() as f64, seconds),
        "1/s",
    );
    ClosedLoop {
        kept: kept.len(),
        kept_seconds,
        p50,
        p99,
    }
}

/// What [`put_closed_loop`] recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoop {
    /// Operations kept.
    pub kept: usize,
    /// Their total latency, seconds.
    pub kept_seconds: f64,
    /// `latency_us_p50`.
    pub p50: f64,
    /// `latency_us_p99`.
    pub p99: f64,
}

/// `(traced − untraced) / untraced` of a latency.
pub fn overhead_share(untraced: f64, traced: f64) -> f64 {
    stats::ratio(traced - untraced, untraced)
}

/// Where a traced run writes its spans: under the build directory
/// (`CARGO_TARGET_DIR`, else `perfbench/target`), inside the checkout.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::PathBuf::from("perfbench/target"),
        std::path::PathBuf::from,
    );
    base.join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// Writes the spans out at the end of a traced run; a failure to write
/// is reported on standard error and does not fail the run.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = trace_path(workload, seed);
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let quoted = |n: &str| format!("\"name\": \"{n}\"");
        for (n, _) in END_TO_END {
            assert!(text.contains(&quoted(n)), "{n}");
        }
        for (n, _) in per_layer_names() {
            assert!(text.contains(&quoted(&n)), "{n}");
        }
        // `serve` runs by hand but is not gated (see `README.md`).
        for w in ["coldstart", "interp"] {
            assert!(text.contains(&quoted(w)), "{w}");
        }
        let listed = text.matches("\"name\":").count();
        assert_eq!(listed, 2 + END_TO_END.len() + per_layer_names().len());
        let programs: Vec<&str> = com_workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(programs, PROGRAMS);
    }

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(2.0), "2");
        assert_eq!(json_number(0.123456789), "0.123456789");
        assert_eq!(json_number(f64::NAN), "0");
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        assert_eq!(m.to_json(), "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}");
    }
}
