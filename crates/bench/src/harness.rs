//! The harness every wall-clock bench pipeline runs on: the paired-round
//! driver, the latency percentile, the artifact writer, the workload runs
//! the pipelines time and the command-line parser of the bench binaries.
//!
//! # The paired-round protocol
//!
//! A pipeline compares two or more *arms*: two interpreter loops, two
//! collector cadences, fresh boot against `session()`, worker counts,
//! fault-free against faulted serving. Wall clock on a shared host drifts
//! (frequency scaling, neighbours), so the arms are never timed in separate
//! batches. Each of `repeats.max(1)` rounds runs every arm once, back to
//! back: even rounds in the given arm order and odd rounds in reverse, so no
//! arm always runs first. Each round yields one key, a within-round ratio
//! such as a speedup, in which the noise both arms share cancels. The
//! reported round is the one with the median key (the upper median for an
//! even count), with its arms in their given order. Every artifact records
//! the rounds timed (`paired_rounds`) and the host's cores (`host_cores`) in
//! its `protocol` object.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

use com_core::{CycleStats, Machine, MachineConfig, MachineError, RunResult};
use com_mem::Word;
use com_stc::{compile_com, CompileOptions};
use com_verify::JsonWriter;
use com_vm::{Session, Vm, VmError};
use com_workloads::{self as workloads, Workload};

/// Runs `repeats.max(1)` paired rounds of `arms` arms and returns the round
/// with the median `key`, its results in arm order (see the module docs).
/// `arm(i)` runs arm `i` once; `key` reads one round's results.
///
/// # Errors
///
/// The first error an arm returns.
pub(crate) fn paired_rounds<T, E>(
    repeats: u32,
    arms: usize,
    mut arm: impl FnMut(usize) -> Result<T, E>,
    key: impl Fn(&[T]) -> f64,
) -> Result<Vec<T>, E> {
    let mut rounds = Vec::new();
    for round in 0..repeats.max(1) {
        let mut results: Vec<Option<T>> = (0..arms).map(|_| None).collect();
        for i in 0..arms {
            let a = if round % 2 == 0 { i } else { arms - 1 - i };
            results[a] = Some(arm(a)?);
        }
        let results: Vec<T> = results.into_iter().flatten().collect();
        rounds.push((key(&results), results));
    }
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let median = rounds.len() / 2;
    Ok(rounds.swap_remove(median).1)
}

/// The nearest-rank `p` percentile of ascending `sorted` latencies, in
/// microseconds (0 when empty).
pub(crate) fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

/// Geometric mean of positive ratios (NaN, written `null`, when empty).
pub(crate) fn geomean(ratios: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = ratios.len() as f64;
    (ratios.map(f64::ln).sum::<f64>() / n).exp()
}

/// How a pipeline's artifact was measured: the keys the harness adds to
/// every `protocol` object.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    /// Paired rounds timed (`repeats.max(1)`).
    pub paired_rounds: u32,
    /// Cores the host exposes (`std::thread::available_parallelism`).
    pub host_cores: usize,
}

impl Protocol {
    /// The protocol of `repeats` paired rounds on this host.
    pub fn new(repeats: u32) -> Protocol {
        Protocol {
            paired_rounds: repeats.max(1),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Renders a `BENCH_<bench>.json` artifact: `bench`, `schema`, a `protocol`
/// object holding the pipeline's own keys (written by `keys`) followed by
/// `paired_rounds` and `host_cores`, then the members `body` writes.
/// Fractional numbers carry three decimals.
pub(crate) fn artifact(
    bench: &str,
    protocol: Protocol,
    keys: impl FnOnce(&mut JsonWriter),
    body: impl FnOnce(&mut JsonWriter),
) -> String {
    let mut j = JsonWriter::new(3);
    j.object(|j| {
        j.field("bench", bench).field("schema", 1);
        j.key("protocol").object(|j| {
            keys(j);
            j.field("paired_rounds", protocol.paired_rounds)
                .field("host_cores", protocol.host_cores);
        });
        body(j);
    });
    j.finish()
}

/// Writes an artifact to `path` and reports it; panics if the write fails.
pub fn write_artifact(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// A machine of `config` with workload `w`'s image loaded; panics if the
/// workload does not compile.
pub(crate) fn boot(w: &Workload, config: MachineConfig) -> Result<Machine, MachineError> {
    let image = compile_com(w.source, CompileOptions::default())
        .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));
    let mut m = Machine::new(config);
    m.load(&image)?;
    Ok(m)
}

/// Sends `w`'s entry selector on `m` through the stepwise or the threaded
/// loop, asserting the workload's self-check.
pub(crate) fn send(
    m: &mut Machine,
    w: &Workload,
    stepwise: bool,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    let sel = m
        .opcodes()
        .get(w.entry)
        .unwrap_or_else(|| panic!("entry {} not interned", w.entry));
    m.start_send(sel, Word::Int(w.size), &[])?;
    let out = if stepwise {
        m.run_stepwise(max_steps)?
    } else {
        m.run(max_steps)?
    };
    let context = format!(
        "{} (size {}, stepwise: {stepwise}) self-check failed",
        w.name, w.size
    );
    assert_eq!(out.result, Word::Int(w.expected), "{context}");
    Ok(out)
}

/// A mixed tenant set: tenant `i` runs workload `i % len` on that
/// workload's shared image, as a server would, and each workload's solo
/// run is the oracle its interleaved tenants must match bit for bit.
pub(crate) struct Tenants {
    pub(crate) workloads: Vec<Workload>,
    vms: Vec<Vm>,
    solo: Vec<(Word, CycleStats)>,
}

impl Tenants {
    /// Boots one image per workload and runs each workload solo,
    /// asserting its self-check.
    pub(crate) fn new(set: Vec<Workload>) -> Result<Tenants, VmError> {
        let vms: Vec<Vm> = set
            .iter()
            .map(|w| workloads::vm_for(w, MachineConfig::default(), CompileOptions::default()))
            .collect();
        let mut solo = Vec::new();
        for (w, vm) in set.iter().zip(&vms) {
            let out = workloads::run_on(w, &mut vm.session()?, workloads::MAX_STEPS)?;
            assert_eq!(
                out.result,
                Word::Int(w.expected),
                "{} failed its self-check solo",
                w.name
            );
            solo.push((out.result, out.stats));
        }
        Ok(Tenants {
            workloads: set,
            vms,
            solo,
        })
    }

    /// Tenant `i`'s workload.
    pub(crate) fn workload(&self, i: usize) -> &Workload {
        &self.workloads[i % self.workloads.len()]
    }

    /// The result and `CycleStats` of tenant `i`'s workload run solo.
    pub(crate) fn solo(&self, i: usize) -> &(Word, CycleStats) {
        &self.solo[i % self.solo.len()]
    }

    /// Boots tenants `0..n` and starts each one's workload.
    pub(crate) fn started(&self, n: usize) -> Result<Vec<Session>, VmError> {
        (0..n)
            .map(|i| {
                let mut s = self.vms[i % self.vms.len()].session()?;
                workloads::start_on(self.workload(i), &mut s)?;
                Ok(s)
            })
            .collect()
    }
}

/// A parsed command line: positional arguments plus the flags of a spec.
/// A spec entry is a flag, followed after a space by a placeholder when the
/// flag takes a value (`"--sizes a,b,c"`). A list value is comma-separated;
/// a repeated flag keeps each value.
#[derive(Debug)]
pub struct Args {
    /// The positional arguments, in order.
    pub positional: Vec<String>,
    /// `(flag, value)` in command-line order; a switch's value is empty.
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `args` (without the program name) against `spec`.
    ///
    /// # Errors
    ///
    /// An unknown flag (an argument starting with `-` that `spec` does not
    /// list) or a flag missing its value.
    pub fn parse(args: impl IntoIterator<Item = String>, spec: &[&str]) -> Result<Args, String> {
        let (mut positional, mut flags) = (Vec::new(), Vec::new());
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let entry = spec
                .iter()
                .find(|e| e.split(' ').next() == Some(arg.as_str()));
            match entry.map(|e| e.split_once(' ')) {
                Some(None) => flags.push((arg, String::new())),
                Some(Some((_, placeholder))) => match args.next() {
                    Some(v) => flags.push((arg, v)),
                    None => return Err(format!("{arg} needs a value ({placeholder})")),
                },
                None if arg.starts_with('-') && arg != "-" => {
                    return Err(format!("unknown flag {arg}; supported: {}", spec.join(" ")));
                }
                None => positional.push(arg),
            }
        }
        Ok(Args { positional, flags })
    }

    /// Parses the process's arguments against `spec`, panicking with the
    /// [`Args::parse`] error.
    pub fn from_env(spec: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The output path: the last positional argument, else `default`.
    pub fn output(&self, default: &str) -> String {
        self.positional
            .last()
            .map_or(default, String::as_str)
            .to_string()
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.values(flag).next().is_some()
    }

    /// Every value given for `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let given = self.flags.iter().filter(move |(f, _)| f == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// The last value given for `flag`, else `default`; panics if it does
    /// not parse.
    pub fn value<T: FromStr<Err: Display>>(&self, flag: &str, default: T) -> T {
        self.values(flag)
            .last()
            .map_or(default, |v| parse_value(flag, v))
    }

    /// The last comma-separated list given for `flag`, else `default`;
    /// panics if an element does not parse.
    pub fn list<T: FromStr<Err: Display>>(&self, flag: &str, default: Vec<T>) -> Vec<T> {
        let last = self.values(flag).last();
        last.map_or(default, |v| {
            v.split(',').map(|x| parse_value(flag, x.trim())).collect()
        })
    }
}

fn parse_value<T: FromStr<Err: Display>>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|e| panic!("{flag}: invalid value {v:?} ({e})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `repeats` paired rounds of two arms whose per-round wall times
    /// give keys (arm 0 / arm 1) of 2, 3, 1, 8; returns the arms in call
    /// order and the median round.
    fn run(repeats: u32) -> (Vec<usize>, Vec<u64>) {
        const WALLS: [[u64; 2]; 4] = [[10, 5], [30, 10], [8, 8], [40, 5]];
        let mut calls = Vec::new();
        let key = |r: &[u64]| r[0] as f64 / r[1] as f64;
        let median = paired_rounds::<_, ()>(
            repeats,
            2,
            |a| {
                calls.push(a);
                Ok(WALLS[(calls.len() - 1) / 2][a])
            },
            key,
        );
        (calls, median.unwrap())
    }

    #[test]
    fn rounds_alternate_the_arm_order_and_keep_the_median_key() {
        assert_eq!(run(4).0, [0, 1, 1, 0, 0, 1, 1, 0]);
        assert_eq!(run(0).1, [10, 5], "0 repeats clamp to one round");
        assert_eq!(run(3).1, [10, 5], "keys 2, 3, 1: round 0");
        // Keys 2, 3, 1, 8: the upper median is round 1, which ran arm 1
        // first but reports arm 0 first.
        assert_eq!(run(4).1, [30, 10]);
    }

    #[test]
    fn percentiles_index_from_the_sorted_tail() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile_us(&lat, 0.50), 50.0);
        assert_eq!(percentile_us(&lat, 0.99), 99.0);
        assert_eq!(percentile_us(&lat, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
    }

    fn parse(args: &str) -> Result<Args, String> {
        let spec = ["--sizes a,b,c", "--repeats n", "-v"];
        Args::parse(args.split_whitespace().map(String::from), &spec)
    }

    #[test]
    fn flags_and_defaults() {
        let a = parse("").unwrap();
        assert_eq!(a.output("BENCH_gc.json"), "BENCH_gc.json");
        assert_eq!(a.value("--repeats", 3u32), 3);
        assert_eq!(a.list("--sizes", vec![120i64]), [120]);
        let a = parse("a.json --sizes 60,120 -v b.json --repeats 1").unwrap();
        assert_eq!(a.output("x"), "b.json", "the last positional wins");
        assert_eq!(a.positional, ["a.json", "b.json"]);
        assert_eq!(a.list::<i64>("--sizes", vec![]), [60, 120]);
        assert_eq!(a.value("--repeats", 3u32), 1);
        assert!(a.switch("-v"));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        let e = parse("--seed 1").unwrap_err();
        assert_eq!(
            e,
            "unknown flag --seed; supported: --sizes a,b,c --repeats n -v"
        );
        assert_eq!(
            parse("--repeats").unwrap_err(),
            "--repeats needs a value (n)"
        );
    }

    #[test]
    #[should_panic(expected = "--repeats: invalid value \"x\"")]
    fn non_integer_values_panic() {
        parse("--repeats x").unwrap().value("--repeats", 3u32);
    }
}
