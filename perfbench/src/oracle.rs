//! The fidelity oracle: each shipped program's fresh-session result and
//! full simulated `CycleStats`, recorded once in `oracle.txt` and
//! compared on every run.
//!
//! Those values are the paper machine's semantics; a change meant only to
//! make the simulator faster must leave them bit-identical. Fields are
//! compared by name, so a field added to `CycleStats` later does not trip
//! the check, while a removed or changed one does.

use com_core::CycleStats;
use com_mem::Word;

/// The reference recorded from the parent implementation.
pub const RECORDED: &str = include_str!("../oracle.txt");

/// One program's observed fresh-session outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Workload name.
    pub name: String,
    /// The result word, as its debug text.
    pub result: String,
    /// Every `CycleStats` field, by name.
    pub stats: Vec<(String, u64)>,
}

impl Observation {
    /// Captures `result` and `stats` of the program `name`.
    pub fn new(name: &str, result: Word, stats: &CycleStats) -> Observation {
        Observation {
            name: name.to_string(),
            result: format!("{result:?}").replace(' ', ""),
            stats: fields(&format!("{stats:?}")),
        }
    }

    /// The retired-instruction count, if recorded.
    pub fn instructions(&self) -> Option<u64> {
        self.stats
            .iter()
            .find(|(k, _)| k == "instructions")
            .map(|&(_, v)| v)
    }

    /// One line of `oracle.txt`.
    pub fn to_line(&self) -> String {
        let mut line = format!("{} result={}", self.name, self.result);
        for (k, v) in &self.stats {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }

    fn parse(line: &str) -> Option<Observation> {
        let mut parts = line.split_whitespace();
        let name = parts.next()?.to_string();
        let result = parts.next()?.strip_prefix("result=")?.to_string();
        let stats = parts
            .map(|p| {
                let (k, v) = p.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Observation {
            name,
            result,
            stats,
        })
    }
}

/// `name: value` pairs of a `#[derive(Debug)]` struct of integers.
fn fields(debug: &str) -> Vec<(String, u64)> {
    let body = debug
        .split_once('{')
        .and_then(|(_, rest)| rest.rsplit_once('}'))
        .map_or("", |(body, _)| body);
    body.split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim().to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

/// Parses the recorded reference.
///
/// # Errors
///
/// The first line that does not parse.
pub fn parse(text: &str) -> Result<Vec<Observation>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| Observation::parse(l).ok_or_else(|| format!("bad oracle line: {l}")))
        .collect()
}

/// Checks `seen` against the reference entry of the same name.
///
/// # Errors
///
/// A description of the first difference.
pub fn check(reference: &[Observation], seen: &Observation) -> Result<(), String> {
    let want = reference
        .iter()
        .find(|o| o.name == seen.name)
        .ok_or_else(|| format!("{}: no recorded reference", seen.name))?;
    if want.result != seen.result {
        return Err(format!(
            "{}: result {} != recorded {}",
            seen.name, seen.result, want.result
        ));
    }
    for (k, v) in &want.stats {
        match seen.stats.iter().find(|(sk, _)| sk == k) {
            Some((_, sv)) if sv == v => {}
            Some((_, sv)) => {
                return Err(format!(
                    "{}: CycleStats.{k} {sv} != recorded {v}",
                    seen.name
                ))
            }
            None => return Err(format!("{}: CycleStats.{k} missing", seen.name)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Observation {
        let stats = CycleStats {
            instructions: 100,
            calls: 7,
            ..CycleStats::default()
        };
        Observation::new("arith", Word::Int(42), &stats)
    }

    #[test]
    fn round_trips_through_a_line() {
        let o = sample();
        assert_eq!(o.instructions(), Some(100));
        assert!(o.stats.len() > 10, "every CycleStats field is kept");
        let back = parse(&o.to_line()).unwrap();
        assert_eq!(back, vec![o.clone()]);
        assert_eq!(check(&back, &o), Ok(()));
    }

    #[test]
    fn trips_on_a_perturbed_reference() {
        let o = sample();
        let mut stats_off = o.clone();
        stats_off.stats[0].1 += 1;
        assert!(check(&[stats_off], &o).unwrap_err().contains("recorded"));
        let mut result_off = o.clone();
        result_off.result = "Int(43)".to_string();
        assert!(check(&[result_off], &o).unwrap_err().contains("result"));
        let mut renamed = o.clone();
        renamed.name = "sort".to_string();
        assert!(check(&[renamed], &o).is_err());
    }

    #[test]
    fn recorded_reference_covers_every_program() {
        let reference = parse(RECORDED).unwrap();
        for w in com_workloads::all() {
            let o = reference.iter().find(|o| o.name == w.name);
            assert!(o.is_some_and(|o| o.instructions().is_some()), "{}", w.name);
        }
    }
}
