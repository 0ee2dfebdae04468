//! Experiment harness support: shared trace construction and report
//! formatting for the figure/table binaries (see `src/bin/`), and the five
//! wall-clock bench pipelines with the [`harness`] they share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gc;
pub mod harness;
pub mod interp;
pub mod parallel;
pub mod server;
pub mod sessions;

use com_trace::Trace;
use com_workloads as workloads;

/// Builds the merged Fith trace of all portable workloads — the
/// reproduction's counterpart of the paper's "several traces … the longest
/// of which was about 20,000 instructions" (§5).
///
/// # Panics
///
/// Panics if any workload fails (they are self-checking).
pub fn merged_fith_trace() -> Trace {
    let mut merged = Trace::new();
    for w in workloads::portable() {
        let (t, out) = workloads::trace_fith(&w, workloads::MAX_STEPS)
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert_eq!(
            out.result,
            com_mem::Word::Int(w.expected),
            "{} self-check failed",
            w.name
        );
        merged.extend(&t);
    }
    merged
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:w$} |", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", line(&sep));
    for row in rows {
        println!("{}", line(row));
    }
}

/// Formats an optional ratio as a percentage.
pub fn pct(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{:.2}%", v * 100.0),
        None => "—".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_trace_is_large() {
        let t = merged_fith_trace();
        assert!(t.len() > 100_000, "merged trace only {}", t.len());
    }
}
