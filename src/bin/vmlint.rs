//! `vmlint` — static verification, dataflow lint, and whole-image
//! analysis over COM program images, with stable diagnostic codes, a
//! deny mode for CI, machine-readable output, and a facts artifact for
//! downstream tooling.

use com_bench::harness::Args;
use com_stc::{compile_com, CompileOptions};
use com_verify::{
    lint_image_with, DiagCode, Diagnostic, ImageFacts, JsonWriter, LintConfig, Severity,
    VerifyError,
};
use com_workloads as workloads;
use std::process::ExitCode;

const USAGE: &str = "\
vmlint — static verifier, lint, and whole-image analysis for COM images

USAGE:
    vmlint [OPTIONS] [FILE...]

Each FILE is COM source text, compiled (with the standard library) and
linted. With no FILE and no target option, lints the built-in workloads
and the bare standard library — the CI sweep.

OPTIONS:
    --workloads          Lint every built-in benchmark workload (each
                         workload's entry selector seeds the L006 roots)
    --stdlib             Lint the standard library compiled on its own
    --entry NAME         Add an entry-point selector to the L006
                         call-graph roots (repeatable; applies to FILE
                         and stdlib targets)
    --deny               Exit 1 on warning-severity lints (verify
                         errors always exit 2, with or without --deny)
    --json               Emit findings as a JSON array (one object per
                         finding: image, code, severity, method,
                         method_index, offset, message) instead of text
    --emit-facts FILE    Write the whole-image analysis facts artifact
                         (per-site resolution, receiver sets, call
                         graph, fuel bounds) as JSON to FILE
    --fuel               Also print each method's fuel estimates
                         (I001 own-frame, I002 interprocedural)
    --verbose            Also print info-severity lints (L001/L002/L006)
    --help               Print this help

EXIT STATUS:
    0  every image verified; no denied diagnostics
    1  a warning-severity lint under --deny
    2  a verify error (the image would be refused at load time)
    3  usage or I/O error

DIAGNOSTICS:
  Verify errors (always fatal — the image is refused at load time):
    V001  opcode not interned in the image
    V002  wild branch: target not provably in-bounds on a boundary
    V003  operand slot beyond the context geometry
    V004  constant operand beyond the method's constant table
    V005  trap handler (doesNotUnderstand:/badOperands:) with wrong arity
    V006  method declares more args than the context geometry holds
    V007  instruction word does not decode

  Lints (dataflow + whole-image class inference; severity in brackets):
    L001  [info]     unreachable code: no path from the method entry
    L002  [info]     dead store: overwritten on every path before any read
    L003  [warning]  use of a context slot that may be uninitialised
    L004  [warning]  send with constant operands that provably traps
                     (suppressed only when the inferred receiver set
                     installs a badOperands: handler)
    L005  [warning]  send guaranteed to hit doesNotUnderstand: — no
                     inferred receiver class understands the selector
                     (suppressed when every receiver installs a handler)
    L006  [info]     method unreachable from any entry point or
                     engine-invoked trap handler (needs --entry or a
                     workload target)
    I001  [info]     worst-case own-frame fuel estimate
    I002  [info]     worst-case interprocedural fuel (call-graph
                     composition of the I001 bounds)
";

/// The accepted flags, each with its value placeholder if it takes one.
const FLAGS: &[&str] = &[
    "--help",
    "-h",
    "--workloads",
    "--stdlib",
    "--entry NAME",
    "--deny",
    "--json",
    "--emit-facts FILE",
    "--fuel",
    "--verbose",
    "-v",
];

/// One target's outcome: the lint findings and analysis facts, or the
/// verify rejection.
struct Report {
    name: String,
    methods: usize,
    outcome: Result<(Vec<Diagnostic>, ImageFacts), VerifyError>,
}

fn lint_source(
    name: &str,
    source: &str,
    entries: &[String],
    options: CompileOptions,
) -> Result<Report, String> {
    let image = compile_com(source, options).map_err(|e| format!("{name}: compile error: {e}"))?;
    let config = LintConfig {
        entries: entries.to_vec(),
    };
    let outcome = lint_image_with(&image, &config).and_then(|diags| {
        let facts = ImageFacts::analyze_with(&image, entries)?;
        Ok((diags, facts))
    });
    Ok(Report {
        name: name.to_string(),
        methods: image.methods.len(),
        outcome,
    })
}

fn shown(d: &Diagnostic, fuel: bool, verbose: bool) -> bool {
    match d.severity() {
        Severity::Warning => true,
        Severity::Info if matches!(d.code, DiagCode::FuelBound | DiagCode::InterFuel) => fuel,
        Severity::Info => verbose,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1), FLAGS) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vmlint: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(3);
        }
    };
    if args.switch("--help") || args.switch("-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let entries: Vec<String> = args.values("--entry").map(String::from).collect();
    let files = &args.positional;
    let json = args.switch("--json");
    let fuel = args.switch("--fuel");
    let verbose = args.switch("--verbose") || args.switch("-v");
    // With no target, lint everything built in: the CI sweep.
    let all = files.is_empty() && !args.switch("--workloads") && !args.switch("--stdlib");

    let mut reports: Vec<Report> = Vec::new();
    if all || args.switch("--stdlib") {
        match lint_source("stdlib", "", &entries, CompileOptions::default()) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("vmlint: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if all || args.switch("--workloads") {
        for w in workloads::all() {
            // The workload's own entry selector (plus any --entry) roots
            // its call graph.
            let mut roots = entries.clone();
            roots.push(w.entry.to_string());
            match lint_source(
                &format!("workload {}", w.name),
                w.source,
                &roots,
                CompileOptions::default(),
            ) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    eprintln!("vmlint: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    }
    for file in files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("vmlint: {file}: {e}");
                return ExitCode::from(3);
            }
        };
        match lint_source(file, &source, &entries, CompileOptions::default()) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("vmlint: {e}");
                return ExitCode::from(3);
            }
        }
    }

    // The facts artifact: one object per image, wrapped with a version.
    if let Some(path) = args.values("--emit-facts").last() {
        let mut j = JsonWriter::new(ImageFacts::JSON_PRECISION);
        j.object(|j| {
            j.field("version", 1);
            j.key("images").array(|j| {
                for report in &reports {
                    if let Ok((_, facts)) = &report.outcome {
                        j.object(|j| {
                            j.field("name", &report.name).field("facts", facts);
                        });
                    }
                }
            });
        });
        if let Err(e) = std::fs::write(path, j.finish()) {
            eprintln!("vmlint: {path}: {e}");
            return ExitCode::from(3);
        }
    }

    let mut verify_errors = 0usize;
    let mut warnings = 0usize;
    let mut infos = 0usize;
    let mut total_sites = 0usize;
    let mut total_live = 0usize;
    let mut total_mono = 0usize;
    // `--json` findings: (image, code, severity, method, offset, message).
    let mut findings = Vec::new();
    for report in &reports {
        match &report.outcome {
            Err(e) => {
                verify_errors += 1;
                if json {
                    findings.push((
                        &report.name,
                        e.code(),
                        "error",
                        &e.method,
                        e.offset,
                        e.kind.to_string(),
                    ));
                } else {
                    println!("{}: error{e}", report.name);
                }
            }
            Ok((diags, facts)) => {
                total_sites += facts.summary.sites;
                total_live += facts.summary.live_sites;
                total_mono += facts.summary.monomorphic;
                let mut header = false;
                for d in diags {
                    let severity = match d.severity() {
                        Severity::Warning => {
                            warnings += 1;
                            "warning"
                        }
                        Severity::Info => {
                            infos += 1;
                            "info"
                        }
                    };
                    if !shown(d, fuel, verbose) {
                        continue;
                    }
                    if json {
                        findings.push((
                            &report.name,
                            d.code.code(),
                            severity,
                            &d.method,
                            d.offset,
                            d.message.clone(),
                        ));
                    } else {
                        if !header {
                            println!("{} ({} methods):", report.name, report.methods);
                            header = true;
                        }
                        println!("  {d}");
                    }
                }
            }
        }
    }

    if json {
        let mut j = JsonWriter::new(0);
        j.array(|j| {
            for (image, code, severity, method, offset, message) in &findings {
                j.object(|j| {
                    j.field("image", image)
                        .field("code", code)
                        .field("severity", severity)
                        .field("method", &method.name)
                        .field("method_index", method.index)
                        .field("offset", offset)
                        .field("message", message);
                });
            }
        });
        print!("{}", j.finish());
    } else {
        let images = reports.len();
        let pct = if total_live > 0 {
            100.0 * total_mono as f64 / total_live as f64
        } else {
            0.0
        };
        println!(
            "vmlint: {images} image{} checked, {verify_errors} verify error{}, \
             {warnings} warning{}, {infos} info finding{}; \
             {total_mono}/{total_live} live send sites monomorphic ({pct:.1}%, \
             {total_sites} total)",
            if images == 1 { "" } else { "s" },
            if verify_errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if infos == 1 { "" } else { "s" },
        );
    }
    if verify_errors > 0 {
        ExitCode::from(2)
    } else if args.switch("--deny") && warnings > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
