//! The public entry points every workload drives: source text to a
//! session, one checked call, and the fresh-session fidelity pass over
//! the shipped programs.

use crate::oracle::{self, Observation};
use crate::trace::Tracer;
use com_core::{CycleStats, MachineConfig};
use com_mem::Word;
use com_stc::CompileOptions;
use com_vm::{Session, Vm, VmError};
use com_workloads::Workload;
use std::time::Instant;

/// The machine every session boots: the paper's default geometry with
/// generational collection (a minor collection every 4096 steps, a full
/// one every 32768), so that warm sessions reclaim their garbage and the
/// `mem` layer does work.
pub fn config() -> MachineConfig {
    MachineConfig::default().with_generational_gc(4096, 32768)
}

/// Step limit for every call the benchmark makes (the shipped programs
/// retire at most ~50k instructions).
pub const MAX_STEPS: u64 = 50_000_000;

/// Time spent in each layer taking a source text to a fresh session,
/// when traced (zero otherwise).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cold {
    /// `stc`: `compile_com`.
    pub compile_ns: u64,
    /// `verify`: `verify_image`.
    pub verify_ns: u64,
    /// `core`: `Vm::from_image` (its own structural re-check, then
    /// `LoadedImage::prepare_for`).
    pub prepare_ns: u64,
    /// `vm`: `Vm::session`.
    pub session_ns: u64,
    /// `stc`: code words the compiled image holds.
    pub code_words: u64,
}

fn timed<R>(tracer: &mut Tracer, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = tracer.span(name, op, f);
    (r, t.elapsed().as_nanos() as u64)
}

/// Builds a session over `sources`: [`build`], then `Vm::session`
/// (inside a `vm.session` span when traced).
///
/// # Errors
///
/// Compile, verify or boot errors.
pub fn cold(sources: &[&str], tracer: &mut Tracer, op: u64) -> Result<(Session, Cold), VmError> {
    let (vm, mut times) = build(sources, tracer, op)?;
    if !tracer.on() {
        return Ok((vm.session()?, times));
    }
    let (session, session_ns) = timed(tracer, "vm.session", op, || vm.session());
    times.session_ns = session_ns;
    Ok((session?, times))
}

/// Builds a `Vm` over `sources`. Untraced, this is the user's path,
/// `VmBuilder::build`. Traced, the same steps are taken one public call
/// at a time, each inside its layer's span: `compile_com`,
/// `verify_image`, `Vm::from_image`.
///
/// # Errors
///
/// Compile or verify errors.
pub fn build(sources: &[&str], tracer: &mut Tracer, op: u64) -> Result<(Vm, Cold), VmError> {
    if !tracer.on() {
        let mut builder = Vm::builder().config(config());
        for s in sources {
            builder = builder.source(s);
        }
        return Ok((builder.build()?, Cold::default()));
    }
    let joined = sources.join("\n");
    let (image, compile_ns) = timed(tracer, "stc.compile", op, || {
        com_stc::compile_com(&joined, CompileOptions::default())
    });
    let image = image?;
    let code_words = image.methods.iter().map(|m| m.code.size_words()).sum();
    let (verified, verify_ns) = timed(tracer, "verify.verify", op, || {
        com_verify::verify_image(&image)
    });
    verified?;
    let (vm, prepare_ns) = timed(tracer, "core.prepare", op, || {
        Vm::from_image(image, config())
    });
    let times = Cold {
        compile_ns,
        verify_ns,
        prepare_ns,
        session_ns: 0,
        code_words,
    };
    Ok((vm?, times))
}

/// One finished call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// The answer.
    pub result: Word,
    /// Simulated work of this call alone (`Session::stats` diffed around
    /// it; `RunResult::stats` is cumulative over the session).
    pub delta: CycleStats,
    /// Host nanoseconds of `send_raw`.
    pub ns: u64,
}

/// Sends `selector` to `receiver` inside a span named `span`.
///
/// # Errors
///
/// Any `send_raw` error.
pub fn call(
    session: &mut Session,
    selector: &str,
    receiver: i64,
    tracer: &mut Tracer,
    span: &'static str,
    op: u64,
) -> Result<Call, VmError> {
    let before = session.stats();
    let (run, ns) = timed(tracer, span, op, || {
        session.send_raw(selector, Word::Int(receiver), &[], MAX_STEPS)
    });
    let result = run?.result;
    Ok(Call {
        result,
        delta: session.stats().since(&before),
        ns,
    })
}

/// The fresh-session pass over every shipped program: build, spawn, one
/// call, each answer and its `CycleStats` checked against the oracle.
#[derive(Debug)]
pub struct FreshPass {
    /// One warm session per program, in `com_workloads::all()` order.
    pub sessions: Vec<Session>,
    /// The checked first calls, same order.
    pub calls: Vec<Call>,
    /// The source-to-session layer times, same order.
    pub colds: Vec<Cold>,
}

/// Runs the fresh pass (see [`FreshPass`]).
///
/// # Errors
///
/// The first engine error, wrong answer or oracle mismatch, described.
pub fn fresh_pass(
    programs: &[Workload],
    reference: &[Observation],
    tracer: &mut Tracer,
) -> Result<FreshPass, String> {
    let mut pass = FreshPass {
        sessions: Vec::new(),
        calls: Vec::new(),
        colds: Vec::new(),
    };
    for w in programs {
        let err = |e: VmError| format!("{}: {e}", w.name);
        let (mut session, times) = cold(&[w.source], tracer, 0).map_err(err)?;
        let call =
            call(&mut session, w.entry, w.size, tracer, "core.first_call", 0).map_err(err)?;
        if call.result != Word::Int(w.expected) {
            return Err(format!(
                "{}: answered {:?}, expected {}",
                w.name, call.result, w.expected
            ));
        }
        oracle::check(
            reference,
            &Observation::new(w.name, call.result, &call.delta),
        )?;
        pass.sessions.push(session);
        pass.calls.push(call);
        pass.colds.push(times);
    }
    Ok(pass)
}
