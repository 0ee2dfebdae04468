//! **com-machine** — a reproduction of Dally & Kajiya, *An Object Oriented
//! Architecture* (ISCA 1985): the Caltech Object Machine (COM), its Fith
//! Machine precursor, a mini-Smalltalk compiler for both, and the paper's
//! full experimental apparatus.
//!
//! This facade crate re-exports every subsystem; the repository README
//! maps the crates and lists how to run each experiment.
//!
//! The embedding API is the [`vm`] facade: compile once into a shared
//! immutable image, then spawn any number of cheap, isolated tenant
//! sessions with typed calls and resumable execution.
//!
//! ```
//! use com_machine::vm::Vm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let vm = Vm::new("class SmallInteger method double ^self + self end end")?;
//! let mut session = vm.session()?;
//! assert_eq!(session.call::<i64>("double", 21)?, 42);
//! # Ok(())
//! # }
//! ```
//!
//! The engine layer stays available for instrument-everything work:
//!
//! ```
//! use com_machine::stc::{compile_com, CompileOptions};
//! use com_machine::core::{Machine, MachineConfig};
//! use com_machine::mem::Word;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = compile_com(
//!     "class SmallInteger method double ^self + self end end",
//!     CompileOptions::default(),
//! )?;
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load(&image)?;
//! let out = machine.send("double", Word::Int(21), &[], 100_000)?;
//! assert_eq!(out.result, Word::Int(42));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Set-associative cache simulation (ITLB, ATLB, instruction cache).
pub use com_cache as cache;
/// The COM machine: registers, context cache, pipeline model.
pub use com_core as core;
/// The Fith stack-machine baseline (§5).
pub use com_fith as fith;
/// Floating point virtual addresses (§2.2).
pub use com_fpa as fpa;
/// The COM instruction set architecture (§3.3–3.5).
pub use com_isa as isa;
/// Tagged memory, segment tables, three-level addressing, GC.
pub use com_mem as mem;
/// Classes, message dictionaries, method lookup, the ITLB (§2.1).
pub use com_obj as obj;
/// The mini-Smalltalk compiler with COM and Fith backends (§4).
pub use com_stc as stc;
/// Instruction traces and cache replay (§5 methodology).
pub use com_trace as trace;
/// Static image verification and dataflow lint (the `vmlint` CLI).
pub use com_verify as verify;
/// The embedding facade: shared images, multi-tenant sessions, typed
/// calls, resumable execution, cooperative scheduling.
pub use com_vm as vm;
/// The benchmark workloads.
pub use com_workloads as workloads;
