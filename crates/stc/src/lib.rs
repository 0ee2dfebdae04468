//! The COM Smalltalk compiler (§4 of the paper).
//!
//! "A Smalltalk-80 compiler has been written which generates code for the
//! COM." This crate reproduces that piece as a compiler for a compact
//! Smalltalk dialect with two backends:
//!
//! * **COM** — three-address code per §4's model: contexts hold `arg0` (the
//!   result pointer), `arg1` (the receiver), further arguments and
//!   temporaries; sends are abstract opcodes; common control-flow messages
//!   (`ifTrue:`, `whileTrue:`, `to:do:` …) are inlined into jumps, with an
//!   ablation switch ([`CompileOptions::inline_control_flow`]) that builds
//!   real block objects instead.
//! * **Fith** — the stack machine of §5, "an instruction set very different
//!   from the three address instruction set of the COM", for the
//!   stack-vs-three-address comparison (experiment T3).
//!
//! The language (see `parse` docs): `class C extends S … vars a b …
//! method sel … end … end`, unary/binary/keyword sends, blocks
//! `[ :x | … ]`, literals (integers, floats, `#atoms`, `true`/`false`/
//! `nil`), assignment `:=`, return `^`. Raw storage selectors map straight
//! onto machine opcodes: `rawAt:`, `rawAt:put:`, `rawGrow:`, and
//! `ClassName new` / `ClassName new: n` allocate.
//!
//! [`compile_com`] / [`compile_fith`] prepend the standard library
//! ([`stdlib::PRELUDE`]): Array, OrderedCollection, sorting, numeric
//! helpers — the "toolkits" of reusable late-bound code the paper's
//! introduction celebrates. The prelude is compiled once per process per
//! [`CompileOptions::inline_control_flow`] value: each call compiles only
//! the caller's classes, and every image shares the prelude's code
//! objects (and so their decoded bodies). The image is the one a single
//! pass over the prelude-prefixed text gives.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
pub mod ast;
mod codegen_com;
mod codegen_fith;
mod error;
mod lex;
mod parse;
pub mod stdlib;

pub use codegen_com::compile_com_program;
pub use codegen_fith::compile_fith_program;
pub use error::CompileError;
pub use lex::{lex, Token};
pub use parse::parse;

use codegen_fith::compile_fith_classes;
use com_core::ProgramImage;
use com_fith::FithImage;

/// Compilation switches.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Inline `ifTrue:`/`ifFalse:`/`and:`/`or:`/`whileTrue:`/
    /// `timesRepeat:`/`to:do:` into jumps (the paper's compiler behaviour).
    /// When false, conditionals build real block objects and send `value`
    /// (ablation A3); loops remain inlined (jumps are the only looping
    /// construct the hardware offers).
    pub inline_control_flow: bool,
    /// Prepend the standard library.
    pub with_stdlib: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            inline_control_flow: true,
            with_stdlib: true,
        }
    }
}

/// Compiles source text to a COM program image.
///
/// With the standard library, the prelude is compiled once per process
/// (per [`CompileOptions::inline_control_flow`] value) and every image
/// shares its code objects; only the caller's classes are compiled per
/// call. The image is the one compiling `PRELUDE`, a newline and
/// `source` as one text would give.
///
/// # Errors
///
/// Returns [`CompileError`] for lexical, syntactic or semantic errors;
/// positions count from the start of `source`.
pub fn compile_com(source: &str, options: CompileOptions) -> Result<ProgramImage, CompileError> {
    let program = parse(source)?;
    if options.with_stdlib {
        stdlib::Unit::get(options).compile_com(&program, options)
    } else {
        compile_com_program(&program, options)
    }
}

/// Compiles source text to a Fith (stack machine) image.
///
/// # Errors
///
/// Returns [`CompileError`] (positions count from the start of `source`);
/// real (non-inlinable) blocks are not supported by the stack backend and
/// are reported as errors.
pub fn compile_fith(source: &str, options: CompileOptions) -> Result<FithImage, CompileError> {
    let program = parse(source)?;
    let prelude = if options.with_stdlib {
        &stdlib::parsed().classes[..]
    } else {
        &[]
    };
    compile_fith_classes(&prelude.iter().chain(&program.classes).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_positions_count_from_the_start_of_the_callers_source() {
        // `class` is expected where `42` stands.
        let src = "class Foo extends Object end\n42 end";
        let at = src.find("42").unwrap();
        for with_stdlib in [true, false] {
            let opts = CompileOptions {
                with_stdlib,
                ..CompileOptions::default()
            };
            assert!(matches!(
                compile_com(src, opts),
                Err(CompileError::Parse { at: a, .. }) if a == at
            ));
            assert!(matches!(
                compile_fith(src, opts),
                Err(CompileError::Parse { at: a, .. }) if a == at
            ));
        }
        let src = "class Foo $ end";
        let at = src.find('$').unwrap();
        assert!(matches!(
            compile_com(src, CompileOptions::default()),
            Err(CompileError::Lex { at: a, .. }) if a == at
        ));
    }
}
