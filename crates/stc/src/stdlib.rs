//! The standard library: the "toolkits" of reusable late-bound code that
//! §2.1 argues late binding makes practical. Compiled into every program by
//! default; written to run on both the COM and the Fith backends (no
//! general blocks — only inlinable control flow).
//!
//! The prelude is compiled once per process: it is parsed once, and for
//! each [`CompileOptions::inline_control_flow`] value one unit keeps
//! the analysis state after its classes and, when that is exact, its
//! generated methods. A compile then registers and generates only the
//! caller's classes, and every image shares the prelude's code objects.

use std::sync::OnceLock;

use com_core::{MethodSource, ProgramImage};

use crate::analysis::{analyze, Analysis};
use crate::ast::Program;
use crate::codegen_com::{generate, image};
use crate::{parse, CompileError, CompileOptions};

/// Prelude source prepended to user programs.
pub const PRELUDE: &str = r#"
"=== COM Smalltalk standard library ==="

class Object
  method isNil ^false end
  method yourself ^self end
end

"Software trap handlers: defining 'method doesNotUnderstand: msg' (or
 'method badOperands: msg') on any class installs that class's handler —
 a failed send (or a function-unit operand trap, e.g. divide by zero)
 whose receiver is an instance re-dispatches to the handler instead of
 killing the program, and the handler's answer becomes the faulting
 operation's result. The reified message is a 3-word object read with
 the fixed-opcode rawAt: — 'msg rawAt: 0' is the failed selector's
 opcode, 'msg rawAt: 1' the send's nargs (receiver included), and
 'msg rawAt: 2' the transmitted argument. (Deliberately not wrapped in
 stdlib accessor methods: the prelude interns no selectors for this, so
 programs that never install a handler get byte-identical images.)"

class UndefinedObject
  method isNil ^true end
end

class Atom
  method not self ifTrue: [ ^false ]. ^true end
  method isNil ^self == nil end
end

class SmallInteger
  method abs self < 0 ifTrue: [ ^0 - self ]. ^self end
  method min: x self < x ifTrue: [ ^self ]. ^x end
  method max: x self > x ifTrue: [ ^self ]. ^x end
  method between: lo and: hi ^(self >= lo) and: [ self <= hi ] end
  method even ^(self \\ 2) = 0 end
  method odd ^(self \\ 2) = 1 end
  method sign self < 0 ifTrue: [ ^0 - 1 ]. self > 0 ifTrue: [ ^1 ]. ^0 end
  method squared ^self * self end
  method gcd: x | a b t |
    a := self abs. b := x abs.
    [ b > 0 ] whileTrue: [ t := a \\ b. a := b. b := t ].
    ^a
  end
  method newArray ^(Array new: self) setTally: self end
end

class Float
  method abs self < 0.0 ifTrue: [ ^0.0 - self ]. ^self end
  method min: x self < x ifTrue: [ ^self ]. ^x end
  method max: x self > x ifTrue: [ ^self ]. ^x end
  method squared ^self * self end
end

"Indexable storage. Word 0 holds the element count (tally); elements are
 1-based at words 1..tally, so rawAt: i addresses element i directly."
class Array extends Object
  vars tally
  method setTally: n tally := n. ^self end
  method size ^tally end
  method at: i ^self rawAt: i end
  method at: i put: v ^self rawAt: i put: v end
  method first ^self rawAt: 1 end
  method last ^self rawAt: tally end
  method fill: v 1 to: tally do: [ :i | self rawAt: i put: v ]. ^self end
  method sum | acc | acc := 0. 1 to: tally do: [ :i | acc := acc + (self rawAt: i) ]. ^acc end
  method maxElement | m |
    m := self rawAt: 1.
    2 to: tally do: [ :i | m := m max: (self rawAt: i) ].
    ^m
  end
  method swap: i with: j | t |
    t := self rawAt: i.
    self rawAt: i put: (self rawAt: j).
    self rawAt: j put: t.
    ^self
  end
  "Polymorphic quicksort: elements are compared with <, so one routine
   sorts integers, floats, or any class defining < — the reusable general
   sort the paper's introduction promises."
  method quicksortFrom: lo to: hi | i j pv |
    lo >= hi ifTrue: [ ^self ].
    i := lo. j := hi. pv := self rawAt: (lo + hi) / 2.
    [ i <= j ] whileTrue: [
      [ (self rawAt: i) < pv ] whileTrue: [ i := i + 1 ].
      [ pv < (self rawAt: j) ] whileTrue: [ j := j - 1 ].
      i <= j ifTrue: [ self swap: i with: j. i := i + 1. j := j - 1 ] ].
    self quicksortFrom: lo to: j.
    self quicksortFrom: i to: hi.
    ^self
  end
  method sort ^self quicksortFrom: 1 to: tally end
  method isSorted | ok |
    ok := true.
    2 to: tally do: [ :i |
      (self rawAt: i) < (self rawAt: i - 1) ifTrue: [ ok := false ] ].
    ^ok
  end
end

"Growable sequence backed by an Array; growth exercises the §2.2
 floating point address aliasing machinery through rawGrow:."
class OrderedCollection extends Object
  vars items count
  method init items := 4 newArray. count := 0. ^self end
  method size ^count end
  method capacity ^items size end
  method add: v
    count = items size ifTrue: [ self growTo: count * 2 + 4 ].
    count := count + 1.
    items rawAt: count put: v.
    ^v
  end
  method growTo: n
    items := items rawGrow: n + 1.
    items setTally: n.
    ^self
  end
  method at: i ^items rawAt: i end
  method at: i put: v ^items rawAt: i put: v end
  method first ^items rawAt: 1 end
  method last ^items rawAt: count end
  method sum | acc | acc := 0. 1 to: count do: [ :i | acc := acc + (items rawAt: i) ]. ^acc end
  method sort items quicksortFrom: 1 to: count. ^self end
  method isSorted | ok |
    ok := true.
    2 to: count do: [ :i |
      (items rawAt: i) < (items rawAt: i - 1) ifTrue: [ ok := false ] ].
    ^ok
  end
end
"#;

/// The parsed prelude.
pub(crate) fn parsed() -> &'static Program {
    static PARSED: OnceLock<Program> = OnceLock::new();
    PARSED.get_or_init(|| parse(PRELUDE).expect("the prelude parses"))
}

/// The prelude compiled for one `inline_control_flow` value.
pub(crate) struct Unit {
    /// The analysis state after the prelude's classes: registered, and
    /// generated too when `methods` is present.
    analysis: Analysis,
    /// The prelude's generated methods, kept only when generating them
    /// defined no class. Then they do not depend on the classes a caller
    /// adds. Block classes hoisted from the prelude (control flow not
    /// inlined) take ids after the caller's classes, so in that case every
    /// compile generates the prelude again.
    methods: Option<Vec<MethodSource>>,
}

impl Unit {
    /// The process-wide unit for `options`.
    pub(crate) fn get(options: CompileOptions) -> &'static Unit {
        static UNITS: [OnceLock<Unit>; 2] = [OnceLock::new(), OnceLock::new()];
        UNITS[usize::from(options.inline_control_flow)].get_or_init(|| Unit::build(options))
    }

    fn build(options: CompileOptions) -> Unit {
        let registered = analyze(parsed()).expect("the prelude analyses");
        let mut analysis = registered.clone();
        let mut blocks = 0;
        let methods = generate(&mut analysis, &parsed().classes, options, &mut blocks)
            .expect("the prelude compiles");
        if blocks == 0 {
            Unit {
                analysis,
                methods: Some(methods),
            }
        } else {
            Unit {
                analysis: registered,
                methods: None,
            }
        }
    }

    /// Compiles `program` after the prelude: the image of compiling the
    /// prelude's classes followed by the program's in one go.
    pub(crate) fn compile_com(
        &self,
        program: &Program,
        options: CompileOptions,
    ) -> Result<ProgramImage, CompileError> {
        let mut analysis = self.analysis.clone();
        for def in &program.classes {
            analysis.register(def)?;
        }
        let mut blocks = 0;
        let mut methods = match &self.methods {
            Some(methods) => methods.clone(),
            None => generate(&mut analysis, &parsed().classes, options, &mut blocks)?,
        };
        methods.extend(generate(
            &mut analysis,
            &program.classes,
            options,
            &mut blocks,
        )?);
        Ok(image(analysis, methods))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_com, compile_fith};
    use com_core::{LoadedImage, Machine, MachineConfig, SharedCode};
    use com_mem::Word;

    #[test]
    fn prelude_compiles_on_both_backends() {
        for inline_control_flow in [true, false] {
            let opts = CompileOptions {
                inline_control_flow,
                with_stdlib: true,
            };
            compile_com("", opts).expect("COM prelude");
            assert_eq!(
                Unit::get(opts).methods.is_some(),
                inline_control_flow,
                "the prelude hoists blocks only when control flow is not inlined"
            );
        }
        compile_fith("", CompileOptions::default()).expect("Fith prelude");
    }

    #[test]
    fn mutating_a_prelude_method_in_one_image_leaves_the_others_alone() {
        let opts = CompileOptions::default();
        let prelude = Unit::get(opts).methods.as_ref().expect("reused");
        let i = prelude
            .iter()
            .position(|m| m.code.name == "SmallInteger>>abs")
            .expect("abs is in the prelude");
        let original = prelude[i].code.clone();
        let abs_of_minus_5 = |loaded: &LoadedImage| {
            let mut m = Machine::new(MachineConfig::default());
            m.load_image(loaded).unwrap();
            m.send("abs", Word::Int(-5), &[], 10_000).unwrap().result
        };

        let a = compile_com("", opts).unwrap();
        let mut b = compile_com("", opts).unwrap();
        assert!(SharedCode::ptr_eq(&a.methods[i].code, &original));
        assert!(SharedCode::ptr_eq(&b.methods[i].code, &original));
        // Decodes the shared body.
        let loaded_a = LoadedImage::prepare(a);

        // `self < 0 ifTrue: [ ^0 - self ]` becomes `self < 100 ifTrue:
        // [ ^100 - self ]` in b only.
        for k in b.methods[i].code.make_mut().consts.iter_mut() {
            if *k == Word::Int(0) {
                *k = Word::Int(100);
            }
        }
        assert!(!SharedCode::ptr_eq(&b.methods[i].code, &original));
        assert_eq!(abs_of_minus_5(&LoadedImage::prepare(b)), Word::Int(105));

        // a's code, its decoded body and the unit are untouched.
        let unit = &Unit::get(opts).methods.as_ref().unwrap()[i].code;
        assert!(SharedCode::ptr_eq(unit, &original));
        assert!(SharedCode::ptr_eq(
            &loaded_a.image().methods[i].code,
            &original
        ));
        assert!(original.consts.contains(&Word::Int(0)));
        assert!(!original.consts.contains(&Word::Int(100)));
        assert_eq!(abs_of_minus_5(&loaded_a), Word::Int(5));
        let c = LoadedImage::prepare(compile_com("", opts).unwrap());
        assert!(SharedCode::ptr_eq(&c.image().methods[i].code, &original));
        assert_eq!(abs_of_minus_5(&c), Word::Int(5));
    }
}
