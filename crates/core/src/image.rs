//! Program images: what the compiler hands the machine.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use com_isa::{CodeObject, Opcode, OpcodeTable};
use com_mem::ClassId;
use com_obj::{AtomTable, ClassTable};

use crate::machine::DecodedBody;

/// A compiled method's code object, shared between images.
///
/// Cloning is a reference-count bump, so images that hold the same
/// method (every image compiled with the standard library holds the
/// prelude's) hold one copy of it. The position-independent decoded body
/// rides along and is computed once, on first use, for every image that
/// shares the code. Reads go through [`Deref`]; the one mutable accessor,
/// [`make_mut`](Self::make_mut), is copy-on-write and drops the decoded
/// body, so a mutation is never seen by another image and never runs a
/// stale decode.
#[derive(Clone)]
pub struct SharedCode(Arc<CodeCell>);

struct CodeCell {
    code: CodeObject,
    /// `None` inside when the method's constants need a machine to
    /// classify (pointer constants) and each machine decodes lazily.
    body: OnceLock<Option<Arc<DecodedBody>>>,
}

impl Clone for CodeCell {
    /// A copy for writing: the code without its decoded body.
    fn clone(&self) -> Self {
        CodeCell {
            code: self.code.clone(),
            body: OnceLock::new(),
        }
    }
}

impl SharedCode {
    /// Wraps a code object.
    pub fn new(code: CodeObject) -> SharedCode {
        SharedCode(Arc::new(CodeCell {
            code,
            body: OnceLock::new(),
        }))
    }

    /// Mutable access to this holder's code: copies it first if another
    /// holder shares it, and drops its decoded body.
    pub fn make_mut(&mut self) -> &mut CodeObject {
        let cell = Arc::make_mut(&mut self.0);
        cell.body.take();
        &mut cell.code
    }

    /// Whether `a` and `b` are the same shared code object.
    pub fn ptr_eq(a: &SharedCode, b: &SharedCode) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The decoded body, decoded on the first call for every holder.
    pub(crate) fn body(&self) -> Option<Arc<DecodedBody>> {
        self.0
            .body
            .get_or_init(|| DecodedBody::from_code(&self.0.code).map(Arc::new))
            .clone()
    }
}

impl Deref for SharedCode {
    type Target = CodeObject;

    fn deref(&self) -> &CodeObject {
        &self.0.code
    }
}

impl fmt::Debug for SharedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One compiled method: which class's dictionary it installs into, under
/// which selector, with its code.
#[derive(Debug, Clone)]
pub struct MethodSource {
    /// The class whose dictionary receives the method.
    pub class: ClassId,
    /// The selector (abstract opcode) it answers.
    pub selector: Opcode,
    /// The compiled code.
    pub code: SharedCode,
}

/// A compiled program: class hierarchy, interning tables, and methods.
///
/// Images contain no memory addresses — code objects are stored into the
/// machine's object space at [`load`](crate::Machine::load) time, so one
/// image can boot any number of machines (the Fith machine consumes the
/// same structure through its own loader).
#[derive(Debug, Clone)]
pub struct ProgramImage {
    /// The class hierarchy (standard primitives installed; defined methods
    /// are added at load time from `methods`).
    pub classes: ClassTable,
    /// Interned atoms.
    pub atoms: AtomTable,
    /// Interned selectors.
    pub opcodes: OpcodeTable,
    /// Compiled methods to install.
    pub methods: Vec<MethodSource>,
}

impl ProgramImage {
    /// An empty image with standard primitives installed — the starting
    /// point for hand-assembled test programs.
    pub fn empty() -> Self {
        let mut classes = ClassTable::new();
        com_obj::install_standard_primitives(&mut classes);
        ProgramImage {
            classes,
            atoms: AtomTable::new(),
            opcodes: OpcodeTable::new(),
            methods: Vec::new(),
        }
    }

    /// Adds a method to the image.
    pub fn add_method(&mut self, class: ClassId, selector: Opcode, code: CodeObject) {
        self.methods.push(MethodSource {
            class,
            selector,
            code: SharedCode::new(code),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::{Assembler, Operand};
    use com_mem::Word;

    #[test]
    fn empty_image_has_primitives() {
        let img = ProgramImage::empty();
        let d = &img.classes.get(ClassId::SMALL_INT).unwrap().dict;
        assert!(d.lookup(Opcode::ADD).0.is_some());
        assert!(img.methods.is_empty());
    }

    #[test]
    fn make_mut_copies_shared_code_and_drops_its_decoded_body() {
        let mut asm = Assembler::new("t", 1);
        let k = asm.intern_const(Word::Int(2));
        asm.emit_three_ret(
            Opcode::MUL,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Const(k),
        )
        .unwrap();
        let mut a = SharedCode::new(asm.finish().unwrap());
        let b = a.clone();
        let shared = b.body().expect("integer constants decode");
        assert!(Arc::ptr_eq(&shared, &a.body().unwrap()), "one decode");

        a.make_mut().consts[0] = Word::Int(3);
        assert!(!SharedCode::ptr_eq(&a, &b));
        assert_eq!(b.consts[0], Word::Int(2));
        assert!(Arc::ptr_eq(&shared, &b.body().unwrap()));
        assert_eq!(a.body().unwrap().consts[0].0, Word::Int(3));

        // A sole holder writes in place, and still decodes afresh.
        a.make_mut().consts[0] = Word::Int(5);
        assert_eq!(a.body().unwrap().consts[0].0, Word::Int(5));
    }

    #[test]
    fn add_method_records_source() {
        let mut img = ProgramImage::empty();
        let code = Assembler::new("t", 1).finish().unwrap();
        img.add_method(ClassId::SMALL_INT, Opcode(100), code);
        assert_eq!(img.methods.len(), 1);
        assert_eq!(img.methods[0].selector, Opcode(100));
    }
}
