//! The Fith backend: stack code generation for the §5 baseline.
//!
//! The same AST compiles to a zero-address expression-stack program. All
//! control-flow messages are inlined (jumps are all the stack machine has);
//! general block objects are not supported on this backend — the paper's
//! stack-vs-three-address comparison (T3) runs on the block-free workloads.

use std::collections::HashMap;

use com_fith::{FithImage, FithInstr, FithMethod};
use com_isa::Opcode;
use com_mem::{AtomId, Word};

use crate::analysis::Analysis;
use crate::ast::{Block, ClassDef, Expr, MethodDef, Program, Stmt};
use crate::CompileError;

/// Compiles a program into a Fith image.
///
/// # Errors
///
/// Returns semantic errors; block literals outside inlinable control flow
/// are unsupported on the stack backend.
pub fn compile_fith_program(program: &Program) -> Result<FithImage, CompileError> {
    compile_fith_classes(&program.classes.iter().collect::<Vec<_>>())
}

/// [`compile_fith_program`] over a program given as its classes in
/// source order.
pub(crate) fn compile_fith_classes(classes: &[&ClassDef]) -> Result<FithImage, CompileError> {
    let mut analysis = Analysis::predefined();
    for def in classes {
        analysis.register(def)?;
    }
    let mut out = Vec::new();
    for class in classes {
        let class_id = analysis.layout(&class.name)?.id;
        for m in &class.methods {
            let sel = analysis.selector(&m.selector);
            let mut g = FithGen::new(&mut analysis, &class.name, m)?;
            let method = g.run(m)?;
            out.push((class_id, sel, method));
        }
    }
    let mut image = FithImage::empty();
    image.classes = analysis.classes;
    image.atoms = analysis.atoms;
    image.opcodes = analysis.opcodes;
    image.methods = out;
    Ok(image)
}

struct FithGen<'a> {
    analysis: &'a mut Analysis,
    class_name: String,
    code: Vec<FithInstr>,
    consts: Vec<Word>,
    locals: HashMap<String, u16>,
    n_locals: u16,
    ivars: HashMap<String, u16>,
}

/// An unresolved jump placeholder.
struct Patch {
    at: usize,
    conditional: bool,
}

impl<'a> FithGen<'a> {
    fn new(
        analysis: &'a mut Analysis,
        class_name: &str,
        method: &MethodDef,
    ) -> Result<Self, CompileError> {
        let mut locals = HashMap::new();
        let mut n: u16 = 1; // local 0 = self
        for p in &method.params {
            locals.insert(p.clone(), n);
            n += 1;
        }
        for t in &method.temps {
            locals.insert(t.clone(), n);
            n += 1;
        }
        let ivars = analysis.layout(class_name)?.ivars.clone();
        Ok(FithGen {
            analysis,
            class_name: class_name.to_string(),
            code: Vec::new(),
            consts: Vec::new(),
            locals,
            n_locals: n,
            ivars,
        })
    }

    fn run(&mut self, method: &MethodDef) -> Result<FithMethod, CompileError> {
        for stmt in &method.body {
            match stmt {
                Stmt::Return(e) => {
                    self.gen_expr(e)?;
                    self.code.push(FithInstr::ReturnTop);
                }
                Stmt::Expr(e) => {
                    self.gen_expr(e)?;
                    self.code.push(FithInstr::Drop);
                }
            }
        }
        if !matches!(method.body.last(), Some(Stmt::Return(_))) {
            self.code.push(FithInstr::PushLocal(0));
            self.code.push(FithInstr::ReturnTop);
        }
        Ok(FithMethod {
            name: format!("{}>>{}", self.class_name, method.selector),
            n_args: method.params.len() as u8,
            n_locals: self.n_locals,
            code: std::mem::take(&mut self.code),
            consts: std::mem::take(&mut self.consts),
        })
    }

    fn konst(&mut self, w: Word) -> u16 {
        if let Some(i) = self.consts.iter().position(|c| *c == w) {
            return i as u16;
        }
        self.consts.push(w);
        (self.consts.len() - 1) as u16
    }

    fn push_const(&mut self, w: Word) {
        let k = self.konst(w);
        self.code.push(FithInstr::PushConst(k));
    }

    fn alloc_local(&mut self) -> u16 {
        let l = self.n_locals;
        self.n_locals += 1;
        l
    }

    fn jump_placeholder(&mut self, conditional: bool) -> Patch {
        let at = self.code.len();
        self.code.push(if conditional {
            FithInstr::JumpIfFalse(0)
        } else {
            FithInstr::Jump(0)
        });
        Patch { at, conditional }
    }

    fn patch_to_here(&mut self, p: Patch) {
        let disp = self.code.len() as i32 - (p.at as i32 + 1);
        self.code[p.at] = if p.conditional {
            FithInstr::JumpIfFalse(disp)
        } else {
            FithInstr::Jump(disp)
        };
    }

    fn gen_expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Int(i) => {
                self.push_const(Word::Int(*i));
            }
            Expr::Float(x) => {
                self.push_const(Word::Float(*x));
            }
            Expr::True => self.push_const(Word::from(true)),
            Expr::False => self.push_const(Word::from(false)),
            Expr::Nil => self.push_const(Word::Atom(AtomId(2))),
            Expr::Atom(name) => {
                let id = self.analysis.atoms.intern(name);
                self.push_const(Word::Atom(id));
            }
            Expr::SelfRef => self.code.push(FithInstr::PushLocal(0)),
            Expr::ClassRef(name) => {
                let id = self.analysis.layout(name)?.id;
                self.push_const(Word::Int(id.0 as i64));
            }
            Expr::Var(name) => self.gen_var_read(name)?,
            Expr::Assign(name, value) => {
                self.gen_expr(value)?;
                self.gen_store(name, true)?;
            }
            Expr::Send {
                recv,
                selector,
                args,
            } => self.gen_send(recv, selector, args)?,
            Expr::Block(_) => {
                return Err(CompileError::sem(
                    "general blocks are not supported by the Fith (stack) backend",
                ))
            }
        }
        Ok(())
    }

    fn gen_var_read(&mut self, name: &str) -> Result<(), CompileError> {
        if let Some(l) = self.locals.get(name) {
            self.code.push(FithInstr::PushLocal(*l));
            return Ok(());
        }
        if let Some(idx) = self.ivars.get(name).copied() {
            self.code.push(FithInstr::PushLocal(0));
            self.push_const(Word::Int(idx as i64));
            self.code.push(FithInstr::Send {
                op: Opcode::RAWAT,
                nargs: 1,
            });
            return Ok(());
        }
        Err(CompileError::sem(format!(
            "unknown variable {name} in {}",
            self.class_name
        )))
    }

    /// Stores the top of stack into `name`; when `keep`, the value remains
    /// on the stack as the assignment expression's value.
    fn gen_store(&mut self, name: &str, keep: bool) -> Result<(), CompileError> {
        if let Some(l) = self.locals.get(name).copied() {
            if keep {
                self.code.push(FithInstr::Dup);
            }
            self.code.push(FithInstr::StoreLocal(l));
            return Ok(());
        }
        if let Some(idx) = self.ivars.get(name).copied() {
            // value is on stack; at:put: wants ptr, idx, value.
            let tmp = self.alloc_local();
            self.code.push(FithInstr::StoreLocal(tmp));
            self.code.push(FithInstr::PushLocal(0));
            self.push_const(Word::Int(idx as i64));
            self.code.push(FithInstr::PushLocal(tmp));
            self.code.push(FithInstr::Send {
                op: Opcode::RAWATPUT,
                nargs: 2,
            });
            // at:put: leaves the value on the stack.
            if !keep {
                self.code.push(FithInstr::Drop);
                // keep == false callers expect nothing pushed; but Drop
                // removed the value so the net effect is none. When keep,
                // the value stays.
            }
            return Ok(());
        }
        Err(CompileError::sem(format!(
            "unknown variable {name} in {}",
            self.class_name
        )))
    }

    fn gen_send(&mut self, recv: &Expr, selector: &str, args: &[Expr]) -> Result<(), CompileError> {
        if let Expr::ClassRef(name) = recv {
            if selector == "new" || selector == "new:" {
                return self.gen_new(name, args.first());
            }
        }
        match selector {
            "ifTrue:" | "ifFalse:" | "ifTrue:ifFalse:" | "and:" | "or:" => {
                return self.gen_conditional(recv, selector, args)
            }
            "whileTrue:" => {
                if let (Some(c), Some(b)) = (recv.as_block(), args[0].as_block()) {
                    return self.gen_while(c, b);
                }
                return Err(CompileError::sem(
                    "whileTrue: requires block receiver and argument",
                ));
            }
            "timesRepeat:" => {
                if let Some(b) = args[0].as_block() {
                    return self.gen_times_repeat(recv, b);
                }
                return Err(CompileError::sem("timesRepeat: requires a block argument"));
            }
            "to:do:" => {
                if let Some(b) = args[1].as_block() {
                    return self.gen_to_do(recv, &args[0], b);
                }
                return Err(CompileError::sem("to:do: requires a block argument"));
            }
            _ => {}
        }
        self.gen_expr(recv)?;
        for a in args {
            self.gen_expr(a)?;
        }
        let op = self.analysis.selector(selector);
        self.code.push(FithInstr::Send {
            op,
            nargs: args.len() as u8,
        });
        Ok(())
    }

    fn gen_new(&mut self, class_name: &str, size: Option<&Expr>) -> Result<(), CompileError> {
        let layout = self.analysis.layout(class_name)?.clone();
        self.push_const(Word::Int(layout.id.0 as i64));
        match size {
            None => self.push_const(Word::Int(layout.total_ivars as i64)),
            Some(e) => {
                self.gen_expr(e)?;
                if layout.total_ivars > 0 {
                    self.push_const(Word::Int(layout.total_ivars as i64));
                    self.code.push(FithInstr::Send {
                        op: Opcode::ADD,
                        nargs: 1,
                    });
                }
            }
        }
        self.code.push(FithInstr::Send {
            op: Opcode::NEW,
            nargs: 1,
        });
        Ok(())
    }

    fn gen_inline_block_value(&mut self, b: &Block) -> Result<(), CompileError> {
        // Inline block evaluating to its last expression (or nil).
        let n = b.body.len();
        if n == 0 {
            self.push_const(Word::Atom(AtomId(2)));
            return Ok(());
        }
        for (i, stmt) in b.body.iter().enumerate() {
            match stmt {
                Stmt::Return(e) => {
                    self.gen_expr(e)?;
                    self.code.push(FithInstr::ReturnTop);
                    if i == n - 1 {
                        // Unreachable value for the expression position.
                        self.push_const(Word::Atom(AtomId(2)));
                    }
                }
                Stmt::Expr(e) => {
                    self.gen_expr(e)?;
                    if i != n - 1 {
                        self.code.push(FithInstr::Drop);
                    }
                }
            }
        }
        Ok(())
    }

    fn gen_conditional(
        &mut self,
        recv: &Expr,
        selector: &str,
        args: &[Expr],
    ) -> Result<(), CompileError> {
        let (then_arm, else_arm): (Option<&Block>, Option<&Block>) = match selector {
            "ifTrue:" | "and:" => (args[0].as_block(), None),
            "ifFalse:" | "or:" => (None, args[0].as_block()),
            "ifTrue:ifFalse:" => (args[0].as_block(), args[1].as_block()),
            _ => unreachable!("filtered by caller"),
        };
        self.gen_expr(recv)?;
        let to_else = self.jump_placeholder(true);
        // condition true:
        match (selector, then_arm) {
            ("or:", _) => self.push_const(Word::from(true)),
            (_, Some(b)) => self.gen_inline_block_value(b)?,
            (_, None) => self.push_const(Word::Atom(AtomId(2))),
        }
        let to_end = self.jump_placeholder(false);
        self.patch_to_here(to_else);
        // condition false:
        match (selector, else_arm) {
            ("and:", _) => self.push_const(Word::from(false)),
            (_, Some(b)) => self.gen_inline_block_value(b)?,
            (_, None) => self.push_const(Word::Atom(AtomId(2))),
        }
        self.patch_to_here(to_end);
        Ok(())
    }

    fn gen_while(&mut self, cond: &Block, body: &Block) -> Result<(), CompileError> {
        let top = self.code.len();
        self.gen_inline_block_value(cond)?;
        let exit = self.jump_placeholder(true);
        self.gen_inline_block_value(body)?;
        self.code.push(FithInstr::Drop);
        let back = self.code.len() as i32;
        self.code.push(FithInstr::Jump(top as i32 - (back + 1)));
        self.patch_to_here(exit);
        self.push_const(Word::Atom(AtomId(2)));
        Ok(())
    }

    fn gen_times_repeat(&mut self, count: &Expr, body: &Block) -> Result<(), CompileError> {
        let i = self.alloc_local();
        let n = self.alloc_local();
        self.gen_expr(count)?;
        self.code.push(FithInstr::StoreLocal(n));
        self.push_const(Word::Int(0));
        self.code.push(FithInstr::StoreLocal(i));
        let top = self.code.len();
        self.code.push(FithInstr::PushLocal(i));
        self.code.push(FithInstr::PushLocal(n));
        self.code.push(FithInstr::Send {
            op: Opcode::LT,
            nargs: 1,
        });
        let exit = self.jump_placeholder(true);
        self.gen_inline_block_value(body)?;
        self.code.push(FithInstr::Drop);
        self.code.push(FithInstr::PushLocal(i));
        self.push_const(Word::Int(1));
        self.code.push(FithInstr::Send {
            op: Opcode::ADD,
            nargs: 1,
        });
        self.code.push(FithInstr::StoreLocal(i));
        let back = self.code.len() as i32;
        self.code.push(FithInstr::Jump(top as i32 - (back + 1)));
        self.patch_to_here(exit);
        self.push_const(Word::Atom(AtomId(2)));
        Ok(())
    }

    fn gen_to_do(&mut self, from: &Expr, to: &Expr, body: &Block) -> Result<(), CompileError> {
        if body.params.len() != 1 {
            return Err(CompileError::sem(
                "to:do: block takes exactly one parameter",
            ));
        }
        let i = self.alloc_local();
        let limit = self.alloc_local();
        // Bind the block parameter to the loop local.
        let saved = self.locals.insert(body.params[0].clone(), i);
        self.gen_expr(from)?;
        self.code.push(FithInstr::StoreLocal(i));
        self.gen_expr(to)?;
        self.code.push(FithInstr::StoreLocal(limit));
        let top = self.code.len();
        self.code.push(FithInstr::PushLocal(i));
        self.code.push(FithInstr::PushLocal(limit));
        self.code.push(FithInstr::Send {
            op: Opcode::LE,
            nargs: 1,
        });
        let exit = self.jump_placeholder(true);
        self.gen_inline_block_value(body)?;
        self.code.push(FithInstr::Drop);
        self.code.push(FithInstr::PushLocal(i));
        self.push_const(Word::Int(1));
        self.code.push(FithInstr::Send {
            op: Opcode::ADD,
            nargs: 1,
        });
        self.code.push(FithInstr::StoreLocal(i));
        let back = self.code.len() as i32;
        self.code.push(FithInstr::Jump(top as i32 - (back + 1)));
        self.patch_to_here(exit);
        self.push_const(Word::Atom(AtomId(2)));
        match saved {
            Some(old) => {
                self.locals.insert(body.params[0].clone(), old);
            }
            None => {
                self.locals.remove(&body.params[0]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use com_fith::FithMachine;

    fn run_fith(src: &str, selector: &str, recv: Word, args: &[Word]) -> Word {
        let program = parse(src).unwrap();
        let image = compile_fith_program(&program).unwrap();
        let mut m = FithMachine::new(&image);
        m.send(&image, selector, recv, args, 10_000_000)
            .unwrap()
            .result
    }

    #[test]
    fn arithmetic_method() {
        let src = "class SmallInteger method double ^self + self end end";
        assert_eq!(run_fith(src, "double", Word::Int(21), &[]), Word::Int(42));
    }

    #[test]
    fn loops_and_temps() {
        let src = r#"
            class SmallInteger
              method sumto | acc i |
                acc := 0. i := 1.
                [ i <= self ] whileTrue: [ acc := acc + i. i := i + 1 ].
                ^acc
              end
            end
        "#;
        assert_eq!(run_fith(src, "sumto", Word::Int(100), &[]), Word::Int(5050));
    }

    #[test]
    fn conditionals() {
        let src = r#"
            class SmallInteger
              method mymax: other
                self > other ifTrue: [ ^self ] ifFalse: [ ^other ]
              end
            end
        "#;
        assert_eq!(
            run_fith(src, "mymax:", Word::Int(3), &[Word::Int(9)]),
            Word::Int(9)
        );
    }

    #[test]
    fn ivars_and_objects() {
        let src = r#"
            class Counter extends Object vars n
              method bump n := n nilToZero + 1. ^n end
            end
            class Atom
              method nilToZero ^0 end
            end
            class SmallInteger
              method nilToZero ^self end
            end
            class UndefinedObject
              method nilToZero ^0 end
            end
            class Driver extends Object
              method go | c |
                c := Counter new.
                c bump. c bump. ^c bump
              end
            end
        "#;
        let program = parse(src).unwrap();
        let image = compile_fith_program(&program).unwrap();
        let mut m = FithMachine::new(&image);
        let driver = image.classes.by_name("Driver").unwrap();
        let obj = m
            .space_mut()
            .create(com_mem::TeamId(0), driver, 1, com_mem::AllocKind::Object)
            .unwrap();
        let out = m
            .send(&image, "go", Word::Ptr(obj), &[], 10_000_000)
            .unwrap();
        assert_eq!(out.result, Word::Int(3));
    }

    #[test]
    fn general_blocks_rejected() {
        let src = "class T method m | b | b := [ 1 ]. ^b value end end";
        let program = parse(src).unwrap();
        assert!(compile_fith_program(&program).is_err());
    }

    #[test]
    fn to_do_loops() {
        let src = r#"
            class SmallInteger
              method squaresum | acc |
                acc := 0.
                1 to: self do: [ :i | acc := acc + (i * i) ].
                ^acc
              end
            end
        "#;
        assert_eq!(
            run_fith(src, "squaresum", Word::Int(10), &[]),
            Word::Int(385)
        );
    }
}
