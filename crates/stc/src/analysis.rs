//! Shared semantic analysis: class ids, instance-variable layout, selector
//! interning — used by both backends.

use std::collections::HashMap;

use com_isa::{Opcode, OpcodeTable};
use com_mem::ClassId;
use com_obj::{AtomTable, ClassTable};

use crate::ast::{ClassDef, Program};
use crate::CompileError;

/// Per-class compile-time layout.
#[derive(Debug, Clone)]
pub struct ClassLayout {
    /// The class id.
    pub id: ClassId,
    /// Instance variable name → absolute word index (superclass ivars
    /// first).
    pub ivars: HashMap<String, u16>,
    /// Total instance variables including inherited.
    pub total_ivars: u16,
}

/// The analysed program: hierarchy built, layouts computed.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The class table (hierarchy + standard primitives).
    pub classes: ClassTable,
    /// Interned atoms.
    pub atoms: AtomTable,
    /// Interned selectors.
    pub opcodes: OpcodeTable,
    /// Layouts by class name.
    pub layouts: HashMap<String, ClassLayout>,
}

impl Analysis {
    /// Resolves a source selector to an opcode, mapping the raw-storage
    /// spellings onto their machine opcodes.
    pub fn selector(&mut self, name: &str) -> Opcode {
        match name {
            "rawGrow:" => Opcode::GROW,
            other => self.opcodes.intern(other),
        }
    }

    /// The layout for a class name.
    ///
    /// # Errors
    ///
    /// Returns a semantic error for unknown classes.
    pub fn layout(&self, name: &str) -> Result<&ClassLayout, CompileError> {
        self.layouts
            .get(name)
            .ok_or_else(|| CompileError::sem(format!("unknown class {name}")))
    }

    /// The predefined classes only: the machine's primitives and
    /// `Context`, nothing interned.
    pub fn predefined() -> Analysis {
        let mut classes = ClassTable::new();
        com_obj::install_standard_primitives(&mut classes);
        let mut layouts: HashMap<String, ClassLayout> = HashMap::new();

        // Register the predefined classes so extensions and layouts resolve.
        for name in [
            "Object",
            "UndefinedObject",
            "SmallInteger",
            "Float",
            "Atom",
            "Instruction",
        ] {
            let id = classes.by_name(name).expect("predefined");
            layouts.insert(
                name.to_string(),
                ClassLayout {
                    id,
                    ivars: HashMap::new(),
                    total_ivars: 0,
                },
            );
        }
        // The machine defines Context at load time; give the compiler a view
        // of it so block home pointers can be reasoned about if needed.
        let ctx = classes
            .define("Context", Some(ClassTable::OBJECT), 0)
            .expect("Context is not predefined");
        layouts.insert(
            "Context".into(),
            ClassLayout {
                id: ctx,
                ivars: HashMap::new(),
                total_ivars: 0,
            },
        );
        Analysis {
            classes,
            atoms: AtomTable::new(),
            opcodes: OpcodeTable::new(),
            layouts,
        }
    }

    /// Adds one class definition to the hierarchy.
    ///
    /// A `class X` with no `extends` clause *extends* an existing class `X`
    /// when one is already defined (used to add methods to `SmallInteger`,
    /// `Float`, `Atom`, `Object`); otherwise it defines a fresh subclass of
    /// `Object`.
    ///
    /// # Errors
    ///
    /// Returns semantic errors for unknown superclasses, duplicate
    /// definitions with conflicting shapes, or ivar redeclaration.
    pub fn register(&mut self, def: &ClassDef) -> Result<(), CompileError> {
        if def.superclass.is_none() && self.layouts.contains_key(&def.name) {
            // Extension of an existing class: no new ivars allowed.
            if !def.ivars.is_empty() {
                return Err(CompileError::sem(format!(
                    "extension of {} cannot add instance variables",
                    def.name
                )));
            }
            return Ok(());
        }
        let super_name = def.superclass.as_deref().unwrap_or("Object");
        let parent = self
            .layouts
            .get(super_name)
            .ok_or_else(|| CompileError::sem(format!("unknown superclass {super_name}")))?
            .clone();
        if self.layouts.contains_key(&def.name) && def.superclass.is_some() {
            return Err(CompileError::sem(format!(
                "class {} is already defined",
                def.name
            )));
        }
        let id = self
            .classes
            .define(&def.name, Some(parent.id), def.ivars.len() as u16)
            .map_err(CompileError::sem)?;
        let mut ivars = parent.ivars.clone();
        for (i, name) in def.ivars.iter().enumerate() {
            if ivars
                .insert(name.clone(), parent.total_ivars + i as u16)
                .is_some()
            {
                return Err(CompileError::sem(format!(
                    "instance variable {name} shadows an inherited one in {}",
                    def.name
                )));
            }
        }
        self.layouts.insert(
            def.name.clone(),
            ClassLayout {
                id,
                ivars,
                total_ivars: parent.total_ivars + def.ivars.len() as u16,
            },
        );
        Ok(())
    }
}

/// Builds the class hierarchy and layouts of `program`.
///
/// # Errors
///
/// See [`Analysis::register`].
pub fn analyze(program: &Program) -> Result<Analysis, CompileError> {
    let mut analysis = Analysis::predefined();
    for def in &program.classes {
        analysis.register(def)?;
    }
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn layouts_accumulate_through_inheritance() {
        let p = parse(
            "class A vars x y end
             class B extends A vars z end",
        )
        .unwrap();
        let a = analyze(&p).unwrap();
        let b = a.layout("B").unwrap();
        assert_eq!(b.total_ivars, 3);
        assert_eq!(b.ivars["x"], 0);
        assert_eq!(b.ivars["z"], 2);
    }

    #[test]
    fn extensions_reuse_predefined_classes() {
        let p = parse("class SmallInteger method double ^self + self end end").unwrap();
        let a = analyze(&p).unwrap();
        assert_eq!(a.layout("SmallInteger").unwrap().id, ClassId::SMALL_INT);
    }

    #[test]
    fn unknown_superclass_is_an_error() {
        let p = parse("class A extends Missing end").unwrap();
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn raw_selectors_map_to_machine_opcodes() {
        let p = Program::default();
        let mut a = analyze(&p).unwrap();
        assert_eq!(a.selector("rawAt:"), Opcode::RAWAT);
        assert_eq!(a.selector("rawAt:put:"), Opcode::RAWATPUT);
        assert_eq!(a.selector("rawGrow:"), Opcode::GROW);
        assert_eq!(a.selector("+"), Opcode::ADD);
        assert!(a.selector("frob:").is_user());
    }
}
