//! Static image verification and dataflow lint for COM program images.
//!
//! The machine (Dally & Kajiya's Caltech Object Machine) defends itself at
//! runtime with tagged words and typed traps; this crate moves the whole
//! class of *structurally* malformed images from runtime to load time. It
//! provides:
//!
//! - a structural **verifier** ([`verify_image`], [`verify_code`],
//!   [`verify_words`]) that checks every compiled method before the image
//!   is allowed near an engine: opcodes interned, branch targets
//!   in-bounds on instruction boundaries, operand slots inside the context
//!   geometry, constants resolvable, trap-handler arity correct. Failures
//!   are typed [`VerifyError`]s with method/offset provenance and stable
//!   `V00x` codes — never panics;
//! - reusable **dataflow analyses** over verified bodies ([`Cfg`],
//!   [`ReachingDefs`], [`Liveness`], [`ConstSlots`]);
//! - the **lints** behind the `vmlint` CLI ([`lint_image`]), with stable
//!   `L00x`/`I00x` diagnostic codes;
//! - the **interprocedural tier**: whole-image class inference
//!   ([`infer_image`]) over the closed class world, a call graph with
//!   every send site classified monomorphic / polymorphic / unresolvable
//!   ([`CallGraph`]), and a machine-readable facts artifact
//!   ([`ImageFacts`]) that downstream tooling takes as its input
//!   contract, written by the workspace's one JSON writer ([`JsonWriter`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod check;
pub mod dataflow;
mod error;
pub mod facts;
pub mod infer;
pub mod json;
pub mod lint;

pub use callgraph::{CallGraph, FuelBound};
pub use cfg::{Block, Cfg};
pub use check::{verify_code, verify_image, verify_words, MAX_SLOT};
pub use dataflow::{ConstSlots, ConstVal, DefSite, Liveness, PrimResolver, ReachingDefs};
pub use error::{Provenance, VerifyError, VerifyErrorKind};
pub use facts::ImageFacts;
pub use infer::{
    infer_image, ClassSet, ClassUniverse, Inference, Site, SiteKind, StaticResolver, Target,
};
pub use json::{JsonValue, JsonWriter};
pub use lint::{
    lint_code, lint_image, lint_image_with, DiagCode, Diagnostic, LintConfig, Severity,
};
