//! # ickp-spec — the checkpoint specializer
//!
//! Rust reproduction of JSpec/Tempo as used in *Lawall & Muller (DSN
//! 2000)*: automatic program specialization of the generic checkpointing
//! code of `ickp-core` with respect to
//!
//! 1. the **structure** of compound objects ([`SpecShape`]) — replaces
//!    virtual `record`/`fold` calls by inlined, slot-indexed loads; and
//! 2. the **modification pattern** of a program phase ([`NodePattern`],
//!    [`ListPattern`]) — deletes modified-flag tests and whole subtree
//!    traversals that the pattern proves dead.
//!
//! The pipeline mirrors the paper's Figure 3:
//!
//! ```text
//! SpecShape (specialization classes)
//!    │  validate               (JSCC's checking)
//!    ▼
//! bta::divide  → Division      (Tempo's binding-time analysis)
//!    │
//!    ▼
//! Specializer::compile → Plan  (Tempo specialization + inlining)
//!    │                     │
//!    │                     └─ residual::render → Java-like source (Figs. 5/6)
//!    ▼
//! PlanExecutor / SpecializedCheckpointer   (the optimized checkpointer)
//! ```
//!
//! ## Example
//!
//! ```
//! use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
//! use ickp_spec::{
//!     GuardMode, ListPattern, NodePattern, SpecShape, SpecializedCheckpointer, Specializer,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = ClassRegistry::new();
//! let elem = reg.define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])?;
//! let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))])?;
//! let mut heap = Heap::new(reg);
//!
//! // Build: holder -> e0 -> e1
//! let e1 = heap.alloc(elem)?;
//! let e0 = heap.alloc(elem)?;
//! heap.set_field(e0, 1, Value::Ref(Some(e1)))?;
//! let h = heap.alloc(holder)?;
//! heap.set_field(h, 0, Value::Ref(Some(e0)))?;
//!
//! // Declare the shape: this phase modifies only the last element.
//! let shape = SpecShape::object(
//!     holder,
//!     NodePattern::FrozenHere,
//!     vec![(0, SpecShape::list(elem, 1, 2, ListPattern::LastOnly))],
//! );
//! let plan = Specializer::new(heap.registry()).compile(&shape)?;
//!
//! heap.reset_all_modified();
//! heap.set_field(e1, 0, Value::Int(7))?; // dirty the tail
//!
//! let mut ckp = SpecializedCheckpointer::new(GuardMode::Checked);
//! let rec = ckp.checkpoint(&mut heap, &plan, &[h], None)?;
//! assert_eq!(rec.stats().objects_recorded, 1);
//! assert_eq!(rec.stats().flag_tests, 1);     // only the tail is tested
//! assert_eq!(rec.stats().virtual_calls, 0);  // no dispatch at all
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bta;
mod compile;
mod driver;
mod error;
mod infer;
mod opt;
mod phase;
mod plan;
mod residual;
mod shape;

pub use bta::{divide, BindingTime, Division, DivisionEntry};
pub use compile::Specializer;
pub use driver::{FallbackOutcome, SpecializedCheckpointer};
pub use error::SpecError;
pub use infer::ProfileRecorder;
pub use opt::compact_registers;
pub use phase::PhasePlans;
pub use plan::{record_with_template, GuardMode, Op, Plan, PlanExecutor, RecordTemplate, Reg};
pub use residual::render;
pub use shape::{ListPattern, NodePattern, SpecShape};
