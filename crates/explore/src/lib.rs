//! Exhaustive exploration (bounded model checking) of interpreted-semantics
//! configurations.
//!
//! The paper's verification method reasons inductively over the transitions
//! of the operational semantics; this crate provides the machinery to
//! *mechanically* quantify over those transitions: breadth-first
//! enumeration of every reachable configuration `(P, σ)` with
//! canonical-state deduplication, invariant checking with counterexample
//! traces, and loop bounding via the memory state's event count.
//!
//! Exploration is generic in the memory model (RA, pre-execution, SC), so
//! the same engine drives the litmus runner (E14), the soundness sweep
//! (E6), the completeness construction (E7), the Peterson verification
//! (E11) and the benchmark baselines (E13).
//!
//! One handle, [`AnyBackend`], dispatches along two orthogonal axes
//! ([`Engine`] × [`Reduction`]) to three exploration cores: the
//! sequential breadth-first search ([`engine`]), into which the
//! sleep-set partial-order reduction ([`dpor`]) plugs as a successor
//! filter that visits the same states through fewer transitions; the
//! contention-free parallel engine ([`par`]); and the source-set engine
//! ([`source`]) that explores one execution per Mazurkiewicz trace
//! under the finals-only contract.

pub mod backend;
pub mod budget;
pub mod dpor;
pub mod engine;
pub mod par;
pub mod source;
pub mod stats;
pub mod sym;

pub use backend::{AnyBackend, Contract, Engine, Reduction};
pub use budget::{Budget, Interrupt};
pub use c11_store::{StoreKind, StoreStats};
pub use engine::{
    explore_dpor, explore_dpor_invariant, explore_invariant_with, render_trace, ExploreConfig,
    ExploreResult, Explorer, RegSnapshot, TraceStep,
};
pub use par::{parallel_explore, parallel_explore_invariant};
pub use source::{explore_source, explore_source_invariant};
pub use stats::Stats;
pub use sym::SymClasses;
