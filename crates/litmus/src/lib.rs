//! A litmus-test corpus for the RAR fragment, with expected verdicts under
//! the operational RA semantics and under the SC baseline.
//!
//! Each test is a program in the `c11-lang` DSL plus a conjunction of
//! observations over final registers / final variable values, and the
//! *expected* verdict (allowed / forbidden) for both models. The runner
//! explores the full (bounded) state space and compares.
//!
//! The corpus covers the standard weak-memory shapes the RAR fragment is
//! distinguished by: message passing (relaxed vs release-acquire), store
//! buffering, load buffering (excluded by NoThinAir), the coherence
//! shapes, IRIW (allowed under RA — it needs SC atomics to forbid), 2+2W,
//! WRC, and RMW-based variants.

pub mod corpus;
pub mod format;
pub mod runner;

pub use corpus::{corpus, Cond, LitmusTest, Verdict};
pub use format::{load_litmus_dir, load_litmus_file, parse_litmus, FormatError, MAX_LITMUS_BYTES};
pub use runner::{
    outcome_holds_ra, outcome_holds_ra_orbit, outcome_holds_sc, outcome_holds_sc_orbit, run_corpus,
    run_test, run_test_backend, run_test_configured, LitmusResult,
};
