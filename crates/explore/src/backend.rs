//! The backend dispatch: one exploration contract, many engines.
//!
//! [`AnyBackend`] is the seam the api crate's `CheckRequest` plugs into:
//! every engine that can enumerate the reachable configurations of a
//! program under a memory model returns the same [`ExploreResult`]. The
//! request surface selects an engine along two orthogonal axes — an
//! [`Engine`] (who does the walking: the sequential reference or the
//! parallel engine) × a [`Reduction`] (how much of the state space the
//! walk may skip: none, sleep sets, or the finals-only source sets) —
//! and [`AnyBackend::run_invariant`] matches on the pair: the sequential
//! BFS ([`crate::engine`], with the sleep-set filter of [`crate::dpor`]
//! when asked), the parallel engine ([`crate::par`]) or the source-set
//! engine ([`crate::source`]).

use crate::engine::{explore_dpor_invariant, explore_invariant_with, ExploreConfig, ExploreResult};
use crate::par::parallel_explore_invariant;
use crate::source::explore_source_invariant;
use c11_core::config::Config;
use c11_core::model::MemoryModel;
use c11_lang::Prog;

/// Who does the walking: the two exploration engines proper, orthogonal
/// to the [`Reduction`] strategy layered on top.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The sequential reference engine (deterministic).
    #[default]
    Sequential,
    /// The contention-free parallel engine with `workers` threads.
    Parallel {
        /// Worker threads (clamped to ≥ 1).
        workers: usize,
    },
}

impl Engine {
    /// Every engine kind, in CLI order; the parallel entry carries the
    /// default worker count a bare `"parallel"` selects.
    pub const ALL: [Engine; 2] = [Engine::Sequential, Engine::Parallel { workers: 2 }];

    /// The CLI / JSON name of the engine kind (`"sequential"`,
    /// `"parallel"`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Parallel { .. } => "parallel",
        }
    }

    /// Parses a CLI / JSON engine kind; `"parallel"` gets 2 workers.
    pub fn parse(s: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == s)
    }
}

/// How much of the state space the walk may skip.
///
/// `None` and `SleepSet` preserve the full exhaustive contract (identical
/// states, finals, verdicts, violations); `SourceSet` trades the
/// intermediate states away under the finals-only contract (see
/// [`crate::source`]). The reductions run on the sequential engine —
/// combining them with [`Engine::Parallel`] is rejected at the request
/// layer (`c11_api`); this handle, which must stay total, runs the
/// reduction sequentially.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// No reduction: visit every reachable configuration.
    #[default]
    None,
    /// Sleep-set DPOR ([`crate::dpor`]): same states, fewer generated
    /// transitions.
    SleepSet,
    /// Source-set DPOR ([`crate::source`]): one execution per trace,
    /// finals-only contract.
    SourceSet,
}

impl Reduction {
    /// Every reduction, in CLI order.
    pub const ALL: [Reduction; 3] = [Reduction::None, Reduction::SleepSet, Reduction::SourceSet];

    /// The CLI / JSON name (`"none"`, `"sleep-set"`, `"source-set"`).
    pub fn name(&self) -> &'static str {
        match self {
            Reduction::None => "none",
            Reduction::SleepSet => "sleep-set",
            Reduction::SourceSet => "source-set",
        }
    }

    /// Parses a CLI / JSON reduction name.
    pub fn parse(s: &str) -> Option<Reduction> {
        Reduction::ALL.into_iter().find(|r| r.name() == s)
    }

    /// The report contract this reduction upholds.
    pub fn contract(&self) -> Contract {
        match self {
            Reduction::None | Reduction::SleepSet => Contract::Exhaustive,
            Reduction::SourceSet => Contract::FinalsOnly,
        }
    }

    /// The name of [`Reduction::contract`] (`"exhaustive"` or
    /// `"finals-only"`), as the report's `"reduction"` block spells it.
    pub fn contract_str(&self) -> &'static str {
        self.contract().name()
    }
}

/// The answer contract a report satisfies: what a request under a given
/// reduction is entitled to, and therefore what a cached report can
/// serve. Derived from the request's [`Reduction`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Contract {
    /// Every reachable configuration visited; `unique`/`generated` are
    /// the true state-space counts ([`Reduction::None`] and
    /// [`Reduction::SleepSet`]).
    #[default]
    Exhaustive,
    /// Finals, verdicts and violations exact; intermediate-state counts
    /// intentionally smaller ([`Reduction::SourceSet`]).
    FinalsOnly,
}

impl Contract {
    /// Every contract.
    pub const ALL: [Contract; 2] = [Contract::Exhaustive, Contract::FinalsOnly];

    /// The JSON name (`"exhaustive"`, `"finals-only"`).
    pub fn name(&self) -> &'static str {
        match self {
            Contract::Exhaustive => "exhaustive",
            Contract::FinalsOnly => "finals-only",
        }
    }

    /// Parses a JSON contract name.
    pub fn parse(s: &str) -> Option<Contract> {
        Contract::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// A pool-friendly engine handle: a `Copy`, `Send + Sync` *value* naming
/// an [`Engine`] × [`Reduction`] selection, usable for every memory
/// model at once.
///
/// Schedulers that multiplex many checking jobs over shared worker
/// threads (the api crate's `Session`) need one handle for every job,
/// although the model `M` differs per job (RA for one request, SC for
/// the next, both inside a litmus verdict). `AnyBackend` defers the
/// monomorphisation: ship the handle across the pool, then let each
/// run instantiate it at its own model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct AnyBackend {
    /// Who walks the state space.
    pub engine: Engine,
    /// How much of it the walk may skip.
    pub reduction: Reduction,
}

impl AnyBackend {
    /// The sequential engine, no reduction.
    pub fn sequential() -> AnyBackend {
        AnyBackend::default()
    }

    /// The parallel engine with `workers` threads, no reduction.
    pub fn parallel(workers: usize) -> AnyBackend {
        AnyBackend {
            engine: Engine::Parallel { workers },
            reduction: Reduction::None,
        }
    }

    /// The sequential engine with the sleep-set filter.
    pub fn sleep_set() -> AnyBackend {
        AnyBackend {
            engine: Engine::Sequential,
            reduction: Reduction::SleepSet,
        }
    }

    /// The source-set DPOR engine (sequential, finals-only contract).
    pub fn source_set() -> AnyBackend {
        AnyBackend {
            engine: Engine::Sequential,
            reduction: Reduction::SourceSet,
        }
    }
    /// A short human-readable name ("sequential", "parallel(4)",
    /// "sequential+sleep-set").
    pub fn name(&self) -> String {
        match (self.engine, self.reduction) {
            (engine @ Engine::Sequential, Reduction::None) => engine.name().to_string(),
            (Engine::Parallel { workers }, Reduction::None) => {
                format!("parallel({})", workers.max(1))
            }
            (engine, reduction) => format!("{}+{}", engine.name(), reduction.name()),
        }
    }

    /// Explores all reachable configurations of `prog` under `model`
    /// within `cfg`'s bounds, checking `inv` on each.
    ///
    /// The invariant is `Fn + Sync` (not `FnMut`) so one contract covers
    /// both sequential and parallel engines; accumulate findings through
    /// interior mutability (or use [`ExploreResult::violations`], which
    /// every engine fills).
    pub fn run_invariant<M, F>(
        &self,
        model: &M,
        prog: &Prog,
        cfg: &ExploreConfig,
        inv: &F,
    ) -> ExploreResult<M>
    where
        M: MemoryModel + Sync,
        M::State: Send + Sync,
        F: Fn(&Config<M>) -> bool + Sync + ?Sized,
    {
        match (self.engine, self.reduction) {
            (Engine::Sequential, Reduction::None) => {
                explore_invariant_with(model, prog, cfg, |c| inv(c))
            }
            (Engine::Parallel { workers }, Reduction::None) => {
                parallel_explore_invariant(model, prog, cfg, workers, inv)
            }
            // Reductions run on the sequential engine (the request
            // layer rejects Parallel × reduction before it gets here).
            (_, Reduction::SleepSet) => explore_dpor_invariant(model, prog, cfg, |c| inv(c)),
            (_, Reduction::SourceSet) => explore_source_invariant(model, prog, cfg, |c| inv(c)),
        }
    }

    /// Explores without an invariant.
    pub fn run<M>(&self, model: &M, prog: &Prog, cfg: &ExploreConfig) -> ExploreResult<M>
    where
        M: MemoryModel + Sync,
        M::State: Send + Sync,
    {
        self.run_invariant(model, prog, cfg, &|_: &Config<M>| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11_core::model::{RaModel, ScModel};
    use c11_lang::parse_program;

    /// The exhaustive handles agree with the sequential reference.
    #[test]
    fn backends_agree_through_the_dispatch() {
        let prog = parse_program(
            "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }",
        )
        .unwrap();
        let cfg = ExploreConfig::default();
        // The source-set handle is exercised separately: it keeps finals
        // and verdicts but intentionally not `unique`.
        let reference = AnyBackend::sequential().run(&RaModel, &prog, &cfg);
        for b in [AnyBackend::parallel(2), AnyBackend::sleep_set()] {
            let res = b.run(&RaModel, &prog, &cfg);
            assert_eq!(res.unique, reference.unique, "{}", b.name());
            assert_eq!(res.finals.len(), reference.finals.len(), "{}", b.name());
        }
    }

    #[test]
    fn dispatch_covers_store_based_models_too() {
        let prog = parse_program("vars x; thread t { x := 1; r0 <- x; }").unwrap();
        let cfg = ExploreConfig::default();
        let seq = AnyBackend::sequential().run(&ScModel, &prog, &cfg);
        let par = AnyBackend::parallel(2).run(&ScModel, &prog, &cfg);
        assert_eq!(seq.unique, par.unique);
    }

    #[test]
    fn any_backend_dispatches_across_the_engine_reduction_grid() {
        let prog = parse_program(
            "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }",
        )
        .unwrap();
        let cfg = ExploreConfig::default();
        let reference = explore_invariant_with(&RaModel, &prog, &cfg, |_| true);
        for handle in [
            AnyBackend::sequential(),
            AnyBackend::parallel(2),
            AnyBackend::sleep_set(),
        ] {
            // One Copy handle serves RA and SC without re-construction —
            // the property the session scheduler relies on.
            let ra = handle.run(&RaModel, &prog, &cfg);
            assert_eq!(ra.unique, reference.unique, "{:?}", handle);
            let sc = handle.run(&ScModel, &prog, &cfg);
            assert!(sc.unique <= ra.unique, "{:?}", handle);
        }
        // The source-set handle upholds the finals-only contract: same
        // finals, fewer (or equal) states.
        let src = AnyBackend::source_set().run(&RaModel, &prog, &cfg);
        assert_eq!(src.finals.len(), reference.finals.len());
        assert!(src.unique <= reference.unique);
        assert_eq!(AnyBackend::parallel(3).name(), "parallel(3)");
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(AnyBackend::sequential().name(), "sequential");
        assert_eq!(AnyBackend::parallel(4).name(), "parallel(4)");
        assert_eq!(AnyBackend::parallel(0).name(), "parallel(1)");
        assert_eq!(AnyBackend::sleep_set().name(), "sequential+sleep-set");
        assert_eq!(AnyBackend::source_set().name(), "sequential+source-set");
    }
}
