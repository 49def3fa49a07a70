//! The one front door: a `CheckRequest → CheckReport` session API over
//! every engine in the workspace.
//!
//! The paper's value is *one semantics answered many ways* — exhaustive RA
//! exploration, the SC baseline, invariant proofs, litmus verdicts. This
//! crate gives those ways a single structured request/response surface:
//!
//! ```
//! use c11_api::{CheckReport, CheckRequest, Engine, ModelChoice, Mode};
//!
//! let report = CheckRequest::program(
//!     "vars d f;
//!      thread t1 { d := 5; f :=R 1; }
//!      thread t2 { r0 <-A f; r1 <- d; }",
//! )
//! .model(ModelChoice::Ra)
//! .engine(Engine::Parallel { workers: 2 })
//! .mode(Mode::Outcomes)
//! .run()
//! .unwrap();
//!
//! let CheckReport::Outcomes(o) = &report else { unreachable!() };
//! assert!(!o.stats.truncated);
//! assert!(report.to_json().starts_with("{\"schema\":\"c11check/v1\""));
//! ```
//!
//! Every run produces a [`CheckReport`] carrying the shared
//! [`Stats`] vocabulary and a hand-rolled, offline-safe
//! [`CheckReport::to_json`] (schema documented in the README).

pub mod batch;
pub mod json;
pub mod net;
pub(crate) mod persist;
pub mod session;

pub use batch::{BatchReport, BatchRequest, BatchStats};
pub use session::{JobId, Session, SessionConfig, SessionStats};

use c11_axiomatic::axioms::is_valid;
use c11_core::config::Config;
use c11_core::dot::to_dot;
use c11_core::fingerprint::{combine128, fingerprint_prog, hash128_of};
use c11_core::model::{MemoryModel, PreExecutionModel, RaModel, ScModel};
use c11_explore::{
    AnyBackend, Budget, ExploreConfig, ExploreResult, Interrupt, RegSnapshot, Stats,
};
pub use c11_explore::{Contract, Engine, Reduction, StoreKind, StoreStats};
use c11_lang::step::RegFile;
use c11_lang::{parse_program, Prog, RegId, ThreadId, Val};
use c11_litmus::{run_test_configured, LitmusTest, Verdict};
use json::Json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which memory model answers the request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ModelChoice {
    /// The paper's operational RA semantics (§3).
    #[default]
    Ra,
    /// The sequentially consistent baseline (§5's "conventional setting").
    Sc,
    /// The pre-execution semantics (§4.1; reads return any universe value).
    PreExecution,
}

impl ModelChoice {
    /// Every model, in request-schema order.
    pub const ALL: [ModelChoice; 3] = [ModelChoice::Ra, ModelChoice::Sc, ModelChoice::PreExecution];

    /// The JSON name (`"ra"`, `"sc"`, `"pre-execution"`).
    pub fn name(&self) -> &'static str {
        match self {
            ModelChoice::Ra => "ra",
            ModelChoice::Sc => "sc",
            ModelChoice::PreExecution => "pre-execution",
        }
    }

    /// Parses a JSON model name.
    pub fn parse(s: &str) -> Option<ModelChoice> {
        ModelChoice::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Exploration bounds, mirroring [`ExploreConfig`]'s knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Bounds {
    /// Stop expanding states with this many events (spin-loop bound).
    pub max_events: usize,
    /// Hard cap on distinct configurations visited.
    pub max_states: usize,
    /// BFS depth cap (store-based models whose states do not grow).
    pub max_depth: usize,
    /// Which visited-store backend deduplicates configurations.
    pub store: StoreKind,
    /// Quotient visited states by thread-permutation symmetry. Changes
    /// `unique`/`generated` counts (that is the point); verdicts and
    /// outcome multisets are unchanged. Ignored by models without exact
    /// relabelling support.
    pub symmetry: bool,
}

impl Default for Bounds {
    fn default() -> Self {
        let d = ExploreConfig::default();
        Bounds {
            max_events: d.max_events,
            max_states: d.max_states,
            max_depth: d.max_depth,
            store: d.store,
            symmetry: d.symmetry,
        }
    }
}

impl Bounds {
    /// Sets the event bound (chainable).
    pub fn max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Sets the state cap (chainable).
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Sets the depth bound (chainable).
    pub fn max_depth(mut self, n: usize) -> Self {
        self.max_depth = n;
        self
    }

    /// Selects the visited-store backend (chainable).
    pub fn store(mut self, k: StoreKind) -> Self {
        self.store = k;
        self
    }

    /// Enables symmetry quotienting (chainable).
    pub fn symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    fn explore_config(&self) -> ExploreConfig {
        ExploreConfig::default()
            .max_events(self.max_events)
            .max_states(self.max_states)
            .max_depth(self.max_depth)
            .store(self.store)
            .symmetry(self.symmetry)
    }
}

/// A model-agnostic view of a configuration for invariant checking:
/// program counters and register files (the vocabulary pc-style mutual
/// exclusion properties are written in).
pub struct ConfigView<'a> {
    pcs: Vec<Option<u32>>,
    regs: &'a [RegFile],
}

impl<'a> ConfigView<'a> {
    fn of<M: MemoryModel>(c: &'a Config<M>) -> ConfigView<'a> {
        ConfigView {
            pcs: c.thread_ids().map(|t| c.pc(t)).collect(),
            regs: &c.regs,
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.pcs.len()
    }

    /// Program counter of thread `t` (label of its leftmost active
    /// statement), `None` when terminated/unlabelled.
    pub fn pc(&self, t: ThreadId) -> Option<u32> {
        self.pcs.get(t.0 as usize - 1).copied().flatten()
    }

    /// Current value of register `r` of thread `t`.
    pub fn reg(&self, t: ThreadId, r: RegId) -> Option<Val> {
        self.regs.get(t.0 as usize - 1).map(|f| f.get(r))
    }
}

/// The shared predicate type behind an [`Invariant`].
pub(crate) type PredFn = Arc<dyn Fn(&ConfigView) -> bool + Send + Sync>;

/// A named predicate over [`ConfigView`]s, checked on every reachable
/// configuration in [`Mode::Invariant`].
#[derive(Clone)]
pub struct Invariant {
    name: String,
    pred: PredFn,
}

impl Invariant {
    /// The shared predicate, for result-cache keys: clones of one
    /// [`Invariant`] share the `Arc`, so they (and only they) are
    /// guaranteed to be the same predicate — names alone are not. The
    /// cache key holds the `Arc` itself (not just its address), keeping
    /// the allocation alive so a recycled heap address can never alias
    /// a dropped predicate's cached report.
    pub(crate) fn shared_pred(&self) -> PredFn {
        self.pred.clone()
    }
}

impl Invariant {
    /// A named invariant from a predicate.
    pub fn new(
        name: impl Into<String>,
        pred: impl Fn(&ConfigView) -> bool + Send + Sync + 'static,
    ) -> Invariant {
        Invariant {
            name: name.into(),
            pred: Arc::new(pred),
        }
    }

    /// The invariant's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Invariant({:?})", self.name)
    }
}

/// What question the request asks.
#[derive(Clone, Debug, Default)]
pub enum Mode {
    /// Enumerate final register outcomes (with optional witness traces).
    #[default]
    Outcomes,
    /// Count distinct configurations only (cheapest; sweeps).
    CountOnly,
    /// Check a named invariant on every reachable configuration.
    Invariant(Invariant),
    /// Evaluate a litmus test's expected verdicts under RA and SC
    /// (requires [`CheckRequest::litmus`] input).
    LitmusVerdict,
}

impl Mode {
    /// The three data-free modes, in request-schema order (an
    /// [`Invariant`] carries a predicate, so it has no request spelling).
    pub const ALL: [Mode; 3] = [Mode::Outcomes, Mode::CountOnly, Mode::LitmusVerdict];

    /// The JSON name, shared by requests, reports and cache snapshots
    /// (`"outcomes"`, `"count"`, `"invariant"`, `"litmus"`).
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Outcomes => "outcomes",
            Mode::CountOnly => "count",
            Mode::Invariant(_) => INVARIANT_MODE,
            Mode::LitmusVerdict => "litmus",
        }
    }

    /// Parses the JSON name of a data-free mode.
    pub fn parse(s: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// [`Mode::Invariant`]'s name, which reports without a [`Mode`] at hand
/// spell too.
const INVARIANT_MODE: &str = "invariant";

/// How a request can fail before producing a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The program source failed to parse.
    Parse(String),
    /// The mode/input combination is not supported.
    Unsupported(String),
    /// A session-level failure (unknown job id, collected twice, …).
    Session(String),
    /// The session's submission queue is full ([`SessionConfig`]'s
    /// `max_queue_depth`); the request was rejected, not queued. Retry
    /// after draining — nothing about the request itself is wrong.
    Overloaded,
    /// The job was cancelled while a waiter was blocked on it (a report
    /// that was *computed* under a cancelled budget comes back as a
    /// `"cancelled"`-status report instead, with partial stats).
    Cancelled,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Parse(e) => write!(f, "parse error: {e}"),
            CheckError::Unsupported(e) => write!(f, "unsupported request: {e}"),
            CheckError::Session(e) => write!(f, "session error: {e}"),
            CheckError::Overloaded => write!(f, "overloaded: submission queue is full"),
            CheckError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for CheckError {}

/// A program input: source text (parsed by [`CheckRequest::run`]) or an
/// already-parsed [`Prog`].
#[derive(Clone, Debug)]
pub enum ProgramInput {
    /// DSL source text.
    Source(String),
    /// A parsed program.
    Parsed(Prog),
}

impl From<&str> for ProgramInput {
    fn from(s: &str) -> ProgramInput {
        ProgramInput::Source(s.to_string())
    }
}

impl From<String> for ProgramInput {
    fn from(s: String) -> ProgramInput {
        ProgramInput::Source(s)
    }
}

impl From<Prog> for ProgramInput {
    fn from(p: Prog) -> ProgramInput {
        ProgramInput::Parsed(p)
    }
}

#[derive(Clone, Debug)]
enum Input {
    Program(ProgramInput),
    Litmus(LitmusTest),
}

/// A checking session request — the builder every consumer (CLI, tests,
/// examples, future batch service) goes through.
#[derive(Clone, Debug)]
pub struct CheckRequest {
    input: Input,
    model: ModelChoice,
    bounds: Bounds,
    engine: Engine,
    reduction: Reduction,
    mode: Mode,
    traces: Option<bool>,
    dot: usize,
    timeout: Option<Duration>,
}

impl CheckRequest {
    /// A request over a program (source text or parsed [`Prog`]).
    pub fn program(p: impl Into<ProgramInput>) -> CheckRequest {
        CheckRequest {
            input: Input::Program(p.into()),
            model: ModelChoice::default(),
            bounds: Bounds::default(),
            engine: Engine::default(),
            reduction: Reduction::default(),
            mode: Mode::default(),
            traces: None,
            dot: 0,
            timeout: None,
        }
    }

    /// A request over a litmus test. The test's event bound seeds
    /// `bounds.max_events` (override with [`CheckRequest::bounds`]).
    pub fn litmus(test: LitmusTest) -> CheckRequest {
        let bounds = Bounds::default().max_events(test.max_events);
        CheckRequest {
            input: Input::Litmus(test),
            model: ModelChoice::default(),
            bounds,
            engine: Engine::default(),
            reduction: Reduction::default(),
            mode: Mode::LitmusVerdict,
            traces: None,
            dot: 0,
            timeout: None,
        }
    }

    /// Selects the memory model (ignored by [`Mode::LitmusVerdict`], which
    /// always contrasts RA against SC).
    pub fn model(mut self, m: ModelChoice) -> Self {
        self.model = m;
        self
    }

    /// Sets the exploration bounds.
    pub fn bounds(mut self, b: Bounds) -> Self {
        self.bounds = b;
        self
    }

    /// Selects the visited-store backend (sugar for editing
    /// [`CheckRequest::bounds`]; part of the cache key).
    pub fn store(mut self, k: StoreKind) -> Self {
        self.bounds.store = k;
        self
    }

    /// Enables symmetry quotienting (sugar for editing
    /// [`CheckRequest::bounds`]; part of the cache key).
    pub fn symmetry(mut self, on: bool) -> Self {
        self.bounds.symmetry = on;
        self
    }

    /// Selects the exploration engine (who walks the state space).
    pub fn engine(mut self, e: Engine) -> Self {
        self.engine = e;
        self
    }

    /// Selects the reduction layered on the engine (how much of the
    /// state space the walk may skip). [`Reduction::SourceSet`] switches
    /// the report to the finals-only contract: verdicts, final-snapshot
    /// multisets and violations are identical to the sequential
    /// engine's, while `unique`/`generated` are intentionally smaller
    /// (surfaced in the report's `"reduction"` block).
    pub fn reduction(mut self, r: Reduction) -> Self {
        self.reduction = r;
        self
    }

    /// Selects the question to answer.
    pub fn mode(mut self, m: Mode) -> Self {
        self.mode = m;
        self
    }

    /// Requests (or suppresses) traces: witness schedules per outcome in
    /// [`Mode::Outcomes`], counterexample traces in [`Mode::Invariant`]
    /// (on by default there).
    pub fn traces(mut self, on: bool) -> Self {
        self.traces = Some(on);
        self
    }

    /// Renders up to `n` final executions as DOT (event-based models).
    pub fn dot(mut self, n: usize) -> Self {
        self.dot = n;
        self
    }

    /// Caps the exploration's wall-clock time, measured from when compute
    /// starts (queue wait excluded). A tripped deadline yields a normal
    /// report with status `"timed_out"` and sane partial stats — not an
    /// error. Overrides the session's `job_timeout` when tighter.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }

    /// Runs the request on a throwaway [`Session`], inline on the calling
    /// thread (no pool threads are spawned, no cache outlives the call).
    ///
    /// This one-shot form is kept for one deprecation cycle as
    /// convenience sugar; consumers issuing more than one request should
    /// hold a [`Session`] and get result caching, job scheduling and
    /// batch submission for free.
    pub fn run(self) -> Result<CheckReport, CheckError> {
        Session::new(SessionConfig::default()).run(self)
    }

    /// Parses and validates the request into its executable [`Resolved`]
    /// form. The input is parsed exactly once (the session fingerprints
    /// the parse result for its cache) and mode/input mismatches are
    /// rejected here, so [`Resolved::compute`] cannot fail.
    pub(crate) fn resolve(self) -> Result<Resolved, CheckError> {
        let parse = |src: &str| parse_program(src).map_err(|e| CheckError::Parse(e.to_string()));
        let input = match (self.input, matches!(self.mode, Mode::LitmusVerdict)) {
            (Input::Program(_), true) => {
                return Err(CheckError::Unsupported(
                    "LitmusVerdict mode needs CheckRequest::litmus input".to_string(),
                ));
            }
            (Input::Litmus(test), true) => {
                let prog = parse(&test.source)?;
                ResolvedInput::Litmus { test, prog }
            }
            (Input::Program(ProgramInput::Parsed(p)), false) => ResolvedInput::Program(p),
            (Input::Program(ProgramInput::Source(src)), false) => {
                ResolvedInput::Program(parse(&src)?)
            }
            (Input::Litmus(test), false) => ResolvedInput::Program(parse(&test.source)?),
        };
        // Reductions are sequential algorithms: a parallel engine cannot
        // host one, and silently running sequentially would misreport
        // what the user asked for.
        if matches!(self.engine, Engine::Parallel { .. }) && self.reduction != Reduction::None {
            return Err(CheckError::Unsupported(format!(
                "the parallel engine cannot run a {} reduction; use the sequential engine",
                self.reduction.name()
            )));
        }
        // Invariants quantify over every reachable configuration; the
        // source-set reduction's finals-only contract cannot answer
        // them, so fall back to the exhaustive sleep-set reduction.
        let reduction = match (&self.mode, self.reduction) {
            (Mode::Invariant(_), Reduction::SourceSet) => Reduction::SleepSet,
            (_, r) => r,
        };
        Ok(Resolved {
            input,
            model: self.model,
            bounds: self.bounds,
            engine: self.engine,
            reduction,
            mode: self.mode,
            traces: self.traces,
            dot: self.dot,
            timeout: self.timeout,
        })
    }
}

/// A borrowed per-configuration hook (validity self-check, DOT renderer)
/// passed into the monomorphised run.
type ConfigFn<'a, M, R> = &'a dyn Fn(&Config<M>) -> R;

/// A request after parsing and validation — the unit the [`Session`]
/// fingerprints, caches, schedules and executes.
pub(crate) struct Resolved {
    input: ResolvedInput,
    pub(crate) model: ModelChoice,
    pub(crate) bounds: Bounds,
    pub(crate) engine: Engine,
    pub(crate) reduction: Reduction,
    pub(crate) mode: Mode,
    pub(crate) traces: Option<bool>,
    pub(crate) dot: usize,
    pub(crate) timeout: Option<Duration>,
}

enum ResolvedInput {
    Program(Prog),
    Litmus { test: LitmusTest, prog: Prog },
}

impl Resolved {
    fn prog(&self) -> &Prog {
        match &self.input {
            ResolvedInput::Program(p) => p,
            ResolvedInput::Litmus { prog, .. } => prog,
        }
    }

    /// Number of threads of the underlying program (the session's
    /// small-vs-large scheduling signal).
    pub(crate) fn threads(&self) -> usize {
        self.prog().threads.len()
    }

    /// The 128-bit input identity the session cache keys on: the parsed
    /// program's fingerprint (formatting-insensitive), plus — for litmus
    /// verdicts — the observation and expectations the report embeds.
    pub(crate) fn fingerprint(&self) -> u128 {
        match &self.input {
            ResolvedInput::Program(p) => fingerprint_prog(p),
            ResolvedInput::Litmus { test, prog } => combine128([
                fingerprint_prog(prog),
                hash128_of(&(&test.name, &test.outcome, test.expect_ra, test.expect_sc)),
            ]),
        }
    }

    /// Executes the request and produces its report. Infallible: every
    /// error surface lives in [`CheckRequest::resolve`].
    ///
    /// `token` is the job's cancel token (unlimited for one-shot runs);
    /// the request's `timeout` is stamped onto it *here*, so the deadline
    /// measures compute time, not queue wait. A tripped budget yields a
    /// `"timed_out"`/`"cancelled"` report with partial stats.
    pub(crate) fn compute(&self, token: &Budget) -> CheckReport {
        let budget = match self.timeout {
            Some(t) => token.with_deadline_at(Instant::now() + t),
            None => token.clone(),
        };
        let meta = Meta {
            model: self.model,
            engine: self.engine,
            reduction: self.reduction,
            cache_hit: false,
        };
        if let Mode::LitmusVerdict = self.mode {
            let ResolvedInput::Litmus { test, .. } = &self.input else {
                unreachable!("resolve() pairs LitmusVerdict with litmus input");
            };
            // The request's bounds (seeded from the test's own event
            // bound in `CheckRequest::litmus`, overridable via
            // `.bounds(..)`) govern both explorations.
            let cfg = self
                .bounds
                .explore_config()
                .record_traces(false)
                .budget(budget);
            let be = AnyBackend {
                engine: self.engine,
                reduction: self.reduction,
            };
            let result = run_test_configured(test, be, &cfg, &cfg);
            return CheckReport::Litmus(LitmusVerdictReport {
                meta,
                name: result.name.clone(),
                expect_ra: test.expect_ra,
                expect_sc: test.expect_sc,
                observed_ra: result.observed_ra,
                observed_sc: result.observed_sc,
                ra: result.ra,
                sc: result.sc,
                pass: result.pass,
            });
        }
        let prog = self.prog();
        match self.model {
            ModelChoice::Ra => self.run_on(
                meta,
                &budget,
                &RaModel,
                prog,
                Some(&|c: &Config<RaModel>| is_valid(&c.mem)),
                Some(&|c: &Config<RaModel>| to_dot(&c.mem, &prog.var_names)),
            ),
            ModelChoice::Sc => self.run_on(meta, &budget, &ScModel, prog, None, None),
            ModelChoice::PreExecution => {
                let model = PreExecutionModel::for_program(prog);
                let dot = |c: &Config<PreExecutionModel>| to_dot(&c.mem, &prog.var_names);
                self.run_on(meta, &budget, &model, prog, None, Some(&dot))
            }
        }
    }

    fn run_on<M>(
        &self,
        meta: Meta,
        budget: &Budget,
        model: &M,
        prog: &Prog,
        valid: Option<ConfigFn<'_, M, bool>>,
        dot: Option<ConfigFn<'_, M, String>>,
    ) -> CheckReport
    where
        M: MemoryModel + Sync,
        M::State: Send + Sync,
    {
        let backend = AnyBackend {
            engine: self.engine,
            reduction: self.reduction,
        };
        match &self.mode {
            Mode::LitmusVerdict => unreachable!("handled before model dispatch"),
            Mode::CountOnly => {
                let cfg = self
                    .bounds
                    .explore_config()
                    .record_traces(false)
                    .budget(budget.clone());
                let t0 = Instant::now();
                let res = backend.run_invariant(model, prog, &cfg, &|_| true);
                CheckReport::Count(CountReport {
                    meta,
                    stats: res.stats(t0.elapsed()),
                })
            }
            Mode::Outcomes => {
                let witness = self.traces.unwrap_or(false);
                let cfg = self
                    .bounds
                    .explore_config()
                    .record_traces(false)
                    .witness_traces(witness)
                    .budget(budget.clone());
                let t0 = Instant::now();
                let res = backend.run_invariant(model, prog, &cfg, &|_| true);
                let stats = res.stats(t0.elapsed());
                let invalid_finals = valid
                    .map(|v| res.finals.iter().filter(|c| !v(c)).count())
                    .unwrap_or(0);
                let dot = dot
                    .map(|d| res.finals.iter().take(self.dot).map(d).collect())
                    .unwrap_or_default();
                CheckReport::Outcomes(OutcomesReport {
                    meta,
                    stats,
                    outcomes: aggregate_outcomes(&res, prog, witness),
                    invalid_finals,
                    dot,
                })
            }
            Mode::Invariant(inv) => {
                let cfg = self
                    .bounds
                    .explore_config()
                    .record_traces(self.traces.unwrap_or(true))
                    .budget(budget.clone());
                let pred = inv.pred.clone();
                let adapter = move |c: &Config<M>| pred(&ConfigView::of(c));
                let t0 = Instant::now();
                let res = backend.run_invariant(model, prog, &cfg, &adapter);
                let stats = res.stats(t0.elapsed());
                let violations = res
                    .violations
                    .iter()
                    .map(|(c, trace)| ViolationRow {
                        pcs: c.thread_ids().map(|t| c.pc(t)).collect(),
                        trace: trace.iter().map(|s| s.render(prog)).collect(),
                    })
                    .collect();
                CheckReport::Invariant(InvariantReport {
                    meta,
                    stats,
                    invariant: inv.name.clone(),
                    holds: res.holds(),
                    violations,
                })
            }
        }
    }
}

/// Aggregates the finals into a deterministic multiset of outcome rows
/// (sorted by register values, so sequential and parallel backends emit
/// identical reports).
fn aggregate_outcomes<M: MemoryModel>(
    res: &ExploreResult<M>,
    prog: &Prog,
    witness: bool,
) -> Vec<OutcomeRow> {
    let mut map: BTreeMap<RegSnapshot, (usize, Option<Vec<String>>)> = BTreeMap::new();
    for (i, snap) in res.final_snapshots().into_iter().enumerate() {
        let entry = map.entry(snap).or_insert((0, None));
        entry.0 += 1;
        if witness && entry.1.is_none() {
            if let Some(trace) = res.final_traces.get(i) {
                entry.1 = Some(trace.iter().map(|s| s.render(prog)).collect());
            }
        }
    }
    map.into_iter()
        .map(|(snap, (count, witness))| OutcomeRow {
            count,
            threads: (1..=snap.num_threads() as u8)
                .map(|t| snap.thread_regs(ThreadId(t)))
                .collect(),
            witness,
        })
        .collect()
}

/// What the report was computed with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meta {
    /// The memory model.
    pub model: ModelChoice,
    /// The exploration engine.
    pub engine: Engine,
    /// The reduction layered on it.
    pub reduction: Reduction,
    /// `true` iff this report was served from a [`Session`]'s result
    /// cache instead of a fresh exploration. A cached report is the
    /// originally-computed one verbatim (including its `wall_micros` and
    /// the engine that computed it) with only this flag flipped.
    pub cache_hit: bool,
}

impl Meta {
    /// The report's `"backend"` block: the engine that did the walking.
    fn backend_json(&self) -> Json {
        let mut pairs = vec![("kind", Json::str(self.engine.name()))];
        if let Engine::Parallel { workers } = self.engine {
            pairs.push(("workers", Json::from(workers.max(1))));
        }
        Json::obj(pairs)
    }

    /// The report's `"reduction"` block. Only reduced runs carry the
    /// key — reduction-free reports stay byte-identical to previous
    /// schema emissions.
    fn reduction_json(&self) -> Option<Json> {
        match self.reduction {
            Reduction::None => None,
            r => Some(Json::obj(vec![
                ("kind", Json::str(r.name())),
                ("contract", Json::str(r.contract_str())),
            ])),
        }
    }
}

/// One distinct final register outcome (a multiset row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutcomeRow {
    /// How many distinct terminated configurations share these values.
    pub count: usize,
    /// `threads[i]` is thread `i + 1`'s written registers.
    pub threads: Vec<Vec<(RegId, Val)>>,
    /// A witness schedule (rendered steps), when traces were requested.
    pub witness: Option<Vec<String>>,
}

impl OutcomeRow {
    /// Renders the row like the CLI does: `{ t1.r0=1, t2.r0=1 }` with
    /// zero-valued registers elided.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (i, regs) in self.threads.iter().enumerate() {
            for (r, v) in regs {
                if *v != 0 {
                    parts.push(format!("t{}.r{}={v}", i + 1, r.0));
                }
            }
        }
        if parts.is_empty() {
            "{ all registers 0 }".to_string()
        } else {
            format!("{{ {} }}", parts.join(", "))
        }
    }
}

/// Outcome-enumeration report.
#[derive(Clone, Debug)]
pub struct OutcomesReport {
    /// Request metadata.
    pub meta: Meta,
    /// Exploration stats.
    pub stats: Stats,
    /// The distinct final register outcomes (deterministically sorted).
    pub outcomes: Vec<OutcomeRow>,
    /// Finals failing the RA validity axioms (Theorem 4.4 self-check;
    /// always 0 unless the semantics has a soundness bug, and only
    /// computed under [`ModelChoice::Ra`]).
    pub invalid_finals: usize,
    /// DOT renderings of the first `n` final executions (when requested).
    pub dot: Vec<String>,
}

/// Count-only report.
#[derive(Clone, Debug)]
pub struct CountReport {
    /// Request metadata.
    pub meta: Meta,
    /// Exploration stats.
    pub stats: Stats,
}

/// One invariant violation.
#[derive(Clone, Debug)]
pub struct ViolationRow {
    /// Program counters of the violating configuration.
    pub pcs: Vec<Option<u32>>,
    /// Rendered counterexample trace (empty if traces were suppressed).
    pub trace: Vec<String>,
}

/// Invariant-checking report.
#[derive(Clone, Debug)]
pub struct InvariantReport {
    /// Request metadata.
    pub meta: Meta,
    /// Exploration stats.
    pub stats: Stats,
    /// The invariant's name.
    pub invariant: String,
    /// `true` iff no reachable configuration violated it (up to bounds —
    /// see `stats.truncated`).
    pub holds: bool,
    /// The violations found.
    pub violations: Vec<ViolationRow>,
}

/// Litmus-verdict report (RA vs SC).
#[derive(Clone, Debug)]
pub struct LitmusVerdictReport {
    /// Request metadata (`meta.model` is nominal: this mode always runs
    /// both RA and SC).
    pub meta: Meta,
    /// Test name.
    pub name: String,
    /// Expected verdict under RA.
    pub expect_ra: Verdict,
    /// Expected verdict under SC.
    pub expect_sc: Verdict,
    /// Outcome observed under RA?
    pub observed_ra: bool,
    /// Outcome observed under SC?
    pub observed_sc: bool,
    /// RA exploration stats.
    pub ra: Stats,
    /// SC exploration stats.
    pub sc: Stats,
    /// Verdicts matched expectations?
    pub pass: bool,
}

/// The unified response: one enum, every engine and question.
#[derive(Clone, Debug)]
pub enum CheckReport {
    /// Final register outcomes.
    Outcomes(OutcomesReport),
    /// State count only.
    Count(CountReport),
    /// Invariant verdict with counterexamples.
    Invariant(InvariantReport),
    /// Litmus verdict (RA vs SC).
    Litmus(LitmusVerdictReport),
}

fn stats_json(s: &Stats) -> Json {
    let mut pairs = vec![
        ("unique", Json::from(s.unique)),
        ("generated", Json::from(s.generated)),
        ("finals", Json::from(s.finals)),
        ("truncated", Json::from(s.truncated)),
        ("stuck", Json::from(s.stuck)),
        ("wall_micros", Json::from(s.wall_micros)),
    ];
    // Only interrupted runs carry the key — clean reports' stats objects
    // stay byte-identical to previous schema emissions.
    if let Some(why) = s.interrupt {
        pairs.push(("interrupt", Json::str(why.as_str())));
    }
    // Likewise only non-default storage (a non-flat --store or symmetry
    // quotienting) carries the block, so default-run reports and
    // persisted snapshots keep their shape.
    if let Some(st) = s.store {
        pairs.push((
            "store",
            Json::obj(vec![
                ("kind", Json::str(st.kind.name())),
                ("symmetry", Json::from(st.sym)),
                ("bytes_resident", Json::from(st.bytes_resident)),
                ("nodes", Json::from(st.nodes)),
                ("dedup_hits", Json::from(st.dedup_hits)),
            ]),
        ));
    }
    Json::obj(pairs)
}

impl CheckReport {
    /// The report's stats (RA + SC merged for litmus verdicts).
    pub fn stats(&self) -> Stats {
        match self {
            CheckReport::Outcomes(r) => r.stats,
            CheckReport::Count(r) => r.stats,
            CheckReport::Invariant(r) => r.stats,
            CheckReport::Litmus(r) => r.ra.merged(&r.sc),
        }
    }

    /// The report's request metadata.
    pub fn meta(&self) -> Meta {
        match self {
            CheckReport::Outcomes(r) => r.meta,
            CheckReport::Count(r) => r.meta,
            CheckReport::Invariant(r) => r.meta,
            CheckReport::Litmus(r) => r.meta,
        }
    }

    /// `true` iff this report came from a session's result cache.
    pub fn cache_hit(&self) -> bool {
        self.meta().cache_hit
    }

    /// Stamps the cache-hit flag (used by [`Session`] when serving a
    /// cached report).
    pub(crate) fn set_cache_hit(&mut self, hit: bool) {
        let meta = match self {
            CheckReport::Outcomes(r) => &mut r.meta,
            CheckReport::Count(r) => &mut r.meta,
            CheckReport::Invariant(r) => &mut r.meta,
            CheckReport::Litmus(r) => &mut r.meta,
        };
        meta.cache_hit = hit;
    }

    /// The mode tag used in the JSON encoding.
    pub fn mode_str(&self) -> &'static str {
        match self {
            CheckReport::Outcomes(_) => Mode::Outcomes.name(),
            CheckReport::Count(_) => Mode::CountOnly.name(),
            CheckReport::Invariant(_) => INVARIANT_MODE,
            CheckReport::Litmus(_) => Mode::LitmusVerdict.name(),
        }
    }

    /// The report's budget verdict: `None` for a complete (or merely
    /// bound-truncated) run, `Some` when the deadline or a cancellation
    /// cut the exploration short.
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.stats().interrupt
    }

    /// The `"status"` word the `c11check/v1` encoding carries: `"ok"`
    /// for complete and bound-truncated runs, `"timed_out"`/`"cancelled"`
    /// when the budget tripped. (Service-level `"error"`/`"overloaded"`
    /// lines are emitted by `c11serve` for requests that never produced
    /// a report.)
    pub fn status_str(&self) -> &'static str {
        match self.interrupt() {
            None => "ok",
            Some(why) => why.as_str(),
        }
    }

    /// Renders the report as a single-line JSON document
    /// (`c11check/v1` schema; see README § JSON report schema). Offline
    /// hand-rolled writer — no serde.
    pub fn to_json(&self) -> String {
        self.json_value().render()
    }

    /// The report as a [`Json`] tree (for embedding in larger documents,
    /// e.g. the CLI's litmus-directory array).
    pub fn json_value(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("schema", Json::str(crate::persist::SCHEMA_VERSION)),
            ("status", Json::str(self.status_str())),
            ("mode", Json::str(self.mode_str())),
        ];
        match self {
            CheckReport::Outcomes(r) => {
                pairs.push(("model", Json::str(r.meta.model.name())));
                pairs.push(("backend", r.meta.backend_json()));
                if let Some(red) = r.meta.reduction_json() {
                    pairs.push(("reduction", red));
                }
                pairs.push(("cache_hit", Json::from(r.meta.cache_hit)));
                pairs.push(("stats", stats_json(&r.stats)));
                pairs.push(("invalid_finals", Json::from(r.invalid_finals)));
                let rows = r
                    .outcomes
                    .iter()
                    .map(|row| {
                        let threads = row
                            .threads
                            .iter()
                            .enumerate()
                            .map(|(i, regs)| {
                                let regs_obj = Json::Obj(
                                    regs.iter()
                                        .map(|(r, v)| (format!("r{}", r.0), Json::from(*v)))
                                        .collect(),
                                );
                                Json::obj(vec![("thread", Json::from(i + 1)), ("regs", regs_obj)])
                            })
                            .collect();
                        let mut row_pairs = vec![
                            ("count", Json::from(row.count)),
                            ("threads", Json::Arr(threads)),
                        ];
                        if let Some(w) = &row.witness {
                            row_pairs
                                .push(("witness", Json::Arr(w.iter().map(Json::str).collect())));
                        }
                        Json::obj(row_pairs)
                    })
                    .collect();
                pairs.push(("outcomes", Json::Arr(rows)));
                if !r.dot.is_empty() {
                    pairs.push(("dot", Json::Arr(r.dot.iter().map(Json::str).collect())));
                }
            }
            CheckReport::Count(r) => {
                pairs.push(("model", Json::str(r.meta.model.name())));
                pairs.push(("backend", r.meta.backend_json()));
                if let Some(red) = r.meta.reduction_json() {
                    pairs.push(("reduction", red));
                }
                pairs.push(("cache_hit", Json::from(r.meta.cache_hit)));
                pairs.push(("stats", stats_json(&r.stats)));
            }
            CheckReport::Invariant(r) => {
                pairs.push(("model", Json::str(r.meta.model.name())));
                pairs.push(("backend", r.meta.backend_json()));
                if let Some(red) = r.meta.reduction_json() {
                    pairs.push(("reduction", red));
                }
                pairs.push(("cache_hit", Json::from(r.meta.cache_hit)));
                pairs.push(("stats", stats_json(&r.stats)));
                pairs.push(("invariant", Json::str(&r.invariant)));
                pairs.push(("holds", Json::from(r.holds)));
                let rows = r
                    .violations
                    .iter()
                    .map(|v| {
                        Json::obj(vec![
                            (
                                "pcs",
                                Json::Arr(
                                    v.pcs
                                        .iter()
                                        .map(|pc| pc.map(Json::from).unwrap_or(Json::Null))
                                        .collect(),
                                ),
                            ),
                            ("trace", Json::Arr(v.trace.iter().map(Json::str).collect())),
                        ])
                    })
                    .collect();
                pairs.push(("violations", Json::Arr(rows)));
            }
            CheckReport::Litmus(r) => {
                pairs.push(("backend", r.meta.backend_json()));
                if let Some(red) = r.meta.reduction_json() {
                    pairs.push(("reduction", red));
                }
                pairs.push(("cache_hit", Json::from(r.meta.cache_hit)));
                pairs.push(("name", Json::str(&r.name)));
                pairs.push(("expect_ra", Json::str(r.expect_ra.name())));
                pairs.push(("expect_sc", Json::str(r.expect_sc.name())));
                pairs.push(("observed_ra", Json::from(r.observed_ra)));
                pairs.push(("observed_sc", Json::from(r.observed_sc)));
                pairs.push(("pass", Json::from(r.pass)));
                pairs.push(("ra", stats_json(&r.ra)));
                pairs.push(("sc", stats_json(&r.sc)));
            }
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: &str = "vars x y;
         thread t1 { x := 1; r0 <- y; }
         thread t2 { y := 1; r0 <- x; }";

    #[test]
    fn outcomes_sequential_and_parallel_agree() {
        let seq = CheckRequest::program(SB).run().unwrap();
        let par = CheckRequest::program(SB)
            .engine(Engine::Parallel { workers: 4 })
            .run()
            .unwrap();
        let (CheckReport::Outcomes(a), CheckReport::Outcomes(b)) = (&seq, &par) else {
            panic!("expected outcome reports");
        };
        assert_eq!(a.stats.unique, b.stats.unique);
        assert_eq!(a.stats.finals, b.stats.finals);
        // The deterministic multiset rows must be identical.
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.invalid_finals, 0);
    }

    #[test]
    fn outcomes_with_witness_traces() {
        let report = CheckRequest::program(SB).traces(true).run().unwrap();
        let CheckReport::Outcomes(o) = report else {
            panic!()
        };
        assert!(o.outcomes.iter().all(|r| r.witness.is_some()));
        let w = o.outcomes[0].witness.as_ref().unwrap();
        assert!(w.iter().any(|s| s.starts_with("t1:")));
    }

    #[test]
    fn count_mode_matches_outcomes_unique() {
        let a = CheckRequest::program(SB).run().unwrap();
        let b = CheckRequest::program(SB)
            .mode(Mode::CountOnly)
            .run()
            .unwrap();
        assert_eq!(a.stats().unique, b.stats().unique);
        assert!(matches!(b, CheckReport::Count(_)));
    }

    #[test]
    fn sc_model_shrinks_the_outcome_set() {
        let ra = CheckRequest::program(SB).run().unwrap();
        let sc = CheckRequest::program(SB)
            .model(ModelChoice::Sc)
            .run()
            .unwrap();
        let (CheckReport::Outcomes(ra), CheckReport::Outcomes(sc)) = (&ra, &sc) else {
            panic!()
        };
        // SB: RA allows 0/0, SC forbids it — strictly fewer SC outcomes.
        assert!(sc.outcomes.len() < ra.outcomes.len());
    }

    const SB_LABELED: &str = "vars x y;
         thread t1 { 1: x := 1; 2: r0 <- y; }
         thread t2 { 1: y := 1; 2: r0 <- x; }";

    #[test]
    fn invariant_mode_finds_violations_with_traces() {
        // "Both threads are never at line 2 together" fails on SB (they
        // can both be between their write and their read).
        let inv = Invariant::new("never-both-at-2", |v: &ConfigView| {
            !(v.pc(ThreadId(1)) == Some(2) && v.pc(ThreadId(2)) == Some(2))
        });
        let report = CheckRequest::program(SB_LABELED)
            .mode(Mode::Invariant(inv))
            .run()
            .unwrap();
        let CheckReport::Invariant(r) = report else {
            panic!()
        };
        assert!(!r.holds);
        assert!(!r.violations.is_empty());
        assert!(!r.violations[0].trace.is_empty(), "traces on by default");
    }

    #[test]
    fn invariant_mode_parallel_agrees_on_verdict() {
        let mk = || {
            Invariant::new("never-both-at-2", |v: &ConfigView| {
                !(v.pc(ThreadId(1)) == Some(2) && v.pc(ThreadId(2)) == Some(2))
            })
        };
        let seq = CheckRequest::program(SB_LABELED)
            .mode(Mode::Invariant(mk()))
            .run()
            .unwrap();
        let par = CheckRequest::program(SB_LABELED)
            .mode(Mode::Invariant(mk()))
            .engine(Engine::Parallel { workers: 2 })
            .run()
            .unwrap();
        let (CheckReport::Invariant(a), CheckReport::Invariant(b)) = (&seq, &par) else {
            panic!()
        };
        assert_eq!(a.holds, b.holds);
        assert!(!a.holds, "RA allows the SB weak outcome");
    }

    #[test]
    fn litmus_mode_reproduces_runner_verdicts() {
        for test in c11_litmus::corpus().into_iter().take(3) {
            let expect = c11_litmus::run_test(&test);
            let report = CheckRequest::litmus(test).run().unwrap();
            let CheckReport::Litmus(r) = report else {
                panic!()
            };
            assert_eq!(r.pass, expect.pass, "{}", r.name);
            assert_eq!(r.observed_ra, expect.observed_ra, "{}", r.name);
        }
    }

    #[test]
    fn litmus_mode_honours_bounds_override() {
        // A forbidden test re-checked at a tiny event bound must come
        // back truncated (the verdict is only valid up to the bound).
        let test = c11_litmus::corpus()
            .into_iter()
            .find(|t| t.name == "MP-ra")
            .unwrap();
        let report = CheckRequest::litmus(test)
            .bounds(Bounds::default().max_events(3))
            .run()
            .unwrap();
        let CheckReport::Litmus(r) = report else {
            panic!()
        };
        assert!(r.ra.truncated, ".bounds(..) must override the test bound");
    }

    #[test]
    fn litmus_mode_requires_litmus_input() {
        let err = CheckRequest::program(SB).mode(Mode::LitmusVerdict).run();
        assert!(matches!(err, Err(CheckError::Unsupported(_))));
    }

    #[test]
    fn parse_errors_surface() {
        let err = CheckRequest::program("vars x; thread t { y := 1; }").run();
        assert!(matches!(err, Err(CheckError::Parse(_))));
    }

    #[test]
    fn dot_renders_final_executions() {
        let report = CheckRequest::program("vars x; thread t { x := 1; }")
            .dot(2)
            .run()
            .unwrap();
        let CheckReport::Outcomes(o) = report else {
            panic!()
        };
        assert_eq!(o.dot.len(), 1, "one final execution");
        assert!(o.dot[0].contains("digraph"));
    }

    #[test]
    fn json_is_stable_across_engines_and_reductions() {
        let mut reports = Vec::new();
        for (engine, reduction) in [
            (Engine::Sequential, Reduction::None),
            (Engine::Parallel { workers: 4 }, Reduction::None),
            (Engine::Sequential, Reduction::SleepSet),
        ] {
            let r = CheckRequest::program(SB)
                .engine(engine)
                .reduction(reduction)
                .run()
                .unwrap();
            let CheckReport::Outcomes(mut o) = r else {
                panic!()
            };
            // Stats carry wall time, work counters (reductions generate
            // fewer) and engine identity — normalise.
            o.stats = Stats::default();
            o.meta.engine = Engine::Sequential;
            o.meta.reduction = Reduction::None;
            reports.push(CheckReport::Outcomes(o).to_json());
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        assert!(reports[0].contains("\"schema\":\"c11check/v1\""));
    }

    #[test]
    fn sleep_set_reduction_reports_identical_outcomes_with_less_work() {
        let seq = CheckRequest::program(SB).run().unwrap();
        let dpor = CheckRequest::program(SB)
            .reduction(Reduction::SleepSet)
            .run()
            .unwrap();
        let (CheckReport::Outcomes(a), CheckReport::Outcomes(b)) = (&seq, &dpor) else {
            panic!("expected outcome reports");
        };
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(
            a.stats.unique, b.stats.unique,
            "sleep sets keep every state"
        );
        assert!(
            b.stats.generated < a.stats.generated,
            "SB's independent first writes must let siblings sleep"
        );
        assert_eq!(b.meta.engine, Engine::Sequential);
        assert_eq!(b.meta.reduction, Reduction::SleepSet);
        assert!(dpor
            .to_json()
            .contains("\"backend\":{\"kind\":\"sequential\"}"));
        assert!(dpor
            .to_json()
            .contains("\"reduction\":{\"kind\":\"sleep-set\",\"contract\":\"exhaustive\"}"));
    }

    #[test]
    fn source_set_reduction_upholds_the_finals_only_contract() {
        let seq = CheckRequest::program(SB).run().unwrap();
        let src = CheckRequest::program(SB)
            .reduction(Reduction::SourceSet)
            .run()
            .unwrap();
        let (CheckReport::Outcomes(a), CheckReport::Outcomes(b)) = (&seq, &src) else {
            panic!("expected outcome reports");
        };
        // Finals-only contract: identical outcome multisets and
        // validity, intentionally fewer states visited and generated.
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(b.invalid_finals, 0);
        assert!(b.stats.unique <= a.stats.unique);
        assert!(b.stats.generated < a.stats.generated);
        assert!(src
            .to_json()
            .contains("\"reduction\":{\"kind\":\"source-set\",\"contract\":\"finals-only\"}"));
    }

    #[test]
    fn parallel_engine_rejects_reductions() {
        for reduction in [Reduction::SleepSet, Reduction::SourceSet] {
            let err = CheckRequest::program(SB)
                .engine(Engine::Parallel { workers: 2 })
                .reduction(reduction)
                .run();
            let Err(CheckError::Unsupported(msg)) = err else {
                panic!("parallel × {reduction:?} must be rejected");
            };
            assert!(msg.contains(reduction.name()), "{msg}");
        }
    }

    #[test]
    fn invariant_mode_downgrades_source_set_to_sleep_set() {
        // Invariants inspect every reachable configuration; the
        // finals-only contract cannot answer them, so the request is
        // answered exhaustively (and says so in its meta).
        let inv = Invariant::new("never-both-at-2", |v: &ConfigView| {
            !(v.pc(ThreadId(1)) == Some(2) && v.pc(ThreadId(2)) == Some(2))
        });
        let report = CheckRequest::program(SB_LABELED)
            .mode(Mode::Invariant(inv))
            .reduction(Reduction::SourceSet)
            .run()
            .unwrap();
        let CheckReport::Invariant(r) = &report else {
            panic!()
        };
        assert_eq!(report.meta().reduction, Reduction::SleepSet);
        assert!(!r.holds, "RA allows the SB weak outcome");
    }
}
