//! The `check-cold` and `check-matrix` workloads: requests through
//! `CheckRequest` / `Session::run` on the calling thread, as `c11check`
//! issues them, plus the output checker both apply to every answer.

use crate::gen::{self, Input};
use crate::speed::Speed;
use crate::util::{self, Metric, Outcome};
use c11_api::{CheckReport, CheckRequest, Engine, Reduction, Session, SessionConfig, StoreKind};
use c11_core::model::PreExecutionModel;
use c11_explore::{ExploreConfig, Explorer, RegSnapshot, SymClasses};
use c11_lang::{parse_program, RegId, ThreadId, Val};
use c11_litmus::Verdict;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One outcome row: the written registers of each thread.
pub type Row = Vec<Vec<(RegId, Val)>>;

/// A report in comparable form (wall time and cache flag left out).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Outcome multiset rows `(count, row)`, in report order.
    pub rows: Vec<(usize, Row)>,
    /// `(observed_ra, observed_sc, pass)` of a litmus verdict.
    pub litmus: Option<(bool, bool, bool)>,
    /// `(unique, generated, finals)`; the RA half of a litmus verdict.
    pub ra: Counts,
    /// The SC half of a litmus verdict (zeros otherwise).
    pub sc: Counts,
    pub truncated: bool,
    pub invalid_finals: usize,
    pub status: &'static str,
    /// The report promises finals only (source-set reduction, or a
    /// store whose symmetry quotient applied).
    pub finals_only: bool,
}

/// `(unique, generated, finals)` of one search.
pub type Counts = (usize, usize, usize);

fn counts(s: &c11_explore::Stats) -> Counts {
    (s.unique, s.generated, s.finals)
}

pub fn summarize(report: &CheckReport) -> Summary {
    let stats = report.stats();
    let finals_only = report.meta().reduction.contract_str() == "finals-only"
        || stats.store.is_some_and(|s| s.sym);
    let mut s = Summary {
        rows: Vec::new(),
        litmus: None,
        ra: counts(&stats),
        sc: (0, 0, 0),
        truncated: stats.truncated,
        invalid_finals: 0,
        status: report.status_str(),
        finals_only,
    };
    match report {
        CheckReport::Outcomes(o) => {
            s.rows = o
                .outcomes
                .iter()
                .map(|r| (r.count, r.threads.clone()))
                .collect();
            s.invalid_finals = o.invalid_finals;
        }
        CheckReport::Litmus(l) => {
            s.litmus = Some((l.observed_ra, l.observed_sc, l.pass));
            s.ra = counts(&l.ra);
            s.sc = counts(&l.sc);
            s.truncated = l.ra.truncated && l.expect_ra == Verdict::Forbidden;
        }
        CheckReport::Count(_) | CheckReport::Invariant(_) => {}
    }
    s
}

/// The request a family-(a)/(b) input makes (`None` for family c).
pub fn request_for(input: &Input) -> Option<CheckRequest> {
    match input {
        Input::Litmus(t) => Some(CheckRequest::litmus(t.clone())),
        Input::Program(p) => Some(CheckRequest::program(p.src.as_str())),
        Input::Peterson(_) | Input::Spinlock(_) => None,
    }
}

/// The source an input's program is parsed from.
fn source_of(input: &Input) -> Option<&str> {
    match input {
        Input::Litmus(t) => Some(&t.source),
        Input::Program(p) => Some(&p.src),
        Input::Peterson(_) | Input::Spinlock(_) => None,
    }
}

/// Rows with same-class threads' register files sorted, so outcome sets
/// of a symmetry-quotiented run and a plain run compare equal.
pub fn canonical_rows(rows: &[(usize, Row)], classes: &SymClasses) -> BTreeSet<Row> {
    rows.iter()
        .map(|(_, row)| {
            let mut row = row.clone();
            for class in classes.classes() {
                let mut files: Vec<_> = class.iter().map(|&i| row[i as usize].clone()).collect();
                files.sort();
                for (&i, f) in class.iter().zip(files) {
                    row[i as usize] = f;
                }
            }
            row
        })
        .collect()
}

/// The paper's axiomatic route (§4): pre-execution finals that some
/// `rf`/`mo` justifies, projected to register outcomes.
pub fn axiomatic_outcomes(src: &str) -> Result<BTreeSet<Row>, String> {
    let prog = parse_program(src).map_err(|e| e.to_string())?;
    let model = PreExecutionModel::for_program(&prog);
    let res = Explorer::new(model).explore(&prog, ExploreConfig::default().record_traces(false));
    if res.truncated {
        return Err("pre-execution exploration truncated".to_string());
    }
    Ok(res
        .finals
        .iter()
        .filter(|f| c11_axiomatic::justify::is_justifiable(&f.mem))
        .map(|f| {
            let snap = RegSnapshot::of(f);
            (1..=snap.num_threads() as u8)
                .map(|t| snap.thread_regs(ThreadId(t)))
                .collect()
        })
        .collect())
}

/// Why an answer is wrong, checked against what the input promises on
/// its own: the litmus file's hand-written verdicts, RA validity of
/// every final, an untruncated search, and (when given) the axiomatic
/// outcome set.
pub fn check_answer(
    input: &Input,
    s: &Summary,
    axiomatic: Option<&BTreeSet<Row>>,
) -> Result<(), String> {
    if s.status != "ok" {
        return Err(format!("status {}", s.status));
    }
    if s.truncated {
        return Err("search truncated".to_string());
    }
    match input {
        Input::Litmus(t) => {
            let allowed = |v: Verdict| v == Verdict::Allowed;
            let want = (allowed(t.expect_ra), allowed(t.expect_sc), true);
            if s.litmus != Some(want) {
                return Err(format!("litmus verdict {:?}, want {want:?}", s.litmus));
            }
        }
        Input::Program(_) => {
            if s.invalid_finals != 0 {
                return Err(format!("{} finals fail the RA axioms", s.invalid_finals));
            }
            if let Some(ax) = axiomatic {
                let op: BTreeSet<Row> = s.rows.iter().map(|(_, r)| r.clone()).collect();
                if &op != ax {
                    return Err(format!(
                        "{} operational outcomes vs {} axiomatic",
                        op.len(),
                        ax.len()
                    ));
                }
            }
        }
        Input::Peterson(_) | Input::Spinlock(_) => {}
    }
    Ok(())
}

/// Matches a matrix cell against the sequential reference under the
/// contract its report states: exhaustive cells give the same outcome
/// multiset and state count, finals-only cells the same outcome set.
pub fn check_contract(
    cell: &Summary,
    reference: &Summary,
    classes: &SymClasses,
) -> Result<(), String> {
    if cell.litmus != reference.litmus {
        return Err(format!(
            "verdict {:?} vs {:?}",
            cell.litmus, reference.litmus
        ));
    }
    if cell.finals_only {
        if canonical_rows(&cell.rows, classes) != canonical_rows(&reference.rows, classes) {
            return Err("outcome set differs from the sequential reference".to_string());
        }
    } else {
        if cell.rows != reference.rows {
            return Err("outcome multiset differs from the sequential reference".to_string());
        }
        if (cell.ra.0, cell.sc.0) != (reference.ra.0, reference.sc.0) {
            return Err(format!(
                "unique {:?} vs {:?}",
                (cell.ra.0, cell.sc.0),
                (reference.ra.0, reference.sc.0)
            ));
        }
    }
    Ok(())
}

/// A family-(c) case study through `c11_verify`: whether the paper's
/// verdict held, and the exploration's `(unique, generated, finals)`.
pub fn run_case(input: &Input) -> (bool, Counts) {
    match input {
        Input::Peterson(n) => {
            let r = c11_verify::peterson::check_peterson(*n);
            (
                r.mutual_exclusion && r.invariant_failures.is_empty(),
                counts(&r.stats),
            )
        }
        Input::Spinlock(n) => {
            let r = c11_verify::casestudies::check_spinlock(*n, true);
            (r.mutual_exclusion && r.data_protected, counts(&r.stats))
        }
        Input::Litmus(_) | Input::Program(_) => unreachable!("family c only"),
    }
}

/// A cold request on a fresh session, then the same request again on
/// that session (a cache hit). Each time covers the run and the JSON
/// render `c11check --json` prints.
pub fn cold_then_hit(
    req: &CheckRequest,
) -> Result<(CheckReport, Duration, CheckReport, Duration), String> {
    let (cold_req, hit_req) = (req.clone(), req.clone());
    let t0 = Instant::now();
    let session = Session::new(SessionConfig::default());
    let cold = session.run(cold_req).map_err(|e| e.to_string())?;
    black_box(cold.to_json());
    let miss = t0.elapsed();
    let t1 = Instant::now();
    let hit = session.run(hit_req).map_err(|e| e.to_string())?;
    black_box(hit.to_json());
    Ok((cold, miss, hit, t1.elapsed()))
}

/// The engine × reduction × store cells `check-matrix` runs (every
/// non-default cell).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    SleepSet,
    SourceSet,
    Parallel,
    StoreSym,
    StoreShared,
}

impl Cell {
    pub const ALL: [Cell; 5] = [
        Cell::SleepSet,
        Cell::SourceSet,
        Cell::Parallel,
        Cell::StoreSym,
        Cell::StoreShared,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Cell::SleepSet => "sleep_set",
            Cell::SourceSet => "source_set",
            Cell::Parallel => "parallel",
            Cell::StoreSym => "store_sym",
            Cell::StoreShared => "store_shared",
        }
    }

    pub fn apply(&self, req: CheckRequest) -> CheckRequest {
        match self {
            Cell::SleepSet => req.reduction(Reduction::SleepSet),
            Cell::SourceSet => req.reduction(Reduction::SourceSet),
            Cell::Parallel => req.engine(Engine::Parallel { workers: 2 }),
            Cell::StoreSym => req.store(StoreKind::Sym),
            Cell::StoreShared => req.store(StoreKind::Shared),
        }
    }
}

/// A timing an entry recorded, to be adjusted once the entry is over.
enum Timed {
    /// A cold verdict, and whether it was a session request (families a
    /// and b), which also makes it a miss.
    Verdict(Duration, bool),
    Hit(Duration),
}

/// Per-run tallies of the `check-*` workloads. Times are adjusted to
/// the reference host (see `speed.rs`) unless named raw.
#[derive(Default)]
pub struct Tally {
    /// Time to verdict of every cold request (ms).
    pub verdict: Vec<f64>,
    /// The same, unadjusted (ms).
    pub verdict_raw: Vec<f64>,
    /// The verdicts of cold session runs (families a and b; ms). On
    /// `check-matrix` every verdict is one.
    pub miss: Vec<f64>,
    /// Repeated requests answered from the session cache (ms).
    pub hit: Vec<f64>,
    pub unique: usize,
    /// Time spent in verdicts (s).
    pub verdict_secs: f64,
    /// Time spent on deck entries, checks included (s).
    pub busy_secs: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Σ `generated` over the deck's first pass.
    pub generated: usize,
    speed: Speed,
    /// The current entry's timings.
    pending: Vec<Timed>,
}

impl Tally {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("wrong answer: {what}: {why}");
        }
    }

    /// Records one cold verdict: one attempted request.
    fn record_verdict(&mut self, d: Duration, unique: usize, session: bool) {
        self.attempted += 1;
        self.pending.push(Timed::Verdict(d, session));
        self.unique += unique;
    }

    /// Records a cold/hit pair (right or wrong) as one attempted request
    /// and checks the hit repeats the cold answer.
    fn record_pair(
        &mut self,
        cold: &Summary,
        miss: Duration,
        hit: &CheckReport,
        hit_t: Duration,
    ) -> Result<(), String> {
        self.record_verdict(miss, cold.ra.0 + cold.sc.0, true);
        self.pending.push(Timed::Hit(hit_t));
        if !hit.cache_hit() {
            return Err("repeated request missed the session cache".to_string());
        }
        if &summarize(hit) != cold {
            return Err("cache hit differs from the cold answer".to_string());
        }
        Ok(())
    }

    /// Runs one deck entry between two samples of the host's speed and
    /// adjusts its timings by their mean.
    fn entry(
        &mut self,
        entry: impl FnOnce(&mut Tally) -> Result<(), String>,
    ) -> Result<(), String> {
        let before = self.speed.sample();
        let t0 = Instant::now();
        let out = entry(self);
        let busy = t0.elapsed();
        let f = (before + self.speed.sample()) / 2.0;
        self.busy_secs += busy.as_secs_f64() * f;
        for t in std::mem::take(&mut self.pending) {
            match t {
                Timed::Verdict(d, session) => {
                    self.verdict.push(util::ms(d) * f);
                    self.verdict_raw.push(util::ms(d));
                    self.verdict_secs += d.as_secs_f64() * f;
                    if session {
                        self.miss.push(util::ms(d) * f);
                    }
                }
                Timed::Hit(d) => self.hit.push(util::ms(d) * f),
            }
        }
        out
    }

    /// Right answers ÷ attempted requests.
    fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// The end-to-end metrics of a `check-*` run.
    pub fn metrics(&self, setup_s: f64) -> Result<Vec<Metric>, String> {
        let verdicts = self.verdict.len() as f64;
        eprintln!(
            "raw (unadjusted): verdict p50 {:.4} ms, {:.2} verdicts/s; median host-speed factor {:.3}",
            util::quantile(&self.verdict_raw, 0.5).unwrap_or(0.0),
            verdicts / (self.busy_secs / self.speed.median_factor()),
            self.speed.median_factor()
        );
        util::EndToEnd {
            setup_s,
            verdicts: &self.verdict,
            verdicts_per_s: verdicts / self.busy_secs,
            states_per_s: self.unique as f64 / self.verdict_secs,
            states_generated: self.generated,
            hits: &self.hit,
            misses: &self.miss,
            goodput_rps: (verdicts - self.failed as f64).max(0.0) / self.busy_secs,
            peak_rss_mb: util::peak_rss_mb("self")?,
            ok_share: self.ok_share(),
        }
        .metrics()
    }
}

/// Times repeated set-ups, each adjusted to the reference host.
fn adjusted_setup<T>(setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut speed = Speed::default();
    util::repeated_setup(|| speed.sample(), setup)
}

/// Set-up of `check-cold`: the deck, and the axiomatic outcome set of
/// every family-(b) program with at most 4 reads.
pub struct ColdSetup {
    pub deck: Vec<Input>,
    pub axiomatic: HashMap<String, BTreeSet<Row>>,
}

pub fn cold_setup(seed: u64) -> Result<ColdSetup, String> {
    let corpus = gen::litmus_corpus()?;
    let deck = gen::cold_deck(seed, &corpus);
    let mut axiomatic = HashMap::new();
    for input in &deck {
        if let Input::Program(p) = input {
            if p.reads <= 4 && !axiomatic.contains_key(&p.src) {
                let ax = axiomatic_outcomes(&p.src).map_err(|e| format!("{}: {e}", p.name))?;
                axiomatic.insert(p.src.clone(), ax);
            }
        }
    }
    Ok(ColdSetup { deck, axiomatic })
}

/// Runs whole passes over `deck` until `seconds` have passed, calling
/// `step` on each entry with its index and whether this is the first
/// pass.
pub fn passes<T>(
    deck: &[T],
    seconds: f64,
    mut step: impl FnMut(usize, &T, bool) -> Result<(), String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut first = true;
    loop {
        for (i, item) in deck.iter().enumerate() {
            step(i, item, first)?;
        }
        first = false;
        if t0.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// `check-cold`: one request at a time on a fresh session.
pub fn run_cold(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (setup, setup_s) = adjusted_setup(|| cold_setup(seed))?;
    let mut tally = Tally::default();
    let mut first_answer: HashMap<usize, Summary> = HashMap::new();
    passes(&setup.deck, seconds, |i, input, first| {
        tally.entry(|tally| {
            let Some(req) = request_for(input) else {
                let ((ok, c), d) = util::timed(|| run_case(input));
                tally.record_verdict(d, c.0, false);
                if first {
                    tally.generated += c.1;
                }
                if !ok {
                    tally.fail(&input.name(), "case-study verdict failed");
                }
                return Ok(());
            };
            let (cold, miss, hit, hit_t) = cold_then_hit(&req)?;
            let s = summarize(&cold);
            if first {
                tally.generated += s.ra.1 + s.sc.1;
            }
            let src = source_of(input).expect("families a and b have a source");
            let hit_check = tally.record_pair(&s, miss, &hit, hit_t);
            let verdict = check_answer(input, &s, setup.axiomatic.get(src))
                .and_then(|()| match first_answer.get(&i) {
                    Some(prev) if prev != &s => Err("answer changed between passes".to_string()),
                    _ => Ok(()),
                })
                .and(hit_check);
            if let Err(why) = verdict {
                tally.fail(&input.name(), &why);
            }
            first_answer.entry(i).or_insert(s);
            Ok(())
        })
    })?;
    let metrics = tally.metrics(setup_s)?;
    Ok(Outcome::new(tally.attempted, tally.failed, metrics))
}

/// Set-up of `check-matrix`: the (a)+(b) inputs, their symmetry
/// classes, and the sequential reference answer of each.
pub struct MatrixSetup {
    pub inputs: Vec<Input>,
    pub classes: Vec<SymClasses>,
    pub reference: Vec<Summary>,
    /// `(input, cell)` pairs in seeded order.
    pub deck: Vec<(usize, Cell)>,
}

pub fn matrix_setup(seed: u64) -> Result<MatrixSetup, String> {
    let corpus = gen::litmus_corpus()?;
    let inputs = gen::matrix_inputs(seed, &corpus);
    let mut classes = Vec::new();
    let mut reference = Vec::new();
    for input in &inputs {
        let src = source_of(input).expect("families a and b have a source");
        classes.push(SymClasses::of(
            &parse_program(src).map_err(|e| e.to_string())?,
        ));
        let req = request_for(input).expect("families a and b make requests");
        let s = summarize(&req.run().map_err(|e| format!("{}: {e}", input.name()))?);
        check_answer(input, &s, None).map_err(|e| format!("reference {}: {e}", input.name()))?;
        reference.push(s);
    }
    let mut deck: Vec<(usize, Cell)> = (0..inputs.len())
        .flat_map(|i| Cell::ALL.into_iter().map(move |c| (i, c)))
        .collect();
    gen::Rng::new(seed ^ 0x6d61_7472_6978).shuffle(&mut deck);
    Ok(MatrixSetup {
        inputs,
        classes,
        reference,
        deck,
    })
}

/// `check-matrix`: the same inputs through every non-default cell.
pub fn run_matrix(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (setup, setup_s) = adjusted_setup(|| matrix_setup(seed))?;
    let mut tally = Tally::default();
    passes(&setup.deck, seconds, |_, &(i, cell), first| {
        tally.entry(|tally| {
            let input = &setup.inputs[i];
            let req = cell.apply(request_for(input).expect("families a and b make requests"));
            let (cold, miss, hit, hit_t) = cold_then_hit(&req)?;
            let s = summarize(&cold);
            if first {
                tally.generated += s.ra.1 + s.sc.1;
            }
            let hit_check = tally.record_pair(&s, miss, &hit, hit_t);
            let verdict = check_answer(input, &s, None)
                .and_then(|()| check_contract(&s, &setup.reference[i], &setup.classes[i]))
                .and(hit_check);
            if let Err(why) = verdict {
                tally.fail(&format!("{} × {}", input.name(), cell.name()), &why);
            }
            Ok(())
        })
    })?;
    let metrics = tally.metrics(setup_s)?;
    Ok(Outcome::new(tally.attempted, tally.failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each request counts once in `attempted` and at most once in
    /// `failed`, so `ok_share` is right answers ÷ requests.
    #[test]
    fn tally_counts_one_attempt_per_request() {
        let req = CheckRequest::program("vars x; thread t1 { x := 1; } thread t2 { r0 <- x; }");
        let mut tally = Tally::default();
        for i in 0..4 {
            tally
                .entry(|tally| {
                    let (cold, miss, hit, hit_t) = cold_then_hit(&req)?;
                    tally.record_pair(&summarize(&cold), miss, &hit, hit_t)?;
                    if i % 2 == 0 {
                        tally.fail("request", "wrong on purpose");
                    }
                    Ok(())
                })
                .unwrap();
        }
        tally
            .entry(|tally| {
                tally.record_verdict(Duration::from_millis(1), 1, false);
                Ok(())
            })
            .unwrap();
        assert_eq!((tally.attempted, tally.failed), (5, 2));
        assert_eq!(tally.ok_share(), 0.6);
        assert_eq!(
            (tally.verdict.len(), tally.miss.len(), tally.hit.len()),
            (5, 4, 4)
        );
    }
}
