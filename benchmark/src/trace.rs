//! The traced run: per-layer time and work, from spans this file records
//! around calls into each layer's public functions (nothing inside the
//! program is instrumented).
//!
//! Every traced run measures all three paths and prints every per-layer
//! metric: the named workload's own path for `--seconds`, the other two
//! for one deck pass (`check-*`) or [`SHORT_SERVE_S`] seconds
//! (`serve-mixed`).
//!
//! * `check-cold`: a replica of the sequential engine's breadth-first
//!   search (`explore_invariant_with`) built from the public step,
//!   transition, fingerprint and store calls, timed per call. Its
//!   `unique`/`generated`/`finals` must equal the engine's report on
//!   every request, or the run fails.
//! * `check-matrix`: each engine × reduction × store cell timed around
//!   `Session::run`, with the work its report states.
//! * `serve-mixed`: `c11netd`'s per-frame path rebuilt in-process over
//!   real loopback sockets with `c11netd`'s default session settings.
//!   `net.read_frame` spans from the client's send to the server holding
//!   the frame, and `net.write_frame` from the server's write call to the
//!   client holding the whole response, so wire time and the kernel's
//!   send delays land in the frame layer that causes them.
//!
//! For each path the run prints the layer self-times, their sum, the
//! unattributed remainder and the tracing overhead (traced minus
//! untraced) to standard error. Traced and untraced requests alternate,
//! so both see the same conditions.

use crate::check::{self, Cell, Counts, Summary};
use crate::gen::{self, Input};
use crate::serve::{self, Expected};
use crate::util::{self, Metrics, Outcome};
use c11_api::json::Json;
use c11_api::net::{self, FrameIn};
use c11_api::{CheckError, CheckReport, Session, SessionConfig};
use c11_core::config::Config;
use c11_core::fingerprint::{combine128, hash128_of};
use c11_core::model::{MemoryModel, RaModel, ScModel, Transition};
use c11_lang::step::{apply_step, step_shape, StepShape};
use c11_lang::{parse_program, Prog, StepLabel, ThreadId};
use c11_store::{AnyStore, StoreKind, VisitedStore};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the serve phase runs when another workload is traced.
pub const SHORT_SERVE_S: f64 = 3.0;
/// The engines' distinct-configuration cap (`ExploreConfig` default),
/// which every request the benchmark makes leaves at its default.
const MAX_STATES: usize = 1_000_000;

/// The `check-cold` layers, in print order.
#[derive(Clone, Copy)]
enum L {
    Parse,
    StepShape,
    ApplyStep,
    Transitions,
    Fingerprint,
    StoreInsert,
    Frontier,
    IsValid,
    Invariant,
    ToJson,
}

const LAYERS: [(L, &str); 10] = [
    (L::Parse, "lang.parse_program"),
    (L::StepShape, "lang.step_shape"),
    (L::ApplyStep, "lang.apply_step"),
    (L::Transitions, "core.transitions"),
    (L::Fingerprint, "core.fingerprint"),
    (L::StoreInsert, "store.insert"),
    (L::Frontier, "explore.frontier"),
    (L::IsValid, "axiomatic.is_valid"),
    (L::Invariant, "verify.invariant"),
    (L::ToJson, "api.to_json"),
];

/// Span totals of the `check-cold` path.
#[derive(Default)]
struct Layers {
    ns: [u128; 10],
    calls: [u64; 10],
    transitions_out: u64,
    inserts: u64,
    fresh: u64,
    flat_bytes: usize,
    unattributed_ns: i128,
    overhead_ns: i128,
    requests: usize,
}

impl Layers {
    fn span<T>(&mut self, l: L, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(l, t0.elapsed());
        out
    }

    fn add(&mut self, l: L, d: Duration) {
        self.ns[l as usize] += d.as_nanos();
        self.calls[l as usize] += 1;
    }

    fn total_ns(&self) -> u128 {
        self.ns.iter().sum()
    }

    /// Time inside the search loop spent in its child layers.
    fn search_children_ns(&self) -> u128 {
        [
            L::StepShape,
            L::ApplyStep,
            L::Transitions,
            L::Fingerprint,
            L::StoreInsert,
            L::Invariant,
        ]
        .iter()
        .map(|&l| self.ns[l as usize])
        .sum()
    }
}

/// What the replica search found.
struct Replica<M: MemoryModel> {
    unique: usize,
    generated: usize,
    finals: Vec<Config<M>>,
    truncated: bool,
}

type Inv<'a, M> = Option<&'a mut dyn FnMut(&Config<M>)>;

/// The replica's visited set and frontier.
struct Walk<'a, M: MemoryModel> {
    model: &'a M,
    store: AnyStore,
    queue: VecDeque<Config<M>>,
    found: Replica<M>,
}

impl<M: MemoryModel> Walk<'_, M> {
    fn key(&self, lt: &mut Layers, c: &Config<M>) -> u128 {
        lt.span(L::Fingerprint, || {
            combine128(&[
                hash128_of(&c.coms),
                hash128_of(&c.regs),
                self.model.state_fingerprint(&c.mem),
            ])
        })
    }

    /// A freshly generated successor: dedup, check, enqueue.
    fn offer(&mut self, next: Config<M>, lt: &mut Layers, inv: &mut Inv<'_, M>) {
        self.found.generated += 1;
        let key = self.key(lt, &next);
        let fresh = lt.span(L::StoreInsert, || self.store.insert(key));
        lt.inserts += 1;
        if !fresh {
            return;
        }
        lt.fresh += 1;
        self.found.unique += 1;
        if let Some(inv) = inv.as_mut() {
            lt.span(L::Invariant, || inv(&next));
        }
        if next.is_terminated() {
            self.found.finals.push(next);
        } else {
            self.queue.push_back(next);
        }
    }
}

/// The sequential engine's search (`explore_invariant_with` with a flat
/// store, no traces, no symmetry) rebuilt from public calls.
fn replica<M: MemoryModel>(
    model: &M,
    prog: &Prog,
    max_events: usize,
    lt: &mut Layers,
    mut inv: Inv<'_, M>,
) -> Replica<M> {
    let t0 = Instant::now();
    let children_before = lt.search_children_ns();
    let mut w = Walk {
        model,
        store: AnyStore::new(StoreKind::Flat),
        queue: VecDeque::new(),
        found: Replica {
            unique: 1,
            generated: 0,
            finals: Vec::new(),
            truncated: false,
        },
    };
    let initial = Config::initial(model, prog);
    let key = w.key(lt, &initial);
    lt.span(L::StoreInsert, || w.store.insert(key));
    if let Some(inv) = inv.as_mut() {
        lt.span(L::Invariant, || inv(&initial));
    }
    if initial.is_terminated() {
        w.found.finals.push(initial);
    } else {
        w.queue.push_back(initial);
    }
    while let Some(config) = w.queue.pop_front() {
        if w.found.unique >= MAX_STATES {
            w.found.truncated = true;
            break;
        }
        if model.state_size(&config.mem) >= max_events {
            w.found.truncated = true;
            continue;
        }
        for t in config.thread_ids() {
            let idx = t.0 as usize - 1;
            let (com, regs) = (&config.coms[idx], &config.regs[idx]);
            match lt.span(L::StepShape, || step_shape(com, regs)) {
                None => {}
                Some(StepShape::Tau) => {
                    let res = lt
                        .span(L::ApplyStep, || apply_step(com, &StepLabel::Tau, regs))
                        .expect("a τ shape applies with the τ label");
                    let mut next = config.clone();
                    next.coms[idx] = Arc::new(res.com);
                    if let Some((r, v)) = res.reg_write {
                        next.regs[idx].set(r, v);
                    }
                    w.offer(next, lt, &mut inv);
                }
                Some(StepShape::Act(shape)) => {
                    let trs = lt.span(L::Transitions, || model.transitions(&config.mem, t, &shape));
                    lt.transitions_out += trs.len() as u64;
                    for Transition { action, state, .. } in trs {
                        let label = StepLabel::Act(action);
                        let res = lt
                            .span(L::ApplyStep, || apply_step(com, &label, regs))
                            .expect("a model transition matches the enabled shape");
                        let mut coms = config.coms.clone();
                        coms[idx] = Arc::new(res.com);
                        let mut regs = config.regs.clone();
                        if let Some((r, v)) = res.reg_write {
                            regs[idx].set(r, v);
                        }
                        let next = Config {
                            coms,
                            regs,
                            mem: Arc::new(state),
                        };
                        w.offer(next, lt, &mut inv);
                    }
                }
            }
        }
    }
    lt.flat_bytes = lt.flat_bytes.max(w.store.stats().bytes_resident);
    let children = lt.search_children_ns() - children_before;
    let own = t0.elapsed().as_nanos().saturating_sub(children);
    lt.ns[L::Frontier as usize] += own;
    lt.calls[L::Frontier as usize] += 1;
    w.found
}

fn triple<M: MemoryModel>(r: &Replica<M>) -> Counts {
    (r.unique, r.generated, r.finals.len())
}

/// The engine's answer to one `check-cold` input (untraced).
enum Engine {
    Report(Box<CheckReport>),
    Case(bool, Counts),
}

fn untraced(input: &Input) -> Result<Engine, String> {
    match check::request_for(input) {
        Some(req) => {
            let report = Session::new(SessionConfig::default())
                .run(req)
                .map_err(|e| e.to_string())?;
            black_box(report.to_json());
            Ok(Engine::Report(Box::new(report)))
        }
        None => {
            let (ok, counts) = check::run_case(input);
            Ok(Engine::Case(ok, counts))
        }
    }
}

/// The replica's answer: the `(unique, generated, finals)` of each
/// search it ran (RA then SC for a litmus verdict), and for case studies
/// whether the paper's verdict held.
fn traced(input: &Input, lt: &mut Layers) -> Result<(Vec<Counts>, bool), String> {
    let parse = |lt: &mut Layers, src: &str| {
        lt.span(L::Parse, || parse_program(src))
            .map_err(|e| e.to_string())
    };
    match input {
        Input::Litmus(t) => {
            let prog = parse(lt, &t.source)?;
            let ra = replica(&RaModel, &prog, t.max_events, lt, None);
            let sc = replica(&ScModel, &prog, t.max_events, lt, None);
            Ok((vec![triple(&ra), triple(&sc)], true))
        }
        Input::Program(p) => {
            let prog = parse(lt, &p.src)?;
            let ra = replica(
                &RaModel,
                &prog,
                c11_explore::ExploreConfig::default().max_events,
                lt,
                None,
            );
            let mut valid = true;
            for f in &ra.finals {
                valid &= lt.span(L::IsValid, || c11_axiomatic::axioms::is_valid(&f.mem));
            }
            Ok((vec![triple(&ra)], valid))
        }
        Input::Peterson(n) => {
            let prog = lt.span(L::Parse, c11_verify::peterson::peterson_program);
            let vars = c11_verify::peterson::Vars::of(&prog);
            let (mut mutex, mut fails) = (true, 0);
            let mut inv = |c: &Config<RaModel>| {
                mutex &= !(c.pc(ThreadId(1)) == Some(5) && c.pc(ThreadId(2)) == Some(5));
                fails += c11_verify::peterson::invariant_failures(c, &vars).len();
            };
            let r = replica(&RaModel, &prog, *n, lt, Some(&mut inv));
            Ok((vec![triple(&r)], mutex && fails == 0))
        }
        Input::Spinlock(n) => {
            let prog = lt.span(L::Parse, || c11_verify::casestudies::spinlock_program(true));
            let d = prog.var("d").ok_or("spinlock has no d")?;
            let (mut mutex, mut protected) = (true, true);
            let mut inv = |c: &Config<RaModel>| {
                let in_cs = |t: ThreadId| c.pc(t) == Some(5);
                mutex &= !(in_cs(ThreadId(1)) && in_cs(ThreadId(2)));
                for t in [ThreadId(1), ThreadId(2)] {
                    protected &=
                        !(in_cs(t) && c11_verify::determinate_value(&c.mem, t, d).is_none());
                }
            };
            let r = replica(&RaModel, &prog, *n, lt, Some(&mut inv));
            Ok((vec![triple(&r)], mutex && protected))
        }
    }
}

/// One `check-cold` request, traced and untraced (alternating which
/// goes first); fails unless the replica's counts equal the engine's.
fn cold_request(i: usize, input: &Input, lt: &mut Layers) -> Result<(), String> {
    let run_untraced = || util::timed(|| untraced(input));
    let run_traced = |lt: &mut Layers| {
        let before = lt.total_ns();
        let (out, d) = util::timed(|| traced(input, lt));
        (out, d, before)
    };
    let (engine, u, (replica, mut t, before)) = if i.is_multiple_of(2) {
        let (e, u) = run_untraced();
        (e, u, run_traced(lt))
    } else {
        let tr = run_traced(lt);
        let (e, u) = run_untraced();
        (e, u, tr)
    };
    let (engine, (counts, verdict)) = (engine?, replica?);
    // The render layer runs on the engine's report: the replica has none.
    let want = match &engine {
        Engine::Report(report) => {
            let (_, d) = util::timed(|| lt.span(L::ToJson, || black_box(report.to_json())));
            t += d;
            let s = check::summarize(report);
            if s.invalid_finals != 0 || !verdict {
                return Err(format!("{}: RA validity disagrees", input.name()));
            }
            if s.litmus.is_some() {
                vec![s.ra, s.sc]
            } else {
                vec![s.ra]
            }
        }
        Engine::Case(ok, c) => {
            if *ok != verdict {
                return Err(format!(
                    "{}: replica verdict {verdict}, engine {ok}",
                    input.name()
                ));
            }
            vec![*c]
        }
    };
    if counts != want {
        return Err(format!(
            "{}: replica (unique, generated, finals) {counts:?} differ from the engine's {want:?}",
            input.name()
        ));
    }
    let accrued = lt.total_ns() - before;
    lt.unattributed_ns += t.as_nanos() as i128 - accrued as i128;
    lt.overhead_ns += t.as_nanos() as i128 - u.as_nanos() as i128;
    lt.requests += 1;
    Ok(())
}

fn ns_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Prints a path's layer table: self-times, their sum, the remainder
/// and the tracing overhead (all per deck pass for `check-*`).
fn print_table(
    path: &str,
    rows: &[(String, f64)],
    unattributed: f64,
    overhead: Option<f64>,
    per: &str,
) {
    eprintln!("── {path}: layer self-times, ms {per}");
    for (name, v) in rows {
        eprintln!("  {name:<40} {v:>12.3}");
    }
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    eprintln!("  {:<40} {sum:>12.3}", "sum of layers");
    eprintln!("  {:<40} {unattributed:>12.3}", "unattributed");
    eprintln!("  {:<40} {:>12.3}", "traced total", sum + unattributed);
    if let Some(o) = overhead {
        eprintln!("  {:<40} {o:>12.3}", "tracing overhead (traced − untraced)");
    }
}

fn cold_phase(seed: u64, seconds: f64, m: &mut Metrics) -> Result<usize, String> {
    let deck = gen::cold_deck(seed, &gen::litmus_corpus()?);
    let mut lt = Layers::default();
    let mut passes = 0usize;
    check::passes(&deck, seconds, |i, input, _| {
        passes += usize::from(i == 0);
        cold_request(i, input, &mut lt)
    })?;
    let per = passes as f64;
    let mut rows = Vec::new();
    for (l, name) in LAYERS {
        let v = ns_ms(lt.ns[l as usize] as f64) / per;
        m.push(format!("{name}.ms"), v, "ms");
        m.count(format!("{name}.calls"), lt.calls[l as usize] as f64 / per);
        rows.push((name.to_string(), v));
    }
    m.count("core.transitions.out", lt.transitions_out as f64 / per);
    m.push(
        "store.insert.fresh_ratio",
        lt.fresh as f64 / lt.inserts as f64,
        "ratio",
    );
    m.push("store.flat.bytes_resident", lt.flat_bytes as f64, "bytes");
    let unattributed = ns_ms(lt.unattributed_ns as f64) / per;
    let overhead = ns_ms(lt.overhead_ns as f64) / per;
    m.push("check.unattributed.ms", unattributed, "ms");
    m.push("check.trace_overhead.ms", overhead, "ms");
    print_table(
        "check-cold (replica search)",
        &rows,
        unattributed,
        Some(overhead),
        "per deck pass",
    );
    Ok(lt.requests)
}

/// Work and time of one matrix cell.
#[derive(Default)]
struct CellTally {
    ns: u128,
    unique: usize,
    generated: usize,
    finals: usize,
    bytes: usize,
}

fn matrix_phase(seed: u64, seconds: f64, m: &mut Metrics) -> Result<(usize, usize), String> {
    let setup = check::matrix_setup(seed)?;
    let mut cells: HashMap<&str, CellTally> = HashMap::new();
    let (mut unattributed, mut overhead, mut passes, mut requests, mut failed) =
        (0i128, 0i128, 0usize, 0, 0);
    check::passes(&setup.deck, seconds, |k, &(i, cell), _| {
        passes += usize::from(k == 0);
        let req = cell.apply(check::request_for(&setup.inputs[i]).expect("families a and b"));
        let plain = || -> Result<(CheckReport, Duration), String> {
            let t0 = Instant::now();
            let r = Session::new(SessionConfig::default())
                .run(req.clone())
                .map_err(|e| e.to_string())?;
            black_box(r.to_json());
            Ok((r, t0.elapsed()))
        };
        let spanned = || -> Result<(CheckReport, Duration, Duration), String> {
            let t0 = Instant::now();
            let session = Session::new(SessionConfig::default());
            let (r, explore) = util::timed(|| session.run(req.clone()));
            let r = r.map_err(|e| e.to_string())?;
            black_box(r.to_json());
            Ok((r, explore, t0.elapsed()))
        };
        let ((_, u), (report, explore, t)) = if k.is_multiple_of(2) {
            (plain()?, spanned()?)
        } else {
            let s = spanned()?;
            (plain()?, s)
        };
        let s: Summary = check::summarize(&report);
        requests += 1;
        if let Err(why) = check::check_answer(&setup.inputs[i], &s, None)
            .and_then(|()| check::check_contract(&s, &setup.reference[i], &setup.classes[i]))
        {
            failed += 1;
            eprintln!(
                "wrong answer: {} × {}: {why}",
                setup.inputs[i].name(),
                cell.name()
            );
        }
        let c = cells.entry(cell.name()).or_default();
        c.ns += explore.as_nanos();
        c.unique += s.ra.0 + s.sc.0;
        c.generated += s.ra.1 + s.sc.1;
        c.finals += s.ra.2 + s.sc.2;
        let stats = report.stats();
        c.bytes = c.bytes.max(stats.store.map_or(0, |st| st.bytes_resident));
        unattributed += t.as_nanos() as i128 - explore.as_nanos() as i128;
        overhead += t.as_nanos() as i128 - u.as_nanos() as i128;
        Ok(())
    })?;
    let per = passes as f64;
    let mut rows = Vec::new();
    for cell in Cell::ALL {
        let c = &cells[cell.name()];
        let v = ns_ms(c.ns as f64) / per;
        m.push(format!("explore.{}.ms", cell.name()), v, "ms");
        m.count(
            format!("explore.{}.generated", cell.name()),
            c.generated as f64 / per,
        );
        m.count(
            format!("explore.{}.unique", cell.name()),
            c.unique as f64 / per,
        );
        rows.push((format!("explore.{}", cell.name()), v));
    }
    let ss = &cells[Cell::SleepSet.name()];
    m.push(
        "explore.sleep_set.generated_per_unique",
        ss.generated as f64 / ss.unique as f64,
        "ratio",
    );
    let src = &cells[Cell::SourceSet.name()];
    m.push(
        "explore.source_set.generated_per_final",
        src.generated as f64 / src.finals as f64,
        "ratio",
    );
    m.push(
        "store.sym.bytes_resident",
        cells[Cell::StoreSym.name()].bytes as f64,
        "bytes",
    );
    m.push(
        "store.shared.bytes_resident",
        cells[Cell::StoreShared.name()].bytes as f64,
        "bytes",
    );
    let (un, ov) = (
        ns_ms(unattributed as f64) / per,
        ns_ms(overhead as f64) / per,
    );
    m.push("matrix.unattributed.ms", un, "ms");
    m.push("matrix.trace_overhead.ms", ov, "ms");
    print_table("check-matrix (cells)", &rows, un, Some(ov), "per deck pass");
    Ok((requests, failed))
}

/// Resets a lap clock and returns the time since the previous lap; a
/// no-op for untraced frames.
struct Lap(Option<Instant>);

impl Lap {
    fn lap(&mut self) -> Duration {
        match &mut self.0 {
            Some(t) => {
                let now = Instant::now();
                let d = now - *t;
                *t = now;
                d
            }
            None => Duration::ZERO,
        }
    }
}

/// The server-side spans of one traced frame.
#[derive(Default)]
struct FrameSpans {
    json: Duration,
    request: Duration,
    submit: Duration,
    wait: Duration,
    compute: Duration,
    report_line: Duration,
    in_flight: usize,
}

/// One traced frame as the server saw it.
struct ServerRec {
    id: String,
    read_done: Instant,
    write_start: Instant,
    spans: FrameSpans,
}

/// `c11netd`'s `respond` (without its tally), with laps between calls.
fn respond(
    payload: &[u8],
    session: &Session,
    lap: &mut Lap,
    sp: &mut FrameSpans,
) -> (String, String) {
    let parsed = std::str::from_utf8(payload)
        .map_err(|e| format!("frame is not valid UTF-8: {e}"))
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()));
    sp.json = lap.lap();
    let v = match parsed {
        Ok(v) => v,
        Err(msg) => return (String::new(), net::error_line("?", &msg)),
    };
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    if let Some(r) = net::stats_request(&v) {
        let line = match r {
            Ok(()) => net::stats_line(&id, &session.stats()),
            Err(msg) => net::error_line(&id, &msg),
        };
        return (id, line);
    }
    lap.lap();
    let req = net::request_from_json(&v);
    sp.request = lap.lap();
    let req = match req {
        Ok(r) => r,
        Err(msg) => return (id.clone(), net::error_line(&id, &msg)),
    };
    if lap.0.is_some() {
        let s = session.stats();
        sp.in_flight = s.submitted - s.completed;
        lap.lap();
    }
    let job = session.submit(req);
    sp.submit = lap.lap();
    let report = job.and_then(|j| session.wait(j));
    sp.wait = lap.lap();
    let line = match report {
        Ok(report) => {
            if !report.cache_hit() {
                sp.compute = Duration::from_micros(report.stats().wall_micros as u64);
            }
            net::report_line(&id, &report)
        }
        Err(CheckError::Overloaded) => net::overloaded_line(&id),
        Err(e) => net::error_line(&id, &e.to_string()),
    };
    sp.report_line = lap.lap();
    (id, line)
}

/// One connection of the in-process server; every other frame traced.
fn serve_conn(mut conn: TcpStream, session: &Session) -> Vec<ServerRec> {
    // c11netd's socket settings.
    let _ = conn.set_read_timeout(Some(Duration::from_millis(1000)));
    let _ = conn.set_write_timeout(Some(Duration::from_millis(5000)));
    let mut recs = Vec::new();
    let mut frame_no = 0usize;
    loop {
        let traced = !frame_no.is_multiple_of(2);
        let payload = match net::read_frame(&mut conn) {
            Ok(FrameIn::Frame(p)) => p,
            Ok(FrameIn::Idle) => continue,
            Ok(FrameIn::Eof) | Err(_) => return recs,
        };
        frame_no += 1;
        let mut lap = Lap(traced.then(Instant::now));
        let read_done = lap.0;
        let mut spans = FrameSpans::default();
        let (id, line) = respond(&payload, session, &mut lap, &mut spans);
        let write_start = traced.then(Instant::now);
        if net::write_frame(&mut conn, line.as_bytes()).is_err() {
            return recs;
        }
        if let (Some(read_done), Some(write_start)) = (read_done, write_start) {
            recs.push(ServerRec {
                id,
                read_done,
                write_start,
                spans,
            });
        }
    }
}

const SERVE_LAYERS: [&str; 9] = [
    "net.read_frame",
    "json.parse",
    "net.request_from_json",
    "session.submit",
    "session.queue_and_lookup",
    "session.compute",
    "net.report_line",
    "net.write_frame",
    "serve.unattributed",
];

fn serve_phase(seed: u64, seconds: f64, m: &mut Metrics) -> Result<(usize, usize), String> {
    let plan = gen::serve_plan(seed, &serve::corpus_sources()?, serve::RATE, seconds);
    let warm: Vec<Expected> = plan
        .warm
        .iter()
        .map(serve::expected_warm)
        .collect::<Result<_, _>>()?;
    // c11netd's defaults: two workers, cache on, --auto-parallel 4.
    let session = Session::new(
        SessionConfig::default()
            .workers(2)
            .cache(true)
            .parallel_threshold(4),
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    let mut conns = [serve::connect(port)?, serve::connect(port)?];
    let (client, server_recs, stats) = std::thread::scope(|s| {
        let servers: Vec<_> = (0..2)
            .map(|_| {
                let (conn, _) = listener.accept().map_err(|e| e.to_string())?;
                let session = &session;
                Ok(s.spawn(move || serve_conn(conn, session)))
            })
            .collect::<Result<_, String>>()?;
        let mut run = || -> Result<_, String> {
            serve::warm_up(&mut conns[0], &plan.warm, &warm)?;
            let before = session.stats();
            let run = serve::open_loop(&plan, &mut conns)?;
            Ok((run, before, session.stats()))
        };
        let client = run();
        // Closing the client side ends both server loops.
        for c in &conns {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        let recs: Vec<ServerRec> = servers
            .into_iter()
            .flat_map(|h| h.join().expect("server thread panicked"))
            .collect();
        let (out, before, after) = client?;
        Ok::<_, String>((out, recs, (before, after)))
    })?;
    let eval = serve::evaluate(&plan, &warm, &client, seconds)?;
    let (sent, t0) = (&client.sent, client.t0);
    eval.report_hygiene();
    let by_id: HashMap<&str, &ServerRec> = server_recs.iter().map(|r| (r.id.as_str(), r)).collect();
    // samples[kind][layer]; latencies of traced and untraced hits.
    let mut samples: [[Vec<f64>; 9]; 2] = Default::default();
    let (mut traced_hits, mut plain_hits, mut in_flight) = (Vec::new(), Vec::new(), Vec::new());
    for s in sent {
        let (Some(&hit), Some((recv, _))) = (eval.was_hit.get(&s.idx), &s.recv) else {
            continue; // failed requests carry no latency
        };
        let latency = util::ms(recv.saturating_duration_since(t0 + plan.arrivals[s.idx].due));
        let Some(r) = by_id.get(format!("r{}", s.idx).as_str()) else {
            if hit {
                plain_hits.push(latency);
            }
            continue;
        };
        if hit {
            traced_hits.push(latency);
        }
        in_flight.push(r.spans.in_flight as f64);
        let sp = &r.spans;
        let read = r.read_done.saturating_duration_since(s.sent);
        let write = recv.saturating_duration_since(r.write_start);
        let queue = sp.wait.saturating_sub(sp.compute);
        let inner = sp.json + sp.request + sp.submit + sp.wait + sp.report_line;
        let glue = r
            .write_start
            .saturating_duration_since(r.read_done)
            .saturating_sub(inner);
        let layers = [
            read,
            sp.json,
            sp.request,
            sp.submit,
            queue,
            sp.compute,
            sp.report_line,
            write,
            glue,
        ];
        for (k, d) in layers.into_iter().enumerate() {
            samples[usize::from(!hit)][k].push(util::ms(d));
        }
    }
    for (kind, name) in [(0, "hit"), (1, "miss")] {
        let mut rows = Vec::new();
        for (k, layer) in SERVE_LAYERS.iter().enumerate() {
            if kind == 0 && *layer == "session.compute" {
                continue; // hits explore nothing
            }
            let v = &samples[kind][k];
            let p50 = util::quantile(v, 0.5).ok_or(format!("no traced {name} frames"))?;
            m.push(format!("serve.{name}.{layer}.p50_ms"), p50, "ms");
            m.push(
                format!("serve.{name}.{layer}.p99_ms"),
                util::quantile(v, 0.99).expect("non-empty"),
                "ms",
            );
            rows.push((format!("{layer} (p50)"), p50));
        }
        // Traced and untraced frames alternate; hits are the many.
        let overhead = if kind == 0 {
            Some(
                util::median_of(&traced_hits, "traced hits")?
                    - util::median_of(&plain_hits, "untraced hits")?,
            )
        } else {
            None
        };
        let n = samples[kind][0].len();
        let un = rows.pop().map_or(0.0, |(_, v)| v);
        print_table(
            &format!("serve-mixed {name} frames ({n} traced)"),
            &rows,
            un,
            overhead,
            "at p50",
        );
        if let Some(o) = overhead {
            m.push("serve.trace_overhead.ms", o, "ms");
        }
    }
    let (before, after) = stats;
    m.count(
        "session.cache_hits",
        (after.cache_hits - before.cache_hits) as f64,
    );
    m.count(
        "session.explorations",
        (after.explorations - before.explorations) as f64,
    );
    m.count(
        "session.overloaded",
        (after.overloaded - before.overloaded) as f64,
    );
    m.count(
        "session.in_flight.p99",
        util::quantile(&in_flight, 0.99).unwrap_or(0.0),
    );
    m.push(
        "gen.lag.p99_ms",
        util::quantile(&eval.lag, 0.99).unwrap_or(0.0),
        "ms",
    );
    Ok((plan.arrivals.len(), eval.failed))
}

/// The traced run of `workload`: its own path for `seconds`, the other
/// two briefly, every per-layer metric printed.
pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let full = |w: &str| if w == workload { seconds } else { 0.0 };
    let mut m = Metrics::default();
    let cold_requests = cold_phase(seed, full("check-cold"), &mut m)?;
    let (matrix_requests, matrix_failed) = matrix_phase(seed, full("check-matrix"), &mut m)?;
    let serve_s = if workload == "serve-mixed" {
        seconds
    } else {
        SHORT_SERVE_S
    };
    let (serve_requests, serve_failed) = serve_phase(seed, serve_s, &mut m)?;
    let failed = matrix_failed + serve_failed;
    Ok(Outcome::new(
        cold_requests + matrix_requests + serve_requests,
        failed,
        m.0,
    ))
}
