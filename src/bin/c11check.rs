//! `c11check` — explore a program under the RAR C11 operational semantics
//! (or the SC baseline) and report reachable outcomes, axiom validity and
//! optional DOT renderings of the final executions. Built entirely on the
//! [`CheckRequest`] front door (`c11_operational::api`).
//!
//! ```sh
//! c11check program.c11 [--sc] [--max-events N] [--engine E] [--reduction R] [--workers N] [--json] [--dot] [--quiet]
//! echo 'vars x; thread t { x := 1; }' | c11check -
//! c11check --litmus litmus/ --json                        # machine-readable corpus verdicts
//! c11check --litmus litmus/ --json --reduction sleep-set  # same verdicts, fewer states
//! c11check --litmus litmus/ --json --reduction source-set # same verdicts, far fewer states
//! ```
//!
//! Directory litmus mode runs through the `Session` batch path
//! (`Session::run_batch`): tests are scheduled concurrently over a
//! worker pool with fingerprint-keyed result caching. For a long-lived
//! service over the same machinery, see `c11serve` (JSON lines on
//! stdin/stdout).

use c11_operational::api::json::Json;
use c11_operational::prelude::*;
use std::io::Read as _;
use std::process::ExitCode;

struct Opts {
    path: String,
    sc: bool,
    max_events: usize,
    workers: usize,
    engine: Option<Engine>,
    reduction: Option<Reduction>,
    store: StoreKind,
    symmetry: bool,
    json: bool,
    dot: bool,
    quiet: bool,
    litmus: bool,
}

const USAGE: &str = "usage: c11check <program.c11 | - | dir> [--litmus] [--sc] \
     [--max-events N] [--engine E] [--reduction R] [--workers N] [--store S] \
     [--symmetry] [--json] [--dot] [--quiet]\n\
     --litmus: treat the input as a .litmus file (or a directory of \
     them, checked as one Session batch) and check expected verdicts\n\
     --engine E: pick who walks the state space; both engines produce \
     identical reports:\n\
         sequential: the deterministic BFS reference engine (default)\n\
         parallel:   work-stealing engine over --workers threads \
     (fastest on big state spaces)\n\
     --reduction R: pick how much of the state space the walk may skip \
     (sequential engine only):\n\
         none:       visit every reachable configuration (default)\n\
         sleep-set:  sleep-set DPOR — fewer generated states, otherwise \
     identical reports\n\
         source-set: source-set DPOR — one execution per Mazurkiewicz \
     trace; verdicts, outcomes and validity identical, unique/generated \
     intentionally smaller (the finals-only contract, surfaced in the \
     JSON report's \"reduction\" block)\n\
     --workers N: thread count for the parallel engine (shorthand: \
     --workers alone implies --engine parallel); in --litmus dir mode \
     N sizes the batch pool instead (jobs run N at a time)\n\
     --store S: pick the visited-state store; all stores produce \
     identical verdicts and outcomes:\n\
         flat:   one hash set of state fingerprints (default)\n\
         sym:    flat + thread-permutation symmetry quotienting (implies \
     --symmetry; fewer unique states on programs with identical threads)\n\
         shared: hash-consed extendible-hash pages with exact resident-\
     byte accounting (a \"store\" block in --json stats)\n\
     --symmetry: quotient visited states by thread-permutation symmetry \
     with any store (changes unique/generated counts, never verdicts)\n\
     --json: emit a machine-readable c11check/v1 report, e.g.\n\
         c11check program.c11 --json --workers 4\n\
         c11check --litmus litmus/ --json --reduction sleep-set";

/// How argument parsing can end without an `Opts`: a requested help page
/// (exit 0) or a real usage error (exit 2).
enum ArgsEnd {
    Help,
    Bad(String),
}

fn parse_args() -> Result<Opts, ArgsEnd> {
    let bad = |msg: String| ArgsEnd::Bad(msg);
    let mut opts = Opts {
        path: String::new(),
        sc: false,
        max_events: 24,
        workers: 0,
        engine: None,
        reduction: None,
        store: StoreKind::Flat,
        symmetry: false,
        json: false,
        dot: false,
        quiet: false,
        litmus: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sc" => opts.sc = true,
            "--litmus" => opts.litmus = true,
            "--json" => opts.json = true,
            "--dot" => opts.dot = true,
            "--quiet" => opts.quiet = true,
            "--max-events" => opts.max_events = number(&mut args, "--max-events")?,
            "--workers" => opts.workers = number(&mut args, "--workers")?,
            "--engine" => opts.engine = Some(word(&mut args, &a, &Engine::ALL, Engine::name)?),
            "--reduction" => {
                opts.reduction = Some(word(&mut args, &a, &Reduction::ALL, Reduction::name)?);
            }
            "--store" => opts.store = word(&mut args, &a, &StoreKind::ALL, StoreKind::name)?,
            "--symmetry" => opts.symmetry = true,
            "-h" | "--help" => return Err(ArgsEnd::Help),
            p if opts.path.is_empty() && !p.starts_with("--") => opts.path = p.to_string(),
            other => return Err(bad(format!("unknown argument {other:?}"))),
        }
    }
    if opts.path.is_empty() {
        return Err(bad(
            "no input file (use - for stdin); see --help".to_string()
        ));
    }
    Ok(opts)
}

/// The value after `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, ArgsEnd> {
    args.next()
        .ok_or_else(|| ArgsEnd::Bad(format!("{flag} needs a value")))
}

fn number(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, ArgsEnd> {
    let v = value(args, flag)?;
    v.parse()
        .map_err(|e| ArgsEnd::Bad(format!("bad {flag}: {e}")))
}

/// The value after `--thing`, looked up in a spelling table (`all` and
/// its `name`); an unknown value is a usage error listing the valid
/// things.
fn word<T: Copy>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    all: &[T],
    name: fn(&T) -> &'static str,
) -> Result<T, ArgsEnd> {
    let v = value(args, flag)?;
    all.iter().copied().find(|x| name(x) == v).ok_or_else(|| {
        let valid: Vec<&str> = all.iter().map(name).collect();
        let what = &flag[2..];
        ArgsEnd::Bad(format!(
            "unknown {flag} {v:?}: valid {what}s are {}",
            valid.join(", ")
        ))
    })
}

/// Resolve the flags to the engine × reduction pair.
fn selection_of(opts: &Opts) -> (Engine, Reduction) {
    let engine = match opts.engine {
        // --workers sizes an explicit parallel engine.
        Some(Engine::Parallel { workers }) => Engine::Parallel {
            workers: if opts.workers > 0 {
                opts.workers
            } else {
                workers
            },
        },
        Some(engine) => engine,
        // Shorthand: a bare --workers N selects the parallel engine.
        None if opts.workers > 0 => Engine::Parallel {
            workers: opts.workers,
        },
        None => Engine::Sequential,
    };
    (engine, opts.reduction.unwrap_or_default())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(ArgsEnd::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(ArgsEnd::Bad(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if opts.litmus {
        return run_litmus_mode(&opts);
    }
    let src = if opts.path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("failed to read stdin");
            return ExitCode::from(2);
        }
        buf
    } else {
        match std::fs::read_to_string(&opts.path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {}: {e}", opts.path);
                return ExitCode::from(2);
            }
        }
    };

    let (model, bounds) = if opts.sc {
        // SC states do not grow, so bound by depth instead of events.
        (
            ModelChoice::Sc,
            Bounds::default().max_depth(10 * opts.max_events),
        )
    } else {
        (
            ModelChoice::Ra,
            Bounds::default().max_events(opts.max_events),
        )
    };
    let bounds = bounds.store(opts.store).symmetry(opts.symmetry);
    let (engine, reduction) = selection_of(&opts);
    let request = CheckRequest::program(src.as_str())
        .model(model)
        .bounds(bounds)
        .engine(engine)
        .reduction(reduction)
        .mode(Mode::Outcomes)
        .dot(if opts.dot { 4 } else { 0 });
    let report = match request.run() {
        Ok(r) => r,
        Err(CheckError::Parse(e)) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let CheckReport::Outcomes(outcomes) = &report else {
        unreachable!("Outcomes mode produces an Outcomes report");
    };
    // Theorem 4.4 as a runtime self-check (RA runs only).
    if outcomes.invalid_finals > 0 {
        eprintln!(
            "INTERNAL ERROR: {} invalid final states (soundness bug)",
            outcomes.invalid_finals
        );
        return ExitCode::from(3);
    }
    if opts.json {
        println!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }
    if !opts.quiet {
        println!(
            "explored {} configurations ({} terminated){}",
            outcomes.stats.unique,
            outcomes.stats.finals,
            if outcomes.stats.truncated {
                " — TRUNCATED at bound (outcomes are a lower bound)"
            } else {
                ""
            }
        );
    }
    println!(
        "states: {}   truncated: {}",
        outcomes.stats.unique, outcomes.stats.truncated
    );
    println!(
        "distinct terminated register outcomes: {}",
        outcomes.outcomes.len()
    );
    for row in outcomes.outcomes.iter().take(32) {
        println!("  {}", row.render());
    }
    for (i, dot) in outcomes.dot.iter().enumerate() {
        println!("// final execution {i}\n{dot}");
    }
    ExitCode::SUCCESS
}

fn run_litmus_mode(opts: &Opts) -> ExitCode {
    use c11_operational::litmus::load_litmus_file;
    let path = std::path::Path::new(&opts.path);
    // Directory mode is the batch path: every test becomes one job in a
    // `BatchRequest`, scheduled concurrently over a session pool (with
    // result caching across duplicate shapes) and reported back in
    // file-name order. `--workers` sizes the *pool* here — the jobs
    // themselves stay on the sequential engine, since pool × per-job
    // engine workers would oversubscribe the machine for tiny tests.
    // Single-file mode has no pool, so `--workers` selects the parallel
    // engine for the one job, as in program mode.
    let (tests, pool) = if path.is_dir() {
        match c11_operational::litmus::load_litmus_dir(path) {
            Ok(t) => (t, if opts.workers > 0 { opts.workers } else { 2 }),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match load_litmus_file(path) {
            Ok(t) => (vec![t], 1),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        }
    };
    // Dir mode defaults to the sequential engine per job even when
    // --workers sizes the pool (pool × per-job engine workers would
    // oversubscribe the machine for tiny tests) — but an *explicit*
    // --engine choice is always honoured, and a --reduction applies per
    // job either way.
    let (mut engine, reduction) = selection_of(opts);
    if path.is_dir() && opts.engine.is_none() {
        engine = Engine::Sequential;
    }
    let names: Vec<String> = tests.iter().map(|t| t.name.clone()).collect();
    let batch: BatchRequest = tests
        .into_iter()
        .map(|t| {
            CheckRequest::litmus(t)
                .engine(engine)
                .reduction(reduction)
                .store(opts.store)
                .symmetry(opts.symmetry)
        })
        .collect();
    let session = Session::new(SessionConfig::default().workers(pool));
    let out = session.run_batch(batch);
    let failed = out.stats.litmus_failed;
    let mut reports = Vec::new();
    for (result, name) in out.reports.into_iter().zip(&names) {
        match result {
            Ok(CheckReport::Litmus(r)) => reports.push(r),
            Ok(_) => unreachable!("litmus requests produce litmus reports"),
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if opts.json {
        let doc = Json::obj(vec![
            ("schema", Json::str("c11check-litmus/v1")),
            (
                "tests",
                Json::Arr(
                    reports
                        .iter()
                        .map(|r| CheckReport::Litmus(r.clone()).json_value())
                        .collect(),
                ),
            ),
            ("failed", Json::from(failed)),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "{:<14} {:>9} {:>9} {:>10} {:>6}",
            "test", "RA", "SC", "RA-states", "pass"
        );
        for r in &reports {
            println!(
                "{:<14} {:>9} {:>9} {:>10} {:>6}",
                r.name,
                if r.observed_ra { "observed" } else { "absent" },
                if r.observed_sc { "observed" } else { "absent" },
                r.ra.unique,
                if r.pass { "ok" } else { "FAIL" }
            );
        }
    }
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
