//! Evaluates litmus tests by exhaustive exploration under both models.
//!
//! The runner is parameterised by an [`AnyBackend`] handle, so verdicts
//! can be computed by any engine × reduction pair ([`run_test`] defaults
//! to the sequential reference engine for determinism).

use crate::corpus::{Cond, LitmusTest, Verdict};
use c11_core::config::Config;
use c11_core::model::{RaModel, ScModel};
use c11_explore::{AnyBackend, ExploreConfig, Stats, SymClasses};
use c11_lang::{parse_program, Prog, RegId, ThreadId};
use std::time::Instant;

/// Result of running one test under both models, reported in the shared
/// [`Stats`] vocabulary.
#[derive(Clone, Debug)]
pub struct LitmusResult {
    /// Test name.
    pub name: String,
    /// Outcome observed under RA?
    pub observed_ra: bool,
    /// Outcome observed under SC?
    pub observed_sc: bool,
    /// RA exploration stats. A "forbidden" RA verdict is only sound when
    /// `ra.truncated` is false.
    pub ra: Stats,
    /// SC exploration stats.
    pub sc: Stats,
    /// Verdicts match expectations?
    pub pass: bool,
}

fn reg_conds_hold(
    cfg_regs: &[(u8, u8, u32)],
    regs: &dyn Fn(ThreadId, RegId) -> Option<u32>,
) -> bool {
    cfg_regs
        .iter()
        .all(|&(t, r, v)| regs(ThreadId(t), RegId(r)) == Some(v))
}

/// Does a terminated RA configuration exhibit the test's outcome?
pub fn outcome_holds_ra(test: &LitmusTest, prog: &Prog, cfg: &Config<RaModel>) -> bool {
    test.outcome.iter().all(|c| match c {
        Cond::Reg { thread, reg, val } => reg_conds_hold(&[(*thread, *reg, *val)], &|t, r| {
            cfg.regs.get(t.0 as usize - 1).map(|f| f.get(r))
        }),
        Cond::FinalVar { var, val } => {
            let v = prog.var(var).expect("known variable");
            cfg.mem.last(v).and_then(|w| cfg.mem.event(w).wrval()) == Some(*val)
        }
    })
}

/// Does a terminated SC configuration exhibit the test's outcome?
pub fn outcome_holds_sc(test: &LitmusTest, prog: &Prog, cfg: &Config<ScModel>) -> bool {
    test.outcome.iter().all(|c| match c {
        Cond::Reg { thread, reg, val } => reg_conds_hold(&[(*thread, *reg, *val)], &|t, r| {
            cfg.regs.get(t.0 as usize - 1).map(|f| f.get(r))
        }),
        Cond::FinalVar { var, val } => {
            let v = prog.var(var).expect("known variable");
            cfg.mem.mem[v.0 as usize] == *val
        }
    })
}

/// Does any orbit member of a terminated RA configuration exhibit the
/// test's outcome?
///
/// Under symmetry quotienting the explorer keeps one representative per
/// thread-relabelling orbit, so a register condition naming a specific
/// thread must be checked across every class relabelling of the
/// representative's register files ([`SymClasses::maps`]); `final:`
/// conditions read memory, which is orbit-invariant.
pub fn outcome_holds_ra_orbit(
    test: &LitmusTest,
    prog: &Prog,
    cfg: &Config<RaModel>,
    classes: Option<&SymClasses>,
) -> bool {
    let Some(classes) = classes else {
        return outcome_holds_ra(test, prog, cfg);
    };
    classes.maps().iter().any(|map| {
        test.outcome.iter().all(|c| match c {
            Cond::Reg { thread, reg, val } => {
                map.get(*thread as usize)
                    .and_then(|&t| cfg.regs.get(t as usize - 1))
                    .map(|f| f.get(RegId(*reg)))
                    == Some(*val)
            }
            Cond::FinalVar { var, val } => {
                let v = prog.var(var).expect("known variable");
                cfg.mem.last(v).and_then(|w| cfg.mem.event(w).wrval()) == Some(*val)
            }
        })
    })
}

/// Does any orbit member of a terminated SC configuration exhibit the
/// test's outcome? See [`outcome_holds_ra_orbit`].
pub fn outcome_holds_sc_orbit(
    test: &LitmusTest,
    prog: &Prog,
    cfg: &Config<ScModel>,
    classes: Option<&SymClasses>,
) -> bool {
    let Some(classes) = classes else {
        return outcome_holds_sc(test, prog, cfg);
    };
    classes.maps().iter().any(|map| {
        test.outcome.iter().all(|c| match c {
            Cond::Reg { thread, reg, val } => {
                map.get(*thread as usize)
                    .and_then(|&t| cfg.regs.get(t as usize - 1))
                    .map(|f| f.get(RegId(*reg)))
                    == Some(*val)
            }
            Cond::FinalVar { var, val } => {
                let v = prog.var(var).expect("known variable");
                cfg.mem.mem[v.0 as usize] == *val
            }
        })
    })
}

/// Runs one test under both models with the given exploration backend
/// and per-model exploration configs (callers that override the test's
/// own event bound — e.g. the api crate's `CheckRequest::bounds` — pass
/// their bounds here).
pub fn run_test_configured(
    test: &LitmusTest,
    backend: AnyBackend,
    cfg_ra: &ExploreConfig,
    cfg_sc: &ExploreConfig,
) -> LitmusResult {
    let prog = parse_program(&test.source).expect("corpus programs parse");
    let t0 = Instant::now();
    let ra = backend.run(&RaModel, &prog, cfg_ra);
    let ra_stats = ra.stats(t0.elapsed());
    let observed_ra = ra
        .finals
        .iter()
        .any(|c| outcome_holds_ra_orbit(test, &prog, c, ra.sym_classes.as_ref()));
    let t0 = Instant::now();
    let sc = backend.run(&ScModel, &prog, cfg_sc);
    let sc_stats = sc.stats(t0.elapsed());
    let observed_sc = sc
        .finals
        .iter()
        .any(|c| outcome_holds_sc_orbit(test, &prog, c, sc.sym_classes.as_ref()));
    let expect = |v: Verdict| v == Verdict::Allowed;
    let pass = observed_ra == expect(test.expect_ra)
        && observed_sc == expect(test.expect_sc)
        && (!ra.truncated || test.expect_ra == Verdict::Allowed);
    LitmusResult {
        name: test.name.clone(),
        observed_ra,
        observed_sc,
        ra: ra_stats,
        sc: sc_stats,
        pass,
    }
}

/// Runs one test under both models with the given backend, bounding RA
/// exploration at the test's own `max_events`.
pub fn run_test_backend(test: &LitmusTest, backend: AnyBackend) -> LitmusResult {
    let cfg_ra = ExploreConfig::default()
        .max_events(test.max_events)
        .record_traces(false);
    let cfg_sc = ExploreConfig::default().record_traces(false);
    run_test_configured(test, backend, &cfg_ra, &cfg_sc)
}

/// Runs one test under both models (sequential reference backend).
pub fn run_test(test: &LitmusTest) -> LitmusResult {
    run_test_backend(test, AnyBackend::sequential())
}

/// Runs the whole corpus.
pub fn run_corpus() -> Vec<LitmusResult> {
    crate::corpus::corpus().iter().map(run_test).collect()
}

/// Renders results as an aligned text table (used by the example binary
/// and EXPERIMENTS.md).
pub fn render_table(results: &[LitmusResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>6}",
        "test", "RA", "SC", "RA-states", "SC-states", "pass"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>10} {:>10} {:>6}",
            r.name,
            if r.observed_ra { "observed" } else { "absent" },
            if r.observed_sc { "observed" } else { "absent" },
            r.ra.unique,
            r.sc.unique,
            if r.pass { "ok" } else { "FAIL" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mp_rlx_allows_stale_read() {
        let test = crate::corpus::corpus()
            .into_iter()
            .find(|t| t.name == "MP-rlx")
            .unwrap();
        let r = run_test(&test);
        assert!(r.observed_ra && !r.observed_sc && r.pass);
    }

    #[test]
    fn mp_ra_forbids_stale_read() {
        let test = crate::corpus::corpus()
            .into_iter()
            .find(|t| t.name == "MP-ra")
            .unwrap();
        let r = run_test(&test);
        assert!(!r.observed_ra && r.pass);
        assert!(!r.ra.truncated);
    }

    #[test]
    fn parallel_backend_gives_same_verdicts() {
        for test in crate::corpus::corpus().iter().take(4) {
            let seq = run_test(test);
            let p = run_test_backend(test, AnyBackend::parallel(2));
            assert_eq!(p.observed_ra, seq.observed_ra, "{}", test.name);
            assert_eq!(p.observed_sc, seq.observed_sc, "{}", test.name);
            assert_eq!(p.pass, seq.pass, "{}", test.name);
            assert_eq!(p.ra.unique, seq.ra.unique, "{}", test.name);
        }
    }
}
