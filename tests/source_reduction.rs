//! The source-set reduction's acceptance bar: the **finals-only
//! contract**. Source-set DPOR intentionally visits fewer states than
//! the exhaustive engines (unique/generated shrink — that is the whole
//! point), but everything a verdict rests on must be untouched: litmus
//! verdicts, final-snapshot multisets and axiom validity agree with the
//! sequential reference across the corpus at several bounds (truncating
//! ones included, where `truncated` is one-sided: source truncation
//! implies sequential truncation), race-free programs collapse to a
//! single execution (one state per Mazurkiewicz trace), and the
//! contended acceptance shape beats sleep-set DPOR by ≥ 2× generated
//! states.

use c11_operational::explore::{explore_dpor, explore_source};
use c11_operational::litmus::{corpus, LitmusTest};
use c11_operational::prelude::*;
use proptest::prelude::*;

fn multiset(mut snaps: Vec<RegSnapshot>) -> Vec<RegSnapshot> {
    snaps.sort();
    snaps
}

/// Raw-engine finals-only equality on one program under one config:
/// the same final-snapshot multiset and a truncation flag that is never
/// set unless the exhaustive walk's is, while never visiting more
/// states than the exhaustive walk.
fn assert_source_matches_sequential_finals(prog: &Prog, cfg: &ExploreConfig, what: &str) {
    let seq = Explorer::new(RaModel).explore(prog, cfg.clone());
    let src = explore_source(&RaModel, prog, cfg);
    assert_eq!(
        multiset(src.final_snapshots()),
        multiset(seq.final_snapshots()),
        "{what}: finals multiset"
    );
    // `truncated` is one-sided: source-set truncation implies sequential
    // truncation, but the exhaustive walk may additionally trip the
    // bound on a τ-late linearisation of a trace whose τ-eager
    // representative completes inside it. `src.truncated == false`
    // therefore still guarantees the finals above are the complete set.
    assert!(
        !src.truncated || seq.truncated,
        "{what}: source truncation must imply sequential truncation"
    );
    assert!(
        src.unique <= seq.unique,
        "{what}: a reduction must not visit more ({} vs {})",
        src.unique,
        seq.unique
    );
}

/// The corpus at the tests' own bounds, at a tight truncating event
/// bound, and at a depth bound: finals-only equality everywhere.
#[test]
fn source_finals_match_sequential_on_corpus_at_several_bounds() {
    for test in corpus() {
        let prog = parse_program(&test.source).expect("corpus parses");
        let bounds = [
            ExploreConfig::default().max_events(test.max_events),
            // Tight event bound: most corpus shapes truncate here, so
            // this pins the widening-on-truncation path.
            ExploreConfig::default().max_events(6),
            ExploreConfig::default().max_depth(7),
        ];
        for (i, cfg) in bounds.iter().enumerate() {
            assert_source_matches_sequential_finals(
                &prog,
                cfg,
                &format!("{} (bound set {i})", test.name),
            );
        }
    }
}

/// Through the front door: source-set litmus verdicts (pass,
/// RA-observability, SC-observability) and outcome reports (rows and
/// the Theorem-4.4 validity self-check) are identical to sequential on
/// the whole corpus — only the work counters may differ.
#[test]
fn source_verdicts_and_outcomes_match_sequential_on_corpus() {
    for test in corpus() {
        let name = test.name.clone();
        let run_litmus = |t: LitmusTest, r: Reduction| {
            let report = CheckRequest::litmus(t).reduction(r).run().expect("parses");
            let CheckReport::Litmus(l) = report else {
                panic!("litmus requests produce litmus reports");
            };
            l
        };
        let seq = run_litmus(test.clone(), Reduction::None);
        let src = run_litmus(test.clone(), Reduction::SourceSet);
        assert_eq!(src.pass, seq.pass, "{name}: verdict");
        assert_eq!(src.observed_ra, seq.observed_ra, "{name}: RA observability");
        assert_eq!(src.observed_sc, seq.observed_sc, "{name}: SC observability");
        assert!(src.ra.unique <= seq.ra.unique, "{name}: RA unique");

        let run_outcomes = |t: LitmusTest, r: Reduction| {
            let report = CheckRequest::litmus(t)
                .mode(Mode::Outcomes)
                .reduction(r)
                .run()
                .expect("parses");
            let CheckReport::Outcomes(o) = report else {
                panic!("outcome requests produce outcome reports");
            };
            o
        };
        let seq = run_outcomes(test.clone(), Reduction::None);
        let src = run_outcomes(test, Reduction::SourceSet);
        assert_eq!(src.outcomes, seq.outcomes, "{name}: outcome rows");
        assert_eq!(
            src.invalid_finals, seq.invalid_finals,
            "{name}: validity violations"
        );
        assert_eq!(src.invalid_finals, 0, "{name}: Theorem 4.4 self-check");
    }
}

/// A race-free program (threads over disjoint variables) has exactly one
/// Mazurkiewicz trace, so the source-set walk collapses to one linear
/// execution: a single path (every generated state is a new unique one)
/// ending in the single final state.
#[test]
fn race_free_programs_explore_one_state_per_trace() {
    let src = "vars a b c;
         thread t1 { a := 1; a := 2; }
         thread t2 { b := 1; b := 2; }
         thread t3 { c := 1; c := 2; }";
    let prog = parse_program(src).unwrap();
    let cfg = ExploreConfig::default().max_events(16);
    let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
    let result = explore_source(&RaModel, &prog, &cfg);
    assert!(!result.truncated, "the shape fits the bound");
    assert_eq!(result.finals.len(), 1, "one trace, one final");
    assert_eq!(
        result.generated,
        result.unique - 1,
        "one trace, one execution: the walk is a single path"
    );
    assert_eq!(
        multiset(result.final_snapshots()),
        multiset(seq.final_snapshots()),
        "and that path ends where the exhaustive walk does"
    );
}

/// The ISSUE's measured acceptance bar, pinned: on `E16-contended-4`
/// source-set generates at least 2× fewer states than sleep-set DPOR,
/// with the identical finals multiset.
#[test]
fn source_beats_sleep_set_two_fold_on_the_contended_shape() {
    let src = "vars x; \
         thread t1 { x := 1; x := 2; x := 3; x := 4; } \
         thread t2 { x := 100; x := 101; x := 102; x := 103; }";
    let prog = parse_program(src).unwrap();
    let cfg = ExploreConfig::default().max_events(16);
    let sleep = explore_dpor(&RaModel, &prog, &cfg);
    let source = explore_source(&RaModel, &prog, &cfg);
    assert!(
        source.generated * 2 <= sleep.generated,
        "source-set must generate ≤ half of sleep-set's states ({} vs {})",
        source.generated,
        sleep.generated
    );
    assert_eq!(
        multiset(source.final_snapshots()),
        multiset(sleep.final_snapshots()),
        "with the identical finals multiset"
    );
}

// ---- randomised programs ------------------------------------------------

const VARS2: [&str; 2] = ["x", "y"];

fn arb_stmt() -> impl Strategy<Value = String> {
    let var = prop::sample::select(VARS2.to_vec());
    let val = 1..4u32;
    prop_oneof![
        (var.clone(), val.clone(), any::<bool>())
            .prop_map(|(x, v, rel)| format!("{x} :={} {v};", if rel { "R" } else { "" })),
        (var.clone(), 0..2u8, any::<bool>())
            .prop_map(|(x, r, acq)| format!("r{r} <-{} {x};", if acq { "A" } else { "" })),
        (var, val).prop_map(|(x, v)| format!("r0 <- {x}.swap({v});")),
    ]
}

fn arb_thread_src() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_stmt(), 1..4).prop_map(|stmts| stmts.join(" "))
}

fn arb_prog_src() -> impl Strategy<Value = String> {
    (arb_thread_src(), arb_thread_src())
        .prop_map(|(t1, t2)| format!("vars x y;\nthread t1 {{ {t1} }}\nthread t2 {{ {t2} }}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random two-thread programs over two shared variables (reads,
    /// writes — release/acquire mixed — and swaps): the source-set
    /// finals multiset and truncation flag equal the sequential
    /// engine's, both unbounded and under a truncating event bound.
    #[test]
    fn prop_source_finals_match_sequential(src in arb_prog_src()) {
        let prog = parse_program(&src).expect("generated programs parse");
        for cfg in [
            ExploreConfig::default(),
            ExploreConfig::default().max_events(5),
        ] {
            let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
            let source = explore_source(&RaModel, &prog, &cfg);
            prop_assert_eq!(
                multiset(source.final_snapshots()),
                multiset(seq.final_snapshots()),
                "RA finals ({})", src.clone()
            );
            prop_assert!(
                !source.truncated || seq.truncated,
                "RA truncated must be one-sided ({})", src.clone()
            );
            prop_assert!(source.unique <= seq.unique, "RA unique ({})", src.clone());
        }
    }
}
