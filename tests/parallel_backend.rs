//! Corpus-wide equivalence of the parallel backend's *full results* with
//! the sequential engine — not just the unique-state count (which
//! `tests/fingerprint_dedup.rs` already pins): for every litmus test and
//! 1/2/4 workers, the multiset of final register snapshots and the
//! truncation flag must match, both through the raw engines and through
//! the `CheckRequest` front door (the acceptance bar for promoting the
//! parallel explorer to a full backend).

use c11_operational::explore::parallel_explore;
use c11_operational::litmus::corpus;
use c11_operational::prelude::*;

fn multiset(mut snaps: Vec<RegSnapshot>) -> Vec<RegSnapshot> {
    snaps.sort();
    snaps
}

#[test]
fn parallel_full_results_match_sequential_on_corpus() {
    for test in corpus() {
        let prog = parse_program(&test.source).expect("corpus parses");
        let cfg = ExploreConfig::default().max_events(test.max_events);
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        let seq_snaps = multiset(seq.final_snapshots());
        for workers in [1usize, 2, 4] {
            let par = parallel_explore(&RaModel, &prog, &cfg, workers);
            assert_eq!(
                par.truncated, seq.truncated,
                "{}: truncation at {workers} workers",
                test.name
            );
            assert_eq!(par.unique, seq.unique, "{}: unique", test.name);
            assert_eq!(
                multiset(par.final_snapshots()),
                seq_snaps,
                "{}: final snapshot multiset at {workers} workers",
                test.name
            );
        }
    }
}

#[test]
fn parallel_backend_trait_matches_for_sc_too() {
    // The backend dispatch must agree for store-based models as well
    // (their states do not grow, so dedup carries the termination
    // argument).
    for test in corpus().iter().take(6) {
        let prog = parse_program(&test.source).expect("corpus parses");
        let cfg = ExploreConfig::default();
        let seq = AnyBackend::sequential().run(&ScModel, &prog, &cfg);
        let par = AnyBackend::parallel(4).run(&ScModel, &prog, &cfg);
        assert_eq!(par.unique, seq.unique, "{}", test.name);
        assert_eq!(
            multiset(par.final_snapshots()),
            multiset(seq.final_snapshots()),
            "{}",
            test.name
        );
    }
}

/// The acceptance criterion: `CheckRequest { engine: Parallel { workers:
/// 4 }, mode: Outcomes }` over the litmus corpus yields final register
/// snapshots identical (as multisets) to the sequential engine.
#[test]
fn check_request_outcomes_identical_across_backends_on_corpus() {
    for test in corpus() {
        let name = test.name.clone();
        let run = |engine: Engine| {
            let report = CheckRequest::litmus(test.clone())
                .mode(Mode::Outcomes)
                .engine(engine)
                .run()
                .expect("corpus programs parse");
            let CheckReport::Outcomes(o) = report else {
                panic!("{name}: expected an outcomes report");
            };
            o
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Parallel { workers: 4 });
        // Outcome rows are deterministically sorted multiset rows, so
        // equality is exact (counts included).
        assert_eq!(seq.outcomes, par.outcomes, "{name}: outcome rows");
        assert_eq!(
            seq.stats.truncated, par.stats.truncated,
            "{name}: truncation"
        );
        assert_eq!(seq.stats.finals, par.stats.finals, "{name}: finals");
    }
}
