//! Exact work counts on the E13 wide and E16 contended shapes, so a
//! change to the exploration core is checked against counts and not
//! only against `<`. Sleep-set `generated` equals the `dpor` rows of the
//! committed `BENCH_explore_e2e.json`; the sequential `unique` and
//! `generated` are those the engine produced before the sleep-set
//! filter was folded into it. Sleep sets prune transitions, never
//! states, so the sleep-set `unique` equals the sequential one.

use c11_bench::{contended_workload, wide_workload};
use c11_core::model::RaModel;
use c11_explore::{explore_dpor, ExploreConfig, Explorer};
use c11_lang::Prog;

/// (name, program, max_events, sequential unique, sequential generated,
/// sleep-set generated), with the bounds of `explore_e2e`'s `dpor`
/// group.
fn shapes() -> Vec<(String, Prog, usize, usize, usize, usize)> {
    let wide = [(2, 43, 67, 58), (3, 132, 223, 191), (4, 321, 559, 462)];
    let contended = [(3, 143, 274, 246), (4, 553, 1090, 973)];
    let wide = wide.into_iter().map(|(k, u, g, s)| {
        let name = format!("E13-wide-{k}");
        (name, wide_workload(k), 2 * k + 4, u, g, s)
    });
    let contended = contended.into_iter().map(|(k, u, g, s)| {
        let name = format!("E16-contended-{k}");
        (name, contended_workload(k), 24, u, g, s)
    });
    wide.chain(contended).collect()
}

#[test]
fn sequential_and_sleep_set_work_counts_are_pinned() {
    for (name, prog, max_events, unique, generated, sleep_generated) in shapes() {
        let cfg = ExploreConfig::default().max_events(max_events);
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        assert_eq!(seq.unique, unique, "{name}: sequential unique");
        assert_eq!(seq.generated, generated, "{name}: sequential generated");
        let sleep = explore_dpor(&RaModel, &prog, &cfg);
        assert_eq!(sleep.unique, unique, "{name}: sleep-set unique");
        assert_eq!(
            sleep.generated, sleep_generated,
            "{name}: sleep-set generated"
        );
    }
}
