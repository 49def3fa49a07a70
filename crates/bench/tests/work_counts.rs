//! Exact work counts on the E13 wide and E16 contended shapes and on a
//! symmetric fan, so a change to the exploration core or to its dedup
//! keys is checked against counts and not only against `<`. Every engine
//! that consumes a key is pinned: sequential, sleep-set, source-set, the
//! 2-worker parallel engine and the symmetry quotient. Sleep-set
//! `generated` on the five E13/E16 shapes equals the `dpor` rows of the
//! committed `BENCH_explore_e2e.json`; every other count is what the
//! engines produced before the dedup keys became incremental. Sleep sets
//! prune transitions, never states, so the sleep-set `unique` equals the
//! sequential one, and the parallel engine reports the sequential
//! counts at any worker count.

use c11_bench::{contended_workload, sym_fan_workload, wide_workload};
use c11_core::model::RaModel;
use c11_explore::{explore_dpor, explore_source, parallel_explore, ExploreConfig, Explorer};
use c11_lang::Prog;

/// One pinned shape: `(unique, generated)` pairs per engine.
struct Pinned {
    name: String,
    prog: Prog,
    max_events: usize,
    sequential: (usize, usize),
    sleep_generated: usize,
    source: (usize, usize),
    symmetric: (usize, usize),
}

/// The shapes, with the bounds of `explore_e2e`'s `dpor` group. The five
/// E13/E16 shapes have no identical threads, so the symmetry quotient
/// keeps their sequential counts. The fan (one writer, three identical
/// readers of one variable) is the smallest fan whose source-set run
/// stays quick in a debug build.
fn shapes() -> Vec<Pinned> {
    let wide = [
        (2, (43, 67), 58, (32, 52)),
        (3, (132, 223), 191, (86, 258)),
        (4, (321, 559), 462, (229, 1395)),
    ];
    let contended = [
        (3, (143, 274), 246, (97, 96)),
        (4, (553, 1090), 973, (361, 360)),
    ];
    let wide = wide.into_iter().map(|(k, seq, sleep, source)| Pinned {
        name: format!("E13-wide-{k}"),
        prog: wide_workload(k),
        max_events: 2 * k + 4,
        sequential: seq,
        sleep_generated: sleep,
        source,
        symmetric: seq,
    });
    let contended = contended.into_iter().map(|(k, seq, sleep, source)| Pinned {
        name: format!("E16-contended-{k}"),
        prog: contended_workload(k),
        max_events: 24,
        sequential: seq,
        sleep_generated: sleep,
        source,
        symmetric: seq,
    });
    let fan = Pinned {
        name: "sym-fan-1-3".into(),
        prog: sym_fan_workload(1, 3),
        max_events: 16,
        sequential: (3437, 10552),
        sleep_generated: 7308,
        source: (629, 9198),
        symmetric: (751, 2326),
    };
    wide.chain(contended).chain([fan]).collect()
}

#[test]
fn sequential_and_sleep_set_work_counts_are_pinned() {
    for p in shapes() {
        let name = &p.name;
        let cfg = ExploreConfig::default().max_events(p.max_events);
        let seq = Explorer::new(RaModel).explore(&p.prog, cfg.clone());
        assert_eq!(
            (seq.unique, seq.generated),
            p.sequential,
            "{name}: sequential"
        );
        let sleep = explore_dpor(&RaModel, &p.prog, &cfg);
        assert_eq!(sleep.unique, p.sequential.0, "{name}: sleep-set unique");
        assert_eq!(
            sleep.generated, p.sleep_generated,
            "{name}: sleep-set generated"
        );
    }
}

#[test]
fn source_set_parallel_and_symmetric_work_counts_are_pinned() {
    for p in shapes() {
        let name = &p.name;
        let cfg = ExploreConfig::default().max_events(p.max_events);
        let source = explore_source(&RaModel, &p.prog, &cfg);
        assert_eq!(
            (source.unique, source.generated),
            p.source,
            "{name}: source-set"
        );
        let par = parallel_explore(&RaModel, &p.prog, &cfg, 2);
        assert_eq!(
            (par.unique, par.generated),
            p.sequential,
            "{name}: parallel x2"
        );
        let sym_cfg = cfg.symmetry(true);
        let sym = Explorer::new(RaModel).explore(&p.prog, sym_cfg.clone());
        assert_eq!((sym.unique, sym.generated), p.symmetric, "{name}: symmetry");
        let par_sym = parallel_explore(&RaModel, &p.prog, &sym_cfg, 2);
        assert_eq!(
            (par_sym.unique, par_sym.generated),
            p.symmetric,
            "{name}: parallel x2 with symmetry"
        );
    }
}
