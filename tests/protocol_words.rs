//! Every `c11check/v1` word has one spelling table (`ALL`/`name`/`parse`
//! next to its type), and cache snapshots written before the tables
//! existed still load and re-flush unchanged.

use c11_operational::api::{Contract, Mode, ModelChoice, Session, SessionConfig};
use c11_operational::explore::{Engine, Reduction, StoreKind};
use c11_operational::litmus::Verdict;
use c11_operational::prelude::CheckRequest;
use std::collections::HashSet;
use std::fmt::Debug;

/// `parse(name(x)) == Some(x)` over `all`, names are distinct, and a
/// name no entry has parses to nothing.
fn round_trips<T: PartialEq + Debug>(
    all: &[T],
    name: fn(&T) -> &'static str,
    parse: fn(&str) -> Option<T>,
) {
    let mut seen = HashSet::new();
    for x in all {
        assert_eq!(parse(name(x)).as_ref(), Some(x), "{x:?} round-trips");
        assert!(seen.insert(name(x)), "{:?} is spelled twice", name(x));
    }
    assert_eq!(parse("bogus"), None);
    assert_eq!(parse(""), None);
}

#[test]
fn every_spelling_table_round_trips() {
    round_trips(&ModelChoice::ALL, ModelChoice::name, ModelChoice::parse);
    round_trips(&Engine::ALL, Engine::name, Engine::parse);
    round_trips(&Reduction::ALL, Reduction::name, Reduction::parse);
    round_trips(&Contract::ALL, Contract::name, Contract::parse);
    round_trips(&StoreKind::ALL, StoreKind::name, StoreKind::parse);
    round_trips(&Verdict::ALL, Verdict::name, Verdict::parse);
    // `Mode` is not `PartialEq` (an invariant carries a closure): compare
    // the data-free modes by discriminant.
    let mut seen = HashSet::new();
    for mode in Mode::ALL {
        let back = Mode::parse(mode.name()).expect("data-free modes parse");
        assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&mode));
        assert!(seen.insert(mode.name()));
    }
    assert!(
        Mode::parse("invariant").is_none(),
        "invariants have no request spelling"
    );
    // Every reduction's contract is a contract name.
    for r in Reduction::ALL {
        assert_eq!(Contract::parse(r.contract_str()), Some(r.contract()));
    }
}

#[test]
fn a_bare_parallel_engine_gets_two_workers() {
    assert_eq!(
        Engine::parse("parallel"),
        Some(Engine::Parallel { workers: 2 })
    );
}

const FIXTURE: &str = include_str!("fixtures/snapshot_v1.jsonl");

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

/// `fixtures/snapshot_v1.jsonl` was written by `c11serve --cache-path`
/// before the spelling tables replaced the hand-written parsers. It
/// covers every model, both engines, every reduction, the sym and
/// shared stores, symmetry, the count and litmus modes and a deadline.
/// It must load without a skipped line, serve its requests warm, and
/// flush back line for line (a flush writes entries in hash-map order,
/// so the lines are compared as a set).
#[test]
fn a_snapshot_from_before_the_tables_loads_and_reflushes_unchanged() {
    let dir = std::env::temp_dir().join(format!("c11-words-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.jsonl");
    std::fs::write(&path, FIXTURE).unwrap();

    let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
    let stats = session.stats();
    assert_eq!(stats.persist_skipped, 0, "every fixture line loads");
    assert_eq!(stats.persist_loaded, FIXTURE.lines().count());

    let sb = "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }";
    for req in [
        CheckRequest::program(sb).traces(true).dot(1),
        CheckRequest::program(sb).model(ModelChoice::Sc),
        CheckRequest::program(sb).reduction(Reduction::SourceSet),
    ] {
        assert!(
            session.run(req).unwrap().cache_hit(),
            "served from the snapshot"
        );
    }
    assert_eq!(session.stats().explorations, 0);

    session.flush_cache().unwrap();
    let flushed = std::fs::read_to_string(&path).unwrap();
    assert_eq!(sorted_lines(&flushed), sorted_lines(FIXTURE));
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
