//! Quickstart: one front door for every question — build a
//! [`CheckRequest`], pick a model/engine/mode, get a [`CheckReport`].
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use c11_operational::prelude::*;

fn main() {
    // Message passing: t1 publishes data then raises a flag; t2 reads the
    // flag, then the data. Three variants differ only in annotations.
    let variants = [
        (
            "relaxed",
            "vars d f;
             thread t1 { d := 5; f := 1; }
             thread t2 { r0 <- f; r1 <- d; }",
        ),
        (
            "release/acquire",
            "vars d f;
             thread t1 { d := 5; f :=R 1; }
             thread t2 { r0 <-A f; r1 <- d; }",
        ),
        (
            "swap-published",
            "vars d f;
             thread t1 { d := 5; f.swap(1); }
             thread t2 { r0 <-A f; r1 <- d; }",
        ),
    ];

    for (name, src) in variants {
        let report = CheckRequest::program(src)
            .model(ModelChoice::Ra)
            .engine(Engine::Parallel { workers: 2 })
            .mode(Mode::Outcomes)
            .run()
            .expect("variant parses");
        let CheckReport::Outcomes(outcomes) = &report else {
            unreachable!("Outcomes mode");
        };
        println!("=== message passing, {name} ===");
        println!(
            "  explored {} configurations ({} terminated) in {:?}",
            outcomes.stats.unique,
            outcomes.stats.finals,
            outcomes.stats.wall()
        );
        // Every reachable final is a valid C11 execution (Theorem 4.4):
        // the front door re-checks the axioms on RA runs.
        assert_eq!(outcomes.invalid_finals, 0);
        // The (flag, data) pairs thread 2 can observe.
        let mut pairs: Vec<(Val, Val)> = outcomes
            .outcomes
            .iter()
            .map(|row| {
                let t2 = &row.threads[1];
                let get = |r: u8| {
                    t2.iter()
                        .find(|(reg, _)| reg.0 == r)
                        .map(|&(_, v)| v)
                        .unwrap_or(0)
                };
                (get(0), get(1))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        println!("  (flag, data) outcomes seen by thread 2: {pairs:?}");
        let stale = pairs.contains(&(1, 0));
        println!(
            "  stale read (flag=1, data=0): {}",
            if stale { "ALLOWED" } else { "forbidden" }
        );
        println!();
    }
}
