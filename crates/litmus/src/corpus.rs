//! The tests themselves.

use c11_lang::Val;

/// Expected verdict for an outcome under a model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Some execution exhibits the outcome.
    Allowed,
    /// No execution exhibits the outcome.
    Forbidden,
}

impl Verdict {
    /// Every verdict.
    pub const ALL: [Verdict; 2] = [Verdict::Allowed, Verdict::Forbidden];

    /// The file-header / JSON name (`"allowed"`, `"forbidden"`).
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Allowed => "allowed",
            Verdict::Forbidden => "forbidden",
        }
    }

    /// Parses a file-header / JSON verdict name.
    pub fn parse(s: &str) -> Option<Verdict> {
        Verdict::ALL.into_iter().find(|v| v.name() == s)
    }
}

/// One conjunct of an observation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Register `rN` of thread `T` ends with `val`.
    Reg {
        /// Thread (1-based).
        thread: u8,
        /// Register index.
        reg: u8,
        /// Expected value.
        val: Val,
    },
    /// Variable `var` ends with `val` (the mo-last write under RA; the
    /// store value under SC).
    FinalVar {
        /// Variable name.
        var: String,
        /// Expected value.
        val: Val,
    },
}

/// A litmus test: program, observation, expectations.
#[derive(Clone, Debug)]
pub struct LitmusTest {
    /// Short conventional name (MP, SB, LB, …).
    pub name: String,
    /// What the shape demonstrates.
    pub description: String,
    /// DSL source.
    pub source: String,
    /// Conjunction of final observations.
    pub outcome: Vec<Cond>,
    /// Expected verdict under the RA operational semantics.
    pub expect_ra: Verdict,
    /// Expected verdict under the SC baseline.
    pub expect_sc: Verdict,
    /// Event bound for exploration (straight-line tests never hit it).
    pub max_events: usize,
}

fn reg(thread: u8, reg_: u8, val: Val) -> Cond {
    Cond::Reg {
        thread,
        reg: reg_,
        val,
    }
}

/// The full corpus.
pub fn corpus() -> Vec<LitmusTest> {
    use Verdict::*;
    vec![
        LitmusTest {
            name: "MP-rlx".into(),
            description: "message passing, all relaxed: stale data readable".into(),
            source: "vars d f;
                     thread t1 { d := 5; f := 1; }
                     thread t2 { r0 <- f; r1 <- d; }"
                .into(),
            outcome: vec![reg(2, 0, 1), reg(2, 1, 0)],
            expect_ra: Allowed,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "MP-ra".into(),
            description: "message passing, release/acquire: publication works".into(),
            source: "vars d f;
                     thread t1 { d := 5; f :=R 1; }
                     thread t2 { r0 <-A f; r1 <- d; }"
                .into(),
            outcome: vec![reg(2, 0, 1), reg(2, 1, 0)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "MP-rel-rlx".into(),
            description: "release write but relaxed read: no synchronisation".into(),
            source: "vars d f;
                     thread t1 { d := 5; f :=R 1; }
                     thread t2 { r0 <- f; r1 <- d; }"
                .into(),
            outcome: vec![reg(2, 0, 1), reg(2, 1, 0)],
            expect_ra: Allowed,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "SB-rlx".into(),
            description: "store buffering, relaxed: both reads may miss".into(),
            source: "vars x y;
                     thread t1 { x := 1; r0 <- y; }
                     thread t2 { y := 1; r0 <- x; }"
                .into(),
            outcome: vec![reg(1, 0, 0), reg(2, 0, 0)],
            expect_ra: Allowed,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "SB-ra".into(),
            description: "store buffering with RA annotations: still allowed \
                          (RA is weaker than SC; forbidding SB needs SC atomics)"
                .into(),
            source: "vars x y;
                     thread t1 { x :=R 1; r0 <-A y; }
                     thread t2 { y :=R 1; r0 <-A x; }"
                .into(),
            outcome: vec![reg(1, 0, 0), reg(2, 0, 0)],
            expect_ra: Allowed,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "SB-rmw".into(),
            description: "store buffering via RMWs: updates are RA, outcome \
                          remains allowed (cross-variable)"
                .into(),
            source: "vars x y;
                     thread t1 { x.swap(1); r0 <- y; }
                     thread t2 { y.swap(1); r0 <- x; }"
                .into(),
            outcome: vec![reg(1, 0, 0), reg(2, 0, 0)],
            expect_ra: Allowed,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "LB".into(),
            description: "load buffering: excluded by NoThinAir (sb ∪ rf acyclic)".into(),
            source: "vars x y;
                     thread t1 { r0 <- x; y := 1; }
                     thread t2 { r0 <- y; x := 1; }"
                .into(),
            outcome: vec![reg(1, 0, 1), reg(2, 0, 1)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "CoRR".into(),
            description: "read-read coherence: values cannot go backwards in mo".into(),
            source: "vars x;
                     thread t1 { x := 1; x := 2; }
                     thread t2 { r0 <- x; r1 <- x; }"
                .into(),
            outcome: vec![reg(2, 0, 2), reg(2, 1, 1)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "CoRR-race".into(),
            description: "read-read coherence with racing writers".into(),
            source: "vars x;
                     thread t1 { x := 1; }
                     thread t2 { x := 2; }
                     thread t3 { r0 <- x; r1 <- x; r2 <- x; }"
                .into(),
            outcome: vec![reg(3, 0, 1), reg(3, 1, 2), reg(3, 2, 1)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "CoWR".into(),
            description: "write-read coherence: a thread cannot read a value \
                          older than its own write"
                .into(),
            source: "vars x;
                     thread t1 { x := 1; r0 <- x; }"
                .into(),
            outcome: vec![reg(1, 0, 0)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "IRIW-ra".into(),
            description: "independent reads of independent writes, all RA: \
                          threads 3 and 4 may disagree on the write order \
                          (forbidding IRIW needs SC atomics)"
                .into(),
            source: "vars x y;
                     thread t1 { x :=R 1; }
                     thread t2 { y :=R 1; }
                     thread t3 { r0 <-A x; r1 <-A y; }
                     thread t4 { r0 <-A y; r1 <-A x; }"
                .into(),
            outcome: vec![reg(3, 0, 1), reg(3, 1, 0), reg(4, 0, 1), reg(4, 1, 0)],
            expect_ra: Allowed,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "2+2W".into(),
            description: "two threads write both variables in opposite order: \
                          the 'crossed final values' are allowed relaxed"
                .into(),
            source: "vars x y;
                     thread t1 { x := 1; y := 2; }
                     thread t2 { y := 1; x := 2; }"
                .into(),
            outcome: vec![
                Cond::FinalVar {
                    var: "x".into(),
                    val: 1,
                },
                Cond::FinalVar {
                    var: "y".into(),
                    val: 1,
                },
            ],
            expect_ra: Allowed,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "WRC-ra".into(),
            description: "write-to-read causality with a release chain: the \
                          final read cannot miss the original write"
                .into(),
            source: "vars x y;
                     thread t1 { x := 1; }
                     thread t2 { r0 <- x; y :=R r0; }
                     thread t3 { r0 <-A y; r1 <- x; }"
                .into(),
            outcome: vec![reg(2, 0, 1), reg(3, 0, 1), reg(3, 1, 0)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "MP-swap".into(),
            description: "message passing where the flag is raised by an RMW: \
                          updates synchronise like releases"
                .into(),
            source: "vars d f;
                     thread t1 { d := 5; f.swap(1); }
                     thread t2 { r0 <-A f; r1 <- d; }"
                .into(),
            outcome: vec![reg(2, 0, 1), reg(2, 1, 0)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "RMW-excl".into(),
            description: "two RMWs on one variable cannot both read the \
                          initial value (update atomicity)"
                .into(),
            source: "vars x;
                     thread t1 { x.swap(1); r0 <- x; }
                     thread t2 { x.swap(2); r0 <- x; }"
                .into(),
            outcome: vec![Cond::FinalVar {
                var: "x".into(),
                val: 0,
            }],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "RMW-atomic".into(),
            description: "two exchanges on one variable cannot both see the \
                          initial value (RMW atomicity via covered writes)"
                .into(),
            source: "vars x;
                     thread t1 { r0 <- x.swap(1); }
                     thread t2 { r0 <- x.swap(2); }"
                .into(),
            outcome: vec![reg(1, 0, 0), reg(2, 0, 0)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "ISA2".into(),
            description: "release chains compose: x published through two \
                          release/acquire hops stays visible"
                .into(),
            source: "vars x y z;
                     thread t1 { x := 1; y :=R 1; }
                     thread t2 { r0 <-A y; z :=R r0; }
                     thread t3 { r1 <-A z; r2 <- x; }"
                .into(),
            outcome: vec![reg(2, 0, 1), reg(3, 1, 1), reg(3, 2, 0)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "S".into(),
            description: "write-write coherence through hb: the hb-later \
                          write cannot be mo-earlier"
                .into(),
            source: "vars x y;
                     thread t1 { x := 2; y :=R 1; }
                     thread t2 { r0 <-A y; x := 1; }"
                .into(),
            outcome: vec![
                reg(2, 0, 1),
                Cond::FinalVar {
                    var: "x".into(),
                    val: 2,
                },
            ],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "CoWW".into(),
            description: "write-write coherence within a thread: sb forces mo".into(),
            source: "vars x;
                     thread t1 { x := 1; x := 2; }"
                .into(),
            outcome: vec![Cond::FinalVar {
                var: "x".into(),
                val: 1,
            }],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
        LitmusTest {
            name: "R-own-write".into(),
            description: "a thread reading its own unordered write sees no \
                          synchronisation: allowed under both models"
                .into(),
            source: "vars x y;
                     thread t1 { x := 1; y :=R 1; }
                     thread t2 { y := 2; r0 <-A y; r1 <- x; }"
                .into(),
            outcome: vec![reg(2, 0, 2), reg(2, 1, 0)],
            expect_ra: Allowed,
            expect_sc: Allowed,
            max_events: 24,
        },
        LitmusTest {
            name: "R-ra".into(),
            description: "the R shape: release write vs relaxed write race, \
                          then an acquire read on the second thread"
                .into(),
            source: "vars x y;
                     thread t1 { x := 1; y :=R 1; }
                     thread t2 { y := 2; r0 <-A y; r1 <- x; }"
                .into(),
            outcome: vec![reg(2, 0, 1), reg(2, 1, 0)],
            expect_ra: Forbidden,
            expect_sc: Forbidden,
            max_events: 24,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_well_formed() {
        let tests = corpus();
        assert!(tests.len() >= 12);
        let mut names: Vec<_> = tests.iter().map(|t| t.name.clone()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tests.len(), "duplicate test names");
        for t in &tests {
            c11_lang::parse_program(&t.source)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", t.name));
            assert!(!t.outcome.is_empty());
        }
    }
}
