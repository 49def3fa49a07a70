//! The seeded input generator the three workloads share.
//!
//! Every input the programs under test see comes from here, drawn from a
//! `--seed`: litmus files from the checkout's `litmus/` corpus (family
//! a), straight-line programs with seeded write values (family b) and
//! the paper's case studies at fixed event bounds (family c).
//!
//! Each workload runs a *deck*: a fixed multiset of inputs whose order
//! and write values come from the seed. The multiset is the same for
//! every seed, so state counts (which do not depend on the write values)
//! repeat exactly, and timings vary across seeds only by measurement
//! noise, not by which shapes happened to be drawn.

use c11_litmus::LitmusTest;

/// A small seeded PRNG (splitmix64): deterministic across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A family-(b) straight-line program shape. The shape fixes the state
/// space; the seed only picks the written values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// E13: one writer over `k` variables, one reader of all of them.
    Wide(usize),
    /// E16: two threads writing `k` values each to one variable.
    Contended(usize),
    /// Message passing: `k` data writes published by a release flag.
    Mp(usize),
    /// Store buffering around a ring of `n` threads.
    SbRing(usize),
    /// Independent reads of independent writes (two writers, two readers).
    Iriw,
    /// One release writer over `vars` variables and `readers`
    /// byte-identical acquire readers (one symmetry class).
    Fan { vars: usize, readers: usize },
}

/// The family-(b) shapes of the `check-*` decks.
pub const CHECK_SHAPES: [Shape; 12] = [
    Shape::Wide(3),
    Shape::Wide(4),
    Shape::Wide(5),
    Shape::Wide(6),
    Shape::Contended(3),
    Shape::Contended(4),
    Shape::Contended(5),
    Shape::Mp(2),
    Shape::Mp(3),
    Shape::SbRing(3),
    Shape::Iriw,
    Shape::Fan {
        vars: 2,
        readers: 2,
    },
];

/// The small shapes `serve-mixed` warms its cache with.
pub const WARM_SHAPES: [Shape; 7] = [
    Shape::Wide(3),
    Shape::Wide(4),
    Shape::Contended(3),
    Shape::Contended(4),
    Shape::Mp(2),
    Shape::SbRing(3),
    Shape::Iriw,
];

/// The shapes `serve-mixed` misses rotate through (fresh values each).
pub const MISS_SHAPES: [Shape; 8] = [
    Shape::Wide(3),
    Shape::Wide(4),
    Shape::Wide(5),
    Shape::Contended(3),
    Shape::Contended(4),
    Shape::Mp(3),
    Shape::SbRing(3),
    Shape::Iriw,
];

impl Shape {
    pub fn name(&self) -> String {
        match self {
            Shape::Wide(k) => format!("E13-wide-{k}"),
            Shape::Contended(k) => format!("E16-contended-{k}"),
            Shape::Mp(k) => format!("MP-chain-{k}"),
            Shape::SbRing(n) => format!("SB-ring-{n}"),
            Shape::Iriw => "IRIW".to_string(),
            Shape::Fan { vars, readers } => format!("sym-fan-{vars}x{readers}"),
        }
    }

    /// Read statements in the program (the axiomatic cross-check runs on
    /// programs with at most 4).
    pub fn reads(&self) -> usize {
        match self {
            Shape::Wide(k) => *k,
            Shape::Contended(_) => 0,
            Shape::Mp(k) => k + 1,
            Shape::SbRing(n) => *n,
            Shape::Iriw => 4,
            Shape::Fan { vars, readers } => (vars + 1) * readers,
        }
    }

    fn writes(&self) -> usize {
        match self {
            Shape::Wide(k) => *k,
            Shape::Contended(k) => 2 * k,
            Shape::Mp(k) => k + 1,
            Shape::SbRing(n) => *n,
            Shape::Iriw => 2,
            Shape::Fan { vars, .. } => vars + 1,
        }
    }

    /// The program text with `vals` (one per write, in program order).
    pub fn source(&self, vals: &[u32]) -> String {
        assert_eq!(vals.len(), self.writes(), "one value per write");
        let join = |parts: Vec<String>| parts.join(" ");
        match *self {
            Shape::Wide(k) => {
                let vars: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
                let w = (0..k).map(|i| format!("v{i} := {};", vals[i])).collect();
                let r = (0..k).map(|i| format!("r{i} <- v{i};")).collect();
                format!(
                    "vars {};\nthread t1 {{ {} }}\nthread t2 {{ {} }}",
                    vars.join(" "),
                    join(w),
                    join(r)
                )
            }
            Shape::Contended(k) => {
                let w =
                    |off: usize| join((0..k).map(|i| format!("x := {};", vals[off + i])).collect());
                format!(
                    "vars x;\nthread t1 {{ {} }}\nthread t2 {{ {} }}",
                    w(0),
                    w(k)
                )
            }
            Shape::Mp(k) => {
                let vars: Vec<String> = (0..k).map(|i| format!("d{i}")).collect();
                let w = (0..k).map(|i| format!("d{i} := {};", vals[i])).collect();
                let r = (0..k).map(|i| format!("r{i} <- d{i};")).collect();
                format!(
                    "vars {} f;\nthread t1 {{ {} f :=R {}; }}\nthread t2 {{ r9 <-A f; {} }}",
                    vars.join(" "),
                    join(w),
                    vals[k],
                    join(r)
                )
            }
            Shape::SbRing(n) => {
                let vars: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
                let mut out = format!("vars {};\n", vars.join(" "));
                for (i, v) in vals.iter().enumerate() {
                    out.push_str(&format!(
                        "thread t{i} {{ x{i} := {v}; r0 <- x{}; }}\n",
                        (i + 1) % n
                    ));
                }
                out
            }
            Shape::Iriw => format!(
                "vars x y;\nthread a {{ x := {}; }}\nthread b {{ y := {}; }}\n\
                 thread c {{ r0 <- x; r1 <- y; }}\nthread d {{ r0 <- y; r1 <- x; }}",
                vals[0], vals[1]
            ),
            Shape::Fan { vars, readers } => {
                let names: Vec<String> = (0..vars).map(|i| format!("v{i}")).collect();
                let w: Vec<String> = (0..vars).map(|i| format!("v{i} := {};", vals[i])).collect();
                let r: Vec<String> = (0..vars).map(|i| format!("r{i} <- v{i};")).collect();
                let mut out = format!(
                    "vars {} f;\nthread w {{ {} f :=R {}; }}\n",
                    names.join(" "),
                    join(w),
                    vals[vars]
                );
                for i in 0..readers {
                    out.push_str(&format!(
                        "thread rd{i} {{ r9 <-A f; {} }}\n",
                        join(r.clone())
                    ));
                }
                out
            }
        }
    }

    /// A program of this shape with fresh seeded values: pairwise
    /// distinct and non-zero, so every write is distinguishable from the
    /// initial value and from every other write.
    pub fn draw(&self, rng: &mut Rng) -> Program {
        let mut vals: Vec<u32> = Vec::with_capacity(self.writes());
        while vals.len() < self.writes() {
            let v = 1 + rng.below(999) as u32;
            if !vals.contains(&v) {
                vals.push(v);
            }
        }
        Program {
            name: self.name(),
            src: self.source(&vals),
            reads: self.reads(),
        }
    }
}

/// A generated family-(b) program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    pub name: String,
    pub src: String,
    pub reads: usize,
}

/// One deck entry.
#[derive(Clone, Debug)]
pub enum Input {
    /// Family (a): a corpus file, checked in `LitmusVerdict` mode.
    Litmus(LitmusTest),
    /// Family (b): a generated program, checked in `Outcomes` mode.
    Program(Program),
    /// Family (c): Peterson's algorithm through `c11_verify` at an event
    /// bound.
    Peterson(usize),
    /// Family (c): the release-unlock spinlock through `c11_verify`.
    Spinlock(usize),
}

impl Input {
    pub fn name(&self) -> String {
        match self {
            Input::Litmus(t) => t.name.clone(),
            Input::Program(p) => p.name.clone(),
            Input::Peterson(n) => format!("peterson-{n}"),
            Input::Spinlock(n) => format!("spinlock-{n}"),
        }
    }
}

/// Peterson's event bounds in the `check-cold` deck.
pub const PETERSON_BOUNDS: std::ops::RangeInclusive<usize> = 12..=18;
/// The spinlock's event bound in the `check-cold` deck.
pub const SPINLOCK_BOUND: usize = 14;

/// The text of every `.litmus` file in the checkout's `litmus/`,
/// sorted by file name so decks do not depend on directory order.
pub fn litmus_texts() -> Result<Vec<String>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir("litmus")
        .map_err(|e| format!("cannot read litmus/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err("litmus/ holds no .litmus files".to_string());
    }
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// The parsed litmus corpus, in [`litmus_texts`] order.
pub fn litmus_corpus() -> Result<Vec<LitmusTest>, String> {
    litmus_texts()?
        .iter()
        .map(|t| c11_litmus::parse_litmus(t).map_err(|e| e.to_string()))
        .collect()
}

/// Value draws of each shape (and copies of each litmus file) per
/// `check-cold` deck: enough cheap requests beside the case studies
/// that every reported percentile has ten samples beyond it in a
/// 30-second run, and few enough that Peterson at the top bound is over
/// 1 % of the verdicts, so `verdict_p99_ms` falls inside its samples
/// rather than at the edge between two case studies.
pub const COLD_COPIES: usize = 3;

/// The `check-cold` deck: every litmus file [`COLD_COPIES`] times, every
/// [`CHECK_SHAPES`] shape [`COLD_COPIES`] times (fresh value draws),
/// Peterson at each of [`PETERSON_BOUNDS`] and the spinlock once —
/// shuffled by the seed.
pub fn cold_deck(seed: u64, corpus: &[LitmusTest]) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut deck = Vec::new();
    for _ in 0..COLD_COPIES {
        deck.extend(corpus.iter().cloned().map(Input::Litmus));
        deck.extend(
            CHECK_SHAPES
                .iter()
                .map(|s| Input::Program(s.draw(&mut rng))),
        );
    }
    deck.extend(PETERSON_BOUNDS.map(Input::Peterson));
    deck.push(Input::Spinlock(SPINLOCK_BOUND));
    rng.shuffle(&mut deck);
    deck
}

/// The (a)+(b) inputs of `check-matrix`: the first half of the same
/// seed's `check-cold` draw (every litmus file and every shape once).
pub fn matrix_inputs(seed: u64, corpus: &[LitmusTest]) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut inputs: Vec<Input> = corpus.iter().cloned().map(Input::Litmus).collect();
    inputs.extend(
        CHECK_SHAPES
            .iter()
            .map(|s| Input::Program(s.draw(&mut rng))),
    );
    inputs
}

/// One scheduled `serve-mixed` request.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// When it is due, from the start of the timed phase.
    pub due: std::time::Duration,
    /// Which of the two connections sends it.
    pub conn: usize,
    /// Index into the warm set, or `None` for a fresh miss.
    pub warm: Option<usize>,
    /// The request document (the frame payload).
    pub payload: String,
}

/// Zipf(1) weights over `n` ranks.
fn zipf_pick(rng: &mut Rng, n: usize) -> usize {
    let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.unit() * h;
    for k in 1..=n {
        u -= 1.0 / k as f64;
        if u < 0.0 {
            return k - 1;
        }
    }
    n - 1
}

/// A request document for a program (or litmus source).
pub fn program_request(id: &str, src: &str) -> String {
    c11_api::json::Json::obj(vec![
        ("id", c11_api::json::Json::str(id)),
        ("program", c11_api::json::Json::str(src)),
    ])
    .render()
}

pub fn litmus_request(id: &str, source: &str) -> String {
    c11_api::json::Json::obj(vec![
        ("id", c11_api::json::Json::str(id)),
        ("litmus_source", c11_api::json::Json::str(source)),
        ("mode", c11_api::json::Json::str("litmus")),
    ])
    .render()
}

/// The `serve-mixed` inputs: the warm set (the corpus sources plus one
/// draw of each [`WARM_SHAPES`] shape), and the open-loop schedule.
pub struct ServePlan {
    /// Warm entries: (name, request source, is litmus).
    pub warm: Vec<WarmEntry>,
    pub arrivals: Vec<Arrival>,
    /// The fresh programs, indexed by the arrival's miss number.
    pub misses: Vec<Program>,
}

#[derive(Clone, Debug)]
pub enum WarmEntry {
    Litmus { name: String, source: String },
    Program(Program),
}

impl WarmEntry {
    pub fn request(&self, id: &str) -> String {
        match self {
            WarmEntry::Litmus { source, .. } => litmus_request(id, source),
            WarmEntry::Program(p) => program_request(id, &p.src),
        }
    }
}

/// Builds the `serve-mixed` plan: `rate × seconds` arrivals at uniform
/// random instants of the timed phase (a Poisson process conditioned on
/// its count, so the request count does not vary with the seed), each
/// on a random connection. In every block of ten consecutive arrivals
/// one, at a seeded position, is a fresh miss (10 %); the others pick a
/// warm entry by Zipf rank over a seeded permutation of the warm set.
pub fn serve_plan(
    seed: u64,
    corpus_sources: &[(String, String)],
    rate: f64,
    seconds: f64,
) -> ServePlan {
    let mut rng = Rng::new(seed);
    let mut warm: Vec<WarmEntry> = corpus_sources
        .iter()
        .map(|(name, source)| WarmEntry::Litmus {
            name: name.clone(),
            source: source.clone(),
        })
        .collect();
    warm.extend(
        WARM_SHAPES
            .iter()
            .map(|s| WarmEntry::Program(s.draw(&mut rng))),
    );
    let mut ranks: Vec<usize> = (0..warm.len()).collect();
    rng.shuffle(&mut ranks);

    let n = (rate * seconds).round() as usize;
    let mut dues: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let mut seen: std::collections::HashSet<String> = warm
        .iter()
        .filter_map(|w| match w {
            WarmEntry::Program(p) => Some(p.src.clone()),
            WarmEntry::Litmus { .. } => None,
        })
        .collect();
    let mut misses = Vec::new();
    let mut arrivals = Vec::with_capacity(n);
    let mut miss_slot = 0;
    for (i, due) in dues.into_iter().enumerate() {
        if i % 10 == 0 {
            miss_slot = i + rng.below(10);
        }
        let conn = rng.below(2);
        let id = format!("r{i}");
        let (warm_idx, payload) = if i == miss_slot {
            let shape = MISS_SHAPES[misses.len() % MISS_SHAPES.len()];
            let p = loop {
                let p = shape.draw(&mut rng);
                if seen.insert(p.src.clone()) {
                    break p;
                }
            };
            let payload = program_request(&id, &p.src);
            misses.push(p);
            (None, payload)
        } else {
            let w = ranks[zipf_pick(&mut rng, warm.len())];
            (Some(w), warm[w].request(&id))
        };
        arrivals.push(Arrival {
            due: std::time::Duration::from_secs_f64(due),
            conn,
            warm: warm_idx,
            payload,
        });
    }
    ServePlan {
        warm,
        arrivals,
        misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11_api::{CheckReport, CheckRequest, Session, SessionConfig};
    use c11_core::fingerprint::fingerprint_prog;

    fn corpus() -> Vec<LitmusTest> {
        // Tests run from the package directory; the corpus is one up.
        std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")).unwrap();
        std::env::set_current_dir("..").unwrap();
        litmus_corpus().unwrap()
    }

    fn sources(deck: &[Input]) -> Vec<String> {
        deck.iter()
            .map(|i| match i {
                Input::Litmus(t) => t.source.clone(),
                Input::Program(p) => p.src.clone(),
                other => other.name(),
            })
            .collect()
    }

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        let c = corpus();
        assert_eq!(sources(&cold_deck(7, &c)), sources(&cold_deck(7, &c)));
        assert_ne!(sources(&cold_deck(7, &c)), sources(&cold_deck(8, &c)));
        let plan = |seed| serve_plan(seed, &[("a".into(), "b".into())], 50.0, 2.0);
        let (a, b) = (plan(3), plan(3));
        let payloads = |p: &ServePlan| -> Vec<String> {
            p.arrivals.iter().map(|a| a.payload.clone()).collect()
        };
        assert_eq!(payloads(&a), payloads(&b));
        assert_eq!(
            a.arrivals.iter().map(|x| x.due).collect::<Vec<_>>(),
            b.arrivals.iter().map(|x| x.due).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_generated_program_parses_and_finishes_untruncated() {
        let mut rng = Rng::new(11);
        let shapes = CHECK_SHAPES.iter().chain(&WARM_SHAPES).chain(&MISS_SHAPES);
        for shape in shapes {
            let p = shape.draw(&mut rng);
            let report = CheckRequest::program(p.src.as_str())
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", p.name, p.src));
            let CheckReport::Outcomes(o) = report else {
                panic!("outcome report expected");
            };
            assert!(!o.stats.truncated, "{} truncated", p.name);
            assert_eq!(o.invalid_finals, 0, "{}", p.name);
        }
        for test in corpus() {
            let report = CheckRequest::litmus(test.clone()).run().unwrap();
            assert!(!report.stats().truncated, "{} truncated", test.name);
        }
    }

    #[test]
    fn serve_misses_have_pairwise_distinct_cache_keys() {
        let plan = serve_plan(5, &[], 200.0, 3.0);
        assert_eq!(plan.misses.len(), 60, "one miss per ten arrivals");
        let mut keys = std::collections::HashSet::new();
        for w in &plan.warm {
            if let WarmEntry::Program(p) = w {
                keys.insert(fingerprint_prog(&c11_lang::parse_program(&p.src).unwrap()));
            }
        }
        for p in &plan.misses {
            let prog = c11_lang::parse_program(&p.src).unwrap();
            assert!(
                keys.insert(fingerprint_prog(&prog)),
                "{} repeats a key",
                p.name
            );
        }
        // The session agrees: no miss is answered from the cache.
        let session = Session::new(SessionConfig::default());
        for p in &plan.misses {
            let report = session.run(CheckRequest::program(p.src.as_str())).unwrap();
            assert!(!report.cache_hit(), "{} hit the cache", p.name);
        }
    }
}
