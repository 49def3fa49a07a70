//! Thread-symmetry quotienting of the visited set.
//!
//! Thread ids are pure names in the interpreted semantics: relabelling
//! the threads of a configuration (and its memory state's events) is a
//! semantics equivariance. When a program is built from *identical*
//! thread bodies — the E13-wide / E16-contended families, the symmetric
//! litmus shapes — every reachable configuration therefore drags a full
//! thread-permutation orbit of relabelled twins through the visited set.
//!
//! This module quotients that orbit away. [`SymClasses`] groups threads
//! with identical *original* bodies (only those may be renamed into each
//! other without changing the program); [`sym_fingerprint`] replaces the
//! flat configuration fingerprint with the **minimum fingerprint over
//! the orbit**: class members are sorted by an equivariant per-thread
//! key (the thread's digest of residual command and register file, and
//! its memory contribution), the arrangements that tie under that key
//! are enumerated (capped), and each candidate relabelling is
//! fingerprinted by permuting the per-thread digests and calling
//! [`MemoryModel::state_fingerprint_relabelled`], without cloning or
//! rehashing the configuration. Orbit-equivalent configurations sort
//! their members into the same key order, so they probe the same
//! relabelled set and agree on the minimum — one stored representative
//! per orbit.
//!
//! Soundness: the canonical key of a configuration is the true
//! fingerprint of *some relabelling of it*, so two configurations merge
//! only if relabellings of them collide — i.e. they are genuinely
//! symmetry-equivalent (up to the 128-bit collision stance of
//! `c11_core::fingerprint`). Past [`PERM_CAP`] candidates the
//! enumeration falls back to a single arbitrary arrangement, which can
//! only *split* an orbit (storing extra representatives), never merge
//! distinct ones.

use crate::engine::{config_key, thread_digests};
use c11_core::config::Config;
use c11_core::model::MemoryModel;
use c11_lang::step::RegFile;
use c11_lang::{Prog, ThreadId};
use std::collections::HashMap;

/// Cap on candidate relabellings probed per configuration. Past it the
/// canonicalisation keeps one arbitrary (deterministic) arrangement —
/// sound, but orbits may be stored more than once. 3840 covers ties of
/// 5 interchangeable threads (5! = 120) in two independent classes with
/// room to spare; real ties are far smaller because the per-thread key
/// separates threads at different execution points.
pub const PERM_CAP: usize = 3840;

/// The thread-symmetry classes of a program: groups of thread ids whose
/// *original* bodies are syntactically identical. Only same-class
/// threads may be renamed into each other — cross-class renames change
/// the program (and would corrupt per-thread outcome reporting), even
/// when residual commands happen to coincide mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymClasses {
    /// Each class lists 0-based thread indices, ascending; classes of
    /// size 1 are dropped (nothing to quotient).
    classes: Vec<Vec<u8>>,
    num_threads: usize,
}

impl SymClasses {
    /// Computes the symmetry classes of `prog`.
    pub fn of(prog: &Prog) -> SymClasses {
        let mut by_body: HashMap<&c11_lang::Com, Vec<u8>> = HashMap::new();
        for (i, body) in prog.threads.iter().enumerate() {
            by_body.entry(body).or_default().push(i as u8);
        }
        let mut classes: Vec<Vec<u8>> = by_body.into_values().filter(|c| c.len() > 1).collect();
        classes.sort_by_key(|c| c[0]);
        SymClasses {
            classes,
            num_threads: prog.threads.len(),
        }
    }

    /// `true` iff no two threads share a body — the quotient is the
    /// identity and symmetric keying would only waste cycles.
    pub fn is_trivial(&self) -> bool {
        self.classes.is_empty()
    }

    /// The classes as slices of 0-based thread indices.
    pub fn classes(&self) -> &[Vec<u8>] {
        &self.classes
    }

    /// Sorts the register files of same-class threads into ascending
    /// order in place. Orbit-equivalent final configurations (whose reg
    /// vectors differ by a class permutation) map to the same sorted
    /// vector — the canonical final snapshot under the quotient.
    pub fn class_sort_regs(&self, regs: &mut [RegFile]) {
        for class in &self.classes {
            let mut files: Vec<RegFile> = class.iter().map(|&i| regs[i as usize].clone()).collect();
            files.sort();
            for (&i, f) in class.iter().zip(files) {
                regs[i as usize] = f;
            }
        }
    }

    /// Every thread-relabelling map generated by the classes (the full
    /// class-permutation group, identity included), as
    /// `map[old_tid] = new_tid` arrays over 1-based tids with
    /// `map[0] = 0`. Used to expand stored orbit representatives back
    /// into their full orbits (litmus outcome checks); intended for the
    /// small thread counts of litmus programs — the group has
    /// `∏ |class|!` elements.
    pub fn maps(&self) -> Vec<Vec<u8>> {
        let mut maps = vec![self.identity_map()];
        for class in &self.classes {
            let perms = permutations(class);
            let mut next = Vec::with_capacity(maps.len() * perms.len());
            for map in &maps {
                for perm in &perms {
                    let mut m = map.clone();
                    // Member perm[j] takes the tid of slot class[j].
                    for (j, &member) in perm.iter().enumerate() {
                        m[member as usize + 1] = class[j] + 1;
                    }
                    next.push(m);
                }
            }
            maps = next;
        }
        maps
    }

    fn identity_map(&self) -> Vec<u8> {
        (0..=self.num_threads as u8).collect()
    }
}

/// All orderings of `items` (small inputs only).
fn permutations(items: &[u8]) -> Vec<Vec<u8>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// `n!` with saturation (for cap checks).
fn factorial(n: usize) -> usize {
    (2..=n).fold(1usize, |acc, i| acc.saturating_mul(i))
}

/// The symmetry-canonical fingerprint of a configuration: the minimum
/// plain fingerprint over the (capped) candidate set of class
/// relabellings. Equals the plain key when the classes are trivial.
pub fn sym_fingerprint<M: MemoryModel>(model: &M, classes: &SymClasses, c: &Config<M>) -> u128 {
    sym_key(model, classes, c, &thread_digests(c))
}

/// [`sym_fingerprint`] of a configuration whose per-thread digests are
/// already known (`digests[i]` is thread `i + 1`'s).
pub(crate) fn sym_key<M: MemoryModel>(
    model: &M,
    classes: &SymClasses,
    c: &Config<M>,
    digests: &[u128],
) -> u128 {
    if classes.is_trivial() {
        return config_key(digests.iter().copied(), model.state_fingerprint(&c.mem));
    }
    // Equivariant per-thread key of class member `i` (0-based): what the
    // thread still has to run and has computed (its digest), and what it
    // did to memory. Members with distinct keys cannot be
    // interchangeable, so only ties need their arrangements enumerated.
    let member_key = |i: u8| -> (u128, u64) {
        (
            digests[i as usize],
            model.thread_mem_key(&c.mem, ThreadId(i + 1)),
        )
    };
    // Per class: members sorted by key, plus the tie blocks (ranges of
    // equal keys) whose internal order the key cannot decide.
    let mut sorted_classes: Vec<Vec<u8>> = Vec::with_capacity(classes.classes.len());
    let mut candidates_total = 1usize;
    let mut blocks: Vec<Vec<(usize, usize)>> = Vec::with_capacity(classes.classes.len());
    for class in &classes.classes {
        let mut keyed: Vec<(u8, (u128, u64))> = class.iter().map(|&i| (i, member_key(i))).collect();
        keyed.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut class_blocks = Vec::new();
        let mut start = 0;
        for i in 1..=keyed.len() {
            if i == keyed.len() || keyed[i].1 != keyed[start].1 {
                if i - start > 1 {
                    class_blocks.push((start, i));
                    candidates_total = candidates_total.saturating_mul(factorial(i - start));
                }
                start = i;
            }
        }
        sorted_classes.push(keyed.into_iter().map(|(i, _)| i).collect());
        blocks.push(class_blocks);
    }

    let n = c.coms.len();
    let mut map: Vec<u8> = (0..=n as u8).collect();
    let mut view: Vec<u128> = vec![0; n];
    let mut fingerprint_of = |arrangements: &[Vec<u8>]| -> u128 {
        for (i, slot) in map.iter_mut().enumerate() {
            *slot = i as u8;
        }
        for (class, arr) in classes.classes.iter().zip(arrangements) {
            // Member arr[j] takes the tid of slot class[j].
            for (j, &member) in arr.iter().enumerate() {
                map[member as usize + 1] = class[j] + 1;
            }
        }
        // The relabelled configuration's thread `new` is thread `old`
        // here, so its digests are these permuted: the candidate value IS
        // the plain key of the relabelled configuration.
        for (old, &digest) in digests.iter().enumerate() {
            view[(map[old + 1] - 1) as usize] = digest;
        }
        config_key(
            view.iter().copied(),
            model.state_fingerprint_relabelled(&c.mem, &map),
        )
    };

    if candidates_total > PERM_CAP {
        // Orbit-splitting fallback: one deterministic arrangement. Never
        // merges inequivalent states; may store an orbit twice.
        return fingerprint_of(&sorted_classes);
    }

    // Enumerate the product of tie-block permutations across classes and
    // take the minimum fingerprint. The recursion depth is the number of
    // tie blocks (tiny); `current` holds one arrangement per class.
    let mut best = u128::MAX;
    let mut current = sorted_classes.clone();
    enumerate_blocks(
        &mut current,
        &sorted_classes,
        &blocks,
        0,
        0,
        &mut |arrs: &[Vec<u8>]| {
            let fp = fingerprint_of(arrs);
            if fp < best {
                best = fp;
            }
        },
    );
    best
}

/// Recursively permutes each tie block of each class, invoking `visit`
/// on every complete assignment.
fn enumerate_blocks<F: FnMut(&[Vec<u8>])>(
    current: &mut Vec<Vec<u8>>,
    sorted: &[Vec<u8>],
    blocks: &[Vec<(usize, usize)>],
    class_idx: usize,
    block_idx: usize,
    visit: &mut F,
) {
    // Find the next tie block at or after (class_idx, block_idx).
    let mut ci = class_idx;
    let mut bi = block_idx;
    while ci < blocks.len() && bi >= blocks[ci].len() {
        ci += 1;
        bi = 0;
    }
    if ci == blocks.len() {
        visit(current);
        return;
    }
    let (start, end) = blocks[ci][bi];
    for perm in permutations(&sorted[ci][start..end]) {
        current[ci][start..end].copy_from_slice(&perm);
        enumerate_blocks(current, sorted, blocks, ci, bi + 1, visit);
    }
    current[ci][start..end].copy_from_slice(&sorted[ci][start..end]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Keys;
    use c11_core::model::RaModel;
    use c11_lang::parse_program;

    #[test]
    fn classes_group_identical_bodies() {
        let prog = parse_program(
            "vars x;
             thread a { x := 1; }
             thread b { x := 1; }
             thread c { x := 2; }",
        )
        .unwrap();
        let classes = SymClasses::of(&prog);
        assert!(!classes.is_trivial());
        assert_eq!(classes.classes(), &[vec![0, 1]]);

        let asym = parse_program(
            "vars x;
             thread a { x := 1; }
             thread b { x := 2; }",
        )
        .unwrap();
        assert!(SymClasses::of(&asym).is_trivial());
    }

    #[test]
    fn maps_cover_the_class_permutation_group() {
        let prog = parse_program(
            "vars x;
             thread a { x := 1; }
             thread b { x := 1; }
             thread c { x := 1; }",
        )
        .unwrap();
        let classes = SymClasses::of(&prog);
        let maps = classes.maps();
        assert_eq!(maps.len(), 6, "3! relabellings");
        for m in &maps {
            assert_eq!(m[0], 0, "init thread is fixed");
            let mut seen: Vec<u8> = m[1..].to_vec();
            seen.sort();
            assert_eq!(seen, vec![1, 2, 3], "each map is a permutation");
        }
    }

    #[test]
    fn identity_arrangement_matches_plain_fingerprint_on_initial() {
        // On the initial configuration all class members are fully tied;
        // the candidate set contains the identity, and since all members
        // are literally interchangeable every candidate gives the same
        // value — which must be the plain fingerprint.
        let prog = parse_program(
            "vars x;
             thread a { x := 1; }
             thread b { x := 1; }",
        )
        .unwrap();
        let classes = SymClasses::of(&prog);
        let initial = Config::initial(&RaModel, &prog);
        let (plain, _) = Keys::new(&RaModel, None).root(&initial);
        assert_eq!(sym_fingerprint(&RaModel, &classes, &initial), plain);
    }

    #[test]
    fn orbit_members_share_a_canonical_fingerprint() {
        // Step thread a once in one run and thread b once in another:
        // the two configurations are relabellings of each other and must
        // collapse under the symmetric key (but not under the flat one).
        let prog = parse_program(
            "vars x y;
             thread a { x := 1; y := 2; }
             thread b { x := 1; y := 2; }",
        )
        .unwrap();
        let classes = SymClasses::of(&prog);
        let initial = Config::initial(&RaModel, &prog);
        let succs = initial.successors(&RaModel);
        let by_a: Vec<_> = succs
            .iter()
            .filter(|s| s.tid == ThreadId(1))
            .map(|s| &s.next)
            .collect();
        let by_b: Vec<_> = succs
            .iter()
            .filter(|s| s.tid == ThreadId(2))
            .map(|s| &s.next)
            .collect();
        assert_eq!(by_a.len(), by_b.len());
        let keys = |cs: &[&Config<RaModel>]| -> Vec<u128> {
            let mut k: Vec<u128> = cs
                .iter()
                .map(|c| sym_fingerprint(&RaModel, &classes, c))
                .collect();
            k.sort();
            k
        };
        assert_eq!(keys(&by_a), keys(&by_b), "orbits must merge");
        let flat = |cs: &[&Config<RaModel>]| -> Vec<u128> {
            let plain = Keys::new(&RaModel, None);
            let mut k: Vec<u128> = cs.iter().map(|c| plain.root(c).0).collect();
            k.sort();
            k
        };
        assert_ne!(flat(&by_a), flat(&by_b), "flat keys keep orbits apart");
    }

    #[test]
    fn class_sort_regs_canonicalises_orbit_snapshots() {
        use c11_lang::RegId;
        let prog = parse_program(
            "vars x;
             thread a { r0 <- x; }
             thread b { r0 <- x; }",
        )
        .unwrap();
        let classes = SymClasses::of(&prog);
        let mut f1 = RegFile::default();
        f1.set(RegId(0), 7);
        let mut f2 = RegFile::default();
        f2.set(RegId(0), 9);
        let mut ab = vec![f1.clone(), f2.clone()];
        let mut ba = vec![f2, f1];
        classes.class_sort_regs(&mut ab);
        classes.class_sort_regs(&mut ba);
        assert_eq!(ab, ba);
    }
}
