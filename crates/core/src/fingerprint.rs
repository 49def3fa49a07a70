//! Fixed-seed 128-bit fingerprints for exploration dedup keys.
//!
//! The explorer deduplicates configurations by a 128-bit fingerprint
//! instead of cloning the whole `(coms, regs, CanonicalState)` tuple into
//! a hash map. Values are hashed with [`hash128_of`]: two independent
//! 64-bit lanes, each a fixed-seed FNV-1a fold finished with a splitmix64
//! avalanche, both fed from one walk of the value. Order-insensitive sets
//! (a memory state's events and edges) go through [`SetFold`], whose
//! per-record sums can be extended one record at a time.
//!
//! The key is built from parts that change independently. Each thread
//! has a digest of its residual command and register file, and the
//! memory state has its canonical fingerprint (see
//! [`crate::state::C11State::fingerprint`]); [`combine128`] mixes them in
//! thread order. A step changes one thread and appends at most one event,
//! so the explorer rehashes that thread only, and the memory state folds
//! in only the new event's records.
//!
//! Collision stance: keys are 128 bits, so two distinct canonical states
//! colliding is a ~2⁻⁶⁴ event even after billions of states (birthday
//! bound), far below the chance of a hardware fault during the same run.
//! Dedup by fingerprint can therefore *undercount* states only with
//! negligible probability and can never produce unsound "allowed"
//! verdicts (a merged state was still reached by a real execution).

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// The splitmix64 finaliser: a cheap full-avalanche bijection on `u64`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `std::hash::Hasher` running FNV-1a from a caller-chosen seed, with a
/// splitmix64 finaliser. Deterministic across runs and processes (unlike
/// `DefaultHasher`'s documented-unstable initial state), which keeps
/// fingerprints comparable between the sequential and parallel engines.
pub struct SeededFnv {
    state: u64,
}

impl SeededFnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher whose initial state is `seed` folded into the
    /// standard FNV offset basis.
    pub fn new(seed: u64) -> SeededFnv {
        SeededFnv {
            state: 0xcbf2_9ce4_8422_2325 ^ seed,
        }
    }
}

impl Hasher for SeededFnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// Both lanes of [`hash128_of`] in one `Hasher`: every byte updates
/// both FNV states, so the value is walked once. Equal, lane for lane, to
/// two [`SeededFnv`]s fed the same bytes.
struct Fnv128 {
    lo: SeededFnv,
    hi: SeededFnv,
}

impl Hasher for Fnv128 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (mut lo, mut hi) = (self.lo.state, self.hi.state);
        for &b in bytes {
            lo = (lo ^ b as u64).wrapping_mul(SeededFnv::PRIME);
            hi = (hi ^ b as u64).wrapping_mul(SeededFnv::PRIME);
        }
        self.lo.state = lo;
        self.hi.state = hi;
    }

    fn finish(&self) -> u64 {
        self.lo.finish()
    }
}

/// Hashes any `Hash` value into 128 bits via two differently-seeded lanes.
pub fn hash128_of<T: Hash + ?Sized>(value: &T) -> u128 {
    let mut h = Fnv128 {
        lo: SeededFnv::new(0x243f_6a88_85a3_08d3), // π digits
        hi: SeededFnv::new(0x1319_8a2e_0370_7344),
    };
    value.hash(&mut h);
    ((h.hi.finish() as u128) << 64) | h.lo.finish() as u128
}

/// Mixes several 128-bit fingerprints (e.g. per-thread digests and a
/// memory state) into one, order-sensitively.
pub fn combine128<I>(parts: I) -> u128
where
    I: IntoIterator,
    I::Item: Borrow<u128>,
{
    let mut lo: u64 = 0x4528_21e6_38d0_1377;
    let mut hi: u64 = 0xbe54_66cf_34e9_0c6c;
    for p in parts {
        let p = *p.borrow();
        lo = splitmix64(lo ^ p as u64);
        hi = splitmix64(hi ^ (p >> 64) as u64);
    }
    ((hi as u128) << 64) | lo as u128
}

/// A fixed-seed 128-bit fingerprint of a parsed program: initial values,
/// variable names and thread bodies, order-sensitively mixed. This is the
/// identity the api crate's `Session` result cache keys on — two sources
/// that parse to the same program (whitespace, comments, formatting)
/// share a fingerprint; any semantic difference (and any variable
/// rename, which changes rendered traces and DOT output) separates them.
pub fn fingerprint_prog(prog: &c11_lang::Prog) -> u128 {
    combine128([
        hash128_of(&prog.inits),
        hash128_of(&prog.var_names),
        hash128_of(&prog.threads),
    ])
}

/// An order-insensitive 128-bit accumulator for record multisets: each
/// record is avalanche-mixed per lane and then folded in with wrapping
/// addition, so permuting the insertion order cannot change the result,
/// and a record can be added later without revisiting the others. Used
/// by [`crate::state::C11State::fingerprint`] to hash a state's events
/// and `sb`/`rf`/`mo` edges without sorting (hence without allocating).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetFold {
    lo: u64,
    hi: u64,
}

impl SetFold {
    /// Folds one two-word record into both lanes. The words are mixed
    /// one after the other, never packed together, so no field of one
    /// can bleed into the other; each lane mixes with its own seeds, so a
    /// collision needs both 64-bit lanes to agree.
    #[inline]
    pub fn absorb(&mut self, x: u64, y: u64) {
        self.lo = self
            .lo
            .wrapping_add(splitmix64(splitmix64(x ^ 0x9216_d5d9_8979_fb1b) ^ y));
        self.hi = self
            .hi
            .wrapping_add(splitmix64(splitmix64(x ^ 0xd131_0ba6_98df_b5ac) ^ y));
    }

    /// The accumulated 128-bit digest.
    pub fn digest(&self) -> u128 {
        ((splitmix64(self.hi) as u128) << 64) | splitmix64(self.lo) as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_fnv_is_deterministic_and_seed_sensitive() {
        let h = |seed: u64, data: &[u8]| {
            let mut f = SeededFnv::new(seed);
            f.write(data);
            f.finish()
        };
        assert_eq!(h(1, b"abc"), h(1, b"abc"));
        assert_ne!(h(1, b"abc"), h(2, b"abc"));
        assert_ne!(h(1, b"abc"), h(1, b"abd"));
    }

    #[test]
    fn hash128_distinguishes_values() {
        assert_eq!(hash128_of(&[1u32, 2, 3]), hash128_of(&[1u32, 2, 3]));
        assert_ne!(hash128_of(&[1u32, 2, 3]), hash128_of(&[1u32, 3, 2]));
        assert_ne!(hash128_of(&1u64), hash128_of(&2u64));
    }

    #[test]
    fn hash128_and_program_fingerprints_are_pinned() {
        // Literal values from the two-walk implementation: the session
        // cache keys on `fingerprint_prog`, and persisted snapshots store
        // those keys, so no change to the hasher may move a bit.
        assert_eq!(
            hash128_of(&(42u64, "c11", [1u32, 2, 3], true)),
            0xa61d_661c_d11c_4d22_c8bd_3907_9faa_5721
        );
        // The release/acquire message-passing program of the quickstart.
        let mp = c11_lang::parse_program(
            "vars d f;
             thread t1 { d := 5; f :=R 1; }
             thread t2 { r0 <-A f; r1 <- d; }",
        )
        .unwrap();
        assert_eq!(
            fingerprint_prog(&mp),
            0xa687_70d8_9e79_d99d_840e_480b_b46d_e05e
        );
    }

    #[test]
    fn set_fold_is_order_insensitive() {
        let mut a = SetFold::default();
        let mut b = SetFold::default();
        for x in [3u64, 1, 4, 1, 5] {
            a.absorb(x, 7);
        }
        for x in [5u64, 1, 4, 3, 1] {
            b.absorb(x, 7);
        }
        assert_eq!(a.digest(), b.digest());
        let mut c = SetFold::default();
        for x in [3u64, 1, 4, 1] {
            c.absorb(x, 7);
        }
        assert_ne!(a.digest(), c.digest());
        // The words are not interchangeable.
        let (mut xy, mut yx) = (SetFold::default(), SetFold::default());
        xy.absorb(1, 2);
        yx.absorb(2, 1);
        assert_ne!(xy.digest(), yx.digest());
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine128([1, 2]), combine128([2, 1]));
        assert_eq!(combine128([1, 2]), combine128([1, 2]));
    }

    #[test]
    fn prog_fingerprint_ignores_formatting_but_not_semantics() {
        let parse = |s: &str| c11_lang::parse_program(s).unwrap();
        let a = parse("vars x; thread t { x := 1; }");
        let b = parse("vars x;\n  thread t {\n    x := 1;\n  }");
        assert_eq!(fingerprint_prog(&a), fingerprint_prog(&b));
        let c = parse("vars x; thread t { x := 2; }");
        assert_ne!(fingerprint_prog(&a), fingerprint_prog(&c));
        // Renames change rendered traces/DOT, so they must separate.
        let d = parse("vars y; thread t { y := 1; }");
        assert_ne!(fingerprint_prog(&a), fingerprint_prog(&d));
    }
}
