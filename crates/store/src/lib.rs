//! `c11-store` — visited-state storage for the exploration engines.
//!
//! Every engine deduplicates on 128-bit canonical state fingerprints.
//! Where those fingerprints *live* used to be hard-wired as a flat
//! `HashSet<u128>` per engine; this crate owns that decision behind the
//! [`VisitedStore`] trait, with three implementations:
//!
//! * [`FlatStore`] — the extracted flat fingerprint set (the default;
//!   byte-for-byte the behaviour every engine had before this crate).
//! * [`SymmetryStore`] — the storage half of thread-symmetry
//!   quotienting. The quotient itself lives in the *key*: the engines
//!   canonicalise the thread order before fingerprinting (see
//!   `c11_explore::sym`), so orbit-equivalent states collapse to one
//!   entry. This store is the flat set re-labelled to report
//!   `kind = "sym"` in its stats — keeping key computation out of the
//!   store keeps the store model-agnostic.
//! * [`SharedStore`] — a hash-consed radix structure over fingerprint
//!   chunks: an extendible directory indexed by the key's top bits whose
//!   slots share arena-allocated sorted pages until a split
//!   differentiates them (the node-sharing that makes the directory
//!   cheap), with exact byte accounting.
//!
//! All three report [`StoreStats`] — resident bytes, node and
//! dedup-hit counters — surfaced through the explore crate's `Stats`
//! and the `c11check/v1` JSON `"store"` block.
//!
//! The [`concurrent`] module hosts the striped concurrent forms the
//! parallel engine uses (the lock-free CAS-claim filter for flat/sym
//! keys, striped mutexes over [`SharedStore`] pages for the shared
//! kind).

pub mod concurrent;

use std::collections::HashSet;

/// Which visited-store implementation a run uses. The engines thread
/// this through `ExploreConfig`; services accept it as
/// `--store flat|sym|shared`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// The flat fingerprint `HashSet` (the reference behaviour).
    #[default]
    Flat,
    /// Flat storage with thread-symmetry-canonicalised keys: visited
    /// counts shrink by the thread-permutation orbit on symmetric
    /// programs. Opt-in — `unique`/`generated` legitimately differ from
    /// the flat run; verdicts and canonicalised outcomes do not.
    Sym,
    /// The hash-consed paged store with exact memory accounting.
    Shared,
}

impl StoreKind {
    /// Every kind, in CLI order.
    pub const ALL: [StoreKind; 3] = [StoreKind::Flat, StoreKind::Sym, StoreKind::Shared];

    /// The CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            StoreKind::Flat => "flat",
            StoreKind::Sym => "sym",
            StoreKind::Shared => "shared",
        }
    }

    /// Parses a CLI / JSON name.
    pub fn parse(s: &str) -> Option<StoreKind> {
        StoreKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Memory and dedup accounting a store reports after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StoreStats {
    /// Which implementation produced these numbers.
    pub kind: StoreKind,
    /// Were keys symmetry-canonicalised? (True for [`StoreKind::Sym`],
    /// and for any kind when the explicit `symmetry` knob was on.)
    pub sym: bool,
    /// Exact bytes resident in the store's own structures (directory,
    /// pages, buckets) — not including the transient key being probed.
    pub bytes_resident: usize,
    /// Interior nodes (arena pages for [`SharedStore`]; 0 for the flat
    /// set, whose table is one allocation).
    pub nodes: usize,
    /// Inserts that found their key already present.
    pub dedup_hits: usize,
}

/// The visited-set contract every engine deduplicates through.
pub trait VisitedStore {
    /// Inserts a fingerprint; `true` iff it was absent. This is the
    /// engines' linearization point of state discovery.
    fn insert(&mut self, key: u128) -> bool;

    /// Membership without insertion.
    fn contains(&self, key: u128) -> bool;

    /// Number of distinct keys stored.
    fn len(&self) -> usize;

    /// `true` iff no key is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's accounting snapshot.
    fn stats(&self) -> StoreStats;
}

// ---- FlatStore ----------------------------------------------------------

/// The flat fingerprint set — `HashSet<u128>` extracted from the
/// engines, kept as the default store.
#[derive(Debug, Default)]
pub struct FlatStore {
    set: HashSet<u128>,
    dedup_hits: usize,
}

impl FlatStore {
    /// An empty store.
    pub fn new() -> FlatStore {
        FlatStore::default()
    }

    /// Resident bytes of the underlying table. `HashSet` keeps
    /// `buckets = next_pow2(capacity · 8/7)` slots of 16 key bytes plus
    /// one control byte each; `capacity()` is the usable 7/8 fraction,
    /// so the bucket count is recovered exactly.
    fn table_bytes(&self) -> usize {
        let cap = self.set.capacity();
        if cap == 0 {
            return std::mem::size_of::<Self>();
        }
        let buckets = (cap * 8 / 7).next_power_of_two();
        std::mem::size_of::<Self>() + buckets * (std::mem::size_of::<u128>() + 1)
    }
}

impl VisitedStore for FlatStore {
    fn insert(&mut self, key: u128) -> bool {
        let fresh = self.set.insert(key);
        if !fresh {
            self.dedup_hits += 1;
        }
        fresh
    }

    fn contains(&self, key: u128) -> bool {
        self.set.contains(&key)
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            kind: StoreKind::Flat,
            sym: false,
            bytes_resident: self.table_bytes(),
            nodes: 0,
            dedup_hits: self.dedup_hits,
        }
    }
}

// ---- SymmetryStore ------------------------------------------------------

/// Flat storage for symmetry-canonicalised keys. The canonicalisation
/// (minimum fingerprint over the thread-permutation orbit) happens in
/// the engines' key function — see `c11_explore::sym` — so this store
/// only differs from [`FlatStore`] in the stats it reports.
#[derive(Debug, Default)]
pub struct SymmetryStore {
    inner: FlatStore,
}

impl SymmetryStore {
    /// An empty store.
    pub fn new() -> SymmetryStore {
        SymmetryStore::default()
    }
}

impl VisitedStore for SymmetryStore {
    fn insert(&mut self, key: u128) -> bool {
        self.inner.insert(key)
    }

    fn contains(&self, key: u128) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            kind: StoreKind::Sym,
            sym: true,
            ..self.inner.stats()
        }
    }
}

// ---- SharedStore --------------------------------------------------------

/// Split threshold for a page. Small enough that a split's two halves
/// plus slack stay cache-friendly; large enough that the directory stays
/// a few percent of the data.
const PAGE_CAP: usize = 32;

/// Page growth slab: key capacity is reserved in steps of this many
/// entries, keeping the worst-case fill ≥ `(PAGE_CAP/2) / (PAGE_CAP/2 +
/// PAGE_SLAB)` instead of the ×2 doubling a plain `Vec` would do.
const PAGE_SLAB: usize = 4;

/// One arena page: a sorted run of full fingerprints plus the number of
/// directory bits that routed keys here. Pages with `local_depth` below
/// the directory's global depth are *shared* by several directory slots
/// — the hash-consing that keeps a freshly doubled directory free.
#[derive(Debug)]
struct Page {
    local_depth: u32,
    keys: Vec<u128>,
}

impl Page {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Page>() + self.keys.capacity() * std::mem::size_of::<u128>()
    }
}

/// A hash-consed paged store over fingerprint chunks: extendible
/// hashing with an arena of sorted pages.
///
/// The directory is indexed by the key's top `global_depth` bits (the
/// first "chunk" of the fingerprint; fingerprints are uniform, so the
/// chunks are too). Each slot holds an arena page id; a page splits at
/// [`PAGE_CAP`] keys by one more routing bit, doubling the directory
/// only when the splitting page was already at full depth — every other
/// slot keeps *sharing* its old page, so directory doubling is O(slots)
/// pointer copies, not a rehash. Membership is exact (full keys are
/// stored), accounting is exact (`bytes_resident` sums the directory
/// and page allocations), and the tight [`PAGE_SLAB`] growth keeps
/// resident bytes per key below the flat table's bucket overhead.
#[derive(Debug)]
pub struct SharedStore {
    global_depth: u32,
    /// `dir[top_bits(key)]` = arena page id.
    dir: Vec<u32>,
    /// The page arena. Pages are never freed (splits reuse the old page
    /// as one of the two halves), so ids stay stable.
    pages: Vec<Page>,
    len: usize,
    dedup_hits: usize,
}

impl Default for SharedStore {
    fn default() -> SharedStore {
        SharedStore::new()
    }
}

impl SharedStore {
    /// An empty store: one page shared by the whole (depth-0) directory.
    pub fn new() -> SharedStore {
        SharedStore {
            global_depth: 0,
            dir: vec![0],
            pages: vec![Page {
                local_depth: 0,
                keys: Vec::new(),
            }],
            len: 0,
            dedup_hits: 0,
        }
    }

    fn slot_of(&self, key: u128) -> usize {
        if self.global_depth == 0 {
            0
        } else {
            (key >> (128 - self.global_depth)) as usize
        }
    }

    /// Splits the page under `key`'s slot by one routing bit, doubling
    /// the directory first when the page is already at global depth.
    fn split(&mut self, key: u128) {
        let pid = self.dir[self.slot_of(key)] as usize;
        if self.pages[pid].local_depth == self.global_depth {
            // Double the directory; every new slot shares its buddy's page.
            self.global_depth += 1;
            let old = std::mem::take(&mut self.dir);
            self.dir = Vec::with_capacity(old.len() * 2);
            for id in old {
                self.dir.push(id);
                self.dir.push(id);
            }
        }
        let depth = self.pages[pid].local_depth + 1;
        // Partition by the new routing bit (bit `depth` from the top).
        let shift = 128 - depth;
        let old_keys = std::mem::take(&mut self.pages[pid].keys);
        let (zeros, ones): (Vec<u128>, Vec<u128>) =
            old_keys.into_iter().partition(|k| (k >> shift) & 1 == 0);
        self.pages[pid].local_depth = depth;
        self.pages[pid].keys = zeros;
        self.pages[pid].keys.shrink_to_fit();
        let mut ones_page = Page {
            local_depth: depth,
            keys: ones,
        };
        ones_page.keys.shrink_to_fit();
        let new_pid = self.pages.len() as u32;
        self.pages.push(ones_page);
        // Re-route the directory slots whose `depth`-bit prefix now ends
        // in 1 from the old page to the new one.
        let slots_per_page = 1usize << (self.global_depth - depth);
        for (slot, id) in self.dir.iter_mut().enumerate() {
            if *id == pid as u32 && (slot / slots_per_page) & 1 == 1 {
                *id = new_pid;
            }
        }
    }
}

impl VisitedStore for SharedStore {
    fn insert(&mut self, key: u128) -> bool {
        loop {
            let pid = self.dir[self.slot_of(key)] as usize;
            let page = &mut self.pages[pid];
            match page.keys.binary_search(&key) {
                Ok(_) => {
                    self.dedup_hits += 1;
                    return false;
                }
                Err(pos) => {
                    if page.keys.len() >= PAGE_CAP {
                        self.split(key);
                        continue;
                    }
                    if page.keys.len() == page.keys.capacity() {
                        page.keys.reserve_exact(PAGE_SLAB);
                    }
                    page.keys.insert(pos, key);
                    self.len += 1;
                    return true;
                }
            }
        }
    }

    fn contains(&self, key: u128) -> bool {
        let pid = self.dir[self.slot_of(key)] as usize;
        self.pages[pid].keys.binary_search(&key).is_ok()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> StoreStats {
        let bytes = std::mem::size_of::<Self>()
            + self.dir.capacity() * std::mem::size_of::<u32>()
            + self.pages.iter().map(Page::bytes).sum::<usize>();
        StoreStats {
            kind: StoreKind::Shared,
            sym: false,
            bytes_resident: bytes,
            nodes: self.pages.len(),
            dedup_hits: self.dedup_hits,
        }
    }
}

// ---- AnyStore -----------------------------------------------------------

/// A store value dispatching over the three kinds — what the sequential
/// engines hold (the parallel engine goes through
/// [`concurrent::ConcurrentStore`]).
#[derive(Debug)]
pub enum AnyStore {
    /// Flat fingerprint set.
    Flat(FlatStore),
    /// Flat set over symmetry-canonical keys.
    Sym(SymmetryStore),
    /// The paged hash-consed store.
    Shared(SharedStore),
}

impl AnyStore {
    /// An empty store of the given kind.
    pub fn new(kind: StoreKind) -> AnyStore {
        match kind {
            StoreKind::Flat => AnyStore::Flat(FlatStore::new()),
            StoreKind::Sym => AnyStore::Sym(SymmetryStore::new()),
            StoreKind::Shared => AnyStore::Shared(SharedStore::new()),
        }
    }
}

impl VisitedStore for AnyStore {
    fn insert(&mut self, key: u128) -> bool {
        match self {
            AnyStore::Flat(s) => s.insert(key),
            AnyStore::Sym(s) => s.insert(key),
            AnyStore::Shared(s) => s.insert(key),
        }
    }

    fn contains(&self, key: u128) -> bool {
        match self {
            AnyStore::Flat(s) => s.contains(key),
            AnyStore::Sym(s) => s.contains(key),
            AnyStore::Shared(s) => s.contains(key),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyStore::Flat(s) => VisitedStore::len(s),
            AnyStore::Sym(s) => VisitedStore::len(s),
            AnyStore::Shared(s) => VisitedStore::len(s),
        }
    }

    fn stats(&self) -> StoreStats {
        match self {
            AnyStore::Flat(s) => s.stats(),
            AnyStore::Sym(s) => s.stats(),
            AnyStore::Shared(s) => s.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u128) -> impl Iterator<Item = u128> {
        // A full-period odd-multiplier scramble: distinct, well spread.
        (0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835))
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in StoreKind::ALL {
            assert_eq!(StoreKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(StoreKind::parse("bogus"), None);
        assert_eq!(StoreKind::default(), StoreKind::Flat);
    }

    #[test]
    fn all_stores_agree_on_membership() {
        for kind in StoreKind::ALL {
            let mut s = AnyStore::new(kind);
            assert!(s.is_empty());
            for k in keys(3_000) {
                assert!(s.insert(k), "{kind:?}: first insert fresh");
            }
            for k in keys(3_000) {
                assert!(!s.insert(k), "{kind:?}: second insert dedups");
                assert!(s.contains(k), "{kind:?}: membership");
            }
            assert!(!s.contains(0xdead_beef), "{kind:?}");
            assert_eq!(VisitedStore::len(&s), 3_000, "{kind:?}");
            assert_eq!(s.stats().dedup_hits, 3_000, "{kind:?}");
        }
    }

    #[test]
    fn shared_store_splits_and_shares_pages() {
        let mut s = SharedStore::new();
        for k in keys(10_000) {
            assert!(s.insert(k));
        }
        let stats = s.stats();
        assert!(stats.nodes > 1, "splits must have happened");
        assert_eq!(s.len, 10_000);
        // Every page is reachable and sorted; directory covers all slots.
        assert_eq!(s.dir.len(), 1 << s.global_depth);
        for page in &s.pages {
            assert!(page.keys.windows(2).all(|w| w[0] < w[1]), "sorted pages");
            assert!(page.keys.len() <= PAGE_CAP);
            assert!(page.local_depth <= s.global_depth);
        }
        // Shared slots: a page at depth d below global is pointed to by
        // exactly 2^(global - d) directory slots.
        for (pid, page) in s.pages.iter().enumerate() {
            let refs = s.dir.iter().filter(|&&id| id as usize == pid).count();
            assert_eq!(refs, 1 << (s.global_depth - page.local_depth), "page {pid}");
        }
    }

    #[test]
    fn shared_store_beats_flat_on_resident_bytes() {
        // The acceptance property the bench rows gate: across a wide
        // range of set sizes, the paged store stays under the flat
        // table's power-of-two bucket growth.
        for n in [200u128, 321, 553, 1_000, 5_000, 20_000] {
            let mut flat = FlatStore::new();
            let mut shared = SharedStore::new();
            for k in keys(n) {
                flat.insert(k);
                shared.insert(k);
            }
            let (fb, sb) = (flat.stats().bytes_resident, shared.stats().bytes_resident);
            assert!(sb < fb, "n={n}: shared {sb} B must undercut flat {fb} B");
        }
    }

    #[test]
    fn sym_store_reports_its_kind() {
        let mut s = SymmetryStore::new();
        s.insert(7);
        s.insert(7);
        let stats = s.stats();
        assert_eq!(stats.kind, StoreKind::Sym);
        assert!(stats.sym);
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn flat_accounting_tracks_table_growth() {
        let mut s = FlatStore::new();
        let before = s.stats().bytes_resident;
        for k in keys(1_000) {
            s.insert(k);
        }
        let after = s.stats().bytes_resident;
        assert!(after > before);
        // 17 bytes per bucket, buckets within [n·8/7, n·16/7].
        assert!((1_000 * 17..=1_000 * 40).contains(&after), "{after}");
    }
}
