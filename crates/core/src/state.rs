//! C11 states `((D, sb), rf, mo)` and their derived relations (paper §3.1).

use crate::event::{Event, EventId};
use crate::fingerprint::{combine128, SetFold};
use c11_lang::{ThreadId, Val, VarId};
use c11_relations::{BitSet, Relation};
use std::sync::OnceLock;

/// Lazily computed derived relations. Cloned with the state (a clone is a
/// snapshot of the same execution, so the cache stays valid). The RA
/// transition rules *update* populated caches incrementally (every edge
/// they add is incident to the freshly appended event, so the closures can
/// absorb the delta in O(n²/64) — see [`Relation::absorb_star`]); only the
/// arbitrary-mutation escape hatches ([`C11State::rf_mut`] /
/// [`C11State::mo_mut`]) clear them. Excluded from equality and hashing.
///
/// The cells are [`OnceLock`]s, not `OnceCell`s, so a state behind an
/// `Arc` can be shared across exploration workers (`C11State: Sync`);
/// concurrent first computations race benignly — both compute the same
/// value and one `set` wins.
#[derive(Clone, Default)]
struct Derived {
    hb: OnceLock<Relation>,
    eco: OnceLock<Relation>,
    /// `eco? ; hb?` — the reach used by encountered-writes (§3.2).
    reach: OnceLock<Relation>,
    /// The 128-bit canonical fingerprint ([`C11State::fingerprint`]).
    /// τ-steps share the parent's memory state, so caching it here turns
    /// the per-successor dedup hash of every silent step into a load.
    fp: OnceLock<u128>,
    /// The record folds `fp` is digested from. Once populated, the RA
    /// transition paths absorb each new event's records into it, so a
    /// successor's fingerprint costs what its step added.
    fold: OnceLock<Fold>,
}

/// The accumulators behind [`C11State::fingerprint`]: one record per
/// event and one per `sb`/`rf`/`mo` edge, every event named by its
/// coordinate `(tid, index within its thread)` (see [`coord`]). An
/// appended event gets the next index of its thread and moves no other
/// event, so the records of a state are also records of its successors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Fold {
    events: SetFold,
    sb: SetFold,
    rf: SetFold,
    mo: SetFold,
}

impl Fold {
    /// The fingerprint of a state of `n` events with these folds.
    fn digest(&self, n: usize) -> u128 {
        combine128([
            n as u128,
            self.events.digest(),
            self.sb.digest(),
            self.rf.digest(),
            self.mo.digest(),
        ])
    }

    /// Absorbs the record of event `ev` at coordinate `at`. The
    /// coordinate, kind and variable share one exactly packed word
    /// (40 + 8 + 8 bits); the two values share the other.
    fn absorb_event(&mut self, at: u64, ev: &Event) {
        let (kind, var, a, b) = match ev.action {
            c11_lang::Action::Rd { var, val, acquire } => (1u64, var.0, val, acquire as Val),
            c11_lang::Action::Wr { var, val, release } => (2u64, var.0, val, release as Val),
            c11_lang::Action::Upd { var, old, new } => (3u64, var.0, old, new),
        };
        self.events.absorb(
            at << 16 | kind << 8 | var as u64,
            (a as u64) << 32 | b as u64,
        );
    }
}

/// The coordinate of the event at `index` within thread `tid`: the tid
/// above an exact 32-bit index. A relation over 2³² events could not be
/// allocated, so the index always fits.
fn coord(tid: u8, index: usize) -> u64 {
    (tid as u64) << 32 | u32::try_from(index).expect("fewer than 2^32 events per thread") as u64
}

/// A C11 state: events with sequenced-before, reads-from and modification
/// order (Definition 3.1). Immutable-by-convention: transitions produce new
/// states. Derived relations (`hb`, `eco`, the observability reach) are
/// cached per state.
///
/// ```
/// use c11_core::state::C11State;
/// use c11_core::semantics::write_transitions;
/// use c11_core::{ThreadId, VarId};
///
/// // One shared variable initialised to 0; thread 1 writes 5.
/// let s0 = C11State::initial(&[0]);
/// let tr = &write_transitions(&s0, ThreadId(1), VarId(0), 5, false)[0];
/// assert_eq!(tr.state.last(VarId(0)), Some(tr.event));
/// assert!(tr.state.mo().contains(0, tr.event)); // init mo-before it
/// ```
#[derive(Clone)]
pub struct C11State {
    events: Vec<Event>,
    sb: Relation,
    rf: Relation,
    mo: Relation,
    /// Per-variable write index (`writes_by_var[x]` = ids of writes to
    /// `VarId(x)`, in arena order): lets `last`, `writes_to` and the
    /// observability queries avoid scanning the whole arena. Derived from
    /// `events`, so excluded from equality/hashing.
    writes_by_var: Vec<Vec<EventId>>,
    /// Per-thread event index (same conventions).
    events_by_tid: Vec<Vec<EventId>>,
    derived: Derived,
}

impl PartialEq for C11State {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
            && self.sb == other.sb
            && self.rf == other.rf
            && self.mo == other.mo
    }
}

impl Eq for C11State {}

impl std::hash::Hash for C11State {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.events.hash(state);
        self.sb.hash(state);
        self.rf.hash(state);
        self.mo.hash(state);
    }
}

impl C11State {
    /// The initial state `σ₀ = ((I, ∅), ∅, ∅)` with one initialising write
    /// per variable (`inits[i]` is the initial value of `VarId(i)`).
    pub fn initial(inits: &[Val]) -> C11State {
        let events: Vec<Event> = inits
            .iter()
            .enumerate()
            .map(|(i, &v)| Event::init_write(VarId(i as u8), v))
            .collect();
        let n = events.len();
        let mut s = C11State {
            events,
            sb: Relation::new(n),
            rf: Relation::new(n),
            mo: Relation::new(n),
            writes_by_var: Vec::new(),
            events_by_tid: Vec::new(),
            derived: Derived::default(),
        };
        s.rebuild_index();
        s
    }

    /// Builds a state directly from parts. Used by the axiomatic crate's
    /// candidate-execution enumerator; the operational semantics only goes
    /// through [`C11State::initial`] and the transition functions.
    pub fn from_parts(events: Vec<Event>, sb: Relation, rf: Relation, mo: Relation) -> C11State {
        let n = events.len();
        let mut sb = sb;
        let mut rf = rf;
        let mut mo = mo;
        sb.grow(n);
        rf.grow(n);
        mo.grow(n);
        let mut s = C11State {
            events,
            sb,
            rf,
            mo,
            writes_by_var: Vec::new(),
            events_by_tid: Vec::new(),
            derived: Derived::default(),
        };
        s.rebuild_index();
        s
    }

    /// Re-derives the per-variable and per-thread indexes from `events`.
    fn rebuild_index(&mut self) {
        self.writes_by_var.clear();
        self.events_by_tid.clear();
        for e in 0..self.events.len() {
            self.index_event(e);
        }
    }

    /// Registers event `e` (already in the arena) in the indexes.
    fn index_event(&mut self, e: EventId) {
        let ev = self.events[e];
        let t = ev.tid.0 as usize;
        if self.events_by_tid.len() <= t {
            self.events_by_tid.resize(t + 1, Vec::new());
        }
        self.events_by_tid[t].push(e);
        if ev.is_write() {
            let x = ev.var().0 as usize;
            if self.writes_by_var.len() <= x {
                self.writes_by_var.resize(x + 1, Vec::new());
            }
            self.writes_by_var[x].push(e);
        }
    }

    /// The event arena `D`.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff the state holds no events (never the case for reachable
    /// states, which contain the initialising writes).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event with id `e`.
    pub fn event(&self, e: EventId) -> &Event {
        &self.events[e]
    }

    /// Sequenced-before.
    pub fn sb(&self) -> &Relation {
        &self.sb
    }

    /// Reads-from.
    pub fn rf(&self) -> &Relation {
        &self.rf
    }

    /// Modification order.
    pub fn mo(&self) -> &Relation {
        &self.mo
    }

    /// Ids of all events, in arena order.
    pub fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        0..self.events.len()
    }

    /// The initialising writes `I_σ = D ∩ IWr` as a bitset.
    pub fn init_writes(&self) -> BitSet {
        BitSet::from_iter(self.ids().filter(|&e| self.events[e].is_init()))
    }

    /// All write events (updates included) as a bitset.
    pub fn writes(&self) -> BitSet {
        let mut out = BitSet::with_capacity(self.len());
        for &w in self.writes_by_var.iter().flatten() {
            out.insert(w);
        }
        out
    }

    /// All read events (updates included) as a bitset.
    pub fn reads(&self) -> BitSet {
        BitSet::from_iter(self.ids().filter(|&e| self.events[e].is_read()))
    }

    /// All update events as a bitset.
    pub fn updates(&self) -> BitSet {
        BitSet::from_iter(self.ids().filter(|&e| self.events[e].is_update()))
    }

    /// Write events on variable `x` (`Wr|_x`), in arena order — served by
    /// the per-variable index, no arena scan.
    pub fn writes_to(&self, x: VarId) -> impl Iterator<Item = EventId> + '_ {
        self.writes_by_var
            .get(x.0 as usize)
            .into_iter()
            .flatten()
            .copied()
    }

    /// Events of thread `t`, in arena order (index-served).
    pub fn thread_events(&self, t: ThreadId) -> impl Iterator<Item = EventId> + '_ {
        self.events_by_tid
            .get(t.0 as usize)
            .into_iter()
            .flatten()
            .copied()
    }

    /// The synchronises-with relation `sw = rf ∩ (WrR × RdA)`.
    pub fn sw(&self) -> Relation {
        let mut sw = Relation::new(self.len());
        for (w, r) in self.rf.pairs() {
            if self.events[w].is_release() && self.events[r].is_acquire() {
                sw.add(w, r);
            }
        }
        sw
    }

    /// Happens-before `hb = (sb ∪ sw)⁺` (cached).
    pub fn hb(&self) -> &Relation {
        self.derived
            .hb
            .get_or_init(|| self.sb.union(&self.sw()).transitive_closure())
    }

    /// From-read `fr = (rf⁻¹ ; mo) \ Id` (identity subtracted to cope with
    /// update events, which read and write the same variable).
    pub fn fr(&self) -> Relation {
        self.rf
            .inverse()
            .compose(&self.mo)
            .difference(&Relation::identity(self.len()))
    }

    /// Extended coherence order `eco = (fr ∪ mo ∪ rf)⁺` (cached).
    pub fn eco(&self) -> &Relation {
        self.derived.eco.get_or_init(|| {
            self.fr()
                .union(&self.mo)
                .union(&self.rf)
                .transitive_closure()
        })
    }

    /// The observability reach `eco? ; hb?` of §3.2 (cached): a write `w`
    /// is encountered by thread `t` iff `(w, e)` is in this relation for
    /// one of `t`'s events.
    pub fn eco_hb_reach(&self) -> &Relation {
        self.derived.reach.get_or_init(|| {
            self.eco()
                .reflexive_closure()
                .compose(&self.hb().reflexive_closure())
        })
    }

    /// Clears the derived-relation cache. Called by the arbitrary-mutation
    /// escape hatches; the RA transition paths update the caches in place
    /// through [`C11State::derived_update`] instead.
    fn invalidate(&mut self) {
        self.derived = Derived::default();
    }

    /// Incrementally updates whichever derived-relation caches are
    /// populated after new edges *incident to event `v`* entered the
    /// underlying relations. `eco_new` / `hb_new` are the direct new
    /// `(preds × {v}, {v} × succs)` edge stars of the respective derived
    /// relation (`None` = that relation is unchanged). Populated caches
    /// absorb the star in O(n²/64); absent caches stay absent and are
    /// recomputed from scratch on next access. The `reach` cache is
    /// re-derived from the delta rectangles, or dropped when a dependency
    /// changed without a live cache to compute the delta from.
    fn derived_update(
        &mut self,
        v: EventId,
        eco_new: Option<(BitSet, BitSet)>,
        hb_new: Option<(BitSet, BitSet)>,
    ) {
        // Any change to the underlying relations invalidates the cached
        // canonical fingerprint (every caller mutated `self` just before).
        self.derived.fp.take();
        let n = self.len();
        let hb_changed = hb_new.is_some();
        let eco_changed = eco_new.is_some();
        let hb_rect = hb_new.and_then(|(p, s)| {
            self.derived.hb.get_mut().map(|hb| {
                hb.grow(n);
                hb.absorb_star(v, &p, &s)
            })
        });
        let eco_rect = eco_new.and_then(|(p, s)| {
            self.derived.eco.get_mut().map(|eco| {
                eco.grow(n);
                eco.absorb_star(v, &p, &s)
            })
        });
        // reach = eco? ; hb? — propagating the deltas needs both
        // dependency caches live and every change's rectangle known.
        let delta_lost = (hb_changed && hb_rect.is_none()) || (eco_changed && eco_rect.is_none());
        let deps_live = self.derived.hb.get().is_some() && self.derived.eco.get().is_some();
        if delta_lost || !deps_live {
            self.derived.reach.take();
            return;
        }
        let Some(mut reach) = self.derived.reach.take() else {
            return;
        };
        reach.grow(n);
        let hb = self.derived.hb.get().expect("checked live");
        let eco = self.derived.eco.get().expect("checked live");
        // Every new eco pair lies in (pe ∪ {v}) × (se ∪ {v}); compose it
        // with hb? on the right: each new source reaches hb?[se ∪ {v}].
        if let Some((pe, se)) = eco_rect {
            let mut se_plus = se;
            se_plus.insert(v);
            let mut b1 = hb.image_set(&se_plus);
            b1.union_with(&se_plus);
            let mut pe_plus = pe;
            pe_plus.insert(v);
            for p in pe_plus.iter() {
                reach.union_into_row(p, &b1);
            }
        }
        // Every new hb pair lies in (ph ∪ {v}) × (sh ∪ {v}); compose with
        // eco? on the left: every eco?-predecessor of a new source reaches
        // the new targets.
        if let Some((ph, sh)) = hb_rect {
            let mut ph_plus = ph;
            ph_plus.insert(v);
            let mut a2 = eco.preimage_set(&ph_plus);
            a2.union_with(&ph_plus);
            let mut sh_plus = sh;
            sh_plus.insert(v);
            for x in a2.iter() {
                reach.union_into_row(x, &sh_plus);
            }
        }
        let _ = self.derived.reach.set(reach);
    }

    /// `σ.last(x)`: the write or update to `x` not mo-succeeded by another
    /// write to `x`. Unique and well-defined in every valid state; in a
    /// malformed state the lowest-id mo-maximal write is returned. Only
    /// the per-variable write list is consulted, not the whole arena.
    pub fn last(&self, x: VarId) -> Option<EventId> {
        let ws = self.writes_by_var.get(x.0 as usize)?;
        ws.iter()
            .copied()
            .find(|&w| !ws.iter().any(|&w2| self.mo.contains(w, w2)))
    }

    /// Adds event `e` to the state, producing `(D, sb) + e`:
    /// `sb` gains edges from every event of `e`'s thread and of the
    /// initialising thread. Returns the new event's id. `rf` / `mo` updates
    /// are the transition rules' business (`crate::semantics`).
    ///
    /// Populated derived-relation caches are carried over and updated
    /// incrementally: the new `sb` edges all point *into* the fresh sink
    /// `e`, so `hb` absorbs one star and `eco` is untouched. A populated
    /// fingerprint fold absorbs `e` and its `sb` edges.
    pub fn append_event(&self, ev: Event) -> (C11State, EventId) {
        let mut next = self.clone();
        let e = next.events.len();
        next.events.push(ev);
        next.sb.grow(e + 1);
        next.rf.grow(e + 1);
        next.mo.grow(e + 1);
        let mut sb_preds = BitSet::with_capacity(e + 1);
        for e2 in 0..e {
            let t2 = next.events[e2].tid;
            if t2 == ev.tid || t2.is_init() {
                next.sb.add(e2, e);
                sb_preds.insert(e2);
            }
        }
        next.index_event(e);
        if let Some(mut fold) = next.derived.fold.get().copied() {
            let at = next.coord_of(e);
            fold.absorb_event(at, &ev);
            for p in sb_preds.iter() {
                fold.sb.absorb(next.coord_of(p), at);
            }
            next.derived.fold = OnceLock::from(fold);
        }
        next.derived_update(e, None, Some((sb_preds, BitSet::new())));
        (next, e)
    }

    /// Adds the reads-from edge `(w, e)` — the R͟E͟A͟D͟ / R͟M͟W͟ rules' `rf`
    /// update — maintaining the derived-relation caches incrementally:
    /// `eco` gains the `rf` edge plus the induced from-read edges
    /// `{e} × mo[w]`, and `hb` gains the synchronises-with edge when the
    /// pair is release/acquire. All of these are incident to `e`. A
    /// populated fingerprint fold absorbs the edge if it is new.
    pub fn rf_add(&mut self, w: EventId, e: EventId) {
        if !self.rf.contains(w, e) {
            self.fold_edge(|f| &mut f.rf, w, e);
        }
        self.rf.add(w, e);
        let mut preds = BitSet::with_capacity(self.len());
        preds.insert(w);
        let mut succs = BitSet::with_capacity(self.len());
        for m in self.mo.image(w) {
            if m != e {
                succs.insert(m);
            }
        }
        let hb_new = (self.events[w].is_release() && self.events[e].is_acquire()).then(|| {
            let mut p = BitSet::with_capacity(self.len());
            p.insert(w);
            (p, BitSet::new())
        });
        self.derived_update(e, Some((preds, succs)), hb_new);
    }

    /// Mutable access to `rf`. Low-level: the axiomatic crate's execution
    /// builders use this; arbitrary edits can produce invalid states
    /// (which is exactly what the axiom tests want). Drops the derived
    /// caches — the transition rules use [`C11State::rf_add`] /
    /// [`C11State::mo_insert_after`], which keep them.
    pub fn rf_mut(&mut self) -> &mut Relation {
        self.invalidate();
        &mut self.rf
    }

    /// Mutable access to `mo`. See [`C11State::rf_mut`] for the caveat.
    pub fn mo_mut(&mut self) -> &mut Relation {
        self.invalidate();
        &mut self.mo
    }

    /// Inserts write `e` *directly after* write `w` in `mo` (paper
    /// `mo[w, e] = mo ∪ (mo⁺w × {e}) ∪ ({e} × mo[w])`, where
    /// `mo⁺w = {w} ∪ mo⁻¹[w]`).
    ///
    /// Derived caches are updated in place: the new `mo` edges and the
    /// from-read edges they induce (readers of `e`'s new `mo`-predecessors
    /// now read-before `e`) are all incident to `e`. The one shape that
    /// is not — `e` already having readers of its own — falls back to
    /// invalidation (it never arises in the transition rules, where `e`
    /// is freshly appended). A populated fingerprint fold absorbs each
    /// `mo` edge that was not already present.
    pub fn mo_insert_after(&mut self, w: EventId, e: EventId) {
        let before: Vec<EventId> = std::iter::once(w)
            .chain(self.mo.preimage(w).collect::<Vec<_>>())
            .collect();
        let after: Vec<EventId> = self.mo.image(w).collect();
        for &b in &before {
            if !self.mo.contains(b, e) {
                self.fold_edge(|f| &mut f.mo, b, e);
                self.mo.add(b, e);
            }
        }
        for &a in &after {
            if !self.mo.contains(e, a) {
                self.fold_edge(|f| &mut f.mo, e, a);
                self.mo.add(e, a);
            }
        }
        if self.rf.image(e).next().is_some() {
            self.invalidate();
            return;
        }
        let mut preds = BitSet::with_capacity(self.len());
        let mut succs = BitSet::with_capacity(self.len());
        for &b in &before {
            preds.insert(b);
            // New from-read edges: every read of `b` is now fr-before `e`.
            for r in self.rf.image(b) {
                if r != e {
                    preds.insert(r);
                }
            }
        }
        for &a in &after {
            if a != e {
                succs.insert(a);
            }
        }
        self.derived_update(e, Some((preds, succs)), None);
    }

    /// Restriction `σ|_E` of the state to an event subset, *relabelling*
    /// events compactly (used by the completeness theorem's prefix states).
    /// The kept events preserve their relative arena order.
    pub fn restrict(&self, keep: &BitSet) -> C11State {
        let kept: Vec<EventId> = self.ids().filter(|e| keep.contains(*e)).collect();
        let mut renumber = vec![usize::MAX; self.len()];
        for (new, &old) in kept.iter().enumerate() {
            renumber[old] = new;
        }
        let events = kept.iter().map(|&e| self.events[e]).collect();
        let map_rel = |r: &Relation| {
            let mut out = Relation::new(kept.len());
            for (a, b) in r.pairs() {
                if keep.contains(a) && keep.contains(b) {
                    out.add(renumber[a], renumber[b]);
                }
            }
            out
        };
        let mut out = C11State {
            events,
            sb: map_rel(&self.sb),
            rf: map_rel(&self.rf),
            mo: map_rel(&self.mo),
            writes_by_var: Vec::new(),
            events_by_tid: Vec::new(),
            derived: Derived::default(),
        };
        out.rebuild_index();
        out
    }

    /// A canonical fingerprint of the state, invariant under the order in
    /// which *independent* events entered the arena: events are renumbered
    /// by `(tid, position within the thread)` — well-defined because
    /// `sb|_t` is total and the arena preserves per-thread order — and the
    /// relations are permuted accordingly. Two states reached by different
    /// interleavings of the same execution share a fingerprint.
    pub fn canonical(&self) -> CanonicalState {
        let mut order: Vec<EventId> = self.ids().collect();
        order.sort_by_key(|&e| (self.events[e].tid, e));
        // perm[old] = new
        let mut perm = vec![0usize; self.len()];
        for (new, &old) in order.iter().enumerate() {
            perm[old] = new;
        }
        let events: Vec<Event> = order.iter().map(|&e| self.events[e]).collect();
        let edges = |r: &Relation| -> Vec<(u32, u32)> {
            let mut v: Vec<(u32, u32)> = r
                .pairs()
                .map(|(a, b)| (perm[a] as u32, perm[b] as u32))
                .collect();
            v.sort_unstable();
            v
        };
        CanonicalState {
            events,
            sb: edges(&self.sb),
            rf: edges(&self.rf),
            mo: edges(&self.mo),
        }
    }

    /// A 128-bit canonical fingerprint, invariant under the order in
    /// which independent events entered the arena, like
    /// [`C11State::canonical`]. Every event is named by its coordinate
    /// `(tid, index within its thread)`, well-defined because `sb|_t` is
    /// total and the arena preserves per-thread order. The state hashes
    /// to four order-insensitive folds ([`SetFold`]): one record per
    /// event (coordinate and action) and one per `sb`, `rf` and `mo` edge
    /// (the coordinates of its ends). No sorting and no per-state edge
    /// vectors are needed. Two states with equal [`CanonicalState`]s get
    /// equal fingerprints; the converse holds up to 128-bit hash
    /// collisions (see [`crate::fingerprint`] for the collision stance).
    ///
    /// Cached per state: τ-successors share the parent's memory state
    /// (structurally, behind an `Arc`), so every silent step's dedup
    /// fingerprint after the first is a load. The folds are cached too,
    /// and an appended event never moves another event's coordinate, so
    /// the transition rules ([`C11State::append_event`],
    /// [`C11State::rf_add`], [`C11State::mo_insert_after`]) absorb only
    /// the records they add: a successor of a fingerprinted state pays
    /// for its new event and edges, not for the whole state. The
    /// arbitrary-mutation escape hatches drop both caches.
    pub fn fingerprint(&self) -> u128 {
        *self.derived.fp.get_or_init(|| {
            let fold = self.derived.fold.get_or_init(|| self.fold_with(None));
            debug_assert_eq!(
                *fold,
                self.fold_with(None),
                "incrementally maintained fingerprint fold diverged"
            );
            fold.digest(self.len())
        })
    }

    /// The fingerprint of this state *relabelled* by a thread
    /// permutation: `map[old_tid] = new_tid` (`map[0] = 0`; injective
    /// over the tids that occur). Equals the fingerprint of the state
    /// with every event's tid rewritten through `map`: a rename keeps
    /// each thread's events in order, so it only renames coordinates.
    /// The identity map returns the cached fingerprint; any other map is
    /// folded from scratch and not cached, since symmetry
    /// canonicalisation probes many relabellings per state.
    pub fn fingerprint_relabelled(&self, map: &[u8]) -> u128 {
        if map.iter().enumerate().all(|(i, &t)| t as usize == i) {
            return self.fingerprint();
        }
        self.fold_with(Some(map)).digest(self.len())
    }

    /// The folds of [`C11State::fingerprint`], from scratch, with every
    /// tid rewritten through `map` when one is given.
    fn fold_with(&self, map: Option<&[u8]>) -> Fold {
        let n = self.len();
        let mut stack = [0u64; 128];
        let mut heap = Vec::new();
        let coords: &mut [u64] = if n <= 128 {
            &mut stack[..n]
        } else {
            heap.resize(n, 0);
            &mut heap[..]
        };
        let mut fold = Fold::default();
        for (t, thread) in self.events_by_tid.iter().enumerate() {
            let tid = map.map_or(t as u8, |m| m[t]);
            for (index, &e) in thread.iter().enumerate() {
                coords[e] = coord(tid, index);
                fold.absorb_event(coords[e], &self.events[e]);
            }
        }
        for (a, b) in self.sb.pairs() {
            fold.sb.absorb(coords[a], coords[b]);
        }
        for (a, b) in self.rf.pairs() {
            fold.rf.absorb(coords[a], coords[b]);
        }
        for (a, b) in self.mo.pairs() {
            fold.mo.absorb(coords[a], coords[b]);
        }
        fold
    }

    /// The coordinate of event `e` (see [`Fold`]).
    fn coord_of(&self, e: EventId) -> u64 {
        let tid = self.events[e].tid;
        let index = self.events_by_tid[tid.0 as usize]
            .binary_search(&e)
            .expect("every event is indexed under its thread");
        coord(tid.0, index)
    }

    /// Absorbs the new edge `(a, b)` into the fold `rel` picks, if the
    /// folds are populated. The caller checks that the edge is new.
    fn fold_edge(&mut self, rel: fn(&mut Fold) -> &mut SetFold, a: EventId, b: EventId) {
        if let Some(mut fold) = self.derived.fold.get().copied() {
            rel(&mut fold).absorb(self.coord_of(a), self.coord_of(b));
            self.derived.fold = OnceLock::from(fold);
        }
    }

    /// A thread-naming-independent digest of what thread `t` has done:
    /// an order-*sensitive* fold over `t`'s events in arena order
    /// (= `sb|_t` order), mixing each event's kind, variable, values and
    /// — for writes — its rank in `mo` on its variable. Equal keys for
    /// threads whose histories are interchangeable under a thread
    /// rename; used by symmetry canonicalisation to sort the members of
    /// a symmetry class before probing relabellings.
    pub fn thread_obs_key(&self, t: ThreadId) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |w: u64| {
            h = (h ^ w).wrapping_mul(0x100000001b3).rotate_left(29);
        };
        for e in self.thread_events(t) {
            let ev = &self.events[e];
            let (kind, var, a, b) = match ev.action {
                c11_lang::Action::Rd { var, val, acquire } => {
                    (1u64, var.0, val as u64, acquire as u64)
                }
                c11_lang::Action::Wr { var, val, release } => {
                    (2u64, var.0, val as u64, release as u64)
                }
                c11_lang::Action::Upd { var, old, new } => (3u64, var.0, old as u64, new as u64),
            };
            mix(kind << 32 | (var as u64));
            mix(a.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
                ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(39));
            if kind != 1 {
                // Write/update: its mo-rank on the variable is part of
                // the observable history and independent of thread names.
                mix(0x6d0_u64 << 48 | self.mo.preimage(e).count() as u64);
            }
        }
        h
    }

    /// Pretty, multi-line rendering with variable names.
    pub fn render(&self, var_names: &[String]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let name = |v: VarId| -> &str {
            var_names
                .get(v.0 as usize)
                .map(|s| s.as_str())
                .unwrap_or("?")
        };
        for (i, ev) in self.events.iter().enumerate() {
            let _ = writeln!(
                out,
                "  e{i}: {:?} {:?} on {}",
                ev.tid,
                ev.action,
                name(ev.var())
            );
        }
        let _ = writeln!(out, "  rf: {:?}", self.rf.pairs().collect::<Vec<_>>());
        let _ = writeln!(out, "  mo: {:?}", self.mo.pairs().collect::<Vec<_>>());
        out
    }
}

impl std::fmt::Debug for C11State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("C11State")
            .field("events", &self.events)
            .field("sb", &self.sb)
            .field("rf", &self.rf)
            .field("mo", &self.mo)
            .finish()
    }
}

/// Canonical, interleaving-insensitive form of a state. See
/// [`C11State::canonical`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CanonicalState {
    /// Events sorted by `(tid, per-thread order)`.
    pub events: Vec<Event>,
    /// Renumbered, sorted edge lists.
    pub sb: Vec<(u32, u32)>,
    /// Renumbered, sorted edge lists.
    pub rf: Vec<(u32, u32)>,
    /// Renumbered, sorted edge lists.
    pub mo: Vec<(u32, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11_lang::Action;

    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);

    fn wr(var: VarId, val: Val) -> Action {
        Action::Wr {
            var,
            val,
            release: false,
        }
    }

    fn rd(var: VarId, val: Val) -> Action {
        Action::Rd {
            var,
            val,
            acquire: false,
        }
    }

    #[test]
    fn initial_state_has_one_init_write_per_var() {
        let s = C11State::initial(&[0, 9]);
        assert_eq!(s.len(), 2);
        assert!(s.events().iter().all(Event::is_init));
        assert_eq!(s.event(0).var(), X);
        assert_eq!(s.event(1).wrval(), Some(9));
        assert!(s.sb().is_empty());
        // Initialising writes are unordered amongst themselves (Ex. 3.2).
        assert_eq!(s.last(X), Some(0));
        assert_eq!(s.last(Y), Some(1));
    }

    #[test]
    fn append_orders_after_init_and_own_thread() {
        let s = C11State::initial(&[0]);
        let (s1, e1) = s.append_event(Event::new(ThreadId(1), wr(X, 1)));
        let (s2, e2) = s1.append_event(Event::new(ThreadId(2), wr(X, 2)));
        let (s3, e3) = s2.append_event(Event::new(ThreadId(1), rd(X, 1)));
        // init → everything
        assert!(s3.sb().contains(0, e1) && s3.sb().contains(0, e2) && s3.sb().contains(0, e3));
        // same-thread order
        assert!(s3.sb().contains(e1, e3));
        // no cross-thread sb
        assert!(!s3.sb().contains(e1, e2) && !s3.sb().contains(e2, e3));
    }

    #[test]
    fn sw_requires_release_and_acquire() {
        let s = C11State::initial(&[0]);
        let (s, w_rel) = s.append_event(Event::new(
            ThreadId(1),
            Action::Wr {
                var: X,
                val: 1,
                release: true,
            },
        ));
        let (s, r_rlx) = s.append_event(Event::new(ThreadId(2), rd(X, 1)));
        let (mut s, r_acq) = s.append_event(Event::new(
            ThreadId(3),
            Action::Rd {
                var: X,
                val: 1,
                acquire: true,
            },
        ));
        s.rf_mut().add(w_rel, r_rlx);
        s.rf_mut().add(w_rel, r_acq);
        let sw = s.sw();
        assert!(!sw.contains(w_rel, r_rlx)); // relaxed read: no sw
        assert!(sw.contains(w_rel, r_acq)); // release → acquire: sw
                                            // hb includes the sw edge transitively with sb.
        assert!(s.hb().contains(0, r_acq));
        assert!(s.hb().contains(w_rel, r_acq));
    }

    #[test]
    fn fr_subtracts_identity_for_updates() {
        // u reads from w0 and is mo-after w0: rf⁻¹;mo contains (u, u).
        let s = C11State::initial(&[0]);
        let (mut s, u) = s.append_event(Event::new(
            ThreadId(1),
            Action::Upd {
                var: X,
                old: 0,
                new: 5,
            },
        ));
        s.rf_mut().add(0, u);
        s.mo_mut().add(0, u);
        let fr = s.fr();
        assert!(!fr.contains(u, u), "fr must be irreflexive for updates");
    }

    #[test]
    fn eco_shape_of_example_3_3() {
        // w1 →mo w2, reads r1 r1' of w1: fr edges to w2, eco transitive.
        let s = C11State::initial(&[0]); // event 0 = w1 (init write of x)
        let (s, w2) = s.append_event(Event::new(ThreadId(1), wr(X, 2)));
        let (s, r1) = s.append_event(Event::new(ThreadId(2), rd(X, 0)));
        let (mut s, r1b) = s.append_event(Event::new(ThreadId(3), rd(X, 0)));
        s.mo_mut().add(0, w2);
        s.rf_mut().add(0, r1);
        s.rf_mut().add(0, r1b);
        let eco = s.eco();
        // rf, mo, and fr = reads-before edges all present:
        assert!(eco.contains(0, r1) && eco.contains(0, w2));
        assert!(eco.contains(r1, w2) && eco.contains(r1b, w2), "fr edges");
        // reads of the same write are not eco-related to each other
        assert!(!eco.contains(r1, r1b) && !eco.contains(r1b, r1));
    }

    #[test]
    fn mo_insert_after_places_event_in_the_middle() {
        // mo: w0 → w1 → w2; insert e after w1 ⇒ w0,w1 before e; e before w2.
        let s = C11State::initial(&[0]);
        let (s, w1) = s.append_event(Event::new(ThreadId(1), wr(X, 1)));
        let (s, w2) = s.append_event(Event::new(ThreadId(1), wr(X, 2)));
        let (mut s, e) = s.append_event(Event::new(ThreadId(2), wr(X, 9)));
        s.mo_mut().add(0, w1);
        s.mo_mut().add(0, w2);
        s.mo_mut().add(w1, w2);
        s.mo_insert_after(w1, e);
        assert!(s.mo().contains(0, e) && s.mo().contains(w1, e));
        assert!(s.mo().contains(e, w2));
        assert!(!s.mo().contains(w2, e));
        // mo|x stays a strict total order on writes to x.
        assert!(s.mo().is_strict_total_order_on(&s.writes()));
    }

    #[test]
    fn last_is_mo_maximal() {
        let s = C11State::initial(&[0]);
        let (s, w1) = s.append_event(Event::new(ThreadId(1), wr(X, 1)));
        let (mut s, w2) = s.append_event(Event::new(ThreadId(1), wr(X, 2)));
        s.mo_mut().add(0, w1);
        s.mo_mut().add(0, w2);
        s.mo_mut().add(w1, w2);
        assert_eq!(s.last(X), Some(w2));
    }

    #[test]
    fn restrict_relabels_compactly() {
        let s = C11State::initial(&[0]);
        let (s, w1) = s.append_event(Event::new(ThreadId(1), wr(X, 1)));
        let (mut s, r) = s.append_event(Event::new(ThreadId(2), rd(X, 1)));
        s.rf_mut().add(w1, r);
        s.mo_mut().add(0, w1);
        // Keep init + w1 only.
        let keep = BitSet::from_iter([0, w1]);
        let small = s.restrict(&keep);
        assert_eq!(small.len(), 2);
        assert!(small.mo().contains(0, 1));
        assert!(small.rf().is_empty());
    }

    #[test]
    fn canonical_is_interleaving_insensitive() {
        // The same two independent writes (t1: x:=1, t2: y:=2), appended in
        // both interleavings, produce the same canonical form.
        let build = |t1_first: bool| {
            let s = C11State::initial(&[0, 0]);
            let e1 = Event::new(ThreadId(1), wr(X, 1));
            let e2 = Event::new(ThreadId(2), wr(Y, 2));
            let (first, second) = if t1_first { (e1, e2) } else { (e2, e1) };
            let (s, a) = s.append_event(first);
            let (mut s, b) = s.append_event(second);
            let (x_w, y_w) = if t1_first { (a, b) } else { (b, a) };
            s.mo_mut().add(0, x_w);
            s.mo_mut().add(1, y_w);
            s.canonical()
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn fingerprint_distinguishes_wide_update_values() {
        // Regression: an update's u32 values must not be packed into the
        // 8-bit slots of the event record — Upd{var:1, new:0} and
        // Upd{var:0, new:256} would alias (1 << 8 == 256).
        let build = |var: VarId, new: Val| {
            let s = C11State::initial(&[0, 0]);
            let (s, _) = s.append_event(Event::new(ThreadId(1), Action::Upd { var, old: 5, new }));
            s
        };
        let a = build(VarId(1), 0);
        let b = build(VarId(0), 256);
        assert_ne!(a.canonical(), b.canonical());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // tid field vs value bleed (65536 == 1 << 16).
        let c = build(VarId(0), 65536);
        assert_ne!(build(VarId(0), 0).fingerprint(), c.fingerprint());
    }

    #[test]
    fn canonical_distinguishes_different_rf() {
        let build = |val: Val| {
            let s = C11State::initial(&[0]);
            let (s, w) = s.append_event(Event::new(ThreadId(1), wr(X, 1)));
            let (mut s, r) = s.append_event(Event::new(ThreadId(2), rd(X, val)));
            if val == 1 {
                s.rf_mut().add(w, r);
            } else {
                s.rf_mut().add(0, r);
            }
            s.mo_mut().add(0, w);
            s.canonical()
        };
        assert_ne!(build(0), build(1));
    }
}
