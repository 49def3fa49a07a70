//! Property tests for the incremental derived-relation maintenance: after
//! any sequence of transition-shaped mutations (`append_event`, `rf_add`,
//! `mo_insert_after`) performed with *warm* caches, the incrementally
//! updated `hb` / `eco` / `eco? ; hb?` and the incrementally folded
//! fingerprint must equal a from-scratch recomputation on the same
//! `(events, sb, rf, mo)`; relabelled fingerprints must agree with states
//! built under the relabelling.

use c11_core::state::C11State;
use c11_core::Event;
use c11_lang::{Action, ThreadId, VarId};
use proptest::prelude::*;

/// One transition-shaped mutation. The `pick` fields select the observed
/// write among the variable's writes (modulo the current count), mirroring
/// how the RA rules choose an insertion/read point.
#[derive(Clone, Debug)]
enum Op {
    Read {
        tid: u8,
        var: u8,
        pick: u8,
        acquire: bool,
    },
    Write {
        tid: u8,
        var: u8,
        pick: u8,
        release: bool,
    },
    Update {
        tid: u8,
        var: u8,
        pick: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..4, 0u8..2, any::<u8>(), any::<bool>()).prop_map(|(tid, var, pick, acquire)| {
            Op::Read {
                tid,
                var,
                pick,
                acquire,
            }
        }),
        (1u8..4, 0u8..2, any::<u8>(), any::<bool>()).prop_map(|(tid, var, pick, release)| {
            Op::Write {
                tid,
                var,
                pick,
                release,
            }
        }),
        (1u8..4, 0u8..2, any::<u8>()).prop_map(|(tid, var, pick)| Op::Update { tid, var, pick }),
    ]
}

/// The write of `var` selected by `pick` (inits guarantee at least one).
fn pick_write(s: &C11State, var: VarId, pick: u8) -> usize {
    let ws: Vec<usize> = s.writes_to(var).collect();
    ws[pick as usize % ws.len()]
}

/// From-scratch twin: same raw relations, cold caches.
fn recomputed(s: &C11State) -> C11State {
    C11State::from_parts(
        s.events().to_vec(),
        s.sb().clone(),
        s.rf().clone(),
        s.mo().clone(),
    )
}

/// Applies `op` to `s` with its thread renamed through `map`
/// (`map[tid]`), the way the RA rules would.
fn apply(s: &C11State, op: &Op, map: &[u8]) -> C11State {
    match *op {
        Op::Read {
            tid,
            var,
            pick,
            acquire,
        } => {
            let x = VarId(var);
            let w = pick_write(s, x, pick);
            let val = s.event(w).wrval().unwrap();
            let (mut next, e) = s.append_event(Event::new(
                ThreadId(map[tid as usize]),
                Action::Rd {
                    var: x,
                    val,
                    acquire,
                },
            ));
            next.rf_add(w, e);
            next
        }
        Op::Write {
            tid,
            var,
            pick,
            release,
        } => {
            let x = VarId(var);
            let w = pick_write(s, x, pick);
            let (mut next, e) = s.append_event(Event::new(
                ThreadId(map[tid as usize]),
                Action::Wr {
                    var: x,
                    val: 7,
                    release,
                },
            ));
            next.mo_insert_after(w, e);
            next
        }
        Op::Update { tid, var, pick } => {
            let x = VarId(var);
            let w = pick_write(s, x, pick);
            let old = s.event(w).wrval().unwrap();
            let (mut next, e) = s.append_event(Event::new(
                ThreadId(map[tid as usize]),
                Action::Upd {
                    var: x,
                    old,
                    new: 9,
                },
            ));
            next.rf_add(w, e);
            next.mo_insert_after(w, e);
            next
        }
    }
}

/// The identity thread map over tids `0..4`.
const IDENTITY: [u8; 4] = [0, 1, 2, 3];

proptest! {
    #[test]
    fn incremental_derived_relations_match_recomputation(ops in prop::collection::vec(arb_op(), 1..12)) {
        let mut s = C11State::initial(&[0, 0]);
        for op in ops {
            // Warm the caches so the mutations exercise the incremental
            // paths rather than lazy recomputation.
            s.hb();
            s.eco();
            s.eco_hb_reach();
            s = apply(&s, &op, &IDENTITY);
            let fresh = recomputed(&s);
            prop_assert_eq!(s.hb(), fresh.hb(), "hb diverged");
            prop_assert_eq!(s.eco(), fresh.eco(), "eco diverged");
            prop_assert_eq!(s.eco_hb_reach(), fresh.eco_hb_reach(), "reach diverged");
            // The canonical fingerprint agrees with the materialised
            // canonical state on equality.
            prop_assert_eq!(s.fingerprint(), fresh.fingerprint());
        }
    }

    #[test]
    fn incremental_fingerprint_matches_recomputation(ops in prop::collection::vec(arb_op(), 1..12)) {
        let mut s = C11State::initial(&[0, 0]);
        for op in ops {
            // Warm the fold, so the op absorbs its records into it.
            s.fingerprint();
            s = apply(&s, &op, &IDENTITY);
            let fresh = recomputed(&s);
            prop_assert_eq!(s.fingerprint(), fresh.fingerprint(), "fold diverged");
            prop_assert_eq!(
                s.fingerprint_relabelled(&IDENTITY),
                s.fingerprint(),
                "identity relabelling moved the fingerprint"
            );
            // The identity takes a shortcut; a map that only swaps two
            // tids no event carries fixes the state too, and goes through
            // the from-scratch relabelled fold.
            prop_assert_eq!(
                s.fingerprint_relabelled(&[0, 1, 2, 3, 5, 4]),
                s.fingerprint(),
                "a relabelling fixing every event moved the fingerprint"
            );
        }
    }

    #[test]
    fn relabelled_fingerprint_matches_a_state_built_relabelled(
        ops in prop::collection::vec(arb_op(), 1..12),
        swap in prop::sample::select(vec![(1usize, 2usize), (1, 3), (2, 3)]),
    ) {
        let mut map = IDENTITY;
        map.swap(swap.0, swap.1);
        let (mut s, mut twin) = (C11State::initial(&[0, 0]), C11State::initial(&[0, 0]));
        for op in &ops {
            s.fingerprint();
            twin.fingerprint();
            s = apply(&s, op, &IDENTITY);
            twin = apply(&twin, op, &map);
            prop_assert_eq!(s.fingerprint_relabelled(&map), twin.fingerprint());
            prop_assert_eq!(twin.fingerprint_relabelled(&map), s.fingerprint());
        }
    }

    #[test]
    fn fingerprint_agrees_with_canonical_state(ops in prop::collection::vec(arb_op(), 1..8)) {
        // Build two states applying the same per-thread programs in
        // different global interleavings: equal canonical states must
        // yield equal fingerprints.
        let build = |order: &[Op]| {
            let mut s = C11State::initial(&[0, 0]);
            for op in order {
                if let Op::Write { tid, var, release, .. } = *op {
                    let x = VarId(var);
                    let w = s.last(x).unwrap();
                    let (mut next, e) = s.append_event(Event::new(
                        ThreadId(tid),
                        Action::Wr { var: x, val: 7, release },
                    ));
                    next.mo_insert_after(w, e);
                    s = next;
                }
            }
            s
        };
        let writes: Vec<Op> = ops.into_iter().filter(|o| matches!(o, Op::Write { .. })).collect();
        // Stable-partition by thread: a different interleaving of the same
        // per-thread sequences.
        let mut reordered: Vec<Op> = Vec::new();
        for t in 1u8..4 {
            reordered.extend(
                writes
                    .iter()
                    .filter(|o| matches!(o, Op::Write { tid, .. } if *tid == t))
                    .cloned(),
            );
        }
        let a = build(&writes);
        let b = build(&reordered);
        prop_assert_eq!(a.canonical() == b.canonical(), a.fingerprint() == b.fingerprint());
    }
}
