//! Sleep-set dynamic partial-order reduction — a successor filter in
//! the sequential engine.
//!
//! The sequential BFS already collapses *states* reached by different
//! interleavings of the same execution (the canonical fingerprint of
//! `c11_core::state` is interleaving-insensitive), but it still pays for
//! every redundant *transition*: from each state it generates every
//! thread's successors, only to have dedup throw most of them away. The
//! sleep-set filter prunes those transitions up front: after exploring
//! thread `t` from a state, every later sibling step *independent* of
//! `t` carries `t` asleep into its successor — the commuted order would
//! only re-derive a state the `t`-first order already produces.
//!
//! The filter is not an engine of its own. [`crate::explore_dpor`] runs
//! the one breadth-first loop in [`crate::engine`] with a sleep mask on
//! every queue entry; at expansion the loop asks this module's helpers
//! which threads the successors may put to sleep. Dedup stays keyed by
//! the same 128-bit configuration fingerprints, and is always on.
//!
//! ## The contract: every state, fewer transitions
//!
//! Sleep sets (without persistent/source sets) prune **transitions,
//! never states**: the reduced search still generates *exactly* the
//! unreduced state set, so `unique`, the finals multiset, litmus
//! verdicts, invariant violations and the truncation flag all coincide
//! with the reference run — the property the api crate's
//! backend-agnostic result cache relies on (reports are cached without
//! the engine in the key). Only `generated` (and wall time) shrink.
//! Source-set DPOR ([`crate::source`]) prunes harder but loses
//! intermediate states, so it runs under the separate finals-only
//! contract.
//!
//! The one bound outside the contract is the `max_states` safety cap:
//! it cuts the search after a fixed *number* of states, and since the
//! filter expands τ steps first, a cap-truncated run keeps a different
//! prefix (the parallel engine has the same caveat — worker scheduling
//! decides its prefix). Both runs still report `truncated = true`; the
//! event and depth bounds are per-state properties and stay exactly
//! equal.
//!
//! ## One-level sleep sets, no wake-ups
//!
//! This is the *non-inherited* variant: a successor's sleep set contains
//! only threads explored before the stepping thread **at its own
//! parent** — an arriving sleep set is consulted at expansion and then
//! dropped, never merged into grandchildren. The classical stateful
//! variant (Godefroid) inherits sleep sets down the tree and must then
//! re-explore ("wake") threads whenever a visited state is re-reached
//! under a smaller sleep set; on racy programs where most states are
//! reachable from several interleavings, those wake-ups cancel nearly
//! all pruning. The one-level discipline needs no wake-ups at all: each
//! pruned transition `t` at `v(P)` is justified *directly* — `t` was
//! explored at `P` itself, and `v` is (inductively, along parents with
//! strictly earlier first-generation times) explored at `t(P)`, so the
//! commuted target `t(v(P)) = v(t(P))` is always generated. Second
//! arrivals at visited states are plain dedup rejects.
//!
//! ## Independence and races
//!
//! Two cross-thread steps are independent when they commute exactly and
//! neither changes the other's enabled transitions:
//!
//! * a τ step is independent of every other-thread step (it touches only
//!   its own thread's residual command and registers);
//! * two action steps are delegated to
//!   [`MemoryModel::actions_independent`] — the shipped models use the
//!   variable-footprint race rule of `c11_core::model::shapes_race`
//!   (same variable and at least one write ⇒ dependent); models without
//!   an oracle default to "always dependent", degenerating to the plain
//!   BFS (sound, no reduction).
//!
//! One extra guard makes sleeping safe under the `max_events` bound: a
//! step may only be put to sleep by a step that grows the memory state
//! at least as much (τ never sleeps an action). Otherwise the covering
//! path through the action-first order could be cut by the event bound
//! while the τ-first state survives it, losing a state that the
//! unreduced search (which bound-checks at expansion, not generation)
//! still reports.

use c11_core::model::MemoryModel;
use c11_lang::step::StepShape;
use c11_lang::ThreadId;

/// Sleep sets are thread-id bitmasks (bit `i` = thread `i + 1`). Programs
/// wider than 64 threads get an always-empty mask: no reduction, still
/// sound.
pub(crate) type SleepMask = u64;

/// The mask bit of thread index `t`; 0 past the mask width (so the
/// >64-thread fallback never evaluates an overflowing shift).
pub(crate) fn bit(t: usize) -> SleepMask {
    if t < SleepMask::BITS as usize {
        1 << t
    } else {
        0
    }
}

/// How much a step grows the memory state: 0 for τ, 1 for actions. The
/// event-bound guard compares these (see the module docs).
fn growth(shape: &StepShape) -> u8 {
    match shape {
        StepShape::Tau => 0,
        StepShape::Act(_) => 1,
    }
}

/// May thread `u`'s enabled step be put to sleep across thread `t`'s
/// step? — the per-state race check: independence (τ is free; actions go
/// to the model's oracle) plus the event-growth guard.
fn can_sleep<M: MemoryModel>(
    model: &M,
    mem: &M::State,
    shapes: &[Option<StepShape>],
    u: usize,
    t: usize,
) -> bool {
    let (Some(su), Some(st)) = (&shapes[u], &shapes[t]) else {
        return false;
    };
    if growth(su) > growth(st) {
        return false;
    }
    match (su, st) {
        (StepShape::Tau, _) | (_, StepShape::Tau) => true,
        (StepShape::Act(a), StepShape::Act(b)) => {
            model.actions_independent(mem, (ThreadId(u as u8 + 1), a), (ThreadId(t as u8 + 1), b))
        }
    }
}

/// The sleep set carried to the successor reached by thread `t`: every
/// sibling already explored at this state that may sleep across `t`.
pub(crate) fn successor_sleep<M: MemoryModel>(
    model: &M,
    mem: &M::State,
    shapes: &[Option<StepShape>],
    explored: SleepMask,
    t: usize,
) -> SleepMask {
    let mut out = 0;
    let mut rest = explored;
    while rest != 0 {
        let u = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if can_sleep(model, mem, shapes, u, t) {
            out |= 1 << u;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{explore_dpor, explore_dpor_invariant, ExploreConfig, Explorer};
    use c11_core::config::Config;
    use c11_core::model::{RaModel, ScModel};
    use c11_lang::{parse_program, ActionShape, VarId};

    /// Race detection on a hand-built two-thread state: t1 about to write
    /// x, t2 about to read y — independent; same variable — dependent.
    #[test]
    fn race_detection_on_hand_built_state() {
        let prog = parse_program(
            "vars x y;
             thread t1 { x := 1; }
             thread t2 { r0 <- y; }",
        )
        .unwrap();
        let cfg = Config::initial(&RaModel, &prog);
        let shapes: Vec<Option<StepShape>> =
            cfg.thread_ids().map(|t| cfg.step_shape_of(t)).collect();
        assert!(matches!(
            shapes[0],
            Some(StepShape::Act(ActionShape::Write { var: VarId(0), .. }))
        ));
        assert!(matches!(
            shapes[1],
            Some(StepShape::Act(ActionShape::Read { var: VarId(1), .. }))
        ));
        // Disjoint variables: each may sleep across the other.
        assert!(can_sleep(&RaModel, &cfg.mem, &shapes, 0, 1));
        assert!(can_sleep(&RaModel, &cfg.mem, &shapes, 1, 0));

        let contended = parse_program(
            "vars x;
             thread t1 { x := 1; }
             thread t2 { r0 <- x; }",
        )
        .unwrap();
        let cfg = Config::initial(&RaModel, &contended);
        let shapes: Vec<Option<StepShape>> =
            cfg.thread_ids().map(|t| cfg.step_shape_of(t)).collect();
        // Write/read of the same variable race: no sleeping either way.
        assert!(!can_sleep(&RaModel, &cfg.mem, &shapes, 0, 1));
        assert!(!can_sleep(&RaModel, &cfg.mem, &shapes, 1, 0));
    }

    /// The event-growth guard: a τ may sleep across an action, never the
    /// other way around (and τ/τ is fine).
    #[test]
    fn tau_sleeps_across_actions_but_not_conversely() {
        // After its write, t1's next step is the skip-consumption τ.
        let prog = parse_program(
            "vars x y;
             thread t1 { x := 1; x := 2; }
             thread t2 { y := 1; }",
        )
        .unwrap();
        let cfg = Config::initial(&RaModel, &prog);
        let after_w1 = cfg
            .successors_of(&RaModel, ThreadId(1))
            .into_iter()
            .next()
            .unwrap()
            .next;
        let shapes: Vec<Option<StepShape>> = after_w1
            .thread_ids()
            .map(|t| after_w1.step_shape_of(t))
            .collect();
        assert!(matches!(shapes[0], Some(StepShape::Tau)));
        assert!(matches!(shapes[1], Some(StepShape::Act(_))));
        assert!(can_sleep(&RaModel, &after_w1.mem, &shapes, 0, 1), "τ ← act");
        assert!(
            !can_sleep(&RaModel, &after_w1.mem, &shapes, 1, 0),
            "act ← τ is forbidden by the growth guard"
        );
        assert!(can_sleep(&RaModel, &after_w1.mem, &shapes, 0, 0), "τ ← τ");
    }

    /// Sleep-set bookkeeping end to end on the two-thread disjoint-writer
    /// shape: all states are kept, generated transitions shrink.
    #[test]
    fn sleep_sets_prune_transitions_never_states() {
        let src = "vars x y;
             thread t1 { x := 1; x := 2; }
             thread t2 { y := 1; y := 2; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default();
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        let dpor = explore_dpor(&RaModel, &prog, &cfg);
        assert_eq!(dpor.unique, seq.unique, "every state is still visited");
        assert_eq!(dpor.truncated, seq.truncated);
        assert_eq!(dpor.stuck, seq.stuck);
        let mut a = seq.final_snapshots();
        let mut b = dpor.final_snapshots();
        a.sort();
        b.sort();
        assert_eq!(a, b, "finals multiset identical");
        assert!(
            dpor.generated < seq.generated,
            "independent writers must let siblings sleep ({} vs {})",
            dpor.generated,
            seq.generated
        );
    }

    /// Fully contended programs still shed the τ/action commutations.
    #[test]
    fn contended_writers_still_reduce_via_tau_sleeping() {
        let src = "vars x;
             thread t1 { x := 1; x := 2; }
             thread t2 { x := 3; x := 4; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default();
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        let dpor = explore_dpor(&RaModel, &prog, &cfg);
        assert_eq!(dpor.unique, seq.unique);
        let mut a = seq.final_snapshots();
        let mut b = dpor.final_snapshots();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(
            dpor.generated < seq.generated,
            "τ steps must sleep across the contended writes ({} vs {})",
            dpor.generated,
            seq.generated
        );
    }

    #[test]
    fn successor_sleep_filters_by_independence() {
        let prog = parse_program(
            "vars x y z;
             thread t1 { x := 1; }
             thread t2 { y := 1; }
             thread t3 { z := 1; r0 <- y; }",
        )
        .unwrap();
        let cfg = Config::initial(&RaModel, &prog);
        let shapes: Vec<Option<StepShape>> =
            cfg.thread_ids().map(|t| cfg.step_shape_of(t)).collect();
        // t1 and t2 both explored; stepping t3 (write z) sleeps both.
        assert_eq!(
            successor_sleep(&RaModel, &cfg.mem, &shapes, 0b011, 2),
            0b011
        );
        // Advance t3 to its read of y: an explored t2 (write y) races it.
        let mut c = cfg
            .successors_of(&RaModel, ThreadId(3))
            .into_iter()
            .next()
            .unwrap()
            .next;
        while matches!(c.step_shape_of(ThreadId(3)), Some(StepShape::Tau)) {
            c = c.successors_of(&RaModel, ThreadId(3)).remove(0).next;
        }
        let shapes: Vec<Option<StepShape>> = c.thread_ids().map(|t| c.step_shape_of(t)).collect();
        assert!(matches!(
            shapes[2],
            Some(StepShape::Act(ActionShape::Read { var: VarId(1), .. }))
        ));
        assert_eq!(
            successor_sleep(&RaModel, &c.mem, &shapes, 0b011, 2),
            0b001,
            "t2 races the read of y and stays awake; t1 sleeps"
        );
    }

    /// Store-based models ride the same machinery.
    #[test]
    fn sc_model_agrees_with_sequential() {
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default();
        let seq = Explorer::new(ScModel).explore(&prog, cfg.clone());
        let dpor = explore_dpor(&ScModel, &prog, &cfg);
        assert_eq!(dpor.unique, seq.unique);
        let mut a = seq.final_snapshots();
        let mut b = dpor.final_snapshots();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(dpor.generated <= seq.generated);
    }

    /// Truncation by the event bound: the reduced search must report the
    /// same truncation flag and the same surviving finals.
    #[test]
    fn truncation_matches_sequential() {
        let src = "vars x y;
             thread t1 { x := 1; x := 2; }
             thread t2 { y := 1; y := 2; }";
        let prog = parse_program(src).unwrap();
        for bound in [3usize, 4, 5, 6] {
            let cfg = ExploreConfig::default().max_events(bound);
            let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
            let dpor = explore_dpor(&RaModel, &prog, &cfg);
            assert_eq!(dpor.truncated, seq.truncated, "bound {bound}");
            assert_eq!(dpor.unique, seq.unique, "bound {bound}");
            let mut a = seq.final_snapshots();
            let mut b = dpor.final_snapshots();
            a.sort();
            b.sort();
            assert_eq!(a, b, "bound {bound}");
        }
    }

    #[test]
    fn witness_traces_reach_every_final() {
        let src = "vars x y;
             thread t1 { x := 1; }
             thread t2 { y := 1; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default().witness_traces(true);
        let res = explore_dpor(&RaModel, &prog, &cfg);
        assert_eq!(res.final_traces.len(), res.finals.len());
        for t in &res.final_traces {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn invariant_violations_match_sequential() {
        let prog = parse_program("vars x; thread t { x := 1; x := 2; }").unwrap();
        let cfg = ExploreConfig::default();
        let seq =
            Explorer::new(RaModel)
                .explore_invariant(&prog, cfg.clone(), |c: &Config<RaModel>| c.mem.len() < 3);
        let dpor = explore_dpor_invariant(&RaModel, &prog, &cfg, |c| c.mem.len() < 3);
        assert_eq!(dpor.violations.len(), seq.violations.len());
        assert_eq!(dpor.violations[0].1.len(), seq.violations[0].1.len());
    }
}
