//! Source-set dynamic partial-order reduction — the finals-only engine.
//!
//! The sleep-set filter in [`crate::dpor`] deliberately visits the
//! sequential engine's exact state set and only prunes redundant
//! *transitions* (10–17 % of `generated` on the bench shapes). This
//! engine prunes *states*: it is a stateless depth-first search over
//! execution sequences in the style of source-set DPOR with wakeup
//! sequences (Abdulla, Aronis, Jonsson, Sagonas — "Source Sets: A
//! Foundation for Optimal Dynamic Partial Order Reduction" and its
//! parsimonious follow-up, see PAPERS.md), which explores one maximal
//! execution per Mazurkiewicz trace instead of one expansion per
//! reachable state.
//!
//! ## The finals-only contract
//!
//! Mazurkiewicz-equivalent executions end in the same configuration, so
//! exploring one representative per trace still reaches **every**
//! terminal configuration: the finals multiset (deduplicated by the same
//! 128-bit configuration fingerprint the sequential engine dedups on),
//! the litmus verdicts derived from it, and the truncation flag all
//! match the reference engine. What this engine gives up is the
//! *intermediate* states: `unique` and `generated` are intentionally
//! smaller, and an invariant over transient states may be checked on
//! fewer configurations than the exhaustive engines visit (the api crate
//! therefore routes `Mode::Invariant` requests to the sleep-set filter
//! instead — see `c11_api`). That trade is the `"finals-only"` reduction
//! contract surfaced in the `c11check/v1` schema.
//!
//! ## How the reduction works
//!
//! The search walks one execution at a time, keeping a stack of choice
//! frames:
//!
//! * **τ steps are scheduled eagerly** as singleton ample sets: a τ only
//!   rewrites its own thread's residual command and registers, so it is
//!   independent of every other-thread step and can always be executed
//!   first without branching. A τ whose successor re-creates a
//!   configuration already on the current path (a register-guarded spin
//!   that no other thread can unblock) is cut and the frame falls back
//!   to branching over action threads.
//! * **Action frames start with a single candidate thread.** Races are
//!   detected against the executed path through a vector-clock
//!   happens-before over the action events: when the new event is in a
//!   reversible race with an earlier event `e`, the reversal sequence
//!   `notdep(e, E).p` is inserted as a *wakeup sequence* at the frame
//!   that executed `e` — unless one of the sequence's initial threads is
//!   already scheduled there (the source-set condition). Wakeup
//!   sequences force their tail through descendant frames, which is what
//!   keeps reversed branches from being re-pruned by their sleep sets.
//! * **Sleep sets are inherited** down the stack, filtered through the
//!   same independence oracle and event-growth guard as the sleep-set
//!   engine ([`MemoryModel::actions_independent`]; τ never sleeps an
//!   action). A wakeup sequence whose head is asleep is dropped — the
//!   trace it would re-derive is covered by the branch that put the
//!   thread to sleep.
//!
//! Reads with several observable writes fan out below one thread choice:
//! the value branching is data nondeterminism *within* the event, every
//! branch is explored, and races propagate from each.
//!
//! ## Truncation
//!
//! The event and depth bounds cut a path exactly where the sequential
//! engine would cut the corresponding expansion, and when a cut lands
//! the path's frames are widened so no trace behind the bound is lost.
//! Widening can only repair frames still on the stack, which is enough
//! for thread choices (a slept thread is covered by a sibling subtree
//! that is widened at *its* cut, while it is on the stack) but not for
//! pruned write placements: the race-reversal branch that justified
//! dropping a placement can live in an already-popped subtree and may
//! itself have been cut. So the first time a bound cuts the search, the
//! whole exploration is rerun with placement pruning disabled — bounded
//! runs are small by construction, and untruncated runs (the ones the
//! reduction exists for) never pay the second pass.
//! `truncated` is one-sided, though: if this walk reports `false`,
//! every representative completed inside the bound, so the finals are
//! the complete set — but the sequential engine may still report `true`
//! on the same program, because it also explores τ-late linearisations
//! of completing traces, and one of those can touch the bound with a
//! pending τ even though the τ-eager representative of the same trace
//! terminates inside it. Source-set truncation therefore *implies*
//! sequential truncation, never the reverse. The `max_states` safety
//! cap keeps an exploration-order-dependent prefix, exactly as in the
//! other engines.
//!
//! Programs wider than the 64-bit thread masks fall back to the
//! sequential engine (sound, no reduction), and symmetry quotienting is
//! ignored here — the quotient's orbit merging invalidates the covering
//! argument, the same reason the sleep-set filter disables its masks
//! under symmetric keying.

use crate::engine::{
    explore_invariant_with, ExploreConfig, ExploreResult, Keys, TraceArena, TraceStep,
};
use c11_core::config::{Config, ConfigStep};
use c11_core::model::MemoryModel;
use c11_lang::step::StepShape;
use c11_lang::{ActionShape, Prog, ThreadId};
use c11_store::{AnyStore, VisitedStore};
use std::collections::VecDeque;
use std::collections::{HashMap, HashSet};

use crate::dpor::{bit, successor_sleep, SleepMask};

/// One executed action event on the current path, with its
/// happens-before clock (clock[t] = highest per-thread index of thread
/// `t`'s events that happen before this one, inclusive of itself).
struct PathEvent {
    /// 0-based thread index.
    thread: usize,
    shape: ActionShape,
    /// 1-based index of this event within its thread.
    tidx: u32,
    /// Stack position of the frame this event was executed from.
    frame_pos: usize,
    /// Memory-state event id, when the model tracks events (maps the
    /// placement oracle's overtaken ids back to path positions).
    event_id: Option<usize>,
    clock: Vec<u32>,
}

/// One choice point of the depth-first search.
struct Frame<M: MemoryModel> {
    config: Config<M>,
    node_idx: usize,
    depth: usize,
    /// Fingerprint (for removing from the on-path cycle set at pop).
    fp: u128,
    /// Per-thread digests, from which the successors' fingerprints are
    /// computed (see [`Keys`]).
    digests: Vec<u128>,
    /// Pending step shape per thread at this configuration.
    shapes: Vec<Option<StepShape>>,
    /// Threads asleep here: their next step is covered by an already
    /// explored sibling branch.
    sleep: SleepMask,
    /// Wakeup sequences queued by race reversals below.
    wut: VecDeque<Vec<usize>>,
    /// First threads ever scheduled at this frame (the source set).
    heads: SleepMask,
    /// Forced continuation inherited from the parent's wakeup sequence.
    forced: Vec<usize>,
    /// Thread currently being explored (its remaining successor
    /// branches sit in `succs`).
    cur: Option<usize>,
    /// Forced tail carried into the children of `cur`.
    rest: Vec<usize>,
    /// Remaining successor branches of `cur`.
    succs: Vec<ConfigStep<M>>,
    /// At least one child frame was pushed for `cur` (distinguishes an
    /// explored τ from a cycle-cut one).
    cur_pushed: bool,
    /// τ threads already attempted here (including cycle-cut ones).
    tried_tau: SleepMask,
    /// A τ branch ran to completion: this frame is a singleton ample
    /// set and schedules nothing else.
    tau_ran: bool,
    /// The inherited forced tail has been scheduled.
    forced_done: bool,
    /// The initial action candidate has been scheduled.
    seeded: bool,
    /// Number of action events on the path when this frame was pushed.
    ev_len: usize,
    /// Any successor was generated from this frame (stuck accounting).
    generated_any: bool,
}

/// Explores `prog` under `model` with source-set partial-order
/// reduction, checking `inv` on every configuration the reduced search
/// visits. Finals (by fingerprint multiset) and litmus verdicts match
/// the sequential engine, and `truncated` here implies `truncated`
/// there (never the reverse); `unique` and `generated` are
/// intentionally smaller — see the module docs for the finals-only
/// contract.
pub fn explore_source_invariant<M, F>(
    model: &M,
    prog: &Prog,
    cfg: &ExploreConfig,
    mut inv: F,
) -> ExploreResult<M>
where
    M: MemoryModel,
    F: FnMut(&Config<M>) -> bool,
{
    if Config::initial(model, prog).coms.len() > SleepMask::BITS as usize {
        // Masks are meaningless past 64 threads: fall back to the
        // sequential reference engine (sound, no reduction).
        return explore_invariant_with(model, prog, cfg, inv);
    }
    let first = explore_source_pass(model, prog, cfg, &mut inv, true);
    if !first.truncated || first.interrupted.is_some() {
        return first;
    }
    // A bound cut the search. Widening restores pruned *thread* choices
    // on the frames still on the stack at cut time, but a pruned write
    // *placement* is covered by a race-reversal branch that can live in
    // an already-popped subtree — and the bound may have cut that branch
    // before the reversal fired, silently losing a final. Placement
    // pruning is therefore only trusted on untruncated runs: rerun
    // without it (the invariant is re-checked; violations are reported
    // from this pass alone).
    explore_source_pass(model, prog, cfg, &mut inv, false)
}

/// One depth-first pass of the source-set walk. `prune` enables the
/// write-placement pruning of [`prune_placements`]; the public entry
/// point disables it on the retry pass after a bound truncation (see the
/// module docs on truncation).
fn explore_source_pass<M, F>(
    model: &M,
    prog: &Prog,
    cfg: &ExploreConfig,
    mut inv: F,
    prune: bool,
) -> ExploreResult<M>
where
    M: MemoryModel,
    F: FnMut(&Config<M>) -> bool,
{
    let initial = Config::initial(model, prog);
    let mut result = ExploreResult::new();
    let track = cfg.record_traces || cfg.witness_traces;
    let mut nodes = TraceArena::new();
    let mut visited = AnyStore::new(cfg.store);
    let mut final_nodes: Vec<usize> = Vec::new();
    // Terminal configurations deduplicated by the same fingerprint the
    // sequential engine dedups all states on: equivalent executions end
    // in the same configuration, so this is what makes the finals
    // multiset line up.
    let mut finals_seen: HashSet<u128> = HashSet::new();
    // Configurations on the current path with multiplicity (cuts
    // register-guarded τ spins that no other thread can unblock; action
    // steps may legally re-create an on-path configuration, e.g. an SC
    // write of the value already stored).
    let mut on_path: HashMap<u128, u32> = HashMap::new();
    // Action events of the current path, with happens-before clocks.
    let mut events: Vec<PathEvent> = Vec::new();
    // Per-thread count of executed actions along the current path.
    let nthreads = initial.coms.len();
    let mut tcount: Vec<u32> = vec![0; nthreads];

    let budget = &cfg.budget;
    let unlimited = budget.is_unlimited();
    let mut tick: u64 = 0;

    // Plain keys: symmetry quotienting is ignored here (module docs).
    let keys = Keys::new(model, None);
    let (fp0, digests0) = keys.root(&initial);
    visited.insert(fp0);
    result.unique = 1;
    if !unlimited {
        result.interrupted = budget.check_now(result.unique);
    }
    if !inv(&initial) {
        result.violations.push((initial.clone(), Vec::new()));
    }
    let mut stack: Vec<Frame<M>> = Vec::new();
    if initial.is_terminated() {
        finals_seen.insert(fp0);
        result.finals.push(initial);
        final_nodes.push(TraceArena::ROOT);
    } else if initial.coms.is_empty() {
        // No threads at all: nothing to do.
    } else if cfg.max_depth == 0 || model.state_size(&initial.mem) >= cfg.max_events {
        result.truncated = true;
    } else if result.interrupted.is_none() {
        on_path.insert(fp0, 1);
        stack.push(new_frame(
            initial,
            TraceArena::ROOT,
            0,
            (fp0, digests0),
            0,
            Vec::new(),
            0,
        ));
    }

    'outer: while let Some(pos) = stack.len().checked_sub(1) {
        if result.interrupted.is_some() {
            break;
        }
        // ---- expand the next successor branch of the current thread --
        if let Some(step) = stack[pos].succs.pop() {
            if !unlimited {
                tick += 1;
                if let Some(why) = budget.check(tick, result.unique) {
                    result.interrupted = Some(why);
                    break;
                }
            }
            if result.unique >= cfg.max_states {
                result.truncated = true;
                break;
            }
            let ConfigStep {
                tid,
                label,
                event,
                next,
                ..
            } = step;
            let t = tid.0 as usize - 1;
            let keyed = keys.step(&stack[pos].digests, tid, &next);
            let fp = keyed.key;
            if visited.insert(fp) {
                result.unique += 1;
            }
            let new_idx = if track {
                nodes.push(stack[pos].node_idx, TraceStep { tid, label })
            } else {
                TraceArena::ROOT // never dereferenced when tracking is off
            };
            if !inv(&next) {
                let trace = if cfg.record_traces {
                    nodes.trace_of(new_idx)
                } else {
                    Vec::new()
                };
                result.violations.push((next.clone(), trace));
            }
            let is_tau = matches!(stack[pos].shapes[t], Some(StepShape::Tau));
            if is_tau && on_path.contains_key(&fp) {
                // A τ spin back onto the current path: cut it; the frame
                // falls back to its next candidate (another τ, or the
                // action threads).
                continue;
            }
            // Race detection + clock for action events.
            let ev_push = if let Some(StepShape::Act(shape)) = &stack[pos].shapes[t] {
                let shape = *shape;
                let clock = clock_and_races(
                    model, &mut stack, pos, &events, &tcount, t, &shape, nthreads,
                );
                Some(PathEvent {
                    thread: t,
                    shape,
                    tidx: tcount[t] + 1,
                    frame_pos: pos,
                    event_id: event,
                    clock,
                })
            } else {
                None
            };
            if next.is_terminated() {
                if finals_seen.insert(fp) {
                    result.finals.push(next);
                    final_nodes.push(new_idx);
                }
                continue;
            }
            if stack[pos].depth + 1 >= cfg.max_depth
                || model.state_size(&next.mem) >= cfg.max_events
            {
                result.truncated = true;
                // The bound cut off the suffix whose races would have
                // scheduled the other threads: conservatively widen
                // every frame on the truncated path to all awake action
                // threads (τ frames stay singletons — a τ commutes with
                // everything and preserves execution length, so running
                // it first never changes what fits inside the bound).
                for f in stack.iter_mut() {
                    widen(f);
                }
                continue;
            }
            // Commit the event and push the child frame. The child
            // remembers the path length from *before* its in-event so
            // popping it rolls the event back off the path.
            let ev_len = events.len();
            if let Some(ev) = ev_push {
                tcount[t] += 1;
                events.push(ev);
            }
            let sleep = successor_sleep(
                model,
                &stack[pos].config.mem,
                &stack[pos].shapes,
                stack[pos].sleep,
                t,
            );
            let forced = stack[pos].rest.clone();
            let depth = stack[pos].depth + 1;
            stack[pos].cur_pushed = true;
            *on_path.entry(fp).or_insert(0) += 1;
            let key = (fp, keyed.digests(&stack[pos].digests));
            stack.push(new_frame(next, new_idx, depth, key, sleep, forced, ev_len));
            continue;
        }
        // ---- the current thread's branches are exhausted --------------
        if let Some(t) = stack[pos].cur.take() {
            let frame = &mut stack[pos];
            if matches!(frame.shapes[t], Some(StepShape::Tau)) {
                // Only a τ that actually produced a subtree makes this
                // frame a singleton; a cycle-cut τ falls through to the
                // next candidate (another τ, or the action threads).
                frame.tau_ran = frame.cur_pushed;
            } else {
                frame.sleep |= bit(t);
            }
            continue;
        }
        // ---- pick the next candidate thread at this frame -------------
        match next_candidate(&mut stack[pos]) {
            Some((t, rest)) => {
                let frame = &mut stack[pos];
                let succs = frame.config.successors_of(model, ThreadId(t as u8 + 1));
                let shape = match &frame.shapes[t] {
                    Some(StepShape::Act(s)) => Some(s),
                    _ => None,
                };
                let succs = if prune {
                    prune_placements(model, &frame.config.mem, shape, &events, t, succs)
                } else {
                    succs
                };
                result.generated += succs.len();
                frame.generated_any |= !succs.is_empty();
                frame.cur = Some(t);
                frame.rest = rest;
                frame.succs = succs;
                frame.cur_pushed = false;
            }
            None => {
                // Frame complete: stuck accounting, then pop.
                let frame = &stack[pos];
                if !frame.generated_any && !frame.config.is_terminated() {
                    let any_steps = (0..nthreads).any(|t| {
                        frame.shapes[t].is_some()
                            && !frame
                                .config
                                .successors_of(model, ThreadId(t as u8 + 1))
                                .is_empty()
                    });
                    if !any_steps {
                        result.stuck += 1;
                    }
                }
                let frame = stack.pop().expect("frame on stack");
                match on_path.get_mut(&frame.fp) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        on_path.remove(&frame.fp);
                    }
                }
                while events.len() > frame.ev_len {
                    let ev = events.pop().expect("event on path");
                    tcount[ev.thread] -= 1;
                }
                if stack.is_empty() {
                    break 'outer;
                }
            }
        }
    }

    result.finish(
        cfg,
        final_nodes,
        |idx| nodes.trace_of(idx),
        Some(visited.stats()),
        None,
    )
}

/// [`explore_source_invariant`] without an invariant.
pub fn explore_source<M: MemoryModel>(
    model: &M,
    prog: &Prog,
    cfg: &ExploreConfig,
) -> ExploreResult<M> {
    explore_source_invariant(model, prog, cfg, |_| true)
}

/// A fresh frame for `config`; `key` is its fingerprint and per-thread
/// digests.
fn new_frame<M: MemoryModel>(
    config: Config<M>,
    node_idx: usize,
    depth: usize,
    (fp, digests): (u128, Vec<u128>),
    sleep: SleepMask,
    forced: Vec<usize>,
    ev_len: usize,
) -> Frame<M> {
    let shapes: Vec<Option<StepShape>> = config
        .thread_ids()
        .map(|t| config.step_shape_of(t))
        .collect();
    Frame {
        config,
        node_idx,
        depth,
        fp,
        digests,
        shapes,
        sleep,
        wut: VecDeque::new(),
        heads: 0,
        forced,
        cur: None,
        rest: Vec::new(),
        succs: Vec::new(),
        cur_pushed: false,
        tried_tau: 0,
        tau_ran: false,
        forced_done: false,
        seeded: false,
        ev_len,
        generated_any: false,
    }
}

/// Schedules every awake, not-yet-scheduled action thread at `frame`
/// as a singleton wakeup sequence. Used when a bound truncates the
/// current path: the races that would have been detected on the cut
/// suffix can no longer schedule reversals, so the frame falls back to
/// bounded-exhaustive branching (threads already asleep stay covered by
/// the sibling subtree that put them to sleep, which is widened the
/// same way whenever it truncates).
fn widen<M: MemoryModel>(frame: &mut Frame<M>) {
    for t in 0..frame.shapes.len() {
        if matches!(frame.shapes[t], Some(StepShape::Act(_)))
            && frame.sleep & bit(t) == 0
            && frame.heads & bit(t) == 0
        {
            frame.heads |= bit(t);
            frame.wut.push_back(vec![t]);
        }
    }
}

/// The next thread to explore at `frame` (with the forced tail its
/// children inherit), or `None` when the frame is complete.
///
/// Priority: eager τs (each tried once; a successful one makes the
/// frame a singleton), then the forced tail inherited from the parent's
/// wakeup sequence, then a single seed action thread, then the wakeup
/// sequences inserted by race reversals.
fn next_candidate<M: MemoryModel>(frame: &mut Frame<M>) -> Option<(usize, Vec<usize>)> {
    if frame.tau_ran {
        return None;
    }
    for t in 0..frame.shapes.len() {
        if matches!(frame.shapes[t], Some(StepShape::Tau))
            && frame.tried_tau & bit(t) == 0
            && frame.sleep & bit(t) == 0
        {
            frame.tried_tau |= bit(t);
            frame.heads |= bit(t);
            // The τ is transparent: the forced continuation passes
            // through it to the child.
            return Some((t, frame.forced.clone()));
        }
    }
    if !frame.forced_done {
        frame.forced_done = true;
        if let Some((&h, rest)) = frame.forced.split_first() {
            if frame.shapes[h].is_some() && frame.sleep & bit(h) == 0 {
                frame.heads |= bit(h);
                return Some((h, rest.to_vec()));
            }
            // Head asleep or finished: the forced trace is covered by
            // the branch that put it to sleep.
        }
    }
    if !frame.seeded {
        frame.seeded = true;
        let pick = (0..frame.shapes.len()).find(|&t| {
            matches!(frame.shapes[t], Some(StepShape::Act(_)))
                && frame.sleep & bit(t) == 0
                && frame.heads & bit(t) == 0
        });
        if let Some(p) = pick {
            frame.heads |= bit(p);
            return Some((p, Vec::new()));
        }
    }
    while let Some(seq) = frame.wut.pop_front() {
        let Some((&h, rest)) = seq.split_first() else {
            continue;
        };
        if frame.sleep & bit(h) != 0 || frame.shapes[h].is_none() {
            // Covered by the sibling that put `h` to sleep (or the
            // thread terminated here): drop the sequence.
            continue;
        }
        return Some((h, rest.to_vec()));
    }
    None
}

/// Whether path event `e` is dependent with a pending event of thread
/// `t` with shape `shape` (same thread, or the model's oracle refuses
/// to commute them).
fn shape_dep<M: MemoryModel>(
    model: &M,
    mem: &M::State,
    e: &PathEvent,
    t: usize,
    shape: &ActionShape,
) -> bool {
    e.thread == t
        || !model.actions_independent(
            mem,
            (ThreadId(e.thread as u8 + 1), &e.shape),
            (ThreadId(t as u8 + 1), shape),
        )
}

/// Whether the race between `events[i]` and a new event of thread `t`
/// with shape `shape` is reversible: no intermediate dependent event
/// is already ordered after `events[i]` by happens-before.
fn race_reversible<M: MemoryModel>(
    model: &M,
    mem: &M::State,
    events: &[PathEvent],
    i: usize,
    t: usize,
    shape: &ActionShape,
) -> bool {
    let e = &events[i];
    !events[i + 1..]
        .iter()
        .any(|g| shape_dep(model, mem, g, t, shape) && g.clock[e.thread] >= e.tidx)
}

/// Placement pruning for the modification-order fan-out of write and
/// update steps.
///
/// An RA write has one successor per coherence placement: appended at
/// the end of `mo`, or *inserted* before other threads' later writes
/// (it "overtakes" them, [`MemoryModel::step_overtakes`]). A successor
/// that overtakes event `e` re-derives, step for step, the memory
/// state the reversed execution order reaches by letting `e` *append*
/// after the new write — so whenever the race with every overtaken
/// event is reversible under the current path's happens-before, the
/// race-reversal machinery already schedules that branch and the
/// inserting successor is pruned. Irreversible overtakes are kept:
/// those coherence orders (e.g. the po∪mo cycle of opposite-order
/// writer pairs) are *only* realizable by insertion. At least one
/// successor always survives, so the races that seed the reversals are
/// still detected.
fn prune_placements<M: MemoryModel>(
    model: &M,
    mem: &M::State,
    shape: Option<&ActionShape>,
    events: &[PathEvent],
    t: usize,
    mut succs: Vec<ConfigStep<M>>,
) -> Vec<ConfigStep<M>> {
    if succs.len() < 2 {
        return succs;
    }
    let Some(shape) = shape else { return succs };
    if matches!(shape, ActionShape::Read { .. }) {
        // Read fan-out is data nondeterminism (which write is
        // observed), not a placement choice: every branch stays.
        return succs;
    }
    let redundant: Vec<bool> = succs
        .iter()
        .map(|step| {
            let overtaken = model.step_overtakes(mem, &step.next.mem, step.event);
            if overtaken.is_empty() {
                return false;
            }
            // Map the overtaken ids back to path positions; an id the
            // path does not know (the init event) or a same-thread
            // event disables the pruning.
            let Some(positions) = overtaken
                .iter()
                .map(|&id| {
                    events
                        .iter()
                        .position(|pe| pe.event_id == Some(id))
                        .filter(|&i| events[i].thread != t)
                })
                .collect::<Option<Vec<usize>>>()
            else {
                return false;
            };
            // Criterion A — every overtaken event is in a reversible
            // race with the new write: each reversal branch realises
            // one of the overtaken placements by appending.
            if positions
                .iter()
                .all(|&i| race_reversible(model, mem, events, i, t, shape))
            {
                return true;
            }
            // Criterion B — sliding the new write back to the position
            // of the directly-overtaken event (coherence-least, first
            // in the oracle's order) yields a legal execution with the
            // same coherence order when everything executed after that
            // position is itself overtaken (it slides one slot down
            // unchanged) or independent of the new write. That shifted
            // execution appends instead of inserting, and the race
            // reversals explore it.
            let pos_e = positions[0];
            ((pos_e + 1)..events.len()).all(|i| {
                events[i].event_id.is_some_and(|id| overtaken.contains(&id))
                    || !shape_dep(model, mem, &events[i], t, shape)
            })
        })
        .collect();
    if redundant.iter().all(|&r| r) {
        // Every placement overtakes reversibly (the writer is fully
        // behind the contention): keep one canonical successor so the
        // races still fire; the reversal branches cover the rest.
        succs.truncate(1);
        return succs;
    }
    let mut it = redundant.iter();
    succs.retain(|_| !*it.next().expect("one flag per successor"));
    succs
}

/// Computes the happens-before clock of the new event (thread `t`,
/// shape `shape`) executed from the frame at `pos`, detects its
/// reversible races against the path events, and inserts the reversal
/// wakeup sequences at the raced frames (source-set check included).
/// Returns the new event's clock.
#[allow(clippy::too_many_arguments)]
fn clock_and_races<M: MemoryModel>(
    model: &M,
    stack: &mut [Frame<M>],
    pos: usize,
    events: &[PathEvent],
    tcount: &[u32],
    t: usize,
    shape: &ActionShape,
    nthreads: usize,
) -> Vec<u32> {
    let mem = &stack[pos].config.mem;
    // Clock: join of every dependent predecessor, plus the event itself.
    let mut clock = vec![0u32; nthreads];
    for e in events.iter() {
        if shape_dep(model, mem, e, t, shape) {
            for (c, ec) in clock.iter_mut().zip(&e.clock) {
                *c = (*c).max(*ec);
            }
        }
    }
    clock[t] = tcount[t] + 1;

    // Reversible races: dependent cross-thread events with no
    // intermediate dependent event between them and the new one.
    // Collected first (the dependence closure borrows the frame's
    // memory state), then inserted at the raced frames.
    let mut inserts: Vec<(usize, SleepMask, Vec<usize>)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.thread == t || !shape_dep(model, mem, e, t, shape) {
            continue;
        }
        if !race_reversible(model, mem, events, i, t, shape) {
            continue;
        }
        // The reversal sequence: every later event not ordered after
        // `e`, then the new event's thread.
        let v: Vec<&PathEvent> = events[i + 1..]
            .iter()
            .filter(|g| g.clock[e.thread] < e.tidx)
            .collect();
        // Initial threads of the sequence: threads whose first event
        // has no happens-before predecessor within it.
        let mut initials: SleepMask = 0;
        let mut seen: SleepMask = 0;
        for (j, g) in v.iter().enumerate() {
            if seen & bit(g.thread) != 0 {
                continue;
            }
            seen |= bit(g.thread);
            let has_pred = v[..j].iter().any(|h| g.clock[h.thread] >= h.tidx);
            if !has_pred {
                initials |= bit(g.thread);
            }
        }
        if seen & bit(t) == 0 {
            let has_pred = v.iter().any(|h| clock[h.thread] >= h.tidx);
            if !has_pred {
                initials |= bit(t);
            }
        }
        let mut seq: Vec<usize> = v.iter().map(|g| g.thread).collect();
        seq.push(t);
        inserts.push((e.frame_pos, initials, seq));
    }
    for (frame_pos, initials, seq) in inserts {
        let target = &mut stack[frame_pos];
        if initials & target.heads != 0 {
            // Source-set condition: an initial of the reversal is
            // already scheduled at the raced frame.
            continue;
        }
        target.heads |= bit(seq[0]);
        target.wut.push_back(seq);
    }
    clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::explore_dpor;
    use crate::engine::{Explorer, RegSnapshot};
    use c11_core::model::{RaModel, ScModel};
    use c11_lang::parse_program;
    use std::collections::HashMap;

    fn multiset(snaps: Vec<RegSnapshot>) -> HashMap<RegSnapshot, usize> {
        let mut m = HashMap::new();
        for s in snaps {
            *m.entry(s).or_insert(0) += 1;
        }
        m
    }

    fn assert_finals_match(prog: &Prog, cfg: &ExploreConfig, what: &str) {
        let seq = Explorer::new(RaModel).explore(prog, cfg.clone());
        let src = explore_source(&RaModel, prog, cfg);
        assert_eq!(
            multiset(src.final_snapshots()),
            multiset(seq.final_snapshots()),
            "{what}: finals multiset"
        );
        // One-sided by design: a τ-late linearisation can trip the
        // bound in the exhaustive walk even though the τ-eager
        // representative of the same trace completes inside it.
        assert!(
            !src.truncated || seq.truncated,
            "{what}: source truncation must imply sequential truncation"
        );
    }

    #[test]
    fn independent_writers_collapse_to_one_trace() {
        let src = "vars x y;
             thread t1 { x := 1; x := 2; }
             thread t2 { y := 1; y := 2; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default();
        let res = explore_source(&RaModel, &prog, &cfg);
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        assert_eq!(
            multiset(res.final_snapshots()),
            multiset(seq.final_snapshots())
        );
        // Race-free: exactly one maximal trace, explored as one path.
        assert_eq!(res.finals.len(), 1);
        assert_eq!(
            res.generated,
            res.unique - 1,
            "a single explored path generates each state once"
        );
        assert!(res.unique < seq.unique, "source-set prunes states");
    }

    #[test]
    fn contended_writers_match_sequential_finals() {
        let src = "vars x;
             thread t1 { x := 1; x := 2; }
             thread t2 { x := 3; x := 4; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default();
        assert_finals_match(&prog, &cfg, "contended");
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        let dpor = explore_dpor(&RaModel, &prog, &cfg);
        let res = explore_source(&RaModel, &prog, &cfg);
        // All six write interleavings are inequivalent and must all be
        // found (C(4,2) orders of mo).
        assert_eq!(res.finals.len(), seq.finals.len());
        assert!(
            res.generated < dpor.generated,
            "source-set beats sleep-set on the contended shape ({} vs {})",
            res.generated,
            dpor.generated
        );
    }

    #[test]
    fn store_buffering_reaches_all_outcomes() {
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        assert_finals_match(&prog, &ExploreConfig::default(), "SB");
    }

    #[test]
    fn message_passing_variants_match() {
        for src in [
            "vars d f;
             thread t1 { d := 5; f :=R 1; }
             thread t2 { r0 <-A f; r1 <- d; }",
            "vars d f;
             thread t1 { d := 5; f := 1; }
             thread t2 { r0 <-A f; if (r0 == 1) { r1 <- d; } else { r1 <- 99; } }",
            "vars x y;
             thread t1 { x := 1; }
             thread t2 { r0 <- x; y :=R 1; }
             thread t3 { r0 <-A y; r1 <- x; }",
            "vars l d;
             thread t1 { r0 <- l.swap(1); d := 7; }
             thread t2 { r0 <- l.swap(1); r1 <- d; }",
        ] {
            let prog = parse_program(src).unwrap();
            assert_finals_match(&prog, &ExploreConfig::default(), src);
        }
    }

    #[test]
    fn truncating_bounds_agree_with_sequential() {
        let src = "vars x y;
             thread t1 { x := 1; x := 2; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        for bound in 3usize..8 {
            let cfg = ExploreConfig::default().max_events(bound);
            assert_finals_match(&prog, &cfg, &format!("event bound {bound}"));
        }
        for depth in 1usize..10 {
            let cfg = ExploreConfig::default().max_depth(depth);
            assert_finals_match(&prog, &cfg, &format!("depth bound {depth}"));
        }
    }

    #[test]
    fn spin_loop_truncates_like_sequential() {
        let prog = parse_program(
            "vars x;
             thread t1 { while (x == 0) { skip; } }
             thread t2 { x := 1; }",
        )
        .unwrap();
        let cfg = ExploreConfig::default().max_events(8);
        assert_finals_match(&prog, &cfg, "spin");
    }

    #[test]
    fn register_spin_is_cycle_cut_not_divergent() {
        // `r0` is never written: the loop's τ re-creates the same
        // configuration forever and no other thread can unblock it. The
        // cycle cut must terminate the search with the writer's states
        // still explored.
        let prog = parse_program(
            "vars x;
             thread t1 { while (r0 == 0) { skip; } }
             thread t2 { x := 1; }",
        )
        .unwrap();
        let seq = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        let res = explore_source(&RaModel, &prog, &ExploreConfig::default());
        assert_eq!(res.finals.len(), seq.finals.len());
        assert!(res.generated > 0);
    }

    #[test]
    fn sc_model_matches_sequential_finals() {
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default().max_depth(16);
        let seq = Explorer::new(ScModel).explore(&prog, cfg.clone());
        let res = explore_source(&ScModel, &prog, &cfg);
        assert_eq!(
            multiset(res.final_snapshots()),
            multiset(seq.final_snapshots())
        );
        assert!(res.generated <= seq.generated);
    }

    #[test]
    fn witness_traces_reach_every_final() {
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default().witness_traces(true);
        let res = explore_source(&RaModel, &prog, &cfg);
        assert_eq!(res.final_traces.len(), res.finals.len());
        for t in &res.final_traces {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn max_states_cap_truncates() {
        let src = "vars x;
             thread t1 { x := 1; x := 2; x := 3; }
             thread t2 { x := 4; x := 5; x := 6; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default().max_states(10);
        let res = explore_source(&RaModel, &prog, &cfg);
        assert!(res.truncated);
        assert!(res.unique <= 11);
    }

    #[test]
    fn wide_threads_fall_back_to_sequential() {
        let threads: String = (0..70)
            .map(|i| format!("thread t{i} {{ x := {}; }}\n", i % 2))
            .collect();
        let prog = parse_program(&format!("vars x;\n{threads}")).unwrap();
        let cfg = ExploreConfig::default()
            .max_states(200)
            .record_traces(false);
        let res = explore_source(&RaModel, &prog, &cfg);
        assert!(res.truncated, "70 writers blow the cap");
        assert!(res.unique > 0 && res.generated > 0);
    }
}
