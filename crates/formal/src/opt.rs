//! AIG static analysis and optimization between compile and the cascade.
//!
//! [`optimize`] rewrites a checked [`Model`] into a smaller, functionally
//! equivalent one.  It is applied by the checker to every cone-of-influence
//! slice (and, for liveness, to the liveness-to-safety product) before any
//! engine runs, so BMC unrollings, PDR frames and explicit-state sweeps all
//! pay for fewer gates and latches.  Five analyses cooperate:
//!
//! * **ternary constant sweeping** — a least-fixpoint three-valued
//!   simulation from the reset state (inputs unknown) proves latches stuck
//!   at their initial value ([`constant_latches`]); they are substituted by
//!   constants, which cascades through the combinational logic;
//! * **sequential latch sweeping** (van Eijk) — random sequential
//!   simulation partitions latches into candidate equivalence classes
//!   (including stuck-at-constant candidates the ternary analysis cannot
//!   see); the candidates are then proven by SAT *induction* in rounds —
//!   assume the equivalences over a free current state, show every
//!   next-state function preserves them, and refine the partition by every
//!   counterexample the round found — and proven classes are merged onto
//!   one representative register.  This is where testbench monitor state
//!   that duplicates design state (e.g. an AutoSVA transaction counter
//!   shadowing an RTL occupancy counter) collapses;
//! * **combinational gate sweeping** (FRAIG-style) — random-pattern
//!   signatures partition AND nodes into candidate classes, a SAT miter
//!   over a free state proves unconditional equivalence, and proven nodes
//!   are merged onto the earliest representative, catching
//!   structurally-different-but-equivalent logic the hash cannot;
//! * **structural rewriting** — the rebuild funnels every AND gate through
//!   the one-level strash of [`Aig::and`] *plus* the classic two-level
//!   rules (subsumption, contradiction, or-absorption, substitution,
//!   resolution), which collapse the redundant `or(s, and(!s, e))` shapes
//!   that word-level mux lowering leaves behind;
//! * **dead-node elimination** — only logic reachable from the model's
//!   roots (bad/cover literals, invariant constraints, liveness and
//!   fairness properties) is rebuilt; unobservable latches, inputs and
//!   gates are dropped, exactly like [`crate::coi`] does for the initial
//!   slice.
//!
//! Both sweeps are incremental: each runs one SAT solver over one encoding
//! of frame 0.  A van Eijk round's hypothesis sits behind its own
//! activation literal and is retired by a unit clause when the round ends;
//! a proven gate pair is never checked again and stays behind as a
//! permanent clause; a gate counterexample is resimulated 64 lanes wide
//! together with 63 distance-1 neighbours.  None of this changes *what*
//! the sweeps compute.  The latch sweep ends at the largest inductive
//! relation that holds at reset, and the gate sweep at the exact
//! functional classes, whatever the simulation words or the order in
//! which counterexamples are found (the arguments are on
//! `latch_equivalences` and `gate_equivalences`), so optimized models
//! and their fingerprints do not depend on either.
//!
//! Passes repeat until the content fingerprint is stable, which makes the
//! whole transformation *idempotent* — `optimize(optimize(m))` returns a
//! model fingerprint-identical to `optimize(m)` — and therefore safe to key
//! the proof cache on.  Every transformation preserves the value of every
//! kept root along every input sequence from reset (merged latches agree on
//! all reachable states — the SAT induction certifies an inductive
//! invariant — and the other four rewrites are equivalences everywhere), so
//! verdicts, counterexample traces (replayed on either model: dropped
//! inputs are provably irrelevant to all roots) and PDR invariants carry
//! over unchanged.
//!
//! # Witnesses and replay
//!
//! Each pass is an analysis (`analyze`: the constants and the two sweeps,
//! boiled down to one `node -> representative` fact list) followed by a
//! [`rebuild`] that substitutes the representatives.  [`optimize`] records
//! the fact list of every pass that changed the model as an
//! [`OptWitness`], and [`replay`] turns a witness back into the optimized
//! model with one SAT query per pass instead of the sweeps' many.  The
//! proof cache stores a witness per prepared model, so a warm run replays
//! instead of re-optimizing.
//!
//! Replay trusts nothing in the witness.  Per pass it checks the facts'
//! structure (in-range nodes, strictly earlier representatives, latches
//! onto latches or constants only), that every latch fact holds at reset,
//! and, in a single query over one free frame, that the latch facts are
//! *inductive* — assuming them and the invariant constraints on the
//! current state, no transition breaks one — and that every gate fact
//! holds wherever the latch facts do.  That is exactly the argument that
//! makes the sweeps' merges sound: the facts hold on every state an engine
//! evaluates (reset, or a successor of a constraint-satisfying state where
//! they hold), so substituting representatives preserves every root.  A
//! witness that passes yields a sound model whatever produced it; a
//! forged or stale one at worst costs a rejection and a fresh
//! optimization.
//!
//! Constants discovered here are also reported by name so the Level-1 lint
//! pass ([`crate::lint`]) can surface "register is stuck at its reset
//! value" diagnostics from the same analysis.

use crate::aig::{Aig, Latch, Lit, Node};
use crate::coi::{fingerprint, Fingerprint};
use crate::model::{BadProperty, CoverProperty, Model, ResponseProperty};
use crate::sat::{SatLit, SatResult, Solver, Var};
use crate::unroll::Unroller;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// A three-valued signal value for the reachability fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TVal {
    /// Definitely false in every reachable state seen so far.
    F,
    /// Definitely true in every reachable state seen so far.
    T,
    /// Unknown / both values possible.
    X,
}

impl TVal {
    fn of(b: bool) -> TVal {
        if b {
            TVal::T
        } else {
            TVal::F
        }
    }

    fn join(self, other: TVal) -> TVal {
        if self == other {
            self
        } else {
            TVal::X
        }
    }

    fn not(self) -> TVal {
        match self {
            TVal::F => TVal::T,
            TVal::T => TVal::F,
            TVal::X => TVal::X,
        }
    }

    fn and(self, other: TVal) -> TVal {
        match (self, other) {
            (TVal::F, _) | (_, TVal::F) => TVal::F,
            (TVal::T, TVal::T) => TVal::T,
            _ => TVal::X,
        }
    }
}

/// Latches of `aig` that provably hold their initial value in every
/// reachable state, as `(latch node, stuck-at value)` pairs in node order.
///
/// The proof is a three-valued least-fixpoint simulation: starting from the
/// concrete reset state with every primary input unknown, latch values are
/// widened with each step's next-state evaluation until nothing changes.
/// The lattice has height two per latch, so the loop terminates after at
/// most `2 * num_latches + 1` rounds.  A latch still two-valued at the
/// fixpoint is constant in *every* reachable state (the simulation
/// overapproximates reachability), which makes the substitution in
/// [`optimize`] sound for safety, cover and liveness targets alike.
pub fn constant_latches(aig: &Aig) -> Vec<(usize, bool)> {
    let latches = aig.latches();
    if latches.is_empty() {
        return Vec::new();
    }
    // Latch nodes hold the current abstract state between passes.
    let mut vals: Vec<TVal> = vec![TVal::F; aig.num_nodes()];
    for l in latches {
        vals[l.node] = TVal::of(l.init);
    }
    loop {
        // One forward evaluation pass; node indices are topologically
        // ordered (AND inputs always reference earlier nodes).
        for idx in 1..aig.num_nodes() {
            match aig.node(idx) {
                Node::Input => vals[idx] = TVal::X,
                Node::And(a, b) => vals[idx] = lit_val(&vals, a).and(lit_val(&vals, b)),
                Node::False | Node::Latch => {}
            }
        }
        let widened: Vec<TVal> = latches
            .iter()
            .map(|l| vals[l.node].join(lit_val(&vals, l.next)))
            .collect();
        let mut changed = false;
        for (l, w) in latches.iter().zip(widened) {
            changed |= vals[l.node] != w;
            vals[l.node] = w;
        }
        if !changed {
            break;
        }
    }
    latches
        .iter()
        .filter_map(|l| match vals[l.node] {
            TVal::F => Some((l.node, false)),
            TVal::T => Some((l.node, true)),
            TVal::X => None,
        })
        .collect()
}

fn lit_val(vals: &[TVal], l: Lit) -> TVal {
    let v = vals[l.node()];
    if l.is_inverted() {
        v.not()
    } else {
        v
    }
}

/// The result of [`optimize`]: the rewritten model, its fingerprint, the
/// latches proven constant by their original names, and the witness that
/// lets [`replay`] rebuild the same model without the sweeps.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// The optimized, functionally equivalent model.
    pub model: Model,
    /// The content fingerprint of `model`.
    pub fingerprint: Fingerprint,
    /// Latches proven stuck at their reset value across all passes, as
    /// `(name, value)` in discovery order (deduplicated by name).
    pub constant_latches: Vec<(String, bool)>,
    /// The facts every model-changing pass merged on.
    pub witness: OptWitness,
}

/// Bumped whenever a change to this module changes what [`optimize`]
/// computes for some input.  Cached witnesses carry it, and one from
/// another version is ignored: replaying it would still be sound (the
/// check does not trust the optimizer), but it would rebuild the old
/// optimizer's model, so a warm run would report other cone sizes than a
/// cold one.  `tests/opt_golden.rs` pins this version to the optimizer
/// golden file, so regenerating the golden forces a bump.
pub const OPT_VERSION: u32 = 1;

/// A checkable record of one [`optimize`] run: for every pass that changed
/// the model, the facts the pass merged on, as `(node, representative)`
/// pairs in that pass's node indices, sorted by node.  The pass that only
/// confirms the fixpoint contributes nothing.
///
/// A latch's representative is an earlier latch (possibly inverted) or a
/// constant; an AND node's is any earlier node or a constant.  Latch facts
/// are the van Eijk equivalences and stuck-at constants, gate facts the
/// FRAIG equivalences.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptWitness {
    /// One fact list per model-changing pass, in pass order.
    pub passes: Vec<Vec<(usize, Lit)>>,
}

/// Upper bound on rewrite passes; real models stabilize in two or three.
pub(crate) const MAX_PASSES: usize = 8;

/// Optimizes a model: constant sweeping, two-level AND rewriting and
/// dead-node elimination, repeated to a fingerprint fixpoint.
///
/// Every property literal (bads, covers, constraints, liveness, fairness)
/// is a root: the rewritten model computes bit-identical values for all of
/// them on every input sequence, latch initial values and surviving names
/// are preserved, and the bad/cover/liveness property lists keep their
/// order.  The pass is deterministic and idempotent, so content
/// fingerprints of optimized models are stable across processes and safe
/// as proof-cache keys.
pub fn optimize(model: &Model) -> OptResult {
    let _span = crate::telemetry::span("opt", "");
    crate::telemetry::count("opt.gates_before", model.aig.num_ands() as u64);
    crate::telemetry::count("opt.latches_before", model.aig.num_latches() as u64);
    let mut current = model.clone();
    let mut fp = fingerprint(&current);
    let mut constants: Vec<(String, bool)> = Vec::new();
    let mut witness = OptWitness::default();
    for _ in 0..MAX_PASSES {
        let (facts, next) = {
            let _pass_span = crate::telemetry::span("opt.pass", "");
            crate::telemetry::count("opt.passes", 1);
            #[cfg(any(test, feature = "fault-injection"))]
            crate::faults::point("opt.pass");
            let facts = analyze(&current, &mut constants);
            let next = rebuild(&current, &facts);
            (facts, next)
        };
        let next_fp = fingerprint(&next);
        if next_fp == fp {
            break;
        }
        witness.passes.push(facts);
        current = next;
        fp = next_fp;
    }
    crate::telemetry::count("opt.gates_after", current.aig.num_ands() as u64);
    crate::telemetry::count("opt.latches_after", current.aig.num_latches() as u64);
    OptResult {
        model: current,
        fingerprint: fp,
        constant_latches: constants,
        witness,
    }
}

/// Convenience wrapper: the optimized model together with its fingerprint.
pub fn optimize_with_fingerprint(model: &Model) -> (Model, Fingerprint) {
    let result = optimize(model);
    (result.model, result.fingerprint)
}

/// Rebuilds the model [`optimize`] produced from `model`, by checking and
/// applying `witness` instead of re-running the sweeps.  Returns `None`
/// (never panics) when any pass fails a check.
///
/// Each pass is checked against the model the previous pass rebuilt:
///
/// * **structure** — facts are sorted by node, every node is in range and
///   non-zero, every representative has a smaller index than its node; a
///   latch redirects only to a latch or a constant, an AND node to any
///   earlier node, and nothing else is redirected;
/// * **reset** — every latch fact holds in the initial state;
/// * **induction** — one SAT query over one frame (see `facts_inductive`)
///   shows that the latch facts are preserved by every transition from a
///   state satisfying them and the invariant constraints, and that the
///   gate facts hold in every state satisfying the latch facts.
///
/// The facts then hold in every state any engine evaluates: the initial
/// state, and successors of constraint-satisfying states where they hold.
/// This is the soundness argument of `latch_equivalences`, checked once
/// instead of searched for; substituting representatives there preserves
/// every root's value, so the rebuilt model keeps every verdict, trace and
/// invariant of the original.  No part of it trusts the optimizer, so a
/// forged, stale or corrupted witness can cost a re-optimization but never
/// change a verdict.
pub fn replay(model: &Model, witness: &OptWitness) -> Option<Model> {
    let _span = crate::telemetry::span("opt.replay", "");
    #[cfg(any(test, feature = "fault-injection"))]
    crate::faults::point("opt.replay");
    if witness.passes.len() > MAX_PASSES {
        return None;
    }
    let mut current: Option<Model> = None;
    for facts in &witness.passes {
        let pass_model = current.as_ref().unwrap_or(model);
        if !(facts_well_formed(&pass_model.aig, facts)
            && facts_hold_at_reset(&pass_model.aig, facts)
            && facts_inductive(pass_model, facts))
        {
            return None;
        }
        current = Some(rebuild(pass_model, facts));
    }
    let result = current.unwrap_or_else(|| model.clone());
    crate::telemetry::count("opt.gates_before", model.aig.num_ands() as u64);
    crate::telemetry::count("opt.latches_before", model.aig.num_latches() as u64);
    crate::telemetry::count("opt.gates_after", result.aig.num_ands() as u64);
    crate::telemetry::count("opt.latches_after", result.aig.num_latches() as u64);
    Some(result)
}

/// The structural check of [`replay`]: sorted, in-range, non-zero nodes;
/// representatives strictly earlier; latches onto latches or constants,
/// AND nodes onto anything earlier, no other node redirected.
fn facts_well_formed(aig: &Aig, facts: &[(usize, Lit)]) -> bool {
    let mut previous = 0usize;
    facts.iter().all(|&(node, rep)| {
        let ordered = node > previous && node < aig.num_nodes() && rep.node() < node;
        previous = node;
        ordered
            && match aig.node(node) {
                Node::Latch => rep.is_const() || matches!(aig.node(rep.node()), Node::Latch),
                Node::And(..) => true,
                Node::False | Node::Input => false,
            }
    })
}

/// The reset check of [`replay`]: a constant latch fact matches the
/// latch's initial value, and a merged pair's initial values agree up to
/// the fact's polarity.  Gate facts say nothing about reset.
fn facts_hold_at_reset(aig: &Aig, facts: &[(usize, Lit)]) -> bool {
    let mut init: Vec<Option<bool>> = vec![None; aig.num_nodes()];
    init[0] = Some(false);
    for latch in aig.latches() {
        init[latch.node] = Some(latch.init);
    }
    facts.iter().all(|&(node, rep)| match init[node] {
        None => true, // a gate fact
        Some(value) => init[rep.node()].map(|r| r ^ rep.is_inverted()) == Some(value),
    })
}

/// The induction check of [`replay`], as one SAT query over one free
/// frame: with every latch fact asserted on the current state, it asks
/// for either a transition, from a state that also satisfies the invariant
/// constraints, after which some latch fact fails, or a current state in
/// which some gate fact fails.  `true` when the query is unsatisfiable.
///
/// The constraints guard only the latch half.  An engine evaluates a
/// state's gates, including the constraint literals themselves, even when
/// that state violates a constraint, so a gate fact must hold there too.
fn facts_inductive(model: &Model, facts: &[(usize, Lit)]) -> bool {
    if facts.is_empty() {
        return true;
    }
    let aig = &model.aig;
    // One variable per node of the free frame; node 0 is false.
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..aig.num_nodes()).map(|_| solver.new_var()).collect();
    let sat = |l: Lit| SatLit::new(vars[l.node()], !l.is_inverted());
    solver.add_clause(&[sat(Lit::TRUE)]);
    for (idx, &var) in vars.iter().enumerate().skip(1) {
        if let Node::And(a, b) = aig.node(idx) {
            let (out, a, b) = (SatLit::pos(var), sat(a), sat(b));
            solver.add_clause(&[out.negate(), a]);
            solver.add_clause(&[out.negate(), b]);
            solver.add_clause(&[a.negate(), b.negate(), out]);
        }
    }
    let mut next_of: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    for latch in aig.latches() {
        next_of[latch.node] = Some(latch.next);
    }
    // differ -> (a XOR b).
    let miter = |solver: &mut Solver, a: SatLit, b: SatLit| {
        let differ = SatLit::pos(solver.new_var());
        solver.add_clause(&[differ.negate(), a, b]);
        solver.add_clause(&[differ.negate(), a.negate(), b.negate()]);
        differ
    };
    let latch_fails = SatLit::pos(solver.new_var());
    let gate_fails = SatLit::pos(solver.new_var());
    let mut latch_misses = vec![latch_fails.negate()];
    let mut gate_misses = vec![gate_fails.negate()];
    for &(node, rep) in facts {
        let (now, rep_now) = (sat(Lit::new(node, false)), sat(rep));
        match next_of[node] {
            Some(next) => {
                // Assumed now ...
                solver.add_clause(&[now.negate(), rep_now]);
                solver.add_clause(&[now, rep_now.negate()]);
                // ... and refuted next (a constant is its own next).
                let rep_next = next_of[rep.node()].map_or(rep, |n| n.invert_if(rep.is_inverted()));
                latch_misses.push(miter(&mut solver, sat(next), sat(rep_next)));
            }
            None => gate_misses.push(miter(&mut solver, now, rep_now)),
        }
    }
    solver.add_clause(&latch_misses);
    solver.add_clause(&gate_misses);
    // The constraints hold on the current state of a latch refutation.
    for &c in &model.constraints {
        solver.add_clause(&[latch_fails.negate(), sat(c)]);
    }
    solver.add_clause(&[latch_fails, gate_fails]);
    matches!(solver.solve(&[]), SatResult::Unsat)
}

/// Number of 64-bit random stimulus words per sequential simulation run.
const SEQ_SIM_STEPS: usize = 48;
/// Number of independent sequential simulation runs from reset.
const SEQ_SIM_RUNS: usize = 8;
/// Number of 64-bit random pattern words for combinational signatures.
const COMB_SIM_WORDS: usize = 4;
/// Fixed seed for the signature simulations (determinism across processes).
const SWEEP_SEED: u64 = 0x005E_ED0F_0DD5;

/// Evaluates every AND node of `aig` over 64 parallel bit-patterns, in
/// place: on entry `vals` (indexed by node) holds the word of every input
/// and latch, on return every gate's word as well.  A single concrete
/// valuation, such as a SAT counterexample, is lane 0 (leaf words `0` or
/// `!0`).
fn eval_words(aig: &Aig, vals: &mut [u64]) {
    for idx in 1..aig.num_nodes() {
        if let Node::And(a, b) = aig.node(idx) {
            vals[idx] = word(vals, a) & word(vals, b);
        }
    }
}

/// The 64-lane word of `l` in an [`eval_words`] result.
fn word(vals: &[u64], l: Lit) -> u64 {
    let w = vals[l.node()];
    if l.is_inverted() {
        !w
    } else {
        w
    }
}

/// `b` in every lane.
fn lanes(b: bool) -> u64 {
    if b {
        !0
    } else {
        0
    }
}

/// The input and latch nodes of `aig`, in node order.
fn leaf_nodes(aig: &Aig) -> Vec<usize> {
    (0..aig.num_nodes())
        .filter(|&n| matches!(aig.node(n), Node::Input | Node::Latch))
        .collect()
}

/// Loads the frame-0 leaf valuation of the last satisfiable query into
/// every lane of `vals`.  Leaves no query has encoded read as `false`,
/// which is a valid completion: every encoded cone's leaves are encoded.
fn load_counterexample(unroller: &mut Unroller, leaves: &[usize], vals: &mut [u64]) {
    for &n in leaves {
        vals[n] = lanes(unroller.model_value(Lit::new(n, false), 0));
    }
}

/// Sequentially-proven latch equivalences: `latch node -> representative
/// literal` of the *original* AIG, where the representative is either an
/// earlier latch (possibly inverted) or a constant.
///
/// Candidates come from random sequential simulation from reset: each latch
/// is normalized by its initial value (`value XOR init`), so two latches in
/// the same candidate class agree at reset *by construction* (base case)
/// and — per simulation — on every sampled trace.  The candidates are then
/// certified by SAT induction in van Eijk rounds: the round's *hypothesis*
/// assumes every candidate equivalence over a free current state, and every
/// class member's next-state function must agree with its
/// representative's.  All counterexamples of a round are collected, the
/// classes are split by the next-state values members take across all of
/// them, and rounds repeat until one finds none.
///
/// One incremental solver serves every round: frame 0 and the constraints
/// are encoded once, each round's hypothesis is guarded by its own
/// activation literal and retired by a unit clause when the round ends,
/// and each `(member, representative)` miter is encoded once behind its own
/// literal and reused while the pair survives.
///
/// The result does not depend on the simulation words or on the order in
/// which counterexamples are found.  Every counterexample satisfies its
/// round's hypothesis, so a pair it splits is split by *every* relation
/// that is inductive and contained in the current partition; and any
/// inductive relation that holds at reset holds on every simulated state,
/// so the initial partition contains it.  The loop therefore ends at the
/// largest inductive, init-respecting relation, which is unique.
///
/// The induction step may assume the model's invariant constraints on the
/// *current* state: engines discard any execution whose prefix violates a
/// constraint, so every state they evaluate is either the initial state
/// (which satisfies the equivalences by construction) or the successor of
/// a constraint-satisfying state (where the induction step applies).  The
/// certified equivalences therefore hold on every state any engine ever
/// evaluates, and merging preserves all verdicts, traces and invariants.
fn latch_equivalences(model: &Model) -> BTreeMap<usize, Lit> {
    let aig = &model.aig;
    let latches = aig.latches();
    if latches.is_empty() {
        return BTreeMap::new();
    }
    // Dense `node -> latch index` table.
    let mut slot = vec![usize::MAX; aig.num_nodes()];
    for (i, l) in latches.iter().enumerate() {
        slot[l.node] = i;
    }

    // --- candidate partition from random sequential runs -----------------
    //
    // Lanes (bit positions of the 64-bit words) whose stimulus has violated
    // an invariant constraint at an earlier cycle are masked out of the
    // signatures: engines never evaluate such states, so divergence there
    // must not split a candidate class.  Several short runs keep enough
    // live lanes for discrimination even under tight assumptions.
    let mut rng = StdRng::seed_from_u64(SWEEP_SEED);
    let steps_per_run = SEQ_SIM_STEPS / SEQ_SIM_RUNS;
    let mut signatures: Vec<Vec<u64>> = vec![Vec::with_capacity(SEQ_SIM_STEPS); latches.len()];
    let mut vals = vec![0u64; aig.num_nodes()];
    let mut next = vec![0u64; latches.len()];
    for _ in 0..SEQ_SIM_RUNS {
        for l in latches {
            vals[l.node] = lanes(l.init);
        }
        let mut valid: u64 = !0;
        for _ in 0..steps_per_run {
            for &n in aig.inputs() {
                vals[n] = rng.next_u64();
            }
            eval_words(aig, &mut vals);
            for (sig, l) in signatures.iter_mut().zip(latches) {
                // The state at this cycle is evaluated whenever every
                // *earlier* cycle satisfied the constraints, so it is
                // masked by the prefix validity (before this cycle's
                // constraint check).
                sig.push((vals[l.node] ^ lanes(l.init)) & valid);
            }
            for &c in &model.constraints {
                valid &= word(&vals, c);
            }
            for (w, l) in next.iter_mut().zip(latches) {
                *w = word(&vals, l.next);
            }
            for (&w, l) in next.iter().zip(latches) {
                vals[l.node] = w;
            }
        }
    }
    // Normalized signature -> member latch nodes (sorted by BTreeMap).
    let mut classes: BTreeMap<Vec<u64>, Vec<usize>> = BTreeMap::new();
    for (sig, l) in signatures.into_iter().zip(latches) {
        classes.entry(sig).or_default().push(l.node);
    }
    // Each class as (constant?, sorted members); non-constant classes keep
    // their smallest member as the representative.
    let mut partition: Vec<(bool, Vec<usize>)> = classes
        .into_iter()
        .map(|(sig, mut members)| {
            members.sort_unstable();
            (sig.iter().all(|&w| w == 0), members)
        })
        .filter(|(is_const, members)| *is_const || members.len() > 1)
        .collect();
    partition.sort_unstable_by_key(|(_, members)| members[0]);

    // --- van Eijk rounds on one incremental solver ------------------------
    let leaves = leaf_nodes(aig);
    let mut unroller = Unroller::new(aig, false);
    unroller.ensure_frame(0);
    // The current state satisfies the invariant constraints (see the
    // soundness argument in the doc comment).
    for &c in &model.constraints {
        unroller.constrain(c, 0, true);
    }
    // A latch's current and next value, normalized by its initial value.
    let norm = |node: usize| Lit::new(node, latches[slot[node]].init);
    let norm_next = |node: usize| {
        let l = &latches[slot[node]];
        l.next.invert_if(l.init)
    };
    // (member, rep) -> a literal implying that the pair's next states
    // differ (rep == None: that the member's next state leaves its init).
    let mut miters: HashMap<(usize, Option<usize>), SatLit> = HashMap::new();
    loop {
        // (member, rep) pairs to certify this round; rep==None ~ constant.
        let pairs: Vec<(usize, Option<usize>)> = partition
            .iter()
            .flat_map(|(is_const, members)| {
                let rep = if *is_const { None } else { Some(members[0]) };
                members
                    .iter()
                    .skip(usize::from(!*is_const))
                    .map(move |&m| (m, rep))
            })
            .collect();
        if pairs.is_empty() {
            return BTreeMap::new();
        }

        // Induction hypothesis: every candidate equivalence holds now.
        let hypothesis = unroller.new_free_lit();
        for &(member, rep) in &pairs {
            let m = unroller.lit_in_frame(norm(member), 0);
            match rep {
                None => unroller.add_clause(&[hypothesis.negate(), m.negate()]),
                Some(rep) => {
                    let r = unroller.lit_in_frame(norm(rep), 0);
                    unroller.add_clause(&[hypothesis.negate(), m.negate(), r]);
                    unroller.add_clause(&[hypothesis.negate(), m, r.negate()]);
                }
            }
        }

        // Normalized next-state value of every latch in each of this
        // round's counterexamples, one bit per counterexample.
        let mut cex_next: Vec<Vec<u64>> = vec![Vec::new(); latches.len()];
        let mut num_cex = 0usize;
        for &(member, rep) in &pairs {
            let refuted = match rep {
                None => cex_next[slot[member]].iter().any(|&w| w != 0),
                Some(rep) => cex_next[slot[member]] != cex_next[slot[rep]],
            };
            if refuted {
                continue; // an earlier counterexample already splits the pair
            }
            let miter = *miters.entry((member, rep)).or_insert_with(|| {
                let differ = unroller.new_free_lit();
                let mn = unroller.lit_in_frame(norm_next(member), 0);
                match rep {
                    // differ -> member's next breaks stuck-at-init.
                    None => unroller.add_clause(&[differ.negate(), mn]),
                    Some(rep) => {
                        // differ -> (member_next XOR rep_next).
                        let rn = unroller.lit_in_frame(norm_next(rep), 0);
                        unroller.add_clause(&[differ.negate(), mn, rn]);
                        unroller.add_clause(&[differ.negate(), mn.negate(), rn.negate()]);
                    }
                }
                differ
            });
            if matches!(unroller.solve_sat(&[hypothesis, miter]), SatResult::Sat) {
                load_counterexample(&mut unroller, &leaves, &mut vals);
                eval_words(aig, &mut vals);
                let (w, bit) = (num_cex / 64, num_cex % 64);
                for (bits, l) in cex_next.iter_mut().zip(latches) {
                    if bit == 0 {
                        bits.push(0);
                    }
                    bits[w] |= (word(&vals, l.next.invert_if(l.init)) & 1) << bit;
                }
                num_cex += 1;
            }
        }
        // Retire the hypothesis: its clauses are satisfied from now on.
        unroller.add_clause(&[hypothesis.negate()]);

        if num_cex == 0 {
            // Whole partition is inductive: emit the merges.
            let mut equiv = BTreeMap::new();
            for (member, rep) in pairs {
                let inv_member = latches[slot[member]].init;
                let target = match rep {
                    None => Lit::FALSE.invert_if(inv_member),
                    Some(rep) => Lit::new(rep, inv_member ^ latches[slot[rep]].init),
                };
                equiv.insert(member, target);
            }
            return equiv;
        }
        // Split every class by the next-state values its members take
        // across all of the round's counterexamples.
        let mut refined: Vec<(bool, Vec<usize>)> = Vec::new();
        for (is_const, members) in partition {
            let mut groups: BTreeMap<&[u64], Vec<usize>> = BTreeMap::new();
            for m in members {
                groups.entry(&cex_next[slot[m]]).or_default().push(m);
            }
            for (bits, group) in groups {
                let still_const = is_const && bits.iter().all(|&w| w == 0);
                if still_const || group.len() > 1 {
                    refined.push((still_const, group));
                }
            }
        }
        refined.sort_unstable_by_key(|(_, members)| members[0]);
        partition = refined;
    }
}

/// Combinationally-proven gate equivalences: `AND node -> representative
/// literal`, where the representative is any earlier node (input, latch,
/// gate or constant, possibly inverted) computing the *same function of
/// inputs and latches for every valuation* — reachability plays no role,
/// so the merge is unconditionally sound.
///
/// Random 64-bit patterns over free leaves partition all nodes into
/// candidate classes (complement-normalized on the first sampled bit).  One
/// incremental solver over a single free frame then certifies each member
/// against its class representative.  A proven pair is never checked again
/// and its equivalence becomes a permanent clause that helps every later
/// query.  A counterexample is resimulated 64 lanes wide (itself plus 63
/// distance-1 neighbours, each with one leaf flipped) and splits every
/// class at once; since every valuation is a valid witness here, the split
/// happens immediately.  Only AND nodes are ever merged.
///
/// Classes are only ever split by valuations on which their members
/// differ, so the loop ends at the exact functional classes: the result
/// maps each gate to the smallest node equal to it up to complement,
/// whatever the simulation words or counterexample order.
fn gate_equivalences(aig: &Aig) -> BTreeMap<usize, Lit> {
    if aig.num_ands() == 0 {
        return BTreeMap::new();
    }
    let leaves = leaf_nodes(aig);
    let mut rng = StdRng::seed_from_u64(SWEEP_SEED ^ 0xC0DE);
    let mut vals = vec![0u64; aig.num_nodes()];
    let mut signatures: Vec<Vec<u64>> = vec![Vec::with_capacity(COMB_SIM_WORDS); aig.num_nodes()];
    for _ in 0..COMB_SIM_WORDS {
        for &n in &leaves {
            vals[n] = rng.next_u64();
        }
        eval_words(aig, &mut vals);
        for (sig, &v) in signatures.iter_mut().zip(&vals) {
            sig.push(v);
        }
    }
    // Complement-normalize each signature on its first bit.
    let mut classes: BTreeMap<Vec<u64>, Vec<(usize, bool)>> = BTreeMap::new();
    for (n, raw) in signatures.iter().enumerate() {
        let inv = raw[0] & 1 == 1;
        let sig: Vec<u64> = raw.iter().map(|&w| w ^ lanes(inv)).collect();
        classes.entry(sig).or_default().push((n, inv));
    }
    let mut partition: Vec<Vec<(usize, bool)>> = classes
        .into_values()
        .map(|mut members| {
            members.sort_unstable();
            members
        })
        .filter(|members| members.len() > 1 && members.iter().any(|&(n, _)| is_and(aig, n)))
        .collect();
    partition.sort_unstable_by_key(|members| members[0].0);

    let mut unroller = Unroller::new(aig, false);
    unroller.ensure_frame(0);
    let mut proven = vec![false; aig.num_nodes()];
    // Rotates the flipped leaves across counterexamples.
    let mut flip = 0usize;
    loop {
        // The first gate not yet proven equal to its representative.  A
        // proven pair stays together (no valuation separates it), so its
        // representative never changes.
        let next = partition.iter().find_map(|members| {
            let (rep, rep_inv) = members[0];
            members[1..]
                .iter()
                .find(|&&(n, _)| is_and(aig, n) && !proven[n])
                .map(|&(n, inv)| (n, inv, rep, rep_inv))
        });
        let Some((member, inv, rep, rep_inv)) = next else {
            break;
        };
        let m = unroller.lit_in_frame(Lit::new(member, inv), 0);
        let r = unroller.lit_in_frame(Lit::new(rep, rep_inv), 0);
        let activate = unroller.new_free_lit();
        // activate -> (m XOR r).
        unroller.add_clause(&[activate.negate(), m, r]);
        unroller.add_clause(&[activate.negate(), m.negate(), r.negate()]);
        if matches!(unroller.solve_sat(&[activate]), SatResult::Sat) {
            load_counterexample(&mut unroller, &leaves, &mut vals);
            for lane in 1..64 {
                vals[leaves[(flip + lane) % leaves.len()]] ^= 1 << lane;
            }
            flip += 63;
            eval_words(aig, &mut vals);
            partition = refine_gate_classes(aig, partition, &vals);
        } else {
            // Combinational equivalence holds for every valuation.
            proven[member] = true;
            unroller.add_clause(&[m.negate(), r]);
            unroller.add_clause(&[m, r.negate()]);
        }
        // Retire the miter (after the model above has been read: adding a
        // clause resets the solver's assignment).
        unroller.add_clause(&[activate.negate()]);
    }
    let mut equiv = BTreeMap::new();
    for members in &partition {
        let (rep, rep_inv) = members[0];
        for &(n, inv) in &members[1..] {
            if is_and(aig, n) {
                equiv.insert(n, Lit::new(rep, inv ^ rep_inv));
            }
        }
    }
    equiv
}

/// Splits every candidate gate class by the complement-normalized value its
/// members take in the 64 lanes of `vals`; parts left without a second
/// member or without an AND node are dropped.
fn refine_gate_classes(
    aig: &Aig,
    partition: Vec<Vec<(usize, bool)>>,
    vals: &[u64],
) -> Vec<Vec<(usize, bool)>> {
    let mut refined: Vec<Vec<(usize, bool)>> = Vec::new();
    for members in partition {
        let mut groups: Vec<(u64, Vec<(usize, bool)>)> = Vec::new();
        for (n, inv) in members {
            let w = vals[n] ^ lanes(inv);
            match groups.iter_mut().find(|(key, _)| *key == w) {
                Some((_, group)) => group.push((n, inv)),
                None => groups.push((w, vec![(n, inv)])),
            }
        }
        refined.extend(
            groups
                .into_iter()
                .map(|(_, group)| group)
                .filter(|group| group.len() > 1 && group.iter().any(|&(n, _)| is_and(aig, n))),
        );
    }
    refined.sort_unstable_by_key(|members| members[0].0);
    refined
}

fn is_and(aig: &Aig, node: usize) -> bool {
    matches!(aig.node(node), Node::And(..))
}

/// The analysis half of one pass: every fact the pass merges on, as
/// `(node, representative)` pairs sorted by node.  Constants win over
/// latch merges, which win over gate merges; a representative always has
/// a smaller node index than its node.  Newly proven constant latches are
/// appended to `constants`.
fn analyze(model: &Model, constants: &mut Vec<(String, bool)>) -> Vec<(usize, Lit)> {
    let aig = &model.aig;
    let consts = constant_latches(aig);
    let latch_equiv = latch_equivalences(model);
    let gate_equiv = gate_equivalences(aig);
    let mut stuck: Vec<(usize, bool)> = consts.clone();
    stuck.extend(latch_equiv.iter().filter_map(|(&n, &rep)| {
        if rep.is_const() {
            Some((n, rep == Lit::TRUE))
        } else {
            None
        }
    }));
    stuck.sort_unstable();
    for (node, value) in stuck {
        let name = aig.name_of(node).unwrap_or("latch").to_string();
        if !constants.iter().any(|(n, _)| n == &name) {
            constants.push((name, value));
        }
    }
    let mut facts: BTreeMap<usize, Lit> = gate_equiv;
    facts.extend(latch_equiv);
    for (node, value) in consts {
        facts.insert(node, if value { Lit::TRUE } else { Lit::FALSE });
    }
    facts.into_iter().collect()
}

/// The rebuild half of one pass: substitutes every fact's representative
/// for its node, rebuilds the reachable logic in node order through the
/// two-level rewrite rules and drops dead nodes.
///
/// `facts` must be sorted by node, with every node in range and every
/// representative at a smaller index (what `analyze` produces and
/// [`replay`] checks); otherwise this panics.  Whether the facts hold is
/// the caller's concern: [`optimize`] derives them, [`replay`] checks them.
///
/// Public for tests, which use it to compute the model a forged witness
/// claims to rebuild; everything else wants [`replay`], which checks the
/// facts first.
pub fn rebuild(model: &Model, facts: &[(usize, Lit)]) -> Model {
    let aig = &model.aig;
    // Where a node's fanout should be redirected, if anywhere.  Targets
    // always have a smaller node index, so redirections resolve in node
    // order without chains.
    let mut redirect: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    for &(node, rep) in facts {
        redirect[node] = Some(rep);
    }
    // Dense `node -> latch` table.
    let mut latch_of: Vec<Option<&Latch>> = vec![None; aig.num_nodes()];
    for latch in aig.latches() {
        latch_of[latch.node] = Some(latch);
    }

    // ------------------------------------------------------------------
    // Reachability from every root, with redirected nodes as cut points:
    // a merged or constant node contributes its representative's cone
    // instead of its own.
    // ------------------------------------------------------------------
    let mut roots: Vec<Lit> = Vec::new();
    roots.extend(model.bads.iter().map(|b| b.lit));
    roots.extend(model.covers.iter().map(|c| c.lit));
    roots.extend_from_slice(&model.constraints);
    for p in model.liveness.iter().chain(&model.fairness) {
        roots.push(p.trigger);
        roots.push(p.target);
    }
    let mut alive = vec![false; aig.num_nodes()];
    alive[0] = true;
    let mut visited = vec![false; aig.num_nodes()];
    visited[0] = true;
    let mut worklist: Vec<usize> = roots.iter().map(|l| l.node()).collect();
    while let Some(node) = worklist.pop() {
        if visited[node] {
            continue;
        }
        visited[node] = true;
        if let Some(rep) = redirect[node] {
            worklist.push(rep.node());
            continue;
        }
        alive[node] = true;
        match aig.node(node) {
            Node::False | Node::Input => {}
            Node::Latch => worklist.push(latch_of[node].expect("latch node").next.node()),
            Node::And(a, b) => {
                worklist.push(a.node());
                worklist.push(b.node());
            }
        }
    }

    // ------------------------------------------------------------------
    // Rebuild in original node order (deterministic indices), substituting
    // constants and funnelling every gate through the rewrite rules.
    // ------------------------------------------------------------------
    let mut out = Aig::new();
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    map[0] = Some(Lit::FALSE);
    let map_lit = |map: &[Option<Lit>], l: Lit| -> Lit {
        map[l.node()]
            .expect("mapped node")
            .invert_if(l.is_inverted())
    };
    let mut input_name_of: Vec<&str> = vec![""; aig.num_nodes()];
    for (i, &node) in aig.inputs().iter().enumerate() {
        input_name_of[node] = aig.input_name(i);
    }
    for idx in 1..aig.num_nodes() {
        if let Some(rep) = redirect[idx] {
            // Redirected fanout reads the representative's rebuilt literal
            // (already mapped: representatives have smaller indices).
            map[idx] = map[rep.node()].map(|mapped| mapped.invert_if(rep.is_inverted()));
            continue;
        }
        if !alive[idx] {
            continue;
        }
        let new_lit = match aig.node(idx) {
            Node::False => unreachable!("only node 0 is the constant"),
            Node::Input => out.add_input(input_name_of[idx]),
            Node::Latch => {
                let latch = latch_of[idx].expect("alive latch exists");
                out.add_latch(aig.name_of(idx).unwrap_or("latch"), latch.init)
            }
            Node::And(a, b) => {
                let lit = {
                    let (na, nb) = (map_lit(&map, a), map_lit(&map, b));
                    and_rewrite(&mut out, na, nb)
                };
                if let Some(name) = aig.name_of(idx) {
                    if !lit.is_const() {
                        out.set_name(lit, name);
                    }
                }
                lit
            }
        };
        map[idx] = Some(new_lit);
    }
    for latch in aig.latches() {
        if alive[latch.node] && redirect[latch.node].is_none() {
            let new_latch = map_lit(&map, Lit::new(latch.node, false));
            let new_next = map_lit(&map, latch.next);
            out.set_latch_next(new_latch, new_next);
        }
    }

    // ------------------------------------------------------------------
    // Remap the property lists (order preserved).
    // ------------------------------------------------------------------
    let mut rebuilt = Model::new(out);
    rebuilt.bads = model
        .bads
        .iter()
        .map(|b| BadProperty {
            name: b.name.clone(),
            lit: map_lit(&map, b.lit),
        })
        .collect();
    rebuilt.covers = model
        .covers
        .iter()
        .map(|c| CoverProperty {
            name: c.name.clone(),
            lit: map_lit(&map, c.lit),
        })
        .collect();
    rebuilt.constraints = model
        .constraints
        .iter()
        .map(|&c| map_lit(&map, c))
        .collect();
    let map_resp = |p: &ResponseProperty| ResponseProperty {
        name: p.name.clone(),
        trigger: map_lit(&map, p.trigger),
        target: map_lit(&map, p.target),
    };
    rebuilt.liveness = model.liveness.iter().map(map_resp).collect();
    rebuilt.fairness = model.fairness.iter().map(map_resp).collect();
    rebuilt
}

/// The two inputs of an AND node, or `None` for leaves.
fn gate_of(aig: &Aig, l: Lit) -> Option<(Lit, Lit)> {
    match aig.node(l.node()) {
        Node::And(a, b) => Some((a, b)),
        _ => None,
    }
}

/// Builds `a & b` applying the classic two-level AIG rewrite rules on top
/// of [`Aig::and`]'s one-level folding and structural hashing.
///
/// With `g = x & y` the implemented identities are:
///
/// * subsumption — `g & x = g`;
/// * contradiction — `g & !x = 0`, and `(x & y) & (u & v) = 0` when the
///   gates share a complemented literal;
/// * or-absorption — `!g & !x = !x`;
/// * substitution — `!g & x = x & !y`;
/// * resolution — `!(x & y) & !(x & !y) = !x`.
///
/// Each rule either returns an existing literal or recurses on a strictly
/// shallower pair, so the rewrite terminates; because rules fire at
/// construction time, a model rebuilt through this function contains none
/// of the redundant shapes, which is what makes [`optimize`] idempotent.
fn and_rewrite(aig: &mut Aig, a: Lit, b: Lit) -> Lit {
    if a.is_const() || b.is_const() || a == b || a == b.invert() {
        return aig.and(a, b);
    }
    for (x, y) in [(a, b), (b, a)] {
        if let Some((x0, x1)) = gate_of(aig, x) {
            if !x.is_inverted() {
                // x = x0 & x1
                if y == x0 || y == x1 {
                    return x; // subsumption
                }
                if y == x0.invert() || y == x1.invert() {
                    return Lit::FALSE; // contradiction
                }
            } else {
                // x = !(x0 & x1)
                if y == x0.invert() || y == x1.invert() {
                    return y; // or-absorption
                }
                if y == x0 {
                    return and_rewrite(aig, y, x1.invert()); // substitution
                }
                if y == x1 {
                    return and_rewrite(aig, y, x0.invert());
                }
            }
        }
    }
    if !a.is_inverted() && !b.is_inverted() {
        if let (Some((a0, a1)), Some((b0, b1))) = (gate_of(aig, a), gate_of(aig, b)) {
            // (a0 & a1) & (b0 & b1) with a shared complemented literal.
            for u in [a0, a1] {
                for v in [b0, b1] {
                    if u == v.invert() {
                        return Lit::FALSE;
                    }
                }
            }
        }
    }
    if a.is_inverted() && b.is_inverted() {
        if let (Some((a0, a1)), Some((b0, b1))) = (gate_of(aig, a), gate_of(aig, b)) {
            // Resolution: !(x & y) & !(x & !y) = !x.
            for (p, q) in [(a0, a1), (a1, a0)] {
                for (r, s) in [(b0, b1), (b1, b0)] {
                    if p == r && q == s.invert() {
                        return p.invert();
                    }
                }
            }
        }
    }
    aig.and(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use std::collections::HashMap;

    /// busy bit + a latch provably stuck at reset + a dead counter.
    fn sample_model() -> Model {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let busy = aig.add_latch("busy", false);
        let next_busy = aig.or(busy, req);
        aig.set_latch_next(busy, next_busy);
        // stuck_q holds itself: constant at its (false) reset value.
        let stuck = aig.add_latch("stuck_q", false);
        aig.set_latch_next(stuck, stuck);
        // The bad observes busy AND the stuck latch.
        let bad = aig.and(busy, stuck.invert());
        // Dead free-running toggle no root observes.
        let toggle = aig.add_latch("toggle", false);
        aig.set_latch_next(toggle, toggle.invert());
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "busy_while_clear".into(),
            lit: bad,
        });
        model
    }

    #[test]
    fn ternary_fixpoint_finds_stuck_latches() {
        let model = sample_model();
        let consts = constant_latches(&model.aig);
        let names: Vec<(&str, bool)> = consts
            .iter()
            .map(|&(node, v)| (model.aig.name_of(node).unwrap(), v))
            .collect();
        assert_eq!(names, vec![("stuck_q", false)]);
    }

    #[test]
    fn constant_chains_propagate_through_latches() {
        // b follows a, a is stuck at true: both are constant.
        let mut aig = Aig::new();
        let a = aig.add_latch("a", true);
        aig.set_latch_next(a, a);
        let b = aig.add_latch("b", true);
        aig.set_latch_next(b, a);
        let consts = constant_latches(&aig);
        assert_eq!(consts.len(), 2);
        assert!(consts.iter().all(|&(_, v)| v));
    }

    #[test]
    fn optimize_sweeps_constants_and_dead_state() {
        let model = sample_model();
        assert_eq!(model.aig.num_latches(), 3);
        let opt = optimize(&model);
        // stuck_q substituted, toggle dead: only busy survives.
        assert_eq!(opt.model.aig.num_latches(), 1);
        assert_eq!(
            opt.model
                .aig
                .latches()
                .iter()
                .filter_map(|l| opt.model.aig.name_of(l.node))
                .collect::<Vec<_>>(),
            vec!["busy"]
        );
        assert_eq!(opt.constant_latches, vec![("stuck_q".to_string(), false)]);
        // bad = busy & !stuck = busy & !false = busy (no gate needed).
        assert_eq!(opt.model.aig.num_ands(), 1); // just busy | req
    }

    #[test]
    fn rewrite_collapses_constant_branch_muxes() {
        // mux(s, TRUE, e) lowered the word-level way: or(s, and(!s, e)),
        // i.e. two gates where one suffices.
        let mut aig = Aig::new();
        let s = aig.add_input("s");
        let e = aig.add_input("e");
        let inner = aig.and(s.invert(), e);
        let redundant = aig.or(s, inner);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "m".into(),
            lit: redundant,
        });
        assert_eq!(model.aig.num_ands(), 2);
        let opt = optimize(&model);
        assert_eq!(opt.model.aig.num_ands(), 1, "or(s, !s&e) must become s|e");
    }

    #[test]
    fn optimize_is_idempotent() {
        let model = sample_model();
        let once = optimize(&model).model;
        let twice = optimize(&once).model;
        assert_eq!(fingerprint(&once), fingerprint(&twice));
    }

    #[test]
    fn optimized_model_agrees_with_original_on_random_inputs() {
        let model = sample_model();
        let opt = optimize(&model).model;
        let mut orig_sim = Simulator::new(&model);
        let mut opt_sim = Simulator::new(&opt);
        // xorshift-style deterministic input stream.
        let mut seed = 0x9E3779B9u32;
        for _ in 0..64 {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            let mut inputs = HashMap::new();
            inputs.insert("req".to_string(), seed & 1 == 1);
            let orig_fired = !orig_sim.step_named(&inputs).is_empty();
            let opt_fired = !opt_sim.step_named(&inputs).is_empty();
            assert_eq!(orig_fired, opt_fired, "verdicts must agree every cycle");
        }
    }

    #[test]
    fn property_order_and_names_survive() {
        let mut model = sample_model();
        let lit = model.bads[0].lit;
        model.covers.push(CoverProperty {
            name: "c0".into(),
            lit,
        });
        model.liveness.push(ResponseProperty {
            name: "resp".into(),
            trigger: lit,
            target: lit.invert(),
        });
        let opt = optimize(&model).model;
        assert_eq!(opt.bads[0].name, "busy_while_clear");
        assert_eq!(opt.covers[0].name, "c0");
        assert_eq!(opt.liveness[0].name, "resp");
        assert_eq!(opt.constraints.len(), model.constraints.len());
    }

    /// Latches `a`, `b` (both follow `x`, reset 0), `c` (follows `!x`,
    /// reset 1) and `d` (toggles on `x`, reset 0), a gate `g` and a
    /// structurally different copy `h` of it, all observed by one bad.
    fn merge_model() -> (Model, [Lit; 7]) {
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let a = aig.add_latch("a", false);
        let b = aig.add_latch("b", false);
        let c = aig.add_latch("c", true);
        let d = aig.add_latch("d", false);
        aig.set_latch_next(a, x);
        aig.set_latch_next(b, x);
        aig.set_latch_next(c, x.invert());
        let toggled = aig.xor(d, x);
        aig.set_latch_next(d, toggled);
        let g = aig.and(x, a);
        let h = aig.and(g, a);
        let ab = aig.and(b, c.invert());
        let abd = aig.and(ab, d);
        let bad = aig.and(abd, h);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "merged".into(),
            lit: bad,
        });
        (model, [x, a, b, c, d, g, h])
    }

    fn one_pass_witness(mut facts: Vec<(usize, Lit)>) -> OptWitness {
        facts.sort_unstable_by_key(|&(node, _)| node);
        OptWitness {
            passes: vec![facts],
        }
    }

    #[test]
    fn an_optimizer_witness_replays_to_the_optimized_model() {
        for model in [sample_model(), merge_model().0] {
            let result = optimize(&model);
            assert!(!result.witness.passes.is_empty());
            let replayed = replay(&model, &result.witness).expect("own witness checks");
            assert_eq!(fingerprint(&replayed), result.fingerprint);
            assert_eq!(fingerprint(&result.model), result.fingerprint);
        }
        // Genuine facts: b = a, c = !a, h = g.
        let (model, [_, a, b, c, _, g, h]) = merge_model();
        let genuine = one_pass_witness(vec![(b.node(), a), (c.node(), a.invert()), (h.node(), g)]);
        assert!(replay(&model, &genuine).is_some());
    }

    #[test]
    fn forged_witnesses_are_rejected() {
        let (model, [x, a, b, c, d, g, h]) = merge_model();
        let n = model.aig.num_nodes();
        let forgeries: Vec<(&str, OptWitness)> = vec![
            // Same reset value, different next state: fails induction.
            ("false latch merge", one_pass_witness(vec![(d.node(), a)])),
            // g = x & a is not x.
            ("false gate merge", one_pass_witness(vec![(g.node(), x)])),
            (
                "flipped latch polarity",
                one_pass_witness(vec![(b.node(), a.invert())]),
            ),
            (
                "flipped gate polarity",
                one_pass_witness(vec![(h.node(), g.invert())]),
            ),
            ("reset disagreement", one_pass_witness(vec![(c.node(), a)])),
            (
                "constant off its reset",
                one_pass_witness(vec![(a.node(), Lit::TRUE)]),
            ),
            (
                "representative not earlier",
                one_pass_witness(vec![(a.node(), b)]),
            ),
            ("self representative", one_pass_witness(vec![(b.node(), b)])),
            (
                "node out of range",
                one_pass_witness(vec![(n + 3, Lit::FALSE)]),
            ),
            (
                "representative out of range",
                one_pass_witness(vec![(b.node(), Lit::new(n + 3, false))]),
            ),
            ("node zero", one_pass_witness(vec![(0, Lit::FALSE)])),
            (
                "input redirected",
                one_pass_witness(vec![(x.node(), Lit::FALSE)]),
            ),
            ("latch onto a gate", one_pass_witness(vec![(d.node(), x)])),
            (
                "duplicate fact",
                OptWitness {
                    passes: vec![vec![(b.node(), a), (b.node(), a)]],
                },
            ),
            (
                "unsorted facts",
                OptWitness {
                    passes: vec![vec![(c.node(), a.invert()), (b.node(), a)]],
                },
            ),
            (
                "too many passes",
                OptWitness {
                    passes: vec![Vec::new(); MAX_PASSES + 1],
                },
            ),
        ];
        for (what, witness) in forgeries {
            assert!(replay(&model, &witness).is_none(), "{what} was accepted");
        }
        // A later pass is checked against the model the earlier one built:
        // the raw model's last gate is out of range there.
        let mut extended = optimize(&model).witness;
        extended.passes.push(vec![(n - 1, Lit::FALSE)]);
        assert!(replay(&model, &extended).is_none());
    }

    #[test]
    fn constraints_guard_latch_facts_but_not_gate_facts() {
        // `b` follows `x | y` and `a` follows `x`; the constraint `!y`
        // makes them equal on every state an engine evaluates.
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let a = aig.add_latch("a", false);
        let b = aig.add_latch("b", false);
        aig.set_latch_next(a, x);
        let x_or_y = aig.or(x, y);
        aig.set_latch_next(b, x_or_y);
        let x_not_y = aig.and(x, y.invert());
        let both = aig.and(a, b);
        let bad = aig.and(both, x_not_y);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "p".into(),
            lit: bad,
        });
        model.constraints.push(y.invert());
        let latch_fact = one_pass_witness(vec![(b.node(), a)]);
        assert!(replay(&model, &latch_fact).is_some());
        // `x & !y` equals `x` only where the constraint holds, but an
        // engine also evaluates the constraint's own cone on the state
        // that violates it: the gate fact must hold unconditionally.
        let gate_fact = one_pass_witness(vec![(x_not_y.node(), x)]);
        assert!(replay(&model, &gate_fact).is_none());
        let mut unconstrained = model.clone();
        unconstrained.constraints.clear();
        assert!(replay(&unconstrained, &latch_fact).is_none());
    }
}
