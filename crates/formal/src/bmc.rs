//! Bounded model checking and k-induction over a [`Model`].
//!
//! * [`check_safety`] searches for a counterexample to a bad-state property
//!   with increasing bound; when none is found it attempts a k-induction
//!   proof strengthened with simple-path (loop-free) constraints, which makes
//!   the method complete for finite-state designs given enough depth.
//! * [`check_cover`] searches for a witness trace reaching a cover target.

use crate::aig::Lit;
use crate::interrupt::{Interrupt, InterruptReason};
use crate::model::Model;
use crate::pdr::{FrameLemma, PdrOptions, PdrResult};
use crate::sat::{ClausePool, SatLit, SolverConfig, SolverStats};
use crate::trace::Trace;
use crate::unroll::{SeedHint, Unroller};
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling the bounded engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmcOptions {
    /// Maximum bound explored when searching for counterexamples.
    pub max_depth: usize,
    /// Maximum induction depth attempted when proving.
    pub max_induction: usize,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            max_depth: 40,
            max_induction: 30,
        }
    }
}

/// Outcome of a safety check.
#[derive(Debug, Clone, PartialEq)]
pub enum SafetyResult {
    /// The property holds; proven by k-induction at the recorded depth.
    Proven {
        /// Induction depth at which the proof closed.
        induction_depth: usize,
    },
    /// A counterexample trace was found.
    Violated(Trace),
    /// Neither a counterexample nor a proof was found within the bounds.
    Unknown {
        /// Largest counterexample-free bound explored.
        explored_depth: usize,
    },
    /// The check was preempted by its [`Interrupt`] handle (deadline,
    /// budget or cancellation) before reaching a verdict.
    Interrupted,
}

impl SafetyResult {
    /// `true` when the property was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, SafetyResult::Proven { .. })
    }

    /// `true` when a counterexample was found.
    pub fn is_violated(&self) -> bool {
        matches!(self, SafetyResult::Violated(_))
    }

    /// The counterexample trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            SafetyResult::Violated(t) => Some(t),
            _ => None,
        }
    }
}

/// Outcome of a cover check.
#[derive(Debug, Clone, PartialEq)]
pub enum CoverResult {
    /// A witness trace reaching the target was found.
    Covered(Trace),
    /// The target was proven unreachable.
    Unreachable,
    /// No witness found within the bound.
    Unknown {
        /// Largest witness-free bound explored.
        explored_depth: usize,
    },
    /// The check was preempted by its [`Interrupt`] handle (deadline,
    /// budget or cancellation) before reaching a verdict.
    Interrupted,
}

fn apply_constraints(unroller: &mut Unroller<'_>, constraints: &[Lit], frame: usize) {
    for &c in constraints {
        unroller.constrain(c, frame, true);
    }
}

/// Extracts a counterexample trace of length `depth + 1` frames from a
/// satisfiable unrolling.
fn extract_trace(model: &Model, unroller: &mut Unroller<'_>, depth: usize) -> Trace {
    let mut trace = Trace::new(depth + 1);
    let input_lits: Vec<(String, Lit)> = model
        .aig
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &node)| (model.aig.input_name(i).to_string(), Lit::new(node, false)))
        .collect();
    let latch_lits: Vec<(String, Lit)> = model
        .aig
        .latches()
        .iter()
        .map(|l| {
            let name = model.aig.name_of(l.node).unwrap_or("latch").to_string();
            (name, Lit::new(l.node, false))
        })
        .collect();
    for frame in 0..=depth {
        for (name, lit) in &input_lits {
            let value = unroller.model_value(*lit, frame);
            trace.record(frame, name, value, true);
        }
        for (name, lit) in &latch_lits {
            let value = unroller.model_value(*lit, frame);
            trace.record(frame, name, value, false);
        }
    }
    trace
}

/// Checks a single bad-state property of `model`.
///
/// `bad_index` selects an entry of [`Model::bads`].
///
/// # Panics
///
/// Panics if `bad_index` is out of range.
pub fn check_safety(model: &Model, bad_index: usize, options: &BmcOptions) -> SafetyResult {
    check_safety_detailed(model, bad_index, options, SolverConfig::default()).0
}

/// Like [`check_safety`], with an explicit solver configuration; also
/// returns the aggregated [`SolverStats`] of the BMC and induction solvers
/// so callers can attribute runtime to search work.
pub fn check_safety_detailed(
    model: &Model,
    bad_index: usize,
    options: &BmcOptions,
    solver: SolverConfig,
) -> (SafetyResult, SolverStats) {
    check_safety_budgeted(model, bad_index, options, solver, &Interrupt::none())
}

/// Like [`check_safety_detailed`], preemptible: the [`Interrupt`] handle
/// is polled at every depth step and inside the SAT search loops; when
/// it fires the check returns [`SafetyResult::Interrupted`].
pub fn check_safety_budgeted(
    model: &Model,
    bad_index: usize,
    options: &BmcOptions,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (SafetyResult, SolverStats) {
    let _span = crate::telemetry::span("bmc.solve", &model.bads[bad_index].name);
    let (result, stats) = check_safety_impl(model, bad_index, options, solver, interrupt);
    crate::telemetry::count_solver("bmc", &stats);
    (result, stats)
}

/// The uninstrumented BMC + k-induction loop behind [`check_safety_detailed`].
fn check_safety_impl(
    model: &Model,
    bad_index: usize,
    options: &BmcOptions,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (SafetyResult, SolverStats) {
    let bad = model.bads[bad_index].lit;

    // Phase 1: BMC — look for a counterexample with increasing depth.
    let mut bmc = Unroller::with_config(&model.aig, true, solver);
    let mut induction = Induction::new(model, bad, solver);
    bmc.set_interrupt(interrupt.clone());
    induction.unroller.set_interrupt(interrupt.clone());
    for depth in 0..=options.max_depth {
        #[cfg(any(test, feature = "fault-injection"))]
        crate::faults::point("bmc.depth_step");
        if interrupt.poll().is_some() {
            return (SafetyResult::Interrupted, bmc.stats() + induction.stats());
        }
        apply_constraints(&mut bmc, &model.constraints, depth);
        if bmc.solve_with(&[(bad, depth, true)]) {
            // A satisfiable answer is a genuine model even if the
            // interrupt fired concurrently: extract the counterexample.
            let trace = extract_trace(model, &mut bmc, depth);
            let stats = bmc.stats() + induction.stats();
            return (SafetyResult::Violated(trace), stats);
        }
        if interrupt.triggered().is_some() {
            // The "no counterexample at this depth" answer may be an
            // interrupted solve in disguise; never unroll further.
            return (SafetyResult::Interrupted, bmc.stats() + induction.stats());
        }
        // Try to close a k-induction proof at this depth before unrolling
        // further; `depth` counterexample-free frames form the base case.
        if depth <= options.max_induction && try_induction_at(depth) && induction.step_holds(depth)
        {
            let stats = bmc.stats() + induction.stats();
            if interrupt.triggered().is_some() {
                // `step_holds` negates a boolean solve: an interrupted
                // query would read as "step holds".  The latch check
                // keeps an interrupted solve from becoming a proof.
                return (SafetyResult::Interrupted, stats);
            }
            return (
                SafetyResult::Proven {
                    induction_depth: depth,
                },
                stats,
            );
        }
        if interrupt.triggered().is_some() {
            return (SafetyResult::Interrupted, bmc.stats() + induction.stats());
        }
    }
    let stats = bmc.stats() + induction.stats();
    (
        SafetyResult::Unknown {
            explored_depth: options.max_depth,
        },
        stats,
    )
}

/// Where [`minimize_counterexample`] takes its PDR frame lemmas from.
#[derive(Debug, Clone, Copy)]
pub enum MinimizeLemmas<'a> {
    /// The lemmas of the PDR run that found the witness (see
    /// [`crate::pdr::check_pdr_budgeted_lemmas`]).
    Found(&'a [FrameLemma]),
    /// Harvest them first: run PDR with these bounds, its frame cap
    /// lowered to the witness depth.  PDR stops at a frontier no deeper
    /// than the shortest counterexample, and the cap only matters once the
    /// frontier passes it, so the capped run is the run PDR makes without
    /// the cap: its lemmas are the ones a PDR-found trace brings along.
    Harvest(&'a PdrOptions),
    /// Walk without lemmas (PDR is disabled).
    None,
}

/// Canonicalizes a safety counterexample to the *minimal* depth.
///
/// PDR and the explicit engine return correct but not necessarily
/// shortest traces, the fuzzer's hits land wherever the stimulus happened
/// to strike, and a portfolio race's trace depends on which solver won.
/// This walk makes the reported trace length a function of the model
/// alone: one incremental BMC unrolling goes up from depth 0 to the
/// witness depth and returns the first satisfiable depth's trace.  Two
/// kinds of implied clauses keep the walk cheap without changing where it
/// stops:
///
/// * after each refuted depth `d`, `¬bad@d` is asserted as a unit (no
///   execution reaches `bad` at `d`, so none passes through it on the way
///   deeper);
/// * each PDR frame lemma is asserted at the frames `0..=through` it
///   covers (see [`RaceOptions::lemmas`]); PDR has already proven most of
///   the low depths bad-free, and the lemmas hand those facts over instead
///   of letting every depth's query rediscover them.
///
/// No induction solver is built: the property is known to fail.  The
/// walk never claims more than the witness does; an interrupt anywhere
/// (during the lemma harvest or the walk) returns `witness` unchanged, and
/// so would a walk that reached the witness depth without a satisfiable
/// query (a witness that does not replay).  The solver work, harvest
/// included, is counted as `solver.minimize.*`, and no `bmc.solve` or
/// `pdr.solve` span is opened: the caller's span is the only one.
///
/// # Panics
///
/// Panics if `bad_index` is out of range.
pub fn minimize_counterexample(
    model: &Model,
    bad_index: usize,
    witness: Trace,
    lemmas: MinimizeLemmas<'_>,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Trace, SolverStats) {
    let (minimal, stats) = minimal_trace(model, bad_index, &witness, lemmas, solver, interrupt);
    crate::telemetry::count_solver("minimize", &stats);
    (minimal.unwrap_or(witness), stats)
}

/// The walk behind [`minimize_counterexample`]; `None` keeps the witness.
fn minimal_trace(
    model: &Model,
    bad_index: usize,
    witness: &Trace,
    lemmas: MinimizeLemmas<'_>,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Trace>, SolverStats) {
    let Some(witness_depth) = witness.len().checked_sub(1) else {
        return (None, SolverStats::default());
    };
    let bad = model.bads[bad_index].lit;
    let mut stats = SolverStats::default();
    let harvested;
    let lemmas: &[FrameLemma] = match lemmas {
        MinimizeLemmas::Found(lemmas) => lemmas,
        MinimizeLemmas::Harvest(pdr) => {
            let capped = PdrOptions {
                max_frames: witness_depth,
                ..*pdr
            };
            let (result, s, lemmas) = crate::pdr::run_pdr(model, bad, &capped, solver, interrupt);
            stats += s;
            if matches!(result, PdrResult::Interrupted) {
                return (None, stats);
            }
            harvested = lemmas;
            &harvested
        }
        MinimizeLemmas::None => &[],
    };
    let mut bmc = Unroller::with_config(&model.aig, true, solver);
    bmc.set_interrupt(interrupt.clone());
    // Every lemma goes in up front, at each frame it covers, so the walk's
    // first queries already see PDR's reachability facts on all of them.
    if let Some(deepest) = lemmas.iter().map(|l| l.through).max() {
        for frame in 0..=deepest.min(witness_depth) {
            apply_lemmas(&mut bmc, lemmas, frame);
        }
    }
    for depth in 0..=witness_depth {
        #[cfg(any(test, feature = "fault-injection"))]
        crate::faults::point("minimize.depth_step");
        if interrupt.poll().is_some() {
            break;
        }
        apply_constraints(&mut bmc, &model.constraints, depth);
        if bmc.solve_with(&[(bad, depth, true)]) {
            // A satisfiable answer is a genuine execution even if the
            // interrupt fired concurrently.
            let trace = extract_trace(model, &mut bmc, depth);
            return (Some(trace), stats + bmc.stats());
        }
        if interrupt.triggered().is_some() {
            // The "refuted" answer may be an interrupted solve.
            break;
        }
        bmc.constrain(bad, depth, false);
    }
    (None, stats + bmc.stats())
}

/// Induction is attempted at every small depth and then every third depth.
fn try_induction_at(depth: usize) -> bool {
    depth <= 3 || depth.is_multiple_of(3)
}

/// Incrementally maintained k-induction instance.
///
/// All constraints of the inductive step grow monotonically with the depth
/// (`!bad` in earlier frames, per-frame invariant constraints, pairwise
/// loop-free-path constraints), while `bad` in the last frame is only ever
/// *assumed* — so one shared transition-relation unrolling serves every
/// attempt, each deeper attempt asserting just the delta instead of
/// re-encoding the whole instance from scratch.
struct Induction<'a> {
    model: &'a Model,
    bad: Lit,
    unroller: Unroller<'a>,
    latch_lits: Vec<Lit>,
    /// Deepest frame already constrained, or `None` before the first
    /// attempt.
    constrained: Option<usize>,
}

impl Induction<'_> {
    fn stats(&self) -> SolverStats {
        self.unroller.stats()
    }
}

impl<'a> Induction<'a> {
    fn new(model: &'a Model, bad: Lit, solver: SolverConfig) -> Self {
        Induction {
            model,
            bad,
            // No initial-state constraint: the step starts from any state.
            unroller: Unroller::with_config(&model.aig, false, solver),
            latch_lits: model
                .aig
                .latches()
                .iter()
                .map(|l| Lit::new(l.node, false))
                .collect(),
            constrained: None,
        }
    }

    /// Asserts that at least one latch differs between frames `i` and `j`.
    fn assert_frames_differ(&mut self, i: usize, j: usize) {
        let mut diffs: Vec<crate::sat::SatLit> = Vec::with_capacity(self.latch_lits.len());
        for idx in 0..self.latch_lits.len() {
            let lit = self.latch_lits[idx];
            let a = self.unroller.lit_in_frame(lit, i);
            let b = self.unroller.lit_in_frame(lit, j);
            let d = self.unroller.new_free_lit();
            self.unroller.add_clause(&[d.negate(), a, b]);
            self.unroller
                .add_clause(&[d.negate(), a.negate(), b.negate()]);
            diffs.push(d);
        }
        self.unroller.add_clause(&diffs);
    }

    /// Checks whether the k-induction step holds at depth `k`: from any
    /// loop-free path of `k + 1` states that satisfies the constraints and
    /// avoids the bad state in its first `k` frames, the last frame cannot
    /// be bad.
    fn step_holds(&mut self, k: usize) -> bool {
        let new_from = self.constrained.map_or(0, |p| p + 1);
        for frame in new_from..=k {
            apply_constraints(&mut self.unroller, &self.model.constraints, frame);
        }
        // `!bad` must cover frames 0..k; earlier attempts asserted it up to
        // their own `k - 1`.
        let bad_from = self.constrained.map_or(0, |p| p);
        for frame in bad_from..k {
            self.unroller.constrain(self.bad, frame, false);
        }
        // New pairwise simple-path constraints involving the new frames.
        if !self.latch_lits.is_empty() {
            for j in new_from..=k {
                for i in 0..j {
                    self.assert_frames_differ(i, j);
                }
            }
        }
        self.constrained = Some(k);
        // `bad` at frame `k` is assumed, not asserted, so deeper attempts
        // remain satisfiable-compatible with this instance.
        !self.unroller.solve_with(&[(self.bad, k, true)])
    }
}

/// Clause traffic through the shared learnt-clause pools of one
/// portfolio race (see [`race_safety_budgeted`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingTraffic {
    /// Learnt clauses accepted into the shared pools.
    pub exported: u64,
    /// Shared clauses attached by an importing solver.
    pub imported: u64,
    /// Export candidates rejected by the glue bound or deduplication.
    pub filtered: u64,
}

/// Parameters of a clause-sharing portfolio race (see
/// [`race_safety_budgeted`]).
#[derive(Debug, Clone)]
pub struct RaceOptions {
    /// One racer per configuration, taking round-robin turns.  An empty
    /// list degenerates to a single default-configuration racer.
    pub configs: Vec<SolverConfig>,
    /// Conflict budget of one racer turn.  Clamped to at least 1.
    pub quantum: u64,
    /// LBD bound above which learnt clauses are not shared (see
    /// [`ClausePool::new`]).
    pub glue_bound: u32,
    /// Reachability lemmas harvested from an inconclusive PDR run on the
    /// same cone, asserted into every racer's BMC unrolling (frames
    /// `0..=through` only, where each is implied).
    pub lemmas: Vec<FrameLemma>,
    /// Cross-property phase/activity seeds from a COI-overlapping
    /// sibling cone, installed on every racer (see
    /// [`crate::unroll::SeedHint`]).
    pub seeds: HashMap<usize, SeedHint>,
    /// Externally shared `(bmc, induction-step)` pools — typically from a
    /// [`crate::portfolio::SharedPools`] registry keyed by COI
    /// fingerprint, so a race on a content-identical cone imports the
    /// sibling's clauses instead of starting cold.  `None` gives the
    /// race fresh private pools.
    pub pools: Option<(Arc<ClausePool>, Arc<ClausePool>)>,
}

/// Asserts the PDR frame lemmas that cover BMC frame `frame`.
///
/// A lemma with level `through` holds in every state reachable within
/// `through` steps; BMC frame `frame` (initial states constrained)
/// contains only states reachable in exactly `frame` steps, so the
/// clause is implied whenever `frame <= through`.  Implied clauses can
/// prune search but never flip a verdict: a satisfying assignment at any
/// depth encodes a genuine execution, and every state on it satisfies
/// the lemmas covering its frame.
fn apply_lemmas(unroller: &mut Unroller<'_>, lemmas: &[FrameLemma], frame: usize) {
    for lemma in lemmas {
        if lemma.through < frame {
            continue;
        }
        let clause: Vec<SatLit> = lemma
            .clause
            .iter()
            .map(|&l| unroller.lit_in_frame(l, frame))
            .collect();
        unroller.add_clause(&clause);
    }
}

/// What one racer turn produced.
enum TurnOutcome {
    /// The racer reached a verdict; the race is over.
    Won(SafetyResult),
    /// The turn's conflict quantum ran out; the racer is resumable.
    Quantum,
    /// The parent deadline or cancellation fired; the whole race stops.
    RaceInterrupted,
}

/// Maps a fired per-turn interrupt to a turn outcome: the quantum is the
/// turn interrupt's own budget, everything else (deadline, cancellation)
/// is inherited from the parent and ends the race.
fn interruption(reason: InterruptReason) -> TurnOutcome {
    match reason {
        InterruptReason::Budget => TurnOutcome::Quantum,
        InterruptReason::Timeout | InterruptReason::Cancelled => TurnOutcome::RaceInterrupted,
    }
}

/// Which solve a racer runs next at its current depth.
enum RacerPhase {
    /// The bounded counterexample query.
    Bmc,
    /// The k-induction step query (the depth's BMC query was unsat).
    Induction,
}

/// One portfolio contestant: a full BMC + k-induction cascade instance
/// with its own solver configuration, advanced one conflict quantum at a
/// time by [`race_safety_budgeted`].
///
/// Every racer walks the *same* `(depth, phase)` trajectory as the plain
/// [`check_safety_detailed`] loop: per-depth satisfiability and
/// step-holds answers are semantic properties of the model, independent
/// of solver configuration and of any implied clauses imported from the
/// shared pool.  Racers therefore differ only in how fast they get
/// there (and in which satisfying assignment a `Violated` verdict
/// carries — callers canonicalize the trace; see the checker).
struct Racer<'a> {
    bmc: Unroller<'a>,
    induction: Induction<'a>,
    depth: usize,
    phase: RacerPhase,
    /// Deepest BMC frame whose invariant constraints and PDR lemmas have
    /// been asserted; guards against duplicate assertion when a turn
    /// resumes at a depth it already prepared.
    applied: Option<usize>,
    /// The per-turn interrupt most recently armed on this racer's
    /// solvers.  Losers are cancelled by firing it, which also bars any
    /// further clause exports (the solver's export gate checks the
    /// latch).
    turn_interrupt: Interrupt,
}

impl<'a> Racer<'a> {
    fn new(
        model: &'a Model,
        bad: Lit,
        config: SolverConfig,
        bmc_pool: &Arc<ClausePool>,
        step_pool: &Arc<ClausePool>,
        seeds: &HashMap<usize, SeedHint>,
    ) -> Self {
        let mut bmc = Unroller::with_config(&model.aig, true, config);
        bmc.attach_pool(Arc::clone(bmc_pool));
        let mut induction = Induction::new(model, bad, config);
        induction.unroller.attach_pool(Arc::clone(step_pool));
        if !seeds.is_empty() {
            bmc.set_seed_hints(seeds.clone());
            induction.unroller.set_seed_hints(seeds.clone());
        }
        Racer {
            bmc,
            induction,
            depth: 0,
            phase: RacerPhase::Bmc,
            applied: None,
            turn_interrupt: Interrupt::none(),
        }
    }

    fn stats(&self) -> SolverStats {
        self.bmc.stats() + self.induction.stats()
    }

    fn conflicts(&self) -> u64 {
        self.bmc.stats().conflicts + self.induction.stats().conflicts
    }

    /// Installs a fresh per-turn interrupt on both solvers.
    fn arm(&mut self, turn: Interrupt) {
        self.bmc.set_interrupt(turn.clone());
        self.induction.unroller.set_interrupt(turn.clone());
        self.turn_interrupt = turn;
    }

    /// Advances this racer until it reaches a verdict or its turn
    /// interrupt fires.  Resumable: a turn ended by its quantum picks up
    /// at the same `(depth, phase)` with the incremental solver state
    /// (and all learnt clauses) intact.
    fn take_turn(
        &mut self,
        model: &Model,
        bad: Lit,
        options: &BmcOptions,
        lemmas: &[FrameLemma],
        turn: &Interrupt,
    ) -> TurnOutcome {
        while self.depth <= options.max_depth {
            if let Some(reason) = turn.poll() {
                return interruption(reason);
            }
            let depth = self.depth;
            match self.phase {
                RacerPhase::Bmc => {
                    if self.applied < Some(depth) {
                        apply_constraints(&mut self.bmc, &model.constraints, depth);
                        apply_lemmas(&mut self.bmc, lemmas, depth);
                        self.applied = Some(depth);
                    }
                    if self.bmc.solve_with(&[(bad, depth, true)]) {
                        // A satisfiable answer is a genuine model even if
                        // the interrupt fired concurrently.
                        let trace = extract_trace(model, &mut self.bmc, depth);
                        return TurnOutcome::Won(SafetyResult::Violated(trace));
                    }
                    if let Some(reason) = turn.triggered() {
                        // "No counterexample" may be an interrupted solve
                        // in disguise; never advance past it.
                        return interruption(reason);
                    }
                    if depth <= options.max_induction && try_induction_at(depth) {
                        self.phase = RacerPhase::Induction;
                    } else {
                        self.depth += 1;
                    }
                }
                RacerPhase::Induction => {
                    let holds = self.induction.step_holds(depth);
                    if let Some(reason) = turn.triggered() {
                        // `step_holds` negates a boolean solve: an
                        // interrupted query would read as "step holds".
                        return interruption(reason);
                    }
                    if holds {
                        return TurnOutcome::Won(SafetyResult::Proven {
                            induction_depth: depth,
                        });
                    }
                    self.phase = RacerPhase::Bmc;
                    self.depth += 1;
                }
            }
        }
        TurnOutcome::Won(SafetyResult::Unknown {
            explored_depth: options.max_depth,
        })
    }
}

/// Races diverse solver configurations on one bad-state property with
/// glue-bounded learnt-clause sharing: first answer wins, losers are
/// cancelled through the [`Interrupt`] handle of their last turn.
///
/// The race is deterministic single-threaded lockstep: racers take
/// round-robin turns of `quantum` conflicts each, exchanging learnt
/// clauses through two shared [`ClausePool`]s (one for the BMC
/// unrollings, one for the induction-step unrollings — within each
/// group every racer builds the identical variable numbering, so
/// clauses transfer verbatim).  Because per-depth SAT answers are
/// semantic, sharing and racer diversity can only shorten the search,
/// never change the verdict — `Proven`/`Unknown` results are identical
/// to [`check_safety_budgeted`] with any single configuration, and a
/// `Violated` result carries a genuine (but not canonical) trace the
/// caller re-derives with a deterministic single-config solve.
///
/// The parent `interrupt` spans the whole race: its deadline and
/// cancellation flag are re-armed on every per-turn child handle, and
/// its step budget is charged with each turn's conflicts.
///
/// # Panics
///
/// Panics if `bad_index` is out of range.
pub fn race_safety_budgeted(
    model: &Model,
    bad_index: usize,
    options: &BmcOptions,
    race: &RaceOptions,
    interrupt: &Interrupt,
) -> (SafetyResult, SolverStats, SharingTraffic) {
    let _span = crate::telemetry::span("bmc.solve", &model.bads[bad_index].name);
    if race.configs.is_empty() {
        // Degenerate race: fall back to the plain single-solver loop.
        let (result, stats) = check_safety_impl(
            model,
            bad_index,
            options,
            SolverConfig::default(),
            interrupt,
        );
        crate::telemetry::count_solver("bmc", &stats);
        return (result, stats, SharingTraffic::default());
    }
    let bad = model.bads[bad_index].lit;
    let (bmc_pool, step_pool) = match &race.pools {
        Some((bmc, step)) => (Arc::clone(bmc), Arc::clone(step)),
        None => (
            Arc::new(ClausePool::new(race.glue_bound)),
            Arc::new(ClausePool::new(race.glue_bound)),
        ),
    };
    // Shared registry pools carry traffic from earlier races; report only
    // this race's contribution.
    let base = SharingTraffic {
        exported: bmc_pool.exported() + step_pool.exported(),
        imported: bmc_pool.imported() + step_pool.imported(),
        filtered: bmc_pool.filtered() + step_pool.filtered(),
    };
    let quantum = race.quantum.max(1);
    let mut racers: Vec<Racer<'_>> = race
        .configs
        .iter()
        .map(|&config| Racer::new(model, bad, config, &bmc_pool, &step_pool, &race.seeds))
        .collect();
    let verdict = 'race: loop {
        for racer in &mut racers {
            if interrupt.poll().is_some() {
                break 'race SafetyResult::Interrupted;
            }
            let turn = Interrupt::new(
                interrupt.deadline(),
                Some(quantum),
                interrupt.cancel_handle(),
            );
            racer.arm(turn.clone());
            let before = racer.conflicts();
            let outcome = racer.take_turn(model, bad, options, &race.lemmas, &turn);
            let spent = racer.conflicts().saturating_sub(before);
            interrupt.charge(spent);
            match outcome {
                TurnOutcome::Won(result) => break 'race result,
                TurnOutcome::Quantum => {}
                TurnOutcome::RaceInterrupted => break 'race SafetyResult::Interrupted,
            }
        }
    };
    // First answer wins: every other racer is cancelled through its last
    // turn's interrupt handle, which (via the export gate in the solver)
    // also bars any clause it might still derive from entering the pool.
    for racer in &racers {
        racer.turn_interrupt.fire(InterruptReason::Cancelled);
    }
    let stats = racers
        .iter()
        .fold(SolverStats::default(), |acc, r| acc + r.stats());
    let traffic = SharingTraffic {
        exported: (bmc_pool.exported() + step_pool.exported()).saturating_sub(base.exported),
        imported: (bmc_pool.imported() + step_pool.imported()).saturating_sub(base.imported),
        filtered: (bmc_pool.filtered() + step_pool.filtered()).saturating_sub(base.filtered),
    };
    crate::telemetry::count_solver("bmc", &stats);
    (verdict, stats, traffic)
}

/// Checks a cover property of `model`.
///
/// # Panics
///
/// Panics if `cover_index` is out of range.
pub fn check_cover(model: &Model, cover_index: usize, options: &BmcOptions) -> CoverResult {
    check_cover_detailed(model, cover_index, options, SolverConfig::default()).0
}

/// Like [`check_cover`], with an explicit solver configuration and the
/// aggregated [`SolverStats`] of the underlying solvers.
pub fn check_cover_detailed(
    model: &Model,
    cover_index: usize,
    options: &BmcOptions,
    solver: SolverConfig,
) -> (CoverResult, SolverStats) {
    check_cover_budgeted(model, cover_index, options, solver, &Interrupt::none())
}

/// Like [`check_cover_detailed`], preemptible via the [`Interrupt`]
/// handle (see [`check_safety_budgeted`]).
pub fn check_cover_budgeted(
    model: &Model,
    cover_index: usize,
    options: &BmcOptions,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (CoverResult, SolverStats) {
    let _span = crate::telemetry::span("bmc.solve", &model.covers[cover_index].name);
    let (result, stats) = check_cover_impl(model, cover_index, options, solver, interrupt);
    crate::telemetry::count_solver("bmc", &stats);
    (result, stats)
}

/// The uninstrumented BMC + unreachability loop behind [`check_cover_detailed`].
fn check_cover_impl(
    model: &Model,
    cover_index: usize,
    options: &BmcOptions,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (CoverResult, SolverStats) {
    let target = model.covers[cover_index].lit;
    let mut bmc = Unroller::with_config(&model.aig, true, solver);
    let mut induction = Induction::new(model, target, solver);
    bmc.set_interrupt(interrupt.clone());
    induction.unroller.set_interrupt(interrupt.clone());
    for depth in 0..=options.max_depth {
        #[cfg(any(test, feature = "fault-injection"))]
        crate::faults::point("bmc.depth_step");
        if interrupt.poll().is_some() {
            return (CoverResult::Interrupted, bmc.stats() + induction.stats());
        }
        apply_constraints(&mut bmc, &model.constraints, depth);
        if bmc.solve_with(&[(target, depth, true)]) {
            let trace = extract_trace(model, &mut bmc, depth);
            let stats = bmc.stats() + induction.stats();
            return (CoverResult::Covered(trace), stats);
        }
        if interrupt.triggered().is_some() {
            return (CoverResult::Interrupted, bmc.stats() + induction.stats());
        }
        if depth <= options.max_induction && try_induction_at(depth) && induction.step_holds(depth)
        {
            let stats = bmc.stats() + induction.stats();
            if interrupt.triggered().is_some() {
                // An interrupted step query must not become an
                // unreachability proof (see check_safety_impl).
                return (CoverResult::Interrupted, stats);
            }
            return (CoverResult::Unreachable, stats);
        }
        if interrupt.triggered().is_some() {
            return (CoverResult::Interrupted, bmc.stats() + induction.stats());
        }
    }
    let stats = bmc.stats() + induction.stats();
    (
        CoverResult::Unknown {
            explored_depth: options.max_depth,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use crate::model::BadProperty;
    use crate::model::CoverProperty;

    /// A 3-bit counter that saturates at 7.
    fn saturating_counter() -> (Model, Vec<Lit>) {
        let mut aig = Aig::new();
        let bits: Vec<Lit> = (0..3)
            .map(|i| aig.add_latch(format!("c{i}"), false))
            .collect();
        let all_ones = aig.and_many(&bits);
        // increment unless saturated
        let b0 = bits[0];
        let b1 = bits[1];
        let b2 = bits[2];
        let n0 = aig.xor(b0, Lit::TRUE);
        let carry0 = b0;
        let n1 = aig.xor(b1, carry0);
        let carry1 = aig.and(b1, carry0);
        let n2 = aig.xor(b2, carry1);
        let hold0 = aig.mux(all_ones, b0, n0);
        let hold1 = aig.mux(all_ones, b1, n1);
        let hold2 = aig.mux(all_ones, b2, n2);
        aig.set_latch_next(b0, hold0);
        aig.set_latch_next(b1, hold1);
        aig.set_latch_next(b2, hold2);
        (Model::new(aig), bits)
    }

    #[test]
    fn bmc_finds_reachable_bad_state() {
        let (mut model, bits) = saturating_counter();
        // Bad: counter value == 5 (101).
        let b = {
            let aig = &mut model.aig;
            let not1 = bits[1].invert();
            let t = aig.and(bits[0], not1);
            aig.and(t, bits[2])
        };
        model.bads.push(BadProperty {
            name: "reaches_five".into(),
            lit: b,
        });
        let result = check_safety(&model, 0, &BmcOptions::default());
        match result {
            SafetyResult::Violated(trace) => {
                assert_eq!(trace.len(), 6); // value 5 reached at frame 5
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn induction_proves_unreachable_bad_state() {
        let (mut model, bits) = saturating_counter();
        // The counter saturates at 7 and never wraps to 0 again after
        // reaching 1: "counter == 0 and we have been at 1" is unreachable.
        // Simpler: prove the counter never goes *backwards* from 7 to 6 ...
        // Here: bad = (value == 7) && next would be 0 is impossible; instead
        // prove that "value 7 then value 0" cannot happen by checking a
        // helper latch.  Keep it simple: bad = false literal is trivially
        // proven.
        let bad = Lit::FALSE;
        let _ = &bits;
        model.bads.push(BadProperty {
            name: "never".into(),
            lit: bad,
        });
        let result = check_safety(&model, 0, &BmcOptions::default());
        assert!(result.is_proven(), "got {result:?}");
    }

    #[test]
    fn induction_proves_saturation_invariant() {
        // Once saturated (all ones), the counter stays saturated: the bad
        // state "was saturated previously but is not saturated now" is
        // unreachable and provable by 1-induction.
        let (mut model, bits) = saturating_counter();
        let (was_saturated, all_ones) = {
            let aig = &mut model.aig;
            let all_ones = aig.and_many(&bits);
            let was = aig.add_latch("was_saturated", false);
            let next = aig.or(was, all_ones);
            aig.set_latch_next(was, next);
            (was, all_ones)
        };
        let bad = {
            let aig = &mut model.aig;
            aig.and(was_saturated, all_ones.invert())
        };
        model.bads.push(BadProperty {
            name: "saturation_sticks".into(),
            lit: bad,
        });
        let result = check_safety(&model, 0, &BmcOptions::default());
        assert!(result.is_proven(), "got {result:?}");
    }

    #[test]
    fn constraints_restrict_paths() {
        // A free input drives a latch; with the constraint "input is low" the
        // latch can never become high.
        let mut aig = Aig::new();
        let inp = aig.add_input("x");
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, inp);
        let mut model = Model::new(aig);
        model.constraints.push(inp.invert());
        model.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q,
        });
        let result = check_safety(&model, 0, &BmcOptions::default());
        assert!(result.is_proven(), "got {result:?}");
    }

    #[test]
    fn cover_finds_witness() {
        let (mut model, bits) = saturating_counter();
        let target = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.covers.push(CoverProperty {
            name: "saturates".into(),
            lit: target,
        });
        match check_cover(&model, 0, &BmcOptions::default()) {
            CoverResult::Covered(trace) => assert_eq!(trace.len(), 8),
            other => panic!("expected cover witness, got {other:?}"),
        }
    }

    #[test]
    fn cover_unreachable_is_reported() {
        let (mut model, bits) = saturating_counter();
        // Value 0 with the "was saturated" flag set is unreachable because
        // the counter saturates; simpler: cover literal FALSE is unreachable.
        let _ = bits;
        model.covers.push(CoverProperty {
            name: "never".into(),
            lit: Lit::FALSE,
        });
        assert_eq!(
            check_cover(&model, 0, &BmcOptions::default()),
            CoverResult::Unreachable
        );
    }

    #[test]
    fn unknown_when_bounds_too_small() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.bads.push(BadProperty {
            name: "saturated".into(),
            lit: b,
        });
        // The counter needs 7 steps to saturate; a bound of 3 must not find
        // it, and induction cannot prove it (it is actually reachable).
        let result = check_safety(
            &model,
            0,
            &BmcOptions {
                max_depth: 3,
                max_induction: 3,
            },
        );
        assert_eq!(result, SafetyResult::Unknown { explored_depth: 3 });
    }

    /// A 3-racer portfolio with a small quantum so races of the test
    /// fixtures genuinely interleave turns.
    fn small_race() -> RaceOptions {
        RaceOptions {
            configs: vec![
                SolverConfig::default(),
                SolverConfig {
                    restart_base: 30,
                    reduce_base: 1000,
                    ..SolverConfig::default()
                },
                SolverConfig::baseline(),
            ],
            quantum: 8,
            glue_bound: 4,
            lemmas: Vec::new(),
            seeds: HashMap::new(),
            pools: None,
        }
    }

    #[test]
    fn race_agrees_with_single_solver_on_every_verdict_kind() {
        // Violated: counter value 5 reached at frame 5 (the model has no
        // inputs, so even the trace is unique).
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            let not1 = bits[1].invert();
            let t = aig.and(bits[0], not1);
            aig.and(t, bits[2])
        };
        model.bads.push(BadProperty {
            name: "reaches_five".into(),
            lit: b,
        });
        let options = BmcOptions::default();
        let expected = check_safety(&model, 0, &options);
        let (raced, _, _) =
            race_safety_budgeted(&model, 0, &options, &small_race(), &Interrupt::none());
        assert_eq!(raced, expected);
        assert!(raced.is_violated());

        // Proven: the saturation invariant, same induction depth.
        let (mut model, bits) = saturating_counter();
        let (was, all_ones) = {
            let aig = &mut model.aig;
            let all_ones = aig.and_many(&bits);
            let was = aig.add_latch("was_saturated", false);
            let next = aig.or(was, all_ones);
            aig.set_latch_next(was, next);
            (was, all_ones)
        };
        let bad = {
            let aig = &mut model.aig;
            aig.and(was, all_ones.invert())
        };
        model.bads.push(BadProperty {
            name: "saturation_sticks".into(),
            lit: bad,
        });
        let expected = check_safety(&model, 0, &options);
        let (raced, _, _) =
            race_safety_budgeted(&model, 0, &options, &small_race(), &Interrupt::none());
        assert_eq!(raced, expected);
        assert!(raced.is_proven());

        // Unknown: bound too small for the reachable bad state.
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.bads.push(BadProperty {
            name: "saturated".into(),
            lit: b,
        });
        let tiny = BmcOptions {
            max_depth: 3,
            max_induction: 3,
        };
        let (raced, _, _) =
            race_safety_budgeted(&model, 0, &tiny, &small_race(), &Interrupt::none());
        assert_eq!(raced, SafetyResult::Unknown { explored_depth: 3 });
    }

    #[test]
    fn race_verdict_is_independent_of_quantum_and_config_order() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            let t = aig.and(bits[0], bits[1]);
            aig.and(t, bits[2].invert())
        };
        model.bads.push(BadProperty {
            name: "reaches_three".into(),
            lit: b,
        });
        let options = BmcOptions::default();
        let baseline = check_safety(&model, 0, &options);
        for quantum in [1, 8, 1 << 20] {
            let mut race = small_race();
            race.quantum = quantum;
            let (forward, _, _) =
                race_safety_budgeted(&model, 0, &options, &race, &Interrupt::none());
            race.configs.reverse();
            let (reversed, _, _) =
                race_safety_budgeted(&model, 0, &options, &race, &Interrupt::none());
            assert_eq!(forward, baseline, "quantum {quantum}");
            assert_eq!(reversed, baseline, "quantum {quantum} reversed");
        }
    }

    #[test]
    fn race_respects_parent_deadline_and_cancellation() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.bads.push(BadProperty {
            name: "saturated".into(),
            lit: b,
        });
        let options = BmcOptions::default();
        // An already-expired deadline stops the race before any turn.
        let expired = Interrupt::new(Some(std::time::Instant::now()), None, None);
        let (result, _, traffic) =
            race_safety_budgeted(&model, 0, &options, &small_race(), &expired);
        assert_eq!(result, SafetyResult::Interrupted);
        assert_eq!(traffic.exported, 0, "no turn ran, nothing may be shared");
        // A raised run-wide cancellation flag does the same.
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cancelled = Interrupt::new(None, None, Some(flag));
        let (result, _, _) = race_safety_budgeted(&model, 0, &options, &small_race(), &cancelled);
        assert_eq!(result, SafetyResult::Interrupted);
    }

    #[test]
    fn race_with_pdr_lemmas_keeps_verdicts() {
        // Lemma: "not all ones" holds through frame 6 (value 7 is first
        // reached at frame 7).  The violation at depth 7 must survive the
        // lemma, and a provable property must stay proven.
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.bads.push(BadProperty {
            name: "saturated".into(),
            lit: b,
        });
        let lemma = FrameLemma {
            clause: bits.iter().map(|l| l.invert()).collect(),
            through: 6,
        };
        let mut race = small_race();
        race.lemmas = vec![lemma.clone()];
        let options = BmcOptions {
            max_depth: 10,
            max_induction: 0,
        };
        let (result, _, _) = race_safety_budgeted(&model, 0, &options, &race, &Interrupt::none());
        match result {
            SafetyResult::Violated(trace) => assert_eq!(trace.len(), 8),
            other => panic!("expected the depth-7 violation, got {other:?}"),
        }

        // Proven case with the same lemma installed.
        let (mut model, bits) = saturating_counter();
        let (was, all_ones) = {
            let aig = &mut model.aig;
            let all_ones = aig.and_many(&bits);
            let was = aig.add_latch("was_saturated", false);
            let next = aig.or(was, all_ones);
            aig.set_latch_next(was, next);
            (was, all_ones)
        };
        let bad = {
            let aig = &mut model.aig;
            aig.and(was, all_ones.invert())
        };
        model.bads.push(BadProperty {
            name: "saturation_sticks".into(),
            lit: bad,
        });
        let expected = check_safety(&model, 0, &BmcOptions::default());
        race.lemmas = vec![lemma];
        let (raced, _, _) =
            race_safety_budgeted(&model, 0, &BmcOptions::default(), &race, &Interrupt::none());
        assert_eq!(raced, expected);
    }

    #[test]
    fn race_with_seed_hints_keeps_verdicts() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            let not1 = bits[1].invert();
            let t = aig.and(bits[0], not1);
            aig.and(t, bits[2])
        };
        model.bads.push(BadProperty {
            name: "reaches_five".into(),
            lit: b,
        });
        let options = BmcOptions::default();
        let expected = check_safety(&model, 0, &options);
        let mut race = small_race();
        // Deliberately misleading hints: phases and boosts must steer
        // search order only, never the verdict.
        race.seeds = bits
            .iter()
            .enumerate()
            .map(|(i, l)| {
                (
                    l.node(),
                    SeedHint {
                        phase: i % 2 == 0,
                        boost: 2.0,
                    },
                )
            })
            .collect();
        let (raced, _, _) = race_safety_budgeted(&model, 0, &options, &race, &Interrupt::none());
        assert_eq!(raced, expected);
    }

    #[test]
    fn warm_pools_preserve_verdicts_across_repeated_races() {
        // Two races on the same model share one pool pair (the
        // fingerprint-keyed registry case): the second race imports the
        // first race's clauses and must reach the identical verdict.
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            let not1 = bits[1].invert();
            let t = aig.and(bits[0], not1);
            aig.and(t, bits[2])
        };
        model.bads.push(BadProperty {
            name: "reaches_five".into(),
            lit: b,
        });
        let options = BmcOptions::default();
        let expected = check_safety(&model, 0, &options);
        let mut race = small_race();
        race.pools = Some((
            Arc::new(ClausePool::new(race.glue_bound)),
            Arc::new(ClausePool::new(race.glue_bound)),
        ));
        let (first, _, _) = race_safety_budgeted(&model, 0, &options, &race, &Interrupt::none());
        let (second, _, _) = race_safety_budgeted(&model, 0, &options, &race, &Interrupt::none());
        assert_eq!(first, expected);
        assert_eq!(second, expected);
    }

    #[test]
    fn empty_config_race_falls_back_to_single_solver() {
        let (mut model, _) = saturating_counter();
        model.bads.push(BadProperty {
            name: "never".into(),
            lit: Lit::FALSE,
        });
        let race = RaceOptions {
            configs: Vec::new(),
            quantum: 8,
            glue_bound: 4,
            lemmas: Vec::new(),
            seeds: HashMap::new(),
            pools: None,
        };
        let (result, _, traffic) =
            race_safety_budgeted(&model, 0, &BmcOptions::default(), &race, &Interrupt::none());
        assert!(result.is_proven());
        assert_eq!(traffic, SharingTraffic::default());
    }

    #[test]
    fn trace_contains_latch_values() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            let t = aig.and(bits[0], bits[1]);
            aig.and(t, bits[2].invert())
        };
        model.bads.push(BadProperty {
            name: "reaches_three".into(),
            lit: b,
        });
        let result = check_safety(&model, 0, &BmcOptions::default());
        let trace = result.trace().expect("counterexample expected");
        assert_eq!(trace.len(), 4);
        // Frame 3: c0=1, c1=1, c2=0.
        assert_eq!(trace.value(3, "c0"), Some(true));
        assert_eq!(trace.value(3, "c1"), Some(true));
        assert_eq!(trace.value(3, "c2"), Some(false));
        // Frame 0 is the reset state.
        assert_eq!(trace.value(0, "c0"), Some(false));
    }

    /// A 3-bit saturating counter that only counts while input `en` is
    /// high, so a given value is reachable along many paths of different
    /// lengths.  Returns the model and `(at_least_five, is_seven)`.
    fn enabled_counter() -> (Model, Lit, Lit) {
        let mut aig = Aig::new();
        let en = aig.add_input("en");
        let bits: Vec<Lit> = (0..3)
            .map(|i| aig.add_latch(format!("c{i}"), false))
            .collect();
        let all_ones = aig.and_many(&bits);
        let step = aig.and(en, all_ones.invert());
        let carry1 = aig.and(bits[0], bits[1]);
        let nexts = [
            aig.xor(bits[0], step),
            {
                let t = aig.and(step, bits[0]);
                aig.xor(bits[1], t)
            },
            {
                let t = aig.and(step, carry1);
                aig.xor(bits[2], t)
            },
        ];
        for (bit, next) in bits.iter().zip(nexts) {
            aig.set_latch_next(*bit, next);
        }
        let low = aig.or(bits[0], bits[1]);
        let at_least_five = aig.and(bits[2], low);
        let is_seven = all_ones;
        (Model::new(aig), at_least_five, is_seven)
    }

    #[test]
    fn minimizer_finds_the_minimal_depth_from_every_lemma_source() {
        let (mut model, at_least_five, is_seven) = enabled_counter();
        // A genuine but long witness for "value >= 5": the shortest path
        // to 7 passes through 5 two cycles earlier.
        model.bads.push(BadProperty {
            name: "is_seven".into(),
            lit: is_seven,
        });
        let witness = check_safety(&model, 0, &BmcOptions::default())
            .trace()
            .cloned()
            .expect("7 is reachable");
        assert_eq!(witness.len(), 8);
        model.bads[0] = BadProperty {
            name: "at_least_five".into(),
            lit: at_least_five,
        };
        // The old minimization: a from-scratch BMC bounded at the witness.
        let bound = BmcOptions {
            max_depth: witness.len() - 1,
            max_induction: 0,
        };
        let shortest = check_safety(&model, 0, &bound)
            .trace()
            .cloned()
            .expect("5 is reachable within the witness");
        assert_eq!(shortest.len(), 6);

        let (pdr_result, _, pdr_lemmas) = crate::pdr::check_pdr_budgeted_lemmas(
            &model,
            at_least_five,
            &PdrOptions::default(),
            SolverConfig::default(),
            &Interrupt::none(),
        );
        assert!(pdr_result.is_violated());
        assert!(
            !pdr_lemmas.is_empty(),
            "a violated run returns its frame lemmas"
        );
        // A hand-written lemma: the value is below 4 for the first 3 steps.
        let c2 = Lit::new(model.aig.latches()[2].node, false);
        let hand = [FrameLemma {
            clause: vec![c2.invert()],
            through: 3,
        }];
        let pdr = PdrOptions::default();
        for lemmas in [
            MinimizeLemmas::None,
            MinimizeLemmas::Found(&pdr_lemmas),
            MinimizeLemmas::Found(&hand),
            MinimizeLemmas::Harvest(&pdr),
        ] {
            let (minimal, stats) = minimize_counterexample(
                &model,
                0,
                witness.clone(),
                lemmas,
                SolverConfig::default(),
                &Interrupt::none(),
            );
            assert_eq!(minimal.len(), shortest.len(), "{lemmas:?}");
            assert_eq!(minimal.value(5, "c2"), Some(true), "{lemmas:?}");
            assert!(stats.propagations > 0, "{lemmas:?}");
        }
    }

    #[test]
    fn an_interrupted_minimization_keeps_the_witness() {
        let (mut model, at_least_five, is_seven) = enabled_counter();
        model.bads.push(BadProperty {
            name: "is_seven".into(),
            lit: is_seven,
        });
        let witness = check_safety(&model, 0, &BmcOptions::default())
            .trace()
            .cloned()
            .expect("7 is reachable");
        model.bads[0].lit = at_least_five;
        // Tripped before the walk starts.
        let cancelled = Interrupt::new(None, None, None);
        cancelled.fire(InterruptReason::Cancelled);
        // Runs out of steps inside the lemma-harvesting PDR run, which
        // charges one step per query.
        let starved = Interrupt::new(None, Some(2), None);
        let pdr = PdrOptions::default();
        for (interrupt, lemmas) in [
            (&cancelled, MinimizeLemmas::None),
            (&cancelled, MinimizeLemmas::Harvest(&pdr)),
            (&starved, MinimizeLemmas::Harvest(&pdr)),
        ] {
            let (kept, _) = minimize_counterexample(
                &model,
                0,
                witness.clone(),
                lemmas,
                SolverConfig::default(),
                interrupt,
            );
            assert_eq!(kept, witness, "{lemmas:?}");
        }
        assert!(starved.triggered().is_some());
    }
}
