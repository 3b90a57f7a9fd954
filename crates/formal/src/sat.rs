//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The solver is written from scratch for this reproduction: the bounded
//! model checker produces CNF instances in the tens of thousands of clauses
//! for the evaluated designs, which a watched-literal CDCL solver with
//! activity-based decisions handles comfortably.
//!
//! Features: two-watched-literal propagation, first-UIP conflict analysis
//! with clause learning, recursive learnt-clause minimization, VSIDS
//! variable activities on an indexed binary max-heap, phase saving,
//! Luby-sequence restarts, glue (LBD) tracking with periodic learnt-clause
//! database reduction, non-chronological backtracking, and incremental
//! solving under assumptions with final-conflict unsat cores.
//!
//! The search-loop features can be toggled individually through
//! [`SolverConfig`] (used by the differential test-suite and the solver
//! ablation bench); [`SolverStats`] exposes the counters that let the
//! verification report attribute runtime to solver work.
//!
//! For portfolio solving, solvers working on the *same* CNF encoding can be
//! connected to a shared [`ClausePool`]: each solver exports its learnt
//! clauses with glue (LBD) at or below the pool's bound and imports the
//! siblings' exports at decision level 0 (query entry and restarts).
//! Imported clauses are logical consequences of the shared clause database,
//! so they can only ever prune search — never change a verdict.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A propositional variable, numbered from 0.
pub type Var = usize;

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatLit(u32);

impl SatLit {
    /// Creates a literal for `var` with the given polarity (`true` =
    /// positive).
    pub fn new(var: Var, positive: bool) -> SatLit {
        SatLit((var as u32) << 1 | u32::from(!positive))
    }

    /// Creates the positive literal of `var`.
    pub fn pos(var: Var) -> SatLit {
        SatLit::new(var, true)
    }

    /// Creates the negative literal of `var`.
    pub fn neg(var: Var) -> SatLit {
        SatLit::new(var, false)
    }

    /// The variable of this literal.
    pub fn var(self) -> Var {
        (self.0 >> 1) as usize
    }

    /// `true` if the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }

    /// Dense literal index (`2·var + negated`), used for watch lists and
    /// the per-literal value array.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var() + 1)
        } else {
            write!(f, "-{}", self.var() + 1)
        }
    }
}

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (retrieve it with
    /// [`Solver::value`]).
    Sat,
    /// No satisfying assignment exists under the given assumptions.
    Unsat,
    /// The search was preempted by the solver's [`Interrupt`] handle
    /// (deadline, step budget or cancellation) before reaching an
    /// answer.  The solver state stays valid — a later `solve` call may
    /// still conclude — but callers must never treat this as either
    /// verdict.
    ///
    /// [`Interrupt`]: crate::interrupt::Interrupt
    Interrupted,
}

/// Toggles for the modern search-loop techniques.
///
/// All features default to on; the differential tests and the solver
/// ablation bench flip them individually to show that every configuration
/// reaches the same verdicts (and what each feature contributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Luby-sequence restarts (phases are saved, so restarts are cheap).
    pub restarts: bool,
    /// Recursive learnt-clause minimization after first-UIP analysis.
    pub minimize: bool,
    /// Periodic glue/activity-guided learnt-clause database reduction.
    pub reduce: bool,
    /// Base restart interval in conflicts (scaled by the Luby sequence).
    pub restart_base: u32,
    /// Live learnt-clause count that triggers the first `reduce_db` pass
    /// (the ceiling then grows geometrically).
    pub reduce_base: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            restarts: true,
            minimize: true,
            reduce: true,
            restart_base: 100,
            reduce_base: 2000,
        }
    }
}

impl SolverConfig {
    /// The MiniSat-era baseline: clause learning and VSIDS only, none of
    /// the modern search-loop features.
    pub fn baseline() -> Self {
        SolverConfig {
            restarts: false,
            minimize: false,
            reduce: false,
            ..SolverConfig::default()
        }
    }
}

/// Search-loop counters, cumulative over the lifetime of a [`Solver`].
///
/// Aggregated across engine stages by the checker so the verification
/// report can attribute per-property runtime to solver work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts seen.
    pub conflicts: u64,
    /// Decisions made (including assumption levels).
    pub decisions: u64,
    /// Literal propagations.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses recorded.
    pub learnt: u64,
    /// Learnt clauses surviving `reduce_db` passes (cumulative over passes).
    pub learnt_kept: u64,
    /// Learnt clauses evicted by `reduce_db`.
    pub learnt_deleted: u64,
    /// Literals removed from learnt clauses by recursive minimization.
    pub minimized_lits: u64,
    /// `reduce_db` passes run.
    pub reductions: u64,
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, o: SolverStats) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.learnt += o.learnt;
        self.learnt_kept += o.learnt_kept;
        self.learnt_deleted += o.learnt_deleted;
        self.minimized_lits += o.minimized_lits;
        self.reductions += o.reductions;
    }
}

impl std::ops::Add for SolverStats {
    type Output = SolverStats;
    fn add(mut self, o: SolverStats) -> SolverStats {
        self += o;
        self
    }
}

/// A clause recorded in a [`ClausePool`], tagged with the participant that
/// published it so it is never re-imported by its own exporter.
#[derive(Debug, Clone)]
struct PoolClause {
    lits: Vec<SatLit>,
    lbd: u32,
    owner: usize,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Published clauses in arrival order (participants read with a cursor,
    /// so the vector is append-only).
    clauses: Vec<PoolClause>,
    /// Dedup index: the sorted literal multiset of every pooled clause.
    seen: HashSet<Vec<SatLit>>,
    /// Number of registered participants (used only to hand out ids).
    participants: usize,
}

/// A thread-safe pool of learnt clauses shared between the solvers of a
/// portfolio race.
///
/// The pool is literal-level: it assumes every participant numbers its
/// variables identically, so it must only ever connect solvers built from
/// the *same* CNF encoding (the checker keys pools by COI fingerprint and
/// identical unrolling order).  Exports are filtered by the glue bound and
/// deduplicated on the sorted literal set; imports skip the reader's own
/// clauses via the `owner` tag.  The clause list sits behind a single
/// mutex held only for short append/scan critical sections; the traffic
/// counters are lock-free atomics.
#[derive(Debug)]
pub struct ClausePool {
    inner: Mutex<PoolInner>,
    glue_bound: u32,
    exported: AtomicU64,
    imported: AtomicU64,
    filtered: AtomicU64,
}

impl ClausePool {
    /// Creates an empty pool accepting clauses with LBD ≤ `glue_bound`.
    pub fn new(glue_bound: u32) -> ClausePool {
        ClausePool {
            inner: Mutex::new(PoolInner::default()),
            glue_bound,
            exported: AtomicU64::new(0),
            imported: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
        }
    }

    /// Registers a participant and returns its id (solvers call this via
    /// [`Solver::attach_pool`]).
    pub fn register(&self) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.participants += 1;
        inner.participants - 1
    }

    /// Offers a learnt clause to the pool.  Clauses above the glue bound
    /// and duplicates of already-pooled clauses are filtered out.
    pub fn publish(&self, owner: usize, lits: &[SatLit], lbd: u32) {
        if lits.is_empty() || lbd > self.glue_bound {
            self.filtered.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut key = lits.to_vec();
        key.sort_unstable();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !inner.seen.insert(key) {
            drop(inner);
            self.filtered.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.clauses.push(PoolClause {
            lits: lits.to_vec(),
            lbd,
            owner,
        });
        drop(inner);
        self.exported.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the clauses published since `cursor` by participants other
    /// than `reader`, advancing the cursor past everything scanned.
    fn fetch(&self, reader: usize, cursor: &mut usize) -> Vec<(Vec<SatLit>, u32)> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let batch = inner.clauses[*cursor..]
            .iter()
            .filter(|c| c.owner != reader)
            .map(|c| (c.lits.clone(), c.lbd))
            .collect();
        *cursor = inner.clauses.len();
        batch
    }

    fn note_imports(&self, n: u64) {
        if n > 0 {
            self.imported.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Clauses accepted into the pool.
    pub fn exported(&self) -> u64 {
        self.exported.load(Ordering::Relaxed)
    }

    /// Clauses attached by importers (each import of one clause by one
    /// participant counts once).
    pub fn imported(&self) -> u64 {
        self.imported.load(Ordering::Relaxed)
    }

    /// Offered clauses rejected by the glue bound or as duplicates.
    pub fn filtered(&self) -> u64 {
        self.filtered.load(Ordering::Relaxed)
    }

    /// A copy of every pooled clause with its LBD, in publication order
    /// (diagnostics and the implication spot-checks of the differential
    /// tests).
    pub fn snapshot(&self) -> Vec<(Vec<SatLit>, u32)> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .clauses
            .iter()
            .map(|c| (c.lits.clone(), c.lbd))
            .collect()
    }

    /// Number of clauses currently pooled.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clauses.len()
    }

    /// `true` when no clause has been pooled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A solver's connection to a [`ClausePool`]: the shared pool, this
/// solver's participant id, and the read cursor into the pool's clause
/// list.
#[derive(Debug, Clone)]
struct PoolHandle {
    pool: Arc<ClausePool>,
    id: usize,
    cursor: usize,
    /// Fetched clauses referencing variables this solver has not
    /// allocated yet, retried at the next import point (an importer that
    /// joined an already-warm pool grows into the pooled clauses as its
    /// unrolling deepens).
    pending: Vec<(Vec<SatLit>, u32)>,
}

/// Per-literal truth values, indexed by [`SatLit::index`]: a literal and
/// its complement always hold opposite values (or are both unassigned), so
/// reading a literal's value is one byte load with no polarity arithmetic.
const L_TRUE: i8 = 1;
const L_FALSE: i8 = -1;
const L_UNDEF: i8 = 0;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<SatLit>,
    learnt: bool,
    /// Literal-block distance ("glue"): distinct decision levels in the
    /// clause at learn time.  Low-glue clauses are kept forever.
    lbd: u32,
    /// Clause activity (bumped when the clause resolves a conflict).
    act: f64,
}

/// An indexed binary max-heap over variables, keyed by activity.
///
/// `pos[v]` is the heap slot of `v` (or `NOT_IN_HEAP`), so membership tests
/// and re-heapify-on-bump are O(1)/O(log n) — replacing the previous lazy
/// `BinaryHeap` of stale entries and its O(n) fallback scan.  Each slot
/// carries its variable's activity next to the variable, so sifting
/// compares keys in the slots it already touches instead of chasing each
/// variable into the solver's activity array.  The owner keeps every key
/// bit-identical to that array: [`VarHeap::bumped`] takes the new activity
/// and [`VarHeap::rescale`] applies the same multiplication the array gets.
#[derive(Debug, Clone, Default)]
struct VarHeap {
    heap: Vec<HeapSlot>,
    pos: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct HeapSlot {
    act: f64,
    var: Var,
}

impl HeapSlot {
    /// Max-heap order: higher activity first, ties broken toward the lower
    /// variable index (a strict total order, so the pop sequence depends
    /// only on the keys and runs are deterministic).
    fn less(self, other: HeapSlot) -> bool {
        self.act < other.act || (self.act == other.act && self.var > other.var)
    }
}

const NOT_IN_HEAP: usize = usize::MAX;

impl VarHeap {
    fn grow(&mut self) {
        self.pos.push(NOT_IN_HEAP);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v] != NOT_IN_HEAP
    }

    fn sift_up(&mut self, mut i: usize) {
        let slot = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.heap[parent].less(slot) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].var] = i;
            i = parent;
        }
        self.heap[i] = slot;
        self.pos[slot.var] = i;
    }

    fn sift_down(&mut self, mut i: usize) {
        let slot = self.heap[i];
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let child = if r < len && self.heap[l].less(self.heap[r]) {
                r
            } else {
                l
            };
            if !slot.less(self.heap[child]) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].var] = i;
            i = child;
        }
        self.heap[i] = slot;
        self.pos[slot.var] = i;
    }

    fn insert(&mut self, v: Var, act: f64) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len();
        self.heap.push(HeapSlot { act, var: v });
        self.sift_up(self.heap.len() - 1);
    }

    /// Sets `v`'s key to `act` (an increase) and restores heap order.
    fn bumped(&mut self, v: Var, act: f64) {
        if self.contains(v) {
            let i = self.pos[v];
            self.heap[i].act = act;
            self.sift_up(i);
        }
    }

    /// Multiplies every key by `factor`: the activity rescale, applied to
    /// the keys exactly as to the activity array.
    fn rescale(&mut self, factor: f64) {
        for slot in &mut self.heap {
            slot.act *= factor;
        }
    }

    fn pop_max(&mut self) -> Option<Var> {
        let top = self.heap.first()?.var;
        self.pos[top] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use autosva_formal::sat::{SatLit, SatResult, Solver};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
/// solver.add_clause(&[SatLit::neg(a)]);
/// assert_eq!(solver.solve(&[]), SatResult::Sat);
/// assert_eq!(solver.value(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// watches[lit.index()] = clause indices watching that literal.
    watches: Vec<Vec<usize>>,
    /// Truth value per literal (`L_TRUE`/`L_FALSE`/`L_UNDEF`), indexed by
    /// [`SatLit::index`]; maintained by `enqueue` and `backtrack`.
    vals: Vec<i8>,
    /// Decision level at which each variable was assigned.
    levels: Vec<usize>,
    /// Clause that implied each variable (by index), usize::MAX for decisions.
    reasons: Vec<usize>,
    /// Assignment trail.
    trail: Vec<SatLit>,
    /// Index into the trail where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activities.
    activity: Vec<f64>,
    act_inc: f64,
    /// Clause-activity increment (for learnt-clause reduction ranking).
    cla_inc: f64,
    /// Saved phases for phase saving.
    phase: Vec<bool>,
    /// Indexed max-activity heap of decision candidates.
    order: VarHeap,
    /// Scratch: conflict-analysis marks (indexed by variable).
    seen: Vec<bool>,
    /// Scratch: variables whose `seen` mark must be cleared after analysis.
    analyze_toclear: Vec<Var>,
    /// Scratch: DFS stack of the recursive clause minimization.
    min_stack: Vec<Var>,
    /// Scratch: per-decision-level stamps for LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    /// Live learnt-clause count (maintained across learning and rebuilds).
    num_learnts: usize,
    /// Learnt-clause ceiling for the next `reduce_db` (0 = not yet set).
    max_learnts: usize,
    /// Restart bookkeeping: position in the Luby sequence and the conflict
    /// count at which the next restart fires.
    restart_seq: u64,
    restart_next: u64,
    /// Set to true when the clause database is unsatisfiable at level 0.
    unsat: bool,
    /// After an `Unsat` answer: the subset of the assumption literals that
    /// sufficed for unsatisfiability (the *final conflict*).
    core: Vec<SatLit>,
    /// Search-loop feature toggles.
    pub config: SolverConfig,
    /// Cumulative search counters.
    pub stats: SolverStats,
    /// Cooperative preemption handle, polled every
    /// [`INTERRUPT_POLL_INTERVAL`] search-loop iterations.  Disarmed by
    /// default (one branch per poll site).
    interrupt: crate::interrupt::Interrupt,
    /// Conflicts already charged against the interrupt's step budget.
    /// The search loop charges at its poll cadence; [`Solver::solve`]
    /// charges the remainder on exit, so the counter equals
    /// `stats.conflicts` at every query boundary and nothing is ever
    /// charged twice.
    conflicts_charged: u64,
    /// Shared learnt-clause pool of a portfolio race (`None` outside one).
    pool: Option<PoolHandle>,
}

const NO_REASON: usize = usize::MAX;

/// Search-loop iterations between interrupt polls.  Power of two so the
/// cadence check is a mask; coarse enough that the `Instant::now` in
/// `Interrupt::poll` is amortized to noise, fine enough that a 50 ms
/// deadline preempts a solve within a small multiple of itself.
const INTERRUPT_POLL_INTERVAL: u64 = 1024;

/// Propagations between interrupt polls.  The iteration cadence alone lets
/// propagation-heavy, conflict-light instances run long stretches between
/// polls (one iteration may propagate an arbitrarily long trail), which is
/// how a solve could historically overshoot its deadline well past the
/// documented small multiple; counting propagations bounds the work
/// between polls regardless of the conflict rate.
const PROPAGATION_POLL_INTERVAL: u64 = 1 << 14;

impl Solver {
    /// Creates an empty solver with the default configuration.
    pub fn new() -> Self {
        Solver {
            act_inc: 1.0,
            cla_inc: 1.0,
            config: SolverConfig::default(),
            ..Solver::default()
        }
    }

    /// Creates an empty solver with the given feature configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            ..Solver::new()
        }
    }

    /// Installs the cooperative preemption handle.  The search loop
    /// polls it every [`INTERRUPT_POLL_INTERVAL`] iterations and charges
    /// accumulated conflicts against its step budget; when it fires,
    /// `solve` returns [`SatResult::Interrupted`].
    pub fn set_interrupt(&mut self, interrupt: crate::interrupt::Interrupt) {
        self.interrupt = interrupt;
    }

    /// Connects this solver to a shared learnt-clause pool, registering it
    /// as a participant.
    ///
    /// From then on every clause learnt with LBD within the pool's glue
    /// bound is exported (unless this solver's interrupt has already
    /// fired — a preempted racer must not publish work the caller is about
    /// to discard), and the siblings' exports are imported at decision
    /// level 0 on query entry and at every restart.  All participants must
    /// share this solver's variable numbering.
    pub fn attach_pool(&mut self, pool: Arc<ClausePool>) {
        let id = pool.register();
        self.pool = Some(PoolHandle {
            pool,
            id,
            cursor: 0,
            pending: Vec::new(),
        });
    }

    /// Sets the saved phase of `var`: the polarity its next decision tries
    /// first.  Used to seed a solver from a COI-overlapping sibling's
    /// latch polarities instead of starting from the all-false default.
    pub fn set_phase(&mut self, var: Var, positive: bool) {
        self.phase[var] = positive;
    }

    /// Adds `boost` activity-increment units to `var`'s VSIDS activity so
    /// early decisions favour it (the cross-property seeding hook).
    pub fn boost_activity(&mut self, var: Var, boost: f64) {
        self.add_activity(var, self.act_inc * boost);
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses (original plus learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of live learnt clauses.
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        self.vals.push(L_UNDEF);
        self.vals.push(L_UNDEF);
        self.levels.push(0);
        self.reasons.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.order.grow();
        self.order.insert(v, 0.0);
        v
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Adding an empty clause, or a clause that is falsified at decision
    /// level 0, makes the instance permanently unsatisfiable.  Adding a
    /// clause after a satisfiable query invalidates the previous model (the
    /// solver returns to decision level 0 first).
    pub fn add_clause(&mut self, lits: &[SatLit]) {
        if self.unsat {
            return;
        }
        if !self.trail_lim.is_empty() {
            self.backtrack(0);
        }
        // Simplify: remove duplicates and satisfied/false literals at level 0.
        let mut simplified: Vec<SatLit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            match self.lit_value(lit) {
                Some(true) => return, // already satisfied
                Some(false) => continue,
                None => {
                    if simplified.contains(&lit.negate()) {
                        return; // tautology
                    }
                    if !simplified.contains(&lit) {
                        simplified.push(lit);
                    }
                }
            }
        }
        match simplified.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(simplified[0], NO_REASON) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watch(simplified[0], idx);
                self.watch(simplified[1], idx);
                self.clauses.push(Clause {
                    lits: simplified,
                    learnt: false,
                    lbd: 0,
                    act: 0.0,
                });
            }
        }
    }

    /// Drains the sibling clauses published to the attached pool since the
    /// last drain into this solver's database, marked learnt so `reduce_db`
    /// can evict them again.  Must run at decision level 0.  Returns
    /// `false` when an import revealed level-0 unsatisfiability.
    fn import_shared(&mut self) -> bool {
        let batch = match &mut self.pool {
            None => return !self.unsat,
            Some(handle) => {
                let mut batch = std::mem::take(&mut handle.pending);
                batch.extend(handle.pool.fetch(handle.id, &mut handle.cursor));
                batch
            }
        };
        if batch.is_empty() {
            return !self.unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut attached = 0u64;
        let mut deferred: Vec<(Vec<SatLit>, u32)> = Vec::new();
        for (lits, lbd) in batch {
            // A sibling (or, for a pool reused across properties with
            // identical cones, an earlier run) may reference variables
            // this solver has not allocated yet: defer those clauses
            // until the unrolling grows into them.
            if lits.iter().any(|l| l.var() >= self.num_vars) {
                deferred.push((lits, lbd));
                continue;
            }
            if self.import_clause(&lits, lbd) {
                attached += 1;
            }
            if self.unsat {
                break;
            }
        }
        if let Some(handle) = &mut self.pool {
            handle.pending = deferred;
            handle.pool.note_imports(attached);
        }
        !self.unsat
    }

    /// Attaches one imported clause, mirroring [`Solver::add_clause`]'s
    /// level-0 simplification but recording the clause as learnt with the
    /// exporter's LBD (so the reduction heuristics treat it like local
    /// learnt clauses).  Returns `true` when the clause was integrated
    /// (attached, or enqueued as a level-0 unit).
    fn import_clause(&mut self, lits: &[SatLit], lbd: u32) -> bool {
        if self.unsat {
            return false;
        }
        let mut simplified: Vec<SatLit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            match self.lit_value(lit) {
                Some(true) => return false, // already satisfied
                Some(false) => continue,
                None => {
                    if simplified.contains(&lit.negate()) {
                        return false; // tautology
                    }
                    if !simplified.contains(&lit) {
                        simplified.push(lit);
                    }
                }
            }
        }
        match simplified.len() {
            0 => {
                // Imported clauses are implied by the shared database, so a
                // level-0-falsified import means the instance is unsat.
                self.unsat = true;
                false
            }
            1 => {
                if !self.enqueue(simplified[0], NO_REASON) || self.propagate().is_some() {
                    self.unsat = true;
                }
                true
            }
            _ => {
                let idx = self.clauses.len();
                self.watch(simplified[0], idx);
                self.watch(simplified[1], idx);
                self.clauses.push(Clause {
                    lits: simplified,
                    learnt: true,
                    lbd: lbd.max(1),
                    act: 0.0,
                });
                self.num_learnts += 1;
                true
            }
        }
    }

    fn watch(&mut self, lit: SatLit, clause: usize) {
        self.watches[lit.index()].push(clause);
    }

    fn lit_value(&self, lit: SatLit) -> Option<bool> {
        match self.vals[lit.index()] {
            L_UNDEF => None,
            v => Some(v == L_TRUE),
        }
    }

    /// The model value of `var` after a [`SatResult::Sat`] answer.
    ///
    /// Returns `None` if the variable was irrelevant (never assigned).
    pub fn value(&self, var: Var) -> Option<bool> {
        self.lit_value(SatLit::pos(var))
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn enqueue(&mut self, lit: SatLit, reason: usize) -> bool {
        match self.vals[lit.index()] {
            L_TRUE => true,
            L_FALSE => false,
            _ => {
                let v = lit.var();
                self.vals[lit.index()] = L_TRUE;
                self.vals[lit.negate().index()] = L_FALSE;
                self.levels[v] = self.decision_level();
                self.reasons[v] = reason;
                self.phase[v] = lit.is_positive();
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation.  Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let falsified = lit.negate();
            let mut watchers = std::mem::take(&mut self.watches[falsified.index()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                let lits = &mut self.clauses[ci].lits;
                // Ensure the falsified literal is in position 1.
                if lits[0] == falsified {
                    lits.swap(0, 1);
                }
                let w0 = lits[0];
                debug_assert_eq!(lits[1], falsified);
                // If the other watched literal is true, the clause is satisfied.
                if self.vals[w0.index()] == L_TRUE {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (2..lits.len()).find(|&k| self.vals[lits[k].index()] != L_FALSE) {
                    let cand = lits[k];
                    lits.swap(1, k);
                    self.watches[cand.index()].push(ci);
                    watchers.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(w0, ci) {
                    // Conflict: restore remaining watchers and report.
                    self.watches[falsified.index()].append(&mut watchers);
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[falsified.index()] = watchers;
        }
        None
    }

    fn bump_activity(&mut self, var: Var) {
        self.add_activity(var, self.act_inc);
    }

    /// Raises `var`'s activity by `inc`, rescaling every activity (and the
    /// heap keys with them) by 1e-100 once it passes 1e100.
    fn add_activity(&mut self, var: Var, inc: f64) {
        self.activity[var] += inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.order.rescale(1e-100);
            self.act_inc *= 1e-100;
        }
        self.order.bumped(var, self.activity[var]);
    }

    fn decay_activities(&mut self) {
        self.act_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].learnt {
            return;
        }
        self.clauses[ci].act += self.cla_inc;
        if self.clauses[ci].act > 1e20 {
            for c in &mut self.clauses {
                if c.learnt {
                    c.act *= 1e-20;
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of a clause under the current assignment: the
    /// number of distinct decision levels among its literals.
    fn compute_lbd(&mut self, lits: &[SatLit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        for &l in lits {
            let lv = self.levels[l.var()];
            if lv >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lv + 1, 0);
            }
            if self.lbd_stamp[lv] != stamp {
                self.lbd_stamp[lv] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis.  Returns the learnt clause (asserting
    /// literal in position 0, a watchable highest-level literal in position
    /// 1) and the level to backtrack to.
    ///
    /// When [`SolverConfig::minimize`] is on, the learnt clause is shrunk by
    /// recursive minimization: a literal is dropped when its reason-graph
    /// antecedents are all (transitively) already implied by the remaining
    /// clause literals.
    fn analyze(&mut self, conflict: usize) -> (Vec<SatLit>, usize) {
        let mut learnt: Vec<SatLit> = vec![SatLit::pos(0)]; // placeholder for the asserting literal
        self.analyze_toclear.clear();
        let mut counter = 0usize;
        let mut lit_opt: Option<SatLit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.decision_level();

        loop {
            self.bump_clause(clause_idx);
            // Skip position 0 of reason clauses: it holds the implied
            // literal being resolved on (established at enqueue time and
            // stable while the clause is a reason).
            let start = if lit_opt.is_none() { 0 } else { 1 };
            let len = self.clauses[clause_idx].lits.len();
            for k in start..len {
                let q = self.clauses[clause_idx].lits[k];
                let v = q.var();
                if !self.seen[v] && self.levels[v] > 0 {
                    self.seen[v] = true;
                    self.analyze_toclear.push(v);
                    self.bump_activity(v);
                    if self.levels[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.  Marks stay
            // set (the minimization pass below reads them); positions
            // strictly decrease, so each variable is resolved at most once.
            loop {
                trail_pos -= 1;
                let lit = self.trail[trail_pos];
                if self.seen[lit.var()] && self.levels[lit.var()] >= current_level {
                    lit_opt = Some(lit);
                    break;
                }
            }
            let p = lit_opt.expect("resolution literal");
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.negate();
                break;
            }
            clause_idx = self.reasons[p.var()];
            debug_assert_ne!(clause_idx, NO_REASON);
        }

        if self.config.minimize {
            self.minimize_learnt(&mut learnt);
        }

        // Clear the analysis marks (including any set during minimization).
        for i in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[i];
            self.seen[v] = false;
        }

        // Backtrack level: second-highest level in the learnt clause.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var()] > self.levels[learnt[max_i].var()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var()]
        };
        (learnt, backtrack_level)
    }

    /// Recursive learnt-clause minimization (MiniSat's `litRedundant`):
    /// drops clause literals whose entire reason graph is absorbed by the
    /// remaining literals.  Shorter clauses propagate faster and yield
    /// smaller PDR unsat cores.
    fn minimize_learnt(&mut self, learnt: &mut Vec<SatLit>) {
        let mut abstract_levels: u32 = 0;
        for l in &learnt[1..] {
            abstract_levels |= 1u32 << (self.levels[l.var()] & 31);
        }
        let mut idx = 1;
        while idx < learnt.len() {
            let v = learnt[idx].var();
            if self.reasons[v] != NO_REASON && self.lit_redundant(v, abstract_levels) {
                learnt.swap_remove(idx);
                self.stats.minimized_lits += 1;
            } else {
                idx += 1;
            }
        }
    }

    /// `true` when every antecedent of `v` is (transitively) implied by
    /// literals already marked `seen` — i.e. the learnt clause without `v`
    /// still covers the conflict.
    fn lit_redundant(&mut self, v: Var, abstract_levels: u32) -> bool {
        self.min_stack.clear();
        self.min_stack.push(v);
        let top = self.analyze_toclear.len();
        while let Some(u) = self.min_stack.pop() {
            let reason = self.reasons[u];
            debug_assert_ne!(reason, NO_REASON);
            let len = self.clauses[reason].lits.len();
            for k in 0..len {
                let q = self.clauses[reason].lits[k];
                let qv = q.var();
                if qv != u && !self.seen[qv] && self.levels[qv] > 0 {
                    let has_reason = self.reasons[qv] != NO_REASON;
                    let level_ok = (1u32 << (self.levels[qv] & 31)) & abstract_levels != 0;
                    if has_reason && level_ok {
                        self.seen[qv] = true;
                        self.analyze_toclear.push(qv);
                        self.min_stack.push(qv);
                    } else {
                        // A decision (or a level outside the clause) feeds
                        // this literal: not redundant.  Undo the
                        // speculative marks of this probe.
                        for i in top..self.analyze_toclear.len() {
                            let w = self.analyze_toclear[i];
                            self.seen[w] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// MiniSat-style `analyzeFinal`: starting from the literals of a
    /// falsified clause (or a failed assumption), walks the implication
    /// graph back to the assumption decisions that entail the conflict.
    ///
    /// Must run before backtracking, while levels/reasons/trail are intact.
    /// Returns the subset of the assumption literals responsible.
    fn analyze_final(&mut self, failed: SatLit) -> Vec<SatLit> {
        if self.decision_level() == 0 {
            return Vec::new();
        }
        self.analyze_toclear.clear();
        let v = failed.var();
        if self.levels[v] > 0 {
            self.seen[v] = true;
            self.analyze_toclear.push(v);
        }
        self.analyze_final_walk()
    }

    /// [`Solver::analyze_final`] seeded with the literals of a falsified
    /// clause, read in place (no clause clone on the conflict path).
    fn analyze_final_clause(&mut self, conflict: usize) -> Vec<SatLit> {
        if self.decision_level() == 0 {
            return Vec::new();
        }
        self.analyze_toclear.clear();
        let len = self.clauses[conflict].lits.len();
        for k in 0..len {
            let lit = self.clauses[conflict].lits[k];
            let v = lit.var();
            if self.levels[v] > 0 && !self.seen[v] {
                self.seen[v] = true;
                self.analyze_toclear.push(v);
            }
        }
        self.analyze_final_walk()
    }

    fn analyze_final_walk(&mut self) -> Vec<SatLit> {
        let mut core = Vec::new();
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            if !self.seen[v] {
                continue;
            }
            let reason = self.reasons[v];
            if reason == NO_REASON {
                // A decision below the assumption prefix: by construction
                // every decision reached here is an assumption literal.
                core.push(lit);
            } else {
                // Mark the antecedents (the implied literal itself is `v`,
                // which is already seen, so marking the whole clause is
                // safe regardless of watched-literal reordering).
                for j in 0..self.clauses[reason].lits.len() {
                    let q = self.clauses[reason].lits[j];
                    let qv = q.var();
                    if qv != v && self.levels[qv] > 0 && !self.seen[qv] {
                        self.seen[qv] = true;
                        self.analyze_toclear.push(qv);
                    }
                }
            }
        }
        for i in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[i];
            self.seen[v] = false;
        }
        core
    }

    fn backtrack(&mut self, level: usize) {
        while self.decision_level() > level {
            let start = self.trail_lim.pop().expect("trail limit");
            while self.trail.len() > start {
                let lit = self.trail.pop().expect("trail entry");
                let v = lit.var();
                self.vals[lit.index()] = L_UNDEF;
                self.vals[lit.negate().index()] = L_UNDEF;
                self.reasons[v] = NO_REASON;
                self.order.insert(v, self.activity[v]);
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max() {
            if self.vals[SatLit::pos(v).index()] == L_UNDEF {
                return Some(v);
            }
        }
        // Every unassigned variable sits in the heap by construction, so an
        // empty heap means a full assignment (every variable is on the trail
        // exactly once).  The scan only answers an invariant slip, which
        // debug builds report instead.
        debug_assert_eq!(
            self.trail.len(),
            self.num_vars,
            "an unassigned variable is missing from the decision heap"
        );
        if self.trail.len() == self.num_vars {
            return None;
        }
        (0..self.num_vars).find(|&v| self.vals[SatLit::pos(v).index()] == L_UNDEF)
    }

    /// Garbage-collects the clause database at decision level 0.
    ///
    /// Removes every clause satisfied at level 0 — which is how clauses
    /// guarded by a *retired* activation literal (the PDR pattern: assert
    /// the negated activation as a unit) and stale learnt clauses leave the
    /// database for good — and deletes level-0-falsified literals from the
    /// clauses that remain, rebuilding the watch lists from scratch.
    ///
    /// Semantically a no-op: unit propagation already treats satisfied
    /// clauses and false literals as inert; this reclaims the memory and
    /// the watch-list traversal cost.  Returns `(clauses_removed,
    /// literals_removed)`.
    pub fn simplify(&mut self) -> (usize, usize) {
        if self.unsat {
            return (0, 0);
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return (0, 0);
        }
        self.rebuild_db(&[])
    }

    /// Evicts high-glue, low-activity learnt clauses once the live learnt
    /// count crosses the ceiling.  Clauses with glue ≤ 2 and binary clauses
    /// are kept unconditionally; of the rest, the worse half (by glue, then
    /// activity) is dropped.  Runs at decision level 0, where no surviving
    /// reason references a learnt clause, so the database can be compacted
    /// in place.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut candidates: Vec<(u32, f64, usize)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && c.lits.len() > 2 && c.lbd > 2)
            .map(|(i, c)| (c.lbd, c.act, i))
            .collect();
        // Worst first: highest glue, then lowest activity, then oldest.
        candidates.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.2.cmp(&b.2))
        });
        let ndelete = candidates.len() / 2;
        let mut delete = vec![false; self.clauses.len()];
        for &(_, _, i) in candidates.iter().take(ndelete) {
            delete[i] = true;
        }
        self.rebuild_db(&delete);
        self.stats.learnt_kept += self.num_learnts as u64;
    }

    /// Rebuilds the clause database at decision level 0: drops clauses
    /// satisfied at level 0 and those marked in `delete`, strips
    /// level-0-false literals, and rebuilds the watch lists.  `delete` may
    /// be shorter than the clause vector (missing entries mean keep).
    fn rebuild_db(&mut self, delete: &[bool]) -> (usize, usize) {
        debug_assert_eq!(self.decision_level(), 0);
        let old_clauses = std::mem::take(&mut self.clauses);
        for watch_list in &mut self.watches {
            watch_list.clear();
        }
        // Reasons of level-0 assignments may point at clause indices that
        // are about to be compacted away; level-0 literals are never
        // resolved on, so the references can simply be dropped.
        for i in 0..self.trail.len() {
            self.reasons[self.trail[i].var()] = NO_REASON;
        }
        self.num_learnts = 0;
        let mut removed_clauses = 0;
        let mut removed_lits = 0;
        'clauses: for (ci, mut clause) in old_clauses.into_iter().enumerate() {
            if delete.get(ci).copied().unwrap_or(false) {
                removed_clauses += 1;
                self.stats.learnt_deleted += 1;
                continue;
            }
            let mut i = 0;
            while i < clause.lits.len() {
                match self.lit_value(clause.lits[i]) {
                    Some(true) => {
                        removed_clauses += 1;
                        continue 'clauses;
                    }
                    Some(false) => {
                        clause.lits.swap_remove(i);
                        removed_lits += 1;
                    }
                    None => i += 1,
                }
            }
            // After a conflict-free level-0 propagation every surviving
            // clause has at least two unassigned literals; handle the
            // shorter shapes defensively anyway.
            match clause.lits.len() {
                0 => {
                    self.unsat = true;
                    return (removed_clauses, removed_lits);
                }
                1 => {
                    removed_clauses += 1;
                    if !self.enqueue(clause.lits[0], NO_REASON) {
                        self.unsat = true;
                        return (removed_clauses, removed_lits);
                    }
                }
                _ => {
                    let idx = self.clauses.len();
                    self.watch(clause.lits[0], idx);
                    self.watch(clause.lits[1], idx);
                    if clause.learnt {
                        self.num_learnts += 1;
                    }
                    self.clauses.push(clause);
                }
            }
        }
        if self.propagate().is_some() {
            self.unsat = true;
        }
        (removed_clauses, removed_lits)
    }

    /// After an [`SatResult::Unsat`] answer from [`Solver::solve`], the
    /// subset of the assumption literals that sufficed for the conflict (the
    /// *final conflict*).  Empty when the clause database is unsatisfiable
    /// on its own.  This is the core primitive behind activation-literal
    /// based incremental solving: the PDR engine assumes a cube literal per
    /// latch and reads back which of them an UNSAT answer actually used.
    pub fn unsat_core(&self) -> &[SatLit] {
        &self.core
    }

    /// Solves the instance under the given assumptions.
    ///
    /// Assumption literals are forced true for this query only; the clause
    /// database and learnt clauses persist between calls, enabling
    /// incremental use by the bounded model checker and the PDR engine.  On
    /// an [`SatResult::Unsat`] answer, [`Solver::unsat_core`] reports which
    /// assumptions the conflict depended on.
    pub fn solve(&mut self, assumptions: &[SatLit]) -> SatResult {
        let result = self.search(assumptions);
        // The search loop charges the step budget only at its poll
        // cadence, so conflicts spent after the last poll point would
        // otherwise never reach the budget at all — a stream of
        // sub-cadence queries could run forever on an exhausted budget,
        // and a race turn quantum finer than the cadence would never
        // preempt.  Charge the tail here: the completed answer stands
        // (the work is already done), but the latch makes the caller's
        // next budget check observe the true spend.
        let tail = self.stats.conflicts - self.conflicts_charged;
        self.conflicts_charged = self.stats.conflicts;
        if tail > 0 {
            self.interrupt.charge(tail);
        }
        result
    }

    fn search(&mut self, assumptions: &[SatLit]) -> SatResult {
        self.core.clear();
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        if self.restart_next == 0 {
            self.restart_next = u64::from(self.config.restart_base.max(1));
        }
        if self.max_learnts == 0 {
            self.max_learnts = self.config.reduce_base.max(16);
        }
        // An interrupt latched before this query (deadline already past,
        // budget already spent) preempts it outright.
        if self.interrupt.poll().is_some() {
            self.backtrack(0);
            return SatResult::Interrupted;
        }
        // Pull in whatever the portfolio siblings published since the last
        // query (the solver sits at decision level 0 here).
        if !self.import_shared() {
            return SatResult::Unsat;
        }
        let mut iterations: u64 = 0;
        let mut props_polled = self.stats.propagations;

        loop {
            // Cooperative preemption: every INTERRUPT_POLL_INTERVAL loop
            // iterations — or every PROPAGATION_POLL_INTERVAL propagations,
            // whichever comes first — charge the conflicts since the last
            // poll to the step budget and check the deadline/cancel
            // sources.
            iterations += 1;
            if iterations & (INTERRUPT_POLL_INTERVAL - 1) == 0
                || self.stats.propagations.wrapping_sub(props_polled) >= PROPAGATION_POLL_INTERVAL
            {
                props_polled = self.stats.propagations;
                let delta = self.stats.conflicts - self.conflicts_charged;
                self.conflicts_charged = self.stats.conflicts;
                if self.interrupt.charge(delta).is_some() || self.interrupt.poll().is_some() {
                    self.backtrack(0);
                    return SatResult::Interrupted;
                }
            }
            // Luby restart: abandon the current prefix (saved phases make
            // the replay cheap); assumptions are re-applied below.  Level 0
            // is also the import point for pooled sibling clauses.
            if self.config.restarts && self.stats.conflicts >= self.restart_next {
                self.stats.restarts += 1;
                self.restart_seq += 1;
                // `restart_base` is clamped to ≥ 1: a zero interval would
                // restart on every iteration without ever conflicting.
                self.restart_next = self.stats.conflicts
                    + u64::from(self.config.restart_base.max(1)) * luby(self.restart_seq);
                self.backtrack(0);
                if !self.import_shared() {
                    return SatResult::Unsat;
                }
            }
            // Periodic learnt-clause database reduction (needs level 0:
            // reasons reference clause indices about to be compacted).
            if self.config.reduce && self.num_learnts >= self.max_learnts {
                self.backtrack(0);
                if self.propagate().is_some() {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                self.reduce_db();
                self.max_learnts += self.max_learnts / 2;
                if self.unsat {
                    return SatResult::Unsat;
                }
            }

            // (Re-)apply assumptions at successive decision levels.
            while self.decision_level() < assumptions.len() {
                let a = assumptions[self.decision_level()];
                match self.lit_value(a) {
                    Some(true) => {
                        // Already satisfied: open an empty decision level so
                        // indexing stays aligned.
                        self.trail_lim.push(self.trail.len());
                    }
                    Some(false) => {
                        // The assumption is falsified by earlier assumptions
                        // (and the clause database): the core is `a` plus
                        // whatever forced its negation.
                        self.core = self.analyze_final(a);
                        if !self.core.contains(&a) {
                            self.core.push(a);
                        }
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                    None => {
                        self.trail_lim.push(self.trail.len());
                        self.stats.decisions += 1;
                        let ok = self.enqueue(a, NO_REASON);
                        debug_assert!(ok);
                    }
                }
                if let Some(conflict) = self.propagate() {
                    self.core = self.analyze_final_clause(conflict);
                    self.backtrack(0);
                    return SatResult::Unsat;
                }
            }

            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() <= assumptions.len() {
                    // Conflict that depends only on assumptions (or level 0).
                    self.core = self.analyze_final_clause(conflict);
                    self.backtrack(0);
                    if self.decision_level() == 0 && assumptions.is_empty() {
                        self.unsat = true;
                    }
                    return SatResult::Unsat;
                }
                let (learnt, level) = self.analyze(conflict);
                // The (minimized) learnt clause must still be falsified by
                // the conflicting assignment — the certificate that
                // minimization only dropped redundant literals.
                debug_assert!(
                    learnt.iter().all(|&l| self.lit_value(l) == Some(false)),
                    "learnt clause not falsified at the conflict"
                );
                let lbd = self.compute_lbd(&learnt);
                // Export within the glue bound — unless this solver's
                // interrupt already fired, in which case the clause was
                // derived on borrowed time and a cancelled racer must not
                // publish it ("preempted ≠ proven" extends to exports).
                if let Some(handle) = &self.pool {
                    if self.interrupt.triggered().is_none() {
                        handle.pool.publish(handle.id, &learnt, lbd);
                    }
                }
                self.backtrack(level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    // Unit learnt clause: assert at level 0 so it persists;
                    // assumptions are re-applied by the outer loop.
                    self.backtrack(0);
                    if !self.enqueue(asserting, NO_REASON) {
                        // The implied unit contradicts level 0: the clause
                        // database itself is unsatisfiable.
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    if self.propagate().is_some() {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let idx = self.clauses.len();
                    self.watch(learnt[0], idx);
                    self.watch(learnt[1], idx);
                    self.clauses.push(Clause {
                        lits: learnt,
                        learnt: true,
                        lbd,
                        act: 0.0,
                    });
                    self.num_learnts += 1;
                    self.stats.learnt += 1;
                    self.bump_clause(idx);
                    if !self.enqueue(asserting, idx) {
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                }
                self.decay_activities();
            } else {
                match self.pick_branch_var() {
                    None => return SatResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = SatLit::new(v, self.phase[v]);
                        let ok = self.enqueue(lit, NO_REASON);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
/// (`i` is 1-based).
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding() {
        let a = SatLit::pos(3);
        assert_eq!(a.var(), 3);
        assert!(a.is_positive());
        assert!(!a.negate().is_positive());
        assert_eq!(a.negate().negate(), a);
        assert_eq!(a.to_string(), "4");
        assert_eq!(a.negate().to_string(), "-4");
    }

    #[test]
    fn luby_sequence_is_correct() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[SatLit::pos(a)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[SatLit::pos(a)]);
        s.add_clause(&[SatLit::neg(a)]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        // a -> b -> c -> d, with a forced true: all must be true.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[SatLit::neg(w[0]), SatLit::pos(w[1])]);
        }
        s.add_clause(&[SatLit::pos(vars[0])]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: unsatisfiable.  Exercises conflict analysis.
        let mut s = Solver::new();
        // p[i][j] = pigeon i in hole j
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        // Every pigeon in some hole.
        for row in &p {
            s.add_clause(&[SatLit::pos(row[0]), SatLit::pos(row[1])]);
        }
        // No two pigeons share a hole.
        for hole in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in p.iter().skip(i1 + 1) {
                    s.add_clause(&[SatLit::neg(row1[hole]), SatLit::neg(row2[hole])]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn solving_under_assumptions_is_incremental() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        // Assuming !a forces b.
        assert_eq!(s.solve(&[SatLit::neg(a)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        // Assuming !a and !b is unsat.
        assert_eq!(s.solve(&[SatLit::neg(a), SatLit::neg(b)]), SatResult::Unsat);
        // The solver remains usable afterwards.
        assert_eq!(s.solve(&[SatLit::pos(a)]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn unsat_core_is_a_subset_of_the_assumptions() {
        // (a | b), (!a | c), (!b | c): assuming !c and a is unsat, and the
        // core must not mention the irrelevant assumption d.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let d = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        s.add_clause(&[SatLit::neg(a), SatLit::pos(c)]);
        s.add_clause(&[SatLit::neg(b), SatLit::pos(c)]);
        let assumptions = [SatLit::pos(d), SatLit::neg(c), SatLit::pos(a)];
        assert_eq!(s.solve(&assumptions), SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(assumptions.contains(l), "core literal {l} not assumed");
        }
        assert!(
            !core.contains(&SatLit::pos(d)),
            "irrelevant literal in core"
        );
        // The core itself must be unsatisfiable.
        assert_eq!(s.solve(&core), SatResult::Unsat);
        // The solver stays usable and Sat answers clear the core.
        assert_eq!(s.solve(&[SatLit::pos(c)]), SatResult::Sat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn unsat_core_of_directly_conflicting_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        assert_eq!(s.solve(&[SatLit::pos(a), SatLit::neg(a)]), SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&SatLit::pos(a)));
        assert!(core.contains(&SatLit::neg(a)));
    }

    #[test]
    fn unsat_core_empty_when_database_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a)]);
        s.add_clause(&[SatLit::neg(a)]);
        assert_eq!(s.solve(&[SatLit::pos(b)]), SatResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn activation_literals_retire_clauses() {
        // The PDR usage pattern: a clause guarded by an activation literal
        // participates only while the activation is assumed, and is retired
        // for good by asserting the negated activation as a unit.
        let mut s = Solver::new();
        let act = s.new_var();
        let x = s.new_var();
        s.add_clause(&[SatLit::neg(act), SatLit::pos(x)]);
        assert_eq!(
            s.solve(&[SatLit::pos(act), SatLit::neg(x)]),
            SatResult::Unsat
        );
        assert_eq!(s.solve(&[SatLit::neg(x)]), SatResult::Sat);
        s.add_clause(&[SatLit::neg(act)]);
        assert_eq!(s.solve(&[SatLit::neg(x)]), SatResult::Sat);
    }

    #[test]
    fn random_cores_are_unsat_subsets() {
        // Random instances solved under random assumptions: every Unsat
        // answer must yield a core that is (a) a subset of the assumptions
        // and (b) itself unsatisfiable.
        let mut seed: u64 = 0xDEADBEEF;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut unsat_seen = 0;
        for _ in 0..60 {
            let num_vars = 8;
            let mut s = Solver::new();
            for _ in 0..num_vars {
                s.new_var();
            }
            for _ in 0..20 {
                let clause: Vec<SatLit> = (0..3)
                    .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                    .collect();
                s.add_clause(&clause);
            }
            let mut assumptions: Vec<SatLit> = (0..4)
                .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            assumptions.dedup_by_key(|l| l.var());
            if s.solve(&assumptions) == SatResult::Unsat {
                unsat_seen += 1;
                let core = s.unsat_core().to_vec();
                for l in &core {
                    assert!(assumptions.contains(l));
                }
                assert_eq!(s.solve(&core), SatResult::Unsat, "core not unsat");
            }
        }
        assert!(unsat_seen > 0, "test never exercised the Unsat path");
    }

    #[test]
    fn simplify_removes_retired_activation_clauses() {
        let mut s = Solver::new();
        let act = s.new_var();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[SatLit::neg(act), SatLit::pos(x)]);
        s.add_clause(&[SatLit::neg(act), SatLit::pos(y)]);
        s.add_clause(&[SatLit::pos(x), SatLit::pos(y)]);
        assert_eq!(s.num_clauses(), 3);
        // Retire the activation literal for good (the PDR pattern).
        s.add_clause(&[SatLit::neg(act)]);
        let (clauses_removed, _) = s.simplify();
        assert_eq!(clauses_removed, 2);
        assert_eq!(s.num_clauses(), 1);
        // The retired clauses no longer constrain x and y.
        assert_eq!(s.solve(&[SatLit::neg(x)]), SatResult::Sat);
        assert_eq!(s.value(y), Some(true));
    }

    #[test]
    fn simplify_strips_false_literals() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b), SatLit::pos(c)]);
        s.add_clause(&[SatLit::neg(a)]);
        let (clauses_removed, lits_removed) = s.simplify();
        assert_eq!(clauses_removed, 0);
        assert_eq!(lits_removed, 1);
        // The shrunk clause (b | c) still constrains correctly.
        assert_eq!(s.solve(&[SatLit::neg(b)]), SatResult::Sat);
        assert_eq!(s.value(c), Some(true));
        assert_eq!(s.solve(&[SatLit::neg(b), SatLit::neg(c)]), SatResult::Unsat);
    }

    #[test]
    fn simplify_preserves_answers_on_random_instances() {
        // Interleaving simplify() with solving must never change a verdict:
        // build the same instance into a plain solver and a simplified one
        // and compare under identical assumptions.
        let mut seed: u64 = 0xC0FFEE;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let num_vars = 8;
            let clauses: Vec<Vec<SatLit>> = (0..24)
                .map(|_| {
                    (0..3)
                        .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut plain = Solver::new();
            let mut gc = Solver::new();
            for _ in 0..num_vars {
                plain.new_var();
                gc.new_var();
            }
            for (i, clause) in clauses.iter().enumerate() {
                plain.add_clause(clause);
                gc.add_clause(clause);
                if i == clauses.len() / 2 {
                    // Mid-build solve generates learnt clauses to collect.
                    let _ = gc.solve(&[]);
                    gc.simplify();
                }
            }
            gc.simplify();
            let assumptions: Vec<SatLit> = (0..3)
                .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            assert_eq!(
                plain.solve(&assumptions),
                gc.solve(&assumptions),
                "simplify changed the verdict on {clauses:?} under {assumptions:?}"
            );
        }
    }

    #[test]
    fn xor_chain_satisfiable() {
        // Tseitin-encoded xor chain: x1 ^ x2 ^ x3 = 1.
        let mut s = Solver::new();
        let x1 = s.new_var();
        let x2 = s.new_var();
        let x3 = s.new_var();
        let t = s.new_var(); // t = x1 ^ x2
                             // t <-> x1 xor x2
        s.add_clause(&[SatLit::neg(t), SatLit::pos(x1), SatLit::pos(x2)]);
        s.add_clause(&[SatLit::neg(t), SatLit::neg(x1), SatLit::neg(x2)]);
        s.add_clause(&[SatLit::pos(t), SatLit::neg(x1), SatLit::pos(x2)]);
        s.add_clause(&[SatLit::pos(t), SatLit::pos(x1), SatLit::neg(x2)]);
        // t xor x3 = 1  ->  t != x3
        s.add_clause(&[SatLit::pos(t), SatLit::pos(x3)]);
        s.add_clause(&[SatLit::neg(t), SatLit::neg(x3)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        let v1 = s.value(x1).unwrap();
        let v2 = s.value(x2).unwrap();
        let v3 = s.value(x3).unwrap();
        assert!(v1 ^ v2 ^ v3);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(a), SatLit::pos(b)]);
        s.add_clause(&[SatLit::pos(a), SatLit::neg(a)]); // tautology: ignored
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    /// Builds a pseudo-random 3-SAT instance into `s` from `seed`.
    fn random_3sat(s: &mut Solver, seed: u64, num_vars: usize, num_clauses: usize) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        while s.num_vars() < num_vars {
            s.new_var();
        }
        for _ in 0..num_clauses {
            let clause: Vec<SatLit> = (0..3)
                .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            s.add_clause(&clause);
        }
    }

    #[test]
    fn all_feature_configurations_agree() {
        // Restarts, minimization and reduction individually toggled off must
        // never change a verdict, and unsat cores must stay valid cores.
        let configs = [
            SolverConfig::default(),
            SolverConfig {
                restarts: false,
                ..SolverConfig::default()
            },
            SolverConfig {
                minimize: false,
                ..SolverConfig::default()
            },
            SolverConfig {
                reduce: false,
                ..SolverConfig::default()
            },
            SolverConfig::baseline(),
            // Aggressive settings so restarts and reduction actually fire
            // on these small instances.
            SolverConfig {
                restart_base: 2,
                reduce_base: 4,
                ..SolverConfig::default()
            },
        ];
        for seed in 1..40u64 {
            let mut verdicts = Vec::new();
            for config in configs {
                let mut s = Solver::with_config(config);
                random_3sat(&mut s, seed.wrapping_mul(0x9E3779B97F4A7C15), 10, 42);
                let assumptions = [
                    SatLit::new((seed % 10) as usize, seed % 2 == 0),
                    SatLit::new(((seed / 3) % 10) as usize, seed % 3 == 0),
                ];
                let result = s.solve(&assumptions);
                if result == SatResult::Unsat {
                    let core = s.unsat_core().to_vec();
                    for l in &core {
                        assert!(assumptions.contains(l), "core literal {l} not assumed");
                    }
                    assert_eq!(s.solve(&core), SatResult::Unsat, "core not unsat");
                }
                verdicts.push(result);
            }
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: configurations disagree: {verdicts:?}"
            );
        }
    }

    /// Encodes the pigeonhole principle PHP(holes + 1, holes) into `s`.
    fn pigeonhole(s: &mut Solver, holes: usize) {
        let p: Vec<Vec<Var>> = (0..holes + 1)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let clause: Vec<SatLit> = row.iter().map(|&v| SatLit::pos(v)).collect();
            s.add_clause(&clause);
        }
        for hole in 0..holes {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in p.iter().skip(i1 + 1) {
                    s.add_clause(&[SatLit::neg(row1[hole]), SatLit::neg(row2[hole])]);
                }
            }
        }
    }

    #[test]
    fn minimization_shrinks_learnt_clauses_and_keeps_them_falsified() {
        // Pigeonhole conflicts resolve through long implication chains, so
        // first-UIP clauses carry redundant literals.  The debug assertion
        // in `solve` checks every (minimized) learnt clause is still
        // falsified at its conflict; here we additionally require
        // minimization to actually fire, and the verdict to survive it.
        let mut with_min = Solver::new();
        let mut without_min = Solver::with_config(SolverConfig {
            minimize: false,
            ..SolverConfig::default()
        });
        pigeonhole(&mut with_min, 5);
        pigeonhole(&mut without_min, 5);
        assert_eq!(with_min.solve(&[]), SatResult::Unsat);
        assert_eq!(without_min.solve(&[]), SatResult::Unsat);
        assert!(
            with_min.stats.minimized_lits > 0,
            "minimization never removed a literal: {:?}",
            with_min.stats
        );
        assert_eq!(without_min.stats.minimized_lits, 0);
    }

    #[test]
    fn restarts_fire_and_preserve_verdicts() {
        // Pigeonhole 6-into-5: enough conflicts for several Luby restarts.
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 1,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert!(s.stats.restarts > 0, "no restart fired: {:?}", s.stats);
    }

    #[test]
    fn zero_restart_interval_terminates() {
        // A pathological restart_base of 0 must be clamped, not livelock
        // (restart → undo decision → re-decide → restart …).
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 0,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 4);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let mut sat = Solver::with_config(SolverConfig {
            restart_base: 0,
            ..SolverConfig::default()
        });
        let a = sat.new_var();
        let b = sat.new_var();
        sat.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        assert_eq!(sat.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn reduce_db_evicts_learnt_clauses_without_changing_verdicts() {
        let mut reducing = Solver::with_config(SolverConfig {
            reduce_base: 8,
            ..SolverConfig::default()
        });
        let mut plain = Solver::with_config(SolverConfig::baseline());
        pigeonhole(&mut reducing, 5);
        pigeonhole(&mut plain, 5);
        assert_eq!(reducing.solve(&[]), plain.solve(&[]));
        assert!(
            reducing.stats.reductions > 0 && reducing.stats.learnt_deleted > 0,
            "reduce_db never fired: {:?}",
            reducing.stats
        );
    }

    #[test]
    fn stats_count_search_work() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        s.add_clause(&[SatLit::neg(a), SatLit::pos(b)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.stats.decisions > 0);
        assert!(s.stats.propagations > 0);
        let total = s.stats + SolverStats::default();
        assert_eq!(total, s.stats);
    }

    #[test]
    fn pool_filters_by_glue_bound_and_deduplicates() {
        let pool = ClausePool::new(2);
        let a = SatLit::pos(0);
        let b = SatLit::pos(1);
        pool.publish(0, &[a, b], 2);
        assert_eq!(pool.exported(), 1);
        // Same literal set (any order) is a duplicate.
        pool.publish(1, &[b, a], 1);
        assert_eq!(pool.exported(), 1);
        assert_eq!(pool.filtered(), 1);
        // Above the glue bound: rejected.
        pool.publish(0, &[a, b.negate()], 3);
        assert_eq!(pool.exported(), 1);
        assert_eq!(pool.filtered(), 2);
        assert_eq!(pool.len(), 1);
        // Readers skip their own clauses.
        let mut cursor = 0;
        assert!(pool.fetch(0, &mut cursor).is_empty());
        let mut cursor = 0;
        assert_eq!(pool.fetch(1, &mut cursor).len(), 1);
        // The cursor advanced past everything scanned.
        assert!(pool.fetch(1, &mut cursor).is_empty());
    }

    #[test]
    fn shared_pool_preserves_verdicts_and_moves_clauses() {
        // An exporter solves a hard unsat instance, filling the pool; an
        // importer over the same variables then solves it again, pulling
        // the exports in.  Both verdicts must match the pool-free solve.
        let pool = Arc::new(ClausePool::new(4));
        let mut exporter = Solver::new();
        exporter.attach_pool(pool.clone());
        pigeonhole(&mut exporter, 5);
        assert_eq!(exporter.solve(&[]), SatResult::Unsat);
        assert!(pool.exported() > 0, "no clause met the glue bound");
        assert_eq!(pool.imported(), 0, "exporter re-imported its own work");

        let mut importer = Solver::new();
        importer.attach_pool(pool.clone());
        pigeonhole(&mut importer, 5);
        assert_eq!(importer.solve(&[]), SatResult::Unsat);
        assert!(pool.imported() > 0, "importer never attached a clause");

        // A satisfiable query over the same pool stays satisfiable.
        let pool = Arc::new(ClausePool::new(4));
        let mut first = Solver::new();
        first.attach_pool(pool.clone());
        random_3sat(&mut first, 7, 12, 30);
        let verdict = first.solve(&[]);
        let mut second = Solver::new();
        second.attach_pool(pool);
        random_3sat(&mut second, 7, 12, 30);
        assert_eq!(second.solve(&[]), verdict);
    }

    #[test]
    fn pooled_clauses_are_implied_by_the_exporting_instance() {
        // Every pooled clause C must be a consequence of the exporter's
        // clause database: asserting ¬C as assumptions must be Unsat on a
        // fresh solver over the same instance.
        for seed in 1..8u64 {
            let pool = Arc::new(ClausePool::new(4));
            let mut exporter = Solver::new();
            exporter.attach_pool(pool.clone());
            random_3sat(&mut exporter, seed, 12, 51);
            let _ = exporter.solve(&[]);
            for (clause, _) in pool.snapshot() {
                let mut checker = Solver::new();
                random_3sat(&mut checker, seed, 12, 51);
                let negated: Vec<SatLit> = clause.iter().map(|l| l.negate()).collect();
                assert_eq!(
                    checker.solve(&negated),
                    SatResult::Unsat,
                    "seed {seed}: pooled clause {clause:?} is not implied"
                );
            }
        }
    }

    #[test]
    fn cancelled_solver_exports_nothing() {
        // A racer whose interrupt fired before (or during) its turn must
        // not publish clauses: cancellation latches immediately, and both
        // the entry poll and the per-learn export gate observe it.
        let cancel = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let interrupt = crate::interrupt::Interrupt::new(None, None, Some(cancel));
        let pool = Arc::new(ClausePool::new(u32::MAX));
        let mut s = Solver::new();
        s.set_interrupt(interrupt);
        s.attach_pool(pool.clone());
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(&[]), SatResult::Interrupted);
        assert_eq!(pool.exported(), 0, "cancelled solver published clauses");
    }

    #[test]
    fn phase_and_activity_seeding_steer_decisions() {
        // With no constraints the first decision on a variable follows its
        // saved phase, and boosted variables are decided first.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.set_phase(a, true);
        s.set_phase(b, false);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));

        // b outranks a after a boost: the clause (¬a | ¬b) then assigns b
        // first (true via its seeded phase) and propagates ¬a.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.set_phase(a, true);
        s.set_phase(b, true);
        s.boost_activity(b, 10.0);
        s.add_clause(&[SatLit::neg(a), SatLit::neg(b)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.value(a), Some(false));
    }

    #[test]
    fn random_3sat_instances_agree_with_brute_force() {
        // Small random instances cross-checked against exhaustive enumeration.
        let mut seed: u64 = 0x12345678;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let num_vars = 6;
            let num_clauses = 18;
            let clauses: Vec<Vec<SatLit>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = (next() % num_vars as u64) as usize;
                            SatLit::new(v, next() % 2 == 0)
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0..(1u32 << num_vars) {
                for clause in &clauses {
                    let ok = clause.iter().any(|l| {
                        let val = (bits >> l.var()) & 1 == 1;
                        if l.is_positive() {
                            val
                        } else {
                            !val
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            for _ in 0..num_vars {
                s.new_var();
            }
            for clause in &clauses {
                s.add_clause(clause);
            }
            let result = s.solve(&[]);
            assert_eq!(
                result == SatResult::Sat,
                brute_sat,
                "solver disagrees with brute force on {clauses:?}"
            );
            if result == SatResult::Sat {
                // Verify the model actually satisfies every clause.
                for clause in &clauses {
                    assert!(clause.iter().any(|l| {
                        let val = s.value(l.var()).unwrap_or(false);
                        if l.is_positive() {
                            val
                        } else {
                            !val
                        }
                    }));
                }
            }
        }
    }

    #[test]
    fn var_heap_pops_in_activity_then_index_order() {
        // Random insert / bump / rescale / pop sequences, with activities
        // bumped by small whole numbers so ties are frequent: every pop must
        // return the variable a reference sort by (activity descending,
        // index ascending) puts first among those inside, and the final
        // drain must pop in exactly that sorted order.  At most two
        // rescales per round keep every key far above the subnormal range,
        // where the 1e-100 product could merge distinct keys (in the solver
        // as here: keys and activities always take the same product).
        let mut state: u64 = 0x5EED_0F4E_A9C3;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let reference = |act: &[f64], inside: &[bool]| -> Vec<Var> {
            let mut vars: Vec<Var> = (0..act.len()).filter(|&v| inside[v]).collect();
            vars.sort_by(|&a, &b| act[b].total_cmp(&act[a]).then(a.cmp(&b)));
            vars
        };
        for _ in 0..300 {
            let n = 1 + (next() % 40) as usize;
            let mut heap = VarHeap::default();
            let mut act = vec![0.0f64; n];
            let mut inside = vec![false; n];
            let mut rescales = 0;
            for _ in 0..n {
                heap.grow();
            }
            for _ in 0..200 {
                let v = (next() % n as u64) as usize;
                match next() % 6 {
                    0 | 1 => {
                        heap.insert(v, act[v]);
                        inside[v] = true;
                    }
                    2 | 3 => {
                        act[v] += (next() % 3) as f64;
                        heap.bumped(v, act[v]);
                    }
                    4 if rescales < 2 => {
                        rescales += 1;
                        for a in &mut act {
                            *a *= 1e-100;
                        }
                        heap.rescale(1e-100);
                    }
                    _ => {
                        let expected = reference(&act, &inside).first().copied();
                        assert_eq!(heap.pop_max(), expected);
                        if let Some(top) = expected {
                            inside[top] = false;
                        }
                    }
                }
            }
            let order = reference(&act, &inside);
            let popped: Vec<Var> = std::iter::from_fn(|| heap.pop_max()).collect();
            assert_eq!(popped, order);
        }
    }
}
