//! Parallel verification orchestration: scheduling, budgets and the proof
//! cache.
//!
//! The checker turns every property of a testbench into an independent task
//! on its own cone-of-influence slice (see [`crate::coi`]); this module
//! supplies the machinery that runs those tasks:
//!
//! * [`ParallelOptions`] — the orchestration knobs on
//!   [`crate::checker::CheckOptions`]: worker count (`threads = 1` is the
//!   sequential escape hatch), slicing on/off, an optional per-property time
//!   budget, first-violation cancellation, and an optional [`ProofCache`];
//! * [`run_phased`] — a self-scheduling worker pool over [`std::thread`]
//!   (no external dependencies): the workers first prepare (optimize)
//!   every distinct slice, then idle workers steal the next property index
//!   from a shared atomic queue head, results land in annotation order, and
//!   a shared cancellation flag stops the fleet early.  Statuses are
//!   deterministic — every engine is single-threaded and runs on an
//!   identical slice regardless of interleaving — so a report assembled
//!   from a parallel run renders byte-identically to a sequential one;
//! * [`ProofCache`] — a process-wide store keyed by *slice fingerprint +
//!   property name*.  Identical cones (buggy/fixed design variants,
//!   repeated bench iterations, properties stamped out by the same
//!   annotation) reuse verdicts instead of re-running engines.  Cache hits
//!   are never trusted blindly where an artifact can be re-checked: PDR
//!   invariants are re-certified against the slice with an independent SAT
//!   check, counterexample/witness traces are replayed through the
//!   two-state simulator, and disk-loaded k-induction verdicts are
//!   re-proven at their recorded depth on first use; entries that fail
//!   validation are evicted and the property is re-verified from scratch.
//!   The cache can spill to disk
//!   ([`ProofCache::open`]/[`ProofCache::flush`]) — only these
//!   re-checkable kinds cross the process boundary.  It also keeps each
//!   prepared model's optimizer witness, which a warm run replays with one
//!   checked SAT query instead of re-running the optimizer.

use crate::aig::Lit;
use crate::coi::Fingerprint;
use crate::model::{BadProperty, Model};
use crate::opt::{OptWitness, OPT_VERSION};
use crate::pdr::Invariant;
use crate::sat::{ClausePool, SolverConfig};
use crate::sim::Simulator;
use crate::trace::{SignalTrace, Trace};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Orchestration options for a verification run (part of
/// [`crate::checker::CheckOptions`]).
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Number of worker threads; `0` uses every available core, `1` is the
    /// fully sequential escape hatch.
    pub threads: usize,
    /// Check each property on its cone-of-influence slice instead of the
    /// full compiled model (verdict-preserving; see [`crate::coi`]).
    pub slice: bool,
    /// Run the AIG static-analysis/optimization pass ([`crate::opt`]) on
    /// each property slice before the engine cascade: constant sweeping,
    /// sequential latch sweeping, combinational gate sweeping and dead-node
    /// elimination, all verdict-preserving.  Only applies when `slice` is
    /// on — the `slice: false` escape hatch keeps the exact
    /// pre-orchestrator behaviour, untouched model included.
    pub opt: bool,
    /// Wall-clock budget per property; a property still undecided when its
    /// budget runs out between engine stages reports
    /// [`crate::checker::PropertyStatus::Unknown`] with an explanatory note.
    /// Budgets make outcomes timing-dependent, so the default is `None`.
    pub property_timeout: Option<Duration>,
    /// Raise the shared cancellation flag as soon as any property is
    /// violated; properties not yet started report `Unknown`.  Useful for
    /// bug-hunting sweeps; off by default because it makes reports depend on
    /// scheduling order.
    pub stop_on_violation: bool,
    /// Share verified verdicts across runs keyed by slice fingerprint.
    pub cache: Option<ProofCache>,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 0,
            slice: true,
            opt: true,
            property_timeout: None,
            stop_on_violation: false,
            cache: None,
        }
    }
}

impl ParallelOptions {
    /// The effective worker count: `threads`, or every available core when
    /// `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Knobs of the clause-sharing SAT portfolio (part of
/// [`crate::checker::CheckOptions`]).
///
/// Hard properties — those that fall through fuzzing, quick BMC, PDR and
/// the explicit engine — are handed to
/// [`crate::bmc::race_safety_budgeted`]: `racers` diverse
/// [`SolverConfig`] variants take deterministic round-robin turns of
/// `quantum` conflicts each, exchanging learnt clauses with LBD ≤
/// `glue_bound` through pools keyed by the property's COI fingerprint
/// (see [`SharedPools`]).  Sharing and racing only ever *strengthen* the
/// search — imported clauses are implied, seeds steer decision order
/// only — so the rendered report is byte-identical with sharing on or
/// off, sequential or parallel, at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingOptions {
    /// Number of portfolio racers on hard properties; `0` or `1`
    /// disables the race (the plain single-configuration solve runs).
    pub racers: usize,
    /// LBD ("glue") bound above which learnt clauses are not shared.
    pub glue_bound: u32,
    /// Conflict budget of one racer turn.
    pub quantum: u64,
    /// Minimum COI state-signature overlap (Jaccard, `0..=1`; see
    /// [`crate::coi::signature_overlap`]) for cross-property seeding: a
    /// task whose cone overlaps an earlier task's cone at least this
    /// much starts with the sibling's phase/activity hints instead of
    /// cold.  `> 1.0` disables seeding.
    pub seed_overlap: f64,
}

impl Default for SharingOptions {
    fn default() -> Self {
        SharingOptions {
            racers: 3,
            glue_bound: 4,
            quantum: 2048,
            seed_overlap: 0.5,
        }
    }
}

impl SharingOptions {
    /// Whether the portfolio race is on (at least two racers).
    pub fn enabled(&self) -> bool {
        self.racers >= 2
    }

    /// A sharing configuration with the race disabled (the ablation
    /// baseline).
    pub fn disabled() -> Self {
        SharingOptions {
            racers: 0,
            ..SharingOptions::default()
        }
    }
}

/// Derives up to four diverse racer configurations from `base`:
/// the base itself, a rapid-restart variant (small Luby base, eager
/// database reduction), a conservative variant (long restarts, no
/// clause minimization) and the MiniSat-era baseline.  Diversity is what
/// makes a portfolio pay: different restart/minimization policies explore
/// different parts of the search tree, and the shared pool lets whichever
/// racer is ahead pull the others along.
pub fn racer_configs(base: SolverConfig, n: usize) -> Vec<SolverConfig> {
    let variants = [
        base,
        SolverConfig {
            restart_base: 30,
            reduce_base: 1000,
            ..base
        },
        SolverConfig {
            restart_base: 400,
            minimize: false,
            ..base
        },
        SolverConfig::baseline(),
    ];
    variants[..n.clamp(1, variants.len())].to_vec()
}

/// Which unrolling family a shared pool serves.  BMC unrollers
/// (initial states constrained) and induction-step unrollers (initial
/// states free) number their variables differently, so their learnt
/// clauses must never mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Pools for the init-constrained BMC unrollings.
    Bmc,
    /// Pools for the init-free induction-step unrollings.
    Step,
}

/// Run-wide learnt-clause pools keyed by COI fingerprint.
///
/// Every unroller built for a given (fingerprint, [`PoolKind`]) pair
/// encodes the same model with the same deterministic construction
/// order, so SAT variable numbers mean the same thing to all of them —
/// clauses transfer verbatim.  The registry hands the *same* pool to
/// repeated races on content-identical cones, so a later race imports
/// the sibling's clauses instead of starting cold.
#[derive(Debug, Default)]
pub struct SharedPools {
    inner: Mutex<HashMap<(Fingerprint, PoolKind), Arc<ClausePool>>>,
}

impl SharedPools {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SharedPools::default()
    }

    /// The pool for one (fingerprint, kind) pair, created with
    /// `glue_bound` on first use.
    pub fn pool(
        &self,
        fingerprint: Fingerprint,
        kind: PoolKind,
        glue_bound: u32,
    ) -> Arc<ClausePool> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            inner
                .entry((fingerprint, kind))
                .or_insert_with(|| Arc::new(ClausePool::new(glue_bound))),
        )
    }

    /// Number of distinct pools created so far.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when no pool has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs a verification run's two phases on one set of up to `threads`
/// workers: `prepare(j, jobs[j])` for every job, then `assemble` once
/// over the prepared results (in job order) to build the items, then
/// `run(i, &items[i])` for every item.  Returns the items and their
/// results, both in item order.
///
/// Workers self-schedule from a shared queue head in each phase, so
/// long-running jobs or properties never block short ones behind a static
/// partition.  The phases meet at a barrier: one worker (the barrier's
/// leader) assembles the items while the others wait.  Running both phases on the
/// same threads keeps the run's allocations in the heaps those threads
/// already use (the allocator keeps one per thread) instead of growing the
/// heaps of a second set of threads.
///
/// # Cancellation semantics
///
/// Preparation always completes.  When `cancel` is raised, items not yet
/// *started* yield `None`; items whose run already started are never
/// preempted here — they complete normally (or wind down early by
/// observing the flag themselves, e.g. through an
/// [`crate::interrupt::Interrupt`] carrying it) and their results are
/// kept.  A slot is therefore `None` only for "never ran", not "ran and
/// was discarded".
///
/// # Fault containment
///
/// The checker wraps preparation and engine work in its own
/// `catch_unwind`, but this pool is the last line of defense: a panic that
/// escapes `prepare` or `run` is caught here so one poisoned job or item
/// cannot tear down the scope at join time and lose every completed
/// verdict.  The panicking slot stays `None`; the result mutexes are
/// recovered from poisoning rather than propagating it.  A panic in
/// `assemble` stops the workers and is re-raised on the calling thread.
pub(crate) fn run_phased<J, P, T, R>(
    jobs: Vec<J>,
    threads: usize,
    cancel: &AtomicBool,
    telemetry: &crate::telemetry::Telemetry,
    prepare: impl Fn(usize, J) -> P + Sync,
    assemble: impl FnOnce(Vec<Option<P>>) -> Vec<T> + Send,
    run: impl Fn(usize, &T) -> R + Sync,
) -> (Vec<T>, Vec<Option<R>>)
where
    J: Send,
    P: Send,
    T: Send + Sync,
    R: Send,
{
    // Each job is handed to `prepare` by value, so whatever it owns is
    // freed as soon as its preparation ends.
    let jobs: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let prepare = |j: usize, slot: &Mutex<Option<J>>| {
        let job = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        prepare(j, job.expect("each job is prepared once"))
    };
    let prepared: Mutex<Vec<Option<P>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let next_job = AtomicUsize::new(0);
    let next_item = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new(Vec::new());
    let workers = threads.max(1);
    let barrier = Barrier::new(workers);
    let assemble = Mutex::new(Some(assemble));
    let items: OnceLock<Vec<T>> = OnceLock::new();
    let assemble_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || {
        drain(&jobs, &next_job, &prepared, &prepare, |_| true);
        if barrier.wait().is_leader() {
            let assemble = assemble
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("exactly one leader assembles");
            let slots =
                std::mem::take(&mut *prepared.lock().unwrap_or_else(PoisonError::into_inner));
            match catch_unwind(AssertUnwindSafe(|| assemble(slots))) {
                Ok(assembled) => {
                    *results.lock().unwrap_or_else(PoisonError::into_inner) =
                        (0..assembled.len()).map(|_| None).collect();
                    let _ = items.set(assembled);
                }
                Err(payload) => {
                    *assemble_panic
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(payload);
                }
            }
        }
        barrier.wait();
        if let Some(items) = items.get() {
            drain(items, &next_item, &results, &run, |i| {
                if cancel.load(Ordering::Relaxed) {
                    return false;
                }
                crate::telemetry::gauge("pool.queue_depth", items.len().saturating_sub(i) as u64);
                true
            });
        }
    };
    if workers == 1 {
        // Sequential escape hatch: runs on the calling thread, which is
        // already inside the run's telemetry scope (track 0).
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Each pool worker records onto its own telemetry track
                    // (a fresh per-worker buffer; no-op when telemetry is
                    // off).
                    let _telemetry_scope = crate::telemetry::enter(telemetry);
                    work();
                });
            }
        });
    }
    if let Some(payload) = into_inner(assemble_panic) {
        std::panic::resume_unwind(payload);
    }
    let items = items
        .into_inner()
        .expect("assembled when assembly did not panic");
    (items, into_inner(results))
}

/// Self-schedules `f` over `items` from the shared queue head `next`,
/// writing each result into its slot.  `start(i)` runs first and returns
/// `false` to leave item `i` unstarted; a panic in `f` leaves the slot
/// `None`.
fn drain<I, O>(
    items: &[I],
    next: &AtomicUsize,
    slots: &Mutex<Vec<Option<O>>>,
    f: &impl Fn(usize, &I) -> O,
    start: impl Fn(usize) -> bool,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        if !start(i) {
            continue;
        }
        let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
        // Recover rather than propagate poisoning: the vector of `Option`
        // slots is always in a consistent state (each slot is written
        // exactly once, after its run), so a panic elsewhere cannot have
        // corrupted it.
        if let Ok(r) = r {
            slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
        }
    }
}

fn into_inner<V>(m: Mutex<V>) -> V {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Counters describing the effectiveness of a [`ProofCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (after successful re-validation).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Verdicts stored.
    pub insertions: u64,
    /// Entries evicted because re-validation (invariant certification or
    /// trace replay) failed.
    pub rejected: u64,
    /// Entries loaded from the on-disk spill at open time.
    pub loaded: u64,
}

impl CacheStats {
    /// The counter delta since `earlier` (a snapshot from the same cache):
    /// what one run contributed.  `loaded` is kept absolute — it describes
    /// the open, not the run.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            loaded: self.loaded,
        }
    }
}

/// The key of a cached verdict: the content fingerprint of the checked
/// slice plus the property's full name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub fingerprint: Fingerprint,
    pub property: String,
}

/// A verdict as stored in the cache (artifacts in slice-literal terms).
#[derive(Debug, Clone)]
pub(crate) enum CachedOutcome {
    /// k-induction proof at the recorded depth.
    Induction {
        /// Induction depth.
        depth: usize,
    },
    /// PDR proof; the invariant clauses are re-certified on every hit.
    Invariant {
        /// Invariant clauses over slice latch literals.
        clauses: Vec<Vec<Lit>>,
        /// Frames explored when the proof closed.
        frames: usize,
    },
    /// Explicit-engine (exhaustive reachability) proof.
    Reachability,
    /// Cover target proven unreachable; when PDR produced the proof the
    /// invariant certificate is kept and re-checked on hits.
    Unreachable {
        /// `(clauses, frames)` of the PDR certificate, if one exists.
        certificate: Option<(Vec<Vec<Lit>>, usize)>,
    },
    /// Counterexample; replayed through the simulator on every hit.
    Violated(Trace),
    /// Cover witness; replayed through the simulator on every hit.
    Covered(Trace),
}

/// A cache hit after successful re-validation, in engine terms.
#[derive(Debug, Clone)]
pub(crate) enum CachedVerdict {
    /// k-induction proof.
    Induction {
        /// Induction depth.
        depth: usize,
    },
    /// Re-certified PDR invariant.
    Invariant(Invariant),
    /// Explicit-engine proof.
    Reachability,
    /// Cover target unreachable.
    Unreachable,
    /// Replayed counterexample.
    Violated(Trace),
    /// Replayed cover witness.
    Covered(Trace),
}

/// A stored verdict plus its provenance: entries loaded from the on-disk
/// spill are re-validated more aggressively than entries produced by this
/// process (the spill file is a trust boundary; the in-process store is
/// not).
#[derive(Debug, Clone)]
struct CacheEntry {
    outcome: CachedOutcome,
    /// Loaded from disk and not yet re-validated by this process.
    unvalidated: bool,
}

/// A cached optimizer witness, keyed by the fingerprint of the model that
/// was handed to the optimizer.
#[derive(Debug, Clone)]
struct WitnessEntry {
    /// `None` when the record's body was damaged on disk but its key
    /// survived: the first lookup rejects it like a failed check.
    witness: Option<Arc<OptWitness>>,
    /// Fingerprint of the optimized model the witness rebuilds; a replay
    /// that rebuilds anything else is rejected.
    optimized: Fingerprint,
}

#[derive(Default)]
struct CacheInner {
    entries: HashMap<CacheKey, CacheEntry>,
    witnesses: HashMap<Fingerprint, WitnessEntry>,
    stats: CacheStats,
    /// On-disk spill file (None for a purely in-memory cache).
    path: Option<PathBuf>,
    /// Entries changed since the last flush.
    dirty: bool,
}

/// A process-wide proof cache shared by verification runs (cheaply cloneable
/// handle; clones share the same store).
///
/// A cache opened with [`ProofCache::open`] is backed by a versioned
/// on-disk spill file: entries load at open time (corruption-tolerant — a
/// truncated or garbled file yields the readable prefix, never an error)
/// and [`ProofCache::flush`] writes them back atomically, so repeated
/// CLI/CI invocations reuse proofs across processes.  The spill file is a
/// trust boundary, so only verdict kinds whose artifact can be
/// independently re-checked ever cross it: invariants (re-certified on
/// every hit), traces (replayed on every hit) and induction proofs
/// (re-proven at their recorded depth on the first hit after loading;
/// entries stored by this process stay trusted on the fingerprint match).
/// Parsed artifacts are bounds-checked (depth, clause, cycle and signal
/// caps; invariant literals must name latches of the live model), so an
/// oversized forgery rejects cheaply instead of hanging the re-proof or
/// panicking the encoder.  Verdicts with no re-checkable artifact —
/// explicit-engine reachability and certificate-less unreachability —
/// stay process-local: they are neither written to nor parsed from the
/// spill file.  A stale, garbled or hand-forged file can therefore cost a
/// re-verification but never mislead a report.
///
/// The cache also holds one optimizer witness ([`crate::opt::OptWitness`])
/// per prepared model, keyed by the fingerprint of the model handed to the
/// optimizer (a raw slice, or a liveness slice's liveness-to-safety
/// product) and stored with the fingerprint of the model it rebuilds.  A
/// warm run replays the witness instead of re-running the optimizer.
/// Every replay is checked in full by [`crate::opt::replay`], whether the
/// witness came from the spill file or from this process: the check costs
/// a fraction of the optimizer, and every run against a cache directory
/// reads its witnesses from the file anyway.  Soundness rests on that
/// check alone; the recorded fingerprint only keeps a damaged but
/// still sound witness from rebuilding a different model, whose verdicts
/// would miss and whose report could differ in cone sizes.  Witnesses are
/// not verdicts: [`CacheStats`] does not count them, the telemetry
/// counters `opt.replayed` and `opt.replay_rejected` do.
///
/// # Spill format (`autosva-proof-cache v2`)
///
/// A header line, then the verdict records (an `entry <fingerprint>
/// <property>` line and its artifact lines), then the witness records, each
/// sorted by key.  A witness record is one `witness <raw fingerprint>
/// <optimizer version> <optimized fingerprint> <passes>` line followed by
/// one `pass` line per pass listing `node literal` pairs in decimal (the
/// literal in its raw `2 * node + inverted` form).  A witness of another
/// [`crate::opt::OPT_VERSION`] is skipped.  A record whose key parsed but
/// whose body is torn is kept as damaged — the first lookup rejects and
/// counts it — and loading stops there, as it does at any other damage.
/// Files of another format version, including `v1`, are ignored wholesale.
///
/// See the module documentation for the validation performed on hits.
#[derive(Clone, Default)]
pub struct ProofCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl fmt::Debug for ProofCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("ProofCache")
            .field("entries", &inner.entries.len())
            .field("witnesses", &inner.witnesses.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl ProofCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ProofCache::default()
    }

    /// Opens a disk-backed cache in `dir` (created if missing), loading any
    /// entries a previous process spilled there.
    ///
    /// Loading is corruption-tolerant: a missing, truncated, garbled or
    /// version-mismatched spill file yields whatever prefix parses cleanly
    /// (possibly nothing) — the cache always opens.  Call
    /// [`ProofCache::flush`] (the checker does so after every run) to write
    /// the current entries back.
    pub fn open(dir: impl AsRef<Path>) -> ProofCache {
        let dir = dir.as_ref();
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(CACHE_FILE);
        let cache = ProofCache::new();
        {
            let mut inner = cache.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if let Ok(text) = std::fs::read_to_string(&path) {
                (inner.entries, inner.witnesses) = parse_cache_file(&text);
                inner.stats.loaded = inner.entries.len() as u64;
            }
            inner.path = Some(path);
        }
        cache
    }

    /// The spill file backing this cache, if it was opened with
    /// [`ProofCache::open`].
    pub fn spill_path(&self) -> Option<PathBuf> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .path
            .clone()
    }

    /// Writes the entries to the on-disk spill file (atomically, via a
    /// temporary file and rename).  A no-op for in-memory caches and when
    /// nothing changed since the last flush.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the spill file.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(path) = inner.path.clone() else {
            return Ok(());
        };
        if !inner.dirty {
            return Ok(());
        }
        let mut entries: Vec<(&CacheKey, &CacheEntry)> = inner.entries.iter().collect();
        // Deterministic file contents regardless of hash-map order.
        entries.sort_by(|a, b| {
            (a.0.fingerprint.0, a.0.fingerprint.1, &a.0.property).cmp(&(
                b.0.fingerprint.0,
                b.0.fingerprint.1,
                &b.0.property,
            ))
        });
        let mut text = String::new();
        text.push_str(CACHE_HEADER);
        text.push('\n');
        for (key, entry) in entries {
            // Verdicts without an independently re-checkable artifact are
            // process-local: the spill file is a trust boundary and a hit
            // on these kinds could not be re-validated.
            if matches!(
                entry.outcome,
                CachedOutcome::Reachability | CachedOutcome::Unreachable { certificate: None }
            ) {
                continue;
            }
            render_cache_entry(&mut text, key, &entry.outcome);
        }
        let mut witnesses: Vec<(&Fingerprint, &WitnessEntry)> = inner.witnesses.iter().collect();
        witnesses.sort_by_key(|(raw, _)| (raw.0, raw.1));
        for (raw, entry) in witnesses {
            if let Some(witness) = &entry.witness {
                render_witness(&mut text, *raw, entry.optimized, witness);
            }
        }
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            file.write_all(text.as_bytes())?;
            file.flush()?;
        }
        std::fs::rename(&tmp, &path)?;
        inner.dirty = false;
        Ok(())
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/insert/reject counters.
    pub fn stats(&self) -> CacheStats {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// Drops every entry and optimizer witness (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entries.clear();
        inner.witnesses.clear();
        inner.dirty = true;
    }

    /// Stores the witness of optimizing a model with fingerprint `raw` into
    /// one with fingerprint `optimized` (last write wins).  Witnesses are
    /// not verdicts: [`CacheStats`] does not count them.
    pub(crate) fn store_witness(
        &self,
        raw: Fingerprint,
        witness: OptWitness,
        optimized: Fingerprint,
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.witnesses.insert(
            raw,
            WitnessEntry {
                witness: Some(Arc::new(witness)),
                optimized,
            },
        );
        inner.dirty = true;
    }

    /// The optimized model of `model` (fingerprint `raw`) and its
    /// fingerprint, rebuilt from the cached witness, or `None` when there
    /// is no witness or it fails.
    ///
    /// Every replay is checked in full ([`crate::opt::replay`]), whoever
    /// stored the witness, and the rebuilt model must have the recorded
    /// fingerprint.  A failing witness is evicted and counted in
    /// `opt.replay_rejected`; the caller then optimizes from scratch.
    pub(crate) fn replay_optimized(
        &self,
        raw: Fingerprint,
        model: &Model,
    ) -> Option<(Model, Fingerprint)> {
        let entry = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .witnesses
            .get(&raw)
            .cloned()?;
        // The replay runs outside the lock, like verdict validation.
        let replayed = entry
            .witness
            .as_deref()
            .and_then(|witness| crate::opt::replay(model, witness))
            .map(|optimized| {
                let fp = crate::coi::fingerprint(&optimized);
                (optimized, fp)
            })
            .filter(|(_, fp)| *fp == entry.optimized);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if replayed.is_some() {
            crate::telemetry::count("opt.replayed", 1);
        } else {
            crate::telemetry::count("opt.replay_rejected", 1);
            inner.witnesses.remove(&raw);
            inner.dirty = true;
        }
        replayed
    }

    /// Stores a verdict (last write wins).
    pub(crate) fn store(&self, key: CacheKey, outcome: CachedOutcome) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.stats.insertions += 1;
        inner.entries.insert(
            key,
            CacheEntry {
                outcome,
                unvalidated: false,
            },
        );
        inner.dirty = true;
    }

    /// Looks up and re-validates a verdict for a property checked on
    /// `model` with bad/cover literal `target`.
    ///
    /// The entry (if any) was produced on a slice with the same content
    /// fingerprint, so validation failure indicates a hash collision or a
    /// corrupted entry — the entry is evicted and `None` returned so the
    /// property is re-verified from scratch.
    pub(crate) fn lookup(
        &self,
        key: &CacheKey,
        model: &Model,
        target: Lit,
    ) -> Option<CachedVerdict> {
        let entry = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            match inner.entries.get(key) {
                Some(entry) => entry.clone(),
                None => {
                    inner.stats.misses += 1;
                    return None;
                }
            }
        };
        let unvalidated = entry.unvalidated;
        // Validation runs outside the lock: certification and replay are
        // real engine work and must not serialize the worker pool.
        let verdict = match entry.outcome {
            CachedOutcome::Induction { depth } => {
                // In-process entries are trusted on the fingerprint match
                // (the verdict was computed by this process); disk-loaded
                // entries are re-proven at their recorded depth once.
                if !unvalidated || induction_reproves(model, target, depth) {
                    Some(CachedVerdict::Induction { depth })
                } else {
                    None
                }
            }
            // Process-local kind (never spilled to disk): trusted on the
            // fingerprint match, exactly as before persistence existed.
            CachedOutcome::Reachability => Some(CachedVerdict::Reachability),
            CachedOutcome::Invariant { clauses, frames } => {
                if clauses_fit_model(model, &clauses) {
                    let invariant = Invariant::from_clauses(clauses, frames);
                    if invariant.certify(model, target) {
                        Some(CachedVerdict::Invariant(invariant))
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            CachedOutcome::Unreachable { certificate } => match certificate {
                None => Some(CachedVerdict::Unreachable),
                Some((clauses, frames)) => {
                    if clauses_fit_model(model, &clauses) {
                        let invariant = Invariant::from_clauses(clauses, frames);
                        if invariant.certify(model, target) {
                            Some(CachedVerdict::Unreachable)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                }
            },
            CachedOutcome::Violated(trace) => {
                if replay_confirms(model, target, &trace) {
                    Some(CachedVerdict::Violated(trace))
                } else {
                    None
                }
            }
            CachedOutcome::Covered(trace) => {
                if replay_confirms(model, target, &trace) {
                    Some(CachedVerdict::Covered(trace))
                } else {
                    None
                }
            }
        };
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match verdict {
            Some(v) => {
                inner.stats.hits += 1;
                if unvalidated {
                    // The disk-loaded entry survived validation against the
                    // live model: treat it as in-process from here on.
                    if let Some(entry) = inner.entries.get_mut(key) {
                        entry.unvalidated = false;
                    }
                }
                Some(v)
            }
            None => {
                inner.stats.rejected += 1;
                inner.entries.remove(key);
                inner.dirty = true;
                None
            }
        }
    }
}

/// Spill-file name inside the cache directory.
const CACHE_FILE: &str = "proofs.cache";
/// Version header; bump on any format change (older files are ignored,
/// which is safe: the cache is advisory).
const CACHE_HEADER: &str = "autosva-proof-cache v2";
/// Sanity bounds on parsed entries.  Legitimate artifacts sit far below
/// these (induction depths ≤ the configured `max_induction`, traces ≤ the
/// BMC bound, invariants ≤ a few hundred clauses); anything larger is a
/// forged or corrupted entry, and the bound keeps its *rejection* cheap —
/// without it, a huge induction depth would hang the re-proof and a huge
/// clause count would allocate unboundedly before validation could say no.
const MAX_CACHE_DEPTH: usize = 256;
const MAX_CACHE_CLAUSES: usize = 65_536;
const MAX_CACHE_CYCLES: usize = 65_536;
const MAX_CACHE_SIGNALS: usize = 65_536;

/// Percent-escapes a property name so it survives the line-oriented format.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_name(escaped: &str) -> Option<String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next()?;
        let lo = chars.next()?;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16).ok()?;
        out.push(byte as char);
    }
    Some(out)
}

fn render_clauses(out: &mut String, clauses: &[Vec<Lit>]) {
    for clause in clauses {
        out.push_str("clause");
        for lit in clause {
            let _ = write!(out, " {}", lit.raw());
        }
        out.push('\n');
    }
}

fn render_trace(out: &mut String, trace: &Trace) {
    let _ = writeln!(out, "{} {}", trace.len(), trace.num_signals());
    for sig in trace.signals() {
        let bits: String = sig
            .values
            .iter()
            .map(|&v| if v { '1' } else { '0' })
            .collect();
        let _ = writeln!(
            out,
            "signal {} {} {}",
            u8::from(sig.is_input),
            bits,
            escape_name(&sig.name)
        );
    }
}

/// Serializes one cache entry into the line-oriented spill format.
fn render_cache_entry(out: &mut String, key: &CacheKey, outcome: &CachedOutcome) {
    let _ = writeln!(
        out,
        "entry {:016x} {:016x} {}",
        key.fingerprint.0,
        key.fingerprint.1,
        escape_name(&key.property)
    );
    match outcome {
        CachedOutcome::Induction { depth } => {
            let _ = writeln!(out, "induction {depth}");
        }
        CachedOutcome::Invariant { clauses, frames } => {
            let _ = writeln!(out, "invariant {frames} {}", clauses.len());
            render_clauses(out, clauses);
        }
        CachedOutcome::Reachability => out.push_str("reachability\n"),
        CachedOutcome::Unreachable { certificate } => match certificate {
            None => out.push_str("unreachable\n"),
            Some((clauses, frames)) => {
                let _ = writeln!(out, "unreachable-cert {frames} {}", clauses.len());
                render_clauses(out, clauses);
            }
        },
        CachedOutcome::Violated(trace) => {
            out.push_str("violated ");
            render_trace(out, trace);
        }
        CachedOutcome::Covered(trace) => {
            out.push_str("covered ");
            render_trace(out, trace);
        }
    }
}

/// Serializes one optimizer witness: a `witness` line with the raw key,
/// the optimizer version, the optimized fingerprint and the pass count,
/// then one `pass` line of `node literal` pairs per pass.
fn render_witness(
    out: &mut String,
    raw: Fingerprint,
    optimized: Fingerprint,
    witness: &OptWitness,
) {
    let _ = writeln!(
        out,
        "witness {:016x} {:016x} {OPT_VERSION} {:016x} {:016x} {}",
        raw.0,
        raw.1,
        optimized.0,
        optimized.1,
        witness.passes.len()
    );
    for facts in &witness.passes {
        out.push_str("pass");
        for &(node, rep) in facts {
            let _ = write!(out, " {node} {}", rep.raw());
        }
        out.push('\n');
    }
}

/// Line-cursor over the spill file; every parse helper returns `Option` so
/// any corruption aborts the current entry without panicking.
struct CacheLines<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> CacheLines<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.lines.next()
    }
}

fn parse_clauses(lines: &mut CacheLines<'_>, count: usize) -> Option<Vec<Vec<Lit>>> {
    let mut clauses = Vec::with_capacity(count);
    for _ in 0..count {
        let line = lines.next()?;
        let mut fields = line.split(' ');
        if fields.next()? != "clause" {
            return None;
        }
        let mut clause = Vec::new();
        for field in fields {
            let raw: u32 = field.parse().ok()?;
            clause.push(Lit::new((raw >> 1) as usize, raw & 1 == 1));
        }
        clauses.push(clause);
    }
    Some(clauses)
}

fn parse_trace(header: &str, lines: &mut CacheLines<'_>) -> Option<Trace> {
    let mut fields = header.split(' ');
    let cycles: usize = fields.next()?.parse().ok()?;
    let num_signals: usize = fields.next()?.parse().ok()?;
    if cycles > MAX_CACHE_CYCLES || num_signals > MAX_CACHE_SIGNALS {
        return None;
    }
    let mut trace = Trace::new(cycles);
    for _ in 0..num_signals {
        let line = lines.next()?;
        let mut fields = line.split(' ');
        if fields.next()? != "signal" {
            return None;
        }
        let is_input = match fields.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let bits = fields.next()?;
        let name = unescape_name(fields.next()?)?;
        if bits.len() != cycles || fields.next().is_some() {
            return None;
        }
        let values = bits
            .bytes()
            .map(|bit| match bit {
                b'0' => Some(false),
                b'1' => Some(true),
                _ => None,
            })
            .collect::<Option<Vec<bool>>>()?;
        trace.record_signal(SignalTrace {
            name,
            is_input,
            values,
        });
    }
    Some(trace)
}

/// Parses one entry (the `entry` line was already consumed and split into
/// `key`); returns `None` on any malformed line.
fn parse_outcome(lines: &mut CacheLines<'_>) -> Option<CachedOutcome> {
    let line = lines.next()?;
    let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
    match tag {
        "induction" => {
            let depth: usize = rest.parse().ok()?;
            // A forged depth would make the hit-time re-proof arbitrarily
            // expensive; real induction depths are two orders below this.
            if depth > MAX_CACHE_DEPTH {
                return None;
            }
            Some(CachedOutcome::Induction { depth })
        }
        "invariant" | "unreachable-cert" => {
            let mut fields = rest.split(' ');
            let frames: usize = fields.next()?.parse().ok()?;
            let count: usize = fields.next()?.parse().ok()?;
            if count > MAX_CACHE_CLAUSES {
                return None;
            }
            let clauses = parse_clauses(lines, count)?;
            Some(if tag == "invariant" {
                CachedOutcome::Invariant { clauses, frames }
            } else {
                CachedOutcome::Unreachable {
                    certificate: Some((clauses, frames)),
                }
            })
        }
        // "reachability" and certificate-less "unreachable" are never
        // written (process-local kinds, see `flush`); an unknown tag stops
        // the load at the clean prefix, so a forged one cannot smuggle an
        // unvalidatable verdict in.
        "violated" => Some(CachedOutcome::Violated(parse_trace(rest, lines)?)),
        "covered" => Some(CachedOutcome::Covered(parse_trace(rest, lines)?)),
        _ => None,
    }
}

/// Parses a spill file, keeping every verdict entry and optimizer witness
/// up to the first corruption.  Loaded verdict entries are marked
/// `unvalidated`: the file is a trust boundary, so the first hit on each
/// re-validates its artifact against the live model before it is reused
/// (witnesses are checked on every replay).  A witness from
/// another optimizer version is skipped; one whose key parsed but whose
/// body did not is kept as damaged (rejected on first use), and loading
/// stops there.
fn parse_cache_file(
    text: &str,
) -> (
    HashMap<CacheKey, CacheEntry>,
    HashMap<Fingerprint, WitnessEntry>,
) {
    let mut entries = HashMap::new();
    let mut witnesses = HashMap::new();
    let mut lines = CacheLines {
        lines: text.lines(),
    };
    if lines.next() != Some(CACHE_HEADER) {
        return (entries, witnesses);
    }
    while let Some(line) = lines.next() {
        let mut fields = line.split(' ');
        match fields.next() {
            Some("entry") => {
                let parsed = (|| {
                    let hi = u64::from_str_radix(fields.next()?, 16).ok()?;
                    let lo = u64::from_str_radix(fields.next()?, 16).ok()?;
                    let property = unescape_name(fields.next()?)?;
                    let key = CacheKey {
                        fingerprint: Fingerprint(hi, lo),
                        property,
                    };
                    let outcome = parse_outcome(&mut lines)?;
                    Some((key, outcome))
                })();
                // Corrupted entry: stop here, keep the clean prefix.
                let Some((key, outcome)) = parsed else { break };
                entries.insert(
                    key,
                    CacheEntry {
                        outcome,
                        unvalidated: true,
                    },
                );
            }
            Some("witness") => {
                let Some((raw, version, optimized, passes)) = parse_witness_header(fields) else {
                    break;
                };
                let witness = parse_witness_passes(&mut lines, passes);
                let damaged = witness.is_none();
                if version == OPT_VERSION {
                    witnesses.insert(
                        raw,
                        WitnessEntry {
                            witness: witness.map(Arc::new),
                            optimized,
                        },
                    );
                }
                if damaged {
                    break;
                }
            }
            _ => break,
        }
    }
    (entries, witnesses)
}

/// The fields after `witness`: raw key, optimizer version, optimized
/// fingerprint and pass count.
fn parse_witness_header<'a>(
    mut fields: impl Iterator<Item = &'a str>,
) -> Option<(Fingerprint, u32, Fingerprint, usize)> {
    let mut hex = || u64::from_str_radix(fields.next()?, 16).ok();
    let raw = Fingerprint(hex()?, hex()?);
    let version: u32 = fields.next()?.parse().ok()?;
    let mut hex = || u64::from_str_radix(fields.next()?, 16).ok();
    let optimized = Fingerprint(hex()?, hex()?);
    let passes: usize = fields.next()?.parse().ok()?;
    fields
        .next()
        .is_none()
        .then_some((raw, version, optimized, passes))
}

/// The `passes` pass lines of a witness record, or `None` when any is
/// missing or malformed.  Sizes are bounded here and node indices by the
/// replay's structural check, so a forged record rejects cheaply.
fn parse_witness_passes(lines: &mut CacheLines<'_>, passes: usize) -> Option<OptWitness> {
    if passes > crate::opt::MAX_PASSES {
        return None;
    }
    let mut witness = OptWitness::default();
    for _ in 0..passes {
        let mut fields = lines.next()?.split(' ');
        if fields.next()? != "pass" {
            return None;
        }
        let mut facts = Vec::new();
        while let Some(node) = fields.next() {
            let node: usize = node.parse().ok()?;
            let rep: u32 = fields.next()?.parse().ok()?;
            facts.push((node, Lit::new((rep >> 1) as usize, rep & 1 == 1)));
        }
        witness.passes.push(facts);
    }
    Some(witness)
}

/// `true` when every clause literal references a latch node of `model` —
/// the only shape `Invariant::certify` accepts without panicking.  A
/// forged or hash-colliding entry whose literals point past the model's
/// node table must reject cleanly instead of indexing out of bounds.
fn clauses_fit_model(model: &Model, clauses: &[Vec<Lit>]) -> bool {
    let latches: std::collections::HashSet<usize> =
        model.aig.latches().iter().map(|l| l.node).collect();
    clauses
        .iter()
        .flatten()
        .all(|l| latches.contains(&l.node()))
}

/// Re-validates a cached k-induction verdict by actually re-proving it:
/// BMC up to the recorded depth must stay counterexample-free and the
/// induction step must close by then.  Cheap — recorded depths are small
/// (the deep proofs go to PDR and carry certificates instead) — and it
/// turns a stale or forged entry into a rejection rather than a bogus
/// "proven" row.
fn induction_reproves(model: &Model, target: Lit, depth: usize) -> bool {
    let Some(index) = model.bads.iter().position(|b| b.lit == target) else {
        return false;
    };
    matches!(
        crate::bmc::check_safety(
            model,
            index,
            &crate::bmc::BmcOptions {
                max_depth: depth,
                max_induction: depth,
            },
        ),
        crate::bmc::SafetyResult::Proven { .. }
    )
}

/// Replays a cached trace through the two-state simulator: the target
/// literal must fire at the final cycle and every invariant constraint must
/// hold throughout.
fn replay_confirms(model: &Model, target: Lit, trace: &Trace) -> bool {
    if trace.is_empty() {
        return false;
    }
    let mut check_model = model.clone();
    check_model.bads = vec![BadProperty {
        name: "__cached_target__".into(),
        lit: target,
    }];
    let input_names: Vec<String> = (0..model.aig.num_inputs())
        .map(|i| model.aig.input_name(i).to_string())
        .collect();
    let mut sim = Simulator::new(&check_model);
    let mut fired_last = false;
    let mut inputs = vec![false; input_names.len()];
    for cycle in 0..trace.len() {
        for (slot, name) in inputs.iter_mut().zip(&input_names) {
            *slot = trace.value(cycle, name).unwrap_or(false);
        }
        let violations = sim.step(&inputs);
        if violations
            .iter()
            .any(|v| v.property.starts_with("constraint_"))
        {
            return false;
        }
        fired_last = violations.iter().any(|v| v.property == "__cached_target__");
    }
    fired_last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;

    /// Runs `run` over `items` with an empty preparation phase.
    fn run_items(items: &[usize], threads: usize, cancel: &AtomicBool) -> Vec<Option<usize>> {
        run_phased(
            Vec::<()>::new(),
            threads,
            cancel,
            &crate::telemetry::Telemetry::disabled(),
            |_, _| (),
            |_| items.to_vec(),
            |i, &item| {
                assert_eq!(i, item);
                item * 2
            },
        )
        .1
    }

    #[test]
    fn run_phased_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let cancel = AtomicBool::new(false);
        let values: Vec<usize> = run_items(&items, 8, &cancel)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_phased_sequential_matches_parallel() {
        let items: Vec<usize> = (0..32).collect();
        let cancel = AtomicBool::new(false);
        assert_eq!(run_items(&items, 1, &cancel), run_items(&items, 4, &cancel));
    }

    #[test]
    fn cancelled_items_yield_none() {
        let items: Vec<usize> = (0..8).collect();
        let cancel = AtomicBool::new(true);
        assert!(run_items(&items, 4, &cancel).iter().all(Option::is_none));
    }

    #[test]
    fn prepared_jobs_reach_assembly_in_job_order_and_panics_stay_in_their_slot() {
        let jobs: Vec<usize> = (0..16).collect();
        let cancel = AtomicBool::new(false);
        for threads in [1, 3] {
            let (items, results) = run_phased(
                jobs.clone(),
                threads,
                &cancel,
                &crate::telemetry::Telemetry::disabled(),
                |j, job| {
                    assert_eq!(j, job);
                    assert_ne!(job, 5, "injected preparation panic");
                    job * 10
                },
                |prepared| prepared,
                |_, &item| item.map(|v| v + 1),
            );
            let expected: Vec<Option<usize>> =
                jobs.iter().map(|&j| (j != 5).then_some(j * 10)).collect();
            assert_eq!(items, expected, "threads {threads}");
            let results: Vec<Option<usize>> = results.into_iter().map(Option::flatten).collect();
            assert_eq!(
                results,
                expected
                    .iter()
                    .map(|v| v.map(|v| v + 1))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn racer_configs_are_diverse_and_clamped() {
        let base = SolverConfig::default();
        let four = racer_configs(base, 4);
        assert_eq!(four.len(), 4);
        assert_eq!(four[0], base);
        // Every variant is pairwise distinct.
        for i in 0..four.len() {
            for j in i + 1..four.len() {
                assert_ne!(four[i], four[j], "variants {i} and {j} coincide");
            }
        }
        assert_eq!(racer_configs(base, 2).len(), 2);
        assert_eq!(racer_configs(base, 0).len(), 1, "clamped up to one");
        assert_eq!(racer_configs(base, 99).len(), 4, "clamped down to four");
    }

    #[test]
    fn shared_pools_key_on_fingerprint_and_kind() {
        let pools = SharedPools::new();
        assert!(pools.is_empty());
        let a = pools.pool(Fingerprint(1, 2), PoolKind::Bmc, 4);
        let same = pools.pool(Fingerprint(1, 2), PoolKind::Bmc, 4);
        let step = pools.pool(Fingerprint(1, 2), PoolKind::Step, 4);
        let other = pools.pool(Fingerprint(3, 4), PoolKind::Bmc, 4);
        assert!(Arc::ptr_eq(&a, &same), "same key must share one pool");
        assert!(!Arc::ptr_eq(&a, &step), "BMC and step pools must differ");
        assert!(!Arc::ptr_eq(&a, &other), "fingerprints must not collide");
        assert_eq!(pools.len(), 3);
    }

    #[test]
    fn sharing_options_enablement() {
        assert!(SharingOptions::default().enabled());
        assert!(!SharingOptions::disabled().enabled());
        assert!(!SharingOptions {
            racers: 1,
            ..SharingOptions::default()
        }
        .enabled());
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let auto = ParallelOptions::default();
        assert!(auto.effective_threads() >= 1);
        let one = ParallelOptions {
            threads: 1,
            ..ParallelOptions::default()
        };
        assert_eq!(one.effective_threads(), 1);
    }

    /// One latch driven by one input, bad when the latch is high.
    fn tiny_model() -> (Model, Lit) {
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, x);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q,
        });
        (model, q)
    }

    fn key() -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(1, 2),
            property: "q_high".into(),
        }
    }

    #[test]
    fn violated_entries_replay_on_hit() {
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        // A genuine 2-cycle counterexample: x=1 at cycle 0, q=1 at cycle 1.
        let mut trace = Trace::new(2);
        trace.record(0, "x", true, true);
        trace.record(1, "q", true, false);
        cache.store(key(), CachedOutcome::Violated(trace));
        match cache.lookup(&key(), &model, q) {
            Some(CachedVerdict::Violated(t)) => assert_eq!(t.len(), 2),
            other => panic!("expected replayed violation, got {other:?}"),
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn bogus_traces_are_evicted() {
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        // x never high: the bad state is not reached and replay must fail.
        let mut trace = Trace::new(2);
        trace.record(0, "x", false, true);
        cache.store(key(), CachedOutcome::Violated(trace));
        assert!(cache.lookup(&key(), &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        assert!(cache.is_empty(), "failed entries must be evicted");
    }

    #[test]
    fn invariants_are_recertified_on_hit() {
        // busy-sticky model where "!q" is NOT inductive (input can set q):
        // a bogus invariant entry must be rejected.
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        cache.store(
            key(),
            CachedOutcome::Invariant {
                clauses: vec![vec![q.invert()]],
                frames: 1,
            },
        );
        assert!(cache.lookup(&key(), &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);

        // A model where the latch really never rises (next = FALSE): the
        // empty invariant certifies (q is initially low and stays low).
        let mut aig = Aig::new();
        let q2 = aig.add_latch("q", false);
        aig.set_latch_next(q2, Lit::FALSE);
        let mut safe = Model::new(aig);
        safe.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q2,
        });
        cache.store(
            key(),
            CachedOutcome::Invariant {
                clauses: vec![vec![q2.invert()]],
                frames: 1,
            },
        );
        match cache.lookup(&key(), &safe, q2) {
            Some(CachedVerdict::Invariant(inv)) => assert_eq!(inv.num_clauses(), 1),
            other => panic!("expected certified invariant, got {other:?}"),
        }
    }

    /// A unique scratch directory under the target tmpdir.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("autosva-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_cache_round_trips_every_outcome_kind() {
        let dir = scratch_dir("roundtrip");
        let cache = ProofCache::open(&dir);
        assert_eq!(cache.stats().loaded, 0);

        let mut trace = Trace::new(3);
        trace.record(0, "x", true, true);
        trace.record(2, "q", true, false);
        trace.record(1, "name with spaces", false, false);
        let entry = |name: &str| CacheKey {
            fingerprint: Fingerprint(0xABCD, 42),
            property: name.into(),
        };
        let inv_clauses = vec![vec![Lit::new(3, true), Lit::new(7, false)], vec![]];
        cache.store(entry("ind"), CachedOutcome::Induction { depth: 9 });
        cache.store(
            entry("inv"),
            CachedOutcome::Invariant {
                clauses: inv_clauses.clone(),
                frames: 4,
            },
        );
        cache.store(entry("reach"), CachedOutcome::Reachability);
        cache.store(
            entry("unreach"),
            CachedOutcome::Unreachable { certificate: None },
        );
        cache.store(
            entry("unreach-cert"),
            CachedOutcome::Unreachable {
                certificate: Some((inv_clauses.clone(), 2)),
            },
        );
        cache.store(entry("cex"), CachedOutcome::Violated(trace.clone()));
        cache.store(entry("wit"), CachedOutcome::Covered(trace.clone()));
        cache.flush().expect("flush succeeds");

        // A "fresh process": a new handle over the same directory.  The
        // two kinds with no re-checkable artifact are process-local and
        // must not have crossed the disk boundary.
        let reloaded = ProofCache::open(&dir);
        assert_eq!(reloaded.len(), 5);
        assert_eq!(reloaded.stats().loaded, 5);
        let entries = &reloaded.inner.lock().expect("lock").entries;
        assert!(
            entries.get(&entry("reach")).is_none(),
            "explicit-reachability verdicts must not persist"
        );
        assert!(
            entries.get(&entry("unreach")).is_none(),
            "certificate-less unreachability verdicts must not persist"
        );
        match entries.get(&entry("ind")).map(|e| &e.outcome) {
            Some(CachedOutcome::Induction { depth: 9 }) => {}
            other => panic!("induction entry corrupted: {other:?}"),
        }
        match entries.get(&entry("inv")).map(|e| &e.outcome) {
            Some(CachedOutcome::Invariant { clauses, frames: 4 }) => {
                assert_eq!(clauses, &inv_clauses);
            }
            other => panic!("invariant entry corrupted: {other:?}"),
        }
        match entries.get(&entry("unreach-cert")).map(|e| &e.outcome) {
            Some(CachedOutcome::Unreachable {
                certificate: Some((clauses, 2)),
            }) => assert_eq!(clauses, &inv_clauses),
            other => panic!("certificate entry corrupted: {other:?}"),
        }
        match entries.get(&entry("cex")).map(|e| &e.outcome) {
            Some(CachedOutcome::Violated(t)) => assert_eq!(t, &trace),
            other => panic!("trace entry corrupted: {other:?}"),
        }
        match entries.get(&entry("wit")).map(|e| &e.outcome) {
            Some(CachedOutcome::Covered(t)) => assert_eq!(t, &trace),
            other => panic!("witness entry corrupted: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_flush_is_deterministic_and_idempotent() {
        let dir = scratch_dir("determinism");
        let cache = ProofCache::open(&dir);
        for i in 0..8u64 {
            cache.store(
                CacheKey {
                    fingerprint: Fingerprint(i, i * 3),
                    property: format!("p{i}"),
                },
                CachedOutcome::Induction { depth: i as usize },
            );
        }
        cache.flush().expect("flush");
        let path = cache.spill_path().expect("persistent cache has a path");
        let first = std::fs::read_to_string(&path).expect("spill file exists");
        // Reload and re-flush (after a dirtying store of identical content):
        // the file must be byte-identical despite hash-map iteration order.
        let reloaded = ProofCache::open(&dir);
        reloaded.store(
            CacheKey {
                fingerprint: Fingerprint(0, 0),
                property: "p0".into(),
            },
            CachedOutcome::Induction { depth: 0 },
        );
        reloaded.flush().expect("flush");
        let second = std::fs::read_to_string(&path).expect("spill file exists");
        assert_eq!(first, second, "spill file must be deterministic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_spill_files_load_their_clean_prefix() {
        let dir = scratch_dir("corruption");
        let cache = ProofCache::open(&dir);
        cache.store(
            CacheKey {
                fingerprint: Fingerprint(1, 1),
                property: "a".into(),
            },
            CachedOutcome::Induction { depth: 1 },
        );
        cache.store(
            CacheKey {
                fingerprint: Fingerprint(2, 2),
                property: "b".into(),
            },
            CachedOutcome::Induction { depth: 2 },
        );
        cache.flush().expect("flush");
        let path = cache.spill_path().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Truncated mid-entry: the clean prefix loads, nothing panics.
        let cut = text.len() - 5;
        std::fs::write(&path, &text[..cut]).unwrap();
        let truncated = ProofCache::open(&dir);
        assert!(
            truncated.len() < 2,
            "truncated file must drop the torn entry"
        );

        // Garbage (including invalid UTF-8): loads empty.
        std::fs::write(&path, b"!!! not a cache file !!!\x00\xff binary junk").unwrap();
        assert!(ProofCache::open(&dir).is_empty());

        // Wrong version, older or newer: ignored wholesale.
        for stale in ["autosva-proof-cache v1", "autosva-proof-cache v999"] {
            std::fs::write(&path, text.replace(CACHE_HEADER, stale)).unwrap();
            assert!(ProofCache::open(&dir).is_empty());
        }

        // Interior corruption: entries before the bad line survive.
        let mut lines: Vec<&str> = text.lines().collect();
        let n = lines.len();
        lines.insert(n - 1, "entry zzzz not-hex garbage");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let partial = ProofCache::open(&dir);
        assert_eq!(partial.len(), 1, "prefix before the corruption must load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_flush_is_a_noop() {
        let cache = ProofCache::new();
        cache.store(key(), CachedOutcome::Induction { depth: 1 });
        assert!(cache.spill_path().is_none());
        cache.flush().expect("no-op flush succeeds");
    }

    #[test]
    fn property_names_escape_and_unescape() {
        for name in ["plain", "with space", "perc%ent", "new\nline", "a%20b"] {
            assert_eq!(
                unescape_name(&escape_name(name)).as_deref(),
                Some(name),
                "round trip failed for {name:?}"
            );
        }
        assert_eq!(unescape_name("dangling%2"), None);
    }

    /// A latch that never rises (next = FALSE): "q high" is provable by
    /// induction at depth 0.
    fn safe_model() -> (Model, Lit) {
        let mut aig = Aig::new();
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, Lit::FALSE);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q,
        });
        (model, q)
    }

    #[test]
    fn in_process_induction_entries_hit_directly() {
        // Entries stored by this process are trusted on the fingerprint
        // match (pre-persistence semantics): no re-proof on hit.
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        cache.store(key(), CachedOutcome::Induction { depth: 3 });
        match cache.lookup(&key(), &model, q) {
            Some(CachedVerdict::Induction { depth }) => assert_eq!(depth, 3),
            other => panic!("expected induction hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 0, 1));
        // A different property name misses.
        let other_key = CacheKey {
            fingerprint: Fingerprint(1, 2),
            property: "other".into(),
        };
        assert!(cache.lookup(&other_key, &model, q).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn disk_loaded_induction_entries_reprove_on_first_hit() {
        let dir = scratch_dir("induction-reprove");
        let (model, q) = safe_model();
        {
            let cache = ProofCache::open(&dir);
            cache.store(key(), CachedOutcome::Induction { depth: 1 });
            cache.flush().expect("flush");
        }
        // Fresh process: the loaded entry re-proves against the live model
        // (which really is 1-inductive) and then hits directly.
        let cache = ProofCache::open(&dir);
        for _ in 0..2 {
            match cache.lookup(&key(), &model, q) {
                Some(CachedVerdict::Induction { depth }) => assert_eq!(depth, 1),
                other => panic!("expected induction hit, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bogus_disk_induction_entries_are_rejected() {
        // The bad state of tiny_model is reachable (the input drives the
        // latch), so a disk-loaded "proven by induction" verdict is a lie —
        // the first-hit re-proof must reject and evict it.
        let dir = scratch_dir("induction-bogus");
        {
            let cache = ProofCache::open(&dir);
            cache.store(key(), CachedOutcome::Induction { depth: 3 });
            cache.flush().expect("flush");
        }
        let (model, q) = tiny_model();
        let cache = ProofCache::open(&dir);
        assert!(cache.lookup(&key(), &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        assert!(cache.is_empty(), "rejected entries must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_spill_entries_reject_cleanly() {
        // Hand-forged entries with out-of-range artifacts must be rejected
        // at parse or validation time — never hang, allocate unboundedly,
        // or panic.
        let dir = scratch_dir("forged");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("proofs.cache");
        let fp = "0000000000000001 0000000000000002";
        // (a) absurd induction depth: rejected at parse time.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\ninduction 999999999\n"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());
        // (b) absurd clause count: rejected before any allocation.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\ninvariant 1 4000000000\n"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());
        // (c) absurd trace bounds: rejected at parse time.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\nviolated 4000000000 0\n"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());
        // (d) invariant clause referencing a node beyond the model: parses,
        // but validation rejects instead of panicking in the encoder.
        let (model, q) = tiny_model();
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\ninvariant 1 1\nclause 99999\n"),
        )
        .unwrap();
        let cache = ProofCache::open(&dir);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(), &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two latches that both follow the input: the optimizer merges them,
    /// so the witness is not empty.
    fn mergeable_model() -> Model {
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let a = aig.add_latch("a", false);
        let b = aig.add_latch("b", false);
        aig.set_latch_next(a, x);
        aig.set_latch_next(b, x);
        let both = aig.and(a, b);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "both".into(),
            lit: both,
        });
        model
    }

    #[test]
    fn witnesses_cross_the_spill_file_and_are_checked_there() {
        let dir = scratch_dir("witness");
        let model = mergeable_model();
        let raw = crate::coi::fingerprint(&model);
        let result = crate::opt::optimize(&model);
        assert!(!result.witness.passes.is_empty());
        {
            let cache = ProofCache::open(&dir);
            cache.store_witness(raw, result.witness.clone(), result.fingerprint);
            // Stored by this process: still checked.
            let (_, fp) = cache
                .replay_optimized(raw, &model)
                .expect("in-process replay");
            assert_eq!(fp, result.fingerprint);
            cache.flush().expect("flush");
        }
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        assert!(
            text.starts_with("autosva-proof-cache v2\nwitness "),
            "{text}"
        );
        let cache = ProofCache::open(&dir);
        // Witnesses are not verdicts.
        assert_eq!((cache.len(), cache.stats().loaded), (0, 0));
        for _ in 0..2 {
            let (replayed, fp) = cache.replay_optimized(raw, &model).expect("checked replay");
            assert_eq!(fp, result.fingerprint);
            assert_eq!(crate::coi::fingerprint(&replayed), fp);
        }
        // Another model under the same key rebuilds something else (or
        // fails its checks) and is rejected, and the witness is evicted.
        let (other, _) = tiny_model();
        assert!(cache.replay_optimized(raw, &other).is_none());
        assert!(cache.replay_optimized(raw, &model).is_none());
        // A witness this process stored is checked like a loaded one:
        // latch `a` resets to 0, so "a is stuck at 1" fails the reset check.
        let forged = OptWitness {
            passes: vec![vec![(2, Lit::TRUE)]],
        };
        cache.store_witness(raw, forged, result.fingerprint);
        assert!(cache.replay_optimized(raw, &model).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_damaged_witness_records_never_replay() {
        let dir = scratch_dir("witness-damaged");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(CACHE_FILE);
        let model = mergeable_model();
        let raw = crate::coi::fingerprint(&model);
        let result = crate::opt::optimize(&model);
        let cache = ProofCache::new();
        cache.store_witness(raw, result.witness, result.fingerprint);
        let mut record = String::new();
        render_witness(
            &mut record,
            raw,
            result.fingerprint,
            cache.inner.lock().unwrap().witnesses[&raw]
                .witness
                .as_ref()
                .unwrap(),
        );
        let verdict = "entry 0000000000000001 0000000000000002 q_high\ninduction 1\n";
        // Another optimizer version: skipped, and loading goes on.
        let stale = record.replacen(&format!(" {OPT_VERSION} "), " 999 ", 1);
        std::fs::write(&path, format!("{CACHE_HEADER}\n{stale}{verdict}")).unwrap();
        let cache = ProofCache::open(&dir);
        assert_eq!(cache.len(), 1);
        assert!(cache.replay_optimized(raw, &model).is_none());
        // A torn body (odd pair count, missing pass line): the key
        // survives, loading stops, the first lookup rejects it.
        let torn_pair = format!("{} 7\n", record.trim_end());
        let missing_pass = record.replacen(" 1\npass", " 2\npass", 1);
        for damaged in [torn_pair, missing_pass] {
            std::fs::write(&path, format!("{CACHE_HEADER}\n{damaged}{verdict}")).unwrap();
            let cache = ProofCache::open(&dir);
            assert_eq!(cache.len(), 0, "loading stops at the damaged record");
            assert_eq!(cache.inner.lock().unwrap().witnesses.len(), 1);
            assert!(cache.replay_optimized(raw, &model).is_none());
            assert!(cache.inner.lock().unwrap().witnesses.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
