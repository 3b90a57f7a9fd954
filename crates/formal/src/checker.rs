//! Top-level verification driver.
//!
//! [`verify`] runs an AutoSVA-generated formal testbench against its DUT: it
//! elaborates the RTL, compiles the testbench into a [`crate::model::Model`],
//! and checks every property through the engine cascade — shallow BMC for
//! short counterexamples, k-induction for cheap proofs, the IC3/PDR engine
//! for reachability-dependent proofs (returning an inductive-invariant
//! certificate), and the exact explicit-state engine as the last resort —
//! then collects everything into a [`VerificationReport`] that mirrors how
//! the paper reports results (proof rate, counterexamples, trace lengths,
//! runtimes).
//!
//! Properties are independent tasks: by default each one is checked on its
//! own cone-of-influence slice ([`crate::coi`]) and the tasks run
//! concurrently on a worker pool ([`crate::portfolio`]), with results
//! assembled back in annotation order — a sequential run
//! (`parallel.threads = 1`) and a parallel run render byte-identical
//! reports.  An optional [`crate::portfolio::ProofCache`] reuses verdicts
//! across runs when a property's slice is content-identical (e.g.
//! buggy/fixed design variants or repeated bench iterations).

use crate::aig::Lit;
use crate::bmc::{
    check_cover_budgeted, check_safety_budgeted, minimize_counterexample, race_safety_budgeted,
    BmcOptions, CoverResult, MinimizeLemmas, RaceOptions, SafetyResult,
};
use crate::coi::{
    cone_of_influence, fingerprint, signature_overlap, state_signature, Fingerprint, SliceTarget,
};
use crate::compile::{compile, CompiledKind, CompiledTestbench};
use crate::elab::{elaborate_budgeted, ElabDesign, ElabOptions, Result};
use crate::explicit::{ExplicitEngine, ExplicitOptions, ExplicitResult};
use crate::fuzz::{fuzz_safety_budgeted, FuzzOptions, FuzzStats};
use crate::interrupt::{self, Interrupt, InterruptReason};
use crate::lint::{LintOptions, LintReport};
use crate::model::{LivenessSafetyModel, Model};
use crate::pdr::{
    check_pdr_budgeted, check_pdr_budgeted_lemmas, FrameLemma, PdrOptions, PdrResult,
};
use crate::portfolio::{
    racer_configs, run_phased, CacheKey, CacheStats, CachedOutcome, CachedVerdict, ParallelOptions,
    PoolKind, ProofCache, SharedPools, SharingOptions,
};
use crate::sat::{SolverConfig, SolverStats};
use crate::telemetry::{
    self, RunSummary, Telemetry, TelemetryOptions, TelemetryReport, VerdictCounts,
};
use crate::trace::Trace;
use crate::unroll::SeedHint;
use crate::vcd::VcdOptions;
use autosva::sva::{Directive, PropertyClass};
use autosva::FormalTestbench;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Options for a verification run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Elaboration options (top module, parameter overrides, clock/reset).
    pub elab: ElabOptions,
    /// Bounds used for safety and cover checking.
    pub bmc: BmcOptions,
    /// Bounds used for the liveness-to-safety checks (these models are
    /// larger, so the bounds may be set lower).
    pub liveness_bmc: BmcOptions,
    /// Limits of the exact explicit-state fallback engine used when BMC and
    /// k-induction are inconclusive.
    pub explicit: ExplicitOptions,
    /// Disable the explicit-state fallback entirely (used by the engine
    /// ablation benchmarks).
    pub disable_explicit: bool,
    /// Bounds of the IC3/PDR engine that sits between k-induction and the
    /// explicit fallback in the cascade.
    pub pdr: PdrOptions,
    /// Disable the PDR stage entirely (used by the engine ablation
    /// benchmarks).
    pub disable_pdr: bool,
    /// Disable every BMC stage (quick and full-depth) of the cascade.  Used
    /// by the engine ablation benchmarks and the fuzz-only smoke mode; also
    /// skips counterexample minimization, so each engine's raw trace is
    /// reported.
    pub disable_bmc: bool,
    /// Depth of the *quick* BMC pass run before the exact engine.  Short
    /// counterexamples are found here with minimal effort; anything deeper is
    /// left to the exact engine (or to the full-depth BMC when the exact
    /// engine is unavailable).
    pub quick_bmc_depth: usize,
    /// The pre-cascade stimulus fuzzer: bit-parallel simulation of every
    /// safety property's slice, hunting shallow bugs before any SAT query.
    /// Confirmed hits are re-minimized (unless `disable_bmc`) by the
    /// incremental, PDR-lemma-strengthened walk of
    /// [`crate::bmc::minimize_counterexample`], so the reported trace
    /// length — and therefore [`VerificationReport::render`] — is
    /// byte-identical with the fuzz stage on or off, for any seed.
    pub fuzz: FuzzOptions,
    /// Waveform output: when a directory is set, every counterexample and
    /// witness trace — fuzzer-found and SAT-found — is written there as a
    /// VCD file named by [`crate::vcd::file_name`].
    pub vcd: VcdOptions,
    /// Orchestration: worker-thread count (`threads = 1` is the sequential
    /// escape hatch), per-property cone-of-influence slicing, optional
    /// per-property time budgets, and the proof cache.
    pub parallel: ParallelOptions,
    /// Proof-cache persistence: when a directory is set, verdicts spill to
    /// disk there and reload in later processes.
    pub cache: CacheOptions,
    /// SAT search-loop feature toggles, shared by every engine stage (the
    /// solver ablation bench flips them; the defaults enable everything).
    pub solver: SolverConfig,
    /// Design-lint configuration (level and deny-warnings).  The lint runs
    /// between compilation and the engine cascade; error-severity findings
    /// fail the run before any engine starts.
    pub lint: LintOptions,
    /// Observability: structured spans, the counter/gauge registry and the
    /// trace/JSON sinks.  Default off — no collector is allocated and every
    /// probe is a thread-local no-op.  [`VerificationReport::render`] is
    /// byte-identical with telemetry on or off.
    pub telemetry: TelemetryOptions,
    /// Wall-clock budget for the *front end* (parse, elaboration,
    /// compilation, lint).  The engine cascade has per-property deadlines
    /// ([`ParallelOptions::property_timeout`]), but before this budget
    /// existed a pathological design could stall the run *before* any
    /// engine — and any deadline — was reached.  The budget is checked
    /// between the front-end phases and inside elaboration's own loops;
    /// exceeding it fails the run with a phase-naming error.  `None`
    /// (the default) leaves the front end unbudgeted.
    pub frontend_timeout: Option<Duration>,
    /// The clause-sharing SAT portfolio raced on hard properties: when
    /// enabled (the default, 2–4 diverse solver configurations), the
    /// full-depth BMC/k-induction stage races the configurations in
    /// deterministic lockstep, exchanging learnt clauses through a shared
    /// pool keyed by the slice fingerprint, with PDR's frame lemmas and
    /// cross-property phase/activity seeds warming the search.  Verdicts —
    /// and [`VerificationReport::render`] — are byte-identical with
    /// sharing on or off: imported clauses only ever strengthen, never
    /// change, answers, and counterexamples are re-canonicalized to the
    /// minimal single-solver trace.
    pub sharing: SharingOptions,
}

/// Proof-cache persistence knobs (part of [`CheckOptions`]).
///
/// The in-process cache handle lives on [`ParallelOptions::cache`]; these
/// options control the on-disk spill.  When `dir` is set and no in-process
/// handle was supplied, [`verify_elaborated`] opens a disk-backed
/// [`ProofCache`] in that directory for the run and flushes it afterwards,
/// so repeated CLI/CI invocations reuse proofs across processes.  Cached
/// verdicts are re-validated on every hit exactly as in-memory hits are.
#[derive(Debug, Clone, Default)]
pub struct CacheOptions {
    /// Directory holding the spill file (created if missing).  `None`
    /// keeps the cache (if any) in-memory only.
    pub dir: Option<PathBuf>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            elab: ElabOptions::default(),
            bmc: BmcOptions {
                max_depth: 25,
                max_induction: 12,
            },
            liveness_bmc: BmcOptions {
                max_depth: 12,
                max_induction: 0,
            },
            explicit: ExplicitOptions::default(),
            disable_explicit: false,
            pdr: PdrOptions {
                max_frames: 40,
                max_queries: 30_000,
                generalize_rounds: 2,
            },
            disable_pdr: false,
            disable_bmc: false,
            quick_bmc_depth: 10,
            fuzz: FuzzOptions::default(),
            vcd: VcdOptions::default(),
            parallel: ParallelOptions::default(),
            cache: CacheOptions::default(),
            solver: SolverConfig::default(),
            lint: LintOptions::default(),
            telemetry: TelemetryOptions::default(),
            frontend_timeout: None,
            sharing: SharingOptions::default(),
        }
    }
}

/// Why a proven property holds: which engine closed the proof and the
/// artifact it produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Proof {
    /// k-induction with loop-free-path strengthening.
    Induction {
        /// Induction depth at which the proof closed.
        depth: usize,
    },
    /// A PDR inductive invariant (clauses rendered over latch names).
    Invariant {
        /// The invariant clauses, human-readable.
        clauses: Vec<String>,
        /// Number of frames the trapezoid reached when the proof closed.
        frames: usize,
    },
    /// Exhaustive reachable-state enumeration by the explicit engine.
    Reachability,
}

impl Proof {
    /// A one-line description for report rendering.
    pub fn describe(&self) -> String {
        match self {
            Proof::Induction { depth } => format!("k-induction, k={depth}"),
            Proof::Invariant { clauses, frames } => {
                if clauses.is_empty() {
                    format!("PDR, vacuous at frame {frames}")
                } else if clauses.len() <= 3 {
                    format!(
                        "PDR invariant at frame {frames}: ({})",
                        clauses.join(") & (")
                    )
                } else {
                    format!("PDR invariant, {} clauses at frame {frames}", clauses.len())
                }
            }
            Proof::Reachability => "explicit reachability".to_string(),
        }
    }
}

/// The verification status of one property.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyStatus {
    /// Proven to hold on all executions; carries the proof artifact so
    /// reports can say *why* the property holds.
    Proven(Proof),
    /// Violated; a counterexample trace is attached.
    Violated(Trace),
    /// Cover target reached; the witness trace is attached.
    Covered(Trace),
    /// Cover target proven unreachable.
    Unreachable,
    /// Result not determined within the configured bounds.
    Unknown,
    /// Not checked by the formal engine (assumptions, X-prop checks).
    NotChecked(&'static str),
    /// The engine checking this property panicked.  The fault is contained
    /// to this row: every other property's verdict is unaffected and the
    /// report still renders.  Equivalent to [`PropertyStatus::Unknown`] for
    /// pass/fail purposes, but kept distinct so reports (and exit codes
    /// built on them) can surface the crash instead of silently reading it
    /// as "bounds too small".
    Error {
        /// The cascade stage that was running when the panic unwound
        /// (`"fuzz"`, `"bmc"`, `"pdr"`, `"explicit"`, or `"task"` when it
        /// escaped outside any engine stage).
        engine: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl PropertyStatus {
    /// `true` when the outcome is a definitive pass (proof, cover hit, or an
    /// assumption that does not need checking).
    pub fn is_pass(&self) -> bool {
        matches!(
            self,
            PropertyStatus::Proven(_) | PropertyStatus::Covered(_) | PropertyStatus::NotChecked(_)
        )
    }

    /// `true` when the property was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, PropertyStatus::Proven(_))
    }

    /// The attached proof artifact, if the property was proven.
    pub fn proof(&self) -> Option<&Proof> {
        match self {
            PropertyStatus::Proven(p) => Some(p),
            _ => None,
        }
    }

    /// `true` when a counterexample was produced.
    pub fn is_violation(&self) -> bool {
        matches!(self, PropertyStatus::Violated(_))
    }

    /// The attached trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            PropertyStatus::Violated(t) | PropertyStatus::Covered(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for PropertyStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyStatus::Proven(_) => write!(f, "proven"),
            PropertyStatus::Violated(t) => write!(f, "CEX ({} cycles)", t.len()),
            PropertyStatus::Covered(t) => write!(f, "covered ({} cycles)", t.len()),
            PropertyStatus::Unreachable => write!(f, "unreachable"),
            PropertyStatus::Unknown => write!(f, "unknown"),
            PropertyStatus::NotChecked(reason) => write!(f, "not checked ({reason})"),
            PropertyStatus::Error { engine, message } => {
                write!(f, "ERROR in {engine}: {message}")
            }
        }
    }
}

/// The result for one property of the testbench.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// Full property name (`as__...`, `am__...`, `co__...`).
    pub name: String,
    /// Property directive.
    pub directive: Directive,
    /// Property class.
    pub class: PropertyClass,
    /// Verification outcome.
    pub status: PropertyStatus,
    /// Wall-clock time spent on this property.
    pub runtime: Duration,
    /// Latches of the cone-of-influence slice the property was checked on
    /// (equals the full model's latch count when slicing is disabled; `0`
    /// for properties that are not checked).
    pub slice_latches: usize,
    /// AND gates of the slice the property was checked on.
    pub slice_gates: usize,
    /// Caveat attached to the outcome (e.g. the bounded-lasso note on an
    /// undecided liveness property, or an exhausted time budget).
    pub note: Option<String>,
    /// Engine provenance when the verdict came from outside the SAT
    /// cascade: `Some("fuzz")` marks a violation found by the pre-cascade
    /// stimulus fuzzer (replay-confirmed, then re-minimized).  Rendered
    /// only by [`VerificationReport::render_timed`], so
    /// [`VerificationReport::render`] stays byte-identical with the fuzz
    /// stage on or off.
    pub engine: Option<&'static str>,
    /// Aggregated SAT-solver counters across every engine stage that ran
    /// for this property (all zeros for cache hits and unchecked
    /// properties).  Rendered by [`VerificationReport::render_timed`];
    /// [`VerificationReport::render`] stays stats-free so cold and
    /// cache-warm runs stay byte-identical.
    pub stats: SolverStats,
    /// Search statistics of the pre-cascade stimulus fuzzer, when the fuzz
    /// stage ran for this property (safety assertions with `fuzz.enabled`).
    /// Rendered only by [`VerificationReport::render_timed`].
    pub fuzz: Option<FuzzStats>,
}

/// The report of a full verification run.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// DUT name.
    pub dut: String,
    /// Per-property results.
    pub results: Vec<PropertyResult>,
    /// Total wall-clock time.
    pub total_runtime: Duration,
    /// Number of AIG latches in the compiled model (design + testbench).
    pub model_latches: usize,
    /// Number of AIG and-gates in the compiled model.
    pub model_gates: usize,
    /// Design-lint findings (empty when the lint is off or clean).
    pub lint: LintReport,
    /// Proof-cache counters for this run (hits/misses/insertions/rejected,
    /// plus verdicts loaded from disk); `None` when the run had no cache.
    /// Rendered only by [`VerificationReport::render_timed`].
    pub cache_stats: Option<CacheStats>,
    /// The merged telemetry of the run (spans, counters, gauges); `None`
    /// unless [`CheckOptions::telemetry`] requested collection.
    pub telemetry: Option<TelemetryReport>,
}

impl VerificationReport {
    /// Properties that were actually checked (assertions and covers).
    pub fn checked(&self) -> impl Iterator<Item = &PropertyResult> {
        self.results
            .iter()
            .filter(|r| !matches!(r.status, PropertyStatus::NotChecked(_)))
    }

    /// Number of violated properties.
    pub fn violations(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status.is_violation())
            .count()
    }

    /// Number of proven properties.
    pub fn proofs(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.status, PropertyStatus::Proven(_)))
            .count()
    }

    /// Proof rate over checked assertion properties (the paper's "100%
    /// proof" metric): proven / (proven + violated + unknown), ignoring
    /// covers and assumptions.
    pub fn proof_rate(&self) -> f64 {
        let assertions: Vec<&PropertyResult> = self
            .results
            .iter()
            .filter(|r| r.directive == Directive::Assert)
            .filter(|r| !matches!(r.status, PropertyStatus::NotChecked(_)))
            .collect();
        if assertions.is_empty() {
            return 1.0;
        }
        let proven = assertions
            .iter()
            .filter(|r| matches!(r.status, PropertyStatus::Proven(_)))
            .count();
        proven as f64 / assertions.len() as f64
    }

    /// The first counterexample found, if any.
    pub fn first_violation(&self) -> Option<&PropertyResult> {
        self.results.iter().find(|r| r.status.is_violation())
    }

    fn name_width(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(8)
            .max(8)
    }

    fn render_row(&self, out: &mut String, r: &PropertyResult, name_width: usize, prefix: &str) {
        match &r.status {
            PropertyStatus::Proven(proof) => out.push_str(&format!(
                "  {:name_width$}{prefix}  {} [{}]",
                r.name,
                r.status,
                proof.describe()
            )),
            status => out.push_str(&format!("  {:name_width$}{prefix}  {status}", r.name)),
        }
        if !matches!(r.status, PropertyStatus::NotChecked(_)) {
            out.push_str(&format!(
                "  (cone {} latches, {} gates)",
                r.slice_latches, r.slice_gates
            ));
        }
        out.push('\n');
        if let Some(note) = &r.note {
            // The note row aligns under the status column (the prefix — the
            // runtime in the timed rendering — is padded out, not repeated).
            let pad = name_width + prefix.chars().count();
            out.push_str(&format!("  {:pad$}  note: {note}\n", ""));
        }
    }

    /// Renders a human-readable summary table.
    ///
    /// The output is fully deterministic — property order, statuses, proof
    /// artifacts and slice sizes, but no wall-clock figures — so two runs of
    /// the same testbench render byte-identically regardless of the worker
    /// count or thread interleaving.  Use [`VerificationReport::render_timed`]
    /// for the variant with runtimes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Verification report for `{}` ({} latches, {} gates)\n",
            self.dut, self.model_latches, self.model_gates
        ));
        let name_width = self.name_width();
        for r in &self.results {
            self.render_row(&mut out, r, name_width, "");
        }
        if !self.lint.is_empty() {
            out.push_str(&self.lint.render());
        }
        out.push_str(&format!(
            "proof rate {:.0}%, {} violation(s)\n",
            self.proof_rate() * 100.0,
            self.violations(),
        ));
        out
    }

    /// Like [`VerificationReport::render`], with per-property and total
    /// wall-clock times plus per-property solver counters added (and
    /// therefore not byte-stable across runs).
    pub fn render_timed(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Verification report for `{}` ({} latches, {} gates)\n",
            self.dut, self.model_latches, self.model_gates
        ));
        let name_width = self.name_width();
        for r in &self.results {
            let prefix = format!("  {:>8.1?}", r.runtime);
            self.render_row(&mut out, r, name_width, &prefix);
            if let Some(engine) = r.engine {
                let pad = name_width + prefix.chars().count();
                out.push_str(&format!("  {:pad$}  engine: {engine}\n", ""));
            }
            if r.stats != SolverStats::default() {
                let pad = name_width + prefix.chars().count();
                let s = r.stats;
                out.push_str(&format!(
                    "  {:pad$}  solver: {} conflicts, {} decisions, {} propagations, \
                     {} restarts, {} learnt ({} minimized lits, {} deleted)\n",
                    "",
                    s.conflicts,
                    s.decisions,
                    s.propagations,
                    s.restarts,
                    s.learnt,
                    s.minimized_lits,
                    s.learnt_deleted,
                ));
            }
            if let Some(fz) = &r.fuzz {
                let pad = name_width + prefix.chars().count();
                out.push_str(&format!(
                    "  {:pad$}  fuzz: {} round(s), {} cycles, {} lanes retired, \
                     {} redraw(s), {} replay(s) ({} confirmed)\n",
                    "",
                    fz.rounds,
                    fz.cycles,
                    fz.lanes_retired,
                    fz.redraws,
                    fz.replays,
                    fz.confirmed,
                ));
            }
        }
        if !self.lint.is_empty() {
            out.push_str(&self.lint.render());
        }
        if let Some(cs) = &self.cache_stats {
            out.push_str(&format!(
                "cache: {} hit(s), {} miss(es), {} insertion(s), {} rejected, {} loaded\n",
                cs.hits, cs.misses, cs.insertions, cs.rejected, cs.loaded
            ));
        }
        if let Some(t) = &self.telemetry {
            out.push_str(&t.render_summary());
        }
        out.push_str(&format!(
            "proof rate {:.0}%, {} violation(s), total {:.1?}\n",
            self.proof_rate() * 100.0,
            self.violations(),
            self.total_runtime
        ));
        out
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Elaborates `source`, compiles `testbench` and checks every property.
///
/// # Errors
///
/// Returns an error when elaboration or property compilation fails; checking
/// itself never fails (inconclusive results are reported as
/// [`PropertyStatus::Unknown`]).
pub fn verify(
    source: &str,
    testbench: &FormalTestbench,
    options: &CheckOptions,
) -> Result<VerificationReport> {
    let run_telemetry = Telemetry::new(&options.telemetry);
    let _scope = telemetry::enter(&run_telemetry);
    let frontend = frontend_guard(options);
    let file = {
        let _span = telemetry::span("parse", &testbench.dut_name);
        svparse::parse(source)
            .map_err(|e| crate::elab::ElabError::new(format!("parse error: {e}")))?
    };
    frontend_check(&frontend, "parse")?;
    let mut elab_options = options.elab.clone();
    if elab_options.top.is_none() {
        elab_options.top = Some(testbench.dut_name.clone());
    }
    let design = elaborate_budgeted(&file, &elab_options, &frontend)?;
    frontend_check(&frontend, "elaboration")?;
    verify_elaborated_inner(
        &design,
        testbench,
        Some(source),
        options,
        &run_telemetry,
        &frontend,
    )
}

/// Like [`verify`], but for an already elaborated design.  Without the
/// source text the lint still runs, but its source-dependent passes (width
/// mismatches, dead signals, unreachable enum states) are skipped and
/// findings carry no line/column; prefer
/// [`verify_elaborated_with_source`] when the RTL text is at hand.
pub fn verify_elaborated(
    design: &ElabDesign,
    testbench: &FormalTestbench,
    options: &CheckOptions,
) -> Result<VerificationReport> {
    verify_elaborated_with_source(design, testbench, None, options)
}

/// Like [`verify_elaborated`], with the original RTL source enabling the
/// full design lint (source-located findings with caret snippets).
pub fn verify_elaborated_with_source(
    design: &ElabDesign,
    testbench: &FormalTestbench,
    source: Option<&str>,
    options: &CheckOptions,
) -> Result<VerificationReport> {
    let run_telemetry = Telemetry::new(&options.telemetry);
    let _scope = telemetry::enter(&run_telemetry);
    let frontend = frontend_guard(options);
    verify_elaborated_inner(
        design,
        testbench,
        source,
        options,
        &run_telemetry,
        &frontend,
    )
}

/// Creates the front-end deadline guard from
/// [`CheckOptions::frontend_timeout`] (an unarmed interrupt when no budget
/// is configured, so polling it is free).
fn frontend_guard(options: &CheckOptions) -> Interrupt {
    Interrupt::new(
        options
            .frontend_timeout
            .and_then(|limit| Instant::now().checked_add(limit)),
        None,
        None,
    )
}

/// Fails the run when the front-end budget expired during `phase`.  Called
/// between the front-end phases (and, through
/// [`crate::elab::elaborate_budgeted`], inside elaboration's own loops) so
/// a stalled front end surfaces as a named error instead of an unbounded
/// hang.
fn frontend_check(guard: &Interrupt, phase: &str) -> Result<()> {
    if guard.poll().is_some() {
        return Err(crate::elab::ElabError::new(format!(
            "front-end deadline exceeded during {phase}"
        )));
    }
    Ok(())
}

/// The shared body of [`verify`] and [`verify_elaborated_with_source`].
/// Assumes the caller has already entered `run_telemetry`'s recording scope
/// on this thread (so the orchestrating thread owns trace track 0).
fn verify_elaborated_inner(
    design: &ElabDesign,
    testbench: &FormalTestbench,
    source: Option<&str>,
    options: &CheckOptions,
    run_telemetry: &Telemetry,
    frontend: &Interrupt,
) -> Result<VerificationReport> {
    let start = Instant::now();
    let compiled = compile(design, testbench)?;
    frontend_check(frontend, "compilation")?;

    // Level-1 static analysis between compile and the cascade: error
    // findings (multiply-driven signals, or anything under deny-warnings)
    // stop the run before any engine spends time on a broken design.
    let lint = crate::lint::run(design, &compiled, testbench, source, &options.lint);
    if lint.has_errors() {
        return Err(crate::elab::ElabError::new(format!(
            "design lint failed with {} error(s):\n{}",
            lint.error_count(),
            lint.render()
        )));
    }
    frontend_check(frontend, "lint")?;

    let (jobs, job_of) = plan_slices(&compiled, options);
    // The effective proof cache: an explicit in-process handle wins;
    // otherwise a configured cache directory opens a disk-backed cache for
    // this run (flushed below, so the next process reloads the verdicts).
    let cache = options
        .parallel
        .cache
        .clone()
        .or_else(|| options.cache.dir.as_ref().map(ProofCache::open));
    // Snapshot the cache counters so the report carries this run's delta
    // even when the handle is a long-lived in-process cache shared across
    // runs (`loaded` stays absolute — it describes the open).
    let cache_base = cache.as_ref().map(|c| c.stats());
    let ctx = TaskCtx {
        options,
        cache,
        cancel: Arc::new(AtomicBool::new(false)),
        explicit_memo: Mutex::new(HashMap::new()),
        pools: SharedPools::new(),
    };

    // Register the robustness counters up front so a healthy run's
    // telemetry still carries them (with zeros): their *absence* would be
    // indistinguishable from "fault containment not compiled in".
    telemetry::register_counter("robustness.interrupts");
    telemetry::register_counter("robustness.timeouts");
    telemetry::register_counter("robustness.panics_caught");

    // Prepare every distinct slice, then run every property task, on one
    // worker pool.  Prepared models and statuses are deterministic (each
    // optimizer run and each engine is single-threaded on a fixed slice),
    // so only runtimes depend on the interleaving.  A preparation step runs
    // under containment and degrades only the properties on its slice.
    // Each task runs under its own interrupt handle (deadline from
    // `property_timeout` plus the shared cancellation flag, polled inside
    // every engine loop) and inside `catch_unwind`, so a stalled or
    // panicking engine degrades that one property — the run always comes
    // back with a complete report.
    let threads = options
        .parallel
        .effective_threads()
        .min(compiled.properties.len().max(1));
    let names: Vec<String> = compiled
        .properties
        .iter()
        .map(|p| p.property.full_name())
        .collect();
    let opt_on = options.parallel.opt;
    // Every worker works in the caller's scope (fault arms are scoped).
    let scope = interrupt::current_scope();
    let run_one = |i: usize, task: &PropertyTask| {
        let _task_span = telemetry::span("task", &names[i]);
        let t0 = Instant::now();
        let deadline = options
            .parallel
            .property_timeout
            .and_then(|limit| Instant::now().checked_add(limit));
        let interrupt = Interrupt::new(deadline, None, Some(ctx.cancel.clone()));
        interrupt::set_task_context(&names[i], interrupt.clone(), scope);
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_task(task, &ctx, &interrupt))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                telemetry::count("robustness.panics_caught", 1);
                TaskOutcome::new(
                    PropertyStatus::Error {
                        engine: interrupt::current_engine(),
                        message: panic_message(payload.as_ref()),
                    },
                    Some(
                        "engine panic isolated to this property; other verdicts are unaffected"
                            .to_string(),
                    ),
                    SolverStats::default(),
                )
            }
        };
        interrupt::clear_task_context();
        match interrupt.triggered() {
            Some(InterruptReason::Timeout) => {
                telemetry::count("robustness.interrupts", 1);
                telemetry::count("robustness.timeouts", 1);
            }
            Some(_) => telemetry::count("robustness.interrupts", 1),
            None => {}
        }
        if ctx.options.parallel.stop_on_violation && outcome.status.is_violation() {
            ctx.cancel.store(true, Ordering::Relaxed);
        }
        (outcome, t0.elapsed())
    };
    let (tasks, outcomes) = run_phased(
        jobs,
        threads,
        &ctx.cancel,
        run_telemetry,
        |_, job| prepare_slice(job, opt_on, ctx.cache.as_ref(), scope),
        |prepared| assemble_tasks(&compiled, options, &job_of, prepared),
        run_one,
    );

    // Assembly in annotation order, independent of completion order.
    let mut results = Vec::with_capacity(tasks.len());
    for ((prop, task), slot) in compiled.properties.iter().zip(&tasks).zip(outcomes) {
        let (outcome, runtime) = slot.unwrap_or_else(|| {
            (
                TaskOutcome::new(
                    PropertyStatus::Unknown,
                    Some("not started: the shared cancellation flag was raised".to_string()),
                    SolverStats::default(),
                ),
                Duration::ZERO,
            )
        });
        results.push(PropertyResult {
            name: prop.property.full_name(),
            directive: prop.property.directive,
            class: prop.property.class,
            status: outcome.status,
            runtime,
            slice_latches: task.cone_latches,
            slice_gates: task.cone_gates,
            note: outcome.note,
            engine: outcome.engine,
            stats: outcome.stats,
            fuzz: outcome.fuzz,
        });
    }

    // Spill the cache to disk (no-op for in-memory caches).  Failures are
    // non-fatal: the cache is advisory and the report is already complete.
    if let Some(cache) = &ctx.cache {
        let _ = cache.flush();
    }

    // This run's cache counter delta, surfaced on the report and fed into
    // the metrics registry.
    let cache_stats = ctx.cache.as_ref().map(|c| match &cache_base {
        Some(base) => c.stats().since(base),
        None => c.stats(),
    });
    if let Some(delta) = &cache_stats {
        telemetry::count("cache.hits", delta.hits);
        telemetry::count("cache.misses", delta.misses);
        telemetry::count("cache.insertions", delta.insertions);
        telemetry::count("cache.rejected", delta.rejected);
        telemetry::count("cache.loaded", delta.loaded);
    }

    // Waveform output: one VCD per counterexample/witness trace, under the
    // stable on-disk naming scheme.  Best-effort like the cache — an I/O
    // failure must not fail a completed verification run.
    if let Some(dir) = &options.vcd.dir {
        let _ = std::fs::create_dir_all(dir);
        for r in &results {
            if let Some(trace) = r.status.trace() {
                let path = dir.join(crate::vcd::file_name(&testbench.dut_name, &r.name));
                let text = crate::vcd::render(trace, &testbench.dut_name, &r.name);
                let _ = std::fs::write(path, text);
            }
        }
    }

    // Merge the telemetry buffers into the final report and write the
    // sinks (best-effort, like the cache and VCD output).
    let telemetry_report = if run_telemetry.is_active() {
        let mut verdicts = VerdictCounts::default();
        let mut slice_latches = 0;
        let mut slice_gates = 0;
        for r in &results {
            match &r.status {
                PropertyStatus::Proven(_) => verdicts.proven += 1,
                PropertyStatus::Violated(_) => verdicts.violated += 1,
                PropertyStatus::Covered(_) => verdicts.covered += 1,
                PropertyStatus::Unreachable => verdicts.unreachable += 1,
                PropertyStatus::Unknown => verdicts.unknown += 1,
                PropertyStatus::NotChecked(_) => verdicts.not_checked += 1,
                PropertyStatus::Error { .. } => verdicts.errors += 1,
            }
            if !matches!(r.status, PropertyStatus::NotChecked(_)) {
                slice_latches += r.slice_latches;
                slice_gates += r.slice_gates;
            }
        }
        run_telemetry.finish(RunSummary {
            dut: testbench.dut_name.clone(),
            properties: results.len(),
            verdicts,
            model_latches: compiled.model.aig.num_latches(),
            model_gates: compiled.model.aig.num_ands(),
            slice_latches,
            slice_gates,
        })
    } else {
        None
    };
    if let Some(report) = &telemetry_report {
        if let Some(path) = &options.telemetry.trace_path {
            let _ = std::fs::write(path, report.to_chrome_trace());
        }
        if let Some(path) = &options.telemetry.json_path {
            let _ = std::fs::write(path, report.to_json());
        }
    }

    Ok(VerificationReport {
        dut: testbench.dut_name.clone(),
        results,
        total_runtime: start.elapsed(),
        model_latches: compiled.model.aig.num_latches(),
        model_gates: compiled.model.aig.num_ands(),
        lint,
        cache_stats,
        telemetry: telemetry_report,
    })
}

/// One property as an independent verification task: the (sliced) model it
/// runs on, where its target sits in that model, and the slice fingerprint
/// used for engine sharing and proof caching.
struct PropertyTask {
    kind: TaskKind,
    cone_latches: usize,
    cone_gates: usize,
    /// Phase/activity seeds from a high-overlap earlier task (empty when
    /// there is no donor); see [`build_seed_plans`].
    seeds: HashMap<usize, SeedHint>,
}

enum TaskKind {
    /// Resolved at compile time (assumptions, X-prop checks).
    Done(PropertyStatus),
    /// Slice preparation failed; the status is the contained panic.
    Failed(PropertyStatus),
    /// Safety assertion `model.bads[index]`.
    Safety {
        model: Arc<Model>,
        index: usize,
        fp: Fingerprint,
    },
    /// Cover target `model.covers[index]`.
    Cover {
        model: Arc<Model>,
        index: usize,
        fp: Fingerprint,
    },
    /// Liveness obligation `base.liveness[index]`, checked on its
    /// liveness-to-safety transform (`l2s.model.bads[index]`); the explicit
    /// engine's SCC analysis runs on `base` with pending monitors.
    Liveness {
        base: Arc<Model>,
        l2s: Arc<LivenessSafetyModel>,
        index: usize,
        fp: Fingerprint,
    },
}

/// One distinct cone-of-influence slice (by raw fingerprint) awaiting
/// preparation on the worker pool.
struct SliceJob {
    slice: crate::coi::Slice,
    /// The first property on the slice in annotation order: the task
    /// context while the slice is prepared, so fault filters and panic
    /// reports name it.
    owner: String,
    /// Whether the slice's liveness-to-safety product is needed (the slice
    /// is a liveness property's; fingerprints cover property names and
    /// kinds, so every property on it is a liveness property).
    needs_l2s: bool,
}

/// The models of a prepared slice, or the status every property that
/// depends on a failed preparation step reports.
type Prepared<T> = std::result::Result<T, PropertyStatus>;

/// A prepared slice: the (optimized) model its engines run on, that
/// model's fingerprint, and the (optimized) liveness-to-safety product
/// when a liveness property needs it.
struct PreparedSlice {
    model: Arc<Model>,
    fp: Fingerprint,
    l2s: Option<Prepared<Arc<LivenessSafetyModel>>>,
}

/// The note on every property degraded by a failed preparation step.
pub(crate) const PREP_PANIC_NOTE: &str =
    "slice preparation panic isolated to the properties on this slice; other verdicts are unaffected";

/// Cuts every checked property's cone-of-influence slice (cheap, on the
/// calling thread) and returns the distinct slices to prepare, plus each
/// property's slice index in annotation order.  With slicing disabled
/// there is nothing to prepare.
fn plan_slices(
    compiled: &CompiledTestbench,
    options: &CheckOptions,
) -> (Vec<SliceJob>, Vec<Option<usize>>) {
    let mut jobs: Vec<SliceJob> = Vec::new();
    let mut job_of = Vec::with_capacity(compiled.properties.len());
    if !options.parallel.slice {
        job_of.resize(compiled.properties.len(), None);
        return (jobs, job_of);
    }
    let mut by_fingerprint: HashMap<Fingerprint, usize> = HashMap::new();
    for prop in &compiled.properties {
        let target = match prop.kind {
            CompiledKind::Safety(i) => SliceTarget::Bad(i),
            CompiledKind::Cover(i) => SliceTarget::Cover(i),
            CompiledKind::Liveness(i) => SliceTarget::Liveness(i),
            _ => {
                job_of.push(None);
                continue;
            }
        };
        let slice = cone_of_influence(&compiled.model, target);
        let j = *by_fingerprint.entry(slice.fingerprint).or_insert_with(|| {
            jobs.push(SliceJob {
                slice,
                owner: prop.property.full_name(),
                needs_l2s: matches!(target, SliceTarget::Liveness(_)),
            });
            jobs.len() - 1
        });
        job_of.push(Some(j));
    }
    (jobs, job_of)
}

/// Prepares one distinct slice on a pool worker: with the optimizer on
/// (the default) the slice is run through [`crate::opt`] — constant
/// sweeping, sequential/combinational equivalence sweeping, dead-node
/// elimination — before any engine sees it.  A liveness slice is
/// optimized first, then transformed via liveness-to-safety, and the
/// product is optimized again (the order keeps the L2S snapshot sound: the
/// transform always runs on the model the snapshots will be compared
/// against).  With a proof cache, each optimization is replayed from the
/// cached optimizer witness when there is one (see [`optimized`]).  Each
/// step runs under [`contained`], so a panic degrades only the properties
/// that depend on it.
fn prepare_slice(
    job: SliceJob,
    opt_on: bool,
    cache: Option<&ProofCache>,
    scope: u64,
) -> Prepared<PreparedSlice> {
    let SliceJob {
        slice,
        owner,
        needs_l2s,
    } = job;
    let (model, fp) = contained(&owner, "opt", scope, || {
        if opt_on {
            optimized(cache, &slice.model, || slice.fingerprint)
        } else {
            (slice.model, slice.fingerprint)
        }
    })?;
    let model = Arc::new(model);
    let l2s = needs_l2s.then(|| {
        contained(&owner, "l2s", scope, || {
            let _span = telemetry::span("l2s", &owner);
            let product = model.to_liveness_safety();
            if !opt_on {
                return Arc::new(product);
            }
            // The snapshot/monitor plumbing often pins latches the
            // original cone had already lost.
            interrupt::set_current_engine("opt");
            Arc::new(LivenessSafetyModel {
                model: optimized(cache, &product.model, || fingerprint(&product.model)).0,
                property_names: product.property_names,
            })
        })
    });
    Ok(PreparedSlice { model, fp, l2s })
}

/// `model` optimized, with its fingerprint.  With a proof cache, the
/// witness cached under `model`'s own fingerprint (`raw`) is replayed
/// instead of running the sweeps; without one, or when the replay fails,
/// the optimizer runs and its witness is stored for the next run.
fn optimized(
    cache: Option<&ProofCache>,
    model: &Model,
    raw: impl FnOnce() -> Fingerprint,
) -> (Model, Fingerprint) {
    let Some(cache) = cache else {
        return crate::opt::optimize_with_fingerprint(model);
    };
    let raw = raw();
    if let Some(hit) = cache.replay_optimized(raw, model) {
        return hit;
    }
    let result = crate::opt::optimize(model);
    cache.store_witness(raw, result.witness, result.fingerprint);
    (result.model, result.fingerprint)
}

/// Runs one preparation step as `owner`'s task (in the run's `scope`)
/// with engine tag `engine`, turning a panic into the
/// [`PropertyStatus::Error`] of the properties that depend on the step
/// (tagged with the stage that was running).
fn contained<T>(
    owner: &str,
    engine: &'static str,
    scope: u64,
    step: impl FnOnce() -> T,
) -> Prepared<T> {
    interrupt::set_task_context(owner, Interrupt::none(), scope);
    interrupt::set_current_engine(engine);
    let outcome = catch_unwind(AssertUnwindSafe(step)).map_err(|payload| {
        telemetry::count("robustness.panics_caught", 1);
        PropertyStatus::Error {
            engine: interrupt::current_engine(),
            message: panic_message(payload.as_ref()),
        }
    });
    interrupt::clear_task_context();
    outcome
}

/// Builds one task per property, in annotation order, from the prepared
/// slices.  Content-identical slices share one model allocation (and
/// thereby one explicit-engine memo entry).  With slicing disabled every
/// task points at the full compiled model, preserving the
/// pre-orchestrator cascade behaviour exactly; the optimizer never runs on
/// that path.  Finally every safety task gets its cross-property seed plan
/// (see [`build_seed_plans`]).
fn assemble_tasks(
    compiled: &CompiledTestbench,
    options: &CheckOptions,
    job_of: &[Option<usize>],
    prepared: Vec<Option<Prepared<PreparedSlice>>>,
) -> Vec<PropertyTask> {
    // A slot is empty only if preparation escaped its own containment.
    let prepared: Vec<Prepared<PreparedSlice>> = prepared
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(PropertyStatus::Error {
                    engine: "opt",
                    message: "slice preparation did not complete".to_string(),
                })
            })
        })
        .collect();
    let mut shared_full: Option<(Arc<Model>, Fingerprint)> = None;
    let mut shared_l2s: Option<Arc<LivenessSafetyModel>> = None;
    let mut full = || {
        shared_full
            .get_or_insert_with(|| {
                let model = Arc::new(compiled.model.clone());
                let fp = fingerprint(&model);
                (model, fp)
            })
            .clone()
    };
    let mut tasks: Vec<PropertyTask> = compiled
        .properties
        .iter()
        .zip(job_of)
        .map(|(prop, job)| {
            let slice = job.map(|j| &prepared[j]);
            let kind = match (&prop.kind, slice) {
                (CompiledKind::Skipped(reason), _) => {
                    TaskKind::Done(PropertyStatus::NotChecked(reason))
                }
                (CompiledKind::Constraint, _) => TaskKind::Done(PropertyStatus::NotChecked(
                    "assumption (constrains the environment)",
                )),
                (CompiledKind::Fairness, _) => {
                    TaskKind::Done(PropertyStatus::NotChecked("fairness assumption"))
                }
                (_, Some(Err(status))) => TaskKind::Failed(status.clone()),
                (CompiledKind::Safety(_), Some(Ok(p))) => TaskKind::Safety {
                    model: p.model.clone(),
                    index: 0,
                    fp: p.fp,
                },
                (CompiledKind::Safety(i), None) => {
                    let (model, fp) = full();
                    TaskKind::Safety {
                        model,
                        index: *i,
                        fp,
                    }
                }
                (CompiledKind::Cover(_), Some(Ok(p))) => TaskKind::Cover {
                    model: p.model.clone(),
                    index: 0,
                    fp: p.fp,
                },
                (CompiledKind::Cover(i), None) => {
                    let (model, fp) = full();
                    TaskKind::Cover {
                        model,
                        index: *i,
                        fp,
                    }
                }
                (CompiledKind::Liveness(_), Some(Ok(p))) => {
                    match p.l2s.as_ref().expect("liveness slices carry a product") {
                        Ok(l2s) => TaskKind::Liveness {
                            base: p.model.clone(),
                            l2s: l2s.clone(),
                            index: 0,
                            fp: p.fp,
                        },
                        Err(status) => TaskKind::Failed(status.clone()),
                    }
                }
                (CompiledKind::Liveness(i), None) => {
                    let (base, fp) = full();
                    let l2s = shared_l2s
                        .get_or_insert_with(|| Arc::new(base.to_liveness_safety()))
                        .clone();
                    TaskKind::Liveness {
                        base,
                        l2s,
                        index: *i,
                        fp,
                    }
                }
            };
            let (cone_latches, cone_gates) = match &kind {
                TaskKind::Done(_) | TaskKind::Failed(_) => (0, 0),
                TaskKind::Safety { model, .. } | TaskKind::Cover { model, .. } => {
                    (model.aig.num_latches(), model.aig.num_ands())
                }
                TaskKind::Liveness { base, .. } => (base.aig.num_latches(), base.aig.num_ands()),
            };
            PropertyTask {
                kind,
                cone_latches,
                cone_gates,
                seeds: HashMap::new(),
            }
        })
        .collect();
    let plans = build_seed_plans(&tasks, &options.sharing);
    for (task, seeds) in tasks.iter_mut().zip(plans) {
        task.seeds = seeds;
    }
    tasks
}

/// Builds the deterministic cross-property seed plan: each safety task
/// with a high-overlap *earlier* safety task (annotation order) on a
/// *distinct* slice gets phase/activity hints on the state elements the
/// two cones share, so it starts its race warm instead of cold.  The plan
/// derives purely from slice structure — signal names and latch reset
/// values — never from runtime solver state or completion order, so it
/// (and the `sharing.seeded` counter) is identical for sequential and
/// parallel runs at any thread count.  Identical fingerprints are skipped
/// as donors: those tasks already share a clause pool, which is strictly
/// stronger than seeding.
fn build_seed_plans(
    tasks: &[PropertyTask],
    sharing: &SharingOptions,
) -> Vec<HashMap<usize, SeedHint>> {
    let mut plans = vec![HashMap::new(); tasks.len()];
    if !sharing.enabled() {
        return plans;
    }
    let sigs: Vec<(usize, Fingerprint, &Arc<Model>, Vec<u64>)> = tasks
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match &t.kind {
            TaskKind::Safety { model, fp, .. } => Some((i, *fp, model, state_signature(model))),
            _ => None,
        })
        .collect();
    for (pos, (i, fp, model, sig)) in sigs.iter().enumerate() {
        // Best earlier donor by Jaccard overlap; strict `>` keeps the
        // earliest donor on ties, so the plan is a pure function of the
        // task list.
        let mut best: Option<(f64, usize)> = None;
        for (donor_pos, (_, donor_fp, _, donor_sig)) in sigs[..pos].iter().enumerate() {
            if donor_fp == fp {
                continue;
            }
            let overlap = signature_overlap(sig, donor_sig);
            if overlap >= sharing.seed_overlap && best.is_none_or(|(b, _)| overlap > b) {
                best = Some((overlap, donor_pos));
            }
        }
        if let Some((_, donor_pos)) = best {
            plans[*i] = crate::coi::seed_hints_from(model, &sigs[donor_pos].3);
        }
    }
    plans
}

/// Shared, immutable context of one verification run.
struct TaskCtx<'a> {
    options: &'a CheckOptions,
    /// The effective proof cache of this run (explicit in-process handle or
    /// a disk-backed cache opened from [`CacheOptions::dir`]).
    cache: Option<ProofCache>,
    /// Raised by `stop_on_violation` (or future external cancellation):
    /// tasks not yet started report `Unknown` instead of running; started
    /// tasks observe the flag through their interrupt handle and wind down
    /// at the next poll.  Shared with every task's [`Interrupt`], hence the
    /// `Arc`.
    cancel: Arc<AtomicBool>,
    /// Explicit-state engines shared across tasks with content-identical
    /// models; the per-fingerprint mutex serializes construction without
    /// holding the map lock during exploration.  The memo records only
    /// *completed* explorations: an exploration cut short by one task's
    /// interrupt (or unwound by a panic) is not cached, so it cannot
    /// degrade sibling properties that still have budget.
    #[allow(clippy::type_complexity)]
    explicit_memo: Mutex<HashMap<Fingerprint, Arc<Mutex<ExplicitMemo>>>>,
    /// Learnt-clause pools shared across tasks and racers, keyed by slice
    /// fingerprint and frame kind.  Identical fingerprints imply identical
    /// models and hence identical deterministic variable numbering, which
    /// is what makes verbatim clause transfer sound; distinct cones never
    /// share a pool (they exchange phase/activity *seeds* instead).  Only
    /// consulted when [`CheckOptions::sharing`] is enabled.
    pools: SharedPools,
}

/// Memoization state of one fingerprint's shared explicit-state engine.
#[derive(Default)]
enum ExplicitMemo {
    /// Not explored yet (or a previous attempt was interrupted/panicked
    /// and must not be trusted): the next task with budget explores.
    #[default]
    Pending,
    /// Exploration ran to its natural end (`None`: the engine declined or
    /// exceeded its own limits — a definitive, cacheable answer).
    Done(Option<Arc<ExplicitBundle>>),
}

/// The explicit-state engine together with the monitor literals needed for
/// liveness queries (explored once per distinct model fingerprint).
struct ExplicitBundle {
    engine: ExplicitEngine,
    assert_pendings: Vec<Lit>,
    fair_pendings: Vec<Lit>,
}

/// Returns the shared explicit-engine bundle for `model`, building it on
/// first use.  `None` when the engine is disabled, exploration exceeded its
/// limits, or `interrupt` fired mid-exploration.  Completed explorations
/// (including definitive "declined/exceeded" answers) are memoized so the
/// cost is paid at most once per fingerprint; interrupted ones are not —
/// the truncated state space must never answer a sibling property's query.
fn explicit_bundle(
    ctx: &TaskCtx<'_>,
    fp: Fingerprint,
    model: &Model,
    interrupt: &Interrupt,
) -> Option<Arc<ExplicitBundle>> {
    if ctx.options.disable_explicit {
        return None;
    }
    let cell = {
        let mut memo = ctx
            .explicit_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        memo.entry(fp).or_default().clone()
    };
    // The per-fingerprint lock is held across exploration so concurrent
    // tasks over the same slice wait for one exploration instead of racing
    // their own.  Recover from poisoning: a panic that unwound a previous
    // attempt left the state `Pending` (it is only ever set after a
    // completed exploration), so retrying here is sound.
    let mut state = cell.lock().unwrap_or_else(PoisonError::into_inner);
    if let ExplicitMemo::Done(bundle) = &*state {
        return bundle.clone();
    }
    let (augmented, assert_pendings, fair_pendings) = model.with_pending_monitors();
    let engine = ExplicitEngine::explore_budgeted(&augmented, &ctx.options.explicit, interrupt);
    if engine.as_ref().is_some_and(ExplicitEngine::was_interrupted) {
        // This task ran out of budget mid-exploration; leave the memo
        // `Pending` so a sibling with budget explores from scratch.
        return None;
    }
    let bundle = engine.map(|engine| {
        Arc::new(ExplicitBundle {
            engine,
            assert_pendings,
            fair_pendings,
        })
    });
    *state = ExplicitMemo::Done(bundle.clone());
    bundle
}

/// The "undecided" note for an interrupted property, naming the cascade
/// stage that was running when the interrupt was observed (read from the
/// task-local engine tag, which every stage sets on entry).
fn interrupt_unknown(reason: InterruptReason) -> (PropertyStatus, Option<String>) {
    let engine = interrupt::current_engine();
    let note = match reason {
        InterruptReason::Cancelled => {
            format!("undecided: cancelled during {engine} (the run's cancellation flag was raised)")
        }
        InterruptReason::Timeout | InterruptReason::Budget => {
            format!("undecided: budget exhausted in {engine}")
        }
    };
    (PropertyStatus::Unknown, Some(note))
}

/// Renders a caught panic payload (`String` and `&str` payloads verbatim,
/// anything else as a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Converts a PDR invariant into the report-facing proof artifact.
fn invariant_proof(invariant: &crate::pdr::Invariant, aig: &crate::aig::Aig) -> Proof {
    Proof::Invariant {
        clauses: invariant.render(aig),
        frames: invariant.frames_explored,
    }
}

/// Converts a validated cache hit into a property status.
fn cached_status(verdict: CachedVerdict, model: &Model) -> PropertyStatus {
    match verdict {
        CachedVerdict::Induction { depth } => PropertyStatus::Proven(Proof::Induction { depth }),
        CachedVerdict::Invariant(invariant) => {
            PropertyStatus::Proven(invariant_proof(&invariant, &model.aig))
        }
        CachedVerdict::Reachability => PropertyStatus::Proven(Proof::Reachability),
        CachedVerdict::Unreachable => PropertyStatus::Unreachable,
        CachedVerdict::Violated(trace) => PropertyStatus::Violated(trace),
        CachedVerdict::Covered(trace) => PropertyStatus::Covered(trace),
    }
}

/// The single cache-insert funnel of every task.  A task whose interrupt
/// has fired never publishes: a cancelled portfolio racer, a task wound
/// down by the run's cancellation flag, or a verdict whose trace
/// re-minimization was cut short may all be correct-but-partial, and the
/// cache must only ever carry artifacts produced with full budget (an
/// interrupted minimization, for example, would cache a non-canonical
/// trace and make a later cache-hit run render differently from a fresh
/// one).  The cache is advisory, so skipping the insert costs only a
/// recomputation.
fn store(
    cache: Option<&ProofCache>,
    key: &CacheKey,
    outcome: CachedOutcome,
    interrupt: &Interrupt,
) {
    if interrupt.triggered().is_some() {
        return;
    }
    if let Some(cache) = cache {
        cache.store(key.clone(), outcome);
    }
}

/// The engine-provenance tag of verdicts produced by the pre-cascade
/// stimulus fuzzer.
pub const FUZZ_ENGINE: &str = "fuzz";

/// The stage tag of counterexample minimization (the engine an error row
/// names when the minimizer panics).
const MINIMIZE_ENGINE: &str = "minimize";

/// The outcome of one property task, before assembly into a
/// [`PropertyResult`] (which adds the name/class/slice context and the
/// wall-clock runtime).
struct TaskOutcome {
    status: PropertyStatus,
    note: Option<String>,
    stats: SolverStats,
    engine: Option<&'static str>,
    fuzz: Option<FuzzStats>,
}

impl TaskOutcome {
    fn new(status: PropertyStatus, note: Option<String>, stats: SolverStats) -> TaskOutcome {
        TaskOutcome {
            status,
            note,
            stats,
            engine: None,
            fuzz: None,
        }
    }
}

fn run_task(task: &PropertyTask, ctx: &TaskCtx<'_>, interrupt: &Interrupt) -> TaskOutcome {
    match &task.kind {
        TaskKind::Done(status) => TaskOutcome::new(status.clone(), None, SolverStats::default()),
        TaskKind::Failed(status) => TaskOutcome::new(
            status.clone(),
            Some(PREP_PANIC_NOTE.to_string()),
            SolverStats::default(),
        ),
        TaskKind::Safety { model, index, fp } => {
            check_safety_task(model, *index, *fp, &task.seeds, ctx, interrupt)
        }
        TaskKind::Cover { model, index, fp } => {
            let (status, note, stats) = check_cover_task(model, *index, *fp, ctx, interrupt);
            TaskOutcome::new(status, note, stats)
        }
        TaskKind::Liveness {
            base,
            l2s,
            index,
            fp,
        } => {
            let (status, note, stats) = check_liveness_task(base, l2s, *index, *fp, ctx, interrupt);
            TaskOutcome::new(status, note, stats)
        }
    }
}

/// Canonicalizes a safety counterexample to the minimal depth with the
/// lemma-strengthened walk of [`minimize_counterexample`], so the reported
/// trace length is a function of the model alone and `render()` is
/// byte-identical no matter which engine got there first.  `lemmas` are
/// the frame lemmas of the PDR run that found the trace; for every other
/// witness source (`None`) the walk harvests them with a PDR run capped at
/// the witness depth, or walks without any under `disable_pdr`.  A no-op
/// under `disable_bmc` (the ablation configurations keep each engine's raw
/// trace).  An interrupt mid-minimization keeps the original (unminimized
/// but correct) trace — the verdict is never lost.  A panic in here
/// degrades the property to `ERROR in minimize`.
fn minimize_safety_cex(
    model: &Model,
    index: usize,
    trace: Trace,
    lemmas: Option<&[FrameLemma]>,
    options: &CheckOptions,
    stats: &mut SolverStats,
    interrupt: &Interrupt,
) -> Trace {
    if options.disable_bmc {
        return trace;
    }
    interrupt::set_current_engine(MINIMIZE_ENGINE);
    let _span = telemetry::span_detail(
        "engine.minimize",
        &model.bads[index].name,
        Some(MINIMIZE_ENGINE),
        None,
    );
    let lemmas = match lemmas {
        Some(lemmas) => MinimizeLemmas::Found(lemmas),
        None if options.disable_pdr => MinimizeLemmas::None,
        None => MinimizeLemmas::Harvest(&options.pdr),
    };
    let (minimal, s) =
        minimize_counterexample(model, index, trace, lemmas, options.solver, interrupt);
    *stats += s;
    minimal
}

fn check_safety_task(
    model: &Model,
    index: usize,
    fp: Fingerprint,
    seeds: &HashMap<usize, SeedHint>,
    ctx: &TaskCtx<'_>,
    interrupt: &Interrupt,
) -> TaskOutcome {
    let options = ctx.options;
    let cache = ctx.cache.as_ref();
    let bad = model.bads[index].lit;
    let key = CacheKey {
        fingerprint: fp,
        property: model.bads[index].name.clone(),
    };
    let mut stats = SolverStats::default();
    let mut fuzz_stats: Option<FuzzStats> = None;
    // Every return site funnels through this so the fuzzer's search
    // statistics survive no matter which engine produced the verdict.
    macro_rules! done {
        ($status:expr, $note:expr, $engine:expr) => {
            return TaskOutcome {
                status: $status,
                note: $note,
                stats,
                engine: $engine,
                fuzz: fuzz_stats,
            }
        };
    }
    if let Some(cache) = cache {
        let hit = {
            let _span = telemetry::span_detail("cache.lookup", &key.property, None, Some(fp));
            cache.lookup(&key, model, bad)
        };
        if let Some(verdict) = hit {
            done!(cached_status(verdict, model), None, None);
        }
    }
    // The simulation fuzzer runs before any SAT query: concrete 64-lane
    // stimulus over the slice, with every hit replay-confirmed.  The SAT
    // engines only ever see the survivors.  A confirmed hit is re-minimized
    // (see `minimize_safety_cex`) so the reported trace has the same
    // minimal length the fuzz-off cascade reports and `render()` stays
    // byte-identical with the stage on or off, for any seed.
    if options.fuzz.enabled {
        interrupt::set_current_engine(FUZZ_ENGINE);
        let (hit, fstats) = {
            let _span =
                telemetry::span_detail("engine.fuzz", &key.property, Some(FUZZ_ENGINE), Some(fp));
            fuzz_safety_budgeted(model, index, &options.fuzz, interrupt)
        };
        fuzz_stats = Some(fstats);
        if let Some(hit) = hit {
            let trace = minimize_safety_cex(
                model, index, hit.trace, None, options, &mut stats, interrupt,
            );
            store(
                cache,
                &key,
                CachedOutcome::Violated(trace.clone()),
                interrupt,
            );
            done!(PropertyStatus::Violated(trace), None, Some(FUZZ_ENGINE));
        }
        if let Some(reason) = interrupt.triggered() {
            let (status, note) = interrupt_unknown(reason);
            done!(status, note, None);
        }
    }
    // Quick, shallow BMC first: it produces the shortest traces for the
    // common "bug within a few cycles" case at minimal cost.
    if !options.disable_bmc {
        interrupt::set_current_engine("bmc");
        let quick = BmcOptions {
            max_depth: options.quick_bmc_depth.min(options.bmc.max_depth),
            max_induction: 3.min(options.bmc.max_induction),
        };
        let (result, s) = {
            let _span = telemetry::span_detail("engine.bmc", &key.property, Some("bmc"), Some(fp));
            check_safety_budgeted(model, index, &quick, options.solver, interrupt)
        };
        stats += s;
        match result {
            SafetyResult::Proven { induction_depth } => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Induction {
                        depth: induction_depth,
                    },
                    interrupt,
                );
                done!(
                    PropertyStatus::Proven(Proof::Induction {
                        depth: induction_depth,
                    }),
                    None,
                    None
                );
            }
            SafetyResult::Violated(trace) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Violated(trace.clone()),
                    interrupt,
                );
                done!(PropertyStatus::Violated(trace), None, None);
            }
            SafetyResult::Interrupted => {
                let (status, note) =
                    interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
                done!(status, note, None);
            }
            SafetyResult::Unknown { .. } => {}
        }
    }
    // PDR: the unbounded engine that closes the reachability-dependent
    // proofs (counter-vs-state invariants) induction cannot, without the
    // explicit engine's exponential cliff.  Its frame clauses — facts
    // about states reachable within k steps — are harvested as lemmas:
    // the counterexample minimizer asserts them when PDR finds a trace,
    // and the full-depth BMC race below when PDR is inconclusive.
    let mut lemmas: Vec<FrameLemma> = Vec::new();
    if !options.disable_pdr {
        interrupt::set_current_engine("pdr");
        let (result, s, frame_lemmas) = {
            let _span = telemetry::span_detail("engine.pdr", &key.property, Some("pdr"), Some(fp));
            check_pdr_budgeted_lemmas(model, bad, &options.pdr, options.solver, interrupt)
        };
        lemmas = frame_lemmas;
        stats += s;
        match result {
            PdrResult::Proven(invariant) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Invariant {
                        clauses: invariant.clauses().to_vec(),
                        frames: invariant.frames_explored,
                    },
                    interrupt,
                );
                done!(
                    PropertyStatus::Proven(invariant_proof(&invariant, &model.aig)),
                    None,
                    None
                );
            }
            PdrResult::Violated(trace) => {
                let trace = minimize_safety_cex(
                    model,
                    index,
                    trace,
                    Some(&lemmas),
                    options,
                    &mut stats,
                    interrupt,
                );
                store(
                    cache,
                    &key,
                    CachedOutcome::Violated(trace.clone()),
                    interrupt,
                );
                done!(PropertyStatus::Violated(trace), None, None);
            }
            PdrResult::Interrupted => {
                let (status, note) =
                    interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
                done!(status, note, None);
            }
            PdrResult::Unknown { .. } => {}
        }
    }
    interrupt::set_current_engine("explicit");
    if let Some(bundle) = explicit_bundle(ctx, fp, model, interrupt) {
        let _span =
            telemetry::span_detail("engine.explicit", &key.property, Some("explicit"), Some(fp));
        match bundle.engine.check_bad(bad) {
            ExplicitResult::Proven => {
                store(cache, &key, CachedOutcome::Reachability, interrupt);
                done!(PropertyStatus::Proven(Proof::Reachability), None, None);
            }
            ExplicitResult::Violated(trace) => {
                let trace =
                    minimize_safety_cex(model, index, trace, None, options, &mut stats, interrupt);
                store(
                    cache,
                    &key,
                    CachedOutcome::Violated(trace.clone()),
                    interrupt,
                );
                done!(PropertyStatus::Violated(trace), None, None);
            }
            ExplicitResult::Exceeded => {}
        }
    }
    if let Some(reason) = interrupt.poll() {
        let (status, note) = interrupt_unknown(reason);
        done!(status, note, None);
    }
    if options.disable_bmc {
        done!(PropertyStatus::Unknown, None, None);
    }
    // Exact engines unavailable: fall back to the full-depth bounded
    // engines.  This is where the hard properties land, so when the
    // clause-sharing portfolio is enabled (the default) the stage races
    // diverse solver configurations in deterministic lockstep — learnt
    // clauses flow through the fingerprint-keyed shared pools, PDR's
    // harvested lemmas prune the unrolling, and the cross-property seed
    // plan warms the search.  None of it can change the verdict: pools
    // only carry implied clauses, lemmas are reachability facts, and
    // seeds steer heuristics only.
    interrupt::set_current_engine("bmc");
    let sharing = &options.sharing;
    let (result, s, raced) = {
        let _span = telemetry::span_detail("engine.bmc", &key.property, Some("bmc"), Some(fp));
        if sharing.enabled() {
            let race = RaceOptions {
                configs: racer_configs(options.solver, sharing.racers),
                quantum: sharing.quantum,
                glue_bound: sharing.glue_bound,
                lemmas,
                seeds: seeds.clone(),
                pools: Some((
                    ctx.pools.pool(fp, PoolKind::Bmc, sharing.glue_bound),
                    ctx.pools.pool(fp, PoolKind::Step, sharing.glue_bound),
                )),
            };
            let (result, s, traffic) =
                race_safety_budgeted(model, index, &options.bmc, &race, interrupt);
            if traffic.exported > 0 {
                telemetry::count("sharing.exported", traffic.exported);
            }
            if traffic.imported > 0 {
                telemetry::count("sharing.imported", traffic.imported);
            }
            if traffic.filtered > 0 {
                telemetry::count("sharing.filtered", traffic.filtered);
            }
            if !seeds.is_empty() {
                telemetry::count("sharing.seeded", seeds.len() as u64);
            }
            (result, s, true)
        } else {
            let (result, s) =
                check_safety_budgeted(model, index, &options.bmc, options.solver, interrupt);
            (result, s, false)
        }
    };
    stats += s;
    let (status, note) = match result {
        SafetyResult::Proven { induction_depth } => {
            store(
                cache,
                &key,
                CachedOutcome::Induction {
                    depth: induction_depth,
                },
                interrupt,
            );
            (
                PropertyStatus::Proven(Proof::Induction {
                    depth: induction_depth,
                }),
                None,
            )
        }
        SafetyResult::Violated(trace) => {
            // A racer's trace depends on which configuration won the
            // race; re-minimize to the canonical single-solver trace so
            // `render()` is byte-identical with sharing on or off.
            let trace = if raced {
                minimize_safety_cex(model, index, trace, None, options, &mut stats, interrupt)
            } else {
                trace
            };
            store(
                cache,
                &key,
                CachedOutcome::Violated(trace.clone()),
                interrupt,
            );
            (PropertyStatus::Violated(trace), None)
        }
        SafetyResult::Interrupted => {
            interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout))
        }
        SafetyResult::Unknown { .. } => (PropertyStatus::Unknown, None),
    };
    TaskOutcome {
        status,
        note,
        stats,
        engine: None,
        fuzz: fuzz_stats,
    }
}

fn check_cover_task(
    model: &Model,
    index: usize,
    fp: Fingerprint,
    ctx: &TaskCtx<'_>,
    interrupt: &Interrupt,
) -> (PropertyStatus, Option<String>, SolverStats) {
    let options = ctx.options;
    let cache = ctx.cache.as_ref();
    let target = model.covers[index].lit;
    let key = CacheKey {
        fingerprint: fp,
        property: model.covers[index].name.clone(),
    };
    let mut stats = SolverStats::default();
    if let Some(cache) = cache {
        let hit = {
            let _span = telemetry::span_detail("cache.lookup", &key.property, None, Some(fp));
            cache.lookup(&key, model, target)
        };
        if let Some(verdict) = hit {
            return (cached_status(verdict, model), None, stats);
        }
    }
    if !options.disable_bmc {
        interrupt::set_current_engine("bmc");
        let quick = BmcOptions {
            max_depth: options.quick_bmc_depth.min(options.bmc.max_depth),
            max_induction: 3.min(options.bmc.max_induction),
        };
        let (result, s) = {
            let _span = telemetry::span_detail("engine.bmc", &key.property, Some("bmc"), Some(fp));
            check_cover_budgeted(model, index, &quick, options.solver, interrupt)
        };
        stats += s;
        match result {
            CoverResult::Covered(trace) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Covered(trace.clone()),
                    interrupt,
                );
                return (PropertyStatus::Covered(trace), None, stats);
            }
            CoverResult::Unreachable => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Unreachable { certificate: None },
                    interrupt,
                );
                return (PropertyStatus::Unreachable, None, stats);
            }
            CoverResult::Interrupted => {
                let (status, note) =
                    interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
                return (status, note, stats);
            }
            CoverResult::Unknown { .. } => {}
        }
    }
    // PDR decides reachability of the cover target: a "proof" means the
    // target is unreachable, a "counterexample" is the witness.
    if !options.disable_pdr {
        interrupt::set_current_engine("pdr");
        let (result, s) = {
            let _span = telemetry::span_detail("engine.pdr", &key.property, Some("pdr"), Some(fp));
            check_pdr_budgeted(model, target, &options.pdr, options.solver, interrupt)
        };
        stats += s;
        match result {
            PdrResult::Proven(invariant) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Unreachable {
                        certificate: Some((
                            invariant.clauses().to_vec(),
                            invariant.frames_explored,
                        )),
                    },
                    interrupt,
                );
                return (PropertyStatus::Unreachable, None, stats);
            }
            PdrResult::Violated(trace) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Covered(trace.clone()),
                    interrupt,
                );
                return (PropertyStatus::Covered(trace), None, stats);
            }
            PdrResult::Interrupted => {
                let (status, note) =
                    interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
                return (status, note, stats);
            }
            PdrResult::Unknown { .. } => {}
        }
    }
    interrupt::set_current_engine("explicit");
    if let Some(bundle) = explicit_bundle(ctx, fp, model, interrupt) {
        let _span =
            telemetry::span_detail("engine.explicit", &key.property, Some("explicit"), Some(fp));
        match bundle.engine.check_cover(target) {
            ExplicitResult::Proven => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Unreachable { certificate: None },
                    interrupt,
                );
                return (PropertyStatus::Unreachable, None, stats);
            }
            ExplicitResult::Violated(trace) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Covered(trace.clone()),
                    interrupt,
                );
                return (PropertyStatus::Covered(trace), None, stats);
            }
            ExplicitResult::Exceeded => {}
        }
    }
    if let Some(reason) = interrupt.poll() {
        let (status, note) = interrupt_unknown(reason);
        return (status, note, stats);
    }
    if options.disable_bmc {
        return (PropertyStatus::Unknown, None, stats);
    }
    interrupt::set_current_engine("bmc");
    let (result, s) = {
        let _span = telemetry::span_detail("engine.bmc", &key.property, Some("bmc"), Some(fp));
        check_cover_budgeted(model, index, &options.bmc, options.solver, interrupt)
    };
    stats += s;
    match result {
        CoverResult::Covered(trace) => {
            store(
                cache,
                &key,
                CachedOutcome::Covered(trace.clone()),
                interrupt,
            );
            (PropertyStatus::Covered(trace), None, stats)
        }
        CoverResult::Unreachable => {
            store(
                cache,
                &key,
                CachedOutcome::Unreachable { certificate: None },
                interrupt,
            );
            (PropertyStatus::Unreachable, None, stats)
        }
        CoverResult::Interrupted => {
            let (status, note) =
                interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
            (status, note, stats)
        }
        CoverResult::Unknown { .. } => (PropertyStatus::Unknown, None, stats),
    }
}

fn check_liveness_task(
    base: &Model,
    l2s: &LivenessSafetyModel,
    index: usize,
    fp: Fingerprint,
    ctx: &TaskCtx<'_>,
    interrupt: &Interrupt,
) -> (PropertyStatus, Option<String>, SolverStats) {
    let options = ctx.options;
    let cache = ctx.cache.as_ref();
    let model = &l2s.model;
    let bad = model.bads[index].lit;
    let key = CacheKey {
        fingerprint: fp,
        property: model.bads[index].name.clone(),
    };
    let mut stats = SolverStats::default();
    if let Some(cache) = cache {
        let hit = {
            let _span = telemetry::span_detail("cache.lookup", &key.property, None, Some(fp));
            cache.lookup(&key, model, bad)
        };
        if let Some(verdict) = hit {
            return (cached_status(verdict, model), None, stats);
        }
    }
    // The index into the base model's liveness vector equals the index into
    // the transformed model's bad vector.  BMC on the transformed model
    // finds short counterexample lassos; proofs fall through to PDR and
    // then to the exact engine.
    if !options.disable_bmc {
        interrupt::set_current_engine("bmc");
        let quick = BmcOptions {
            max_depth: options.quick_bmc_depth.min(options.liveness_bmc.max_depth),
            max_induction: options.liveness_bmc.max_induction.min(3),
        };
        let (result, s) = {
            let _span = telemetry::span_detail("engine.bmc", &key.property, Some("bmc"), Some(fp));
            check_safety_budgeted(model, index, &quick, options.solver, interrupt)
        };
        stats += s;
        match result {
            SafetyResult::Proven { induction_depth } => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Induction {
                        depth: induction_depth,
                    },
                    interrupt,
                );
                return (
                    PropertyStatus::Proven(Proof::Induction {
                        depth: induction_depth,
                    }),
                    None,
                    stats,
                );
            }
            SafetyResult::Violated(trace) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Violated(trace.clone()),
                    interrupt,
                );
                return (PropertyStatus::Violated(trace), None, stats);
            }
            SafetyResult::Interrupted => {
                let (status, note) =
                    interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
                return (status, note, stats);
            }
            SafetyResult::Unknown { .. } => {}
        }
    }
    if !options.disable_pdr {
        interrupt::set_current_engine("pdr");
        let (result, s) = {
            let _span = telemetry::span_detail("engine.pdr", &key.property, Some("pdr"), Some(fp));
            check_pdr_budgeted(model, bad, &options.pdr, options.solver, interrupt)
        };
        stats += s;
        match result {
            PdrResult::Proven(invariant) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Invariant {
                        clauses: invariant.clauses().to_vec(),
                        frames: invariant.frames_explored,
                    },
                    interrupt,
                );
                return (
                    PropertyStatus::Proven(invariant_proof(&invariant, &model.aig)),
                    None,
                    stats,
                );
            }
            PdrResult::Violated(trace) => {
                store(
                    cache,
                    &key,
                    CachedOutcome::Violated(trace.clone()),
                    interrupt,
                );
                return (PropertyStatus::Violated(trace), None, stats);
            }
            PdrResult::Interrupted => {
                let (status, note) =
                    interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
                return (status, note, stats);
            }
            PdrResult::Unknown { .. } => {}
        }
    }
    interrupt::set_current_engine("explicit");
    if let Some(bundle) = explicit_bundle(ctx, fp, base, interrupt) {
        let _span =
            telemetry::span_detail("engine.explicit", &key.property, Some("explicit"), Some(fp));
        let pending = bundle.assert_pendings[index];
        match bundle.engine.check_liveness(pending, &bundle.fair_pendings) {
            ExplicitResult::Proven => {
                store(cache, &key, CachedOutcome::Reachability, interrupt);
                return (PropertyStatus::Proven(Proof::Reachability), None, stats);
            }
            // The explicit lasso lives on the monitor-augmented base model,
            // not the L2S transform, so it is not cached (replay validation
            // runs on the transform).
            ExplicitResult::Violated(trace) => {
                return (PropertyStatus::Violated(trace), None, stats)
            }
            ExplicitResult::Exceeded => {}
        }
    }
    if let Some(reason) = interrupt.poll() {
        let (status, note) = interrupt_unknown(reason);
        return (status, note, stats);
    }
    if options.disable_bmc {
        return (PropertyStatus::Unknown, None, stats);
    }
    interrupt::set_current_engine("bmc");
    let (result, s) = {
        let _span = telemetry::span_detail("engine.bmc", &key.property, Some("bmc"), Some(fp));
        check_safety_budgeted(
            model,
            index,
            &options.liveness_bmc,
            options.solver,
            interrupt,
        )
    };
    stats += s;
    match result {
        SafetyResult::Proven { induction_depth } => {
            store(
                cache,
                &key,
                CachedOutcome::Induction {
                    depth: induction_depth,
                },
                interrupt,
            );
            (
                PropertyStatus::Proven(Proof::Induction {
                    depth: induction_depth,
                }),
                None,
                stats,
            )
        }
        SafetyResult::Violated(trace) => {
            store(
                cache,
                &key,
                CachedOutcome::Violated(trace.clone()),
                interrupt,
            );
            (PropertyStatus::Violated(trace), None, stats)
        }
        SafetyResult::Interrupted => {
            let (status, note) =
                interrupt_unknown(interrupt.triggered().unwrap_or(InterruptReason::Timeout));
            (status, note, stats)
        }
        SafetyResult::Unknown { .. } => (
            PropertyStatus::Unknown,
            Some(format!(
                "bounded lasso search: counterexamples need stem+loop within {} cycles \
                 (CheckOptions::liveness_bmc.max_depth); starvation scenarios with longer \
                 stems would be missed",
                options.liveness_bmc.max_depth
            )),
            stats,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosva::{generate_ft, AutosvaOptions};

    /// A well-behaved single-outstanding-request echo module: every accepted
    /// request is answered on the next cycle with the same ID.
    const ECHO_GOOD: &str = r#"
/*AUTOSVA
echo_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module echo (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  input  logic [1:0] req_id,
  output logic res_val,
  output logic [1:0] res_id
);
  logic busy_q;
  logic [1:0] id_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      id_q <= 2'b0;
    end else begin
      if (req_val && req_ack) begin
        busy_q <= 1'b1;
        id_q <= req_id;
      end else if (busy_q) begin
        busy_q <= 1'b0;
      end
    end
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q;
  assign res_id = id_q;
endmodule
"#;

    /// A buggy variant: the response drops the transaction when a new request
    /// arrives in the same cycle the response is produced (the ID is
    /// overwritten and the original request never completes), and requests
    /// are accepted while busy.
    const ECHO_BAD: &str = r#"
/*AUTOSVA
echo_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module echo (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  input  logic [1:0] req_id,
  output logic res_val,
  output logic [1:0] res_id
);
  logic busy_q;
  logic [1:0] id_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      id_q <= 2'b0;
    end else begin
      if (req_val) begin
        busy_q <= 1'b1;
        id_q <= req_id;
      end else if (busy_q) begin
        busy_q <= 1'b0;
      end
    end
  end
  assign req_ack = 1'b1;
  assign res_val = busy_q && !req_val;
  assign res_id = id_q;
endmodule
"#;

    /// A single-outstanding echo that answers only after a 7-cycle wait
    /// counter drains.  The `had_a_request` monitor proof needs reachability
    /// information ("the wait counter is only non-zero while busy"), which
    /// defeats the shallow quick-BMC induction and exercises the PDR stage.
    const ECHO_SLOW: &str = r#"
/*AUTOSVA
slow_txn: req -in> res
req_val = req_val
req_ack = req_ack
res_val = res_val
*/
module echo_slow (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  output logic res_val
);
  logic       busy_q;
  logic [2:0] wait_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      wait_q <= 3'd0;
    end else begin
      if (req_val && req_ack) begin
        busy_q <= 1'b1;
        wait_q <= 3'd7;
      end else if (busy_q) begin
        if (wait_q != 3'd0) begin
          wait_q <= wait_q - 3'd1;
        end else begin
          busy_q <= 1'b0;
        end
      end
    end
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q && wait_q == 3'd0;
endmodule
"#;

    fn run(src: &str) -> VerificationReport {
        let ft = generate_ft(src, &AutosvaOptions::default()).unwrap();
        verify(src, &ft, &CheckOptions::default()).unwrap()
    }

    #[test]
    fn good_echo_module_proves_every_assertion() {
        let report = run(ECHO_GOOD);
        assert_eq!(
            report.violations(),
            0,
            "unexpected violations:\n{}",
            report.render()
        );
        assert!(
            (report.proof_rate() - 1.0).abs() < f64::EPSILON,
            "proof rate below 100%:\n{}",
            report.render()
        );
        // The cover property must be reachable (the FT is not vacuous).
        assert!(report
            .results
            .iter()
            .any(|r| matches!(r.status, PropertyStatus::Covered(_))));
    }

    #[test]
    fn buggy_echo_module_yields_counterexamples() {
        let report = run(ECHO_BAD);
        assert!(
            report.violations() > 0,
            "expected counterexamples:\n{}",
            report.render()
        );
        let first = report.first_violation().unwrap();
        let trace = first.status.trace().unwrap();
        assert!(
            trace.len() <= 12,
            "trace unexpectedly long: {}",
            trace.len()
        );
    }

    #[test]
    fn report_rendering_mentions_every_property() {
        let report = run(ECHO_GOOD);
        let text = report.render();
        for r in &report.results {
            assert!(text.contains(&r.name));
        }
        assert!(text.contains("proof rate"));
    }

    #[test]
    fn cascade_runs_pdr_before_the_explicit_fallback() {
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();

        // The slice optimizer discharges this counter-vs-state proof
        // structurally (sequential sweeping merges the monitor latch), so
        // keep it off: this test pins the *cascade staging*, and needs the
        // proof to stay reachability-dependent.
        let mut options = CheckOptions::default();
        options.parallel.opt = false;

        // Default cascade: the reachability-dependent safety proof must be
        // closed by the PDR stage (an inductive-invariant certificate), not
        // by the explicit engine sitting behind it.
        let report = verify(ECHO_SLOW, &ft, &options).unwrap();
        let had = report
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert!(
            matches!(had.status.proof(), Some(Proof::Invariant { .. })),
            "expected a PDR invariant proof, got {:?}",
            had.status
        );
        assert_eq!(report.violations(), 0, "{}", report.render());

        // With PDR disabled the same property falls through to the explicit
        // engine — proving the stage really sits in front of it.
        let mut no_pdr = CheckOptions::default();
        no_pdr.parallel.opt = false;
        no_pdr.disable_pdr = true;
        let report = verify(ECHO_SLOW, &ft, &no_pdr).unwrap();
        let had = report
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert!(
            matches!(had.status.proof(), Some(Proof::Reachability)),
            "expected an explicit-reachability proof, got {:?}",
            had.status
        );
    }

    #[test]
    fn sequential_and_parallel_runs_render_identically() {
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let mut sequential = CheckOptions::default();
        sequential.parallel.threads = 1;
        let mut parallel = CheckOptions::default();
        parallel.parallel.threads = 4;
        let seq = verify(ECHO_SLOW, &ft, &sequential).unwrap();
        let par = verify(ECHO_SLOW, &ft, &parallel).unwrap();
        assert_eq!(seq.render(), par.render());
        // The timed rendering carries the same rows plus runtimes.
        assert!(seq.render_timed().contains("proof rate"));
    }

    #[test]
    fn slicing_off_matches_slicing_on() {
        let ft = generate_ft(ECHO_GOOD, &AutosvaOptions::default()).unwrap();
        let mut unsliced = CheckOptions::default();
        unsliced.parallel.slice = false;
        let sliced = verify(ECHO_GOOD, &ft, &CheckOptions::default()).unwrap();
        let full = verify(ECHO_GOOD, &ft, &unsliced).unwrap();
        // Same verdicts; the unsliced run reports the full model as every
        // property's cone.
        for (a, b) in sliced.results.iter().zip(&full.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                format!("{}", a.status),
                format!("{}", b.status),
                "{}: sliced and unsliced verdicts diverge",
                a.name
            );
            assert!(a.slice_latches <= b.slice_latches);
        }
        assert!(full
            .checked()
            .all(|r| r.slice_latches == full.model_latches));
    }

    #[test]
    fn proof_cache_reuses_verdicts_across_runs() {
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let cache = crate::portfolio::ProofCache::new();
        let mut options = CheckOptions::default();
        options.parallel.cache = Some(cache.clone());

        let cold = verify(ECHO_SLOW, &ft, &options).unwrap();
        let cold_stats = cache.stats();
        assert!(
            cold_stats.insertions > 0,
            "cold run must populate the cache"
        );
        assert_eq!(cold_stats.hits, 0);

        let warm = verify(ECHO_SLOW, &ft, &options).unwrap();
        let warm_stats = cache.stats();
        assert!(
            warm_stats.hits >= cold_stats.insertions,
            "warm run must answer from the cache: {warm_stats:?}"
        );
        assert_eq!(warm_stats.rejected, 0, "no entry may fail re-validation");
        assert_eq!(
            cold.render(),
            warm.render(),
            "cache hits must not change the report"
        );
    }

    #[test]
    fn cache_dir_persists_verdicts_across_fresh_caches() {
        // CacheOptions::dir must make verdicts survive into a later run
        // that opens its own cache from the same directory (the fresh-
        // process CLI/CI pattern).
        let dir =
            std::env::temp_dir().join(format!("autosva-checker-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let mut options = CheckOptions::default();
        options.cache.dir = Some(dir.clone());

        let cold = verify(ECHO_SLOW, &ft, &options).unwrap();
        assert!(
            dir.join("proofs.cache").exists(),
            "the run must spill the cache to disk"
        );
        assert!(
            cold.results
                .iter()
                .any(|r| r.stats != crate::sat::SolverStats::default()),
            "the cold run must do solver work"
        );

        // Each verify call opens a fresh ProofCache from the directory, so
        // this exercises the disk load path, not the in-memory store.
        let warm = verify(ECHO_SLOW, &ft, &options).unwrap();
        assert_eq!(
            cold.render(),
            warm.render(),
            "disk-warm verdicts must match the cold run byte-for-byte"
        );
        assert!(
            warm.checked()
                .all(|r| r.stats == crate::sat::SolverStats::default()),
            "the disk-warm run must answer every checked property from the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solver_stats_surface_in_the_timed_rendering_only() {
        // Optimizer off: the sweep makes this proof trivially inductive,
        // and the test needs real PDR solver work to show up in the stats.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let mut options = CheckOptions::default();
        options.parallel.opt = false;
        let report = verify(ECHO_SLOW, &ft, &options).unwrap();
        let had = report
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert!(
            had.stats.conflicts > 0 && had.stats.propagations > 0,
            "a PDR-closed proof must report solver work: {:?}",
            had.stats
        );
        assert!(report.render_timed().contains("solver:"));
        assert!(
            !report.render().contains("solver:"),
            "render() must stay stats-free (byte-stable across cache states)"
        );
    }

    #[test]
    fn solver_feature_ablation_agrees_on_verdicts() {
        // The checker with every solver feature off must reach the same
        // report as the default full-featured configuration.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let full = verify(ECHO_SLOW, &ft, &CheckOptions::default()).unwrap();
        let stripped = CheckOptions {
            solver: crate::sat::SolverConfig::baseline(),
            ..CheckOptions::default()
        };
        let baseline = verify(ECHO_SLOW, &ft, &stripped).unwrap();
        assert_eq!(full.render(), baseline.render());
    }

    #[test]
    fn undecided_liveness_reports_the_lasso_bound_caveat() {
        // With PDR and the explicit engine disabled and induction off, the
        // (true) eventual-response obligation of the slow echo cannot be
        // decided within the lasso bound — the report must say so.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let options = CheckOptions {
            disable_pdr: true,
            disable_explicit: true,
            liveness_bmc: BmcOptions {
                max_depth: 2,
                max_induction: 0,
            },
            ..CheckOptions::default()
        };
        let report = verify(ECHO_SLOW, &ft, &options).unwrap();
        let undecided = report
            .results
            .iter()
            .find(|r| {
                r.class == PropertyClass::Liveness && matches!(r.status, PropertyStatus::Unknown)
            })
            .expect("an undecided liveness property");
        let note = undecided.note.as_ref().expect("caveat note attached");
        assert!(
            note.contains("lasso"),
            "note must explain the bound: {note}"
        );
        assert!(
            note.contains("2"),
            "note must state the configured bound: {note}"
        );
        assert!(report.render().contains("note:"));
    }

    #[test]
    fn proven_properties_render_their_proof_artifact() {
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let report = verify(ECHO_SLOW, &ft, &CheckOptions::default()).unwrap();
        let text = report.render();
        assert!(
            text.contains("PDR invariant"),
            "render must say why properties hold:\n{text}"
        );
        assert!(
            text.contains("k-induction") || text.contains("PDR"),
            "{text}"
        );
    }
}
