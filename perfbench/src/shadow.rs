//! The traced per-layer measurement (`--trace 1`).
//!
//! For every run the benchmark calls each layer's public entry point itself,
//! in the checker's stage order — parse, testbench generation, elaboration,
//! compilation, lint, then per property the cone-of-influence slice, the
//! optimizer, the liveness-to-safety product, the fuzzer (with the
//! counterexample re-minimization), quick BMC, PDR, the explicit engine and
//! the full-depth BMC race — and stops each property at its first conclusive
//! answer.  Every call is recorded as a span (name, start, end, parent, run
//! id); per-layer *self* times, call counts and useful/attempt ratios are
//! derived from the spans.  The program's own telemetry is not read: its
//! phase totals are inclusive.
//!
//! This "shadow cascade" mirrors `checker.rs` without changing it:
//!
//! * the proof cache is mirrored by a verdict memo holding exactly the
//!   verdict kinds that cross the on-disk spill file (`ProofCache::store`
//!   and `lookup` are crate-private), so the shadow skips the engines
//!   wherever the checker hits its cache;
//! * the agreement check compares every property's verdict class, and every
//!   run's cache-hit count, with the untraced `verify` of the same run, so
//!   the per-layer table cannot drift silently from the checker.
//!
//! Each traced run also verifies the input untraced twice: at every core
//! (agreement, `portfolio.busy_ratio`) and at one thread, whose wall time
//! minus the summed layer self times is `checker.unattributed_ms` — on the
//! warm workload that is mostly cache lookup and hit validation.

use crate::expect::Class;
use crate::measure::{reset_dir, Checks};
use crate::workload::{inputs, inputs_hash, threads, RunInput, Workload};
use crate::{Metric, Outcome};
use autosva_formal::bmc::{
    check_cover_budgeted, check_safety_budgeted, race_safety_budgeted, BmcOptions, CoverResult,
    RaceOptions, SafetyResult,
};
use autosva_formal::checker::{CheckOptions, VerificationReport};
use autosva_formal::coi::{
    cone_of_influence, seed_hints_from, signature_overlap, state_signature, Fingerprint,
    SliceTarget,
};
use autosva_formal::compile::{compile, CompiledKind};
use autosva_formal::elab::elaborate;
use autosva_formal::explicit::{ExplicitEngine, ExplicitResult};
use autosva_formal::fuzz::fuzz_safety_budgeted;
use autosva_formal::interrupt::Interrupt;
use autosva_formal::model::{LivenessSafetyModel, Model};
use autosva_formal::opt::{optimize, optimize_with_fingerprint};
use autosva_formal::pdr::{check_pdr_budgeted, check_pdr_budgeted_lemmas, PdrResult};
use autosva_formal::portfolio::{racer_configs, PoolKind, ProofCache, SharedPools};
use autosva_formal::sat::SolverStats;
use autosva_formal::trace::Trace;
use autosva_formal::unroll::SeedHint;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    run: usize,
}

/// In-memory span recorder (written out once, at the end).
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Records `f` as one call of layer `name`.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Self time (duration minus the children's durations) summed by span
    /// name.
    fn self_times(&self) -> HashMap<&'static str, Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut out: HashMap<&'static str, Duration> = HashMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// One JSON object per line: `run`, `name`, `parent` (span index or
    /// null), `start_us`, `end_us`.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.run,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        out
    }
}

/// Work counters of the shadow cascade, summed over every traced run.
#[derive(Debug, Default)]
struct Counters {
    slices: u64,
    unique_slices: u64,
    opt_gates_in: u64,
    opt_gates_out: u64,
    fuzz_calls: u64,
    fuzz_hits: u64,
    quick_calls: u64,
    quick_decided: u64,
    minimize_calls: u64,
    minimize_shortened: u64,
    pdr_calls: u64,
    pdr_decided: u64,
    explicit_calls: u64,
    race_calls: u64,
    full_calls: u64,
    sat: SolverStats,
}

/// Key of a cached verdict (slice fingerprint, property name), as in the
/// checker's proof cache.
type MemoKey = (Fingerprint, String);

/// Mirror of the on-disk proof cache: verdict classes by key, holding only
/// the kinds the spill file carries (induction and PDR proofs, certified
/// unreachability, counterexamples, cover witnesses).
#[derive(Debug, Default)]
struct VerdictMemo {
    entries: HashMap<MemoKey, Class>,
    /// A verdict was stored during the current run (the checker then
    /// flushes a dirty cache).
    dirty: bool,
    /// Hits during the current run.
    hits: u64,
}

impl VerdictMemo {
    fn lookup(&mut self, key: &MemoKey) -> Option<Class> {
        let hit = self.entries.get(key).copied();
        self.hits += u64::from(hit.is_some());
        hit
    }

    /// Records a verdict; `spills` says whether the checker's spill file
    /// would carry it.  Like the checker, nothing is stored once the
    /// property's interrupt has fired.
    fn store(&mut self, key: MemoKey, class: Class, spills: bool, interrupt: &Interrupt) {
        if interrupt.triggered().is_some() {
            return;
        }
        self.dirty = true;
        if spills {
            self.entries.insert(key, class);
        }
    }
}

/// Explicit-state engine shared by properties with one slice fingerprint.
struct ExplicitBundle {
    engine: ExplicitEngine,
    assert_pendings: Vec<autosva_formal::aig::Lit>,
    fair_pendings: Vec<autosva_formal::aig::Lit>,
}

enum Task {
    Done(Class),
    Safety {
        model: Rc<Model>,
        fp: Fingerprint,
    },
    Cover {
        model: Rc<Model>,
        fp: Fingerprint,
    },
    Liveness {
        base: Rc<Model>,
        l2s: Rc<LivenessSafetyModel>,
        fp: Fingerprint,
    },
}

/// Per-run state of the shadow cascade.
struct Cascade<'a> {
    options: &'a CheckOptions,
    tr: &'a mut Tracer,
    c: &'a mut Counters,
    memo: &'a mut VerdictMemo,
    pools: SharedPools,
    explicit: HashMap<Fingerprint, Option<Rc<ExplicitBundle>>>,
}

/// What one shadow run concluded.
struct ShadowRun {
    classes: Vec<(String, Class)>,
    memo_hits: u64,
}

fn task_interrupt(options: &CheckOptions) -> Interrupt {
    let deadline = options
        .parallel
        .property_timeout
        .and_then(|limit| Instant::now().checked_add(limit));
    Interrupt::new(deadline, None, None)
}

fn quick_bounds(options: &CheckOptions, bounds: &BmcOptions) -> BmcOptions {
    BmcOptions {
        max_depth: options.quick_bmc_depth.min(bounds.max_depth),
        max_induction: 3.min(bounds.max_induction),
    }
}

impl Cascade<'_> {
    /// Re-minimizes a counterexample with BMC bounded one cycle below it.
    fn minimize(&mut self, model: &Model, trace: Trace, interrupt: &Interrupt) -> Trace {
        if self.options.disable_bmc || trace.is_empty() {
            return trace;
        }
        let bound = BmcOptions {
            max_depth: trace.len() - 1,
            max_induction: 0,
        };
        let solver = self.options.solver;
        let (result, stats) = self.tr.time("bmc.minimize", || {
            check_safety_budgeted(model, 0, &bound, solver, interrupt)
        });
        self.c.minimize_calls += 1;
        self.c.sat += stats;
        match result {
            SafetyResult::Violated(minimal) => {
                self.c.minimize_shortened += u64::from(minimal.len() < trace.len());
                minimal
            }
            _ => trace,
        }
    }

    /// The shared explicit engine of a slice (explored once per
    /// fingerprint; an interrupted exploration is not kept).
    fn explicit_bundle(
        &mut self,
        fp: Fingerprint,
        model: &Model,
        interrupt: &Interrupt,
    ) -> Option<Rc<ExplicitBundle>> {
        if self.options.disable_explicit {
            return None;
        }
        if let Some(done) = self.explicit.get(&fp) {
            return done.clone();
        }
        let limits = self.options.explicit;
        let (augmented, assert_pendings, fair_pendings) = model.with_pending_monitors();
        let engine = self.tr.time("explicit", || {
            ExplicitEngine::explore_budgeted(&augmented, &limits, interrupt)
        });
        if engine.as_ref().is_some_and(ExplicitEngine::was_interrupted) {
            return None;
        }
        let bundle = engine.map(|engine| {
            Rc::new(ExplicitBundle {
                engine,
                assert_pendings,
                fair_pendings,
            })
        });
        self.explicit.insert(fp, bundle.clone());
        bundle
    }

    fn safety(
        &mut self,
        model: &Model,
        fp: Fingerprint,
        seeds: &HashMap<usize, SeedHint>,
    ) -> Class {
        let options = self.options;
        let key = (fp, model.bads[0].name.clone());
        if let Some(class) = self.memo.lookup(&key) {
            return class;
        }
        let interrupt = task_interrupt(options);
        let bad = model.bads[0].lit;
        if options.fuzz.enabled {
            let (hit, _) = self.tr.time("fuzz", || {
                fuzz_safety_budgeted(model, 0, &options.fuzz, &interrupt)
            });
            self.c.fuzz_calls += 1;
            if let Some(hit) = hit {
                self.c.fuzz_hits += 1;
                self.minimize(model, hit.trace, &interrupt);
                self.memo.store(key, Class::Violated, true, &interrupt);
                return Class::Violated;
            }
            if interrupt.triggered().is_some() {
                return Class::Unknown;
            }
        }
        if !options.disable_bmc {
            let quick = quick_bounds(options, &options.bmc);
            let (result, stats) = self.tr.time("bmc.quick", || {
                check_safety_budgeted(model, 0, &quick, options.solver, &interrupt)
            });
            self.c.quick_calls += 1;
            self.c.sat += stats;
            match result {
                SafetyResult::Proven { .. } => {
                    self.c.quick_decided += 1;
                    self.memo.store(key, Class::Proven, true, &interrupt);
                    return Class::Proven;
                }
                SafetyResult::Violated(_) => {
                    self.c.quick_decided += 1;
                    self.memo.store(key, Class::Violated, true, &interrupt);
                    return Class::Violated;
                }
                SafetyResult::Interrupted => return Class::Unknown,
                SafetyResult::Unknown { .. } => {}
            }
        }
        let mut lemmas = Vec::new();
        if !options.disable_pdr {
            let (result, stats, frame_lemmas) = self.tr.time("pdr", || {
                check_pdr_budgeted_lemmas(model, bad, &options.pdr, options.solver, &interrupt)
            });
            self.c.pdr_calls += 1;
            self.c.sat += stats;
            lemmas = frame_lemmas;
            match result {
                PdrResult::Proven(_) => {
                    self.c.pdr_decided += 1;
                    self.memo.store(key, Class::Proven, true, &interrupt);
                    return Class::Proven;
                }
                PdrResult::Violated(trace) => {
                    self.c.pdr_decided += 1;
                    self.minimize(model, trace, &interrupt);
                    self.memo.store(key, Class::Violated, true, &interrupt);
                    return Class::Violated;
                }
                PdrResult::Interrupted => return Class::Unknown,
                PdrResult::Unknown { .. } => {}
            }
        }
        if let Some(bundle) = self.explicit_bundle(fp, model, &interrupt) {
            self.c.explicit_calls += 1;
            match self.tr.time("explicit", || bundle.engine.check_bad(bad)) {
                ExplicitResult::Proven => {
                    self.memo.store(key, Class::Proven, false, &interrupt);
                    return Class::Proven;
                }
                ExplicitResult::Violated(trace) => {
                    self.minimize(model, trace, &interrupt);
                    self.memo.store(key, Class::Violated, true, &interrupt);
                    return Class::Violated;
                }
                ExplicitResult::Exceeded => {}
            }
        }
        if interrupt.poll().is_some() || options.disable_bmc {
            return Class::Unknown;
        }
        let sharing = &options.sharing;
        let (result, raced) = if sharing.enabled() {
            let race = RaceOptions {
                configs: racer_configs(options.solver, sharing.racers),
                quantum: sharing.quantum,
                glue_bound: sharing.glue_bound,
                lemmas,
                seeds: seeds.clone(),
                pools: Some((
                    self.pools.pool(fp, PoolKind::Bmc, sharing.glue_bound),
                    self.pools.pool(fp, PoolKind::Step, sharing.glue_bound),
                )),
            };
            let (result, stats, _) = self.tr.time("bmc.race", || {
                race_safety_budgeted(model, 0, &options.bmc, &race, &interrupt)
            });
            self.c.race_calls += 1;
            self.c.sat += stats;
            (result, true)
        } else {
            let (result, stats) = self.tr.time("bmc.full", || {
                check_safety_budgeted(model, 0, &options.bmc, options.solver, &interrupt)
            });
            self.c.full_calls += 1;
            self.c.sat += stats;
            (result, false)
        };
        match result {
            SafetyResult::Proven { .. } => {
                self.memo.store(key, Class::Proven, true, &interrupt);
                Class::Proven
            }
            SafetyResult::Violated(trace) => {
                if raced {
                    self.minimize(model, trace, &interrupt);
                }
                self.memo.store(key, Class::Violated, true, &interrupt);
                Class::Violated
            }
            SafetyResult::Interrupted | SafetyResult::Unknown { .. } => Class::Unknown,
        }
    }

    fn cover(&mut self, model: &Model, fp: Fingerprint) -> Class {
        let options = self.options;
        let key = (fp, model.covers[0].name.clone());
        if let Some(class) = self.memo.lookup(&key) {
            return class;
        }
        let interrupt = task_interrupt(options);
        let target = model.covers[0].lit;
        if !options.disable_bmc {
            let quick = quick_bounds(options, &options.bmc);
            let (result, stats) = self.tr.time("bmc.quick", || {
                check_cover_budgeted(model, 0, &quick, options.solver, &interrupt)
            });
            self.c.quick_calls += 1;
            self.c.sat += stats;
            match result {
                CoverResult::Covered(_) => {
                    self.c.quick_decided += 1;
                    self.memo.store(key, Class::Covered, true, &interrupt);
                    return Class::Covered;
                }
                CoverResult::Unreachable => {
                    // Certificate-less: process-local, never spilled.
                    self.c.quick_decided += 1;
                    self.memo.store(key, Class::Unreachable, false, &interrupt);
                    return Class::Unreachable;
                }
                CoverResult::Interrupted => return Class::Unknown,
                CoverResult::Unknown { .. } => {}
            }
        }
        if !options.disable_pdr {
            let (result, stats) = self.tr.time("pdr", || {
                check_pdr_budgeted(model, target, &options.pdr, options.solver, &interrupt)
            });
            self.c.pdr_calls += 1;
            self.c.sat += stats;
            match result {
                PdrResult::Proven(_) => {
                    self.c.pdr_decided += 1;
                    self.memo.store(key, Class::Unreachable, true, &interrupt);
                    return Class::Unreachable;
                }
                PdrResult::Violated(_) => {
                    self.c.pdr_decided += 1;
                    self.memo.store(key, Class::Covered, true, &interrupt);
                    return Class::Covered;
                }
                PdrResult::Interrupted => return Class::Unknown,
                PdrResult::Unknown { .. } => {}
            }
        }
        if let Some(bundle) = self.explicit_bundle(fp, model, &interrupt) {
            self.c.explicit_calls += 1;
            match self
                .tr
                .time("explicit", || bundle.engine.check_cover(target))
            {
                ExplicitResult::Proven => {
                    self.memo.store(key, Class::Unreachable, false, &interrupt);
                    return Class::Unreachable;
                }
                ExplicitResult::Violated(_) => {
                    self.memo.store(key, Class::Covered, true, &interrupt);
                    return Class::Covered;
                }
                ExplicitResult::Exceeded => {}
            }
        }
        if interrupt.poll().is_some() || options.disable_bmc {
            return Class::Unknown;
        }
        let (result, stats) = self.tr.time("bmc.full", || {
            check_cover_budgeted(model, 0, &options.bmc, options.solver, &interrupt)
        });
        self.c.full_calls += 1;
        self.c.sat += stats;
        match result {
            CoverResult::Covered(_) => {
                self.memo.store(key, Class::Covered, true, &interrupt);
                Class::Covered
            }
            CoverResult::Unreachable => {
                self.memo.store(key, Class::Unreachable, false, &interrupt);
                Class::Unreachable
            }
            CoverResult::Interrupted | CoverResult::Unknown { .. } => Class::Unknown,
        }
    }

    fn liveness(&mut self, base: &Model, l2s: &LivenessSafetyModel, fp: Fingerprint) -> Class {
        let options = self.options;
        let model = &l2s.model;
        let key = (fp, model.bads[0].name.clone());
        if let Some(class) = self.memo.lookup(&key) {
            return class;
        }
        let interrupt = task_interrupt(options);
        let bad = model.bads[0].lit;
        if !options.disable_bmc {
            let quick = quick_bounds(options, &options.liveness_bmc);
            let (result, stats) = self.tr.time("bmc.quick", || {
                check_safety_budgeted(model, 0, &quick, options.solver, &interrupt)
            });
            self.c.quick_calls += 1;
            self.c.sat += stats;
            match result {
                SafetyResult::Proven { .. } => {
                    self.c.quick_decided += 1;
                    self.memo.store(key, Class::Proven, true, &interrupt);
                    return Class::Proven;
                }
                SafetyResult::Violated(_) => {
                    self.c.quick_decided += 1;
                    self.memo.store(key, Class::Violated, true, &interrupt);
                    return Class::Violated;
                }
                SafetyResult::Interrupted => return Class::Unknown,
                SafetyResult::Unknown { .. } => {}
            }
        }
        if !options.disable_pdr {
            let (result, stats) = self.tr.time("pdr", || {
                check_pdr_budgeted(model, bad, &options.pdr, options.solver, &interrupt)
            });
            self.c.pdr_calls += 1;
            self.c.sat += stats;
            match result {
                PdrResult::Proven(_) => {
                    self.c.pdr_decided += 1;
                    self.memo.store(key, Class::Proven, true, &interrupt);
                    return Class::Proven;
                }
                PdrResult::Violated(_) => {
                    self.c.pdr_decided += 1;
                    self.memo.store(key, Class::Violated, true, &interrupt);
                    return Class::Violated;
                }
                PdrResult::Interrupted => return Class::Unknown,
                PdrResult::Unknown { .. } => {}
            }
        }
        if let Some(bundle) = self.explicit_bundle(fp, base, &interrupt) {
            self.c.explicit_calls += 1;
            let pending = bundle.assert_pendings[0];
            match self.tr.time("explicit", || {
                bundle.engine.check_liveness(pending, &bundle.fair_pendings)
            }) {
                ExplicitResult::Proven => {
                    self.memo.store(key, Class::Proven, false, &interrupt);
                    return Class::Proven;
                }
                // The explicit lasso lives on the monitor-augmented base
                // model, so the checker does not cache it.
                ExplicitResult::Violated(_) => return Class::Violated,
                ExplicitResult::Exceeded => {}
            }
        }
        if interrupt.poll().is_some() || options.disable_bmc {
            return Class::Unknown;
        }
        let (result, stats) = self.tr.time("bmc.full", || {
            check_safety_budgeted(model, 0, &options.liveness_bmc, options.solver, &interrupt)
        });
        self.c.full_calls += 1;
        self.c.sat += stats;
        match result {
            SafetyResult::Proven { .. } => {
                self.memo.store(key, Class::Proven, true, &interrupt);
                Class::Proven
            }
            SafetyResult::Violated(_) => {
                self.memo.store(key, Class::Violated, true, &interrupt);
                Class::Violated
            }
            SafetyResult::Interrupted | SafetyResult::Unknown { .. } => Class::Unknown,
        }
    }
}

/// The cross-property seed plan of the checker's clause-sharing race: a
/// pure function of the safety slices (see `build_seed_plans` in
/// `checker.rs`).
fn seed_plans(tasks: &[Task], options: &CheckOptions) -> Vec<HashMap<usize, SeedHint>> {
    let mut plans = vec![HashMap::new(); tasks.len()];
    let sharing = &options.sharing;
    if !sharing.enabled() {
        return plans;
    }
    let sigs: Vec<(usize, Fingerprint, &Rc<Model>, Vec<u64>)> = tasks
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t {
            Task::Safety { model, fp } => Some((i, *fp, model, state_signature(model))),
            _ => None,
        })
        .collect();
    for (pos, (i, fp, model, sig)) in sigs.iter().enumerate() {
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
            plans[*i] = seed_hints_from(model, &sigs[donor_pos].3);
        }
    }
    plans
}

/// One shadow run of `input`: every layer called in the checker's order,
/// each property stopped at its first conclusive answer.
#[allow(clippy::too_many_arguments)]
fn shadow_run(
    input: &RunInput,
    options: &CheckOptions,
    cache_dir: Option<&Path>,
    flush_dir: &Path,
    memo: &mut VerdictMemo,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<ShadowRun, String> {
    debug_assert!(options.parallel.slice && options.parallel.opt);
    memo.dirty = false;
    memo.hits = 0;
    let root = tr.begin("run");
    let file = tr
        .time("svparse", || svparse::parse(&input.source))
        .map_err(|e| format!("{}: {}", input.id, e.render(&input.source)))?;
    let ft = tr.time("core", || input.testbench())?;
    let mut elab_options = options.elab.clone();
    elab_options.top.get_or_insert(ft.dut_name.clone());
    let design = tr
        .time("elab", || elaborate(&file, &elab_options))
        .map_err(|e| format!("{}: {e}", input.id))?;
    let compiled = tr
        .time("compile", || compile(&design, &ft))
        .map_err(|e| format!("{}: {e}", input.id))?;
    let lint = tr.time("lint", || {
        autosva_formal::lint::run(&design, &compiled, &ft, Some(&input.source), &options.lint)
    });
    if lint.has_errors() {
        return Err(format!("{}: lint errors\n{}", input.id, lint.render()));
    }

    // Per-property slices, optimized once per distinct raw slice; liveness
    // slices also get their (optimized) liveness-to-safety product.
    let mut slices: HashMap<Fingerprint, (Rc<Model>, Fingerprint)> = HashMap::new();
    let mut products: HashMap<Fingerprint, Rc<LivenessSafetyModel>> = HashMap::new();
    let mut slice = |target: SliceTarget, tr: &mut Tracer, c: &mut Counters| {
        let slice = tr.time("coi", || cone_of_influence(&compiled.model, target));
        c.slices += 1;
        let raw = slice.fingerprint;
        let (model, fp) = slices
            .entry(raw)
            .or_insert_with(|| {
                c.unique_slices += 1;
                let (model, fp) = tr.time("opt", || optimize_with_fingerprint(&slice.model));
                c.opt_gates_in += slice.model.aig.num_ands() as u64;
                c.opt_gates_out += model.aig.num_ands() as u64;
                (Rc::new(model), fp)
            })
            .clone();
        (raw, model, fp)
    };
    let mut tasks = Vec::with_capacity(compiled.properties.len());
    for prop in &compiled.properties {
        let task = match &prop.kind {
            CompiledKind::Skipped(_) | CompiledKind::Constraint | CompiledKind::Fairness => {
                Task::Done(Class::NotChecked)
            }
            CompiledKind::Safety(i) => {
                let (_, model, fp) = slice(SliceTarget::Bad(*i), tr, c);
                Task::Safety { model, fp }
            }
            CompiledKind::Cover(i) => {
                let (_, model, fp) = slice(SliceTarget::Cover(*i), tr, c);
                Task::Cover { model, fp }
            }
            CompiledKind::Liveness(i) => {
                let (raw, base, fp) = slice(SliceTarget::Liveness(*i), tr, c);
                let l2s = products
                    .entry(raw)
                    .or_insert_with(|| {
                        let product = tr.time("model.l2s", || base.to_liveness_safety());
                        let optimized = tr.time("opt", || optimize(&product.model).model);
                        c.opt_gates_in += product.model.aig.num_ands() as u64;
                        c.opt_gates_out += optimized.aig.num_ands() as u64;
                        Rc::new(LivenessSafetyModel {
                            model: optimized,
                            property_names: product.property_names,
                        })
                    })
                    .clone();
                Task::Liveness { base, l2s, fp }
            }
        };
        tasks.push(task);
    }
    if let Some(dir) = cache_dir {
        tr.time("portfolio.cache_open", || drop(ProofCache::open(dir)));
    }
    let seeds = seed_plans(&tasks, options);

    let mut cascade = Cascade {
        options,
        tr,
        c,
        memo,
        pools: SharedPools::new(),
        explicit: HashMap::new(),
    };
    let mut classes = Vec::with_capacity(tasks.len());
    for ((prop, task), seeds) in compiled.properties.iter().zip(&tasks).zip(&seeds) {
        let span = cascade.tr.begin("task");
        let class = match task {
            Task::Done(class) => *class,
            Task::Safety { model, fp } => cascade.safety(model, *fp, seeds),
            Task::Cover { model, fp } => cascade.cover(model, *fp),
            Task::Liveness { base, l2s, fp } => cascade.liveness(base, l2s, *fp),
        };
        cascade.tr.end(span);
        classes.push((prop.property.full_name(), class));
    }
    // The checker flushes a cache it stored into.  `ProofCache::store` is
    // crate-private, so the benchmark times the flush of a cache re-dirtied
    // with `clear()`: the atomic spill write (create, write, rename) minus
    // the serialization of the entries.
    if cache_dir.is_some() && memo.dirty {
        let cache = ProofCache::open(flush_dir);
        cache.clear();
        let flushed = tr.time("portfolio.cache_flush", || cache.flush());
        flushed.map_err(|e| format!("{}: cache flush: {e}", input.id))?;
    }
    tr.end(root);
    Ok(ShadowRun {
        classes,
        memo_hits: memo.hits,
    })
}

/// Reorders the runs so buggy and fixed designs alternate (each kind keeps
/// its seed order): a traced pass cut short by the time limit still covers
/// both kinds of engine work.
fn interleave_variants(runs: Vec<RunInput>) -> Vec<RunInput> {
    let (mut buggy, mut fixed): (Vec<RunInput>, Vec<RunInput>) =
        runs.into_iter().partition(|r| r.id.contains("-buggy"));
    buggy.reverse();
    fixed.reverse();
    let mut out = Vec::with_capacity(buggy.len() + fixed.len());
    while let Some(run) = fixed.pop() {
        out.push(run);
        out.extend(buggy.pop());
    }
    out.extend(buggy.into_iter().rev());
    out
}

/// Replaces `to` with a copy of the files in `from` (nothing when `from`
/// does not exist yet).
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    reset_dir(to);
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let Ok(entries) = std::fs::read_dir(from) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Compares the shadow's verdicts with the untraced report of the same run.
fn agreement(input: &RunInput, shadow: &ShadowRun, report: &VerificationReport) -> bool {
    let mut ok = shadow.classes.len() == report.results.len();
    for ((name, class), r) in shadow.classes.iter().zip(&report.results) {
        let real = Class::of(&r.status);
        if *name != r.name || *class != real {
            eprintln!(
                "perfbench: {}: shadow cascade disagrees on {name}: {class:?} vs {} {real:?}",
                input.id, r.name
            );
            ok = false;
        }
    }
    ok
}

/// Runs the `--trace 1` measurement of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64, work: &Path) -> Result<Outcome, String> {
    let threads = threads();
    let runs = interleave_variants(inputs(workload, seed));
    for run in &runs {
        run.preflight()?;
    }
    eprintln!(
        "perfbench: {} runs, inputs hash {:016x}, {} threads (traced)",
        runs.len(),
        inputs_hash(&runs),
        threads
    );
    // Cache directories of the untraced all-core and one-thread verifies,
    // plus the shadow's copy to open and its scratch spill to flush.
    let uses_cache = workload.uses_cache();
    let dir_all = work.join("cache-all");
    let dir_one = work.join("cache-one");
    let open_dir = work.join("open");
    let flush_dir = work.join("flush");
    let cache_all = uses_cache.then_some(dir_all.as_path());
    let cache_one = uses_cache.then_some(dir_one.as_path());

    let mut checks = Checks::default();
    let mut memo = VerdictMemo::default();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut failed = 0usize;
    let mut setup_failed = 0usize;

    if workload == Workload::CorpusWarm {
        // Set-up: fill both spill files with a cold pass and fill the
        // shadow's memo the same way.  Nothing of it is reported.
        let mut scratch = Tracer::new();
        let mut scratch_counters = Counters::default();
        for run in &runs {
            setup_failed += usize::from(!checks.run(run, threads, cache_all).1);
            setup_failed += usize::from(!checks.run(run, 1, cache_one).1);
            let options = run.options(1, cache_one);
            shadow_run(
                run,
                &options,
                None,
                &flush_dir,
                &mut memo,
                &mut scratch,
                &mut scratch_counters,
            )?;
        }
    }

    let mut traced_runs = 0usize;
    let mut one_thread_wall = Duration::ZERO;
    let mut busy = Duration::ZERO;
    let mut busy_capacity = Duration::ZERO;
    let mut hits = 0u64;
    let mut lookups = 0u64;
    let start = Instant::now();
    let mut passes = 0;
    // Passes over the runs until the time is up; unlike the untraced loop a
    // pass may stop early (the per-layer figures are per run, so a partial
    // pass only trims their sample).
    while passes == 0 || start.elapsed().as_secs() < seconds {
        if workload == Workload::CorpusCold {
            reset_dir(&dir_all);
            reset_dir(&dir_one);
            memo = VerdictMemo::default();
        }
        for run in &runs {
            if traced_runs > 0 && start.elapsed().as_secs() >= seconds {
                break;
            }
            tracer.run = traced_runs;
            let mut ok = true;

            // Untraced, every core: the reference for agreement and the
            // busy ratio.
            let (wall_all, report_all) = run.verify(threads, cache_all);
            let report_all = report_all?;
            ok &= checks.check(run, &report_all);
            busy += report_all
                .results
                .iter()
                .map(|r| r.runtime)
                .sum::<Duration>();
            busy_capacity += wall_all * threads as u32;

            // The shadow cascade (traced) and the one-thread untraced verify
            // whose wall clock the layers are attributed against.  They
            // alternate which goes first, so neither always runs on caches
            // the other warmed.  The shadow times its cache open on a copy
            // of the one-thread cache as that run is about to see it.
            let options_one = run.options(1, cache_one);
            if uses_cache {
                copy_dir(&dir_one, &open_dir)?;
            } else {
                // No proof cache for the checker, so none for the shadow.
                memo = VerdictMemo::default();
            }
            let mut shadow = None;
            let mut report_one = None;
            for step in [traced_runs % 2, 1 - traced_runs % 2] {
                if step == 0 {
                    shadow = Some(shadow_run(
                        run,
                        &options_one,
                        uses_cache.then_some(open_dir.as_path()),
                        &flush_dir,
                        &mut memo,
                        &mut tracer,
                        &mut counters,
                    )?);
                } else {
                    let (wall, report) = run.verify(1, cache_one);
                    one_thread_wall += wall;
                    report_one = Some(report?);
                }
            }
            let (Some(shadow), Some(report_one)) = (shadow, report_one) else {
                unreachable!("both steps ran");
            };
            ok &= agreement(run, &shadow, &report_all);
            ok &= checks.check(run, &report_one);
            if let Some(stats) = &report_one.cache_stats {
                hits += stats.hits;
                lookups += stats.hits + stats.misses;
                if stats.hits != shadow.memo_hits {
                    eprintln!(
                        "perfbench: {}: {} cache hits, but the shadow memo hit {}",
                        run.id, stats.hits, shadow.memo_hits
                    );
                    ok = false;
                }
            }
            failed += usize::from(!ok);
            traced_runs += 1;
        }
        passes += 1;
    }

    let spans_path =
        Path::new(".bench_work").join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    std::fs::write(&spans_path, tracer.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    eprintln!(
        "perfbench: {passes} traced passes, {traced_runs} runs, {} spans in {}, \
         verdict_errors {}, render mismatches {}",
        tracer.spans.len(),
        spans_path.display(),
        checks.verdict_errors,
        checks.render_mismatches
    );

    let self_times = tracer.self_times();
    let per_run = traced_runs.max(1) as f64;
    let ms = |name: &str| self_times.get(name).map_or(0.0, Duration::as_secs_f64) * 1e3 / per_run;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    const LAYERS: &[&str] = &[
        "svparse",
        "core",
        "elab",
        "compile",
        "lint",
        "coi",
        "opt",
        "model.l2s",
        "fuzz",
        "bmc.quick",
        "bmc.minimize",
        "pdr",
        "explicit",
        "bmc.race",
        "bmc.full",
        "portfolio.cache_open",
        "portfolio.cache_flush",
    ];
    let attributed: f64 = LAYERS.iter().map(|l| ms(l)).sum();
    let c = &counters;
    let metrics = vec![
        Metric::new("svparse.ms", ms("svparse"), "ms"),
        Metric::new("core.ms", ms("core"), "ms"),
        Metric::new("elab.ms", ms("elab"), "ms"),
        Metric::new("compile.ms", ms("compile"), "ms"),
        Metric::new("lint.ms", ms("lint"), "ms"),
        Metric::new("coi.ms", ms("coi"), "ms"),
        Metric::new(
            "coi.unique_ratio",
            ratio(c.unique_slices, c.slices),
            "ratio",
        ),
        Metric::new("opt.ms", ms("opt"), "ms"),
        Metric::new(
            "opt.gate_ratio",
            ratio(c.opt_gates_out, c.opt_gates_in),
            "ratio",
        ),
        Metric::new("model.l2s_ms", ms("model.l2s"), "ms"),
        Metric::new("fuzz.ms", ms("fuzz"), "ms"),
        Metric::new("fuzz.hit_ratio", ratio(c.fuzz_hits, c.fuzz_calls), "ratio"),
        Metric::new("bmc.quick_ms", ms("bmc.quick"), "ms"),
        Metric::new(
            "bmc.quick_decided_ratio",
            ratio(c.quick_decided, c.quick_calls),
            "ratio",
        ),
        Metric::new("bmc.minimize_ms", ms("bmc.minimize"), "ms"),
        Metric::new(
            "bmc.minimize_calls",
            c.minimize_calls as f64 / per_run,
            "count",
        ),
        Metric::new(
            "bmc.minimize_shortened_ratio",
            ratio(c.minimize_shortened, c.minimize_calls),
            "ratio",
        ),
        Metric::new("pdr.ms", ms("pdr"), "ms"),
        Metric::new("pdr.calls", c.pdr_calls as f64 / per_run, "count"),
        Metric::new(
            "pdr.decided_ratio",
            ratio(c.pdr_decided, c.pdr_calls),
            "ratio",
        ),
        Metric::new("explicit.ms", ms("explicit"), "ms"),
        Metric::new("explicit.calls", c.explicit_calls as f64 / per_run, "count"),
        Metric::new("bmc.race_ms", ms("bmc.race"), "ms"),
        Metric::new("bmc.race_calls", c.race_calls as f64 / per_run, "count"),
        Metric::new("bmc.full_ms", ms("bmc.full"), "ms"),
        Metric::new("bmc.full_calls", c.full_calls as f64 / per_run, "count"),
        Metric::new("sat.conflicts", c.sat.conflicts as f64 / per_run, "count"),
        Metric::new(
            "sat.propagations",
            c.sat.propagations as f64 / per_run,
            "count",
        ),
        Metric::new("portfolio.cache_open_ms", ms("portfolio.cache_open"), "ms"),
        Metric::new("portfolio.cache_hit_ratio", ratio(hits, lookups), "ratio"),
        Metric::new(
            "portfolio.cache_flush_ms",
            ms("portfolio.cache_flush"),
            "ms",
        ),
        Metric::new(
            "portfolio.busy_ratio",
            busy.as_secs_f64() / busy_capacity.as_secs_f64().max(f64::MIN_POSITIVE),
            "ratio",
        ),
        Metric::new(
            "checker.unattributed_ms",
            one_thread_wall.as_secs_f64() * 1e3 / per_run - attributed,
            "ms",
        ),
    ];
    Ok(Outcome {
        correct: failed == 0 && setup_failed == 0 && checks.verdict_errors == 0,
        attempted: traced_runs,
        failed,
        metrics,
    })
}
