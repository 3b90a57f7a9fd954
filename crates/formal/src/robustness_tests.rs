//! Differential fault-containment tests for the interrupt/budget subsystem
//! and the panic-isolation layer (see [`crate::interrupt`] and
//! [`crate::faults`]).
//!
//! Every test here follows the same contract: run a testbench fault-free,
//! run it again with exactly one fault armed (a panic, a spurious timeout,
//! or a delay at a named engine site), and assert that
//!
//! * the run still returns a complete report (no unwinding past `verify`),
//! * only the targeted property degrades (`Error` for a panic, `Unknown`
//!   with a budget note for a timeout, nothing at all for a delay), and
//! * every other property's rendered verdict is byte-identical to the
//!   fault-free run, at worker counts 1 and 4.
//!
//! The fault registry is process-global, but every arm is scoped to the
//! thread that set it and to the runs that thread starts (see
//! [`crate::faults`]).  So these tests run in parallel with each other and
//! with every other checker test, on the same design and property names,
//! without tripping each other's faults.

use crate::bmc::BmcOptions;
use crate::checker::{
    verify, CheckOptions, PropertyResult, PropertyStatus, VerificationReport, PREP_PANIC_NOTE,
};
use crate::coi::{cone_of_influence, Fingerprint, SliceTarget};
use crate::compile::CompiledKind;
use crate::elab::ElabOptions;
use crate::faults::{self, FaultAction};
use autosva::sva::Directive;
use autosva::{generate_ft, AutosvaOptions, PropertyClass};
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// A well-behaved single-outstanding echo DUT for the fault tests.
const FAULT_ECHO: &str = r#"
/*AUTOSVA
rbt_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module rbt_echo (
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

fn run_with(options: &CheckOptions) -> VerificationReport {
    let ft = generate_ft(FAULT_ECHO, &AutosvaOptions::default()).unwrap();
    verify(FAULT_ECHO, &ft, options).unwrap()
}

fn options_with_threads(threads: usize) -> CheckOptions {
    let mut options = CheckOptions::default();
    options.parallel.threads = threads;
    options
}

/// The first safety assertion of the report — every engine scenario
/// routes this property through the engine under test.
fn first_safety_assertion(report: &VerificationReport) -> String {
    report
        .results
        .iter()
        .find(|r| r.directive == Directive::Assert && r.class == PropertyClass::Safety)
        .expect("design has a safety assertion")
        .name
        .clone()
}

/// Exactly the per-property content [`VerificationReport::render`] emits:
/// status, proof artifact, cone sizes and note.  Comparing this string is
/// comparing the property's rendered verdict byte-for-byte.
fn rendered_verdict(r: &PropertyResult) -> String {
    let mut s = r.status.to_string();
    if let PropertyStatus::Proven(proof) = &r.status {
        s.push_str(&format!(" [{}]", proof.describe()));
    }
    if !matches!(r.status, PropertyStatus::NotChecked(_)) {
        s.push_str(&format!(
            " (cone {} latches, {} gates)",
            r.slice_latches, r.slice_gates
        ));
    }
    if let Some(note) = &r.note {
        s.push_str(&format!(" note: {note}"));
    }
    s
}

/// Asserts the degradation contract: same properties in the same order,
/// and every row except `target` rendered byte-identically.
fn assert_only_target_degraded(
    baseline: &VerificationReport,
    faulty: &VerificationReport,
    target: &str,
) {
    assert_eq!(
        baseline.results.len(),
        faulty.results.len(),
        "fault changed the number of report rows"
    );
    for (b, f) in baseline.results.iter().zip(&faulty.results) {
        assert_eq!(b.name, f.name, "fault changed the property order");
        if b.name == target {
            continue;
        }
        assert_eq!(
            rendered_verdict(b),
            rendered_verdict(f),
            "fault leaked into non-target property `{}`",
            b.name
        );
    }
}

/// One per-engine scenario: the fault site, the engine tag the degraded
/// row must carry, and options steering the target property into that
/// engine (the cascade stops at the first engine that decides a
/// property, so later stages need the earlier ones disabled).
fn engine_scenarios() -> Vec<(&'static str, &'static str, CheckOptions)> {
    let pdr_options = CheckOptions {
        disable_bmc: true,
        ..CheckOptions::default()
    };
    let explicit_options = CheckOptions {
        disable_bmc: true,
        disable_pdr: true,
        ..CheckOptions::default()
    };
    vec![
        ("fuzz.round", "fuzz", CheckOptions::default()),
        ("bmc.depth_step", "bmc", CheckOptions::default()),
        ("pdr.block_cube", "pdr", pdr_options),
        ("explicit.step", "explicit", explicit_options),
    ]
}

#[test]
fn injected_panic_in_each_engine_degrades_only_the_target_property() {
    for (site, engine, base_options) in engine_scenarios() {
        for threads in [1usize, 4] {
            let mut options = base_options.clone();
            options.parallel.threads = threads;
            options.telemetry.enabled = true;
            let baseline = run_with(&options);
            let target = first_safety_assertion(&baseline);
            let faulty = {
                let _arm = faults::arm(site, FaultAction::Panic, Some(&target));
                run_with(&options)
            };
            let row = faulty
                .results
                .iter()
                .find(|r| r.name == target)
                .expect("target row present");
            match &row.status {
                PropertyStatus::Error { engine: e, message } => {
                    assert_eq!(*e, engine, "wrong engine tag for site {site}");
                    assert_eq!(message, &format!("fault injected at {site}"));
                }
                other => panic!(
                    "site {site} (threads {threads}): target did not degrade to Error: {other}"
                ),
            }
            assert_only_target_degraded(&baseline, &faulty, &target);
            let text = faulty.render();
            assert!(
                text.contains(&format!("ERROR in {engine}: fault injected at {site}")),
                "report does not surface the contained panic:\n{text}"
            );
            let telemetry = faulty.telemetry.as_ref().expect("telemetry enabled");
            let caught: u64 = telemetry
                .counters
                .iter()
                .filter(|(name, _)| *name == "robustness.panics_caught")
                .map(|(_, v)| v)
                .sum();
            assert_eq!(caught, 1, "exactly one contained panic for site {site}");
        }
    }
}

#[test]
fn injected_spurious_timeout_degrades_only_the_target_property() {
    for threads in [1usize, 4] {
        let options = options_with_threads(threads);
        let baseline = run_with(&options);
        let target = first_safety_assertion(&baseline);
        let faulty = {
            let _arm = faults::arm("bmc.depth_step", FaultAction::Timeout, Some(&target));
            run_with(&options)
        };
        let row = faulty
            .results
            .iter()
            .find(|r| r.name == target)
            .expect("target row present");
        assert_eq!(
            row.status,
            PropertyStatus::Unknown,
            "spurious timeout must degrade the target to Unknown (threads {threads})"
        );
        assert_eq!(
            row.note.as_deref(),
            Some("undecided: budget exhausted in bmc"),
            "budget note names the interrupted engine"
        );
        assert_only_target_degraded(&baseline, &faulty, &target);
    }
}

proptest! {
    /// Differential contract over the whole fault space: any single
    /// injected fault — any engine site, any action, any worker count —
    /// yields a complete report where only the targeted property may
    /// degrade (and a pure delay degrades nothing).
    ///
    /// The sampled domain is small (4 sites x 3 actions x 2 worker
    /// counts), so repeated draws are deduplicated and the fault-free
    /// baseline is computed once per (site, workers) pair — the 64
    /// deterministic proptest cases effectively sweep the whole space
    /// without re-verifying it dozens of times.
    #[test]
    fn any_single_fault_degrades_at_most_the_target(
        scenario_idx in 0usize..4,
        action_idx in 0usize..3,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        use std::collections::{HashMap, HashSet};
        use std::sync::OnceLock;
        static SEEN: OnceLock<Mutex<HashSet<(usize, usize, usize)>>> = OnceLock::new();
        static BASELINES: OnceLock<Mutex<HashMap<(usize, usize), VerificationReport>>> =
            OnceLock::new();
        let fresh = SEEN
            .get_or_init(|| Mutex::new(HashSet::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((scenario_idx, action_idx, threads));
        if fresh {
            let (site, engine, base_options) = engine_scenarios().swap_remove(scenario_idx);
            let mut options = base_options;
            options.parallel.threads = threads;
            let baseline = BASELINES
                .get_or_init(|| Mutex::new(HashMap::new()))
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry((scenario_idx, threads))
                .or_insert_with(|| run_with(&options))
                .clone();
            let target = first_safety_assertion(&baseline);
            let action = match action_idx {
                0 => FaultAction::Panic,
                1 => FaultAction::Timeout,
                _ => FaultAction::Delay(Duration::from_millis(2)),
            };
            let faulty = {
                let _arm = faults::arm(site, action, Some(&target));
                run_with(&options)
            };
            assert_only_target_degraded(&baseline, &faulty, &target);
            let row = faulty
                .results
                .iter()
                .find(|r| r.name == target)
                .expect("target row present");
            let base_row = baseline
                .results
                .iter()
                .find(|r| r.name == target)
                .expect("target row present in baseline");
            match action_idx {
                0 => prop_assert!(
                    matches!(&row.status, PropertyStatus::Error { engine: e, .. } if *e == engine),
                    "panic at {site} must yield Error in {engine}, got {}",
                    row.status
                ),
                1 => {
                    prop_assert_eq!(&row.status, &PropertyStatus::Unknown);
                    prop_assert_eq!(
                        row.note.as_deref(),
                        Some(format!("undecided: budget exhausted in {engine}").as_str())
                    );
                }
                _ => prop_assert_eq!(
                    rendered_verdict(row),
                    rendered_verdict(base_row),
                    "a pure delay must not change any verdict"
                ),
            }
        }
    }
}

#[test]
fn zero_timeout_reports_budget_unknown_for_every_checked_property() {
    let mut renders = Vec::new();
    for threads in [1usize, 4] {
        let mut options = options_with_threads(threads);
        options.parallel.property_timeout = Some(Duration::ZERO);
        let report = run_with(&options);
        for r in report.checked() {
            assert_eq!(
                r.status,
                PropertyStatus::Unknown,
                "property {} decided despite a zero budget (threads {threads})",
                r.name
            );
            let note = r.note.as_deref().unwrap_or("");
            assert!(
                note.starts_with("undecided: budget exhausted in "),
                "property {} lacks the budget note (threads {threads}): {note:?}",
                r.name
            );
        }
        renders.push(report.render());
    }
    assert_eq!(
        renders[0], renders[1],
        "zero-budget reports must render identically at 1 and 4 workers"
    );
}

#[test]
fn generous_timeout_renders_identically_to_unbounded() {
    for threads in [1usize, 4] {
        let unbounded = run_with(&options_with_threads(threads));
        let mut options = options_with_threads(threads);
        options.parallel.property_timeout = Some(Duration::from_secs(3600));
        let bounded = run_with(&options);
        assert_eq!(
            unbounded.render(),
            bounded.render(),
            "a generous budget must not perturb the report (threads {threads})"
        );
    }
}

/// The acceptance bound for prompt cancellation: on a BMC-hard instance a
/// 50 ms property budget comes back `Unknown` with a note naming the
/// engine, and the property's wall clock stays within 2x the budget.  The
/// SAT search polls its interrupt on a conflict cadence *and* a
/// propagation-count cadence (long unit-propagation storms between
/// conflicts used to stretch the overshoot to several polling intervals,
/// hence the old 4x bound), so the overshoot is now one short polling
/// interval, not one cascade stage.
#[test]
fn hard_bmc_instance_times_out_promptly_with_an_engine_note() {
    let timeout = Duration::from_millis(50);
    // No induction and a practically unbounded depth: full-depth BMC
    // grinds depth after depth and can only be stopped by the budget.
    let mut options = CheckOptions {
        bmc: BmcOptions {
            max_depth: 1_000_000,
            max_induction: 0,
        },
        disable_pdr: true,
        disable_explicit: true,
        ..CheckOptions::default()
    };
    options.parallel.threads = 1;
    options.parallel.property_timeout = Some(timeout);
    let report = run_with(&options);
    let budgeted: Vec<&PropertyResult> = report
        .results
        .iter()
        .filter(|r| r.note.as_deref() == Some("undecided: budget exhausted in bmc"))
        .collect();
    assert!(
        !budgeted.is_empty(),
        "no property hit the bmc budget:\n{}",
        report.render()
    );
    for r in budgeted {
        assert_eq!(r.status, PropertyStatus::Unknown);
        assert!(
            r.runtime <= 2 * timeout,
            "property {} overshot its {timeout:?} budget: ran {:?}",
            r.name,
            r.runtime
        );
    }
}

/// The front-end deadline (parse/elaborate/compile/lint) fails the run
/// with a phase-naming error instead of hanging, while a generous budget
/// changes nothing about the report.
#[test]
fn frontend_deadline_fails_fast_and_a_generous_one_is_invisible() {
    let ft = generate_ft(FAULT_ECHO, &AutosvaOptions::default()).unwrap();
    let mut options = CheckOptions::default();
    options.parallel.threads = 1;
    options.frontend_timeout = Some(Duration::ZERO);
    let err = verify(FAULT_ECHO, &ft, &options).expect_err("zero front-end budget must fail");
    let message = err.to_string();
    assert!(
        message.contains("front-end deadline exceeded during"),
        "error does not name the front-end phase: {message}"
    );

    let unbudgeted = run_with(&options_with_threads(1));
    options.frontend_timeout = Some(Duration::from_secs(3600));
    let budgeted = verify(FAULT_ECHO, &ft, &options).unwrap();
    assert_eq!(
        unbudgeted.render(),
        budgeted.render(),
        "a generous front-end budget must not perturb the report"
    );
}

/// The checked properties of `source` in annotation order, grouped by raw
/// cone-of-influence fingerprint (first property first).
fn slice_groups(source: &str) -> Vec<Vec<String>> {
    let ft = generate_ft(source, &AutosvaOptions::default()).unwrap();
    let file = svparse::parse(source).unwrap();
    let elab_options = ElabOptions {
        top: Some(ft.dut_name.clone()),
        ..ElabOptions::default()
    };
    let design = crate::elab::elaborate(&file, &elab_options).unwrap();
    let compiled = crate::compile::compile(&design, &ft).unwrap();
    let mut groups: Vec<(Fingerprint, Vec<String>)> = Vec::new();
    for p in &compiled.properties {
        let target = match p.kind {
            CompiledKind::Safety(i) => SliceTarget::Bad(i),
            CompiledKind::Cover(i) => SliceTarget::Cover(i),
            CompiledKind::Liveness(i) => SliceTarget::Liveness(i),
            _ => continue,
        };
        let fp = cone_of_influence(&compiled.model, target).fingerprint;
        let name = p.property.full_name();
        match groups.iter_mut().find(|(seen, _)| *seen == fp) {
            Some((_, names)) => names.push(name),
            None => groups.push((fp, vec![name])),
        }
    }
    groups.into_iter().map(|(_, names)| names).collect()
}

/// Asserts the slice-preparation degradation contract for a panic at
/// `site` while `degraded`'s slice was prepared: exactly those properties
/// report `ERROR in opt` with the preparation note, every other verdict
/// renders byte-identically, and exactly one panic was caught.
fn assert_only_slice_degraded(
    baseline: &VerificationReport,
    faulty: &VerificationReport,
    degraded: &[String],
    site: &str,
) {
    assert_eq!(baseline.results.len(), faulty.results.len());
    for (b, f) in baseline.results.iter().zip(&faulty.results) {
        assert_eq!(b.name, f.name, "fault changed the property order");
        if degraded.contains(&f.name) {
            assert_eq!(
                f.status,
                PropertyStatus::Error {
                    engine: "opt",
                    message: format!("fault injected at {site}"),
                },
                "`{}` (arm on `{}`)",
                f.name,
                degraded[0]
            );
            assert_eq!(f.note.as_deref(), Some(PREP_PANIC_NOTE));
        } else {
            assert_eq!(
                rendered_verdict(b),
                rendered_verdict(f),
                "{site} fault on `{}`'s slice leaked into `{}`",
                degraded[0],
                b.name
            );
        }
    }
    assert!(
        faulty
            .render()
            .contains(&format!("ERROR in opt: fault injected at {site}")),
        "report does not surface the contained optimizer panic"
    );
    assert_eq!(
        counter(faulty, "robustness.panics_caught"),
        1,
        "exactly one contained panic"
    );
}

/// The value of telemetry counter `name` in `report` (0 when absent).
fn counter(report: &VerificationReport, name: &str) -> u64 {
    let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
    telemetry.counter(name).unwrap_or(0)
}

/// The fault-smoke contract for slice preparation: a panic inside the
/// optimizer (the `opt.pass` site) degrades exactly the properties whose
/// slice was being prepared to `ERROR in opt`, and every other verdict
/// renders byte-identically, at 1 and 4 workers.  A slice is prepared
/// (its base model and, for liveness, its liveness-to-safety product)
/// under its first property's name, which is what the arm filters on.
#[test]
fn optimizer_panic_degrades_only_the_properties_on_its_slice() {
    let ft = generate_ft(FAULT_ECHO, &AutosvaOptions::default()).unwrap();
    let groups = slice_groups(FAULT_ECHO);
    assert!(!groups.is_empty(), "the echo design has checked properties");
    for threads in [1usize, 4] {
        let mut options = options_with_threads(threads);
        options.telemetry.enabled = true;
        let baseline = verify(FAULT_ECHO, &ft, &options).unwrap();
        for degraded in &groups {
            let faulty = {
                let _arm = faults::arm("opt.pass", FaultAction::Panic, Some(&degraded[0]));
                verify(FAULT_ECHO, &ft, &options).unwrap()
            };
            assert_only_slice_degraded(&baseline, &faulty, degraded, "opt.pass");
        }
    }
}

/// The same contract when the slice is not optimized but replayed from the
/// proof cache's optimizer witness: a panic at `opt.replay` degrades only
/// the properties on that slice, and every other slice still replays.
#[test]
fn witness_replay_panic_degrades_only_the_properties_on_its_slice() {
    let ft = generate_ft(FAULT_ECHO, &AutosvaOptions::default()).unwrap();
    let groups = slice_groups(FAULT_ECHO);
    assert!(groups.len() > 1, "the echo design has several slices");
    for threads in [1usize, 4] {
        let mut options = options_with_threads(threads);
        options.telemetry.enabled = true;
        options.parallel.cache = Some(crate::portfolio::ProofCache::new());
        // The cold run optimizes every slice and stores the witnesses.
        let baseline = verify(FAULT_ECHO, &ft, &options).unwrap();
        assert_eq!(counter(&baseline, "opt.replayed"), 0);
        for degraded in &groups {
            let faulty = {
                let _arm = faults::arm("opt.replay", FaultAction::Panic, Some(&degraded[0]));
                verify(FAULT_ECHO, &ft, &options).unwrap()
            };
            assert_only_slice_degraded(&baseline, &faulty, degraded, "opt.replay");
            assert!(
                counter(&faulty, "opt.replayed") > 0,
                "the other slices replay"
            );
            assert_eq!(
                counter(&faulty, "opt.passes"),
                0,
                "no slice was re-optimized"
            );
        }
    }
}
