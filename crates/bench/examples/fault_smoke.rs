//! Fault smoke: the containment contract end-to-end, against the real
//! Table III corpus, with the fault-injection harness armed.
//!
//! For every fixed-variant design the example runs the checker twice: once
//! fault-free, once with **two armed panic sites** (`bmc.depth_step`,
//! filtered to one safety assertion, and `opt.pass`, filtered to a third
//! checked property whose slice the optimizer prepares before any engine
//! runs) and **one forced timeout** (`fuzz.round`, filtered to another
//! safety assertion).  It then asserts the degradation contract the
//! fault-containment layer promises:
//!
//! * the process exits 0 — no panic escapes `verify`, the report always
//!   renders;
//! * the panic target degrades to exactly `ERROR in bmc: fault injected
//!   at bmc.depth_step`, and the optimizer target to exactly `ERROR in
//!   opt: fault injected at opt.pass`;
//! * the timeout target degrades to exactly `unknown` with the
//!   `undecided: budget exhausted in fuzz` note;
//! * every *other* property's rendered verdict is byte-identical to the
//!   fault-free run.
//!
//! Then, on the first buggy-variant design with a fuzzer-found violation,
//! it arms a panic at the counterexample minimizer's depth loop
//! (`minimize.depth_step`, filtered to that property) and asserts that
//! exactly that row degrades to `ERROR in minimize: fault injected at
//! minimize.depth_step` while every other verdict renders unchanged.
//!
//! ```sh
//! cargo run --release -p autosva-bench --features fault-injection --example fault_smoke
//! ```

use autosva::sva::Directive;
use autosva::PropertyClass;
use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{all_cases, elaborated, Variant};
use autosva_formal::checker::{
    verify_elaborated, PropertyResult, PropertyStatus, VerificationReport, FUZZ_ENGINE,
};
use autosva_formal::faults::{self, FaultAction};
use std::time::Instant;

/// The per-property content `render()` emits (status, proof artifact,
/// cone sizes, note) — comparing it is comparing the rendered verdict.
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

fn safety_assertions(report: &VerificationReport) -> Vec<String> {
    report
        .results
        .iter()
        .filter(|r| r.directive == Directive::Assert && r.class == PropertyClass::Safety)
        .map(|r| r.name.clone())
        .collect()
}

fn row<'a>(report: &'a VerificationReport, name: &str) -> &'a PropertyResult {
    report
        .results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("property `{name}` missing from the report"))
}

/// Asserts that `faulty` equals `baseline` row for row, except for the
/// `degraded` properties.
fn assert_others_unchanged(
    case: &str,
    baseline: &VerificationReport,
    faulty: &VerificationReport,
    degraded: &[&String],
) {
    assert_eq!(baseline.results.len(), faulty.results.len());
    for (b, f) in baseline.results.iter().zip(&faulty.results) {
        assert_eq!(b.name, f.name, "{case}: property order changed");
        if degraded.contains(&&b.name) {
            continue;
        }
        assert_eq!(
            rendered_verdict(b),
            rendered_verdict(f),
            "{case}: fault leaked into non-target property `{}`",
            b.name
        );
    }
}

/// A panic inside counterexample minimization, on the first buggy design
/// whose violation the fuzzer found (every such hit is minimized).
/// Returns the design and property it degraded.
fn minimizer_panic_is_contained() -> (String, String) {
    for case in all_cases().into_iter().filter(|c| c.has_bug_parameter) {
        let ft = build_testbench(&case);
        let options = default_check_options(&case, Variant::Buggy);
        let design = elaborated(&case, Variant::Buggy);
        let baseline = verify_elaborated(&design, &ft, &options)
            .unwrap_or_else(|e| panic!("{}: fault-free verification failed: {e}", case.id));
        let Some(target) = baseline
            .results
            .iter()
            .find(|r| r.status.is_violation() && r.engine == Some(FUZZ_ENGINE))
            .map(|r| r.name.clone())
        else {
            continue;
        };
        let faulty = {
            let _arm = faults::arm(
                "minimize.depth_step",
                FaultAction::Panic,
                Some(target.as_str()),
            );
            verify_elaborated(&design, &ft, &options)
                .unwrap_or_else(|e| panic!("{}: armed verification failed: {e}", case.id))
        };
        assert_eq!(
            row(&faulty, &target).status,
            PropertyStatus::Error {
                engine: "minimize",
                message: "fault injected at minimize.depth_step".to_string(),
            },
            "{}: minimizer target `{target}` has the wrong verdict",
            case.id
        );
        assert_others_unchanged(case.id, &baseline, &faulty, &[&target]);
        return (case.id.to_string(), target);
    }
    panic!("no buggy corpus design has a fuzzer-found violation");
}

fn main() {
    // The injected panics are the point of this smoke test; keep their
    // backtraces out of the CI log.  Anything else (a genuine assertion
    // failure included) still reports through the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("fault injected at "));
        if !injected {
            default_hook(info);
        }
    }));

    let start = Instant::now();
    let mut cases_checked = 0usize;
    for case in all_cases() {
        let ft = build_testbench(&case);
        let options = default_check_options(&case, Variant::Fixed);
        let design = elaborated(&case, Variant::Fixed);
        let baseline = verify_elaborated(&design, &ft, &options)
            .unwrap_or_else(|e| panic!("{}: fault-free verification failed: {e}", case.id));

        let targets = safety_assertions(&baseline);
        let [panic_target, timeout_target, ..] = targets.as_slice() else {
            // A corpus case with fewer than two safety assertions cannot
            // host both faults; nothing to smoke-test here.
            continue;
        };

        // Every property has its own slice (slice fingerprints cover the
        // property name), so an optimizer panic degrades only its target.
        let opt_target = baseline
            .checked()
            .map(|r| r.name.clone())
            .find(|name| name != panic_target && name != timeout_target)
            .unwrap_or_else(|| panic!("{}: no third checked property", case.id));

        let faulty = {
            let _opt_arm = faults::arm("opt.pass", FaultAction::Panic, Some(opt_target.as_str()));
            let _panic_arm = faults::arm(
                "bmc.depth_step",
                FaultAction::Panic,
                Some(panic_target.as_str()),
            );
            let _timeout_arm = faults::arm(
                "fuzz.round",
                FaultAction::Timeout,
                Some(timeout_target.as_str()),
            );
            verify_elaborated(&design, &ft, &options)
                .unwrap_or_else(|e| panic!("{}: armed verification failed: {e}", case.id))
        };

        // The report still renders, crash included.
        let text = faulty.render();
        assert!(
            text.contains("ERROR in bmc: fault injected at bmc.depth_step"),
            "{}: report does not surface the contained panic:\n{text}",
            case.id
        );

        // Exactly the targeted properties degrade, exactly as promised.
        let panicked = row(&faulty, panic_target);
        assert_eq!(
            panicked.status,
            PropertyStatus::Error {
                engine: "bmc",
                message: "fault injected at bmc.depth_step".to_string(),
            },
            "{}: panic target `{panic_target}` has the wrong verdict",
            case.id
        );
        assert_eq!(
            row(&faulty, &opt_target).status,
            PropertyStatus::Error {
                engine: "opt",
                message: "fault injected at opt.pass".to_string(),
            },
            "{}: optimizer target `{opt_target}` has the wrong verdict",
            case.id
        );
        let timed_out = row(&faulty, timeout_target);
        assert_eq!(
            timed_out.status,
            PropertyStatus::Unknown,
            "{}: timeout target `{timeout_target}` has the wrong verdict",
            case.id
        );
        assert_eq!(
            timed_out.note.as_deref(),
            Some("undecided: budget exhausted in fuzz"),
            "{}: timeout target `{timeout_target}` lacks the budget note",
            case.id
        );

        // Everything else is byte-identical to the fault-free run.
        assert_others_unchanged(
            case.id,
            &baseline,
            &faulty,
            &[panic_target, timeout_target, &opt_target],
        );
        cases_checked += 1;
        println!(
            "{:3}: panic contained in `{panic_target}`, optimizer panic in `{opt_target}`, \
             timeout in `{timeout_target}`, {} other verdicts unchanged",
            case.id,
            baseline.results.len() - 3
        );
    }
    assert!(
        cases_checked > 0,
        "no corpus case had two safety assertions"
    );
    let (case, target) = minimizer_panic_is_contained();
    println!("{case:3}: minimizer panic contained in `{target}`, other verdicts unchanged");
    println!(
        "fault smoke: {cases_checked} case(s) degraded gracefully in {:.1?}",
        start.elapsed()
    );
}
