//! Golden snapshot of the optimizer's output on the whole corpus.
//!
//! For every Table III case and variant, every checked property's
//! cone-of-influence slice is optimized exactly the way the checker does
//! it (liveness slices: optimize, liveness-to-safety, optimize the
//! product), and the content fingerprint of each optimized model is listed
//! in `crates/designs/golden/opt_fingerprints.txt`.  The fingerprints are
//! the proof-cache keys, so any change to what the optimizer computes —
//! as opposed to how fast it computes it — shows up here as a diff.

use autosva_bench::build_testbench;
use autosva_designs::{all_cases, elaborated, Variant};
use autosva_formal::coi::{cone_of_influence, fingerprint, SliceTarget};
use autosva_formal::compile::{compile, CompiledKind};
use autosva_formal::opt::{optimize, optimize_with_fingerprint};

const GOLDEN: &str = include_str!("../crates/designs/golden/opt_fingerprints.txt");

/// One line per optimized model: `id variant property kind fingerprint`,
/// where `kind` is `slice` (the property's optimized COI slice) or `l2s`
/// (the optimized liveness-to-safety product of that slice).
fn corpus_fingerprints() -> String {
    let mut out = String::from("# id variant property kind fingerprint\n");
    for case in all_cases() {
        for variant in [Variant::Fixed, Variant::Buggy] {
            if variant == Variant::Buggy && !case.has_bug_parameter {
                continue;
            }
            let variant_name = match variant {
                Variant::Fixed => "fixed",
                Variant::Buggy => "buggy",
            };
            let design = elaborated(&case, variant);
            let ft = build_testbench(&case);
            let compiled = compile(&design, &ft).expect("corpus case compiles");
            for prop in &compiled.properties {
                let target = match prop.kind {
                    CompiledKind::Safety(i) => SliceTarget::Bad(i),
                    CompiledKind::Cover(i) => SliceTarget::Cover(i),
                    CompiledKind::Liveness(i) => SliceTarget::Liveness(i),
                    _ => continue,
                };
                let slice = cone_of_influence(&compiled.model, target);
                let (base, fp) = optimize_with_fingerprint(&slice.model);
                let name = prop.property.full_name();
                out.push_str(&format!("{} {variant_name} {name} slice {fp}\n", case.id));
                if matches!(target, SliceTarget::Liveness(_)) {
                    let product = optimize(&base.to_liveness_safety().model).model;
                    out.push_str(&format!(
                        "{} {variant_name} {name} l2s {}\n",
                        case.id,
                        fingerprint(&product)
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn optimized_corpus_fingerprints_match_the_golden() {
    let fresh = corpus_fingerprints();
    if fresh != GOLDEN {
        let diff: Vec<String> = GOLDEN
            .lines()
            .zip(fresh.lines())
            .filter(|(want, got)| want != got)
            .map(|(want, got)| format!("  want {want}\n  got  {got}"))
            .collect();
        panic!(
            "optimized slice fingerprints drifted from \
             crates/designs/golden/opt_fingerprints.txt ({} vs {} lines); \
             first differences:\n{}",
            GOLDEN.lines().count(),
            fresh.lines().count(),
            diff.iter().take(10).cloned().collect::<Vec<_>>().join("\n")
        );
    }
}

/// Regenerates `crates/designs/golden/opt_fingerprints.txt` in place.  Run
/// only after an intentional change to what the optimizer computes:
///
/// ```sh
/// cargo test --release --test opt_golden -- --ignored regenerate_golden
/// ```
#[test]
#[ignore = "writes the golden file; run explicitly to regenerate"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/designs/golden/opt_fingerprints.txt"
    );
    std::fs::write(path, corpus_fingerprints()).expect("write golden");
}
