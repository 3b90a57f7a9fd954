//! Golden snapshot of the optimizer's output on the whole corpus.
//!
//! For every Table III case and variant, every checked property's
//! cone-of-influence slice is optimized exactly the way the checker does
//! it (liveness slices: optimize, liveness-to-safety, optimize the
//! product), and the content fingerprint of each optimized model is listed
//! in `crates/designs/golden/opt_fingerprints.txt`.  The fingerprints are
//! the proof-cache keys, so any change to what the optimizer computes —
//! as opposed to how fast it computes it — shows up here as a diff.
//!
//! The same listing is produced a second time by replaying each model's
//! optimizer witness ([`replay`], the checked path a warm proof-cache run
//! takes) instead of keeping the optimizer's output, and must match the
//! same golden file line for line.

use autosva_bench::build_testbench;
use autosva_designs::{all_cases, elaborated, Variant};
use autosva_formal::coi::{cone_of_influence, fingerprint, SliceTarget};
use autosva_formal::compile::{compile, CompiledKind};
use autosva_formal::model::Model;
use autosva_formal::opt::{optimize, replay, OPT_VERSION};

const GOLDEN: &str = include_str!("../crates/designs/golden/opt_fingerprints.txt");

/// The optimizer version the golden file was generated under, with the
/// file's FNV-1a hash.  Regenerating the golden changes the hash, and the
/// pin test then fails until `opt::OPT_VERSION` is bumped with it, so a
/// spill file written by an older optimizer never replays into models
/// that a cold run would no longer produce.
const GOLDEN_PIN: (u32, u64) = (1, 0x93b5_feaf_6653_a69f);

/// The optimizer's output for `model`, as `optimize` returns it.
fn optimized(model: &Model) -> Model {
    optimize(model).model
}

/// `model` optimized and then rebuilt from its own witness by the checked
/// replay, which must accept it.
fn replayed(model: &Model) -> Model {
    let witness = optimize(model).witness;
    replay(model, &witness).expect("the optimizer's own witness passes the replay checks")
}

/// One line per optimized model: `id variant property kind fingerprint`,
/// where `kind` is `slice` (the property's optimized COI slice) or `l2s`
/// (the optimized liveness-to-safety product of that slice), with every
/// model produced by `prepare`.
fn corpus_fingerprints(prepare: fn(&Model) -> Model) -> String {
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
                let base = prepare(&slice.model);
                let name = prop.property.full_name();
                out.push_str(&format!(
                    "{} {variant_name} {name} slice {}\n",
                    case.id,
                    fingerprint(&base)
                ));
                if matches!(target, SliceTarget::Liveness(_)) {
                    let product = prepare(&base.to_liveness_safety().model);
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

/// Panics with the first lines where `fresh` differs from the golden file.
fn assert_matches_golden(fresh: &str, what: &str) {
    if fresh != GOLDEN {
        let diff: Vec<String> = GOLDEN
            .lines()
            .zip(fresh.lines())
            .filter(|(want, got)| want != got)
            .map(|(want, got)| format!("  want {want}\n  got  {got}"))
            .collect();
        panic!(
            "{what} fingerprints drifted from \
             crates/designs/golden/opt_fingerprints.txt ({} vs {} lines); \
             first differences:\n{}",
            GOLDEN.lines().count(),
            fresh.lines().count(),
            diff.iter().take(10).cloned().collect::<Vec<_>>().join("\n")
        );
    }
}

#[test]
fn optimized_corpus_fingerprints_match_the_golden() {
    assert_matches_golden(&corpus_fingerprints(optimized), "optimized slice");
}

#[test]
fn replayed_corpus_fingerprints_match_the_golden() {
    assert_matches_golden(&corpus_fingerprints(replayed), "replayed slice");
}

/// 64-bit FNV-1a of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn the_golden_is_pinned_to_the_optimizer_version() {
    assert_eq!(
        (OPT_VERSION, fnv1a(GOLDEN)),
        GOLDEN_PIN,
        "the optimizer golden and opt::OPT_VERSION moved apart: after \
         regenerating the golden, bump OPT_VERSION and set GOLDEN_PIN to \
         (OPT_VERSION, the file's new hash)"
    );
}

/// Regenerates `crates/designs/golden/opt_fingerprints.txt` in place.  Run
/// only after an intentional change to what the optimizer computes, then
/// bump `opt::OPT_VERSION` (cached witnesses of the old optimizer must not
/// replay) and update `GOLDEN_PIN`:
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
    std::fs::write(path, corpus_fingerprints(optimized)).expect("write golden");
}
