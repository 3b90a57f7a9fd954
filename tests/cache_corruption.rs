//! Proof-cache corruption fuzzing (fault-containment satellite).
//!
//! The on-disk spill file is advisory: any corruption — bit flips,
//! truncation, garbage bytes — must never panic the loader and must never
//! change a verdict.  [`ProofCache::open`] keeps the clean prefix of the
//! file and drops everything from the first damaged line on; every
//! surviving entry is still re-validated on lookup.  So a run against a
//! corrupted cache renders byte-identically to a cache-less run.
//!
//! The same holds for the optimizer witnesses the spill file carries: a
//! forged witness — a false merge, a flipped polarity, a representative
//! out of order or out of range, a torn record — is rejected by the
//! replay's checks, counted in `opt.replay_rejected`, and its slice is
//! optimized from scratch, so the report matches the cold run.

use autosva::{generate_ft, AutosvaOptions};
use autosva_formal::aig::{Lit, Node};
use autosva_formal::checker::{verify, CheckOptions, VerificationReport};
use autosva_formal::coi::{cone_of_influence, fingerprint, Fingerprint, SliceTarget};
use autosva_formal::compile::{compile, CompiledKind};
use autosva_formal::elab::{elaborate, ElabOptions};
use autosva_formal::model::Model;
use autosva_formal::opt::{optimize, rebuild, replay, OPT_VERSION};
use autosva_formal::portfolio::ProofCache;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const ECHO: &str = r#"
/*AUTOSVA
cache_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module cache_echo (
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

fn run_render(cache_dir: Option<PathBuf>) -> String {
    let ft = generate_ft(ECHO, &AutosvaOptions::default()).unwrap();
    let mut options = CheckOptions::default();
    options.cache.dir = cache_dir;
    verify(ECHO, &ft, &options).unwrap().render()
}

/// The cache-less report and a pristine spill file, computed once.
fn fixtures() -> &'static (String, Vec<u8>) {
    static FIXTURES: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let baseline = run_render(None);
        let seed_dir =
            std::env::temp_dir().join(format!("autosva-cache-corrupt-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&seed_dir);
        let cached = run_render(Some(seed_dir.clone()));
        assert_eq!(
            baseline, cached,
            "cache-backed run diverged before any corruption"
        );
        let bytes = std::fs::read(seed_dir.join("proofs.cache")).expect("spill file written");
        assert!(
            !bytes.is_empty(),
            "spill file is empty — nothing to corrupt"
        );
        let _ = std::fs::remove_dir_all(&seed_dir);
        (baseline, bytes)
    })
}

proptest! {
    #[test]
    fn corrupted_spill_files_never_panic_or_change_verdicts(
        kind in 0usize..3,
        pos in 0usize..65_536,
        mask in 1u8..255,
    ) {
        let (baseline, pristine) = fixtures();
        let mut bytes = pristine.clone();
        let pos = pos % bytes.len();
        match kind {
            // One flipped byte.
            0 => bytes[pos] ^= mask,
            // Truncation mid-file (a crashed writer's torn tail).
            1 => bytes.truncate(pos),
            // A run of three clobbered bytes (may break UTF-8 entirely,
            // which must degrade to "no cache", not a panic).
            _ => {
                for i in 0..3 {
                    let p = (pos + i) % bytes.len();
                    bytes[p] ^= mask;
                }
            }
        }

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "autosva-cache-corrupt-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("proofs.cache"), &bytes).unwrap();

        // Opening the corrupted file must not panic, and the clean prefix
        // (whatever it is) must load as ordinary advisory entries.
        let _cache = ProofCache::open(&dir);

        // A full run against the corrupted cache re-validates every hit,
        // re-proves every reject, and renders exactly the cache-less report.
        let render = run_render(Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&render, baseline);
    }
}

/// A verification of `ECHO` against the spill file in `dir`, with
/// telemetry on so the optimizer counters are visible.
fn run_report(dir: &std::path::Path) -> VerificationReport {
    let ft = generate_ft(ECHO, &AutosvaOptions::default()).unwrap();
    let mut options = CheckOptions::default();
    options.cache.dir = Some(dir.to_path_buf());
    options.telemetry.enabled = true;
    verify(ECHO, &ft, &options).unwrap()
}

/// The value of telemetry counter `name` in `report` (0 when absent).
fn counter(report: &VerificationReport, name: &str) -> u64 {
    let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
    telemetry.counter(name).unwrap_or(0)
}

/// The distinct raw cone-of-influence slices of `ECHO`'s checked
/// properties: the models the checker hands to the optimizer first.
fn raw_slices() -> Vec<Model> {
    let ft = generate_ft(ECHO, &AutosvaOptions::default()).unwrap();
    let file = svparse::parse(ECHO).unwrap();
    let elab_options = ElabOptions {
        top: Some(ft.dut_name.clone()),
        ..ElabOptions::default()
    };
    let design = elaborate(&file, &elab_options).unwrap();
    let compiled = compile(&design, &ft).unwrap();
    let mut seen: Vec<Fingerprint> = Vec::new();
    let mut slices = Vec::new();
    for p in &compiled.properties {
        let target = match p.kind {
            CompiledKind::Safety(i) => SliceTarget::Bad(i),
            CompiledKind::Cover(i) => SliceTarget::Cover(i),
            CompiledKind::Liveness(i) => SliceTarget::Liveness(i),
            _ => continue,
        };
        let slice = cone_of_influence(&compiled.model, target);
        if !seen.contains(&slice.fingerprint) {
            seen.push(slice.fingerprint);
            slices.push(slice.model);
        }
    }
    slices
}

/// A one-pass witness record for the model with fingerprint `raw`, in the
/// spill file's format, claiming that it rebuilds to `optimized`.
fn witness_record(raw: Fingerprint, optimized: Fingerprint, facts: &[(usize, Lit)]) -> String {
    let mut record = format!(
        "witness {:016x} {:016x} {OPT_VERSION} {:016x} {:016x} 1\npass",
        raw.0, raw.1, optimized.0, optimized.1
    );
    for &(node, rep) in facts {
        record.push_str(&format!(" {node} {}", rep.raw()));
    }
    record.push('\n');
    record
}

/// `spill` with the witness record keyed `raw` replaced by `record`.
fn replace_witness(spill: &str, raw: Fingerprint, record: &str) -> String {
    let key = format!("witness {:016x} {:016x} ", raw.0, raw.1);
    let mut out = String::new();
    let mut lines = spill.lines();
    let mut replaced = false;
    while let Some(line) = lines.next() {
        if let Some(header) = line.strip_prefix(key.as_str()) {
            let passes: usize = header.rsplit(' ').next().unwrap().parse().unwrap();
            for _ in 0..passes {
                lines.next();
            }
            out.push_str(record);
            replaced = true;
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(
        replaced,
        "the cold run stored a witness for every raw slice"
    );
    out
}

#[test]
fn forged_optimizer_witnesses_are_rejected_counted_and_reoptimized() {
    let root = std::env::temp_dir().join(format!("autosva-witness-forgery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold_dir = root.join("cold");
    let cold = run_report(&cold_dir);
    assert_eq!(counter(&cold, "opt.replayed"), 0);
    let spill = std::fs::read_to_string(cold_dir.join("proofs.cache")).unwrap();
    // The pristine spill file replays every prepared model.
    let warm = run_report(&cold_dir);
    assert_eq!(warm.render(), cold.render());
    let prepared = counter(&warm, "opt.replayed");
    assert!(prepared > 0);
    assert_eq!(
        (
            counter(&warm, "opt.passes"),
            counter(&warm, "opt.replay_rejected")
        ),
        (0, 0)
    );

    // The largest raw slice: it has a genuine fact to flip, latches to
    // merge falsely, and a gate reading an input.
    let (model, genuine) = raw_slices()
        .into_iter()
        .map(|m| {
            let w = optimize(&m).witness;
            (m, w)
        })
        .max_by_key(|(m, _)| m.aig.num_nodes())
        .unwrap();
    let aig = &model.aig;
    let n = aig.num_nodes();
    let raw = fingerprint(&model);
    let facts = &genuine.passes[0];
    let merged = |node: usize| facts.iter().any(|&(f, _)| f == node);
    let free: Vec<_> = aig.latches().iter().filter(|l| !merged(l.node)).collect();
    let (a, b) = (free[0], free[1]);
    // `b = a` with the polarity that agrees (or disagrees) at reset.
    let agreeing = Lit::new(a.node, a.init != b.init);
    let (gate, input) = (1..n)
        .find_map(|g| match aig.node(g) {
            Node::And(a, b) if !merged(g) => [a, b]
                .into_iter()
                .find(|l| matches!(aig.node(l.node()), Node::Input))
                .map(|l| (g, l)),
            _ => None,
        })
        .expect("a gate reads an input");
    let (fact_node, fact_rep) = facts[0];

    // Semantic forgeries claim exactly the model they would rebuild, so
    // only the replay's reset and induction checks can refuse them.
    let semantic: Vec<(&str, Vec<(usize, Lit)>)> = vec![
        ("false latch merge", vec![(b.node, agreeing)]),
        ("false gate merge", vec![(gate, input)]),
        ("flipped polarity", vec![(fact_node, fact_rep.invert())]),
        (
            "merge whose reset values disagree",
            vec![(b.node, agreeing.invert())],
        ),
        (
            "constant off its reset value",
            vec![(a.node, Lit::FALSE.invert_if(!a.init))],
        ),
    ];
    let mut forgeries: Vec<(&str, String)> = Vec::new();
    for (what, facts) in semantic {
        let witness = autosva_formal::opt::OptWitness {
            passes: vec![facts.clone()],
        };
        assert!(
            replay(&model, &witness).is_none(),
            "{what} passed the replay checks"
        );
        let claimed = fingerprint(&rebuild(&model, &facts));
        forgeries.push((what, witness_record(raw, claimed, &facts)));
    }
    let optimized = fingerprint(&optimize(&model).model);
    let last_gate = (1..n)
        .rev()
        .find(|&g| matches!(aig.node(g), Node::And(..)))
        .unwrap();
    forgeries.push((
        "representative not earlier than its node",
        witness_record(raw, optimized, &[(last_gate, Lit::new(last_gate, false))]),
    ));
    forgeries.push((
        "node out of range",
        witness_record(raw, optimized, &[(n + 5, Lit::FALSE)]),
    ));
    let mut torn = witness_record(raw, optimized, &genuine.passes[0]);
    torn.truncate(torn.trim_end().rfind(' ').unwrap());
    torn.push('\n');
    forgeries.push(("truncated record", torn));

    for (i, (what, record)) in forgeries.iter().enumerate() {
        let dir = root.join(format!("forged-{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("proofs.cache"),
            replace_witness(&spill, raw, record),
        )
        .unwrap();
        let report = run_report(&dir);
        assert_eq!(report.render(), cold.render(), "{what} changed the report");
        assert_eq!(
            counter(&report, "opt.replay_rejected"),
            1,
            "{what} was not rejected"
        );
        // Loading stops at a torn record, so later witnesses are lost too.
        let replayed = counter(&report, "opt.replayed");
        if *what == "truncated record" {
            assert!(replayed < prepared, "{what}");
        } else {
            assert_eq!(replayed, prepared - 1, "{what}");
        }
        assert!(
            counter(&report, "opt.passes") > 0,
            "{what}: the slice was not re-optimized"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
