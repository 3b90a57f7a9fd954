//! Cache-persistence smoke: run the full corpus against an on-disk proof
//! cache, printing the (runtime-free) reports to stdout and cache counters
//! to stderr.
//!
//! CI runs this twice in **fresh processes** against the same cache
//! directory and diffs the stdout: the second (disk-warm) run must answer
//! from the spill file and render byte-identical reports.  It must also
//! rebuild every prepared model from its cached optimizer witness: no
//! optimizer sweep runs and no witness is rejected.
//!
//! ```sh
//! cargo run --release -p autosva-bench --example cache_smoke -- /tmp/cache > cold.txt
//! cargo run --release -p autosva-bench --example cache_smoke -- /tmp/cache --expect-warm > warm.txt
//! diff cold.txt warm.txt
//! ```

use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{all_cases, elaborated, Variant};
use autosva_formal::checker::{verify_elaborated, VerificationReport};
use autosva_formal::portfolio::ProofCache;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| {
        eprintln!("usage: cache_smoke <cache-dir> [--expect-warm]");
        std::process::exit(2);
    });
    let expect_warm = args.any(|a| a == "--expect-warm");

    let cache = ProofCache::open(&dir);
    if expect_warm {
        assert!(
            cache.stats().loaded > 0,
            "--expect-warm: no entries loaded from {dir} (was the cold run skipped?)"
        );
    }

    let start = Instant::now();
    let mut opt = OptCounts::default();
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let ft = build_testbench(&case);
            let design = elaborated(&case, variant);
            let mut options = default_check_options(&case, variant);
            options.parallel.cache = Some(cache.clone());
            // Telemetry never changes `render()`; it exposes the
            // optimizer counters checked below.
            options.telemetry.enabled = true;
            let report = verify_elaborated(&design, &ft, &options).expect("verification runs");
            opt.add(&report);
            // Runtime-free rendering only: stdout must be byte-identical
            // between the cold and the disk-warm process.
            print!("{}", report.render());
        }
    }
    cache.flush().expect("cache flush succeeds");

    let stats = cache.stats();
    eprintln!(
        "cache_smoke: {:.1?} checking, {} entries ({} loaded from disk), \
         {} hits / {} misses / {} inserts / {} rejected; optimizer: {} sweeps, \
         {} of {} replays, {} witnesses rejected",
        start.elapsed(),
        cache.len(),
        stats.loaded,
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.rejected,
        opt.passes,
        opt.replayed,
        opt.replay_spans,
        opt.replay_rejected
    );
    assert_eq!(stats.rejected, 0, "cache entries failed re-validation");
    if expect_warm {
        assert!(
            stats.hits > 0,
            "--expect-warm: the corpus never hit the disk-loaded cache"
        );
        assert_eq!(
            stats.insertions, 0,
            "--expect-warm: the corpus re-ran engines despite the warm cache"
        );
        assert_eq!(
            opt.passes, 0,
            "--expect-warm: the optimizer swept despite the cached witnesses"
        );
        assert_eq!(
            opt.replay_rejected, 0,
            "--expect-warm: cached optimizer witnesses failed their checks"
        );
        assert!(
            opt.replayed > 0 && opt.replayed == opt.replay_spans,
            "--expect-warm: not every prepared model was replayed from its witness"
        );
    }
}

/// Optimizer telemetry summed over the corpus.
#[derive(Default)]
struct OptCounts {
    /// `opt.pass` sweeps run.
    passes: u64,
    /// Models rebuilt from a cached witness.
    replayed: u64,
    /// Witness replays attempted (`opt.replay` spans).
    replay_spans: u64,
    /// Witnesses that failed their checks.
    replay_rejected: u64,
}

impl OptCounts {
    fn add(&mut self, report: &VerificationReport) {
        let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
        let counter = |name| telemetry.counter(name).unwrap_or(0);
        self.passes += counter("opt.passes");
        self.replayed += counter("opt.replayed");
        self.replay_rejected += counter("opt.replay_rejected");
        self.replay_spans += telemetry
            .phases()
            .get("opt.replay")
            .map_or(0, |phase| phase.spans as u64);
    }
}
