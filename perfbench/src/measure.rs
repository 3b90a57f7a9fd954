//! The untraced end-to-end measurement (`--trace 0`): a closed loop with one
//! client verifying the workload's runs back to back through the public
//! `generate_ft` → `verify` path, tracing off.

use crate::expect::{check_report, Class};
use crate::workload::{inputs, inputs_hash, threads, RunInput, Workload};
use crate::{median, peak_rss_mb, Metric, Outcome};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Checks every verdict of one run and its determinism.
#[derive(Debug, Default)]
pub struct Checks {
    /// `render()` of each run id as first seen in this process.
    references: HashMap<String, String>,
    /// Properties whose verdict contradicts the expectation.
    pub verdict_errors: usize,
    /// Runs whose `render()` differs from the reference.
    pub render_mismatches: usize,
    /// Checked properties.
    pub checked: usize,
    /// Decided properties.
    pub decided: usize,
}

impl Checks {
    /// Verifies `input` once and checks the report.  Returns the wall time
    /// of the call (testbench generation included) and whether the run
    /// passed every check.
    pub fn run(
        &mut self,
        input: &RunInput,
        threads: usize,
        cache: Option<&Path>,
    ) -> (Duration, bool) {
        let (wall, report) = input.verify(threads, cache);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return (wall, false);
            }
        };
        let ok = self.check(input, &report);
        (wall, ok)
    }

    /// Checks a finished report: expectations, counts, determinism.
    pub fn check(
        &mut self,
        input: &RunInput,
        report: &autosva_formal::checker::VerificationReport,
    ) -> bool {
        let errors = check_report(&input.expectation, report);
        for e in &errors {
            eprintln!("perfbench: {}: verdict error: {e}", input.id);
        }
        self.verdict_errors += errors.len();
        for r in &report.results {
            let class = Class::of(&r.status);
            self.checked += usize::from(class.checked());
            self.decided += usize::from(class.decided());
        }
        let rendered = report.render();
        let same = match self.references.get(&input.id) {
            Some(reference) => *reference == rendered,
            None => {
                self.references.insert(input.id.clone(), rendered);
                true
            }
        };
        if !same {
            eprintln!(
                "perfbench: {}: render() differs from its first run",
                input.id
            );
            self.render_mismatches += 1;
        }
        errors.is_empty() && same
    }
}

/// Empties a cache directory (not timed by any caller).
pub fn reset_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs the `--trace 0` measurement of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64, work: &Path) -> Result<Outcome, String> {
    let threads = threads();
    let cache = workload.uses_cache().then(|| work.join("cache"));
    let mut checks = Checks::default();
    let mut setup_failed = 0usize;

    // Set-up, repeated so its median is steady: generate the inputs, check
    // each one parses, elaborates and yields a testbench, and verify the
    // reference pass (from an empty cache) whose reports every later run
    // must render identically to.  For the warm workload that pass fills
    // the spill file; for every workload it also brings the machine up to
    // speed before the measured loop starts.
    const SETUP_REPS: usize = 3;
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut runs = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(dir) = &cache {
            reset_dir(dir);
        }
        let t0 = Instant::now();
        runs = inputs(workload, seed);
        for run in &runs {
            run.preflight()?;
        }
        for run in runs.iter().filter(|r| r.in_reference_pass()) {
            let (_, ok) = checks.run(run, threads, cache.as_deref());
            setup_failed += usize::from(!ok);
        }
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "perfbench: {} runs, inputs hash {:016x}, {} threads",
        runs.len(),
        inputs_hash(&runs),
        threads
    );

    // The measured closed loop: whole passes until the time is up, so every
    // run contributes equally to the percentiles.
    let mut samples: Vec<f64> = Vec::new();
    let mut run_secs = 0.0f64;
    let mut failed = 0usize;
    let (decided_before, checked_before) = (checks.decided, checks.checked);
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs() < seconds {
        if workload == Workload::CorpusCold {
            if let Some(dir) = &cache {
                reset_dir(dir);
            }
        }
        for run in &runs {
            let (wall, ok) = checks.run(run, threads, cache.as_deref());
            failed += usize::from(!ok);
            if passes == 0 {
                eprintln!(
                    "perfbench:   {:<12} {:>9.1} ms",
                    run.id,
                    wall.as_secs_f64() * 1e3
                );
            }
            samples.push(wall.as_secs_f64() * 1e3);
            run_secs += wall.as_secs_f64();
        }
        passes += 1;
    }
    // Only the measured passes count towards the throughput figures.
    let decided = checks.decided - decided_before;
    let checked = checks.checked - checked_before;
    eprintln!(
        "perfbench: {passes} passes, {} samples, {decided}/{checked} decided, \
         verdict_errors {}, render mismatches {}",
        samples.len(),
        checks.verdict_errors,
        checks.render_mismatches
    );

    let metrics = vec![
        Metric::new("run_ms.p50", median(&mut samples), "ms"),
        Metric::new("props_per_s", decided as f64 / run_secs, "1/s"),
        Metric::new(
            "decided_ratio",
            decided as f64 / checked.max(1) as f64,
            "ratio",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("setup_s", median(&mut setup_times), "s"),
    ];
    Ok(Outcome {
        correct: failed == 0 && setup_failed == 0 && checks.verdict_errors == 0,
        attempted: samples.len(),
        failed,
        metrics,
    })
}
