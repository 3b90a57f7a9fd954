//! The three workloads: their inputs (one per design/variant run, in the
//! seed's run order) and the checker options every run uses.

use crate::expect::Expectation;
use crate::rng::{fnv1a, Rng};
use crate::scaled::{self, ScaledDesign};
use autosva::{generate_ft, AutosvaOptions, FormalTestbench};
use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{all_cases, DesignCase, Variant};
use autosva_formal::bmc::BmcOptions;
use autosva_formal::checker::{verify, CacheOptions, CheckOptions, VerificationReport};
use autosva_formal::elab::{elaborate, ElabOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-property wall-clock budget of every run.  Far above what any
/// property takes, so it only turns a hang into an undecided property
/// (which the benchmark reports) instead of stalling the benchmark.
pub const PROPERTY_TIMEOUT: Duration = Duration::from_secs(30);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 11 Table III runs, each pass from an empty cache directory.
    CorpusCold,
    /// The 11 Table III runs against a spill file filled during set-up.
    CorpusWarm,
    /// Seed-generated FIFO buffers at the sizes of [`scaled::MENU`].
    Scaled,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        [Workload::CorpusCold, Workload::CorpusWarm, Workload::Scaled]
            .into_iter()
            .find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus_cold",
            Workload::CorpusWarm => "corpus_warm",
            Workload::Scaled => "scaled",
        }
    }

    /// `true` when runs use an on-disk proof cache.
    pub fn uses_cache(self) -> bool {
        self != Workload::Scaled
    }
}

/// What a run verifies.
#[derive(Debug, Clone)]
pub enum Design {
    /// A Table III design/variant.
    Corpus(DesignCase, Variant),
    /// A generated buffer.
    Scaled(ScaledDesign),
}

/// One design/variant run.
#[derive(Debug, Clone)]
pub struct RunInput {
    /// Seed-independent run id (`A3-buggy`, `d2w3-fixed`).
    pub id: String,
    /// The RTL text handed to `verify`.
    pub source: String,
    /// What the source is.
    pub design: Design,
    /// The hand-written expected verdicts.
    pub expectation: Expectation,
}

impl RunInput {
    /// Generates the formal testbench from the annotated source (for the
    /// corpus, including the designer assumptions Table III relies on).
    pub fn testbench(&self) -> Result<FormalTestbench, String> {
        match &self.design {
            Design::Corpus(case, _) => Ok(build_testbench(case)),
            Design::Scaled(_) => generate_ft(&self.source, &AutosvaOptions::default())
                .map_err(|e| format!("{}: testbench generation failed: {e}", self.id)),
        }
    }

    /// The checker options of this run: Table III bounds, `threads`
    /// workers, the fixed property budget, and the proof-cache directory
    /// when the workload uses one.
    pub fn options(&self, threads: usize, cache_dir: Option<&Path>) -> CheckOptions {
        match &self.design {
            Design::Corpus(case, variant) => {
                let mut options = default_check_options(case, *variant);
                options.parallel.threads = threads;
                options.parallel.property_timeout = Some(PROPERTY_TIMEOUT);
                options.cache = CacheOptions {
                    dir: cache_dir.map(Path::to_path_buf),
                };
                options
            }
            Design::Scaled(design) => scaled_options(design, threads, cache_dir),
        }
    }

    /// One timed run: testbench generation plus `verify` on the RTL text,
    /// with `threads` workers and the given cache directory.
    pub fn verify(
        &self,
        threads: usize,
        cache_dir: Option<&Path>,
    ) -> (Duration, Result<VerificationReport, String>) {
        let options = self.options(threads, cache_dir);
        let t0 = Instant::now();
        let report = self.testbench().and_then(|ft| {
            verify(&self.source, &ft, &options).map_err(|e| format!("{}: {e}", self.id))
        });
        (t0.elapsed(), report)
    }

    /// `true` when set-up verifies this run in its reference pass: every
    /// corpus run, and the first copy of the smallest scaled size in both
    /// variants (the other scaled runs take their reference from the first
    /// measured pass).
    pub fn in_reference_pass(&self) -> bool {
        match &self.design {
            Design::Corpus(..) => true,
            Design::Scaled(design) => {
                design.copy == 0
                    && Some(design.size) == scaled::MENU.iter().map(|(size, _)| *size).min()
            }
        }
    }

    /// Parses and elaborates the source and generates its testbench: the
    /// set-up check that every generated input is well formed.
    pub fn preflight(&self) -> Result<(), String> {
        let file = svparse::parse(&self.source)
            .map_err(|e| format!("{}: {}", self.id, e.render(&self.source)))?;
        let ft = self.testbench()?;
        let mut elab = self.options(1, None).elab;
        elab.top.get_or_insert(ft.dut_name.clone());
        elaborate(&file, &elab).map_err(|e| format!("{}: {e}", self.id))?;
        Ok(())
    }
}

/// Checker options for a generated buffer: the same bounds as the corpus
/// runs (`autosva_bench::default_check_options`).
pub fn scaled_options(
    design: &ScaledDesign,
    threads: usize,
    cache_dir: Option<&Path>,
) -> CheckOptions {
    let mut options = CheckOptions {
        elab: ElabOptions {
            top: Some(design.module.clone()),
            ..ElabOptions::default()
        },
        bmc: BmcOptions {
            max_depth: 25,
            max_induction: 10,
        },
        cache: CacheOptions {
            dir: cache_dir.map(Path::to_path_buf),
        },
        ..CheckOptions::default()
    };
    options.parallel.threads = threads;
    options.parallel.property_timeout = Some(PROPERTY_TIMEOUT);
    options
}

/// The runs of `workload` in the run order set by `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Vec<RunInput> {
    let mut runs: Vec<RunInput> = match workload {
        Workload::CorpusCold | Workload::CorpusWarm => all_cases()
            .into_iter()
            .flat_map(|case| {
                let variants: &[Variant] = if case.has_bug_parameter {
                    &[Variant::Buggy, Variant::Fixed]
                } else {
                    &[Variant::Fixed]
                };
                variants.iter().map(move |&variant| RunInput {
                    id: format!(
                        "{}-{}",
                        case.id,
                        if variant == Variant::Buggy {
                            "buggy"
                        } else {
                            "fixed"
                        }
                    ),
                    source: case.source.to_string(),
                    design: Design::Corpus(case, variant),
                    expectation: Expectation::corpus(case.id, variant),
                })
            })
            .collect(),
        Workload::Scaled => scaled::generate(seed)
            .into_iter()
            .map(|design| RunInput {
                id: design.label.clone(),
                source: design.source.clone(),
                expectation: Expectation::scaled(&design),
                design: Design::Scaled(design),
            })
            .collect(),
    };
    Rng::new(seed).shuffle(&mut runs);
    runs
}

/// Fingerprint of the inputs in run order (ids and sources), printed so two
/// runs with one seed can be seen to have verified the same inputs.
pub fn inputs_hash(runs: &[RunInput]) -> u64 {
    let mut bytes = Vec::new();
    for run in runs {
        bytes.extend_from_slice(run.id.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(run.source.as_bytes());
        bytes.push(0);
    }
    fnv1a(&bytes)
}

/// The worker count of every `verify` call: every available core.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_the_eleven_table_iii_runs_in_seed_order() {
        let a = inputs(Workload::CorpusCold, 1);
        assert_eq!(a.len(), 11);
        let mut ids: Vec<&str> = a.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        assert_eq!(ids.first(), Some(&"A1-fixed"));
        assert_eq!(ids.last(), Some(&"O2-fixed"));
        let b = inputs(Workload::CorpusCold, 1);
        assert_eq!(inputs_hash(&a), inputs_hash(&b));
        let order = |seed| -> Vec<String> {
            inputs(Workload::CorpusCold, seed)
                .into_iter()
                .map(|r| r.id)
                .collect()
        };
        assert!((2..6).any(|seed| order(seed) != order(1)));
    }

    #[test]
    fn every_input_passes_preflight() {
        for workload in [Workload::CorpusCold, Workload::Scaled] {
            for run in inputs(workload, 3) {
                run.preflight().unwrap();
            }
        }
    }
}
