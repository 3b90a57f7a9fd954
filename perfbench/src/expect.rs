//! Hand-written verdict expectations and the verdict classes the benchmark
//! compares.
//!
//! Nothing here is captured from checker output.  The corpus expectations
//! restate Table III and the reasoning of `tests/table3.rs` over the RTL in
//! `crates/designs/rtl/`; the scaled expectations follow from how
//! [`crate::scaled`] builds its buffers.

use crate::scaled::ScaledDesign;
use autosva_designs::Variant;
use autosva_formal::checker::{PropertyStatus, VerificationReport};

/// The verdict class of one property: what the agreement and expectation
/// checks compare (traces, proof artifacts and runtimes are ignored here;
/// the determinism check covers them through `render()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Proven (any engine).
    Proven,
    /// Counterexample found.
    Violated,
    /// Cover witness found.
    Covered,
    /// Cover target proven unreachable.
    Unreachable,
    /// Undecided within the bounds or the budget.
    Unknown,
    /// The checking engine panicked.
    Error,
    /// Not checked by the formal engine (assumptions, X-propagation).
    NotChecked,
}

impl Class {
    /// The class of a checker status.
    pub fn of(status: &PropertyStatus) -> Class {
        match status {
            PropertyStatus::Proven(_) => Class::Proven,
            PropertyStatus::Violated(_) => Class::Violated,
            PropertyStatus::Covered(_) => Class::Covered,
            PropertyStatus::Unreachable => Class::Unreachable,
            PropertyStatus::Unknown => Class::Unknown,
            PropertyStatus::Error { .. } => Class::Error,
            PropertyStatus::NotChecked(_) => Class::NotChecked,
        }
    }

    /// `true` for properties the formal engine checks.
    pub fn checked(self) -> bool {
        self != Class::NotChecked
    }

    /// `true` for a definitive verdict; `Unknown` and `Error` are
    /// undecided.
    pub fn decided(self) -> bool {
        matches!(
            self,
            Class::Proven | Class::Violated | Class::Covered | Class::Unreachable
        )
    }
}

/// The expected outcome of one design/variant run.
///
/// Every generated property's class follows from its name: assumptions
/// (`am__`) and X-propagation checks are not checked, covers (`co__`) are
/// covered (every annotated transaction can happen), and an assertion
/// (`as__`) is violated exactly when its name ends with one of `violated`
/// and proven otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// `<transaction>_<property kind>` suffixes of the assertions the bug
    /// violates.
    pub violated: Vec<String>,
}

impl Expectation {
    fn of(violated: &[&str]) -> Expectation {
        Expectation {
            violated: violated.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Table III expectations for a corpus design/variant.
    ///
    /// # Panics
    ///
    /// Panics for a paper id outside the corpus.
    pub fn corpus(id: &str, variant: Variant) -> Expectation {
        match (id, variant) {
            // Every fixed variant proves 100% (Table III: "100% proof", "Bug
            // found and fixed -> 100% proof", and the fixes of the two
            // known bugs), except O2, below.
            (_, Variant::Fixed) if id != "O2" => Expectation::of(&[]),
            // A3, Bug1: a misaligned access raises the LSU response with no
            // request in flight.  The ghost response fails
            // `had_a_request`; it also decrements the testbench's
            // outstanding counter with nothing outstanding, so the counter
            // wraps (`request_active` then sees an "outstanding" request
            // while the walker is idle) and the sampled request data no
            // longer matches the response (`data_integrity`).  Real
            // requests are still served, so both liveness properties and
            // the whole ITLB transaction hold.
            ("A3", Variant::Buggy) => Expectation::of(&[
                "mmu_lsu_had_a_request",
                "mmu_lsu_data_integrity",
                "mmu_lsu_request_active",
            ]),
            // A4, issue #538: an exception kills the in-flight load, whose
            // response then never comes.  No response is ever raised
            // without a load, so `had_a_request` holds.
            ("A4", Variant::Buggy) => Expectation::of(&["lsu_load_eventual_response"]),
            // A5, issue #474: a flush drops the in-flight fetch, so its
            // response never comes.  Each dropped fetch stays counted as
            // outstanding; enough of them wrap the testbench's outstanding
            // counter to zero, after which a legitimate response appears to
            // have had no request.
            ("A5", Variant::Buggy) => Expectation::of(&[
                "icache_fetch_eventual_response",
                "icache_fetch_had_a_request",
            ]),
            // O1, Bug2: ready while full, so an overflowing request is lost
            // (the deadlock), and lost requests wrap the outstanding counter
            // exactly as in A5.
            ("O1", Variant::Buggy) => {
                Expectation::of(&["noc_txn_eventual_response", "noc_txn_had_a_request"])
            }
            // O2, "NoC Buffer proof, other CEXs": nothing forces the NoC to
            // ever return a fill, so a miss may wait forever — its response
            // never comes and, while it waits, the next request is never
            // accepted.  Every response still had a request, and the NoC
            // side is an outgoing transaction whose properties are
            // assumptions.
            ("O2", Variant::Fixed) => {
                Expectation::of(&["l15_miss_hsk_or_drop", "l15_miss_eventual_response"])
            }
            _ => panic!("no Table III expectation for {id}/{variant:?}"),
        }
    }

    /// Construction-derived expectations for a generated buffer: a fixed
    /// buffer proves everything; a buggy one drops a request pushed while
    /// full, so that request is never answered (`eventual_response`), and
    /// lost requests keep the testbench's outstanding counter climbing until
    /// it wraps to zero while a request with the tracked ID is still queued,
    /// whose response then appears to have had no request
    /// (`had_a_request`).  Requests are always accepted in the buggy
    /// variant, so `hsk_or_drop` holds in both.
    pub fn scaled(design: &ScaledDesign) -> Expectation {
        if design.buggy {
            Expectation {
                violated: vec![
                    format!("{}_eventual_response", design.txn),
                    format!("{}_had_a_request", design.txn),
                ],
            }
        } else {
            Expectation::of(&[])
        }
    }

    /// The expected class of the property named `name`.
    pub fn class_for(&self, name: &str) -> Class {
        if name.starts_with("am__") || name.ends_with("_xprop") {
            Class::NotChecked
        } else if name.starts_with("co__") {
            Class::Covered
        } else if self.violated.iter().any(|v| name.ends_with(v.as_str())) {
            Class::Violated
        } else {
            Class::Proven
        }
    }
}

/// Compares a report against its expectation.  Returns one message per
/// property whose verdict contradicts the expectation, plus one per
/// expected violation whose property is missing from the report.
pub fn check_report(expectation: &Expectation, report: &VerificationReport) -> Vec<String> {
    let mut errors: Vec<String> = report
        .results
        .iter()
        .filter_map(|r| {
            let expected = expectation.class_for(&r.name);
            let got = Class::of(&r.status);
            (expected != got).then(|| format!("{}: expected {expected:?}, got {got:?}", r.name))
        })
        .collect();
    for v in &expectation.violated {
        if !report.results.iter().any(|r| r.name.ends_with(v.as_str())) {
            errors.push(format!("{v}: expected a violation, property missing"));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_names() {
        let e = Expectation::corpus("O1", Variant::Buggy);
        assert_eq!(
            e.class_for("as__noc_txn_eventual_response"),
            Class::Violated
        );
        assert_eq!(e.class_for("as__noc_txn_hsk_or_drop"), Class::Proven);
        assert_eq!(e.class_for("co__noc_txn_request_happens"), Class::Covered);
        assert_eq!(
            e.class_for("am__noc_txn_response_hsk_or_drop"),
            Class::NotChecked
        );
        assert_eq!(e.class_for("as__noc_txn_request_xprop"), Class::NotChecked);
        let fixed = Expectation::corpus("O1", Variant::Fixed);
        assert_eq!(
            fixed.class_for("as__noc_txn_eventual_response"),
            Class::Proven
        );
    }
}
