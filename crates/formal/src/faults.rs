//! Fault-injection harness: named injection sites inside the engines
//! that tests (and the `fault_smoke` example) can arm to force a panic,
//! a spurious timeout, or a delay at a precise point in the cascade.
//!
//! Compiled only under `cfg(any(test, feature = "fault-injection"))`;
//! production builds carry no trace of it.  Engines mark their
//! interruption points with [`point`]:
//!
//! ```ignore
//! #[cfg(any(test, feature = "fault-injection"))]
//! crate::faults::point("pdr.block_cube");
//! ```
//!
//! Tests arm a site with [`arm`], which returns a guard that disarms on
//! drop.  `cargo test` runs many tests at once in one process, often on
//! the same designs and property names, so a property filter alone cannot
//! keep them apart.  Every arm is therefore *scoped*: it records the scope
//! token of the thread that armed it ([`interrupt::current_scope`]), the
//! checker carries the calling thread's token into every worker's task
//! context, and a site fires only for arms of the scope it runs in.  A
//! site holds any number of arms, one per test if need be.  On top of the
//! scope, an arm can carry a *property filter*: the fault only fires while
//! the thread-local task context (see [`crate::interrupt`]) says the named
//! property is running.
//!
//! The three actions map to the three fault classes the containment
//! layer must absorb:
//!
//! * [`FaultAction::Panic`] — the site panics with a recognizable
//!   message, exercising `catch_unwind` → `PropertyStatus::Error`;
//! * [`FaultAction::Timeout`] — the site latches [`InterruptReason::Timeout`]
//!   on the current task's interrupt handle, exercising the cooperative
//!   preemption paths deterministically (no wall clock involved);
//! * [`FaultAction::Delay`] — the site sleeps, for schedule-perturbation
//!   tests.
//!
//! [`InterruptReason::Timeout`]: crate::interrupt::InterruptReason::Timeout

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

use crate::interrupt::{self, InterruptReason};

/// What an armed site does when hit.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with `fault injected at <site>`.
    Panic,
    /// Latch a spurious [`InterruptReason::Timeout`] on the current
    /// task's interrupt handle.
    Timeout,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
}

#[derive(Debug, Clone)]
struct Arm {
    action: FaultAction,
    /// The scope token of the arming thread.
    scope: u64,
    /// Fire only while this property is running (`None` = any task).
    property: Option<String>,
    /// Fire at most this many times (`u64::MAX` = every hit).
    remaining: u64,
    /// Monotonic arm id, so a guard only disarms its own arm.
    id: u64,
}

static ARM_ID: AtomicU64 = AtomicU64::new(1);

/// Every live arm, by site.
fn registry() -> &'static Mutex<HashMap<&'static str, Vec<Arm>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Vec<Arm>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Guard returned by [`arm`]; disarms the site on drop.
#[derive(Debug)]
pub struct FaultGuard {
    site: &'static str,
    id: u64,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(arms) = map.get_mut(self.site) {
            arms.retain(|arm| arm.id != self.id);
            if arms.is_empty() {
                map.remove(self.site);
            }
        }
    }
}

/// Arms `site` with `action` in the calling thread's scope, firing only
/// while `property` (if given) is the current task.  Arming a site again
/// adds another arm; a hit fires the oldest one that matches.  The fault
/// fires on every hit until the guard drops; use [`arm_once`] for a
/// single-shot fault.
pub fn arm(site: &'static str, action: FaultAction, property: Option<&str>) -> FaultGuard {
    arm_with_count(site, action, property, u64::MAX)
}

/// Like [`arm`], but the fault fires at most once.
pub fn arm_once(site: &'static str, action: FaultAction, property: Option<&str>) -> FaultGuard {
    arm_with_count(site, action, property, 1)
}

fn arm_with_count(
    site: &'static str,
    action: FaultAction,
    property: Option<&str>,
    count: u64,
) -> FaultGuard {
    let id = ARM_ID.fetch_add(1, Ordering::Relaxed);
    let arm = Arm {
        action,
        scope: interrupt::current_scope(),
        property: property.map(str::to_string),
        remaining: count,
        id,
    };
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(site)
        .or_default()
        .push(arm);
    FaultGuard { site, id }
}

/// A named injection site.  No-op unless `site` holds an arm of the
/// current scope whose property filter matches the current task and whose
/// count is not spent.  Engines call this at the same places they poll
/// their interrupt handle.
pub fn point(site: &str) {
    // Fast path: completely unarmed harness.  One uncontended lock; the
    // map is almost always empty.
    let action = {
        let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        if map.is_empty() {
            return;
        }
        let Some(arms) = map.get_mut(site) else {
            return;
        };
        let scope = interrupt::current_scope();
        let running = interrupt::current_task().map(|c| c.property);
        let Some(arm) = arms.iter_mut().find(|arm| {
            arm.scope == scope
                && arm.remaining > 0
                && arm
                    .property
                    .as_deref()
                    .is_none_or(|wanted| running.as_deref() == Some(wanted))
        }) else {
            return;
        };
        if arm.remaining != u64::MAX {
            arm.remaining -= 1;
        }
        arm.action.clone()
    };
    match action {
        FaultAction::Panic => panic!("fault injected at {site}"),
        FaultAction::Timeout => {
            if let Some(ctx) = interrupt::current_task() {
                ctx.interrupt.fire(InterruptReason::Timeout);
            }
        }
        FaultAction::Delay(d) => std::thread::sleep(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interrupt::Interrupt;

    #[test]
    fn unarmed_points_are_no_ops() {
        point("tests.nothing_armed");
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = arm("tests.guarded", FaultAction::Delay(Duration::ZERO), None);
        }
        point("tests.guarded"); // must not fire anything
    }

    #[test]
    fn property_filter_gates_the_fault() {
        let _g = arm(
            "tests.filtered",
            FaultAction::Panic,
            Some("as__someone_else"),
        );
        interrupt::set_task_context(
            "as__this_test",
            Interrupt::none(),
            interrupt::current_scope(),
        );
        point("tests.filtered"); // filter mismatch: no panic
        interrupt::clear_task_context();
        point("tests.filtered"); // no task at all: no panic
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        let _g = arm("tests.boom", FaultAction::Panic, None);
        let caught = std::panic::catch_unwind(|| point("tests.boom"));
        let payload = caught.expect_err("site must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert_eq!(msg, "fault injected at tests.boom");
    }

    #[test]
    fn timeout_action_latches_the_current_interrupt() {
        let interrupt = Interrupt::new(None, None, None);
        interrupt::set_task_context(
            "as__timeout_probe",
            interrupt.clone(),
            interrupt::current_scope(),
        );
        let _g = arm(
            "tests.spurious_timeout",
            FaultAction::Timeout,
            Some("as__timeout_probe"),
        );
        point("tests.spurious_timeout");
        interrupt::clear_task_context();
        assert_eq!(interrupt.triggered(), Some(InterruptReason::Timeout));
    }

    #[test]
    fn arm_once_fires_exactly_once() {
        let interrupt = Interrupt::new(None, None, None);
        interrupt::set_task_context(
            "as__once_probe",
            interrupt.clone(),
            interrupt::current_scope(),
        );
        let _g = arm_once("tests.once", FaultAction::Timeout, Some("as__once_probe"));
        point("tests.once");
        assert_eq!(interrupt.triggered(), Some(InterruptReason::Timeout));
        // A second hit would need a fresh interrupt to observe; the
        // remaining-count reaching zero is what we assert here.
        let map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let remaining: Vec<u64> = map["tests.once"].iter().map(|a| a.remaining).collect();
        assert_eq!(remaining, vec![0]);
        drop(map);
        interrupt::clear_task_context();
    }

    #[test]
    fn arms_fire_only_in_the_scope_that_set_them() {
        let _g = arm("tests.scoped", FaultAction::Panic, Some("as__shared_name"));
        // Another thread (another test's run) with the same property name.
        std::thread::spawn(|| {
            interrupt::set_task_context(
                "as__shared_name",
                Interrupt::none(),
                interrupt::current_scope(),
            );
            point("tests.scoped"); // foreign scope: no panic
            interrupt::clear_task_context();
        })
        .join()
        .expect("a foreign scope never fires the arm");
        // A worker carrying the arming thread's scope does fire it.
        let scope = interrupt::current_scope();
        let worker = std::thread::spawn(move || {
            interrupt::set_task_context("as__shared_name", Interrupt::none(), scope);
            point("tests.scoped");
        });
        assert!(worker.join().is_err(), "the run's own scope fires the arm");
    }

    #[test]
    fn a_site_holds_one_arm_per_scope() {
        let interrupt = Interrupt::new(None, None, None);
        let _mine = arm("tests.shared_site", FaultAction::Timeout, None);
        let other = std::thread::spawn(|| arm("tests.shared_site", FaultAction::Panic, None))
            .join()
            .expect("arming never panics");
        interrupt::set_task_context(
            "as__shared_probe",
            interrupt.clone(),
            interrupt::current_scope(),
        );
        point("tests.shared_site"); // the other arm neither replaced nor preempted ours
        interrupt::clear_task_context();
        assert_eq!(interrupt.triggered(), Some(InterruptReason::Timeout));
        drop(other);
    }
}
