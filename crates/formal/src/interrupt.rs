//! Run-wide interrupt and budget handles for cooperative engine
//! preemption.
//!
//! Every long-running loop in the verification cascade — the CDCL search
//! loop, PDR's obligation queue, the explicit engine's frontier sweep,
//! BMC's depth steps and the fuzzer's rounds — polls a shared
//! [`Interrupt`] handle so a per-property wall-clock deadline, a step
//! budget or the run-wide cancellation flag can stop a solve *inside*
//! the engine rather than between cascade stages.  An interrupted solve
//! surfaces as an explicit `Interrupted` outcome (never as a fake
//! `Sat`/`Unsat`), which the checker maps to
//! [`PropertyStatus::Unknown`] with a note naming the engine that was
//! preempted.
//!
//! The handle is deliberately cheap: a disarmed [`Interrupt`] (the
//! default) is a `None` and both [`Interrupt::poll`] and
//! [`Interrupt::triggered`] cost one branch.  An armed handle reads one
//! relaxed atomic on the fast path; `Instant::now` is only consulted by
//! `poll`, which callers invoke at a coarse cadence (every N conflicts,
//! once per frontier state, once per unrolling depth).
//!
//! Once any source fires, the handle latches: every later `poll` and
//! `triggered` reports the same [`InterruptReason`].  The latch is what
//! keeps downstream verdicts sound — engines check [`Interrupt::triggered`]
//! after a solve before trusting its result, so a solve that raced the
//! deadline can never be misread as a completed proof.
//!
//! [`PropertyStatus::Unknown`]: crate::checker::PropertyStatus::Unknown

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an [`Interrupt`] fired.  Ordered by precedence: once a reason is
/// latched, later sources cannot overwrite it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The run-wide cancellation flag was raised (e.g. `stop_on_violation`).
    Cancelled,
    /// The wall-clock deadline passed.
    Timeout,
    /// The step/conflict budget was exhausted.
    Budget,
}

impl InterruptReason {
    fn from_code(code: u8) -> Option<InterruptReason> {
        match code {
            1 => Some(InterruptReason::Cancelled),
            2 => Some(InterruptReason::Timeout),
            3 => Some(InterruptReason::Budget),
            _ => None,
        }
    }

    fn code(self) -> u8 {
        match self {
            InterruptReason::Cancelled => 1,
            InterruptReason::Timeout => 2,
            InterruptReason::Budget => 3,
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Wall-clock point past which `poll` fires `Timeout`.
    deadline: Option<Instant>,
    /// Remaining step budget; `u64::MAX` means unbounded.  Saturates at
    /// zero, at which point `charge` fires `Budget`.
    budget: AtomicU64,
    /// Shared cancellation flag, observed by `poll`.
    cancel: Option<Arc<AtomicBool>>,
    /// Sticky latch: 0 = live, else an `InterruptReason` code.
    fired: AtomicU8,
}

impl Inner {
    /// Latches `reason` if nothing fired yet; returns the reason that is
    /// latched after the call (first writer wins).
    fn latch(&self, reason: InterruptReason) -> InterruptReason {
        match self
            .fired
            .compare_exchange(0, reason.code(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => reason,
            Err(prev) => InterruptReason::from_code(prev).unwrap_or(reason),
        }
    }
}

/// Shared, cloneable interrupt handle.  The default handle is disarmed
/// and never fires; [`Interrupt::new`] arms any combination of a
/// deadline, a step budget and a cancellation flag.
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    inner: Option<Arc<Inner>>,
}

impl Interrupt {
    /// A handle that never fires.  Polling it is a single branch.
    pub fn none() -> Interrupt {
        Interrupt::default()
    }

    /// Arms a handle.  `deadline` is an absolute wall-clock point,
    /// `budget` a number of abstract steps (SAT conflicts, PDR queries,
    /// explicit states...), `cancel` the run-wide cancellation flag.
    /// Passing `None` for all three still produces an armed handle that
    /// only fires via [`Interrupt::fire`] (fault injection uses this).
    pub fn new(
        deadline: Option<Instant>,
        budget: Option<u64>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Interrupt {
        Interrupt {
            inner: Some(Arc::new(Inner {
                deadline,
                budget: AtomicU64::new(budget.unwrap_or(u64::MAX)),
                cancel,
                fired: AtomicU8::new(0),
            })),
        }
    }

    /// Convenience: a handle with a deadline `timeout` from now, plus an
    /// optional cancellation flag.
    pub fn with_timeout(timeout: Duration, cancel: Option<Arc<AtomicBool>>) -> Interrupt {
        Interrupt::new(Instant::now().checked_add(timeout), None, cancel)
    }

    /// Whether this handle can ever fire.  Engines may skip poll
    /// plumbing entirely when it cannot.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Checks every source — the sticky latch, the cancellation flag and
    /// the deadline — and returns the latched reason if any fired.  Call
    /// this at a coarse cadence (it reads the clock).
    pub fn poll(&self) -> Option<InterruptReason> {
        let inner = self.inner.as_deref()?;
        if let Some(reason) = InterruptReason::from_code(inner.fired.load(Ordering::Relaxed)) {
            return Some(reason);
        }
        if let Some(cancel) = &inner.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(inner.latch(InterruptReason::Cancelled));
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Some(inner.latch(InterruptReason::Timeout));
            }
        }
        None
    }

    /// Deducts `steps` from the budget and fires `Budget` on
    /// exhaustion.  Does not read the clock; combine with [`poll`] at
    /// the same call site when a deadline is also armed.
    ///
    /// [`poll`]: Interrupt::poll
    pub fn charge(&self, steps: u64) -> Option<InterruptReason> {
        let inner = self.inner.as_deref()?;
        if let Some(reason) = InterruptReason::from_code(inner.fired.load(Ordering::Relaxed)) {
            return Some(reason);
        }
        if inner.budget.load(Ordering::Relaxed) == u64::MAX {
            return None; // unbounded sentinel: never decremented
        }
        let before = inner.budget.fetch_sub(steps, Ordering::Relaxed);
        if before <= steps {
            // The subtraction may have wrapped, but the latch below is
            // what every later call observes, so the wrapped value is
            // never misread as a fresh budget.
            return Some(inner.latch(InterruptReason::Budget));
        }
        None
    }

    /// The wall-clock deadline this handle enforces, if any.  Lets a
    /// parent handle arm child handles (the portfolio race's per-turn
    /// quanta) that keep respecting the parent's deadline.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_deref()?.deadline
    }

    /// The shared cancellation flag this handle observes, if any (see
    /// [`Interrupt::deadline`] — child handles re-arm it so a run-wide
    /// cancellation preempts them too).
    pub fn cancel_handle(&self) -> Option<Arc<AtomicBool>> {
        self.inner.as_deref()?.cancel.clone()
    }

    /// The sticky latch alone: cheap enough for per-result checks.
    /// Engines consult this *after* a solve before trusting its verdict,
    /// so an interrupted solve can never be misread as conclusive.
    pub fn triggered(&self) -> Option<InterruptReason> {
        let inner = self.inner.as_deref()?;
        InterruptReason::from_code(inner.fired.load(Ordering::Relaxed))
    }

    /// Latches `reason` directly.  Fault injection uses this to force a
    /// deterministic "timeout" without waiting on the wall clock.
    pub fn fire(&self, reason: InterruptReason) {
        if let Some(inner) = self.inner.as_deref() {
            inner.latch(reason);
        }
    }
}

thread_local! {
    /// The property task the current thread is executing: its name, its
    /// interrupt handle, and the engine stage it is in.  Set by the
    /// checker at task entry and at each cascade stage; read by the
    /// fault-injection harness (site filters, forced timeouts) and by
    /// the panic handler (to attribute a caught panic to an engine).
    static TASK_CONTEXT: RefCell<Option<TaskContext>> = const { RefCell::new(None) };
    /// This thread's own scope token, drawn on first use.
    static THREAD_SCOPE: u64 = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
}

static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

/// Thread-local description of the property task currently running.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// Property name (e.g. `as__handshake_valid`).
    pub property: String,
    /// Interrupt handle the engines on this thread are polling.
    pub interrupt: Interrupt,
    /// Engine tag for the current cascade stage (`"fuzz"`, `"bmc"`,
    /// `"pdr"`, `"explicit"`, or `"task"` outside any engine).
    pub engine: &'static str,
    /// The scope token of the thread that started the run (see
    /// [`current_scope`]); the fault-injection harness fires an arm only
    /// in the scope that set it.
    pub scope: u64,
}

/// Installs the task context for this thread.  Deliberately *not* a
/// drop-restoring guard: a panic must leave the context in place so the
/// `catch_unwind` handler can still read which engine was running.
/// `scope` is the run's token, taken with [`current_scope`] on the thread
/// that started the run.
pub fn set_task_context(property: &str, interrupt: Interrupt, scope: u64) {
    TASK_CONTEXT.with(|slot| {
        *slot.borrow_mut() = Some(TaskContext {
            property: property.to_string(),
            interrupt,
            engine: "task",
            scope,
        });
    });
}

/// Clears the task context (call after the task — including its panic
/// handler — has finished with it).
pub fn clear_task_context() {
    TASK_CONTEXT.with(|slot| {
        *slot.borrow_mut() = None;
    });
}

/// Tags the current cascade stage.  Set-only for the same reason as
/// [`set_task_context`]: an unwind must not erase the tag before the
/// panic handler reads it.
pub fn set_current_engine(engine: &'static str) {
    TASK_CONTEXT.with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            ctx.engine = engine;
        }
    });
}

/// The engine tag of the current thread's task, or `"task"` when no
/// context is installed.
pub fn current_engine() -> &'static str {
    TASK_CONTEXT.with(|slot| slot.borrow().as_ref().map(|c| c.engine).unwrap_or("task"))
}

/// The scope this thread works in: the task context's run scope while a
/// task runs, otherwise a token unique to the thread.  A run takes it on
/// the calling thread and hands it to every worker's task context, so
/// everything the run does shares its caller's scope, and two runs started
/// by different threads never do.
pub fn current_scope() -> u64 {
    TASK_CONTEXT
        .with(|slot| slot.borrow().as_ref().map(|c| c.scope))
        .unwrap_or_else(|| THREAD_SCOPE.with(|&scope| scope))
}

/// A clone of the current thread's task context, if any.
pub fn current_task() -> Option<TaskContext> {
    TASK_CONTEXT.with(|slot| slot.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_handle_never_fires() {
        let i = Interrupt::none();
        assert!(!i.is_armed());
        assert_eq!(i.poll(), None);
        assert_eq!(i.charge(1_000_000), None);
        assert_eq!(i.triggered(), None);
        i.fire(InterruptReason::Timeout);
        assert_eq!(i.triggered(), None, "firing a disarmed handle is a no-op");
    }

    #[test]
    fn deadline_fires_and_latches() {
        let i = Interrupt::new(Some(Instant::now()), None, None);
        assert_eq!(i.poll(), Some(InterruptReason::Timeout));
        assert_eq!(i.triggered(), Some(InterruptReason::Timeout));
        // A later budget exhaustion cannot overwrite the latch.
        assert_eq!(i.charge(u64::MAX / 4), Some(InterruptReason::Timeout));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let i = Interrupt::with_timeout(Duration::from_secs(3600), None);
        assert_eq!(i.poll(), None);
        assert_eq!(i.triggered(), None);
    }

    #[test]
    fn budget_fires_after_exhaustion() {
        let i = Interrupt::new(None, Some(10), None);
        assert_eq!(i.charge(4), None);
        assert_eq!(i.charge(4), None);
        assert_eq!(i.charge(4), Some(InterruptReason::Budget));
        assert_eq!(i.triggered(), Some(InterruptReason::Budget));
        assert_eq!(i.poll(), Some(InterruptReason::Budget));
    }

    #[test]
    fn cancel_flag_is_observed_by_poll() {
        let cancel = Arc::new(AtomicBool::new(false));
        let i = Interrupt::new(None, None, Some(cancel.clone()));
        assert_eq!(i.poll(), None);
        cancel.store(true, Ordering::Relaxed);
        assert_eq!(i.poll(), Some(InterruptReason::Cancelled));
        assert_eq!(i.triggered(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn clones_share_the_latch() {
        let a = Interrupt::new(None, None, None);
        let b = a.clone();
        a.fire(InterruptReason::Budget);
        assert_eq!(b.triggered(), Some(InterruptReason::Budget));
    }

    #[test]
    fn task_context_tracks_engine_tags() {
        set_task_context("as__probe", Interrupt::none(), current_scope());
        assert_eq!(current_engine(), "task");
        set_current_engine("pdr");
        assert_eq!(current_engine(), "pdr");
        let ctx = current_task().expect("context installed");
        assert_eq!(ctx.property, "as__probe");
        clear_task_context();
        assert_eq!(current_engine(), "task");
        assert!(current_task().is_none());
    }
}
