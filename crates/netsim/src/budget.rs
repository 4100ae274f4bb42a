//! Cooperative execution budgets and cancellation.
//!
//! A [`Budget`] bounds how much work one simulation may do — wall
//! clock, dispatched events, and consecutive zero-clock-advance events
//! (the livelock signature of a timer loop that never advances time) —
//! plus an opt-in to the process-global cancel flag raised by signal
//! handlers. The running [`crate::sim::Simulator`] checks its budget
//! **between events** (see `Simulator::run_window`): integer counters
//! every event, the `Instant::now()` syscall and the cancel-flag load
//! only every [`WALL_CHECK_MASK`]+1 events, so an armed-but-untripped
//! budget costs a few ALU ops per event.
//!
//! A tripped budget **unwinds** with [`SimAbort`] as the panic payload
//! (`std::panic::panic_any`). Unwinding — rather than a `Result` from
//! `run_until` — keeps the dozens of existing call sites unchanged.
//! Supervisors catch the unwind with `catch_unwind` and downcast the
//! payload to classify the failure; the thread is joined and all
//! simulator state is dropped, so nothing is ever abandoned.
//!
//! Checks have **no side effects** while untripped: arming a budget
//! that never trips leaves every simulation byte-identical.
//!
//! Budgets reach deeply-constructed simulators through one thread-local
//! context: a worker thread calls [`set_thread_budget`] and every
//! `Simulator::new` on that thread captures it.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::time::SimTime;

/// Check the wall clock and cancel flag when `events & WALL_CHECK_MASK
/// == 0`: every 4096 events, amortizing `Instant::now()` to noise.
const WALL_CHECK_MASK: u64 = 0xFFF;

/// Cooperative execution bounds for one simulation. `Default` is fully
/// unlimited (nothing armed, one branch per event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit, measured from the `Simulator`'s construction.
    pub wall_clock: Option<Duration>,
    /// Maximum dispatched events. `repro` never arms it; it is kept as
    /// the one *deterministic* abort point, which the cancel-determinism
    /// tests need to abort a cell at any depth and check that the re-run
    /// is byte-identical (a zero wall clock always trips at the first
    /// amortized check, so it cannot vary the depth).
    pub max_events: Option<u64>,
    /// Maximum *consecutive* events dispatched at the same simulated
    /// time. A zero-advance timer loop produces one event per wakeup
    /// forever; real workloads advance the clock constantly, so even the
    /// largest same-instant burst (1024 events on a 1024-flow topology)
    /// stays orders of magnitude below
    /// [`Budget::DEFAULT_LIVELOCK_EVENTS`].
    pub livelock_events: Option<u64>,
    /// Observe the process-global cancel flag ([`request_cancel`]).
    pub observe_cancel: bool,
}

impl Budget {
    /// Default zero-advance bound used by supervisors: ~10^6 consecutive
    /// events at one timestamp is far beyond any legitimate same-instant
    /// burst but trips a tight timer loop in well under a second.
    pub const DEFAULT_LIVELOCK_EVENTS: u64 = 1_000_000;

    /// An unlimited budget (the `Default`).
    pub fn none() -> Self {
        Budget::default()
    }

    /// True when nothing is armed: the per-event check short-circuits.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }

    /// Builder: arm the wall-clock limit.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.wall_clock = Some(limit);
        self
    }

    /// Builder: arm the event-count limit.
    pub fn with_max_events(mut self, limit: u64) -> Self {
        self.max_events = Some(limit);
        self
    }

    /// Builder: arm the zero-clock-advance (livelock) bound.
    pub fn with_livelock_events(mut self, limit: u64) -> Self {
        self.livelock_events = Some(limit);
        self
    }

    /// Builder: observe the process-global cancel flag.
    pub fn with_cancel(mut self) -> Self {
        self.observe_cancel = true;
        self
    }
}

/// Why a budgeted simulation unwound. This is the panic payload thrown
/// by `panic_any` when a [`Budget`] trips; supervisors downcast it to
/// classify the failure. Messages are deterministic (they name the
/// *limit*, never elapsed wall time), so a deterministic failure
/// reproduces byte-identically when re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimAbort {
    /// The wall-clock limit elapsed.
    Deadline {
        /// The armed limit.
        limit: Duration,
    },
    /// The event budget was exhausted.
    MaxEvents {
        /// The armed limit.
        limit: u64,
    },
    /// The simulated clock stopped advancing: `events` consecutive
    /// events dispatched at time `at`.
    Livelock {
        /// The timestamp the simulation is stuck at.
        at: SimTime,
        /// The armed consecutive-event bound.
        events: u64,
    },
    /// The process-global cancel flag was raised ([`request_cancel`]).
    Cancelled,
}

impl fmt::Display for SimAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimAbort::Deadline { limit } => {
                write!(f, "sim abort: wall-clock budget exceeded ({:?})", limit)
            }
            SimAbort::MaxEvents { limit } => {
                write!(f, "sim abort: event budget exhausted ({limit} events)")
            }
            SimAbort::Livelock { at, events } => write!(
                f,
                "sim abort: livelock suspected ({events} zero-advance events at t={:.6}s)",
                at.as_secs_f64()
            ),
            SimAbort::Cancelled => write!(f, "sim abort: cancelled"),
        }
    }
}

thread_local! {
    static THREAD_BUDGET: Cell<Budget> = const { Cell::new(Budget {
        wall_clock: None,
        max_events: None,
        livelock_events: None,
        observe_cancel: false,
    }) };
}

/// Install `budget` as this thread's default: every `Simulator`
/// constructed on this thread afterwards is born with it. Supervisors
/// set it on worker threads before running a cell (and reset it after),
/// so budgets reach simulators built deep inside experiment code
/// without threading a parameter through every layer.
pub fn set_thread_budget(budget: Budget) {
    THREAD_BUDGET.with(|b| b.set(budget));
}

/// This thread's default budget (unlimited unless [`set_thread_budget`]
/// was called).
pub fn thread_budget() -> Budget {
    THREAD_BUDGET.with(Cell::get)
}

/// Process-global cancel flag. Raised (from a signal handler or any
/// thread) by [`request_cancel`]; observed, at wall-check cadence, by
/// every running simulation whose budget has `observe_cancel`.
static CANCEL: AtomicBool = AtomicBool::new(false);

/// Raise the process-global cancel flag. Async-signal-safe (a single
/// relaxed atomic store), so signal handlers may call it directly.
pub fn request_cancel() {
    CANCEL.store(true, Ordering::Relaxed);
}

/// Whether [`request_cancel`] has been called (and not reset).
pub fn cancel_requested() -> bool {
    CANCEL.load(Ordering::Relaxed)
}

/// Lower the cancel flag (tests; or a supervisor starting a new sweep).
pub fn reset_cancel() {
    CANCEL.store(false, Ordering::Relaxed);
}

/// Budget-checking state: the armed [`Budget`] plus the counters the
/// per-event check advances.
#[derive(Debug, Clone)]
pub struct BudgetState {
    budget: Budget,
    /// Absolute deadline, computed once at arming. `None` also when the
    /// limit is too far out for an `Instant` to represent.
    deadline: Option<Instant>,
    /// Fast-path skip: false means `on_event` is a single branch.
    armed: bool,
    /// `budget.max_events` with `None` flattened to `u64::MAX`, so the
    /// hot path compares against a plain integer instead of unpacking
    /// an `Option` every event.
    events_limit: u64,
    /// `budget.livelock_events`, likewise flattened to `u64::MAX`.
    livelock_limit: u64,
    events: u64,
    last_time: SimTime,
    same_time_events: u64,
}

impl BudgetState {
    /// Arm `budget` now (the wall clock starts here).
    pub fn new(budget: Budget) -> Self {
        BudgetState {
            deadline: budget
                .wall_clock
                .and_then(|limit| Instant::now().checked_add(limit)),
            armed: !budget.is_unlimited(),
            events_limit: budget.max_events.unwrap_or(u64::MAX),
            livelock_limit: budget.livelock_events.unwrap_or(u64::MAX),
            budget,
            events: 0,
            last_time: SimTime::ZERO,
            same_time_events: 0,
        }
    }

    /// Per-event check: account one event about to dispatch at `time`
    /// and unwind with [`SimAbort`] if any armed bound tripped. No-op
    /// (one branch) when nothing is armed; no side effects beyond this
    /// state while untripped.
    #[inline]
    pub fn on_event(&mut self, time: SimTime) {
        if !self.armed {
            return;
        }
        self.events += 1;
        if time == self.last_time {
            self.same_time_events += 1;
        } else {
            self.last_time = time;
            self.same_time_events = 1;
        }
        // One predictable branch guards all the tripping paths: the
        // limits are `u64::MAX` when unarmed, so untripped hot events
        // fall through on two integer compares.
        if self.events > self.events_limit || self.same_time_events >= self.livelock_limit {
            self.trip(time);
        }
        if self.events & WALL_CHECK_MASK == 0 {
            self.check_wall();
        }
    }

    /// An integer bound tripped: unwind with the matching [`SimAbort`].
    #[cold]
    fn trip(&self, time: SimTime) -> ! {
        if self.events > self.events_limit {
            std::panic::panic_any(SimAbort::MaxEvents {
                limit: self.events_limit,
            });
        }
        std::panic::panic_any(SimAbort::Livelock {
            at: time,
            events: self.livelock_limit,
        });
    }

    /// The amortized slow path: wall clock and cancel flag.
    #[cold]
    fn check_wall(&self) {
        if self.budget.observe_cancel && cancel_requested() {
            std::panic::panic_any(SimAbort::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                std::panic::panic_any(SimAbort::Deadline {
                    limit: self.budget.wall_clock.expect("deadline implies wall_clock"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catch_abort(f: impl FnOnce()) -> SimAbort {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("budget should have tripped");
        *payload
            .downcast::<SimAbort>()
            .expect("payload should be a SimAbort")
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let mut state = BudgetState::new(Budget::none());
        for i in 0..100_000u64 {
            state.on_event(SimTime::from_nanos(0));
            state.on_event(SimTime::from_nanos(i));
        }
    }

    #[test]
    fn max_events_trips_at_the_limit() {
        let mut state = BudgetState::new(Budget::none().with_max_events(100));
        for i in 0..100 {
            state.on_event(SimTime::from_nanos(i));
        }
        let abort = catch_abort(move || state.on_event(SimTime::from_nanos(100)));
        assert_eq!(abort, SimAbort::MaxEvents { limit: 100 });
    }

    #[test]
    fn livelock_counts_consecutive_same_time_events_only() {
        let mut state = BudgetState::new(Budget::none().with_livelock_events(1000));
        // Advancing time resets the streak: never trips.
        for i in 0..5_000u64 {
            state.on_event(SimTime::from_nanos(i / 2));
        }
        let abort = catch_abort(move || {
            let t = SimTime::from_nanos(7777);
            loop {
                state.on_event(t);
            }
        });
        assert_eq!(
            abort,
            SimAbort::Livelock {
                at: SimTime::from_nanos(7777),
                events: 1000
            }
        );
    }

    #[test]
    fn zero_wall_clock_trips_at_the_amortized_check() {
        let mut state = BudgetState::new(Budget::none().with_wall_clock(Duration::ZERO));
        let abort = catch_abort(move || {
            for i in 0..10_000u64 {
                state.on_event(SimTime::from_nanos(i));
            }
        });
        assert_eq!(
            abort,
            SimAbort::Deadline {
                limit: Duration::ZERO
            }
        );
    }

    #[test]
    fn cancel_flag_observed_only_when_opted_in() {
        request_cancel();
        let mut deaf = BudgetState::new(Budget::none().with_max_events(u64::MAX));
        for i in 0..10_000u64 {
            deaf.on_event(SimTime::from_nanos(i));
        }
        let mut state = BudgetState::new(Budget::none().with_cancel());
        let abort = catch_abort(move || {
            for i in 0..10_000u64 {
                state.on_event(SimTime::from_nanos(i));
            }
        });
        reset_cancel();
        assert_eq!(abort, SimAbort::Cancelled);
        assert!(!cancel_requested());
    }

    #[test]
    fn thread_budget_round_trips() {
        assert!(thread_budget().is_unlimited());
        let b = Budget::none().with_max_events(7).with_cancel();
        set_thread_budget(b);
        assert_eq!(thread_budget(), b);
        set_thread_budget(Budget::none());
    }

    #[test]
    fn abort_messages_are_deterministic() {
        assert_eq!(
            SimAbort::Deadline {
                limit: Duration::from_secs(5)
            }
            .to_string(),
            "sim abort: wall-clock budget exceeded (5s)"
        );
        assert_eq!(
            SimAbort::MaxEvents { limit: 42 }.to_string(),
            "sim abort: event budget exhausted (42 events)"
        );
        assert_eq!(
            SimAbort::Livelock {
                at: SimTime::from_millis(1500),
                events: 9
            }
            .to_string(),
            "sim abort: livelock suspected (9 zero-advance events at t=1.500000s)"
        );
        assert_eq!(SimAbort::Cancelled.to_string(), "sim abort: cancelled");
    }
}
