//! Parallel sweep executor.
//!
//! Every experiment in this crate is a sweep over independent *cells*
//! (one `(flavor, parameter, seed)` simulation each). [`run_cells`]
//! fans those cells out over scoped worker threads and collects the
//! results **in input order**, so a parallel sweep's output — including
//! the serialized JSON — is bit-for-bit identical to the serial one.
//!
//! # Determinism
//!
//! Two properties make this safe to drop into any sweep:
//!
//! * each cell carries its own seed into a fresh [`Simulator`], so no
//!   RNG state is shared between cells, and
//! * results are written to the slot matching the cell's input index,
//!   so the returned `Vec` never depends on completion order.
//!
//! Scheduling (which worker runs which cell, and when) therefore cannot
//! affect any value the sweep produces — only the wall-clock time.
//!
//! # Parallelism
//!
//! The degree of parallelism is an argument: `jobs` caps the threads
//! one sweep uses (the caller's own thread plus `jobs - 1` scoped
//! helpers). `repro` runs one flat sweep per invocation, so nothing
//! nests and there is no process-wide pool to share.
//!
//! [`Simulator`]: slowcc_netsim::sim::Simulator

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

use serde::Serialize;
use slowcc_netsim::audit::{self, AuditReport};
use slowcc_netsim::budget::{self, Budget, SimAbort};

/// Lock a mutex, tolerating poison: a worker that panicked while holding
/// (or before releasing) a slot must never wedge the cells other workers
/// are still computing, so we take the data as-is. Safe here because
/// every slot is written at most once by exactly one worker.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The default `jobs` for a sweep: whatever the machine offers.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` over every cell and return the results in input order.
///
/// Cells are claimed in chunks off a shared atomic cursor (work
/// stealing: fast workers drain what slow ones leave), and each result
/// lands in the output slot of its input index, so the returned `Vec`
/// equals `cells.into_iter().map(f).collect()` exactly — see the module
/// docs for why scheduling cannot leak into the results.
///
/// At most `jobs` threads run cells: the caller's own plus
/// `jobs.min(cells) - 1` helpers. With a single cell or `jobs <= 1`
/// this degrades to the plain serial loop on the calling thread, with
/// no thread or synchronization overhead.
pub fn run_cells<I, O, F>(cells: Vec<I>, jobs: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = cells.len();
    let helpers = jobs.min(n).saturating_sub(1);
    if helpers == 0 {
        return cells.into_iter().map(f).collect();
    }

    // Cells are taken and results written strictly by index, each index
    // touched by exactly one worker; the mutexes are never contended
    // and exist to keep the executor entirely safe code.
    let slots: Vec<Mutex<Option<I>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let results: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Chunked claiming: large sweeps amortize the cursor traffic, while
    // the final chunks stay small enough to balance uneven cell costs.
    let chunk = (n / ((helpers + 1) * 8)).max(1);

    let worker = || loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + chunk).min(n) {
            let cell = lock_tolerant(&slots[i]).take().expect("cell claimed twice");
            let out = f(cell);
            *lock_tolerant(&results[i]) = Some(out);
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(worker);
        }
        // The calling thread is a worker too: `jobs` threads at most.
        worker();
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("worker finished without writing its result")
        })
        .collect()
}

/// Why an isolated cell failed: the supervision taxonomy. Every
/// variant's message is deterministic for a deterministic failure, so
/// a same-seed re-run of a broken cell reproduces the *identical*
/// `CellError`, and `failures.json` is byte-stable across `--jobs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum CellError {
    /// The cell's closure panicked; the payload is the panic message.
    Panic(String),
    /// The invariant auditor found a violation or a timer leak in one of
    /// the cell's simulations: a strict auditor panicked the cell, or a
    /// collecting one returned an unclean report (see
    /// `slowcc_netsim::audit`).
    AuditViolation(String),
    /// The cell's wall-clock or event budget ran out
    /// ([`SimAbort::Deadline`] / [`SimAbort::MaxEvents`]).
    Deadline(String),
    /// The simulated clock stopped advancing ([`SimAbort::Livelock`]).
    Livelock(String),
    /// The process-global cancel flag was raised (SIGINT/SIGTERM); the
    /// cell unwound cleanly and can be resumed.
    Interrupted,
}

impl CellError {
    /// The failure as a one-line human message.
    pub fn message(&self) -> String {
        match self {
            CellError::Panic(msg)
            | CellError::AuditViolation(msg)
            | CellError::Deadline(msg)
            | CellError::Livelock(msg) => msg.clone(),
            CellError::Interrupted => SimAbort::Cancelled.to_string(),
        }
    }

    /// The taxonomy tag, as it appears in `failures.json`.
    pub fn class(&self) -> &'static str {
        match self {
            CellError::Panic(_) => "panic",
            CellError::AuditViolation(_) => "audit-violation",
            CellError::Deadline(_) => "deadline",
            CellError::Livelock(_) => "livelock",
            CellError::Interrupted => "interrupted",
        }
    }

    /// The manifest status tag. `Deadline` keeps the historical
    /// `"timeout"` status so pre-supervisor manifests stay comparable.
    pub fn status(&self) -> &'static str {
        match self {
            CellError::Panic(_) => "panicked",
            CellError::AuditViolation(_) => "audit-violation",
            CellError::Deadline(_) => "timeout",
            CellError::Livelock(_) => "livelock",
            CellError::Interrupted => "interrupted",
        }
    }
}

/// Classify a caught panic payload into the taxonomy: a [`SimAbort`]
/// maps to its budget variant, a strict-audit panic (message prefix
/// `"audit violation"`) to [`CellError::AuditViolation`], anything else
/// to [`CellError::Panic`].
pub fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> CellError {
    match payload.downcast::<SimAbort>() {
        Ok(abort) => match *abort {
            SimAbort::Deadline { .. } | SimAbort::MaxEvents { .. } => {
                CellError::Deadline(abort.to_string())
            }
            SimAbort::Livelock { .. } => CellError::Livelock(abort.to_string()),
            SimAbort::Cancelled => CellError::Interrupted,
        },
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            if msg.starts_with("audit violation") {
                CellError::AuditViolation(msg)
            } else {
                CellError::Panic(msg)
            }
        }
    }
}

/// Extract a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Keep a tripped budget's unwind quiet: [`SimAbort`] is control flow
/// (the supervisor catches, classifies, and records it), so the default
/// "thread panicked at ..." print would be pure noise — and, for a
/// non-string payload, a misleading `Box<dyn Any>` one. Installed once,
/// wrapping whatever hook was already set; every other payload still
/// reaches the previous hook unchanged.
fn install_quiet_abort_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Run one cell under crash isolation with `budget` armed as the
/// thread-default (captured by every `Simulator` the cell builds),
/// classify any unwind into the [`CellError`] taxonomy, and hand back
/// the cell's audit report: every audited simulation the cell ran,
/// merged (`None` when none was audited). A report with a violation or
/// a timer leak fails the cell as [`CellError::AuditViolation`], in
/// either audit mode.
///
/// This runs `f` **on the calling thread** — nothing is spawned and
/// nothing can be abandoned. An over-budget, livelocked, or cancelled
/// simulation unwinds via [`SimAbort`] (destructors run, the packet
/// pool is freed, a strict auditor downgrades itself mid-unwind), the
/// unwind is caught here, and the thread moves on to its next cell.
/// The thread's audit accumulator is drained before and after `f`, so
/// a failed cell's partial simulations never reach another cell's
/// report.
///
/// Cancellation is **cooperative**: the budget is checked between the
/// simulator's events, so a cell that blocks outside the simulator
/// (e.g. on I/O) is beyond its reach — but every simulation, including
/// a zero-clock-advance livelock, unwinds within one check interval. A
/// cell started after the cancel flag rose fails fast as
/// [`CellError::Interrupted`] without running.
pub fn run_one_isolated<O>(
    budget: Budget,
    f: impl FnOnce() -> O,
) -> Result<(O, Option<AuditReport>), CellError> {
    if budget.observe_cancel && budget::cancel_requested() {
        return Err(CellError::Interrupted);
    }
    install_quiet_abort_hook();
    let prev = budget::thread_budget();
    budget::set_thread_budget(budget);
    let _ = audit::take_thread_report();
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    let report = audit::take_thread_report();
    budget::set_thread_budget(prev);
    let out = result.map_err(classify_panic)?;
    match report {
        Some(r) if !r.is_clean() => Err(CellError::AuditViolation(format!(
            "audit violation: {}",
            r.violation_messages.first().unwrap_or(&r.summary())
        ))),
        report => Ok((out, report)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use slowcc_netsim::audit::AuditMode;
    use slowcc_netsim::prelude::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Uneven per-cell cost scrambles completion order; input order
        // must survive anyway.
        let cells: Vec<u64> = (0..64).collect();
        let out = run_cells(cells.clone(), 4, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        let expected: Vec<u64> = cells.iter().map(|i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_singleton_sweeps_work() {
        assert_eq!(run_cells(Vec::<u32>::new(), 8, |x| x), Vec::<u32>::new());
        assert_eq!(run_cells(vec![41], 8, |x| x + 1), vec![42]);
    }

    /// Run 64 cells at `jobs` and return each cell's thread, in input
    /// order. Every cell sleeps briefly, so helpers get to claim some.
    fn cell_threads(jobs: usize) -> Vec<std::thread::ThreadId> {
        run_cells((0..64u64).collect(), jobs, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        })
    }

    #[test]
    fn jobs_caps_the_threads_that_run_cells() {
        let threads = cell_threads(3);
        let distinct: std::collections::HashSet<_> = threads.iter().collect();
        assert!(distinct.len() <= 3, "{} threads ran cells", distinct.len());
    }

    #[test]
    fn one_job_runs_every_cell_on_the_calling_thread() {
        let me = std::thread::current().id();
        assert!(cell_threads(1).iter().all(|&t| t == me));
    }

    #[test]
    fn nested_sweeps_complete() {
        // A cell may run a sweep of its own; each level brings its own
        // `jobs`, and everything must finish with correct results.
        let out = run_cells(vec![10u64, 20, 30], 2, |base| {
            run_cells((0..base).collect(), 2, |i| i)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![45, 190, 435]);
    }

    /// Drive a deliberately livelocked simulation: an agent whose timer
    /// loop never advances the clock. Only returns by unwinding through
    /// a tripped budget.
    fn spin_forever(seed: u64) {
        struct Spinner;
        impl slowcc_netsim::sim::Agent for Spinner {
            fn on_start(&mut self, ctx: &mut slowcc_netsim::sim::Ctx<'_>) {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut slowcc_netsim::sim::Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut slowcc_netsim::sim::Ctx<'_>) {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
        }
        let mut sim = Simulator::new(seed);
        let n = sim.add_node();
        sim.add_agent(n, Box::new(Spinner));
        sim.run_until(SimTime::from_secs(1));
    }

    /// Each cell through [`run_one_isolated`] under `budget`, the
    /// reports dropped, as `exec::run` drives a sweep.
    fn isolated<I: Send, O: Send>(
        cells: Vec<I>,
        jobs: usize,
        budget: Budget,
        f: impl Fn(I) -> O + Sync,
    ) -> Vec<Result<O, CellError>> {
        run_cells(cells, jobs, |cell| {
            run_one_isolated(budget, || f(cell)).map(|(out, _)| out)
        })
    }

    #[test]
    fn isolated_panic_fails_one_cell_without_wedging_siblings() {
        let out = isolated(vec![1u64, 2, 3, 4], 2, Budget::none(), |i| {
            if i == 3 {
                panic!("cell {i} exploded");
            }
            i * 10
        });
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].as_ref().unwrap(), &10);
        assert_eq!(out[1].as_ref().unwrap(), &20);
        match &out[2] {
            Err(CellError::Panic(msg)) => assert!(msg.contains("cell 3 exploded"), "{msg}"),
            other => panic!("expected a panic failure, got {other:?}"),
        }
        assert_eq!(out[3].as_ref().unwrap(), &40);
    }

    #[test]
    fn budget_fails_runaway_cells_and_passes_fast_ones() {
        // The livelocked cell unwinds on this worker's own thread (it is
        // joined by construction), and its siblings still complete.
        let budget = Budget::none().with_livelock_events(10_000);
        let out = isolated(vec![0u64, 1, 2], 2, budget, |i| {
            if i == 1 {
                spin_forever(i);
            }
            i
        });
        assert_eq!(out[0].as_ref().unwrap(), &0);
        match &out[1] {
            Err(CellError::Livelock(msg)) => {
                assert!(msg.contains("zero-advance"), "{msg}");
            }
            other => panic!("runaway cell should have tripped the livelock bound: {other:?}"),
        }
        assert_eq!(out[2].as_ref().unwrap(), &2);
    }

    #[test]
    fn deadline_budget_fails_a_livelocked_cell_as_deadline() {
        let budget = Budget::none().with_wall_clock(std::time::Duration::ZERO);
        let out = isolated(vec![0u64], 1, budget, spin_forever);
        match &out[0] {
            Err(CellError::Deadline(msg)) => assert!(msg.contains("wall-clock"), "{msg}"),
            other => panic!("expected a deadline failure: {other:?}"),
        }
    }

    #[test]
    fn cancel_flag_interrupts_running_and_pending_cells() {
        budget::request_cancel();
        let budget = Budget::none()
            .with_livelock_events(u64::MAX)
            .with_cancel();
        let out = isolated(vec![0u64, 1], 1, budget, spin_forever);
        budget::reset_cancel();
        // Cell 0 was already running when it observed the flag; cell 1
        // (claimed by the same serial worker afterwards) never started.
        assert_eq!(out[0], Err(CellError::Interrupted));
        assert_eq!(out[1], Err(CellError::Interrupted));
    }

    /// One 100 ms simulation of a single agent that ticks every 10 ms;
    /// with `done`, the agent calls itself finished while it ticks on,
    /// which the auditor flags as a timer leak.
    pub(crate) fn tick(done: bool) {
        struct Ticker {
            done: bool,
        }
        impl slowcc_netsim::sim::Agent for Ticker {
            fn on_start(&mut self, ctx: &mut slowcc_netsim::sim::Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut slowcc_netsim::sim::Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut slowcc_netsim::sim::Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn audit_done(&self, _now: SimTime) -> bool {
                self.done
            }
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        sim.add_agent(n, Box::new(Ticker { done }));
        sim.run_until(SimTime::from_millis(100));
    }

    #[test]
    fn each_cell_returns_its_own_audit_report_and_fails_on_a_violation() {
        let collect = Budget::none().with_audit(AuditMode::Collect);
        // One worker runs every cell, so a report leaking from one cell
        // into the next would show in the clean cells' `sims`.
        let out = run_cells(vec![0u64, 1, 2, 3], 1, |i| {
            run_one_isolated(collect, || match i {
                1 => tick(true),
                2 => {
                    let _audited = Simulator::new(0);
                    panic!("cell 2 exploded");
                }
                _ => tick(false),
            })
        });
        for i in [0, 3] {
            let ((), report) = out[i].as_ref().expect("clean cell passes");
            let report = report.as_ref().expect("audited cell returns a report");
            assert_eq!(report.sims, 1, "cell {i}: {}", report.summary());
            assert!(report.is_clean());
        }
        match &out[1] {
            Err(CellError::AuditViolation(msg)) => {
                assert!(msg.starts_with("audit violation: timer leak"), "{msg}");
            }
            other => panic!("a leaking cell must fail as an audit violation: {other:?}"),
        }
        assert_eq!(out[1].as_ref().unwrap_err().class(), "audit-violation");
        assert!(matches!(&out[2], Err(CellError::Panic(_))), "{:?}", out[2]);

        let unaudited = run_one_isolated(Budget::none(), || tick(true));
        assert_eq!(unaudited, Ok(((), None)));
    }

    #[test]
    fn classification_covers_the_taxonomy() {
        let caught =
            std::panic::catch_unwind(|| panic!("audit violation: pool diverged")).unwrap_err();
        match classify_panic(caught) {
            CellError::AuditViolation(msg) => assert!(msg.contains("pool diverged")),
            other => panic!("expected an audit violation: {other:?}"),
        }
        let caught = std::panic::catch_unwind(|| panic!("plain boom")).unwrap_err();
        assert_eq!(classify_panic(caught), CellError::Panic("plain boom".into()));
        let abort: Box<dyn std::any::Any + Send> = Box::new(SimAbort::Cancelled);
        assert_eq!(classify_panic(abort), CellError::Interrupted);
        let abort: Box<dyn std::any::Any + Send> = Box::new(SimAbort::MaxEvents { limit: 5 });
        assert!(matches!(classify_panic(abort), CellError::Deadline(_)));
        // Tags are stable: failures.json and the manifest depend on them.
        assert_eq!(CellError::Interrupted.class(), "interrupted");
        assert_eq!(CellError::Interrupted.status(), "interrupted");
        assert_eq!(CellError::Deadline(String::new()).status(), "timeout");
    }

    #[test]
    fn panic_messages_survive_both_payload_shapes() {
        let static_payload = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(static_payload.as_ref()), "static str");
        let owned = std::panic::catch_unwind(|| panic!("{} owned", 42)).unwrap_err();
        assert_eq!(panic_message(owned.as_ref()), "42 owned");
    }
}
