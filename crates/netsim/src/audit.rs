//! Runtime invariant auditing: every simulator keeps the books.
//!
//! Every figure in the paper reduces to counting packets correctly, so a
//! silent accounting bug — a slot leaked in the packet pool, a stale
//! timer firing into a stopped flow, link counters drifting apart —
//! corrupts results without failing a test. The auditor is a second,
//! independent set of books kept alongside the simulator's own state:
//!
//! * **Packet ledger.** Every packet injected via [`crate::sim::Ctx::send`]
//!   is tracked from injection to exactly one terminal state (delivered,
//!   dropped, or still in flight at end of run), one bit per uid. After
//!   every event the ledger's live count is compared against the slab
//!   pool's live-slot count, and at teardown the exact uid sets are
//!   compared, so the pool can never silently leak or double-free.
//! * **Link ledger.** Arrivals, departures, drops and transmitted bytes
//!   are counted per link independently of [`crate::stats::Stats`]; at
//!   teardown the conservation law `arrivals == departures + drops +
//!   queued` must hold (a packet departs when it is committed to the
//!   wire, so a link holds only its buffer) and both sets of counters
//!   must agree.
//! * **Timer ledger.** Timer events pushed and fired are counted per
//!   agent. A *timer leak* — an agent whose
//!   [`crate::sim::Agent::audit_done`] reports the flow finished, yet
//!   pushes a timer event from its own timer callback — is flagged, because such an agent ticks forever and
//!   corrupts any metric sampled near it.
//!
//! Auditing is not a mode: every [`crate::sim::Simulator`] audits itself.
//! A violation is recorded into the simulator's [`AuditReport`] and the
//! run keeps going. At teardown ([`crate::sim::Simulator::finish_audit`],
//! or `Drop`) each simulator merges its report into its thread's
//! accumulator, and [`take_thread_report`] drains it: the experiments
//! runner drains it around every cell, so a cell's report comes back
//! with the cell (a cell runs on one thread, and `netsim` spawns none)
//! and an unclean one fails the cell.

use std::cell::RefCell;

use serde::Serialize;

use crate::ids::{AgentId, LinkId};
use crate::stats::Stats;
use crate::time::SimTime;

/// How audit violations are handled: one way, for every simulator. The
/// type stays because the repo benchmark (`benchmark/src/simload.rs`)
/// still names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Record violations into the [`AuditReport`] and keep running: the
    /// run goes to its end, and the runner fails the cell on the report
    /// it returns.
    Collect,
}

/// Independent per-link books: what the auditor itself saw happen at the
/// link, to be reconciled against [`Stats`] and the buffer occupancy.
#[derive(Debug, Default, Clone)]
struct LinkLedger {
    arrivals: u64,
    departures: u64,
    drops: u64,
    tx_bytes: u64,
}

/// Per-agent timer books.
#[derive(Debug, Default, Clone)]
struct TimerLedger {
    armed: u64,
    fired: u64,
}

/// Cap on stored violation messages, so a run with a systematic bug
/// doesn't grow a report without bound. The violation
/// *count* keeps counting past the cap.
const MAX_VIOLATION_MESSAGES: usize = 64;

/// The structured result of a run's audit (or of several merged runs).
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize)]
pub struct AuditReport {
    /// Simulations merged into this report.
    pub sims: u64,
    /// Packets injected via `Ctx::send`.
    pub packets_injected: u64,
    /// Packets that reached their destination agent.
    pub packets_delivered: u64,
    /// Packets dropped (scripted loss + queue drops).
    pub packets_dropped: u64,
    /// Packets still in flight (queued or being serialized) at teardown.
    pub packets_in_flight: u64,
    /// Timer events pushed on the event queue: one per `Ctx::set_timer`,
    /// and one per `Timer` push by `Ctx::arm` or `Ctx::fired` (a re-arm
    /// that only moves a queued timer's deadline later pushes nothing).
    pub timers_armed: u64,
    /// Timer events that fired.
    pub timers_fired: u64,
    /// Timer events still queued at teardown. Informational, not a
    /// violation: a run's horizon legitimately cuts off e.g. a TCP
    /// sender's last retransmission timer, or a superseded timer entry
    /// that has not popped yet.
    pub timers_pending: u64,
    /// Done agents that re-armed a timer from their own timer callback —
    /// flows that would tick forever. Every leak is also a violation.
    pub timer_leaks: u64,
    /// Total invariant violations detected.
    pub violations: u64,
    /// Human-readable description of each violation (capped at
    /// [`MAX_VIOLATION_MESSAGES`] messages; `violations` keeps counting).
    pub violation_messages: Vec<String>,
}

impl AuditReport {
    /// True when the run held every invariant: no violations, no timer
    /// leaks.
    pub fn is_clean(&self) -> bool {
        self.violations == 0 && self.timer_leaks == 0
    }

    /// Panic with the report's summary unless [`Self::is_clean`].
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "audit failed: {}", self.summary());
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: &AuditReport) {
        self.sims += other.sims;
        self.packets_injected += other.packets_injected;
        self.packets_delivered += other.packets_delivered;
        self.packets_dropped += other.packets_dropped;
        self.packets_in_flight += other.packets_in_flight;
        self.timers_armed += other.timers_armed;
        self.timers_fired += other.timers_fired;
        self.timers_pending += other.timers_pending;
        self.timer_leaks += other.timer_leaks;
        self.violations += other.violations;
        for msg in &other.violation_messages {
            if self.violation_messages.len() >= MAX_VIOLATION_MESSAGES {
                break;
            }
            self.violation_messages.push(msg.clone());
        }
    }

    /// One-line human summary, for `repro`'s closing `audit:` line.
    pub fn summary(&self) -> String {
        format!(
            "{} sims audited: {} packets ({} delivered, {} dropped, {} in flight at end), \
             {} timers armed ({} fired, {} pending), {} timer leaks, {} violations",
            self.sims,
            self.packets_injected,
            self.packets_delivered,
            self.packets_dropped,
            self.packets_in_flight,
            self.timers_armed,
            self.timers_fired,
            self.timers_pending,
            self.timer_leaks,
            self.violations
        )
    }
}

thread_local! {
    /// This thread's accumulator: every simulator merges its report
    /// here at teardown, until [`take_thread_report`] drains it.
    static THREAD_REPORT: RefCell<Option<AuditReport>> = const { RefCell::new(None) };
}

pub(crate) fn merge_thread(report: &AuditReport) {
    THREAD_REPORT.with_borrow_mut(|acc| acc.get_or_insert_with(AuditReport::default).merge(report));
}

/// Take (and clear) this thread's accumulated report. `None` when no
/// simulator has torn down on this thread since the last call.
pub fn take_thread_report() -> Option<AuditReport> {
    THREAD_REPORT.with_borrow_mut(Option::take)
}

/// The auditor itself: one per simulator, owned by the world and fed
/// by hooks on the simulator's hot paths.
#[derive(Debug, Default)]
pub(crate) struct Auditor {
    /// In-flight bitset, indexed by uid (assigned densely from zero by
    /// `Ctx::send`): bit `uid % 64` of word `uid / 64` is set from
    /// injection until the packet's terminal state.
    in_flight: Vec<u64>,
    /// Packets injected so far: the next uid expected.
    injected: u64,
    /// Maintained live-packet count: `+1` on inject, `-1` on any
    /// terminal state. Equals the pool's live-slot count at all times.
    live: u64,
    delivered: u64,
    dropped: u64,
    links: Vec<LinkLedger>,
    timers: Vec<TimerLedger>,
    timer_leaks: u64,
    violations: u64,
    messages: Vec<String>,
    /// Set by [`Self::finish`]: the teardown audit runs once.
    finished: bool,
}

impl Auditor {
    fn violation(&mut self, msg: String) {
        self.violations += 1;
        if self.messages.len() < MAX_VIOLATION_MESSAGES {
            self.messages.push(msg);
        }
    }

    fn link_mut(&mut self, link: LinkId) -> &mut LinkLedger {
        let ix = link.index();
        if self.links.len() <= ix {
            self.links.resize_with(ix + 1, LinkLedger::default);
        }
        &mut self.links[ix]
    }

    fn timer_mut(&mut self, agent: AgentId) -> &mut TimerLedger {
        let ix = agent.index();
        if self.timers.len() <= ix {
            self.timers.resize_with(ix + 1, TimerLedger::default);
        }
        &mut self.timers[ix]
    }

    // --- hooks fed by sim.rs ---

    /// A packet entered the pool via `Ctx::send`.
    pub(crate) fn on_inject(&mut self, uid: u64) {
        if uid != self.injected {
            self.violation(format!(
                "packet uid {uid} injected out of order (expected {})",
                self.injected
            ));
            return;
        }
        let word = (uid / 64) as usize;
        if word == self.in_flight.len() {
            self.in_flight.push(0);
        }
        self.in_flight[word] |= 1 << (uid % 64);
        self.injected += 1;
        self.live += 1;
    }

    /// Move `uid` out of flight. False (and a violation) when it was
    /// never injected or has already reached a terminal state.
    fn terminate(&mut self, uid: u64, what: &str) -> bool {
        if uid >= self.injected {
            self.violation(format!("packet uid {uid} {what} but was never injected"));
            return false;
        }
        let (word, bit) = ((uid / 64) as usize, 1u64 << (uid % 64));
        if self.in_flight[word] & bit == 0 {
            self.violation(format!(
                "packet uid {uid} {what} but was already terminated (double terminal state)"
            ));
            return false;
        }
        self.in_flight[word] &= !bit;
        self.live -= 1;
        true
    }

    /// A packet was dropped at `link` (scripted loss or queue drop).
    pub(crate) fn on_link_drop(&mut self, link: LinkId, uid: u64) {
        if self.terminate(uid, "dropped") {
            self.dropped += 1;
        }
        self.link_mut(link).drops += 1;
    }

    /// A packet reached its destination agent.
    pub(crate) fn on_deliver(&mut self, uid: u64) {
        if self.terminate(uid, "delivered") {
            self.delivered += 1;
        }
    }

    /// A packet was offered to `link` (counted before loss/queueing).
    pub(crate) fn on_link_arrival(&mut self, link: LinkId) {
        self.link_mut(link).arrivals += 1;
    }

    /// A packet left `link`'s buffer and began serializing.
    pub(crate) fn on_link_departure(&mut self, link: LinkId, bytes: u32) {
        let l = self.link_mut(link);
        l.departures += 1;
        l.tx_bytes += bytes as u64;
    }

    /// A timer event for `agent` was pushed on the event queue.
    pub(crate) fn on_timer_armed(&mut self, agent: AgentId) {
        self.timer_mut(agent).armed += 1;
    }

    /// An `AgentTimer` event fired for `agent`.
    pub(crate) fn on_timer_fired(&mut self, agent: AgentId) {
        self.timer_mut(agent).fired += 1;
    }

    /// Timers `agent` has armed so far (for the re-arm-while-done check).
    pub(crate) fn timers_armed_of(&self, agent: AgentId) -> u64 {
        self.timers.get(agent.index()).map_or(0, |t| t.armed)
    }

    /// `agent` reported itself done yet re-armed a timer from its own
    /// timer callback — it will tick forever.
    pub(crate) fn on_timer_leak(&mut self, agent: AgentId, now: SimTime) {
        self.timer_leaks += 1;
        self.violation(format!(
            "timer leak: done agent {agent} re-armed a timer from its timer callback at {now}"
        ));
    }

    /// O(1) cross-check: the pool's live-slot count must equal the
    /// ledger's live count. The simulator calls this after every
    /// dispatched event: each handler must return with pool and ledger
    /// reconciled.
    pub(crate) fn check_pool(&mut self, pool_len: usize, now: SimTime) {
        let live = self.live;
        if pool_len as u64 != live {
            self.violation(format!(
                "pool/ledger divergence at {now}: pool holds {pool_len} live packets, \
                 ledger says {live}"
            ));
        }
    }

    /// Whether [`Self::finish`] has run.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished
    }

    /// Teardown: reconcile the ledger against the pool's exact live uid
    /// set, each link's conservation law and [`Stats`] counters, and
    /// produce the run's report.
    ///
    /// `queued[i]` is the buffer occupancy of link `i`.
    pub(crate) fn finish(
        &mut self,
        mut pool_live_uids: Vec<u64>,
        queued: &[usize],
        stats: &Stats,
    ) -> AuditReport {
        self.finished = true;
        // Exact uid-set equality between the pool and the ledger. The
        // bitset scans word by word in uid order, so the ledger's side
        // comes out sorted.
        pool_live_uids.sort_unstable();
        let mut ledger_live_uids = Vec::with_capacity(self.live as usize);
        for (ix, &word) in self.in_flight.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                ledger_live_uids.push(ix as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        if pool_live_uids != ledger_live_uids {
            let pool_only: Vec<u64> = pool_live_uids
                .iter()
                .filter(|u| ledger_live_uids.binary_search(u).is_err())
                .copied()
                .collect();
            let ledger_only: Vec<u64> = ledger_live_uids
                .iter()
                .filter(|u| pool_live_uids.binary_search(u).is_err())
                .copied()
                .collect();
            self.violation(format!(
                "pool/ledger uid sets diverge at teardown: \
                 {pool_only:?} live only in pool, {ledger_only:?} live only in ledger"
            ));
        }

        // Per-link conservation and Stats reconciliation.
        for ix in 0..self.links.len().max(queued.len()) {
            let id = LinkId::from_index(ix);
            let ledger = self.links.get(ix).cloned().unwrap_or_default();
            let held = queued.get(ix).copied().unwrap_or(0) as u64;
            if ledger.arrivals != ledger.departures + ledger.drops + held {
                self.violation(format!(
                    "link {id} conservation broken: {} arrivals != {} departures \
                     + {} drops + {held} queued",
                    ledger.arrivals, ledger.departures, ledger.drops
                ));
            }
            let Some(s) = stats.link(id) else {
                if ledger.arrivals != 0 {
                    self.violation(format!("link {id} has audit traffic but no Stats entry"));
                }
                continue;
            };
            if s.total_arrivals != ledger.arrivals
                || s.total_drops != ledger.drops
                || s.total_tx_bytes != ledger.tx_bytes
                || s.total_tx_packets != ledger.departures
            {
                self.violation(format!(
                    "link {id} Stats/audit divergence: stats \
                     (arrivals {}, drops {}, tx_bytes {}, tx_packets {}) vs audit \
                     (arrivals {}, drops {}, tx_bytes {}, departures {})",
                    s.total_arrivals,
                    s.total_drops,
                    s.total_tx_bytes,
                    s.total_tx_packets,
                    ledger.arrivals,
                    ledger.drops,
                    ledger.tx_bytes,
                    ledger.departures
                ));
            }
        }

        // Packet conservation: everything injected left through a
        // terminal state or is still live.
        let in_flight = self.live;
        if self.injected != self.delivered + self.dropped + in_flight {
            self.violation(format!(
                "packet conservation broken: {} injected != \
                 {} delivered + {} dropped + {in_flight} in flight",
                self.injected,
                self.delivered,
                self.dropped
            ));
        }

        let timers_armed: u64 = self.timers.iter().map(|t| t.armed).sum();
        let timers_fired: u64 = self.timers.iter().map(|t| t.fired).sum();

        AuditReport {
            sims: 1,
            packets_injected: self.injected,
            packets_delivered: self.delivered,
            packets_dropped: self.dropped,
            packets_in_flight: in_flight,
            timers_armed,
            timers_fired,
            timers_pending: timers_armed.saturating_sub(timers_fired),
            timer_leaks: self.timer_leaks,
            violations: self.violations,
            violation_messages: std::mem::take(&mut self.messages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merge_sums_counters_and_caps_messages() {
        let mut a = AuditReport {
            sims: 1,
            packets_injected: 10,
            packets_delivered: 8,
            packets_dropped: 1,
            packets_in_flight: 1,
            timers_armed: 5,
            timers_fired: 4,
            timers_pending: 1,
            timer_leaks: 0,
            violations: 0,
            violation_messages: Vec::new(),
        };
        let b = AuditReport {
            sims: 2,
            packets_injected: 5,
            packets_delivered: 5,
            violations: 1,
            violation_messages: vec!["x".into()],
            ..AuditReport::default()
        };
        a.merge(&b);
        assert_eq!(a.sims, 3);
        assert_eq!(a.packets_injected, 15);
        assert_eq!(a.packets_delivered, 13);
        assert_eq!(a.violations, 1);
        assert_eq!(a.violation_messages.len(), 1);
        assert!(!a.is_clean());
    }

    #[test]
    fn collect_mode_records_instead_of_panicking() {
        let mut auditor = Auditor::default();
        auditor.on_inject(0);
        auditor.on_deliver(0);
        auditor.on_deliver(0); // double terminal state
        auditor.on_deliver(7); // never injected
        let report = auditor.finish(Vec::new(), &[], &Stats::new(crate::time::SimDuration::from_millis(10)));
        assert_eq!(report.violations, 2);
        assert!(!report.is_clean());
        assert_eq!(report.packets_delivered, 1);
    }
}
