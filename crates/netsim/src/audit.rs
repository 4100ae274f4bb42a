//! Opt-in runtime invariant auditing.
//!
//! Every figure in the paper reduces to counting packets correctly, so a
//! silent accounting bug — a slot leaked in the packet pool, a stale
//! timer firing into a stopped flow, link counters drifting apart —
//! corrupts results without failing a test. The auditor is a second,
//! independent set of books kept alongside the simulator's own state:
//!
//! * **Packet ledger.** Every packet injected via [`crate::sim::Ctx::send`]
//!   is tracked from injection to exactly one terminal state (delivered,
//!   dropped, or still in flight at end of run). After every event the
//!   ledger's live count is compared against the slab pool's live-slot
//!   count, and at teardown the exact uid sets are compared,
//!   so the pool can never silently leak or double-free.
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
//! Auditing is off by default (the hot path pays one pointer-null check
//! per event). Enable it per simulator with
//! [`crate::sim::Simulator::with_audit`], or per cell with
//! [`crate::budget::Budget::audit`]: every simulator built under a
//! thread budget ([`crate::budget::set_thread_budget`]) that carries a
//! mode audits in it. [`AuditMode::Strict`] panics at the first
//! violation; [`AuditMode::Collect`] records violations into the
//! simulator's [`AuditReport`] and keeps running. Either way each
//! audited simulator merges its report into its thread's accumulator
//! at teardown, and [`take_thread_report`] drains it: the experiments
//! runner drains it around every cell, so a cell's report comes back
//! with the cell (a cell runs on one thread, and `netsim` spawns none).

use std::cell::RefCell;

use serde::Serialize;

use crate::ids::{AgentId, LinkId};
use crate::stats::Stats;
use crate::time::SimTime;

/// How audit violations are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Panic at the first violation. The mode for tests and
    /// self-auditing cells: a violation is a bug, fail loudly.
    Strict,
    /// Record violations into the [`AuditReport`] and keep running. The
    /// mode `repro --audit` gives every cell: the cell runs to its end,
    /// and the runner fails it on the report it returns.
    Collect,
}

/// Terminal-state tracking for one injected packet, indexed by uid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PacketState {
    InFlight,
    Delivered,
    Dropped,
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

/// Cap on stored violation messages, so a Collect-mode run with a
/// systematic bug doesn't grow a report without bound. The violation
/// *count* keeps counting past the cap.
const MAX_VIOLATION_MESSAGES: usize = 64;

/// The structured result of an audited run (or of several merged runs).
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

    /// One-line human summary, for the `repro --audit` epilogue.
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
    /// This thread's accumulator: every audited simulator merges its
    /// report here at teardown, until [`take_thread_report`] drains it.
    static THREAD_REPORT: RefCell<Option<AuditReport>> = const { RefCell::new(None) };
}

pub(crate) fn merge_thread(report: &AuditReport) {
    THREAD_REPORT.with_borrow_mut(|acc| acc.get_or_insert_with(AuditReport::default).merge(report));
}

/// Take (and clear) this thread's accumulated report. `None` when no
/// audited simulator has torn down on this thread since the last call.
pub fn take_thread_report() -> Option<AuditReport> {
    THREAD_REPORT.with_borrow_mut(Option::take)
}

/// The auditor itself: one per audited simulator, owned by the world and
/// fed by hooks on the simulator's hot paths.
#[derive(Debug)]
pub(crate) struct Auditor {
    mode: AuditMode,
    /// Terminal-state ledger, indexed by uid (assigned densely from zero
    /// by `Ctx::send`).
    ledger: Vec<PacketState>,
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
}

impl Auditor {
    pub(crate) fn new(mode: AuditMode) -> Self {
        Auditor {
            mode,
            ledger: Vec::new(),
            live: 0,
            delivered: 0,
            dropped: 0,
            links: Vec::new(),
            timers: Vec::new(),
            timer_leaks: 0,
            violations: 0,
            messages: Vec::new(),
        }
    }

    /// Downgrade to Collect, used when teardown runs during an unrelated
    /// panic and must not double-panic.
    pub(crate) fn set_collect(&mut self) {
        self.mode = AuditMode::Collect;
    }

    fn violation(&mut self, msg: String) {
        if self.mode == AuditMode::Strict {
            panic!("audit violation: {msg}");
        }
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
        if uid != self.ledger.len() as u64 {
            self.violation(format!(
                "packet uid {uid} injected out of order (expected {})",
                self.ledger.len()
            ));
            return;
        }
        self.ledger.push(PacketState::InFlight);
        self.live += 1;
    }

    fn terminate(&mut self, uid: u64, state: PacketState, what: &str) {
        match self.ledger.get(uid as usize).copied() {
            Some(PacketState::InFlight) => {
                self.ledger[uid as usize] = state;
                self.live -= 1;
                match state {
                    PacketState::Delivered => self.delivered += 1,
                    PacketState::Dropped => self.dropped += 1,
                    PacketState::InFlight => unreachable!(),
                }
            }
            Some(prior) => self.violation(format!(
                "packet uid {uid} {what} but was already {prior:?} (double terminal state)"
            )),
            None => self.violation(format!("packet uid {uid} {what} but was never injected")),
        }
    }

    /// A packet was dropped at `link` (scripted loss or queue drop).
    pub(crate) fn on_link_drop(&mut self, link: LinkId, uid: u64) {
        self.terminate(uid, PacketState::Dropped, "dropped");
        self.link_mut(link).drops += 1;
    }

    /// A packet reached its destination agent.
    pub(crate) fn on_deliver(&mut self, uid: u64) {
        self.terminate(uid, PacketState::Delivered, "delivered");
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
        // Exact uid-set equality between the pool and the ledger.
        pool_live_uids.sort_unstable();
        let ledger_live_uids: Vec<u64> = self
            .ledger
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == PacketState::InFlight)
            .map(|(ix, _)| ix as u64)
            .collect();
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
        if self.ledger.len() as u64 != self.delivered + self.dropped + in_flight {
            self.violation(format!(
                "packet conservation broken: {} injected != \
                 {} delivered + {} dropped + {in_flight} in flight",
                self.ledger.len(),
                self.delivered,
                self.dropped
            ));
        }

        let timers_armed: u64 = self.timers.iter().map(|t| t.armed).sum();
        let timers_fired: u64 = self.timers.iter().map(|t| t.fired).sum();

        AuditReport {
            sims: 1,
            packets_injected: self.ledger.len() as u64,
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
        let mut auditor = Auditor::new(AuditMode::Collect);
        auditor.on_inject(0);
        auditor.on_deliver(0);
        auditor.on_deliver(0); // double terminal state
        auditor.on_deliver(7); // never injected
        let report = auditor.finish(Vec::new(), &[], &Stats::new(crate::time::SimDuration::from_millis(10)));
        assert_eq!(report.violations, 2);
        assert!(!report.is_clean());
        assert_eq!(report.packets_delivered, 1);
    }

    #[test]
    #[should_panic(expected = "audit violation")]
    fn strict_mode_panics_on_violation() {
        let mut auditor = Auditor::new(AuditMode::Strict);
        auditor.on_deliver(3); // never injected
    }
}
