//! The reference model the `EventQueue` property tests compare against:
//! a `BinaryHeap` over the `(time, seq)` key. It is the definition of
//! the pop order, written so it is obviously right rather than fast: an
//! event pops at the key of the seq it was given, whether that seq was
//! taken at the push or reserved earlier.

#![allow(dead_code)] // each test binary uses its own subset

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use slowcc_netsim::event::{EventKind, EventQueue};
use slowcc_netsim::ids::AgentId;
use slowcc_netsim::time::SimTime;

#[derive(Default)]
pub struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Indexed by `seq`; `EventKind` is not `Ord`, so it stays out of the heap.
    kinds: Vec<EventKind>,
}

/// The operations the tests drive on both the model and the real queue.
pub trait Queue: Default {
    fn schedule(&mut self, time: SimTime, kind: EventKind);
    fn reserve_seq(&mut self) -> u64;
    fn schedule_at_seq(&mut self, time: SimTime, seq: u64, kind: EventKind);
    fn pop(&mut self) -> Option<(SimTime, EventKind)>;
    fn peek_time(&mut self) -> Option<SimTime>;

    fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, EventKind)> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }
}

impl Queue for HeapModel {
    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.schedule_at_seq(time, seq, kind);
    }

    /// The seq's kind is filled in when it is scheduled.
    fn reserve_seq(&mut self) -> u64 {
        self.kinds.push(ev(u64::MAX));
        self.kinds.len() as u64 - 1
    }

    fn schedule_at_seq(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.heap.push(Reverse((time, seq)));
        self.kinds[seq as usize] = kind;
    }

    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let Reverse((time, seq)) = self.heap.pop()?;
        Some((time, self.kinds[seq as usize]))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _))| *time)
    }
}

impl Queue for EventQueue {
    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        EventQueue::schedule(self, time, kind)
    }

    fn reserve_seq(&mut self) -> u64 {
        EventQueue::reserve_seq(self)
    }

    fn schedule_at_seq(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        EventQueue::schedule_at_seq(self, time, seq, kind)
    }

    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        EventQueue::pop(self)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, EventKind)> {
        EventQueue::pop_if_at_or_before(self, horizon)
    }
}

/// A timer event carrying `token`, so pops are distinguishable even when
/// timestamps collide.
pub fn ev(token: u64) -> EventKind {
    EventKind::AgentTimer {
        agent: AgentId::from_index(0),
        token,
    }
}

pub fn token_of(kind: EventKind) -> u64 {
    match kind {
        EventKind::AgentTimer { token, .. } => token,
        _ => unreachable!("only timers are scheduled"),
    }
}

/// Map raw sampled values into a time distribution that stresses every
/// calendar-queue regime: dense collisions (many ties per bucket),
/// ordinary nanosecond spacing, and far-future times hours ahead that
/// lie past the bucket year and wait in the far heap.
pub fn shape_time(raw: u64) -> u64 {
    match raw % 4 {
        0 => raw % 16,                                    // heavy ties near zero
        1 => raw % 1_000_000,                             // sub-millisecond spread
        2 => raw % 10_000_000_000,                        // multi-second spread
        _ => 3_600_000_000_000 + raw % 7_200_000_000_000, // 1-3 hours out
    }
}
