//! The event scheduler.
//!
//! [`EventQueue`] is a calendar queue in the style of Brown (1988) and
//! ns-2's scheduler: events are hashed into time buckets of width 2^k
//! nanoseconds, insert and pop are amortized O(1), and the bucket array
//! resizes (and re-picks its width from the spacing of the distinct
//! times at the head of the queue) as the pending-event population
//! drifts. A head of ties says nothing about spacing and keeps the
//! width it finds.
//!
//! The buckets hold one "year" only: the `buckets.len()` days from the
//! cursor on, one day per bucket. An event scheduled a year or more
//! ahead — an RTO or feedback timer seconds out behind a few packets in
//! flight — goes into a binary heap on the same key instead, so a pop
//! never inspects an entry of a later year and never scans the whole
//! calendar. A pop takes the smaller of the first non-empty day's
//! minimum and the heap's top; a pop from the heap moves the cursor
//! forward to that entry's day, and a resize re-files every entry.
//!
//! Ordering is by `(time, sequence)`: the instant the event fires, then
//! a monotone token assigned at scheduling time. Ties in simulated time
//! are therefore broken by scheduling order — explicitly, not by bucket
//! layout — which is what makes runs bit-for-bit reproducible. A
//! sequence number can also be reserved now and pushed with later
//! ([`EventQueue::reserve_seq`], [`EventQueue::schedule_at_seq`]); the
//! entry then orders as if it had been scheduled when the number was
//! taken.
//!
//! Two checks pin the order down. The property tests in
//! `tests/scheduler_equivalence.rs` compare pop order against a
//! binary-heap model (`tests/common`) on arbitrary schedules, handlers
//! that insert while dispatching included; and in builds with debug
//! assertions — the whole test suite — every queue asserts that each
//! pop's key is strictly greater than the previous pop's, which for a
//! simulation (nothing is ever scheduled into the past) holds exactly
//! when every pop was the pending minimum, and that every minimum found
//! in a bucket lies on the cursor's day.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::ids::{AgentId, LinkId, NodeId};
use crate::pool::PacketId;
use crate::time::SimTime;

/// What happens when an event fires.
///
/// Packets are referenced by [`PacketId`] into the simulator's
/// [`crate::pool::PacketPool`], so an entry is a few machine words — the
/// scheduler moves ids, never packet bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Deliver a timer callback to an agent.
    AgentTimer {
        /// The agent whose timer fires.
        agent: AgentId,
        /// The token handed back to the agent.
        token: u64,
    },
    /// A link's transmitter frees up with at least one packet waiting in
    /// its buffer. Scheduled only when something queues behind a
    /// serialization in progress — an uncontended link never sees one.
    LinkTxComplete {
        /// The link whose transmitter frees up.
        link: LinkId,
    },
    /// A packet arrives at `node` after propagation.
    Arrive {
        /// The node the packet arrives at.
        node: NodeId,
        /// The pooled packet.
        packet: PacketId,
    },
    /// An agent's scheduled start time.
    AgentStart {
        /// The agent to start.
        agent: AgentId,
    },
    /// A fault-held (or duplicated) packet is re-offered to `link` by the
    /// fault-injection layer (see [`crate::faults`]).
    FaultRelease {
        /// The link the packet is admitted to.
        link: LinkId,
        /// The pooled packet.
        packet: PacketId,
        /// Whether this packet occupies a slot in the link's hold bay
        /// (reordering) as opposed to being a freshly minted duplicate.
        held: bool,
    },
}

/// The ordering key: fire time, then scheduling order.
type Key = (SimTime, u64);

/// One scheduled event. Entries compare by their key alone (keys are
/// unique), which is the order the far-future heap keeps.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Entry {
    #[inline]
    fn key(&self) -> Key {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Where [`EventQueue::locate_min`] found the pending minimum.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// `buckets[.0][.1]`, on the cursor's day.
    Bucket(usize, usize),
    /// The top of the far-future heap.
    Far,
}

/// Smallest bucket-array size the calendar queue shrinks down to.
const MIN_BUCKETS: usize = 16;
/// Largest bucket-array size the calendar queue grows up to.
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width: 2^16 ns ≈ 66 µs, the right order of magnitude
/// for packet events on the paper's megabit links (resize re-picks it
/// from the observed spacing anyway).
const INITIAL_SHIFT: u32 = 16;

/// Deterministic earliest-first event queue, implemented as a calendar
/// queue: `buckets[(time >> shift) & mask]` holds the events of one
/// "day" (bucket-width slice of time) of the current "year", the
/// `buckets.len()` days from the cursor on. Everything else waits in a
/// binary heap on the same key. Each pop takes the smaller of the first
/// non-empty day's minimum and the heap's top.
#[derive(Debug)]
pub struct EventQueue {
    /// Invariant: every entry of every bucket has
    /// `cursor_day <= day < cursor_day + buckets.len()`, so a bucket
    /// holds exactly one day.
    buckets: Vec<Vec<Entry>>,
    /// Entries a year or more past the cursor when pushed (or, in
    /// queue-level tests, before it), earliest on top.
    far: BinaryHeap<Reverse<Entry>>,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: u64,
    /// Pending entries, buckets and heap together.
    len: usize,
    /// First day of the year the buckets hold.
    cursor_day: u64,
    /// Pops since the last resize; amortizes the skew-triggered rebuild
    /// in [`Self::locate_min`] so it costs O(1) per pop even when a
    /// rebuild cannot help (all events at one instant).
    pops_since_resize: usize,
    /// The next sequence number [`Self::reserve_seq`] hands out.
    next_seq: u64,
    /// Entries ever pushed. Below `next_seq` by the sequence numbers
    /// reserved for a push that never came (a re-armed timer's
    /// superseded deadlines, see [`crate::sim::Timer`]).
    pushed: u64,
    /// Key of the most recent pop, for the pop-order assertion in
    /// [`Self::note_pop`]; only maintained when debug assertions are on.
    last_popped: Option<Key>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    #[inline]
    fn day_of(&self, time: SimTime) -> u64 {
        time.as_nanos() >> self.shift
    }

    /// File `entry` in its day's bucket if that day is in the current
    /// year, else in the far heap.
    #[inline]
    fn insert(&mut self, entry: Entry) {
        let day = self.day_of(entry.time);
        if day.wrapping_sub(self.cursor_day) < self.buckets.len() as u64 {
            self.buckets[(day & self.mask) as usize].push(entry);
        } else {
            self.far.push(Reverse(entry));
        }
    }

    /// Locate the `(time, seq)` minimum. `None` when empty.
    ///
    /// Includes the *skew guard*: if the minimum's day bucket holds far
    /// more events than the occupancy target, the bucket width no longer
    /// matches the event spacing (a hold pattern can condense the whole
    /// horizon into one day without ever changing `len`), so re-pick the
    /// width and retry. The `pops_since_resize` gate keeps the O(n)
    /// rebuild amortized O(1) even when rebuilding cannot spread the
    /// events (e.g. everything at one instant).
    fn locate_min(&mut self) -> Option<Slot> {
        if self.len == 0 {
            return None;
        }
        self.pops_since_resize += 1;
        loop {
            let slot = self.scan_min();
            if let Slot::Bucket(b, _) = slot {
                // Cheap checks first: the division only runs on the rare
                // pop that actually looks skewed.
                if self.buckets[b].len() > 16
                    && self.pops_since_resize > self.len
                    && self.buckets[b].len() > 8 * self.len / self.buckets.len()
                {
                    self.resize(self.buckets.len());
                    continue;
                }
            }
            return Some(slot);
        }
    }

    /// One pass of the minimum search: walk the year from the cursor to
    /// the first non-empty day, but no further than the far heap's top,
    /// and take the smaller of the two. A bucket minimum moves the
    /// cursor to its day. Caller guarantees `len > 0`.
    fn scan_min(&mut self) -> Slot {
        if self.len == self.far.len() {
            return Slot::Far;
        }
        let far = self.far.peek().map(|Reverse(e)| e.key());
        let mut end = self.cursor_day + self.buckets.len() as u64;
        if let Some((t, _)) = far {
            end = end.min(self.day_of(t) + 1);
        }
        for day in self.cursor_day..end {
            let b = (day & self.mask) as usize;
            let bucket = &self.buckets[b];
            let Some(first) = bucket.first() else {
                continue;
            };
            let (mut i, mut key) = (0, first.key());
            for (j, e) in bucket.iter().enumerate().skip(1) {
                if e.key() < key {
                    (i, key) = (j, e.key());
                }
            }
            if far.is_some_and(|f| f < key) {
                break;
            }
            self.cursor_day = day;
            debug_assert_eq!(
                self.day_of(key.0),
                self.cursor_day,
                "located bucket entry {key:?} is not on the cursor's day"
            );
            return Slot::Bucket(b, i);
        }
        Slot::Far
    }

    /// The entry at `slot`.
    #[inline]
    fn at(&self, slot: Slot) -> &Entry {
        match slot {
            Slot::Bucket(b, i) => &self.buckets[b][i],
            Slot::Far => &self.far.peek().expect("a located far minimum").0,
        }
    }

    /// Pop the entry [`Self::locate_min`] found. A pop from the far heap
    /// moves the cursor forward to the entry's day: every bucket entry
    /// is later, so the year still covers them all.
    #[inline]
    fn remove(&mut self, slot: Slot) -> (SimTime, EventKind) {
        let entry = match slot {
            Slot::Bucket(b, i) => self.buckets[b].swap_remove(i),
            Slot::Far => {
                let Reverse(entry) = self.far.pop().expect("a located far minimum");
                self.cursor_day = self.cursor_day.max(self.day_of(entry.time));
                entry
            }
        };
        self.len -= 1;
        self.note_pop(entry.key());
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        (entry.time, entry.kind)
    }

    /// The whole-simulation ordering check: every pop's key must be
    /// strictly greater than the previous pop's. Nothing in a simulation
    /// schedules below a key already popped, and then strictly increasing
    /// pops are equivalent to every pop having been the pending minimum.
    /// (Queue-level tests do schedule into the past; [`Self::schedule`]
    /// forgets the previous pop when that happens.)
    #[inline]
    fn note_pop(&mut self, key: Key) {
        if cfg!(debug_assertions) {
            debug_assert!(
                self.last_popped.is_none_or(|last| key > last),
                "popped {key:?} after {:?}: not the pending minimum",
                self.last_popped
            );
            self.last_popped = Some(key);
        }
    }

    /// Rebuild with `new_nb` buckets, re-picking the bucket width from
    /// the spacing of the events at the *head* of the queue (Brown's
    /// rule), then re-filing every entry into the new year or the far
    /// heap. The head gap is what pops will actually see; a global
    /// `(max - min) / len` estimate is wrong whenever the distribution
    /// is skewed — e.g. a dense recycling cluster at the front with a
    /// sparse tail of far-out timers behind it.
    ///
    /// The gap is taken over the head's *distinct* times: ties carry no
    /// spacing information, and a head that sits at one instant (every
    /// sink's `AgentStart` at t = 0 in a many-flow set-up) keeps the
    /// current width instead of collapsing it to the 16 ns floor.
    fn resize(&mut self, new_nb: usize) {
        const WIDTH_SAMPLE: usize = 32;
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.extend(std::mem::take(bucket));
        }
        // Draining keeps the heap's allocation for the re-filing below.
        entries.extend(self.far.drain().map(|Reverse(e)| e));
        // The WIDTH_SAMPLE earliest event times, via an O(n) select,
        // then sorted and deduplicated.
        let mut head: Vec<u64> = entries.iter().map(|e| e.time.as_nanos()).collect();
        if head.len() > WIDTH_SAMPLE {
            head.select_nth_unstable(WIDTH_SAMPLE - 1);
            head.truncate(WIDTH_SAMPLE);
        }
        head.sort_unstable();
        head.dedup();
        if let [lo, .., hi] = head[..] {
            let mean_gap = (hi - lo) / (head.len() - 1) as u64;
            // Width = smallest power of two >= 2 * mean head gap,
            // clamped so day arithmetic stays sane.
            self.shift = (64 - (mean_gap.saturating_mul(2)).leading_zeros()).clamp(4, 40);
        }
        // Pre-size each bucket past the expected occupancy (≤2 by the
        // grow trigger): the grow/shrink oscillation otherwise hands out
        // zero-capacity buckets whose first few pushes realloc, every
        // resize, forever. Capacity is invisible to pop order.
        let cap = (2 * entries.len() / new_nb + 2).next_power_of_two();
        self.buckets = (0..new_nb).map(|_| Vec::with_capacity(cap)).collect();
        self.mask = (new_nb - 1) as u64;
        if let Some(first) = head.first() {
            self.cursor_day = first >> self.shift;
        }
        for e in entries {
            self.insert(e);
        }
        self.pops_since_resize = 0;
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::with_capacity(8)).collect(),
            far: BinaryHeap::new(),
            shift: INITIAL_SHIFT,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
            cursor_day: 0,
            pops_since_resize: 0,
            next_seq: 0,
            pushed: 0,
            last_popped: None,
        }
    }

    /// Schedule `kind` to fire at `time`, ordered after everything
    /// scheduled or reserved before it.
    ///
    /// Inlined along with `pop`: every packet hop and timer goes through
    /// these, so they should collapse into their callers.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.schedule_at_seq(time, seq, kind);
    }

    /// Take the next sequence number from the monotone counter
    /// [`Self::schedule`] draws from, without pushing anything. An entry
    /// later pushed with it by [`Self::schedule_at_seq`] pops exactly
    /// where one scheduled now would have.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `kind` at the key `(time, seq)`, `seq` being a number
    /// [`Self::reserve_seq`] handed out and no entry has used yet.
    #[inline]
    pub fn schedule_at_seq(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.pushed += 1;
        let entry = Entry { time, seq, kind };
        // Scheduled below the last pop (queue-level tests only): the next
        // pop may legitimately be smaller, so `note_pop` starts over.
        if cfg!(debug_assertions) && self.last_popped.is_some_and(|last| entry.key() < last) {
            self.last_popped = None;
        }
        // A drained queue starts its year at the new entry, wherever the
        // clock has moved.
        if self.len == 0 {
            self.cursor_day = self.day_of(time);
        }
        self.insert(entry);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let slot = self.locate_min()?;
        Some(self.remove(slot))
    }

    /// Remove and return the earliest event if it fires at or before
    /// `horizon`. This is the simulator's dispatch loop: one call per
    /// event (a head past the horizon in a bucket still advances the
    /// cursor to its day).
    #[inline]
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, EventKind)> {
        let slot = self.locate_min()?;
        if self.at(slot).time > horizon {
            None
        } else {
            Some(self.remove(slot))
        }
    }

    /// Total number of entries ever pushed on this queue — not the
    /// sequence numbers handed out, some of which are reserved for a
    /// push that never comes. With [`Self::len`] this gives the number
    /// of events already dispatched: `scheduled() - len()`.
    pub fn scheduled(&self) -> u64 {
        self.pushed
    }

    /// Time of the earliest scheduled event. `&mut` because the search
    /// advances the day cursor.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let slot = self.locate_min()?;
        Some(self.at(slot).time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(agent: usize, token: u64) -> EventKind {
        EventKind::AgentTimer {
            agent: AgentId::from_index(agent),
            token,
        }
    }

    fn token_of(kind: EventKind) -> u64 {
        match kind {
            EventKind::AgentTimer { token, .. } => token,
            _ => unreachable!("only timers are scheduled"),
        }
    }

    /// The year invariant, entry by entry: every bucket entry lies in
    /// the year from the cursor and in its own day's bucket, and `len`
    /// counts buckets and far heap together.
    fn assert_one_year(q: &EventQueue) {
        let nb = q.buckets.len() as u64;
        for (b, bucket) in q.buckets.iter().enumerate() {
            for e in bucket {
                let day = q.day_of(e.time);
                assert!(
                    q.cursor_day <= day && day < q.cursor_day + nb,
                    "day {day} outside the year from {}",
                    q.cursor_day
                );
                assert_eq!((day & q.mask) as usize, b);
            }
        }
        let near: usize = q.buckets.iter().map(Vec::len).sum();
        assert_eq!(q.len, near + q.far.len());
    }

    /// Pop everything; the tokens in pop order.
    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, k)| token_of(k))
            .collect()
    }

    #[test]
    fn entry_is_four_words() {
        // Every scheduled event is one of these in a bucket `Vec`.
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn a_reserved_seq_orders_where_it_was_taken() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, timer(0, 0));
        let seq = q.reserve_seq();
        q.schedule(t, timer(0, 2));
        // Skipped numbers leave no entry behind.
        q.reserve_seq();
        q.schedule_at_seq(t, seq, timer(0, 1));
        assert_eq!(q.scheduled(), 3, "pushes, not sequence numbers");
        assert_eq!(drain_tokens(&mut q), vec![0, 1, 2]);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), timer(0, 0));
        q.schedule(SimTime::from_millis(10), timer(0, 1));
        q.schedule(SimTime::from_millis(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for token in 0..100 {
            q.schedule(t, timer(0, token));
        }
        let tokens = drain_tokens(&mut q);
        assert_eq!(tokens, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(2), timer(0, 0));
        q.schedule(SimTime::from_secs(1), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_if_at_or_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), timer(0, 0));
        q.schedule(SimTime::from_millis(20), timer(0, 1));
        assert!(q.pop_if_at_or_before(SimTime::from_millis(5)).is_none());
        // Inclusive horizon.
        let (t, _) = q.pop_if_at_or_before(SimTime::from_millis(10)).unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        assert!(q.pop_if_at_or_before(SimTime::from_millis(15)).is_none());
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop_if_at_or_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(t, SimTime::from_millis(20));
        assert!(q.pop_if_at_or_before(SimTime::from_secs(9)).is_none());
    }

    #[test]
    fn far_future_events_pop_correctly() {
        // Events many "years" past the calendar cursor wait in the far
        // heap; each pop from it moves the cursor to its day.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), timer(0, 0));
        q.schedule(SimTime::from_secs(3600), timer(0, 1));
        q.schedule(SimTime::from_secs(7200), timer(0, 2));
        assert_eq!(q.far.len(), 2);
        assert_one_year(&q);
        let tokens = drain_tokens(&mut q);
        assert_eq!(tokens, vec![0, 1, 2]);
    }

    #[test]
    fn a_same_instant_head_keeps_the_bucket_width() {
        // A many-flow set-up starts every sink at t = 0: the 33rd tie
        // triggers the 16 -> 32 grow with nothing but ties at the head.
        let mut q = EventQueue::new();
        for token in 0..33 {
            q.schedule(SimTime::ZERO, timer(0, token));
        }
        assert_eq!(q.buckets.len(), 32);
        assert_eq!(q.shift, INITIAL_SHIFT, "ties must not collapse the width");
        let ties = drain_tokens(&mut q);
        assert_eq!(ties, (0..33).collect::<Vec<_>>());
        assert_eq!(q.shift, INITIAL_SHIFT);

        // Then traffic spaced 100 µs: the next grow re-picks the width
        // from those distinct times, 2^18 ns being the smallest power
        // of two >= 2 × 100 µs.
        let nb = q.buckets.len();
        let mut token = 33;
        while q.buckets.len() == nb {
            q.schedule(SimTime::from_nanos(100_000 * token), timer(0, token));
            token += 1;
        }
        assert_eq!(q.shift, 18);

        // Interleave more ties so the drain also checks `seq` order.
        for t in 33..token {
            q.schedule(SimTime::from_nanos(100_000 * t), timer(0, token + t));
        }
        let mut keys = Vec::new();
        while let Some((time, kind)) = q.pop() {
            keys.push((time, token_of(kind)));
        }
        assert_eq!(keys.len(), 2 * (token - 33) as usize);
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "drain out of (time, seq) order"
        );
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        // Deterministic pseudo-random churn big enough to force the
        // calendar through several grow and shrink resizes.
        let mut q = EventQueue::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pending = 0i64;
        for i in 0..200_000u64 {
            if pending == 0 || rand() % 3 != 0 {
                q.schedule(SimTime::from_nanos(rand() % 50_000_000), timer(0, i));
                pending += 1;
            } else {
                // Mid-churn pops are ordered only relative to what is
                // still pending; the drain below checks the full order.
                q.pop().unwrap();
                pending -= 1;
            }
            if i % 1000 == 0 {
                assert_one_year(&q);
            }
        }
        let drained: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(drained.len(), pending as usize);
        assert!(
            drained.windows(2).all(|w| w[0] <= w[1]),
            "drain out of order"
        );
    }
}
