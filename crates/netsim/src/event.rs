//! The event scheduler.
//!
//! Two interchangeable backends produce the *same* event order:
//!
//! * [`SchedulerKind::Calendar`] (the default) — a calendar queue in the
//!   style of Brown (1988) and ns-2's scheduler: events are hashed into
//!   time buckets of width 2^k nanoseconds, insert and pop are amortized
//!   O(1), and the bucket array resizes (and re-picks its width from the
//!   observed event spacing) as the pending-event population drifts.
//! * [`SchedulerKind::Heap`] — the original `BinaryHeap`, kept as the
//!   O(log n) reference implementation for equivalence tests and the
//!   `bench_netsim` scheduler microbench.
//!
//! Ordering is by `(time, sched, sequence)`: the instant the event fires,
//! the instant it was *scheduled at* (the queue's clock when `schedule`
//! was called), and a monotone token assigned at scheduling time. Ties in
//! simulated time are therefore broken by scheduling time, then by
//! scheduling order — explicitly, not by backend internals — which is
//! what makes runs bit-for-bit reproducible and the two backends
//! byte-identical. In a single-queue run the scheduling time is
//! non-decreasing in the sequence number, so the triple orders exactly
//! like the historical `(time, seq)` pair; the `sched` component only
//! starts discriminating when events from *different* shards of a
//! sharded run (see `sim::Simulator`) are merged into one queue via
//! [`EventQueue::schedule_from`] — there it reproduces the order the
//! serial run would have used. The property test in
//! `tests/scheduler_equivalence.rs` and the `verify.sh` smoke step pin
//! this down.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU8, Ordering as AtomicOrdering};
use std::sync::OnceLock;

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

/// One scheduled event. Shared by both backends.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    /// Queue clock at the moment this entry was scheduled (or the
    /// source-shard clock, for entries imported across shards).
    sched: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Entry {
    /// The ordering key: fire time, then scheduling time, then
    /// scheduling order.
    #[inline]
    fn key(&self) -> (SimTime, SimTime, u64) {
        (self.time, self.sched, self.seq)
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
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// Which scheduler backend an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Binary-heap reference scheduler (O(log n) per operation).
    Heap,
    /// Calendar-queue scheduler (amortized O(1) per operation).
    Calendar,
}

/// Process-wide programmatic override: 0 = unset, 1 = heap, 2 = calendar.
static SCHEDULER_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The `SLOWCC_SCHEDULER` environment knob, read once per process.
static ENV_KIND: OnceLock<SchedulerKind> = OnceLock::new();

/// Force every subsequently created [`EventQueue`] (and therefore every
/// new [`crate::sim::Simulator`]) onto `kind`; `None` restores the
/// default resolution (environment, then calendar). Used by equivalence
/// tests that run the same figure under both backends in one process.
pub fn set_default_scheduler(kind: Option<SchedulerKind>) {
    let v = match kind {
        None => 0,
        Some(SchedulerKind::Heap) => 1,
        Some(SchedulerKind::Calendar) => 2,
    };
    SCHEDULER_OVERRIDE.store(v, AtomicOrdering::Relaxed);
}

impl SchedulerKind {
    /// The backend new queues get: the [`set_default_scheduler`] override
    /// if set, else the `SLOWCC_SCHEDULER` environment variable (`heap` or
    /// `calendar`), else [`SchedulerKind::Calendar`].
    pub fn default_kind() -> SchedulerKind {
        match SCHEDULER_OVERRIDE.load(AtomicOrdering::Relaxed) {
            1 => SchedulerKind::Heap,
            2 => SchedulerKind::Calendar,
            _ => *ENV_KIND.get_or_init(|| match std::env::var("SLOWCC_SCHEDULER") {
                Ok(v) if v == "heap" => SchedulerKind::Heap,
                Ok(v) if v == "calendar" => SchedulerKind::Calendar,
                Ok(v) => panic!("SLOWCC_SCHEDULER must be `heap` or `calendar`, got `{v}`"),
                Err(_) => SchedulerKind::Calendar,
            }),
        }
    }
}

/// Smallest bucket-array size the calendar queue shrinks down to.
const MIN_BUCKETS: usize = 16;
/// Largest bucket-array size the calendar queue grows up to.
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width: 2^16 ns ≈ 66 µs, the right order of magnitude
/// for packet events on the paper's megabit links (resize re-picks it
/// from the observed spacing anyway).
const INITIAL_SHIFT: u32 = 16;

/// Calendar queue: `buckets[(time >> shift) & mask]` holds the events of
/// every "day" (bucket-width slice of time) congruent to that index. A
/// cursor walks days in order; each pop scans the current day's bucket
/// for the `(time, seq)` minimum.
#[derive(Debug)]
struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: u64,
    len: usize,
    /// Day the pop cursor is on. Invariant: no pending event has an
    /// earlier day.
    cursor_day: u64,
    /// Pops since the last resize; amortizes the skew-triggered rebuild
    /// in [`Self::locate_min`] so it costs O(1) per pop even when a
    /// rebuild cannot help (all events at one instant).
    pops_since_resize: usize,
    /// Reusable scratch for [`Self::drain_batch`]: `(sched, seq, kind)`
    /// triples of the batch being extracted, sorted before they are
    /// handed out. Kept on the queue so steady-state batch drains never
    /// allocate.
    scratch: Vec<(SimTime, u64, EventKind)>,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::with_capacity(8)).collect(),
            shift: INITIAL_SHIFT,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
            cursor_day: 0,
            pops_since_resize: 0,
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn day_of(&self, time: SimTime) -> u64 {
        time.as_nanos() >> self.shift
    }

    #[inline]
    fn push(&mut self, entry: Entry) {
        let day = self.day_of(entry.time);
        // Keep the cursor invariant when an event lands in the past of
        // the cursor (arbitrary schedules in tests) or when the queue was
        // drained and the clock has moved far ahead.
        if day < self.cursor_day || self.len == 0 {
            self.cursor_day = day;
        }
        self.buckets[(day & self.mask) as usize].push(entry);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Locate the `(time, sched, seq)` minimum: advance the cursor to its
    /// day and return `(bucket, index_in_bucket)`. `None` when empty.
    ///
    /// Includes the *skew guard*: if the minimum's day bucket holds far
    /// more events than the occupancy target, the bucket width no longer
    /// matches the event spacing (a hold pattern can condense the whole
    /// horizon into one day without ever changing `len`), so re-pick the
    /// width and retry. The `pops_since_resize` gate keeps the O(n)
    /// rebuild amortized O(1) even when rebuilding cannot spread the
    /// events (e.g. everything at one instant).
    fn locate_min(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        self.pops_since_resize += 1;
        loop {
            let (b, i) = self.scan_min();
            // Cheap checks first: the division only runs on the rare
            // pop that actually looks skewed.
            if self.buckets[b].len() > 16
                && self.pops_since_resize > self.len
                && self.buckets[b].len() > 8 * self.len / self.buckets.len()
            {
                self.resize(self.buckets.len());
                continue;
            }
            return Some((b, i));
        }
    }

    /// One pass of the minimum search, cursor advanced to the found day.
    /// Caller guarantees `len > 0`.
    fn scan_min(&mut self) -> (usize, usize) {
        // Walk at most one "year" (full cycle of the bucket array) from
        // the cursor; each day's events live in exactly one bucket.
        let nb = self.buckets.len() as u64;
        for day in self.cursor_day..self.cursor_day + nb {
            let b = (day & self.mask) as usize;
            let mut best: Option<(usize, (SimTime, SimTime, u64))> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if self.day_of(e.time) == day && best.is_none_or(|(_, k)| e.key() < k) {
                    best = Some((i, e.key()));
                }
            }
            if let Some((i, _)) = best {
                self.cursor_day = day;
                return (b, i);
            }
        }
        // Every pending event is more than a year past the cursor (e.g.
        // far-future timers behind a drained present): fall back to a
        // direct scan of all buckets for the global minimum, then jump
        // the cursor to it.
        let mut best: Option<(usize, usize, (SimTime, SimTime, u64))> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, k)| e.key() < k) {
                    best = Some((b, i, e.key()));
                }
            }
        }
        let (b, i, (t, _, _)) = best.expect("len > 0 but no entry found");
        self.cursor_day = self.day_of(t);
        (b, i)
    }

    #[inline]
    fn remove(&mut self, pos: (usize, usize)) -> Entry {
        let entry = self.buckets[pos.0].swap_remove(pos.1);
        self.len -= 1;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        entry
    }

    /// Fused minimum-search and batch-drain behind
    /// [`EventQueue::drain_batch`]: one walk from the cursor both locates
    /// the `(time, sched, seq)` minimum *and* counts how many entries tie
    /// its timestamp (ties always share a day, hence a bucket), so the
    /// untied common case drains with a single O(1) `swap_remove` and no
    /// second bucket pass. Extracted kinds are appended to `out` in
    /// ascending `(sched, seq)` order — exactly the order repeated
    /// [`Self::remove`] calls would have produced. Returns the batch
    /// timestamp, or `None` when the queue is empty or the head is past
    /// `horizon` (located-but-rejected heads still advance the cursor, as
    /// `locate_min` would).
    fn drain_batch(&mut self, horizon: SimTime, out: &mut Vec<EventKind>) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.pops_since_resize += 1;
        loop {
            let (b, i, ties) = self.scan_min_with_ties();
            // Same skew guard as `locate_min`.
            if self.buckets[b].len() > 16
                && self.pops_since_resize > self.len
                && self.buckets[b].len() > 8 * self.len / self.buckets.len()
            {
                self.resize(self.buckets.len());
                continue;
            }
            let t = self.buckets[b][i].time;
            if t > horizon {
                return None;
            }
            let bucket = &mut self.buckets[b];
            if ties == 1 {
                out.push(bucket.swap_remove(i).kind);
                self.len -= 1;
            } else {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                bucket.retain(|e| {
                    if e.time == t {
                        scratch.push((e.sched, e.seq, e.kind));
                        false
                    } else {
                        true
                    }
                });
                self.len -= scratch.len();
                scratch.sort_unstable_by_key(|&(sched, seq, _)| (sched, seq));
                out.extend(scratch.iter().map(|&(_, _, kind)| kind));
                self.scratch = scratch;
            }
            // Same shrink trigger as `remove`, applied once per batch.
            if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
                self.resize((self.buckets.len() / 2).max(MIN_BUCKETS));
            }
            return Some(t);
        }
    }

    /// [`Self::scan_min`] variant that additionally counts the entries
    /// tying the minimum's timestamp. Caller guarantees `len > 0`.
    fn scan_min_with_ties(&mut self) -> (usize, usize, usize) {
        let nb = self.buckets.len();
        let mut day = self.cursor_day;
        for _ in 0..nb {
            let b = (day & self.mask) as usize;
            let mut best: Option<(usize, (SimTime, SimTime, u64))> = None;
            let mut ties = 0usize;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if self.day_of(e.time) != day {
                    continue;
                }
                match best {
                    None => {
                        best = Some((i, e.key()));
                        ties = 1;
                    }
                    Some((_, k)) => {
                        if e.time < k.0 {
                            best = Some((i, e.key()));
                            ties = 1;
                        } else if e.time == k.0 {
                            ties += 1;
                            if e.key() < k {
                                best = Some((i, e.key()));
                            }
                        }
                    }
                }
            }
            if let Some((i, _)) = best {
                self.cursor_day = day;
                return (b, i, ties);
            }
            day += 1;
        }
        // Far-future fallback, as in `scan_min`; the tie recount of the
        // found bucket is one extra scan on a path pops almost never take.
        let (b, i) = self.scan_min();
        let t = self.buckets[b][i].time;
        let ties = self.buckets[b].iter().filter(|e| e.time == t).count();
        (b, i, ties)
    }

    /// Rebuild with `new_nb` buckets, re-picking the bucket width from
    /// the spacing of the events at the *head* of the queue (Brown's
    /// rule). The head gap is what pops will actually see; a global
    /// `(max - min) / len` estimate is wrong whenever the distribution
    /// is skewed — e.g. a dense recycling cluster at the front with a
    /// sparse tail of far-out timers behind it.
    fn resize(&mut self, new_nb: usize) {
        const WIDTH_SAMPLE: usize = 32;
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.extend(std::mem::take(bucket));
        }
        if entries.len() >= 2 {
            // The WIDTH_SAMPLE earliest event times, via an O(n) select
            // (order within the head does not matter, only its span).
            let mut times: Vec<u64> = entries.iter().map(|e| e.time.as_nanos()).collect();
            if times.len() > WIDTH_SAMPLE {
                times.select_nth_unstable(WIDTH_SAMPLE - 1);
                times.truncate(WIDTH_SAMPLE);
            }
            let head = &times[..];
            let lo = head.iter().min().copied().unwrap_or(0);
            let hi = head.iter().max().copied().unwrap_or(0);
            let mean_gap = (hi - lo) / head.len().max(1) as u64;
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
        let mut min_day = u64::MAX;
        for e in &entries {
            min_day = min_day.min(self.day_of(e.time));
        }
        self.cursor_day = if entries.is_empty() { 0 } else { min_day };
        for e in entries {
            let day = self.day_of(e.time);
            self.buckets[(day & self.mask) as usize].push(e);
        }
        self.pops_since_resize = 0;
    }
}

enum Backend {
    Heap(BinaryHeap<Entry>),
    Calendar(CalendarQueue),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Heap(h) => f.debug_struct("Heap").field("len", &h.len()).finish(),
            Backend::Calendar(c) => f.debug_struct("Calendar").field("len", &c.len).finish(),
        }
    }
}

/// Deterministic earliest-first event queue over a pluggable backend.
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    next_seq: u64,
    /// Time of the most recently popped event — the instant handlers run
    /// at, recorded as the `sched` component of anything they schedule.
    clock: SimTime,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// A queue on the process default backend (see
    /// [`SchedulerKind::default_kind`]).
    pub fn new() -> Self {
        EventQueue::with_kind(SchedulerKind::default_kind())
    }

    /// A queue on an explicit backend.
    pub fn with_kind(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
            SchedulerKind::Calendar => Backend::Calendar(CalendarQueue::new()),
        };
        EventQueue {
            backend,
            next_seq: 0,
            clock: SimTime::ZERO,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> SchedulerKind {
        match self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// Schedule `kind` to fire at `time`, stamped with the queue's
    /// current clock as its scheduling time.
    ///
    /// Inlined along with `pop`: every packet hop and timer goes through
    /// these, so they should collapse into their callers.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.schedule_from(self.clock, time, kind);
    }

    /// Schedule `kind` to fire at `time` with an explicit scheduling
    /// time. This is the cross-shard import path: an arrival that was
    /// scheduled on another shard at source-clock `sched` keeps that
    /// stamp, so events fired at the same instant from different shards
    /// sort the way the serial run would have sorted them (by scheduling
    /// time, then sequence).
    #[inline]
    pub fn schedule_from(&mut self, sched: SimTime, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            time,
            sched,
            seq,
            kind,
        };
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(entry),
            Backend::Calendar(cal) => cal.push(entry),
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let popped = match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(|e| (e.time, e.kind)),
            Backend::Calendar(cal) => {
                let pos = cal.locate_min()?;
                let e = cal.remove(pos);
                Some((e.time, e.kind))
            }
        };
        if let Some((t, _)) = popped {
            self.clock = t;
        }
        popped
    }

    /// Remove and return the earliest event if it fires at or before
    /// `horizon` — the single-pass form of "peek, compare, pop" that
    /// [`crate::sim::Simulator::run_until`] drives the event loop with.
    #[inline]
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, EventKind)> {
        let popped = match &mut self.backend {
            Backend::Heap(heap) => {
                if heap.peek().is_some_and(|e| e.time <= horizon) {
                    heap.pop().map(|e| (e.time, e.kind))
                } else {
                    None
                }
            }
            Backend::Calendar(cal) => {
                let pos = cal.locate_min()?;
                if cal.buckets[pos.0][pos.1].time > horizon {
                    None
                } else {
                    let e = cal.remove(pos);
                    Some((e.time, e.kind))
                }
            }
        };
        if let Some((t, _)) = popped {
            self.clock = t;
        }
        popped
    }

    /// Remove every event sharing the earliest pending timestamp, if that
    /// timestamp is at or before `horizon`, appending their kinds to `out`
    /// in exactly the order repeated [`Self::pop`] calls would have
    /// produced (ascending `(sched, seq)`). Returns the batch timestamp,
    /// or `None` when the queue is empty or the head is past the horizon.
    ///
    /// Events scheduled *while a batch is being dispatched* — even at the
    /// batch's own timestamp — get strictly larger sequence numbers than
    /// everything already extracted, so picking them up in the *next*
    /// `drain_batch` call reproduces the single-pop order exactly. This is
    /// the ordering contract `Simulator::run_until` batching relies on;
    /// see DESIGN.md §5g and `tests/batch_equivalence.rs`.
    ///
    /// `out` is a caller-owned arena buffer (cleared here) so steady-state
    /// batch dispatch performs no allocation.
    pub fn drain_batch(&mut self, horizon: SimTime, out: &mut Vec<EventKind>) -> Option<SimTime> {
        out.clear();
        let t = match &mut self.backend {
            Backend::Heap(heap) => {
                let t = heap.peek().map(|e| e.time).filter(|&t| t <= horizon)?;
                while heap.peek().is_some_and(|e| e.time == t) {
                    out.push(heap.pop().expect("peeked entry exists").kind);
                }
                Some(t)
            }
            Backend::Calendar(cal) => cal.drain_batch(horizon, out),
        };
        if let Some(t) = t {
            self.clock = t;
        }
        t
    }

    /// Total number of events ever scheduled on this queue (the next
    /// sequence number). With [`Self::len`] this gives the number of
    /// events already dispatched — `scheduled() - len()` — without any
    /// hot-path counter.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Advance the scheduling clock to `t` (never backwards). The
    /// simulator calls this when a run reaches its horizon with events
    /// still pending, so anything scheduled *between* runs is stamped
    /// with the horizon — the same scheduling time on every shard —
    /// rather than with whichever event each queue happened to pop last.
    pub(crate) fn set_clock(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
    }

    /// Time of the earliest scheduled event. `&mut` because the calendar
    /// backend advances its day cursor while searching.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.time),
            Backend::Calendar(cal) => {
                let pos = cal.locate_min()?;
                Some(cal.buckets[pos.0][pos.1].time)
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Calendar(cal) => cal.len,
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Calendar];

    fn timer(agent: usize, token: u64) -> EventKind {
        EventKind::AgentTimer {
            agent: AgentId::from_index(agent),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_millis(30), timer(0, 0));
            q.schedule(SimTime::from_millis(10), timer(0, 1));
            q.schedule(SimTime::from_millis(20), timer(0, 2));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(t, _)| t.as_nanos() / 1_000_000)
                .collect();
            assert_eq!(order, vec![10, 20, 30], "{kind:?}");
        }
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_millis(5);
            for token in 0..100 {
                q.schedule(t, timer(0, token));
            }
            let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, k)| match k {
                    EventKind::AgentTimer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(tokens, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            assert_eq!(q.peek_time(), None);
            q.schedule(SimTime::from_secs(2), timer(0, 0));
            q.schedule(SimTime::from_secs(1), timer(0, 1));
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)), "{kind:?}");
            q.pop();
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)), "{kind:?}");
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn pop_if_at_or_before_respects_the_horizon() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_millis(10), timer(0, 0));
            q.schedule(SimTime::from_millis(20), timer(0, 1));
            assert!(
                q.pop_if_at_or_before(SimTime::from_millis(5)).is_none(),
                "{kind:?}"
            );
            // Inclusive horizon.
            let (t, _) = q.pop_if_at_or_before(SimTime::from_millis(10)).unwrap();
            assert_eq!(t, SimTime::from_millis(10));
            assert!(q.pop_if_at_or_before(SimTime::from_millis(15)).is_none());
            assert_eq!(q.len(), 1);
            let (t, _) = q.pop_if_at_or_before(SimTime::from_secs(1)).unwrap();
            assert_eq!(t, SimTime::from_millis(20));
            assert!(q.pop_if_at_or_before(SimTime::from_secs(9)).is_none());
        }
    }

    #[test]
    fn same_instant_ties_break_by_scheduling_time_then_order() {
        // Cross-shard imports carry a foreign scheduling time; at an
        // equal fire time the earlier-scheduled event must pop first even
        // when it was inserted later (higher seq).
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let fire = SimTime::from_millis(20);
            q.schedule_from(SimTime::from_millis(10), fire, timer(0, 0));
            q.schedule_from(SimTime::from_millis(5), fire, timer(0, 1));
            q.schedule_from(SimTime::from_millis(5), fire, timer(0, 2));
            let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, k)| match k {
                    EventKind::AgentTimer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(tokens, vec![1, 2, 0], "{kind:?}");

            let mut q = EventQueue::with_kind(kind);
            q.schedule_from(SimTime::from_millis(10), fire, timer(0, 0));
            q.schedule_from(SimTime::from_millis(5), fire, timer(0, 1));
            q.schedule_from(SimTime::from_millis(5), fire, timer(0, 2));
            let mut out = Vec::new();
            assert_eq!(q.drain_batch(fire, &mut out), Some(fire), "{kind:?}");
            let tokens: Vec<u64> = out
                .iter()
                .map(|k| match k {
                    EventKind::AgentTimer { token, .. } => *token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(tokens, vec![1, 2, 0], "{kind:?} drain_batch");
        }
    }

    #[test]
    fn popping_advances_the_scheduling_clock() {
        // An event scheduled from a handler (i.e. after a pop at time T)
        // is stamped sched=T and therefore beats a same-fire-time entry
        // imported with a later sched stamp.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_millis(1), timer(0, 9));
            q.pop();
            let fire = SimTime::from_millis(7);
            q.schedule_from(SimTime::from_millis(2), fire, timer(0, 0));
            q.schedule(fire, timer(0, 1)); // sched = 1 ms (the pop time)
            let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, k)| match k {
                    EventKind::AgentTimer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(tokens, vec![1, 0], "{kind:?}");
        }
    }

    #[test]
    fn far_future_events_pop_correctly() {
        // Events many "years" past the calendar cursor exercise the
        // overflow fallback scan.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_nanos(5), timer(0, 0));
            q.schedule(SimTime::from_secs(3600), timer(0, 1));
            q.schedule(SimTime::from_secs(7200), timer(0, 2));
            let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, k)| match k {
                    EventKind::AgentTimer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(tokens, vec![0, 1, 2], "{kind:?}");
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        // Deterministic pseudo-random churn big enough to force the
        // calendar through several grow and shrink resizes.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut state = 0x9E3779B97F4A7C15u64;
            let mut rand = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut last = None;
            let mut pending = 0i64;
            for i in 0..200_000u64 {
                if pending == 0 || rand() % 3 != 0 {
                    q.schedule(SimTime::from_nanos(rand() % 50_000_000), timer(0, i));
                    pending += 1;
                } else {
                    let (t, _) = q.pop().unwrap();
                    pending -= 1;
                    if let Some(prev) = last {
                        // Pops within one drain phase are non-decreasing
                        // only relative to what is still pending; a full
                        // ordering check happens in the drain below.
                        let _ = prev;
                    }
                    last = Some(t);
                }
            }
            let mut drained: Vec<(SimTime, u64)> = Vec::new();
            while let Some((t, k)) = q.pop() {
                let token = match k {
                    EventKind::AgentTimer { token, .. } => token,
                    _ => unreachable!(),
                };
                drained.push((t, token));
            }
            assert_eq!(drained.len(), pending as usize, "{kind:?}");
            assert!(
                drained.windows(2).all(|w| w[0].0 <= w[1].0),
                "{kind:?} drain out of order"
            );
        }
    }
}
