//! Property tests pinning `EventQueue` (the calendar queue) to the
//! `BinaryHeap` reference model in `tests/common`: for *any* schedule —
//! equal-timestamp ties, far-future times that land in the far heap,
//! times on and either side of the calendar year's edge,
//! pops interleaved with pushes, handlers that schedule mid-dispatch,
//! sequence numbers reserved now and pushed with later —
//! the queue must produce the model's event sequence. This is the
//! determinism contract `event.rs` promises; if it ever breaks, figure
//! outputs silently change.

mod common;

use std::collections::VecDeque;

use proptest::prelude::*;

use slowcc_netsim::event::EventQueue;
use slowcc_netsim::time::SimTime;

use common::{ev, shape_time, token_of, HeapModel, Queue};

/// Drive one queue through the op sequence and record everything popped.
///
/// `ops` encodes a schedule/pop trace: `Some(t)` schedules an event at
/// time `t` (tokens count up in program order, so ties are detectable),
/// `None` pops. Pops from an empty queue record a sentinel so "popped
/// nothing" must also match the model.
fn run_trace<Q: Queue>(ops: &[Option<u64>]) -> Vec<(u64, u64)> {
    let mut q = Q::default();
    let mut token = 0u64;
    let mut popped = Vec::new();
    for op in ops {
        match op {
            Some(t) => {
                q.schedule(SimTime::from_nanos(*t), ev(token));
                token += 1;
            }
            None => match q.pop() {
                Some((t, kind)) => popped.push((t.as_nanos(), token_of(kind))),
                None => popped.push((u64::MAX, u64::MAX)),
            },
        }
    }
    // Drain the remainder so the full order is compared, not a prefix.
    while let Some((t, kind)) = q.pop() {
        popped.push((t.as_nanos(), token_of(kind)));
    }
    popped
}

/// `run_trace` with reservations, as a re-armed `Timer` makes them. Each
/// op is `(kind, t)`: kind 0 schedules at `t`, 1 reserves a seq now for
/// an event at `t`, 2 pushes the oldest outstanding reservation at its
/// reserved key, 3 pops. Tokens count up at schedule or reserve, so an
/// entry's token says where its seq was taken. Outstanding reservations
/// are pushed before the drain.
fn run_reserved_trace<Q: Queue>(ops: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut q = Q::default();
    let mut token = 0u64;
    let mut reserved: VecDeque<(SimTime, u64, u64)> = VecDeque::new();
    let mut popped = Vec::new();
    for &(kind, t) in ops {
        let time = SimTime::from_nanos(t);
        match kind {
            0 => {
                q.schedule(time, ev(token));
                token += 1;
            }
            1 => {
                reserved.push_back((time, q.reserve_seq(), token));
                token += 1;
            }
            2 => {
                if let Some((time, seq, tok)) = reserved.pop_front() {
                    q.schedule_at_seq(time, seq, ev(tok));
                }
            }
            _ => match q.pop() {
                Some((t, kind)) => popped.push((t.as_nanos(), token_of(kind))),
                None => popped.push((u64::MAX, u64::MAX)),
            },
        }
    }
    for (time, seq, tok) in reserved {
        q.schedule_at_seq(time, seq, ev(tok));
    }
    while let Some((t, kind)) = q.pop() {
        popped.push((t.as_nanos(), token_of(kind)));
    }
    popped
}

/// A log-uniform offset from 1 ns to about 2.4 hours (2^43 ns): the
/// exponent is uniform, the mantissa bits below it are `raw`'s.
fn log_uniform(raw: u64) -> u64 {
    let e = raw % 44;
    (1 << e) | ((raw >> 8) & ((1 << e) - 1))
}

/// A time that sits on a power-of-two day boundary `2^j` days of width
/// `2^s` past the day of `last`, give or take a nanosecond. Bucket
/// widths and counts are both powers of two, so some of these land
/// exactly on the first day past the calendar's year.
fn on_an_edge(last: u64, raw: u64) -> u64 {
    let s = 4 + raw % 37;
    let j = 4 + (raw >> 8) % 17;
    let edge = ((last >> s) + (1 << j)) << s;
    match (raw >> 16) % 3 {
        0 => edge - 1,
        1 => edge,
        _ => edge + 1,
    }
}

/// `run_reserved_trace` with times relative to the last pop, so entries
/// land on both sides of the calendar's year wherever the cursor is.
/// Each op is `(kind, raw)`: kind 0 schedules `log_uniform` past the
/// last pop, 1 on a day boundary (`on_an_edge`), 2 `log_uniform`
/// *before* the last pop (queue-level only: the far heap takes it),
/// 3 reserves a seq for a time `log_uniform` past the last pop, 4 pushes
/// the oldest outstanding reservation, 5 pops.
fn run_window_trace<Q: Queue>(ops: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut q = Q::default();
    let mut token = 0u64;
    let mut last = 0u64;
    let mut reserved: VecDeque<(SimTime, u64, u64)> = VecDeque::new();
    let mut popped = Vec::new();
    for &(kind, raw) in ops {
        let t = match kind {
            0 | 3 => last + log_uniform(raw),
            1 => on_an_edge(last, raw),
            _ => last.saturating_sub(log_uniform(raw)),
        };
        match kind {
            0..=2 => {
                q.schedule(SimTime::from_nanos(t), ev(token));
                token += 1;
            }
            3 => {
                reserved.push_back((SimTime::from_nanos(t), q.reserve_seq(), token));
                token += 1;
            }
            4 => {
                if let Some((time, seq, tok)) = reserved.pop_front() {
                    q.schedule_at_seq(time, seq, ev(tok));
                }
            }
            _ => match q.pop() {
                Some((t, kind)) => {
                    last = t.as_nanos();
                    popped.push((last, token_of(kind)));
                }
                None => popped.push((u64::MAX, u64::MAX)),
            },
        }
    }
    for (time, seq, tok) in reserved {
        q.schedule_at_seq(time, seq, ev(tok));
    }
    while let Some((t, kind)) = q.pop() {
        popped.push((t.as_nanos(), token_of(kind)));
    }
    popped
}

/// What a handler schedules on dispatching `token`: usually nothing, else
/// a child at offset zero (the very timestamp being dispatched), small,
/// or hours out. Children spawn children; `budget` bounds the cascade.
fn spawn_offset(token: u64) -> Option<u64> {
    let mut h = token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    match h % 8 {
        0 => Some(0),
        1 => Some(1 + h % 1_000),
        2 => Some(h % 50_000_000),
        3 => Some(3_600_000_000_000 + h % 1_000_000_000),
        _ => None,
    }
}

/// Dispatch the whole queue as `Simulator::run_window` does, one
/// `pop_if_at_or_before` per event, applying the spawn rule after each.
fn run_dispatch<Q: Queue>(times: &[u64], budget: usize) -> Vec<(u64, u64)> {
    let horizon = SimTime::from_nanos(u64::MAX);
    let mut q = Q::default();
    let mut next_token = 0u64;
    for &t in times {
        q.schedule(SimTime::from_nanos(t), ev(next_token));
        next_token += 1;
    }
    let mut spawned = 0usize;
    let mut out = Vec::new();
    while let Some((t, k)) = q.pop_if_at_or_before(horizon) {
        let token = token_of(k);
        out.push((t.as_nanos(), token));
        if spawned < budget {
            if let Some(dt) = spawn_offset(token) {
                q.schedule(SimTime::from_nanos(t.as_nanos() + dt), ev(next_token));
                next_token += 1;
                spawned += 1;
            }
        }
    }
    out
}

/// One long-lived queue driven through the regimes that whole-simulation
/// replays against the heap used to reach: 56 k events at spacings from
/// 1 ns to 10 s. Each round grows the bucket array through eight
/// doublings, then holds the population constant while the head condenses
/// into a single bucket-day (pop 1000, schedule 1000 `dense` apart just
/// past the clock) until the skew guard re-picks the width with no
/// grow/shrink to prompt it — which moves the coarse tail more than a
/// year out, into the far heap — then drains back down through the
/// shrinks.
#[test]
fn resizes_and_skew_rebuilds_keep_the_model_order() {
    const NS: u64 = 1;
    const US: u64 = 1_000;
    const MS: u64 = 1_000_000;
    const S: u64 = 1_000_000_000;
    let mut ops: Vec<Option<u64>> = Vec::new();
    let mut base = 0u64;
    for (coarse, dense) in [(10 * S, NS), (10 * MS, US), (100 * US, 10 * NS), (S, NS)] {
        ops.extend((0..6000).map(|i| Some(base + i * coarse)));
        let mut head = base + 999 * coarse;
        for _ in 0..8 {
            ops.extend([None; 1000]);
            ops.extend((1..=1000).map(|j| Some(head + j * dense)));
            head += 1000 * dense;
        }
        ops.extend([None; 5990]);
        base += 6000 * coarse;
    }
    assert_eq!(run_trace::<EventQueue>(&ops), run_trace::<HeapModel>(&ops));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Pure schedules (no interleaved pops): the queue pops the model's
    /// (time, token) sequence.
    #[test]
    fn identical_pop_order_for_random_schedules(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..300),
    ) {
        let ops: Vec<Option<u64>> =
            raw_times.iter().map(|&r| Some(shape_time(r))).collect();
        prop_assert_eq!(run_trace::<EventQueue>(&ops), run_trace::<HeapModel>(&ops));
    }

    /// Interleaved pushes and pops — the cursor-rewind and resize paths
    /// of the calendar queue fire mid-stream — still the model's order.
    #[test]
    fn identical_order_with_interleaved_pops(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..300),
        pops in prop::collection::vec(prop::bool::ANY, 1..300),
    ) {
        let ops: Vec<Option<u64>> = raw_times
            .iter()
            .zip(pops.iter().cycle())
            .map(|(&r, &pop)| if pop { None } else { Some(shape_time(r)) })
            .collect();
        prop_assert_eq!(run_trace::<EventQueue>(&ops), run_trace::<HeapModel>(&ops));
    }

    /// Reserve-then-schedule-later inserts mixed with plain schedules
    /// and pops: each reserved entry pops at its reserved key, as the
    /// model's, including ties where only the seq orders it.
    #[test]
    fn reserved_seqs_pop_at_their_reserved_keys(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..300),
        kinds in prop::collection::vec(0u64..4, 1..300),
    ) {
        let ops: Vec<(u64, u64)> = raw_times
            .iter()
            .zip(kinds.iter().cycle())
            // Half the times are ties among 4 instants, where the key's
            // seq alone decides.
            .map(|(&r, &kind)| (kind, if r % 2 == 0 { r % 4 } else { shape_time(r) }))
            .collect();
        prop_assert_eq!(run_reserved_trace::<EventQueue>(&ops), run_reserved_trace::<HeapModel>(&ops));
    }

    /// The year's edges: log-uniform times from 1 ns to hours past the
    /// last pop, times exactly on power-of-two day boundaries (some on
    /// `cursor_day + buckets.len()`, the first day of the far heap) and
    /// a nanosecond either side, times before the cursor, reserved seqs
    /// pushed later and pops, interleaved. Kinds are weighted toward
    /// schedules so the calendar grows through several resizes.
    #[test]
    fn the_window_edge_keeps_the_model_order(
        raw in prop::collection::vec(0u64..u64::MAX, 1..400),
        kinds in prop::collection::vec(0u64..10, 1..400),
    ) {
        // 0-1 log-uniform, 2-3 on an edge, 4 before the cursor,
        // 5 reserve, 6 push a reservation, 7-9 pop.
        const KIND: [u64; 10] = [0, 0, 1, 1, 2, 3, 4, 5, 5, 5];
        let ops: Vec<(u64, u64)> = raw
            .iter()
            .zip(kinds.iter().cycle())
            .map(|(&r, &k)| (KIND[k as usize], r))
            .collect();
        prop_assert_eq!(run_window_trace::<EventQueue>(&ops), run_window_trace::<HeapModel>(&ops));
    }

    /// Massed equal-timestamp ties: every event at one of a handful of
    /// instants, so ordering is carried almost entirely by the seq token.
    #[test]
    fn ties_resolve_identically(
        slots in prop::collection::vec(0u64..4, 2..200),
        base in 0u64..1_000_000,
    ) {
        let ops: Vec<Option<u64>> = slots.iter().map(|&s| Some(base + s)).collect();
        prop_assert_eq!(run_trace::<EventQueue>(&ops), run_trace::<HeapModel>(&ops));
    }

    /// Handlers insert events during dispatch — including at the
    /// timestamp being dispatched — and the order is still the model's.
    #[test]
    fn mid_dispatch_inserts_preserve_order(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        let times: Vec<u64> = raw_times.iter().map(|&r| shape_time(r)).collect();
        let budget = times.len() * 2;
        prop_assert_eq!(
            run_dispatch::<EventQueue>(&times, budget),
            run_dispatch::<HeapModel>(&times, budget)
        );
    }

    /// Massed ties at a handful of instants, with handlers adding more
    /// at those same instants: order is carried by `seq` alone.
    #[test]
    fn tied_dispatch_resolves_identically(
        slots in prop::collection::vec(0u64..4, 2..200),
        base in 0u64..1_000_000,
    ) {
        let times: Vec<u64> = slots.iter().map(|&s| base + s).collect();
        prop_assert_eq!(
            run_dispatch::<EventQueue>(&times, times.len()),
            run_dispatch::<HeapModel>(&times, times.len())
        );
    }

    /// `pop_if_at_or_before` agrees with the model at every horizon,
    /// including horizons before, between, and after all events.
    #[test]
    fn horizon_pops_agree(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..120),
        raw_horizons in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let times: Vec<u64> = raw_times.iter().map(|&r| shape_time(r)).collect();
        let mut heap = HeapModel::default();
        let mut cal = EventQueue::new();
        for (tok, &t) in times.iter().enumerate() {
            heap.schedule(SimTime::from_nanos(t), ev(tok as u64));
            cal.schedule(SimTime::from_nanos(t), ev(tok as u64));
        }
        let mut horizons: Vec<u64> = raw_horizons.iter().map(|&r| shape_time(r)).collect();
        horizons.sort_unstable();
        for h in horizons {
            let horizon = SimTime::from_nanos(h);
            loop {
                let a = heap.pop_if_at_or_before(horizon);
                let b = cal.pop_if_at_or_before(horizon);
                prop_assert_eq!(a, b);
                prop_assert_eq!(heap.peek_time(), cal.peek_time());
                if a.is_none() {
                    break;
                }
            }
        }
        // Whatever survives past the last horizon must still agree.
        loop {
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
