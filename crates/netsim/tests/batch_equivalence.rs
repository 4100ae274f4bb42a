//! Property tests pinning `EventQueue::drain_batch` to single pops, and
//! both to the `BinaryHeap` reference model in `tests/common`: for *any*
//! schedule — massed equal-timestamp ties, far-future jumps into the
//! calendar's overflow scan, and events inserted mid-batch by the
//! handlers of the batch being dispatched — batched dispatch must
//! produce the identical `(time, token)` sequence. This is the ordering
//! contract batched `Simulator::run_until` relies on for byte-identical
//! figures (DESIGN.md §5g).

mod common;

use proptest::prelude::*;

use slowcc_netsim::event::EventQueue;
use slowcc_netsim::time::SimTime;

use common::{ev, shape_time, token_of, HeapModel, Queue};

/// What a dispatched handler schedules in response to `token`: `None`
/// for most tokens, or a child event at a deterministic offset — zero
/// (a same-timestamp insert *during* that timestamp's batch, the case
/// batching must get right), small, or hours out. Children spawn
/// children too; the budget in the runners bounds the cascade.
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

/// Dispatch the whole queue one event at a time (the reference path),
/// running the spawn rule after each event exactly as a handler would.
fn run_single<Q: Queue>(times: &[u64], budget: usize) -> Vec<(u64, u64)> {
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

/// Dispatch the whole queue batch by batch, spawning mid-batch: children
/// scheduled while their parent's timestamp is being dispatched — some
/// at that very timestamp — must come out in exactly the single-pop
/// positions.
fn run_batched(times: &[u64], budget: usize) -> Vec<(u64, u64)> {
    let horizon = SimTime::from_nanos(u64::MAX);
    let mut q = EventQueue::new();
    let mut next_token = 0u64;
    for &t in times {
        q.schedule(SimTime::from_nanos(t), ev(next_token));
        next_token += 1;
    }
    let mut spawned = 0usize;
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut last_batch_time = 0u64;
    while let Some(t) = q.drain_batch(horizon, &mut buf) {
        assert!(!buf.is_empty(), "a successful drain yields at least one event");
        assert!(
            t.as_nanos() >= last_batch_time,
            "batch times went backwards: {} after {last_batch_time}",
            t.as_nanos()
        );
        last_batch_time = t.as_nanos();
        for &k in &buf {
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
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Static schedules (no handler inserts): batch dispatch equals
    /// single pops, and both equal the model.
    #[test]
    fn batches_equal_single_pops(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..300),
    ) {
        let times: Vec<u64> = raw_times.iter().map(|&r| shape_time(r)).collect();
        let reference = run_single::<HeapModel>(&times, 0);
        prop_assert_eq!(&run_single::<EventQueue>(&times, 0), &reference, "single");
        prop_assert_eq!(&run_batched(&times, 0), &reference, "batched");
    }

    /// Handlers insert events mid-batch — including at the timestamp of
    /// the batch currently being dispatched — and the order still
    /// matches the model's single pops exactly.
    #[test]
    fn mid_batch_inserts_preserve_order(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        let times: Vec<u64> = raw_times.iter().map(|&r| shape_time(r)).collect();
        let budget = times.len() * 2;
        let reference = run_single::<HeapModel>(&times, budget);
        prop_assert_eq!(&run_single::<EventQueue>(&times, budget), &reference, "single");
        prop_assert_eq!(&run_batched(&times, budget), &reference, "batched");
    }

    /// Massed ties at a handful of instants: whole batches are carried
    /// by the seq tie-break alone.
    #[test]
    fn tied_batches_resolve_identically(
        slots in prop::collection::vec(0u64..4, 2..200),
        base in 0u64..1_000_000,
    ) {
        let times: Vec<u64> = slots.iter().map(|&s| base + s).collect();
        let budget = times.len();
        let reference = run_single::<HeapModel>(&times, budget);
        prop_assert_eq!(&run_batched(&times, budget), &reference);
    }

    /// `drain_batch` respects the horizon exactly like
    /// `pop_if_at_or_before`: nothing past it comes out, everything at
    /// or before it does, and what remains pending agrees.
    #[test]
    fn batch_horizons_agree_with_single_pops(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..120),
        raw_horizons in prop::collection::vec(0u64..u64::MAX, 1..20),
    ) {
        let times: Vec<u64> = raw_times.iter().map(|&r| shape_time(r)).collect();
        let mut horizons: Vec<u64> = raw_horizons.iter().map(|&r| shape_time(r)).collect();
        horizons.sort_unstable();
        let mut single = EventQueue::new();
        let mut batched = EventQueue::new();
        for (tok, &t) in times.iter().enumerate() {
            single.schedule(SimTime::from_nanos(t), ev(tok as u64));
            batched.schedule(SimTime::from_nanos(t), ev(tok as u64));
        }
        let mut buf = Vec::new();
        for &h in &horizons {
            let horizon = SimTime::from_nanos(h);
            loop {
                let mut from_single = Vec::new();
                let first = single.pop_if_at_or_before(horizon);
                let Some((t, k)) = first else {
                    prop_assert_eq!(
                        batched.drain_batch(horizon, &mut buf), None,
                        "batched popped past the horizon"
                    );
                    break;
                };
                from_single.push(k);
                // The reference batch: keep popping while the head
                // shares the drained timestamp.
                while single.peek_time() == Some(t) {
                    from_single.push(single.pop_if_at_or_before(horizon).unwrap().1);
                }
                prop_assert_eq!(batched.drain_batch(horizon, &mut buf), Some(t));
                prop_assert_eq!(&buf, &from_single, "batch contents");
                prop_assert_eq!(single.len(), batched.len());
            }
        }
    }
}
