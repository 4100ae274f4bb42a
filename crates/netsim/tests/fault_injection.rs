//! Property and directed tests for the deterministic fault-injection
//! layer (`netsim::faults`): for any seeded `FaultPlan`, two runs with
//! identical seeds are byte-identical, and duplication/reordering/flap
//! faults never unbalance the audit layer's packet ledger.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use slowcc_netsim::faults::FaultPlan;
use slowcc_netsim::ids::{AgentId, FlowId, NodeId};
use slowcc_netsim::link::Link;
use slowcc_netsim::packet::{AckInfo, Packet, PacketSpec};
use slowcc_netsim::queue::DropTail;
use slowcc_netsim::sim::{Agent, Ctx, Simulator};
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{DumbbellConfig, DumbbellOptions, ParkingLot, QueueKind};
use slowcc_netsim::trace::VecTrace;

/// Sends `count` data packets, one every `gap`, then goes quiet.
struct Paced {
    flow: FlowId,
    dst_node: NodeId,
    dst_agent: AgentId,
    count: u64,
    sent: u64,
    gap: SimDuration,
}

impl Agent for Paced {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.gap, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.sent < self.count {
            ctx.send(PacketSpec::data(
                self.flow,
                self.sent,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
            self.sent += 1;
            if self.sent < self.count {
                ctx.set_timer(self.gap, 0);
            }
        }
    }
    fn audit_done(&self, _now: SimTime) -> bool {
        self.sent >= self.count
    }
}

/// ACKs every data packet and records the delivery order of sequence
/// numbers, so reordering and duplication are observable.
struct RecordingSink {
    seqs: Arc<Mutex<Vec<u64>>>,
}

impl Agent for RecordingSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.is_data() {
            self.seqs.lock().unwrap().push(pkt.seq);
            let info = AckInfo::cumulative(pkt.seq + 1, pkt.seq, pkt.sent_at);
            ctx.send(PacketSpec::ack_to(&pkt, 40, info));
        }
    }
}

/// The byte-comparable outcome of one faulted run.
#[derive(Debug, PartialEq)]
struct Outcome {
    trace: String,
    delivery_order: Vec<u64>,
    arrivals: u64,
    drops: u64,
    flap_drops: u64,
    duplicates: u64,
    held: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    in_flight: u64,
}

/// Two hosts joined by a faulted A->B link and a clean B->A link; a paced
/// source sends `count` packets, the audit must come back clean, and
/// everything observable is folded into an [`Outcome`].
fn run_faulted(seed: u64, plan: FaultPlan, count: u64) -> Outcome {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(
        a,
        Link::new(
            b,
            8e6,
            SimDuration::from_millis(5),
            Box::new(DropTail::new(64)),
        )
        .with_faults(plan),
    );
    let ba = sim.add_link(
        b,
        Link::new(
            a,
            8e6,
            SimDuration::from_millis(5),
            Box::new(DropTail::new(64)),
        ),
    );
    sim.set_default_route(a, ab);
    sim.set_default_route(b, ba);
    sim.set_trace(Box::new(VecTrace::new(250_000)));

    let seqs = Arc::new(Mutex::new(Vec::new()));
    let sink = sim.add_agent(b, Box::new(RecordingSink { seqs: seqs.clone() }));
    let flow = sim.new_flow();
    sim.add_agent(
        a,
        Box::new(Paced {
            flow,
            dst_node: b,
            dst_agent: sink,
            count,
            sent: 0,
            gap: SimDuration::from_millis(2),
        }),
    );
    sim.run_until(SimTime::from_secs(2));

    let trace_sink = sim.take_trace().expect("trace installed");
    let trace: &VecTrace = trace_sink
        .as_any()
        .and_then(|s| s.downcast_ref())
        .expect("VecTrace downcasts");
    let trace = format!("{:?}", trace.events());

    let report = sim.finish_audit().unwrap();
    report.assert_clean();

    let delivery_order = seqs.lock().unwrap().clone();
    let link = sim.stats().link(ab).expect("faulted link has stats");
    Outcome {
        trace,
        delivery_order,
        arrivals: link.total_arrivals,
        drops: link.total_drops,
        flap_drops: link.total_flap_drops,
        duplicates: link.total_duplicates,
        held: link.total_fault_held,
        injected: report.packets_injected,
        delivered: report.packets_delivered,
        dropped: report.packets_dropped,
        in_flight: report.packets_in_flight,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// For any plan drawn from the full fault space: the run replays
    /// byte-identically from `(plan, seed)`, the audit comes back
    /// clean, and the packet ledger balances exactly.
    #[test]
    fn seeded_fault_plans_replay_bit_identically(
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        every_nth in 0u64..40,
        hold_ms in 1u64..40,
        max_held in 1usize..12,
        dup_millis in 0u32..30,
        jitter_ms in 0u64..8,
        flap in prop::bool::ANY,
        down_ms in 50u64..350,
        width_ms in 20u64..150,
    ) {
        let mut plan = FaultPlan::seeded(fault_seed)
            .with_duplication(dup_millis as f64 / 1000.0)
            .with_jitter(SimDuration::from_millis(jitter_ms));
        if every_nth >= 2 {
            plan = plan.with_reorder(every_nth, SimDuration::from_millis(hold_ms), max_held);
        }
        if flap {
            plan = plan.with_flap(
                SimTime::from_millis(down_ms),
                SimTime::from_millis(down_ms + width_ms),
            );
        }

        let first = run_faulted(seed, plan.clone(), 150);
        let second = run_faulted(seed, plan.clone(), 150);
        prop_assert_eq!(&first, &second, "identical (plan, seed) must replay identically");

        // The ledger balances: every injected packet reached exactly one
        // terminal state (a clean audit says so already, but pin the
        // arithmetic explicitly too).
        prop_assert_eq!(
            first.injected,
            first.delivered + first.dropped + first.in_flight
        );
        // Duplicates are admitted as ordinary arrivals behind their
        // originals, and only non-flap drops besides flap drops exist on
        // this link (no loss pattern, generous queue).
        prop_assert!(first.arrivals >= first.duplicates);
        prop_assert!(first.drops >= first.flap_drops);
    }
}

#[test]
fn reordering_changes_delivery_order_but_not_the_ledger() {
    let plan = FaultPlan::seeded(5).with_reorder(7, SimDuration::from_millis(25), 4);
    let out = run_faulted(11, plan, 200);
    assert!(out.held > 0, "reorder fault never engaged");
    assert_eq!(out.injected, out.delivered + out.dropped + out.in_flight);
    // Deliveries must contain every sequence number exactly once (held
    // packets are delayed, never lost)...
    let mut sorted = out.delivery_order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..200).collect::<Vec<u64>>());
    // ...but not in order.
    assert!(
        out.delivery_order.windows(2).any(|w| w[0] > w[1]),
        "hold-and-release produced no reordering"
    );
}

#[test]
fn duplication_delivers_extra_copies_with_fresh_uids() {
    let plan = FaultPlan::seeded(3).with_duplication(0.2);
    let out = run_faulted(7, plan, 200);
    assert!(out.duplicates > 10, "20% duplication should engage often");
    // Every clone is a distinct ledger entry; deliveries exceed the 200
    // originals (ACKs are delivered too, so compare against the total).
    assert_eq!(out.injected, out.delivered + out.dropped + out.in_flight);
    assert!(
        out.delivery_order.len() as u64 > 200,
        "duplicates should reach the sink as extra deliveries"
    );
}

#[test]
fn flap_windows_blackhole_and_account_as_drops() {
    let plan = FaultPlan::seeded(0).with_flap(SimTime::from_millis(100), SimTime::from_millis(200));
    let out = run_faulted(2, plan, 200);
    // ~50 packets are offered during the 100 ms outage at one per 2 ms.
    assert!(
        (30..=70).contains(&out.flap_drops),
        "flap drops {} outside the outage-window envelope",
        out.flap_drops
    );
    assert_eq!(out.drops, out.flap_drops, "only the outage drops here");
    assert_eq!(out.injected, out.delivered + out.dropped + out.in_flight);
    // The survivors are exactly the packets sent outside the window.
    assert_eq!(out.delivery_order.len() as u64 + out.flap_drops, 200);
}

#[test]
fn jitter_perturbs_timing_without_losing_packets() {
    let base = run_faulted(9, FaultPlan::seeded(1), 100);
    let jittered = run_faulted(
        9,
        FaultPlan::seeded(1).with_jitter(SimDuration::from_millis(6)),
        100,
    );
    assert_ne!(base.trace, jittered.trace, "jitter must perturb the trace");
    assert_eq!(jittered.drops, 0);
    let mut sorted = jittered.delivery_order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
}

#[test]
fn distinct_fault_seeds_diverge() {
    let plan_a = FaultPlan::seeded(1).with_duplication(0.05);
    let plan_b = FaultPlan::seeded(2).with_duplication(0.05);
    let a = run_faulted(4, plan_a, 200);
    let b = run_faulted(4, plan_b, 200);
    assert_ne!(
        a.trace, b.trace,
        "different fault seeds should draw different duplication patterns"
    );
}

/// A three-hop parking lot with fault plans on the first hop in both
/// directions: reordered, duplicated and jittered packets cross several
/// routers, and the run still replays identically from its seed with a
/// clean audit. Returns the delivery order and every flow and
/// link counter.
fn run_faulted_parking_lot(seed: u64) -> (Vec<u64>, String) {
    let mut cfg = DumbbellConfig::paper(8e6);
    cfg.queue = QueueKind::DropTail(64);
    let mut sim = Simulator::new(seed);
    let opts = DumbbellOptions::new()
        .forward_faults(
            FaultPlan::seeded(seed ^ 0xBEEF)
                .with_reorder(11, SimDuration::from_millis(15), 4)
                .with_duplication(0.02)
                .with_jitter(SimDuration::from_millis(3)),
        )
        .reverse_faults(FaultPlan::seeded(seed ^ 0xFACE).with_jitter(SimDuration::from_millis(2)));
    let lot = ParkingLot::build_with(&mut sim, cfg, 3, opts);
    let pair = lot.add_host_pair(&mut sim, 0, 3);
    let seqs = Arc::new(Mutex::new(Vec::new()));
    let sink = sim.add_agent(pair.right, Box::new(RecordingSink { seqs: seqs.clone() }));
    let flow = sim.new_flow();
    sim.add_agent(
        pair.left,
        Box::new(Paced {
            flow,
            dst_node: pair.right,
            dst_agent: sink,
            count: 300,
            sent: 0,
            gap: SimDuration::from_millis(2),
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    sim.finish_audit().unwrap().assert_clean();

    let mut counters = format!("{:?}\n", sim.stats().flow(flow));
    for &link in lot.forward.iter().chain(&lot.reverse) {
        counters.push_str(&format!("{link}: {:?}\n", sim.stats().link(link)));
    }
    let order = seqs.lock().unwrap().clone();
    (order, counters)
}

#[test]
fn faulted_parking_lot_replays_bit_identically() {
    for seed in [5u64, 23] {
        let first = run_faulted_parking_lot(seed);
        assert_eq!(first, run_faulted_parking_lot(seed), "seed {seed}");
        assert!(
            first.0.windows(2).any(|w| w[0] > w[1]),
            "seed {seed}: the first-hop reorder fault never engaged"
        );
    }
}

/// An unfaulted link behaves exactly as before the fault layer existed:
/// attaching an empty plan is also a no-op.
#[test]
fn empty_plan_is_transparent() {
    let bare = run_faulted(6, FaultPlan::default(), 150);
    let seeded_empty = run_faulted(6, FaultPlan::seeded(99), 150);
    assert_eq!(bare, seeded_empty, "an empty plan must not perturb the run");
    assert_eq!(bare.duplicates, 0);
    assert_eq!(bare.held, 0);
    assert_eq!(bare.flap_drops, 0);
}
