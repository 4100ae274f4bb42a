//! Property-based tests of the simulator substrate itself.

use proptest::prelude::*;

use slowcc_netsim::prelude::*;
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::transmission_time;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// SimTime/SimDuration arithmetic: addition is monotone, subtraction
    /// saturates, and second/nanosecond conversions round-trip.
    #[test]
    fn time_arithmetic_laws(a_ns in 0u64..u64::MAX / 4, d_ns in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a_ns);
        let d = SimDuration::from_nanos(d_ns);
        prop_assert!(t + d >= t);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        prop_assert_eq!(SimTime::from_nanos(a_ns).as_nanos(), a_ns);
    }

    /// Serialization time scales linearly in bytes and inversely in rate,
    /// and always rounds up (never zero for a nonzero packet on a finite
    /// link).
    #[test]
    fn transmission_time_laws(bytes in 1u32..100_000, rate in 1e3f64..1e12) {
        let t1 = transmission_time(bytes, rate);
        prop_assert!(t1.as_nanos() > 0);
        let t2 = transmission_time(bytes, rate * 2.0);
        // Halved (within rounding).
        prop_assert!(t2.as_nanos() <= t1.as_nanos() / 2 + 1);
        let exact = bytes as f64 * 8.0 / rate;
        prop_assert!(t1.as_secs_f64() >= exact - 1e-12);
        prop_assert!(t1.as_secs_f64() <= exact + 2e-9);
    }

    /// A burst through a DropTail link conserves packets exactly:
    /// delivered + dropped + queued (+ on the wire) == sent, and FIFO order
    /// is preserved at the receiver.
    #[test]
    fn droptail_link_conserves_and_preserves_order(
        burst in 1usize..120,
        cap in 1usize..60,
        rate_mbps in 1.0f64..100.0,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Arc, Mutex};

        struct Burst {
            flow: FlowId,
            dst_node: NodeId,
            dst_agent: AgentId,
            n: usize,
        }
        impl Agent for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for seq in 0..self.n as u64 {
                    ctx.send(PacketSpec::data(self.flow, seq, 1000, self.dst_node, self.dst_agent));
                }
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
        }
        struct Collect {
            seqs: Arc<Mutex<Vec<u64>>>,
            count: Arc<AtomicU64>,
        }
        impl Agent for Collect {
            fn on_packet(&mut self, p: Packet, _c: &mut Ctx<'_>) {
                self.seqs.lock().unwrap().push(p.seq);
                self.count.fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(
            a,
            Link::new(
                b,
                rate_mbps * 1e6,
                SimDuration::from_millis(1),
                Box::new(DropTail::new(cap)),
            ),
        );
        sim.set_default_route(a, ab);
        let seqs = Arc::new(Mutex::new(Vec::new()));
        let count = Arc::new(AtomicU64::new(0));
        let sink = sim.add_agent(b, Box::new(Collect { seqs: seqs.clone(), count: count.clone() }));
        let flow = sim.new_flow();
        sim.add_agent(a, Box::new(Burst { flow, dst_node: b, dst_agent: sink, n: burst }));
        sim.run_until(SimTime::from_secs(60));

        let delivered = count.load(Ordering::Relaxed);
        let l = sim.stats().link(ab).unwrap();
        prop_assert_eq!(l.total_arrivals, burst as u64);
        prop_assert_eq!(delivered + l.total_drops, burst as u64);
        // Burst of n into capacity cap + 1 on the wire: min(n, cap+1)
        // delivered.
        prop_assert_eq!(delivered as usize, burst.min(cap + 1));
        // FIFO: the delivered sequence numbers are strictly increasing.
        let seqs = seqs.lock().unwrap();
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "out of order: {seqs:?}");
    }

    /// Two identically-seeded simulators running a randomized agent mix
    /// produce identical statistics (whole-substrate determinism).
    #[test]
    fn substrate_determinism(seed in 0u64..5000, flows in 1usize..4) {
        use slowcc_netsim::queue::RedConfig;
        let fingerprint = |seed: u64| -> (u64, u64, u64) {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node();
            let b = sim.add_node();
            let red = RedConfig {
                capacity: 20,
                min_thresh: 2.0,
                max_thresh: 10.0,
                max_p: 0.1,
                weight: 0.02,
                mean_pkt_time: SimDuration::from_micros(800),
                gentle: false,
                ecn: false,
            };
            let ab = sim.add_link(
                a,
                Link::new(b, 10e6, SimDuration::from_millis(5), Box::new(Red::new(red))),
            );
            sim.set_default_route(a, ab);
            struct Pace {
                flow: FlowId,
                dst_node: NodeId,
                dst_agent: AgentId,
                sent: u64,
            }
            impl Agent for Pace {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    ctx.set_timer(SimDuration::ZERO, 0);
                }
                fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
                fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
                    ctx.send(PacketSpec::data(
                        self.flow,
                        self.sent,
                        1000,
                        self.dst_node,
                        self.dst_agent,
                    ));
                    self.sent += 1;
                    ctx.set_timer(SimDuration::from_micros(600), 0);
                }
            }
            struct Devour;
            impl Agent for Devour {
                fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
            }
            let sink = sim.add_agent(b, Box::new(Devour));
            for i in 0..flows {
                let flow = sim.new_flow();
                sim.add_agent_at(
                    a,
                    Box::new(Pace { flow, dst_node: b, dst_agent: sink, sent: 0 }),
                    SimTime::from_millis(i as u64),
                );
            }
            sim.run_until(SimTime::from_secs(3));
            let l = sim.stats().link(ab).unwrap();
            (l.total_arrivals, l.total_drops, l.total_tx_bytes)
        };
        prop_assert_eq!(fingerprint(seed), fingerprint(seed));
    }
}

/// End-to-end trace: packets produce the canonical event sequence, and
/// a scripted loss shows up as a loss-pattern drop.
#[test]
fn trace_records_the_packet_lifecycle() {
    use slowcc_netsim::link::EveryNth;
    use slowcc_netsim::trace::{TraceKind, VecTrace};

    struct TwoShot {
        flow: FlowId,
        dst_node: NodeId,
        dst_agent: AgentId,
    }
    impl Agent for TwoShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(PacketSpec::data(
                self.flow,
                0,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
            ctx.send(PacketSpec::data(
                self.flow,
                1,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
        }
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
    }
    struct Devour;
    impl Agent for Devour {
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {}
    }

    let mut sim = Simulator::new(0);
    let a = sim.add_node();
    let b = sim.add_node();
    // Drop every 2nd data packet via the scripted pattern.
    let ab = sim.add_link(
        a,
        Link::new(
            b,
            10e6,
            SimDuration::from_millis(1),
            Box::new(DropTail::new(10)),
        )
        .with_loss(Box::new(EveryNth::data_every(2))),
    );
    sim.set_default_route(a, ab);
    let sink = sim.add_agent(b, Box::new(Devour));
    let flow = sim.new_flow();
    sim.add_agent(
        a,
        Box::new(TwoShot {
            flow,
            dst_node: b,
            dst_agent: sink,
        }),
    );
    sim.set_trace(Box::new(VecTrace::new(100)));
    sim.run_until(SimTime::from_secs(1));

    let sink_box = sim.take_trace().expect("trace installed");
    let trace: &VecTrace = sink_box
        .as_any()
        .and_then(|a| a.downcast_ref())
        .expect("VecTrace downcasts");
    let tags: Vec<String> = trace
        .events()
        .iter()
        .map(|e| {
            let tag = match e.kind {
                TraceKind::Send => "send",
                TraceKind::Enqueue { .. } => "enq",
                TraceKind::Dequeue { .. } => "deq",
                TraceKind::Drop { .. } => "drop",
                TraceKind::Mark { .. } => "mark",
                TraceKind::Deliver { .. } => "recv",
                TraceKind::FaultDup { .. } => "dup",
                TraceKind::FaultHold { .. } => "hold",
            };
            format!("{tag} seq{}", e.seq)
        })
        .collect();
    // Packet 0 survives: send, enq, deq, recv — the link is idle, so it
    // leaves the buffer (`deq`, ns-2's `-`) the instant it enters.
    // Packet 1 is eaten by the loss pattern: send, drop.
    assert_eq!(
        tags,
        vec![
            "send seq0",
            "enq seq0",
            "deq seq0",
            "send seq1",
            "drop seq1",
            "recv seq0"
        ],
        "unexpected trace: {tags:?}"
    );
    assert_eq!(trace.total_seen(), 6);
    // The dequeue is stamped with the start of serialization, not its end.
    let deq = trace
        .events()
        .iter()
        .find(|e| matches!(e.kind, TraceKind::Dequeue { .. }))
        .expect("one dequeue");
    assert_eq!(deq.time, SimTime::ZERO);
}
