//! End-to-end checks of the invariant auditor: a run with real queue
//! drops must audit clean with exact conservation counts, a done agent
//! that keeps re-arming its timer must be flagged as a leak, and the
//! auditor must stay off (and free) by default.

use slowcc_netsim::audit::{take_thread_report, AuditMode};
use slowcc_netsim::prelude::*;

/// Sends `count` data packets back-to-back at start.
struct Blaster {
    flow: FlowId,
    dst_node: NodeId,
    dst_agent: AgentId,
    count: u64,
}

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for seq in 0..self.count {
            ctx.send(PacketSpec::data(
                self.flow,
                seq,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
}

/// Acks every data packet it receives.
struct AckingSink;

impl Agent for AckingSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.is_data() {
            let info = AckInfo::cumulative(pkt.seq + 1, pkt.seq, pkt.sent_at);
            ctx.send(PacketSpec::ack_to(&pkt, 40, info));
        }
    }
}

fn two_nodes(sim: &mut Simulator, qcap: usize) -> (NodeId, NodeId) {
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(
        a,
        Link::new(b, 8e6, SimDuration::from_millis(1), Box::new(DropTail::new(qcap))),
    );
    let ba = sim.add_link(
        b,
        Link::new(a, 8e6, SimDuration::from_millis(1), Box::new(DropTail::new(qcap))),
    );
    sim.set_default_route(a, ab);
    sim.set_default_route(b, ba);
    (a, b)
}

#[test]
fn overflowing_run_audits_clean_with_exact_conservation() {
    let mut sim = Simulator::with_audit(1);
    assert!(sim.audit_enabled());
    let (a, b) = two_nodes(&mut sim, 4);
    let sink = sim.add_agent(b, Box::new(AckingSink));
    let flow = sim.new_flow();
    sim.add_agent(
        a,
        Box::new(Blaster {
            flow,
            dst_node: b,
            dst_agent: sink,
            count: 10,
        }),
    );
    sim.run_until(SimTime::from_secs(1));

    let report = sim.finish_audit().expect("auditor installed");
    report.assert_clean();
    // Burst of 10 into a 4-deep queue: 1 on the wire + 4 queued survive,
    // 5 drop; the 5 delivered data packets each produce one ack.
    assert_eq!(report.packets_injected, 15);
    assert_eq!(report.packets_dropped, 5);
    assert_eq!(report.packets_delivered, 10);
    assert_eq!(report.packets_in_flight, 0);
    assert_eq!(
        report.packets_injected,
        report.packets_delivered + report.packets_dropped + report.packets_in_flight
    );
    // Consumed: second call yields nothing.
    assert!(sim.finish_audit().is_none());
}

#[test]
fn packets_cut_off_mid_flight_are_accounted_not_leaked() {
    let mut sim = Simulator::with_audit(2);
    let (a, b) = two_nodes(&mut sim, 100);
    let sink = sim.add_agent(b, Box::new(AckingSink));
    let flow = sim.new_flow();
    sim.add_agent(
        a,
        Box::new(Blaster {
            flow,
            dst_node: b,
            dst_agent: sink,
            count: 10,
        }),
    );
    // 1 ms serialization per packet + 1 ms propagation: stopping at
    // 2.5 ms leaves most of the burst queued or in the air.
    sim.run_until(SimTime::from_nanos(2_500_000));
    let report = sim.finish_audit().unwrap();
    report.assert_clean();
    assert!(report.packets_in_flight > 0, "horizon should cut packets off");
    assert_eq!(
        report.packets_injected,
        report.packets_delivered + report.packets_dropped + report.packets_in_flight
    );
}

/// An agent that declares itself done from the start yet re-arms its
/// timer forever — the timer-leak shape the auditor exists to catch
/// (e.g. a sink ticking past its flow's stop time).
struct EternalTicker;

impl Agent for EternalTicker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
    fn audit_done(&self, _now: SimTime) -> bool {
        true
    }
}

#[test]
fn done_agent_rearming_its_timer_is_flagged_as_leak() {
    let mut sim = Simulator::with_audit_mode(3, AuditMode::Collect);
    let n = sim.add_node();
    sim.add_agent(n, Box::new(EternalTicker));
    sim.run_until(SimTime::from_millis(100));
    let report = sim.finish_audit().unwrap();
    assert!(report.timer_leaks >= 1, "eternal ticker must be flagged");
    assert!(!report.is_clean());
    assert!(report
        .violation_messages
        .iter()
        .any(|m| m.contains("timer leak")));
}

/// [`EternalTicker`] on a re-armable [`Timer`]: an arm from the timer's
/// own firing pushes a queue entry, so it is still a leak.
#[derive(Default)]
struct EternalTimer {
    timer: Timer,
}

impl Agent for EternalTimer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.arm(&mut self.timer, SimDuration::from_millis(10));
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if ctx.fired(&mut self.timer, token) {
            ctx.arm(&mut self.timer, SimDuration::from_millis(10));
        }
    }
    fn audit_done(&self, _now: SimTime) -> bool {
        true
    }
}

#[test]
fn done_agent_rearming_a_timer_is_flagged_as_leak() {
    let mut sim = Simulator::with_audit_mode(3, AuditMode::Collect);
    let n = sim.add_node();
    sim.add_agent(n, Box::<EternalTimer>::default());
    sim.run_until(SimTime::from_millis(100));
    let report = sim.finish_audit().unwrap();
    assert_eq!(report.timers_armed, 11, "one push per fire, plus the first");
    assert_eq!(report.timer_leaks, 10, "every re-arm from a fire is a leak");
    assert!(report
        .violation_messages
        .iter()
        .any(|m| m.contains("timer leak")));
}

#[test]
#[should_panic(expected = "timer leak")]
fn strict_mode_panics_on_timer_leak() {
    let mut sim = Simulator::with_audit(4);
    let n = sim.add_node();
    sim.add_agent(n, Box::new(EternalTicker));
    sim.run_until(SimTime::from_millis(100));
}

#[test]
fn audit_is_off_by_default_and_drop_merges_into_thread_report() {
    let mut plain = Simulator::new(5);
    assert!(!plain.audit_enabled());
    assert!(plain.finish_audit().is_none());

    // A drop-without-finish still lands the report in this thread's
    // accumulator (drained first: the accumulator is per thread, so
    // nothing but this simulator can feed it afterwards).
    {
        let mut sim = Simulator::with_audit_mode(6, AuditMode::Collect);
        let (a, b) = two_nodes(&mut sim, 100);
        let sink = sim.add_agent(b, Box::new(AckingSink));
        let flow = sim.new_flow();
        sim.add_agent(
            a,
            Box::new(Blaster {
                flow,
                dst_node: b,
                dst_agent: sink,
                count: 3,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let _ = take_thread_report();
    }
    let report = take_thread_report().expect("drop must merge the report");
    assert_eq!(report.sims, 1);
    assert_eq!(report.packets_injected, 6);
}
