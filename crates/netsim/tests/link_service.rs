//! The lazy link-service model (DESIGN.md §5l): a packet committed to an
//! idle wire schedules its own arrival and nothing else; a wake
//! (`LinkTxComplete`) exists only while something waits in the buffer.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use slowcc_netsim::prelude::*;
use slowcc_netsim::time::transmission_time;

const RATE_BPS: f64 = 8e6; // 1000 B serialize in exactly 1 ms
const DELAY: SimDuration = SimDuration::from_millis(5);

/// Sends packet `i` (sequence number `i`, `sizes[i]` bytes) at absolute
/// time `at[i]`. All timers are armed at time zero, so a send timed to
/// coincide with a link wake sorts *before* that wake.
struct Script {
    flow: FlowId,
    dst_node: NodeId,
    dst_agent: AgentId,
    at: Vec<SimTime>,
    sizes: Vec<u32>,
}

impl Agent for Script {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, at) in self.at.iter().enumerate() {
            ctx.set_timer(at.saturating_since(SimTime::ZERO), i as u64);
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        ctx.send(PacketSpec::data(
            self.flow,
            token,
            self.sizes[token as usize],
            self.dst_node,
            self.dst_agent,
        ));
    }
}

/// Records `(seq, arrival time)` of everything delivered to it.
struct Recorder(Arc<Mutex<Vec<(u64, SimTime)>>>);

impl Agent for Recorder {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.0.lock().unwrap().push((pkt.seq, ctx.now()));
    }
}

struct Run {
    sim: Simulator,
    link: LinkId,
    arrivals: Vec<(u64, SimTime)>,
}

impl Run {
    /// Events that were neither agent starts, send timers nor arrivals:
    /// the link wakes.
    fn wakes(&self, sends: usize) -> u64 {
        self.sim.events_processed() - 2 - sends as u64 - self.arrivals.len() as u64
    }
}

/// `a --link--> b` with a `Script` on `a` feeding a `Recorder` on `b`,
/// run until `until`.
fn run_script(mut sim: Simulator, at: &[SimTime], sizes: &[u32], cap: usize, until: SimTime) -> Run {
    let a = sim.add_node();
    let b = sim.add_node();
    let link = sim.add_link(
        a,
        Link::new(b, RATE_BPS, DELAY, Box::new(DropTail::new(cap))),
    );
    sim.set_default_route(a, link);
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = sim.add_agent(b, Box::new(Recorder(log.clone())));
    let flow = sim.new_flow();
    sim.add_agent(
        a,
        Box::new(Script {
            flow,
            dst_node: b,
            dst_agent: sink,
            at: at.to_vec(),
            sizes: sizes.to_vec(),
        }),
    );
    sim.run_until(until);
    let arrivals = log.lock().unwrap().clone();
    Run { sim, link, arrivals }
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

#[test]
fn an_idle_link_schedules_no_wake_and_a_backlog_one_per_waiter() {
    // One packet over an idle link: start, start, timer, arrive.
    let one = run_script(Simulator::new(1), &[ms(0)], &[1000], 100, ms(100));
    assert_eq!(one.arrivals, vec![(0, ms(1 + 5))]);
    assert_eq!(one.wakes(1), 0, "an idle link must not wake");

    // n back-to-back packets: every packet but the first waits, and each
    // waiter costs exactly one wake.
    let n = 10;
    let burst = run_script(
        Simulator::new(1),
        &vec![ms(0); n],
        &vec![1000; n],
        100,
        ms(100),
    );
    assert_eq!(burst.wakes(n), n as u64 - 1);
    let expected: Vec<(u64, SimTime)> = (0..n as u64).map(|k| (k, ms((k + 1) + 5))).collect();
    assert_eq!(burst.arrivals, expected, "arrivals land at k*tx + delay");
}

#[test]
fn a_packet_arriving_as_the_wire_frees_up_respects_fifo() {
    // Packet 0 occupies the wire over [0, 1 ms); packet 1 queues behind
    // it at 0.5 ms and arms the wake. Packet 2 is admitted at exactly
    // 1 ms, ahead of that wake in event order: it must still queue
    // behind the waiter.
    let behind = run_script(
        Simulator::new(1),
        &[ms(0), SimTime::from_nanos(500_000), ms(1)],
        &[1000; 3],
        100,
        ms(100),
    );
    assert_eq!(
        behind.arrivals,
        vec![(0, ms(1 + 5)), (1, ms(2 + 5)), (2, ms(3 + 5))]
    );
    assert_eq!(behind.wakes(3), 2);

    // Nobody waiting: a packet admitted at exactly `busy_until` finds the
    // wire free and starts at once, with no wake at all.
    let free = run_script(Simulator::new(1), &[ms(0), ms(1)], &[1000; 2], 100, ms(100));
    assert_eq!(free.arrivals, vec![(0, ms(1 + 5)), (1, ms(2 + 5))]);
    assert_eq!(free.wakes(2), 0);
}

#[test]
fn stopping_mid_serialization_reconciles_under_strict_audit() {
    // Ten 1 ms packets at once into a 4-deep buffer: one goes on the
    // wire, four queue, five drop. At 2.5 ms packets 0 and 1 are fully
    // serialized, packet 2 is half way, two still wait.
    let mut run = run_script(
        Simulator::with_audit(3),
        &[ms(0); 10],
        &[1000; 10],
        4,
        SimTime::from_nanos(2_500_000),
    );
    let queued = run.sim.link_queue_len(run.link) as u64;
    let l = run.sim.stats().link(run.link).unwrap().clone();
    assert_eq!((l.total_tx_packets, l.total_drops, queued), (3, 5, 2));
    assert_eq!(l.total_arrivals, l.total_tx_packets + l.total_drops + queued);
    // The half-sent packet is booked in the bin where it will finish.
    assert_eq!(run.sim.stats().link_tx_bytes_in(run.link, ms(0), ms(3)), 3000);
    assert!(run.arrivals.is_empty(), "nothing has propagated yet");

    let report = run.sim.finish_audit().expect("auditor installed");
    report.assert_clean();
    assert_eq!(report.packets_dropped, 5);
    assert_eq!(report.packets_in_flight, 5, "three on the wire or beyond, two queued");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Work-conserving FIFO in closed form: whatever the arrival pattern,
    /// packet `k` leaves the wire at `max(arrive_k, depart_{k-1}) + tx_k`
    /// and is delivered one propagation delay later.
    #[test]
    fn arrival_times_match_the_fifo_closed_form(
        raw in prop::collection::vec(0u64..52, 1..80),
    ) {
        // Gaps and serialization times are multiples of 250 us, so
        // arrivals coinciding exactly with the wire freeing up are common.
        const SIZES: [u32; 4] = [250, 500, 1000, 1500];
        let mut at = Vec::new();
        let mut sizes = Vec::new();
        let mut t = SimTime::ZERO;
        for r in &raw {
            t += SimDuration::from_micros((r / 4) * 250);
            at.push(t);
            sizes.push(SIZES[(r % 4) as usize]);
        }
        let mut expected = Vec::new();
        let mut depart = SimTime::ZERO;
        for (k, (&arrive, &size)) in at.iter().zip(&sizes).enumerate() {
            depart = arrive.max(depart) + transmission_time(size, RATE_BPS);
            expected.push((k as u64, depart + DELAY));
        }
        let run = run_script(Simulator::new(7), &at, &sizes, 100, SimTime::from_secs(1));
        prop_assert_eq!(&run.arrivals, &expected);
    }
}
