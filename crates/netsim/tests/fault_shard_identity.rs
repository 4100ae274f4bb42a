//! Faulted runs must be byte-identical across shard counts.
//!
//! The fault layer re-enters packets through the event queue
//! (`FaultRelease` for holds and duplicates), so its determinism contract
//! leans directly on the `(time, sched, seq)` tie-break — and, under
//! conservative-parallel execution, on the cross-shard merge order
//! (DESIGN.md §5h). This lives in its own test binary because
//! `set_default_shards` is process-global: the override must not flip
//! underneath other tests.

use std::sync::{Arc, Mutex};

use slowcc_netsim::faults::FaultPlan;
use slowcc_netsim::ids::{AgentId, FlowId, LinkId, NodeId};
use slowcc_netsim::link::Link;
use slowcc_netsim::packet::{AckInfo, Packet, PacketSpec};
use slowcc_netsim::queue::DropTail;
use slowcc_netsim::sim::{set_default_shards, Agent, Ctx, Simulator};
use slowcc_netsim::stats::Stats;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{DumbbellConfig, DumbbellOptions, ParkingLot};

/// Restore the process default on drop, so a failing assertion can't
/// leak the override (this binary has one test, but the discipline is
/// cheap).
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        set_default_shards(None);
    }
}

struct Paced {
    flow: FlowId,
    dst_node: NodeId,
    dst_agent: AgentId,
    count: u64,
    sent: u64,
}

impl Agent for Paced {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(2), 0);
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
                ctx.set_timer(SimDuration::from_millis(2), 0);
            }
        }
    }
}

struct AckingSink {
    seqs: Arc<Mutex<Vec<u64>>>,
}

impl Agent for AckingSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.is_data() {
            self.seqs.lock().unwrap().push(pkt.seq);
            let info = AckInfo::cumulative(pkt.seq + 1, pkt.seq, pkt.sent_at);
            ctx.send(PacketSpec::ack_to(&pkt, 40, info));
        }
    }
}

/// Byte-comparable fingerprint of everything the run's statistics
/// recorded for the given flows and links (via public accessors, so the
/// lazily merged sharded store compares equal to the serial one).
fn stats_fingerprint(stats: &Stats, flows: &[FlowId], links: &[LinkId]) -> String {
    let mut out = String::new();
    for &f in flows {
        out.push_str(&format!("{f}: {:?}\n", stats.flow(f)));
    }
    for &l in links {
        out.push_str(&format!("{l}: {:?}\n", stats.link(l)));
    }
    out
}

/// Run the full fault menu (reorder + duplication + jitter + flap) on the
/// current default shard setting and return a byte-comparable
/// transcript: delivery order plus the statistics fingerprint.
fn run_chaotic(seed: u64) -> (Vec<u64>, String) {
    let plan = FaultPlan::seeded(seed ^ 0xC0FFEE)
        .with_reorder(9, SimDuration::from_millis(20), 6)
        .with_duplication(0.03)
        .with_jitter(SimDuration::from_millis(4))
        .with_flap(SimTime::from_millis(120), SimTime::from_millis(180));
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

    let seqs = Arc::new(Mutex::new(Vec::new()));
    let sink = sim.add_agent(b, Box::new(AckingSink { seqs: seqs.clone() }));
    let flow = sim.new_flow();
    sim.add_agent(
        a,
        Box::new(Paced {
            flow,
            dst_node: b,
            dst_agent: sink,
            count: 200,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(2));

    let order = seqs.lock().unwrap().clone();
    let fp = stats_fingerprint(sim.stats(), &[flow], &[ab, ba]);
    (order, fp)
}

/// A three-hop parking lot under a fault plan: packets traverse several
/// shard boundaries per trip (and, when four clusters pack into two
/// shards, revisit a shard they already left — the re-import path).
fn run_parking_lot(seed: u64) -> (Vec<u64>, String, usize) {
    let mut cfg = DumbbellConfig::paper(8e6);
    cfg.queue = slowcc_netsim::topology::QueueKind::DropTail(64);
    let mut sim = Simulator::new(seed);
    // Fault plans on the first hop (both directions), so cross-shard
    // handoffs carry reordered/duplicated/jittered packets too.
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
    let sink = sim.add_agent(pair.right, Box::new(AckingSink { seqs: seqs.clone() }));
    let flow = sim.new_flow();
    sim.add_agent(
        pair.left,
        Box::new(Paced {
            flow,
            dst_node: pair.right,
            dst_agent: sink,
            count: 300,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    let order = seqs.lock().unwrap().clone();
    let mut links: Vec<LinkId> = lot.forward.clone();
    links.extend(lot.reverse.iter().copied());
    let fp = stats_fingerprint(sim.stats(), &[flow], &links);
    (order, fp, sim.shard_count())
}

#[test]
fn faulted_runs_are_identical_across_shard_counts() {
    let _restore = Restore;

    // Delivery order and the complete statistics must be byte-identical
    // at every shard count.
    for seed in [1u64, 17, 99] {
        set_default_shards(Some(1));
        let reference = run_chaotic(seed);
        for shards in [2usize, 4] {
            set_default_shards(Some(shards));
            assert_eq!(
                run_chaotic(seed),
                reference,
                "seed {seed}: {shards} shards diverged from serial"
            );
        }
    }

    // Multi-shard routes: a three-hop parking lot splits into up to four
    // clusters, so packets cross several shard boundaries per trip.
    for seed in [5u64, 23] {
        set_default_shards(Some(1));
        let (ref_order, ref_fp, ref_shards) = run_parking_lot(seed);
        assert_eq!(ref_shards, 1, "serial run must stay one shard");
        for shards in [2usize, 4] {
            set_default_shards(Some(shards));
            let (order, fp, sealed) = run_parking_lot(seed);
            assert_eq!(
                sealed, shards,
                "parking lot must actually seal into {shards} shards"
            );
            assert_eq!(
                (order, fp),
                (ref_order.clone(), ref_fp.clone()),
                "seed {seed}: {shards} shards diverged on the parking lot"
            );
        }
    }
}
