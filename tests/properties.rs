//! Property-based tests of cross-crate invariants, driven by proptest.
//!
//! These exercise the simulator and agents under randomized
//! configurations (rates, buffer sizes, flow mixes, loss patterns) and
//! check conservation laws and estimator invariants that must hold for
//! *every* configuration, not just the paper's.

use proptest::prelude::*;

use slowcc::core::aimd::BinomialParams;
use slowcc::core::tfrc::{tfrc_weights, LossHistory};
use slowcc::experiments::flavor::Flavor;
use slowcc::netsim::prelude::*;

/// Build a dumbbell with `n` flows of a flavor chosen by `which` and run
/// briefly.
fn run_mix(
    seed: u64,
    bottleneck_mbps: f64,
    which: usize,
    n_flows: usize,
) -> (Simulator, Dumbbell, Vec<slowcc::core::agent::FlowHandle>) {
    let flavors = [
        Flavor::standard_tcp(),
        Flavor::Tcp { gamma: 8.0 },
        Flavor::Sqrt { gamma: 2.0 },
        Flavor::standard_tfrc(),
        Flavor::Rap { gamma: 2.0 },
    ];
    let flavor = flavors[which % flavors.len()];
    let mut sim = Simulator::new(seed);
    let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(bottleneck_mbps * 1e6));
    let handles: Vec<_> = (0..n_flows)
        .map(|i| {
            let pair = db.add_host_pair(&mut sim);
            flavor.install(&mut sim, &pair, 1000, SimTime::from_millis(53 * i as u64), None)
        })
        .collect();
    sim.run_until(SimTime::from_secs(8));
    (sim, db, handles)
}

/// The engine's event budget, as an exact count: four TCP flows on the
/// paper dumbbell dispatch at most 3.6 events per injected packet (3.480
/// measured). Two mechanisms hold it there. The lazy link service wakes a
/// link only while something is queued; a `LinkTxComplete` per packet
/// reads 6.27. And the retransmission timer is a re-armable `Timer`, one
/// queue entry per flow; a `set_timer` per ACK, each popping stale,
/// reads 3.863.
#[test]
fn tcp_dumbbell_stays_under_3_6_events_per_packet() {
    use slowcc::core::tcp::{Tcp, TcpConfig};

    let mut sim = Simulator::new(3);
    let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
    for i in 0..4 {
        let pair = db.add_host_pair(&mut sim);
        Tcp::install(
            &mut sim,
            &pair,
            TcpConfig::standard(1000),
            SimTime::from_millis(13 * i),
        );
    }
    sim.run_until(SimTime::from_secs(5));
    let (events, packets) = (sim.events_processed(), sim.packets_injected());
    assert!(packets > 10_000, "only {packets} packets injected");
    assert!(
        events as f64 <= 3.6 * packets as f64,
        "{events} events for {packets} packets = {:.3} events/packet, limit 3.6",
        events as f64 / packets as f64
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a full simulation; keep the count sane
        .. ProptestConfig::default()
    })]

    /// Conservation at the bottleneck: packets offered = packets dropped
    /// + packets committed to the wire + packets still queued.
    #[test]
    fn bottleneck_conserves_packets(
        seed in 0u64..1000,
        mbps in 2.0f64..20.0,
        which in 0usize..5,
        n in 1usize..5,
    ) {
        let (sim, db, _) = run_mix(seed, mbps, which, n);
        for link in [db.forward, db.reverse] {
            let l = sim.stats().link(link).unwrap();
            // A packet counts as transmitted from the moment it leaves
            // the buffer, so the books balance exactly at any instant.
            let queued = sim.link_queue_len(link) as u64;
            prop_assert_eq!(l.total_arrivals, l.total_tx_packets + l.total_drops + queued);
        }
    }

    /// End-to-end conservation: a flow never delivers more bytes than its
    /// source sent, and with loss-free access links the difference is
    /// bounded by bottleneck drops plus in-flight data.
    #[test]
    fn flows_never_deliver_more_than_sent(
        seed in 0u64..1000,
        mbps in 2.0f64..20.0,
        which in 0usize..5,
        n in 1usize..5,
    ) {
        let (sim, _, handles) = run_mix(seed, mbps, which, n);
        for h in &handles {
            let f = sim.stats().flow(h.flow).unwrap();
            prop_assert!(
                f.total_rx_bytes <= f.total_tx_bytes,
                "flow {:?} delivered {} of {} sent",
                h.flow, f.total_rx_bytes, f.total_tx_bytes
            );
        }
    }

    /// The TFRC loss-interval estimator is scale-consistent: uniform
    /// intervals of I give exactly p = 1/I, for any history length.
    #[test]
    fn loss_history_uniform_intervals(k in 1usize..64, interval in 1u64..10_000) {
        let mut h = LossHistory::new(k, false);
        for _ in 0..k {
            h.record_interval(interval);
        }
        let p = h.loss_event_rate(1);
        prop_assert!((p - 1.0 / interval as f64).abs() < 1e-9);
    }

    /// The open-interval rule is monotone: growing the open interval can
    /// only lower (never raise) the estimated loss rate.
    #[test]
    fn loss_history_open_interval_monotone(
        k in 1usize..32,
        intervals in prop::collection::vec(1u64..5000, 1..40),
    ) {
        let mut h = LossHistory::new(k, false);
        for i in intervals {
            h.record_interval(i);
        }
        let mut last = f64::INFINITY;
        for open in [0u64, 1, 10, 100, 1_000, 10_000, 100_000] {
            let p = h.loss_event_rate(open);
            prop_assert!(p <= last + 1e-12, "p grew from {last} to {p} at open={open}");
            last = p;
        }
    }

    /// TFRC weights: correct length, in (0, 1], non-increasing.
    #[test]
    fn tfrc_weights_are_well_formed(k in 1usize..512) {
        let w = tfrc_weights(k);
        prop_assert_eq!(w.len(), k);
        for i in 0..k {
            prop_assert!(w[i] > 0.0 && w[i] <= 1.0);
            if i > 0 {
                prop_assert!(w[i] <= w[i - 1] + 1e-12);
            }
        }
    }

    /// Binomial window rules: decrease never goes below one packet and is
    /// always a decrease; per-ACK increase is positive and bounded by the
    /// per-RTT increase.
    #[test]
    fn binomial_params_are_sane(
        gamma in 1.0f64..512.0,
        w in 1.0f64..10_000.0,
        l01 in 0.0f64..1.0,
    ) {
        let params = BinomialParams::binomial_anchored(1.0 - l01, l01, gamma, 15.0);
        let down = params.decrease(w);
        prop_assert!(down >= 1.0);
        prop_assert!(down <= w.max(1.0));
        let up = params.increase_per_ack(w);
        prop_assert!(up > 0.0);
        prop_assert!(up <= params.a, "per-ACK {up} > per-RTT {}", params.a);
        let rel = params.relative_decrease(w);
        prop_assert!((0.0..=1.0).contains(&rel));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// RED never drops when the queue stays below min_thresh, never
    /// accepts beyond its hard capacity, and its average stays within
    /// [0, capacity].
    #[test]
    fn red_invariants_under_random_traffic(
        seed in 0u64..10_000,
        ops in prop::collection::vec(prop::bool::ANY, 1..400),
    ) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use slowcc::netsim::ids::{AgentId, FlowId, NodeId};
        use slowcc::netsim::packet::{DataInfo, Packet, Payload};
        use slowcc::netsim::pool::PacketPool;
        use slowcc::netsim::queue::{EnqueueResult, QueueDiscipline, Red, RedConfig};

        let cfg = RedConfig {
            capacity: 50,
            min_thresh: 5.0,
            max_thresh: 15.0,
            max_p: 0.1,
            weight: 0.02,
            mean_pkt_time: SimDuration::from_millis(1),
            gentle: false,
            ecn: false,
        };
        let mut q = Red::new(cfg);
        let mut pool = PacketPool::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = SimTime::ZERO;
        let mut uid = 0u64;
        for enqueue in ops {
            t += SimDuration::from_micros(500);
            if enqueue {
                let pkt = Packet {
                    uid,
                    flow: FlowId::from_index(0),
                    seq: uid,
                    size: 1000,
                    payload: Payload::Data(DataInfo::default()),
                    src_node: NodeId::from_index(0),
                    dst_node: NodeId::from_index(1),
                    src_agent: AgentId::from_index(0),
                    dst_agent: AgentId::from_index(1),
                    sent_at: t,
                    ecn: Default::default(),
                };
                uid += 1;
                let id = pool.insert(pkt);
                if q.enqueue(id, &mut pool, t, &mut rng) == EnqueueResult::Dropped {
                    pool.remove(id);
                }
                prop_assert!(q.len() <= cfg.capacity);
            } else {
                if let Some(id) = q.dequeue(t) {
                    pool.remove(id);
                }
            }
            prop_assert!(q.average() >= 0.0);
            prop_assert!(q.average() <= cfg.capacity as f64 + 1.0);
        }
    }
}
