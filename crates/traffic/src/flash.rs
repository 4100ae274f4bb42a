//! Flash crowds of short TCP transfers (Section 4.1.2).
//!
//! "The flash crowd is started at time 25 with a stream of short TCP
//! transfers (10 packets) arriving at a rate of 200 flows/sec for 5
//! seconds." Arrivals are a Poisson process; each transfer is a bounded
//! standard-TCP flow. All transfers are accounted under a single
//! [`FlowId`] so the aggregate throughput of the crowd can be read
//! directly from the statistics (and so per-flow time series don't blow
//! up memory for a thousand ten-packet flows).

use rand::Rng;
use rand::SeedableRng;

use slowcc_netsim::ids::{AgentId, FlowId};
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{HostPair, ParkingLot};

use slowcc_core::agent::SenderWiring;
use slowcc_core::tcp::{Tcp, TcpConfig, TcpSink};

/// Parameters of a flash crowd.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdConfig {
    /// Mean flow arrival rate, flows per second.
    pub flows_per_sec: f64,
    /// Duration of the arrival process.
    pub duration: SimDuration,
    /// Size of each transfer, in packets.
    pub transfer_packets: u64,
    /// Packet size in bytes.
    pub pkt_size: u32,
    /// Number of host pairs the transfers are spread over (each pair has
    /// its own fast access links, so the shared link stays the only
    /// bottleneck).
    pub host_pairs: usize,
    /// Seed for the Poisson arrival process.
    pub seed: u64,
}

impl FlashCrowdConfig {
    /// The paper's Figure 6 crowd: 200 flows/s for 5 s, 10-packet
    /// transfers.
    pub fn paper(seed: u64) -> Self {
        FlashCrowdConfig {
            flows_per_sec: 200.0,
            duration: SimDuration::from_secs(5),
            transfer_packets: 10,
            pkt_size: 1000,
            host_pairs: 16,
            seed,
        }
    }
}

/// Handles to an installed flash crowd.
#[derive(Debug)]
pub struct FlashCrowd {
    /// The shared flow id aggregating all transfers.
    pub flow: FlowId,
    /// Sender agents, one per transfer.
    pub senders: Vec<AgentId>,
}

/// Install a flash crowd whose first arrival is at `start`, its host
/// pairs spanning the whole chain (on a dumbbell, `db.lot()`).
pub fn install_flash_crowd(
    sim: &mut Simulator,
    lot: &ParkingLot,
    cfg: FlashCrowdConfig,
    start: SimTime,
) -> FlashCrowd {
    assert!(cfg.flows_per_sec > 0.0, "arrival rate must be positive");
    assert!(cfg.host_pairs >= 1, "need at least one host pair");
    let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed);
    let pairs: Vec<HostPair> = (0..cfg.host_pairs)
        .map(|_| lot.add_host_pair(sim, 0, lot.hops()))
        .collect();
    let flow = sim.new_flow();
    let tcp_cfg = TcpConfig::standard(cfg.pkt_size).with_max_packets(cfg.transfer_packets);

    let mut senders = Vec::new();
    let mut t = start;
    let horizon = start + cfg.duration;
    let mut i = 0usize;
    loop {
        // Exponential inter-arrival times (Poisson process).
        let gap = -rng.gen::<f64>().max(1e-12).ln() / cfg.flows_per_sec;
        t += SimDuration::from_secs_f64(gap);
        if t >= horizon {
            break;
        }
        let pair = pairs[i % pairs.len()];
        i += 1;
        // Each transfer has its own sender/sink agents but shares the
        // crowd's flow id for accounting.
        let sink = sim.reserve_agent(pair.right);
        sim.install_agent(sink, Box::new(TcpSink::new()), SimTime::ZERO);
        let wiring = SenderWiring {
            flow,
            dst_node: pair.right,
            dst_agent: sink,
        };
        let sender = sim.reserve_agent(pair.left);
        sim.install_agent(sender, Box::new(Tcp::new(tcp_cfg, wiring)), t);
        senders.push(sender);
    }
    FlashCrowd { flow, senders }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig};

    #[test]
    fn crowd_size_matches_rate_times_duration() {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let cfg = FlashCrowdConfig {
            flows_per_sec: 100.0,
            duration: SimDuration::from_secs(4),
            transfer_packets: 10,
            pkt_size: 1000,
            host_pairs: 4,
            seed: 99,
        };
        let crowd = install_flash_crowd(&mut sim, db.lot(), cfg, SimTime::from_secs(1));
        // 400 expected; Poisson fluctuation within ~5 sigma (±100).
        let n = crowd.senders.len();
        assert!((300..=500).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn crowd_transfers_complete_and_are_aggregated() {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let cfg = FlashCrowdConfig {
            flows_per_sec: 20.0,
            duration: SimDuration::from_secs(2),
            transfer_packets: 10,
            pkt_size: 1000,
            host_pairs: 4,
            seed: 7,
        };
        let crowd = install_flash_crowd(&mut sim, db.lot(), cfg, SimTime::ZERO);
        let n = crowd.senders.len() as u64;
        sim.run_until(SimTime::from_secs(30));
        let stats = sim.stats().flow(crowd.flow).unwrap();
        // Every transfer delivers its 10 packets (clean link), all under
        // the shared flow id.
        assert!(
            stats.total_rx_packets >= n * 10,
            "delivered {} for {} transfers",
            stats.total_rx_packets,
            n
        );
    }

    #[test]
    fn zero_is_a_valid_crowd() {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let cfg = FlashCrowdConfig {
            flows_per_sec: 0.1,
            duration: SimDuration::from_millis(10),
            transfer_packets: 10,
            pkt_size: 1000,
            host_pairs: 1,
            seed: 7,
        };
        let crowd = install_flash_crowd(&mut sim, db.lot(), cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(1));
        assert!(crowd.senders.len() <= 1);
    }
}
