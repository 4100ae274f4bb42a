//! Shared scenario builders: the Section 3 standard environment.
//!
//! Every simulation in the paper uses a single-bottleneck dumbbell with
//! RED queue management, ~50 ms RTT, 1000-byte packets, and background
//! data traffic in both directions. These helpers build that environment
//! so each figure module only states what differs.

use slowcc_core::agent::FlowHandle;
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{Dumbbell, DumbbellConfig};
use slowcc_traffic::bulk::add_reverse_tcp;

use crate::flavor::Flavor;

/// Packet size used throughout (Section 3 era convention).
pub const PKT_SIZE: u32 = slowcc_netsim::topology::PAPER_PKT_SIZE;

/// The nominal RTT of the standard topology.
pub const RTT: SimDuration = slowcc_netsim::topology::PAPER_RTT;

/// Number of reverse-direction background TCP flows added to every
/// scenario ("data traffic flowing in both directions").
pub const REVERSE_FLOWS: usize = crate::dsl::PAPER_REVERSE_FLOWS;

/// A built standard scenario.
pub struct Scenario {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// The dumbbell (bottleneck link handles live here).
    pub db: Dumbbell,
    /// The flows under test, in installation order.
    pub flows: Vec<FlowHandle>,
    /// The reverse-path background flows.
    pub reverse: Vec<FlowHandle>,
}

/// Build the standard dumbbell, installing the flows under test via
/// `install` after the reverse traffic exists.
pub fn standard_with<F>(seed: u64, bottleneck_bps: f64, install: F) -> Scenario
where
    F: FnOnce(&mut Simulator, &Dumbbell) -> Vec<FlowHandle>,
{
    let mut sim = Simulator::new(seed);
    let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(bottleneck_bps));
    let reverse = add_reverse_tcp(&mut sim, db.lot(), REVERSE_FLOWS);
    let flows = install(&mut sim, &db);
    Scenario {
        sim,
        db,
        flows,
        reverse,
    }
}

/// Install `n` flows of `flavor` on fresh host pairs with starts
/// staggered by ~1.3 RTT (desynchronizes slow starts).
pub fn install_flows(
    sim: &mut Simulator,
    db: &Dumbbell,
    flavor: Flavor,
    n: usize,
    first_start: SimTime,
    stop: Option<SimTime>,
) -> Vec<FlowHandle> {
    (0..n)
        .map(|i| {
            let pair = db.add_host_pair(sim);
            let start = first_start + SimDuration::from_millis(63) * i as u64;
            flavor.install(sim, &pair, PKT_SIZE, start, stop)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scenario_runs_and_shares_bandwidth() {
        let mut sc = standard_with(1, 10e6, |sim, db| {
            install_flows(sim, db, Flavor::standard_tcp(), 4, SimTime::ZERO, None)
        });
        sc.sim.run_until(SimTime::from_secs(30));
        let from = SimTime::from_secs(10);
        let to = SimTime::from_secs(30);
        let total: f64 = sc
            .flows
            .iter()
            .map(|h| sc.sim.stats().flow_throughput_bps(h.flow, from, to))
            .sum();
        assert!(
            total > 7e6,
            "4 TCP flows should fill most of 10 Mb/s, got {:.2}",
            total / 1e6
        );
        // Reverse flows are alive too.
        for h in &sc.reverse {
            assert!(sc.sim.stats().flow(h.flow).unwrap().total_rx_packets > 100);
        }
    }
}
