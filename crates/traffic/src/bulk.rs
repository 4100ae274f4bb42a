//! Background reverse traffic.
//!
//! Section 3 requires that "each simulation scenario includes data
//! traffic flowing in both directions on the congested link"; this
//! helper installs that reverse traffic.

use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::SimTime;
use slowcc_netsim::topology::ParkingLot;

use slowcc_core::agent::FlowHandle;
use slowcc_core::tcp::{Tcp, TcpConfig};

/// Install `n` long-lived standard-TCP flows in the reverse direction
/// (data right -> left), providing the paper's bidirectional background
/// traffic. Each flow spans the whole chain (on a dumbbell, `db.lot()`),
/// and its ACKs share the forward links with the flows under test.
pub fn add_reverse_tcp(sim: &mut Simulator, lot: &ParkingLot, n: usize) -> Vec<FlowHandle> {
    let pkt = lot.config().pkt_size;
    (0..n)
        .map(|i| {
            let pair = lot.add_host_pair(sim, 0, lot.hops());
            Tcp::install_reverse(
                sim,
                &pair,
                TcpConfig::standard(pkt),
                SimTime::from_millis(13 * i as u64 + 7),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig};

    #[test]
    fn reverse_traffic_loads_the_reverse_bottleneck() {
        let mut sim = Simulator::new(0);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let rev = add_reverse_tcp(&mut sim, db.lot(), 2);
        sim.run_until(SimTime::from_secs(10));
        for h in &rev {
            assert!(sim.stats().flow(h.flow).unwrap().total_rx_packets > 100);
        }
        // Reverse data crossed the reverse link; its ACKs crossed forward.
        assert!(sim.stats().link(db.reverse).unwrap().total_tx_bytes > 1_000_000);
        assert!(sim.stats().link(db.forward).unwrap().total_arrivals > 100);
    }
}
