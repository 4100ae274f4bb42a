//! Heterogeneity experiments — the two equity caveats the paper's
//! introduction states up front: "TCP does not assure equality of
//! bandwidth between end-systems with different round-trip times, or
//! with multiple congested hops". Measured here for TCP *and* for the
//! SlowCC algorithms, extending the paper's equitability discussion.
//!
//! * **RTT bias** — two flows of the same algorithm with different RTTs
//!   share a bottleneck; the throughput ratio follows roughly
//!   `(RTT_long/RTT_short)^alpha` with α between 1 and 2 for TCP. TFRC
//!   inherits the bias through the equation's `1/RTT` factor.
//! * **Multi-hop bias** — on a parking lot, a flow crossing `h` congested
//!   hops competes against cross traffic on every hop and receives far
//!   less than any single-hop flow.

use serde::{Deserialize, Serialize};

use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{DumbbellConfig, ParkingLot};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::PKT_SIZE;

/// One RTT-bias measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RttBiasPoint {
    /// Algorithm label.
    pub label: String,
    /// Short flow's RTT (seconds).
    pub short_rtt_secs: f64,
    /// Long flow's RTT (seconds).
    pub long_rtt_secs: f64,
    /// Throughput of the short-RTT flow (bit/s).
    pub short_bps: f64,
    /// Throughput of the long-RTT flow (bit/s).
    pub long_bps: f64,
    /// Implied bias exponent: ratio = (RTT_l/RTT_s)^alpha.
    pub alpha: f64,
}

/// Result of the RTT-bias experiment.
#[derive(Debug, Clone, Serialize)]
pub struct RttBias {
    /// One row per algorithm.
    pub points: Vec<RttBiasPoint>,
}

fn run_bias(flavor: Flavor, warmup: SimTime, duration: SimTime) -> RttBiasPoint {
    let mut sim = Simulator::new(77);
    let db = slowcc_netsim::topology::Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
    // Base RTT = 2*(2*access + 23 ms). access 2 ms -> 54 ms;
    // access 32 ms -> 174 ms (roughly 1:3.2).
    let short_pair = db.add_host_pair_with_delay(&mut sim, SimDuration::from_millis(2));
    let long_pair = db.add_host_pair_with_delay(&mut sim, SimDuration::from_millis(32));
    let short = flavor.install(&mut sim, &short_pair, PKT_SIZE, SimTime::ZERO, None);
    let long = flavor.install(
        &mut sim,
        &long_pair,
        PKT_SIZE,
        SimTime::from_millis(29),
        None,
    );
    sim.run_until(duration);
    let short_bps = sim
        .stats()
        .flow_throughput_bps(short.flow, warmup, duration);
    let long_bps = sim.stats().flow_throughput_bps(long.flow, warmup, duration);
    let (short_rtt, long_rtt) = (0.054, 0.174);
    let ratio = short_bps / long_bps.max(1.0);
    RttBiasPoint {
        label: flavor.label(),
        short_rtt_secs: short_rtt,
        long_rtt_secs: long_rtt,
        short_bps,
        long_bps,
        alpha: ratio.ln() / (long_rtt / short_rtt).ln(),
    }
}

/// Registry entry for the RTT-bias experiment (two same-algorithm flows,
/// RTTs ~30 ms and ~150 ms, sharing a 10 Mb/s RED bottleneck): one cell
/// per algorithm.
pub struct RttBiasExperiment;

impl Experiment for RttBiasExperiment {
    type Cell = Flavor;
    type CellOut = RttBiasPoint;
    type Output = RttBias;

    fn name(&self) -> &'static str {
        "rtt-bias"
    }

    fn description(&self) -> &'static str {
        "Section 1 caveat - RTT bias, measured per algorithm"
    }

    fn artifact(&self) -> &'static str {
        "rtt_bias"
    }

    fn cells(&self, _scale: Scale) -> Vec<CellSpec<Flavor>> {
        [
            Flavor::standard_tcp(),
            Flavor::Tcp { gamma: 8.0 },
            Flavor::standard_tfrc(),
        ]
        .into_iter()
        .map(|flavor| CellSpec::new(flavor.label(), 77, flavor))
        .collect()
    }

    fn run_cell(&self, scale: Scale, flavor: Flavor) -> RttBiasPoint {
        let duration = scale.pick(SimTime::from_secs(240), SimTime::from_secs(60));
        let warmup = scale.pick(SimTime::from_secs(60), SimTime::from_secs(15));
        run_bias(flavor, warmup, duration)
    }

    fn assemble(&self, _scale: Scale, points: Vec<RttBiasPoint>) -> RttBias {
        RttBias { points }
    }

    fn render(&self, output: &RttBias) {
        output.print();
    }
}

impl RttBias {
    /// Render the table.
    pub fn print(&self) {
        println!("\n== RTT bias (Section 1 caveat, measured) ==");
        println!("(two same-algorithm flows, RTT 54 ms vs 174 ms, 10 Mb/s RED)\n");
        let mut t = Table::new(["algorithm", "short (Mb/s)", "long (Mb/s)", "ratio", "alpha"]);
        for p in &self.points {
            t.row([
                p.label.clone(),
                num(p.short_bps / 1e6),
                num(p.long_bps / 1e6),
                num(p.short_bps / p.long_bps.max(1.0)),
                num(p.alpha),
            ]);
        }
        println!("{}", t.render());
    }
}

/// One multi-hop measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHopPoint {
    /// Algorithm label.
    pub label: String,
    /// Number of congested hops the long flow crosses.
    pub hops: usize,
    /// Long flow's throughput (bit/s).
    pub long_bps: f64,
    /// Mean cross-flow throughput (bit/s).
    pub cross_mean_bps: f64,
    /// long / cross.
    pub ratio: f64,
}

/// Result of the multi-hop experiment.
#[derive(Debug, Clone, Serialize)]
pub struct MultiHop {
    /// One row per (algorithm, hop count).
    pub points: Vec<MultiHopPoint>,
}

/// Registry entry for the multi-hop experiment (one long flow across
/// `h` hops, two cross flows per hop, everyone using the same
/// algorithm): one cell per `(algorithm, hop count)`.
pub struct MultiHopExperiment;

impl Experiment for MultiHopExperiment {
    type Cell = (Flavor, usize);
    type CellOut = MultiHopPoint;
    type Output = MultiHop;

    fn name(&self) -> &'static str {
        "multihop"
    }

    fn description(&self) -> &'static str {
        "Section 1 caveat - multi-hop equity on a parking lot"
    }

    fn artifact(&self) -> &'static str {
        "multihop"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(Flavor, usize)>> {
        let flavors = [Flavor::standard_tcp(), Flavor::standard_tfrc()];
        let hop_counts: Vec<usize> = scale.pick(vec![1, 2, 4], vec![1, 3]);
        let mut cells = Vec::new();
        for flavor in flavors {
            for &hops in &hop_counts {
                cells.push(CellSpec::new(
                    format!("{}/h{hops}", flavor.label()),
                    77,
                    (flavor, hops),
                ));
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (flavor, hops): (Flavor, usize)) -> MultiHopPoint {
        let duration = scale.pick(SimTime::from_secs(180), SimTime::from_secs(50));
        let warmup = scale.pick(SimTime::from_secs(45), SimTime::from_secs(12));
        run_lot(flavor, hops, warmup, duration)
    }

    fn assemble(&self, _scale: Scale, points: Vec<MultiHopPoint>) -> MultiHop {
        MultiHop { points }
    }

    fn render(&self, output: &MultiHop) {
        output.print();
    }
}

fn run_lot(flavor: Flavor, hops: usize, warmup: SimTime, duration: SimTime) -> MultiHopPoint {
    let mut sim = Simulator::new(77);
    let lot = ParkingLot::build(&mut sim, DumbbellConfig::paper(10e6), hops);
    let long_pair = lot.add_host_pair(&mut sim, 0, hops);
    let long = flavor.install(&mut sim, &long_pair, PKT_SIZE, SimTime::ZERO, None);
    let mut cross = Vec::new();
    for hop in 0..hops {
        for j in 0..2u64 {
            let pair = lot.add_host_pair(&mut sim, hop, hop + 1);
            cross.push(flavor.install(
                &mut sim,
                &pair,
                PKT_SIZE,
                SimTime::from_millis(37 + 13 * j + 7 * hop as u64),
                None,
            ));
        }
    }
    sim.run_until(duration);
    let stats = sim.stats();
    let long_bps = stats.flow_throughput_bps(long.flow, warmup, duration);
    let cross_mean = cross
        .iter()
        .map(|h| stats.flow_throughput_bps(h.flow, warmup, duration))
        .sum::<f64>()
        / cross.len() as f64;
    MultiHopPoint {
        label: flavor.label(),
        hops,
        long_bps,
        cross_mean_bps: cross_mean,
        ratio: long_bps / cross_mean.max(1.0),
    }
}

impl MultiHop {
    /// Render the table.
    pub fn print(&self) {
        println!("\n== Multi-hop equity (Section 1 caveat, measured) ==");
        println!("(one flow over h congested hops vs two cross flows per hop)\n");
        let mut t = Table::new([
            "algorithm",
            "hops",
            "long (Mb/s)",
            "cross mean (Mb/s)",
            "long/cross",
        ]);
        for p in &self.points {
            t.row([
                p.label.clone(),
                p.hops.to_string(),
                num(p.long_bps / 1e6),
                num(p.cross_mean_bps / 1e6),
                num(p.ratio),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    /// Short-RTT TCP beats long-RTT TCP clearly (alpha near or above 1).
    #[test]
    fn tcp_is_rtt_biased() {
        let bias = run_experiment(&RttBiasExperiment, Scale::Quick);
        let tcp = &bias.points[0];
        assert!(
            tcp.short_bps > 1.7 * tcp.long_bps,
            "short-RTT TCP should clearly win: {:.2} vs {:.2} Mb/s",
            tcp.short_bps / 1e6,
            tcp.long_bps / 1e6
        );
        assert!(tcp.alpha > 0.5, "alpha {:.2}", tcp.alpha);
    }

    /// The long flow's share shrinks as it crosses more congested hops,
    /// and at every hop count it gets less than the cross traffic.
    #[test]
    fn multihop_flows_lose_at_every_hop() {
        let mh = run_experiment(&MultiHopExperiment, Scale::Quick);
        let tcp: Vec<&MultiHopPoint> = mh.points.iter().filter(|p| p.label == "TCP(1/2)").collect();
        assert!(tcp.len() >= 2);
        let one = tcp.iter().find(|p| p.hops == 1).unwrap();
        let many = tcp.iter().find(|p| p.hops > 1).unwrap();
        assert!(
            many.ratio < one.ratio,
            "more hops should mean a smaller share: {:?} vs {:?}",
            many.ratio,
            one.ratio
        );
        assert!(many.ratio < 0.9, "long flow should lose: {}", many.ratio);
    }
}
