//! The Section 3 transient-response metrics, measured:
//!
//! * **Responsiveness** — "the number of round-trip times of persistent
//!   congestion until the sender halves its sending rate, where
//!   persistent congestion is defined as the loss of one packet per
//!   round-trip time". The paper states TCP's responsiveness is 1 RTT
//!   and deployed TFRC's 4-6 RTTs.
//! * **Aggressiveness** — "the maximum increase in the sending rate in
//!   one round-trip time, in packets per second, given the absence of
//!   congestion". For TCP(a, b) this is the parameter `a` (per RTT).

use serde::{Deserialize, Serialize};

use slowcc_netsim::prelude::*;
use slowcc_netsim::sim::Simulator;
use slowcc_traffic::losspat::OnePerRtt;

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::{PKT_SIZE, RTT};

/// One algorithm's measured transient metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponsePoint {
    /// Algorithm label.
    pub label: String,
    /// RTTs of one-drop-per-RTT congestion until the sending rate halves
    /// (`None` = never halved within the horizon).
    pub responsiveness_rtts: Option<f64>,
    /// Maximum one-RTT increase of the sending rate during an
    /// uncongested ramp, in packets per RTT.
    pub aggressiveness_ppr: f64,
}

/// Result of the transient-response measurements.
#[derive(Debug, Clone, Serialize)]
pub struct ResponseMetrics {
    /// One row per algorithm.
    pub points: Vec<ResponsePoint>,
}

/// The algorithms the Section 3 discussion names.
pub fn response_flavors() -> Vec<Flavor> {
    vec![
        Flavor::standard_tcp(),
        Flavor::Tcp { gamma: 8.0 },
        Flavor::Sqrt { gamma: 2.0 },
        Flavor::Tfrc {
            k: 6,
            self_clocking: false,
        },
        Flavor::Tfrc {
            k: 16,
            self_clocking: false,
        },
        Flavor::Rap { gamma: 2.0 },
    ]
}

/// Registry entry for the Section 3 metrics: one cell per algorithm,
/// each measuring both responsiveness and aggressiveness.
pub struct ResponseExperiment;

impl Experiment for ResponseExperiment {
    type Cell = Flavor;
    type CellOut = ResponsePoint;
    type Output = ResponseMetrics;

    fn name(&self) -> &'static str {
        "response"
    }

    fn description(&self) -> &'static str {
        "Section 3 metrics - responsiveness and aggressiveness"
    }

    fn artifact(&self) -> &'static str {
        "response"
    }

    fn cells(&self, _scale: Scale) -> Vec<CellSpec<Flavor>> {
        response_flavors()
            .into_iter()
            .map(|f| CellSpec::new(f.label(), 321, f))
            .collect()
    }

    fn run_cell(&self, scale: Scale, f: Flavor) -> ResponsePoint {
        ResponsePoint {
            label: f.label(),
            responsiveness_rtts: measure_responsiveness(f, scale),
            aggressiveness_ppr: measure_aggressiveness(f, scale),
        }
    }

    fn assemble(&self, _scale: Scale, points: Vec<ResponsePoint>) -> ResponseMetrics {
        ResponseMetrics { points }
    }

    fn render(&self, output: &ResponseMetrics) {
        output.print();
    }
}

/// Drive a steady flow into one-drop-per-RTT congestion and count RTTs
/// until its *sending* rate halves.
fn measure_responsiveness(flavor: Flavor, scale: Scale) -> Option<f64> {
    let onset = scale.pick(SimTime::from_secs(40), SimTime::from_secs(20));
    let end = onset + SimDuration::from_secs(30);
    let mut sim = Simulator::new(321);
    // A small buffer keeps the sending rate visible (a 2.5x-BDP queue
    // would hide a halved window behind the draining backlog).
    let cfg = DumbbellConfig {
        queue: QueueKind::DropTail(40),
        ..DumbbellConfig::paper(10e6)
    };
    let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(OnePerRtt::new(onset, RTT))));
    let pair = db.add_host_pair(&mut sim);
    let h = flavor.install(&mut sim, &pair, PKT_SIZE, SimTime::ZERO, None);
    sim.run_until(end);

    let stats = sim.stats();
    let tx = stats.flow_tx_rate_series_bps(h.flow, RTT, end);
    let onset_w = (onset.as_nanos() / RTT.as_nanos()) as usize;
    // Baseline: mean sending rate over the 40 RTTs before the onset.
    let base: f64 = tx[onset_w.saturating_sub(40)..onset_w].iter().sum::<f64>() / 40.0;
    // Rate considered halved when a 4-RTT average falls below base/2
    // (single-RTT bins are quantized by packet boundaries).
    for w in onset_w..tx.len().saturating_sub(4) {
        let avg: f64 = tx[w..w + 4].iter().sum::<f64>() / 4.0;
        if avg <= base / 2.0 {
            return Some((w - onset_w) as f64 + 2.0); // center of the window
        }
    }
    None
}

/// Open up bandwidth in front of a steady flow and measure its fastest
/// one-RTT rate increase.
fn measure_aggressiveness(flavor: Flavor, scale: Scale) -> f64 {
    // The flow shares a 10 Mb/s link with a CBR using 70%; the CBR stops
    // and the flow ramps into the vacated bandwidth without congestion.
    let open_at = scale.pick(SimTime::from_secs(40), SimTime::from_secs(20));
    let end = open_at + SimDuration::from_secs(20);
    let mut sim = Simulator::new(321);
    let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
    let cbr_pair = db.add_host_pair(&mut sim);
    slowcc_traffic::cbr::install_cbr(
        &mut sim,
        &cbr_pair,
        slowcc_traffic::cbr::RateSchedule::Script(vec![(SimTime::ZERO, 7e6), (open_at, 0.0)]),
        PKT_SIZE,
        SimTime::ZERO,
    );
    let pair = db.add_host_pair(&mut sim);
    let h = flavor.install(&mut sim, &pair, PKT_SIZE, SimTime::ZERO, None);
    sim.run_until(end);

    let stats = sim.stats();
    let tx = stats.flow_tx_rate_series_bps(h.flow, RTT, end);
    let open_w = (open_at.as_nanos() / RTT.as_nanos()) as usize;
    // Per-RTT increase during the ramp, smoothed over 4-RTT averages to
    // suppress packet quantization. The paper's metric is the increase
    // "given the absence of congestion" — the steady ramp slope, i.e.
    // the parameter `a` for TCP(a, b) — so take the *median* positive
    // step rather than the maximum (which would catch slow-start or
    // recovery-exit bursts instead).
    let smooth: Vec<f64> = tx[open_w..]
        .windows(4)
        .map(|w| w.iter().sum::<f64>() / 4.0)
        .collect();
    let mut steps: Vec<f64> = smooth
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|d| *d > 0.0)
        .collect();
    if steps.is_empty() {
        return 0.0;
    }
    steps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = steps[steps.len() / 2];
    // bits/s per RTT-step -> packets per RTT (per RTT).
    median * RTT.as_secs_f64() / (8.0 * PKT_SIZE as f64)
}

impl ResponseMetrics {
    /// Render the table.
    pub fn print(&self) {
        println!("\n== Section 3 metrics: responsiveness and aggressiveness ==");
        println!("(paper: TCP responsiveness 1 RTT, deployed TFRC 4-6 RTTs;");
        println!(" TCP(a,b) aggressiveness = a packets/RTT; TFRC far lower)\n");
        let mut t = Table::new([
            "algorithm",
            "responsiveness (RTTs)",
            "aggressiveness (pkts/RTT)",
        ]);
        for p in &self.points {
            t.row([
                p.label.clone(),
                p.responsiveness_rtts
                    .map(num)
                    .unwrap_or_else(|| "> horizon".into()),
                num(p.aggressiveness_ppr),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's stated values: TCP halves in ~1 RTT (our windowed
    /// measurement sees it within a few), TFRC takes several; TCP's
    /// aggressiveness exceeds TFRC's.
    #[test]
    fn tcp_is_more_responsive_and_aggressive_than_tfrc() {
        let tcp_resp = measure_responsiveness(Flavor::standard_tcp(), Scale::Quick)
            .expect("TCP halves under persistent congestion");
        let tfrc_resp =
            measure_responsiveness(Flavor::standard_tfrc(), Scale::Quick).unwrap_or(600.0);
        assert!(
            tcp_resp <= 8.0,
            "TCP should halve within a few RTTs, took {tcp_resp}"
        );
        assert!(
            tfrc_resp > tcp_resp,
            "TFRC ({tfrc_resp} RTTs) should respond slower than TCP ({tcp_resp} RTTs)"
        );

        let tcp_aggr = measure_aggressiveness(Flavor::standard_tcp(), Scale::Quick);
        let tfrc_aggr = measure_aggressiveness(Flavor::standard_tfrc(), Scale::Quick);
        assert!(
            tcp_aggr > tfrc_aggr,
            "TCP aggressiveness {tcp_aggr:.3} should exceed TFRC's {tfrc_aggr:.3}"
        );
    }
}
