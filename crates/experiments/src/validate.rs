//! Validation of the paper's premises against this implementation:
//!
//! * **Static TCP-compatibility** (Section 2 / Figure 1's taxonomy): each
//!   algorithm's throughput under a fixed Bernoulli loss rate, compared
//!   against the Padhye TCP response function it is supposed to track.
//! * **The Figure 11 model, simulated** (Section 4.2.2): the paper
//!   derives the ACKs-to-fairness formula for AIMD under ECN-style
//!   marking; here two ECN-capable TCP(b) flows run on a mark-only link
//!   and the measured convergence is converted to ACKs and compared to
//!   `ln δ / ln(1 - bp)`.
//! * **Appendix A at high loss**: measured TCP throughput at drop rates
//!   of 1/2 and 2/3, laid against the "AIMD with timeouts" curve that
//!   Figure 20 claims upper-bounds it.

use serde::{Deserialize, Serialize};

use slowcc_core::analysis::{acks_to_delta_fairness, aimd_with_timeouts_rate_ppr};
use slowcc_core::equation::padhye_rate_bps;
use slowcc_core::tcp::{Tcp, TcpConfig};
use slowcc_metrics::fairness::{delta_fair_convergence_time, ConvergenceConfig};
use slowcc_netsim::link::{BernoulliLoss, EveryNth};
use slowcc_netsim::prelude::*;
use slowcc_netsim::sim::Simulator;

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::PKT_SIZE;

/// One (algorithm, loss-rate) static measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticPoint {
    /// Algorithm label.
    pub label: String,
    /// Imposed Bernoulli loss probability.
    pub p: f64,
    /// Measured long-run throughput (bit/s).
    pub measured_bps: f64,
    /// Padhye-equation prediction for the same conditions (bit/s).
    pub equation_bps: f64,
    /// measured / equation.
    pub ratio: f64,
}

/// Result of the static-compatibility sweep.
#[derive(Debug, Clone, Serialize)]
pub struct StaticValidation {
    /// All points.
    pub points: Vec<StaticPoint>,
}

/// Flavors included in the static sweep.
pub fn static_flavors() -> Vec<Flavor> {
    vec![
        Flavor::standard_tcp(),
        Flavor::Tcp { gamma: 8.0 },
        Flavor::Sqrt { gamma: 2.0 },
        Flavor::standard_tfrc(),
        Flavor::Rap { gamma: 2.0 },
        Flavor::Tear,
    ]
}

fn static_point(flavor: Flavor, p: f64, secs: u64) -> StaticPoint {
    let mut sim = Simulator::new(2024);
    // Fat pipe, huge buffer: the imposed loss process is the only
    // constraint, exactly the static model's environment.
    let cfg = DumbbellConfig {
        queue: QueueKind::DropTail(20_000),
        ..DumbbellConfig::paper(400e6)
    };
    let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(BernoulliLoss::new(p, 7))));
    let pair = db.add_host_pair(&mut sim);
    let h = flavor.install(&mut sim, &pair, PKT_SIZE, SimTime::ZERO, None);
    sim.run_until(SimTime::from_secs(secs));
    let measured = sim.stats().flow_throughput_bps(
        h.flow,
        SimTime::from_secs(secs / 4),
        SimTime::from_secs(secs),
    );
    // RTT on the clean path is 50 ms; RTO ~ 4 RTT (per TFRC) —
    // TCP's actual clamped RTO is the 200 ms minimum, same value.
    let rtt = 0.05;
    let equation = padhye_rate_bps(PKT_SIZE, p, rtt, 0.2) * 8.0;
    StaticPoint {
        label: flavor.label(),
        p,
        measured_bps: measured,
        equation_bps: equation,
        ratio: measured / equation,
    }
}

/// Registry entry for the static-compatibility sweep: one cell per
/// `(algorithm, loss rate)`.
pub struct StaticExperiment;

impl Experiment for StaticExperiment {
    type Cell = (Flavor, f64);
    type CellOut = StaticPoint;
    type Output = StaticValidation;

    fn name(&self) -> &'static str {
        "validate-static"
    }

    fn description(&self) -> &'static str {
        "Validation - throughput vs the Padhye equation under fixed loss"
    }

    fn artifact(&self) -> &'static str {
        "validate_static"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(Flavor, f64)>> {
        let ps: Vec<f64> = scale.pick(vec![0.003, 0.01, 0.03], vec![0.01]);
        let mut cells = Vec::new();
        for flavor in static_flavors() {
            for &p in &ps {
                cells.push(CellSpec::new(
                    format!("{}/p{p}", flavor.label()),
                    2024,
                    (flavor, p),
                ));
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (flavor, p): (Flavor, f64)) -> StaticPoint {
        static_point(flavor, p, scale.pick(240u64, 90))
    }

    fn assemble(&self, _scale: Scale, points: Vec<StaticPoint>) -> StaticValidation {
        StaticValidation { points }
    }

    fn render(&self, output: &StaticValidation) {
        output.print();
    }
}

impl StaticValidation {
    /// Render the sweep.
    pub fn print(&self) {
        println!("\n== Static TCP-compatibility: measured vs Padhye equation ==");
        println!("(fixed Bernoulli loss on a fat pipe; ratio ~1 = compatible)\n");
        let mut t = Table::new([
            "algorithm",
            "p",
            "measured (Mb/s)",
            "equation (Mb/s)",
            "ratio",
        ]);
        for pt in &self.points {
            t.row([
                pt.label.clone(),
                num(pt.p),
                num(pt.measured_bps / 1e6),
                num(pt.equation_bps / 1e6),
                num(pt.ratio),
            ]);
        }
        println!("{}", t.render());
    }
}

/// One b-value of the ECN convergence validation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EcnConvPoint {
    /// AIMD decrease fraction b = 1/γ.
    pub b: f64,
    /// Measured convergence, converted to ACK count.
    pub measured_acks: f64,
    /// The Section 4.2.2 model's prediction.
    pub model_acks: f64,
}

/// Result of the ECN convergence validation.
#[derive(Debug, Clone, Serialize)]
pub struct EcnConvergence {
    /// Mark probability on the link.
    pub p: f64,
    /// All points.
    pub points: Vec<EcnConvPoint>,
}

/// Mark probability of the ECN convergence validation.
const ECN_MARK_P: f64 = 0.01;

/// Registry entry for the ECN convergence validation, the Figure 11
/// model simulated (ECN marks at probability `p`, no drops, two TCP(b)
/// flows from a skewed allocation): one cell per γ.
pub struct EcnConvExperiment;

impl Experiment for EcnConvExperiment {
    type Cell = f64;
    type CellOut = EcnConvPoint;
    type Output = EcnConvergence;

    fn name(&self) -> &'static str {
        "validate-ecn"
    }

    fn description(&self) -> &'static str {
        "Validation - Figure 11's ACK model on a mark-only link"
    }

    fn artifact(&self) -> &'static str {
        "validate_ecn"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<f64>> {
        let gammas: Vec<f64> = scale.pick(vec![2.0, 4.0, 8.0, 16.0], vec![2.0, 8.0]);
        gammas
            .into_iter()
            .map(|gamma| CellSpec::new(format!("g{gamma}"), 606, gamma))
            .collect()
    }

    fn run_cell(&self, scale: Scale, gamma: f64) -> EcnConvPoint {
        let b = 1.0 / gamma;
        let (time_secs, ack_rate) = ecn_convergence_once(gamma, ECN_MARK_P, scale);
        EcnConvPoint {
            b,
            measured_acks: time_secs * ack_rate,
            model_acks: acks_to_delta_fairness(b, ECN_MARK_P, 0.1),
        }
    }

    fn assemble(&self, _scale: Scale, points: Vec<EcnConvPoint>) -> EcnConvergence {
        EcnConvergence {
            p: ECN_MARK_P,
            points,
        }
    }

    fn render(&self, output: &EcnConvergence) {
        output.print();
    }
}

fn ecn_convergence_once(gamma: f64, p: f64, scale: Scale) -> (f64, f64) {
    // Fat pipe + marking: congestion exists only as ECN marks at a fixed
    // probability, the exact environment of the Section 4.2.2 model.
    let mut sim = Simulator::new(606);
    let cfg = DumbbellConfig {
        queue: QueueKind::DropTail(20_000),
        ..DumbbellConfig::paper(400e6)
    };
    let db = Dumbbell::build_with(
        &mut sim,
        cfg,
        DumbbellOptions::new().forward_marker(Box::new(BernoulliLoss::new(p, 99))),
    );

    let p1 = db.add_host_pair(&mut sim);
    let p2 = db.add_host_pair(&mut sim);
    let mut c1 = TcpConfig::tcp_gamma(gamma, PKT_SIZE).with_ecn();
    c1.init_cwnd = (1.5f64 / p).sqrt().max(4.0); // start near the marked equilibrium
    c1.init_ssthresh = 1.0;
    let h1 = Tcp::install(&mut sim, &p1, c1, SimTime::ZERO);
    let mut c2 = TcpConfig::tcp_gamma(gamma, PKT_SIZE).with_ecn();
    c2.init_cwnd = 1.0;
    c2.init_ssthresh = 1.0;
    let start2 = SimTime::from_secs(5);
    let h2 = Tcp::install(&mut sim, &p2, c2, start2);

    let horizon = start2 + scale.pick(SimDuration::from_secs(600), SimDuration::from_secs(120));
    sim.run_until(horizon);
    let conv = ConvergenceConfig {
        delta: 0.1,
        window: SimDuration::from_secs(2),
        from: start2,
        horizon,
    };
    let t = delta_fair_convergence_time(sim.stats(), h1.flow, h2.flow, 1e6, &conv)
        .map(|d| d.as_secs_f64())
        .unwrap_or(horizon.saturating_since(start2).as_secs_f64());
    // Combined ACK rate = combined delivered packet rate.
    let from = start2;
    let to = horizon;
    let pkts = sim
        .stats()
        .flow(h1.flow)
        .map(|f| f.total_rx_packets)
        .unwrap_or(0)
        + sim
            .stats()
            .flow(h2.flow)
            .map(|f| f.total_rx_packets)
            .unwrap_or(0);
    let ack_rate = pkts as f64 / to.saturating_since(from).as_secs_f64().max(1e-9);
    (t, ack_rate)
}

impl EcnConvergence {
    /// Render the comparison.
    pub fn print(&self) {
        println!(
            "\n== Figure 11 validated in simulation: ECN marks at p = {} ==",
            self.p
        );
        let mut t = Table::new(["b", "measured ACKs", "model ACKs", "ratio"]);
        for pt in &self.points {
            t.row([
                format!("1/{:.0}", 1.0 / pt.b),
                num(pt.measured_acks),
                num(pt.model_acks),
                num(pt.measured_acks / pt.model_acks),
            ]);
        }
        println!("{}", t.render());
    }
}

/// One high-loss point of the Appendix A check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HighLossPoint {
    /// Imposed drop rate (every n-th packet).
    pub p: f64,
    /// Measured TCP throughput in packets per RTT.
    pub measured_ppr: f64,
    /// The "AIMD with timeouts" bound.
    pub bound_ppr: f64,
}

/// Result of the Appendix A high-loss check.
#[derive(Debug, Clone, Serialize)]
pub struct HighLossValidation {
    /// The measured points.
    pub points: Vec<HighLossPoint>,
}

fn high_loss_point(n: u64, secs: u64) -> HighLossPoint {
    // Drop every n-th packet: p = 1/n (p = 1/2, 1/3... Appendix A
    // parameterizes p = n/(n+1); dropping every 2nd packet is
    // p = 0.5, every 3rd is 1/3).
    let p = 1.0 / n as f64;
    let mut sim = Simulator::new(11);
    let cfg = DumbbellConfig {
        queue: QueueKind::DropTail(1000),
        ..DumbbellConfig::paper(100e6)
    };
    let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(EveryNth::data_every(n))));
    let pair = db.add_host_pair(&mut sim);
    // Tighten the RTO floor so the timeout dynamics are visible
    // at a 50 ms RTT (the model counts in RTTs, not wall time).
    let mut tc = TcpConfig::standard(PKT_SIZE);
    tc.min_rto = SimDuration::from_millis(100);
    let h = Tcp::install(&mut sim, &pair, tc, SimTime::ZERO);
    sim.run_until(SimTime::from_secs(secs));
    // Unique delivered packets per RTT (retransmissions excluded
    // via the sink's in-order progress).
    let sink: &slowcc_core::tcp::TcpSink = sim.agent_downcast(h.sink).unwrap();
    let rtts = (secs as f64) / 0.05;
    let measured_ppr = sink.expected() as f64 / rtts;
    HighLossPoint {
        p,
        measured_ppr,
        bound_ppr: if p >= 0.5 {
            aimd_with_timeouts_rate_ppr(p)
        } else {
            f64::NAN
        },
    }
}

/// Registry entry for the Appendix A high-loss check: one cell per
/// drop-every-n rate.
pub struct HighLossExperiment;

impl Experiment for HighLossExperiment {
    type Cell = u64;
    type CellOut = HighLossPoint;
    type Output = HighLossValidation;

    fn name(&self) -> &'static str {
        "validate-highloss"
    }

    fn description(&self) -> &'static str {
        "Validation - TCP at p >= 1/3 vs the Appendix A bound"
    }

    fn artifact(&self) -> &'static str {
        "validate_highloss"
    }

    fn cells(&self, _scale: Scale) -> Vec<CellSpec<u64>> {
        vec![2u64, 3]
            .into_iter()
            .map(|n| CellSpec::new(format!("n{n}"), 11, n))
            .collect()
    }

    fn run_cell(&self, scale: Scale, n: u64) -> HighLossPoint {
        high_loss_point(n, scale.pick(300u64, 90))
    }

    fn assemble(&self, _scale: Scale, points: Vec<HighLossPoint>) -> HighLossValidation {
        HighLossValidation { points }
    }

    fn render(&self, output: &HighLossValidation) {
        output.print();
    }
}

impl HighLossValidation {
    /// Render the comparison.
    pub fn print(&self) {
        println!("\n== Appendix A check: TCP at very high drop rates ==");
        let mut t = Table::new(["p", "measured (pkts/RTT)", "timeout-model bound"]);
        for pt in &self.points {
            t.row([
                num(pt.p),
                num(pt.measured_ppr),
                if pt.bound_ppr.is_nan() {
                    "-".to_string()
                } else {
                    num(pt.bound_ppr)
                },
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    /// Every algorithm in the static sweep must track the equation
    /// within the bands the TCP-friendliness literature accepts.
    #[test]
    fn static_sweep_tracks_the_equation() {
        let v = run_experiment(&StaticExperiment, Scale::Quick);
        for pt in &v.points {
            assert!(
                pt.ratio > 0.3 && pt.ratio < 3.0,
                "{} at p={}: ratio {:.2} outside [0.3, 3]",
                pt.label,
                pt.p,
                pt.ratio
            );
        }
    }

    /// The ECN convergence measurement reproduces the model's ordering
    /// (smaller b -> more ACKs) and rough magnitude.
    #[test]
    fn ecn_convergence_matches_model_shape() {
        let v = run_experiment(&EcnConvExperiment, Scale::Quick);
        assert!(v.points.len() >= 2);
        // Ordering: the b = 1/8 point needs more ACKs than b = 1/2.
        let first = &v.points[0];
        let last = v.points.last().unwrap();
        assert!(first.b > last.b);
        assert!(
            last.measured_acks > first.measured_acks,
            "smaller b should take longer: {:?}",
            v.points
        );
        // Magnitude: within an order of magnitude of the model.
        for pt in &v.points {
            let ratio = pt.measured_acks / pt.model_acks;
            assert!(
                ratio > 0.1 && ratio < 20.0,
                "b={}: measured {} vs model {}",
                pt.b,
                pt.measured_acks,
                pt.model_acks
            );
        }
    }

    /// Measured TCP at p = 1/2 sits below the Appendix A bound.
    #[test]
    fn high_loss_measurement_respects_the_bound() {
        let v = run_experiment(&HighLossExperiment, Scale::Quick);
        let half = v
            .points
            .iter()
            .find(|pt| (pt.p - 0.5).abs() < 1e-9)
            .unwrap();
        assert!(
            half.measured_ppr < half.bound_ppr,
            "measured {:.3} pkts/RTT should sit below the bound {:.3}",
            half.measured_ppr,
            half.bound_ppr
        );
        assert!(half.measured_ppr > 0.005, "TCP should not fully stall");
    }
}
