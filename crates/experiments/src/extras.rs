//! Experiments from the paper's prose that have no numbered figure:
//!
//! * the **10:1 oscillation** long-term fairness run ("the throughput
//!   difference was significantly more prominent in this case",
//!   Section 4.2.1),
//! * the **sawtooth / reverse-sawtooth** CBR variants ("results were
//!   essentially the same ... with the difference between TCP and TFRC
//!   less pronounced", Section 4.2.1),
//! * the **f(k) model check** of Section 4.2.3: measured `f(k)` against
//!   the approximation `1/2 + k·a/(4Rλ)`.

use serde::{Deserialize, Serialize};

use slowcc_core::aimd::tcp_compatible_a;
use slowcc_core::analysis::fk_model_tcp;

use crate::experiment::{CellSpec, Experiment};
use crate::fig0789::{run_point, CbrShape, OscConfig, OscExperiment, OscFairness, OscPoint};
use crate::fig13::{self, Fig13Config};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::RTT;

/// The 10:1-oscillation fairness experiment (TCP vs TFRC).
pub const FAIRNESS_EXTREME: OscExperiment = OscExperiment {
    name: "fairness-extreme",
    description: "Section 4.2.1 - 10:1 oscillation fairness, TCP vs TFRC(6)",
    artifact: "fairness_extreme",
    title: "Section 4.2.1 (10:1 oscillation)",
    other: Flavor::standard_tfrc(),
    config: OscConfig::extreme_for_scale,
};

/// The CBR shapes of the sawtooth experiment, in output order.
const SAWTOOTH_SHAPES: [CbrShape; 2] = [CbrShape::Sawtooth, CbrShape::ReverseSawtooth];

/// Registry entry for the Section 4.2.1 sawtooth variants: one cell per
/// `(shape, period)`, assembled into one sweep per shape.
pub struct SawtoothExperiment;

impl Experiment for SawtoothExperiment {
    type Cell = (CbrShape, f64);
    type CellOut = OscPoint;
    type Output = Vec<OscFairness>;

    fn name(&self) -> &'static str {
        "sawtooth"
    }

    fn description(&self) -> &'static str {
        "Section 4.2.1 - sawtooth/reverse-sawtooth CBR variants"
    }

    fn artifact(&self) -> &'static str {
        "sawtooth"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(CbrShape, f64)>> {
        let periods = OscConfig::for_scale(scale).periods_secs;
        let mut cells = Vec::new();
        for shape in SAWTOOTH_SHAPES {
            for &period in &periods {
                cells.push(CellSpec::new(
                    format!("{shape:?}/p{period}"),
                    42,
                    (shape, period),
                ));
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (shape, period): (CbrShape, f64)) -> OscPoint {
        let config = OscConfig {
            shape,
            ..OscConfig::for_scale(scale)
        };
        run_point(Flavor::standard_tfrc(), &config, period)
    }

    fn assemble(&self, scale: Scale, outs: Vec<OscPoint>) -> Vec<OscFairness> {
        let n_periods = OscConfig::for_scale(scale).periods_secs.len();
        let mut outs = outs.into_iter();
        SAWTOOTH_SHAPES
            .into_iter()
            .map(|shape| OscFairness {
                scale,
                other_label: Flavor::standard_tfrc().label(),
                config: OscConfig {
                    shape,
                    ..OscConfig::for_scale(scale)
                },
                points: outs.by_ref().take(n_periods).collect(),
            })
            .collect()
    }

    fn render(&self, output: &Vec<OscFairness>) {
        for (i, r) in output.iter().enumerate() {
            r.print(&format!("Section 4.2.1 sawtooth variant {}", i + 1));
        }
    }

    fn save(&self, output: &Vec<OscFairness>, dir: &std::path::Path) {
        for (i, r) in output.iter().enumerate() {
            let name = format!("sawtooth_{}", i + 1);
            if let Err(e) = crate::report::write_json(dir, &name, r) {
                eprintln!("warning: failed to write {name}.json: {e}");
            }
        }
    }
}

/// One comparison of measured vs modeled f(k).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FkModelPoint {
    /// γ of the TCP(1/γ) flows.
    pub gamma: f64,
    /// Measured f(20).
    pub measured_f20: f64,
    /// Model prediction for f(20).
    pub model_f20: f64,
    /// Measured f(200).
    pub measured_f200: f64,
    /// Model prediction for f(200).
    pub model_f200: f64,
}

/// Result of the f(k) model check.
#[derive(Debug, Clone, Serialize)]
pub struct FkModel {
    /// All compared points.
    pub points: Vec<FkModelPoint>,
}

/// Registry entry for the Section 4.2.3 f(k) model check: one cell per
/// γ, each producing the measured-vs-model comparison row.
pub struct FkModelExperiment;

impl Experiment for FkModelExperiment {
    type Cell = f64;
    type CellOut = FkModelPoint;
    type Output = FkModel;

    fn name(&self) -> &'static str {
        "fk-model"
    }

    fn description(&self) -> &'static str {
        "Section 4.2.3 - measured f(k) vs the closed-form model"
    }

    fn artifact(&self) -> &'static str {
        "fk_model"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<f64>> {
        let gammas: Vec<f64> = scale.pick(vec![2.0, 8.0, 64.0, 256.0], vec![2.0, 64.0]);
        gammas
            .into_iter()
            .map(|gamma| CellSpec::new(format!("g{gamma}"), 42, gamma))
            .collect()
    }

    fn run_cell(&self, scale: Scale, gamma: f64) -> FkModelPoint {
        let cfg = Fig13Config::for_scale(scale);
        // Per-flow rate before the doubling: 10 flows share the bottleneck.
        let lambda_pps = cfg.bottleneck_bps / 8.0 / 1000.0 / cfg.n_flows as f64;
        // Reuse Figure 13's runner for a single family point.
        let fig = fig13::run_single("TCP", gamma, &cfg);
        let a = tcp_compatible_a(1.0 / gamma);
        FkModelPoint {
            gamma,
            measured_f20: fig.0,
            model_f20: fk_model_tcp(20, a, RTT.as_secs_f64(), lambda_pps),
            measured_f200: fig.1,
            model_f200: fk_model_tcp(200, a, RTT.as_secs_f64(), lambda_pps),
        }
    }

    fn assemble(&self, _scale: Scale, points: Vec<FkModelPoint>) -> FkModel {
        FkModel { points }
    }

    fn render(&self, output: &FkModel) {
        output.print();
    }
}

impl FkModel {
    /// Render the comparison.
    pub fn print(&self) {
        println!("\n== f(k) model check: measured vs 1/2 + k*a/(4*R*lambda) ==");
        let mut t = Table::new([
            "gamma",
            "f(20) meas",
            "f(20) model",
            "f(200) meas",
            "f(200) model",
        ]);
        for p in &self.points {
            t.row([
                num(p.gamma),
                num(p.measured_f20),
                num(p.model_f20),
                num(p.measured_f200),
                num(p.model_f200),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    /// Section 4.2.1: under 10:1 oscillation the TCP-over-TFRC advantage
    /// is at least as prominent as under 3:1.
    #[test]
    fn extreme_oscillation_widens_the_gap() {
        let extreme = run_experiment(&FAIRNESS_EXTREME, Scale::Quick);
        // At the mid period TCP should clearly beat TFRC.
        let worst_gap = extreme
            .points
            .iter()
            .map(|p| p.tcp_mean / p.other_mean.max(1e-9))
            .fold(0.0f64, f64::max);
        assert!(
            worst_gap > 1.2,
            "10:1 oscillation should favor TCP clearly, best gap {worst_gap:.2}"
        );
    }

    /// The f(k) model and measurement agree on the ordering: slower
    /// variants have lower f(20), and the model tracks within coarse
    /// bounds at the sluggish end.
    #[test]
    fn fk_model_tracks_measurement_shape() {
        let fk = run_experiment(&FkModelExperiment, Scale::Quick);
        assert!(fk.points.len() >= 2);
        let fast = &fk.points[0];
        let slow = fk.points.last().unwrap();
        assert!(fast.measured_f20 > slow.measured_f20);
        assert!(fast.model_f20 > slow.model_f20);
        // At the sluggish end both sit near 1/2 (+ the queue's help).
        assert!(slow.measured_f20 > 0.35 && slow.measured_f20 < 0.8);
        assert!(slow.model_f20 >= 0.5 && slow.model_f20 < 0.6);
    }
}
