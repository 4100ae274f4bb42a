//! Figures 7, 8, 9: long-term fairness between five TCP flows and five
//! SlowCC flows when a square-wave CBR source oscillates the available
//! bandwidth 3:1, as a function of the oscillation period.
//!
//! Figure 7 pits TCP against TFRC, Figure 8 against TCP(1/8), Figure 9
//! against SQRT(1/2). The same runner also covers the sawtooth and
//! reverse-sawtooth variants discussed in Section 4.2.1, and the more
//! extreme 10:1 oscillation.

use serde::{Deserialize, Serialize};

use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_traffic::cbr::{install_cbr, RateSchedule};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::{self, PKT_SIZE};

/// Shape of the competing CBR source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CbrShape {
    /// Equal ON/OFF square wave (Figures 7-9).
    SquareWave,
    /// Linear ramp up, abrupt off.
    Sawtooth,
    /// Abrupt on, linear decay.
    ReverseSawtooth,
}

/// Sizing of the oscillating-fairness experiments.
#[derive(Debug, Clone, Serialize)]
pub struct OscConfig {
    /// Bottleneck rate (paper: 15 Mb/s).
    pub bottleneck_bps: f64,
    /// CBR rate while ON (paper: 10 Mb/s -> 3:1 available-bandwidth
    /// oscillation; 13.5 Mb/s -> 10:1).
    pub cbr_bps: f64,
    /// Flows per group (paper: 5 + 5).
    pub flows_per_group: usize,
    /// Combined high+low period lengths to sweep (seconds).
    pub periods_secs: Vec<f64>,
    /// Measurement start (skips convergence).
    pub warmup: SimTime,
    /// Run length per point.
    pub duration: SimTime,
    /// Shape of the CBR source.
    pub shape: CbrShape,
}

impl OscConfig {
    /// The 3:1 square-wave configuration of Figures 7-9.
    pub fn for_scale(scale: Scale) -> Self {
        OscConfig {
            bottleneck_bps: 15e6,
            cbr_bps: 10e6,
            flows_per_group: 5,
            periods_secs: scale.pick(
                vec![0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                vec![0.5, 4.0, 16.0],
            ),
            warmup: scale.pick(SimTime::from_secs(20), SimTime::from_secs(10)),
            duration: scale.pick(SimTime::from_secs(320), SimTime::from_secs(70)),
            shape: CbrShape::SquareWave,
        }
    }

    /// The 10:1 oscillation discussed at the end of Section 4.2.1.
    pub fn extreme_for_scale(scale: Scale) -> Self {
        OscConfig {
            cbr_bps: 13.5e6,
            ..OscConfig::for_scale(scale)
        }
    }

    /// Average bandwidth available to the responsive flows.
    pub fn avg_available_bps(&self) -> f64 {
        self.bottleneck_bps - self.cbr_bps / 2.0
    }
}

/// One period's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OscPoint {
    /// Combined high+low period (seconds).
    pub period_secs: f64,
    /// Normalized throughput of each TCP flow (1.0 = fair share of the
    /// average available bandwidth).
    pub tcp_shares: Vec<f64>,
    /// Normalized throughput of each SlowCC flow.
    pub other_shares: Vec<f64>,
    /// Mean normalized TCP throughput (the paper's TCP line).
    pub tcp_mean: f64,
    /// Mean normalized SlowCC throughput (the paper's other line).
    pub other_mean: f64,
    /// Combined utilization of the average available bandwidth.
    pub utilization: f64,
}

/// Result of one fairness sweep.
#[derive(Debug, Clone, Serialize)]
pub struct OscFairness {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// The competing SlowCC flavor.
    pub other_label: String,
    /// Sizing.
    pub config: OscConfig,
    /// One point per period.
    pub points: Vec<OscPoint>,
}

/// Registry entry shape shared by Figures 7/8/9 and the 10:1 extreme
/// variant: one cell per oscillation period.
pub struct OscExperiment {
    /// Canonical target name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// JSON artifact stem.
    pub artifact: &'static str,
    /// Figure title passed to [`OscFairness::print`].
    pub title: &'static str,
    /// The SlowCC flavor competing against standard TCP.
    pub other: Flavor,
    /// Configuration builder for the scale.
    pub config: fn(Scale) -> OscConfig,
}

impl Experiment for OscExperiment {
    type Cell = f64;
    type CellOut = OscPoint;
    type Output = OscFairness;

    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn artifact(&self) -> &'static str {
        self.artifact
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<f64>> {
        (self.config)(scale)
            .periods_secs
            .into_iter()
            .map(|period| CellSpec::new(format!("p{period}"), 42, period))
            .collect()
    }

    fn run_cell(&self, scale: Scale, period: f64) -> OscPoint {
        run_point(self.other, &(self.config)(scale), period)
    }

    fn assemble(&self, scale: Scale, points: Vec<OscPoint>) -> OscFairness {
        OscFairness {
            scale,
            other_label: self.other.label(),
            config: (self.config)(scale),
            points,
        }
    }

    fn render(&self, output: &OscFairness) {
        output.print(self.title);
    }
}

/// Figure 7: TCP vs TFRC(6).
pub const FIG7: OscExperiment = OscExperiment {
    name: "fig7",
    description: "Figure 7 - 3:1 oscillation fairness, TCP vs TFRC(6)",
    artifact: "fig7",
    title: "Figure 7",
    other: Flavor::standard_tfrc(),
    config: OscConfig::for_scale,
};

/// Figure 8: TCP vs TCP(1/8).
pub const FIG8: OscExperiment = OscExperiment {
    name: "fig8",
    description: "Figure 8 - 3:1 oscillation fairness, TCP vs TCP(1/8)",
    artifact: "fig8",
    title: "Figure 8",
    other: Flavor::Tcp { gamma: 8.0 },
    config: OscConfig::for_scale,
};

/// Figure 9: TCP vs SQRT(1/2).
pub const FIG9: OscExperiment = OscExperiment {
    name: "fig9",
    description: "Figure 9 - 3:1 oscillation fairness, TCP vs SQRT(1/2)",
    artifact: "fig9",
    title: "Figure 9",
    other: Flavor::Sqrt { gamma: 2.0 },
    config: OscConfig::for_scale,
};

fn cbr_schedule(cfg: &OscConfig, period: f64) -> RateSchedule {
    let half = SimDuration::from_secs_f64(period / 2.0);
    match cfg.shape {
        CbrShape::SquareWave => RateSchedule::SquareWave {
            rate_bps: cfg.cbr_bps,
            half_period: half,
        },
        // The sawtooth variants keep the square wave's peak rate and
        // period; only the shape of the transition changes.
        CbrShape::Sawtooth => RateSchedule::Sawtooth {
            peak_bps: cfg.cbr_bps,
            ramp: half,
            off: half,
        },
        CbrShape::ReverseSawtooth => RateSchedule::ReverseSawtooth {
            peak_bps: cfg.cbr_bps,
            ramp: half,
            off: half,
        },
    }
}

/// Run one (shape, period) point. `pub(crate)` so the sawtooth-variant
/// experiment in [`crate::extras`] can reuse the same cell body.
pub(crate) fn run_point(other: Flavor, cfg: &OscConfig, period: f64) -> OscPoint {
    let mut other_flows = Vec::new();
    let mut sc = scenario::standard_with(42, cfg.bottleneck_bps, |sim, db| {
        let pair = db.add_host_pair(sim);
        install_cbr(
            sim,
            &pair,
            cbr_schedule(cfg, period),
            PKT_SIZE,
            SimTime::ZERO,
        );
        let tcp = scenario::install_flows(
            sim,
            db,
            Flavor::standard_tcp(),
            cfg.flows_per_group,
            SimTime::ZERO,
            None,
        );
        other_flows = scenario::install_flows(
            sim,
            db,
            other,
            cfg.flows_per_group,
            SimTime::from_millis(31),
            None,
        );
        tcp
    });
    sc.sim.run_until(cfg.duration);

    let stats = sc.sim.stats();
    let fair_share = cfg.avg_available_bps() / (2 * cfg.flows_per_group) as f64;
    let share = |flow| stats.flow_throughput_bps(flow, cfg.warmup, cfg.duration) / fair_share;
    let tcp_shares: Vec<f64> = sc.flows.iter().map(|h| share(h.flow)).collect();
    let other_shares: Vec<f64> = other_flows.iter().map(|h| share(h.flow)).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let util = (tcp_shares.iter().sum::<f64>() + other_shares.iter().sum::<f64>())
        / (2 * cfg.flows_per_group) as f64;
    OscPoint {
        period_secs: period,
        tcp_mean: mean(&tcp_shares),
        other_mean: mean(&other_shares),
        tcp_shares,
        other_shares,
        utilization: util,
    }
}

impl OscFairness {
    /// Render the period sweep.
    pub fn print(&self, figure: &str) {
        println!(
            "\n== {figure}: TCP vs {} under {:?} oscillation ({:.0}:{:.0} Mb/s) ==",
            self.other_label,
            self.config.shape,
            self.config.bottleneck_bps / 1e6,
            (self.config.bottleneck_bps - self.config.cbr_bps) / 1e6,
        );
        println!("(normalized throughput; 1.0 = fair share of average available bandwidth)\n");
        let mut t = Table::new([
            "period (s)".to_string(),
            "TCP mean".to_string(),
            format!("{} mean", self.other_label),
            "TCP/other".to_string(),
            "utilization".to_string(),
        ]);
        for p in &self.points {
            t.row([
                num(p.period_secs),
                num(p.tcp_mean),
                num(p.other_mean),
                num(p.tcp_mean / p.other_mean.max(1e-9)),
                num(p.utilization),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    /// Figure 7's claim: at mid-range periods (seconds), TCP gets more
    /// than TFRC; and TFRC never beats TCP meaningfully in the long run.
    #[test]
    fn tcp_wins_against_tfrc_at_mid_periods() {
        let fig = run_experiment(&FIG7, Scale::Quick);
        let mid = fig
            .points
            .iter()
            .find(|p| (p.period_secs - 4.0).abs() < 0.01)
            .expect("4 s period present");
        assert!(
            mid.tcp_mean > mid.other_mean,
            "TCP {:.3} should beat TFRC {:.3} at 4 s periods",
            mid.tcp_mean,
            mid.other_mean
        );
        for p in &fig.points {
            assert!(
                p.other_mean < p.tcp_mean * 1.3,
                "TFRC should never meaningfully beat TCP (period {}): {:.3} vs {:.3}",
                p.period_secs,
                p.other_mean,
                p.tcp_mean
            );
        }
    }
}
