//! Figures 14, 15 and 16: overall throughput and drop rate when all
//! flows use the same algorithm and the available bandwidth oscillates,
//! as a function of the ON/OFF period of the competing CBR source.
//!
//! Figure 14 plots utilization under 3:1 oscillation (15 <-> 5 Mb/s) for
//! TCP(1/8), TCP and TFRC(6); Figure 15 the corresponding drop rates;
//! Figure 16 repeats the utilization under 10:1 oscillation.

use serde::{Deserialize, Serialize};

use slowcc_metrics::util::flows_utilization;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_traffic::cbr::{install_cbr, RateSchedule};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::{self, PKT_SIZE};

/// The three algorithms Figures 14-16 compare.
pub fn figure14_flavors() -> Vec<Flavor> {
    vec![
        Flavor::Tcp { gamma: 8.0 },
        Flavor::standard_tcp(),
        Flavor::standard_tfrc(),
    ]
}

/// Sizing of the oscillating-utilization experiments.
#[derive(Debug, Clone, Serialize)]
pub struct Osc2Config {
    /// Bottleneck rate (paper: 15 Mb/s).
    pub bottleneck_bps: f64,
    /// CBR rate while ON (10 Mb/s -> 3:1; 13.5 Mb/s -> 10:1).
    pub cbr_bps: f64,
    /// Number of identical flows (paper: 10).
    pub n_flows: usize,
    /// ON (= OFF) durations to sweep, seconds.
    pub on_off_secs: Vec<f64>,
    /// Measurement start.
    pub warmup: SimTime,
    /// Run length per point.
    pub duration: SimTime,
}

impl Osc2Config {
    /// The 3:1 configuration (Figures 14/15).
    pub fn for_scale(scale: Scale) -> Self {
        Osc2Config {
            bottleneck_bps: 15e6,
            cbr_bps: 10e6,
            n_flows: 10,
            on_off_secs: scale.pick(
                vec![0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2],
                vec![0.05, 0.2, 0.8],
            ),
            warmup: scale.pick(SimTime::from_secs(20), SimTime::from_secs(10)),
            duration: scale.pick(SimTime::from_secs(150), SimTime::from_secs(50)),
        }
    }

    /// The 10:1 configuration (Figure 16).
    pub fn extreme_for_scale(scale: Scale) -> Self {
        Osc2Config {
            cbr_bps: 13.5e6,
            ..Osc2Config::for_scale(scale)
        }
    }

    /// Average bandwidth available to the responsive flows.
    pub fn avg_available_bps(&self) -> f64 {
        self.bottleneck_bps - self.cbr_bps / 2.0
    }
}

/// One (flavor, period) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Osc2Point {
    /// Algorithm label.
    pub label: String,
    /// ON (= OFF) duration, seconds.
    pub on_off_secs: f64,
    /// Per-flow normalized throughput (1.0 = fair share of the average
    /// available bandwidth).
    pub shares: Vec<f64>,
    /// Aggregate utilization of the average available bandwidth
    /// (Figure 14/16's y-axis).
    pub utilization: f64,
    /// Drop rate at the shared queue (Figure 15's y-axis).
    pub drop_rate: f64,
}

/// Result of one utilization sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Osc2 {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Sizing.
    pub config: Osc2Config,
    /// All points.
    pub points: Vec<Osc2Point>,
}

/// Registry entry shape shared by Figures 14/15 and Figure 16: one cell
/// per `(flavor, ON/OFF period)`.
pub struct Osc2Experiment {
    /// Canonical target name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Accepted alternate names.
    pub aliases: &'static [&'static str],
    /// JSON artifact stem.
    pub artifact: &'static str,
    /// Figure title passed to [`Osc2::print`].
    pub title: &'static str,
    /// Configuration builder for the scale.
    pub config: fn(Scale) -> Osc2Config,
}

impl Experiment for Osc2Experiment {
    type Cell = (Flavor, f64);
    type CellOut = Osc2Point;
    type Output = Osc2;

    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    fn artifact(&self) -> &'static str {
        self.artifact
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(Flavor, f64)>> {
        let config = (self.config)(scale);
        let mut cells = Vec::new();
        for flavor in figure14_flavors() {
            for &on_off in &config.on_off_secs {
                cells.push(CellSpec::new(
                    format!("{}/on{on_off}", flavor.label()),
                    42,
                    (flavor, on_off),
                ));
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (flavor, on_off): (Flavor, f64)) -> Osc2Point {
        run_point(flavor, &(self.config)(scale), on_off)
    }

    fn assemble(&self, scale: Scale, points: Vec<Osc2Point>) -> Osc2 {
        Osc2 {
            scale,
            config: (self.config)(scale),
            points,
        }
    }

    fn render(&self, output: &Osc2) {
        output.print(self.title);
    }
}

fn run_point(flavor: Flavor, cfg: &Osc2Config, on_off: f64) -> Osc2Point {
    let mut sc = scenario::standard_with(42, cfg.bottleneck_bps, |sim, db| {
        let pair = db.add_host_pair(sim);
        install_cbr(
            sim,
            &pair,
            RateSchedule::SquareWave {
                rate_bps: cfg.cbr_bps,
                half_period: SimDuration::from_secs_f64(on_off),
            },
            PKT_SIZE,
            SimTime::ZERO,
        );
        scenario::install_flows(sim, db, flavor, cfg.n_flows, SimTime::ZERO, None)
    });
    sc.sim.run_until(cfg.duration);
    let stats = sc.sim.stats();
    let flows: Vec<_> = sc.flows.iter().map(|h| h.flow).collect();
    let utilization = flows_utilization(
        stats,
        &flows,
        cfg.warmup,
        cfg.duration,
        cfg.avg_available_bps(),
    );
    let fair = cfg.avg_available_bps() / cfg.n_flows as f64;
    let shares = flows
        .iter()
        .map(|f| stats.flow_throughput_bps(*f, cfg.warmup, cfg.duration) / fair)
        .collect();
    let drop_rate = stats.link_loss_fraction_in(sc.db.forward, cfg.warmup, cfg.duration);
    Osc2Point {
        label: flavor.label(),
        on_off_secs: on_off,
        shares,
        utilization,
        drop_rate,
    }
}

impl Osc2 {
    /// Render utilization (Figure 14/16) and drop rate (Figure 15).
    pub fn print(&self, figure: &str) {
        let ratio = self.config.bottleneck_bps / (self.config.bottleneck_bps - self.config.cbr_bps);
        println!(
            "\n== {figure}: utilization under {:.0}:1 bandwidth oscillation ==",
            ratio
        );
        let mut t = Table::new(["algorithm", "ON/OFF (s)", "utilization", "drop rate"]);
        for p in &self.points {
            t.row([
                p.label.clone(),
                num(p.on_off_secs),
                num(p.utilization),
                num(p.drop_rate),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 14's claim: very short bursts (50 ms) are absorbed by the
    /// queue (high utilization); periods a few RTTs long hurt everyone.
    #[test]
    fn short_bursts_are_absorbed_longer_periods_hurt() {
        let cfg = Osc2Config {
            on_off_secs: vec![0.05, 0.2],
            ..Osc2Config::for_scale(Scale::Quick)
        };
        let flavor = Flavor::standard_tcp();
        let short = run_point(flavor, &cfg, 0.05);
        let mid = run_point(flavor, &cfg, 0.2);
        assert!(
            short.utilization > 0.8,
            "50 ms bursts should be absorbed: {:.3}",
            short.utilization
        );
        assert!(
            mid.utilization < short.utilization,
            "200 ms periods should cost utilization: {:.3} vs {:.3}",
            mid.utilization,
            short.utilization
        );
    }
}
