//! Figure 6: a flash crowd of short TCP transfers arrives at t = 25 s;
//! aggregate throughput of the crowd and of the long-running background
//! SlowCC flows, for TCP(1/2), TFRC(256) without self-clocking, and
//! TFRC(256) with self-clocking.

use serde::{Deserialize, Serialize};

use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_traffic::flash::{install_flash_crowd, FlashCrowdConfig};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::{self, PKT_SIZE};

/// Sizing of the Figure 6 experiment.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig6Config {
    /// Bottleneck rate.
    pub bottleneck_bps: f64,
    /// Number of long-lived background flows.
    pub n_background: usize,
    /// Crowd arrival time.
    pub crowd_start: SimTime,
    /// Crowd arrival rate, flows/second.
    pub flows_per_sec: f64,
    /// Crowd arrival duration.
    pub crowd_duration: SimDuration,
    /// End of the run.
    pub end: SimTime,
}

impl Fig6Config {
    /// Configuration for the given scale (paper: crowd of 200 flows/s
    /// for 5 s starting at t = 25 s).
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Fig6Config {
                bottleneck_bps: 10e6,
                n_background: 8,
                crowd_start: SimTime::from_secs(25),
                flows_per_sec: 200.0,
                crowd_duration: SimDuration::from_secs(5),
                end: SimTime::from_secs(60),
            },
            Scale::Quick => Fig6Config {
                bottleneck_bps: 10e6,
                n_background: 4,
                crowd_start: SimTime::from_secs(10),
                flows_per_sec: 80.0,
                crowd_duration: SimDuration::from_secs(3),
                end: SimTime::from_secs(30),
            },
        }
    }
}

/// One background flavor's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Series {
    /// Background algorithm.
    pub label: String,
    /// Aggregate background throughput per 0.5 s window (bit/s).
    pub background: Vec<f64>,
    /// Aggregate crowd throughput per 0.5 s window (bit/s).
    pub crowd: Vec<f64>,
    /// Background throughput during the crowd (bit/s).
    pub background_during_crowd_bps: f64,
    /// Crowd throughput during its arrival window (bit/s).
    pub crowd_during_bps: f64,
    /// Background throughput after the crowd has drained (bit/s).
    pub background_after_bps: f64,
}

/// Result of the Figure 6 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6 {
    /// Scale the experiment ran at.
    pub scale: Scale,
    /// Scenario sizing.
    pub config: Fig6Config,
    /// Window width for the series, seconds.
    pub window_secs: f64,
    /// One entry per background flavor.
    pub series: Vec<Fig6Series>,
}

/// The background flavors Figure 6 compares.
pub fn figure6_flavors(scale: Scale) -> Vec<Flavor> {
    let k = scale.pick(256, 64);
    vec![
        Flavor::standard_tcp(),
        Flavor::Tfrc {
            k,
            self_clocking: false,
        },
        Flavor::Tfrc {
            k,
            self_clocking: true,
        },
    ]
}

/// Series window width.
fn window() -> SimDuration {
    SimDuration::from_millis(500)
}

/// Registry entry for Figure 6: one cell per background flavor.
pub struct Fig6Experiment;

impl Experiment for Fig6Experiment {
    type Cell = Flavor;
    type CellOut = Fig6Series;
    type Output = Fig6;

    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "Figure 6 - flash crowd vs background SlowCC"
    }

    fn artifact(&self) -> &'static str {
        "fig6"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<Flavor>> {
        figure6_flavors(scale)
            .into_iter()
            .map(|flavor| CellSpec::new(flavor.label(), 42, flavor))
            .collect()
    }

    fn run_cell(&self, scale: Scale, flavor: Flavor) -> Fig6Series {
        run_one(flavor, &Fig6Config::for_scale(scale), window())
    }

    fn assemble(&self, scale: Scale, series: Vec<Fig6Series>) -> Fig6 {
        Fig6 {
            scale,
            config: Fig6Config::for_scale(scale),
            window_secs: window().as_secs_f64(),
            series,
        }
    }

    fn render(&self, output: &Fig6) {
        output.print();
    }
}

fn run_one(flavor: Flavor, cfg: &Fig6Config, window: SimDuration) -> Fig6Series {
    let mut crowd_flow = None;
    let mut sc = scenario::standard_with(42, cfg.bottleneck_bps, |sim, db| {
        let flows = scenario::install_flows(sim, db, flavor, cfg.n_background, SimTime::ZERO, None);
        let crowd = install_flash_crowd(
            sim,
            db.lot(),
            FlashCrowdConfig {
                flows_per_sec: cfg.flows_per_sec,
                duration: cfg.crowd_duration,
                transfer_packets: 10,
                pkt_size: PKT_SIZE,
                host_pairs: 16,
                seed: 4242,
            },
            cfg.crowd_start,
        );
        crowd_flow = Some(crowd.flow);
        flows
    });
    let crowd_flow = crowd_flow.expect("crowd installed");
    sc.sim.run_until(cfg.end);

    let stats = sc.sim.stats();
    let windows = (cfg.end.as_nanos() / window.as_nanos()) as usize;
    let mut background = vec![0.0; windows];
    for h in &sc.flows {
        for (i, v) in stats
            .flow_rate_series_bps(h.flow, window, cfg.end)
            .iter()
            .enumerate()
        {
            if i < windows {
                background[i] += v;
            }
        }
    }
    let crowd = stats.flow_rate_series_bps(crowd_flow, window, cfg.end);

    let crowd_end = cfg.crowd_start + cfg.crowd_duration;
    let bg_during: f64 = sc
        .flows
        .iter()
        .map(|h| stats.flow_throughput_bps(h.flow, cfg.crowd_start, crowd_end))
        .sum();
    let crowd_during = stats.flow_throughput_bps(crowd_flow, cfg.crowd_start, crowd_end);
    let after_from = crowd_end + SimDuration::from_secs(5);
    let bg_after: f64 = sc
        .flows
        .iter()
        .map(|h| stats.flow_throughput_bps(h.flow, after_from, cfg.end))
        .sum();

    Fig6Series {
        label: flavor.label(),
        background,
        crowd,
        background_during_crowd_bps: bg_during,
        crowd_during_bps: crowd_during,
        background_after_bps: bg_after,
    }
}

impl Fig6 {
    /// Render the summary table.
    pub fn print(&self) {
        println!("\n== Figure 6: flash crowd vs long-running SlowCC ==");
        println!(
            "crowd: {} flows/s x {} from t={}, bottleneck {:.0} Mb/s\n",
            self.config.flows_per_sec,
            self.config.crowd_duration,
            self.config.crowd_start,
            self.config.bottleneck_bps / 1e6
        );
        let mut t = Table::new([
            "background",
            "bg during crowd (Mb/s)",
            "crowd rate (Mb/s)",
            "bg after (Mb/s)",
        ]);
        for s in &self.series {
            t.row([
                s.label.clone(),
                num(s.background_during_crowd_bps / 1e6),
                num(s.crowd_during_bps / 1e6),
                num(s.background_after_bps / 1e6),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    /// Figure 6's claim: the crowd grabs bandwidth quickly regardless of
    /// the background flavor (the short flows are in slow-start), and
    /// self-clocked TFRC yields to the crowd at least as much as plain
    /// TFRC.
    #[test]
    fn crowd_grabs_bandwidth_from_every_background() {
        let fig = run_experiment(&Fig6Experiment, Scale::Quick);
        for s in &fig.series {
            assert!(
                s.crowd_during_bps > 0.1 * fig.config.bottleneck_bps,
                "{}: crowd got only {:.2} Mb/s",
                s.label,
                s.crowd_during_bps / 1e6
            );
        }
        let plain = fig
            .series
            .iter()
            .find(|s| s.label.starts_with("TFRC") && !s.label.ends_with("+sc"))
            .unwrap();
        let sc = fig
            .series
            .iter()
            .find(|s| s.label.ends_with("+sc"))
            .unwrap();
        assert!(
            sc.background_during_crowd_bps <= plain.background_during_crowd_bps * 1.5,
            "self-clocked TFRC should not out-grab plain TFRC during the crowd"
        );
    }
}
