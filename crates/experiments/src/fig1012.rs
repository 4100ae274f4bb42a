//! Figures 10 and 12: δ-fair convergence time for two flows of the same
//! algorithm starting from a maximally skewed allocation, and Figure 11's
//! analytical counterpart.
//!
//! A first flow runs alone until it owns the 10 Mb/s bottleneck; a
//! second identical flow then starts from one packet per RTT, and we
//! measure the time until the allocation is 0.1-fair.

use serde::Serialize;

use slowcc_metrics::fairness::{delta_fair_convergence_time, ConvergenceConfig};
use slowcc_netsim::time::{SimDuration, SimTime};

use slowcc_core::tcp::{Tcp, TcpConfig};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario;

/// Which family Figure 10/12 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ConvFamily {
    /// TCP(b) with b = 1/γ (Figure 10).
    Tcp,
    /// TFRC(b) with history length b (Figure 12).
    Tfrc,
}

/// Sizing of the convergence experiments.
#[derive(Debug, Clone, Serialize)]
pub struct ConvConfig {
    /// Bottleneck rate (paper: 10 Mb/s).
    pub bottleneck_bps: f64,
    /// Parameter sweep (γ for TCP(1/γ), k for TFRC(k)).
    pub params: Vec<f64>,
    /// Seeds averaged per point.
    pub seeds: Vec<u64>,
    /// When the second flow starts.
    pub second_start: SimTime,
    /// Give-up horizon (measured from the second start).
    pub horizon: SimDuration,
    /// Fairness tolerance δ.
    pub delta: f64,
}

impl ConvConfig {
    /// Configuration for the given scale.
    pub fn for_scale(scale: Scale) -> Self {
        ConvConfig {
            bottleneck_bps: 10e6,
            params: scale.pick(
                vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
                vec![2.0, 8.0, 32.0],
            ),
            seeds: scale.pick(vec![1, 2, 3, 4, 5], vec![1, 2]),
            second_start: scale.pick(SimTime::from_secs(30), SimTime::from_secs(15)),
            horizon: scale.pick(SimDuration::from_secs(400), SimDuration::from_secs(60)),
            delta: 0.1,
        }
    }
}

/// One parameter's (averaged) convergence time.
#[derive(Debug, Clone, Serialize)]
pub struct ConvPoint {
    /// Family parameter (γ or k).
    pub param: f64,
    /// Mean convergence time over converged seeds, seconds.
    pub mean_secs: f64,
    /// Per-seed times (`None` = did not converge before the horizon).
    pub per_seed_secs: Vec<Option<f64>>,
    /// Fraction of seeds that converged.
    pub converged_fraction: f64,
}

/// Result of a convergence sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Convergence {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Which family was swept.
    pub family: ConvFamily,
    /// Sizing.
    pub config: ConvConfig,
    /// One point per parameter.
    pub points: Vec<ConvPoint>,
}

fn family_flavor(family: ConvFamily, param: f64) -> Flavor {
    match family {
        ConvFamily::Tcp => Flavor::Tcp { gamma: param },
        ConvFamily::Tfrc => Flavor::Tfrc {
            k: param as usize,
            self_clocking: false,
        },
    }
}

/// Registry entry shape shared by Figures 10 and 12: one cell per
/// `(param, seed)` — the finest independent unit — regrouped per
/// parameter in sweep order by `assemble`.
pub struct ConvExperiment {
    /// Canonical target name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Figure title.
    pub title: &'static str,
    /// Which family this instance sweeps.
    pub family: ConvFamily,
}

impl ConvExperiment {
    /// The registry entry for `family` ([`ConvFamily::Tcp`] is Figure 10,
    /// [`ConvFamily::Tfrc`] Figure 12).
    pub fn for_family(family: ConvFamily) -> Self {
        match family {
            ConvFamily::Tcp => ConvExperiment {
                name: "fig10",
                description: "Figure 10 - delta-fair convergence time for TCP(1/g)",
                title: "Figure 10",
                family,
            },
            ConvFamily::Tfrc => ConvExperiment {
                name: "fig12",
                description: "Figure 12 - delta-fair convergence time for TFRC(k)",
                title: "Figure 12",
                family,
            },
        }
    }
}

impl Experiment for ConvExperiment {
    type Cell = (f64, u64);
    type CellOut = Option<f64>;
    type Output = Convergence;

    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn artifact(&self) -> &'static str {
        self.name
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(f64, u64)>> {
        let config = ConvConfig::for_scale(scale);
        let mut cells = Vec::new();
        for &param in &config.params {
            for &seed in &config.seeds {
                cells.push(CellSpec::new(format!("b{param}/seed{seed}"), seed, (param, seed)));
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (param, seed): (f64, u64)) -> Option<f64> {
        run_once(self.family, param, &ConvConfig::for_scale(scale), seed)
    }

    fn assemble(&self, scale: Scale, times: Vec<Option<f64>>) -> Convergence {
        let config = ConvConfig::for_scale(scale);
        let points = config
            .params
            .iter()
            .enumerate()
            .map(|(i, &param)| {
                let n_seeds = config.seeds.len();
                let per_seed: Vec<Option<f64>> = times[i * n_seeds..(i + 1) * n_seeds].to_vec();
                let converged: Vec<f64> = per_seed.iter().flatten().copied().collect();
                let mean = if converged.is_empty() {
                    f64::INFINITY
                } else {
                    converged.iter().sum::<f64>() / converged.len() as f64
                };
                ConvPoint {
                    param,
                    mean_secs: mean,
                    converged_fraction: converged.len() as f64 / per_seed.len() as f64,
                    per_seed_secs: per_seed,
                }
            })
            .collect();
        Convergence {
            scale,
            family: self.family,
            config,
            points,
        }
    }

    fn render(&self, output: &Convergence) {
        output.print(self.title);
    }
}

fn run_once(family: ConvFamily, param: f64, cfg: &ConvConfig, seed: u64) -> Option<f64> {
    // Realize the paper's initial allocation (B - b0, b0) directly
    // (Section 4.2.2 defines the experiment by its starting shares, and
    // its analysis is slow-start-free): the first flow begins in
    // congestion avoidance with a pipe-sized window, the second in
    // congestion avoidance at one packet. Without this, the giant
    // initial slow-start overshoot of very slow variants dominates the
    // measurement instead of the AIMD convergence the figure is about.
    let mut second = None;
    let mut sc = scenario::standard_with(seed, cfg.bottleneck_bps, |sim, db| {
        let pipe = db.bdp_packets() + 0.5 * db.bdp_packets(); // BDP + some queue
        let p1 = db.add_host_pair(sim);
        let p2 = db.add_host_pair(sim);
        match family {
            ConvFamily::Tcp => {
                let mut c1 = TcpConfig::tcp_gamma(param, scenario::PKT_SIZE);
                c1.init_cwnd = pipe;
                c1.init_ssthresh = 1.0; // pure congestion avoidance
                let first = Tcp::install(sim, &p1, c1, SimTime::ZERO);
                let mut c2 = TcpConfig::tcp_gamma(param, scenario::PKT_SIZE);
                c2.init_cwnd = 1.0;
                c2.init_ssthresh = 1.0;
                second = Some(Tcp::install(sim, &p2, c2, cfg.second_start));
                vec![first]
            }
            ConvFamily::Tfrc => {
                // TFRC recovers from startup within seconds at any k, so
                // the plain agent with a warmup realizes (B, b0) fine.
                let flavor = family_flavor(family, param);
                let first = flavor.install(sim, &p1, scenario::PKT_SIZE, SimTime::ZERO, None);
                second = Some(flavor.install(sim, &p2, scenario::PKT_SIZE, cfg.second_start, None));
                vec![first]
            }
        }
    });
    let second = second.expect("second flow installed");
    let horizon = cfg.second_start + cfg.horizon;
    sc.sim.run_until(horizon);
    let conv = ConvergenceConfig {
        delta: cfg.delta,
        // Judge on 2 s (40 RTT) averages: individual AIMD sawteeth swing
        // far more than delta within a single RTT-scale window.
        window: SimDuration::from_secs(2),
        from: cfg.second_start,
        horizon,
    };
    delta_fair_convergence_time(
        sc.sim.stats(),
        sc.flows[0].flow,
        second.flow,
        cfg.bottleneck_bps,
        &conv,
    )
    .map(|d| d.as_secs_f64())
}

impl Convergence {
    /// Render the sweep.
    pub fn print(&self, figure: &str) {
        let family = match self.family {
            ConvFamily::Tcp => "TCP(1/γ)",
            ConvFamily::Tfrc => "TFRC(k)",
        };
        println!("\n== {figure}: time to 0.1-fairness for two {family} flows ==");
        let mut t = Table::new(["param", "mean (s)", "converged"]);
        for p in &self.points {
            t.row([
                num(p.param),
                num(p.mean_secs),
                format!("{:.0}%", p.converged_fraction * 100.0),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figures 10 vs 12's combined claim: TCP(b) convergence blows up as
    /// b shrinks, while TFRC(k)'s growth in k is much milder. Averaged
    /// over a few seeds so the claim doesn't hinge on one RNG stream.
    #[test]
    fn tcp_convergence_degrades_faster_than_tfrc() {
        const SEEDS: [u64; 3] = [1, 2, 3];
        let cfg = ConvConfig {
            params: vec![2.0, 32.0],
            seeds: SEEDS.to_vec(),
            ..ConvConfig::for_scale(Scale::Quick)
        };
        let run = |family| {
            cfg.params
                .iter()
                .map(|&p| {
                    SEEDS
                        .iter()
                        .map(|&s| run_once(family, p, &cfg, s).unwrap_or(cfg.horizon.as_secs_f64()))
                        .sum::<f64>()
                        / SEEDS.len() as f64
                })
                .collect::<Vec<f64>>()
        };
        let tcp = run(ConvFamily::Tcp);
        let tfrc = run(ConvFamily::Tfrc);
        // Both families slow down as the parameter grows, but TCP(1/γ)
        // pays more: a larger absolute increase, and a worse time at the
        // sluggish end. (Absolute seconds, not a base ratio: the fast
        // end is just a few RTT-scale seconds for either family, so a
        // ratio mostly measures the denominator.)
        assert!(tcp[1] > tcp[0] && tfrc[1] > tfrc[0], "both families must degrade: tcp {tcp:?}, tfrc {tfrc:?}");
        let tcp_growth = tcp[1] - tcp[0];
        let tfrc_growth = tfrc[1] - tfrc[0];
        assert!(
            tcp_growth > tfrc_growth,
            "TCP slowdown {tcp_growth:.1}s should exceed TFRC's {tfrc_growth:.1}s \
             (tcp {tcp:?}, tfrc {tfrc:?})"
        );
        assert!(
            tcp[1] > tfrc[1],
            "at the sluggish end TCP should converge slower: tcp {tcp:?}, tfrc {tfrc:?}"
        );
    }
}
