//! Figure 13: link utilization `f(20)` and `f(200)` after the available
//! bandwidth suddenly doubles (five of ten flows stop), for TCP(1/b),
//! SQRT(1/b) and TFRC(b) across b.

use serde::{Deserialize, Serialize};

use slowcc_metrics::util::f_k;
use slowcc_netsim::time::SimTime;

use crate::experiment::{CellSpec, Experiment};
use crate::fig45::family_flavor;
use crate::report::{num, Table};
use crate::scale::{gamma_sweep, Scale};
use crate::scenario::{self, RTT};

/// Families swept by Figure 13.
pub const FAMILIES: [&str; 3] = ["TCP", "SQRT", "TFRC"];

/// Sizing of the Figure 13 experiment.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig13Config {
    /// Bottleneck rate (paper: 10 Mb/s).
    pub bottleneck_bps: f64,
    /// Total flows before the doubling (paper: 10; 5 stop).
    pub n_flows: usize,
    /// When half the flows stop. The paper uses t = 500 s because the
    /// very slow variants need hundreds of seconds just to converge to
    /// fair shares; stopping earlier makes f(k) reflect the (still
    /// skewed) pre-stop allocation instead of the ramp speed.
    pub stop_at: SimTime,
    /// End of the run (>= stop + 200 RTTs).
    pub end: SimTime,
}

impl Fig13Config {
    /// Configuration for the given scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Fig13Config {
                bottleneck_bps: 10e6,
                n_flows: 10,
                stop_at: SimTime::from_secs(500),
                end: SimTime::from_secs(515),
            },
            Scale::Quick => Fig13Config {
                bottleneck_bps: 10e6,
                n_flows: 10,
                stop_at: SimTime::from_secs(30),
                end: SimTime::from_secs(45),
            },
        }
    }
}

/// One (family, b) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13Point {
    /// Family name.
    pub family: String,
    /// Slowness parameter b (γ for TCP/SQRT, k for TFRC).
    pub gamma: f64,
    /// Utilization over the first 20 RTTs after the doubling.
    pub f20: f64,
    /// Utilization over the first 200 RTTs.
    pub f200: f64,
}

/// Result of the Figure 13 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13 {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Sizing.
    pub config: Fig13Config,
    /// All points.
    pub points: Vec<Fig13Point>,
}

/// Seeds averaged per point. f(20) covers a single second of simulated
/// time, so a single run is at the mercy of whether a loss event lands
/// inside it; average a few seeds.
fn seeds(scale: Scale) -> &'static [u64] {
    match scale {
        Scale::Full => &[42, 43, 44],
        Scale::Quick => &[42],
    }
}

/// The `(family, γ)` pairs of the sweep, skipping γ = 1 (full
/// decrease), which is not part of Figure 13.
fn sweep_pairs(scale: Scale) -> Vec<(&'static str, f64)> {
    let mut pairs = Vec::new();
    for family in FAMILIES {
        for &gamma in &gamma_sweep(scale) {
            if gamma >= 2.0 {
                pairs.push((family, gamma));
            }
        }
    }
    pairs
}

/// Registry entry for Figure 13: one cell per `(family, γ, seed)`,
/// averaged per `(family, γ)` in seed order by `assemble`.
pub struct Fig13Experiment;

impl Experiment for Fig13Experiment {
    type Cell = (&'static str, f64, u64);
    type CellOut = (f64, f64);
    type Output = Fig13;

    fn name(&self) -> &'static str {
        "fig13"
    }

    fn description(&self) -> &'static str {
        "Figure 13 - f(20)/f(200) after bandwidth doubling"
    }

    fn artifact(&self) -> &'static str {
        "fig13"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(&'static str, f64, u64)>> {
        let mut cells = Vec::new();
        for (family, gamma) in sweep_pairs(scale) {
            for &seed in seeds(scale) {
                cells.push(CellSpec::new(
                    format!("{family}/g{gamma}/seed{seed}"),
                    seed,
                    (family, gamma, seed),
                ));
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (family, gamma, seed): (&'static str, f64, u64)) -> (f64, f64) {
        run_point_seeded(family, gamma, &Fig13Config::for_scale(scale), seed)
    }

    fn assemble(&self, scale: Scale, outs: Vec<(f64, f64)>) -> Fig13 {
        let n_seeds = seeds(scale).len();
        let points = sweep_pairs(scale)
            .into_iter()
            .enumerate()
            .map(|(i, (family, gamma))| {
                let mut f20 = 0.0;
                let mut f200 = 0.0;
                for &(a, b) in &outs[i * n_seeds..(i + 1) * n_seeds] {
                    f20 += a / n_seeds as f64;
                    f200 += b / n_seeds as f64;
                }
                Fig13Point {
                    family: family.to_string(),
                    gamma,
                    f20,
                    f200,
                }
            })
            .collect();
        Fig13 {
            scale,
            config: Fig13Config::for_scale(scale),
            points,
        }
    }

    fn render(&self, output: &Fig13) {
        output.print();
    }
}

/// Run a single (family, b) point and return `(f(20), f(200))`.
/// Exposed for the f(k)-model comparison in [`crate::extras`].
pub fn run_single(family: &str, gamma: f64, cfg: &Fig13Config) -> (f64, f64) {
    run_point_seeded(family, gamma, cfg, 42)
}

fn run_point_seeded(family: &str, gamma: f64, cfg: &Fig13Config, seed: u64) -> (f64, f64) {
    let flavor = family_flavor(family, gamma);
    let half = cfg.n_flows / 2;
    let mut survivors = Vec::new();
    let mut sc = scenario::standard_with(seed, cfg.bottleneck_bps, |sim, db| {
        // Half the flows stop at the doubling time...
        let stoppers =
            scenario::install_flows(sim, db, flavor, half, SimTime::ZERO, Some(cfg.stop_at));
        // ...and half continue.
        survivors =
            scenario::install_flows(sim, db, flavor, cfg.n_flows - half, SimTime::ZERO, None);
        stoppers
    });
    sc.sim.run_until(cfg.end);
    let flows: Vec<_> = survivors.iter().map(|h| h.flow).collect();
    let f20 = f_k(
        sc.sim.stats(),
        &flows,
        cfg.stop_at,
        20,
        RTT,
        cfg.bottleneck_bps,
    );
    let f200 = f_k(
        sc.sim.stats(),
        &flows,
        cfg.stop_at,
        200,
        RTT,
        cfg.bottleneck_bps,
    );
    (f20, f200)
}

impl Fig13 {
    /// Render both metrics.
    pub fn print(&self) {
        println!("\n== Figure 13: f(20) / f(200) after the bandwidth doubles ==");
        let mut t = Table::new(["family", "b", "f(20)", "f(200)"]);
        for p in &self.points {
            t.row([
                p.family.clone(),
                format!("{:.0}", p.gamma),
                num(p.f20),
                num(p.f200),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 13's shape: standard TCP takes the new bandwidth quickly
    /// (f(20) near the paper's ~0.86), very slow variants crawl, and
    /// f(200) >= f(20).
    ///
    /// At quick scale the flows only get 30 s before the doubling, so a
    /// single TCP(1/256) run's f(k) is dominated by whatever (still
    /// skewed) allocation its survivors happened to hold at the stop —
    /// seed 42 alone puts them at 73% of the link. Average a few seeds,
    /// as the full-scale sweep does, so the comparison measures ramp
    /// speed rather than one RNG stream's pre-stop skew.
    #[test]
    fn slow_variants_are_sluggish_after_doubling() {
        let cfg = Fig13Config::for_scale(Scale::Quick);
        let mean = |gamma: f64| {
            let seeds = [42u64, 43, 44];
            let (mut f20, mut f200) = (0.0, 0.0);
            for &seed in &seeds {
                let (a, b) = run_point_seeded("TCP", gamma, &cfg, seed);
                f20 += a / seeds.len() as f64;
                f200 += b / seeds.len() as f64;
            }
            (f20, f200)
        };
        let (tcp_f20, tcp_f200) = mean(2.0);
        let (slow_f20, slow_f200) = mean(256.0);
        assert!(
            tcp_f20 > 0.6,
            "standard TCP should take most of the new bandwidth within 20 RTTs \
             (paper, full scale: ~86%; quick scale with RFC 6582 partial-ACK \
             deflation: ~70%), got {tcp_f20:.3}"
        );
        assert!(
            slow_f20 < tcp_f20,
            "TCP(1/256) f(20)={slow_f20:.3} should trail TCP(1/2) f(20)={tcp_f20:.3}"
        );
        assert!(
            slow_f200 < tcp_f200 - 0.05,
            "TCP(1/256) f(200)={slow_f200:.3} should clearly trail TCP(1/2) \
             f(200)={tcp_f200:.3}: 200 RTTs is plenty for standard TCP to \
             finish the grab but not for a 1/256 decrease-and-probe"
        );
        assert!(tcp_f200 >= tcp_f20 - 0.1);
        // Very slow variants can show f(200) slightly below f(20): the
        // first second after the stop rides the residual queue.
        assert!(slow_f200 >= slow_f20 - 0.2);
        // Before the doubling the flows all share: baseline sanity is
        // implied by f20 > 0.5 for standard TCP (they keep their half).
        assert!(
            slow_f20 > 0.4,
            "survivors keep their old half: {slow_f20:.3}"
        );
    }
}
