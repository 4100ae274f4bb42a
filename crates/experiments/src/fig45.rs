//! Figures 4 and 5: stabilization time and stabilization cost as a
//! function of the slowness parameter γ, for TCP(1/γ), RAP(1/γ),
//! SQRT(1/γ), TFRC(γ), and TFRC(γ) with self-clocking.

use serde::{Deserialize, Serialize};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::onset::{onset_stabilization, run_onset, OnsetConfig};
use crate::report::{num, Table};
use crate::scale::{gamma_sweep, Scale};

/// The algorithm families swept by Figures 4/5.
pub const FAMILIES: [&str; 5] = ["TCP", "RAP", "SQRT", "TFRC", "TFRC+sc"];

/// Build the flavor for a family at parameter γ.
pub fn family_flavor(family: &str, gamma: f64) -> Flavor {
    match family {
        "TCP" => Flavor::Tcp { gamma },
        "RAP" => Flavor::Rap { gamma },
        "SQRT" => Flavor::Sqrt { gamma },
        "TFRC" => Flavor::Tfrc {
            k: gamma as usize,
            self_clocking: false,
        },
        "TFRC+sc" => Flavor::Tfrc {
            k: gamma as usize,
            self_clocking: true,
        },
        other => panic!("unknown family {other}"),
    }
}

/// One (family, γ) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilizationPoint {
    /// Family name.
    pub family: String,
    /// Slowness parameter.
    pub gamma: f64,
    /// Stabilization time in RTTs (Figure 4's y-axis).
    pub time_rtts: f64,
    /// Stabilization cost (Figure 5's y-axis, log scale in the paper).
    pub cost: f64,
    /// Steady-state loss fraction for this congestion level.
    pub steady_loss: f64,
    /// Whether the loss rate stabilized before the horizon.
    pub stabilized: bool,
}

/// Result of the Figures 4/5 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig45 {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Scenario sizing.
    pub config: OnsetConfig,
    /// All measured points.
    pub points: Vec<StabilizationPoint>,
}

/// The `(family, γ)` cell list for `scale`, in sweep order.
pub fn cells(scale: Scale) -> Vec<(&'static str, f64)> {
    let mut cells = Vec::new();
    for family in FAMILIES {
        for &gamma in &gamma_sweep(scale) {
            cells.push((family, gamma));
        }
    }
    cells
}

/// Measure one `(family, γ)` cell.
pub fn run_cell(config: &OnsetConfig, family: &str, gamma: f64) -> StabilizationPoint {
    // TFRC(1) is legal; RAP(1/1)/TCP(1/1) degenerate to full
    // decrease, also legal.
    let flavor = family_flavor(family, gamma);
    let sc = run_onset(flavor, config, 42);
    let st = onset_stabilization(&sc, config);
    StabilizationPoint {
        family: family.to_string(),
        gamma,
        time_rtts: st.time_rtts,
        cost: st.cost,
        steady_loss: st.steady_loss,
        stabilized: st.stabilized,
    }
}

/// Registry entry for Figures 4/5: one cell per `(family, γ)`.
pub struct Fig45Experiment;

impl Experiment for Fig45Experiment {
    type Cell = (&'static str, f64);
    type CellOut = StabilizationPoint;
    type Output = Fig45;

    fn name(&self) -> &'static str {
        "fig45"
    }

    fn description(&self) -> &'static str {
        "Figures 4/5 - stabilization time and cost vs gamma"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig4", "fig5"]
    }

    fn artifact(&self) -> &'static str {
        "fig4_fig5"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(&'static str, f64)>> {
        cells(scale)
            .into_iter()
            .map(|(family, gamma)| CellSpec::new(format!("{family}/g{gamma}"), 42, (family, gamma)))
            .collect()
    }

    fn run_cell(&self, scale: Scale, (family, gamma): (&'static str, f64)) -> StabilizationPoint {
        run_cell(&OnsetConfig::for_scale(scale), family, gamma)
    }

    fn assemble(&self, scale: Scale, points: Vec<StabilizationPoint>) -> Fig45 {
        Fig45 {
            scale,
            config: OnsetConfig::for_scale(scale),
            points,
        }
    }

    fn render(&self, output: &Fig45) {
        output.print();
    }
}

impl Fig45 {
    /// Rows of one family, ascending γ.
    pub fn family(&self, family: &str) -> Vec<&StabilizationPoint> {
        self.points.iter().filter(|p| p.family == family).collect()
    }

    /// Render both figures' tables.
    pub fn print(&self) {
        println!("\n== Figure 4: stabilization time (RTTs) vs gamma ==");
        self.print_metric(|p| p.time_rtts);
        println!("\n== Figure 5: stabilization cost vs gamma ==");
        self.print_metric(|p| p.cost);
    }

    fn print_metric(&self, get: impl Fn(&StabilizationPoint) -> f64) {
        let gammas: Vec<f64> = {
            let mut g: Vec<f64> = self.points.iter().map(|p| p.gamma).collect();
            g.sort_by(|a, b| a.partial_cmp(b).unwrap());
            g.dedup();
            g
        };
        let mut header = vec!["family".to_string()];
        header.extend(gammas.iter().map(|g| format!("γ={g:.0}")));
        let mut t = Table::new(header);
        for family in FAMILIES {
            let mut row = vec![family.to_string()];
            for g in &gammas {
                let cell = self
                    .points
                    .iter()
                    .find(|p| p.family == family && p.gamma == *g)
                    .map(|p| {
                        let mut s = num(get(p));
                        if !p.stabilized {
                            s.push('*');
                        }
                        s
                    })
                    .unwrap_or_else(|| "-".into());
                row.push(cell);
            }
            t.row(row);
        }
        println!("{}", t.render());
        println!("(* = did not stabilize before the horizon)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onset::{onset_stabilization, run_onset};

    /// The core Figure 4/5 finding at one γ: rate-based algorithms
    /// without self-clocking (TFRC) stabilize far more slowly than
    /// self-clocked window algorithms (TCP), and the conservative option
    /// repairs TFRC.
    #[test]
    fn self_clocking_separates_the_families() {
        let cfg = OnsetConfig::for_scale(Scale::Quick);
        let gamma = 64.0;
        let cost = |flavor| {
            let sc = run_onset(flavor, &cfg, 42);
            onset_stabilization(&sc, &cfg).cost
        };
        let tcp = cost(family_flavor("TCP", gamma));
        let tfrc = cost(family_flavor("TFRC", gamma));
        let tfrc_sc = cost(family_flavor("TFRC+sc", gamma));
        assert!(
            tfrc > 2.0 * tcp,
            "slow TFRC should cost much more than TCP: {tfrc} vs {tcp}"
        );
        assert!(
            tfrc_sc < tfrc / 2.0,
            "self-clocking should cut TFRC's cost: {tfrc_sc} vs {tfrc}"
        );
    }
}
