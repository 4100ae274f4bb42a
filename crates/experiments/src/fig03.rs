//! Figure 3: the drop-rate time series when a CBR source restarts at
//! t = 180 s after a 30 s idle period, for several very slowly responsive
//! SlowCC algorithms.

use serde::{Deserialize, Serialize};

use slowcc_netsim::time::SimDuration;

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::onset::{run_onset, OnsetConfig};
use crate::report::{num, Table};
use crate::scale::Scale;

/// One algorithm's loss-rate series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlavorSeries {
    /// Algorithm label.
    pub label: String,
    /// Loss fraction per window.
    pub loss: Vec<f64>,
}

/// Result of the Figure 3 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3 {
    /// Scale the experiment ran at.
    pub scale: Scale,
    /// Scenario sizing.
    pub config: OnsetConfig,
    /// Loss-series window width in seconds.
    pub window_secs: f64,
    /// One series per algorithm.
    pub series: Vec<FlavorSeries>,
}

/// The very slow variants Figure 3 plots.
pub fn figure3_flavors(scale: Scale) -> Vec<Flavor> {
    let gamma = scale.pick(256.0, 64.0);
    let k = gamma as usize;
    vec![
        Flavor::Tcp { gamma },
        Flavor::Sqrt { gamma },
        Flavor::Rap { gamma },
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

/// Loss-series window width: 10 RTTs.
fn window() -> SimDuration {
    SimDuration::from_millis(500)
}

/// Registry entry for Figure 3: one cell per very-slow algorithm.
pub struct Fig3Experiment;

impl Experiment for Fig3Experiment {
    type Cell = Flavor;
    type CellOut = FlavorSeries;
    type Output = Fig3;

    fn name(&self) -> &'static str {
        "fig3"
    }

    fn description(&self) -> &'static str {
        "Figure 3 - drop-rate transient after a CBR restart"
    }

    fn artifact(&self) -> &'static str {
        "fig3"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<Flavor>> {
        figure3_flavors(scale)
            .into_iter()
            .map(|flavor| CellSpec::new(flavor.label(), 42, flavor))
            .collect()
    }

    fn run_cell(&self, scale: Scale, flavor: Flavor) -> FlavorSeries {
        let config = OnsetConfig::for_scale(scale);
        let sc = run_onset(flavor, &config, 42);
        let loss = sc
            .sim
            .stats()
            .link_loss_series(sc.db.forward, window(), config.timeline.end);
        FlavorSeries {
            label: flavor.label(),
            loss,
        }
    }

    fn assemble(&self, scale: Scale, series: Vec<FlavorSeries>) -> Fig3 {
        Fig3 {
            scale,
            config: OnsetConfig::for_scale(scale),
            window_secs: window().as_secs_f64(),
            series,
        }
    }

    fn render(&self, output: &Fig3) {
        output.print();
    }

    fn save(&self, output: &Fig3, dir: &std::path::Path) {
        if let Err(e) = crate::report::write_json(dir, self.artifact(), output) {
            eprintln!("warning: failed to write {}.json: {e}", self.artifact());
        }
        if let Err(e) = output.write_csv(dir) {
            eprintln!("warning: failed to write fig3 CSV: {e}");
        }
    }
}

impl Fig3 {
    /// Render the series around the onset as a table (one row per
    /// window, one column per algorithm), plus peak/steady summaries.
    pub fn print(&self) {
        println!("\n== Figure 3: drop rate after the CBR source restarts ==");
        println!(
            "bottleneck {:.0} Mb/s, {} flows, CBR off {} .. on {}\n",
            self.config.bottleneck_bps / 1e6,
            self.config.n_flows,
            self.config.timeline.steady_end,
            self.config.timeline.onset,
        );
        let mut header = vec!["t (s)".to_string()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let mut t = Table::new(header);
        let onset_w = (self.config.timeline.onset.as_secs_f64() / self.window_secs) as usize;
        let end_w = (self.config.timeline.end.as_secs_f64() / self.window_secs) as usize;
        let from_w = onset_w.saturating_sub(4);
        for w in from_w..end_w {
            let mut row = vec![format!("{:.1}", w as f64 * self.window_secs)];
            for s in &self.series {
                row.push(num(s.loss.get(w).copied().unwrap_or(0.0)));
            }
            t.row(row);
        }
        println!("{}", t.render());
        let mut summary = Table::new(["algorithm", "steady loss", "peak after onset"]);
        for s in &self.series {
            let steady_from =
                (self.config.timeline.steady_from.as_secs_f64() / self.window_secs) as usize;
            let steady_to =
                (self.config.timeline.steady_end.as_secs_f64() / self.window_secs) as usize;
            let steady = mean(&s.loss[steady_from..steady_to.min(s.loss.len())]);
            let peak = s.loss[onset_w.min(s.loss.len().saturating_sub(1))..]
                .iter()
                .copied()
                .fold(0.0f64, f64::max);
            summary.row([s.label.clone(), num(steady), num(peak)]);
        }
        println!("{}", summary.render());
    }
}

impl Fig3 {
    /// Write the loss-rate series as CSV (`fig3_series.csv`): one row
    /// per window, one column per algorithm.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let mut header: Vec<String> = vec!["t_secs".into()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let n = self.series.iter().map(|s| s.loss.len()).max().unwrap_or(0);
        let rows = (0..n).map(|w| {
            let mut row = vec![format!("{:.3}", w as f64 * self.window_secs)];
            for s in &self.series {
                row.push(format!("{:.6}", s.loss.get(w).copied().unwrap_or(0.0)));
            }
            row
        });
        crate::report::write_csv(dir, "fig3_series", &header_refs, rows)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    /// The headline claim of Figure 3/4: without self-clocking, very
    /// slow TFRC keeps the loss rate elevated far longer than TCP(1/γ)
    /// after the onset; self-clocking fixes it. Measured over the
    /// transient itself — the first few seconds after the CBR source
    /// returns — because further out every algorithm has converged back
    /// to the shared steady-state loss rate and the long tail would
    /// swamp the difference the figure is about.
    #[test]
    fn slow_tfrc_without_self_clocking_has_the_longest_transient() {
        let fig = run_experiment(&Fig3Experiment, Scale::Quick);
        let onset_w = (fig.config.timeline.onset.as_secs_f64() / fig.window_secs) as usize;
        let transient_w = (6.0 / fig.window_secs) as usize;
        // Loss mass in the transient window per algorithm.
        let mass: std::collections::HashMap<&str, f64> = fig
            .series
            .iter()
            .map(|s| {
                let lo = onset_w.min(s.loss.len());
                let hi = (onset_w + transient_w).min(s.loss.len());
                (s.label.as_str(), s.loss[lo..hi].iter().sum::<f64>())
            })
            .collect();
        let tfrc = mass
            .iter()
            .find(|(k, _)| k.starts_with("TFRC") && !k.ends_with("+sc"));
        let tfrc_sc = mass.iter().find(|(k, _)| k.ends_with("+sc"));
        let tcp = mass.iter().find(|(k, _)| k.starts_with("TCP"));
        let (tfrc, tfrc_sc, tcp) = (*tfrc.unwrap().1, *tfrc_sc.unwrap().1, *tcp.unwrap().1);
        assert!(
            tfrc > tcp,
            "TFRC(k) should suffer a worse transient than TCP(1/γ): {tfrc} vs {tcp}"
        );
        assert!(
            tfrc_sc < tfrc,
            "self-clocking should shorten TFRC's transient: {tfrc_sc} vs {tfrc}"
        );
    }
}
