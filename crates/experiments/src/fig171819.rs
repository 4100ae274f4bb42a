//! Figures 17, 18 and 19: smoothness of the delivered rate under the
//! paper's hand-crafted bursty loss patterns.
//!
//! * Figure 17 — TFRC vs TCP(1/8), mildly bursty pattern (designed to
//!   fit TFRC's loss-interval averaging: TFRC is smoother *and* gets
//!   slightly more throughput).
//! * Figure 18 — TFRC vs TCP(1/8), the adversarial pattern (six seconds
//!   of light loss, one second of heavy loss: TFRC's memory of the heavy
//!   phase never clears, so it does worse in both smoothness and
//!   throughput).
//! * Figure 19 — IIAD vs SQRT, mild pattern (IIAD trades throughput for
//!   smoothness relative to SQRT).

use serde::{Deserialize, Serialize};

use slowcc_metrics::smooth::{coefficient_of_variation, smoothness_metric};
use slowcc_netsim::link::LossPattern;
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{Dumbbell, DumbbellConfig, DumbbellOptions, QueueKind};
use slowcc_traffic::losspat::{CountPhases, TimePhases};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario::PKT_SIZE;

/// Which scripted loss pattern to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Pattern {
    /// Figure 17/19: three losses every 50 packets, then three every 400.
    Mild,
    /// Figure 18: 6 s of 1-in-200 loss, 1 s of 1-in-4 loss.
    Harsh,
}

impl Pattern {
    fn build(self) -> Box<dyn LossPattern> {
        match self {
            Pattern::Mild => Box::new(CountPhases::mild_bursty()),
            Pattern::Harsh => Box::new(TimePhases::harsh_bursty()),
        }
    }
}

/// One algorithm's smoothness measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmoothnessSeries {
    /// Algorithm label.
    pub label: String,
    /// Delivered rate per 0.2 s window (bit/s) — the paper's solid line.
    pub rate_200ms: Vec<f64>,
    /// Delivered rate per 1 s window (bit/s) — the paper's dashed line.
    pub rate_1s: Vec<f64>,
    /// Worst consecutive-window rate ratio over the 0.2 s series; `None`
    /// when a mid-run stall makes it infinite. An `f64` here would not
    /// survive the cell cache: the JSON shim writes every non-finite
    /// float as `null` and reads `null` back as NaN, so a cached `inf`
    /// replayed as `nan`. `None` writes the same `null` (artifact bytes
    /// are what they always were) and reads back as `None`.
    pub smoothness: Option<f64>,
    /// Coefficient of variation of the 0.2 s series.
    pub cov: f64,
    /// Mean throughput over the measured span (bit/s).
    pub throughput_bps: f64,
}

/// Result of one smoothness experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Smoothness {
    /// Scale the experiment ran at.
    pub scale: Scale,
    /// Pattern used.
    pub pattern: Pattern,
    /// Warmup excluded from the metrics (seconds).
    pub warmup_secs: f64,
    /// Run length (seconds).
    pub duration_secs: f64,
    /// One entry per algorithm.
    pub series: Vec<SmoothnessSeries>,
}

/// Figure 17: TFRC vs TCP(1/8), mild pattern.
pub const FIG17: SmoothnessExperiment = SmoothnessExperiment {
    name: "fig17",
    description: "Figure 17 - smoothness under mild bursty loss",
    title: "Figure 17",
    pattern: Pattern::Mild,
    flavors: || vec![Flavor::standard_tfrc(), Flavor::Tcp { gamma: 8.0 }],
};

/// Figure 18: TFRC vs TCP(1/8) and TCP(1/2), harsh pattern.
pub const FIG18: SmoothnessExperiment = SmoothnessExperiment {
    name: "fig18",
    description: "Figure 18 - smoothness under harsh bursty loss",
    title: "Figure 18",
    pattern: Pattern::Harsh,
    flavors: || {
        vec![
            Flavor::standard_tfrc(),
            Flavor::Tcp { gamma: 8.0 },
            Flavor::standard_tcp(),
        ]
    },
};

/// Figure 19: IIAD vs SQRT, mild pattern.
pub const FIG19: SmoothnessExperiment = SmoothnessExperiment {
    name: "fig19",
    description: "Figure 19 - smoothness of IIAD(2) and SQRT(2)",
    title: "Figure 19",
    pattern: Pattern::Mild,
    flavors: || vec![Flavor::Iiad { gamma: 2.0 }, Flavor::Sqrt { gamma: 2.0 }],
};

/// Registry entry shape shared by Figures 17/18/19: one cell per
/// flavor under the figure's loss pattern. Saving writes the JSON
/// artifact plus the 0.2 s rate-series CSV.
pub struct SmoothnessExperiment {
    /// Canonical target name (also the artifact stem).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Figure title passed to [`Smoothness::print`].
    pub title: &'static str,
    /// The scripted loss pattern.
    pub pattern: Pattern,
    /// Flavors measured, in figure order.
    pub flavors: fn() -> Vec<Flavor>,
}

impl Experiment for SmoothnessExperiment {
    type Cell = Flavor;
    type CellOut = SmoothnessSeries;
    type Output = Smoothness;

    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn artifact(&self) -> &'static str {
        self.name
    }

    fn cells(&self, _scale: Scale) -> Vec<CellSpec<Flavor>> {
        (self.flavors)()
            .into_iter()
            .map(|flavor| CellSpec::new(flavor.label(), 42, flavor))
            .collect()
    }

    fn run_cell(&self, scale: Scale, flavor: Flavor) -> SmoothnessSeries {
        let duration = scale.pick(SimTime::from_secs(80), SimTime::from_secs(30));
        let warmup = scale.pick(SimTime::from_secs(10), SimTime::from_secs(5));
        run_one(flavor, self.pattern, warmup, duration)
    }

    fn assemble(&self, scale: Scale, series: Vec<SmoothnessSeries>) -> Smoothness {
        let duration = scale.pick(SimTime::from_secs(80), SimTime::from_secs(30));
        let warmup = scale.pick(SimTime::from_secs(10), SimTime::from_secs(5));
        Smoothness {
            scale,
            pattern: self.pattern,
            warmup_secs: warmup.as_secs_f64(),
            duration_secs: duration.as_secs_f64(),
            series,
        }
    }

    fn render(&self, output: &Smoothness) {
        output.print(self.title);
    }

    fn save(&self, output: &Smoothness, dir: &std::path::Path) {
        if let Err(e) = crate::report::write_json(dir, self.name, output) {
            eprintln!("warning: failed to write {}.json: {e}", self.name);
        }
        if let Err(e) = output.write_csv(dir, self.name) {
            eprintln!("warning: failed to write {} CSV: {e}", self.name);
        }
    }
}

/// [`smoothness_metric`], with the infinite ratio of a stall as `None`.
fn worst_ratio(rates: &[f64]) -> Option<f64> {
    Some(smoothness_metric(rates)).filter(|r| r.is_finite())
}

fn run_one(
    flavor: Flavor,
    pattern: Pattern,
    warmup: SimTime,
    duration: SimTime,
) -> SmoothnessSeries {
    // A single flow on a fat, large-buffer path: all loss comes from the
    // script, none from queueing, exactly as in the paper's setup.
    let mut sim = Simulator::new(42);
    let cfg = DumbbellConfig {
        queue: QueueKind::DropTail(4000),
        ..DumbbellConfig::paper(100e6)
    };
    let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(pattern.build()));
    let pair = db.add_host_pair(&mut sim);
    let h = flavor.install(&mut sim, &pair, PKT_SIZE, SimTime::ZERO, None);
    sim.run_until(duration);

    let stats = sim.stats();
    let slice = |series: Vec<f64>, window: f64| -> Vec<f64> {
        let skip = (warmup.as_secs_f64() / window) as usize;
        series.into_iter().skip(skip).collect()
    };
    let rate_200ms = slice(
        stats.flow_rate_series_bps(h.flow, SimDuration::from_millis(200), duration),
        0.2,
    );
    let rate_1s = slice(
        stats.flow_rate_series_bps(h.flow, SimDuration::from_secs(1), duration),
        1.0,
    );
    SmoothnessSeries {
        label: flavor.label(),
        smoothness: worst_ratio(&rate_200ms),
        cov: coefficient_of_variation(&rate_200ms),
        throughput_bps: stats.flow_throughput_bps(h.flow, warmup, duration),
        rate_200ms,
        rate_1s,
    }
}

impl SmoothnessSeries {
    /// This algorithm's row of the printed summary table.
    fn summary_row(&self) -> [String; 4] {
        [
            self.label.clone(),
            num(self.throughput_bps / 1e6),
            num(self.smoothness.unwrap_or(f64::INFINITY)),
            num(self.cov),
        ]
    }
}

impl Smoothness {
    /// Write the 0.2 s rate series as CSV (`<name>_series.csv`): one row
    /// per window, one column per algorithm — the paper's solid lines.
    pub fn write_csv(&self, dir: &std::path::Path, name: &str) -> std::io::Result<()> {
        let mut header: Vec<String> = vec!["t_secs".into()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let n = self
            .series
            .iter()
            .map(|s| s.rate_200ms.len())
            .max()
            .unwrap_or(0);
        let rows = (0..n).map(|w| {
            let mut row = vec![format!("{:.1}", self.warmup_secs + w as f64 * 0.2)];
            for s in &self.series {
                row.push(format!(
                    "{:.0}",
                    s.rate_200ms.get(w).copied().unwrap_or(0.0)
                ));
            }
            row
        });
        crate::report::write_csv(dir, &format!("{name}_series"), &header_refs, rows)
    }

    /// Render the summary.
    pub fn print(&self, figure: &str) {
        println!(
            "\n== {figure}: smoothness under the {:?} loss pattern ==",
            self.pattern
        );
        let mut t = Table::new([
            "algorithm",
            "throughput (Mb/s)",
            "worst ratio (0.2s)",
            "CoV (0.2s)",
        ]);
        for s in &self.series {
            t.row(s.summary_row());
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    /// Figure 17: under the mild pattern TFRC is smoother than TCP(1/8)
    /// and loses no throughput.
    #[test]
    fn mild_pattern_favors_tfrc() {
        let fig = run_experiment(&FIG17, Scale::Quick);
        let tfrc = &fig.series[0];
        let tcp8 = &fig.series[1];
        assert!(
            tfrc.cov < tcp8.cov,
            "TFRC CoV {:.3} should be below TCP(1/8)'s {:.3}",
            tfrc.cov,
            tcp8.cov
        );
        assert!(
            tfrc.throughput_bps > 0.6 * tcp8.throughput_bps,
            "TFRC throughput {:.2e} should be competitive with {:.2e}",
            tfrc.throughput_bps,
            tcp8.throughput_bps
        );
    }

    /// Figure 18: the adversarial pattern flips the outcome — TFRC's
    /// throughput falls well behind TCP(1/8)'s.
    #[test]
    fn harsh_pattern_punishes_tfrc() {
        let fig = run_experiment(&FIG18, Scale::Quick);
        let tfrc = &fig.series[0];
        let tcp8 = &fig.series[1];
        assert!(
            tfrc.throughput_bps < tcp8.throughput_bps,
            "TFRC {:.2e} should fall behind TCP(1/8) {:.2e} on the harsh pattern",
            tfrc.throughput_bps,
            tcp8.throughput_bps
        );
    }

    /// A stalled flow's infinite worst ratio must replay from the cell
    /// cache exactly as the cold run printed it. (With an `f64` field
    /// the cache's `null` read back as NaN and `--resume` printed `nan`.)
    #[test]
    fn an_infinite_worst_ratio_survives_the_cell_cache() {
        let rates = vec![4e6, 0.0, 4e6];
        assert!(smoothness_metric(&rates).is_infinite());
        let cold = SmoothnessSeries {
            label: "TCP(1/8)".into(),
            smoothness: worst_ratio(&rates),
            cov: coefficient_of_variation(&rates),
            throughput_bps: 1.6e6,
            rate_1s: vec![2.67e6],
            rate_200ms: rates,
        };
        let cached = serde_json::to_string(&cold).expect("cell outputs serialize");
        assert!(cached.contains("\"smoothness\":null"), "{cached}");
        let replayed: SmoothnessSeries = serde_json::from_str(&cached).expect("cache decodes");
        assert_eq!(replayed.smoothness, None);
        assert_eq!(replayed.summary_row(), cold.summary_row());
        assert_eq!(cold.summary_row()[2], "inf");
    }

    /// Figure 19: IIAD achieves smoothness at the cost of throughput
    /// relative to SQRT.
    #[test]
    fn iiad_trades_throughput_for_smoothness() {
        let fig = run_experiment(&FIG19, Scale::Quick);
        let iiad = &fig.series[0];
        let sqrt = &fig.series[1];
        assert!(
            iiad.cov <= sqrt.cov * 1.1,
            "IIAD CoV {:.3} should not exceed SQRT's {:.3}",
            iiad.cov,
            sqrt.cov
        );
        assert!(
            iiad.throughput_bps < sqrt.throughput_bps * 1.1,
            "IIAD {:.2e} should not out-throughput SQRT {:.2e}",
            iiad.throughput_bps,
            sqrt.throughput_bps
        );
    }
}
