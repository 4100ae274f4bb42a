//! Queue dynamics under SlowCC — the Section 2 related-work axis the
//! paper points at ("the effect of SlowCC proposals on queue dynamics,
//! including the effect on oscillations in the queue size, both with and
//! without active queue management"), reproduced as an extension
//! experiment.
//!
//! Ten identical flows hold the standard bottleneck in steady state; we
//! record the buffer occupancy seen by arriving packets and compare its
//! mean and variability across algorithms and queue disciplines. The
//! expectation from the literature: smoother senders produce a smoother
//! (less oscillatory) queue, most visibly under DropTail.

use serde::{Deserialize, Serialize};

use slowcc_metrics::smooth::coefficient_of_variation;
use slowcc_netsim::time::{SimDuration, SimTime};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::scenario;

/// One (algorithm, queue discipline) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueDynPoint {
    /// Algorithm label.
    pub label: String,
    /// Number of flows sharing the bottleneck.
    pub n_flows: usize,
    /// "RED" or "DropTail".
    pub discipline: String,
    /// Mean buffer occupancy seen by arrivals (packets).
    pub mean_queue: f64,
    /// Coefficient of variation of the occupancy series (oscillation).
    pub queue_cov: f64,
    /// Drop rate over the measured span.
    pub drop_rate: f64,
}

/// Result of the queue-dynamics experiment.
#[derive(Debug, Clone, Serialize)]
pub struct QueueDynamics {
    /// One row per combination.
    pub points: Vec<QueueDynPoint>,
}

/// Algorithms compared.
pub fn queuedyn_flavors() -> Vec<Flavor> {
    vec![
        Flavor::standard_tcp(),
        Flavor::Tcp { gamma: 8.0 },
        Flavor::standard_tfrc(),
    ]
}

/// Registry entry for the queue-dynamics comparison: one cell per
/// `(algorithm, discipline, flow count)`.
pub struct QueueDynExperiment;

impl Experiment for QueueDynExperiment {
    type Cell = (Flavor, bool, usize);
    type CellOut = QueueDynPoint;
    type Output = QueueDynamics;

    fn name(&self) -> &'static str {
        "queue-dynamics"
    }

    fn description(&self) -> &'static str {
        "Section 2 extension - queue occupancy and oscillation"
    }

    fn artifact(&self) -> &'static str {
        "queue_dynamics"
    }

    fn cells(&self, _scale: Scale) -> Vec<CellSpec<(Flavor, bool, usize)>> {
        let mut cells = Vec::new();
        for flavor in queuedyn_flavors() {
            for red in [true, false] {
                // Both the single-flow case (where the sender's own shape
                // drives the queue) and the aggregate case (where
                // desynchronization smooths TCP's sawteeth but can leave
                // TFRC's slower coherent swings visible).
                for n in [1usize, 10] {
                    let q = if red { "red" } else { "droptail" };
                    cells.push(CellSpec::new(
                        format!("{}/{q}/n{n}", flavor.label()),
                        42,
                        (flavor, red, n),
                    ));
                }
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (flavor, red, n): (Flavor, bool, usize)) -> QueueDynPoint {
        let duration = scale.pick(SimTime::from_secs(120), SimTime::from_secs(40));
        let warmup = scale.pick(SimTime::from_secs(30), SimTime::from_secs(10));
        run_one(flavor, red, n, warmup, duration)
    }

    fn assemble(&self, _scale: Scale, points: Vec<QueueDynPoint>) -> QueueDynamics {
        QueueDynamics { points }
    }

    fn render(&self, output: &QueueDynamics) {
        output.print();
    }
}

fn run_one(
    flavor: Flavor,
    red: bool,
    n_flows: usize,
    warmup: SimTime,
    duration: SimTime,
) -> QueueDynPoint {
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig, QueueKind};
    let mut sim = slowcc_netsim::sim::Simulator::new(42);
    let mut cfg = DumbbellConfig::paper(10e6);
    if !red {
        cfg.queue = QueueKind::DropTail((2.5 * cfg.bdp_packets()) as usize);
    }
    let db = Dumbbell::build(&mut sim, cfg);
    let flows: Vec<_> = (0..n_flows as u64)
        .map(|i| {
            let pair = db.add_host_pair(&mut sim);
            flavor.install(
                &mut sim,
                &pair,
                scenario::PKT_SIZE,
                SimTime::from_millis(63 * i),
                None,
            )
        })
        .collect();
    let _ = flows;
    sim.run_until(duration);

    let stats = sim.stats();
    let series: Vec<f64> = stats
        .link_queue_series(db.forward, SimDuration::from_millis(100), duration)
        .into_iter()
        .skip((warmup.as_secs_f64() / 0.1) as usize)
        .collect();
    let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
    QueueDynPoint {
        label: flavor.label(),
        n_flows,
        discipline: if red { "RED" } else { "DropTail" }.to_string(),
        mean_queue: mean,
        queue_cov: coefficient_of_variation(&series),
        drop_rate: stats.link_loss_fraction_in(db.forward, warmup, duration),
    }
}

impl QueueDynamics {
    /// Render the comparison.
    pub fn print(&self) {
        println!("\n== Queue dynamics under SlowCC (Section 2 extension) ==");
        let mut t = Table::new([
            "algorithm",
            "flows",
            "queue",
            "mean occupancy",
            "occupancy CoV",
            "drop rate",
        ]);
        for p in &self.points {
            t.row([
                p.label.clone(),
                p.n_flows.to_string(),
                p.discipline.clone(),
                num(p.mean_queue),
                num(p.queue_cov),
                num(p.drop_rate),
            ]);
        }
        println!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The robust form of the "smoother sender, smoother queue" claim:
    /// a single TCP(1/8) flow swings a DropTail queue far less than a
    /// halving TCP(1/2) (window reductions of 12.5% vs 50%).
    ///
    /// Note the table also shows the *opposite* for TFRC on DropTail: an
    /// equation-paced sender with no self-clocking overshoots on the
    /// slow feedback loop and oscillates the deep queue more than TCP —
    /// one more face of the paper's packet-conservation theme.
    #[test]
    fn gentler_window_decrease_smooths_the_droptail_queue() {
        let warmup = SimTime::from_secs(10);
        let duration = SimTime::from_secs(40);
        let tcp2 = run_one(Flavor::standard_tcp(), false, 1, warmup, duration);
        let tcp8 = run_one(Flavor::Tcp { gamma: 8.0 }, false, 1, warmup, duration);
        assert!(
            tcp8.queue_cov < tcp2.queue_cov,
            "TCP(1/8) queue CoV {:.3} should be below TCP(1/2)'s {:.3}",
            tcp8.queue_cov,
            tcp2.queue_cov
        );
        // Both queues actually carry load.
        assert!(tcp2.mean_queue > 5.0 && tcp8.mean_queue > 5.0);
    }

    /// RED keeps the average queue near its thresholds regardless of the
    /// sender; DropTail runs it much fuller.
    #[test]
    fn red_controls_the_average_queue() {
        let warmup = SimTime::from_secs(10);
        let duration = SimTime::from_secs(40);
        let red = run_one(Flavor::standard_tcp(), true, 10, warmup, duration);
        let dt = run_one(Flavor::standard_tcp(), false, 10, warmup, duration);
        assert!(
            red.mean_queue < dt.mean_queue,
            "RED mean queue {:.1} should sit below DropTail's {:.1}",
            red.mean_queue,
            dt.mean_queue
        );
    }
}
