//! Chaos sweep: randomized fault plans over every algorithm flavor.
//!
//! The paper studies SlowCC under one adversary — the loss process on
//! the bottleneck. This target turns the `netsim::faults` layer loose
//! on all five flavors at once (TCP, TFRC, RAP, SQRT, IIAD): each cell
//! draws a seeded random [`FaultPlan`] (reordering + duplication +
//! jitter + a flap window on the forward bottleneck, lighter faults on
//! the ACK path) and runs one flow through the paper dumbbell, audited
//! like every simulation.
//!
//! The assertion is graceful degradation, not throughput: every cell
//! must either keep moving data or stall quietly — no panic, no audit
//! violation, no leaked timer. A flavor that crashes under
//! reordering/duplication panics its cell, and one that corrupts the
//! packet ledger returns an unclean audit report; `repro` records
//! either as a failed cell like any other. Throughput and
//! fault counters are reported per cell so regressions in *how*
//! gracefully a flavor degrades stay visible.
//!
//! Every draw comes from the cell's own seed, so the sweep is
//! bit-identical across runs, `--jobs` settings, and scheduler
//! backends.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use slowcc_netsim::faults::FaultPlan;
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{Dumbbell, DumbbellConfig, DumbbellOptions};

use crate::experiment::{CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::scale::Scale;

/// Outcome of one `(flavor, seed)` chaos cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Flavor label in the paper's notation.
    pub flavor: String,
    /// The cell seed (simulation and fault plans both derive from it).
    pub seed: u64,
    /// Forward-bottleneck fault plan, human-readable.
    pub forward_plan: String,
    /// Reverse (ACK path) fault plan, human-readable.
    pub reverse_plan: String,
    /// Mean goodput over the horizon, Mb/s.
    pub throughput_mbps: f64,
    /// Data packets delivered to the receiver.
    pub rx_packets: u64,
    /// Packets blackholed by flap windows on the forward bottleneck.
    pub flap_drops: u64,
    /// Fault-layer duplicates minted on the forward bottleneck.
    pub duplicates: u64,
    /// Packets held for reordering on the forward bottleneck.
    pub held: u64,
    /// `"progressing"` if the flow still moved data in the last quarter
    /// of the horizon, else `"stalled"` (both are graceful).
    pub status: String,
}

/// The full chaos sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct Chaos {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Simulated horizon per cell, seconds.
    pub horizon_secs: f64,
    /// One entry per `(flavor, seed)` cell, in sweep order.
    pub cells: Vec<ChaosCell>,
}

/// Draw the forward-bottleneck plan for a cell: the full fault menu.
fn forward_plan(rng: &mut SmallRng, horizon: SimDuration) -> FaultPlan {
    let down_ns = rng.gen_range_u64(
        horizon.as_nanos() / 5,
        horizon.as_nanos() * 7 / 10,
    );
    let width_ns = rng.gen_range_u64(
        horizon.as_nanos() / 100,
        horizon.as_nanos() / 20,
    );
    FaultPlan::seeded(rng.gen::<u64>())
        .with_reorder(
            rng.gen_range_u64(6, 48),
            SimDuration::from_millis(rng.gen_range_u64(5, 35)),
            4 + rng.gen_range_u64(0, 7) as usize,
        )
        .with_duplication(0.001 + rng.gen::<f64>() * 0.009)
        .with_jitter(SimDuration::from_millis(rng.gen_range_u64(1, 6)))
        .with_flap(
            SimTime::from_nanos(down_ns),
            SimTime::from_nanos(down_ns + width_ns),
        )
}

/// Draw the reverse-path plan: lighter faults on the ACK stream
/// (duplicated and jittered acknowledgments, no outage).
fn reverse_plan(rng: &mut SmallRng) -> FaultPlan {
    FaultPlan::seeded(rng.gen::<u64>())
        .with_duplication(0.001 + rng.gen::<f64>() * 0.004)
        .with_jitter(SimDuration::from_millis(rng.gen_range_u64(1, 4)))
}

/// The exact `(forward, reverse)` fault plans a chaos cell with this
/// `seed` and `horizon` draws — public so the scenario DSL's twin can
/// embed the same plans declaratively and byte-match this sweep.
pub fn drawn_plans(seed: u64, horizon: SimDuration) -> (FaultPlan, FaultPlan) {
    let mut draw = SmallRng::seed_from_u64(seed ^ 0x510C_C0DE);
    let fwd = forward_plan(&mut draw, horizon);
    let rev = reverse_plan(&mut draw);
    (fwd, rev)
}

/// Run one cell: a single `flavor` flow through the faulted paper
/// dumbbell. An invariant violation fails the cell through its audit
/// report (see [`crate::runner::run_one_isolated`]); this reports what
/// happened.
fn run_cell(flavor: Flavor, seed: u64, horizon: SimDuration) -> ChaosCell {
    let (fwd, rev) = drawn_plans(seed, horizon);
    let fwd_summary = fwd.summary();
    let rev_summary = rev.summary();

    let mut sim = Simulator::new(seed);
    let db = Dumbbell::build_with(
        &mut sim,
        DumbbellConfig::paper(10e6),
        DumbbellOptions::new().forward_faults(fwd).reverse_faults(rev),
    );
    let pair = db.add_host_pair(&mut sim);
    let h = flavor.install(&mut sim, &pair, 1000, SimTime::ZERO, None);
    let end = SimTime::ZERO + horizon;
    sim.run_until(end);

    let flow = sim.stats().flow(h.flow).expect("installed flow has stats");
    let rx_packets = flow.total_rx_packets;
    let throughput_mbps = flow.total_rx_bytes as f64 * 8.0 / horizon.as_secs_f64() / 1e6;
    let tail_start = SimTime::from_nanos(horizon.as_nanos() * 3 / 4);
    let tail_bytes = sim.stats().flow_rx_bytes_in(h.flow, tail_start, end);
    let link = sim.stats().link(db.forward).expect("bottleneck has stats");

    ChaosCell {
        flavor: flavor.label(),
        seed,
        forward_plan: fwd_summary,
        reverse_plan: rev_summary,
        throughput_mbps,
        rx_packets,
        flap_drops: link.total_flap_drops,
        duplicates: link.total_duplicates,
        held: link.total_fault_held,
        status: if tail_bytes > 0 { "progressing" } else { "stalled" }.to_string(),
    }
}

/// The flavors under chaos: every algorithm family the paper sweeps.
fn flavors() -> Vec<Flavor> {
    vec![
        Flavor::standard_tcp(),
        Flavor::standard_tfrc(),
        Flavor::Rap { gamma: 2.0 },
        Flavor::Sqrt { gamma: 2.0 },
        Flavor::Iiad { gamma: 2.0 },
    ]
}

/// Simulated horizon per cell.
fn horizon(scale: Scale) -> SimDuration {
    scale.pick(SimDuration::from_secs(40), SimDuration::from_secs(15))
}

/// Registry entry for the chaos sweep: one cell per `(flavor, seed)`.
/// A crashed cell panics: `repro` records it in the manifest and fails
/// the run, and in-process [`crate::experiment::run_experiment`]
/// propagates the panic.
pub struct ChaosExperiment;

impl Experiment for ChaosExperiment {
    type Cell = (Flavor, u64);
    type CellOut = ChaosCell;
    type Output = Chaos;

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn description(&self) -> &'static str {
        "Chaos sweep - randomized faults under the invariant auditor"
    }

    fn artifact(&self) -> &'static str {
        "chaos"
    }

    fn cells(&self, scale: Scale) -> Vec<CellSpec<(Flavor, u64)>> {
        let seeds_per_flavor: u64 = scale.pick(6, 2);
        let mut cells = Vec::new();
        for flavor in flavors() {
            for s in 0..seeds_per_flavor {
                // Seeds disjoint across flavors so no two cells share RNG
                // streams even by accident.
                let seed = 1000 * (cells.len() as u64 / seeds_per_flavor + 1) + s;
                cells.push(CellSpec::new(
                    format!("{}/seed{seed}", flavor.label()),
                    seed,
                    (flavor, seed),
                ));
            }
        }
        cells
    }

    fn run_cell(&self, scale: Scale, (flavor, seed): (Flavor, u64)) -> ChaosCell {
        run_cell(flavor, seed, horizon(scale))
    }

    fn assemble(&self, scale: Scale, cells: Vec<ChaosCell>) -> Chaos {
        Chaos {
            scale,
            horizon_secs: horizon(scale).as_secs_f64(),
            cells,
        }
    }

    fn render(&self, output: &Chaos) {
        output.print();
    }
}

impl Chaos {
    /// Render the sweep as the usual fixed-width table.
    pub fn print(&self) {
        println!();
        println!(
            "== Chaos sweep: randomized faults over every flavor ({:.0} s horizon) ==",
            self.horizon_secs
        );
        println!(
            "{:<12} {:>6} {:>10} {:>9} {:>6} {:>6} {:>6}  {:<12} forward plan",
            "flavor", "seed", "tput Mb/s", "rx pkts", "flap", "dup", "held", "status"
        );
        for c in &self.cells {
            println!(
                "{:<12} {:>6} {:>10.3} {:>9} {:>6} {:>6} {:>6}  {:<12} {}",
                c.flavor,
                c.seed,
                c.throughput_mbps,
                c.rx_packets,
                c.flap_drops,
                c.duplicates,
                c.held,
                c.status,
                c.forward_plan,
            );
        }
        let stalled = self.cells.iter().filter(|c| c.status == "stalled").count();
        // "strict" is kept so the rendered bytes stay put; it now means
        // that an audit violation fails the cell, so a rendered sweep
        // had none.
        println!(
            "{} cells, all graceful ({} progressing, {} stalled); strict audit clean",
            self.cells.len(),
            self.cells.len() - stalled,
            stalled
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;
    use slowcc_netsim::audit::take_thread_report;

    #[test]
    fn quick_chaos_sweep_is_graceful_and_deterministic() {
        let _ = take_thread_report();
        let a = run_experiment(&ChaosExperiment, Scale::Quick);
        take_thread_report().expect("chaos cells simulate").assert_clean();
        assert_eq!(a.cells.len(), 10, "5 flavors x 2 seeds");
        for c in &a.cells {
            assert!(
                c.flap_drops > 0 || c.duplicates > 0 || c.held > 0,
                "{} seed {}: no fault ever engaged ({})",
                c.flavor,
                c.seed,
                c.forward_plan
            );
        }
        // Bit-identical replay: the whole sweep derives from cell seeds.
        let b = run_experiment(&ChaosExperiment, Scale::Quick);
        let digest = |r: &Chaos| format!("{:?}", r.cells);
        assert_eq!(digest(&a), digest(&b));
    }
}
