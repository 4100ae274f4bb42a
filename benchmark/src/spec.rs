//! The benchmark's contract as data: the workloads and why each exists,
//! the end-to-end metrics with their bounds, the per-layer metrics, and
//! the `BENCHMARK.json` rendered from them (a test holds the committed
//! file to this rendering, so the file and the program cannot drift).

use serde::Value;

use crate::report::{obj, s};
use crate::simload::SimWorkload;

/// Seconds one run measures for; `run_seconds` of `BENCHMARK.json`.
/// As long as the driver's time limit for all its runs allows with a
/// fifth to spare: a cold sweep with its blocks of beats takes 3 s, and
/// a run must hold at least four.
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sim(SimWorkload),
    SweepCold,
    SweepResume,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::Sim(SimWorkload::BulkTcp),
        Workload::Sim(SimWorkload::BulkTcpTraced),
        Workload::Sim(SimWorkload::FlavorMix),
        Workload::Sim(SimWorkload::ForwardCbr),
        Workload::Sim(SimWorkload::WideLot),
        Workload::SweepCold,
        Workload::SweepResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim(SimWorkload::BulkTcp) => "bulk-tcp",
            Workload::Sim(SimWorkload::BulkTcpTraced) => "bulk-tcp-traced",
            Workload::Sim(SimWorkload::FlavorMix) => "flavor-mix",
            Workload::Sim(SimWorkload::ForwardCbr) => "forward-cbr",
            Workload::Sim(SimWorkload::WideLot) => "wide-lot",
            Workload::SweepCold => "sweep-cold",
            Workload::SweepResume => "sweep-resume",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The power of the host's slowness, as the beat reads it, by which
    /// this workload slows (see `pace`). A neighbour on the host takes
    /// more from code that keeps a core's units busy than from code that
    /// waits for memory, so when the beat takes 1.6 times as long,
    /// `bulk-tcp` takes 1.9 times and `wide-lot` 1.5 times as long.
    ///
    /// Each is the Theil-Sen slope of log iteration time against log beat
    /// over the 12 s window medians of a 7-8 minute recording in which
    /// the beat ranged over at least 1.3x: `bulk-tcp` 1.45 and 1.44 (two
    /// recordings), `forward-cbr` 1.36, `bulk-tcp-traced` 1.10,
    /// `wide-lot` 0.91, `flavor-mix` 0.89, `sweep-resume` 1.08. The host
    /// stayed calm while `sweep-cold` was recorded (beat range 1.2x, slope
    /// 0.6-0.8 and too shallow to trust), so it takes the value of the
    /// many-flavour simulations it is made of. Dividing by the plain ratio
    /// instead left 14-17 % of spread on the first two in the host's wild
    /// spells, these powers 5 %.
    pub fn sensitivity(self) -> f64 {
        match self {
            Workload::Sim(SimWorkload::BulkTcp | SimWorkload::ForwardCbr) => 1.4,
            Workload::Sim(SimWorkload::BulkTcpTraced) => 1.1,
            Workload::Sim(SimWorkload::FlavorMix | SimWorkload::WideLot) => 0.9,
            Workload::SweepCold => 0.9,
            Workload::SweepResume => 1.0,
        }
    }

    /// One line on why the workload exists (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sim(SimWorkload::BulkTcp) => {
                "16 TCP flows on the 100 Mb/s RED dumbbell: shallow scheduler, hot caches; the engine-bound reference every netsim sim/event/link change must move"
            }
            Workload::Sim(SimWorkload::BulkTcpTraced) => {
                "bulk-tcp with a JSONL StreamTrace attached: the same layers with the trace path live, so a fast path that taxes tracing shows here and not on bulk-tcp"
            }
            Workload::Sim(SimWorkload::FlavorMix) => {
                "4 each of TCP(1/2), TCP(1/8), SQRT, IIAD, RAP, TFRC(6), TFRC(256) self-clocked, TEAR under a 30 Mb/s square-wave CBR: every core flavour's callbacks and timers run"
            }
            Workload::Sim(SimWorkload::ForwardCbr) => {
                "16 open-loop CBR sources of 100-byte packets with overload pulses: null agents, so scheduler, link, RED drop path and stats are all the time; core changes predict no change"
            }
            Workload::Sim(SimWorkload::WideLot) => {
                "1024 TCP flows on a 3-hop 155 Mb/s parking lot: deep calendar queue, cold caches, per-flow state and set-up cost; the many-flow regime"
            }
            Workload::SweepCold => {
                "repro --quick --jobs 1 over 16 registered targets, a child process and fresh --out per target: what a user waits for; simulation plus manifest, cell cache and artefact writes"
            }
            Workload::SweepResume => {
                "20 back-to-back repro --resume replays of a primed sweep: the executor-only floor (manifest parse, cache decode, assemble, render), zero simulation"
            }
        }
    }
}

/// The registered targets the sweep workloads run, all at `--quick`:
/// the sixteen whose cells are short (about 2.5 s serial in total), so
/// one cold sweep takes about a second and a run holds several. They
/// span the analytic, validation, smoothness, flash-crowd, queue,
/// RTT-bias, multi-hop, chaos and conformance families; the long
/// oscillation and convergence sweeps (fig45, fig13, fig14-16, ...) are
/// left out because one of them alone outlasts a run.
pub const SWEEP_TARGETS: [&str; 16] = [
    "fig6",
    "fig11",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fk-model",
    "validate-static",
    "validate-ecn",
    "validate-highloss",
    "response",
    "queue-dynamics",
    "rtt-bias",
    "multihop",
    "chaos",
    "conformance",
];

/// `--jobs` of every timed `repro` child: one worker. The sandbox gives
/// the benchmark two cores of a shared host; with two workers on them
/// the cold sweep measured the host's scheduler (its wall and CPU time
/// spread by 18-30 % between runs of the same code, with one worker by
/// 8 %). How well the runner fills several workers is the traced pass's
/// `experiments.runner.parallel_eff`, from one child at `min(nproc, 2)`.
pub const SWEEP_JOBS: usize = 1;

/// `repro --resume` replays per `sweep-resume` iteration.
pub const REPLAYS_PER_ITERATION: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees, all in host units. Each is the
/// median over the iterations of one run, and seconds are seconds on
/// the quiet reference host (see `pace`). The time bounds are the
/// largest the contract allows, three times the widest spread four
/// sets of ten `--seed` runs showed on the sandbox host (1.3-8.8 %)
/// while the raw medians behind them ranged over 1.4-1.65x.
pub const END_TO_END: [EndToEnd; 5] = [
    // Simulations: `Simulator::new` to the last agent installed.
    // sweep-cold: one `repro list` (process start + registry).
    // sweep-resume: the priming cold sweep that fills the cache.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Simulations: the `run_until` call. Sweeps: child spawn to exit
    // (sweep-cold: the sixteen targets' children summed, each target's
    // the median over the sweeps; sweep-resume: the 20 replays of one
    // iteration together).
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // User + system CPU of the same interval; beside wall_s it shows
    // time a `repro` child spent waiting (on its files), not working.
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Work completed per host second: packets injected (simulations),
    // cells executed (sweep-cold), replays (sweep-resume), over wall_s.
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    // Peak resident set: of this process less the beat's tables
    // (simulations), or the median over the timed iterations of the
    // `repro` child's (sweep-cold: of the hungriest target's child).
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        better: "lower",
        bound: 0.15,
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every per-layer metric a traced run reports, in output order.
///
/// Every workload reports every one of them, so a duration that only
/// some workloads have would read a constant 0 on the others. The list
/// therefore holds two kinds of metric. Durations (`ns`, `s`) are
/// isolated costs of single layers, measured the same way in every
/// traced pass whatever the workload. What a workload itself spent in a
/// layer is a count, or a share of a stated whole, and reads 0 where the
/// workload does not exercise the layer (`core.*` on `forward-cbr`,
/// `experiments.*` on a simulation); the raw nanoseconds behind every
/// share are in the trace file.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };
    add("netsim.sim.events", "count", "lower");
    add("netsim.sim.events_per_pkt", "ratio", "lower");
    add("netsim.sim.events_per_s", "1/s", "higher");
    add("netsim.sim.pool_capacity", "count", "lower");
    add("netsim.sim.residual_share", "ratio", "lower");
    add("netsim.event.hold_ns_per_op.d1k", "ns", "lower");
    add("netsim.event.hold_ns_per_op.d10k", "ns", "lower");
    add("netsim.event.hold_ns_per_op.d100k", "ns", "lower");
    add("netsim.event.est_share", "ratio", "lower");
    add("netsim.link.arrivals", "count", "higher");
    add("netsim.link.drops", "count", "lower");
    add("netsim.link.marks", "count", "lower");
    add("netsim.link.tx_pkts", "count", "higher");
    add("netsim.link.utilization", "ratio", "higher");
    add("netsim.queue.red_ns_per_op", "ns", "lower");
    add("netsim.queue.droptail_ns_per_op", "ns", "lower");
    add("netsim.queue.depth_mean", "pkt", "lower");
    add("netsim.queue.depth_peak_bin", "pkt", "lower");
    add("netsim.pool.ns_per_insert_remove", "ns", "lower");
    add("netsim.stats.query_share", "ratio", "lower");
    add("netsim.stats.bytes_per_flow", "B", "lower");
    add("netsim.trace.events", "count", "lower");
    add("netsim.trace.sink_share", "ratio", "lower");
    add("netsim.trace.rows", "count", "lower");
    add("netsim.trace.bytes", "B", "lower");
    add("netsim.trace.overhead_frac", "ratio", "lower");
    add("netsim.audit.overhead_frac", "ratio", "lower");
    for layer in crate::proxy::Layer::ALL {
        add(&format!("core.{}.calls", layer.name()), "count", "lower");
        add(&format!("core.{}.share", layer.name()), "ratio", "lower");
    }
    add("core.share", "ratio", "lower");
    add("traffic.cbr.pkts", "count", "higher");
    add("metrics.share", "ratio", "lower");
    add("experiments.cell.count", "count", "lower");
    add("experiments.cell.p50_share", "ratio", "lower");
    add("experiments.cell.p90_share", "ratio", "lower");
    add("experiments.cell.max_share", "ratio", "lower");
    for target in SWEEP_TARGETS {
        add(
            &format!("experiments.target.{target}.share"),
            "ratio",
            "lower",
        );
    }
    add("experiments.runner.parallel_eff", "ratio", "higher");
    add("experiments.manifest.share", "ratio", "lower");
    add("experiments.cache.share", "ratio", "lower");
    add("experiments.cache.bytes", "B", "lower");
    add("experiments.toml.parse_s", "s", "lower");
    add("experiments.dsl.parse_s", "s", "lower");
    add("experiments.resume.inf_nan_lines", "count", "lower");
    add("trace.clock_ns", "ns", "lower");
    add("trace.overhead_frac", "ratio", "lower");
    out
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    let doc = obj(vec![
        (
            "command",
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name())), ("why", s(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(&m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("a Value tree always renders");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_within_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(is_name(w.name()), "{}", w.name());
            assert!(seen.insert(w.name().to_string()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}: {} chars",
                w.name(),
                w.why().len()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.to_string()));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        for m in &layers {
            assert!(is_name(&m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn sweep_targets_are_registered() {
        for t in SWEEP_TARGETS {
            let exp = slowcc_experiments::registry::find(t)
                .unwrap_or_else(|| panic!("{t} is not registered"));
            assert_eq!(
                exp.name(),
                t,
                "{t} must be the canonical name, not an alias"
            );
            assert!(!exp.hidden());
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_rendering() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-manifest > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
