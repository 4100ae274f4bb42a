//! Scenario-layer conformance: the declarative TOML scenarios are a
//! compilation target, not a parallel implementation — so a scenario
//! that re-expresses a hand-coded environment must reproduce it
//! bit-for-bit, and scenario sweeps must be exactly as
//! schedule-invariant as every registered experiment.
//!
//! Three contracts:
//!
//! 1. The chaos twin (`examples/scenarios/scenario-chaos-twin.toml`)
//!    reproduces `ChaosExperiment`'s TCP(1/2)/seed-1000 Quick cell to
//!    the last bit: goodput, rx count, fault-layer counters, and the
//!    progressing/stalled verdict.
//! 2. The multi-hop twin reproduces `MultiHopExperiment`'s
//!    TCP(1/2)/3-hop Quick cell: the long flow's throughput and the
//!    cross-flow mean (re-summed in installation order) are
//!    bit-identical.
//! 3. Every shipped scenario file swept over 8 workers is
//!    byte-identical to a serial sweep over its cells, exactly like the
//!    registry-wide conformance sweep.

use slowcc_experiments::dsl::{self, builtin};
use slowcc_experiments::experiment::Experiment;
use slowcc_experiments::flavor::Flavor;
use slowcc_experiments::scale::Scale;
use slowcc_experiments::{chaos, hetero, runner};

#[test]
fn scenario_twins_are_bit_identical_and_schedule_invariant() {
    // --- Contract 1: chaos twin vs the hand-coded chaos cell. ---
    let hand = chaos::ChaosExperiment.run_cell(Scale::Quick, (Flavor::standard_tcp(), 1000));
    let twin_exp = dsl::ScenarioExperiment::new(builtin::chaos_twin_spec());
    let twin = twin_exp.run_cell(Scale::Quick, 1000);

    let flow = &twin.flows[0];
    assert_eq!(flow.label, hand.flavor, "twin flow label");
    assert_eq!(flow.rx_packets, hand.rx_packets, "chaos twin rx packets");
    assert_eq!(
        flow.mean_mbps.to_bits(),
        hand.throughput_mbps.to_bits(),
        "chaos twin goodput must be bit-identical ({} vs {})",
        flow.mean_mbps,
        hand.throughput_mbps
    );
    let fwd = &twin.links[0];
    assert_eq!(fwd.flap_drops, hand.flap_drops, "chaos twin flap drops");
    assert_eq!(fwd.duplicates, hand.duplicates, "chaos twin duplicates");
    assert_eq!(fwd.fault_held, hand.held, "chaos twin held packets");
    assert_eq!(
        flow.tail_rx_bytes > 0,
        hand.status == "progressing",
        "chaos twin progressing/stalled verdict"
    );
    // The twin additionally streams a trace; passivity of the sink is
    // part of the bit-equality claim above, but check it exists too.
    let trace = twin.trace.as_ref().expect("chaos twin requests a trace");
    assert!(!trace.bins.is_empty(), "chaos twin trace has bins");

    // --- Contract 2: multi-hop twin vs the hand-coded parking lot. ---
    let hand = hetero::MultiHopExperiment.run_cell(Scale::Quick, (Flavor::standard_tcp(), 3));
    let twin_exp = dsl::ScenarioExperiment::new(builtin::multihop_twin_spec());
    let twin = twin_exp.run_cell(Scale::Quick, 77);

    assert_eq!(twin.flows.len(), 7, "long flow + 2 crosses x 3 hops");
    assert_eq!(
        twin.flows[0].throughput_bps.to_bits(),
        hand.long_bps.to_bits(),
        "multi-hop twin long-flow throughput must be bit-identical ({} vs {})",
        twin.flows[0].throughput_bps,
        hand.long_bps
    );
    // Cross mean, re-summed in the twin's (= installation) order: the
    // identical f64 expression tree reproduces the hand-coded mean.
    let crosses = &twin.flows[1..];
    let cross_mean = crosses.iter().map(|f| f.throughput_bps).sum::<f64>() / crosses.len() as f64;
    assert_eq!(
        cross_mean.to_bits(),
        hand.cross_mean_bps.to_bits(),
        "multi-hop twin cross-flow mean must be bit-identical ({} vs {})",
        cross_mean,
        hand.cross_mean_bps
    );

    // --- Contract 3: every shipped scenario is schedule-invariant. ---
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if !name.ends_with(".toml") || name.contains("malformed") {
            continue;
        }
        let exp = dsl::load_experiment(&path).unwrap_or_else(|e| panic!("{e}"));
        checked += 1;

        let n = exp.cell_meta(Scale::Quick).len();
        assert!(n > 0, "{name}: no cells at Quick");
        let sweep = |jobs: usize| -> Vec<String> {
            runner::run_cells((0..n).collect(), jobs, |i| {
                exp.run_cell_dyn(Scale::Quick, i).1
            })
        };
        assert_eq!(
            sweep(8),
            sweep(1),
            "{name}: 8-worker sweep must be byte-identical to the serial one"
        );
    }
    assert!(checked >= 3, "expected >= 3 shipped scenarios, replayed {checked}");
}
