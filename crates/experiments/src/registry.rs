//! The experiment registry: every `repro` target, in report order.
//!
//! This is the single source of truth for what exists, what it is
//! called, and in which order `all` runs it. The CLI resolves names
//! (and figure aliases like `fig4` -> `fig45`) against this list, the
//! executor pulls cells from it, and the conformance test in
//! `tests/registry_conformance.rs` walks it — so a new experiment is
//! registered here once and inherits parallelism, crash isolation,
//! the manifest ledger, `--resume`, `--audit` gating, and determinism
//! coverage without touching the binary.

use std::sync::OnceLock;

use slowcc_netsim::prelude::{Agent, Ctx, Packet, SimDuration, SimTime, Simulator};

use crate::experiment::{AnyExperiment, CellSpec, Experiment};
use crate::fig1012::{ConvExperiment, ConvFamily};
use crate::fig1416::{Osc2Config, Osc2Experiment};
use crate::scale::Scale;
use crate::{
    chaos, conformance, dsl, extras, fig03, fig06, fig0789, fig11, fig13, fig171819, fig20, fig45,
    hetero, queuedyn, response, validate,
};

/// Hidden supervision fixture: one `fixture` cell whose `body`
/// misbehaves on purpose, so `verify.sh` can exercise crash isolation,
/// budget classification, `failures.json` records, sibling survival
/// and `--resume` end to end without breaking a real figure.
struct FixtureExperiment {
    name: &'static str,
    description: &'static str,
    artifact: &'static str,
    /// Never returns: panics, or spins until the armed budget unwinds it.
    body: fn(),
}

impl Experiment for FixtureExperiment {
    type Cell = ();
    type CellOut = ();
    type Output = ();

    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn artifact(&self) -> &'static str {
        self.artifact
    }

    fn hidden(&self) -> bool {
        true
    }

    fn cells(&self, _scale: Scale) -> Vec<CellSpec<()>> {
        vec![CellSpec::new("fixture", 0, ())]
    }

    fn run_cell(&self, _scale: Scale, _cell: ()) {
        (self.body)()
    }

    fn assemble(&self, _scale: Scale, _outs: Vec<()>) {}

    fn render(&self, _output: &()) {}

    fn save(&self, _output: &(), _dir: &std::path::Path) {}
}

/// An agent that does nothing but re-arm a timer `step` ahead.
struct TickAgent {
    step: SimDuration,
}

impl Agent for TickAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.step, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.step, 0);
    }
}

/// Run a lone [`TickAgent`] towards a horizon it cannot reach in any
/// useful wall time; ends only via the armed budget.
fn tick_until(step: SimDuration, horizon: SimTime) {
    let mut sim = Simulator::new(0);
    let n = sim.add_node();
    sim.add_agent(n, Box::new(TickAgent { step }));
    sim.run_until(horizon);
}

/// All registered experiments, in `all`/report order, hidden fixtures
/// last.
pub fn all() -> &'static [Box<dyn AnyExperiment>] {
    static REGISTRY: OnceLock<Vec<Box<dyn AnyExperiment>>> = OnceLock::new();
    REGISTRY.get_or_init(build)
}

fn build() -> Vec<Box<dyn AnyExperiment>> {
    vec![
        Box::new(fig03::Fig3Experiment),
        Box::new(fig45::Fig45Experiment),
        Box::new(fig06::Fig6Experiment),
        Box::new(fig0789::FIG7),
        Box::new(fig0789::FIG8),
        Box::new(fig0789::FIG9),
        Box::new(ConvExperiment::for_family(ConvFamily::Tcp)),
        Box::new(fig11::Fig11Experiment),
        Box::new(ConvExperiment::for_family(ConvFamily::Tfrc)),
        Box::new(fig13::Fig13Experiment),
        Box::new(Osc2Experiment {
            name: "fig1415",
            description: "Figures 14/15 - utilization and drops under 3:1 oscillation",
            aliases: &["fig14", "fig15"],
            artifact: "fig14_fig15",
            title: "Figures 14/15",
            config: Osc2Config::for_scale,
        }),
        Box::new(Osc2Experiment {
            name: "fig16",
            description: "Figure 16 - utilization under 10:1 oscillation",
            aliases: &[],
            artifact: "fig16",
            title: "Figure 16",
            config: Osc2Config::extreme_for_scale,
        }),
        Box::new(fig171819::FIG17),
        Box::new(fig171819::FIG18),
        Box::new(fig171819::FIG19),
        Box::new(fig20::Fig20Experiment),
        Box::new(extras::FAIRNESS_EXTREME),
        Box::new(extras::SawtoothExperiment),
        Box::new(extras::FkModelExperiment),
        Box::new(validate::StaticExperiment),
        Box::new(validate::EcnConvExperiment),
        Box::new(validate::HighLossExperiment),
        Box::new(response::ResponseExperiment),
        Box::new(queuedyn::QueueDynExperiment),
        Box::new(hetero::RttBiasExperiment),
        Box::new(hetero::MultiHopExperiment),
        Box::new(chaos::ChaosExperiment),
        Box::new(conformance::ConformanceExperiment),
        // Hidden twins of the chaos and multi-hop environments, compiled
        // from the builtin scenario specs: the conformance suite holds
        // their outputs byte-equal to the shipped TOML files and to the
        // hand-coded experiments they mirror.
        Box::new(dsl::ScenarioExperiment::new(dsl::builtin::chaos_twin_spec()).into_hidden()),
        Box::new(dsl::ScenarioExperiment::new(dsl::builtin::multihop_twin_spec()).into_hidden()),
        Box::new(FixtureExperiment {
            name: "panic-cell",
            description: "hidden fixture - deliberately panicking cell",
            artifact: "panic_cell",
            body: || panic!("deliberate panic: repro crash-isolation fixture"),
        }),
        // The clock never advances: the livelock signature the
        // supervisor's zero-advance bound detects.
        Box::new(FixtureExperiment {
            name: "hang-cell",
            description: "hidden fixture - deliberately livelocked cell (zero-advance timer loop)",
            artifact: "hang_cell",
            body: || tick_until(SimDuration::ZERO, SimTime::from_secs(1)),
        }),
        // One event per simulated nanosecond never trips the livelock
        // bound: only `--cell-timeout` (`Deadline`) or the cancel flag ends
        // it, so the SIGINT smoke reliably finds it still running.
        Box::new(FixtureExperiment {
            name: "slow-cell",
            description: "hidden fixture - unbounded clock-advancing cell (deadline/cancel fodder)",
            artifact: "slow_cell",
            body: || tick_until(SimDuration::from_nanos(1), SimTime::from_secs(1_000_000)),
        }),
    ]
}

/// The visible (non-hidden) experiments, in `all` order.
pub fn visible() -> impl Iterator<Item = &'static dyn AnyExperiment> {
    all().iter().map(|b| b.as_ref()).filter(|e| !e.hidden())
}

/// Look an experiment up by canonical name or alias. Hidden targets
/// resolve too — they are runnable when named, just unlisted.
pub fn find(name: &str) -> Option<&'static dyn AnyExperiment> {
    all()
        .iter()
        .map(|b| b.as_ref())
        .find(|e| e.name() == name || e.aliases().contains(&name))
}

/// Resolve raw CLI names into experiments: aliases map onto their
/// canonical target, `all` expands to every visible experiment, and
/// duplicates (however spelled) collapse to the first occurrence.
/// Returns the unknown name on failure.
pub fn resolve_targets(names: &[String]) -> Result<Vec<&'static dyn AnyExperiment>, String> {
    let mut resolved: Vec<&'static dyn AnyExperiment> = Vec::new();
    let push = |exp: &'static dyn AnyExperiment, resolved: &mut Vec<&'static dyn AnyExperiment>| {
        if !resolved.iter().any(|e| e.name() == exp.name()) {
            resolved.push(exp);
        }
    };
    for name in names {
        if name == "all" {
            for exp in visible() {
                push(exp, &mut resolved);
            }
            continue;
        }
        match find(name) {
            Some(exp) => push(exp, &mut resolved),
            None => return Err(name.clone()),
        }
    }
    Ok(resolved)
}

/// The space-separated visible target names (the `experiments:` line of
/// the usage text).
pub fn names_line() -> String {
    visible().map(|e| e.name()).collect::<Vec<_>>().join(" ")
}

/// The alias summary (`fig4 fig5 -> fig45; fig14 fig15 -> fig1415`),
/// derived from the registry.
pub fn aliases_line() -> String {
    visible()
        .filter(|e| !e.aliases().is_empty())
        .map(|e| format!("{} -> {}", e.aliases().join(" "), e.name()))
        .collect::<Vec<_>>()
        .join("; ")
}

/// The `repro list` text: one indented `name  description` line per
/// visible experiment between an `experiments:` and an `aliases:`
/// header (scripts parse the section boundaries, so keep them).
pub fn list_text() -> String {
    let width = visible().map(|e| e.name().len()).max().unwrap_or(0);
    let mut text = String::from("experiments:\n");
    for exp in visible() {
        text.push_str(&format!("  {:width$}  {}\n", exp.name(), exp.description()));
    }
    text.push_str("aliases:\n");
    for exp in visible().filter(|e| !e.aliases().is_empty()) {
        text.push_str(&format!("  {} -> {}\n", exp.aliases().join(" "), exp.name()));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_aliases_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for exp in all() {
            assert!(seen.insert(exp.name()), "duplicate name {}", exp.name());
            for alias in exp.aliases() {
                assert!(seen.insert(alias), "duplicate alias {alias}");
            }
        }
    }

    #[test]
    fn aliases_resolve_to_their_canonical_experiment() {
        assert_eq!(find("fig4").unwrap().name(), "fig45");
        assert_eq!(find("fig5").unwrap().name(), "fig45");
        assert_eq!(find("fig14").unwrap().name(), "fig1415");
        assert_eq!(find("fig15").unwrap().name(), "fig1415");
        assert_eq!(find("chaos").unwrap().name(), "chaos");
        assert!(find("fig21").is_none());
    }

    #[test]
    fn hidden_fixtures_resolve_but_stay_out_of_all_and_list() {
        for fixture in ["panic-cell", "hang-cell", "slow-cell"] {
            assert_eq!(find(fixture).unwrap().name(), fixture);
            assert!(visible().all(|e| e.name() != fixture));
            assert!(!list_text().contains(fixture));
        }
        let expanded = resolve_targets(&["all".to_string()]).unwrap();
        assert!(expanded
            .iter()
            .all(|e| !["panic-cell", "hang-cell", "slow-cell"].contains(&e.name())));
        assert_eq!(expanded.len(), visible().count());
    }

    /// The satellite fix for the old `targets.dedup()` bug: dedup must
    /// be order-preserving and set-based, catching repeats that are not
    /// adjacent and repeats spelled through different aliases.
    #[test]
    fn resolve_targets_dedups_nonadjacent_and_aliased_repeats() {
        let names: Vec<String> = ["fig45", "fig6", "fig45"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let resolved = resolve_targets(&names).unwrap();
        let got: Vec<&str> = resolved.iter().map(|e| e.name()).collect();
        assert_eq!(got, ["fig45", "fig6"]);

        let names: Vec<String> = ["fig4", "fig11", "fig45", "fig5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let resolved = resolve_targets(&names).unwrap();
        let got: Vec<&str> = resolved.iter().map(|e| e.name()).collect();
        assert_eq!(got, ["fig45", "fig11"]);

        match resolve_targets(&["fig3".into(), "nope".into()]) {
            Err(unknown) => assert_eq!(unknown, "nope"),
            Ok(_) => panic!("unknown target must be rejected"),
        }
    }

    #[test]
    fn all_keeps_the_report_order() {
        let names: Vec<&str> = visible().map(|e| e.name()).collect();
        assert_eq!(names[0], "fig3");
        assert_eq!(*names.last().unwrap(), "conformance");
        assert_eq!(names.len(), 28);
    }
}
