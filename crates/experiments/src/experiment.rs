//! The `Experiment` abstraction: one uniform shape for every sweep.
//!
//! Every target the `repro` binary serves — each paper figure, the
//! validation checks, the chaos sweep — is a set of independent,
//! seed-carrying *cells* plus a deterministic way to assemble, render
//! and save the collected results. This module makes that shape a
//! trait, so the execution machinery (parallelism, crash isolation,
//! `--cell-timeout`, the per-cell `manifest.json` ledger, `--resume`,
//! `--audit` gating) is written once in [`crate::exec`] and applies to
//! all of them identically.
//!
//! An experiment declares:
//!
//! * its identity — [`Experiment::name`], aliases, a one-line
//!   description, and the JSON artifact stem;
//! * its sweep — [`Experiment::cells`] returns the cell list for a
//!   [`Scale`], each cell carrying a stable id and its seed;
//! * pure per-cell work — [`Experiment::run_cell`] maps one cell
//!   payload to a serializable [`Experiment::CellOut`], touching no
//!   global state and printing nothing;
//! * assembly — [`Experiment::assemble`] folds the cell outputs (in
//!   cell order) into the figure-level [`Experiment::Output`]; and
//! * presentation — [`Experiment::render`] prints the table and
//!   [`Experiment::save`] writes the artifacts.
//!
//! Because `run_cell` is pure and cells are independently seeded, any
//! scheduling of cells — serial, work-stolen across threads, or a
//! resumed run replaying some cells from the on-disk cache — produces
//! byte-identical output. Cell outputs must round-trip through the
//! JSON cache (`Serialize` + `Deserialize`), which is what makes
//! per-cell `--resume` possible.
//!
//! [`AnyExperiment`] is the object-safe erasure of the trait: the
//! registry stores `&'static dyn AnyExperiment`, and the executor
//! drives cells by index without knowing their concrete types.

use std::any::Any;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::scale::Scale;

/// One cell of a sweep: a stable identifier, the seed the cell's
/// simulation derives from, and the experiment-specific payload.
#[derive(Debug, Clone)]
pub struct CellSpec<C> {
    /// Stable id, unique within the experiment (used as the manifest
    /// key suffix and the cell-cache filename).
    pub id: String,
    /// The cell's simulation seed (0 for analytic cells with no RNG).
    pub seed: u64,
    /// What [`Experiment::run_cell`] receives.
    pub payload: C,
}

impl<C> CellSpec<C> {
    /// Build a cell spec.
    pub fn new(id: impl Into<String>, seed: u64, payload: C) -> Self {
        CellSpec {
            id: id.into(),
            seed,
            payload,
        }
    }
}

/// Identity and metadata of one cell, without its payload — what the
/// executor needs to key manifests and caches.
#[derive(Debug, Clone)]
pub struct CellMeta {
    /// The cell's stable id.
    pub id: String,
    /// The cell's seed.
    pub seed: u64,
}

/// One registered experiment target: identity, sweep cells, per-cell
/// work, assembly, and presentation. See the module docs for the
/// contract each method carries.
pub trait Experiment: Send + Sync {
    /// Per-cell input payload, rebuilt from [`Experiment::cells`] on
    /// demand (never serialized).
    type Cell: Send + 'static;
    /// Per-cell result; must round-trip through the JSON cell cache.
    type CellOut: Serialize + Deserialize + Send + 'static;
    /// The assembled figure-level result.
    type Output: Serialize;

    /// Canonical target name (`repro <name>`).
    fn name(&self) -> &'static str;
    /// One-line description for `repro list`.
    fn description(&self) -> &'static str;
    /// Accepted alternate names (e.g. `fig4`/`fig5` for `fig45`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }
    /// Stem of the JSON artifact written under `--out` (no extension).
    fn artifact(&self) -> &'static str;
    /// Hidden targets run when named but are excluded from `list`,
    /// `all`, and the usage text (e.g. the `panic-cell` fixture).
    fn hidden(&self) -> bool {
        false
    }

    /// The sweep's cells at `scale`, in deterministic order.
    fn cells(&self, scale: Scale) -> Vec<CellSpec<Self::Cell>>;
    /// Run one cell. Must be pure: no printing, no file writes, no
    /// shared mutable state — determinism across schedules depends on
    /// it.
    fn run_cell(&self, scale: Scale, cell: Self::Cell) -> Self::CellOut;
    /// Fold the cell outputs (in cell order) into the final result.
    /// Must also be pure; any order-sensitive float accumulation here
    /// sees the same order every run.
    fn assemble(&self, scale: Scale, outs: Vec<Self::CellOut>) -> Self::Output;
    /// Print the figure to stdout.
    fn render(&self, output: &Self::Output);
    /// Write artifacts under `dir`. The default writes
    /// `<artifact>.json`; experiments with extra outputs (CSV series,
    /// multiple variants) override and extend this.
    fn save(&self, output: &Self::Output, dir: &Path) {
        if let Err(e) = crate::report::write_json(dir, self.artifact(), output) {
            eprintln!("warning: failed to write {}.json: {e}", self.artifact());
        }
    }
}

/// Run a whole experiment in-process: map the cells serially on the
/// calling thread and assemble. Module tests call it directly,
/// `run_experiment(&Fig3Experiment, Scale::Quick)` (the test harness
/// already runs tests in parallel); `repro` goes through [`crate::exec`]
/// instead to add parallelism, isolation and the manifest ledger.
/// Both produce identical output.
pub fn run_experiment<E: Experiment>(exp: &E, scale: Scale) -> E::Output {
    let outs = exp
        .cells(scale)
        .into_iter()
        .map(|cell| exp.run_cell(scale, cell.payload))
        .collect();
    exp.assemble(scale, outs)
}

/// Object-safe erasure of [`Experiment`], implemented blanket-wise for
/// every implementor. The registry hands out `&'static dyn
/// AnyExperiment`, and the executor moves cell outputs around as
/// `Box<dyn Any + Send>` plus their JSON encoding for the cache.
pub trait AnyExperiment: Send + Sync {
    /// Canonical target name.
    fn name(&self) -> &'static str;
    /// One-line description for `repro list`.
    fn description(&self) -> &'static str;
    /// Accepted alternate names.
    fn aliases(&self) -> &'static [&'static str];
    /// Whether the target is excluded from `list`/`all`.
    fn hidden(&self) -> bool;
    /// Ids and seeds of the sweep's cells at `scale`.
    fn cell_meta(&self, scale: Scale) -> Vec<CellMeta>;
    /// Run cell `index` of `cells(scale)`; returns the boxed output
    /// plus its JSON encoding for the cell cache.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the cell list — and
    /// propagates any panic from the cell itself (the executor runs
    /// this under `catch_unwind`).
    fn run_cell_dyn(&self, scale: Scale, index: usize) -> (Box<dyn Any + Send>, String);
    /// Decode one cached cell output (the inverse of the JSON returned
    /// by [`AnyExperiment::run_cell_dyn`]).
    fn load_cell(&self, json: &str) -> Result<Box<dyn Any + Send>, String>;
    /// Assemble the cell outputs (in cell order), render to stdout,
    /// and save artifacts when `out_dir` is set.
    fn finish(&self, scale: Scale, outs: Vec<Box<dyn Any + Send>>, out_dir: Option<&Path>);
}

impl<E: Experiment> AnyExperiment for E {
    fn name(&self) -> &'static str {
        Experiment::name(self)
    }

    fn description(&self) -> &'static str {
        Experiment::description(self)
    }

    fn aliases(&self) -> &'static [&'static str] {
        Experiment::aliases(self)
    }

    fn hidden(&self) -> bool {
        Experiment::hidden(self)
    }

    fn cell_meta(&self, scale: Scale) -> Vec<CellMeta> {
        self.cells(scale)
            .into_iter()
            .map(|c| CellMeta {
                id: c.id,
                seed: c.seed,
            })
            .collect()
    }

    fn run_cell_dyn(&self, scale: Scale, index: usize) -> (Box<dyn Any + Send>, String) {
        let mut cells = self.cells(scale);
        assert!(
            index < cells.len(),
            "{}: cell index {index} out of range ({} cells)",
            Experiment::name(self),
            cells.len()
        );
        // swap_remove is fine: only `index` is used from this list.
        let spec = cells.swap_remove(index);
        let out = self.run_cell(scale, spec.payload);
        let json = serde_json::to_string(&out).expect("cell outputs serialize");
        (Box::new(out), json)
    }

    fn load_cell(&self, json: &str) -> Result<Box<dyn Any + Send>, String> {
        let out: E::CellOut = serde_json::from_str(json).map_err(|e| e.to_string())?;
        Ok(Box::new(out))
    }

    fn finish(&self, scale: Scale, outs: Vec<Box<dyn Any + Send>>, out_dir: Option<&Path>) {
        let typed: Vec<E::CellOut> = outs
            .into_iter()
            .map(|b| {
                *b.downcast::<E::CellOut>()
                    .expect("cell output downcasts to its experiment's CellOut")
            })
            .collect();
        let output = self.assemble(scale, typed);
        self.render(&output);
        if let Some(dir) = out_dir {
            self.save(&output, dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;

    impl Experiment for Doubler {
        type Cell = u64;
        type CellOut = u64;
        type Output = Vec<u64>;

        fn name(&self) -> &'static str {
            "doubler"
        }
        fn description(&self) -> &'static str {
            "test fixture"
        }
        fn artifact(&self) -> &'static str {
            "doubler"
        }
        fn cells(&self, _scale: Scale) -> Vec<CellSpec<u64>> {
            (0..4).map(|i| CellSpec::new(format!("c{i}"), i, i)).collect()
        }
        fn run_cell(&self, _scale: Scale, cell: u64) -> u64 {
            cell * 2
        }
        fn assemble(&self, _scale: Scale, outs: Vec<u64>) -> Vec<u64> {
            outs
        }
        fn render(&self, _output: &Vec<u64>) {}
    }

    #[test]
    fn run_experiment_preserves_cell_order() {
        assert_eq!(run_experiment(&Doubler, Scale::Quick), vec![0, 2, 4, 6]);
    }

    #[test]
    fn erased_cells_round_trip_through_the_cache_encoding() {
        let exp: &dyn AnyExperiment = &Doubler;
        let meta = exp.cell_meta(Scale::Quick);
        assert_eq!(meta.len(), 4);
        assert_eq!(meta[2].id, "c2");
        let (out, json) = exp.run_cell_dyn(Scale::Quick, 3);
        assert_eq!(*out.downcast::<u64>().unwrap(), 6);
        let back = exp.load_cell(&json).expect("cache decodes");
        assert_eq!(*back.downcast::<u64>().unwrap(), 6);
        assert!(exp.load_cell("not json").is_err());
    }
}
