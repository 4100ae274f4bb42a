//! The unified execution path behind `repro`: one flat, crash-isolated,
//! resumable, supervised sweep over every requested experiment's cells.
//!
//! [`run`] takes the resolved targets and:
//!
//! 1. expands each into its [`crate::experiment::Experiment::cells`]
//!    and keys every cell as `<target>/<cell-id>` in the shared
//!    [`crate::manifest`] ledger;
//! 2. under `--resume`, replays cells already `ok` at the same scale
//!    from the on-disk cell cache (`<dir>/cells/...`) instead of
//!    re-running them — an unreadable cache entry just re-runs;
//! 3. fans the remaining cells of *all* targets out together over
//!    `--jobs` threads ([`crate::runner::run_cells`]), each cell through
//!    [`crate::runner::run_one_isolated`] with a cooperative [`Budget`]
//!    armed (wall-clock `--cell-timeout`, the zero-advance livelock
//!    bound, the SIGINT/SIGTERM cancel flag, and the `--audit` mode),
//!    so budget enforcement, auditing and panic isolation apply per
//!    cell — an audit violation fails its cell like a panic does — and
//!    a wide target cannot serialize behind a narrow one;
//! 4. records every cell's verdict in `manifest.json` on its worker as
//!    it lands (for a passing cell, cache write first, then the `ok`
//!    record, so a ledger `ok` implies a replayable cache or a re-run),
//!    and writes one record per failed cell — cell, seed, class,
//!    message — to `failures.json` (an empty, byte-stable file on a
//!    clean sweep);
//! 5. assembles, renders and saves each fully-ok target serially in
//!    command-line order — cells print nothing, so stdout is
//!    byte-identical across `--jobs` and resumed runs — and reports
//!    failed cells on stderr with a classification summary table.
//!
//! A failed cell is not retried in-process. Every cell is a pure
//! function of code, cell spec and seed, so a re-run replays the same
//! bytes to the same failure. The two classes that depend on more than
//! the seed, `timeout` (wall clock) and `interrupted` (SIGINT), are
//! retried by `--resume`, which re-runs every cell that is not `ok`.
//!
//! On SIGINT/SIGTERM the cancel flag rises, in-flight cells unwind at
//! their next budget check as `interrupted`, pending cells fail fast
//! without running, the manifest is flushed, and
//! [`ExecSummary::interrupted`] tells the caller to exit with the
//! "interrupted, resumable" code — `--resume` then continues the sweep
//! byte-identically.
//!
//! Progress chatter (`resume: ...`) goes to stderr for the same reason
//! as failures: stdout carries only the report.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use slowcc_netsim::audit::{AuditMode, AuditReport};
use slowcc_netsim::budget::{self, Budget};

use crate::experiment::AnyExperiment;
use crate::manifest::{escape, CellRecord, Manifest};
use crate::runner::{self, CellError};
use crate::scale::Scale;

/// Options of one `repro` invocation, minus the target list.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Scale every experiment runs at.
    pub scale: Scale,
    /// Artifact directory (`--out`); `None` prints tables only.
    pub out: Option<PathBuf>,
    /// Where `manifest.json`, `failures.json` and the cell cache live
    /// (the `--out` dir, or `results/` for a bare sweep).
    pub manifest_dir: PathBuf,
    /// Replay cells already `ok` in the manifest at this scale.
    pub resume: bool,
    /// Per-cell wall-clock budget (`--cell-timeout`): sugar for
    /// [`Budget::wall_clock`] on the per-cell budget.
    pub cell_timeout: Option<Duration>,
    /// Threads the sweep may use (`--jobs`).
    pub jobs: usize,
    /// Audit every cell in [`AuditMode::Collect`] (`--audit`).
    pub audit: bool,
}

/// What [`run`] did, for the exit code and the audit line.
#[derive(Debug, Clone)]
pub struct ExecSummary {
    /// Cells that failed this run (interrupted cells are counted
    /// separately — they are unfinished, not failed).
    pub failed_cells: usize,
    /// The sweep was cancelled (SIGINT/SIGTERM): in-flight cells
    /// unwound cleanly, the manifest is flushed, `--resume` continues.
    pub interrupted: bool,
    /// The audit reports of the cells that ran `ok` this run, merged in
    /// cell order; `None` when none of them audited a simulation
    /// (replayed cells are not re-audited).
    pub audit: Option<AuditReport>,
}

impl ExecSummary {
    /// Whether the sweep completed without cell failures.
    pub fn is_ok(&self) -> bool {
        self.failed_cells == 0 && !self.interrupted
    }
}

/// Keep ids filesystem-safe: anything outside `[A-Za-z0-9.-]` becomes
/// `_`. Collisions are broken by the cell-index prefix on filenames.
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// On-disk location of one cell's cached output. The index prefix ties
/// the file to its position, so any change to an experiment's cell
/// list invalidates stale caches instead of silently misfiling them.
fn cell_cache_path(dir: &Path, target: &str, index: usize, cell_id: &str) -> PathBuf {
    dir.join("cells")
        .join(sanitize(target))
        .join(format!("{index}_{}.json", sanitize(cell_id)))
}

fn write_cell_cache(path: &Path, json: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)
}

/// One cell scheduled for execution.
struct WorkItem {
    exp: &'static dyn AnyExperiment,
    /// Position in the target's cell list.
    cell_idx: usize,
    /// Manifest key: `<target>/<cell-id>`.
    key: String,
    /// The cell's seed, echoed into failure records.
    seed: u64,
    /// Cache file for the cell's output.
    cache: PathBuf,
}

/// A cell that failed this run, and how.
struct FailureEntry {
    item: WorkItem,
    error: CellError,
}

/// Render `failures.json`: one record per failed cell, one line each.
/// Every field is a function of code, cell spec and seed (no attempt
/// counts, no durations), so the file sits inside `diff -r` checks
/// even when cells fail, and a clean sweep writes the same empty
/// report every time.
fn render_failures(entries: &[FailureEntry]) -> String {
    let records: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"cell\": \"{}\", \"seed\": {}, \"class\": \"{}\", \"message\": \"{}\"}}",
                escape(&e.item.key),
                e.item.seed,
                e.error.class(),
                escape(&e.error.message())
            )
        })
        .collect();
    let body = if records.is_empty() {
        String::new()
    } else {
        format!("\n{}\n  ", records.join(",\n"))
    };
    format!("{{\n  \"version\": 1,\n  \"failures\": [{body}]\n}}\n")
}

fn write_failures(dir: &Path, entries: &[FailureEntry]) {
    let tmp = dir.join("failures.json.tmp");
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&tmp, render_failures(entries)))
        .and_then(|()| std::fs::rename(&tmp, dir.join("failures.json")))
    {
        eprintln!("warning: failed to write failures.json: {e}");
    }
}

/// The stderr classification table printed after a sweep with failures.
fn print_failure_table(entries: &[FailureEntry]) {
    let width = entries
        .iter()
        .map(|e| e.item.key.len())
        .max()
        .unwrap_or(0)
        .max("cell".len());
    eprintln!("{:width$}  class", "cell");
    for entry in entries {
        eprintln!("{:width$}  {}", entry.item.key, entry.error.class());
    }
}

/// Execute `targets` under one isolated, resumable, supervised cell
/// sweep. See the module docs for the exact pipeline.
pub fn run(targets: &[&'static dyn AnyExperiment], opts: &ExecOptions) -> ExecSummary {
    let scale = opts.scale;
    let scale_tag = scale.pick("full", "quick");
    // The per-cell budget: `--cell-timeout` arms the wall clock; the
    // livelock bound and the cancel flag are always on. Untripped
    // checks have no side effects, so arming this cannot change any
    // byte of any artifact. `--audit` rides along as the cells' audit
    // mode: Collect, not Strict, so a violating cell runs to its end
    // and fails with its first violation, while its siblings run on.
    let cell_budget = Budget {
        wall_clock: opts.cell_timeout,
        max_events: None,
        livelock_events: Some(Budget::DEFAULT_LIVELOCK_EVENTS),
        observe_cancel: true,
        audit: opts.audit.then_some(AuditMode::Collect),
    };

    // Ledger: inherit the prior manifest wholesale under --resume (at
    // the same scale), so records of cells outside this run survive.
    let mut ledger = Manifest::new(scale_tag);
    let mut prior: Option<Manifest> = None;
    if opts.resume {
        match Manifest::load(&opts.manifest_dir) {
            Some(p) if p.scale == scale_tag => {
                ledger = p.clone();
                prior = Some(p);
            }
            Some(p) => eprintln!(
                "resume: manifest is for scale `{}`, this run is `{scale_tag}`; re-running everything",
                p.scale
            ),
            None => eprintln!(
                "resume: no readable manifest in {}; re-running everything",
                opts.manifest_dir.display()
            ),
        }
    }

    // Expand every target into keyed cells; decide replay vs run.
    let mut cell_keys: Vec<Vec<String>> = Vec::with_capacity(targets.len());
    let mut cached: HashMap<String, Box<dyn std::any::Any + Send>> = HashMap::new();
    let mut work: Vec<WorkItem> = Vec::new();
    let mut total_cells = 0usize;
    for exp in targets {
        let metas = exp.cell_meta(scale);
        let mut keys = Vec::with_capacity(metas.len());
        for (idx, meta) in metas.iter().enumerate() {
            let key = format!("{}/{}", exp.name(), meta.id);
            let cache = cell_cache_path(&opts.manifest_dir, exp.name(), idx, &meta.id);
            total_cells += 1;
            let replay = prior
                .as_ref()
                .map(|p| p.is_ok(&key))
                .unwrap_or(false)
                .then(|| std::fs::read_to_string(&cache).ok().and_then(|json| exp.load_cell(&json).ok()))
                .flatten();
            match replay {
                Some(out) => {
                    eprintln!("resume: skipping {key} (ok in manifest)");
                    cached.insert(key.clone(), out);
                }
                None => {
                    if prior.as_ref().map(|p| p.is_ok(&key)).unwrap_or(false) {
                        eprintln!("resume: cell cache for {key} unreadable; re-running");
                    }
                    work.push(WorkItem {
                        exp: *exp,
                        cell_idx: idx,
                        key: key.clone(),
                        seed: meta.seed,
                        cache,
                    });
                }
            }
            keys.push(key);
        }
        cell_keys.push(keys);
    }
    if opts.resume && work.is_empty() && total_cells > 0 {
        eprintln!(
            "resume: all {total_cells} requested cells already ok in {}",
            opts.manifest_dir.join("manifest.json").display()
        );
    }

    // As cells finish, their verdict lands in the manifest on disk, so
    // a killed or interrupted sweep still leaves an accurate ledger for
    // --resume.
    let ledger = Mutex::new(ledger);
    let record = |key: &str, record: CellRecord| {
        let mut m = ledger.lock().unwrap_or_else(|e| e.into_inner());
        m.record(key, record);
        if let Err(e) = m.write(&opts.manifest_dir) {
            eprintln!("warning: failed to write manifest: {e}");
        }
    };

    // Cache before the `ok` record, so a ledger `ok` always implies a
    // replayable cache.
    let cells: Vec<&WorkItem> = work.iter().collect();
    let outcomes = runner::run_cells(cells, opts.jobs, |item| {
        let result =
            runner::run_one_isolated(cell_budget, || item.exp.run_cell_dyn(scale, item.cell_idx));
        match &result {
            Ok(((_, json), _)) => {
                if let Err(e) = write_cell_cache(&item.cache, json) {
                    eprintln!("warning: failed to write cell cache {}: {e}", item.cache.display());
                }
                record(&item.key, CellRecord::ok());
            }
            Err(error) => record(&item.key, CellRecord::failed(error.status(), error.message())),
        }
        result.map(|((out, _), report)| (out, report))
    });

    let mut failures: Vec<FailureEntry> = Vec::new();
    let mut fresh: HashMap<String, Box<dyn std::any::Any + Send>> = HashMap::new();
    let mut audit: Option<AuditReport> = None;
    for (result, item) in outcomes.into_iter().zip(work) {
        match result {
            Ok((out, report)) => {
                if let Some(report) = report {
                    audit.get_or_insert_with(AuditReport::default).merge(&report);
                }
                fresh.insert(item.key, out);
            }
            Err(error) => failures.push(FailureEntry { item, error }),
        }
    }

    // Written unconditionally: byte-stable and empty on a clean sweep,
    // so diff -r over output directories keeps working.
    write_failures(&opts.manifest_dir, &failures);

    // Render complete targets serially in command-line order; a target
    // with any failed cell is withheld (partial figures mislead).
    for (exp, keys) in targets.iter().zip(&cell_keys) {
        let mut outs: Vec<Box<dyn std::any::Any + Send>> = Vec::with_capacity(keys.len());
        let mut complete = true;
        for key in keys {
            match fresh.remove(key).or_else(|| cached.remove(key)) {
                Some(out) => outs.push(out),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            exp.finish(scale, outs, opts.out.as_deref());
        }
    }

    let interrupted = budget::cancel_requested()
        || failures.iter().any(|e| e.error == CellError::Interrupted);
    let failed = failures.iter().filter(|e| e.error != CellError::Interrupted).count();
    if !failures.is_empty() {
        for entry in &failures {
            match &entry.error {
                CellError::Interrupted => eprintln!("interrupted cell {}", entry.item.key),
                err => eprintln!("FAILED cell {}: {}", entry.item.key, err.message()),
            }
        }
        print_failure_table(&failures);
        if failed > 0 {
            eprintln!(
                "{failed} of {total_cells} cells failed; see {} and {}",
                opts.manifest_dir.join("manifest.json").display(),
                opts.manifest_dir.join("failures.json").display()
            );
        }
    }
    if interrupted {
        eprintln!(
            "interrupted: manifest flushed to {}; rerun with --resume to continue",
            opts.manifest_dir.join("manifest.json").display()
        );
    }

    ExecSummary {
        failed_cells: failed,
        interrupted,
        audit,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::experiment::{CellSpec, Experiment};

    fn entry(key: &str, seed: u64, error: CellError) -> FailureEntry {
        FailureEntry {
            item: WorkItem {
                exp: &crate::chaos::ChaosExperiment,
                cell_idx: 0,
                key: key.to_string(),
                seed,
                cache: PathBuf::new(),
            },
            error,
        }
    }

    #[test]
    fn clean_sweep_failures_match_the_committed_report() {
        assert_eq!(render_failures(&[]), include_str!("../../../results/failures.json"));
    }

    #[test]
    fn failure_records_are_one_deterministic_line_each() {
        let entries = [
            entry("hang-cell/fixture", 0, CellError::Livelock("stuck at t=0".into())),
            entry("chaos/TCP/seed1000", 1000, CellError::Panic(r#"said "no" at C:\x"#.into())),
        ];
        assert_eq!(
            render_failures(&entries),
            concat!(
                "{\n",
                "  \"version\": 1,\n",
                "  \"failures\": [\n",
                "    {\"cell\": \"hang-cell/fixture\", \"seed\": 0, \"class\": \"livelock\", \"message\": \"stuck at t=0\"},\n",
                "    {\"cell\": \"chaos/TCP/seed1000\", \"seed\": 1000, \"class\": \"panic\", \"message\": \"said \\\"no\\\" at C:\\\\x\"}\n",
                "  ]\n",
                "}\n"
            )
        );
    }

    /// One cell whose simulation leaks a timer; counts its runs.
    struct LeakyExperiment {
        runs: AtomicUsize,
    }

    impl Experiment for LeakyExperiment {
        type Cell = ();
        type CellOut = ();
        type Output = ();

        fn name(&self) -> &'static str {
            "leaky"
        }
        fn description(&self) -> &'static str {
            "test fixture"
        }
        fn artifact(&self) -> &'static str {
            "leaky"
        }
        fn cells(&self, _scale: Scale) -> Vec<CellSpec<()>> {
            vec![CellSpec::new("fixture", 0, ())]
        }
        fn run_cell(&self, _scale: Scale, _cell: ()) {
            self.runs.fetch_add(1, Ordering::Relaxed);
            crate::runner::tests::tick(true);
        }
        fn assemble(&self, _scale: Scale, _outs: Vec<()>) {}
        fn render(&self, _output: &()) {}
    }

    #[test]
    fn an_audit_violation_fails_its_cell_and_resume_reruns_it() {
        let exp: &'static LeakyExperiment = Box::leak(Box::new(LeakyExperiment {
            runs: AtomicUsize::new(0),
        }));
        let dir = std::env::temp_dir().join(format!("slowcc-exec-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExecOptions {
            scale: Scale::Quick,
            out: Some(dir.clone()),
            manifest_dir: dir.clone(),
            resume: false,
            cell_timeout: None,
            jobs: 1,
            audit: true,
        };
        for resume in [false, true] {
            let summary = run(
                &[exp],
                &ExecOptions {
                    resume,
                    ..opts.clone()
                },
            );
            assert_eq!(summary.failed_cells, 1, "resume {resume}");
            assert!(!summary.interrupted);
            assert_eq!(summary.audit, None, "a failed cell's report is not summed");
            let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
            assert!(
                manifest.contains(r#""leaky/fixture": {"status": "audit-violation", "message": "audit violation: timer leak"#),
                "{manifest}"
            );
            let failures = std::fs::read_to_string(dir.join("failures.json")).unwrap();
            assert!(
                failures.contains(r#"{"cell": "leaky/fixture", "seed": 0, "class": "audit-violation", "message": "audit violation: timer leak"#),
                "{failures}"
            );
            assert!(
                !dir.join("leaky.json").exists(),
                "a failed target must not render"
            );
        }
        assert_eq!(
            exp.runs.load(Ordering::Relaxed),
            2,
            "--resume must re-run the failed cell"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
