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
//! 3. fans the remaining cells of *all* targets out together through
//!    [`crate::runner::run_cells_isolated`] with a cooperative
//!    [`Budget`] armed (wall-clock `--cell-timeout`, the zero-advance
//!    livelock bound, and the SIGINT/SIGTERM cancel flag), so `--jobs`,
//!    budget enforcement, and panic isolation apply per cell and a wide
//!    target cannot serialize behind a narrow one;
//! 4. retries failed cells up to `--retries` times with exponential
//!    backoff, re-running deterministically (same seed): two identical
//!    consecutive outcomes quarantine the cell as deterministic, while
//!    an environment flake passes on retry;
//! 5. records every cell's fate in `manifest.json` as it lands (cache
//!    write first, then the `ok` record, so a ledger `ok` implies a
//!    replayable cache or a re-run), and writes the full failure
//!    dossier — per-cell attempts, durations, classifications — to
//!    `failures.json` (an empty, byte-stable file on a clean sweep);
//! 6. assembles, renders and saves each fully-ok target serially in
//!    command-line order — cells print nothing, so stdout is
//!    byte-identical across `--jobs` and resumed runs — and reports
//!    failed cells on stderr with a classification summary table.
//!
//! On SIGINT/SIGTERM the cancel flag rises, in-flight cells unwind at
//! their next budget check as `interrupted`, pending cells fail fast
//! without running, the manifest is flushed, and
//! [`ExecSummary::interrupted`] tells the caller to exit with the
//! "interrupted, resumable" code — `--resume` then continues the sweep
//! byte-identically.
//!
//! Progress chatter (`resume: ...`, `retry: ...`) goes to stderr for
//! the same reason as failures: stdout carries only the report.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Re-run a failed cell up to this many extra times (`--retries`),
    /// with exponential backoff; quarantine after two identical
    /// consecutive outcomes.
    pub retries: usize,
}

/// What [`run`] did, for exit-code and audit-gating decisions.
#[derive(Debug, Clone, Copy)]
pub struct ExecSummary {
    /// Cells across all requested targets.
    pub total_cells: usize,
    /// Cells actually executed this run (not replayed from the cache).
    pub executed_cells: usize,
    /// Cells that exhausted their attempts this run (interrupted cells
    /// are counted separately — they are unfinished, not failed).
    pub failed_cells: usize,
    /// The sweep was cancelled (SIGINT/SIGTERM): in-flight cells
    /// unwound cleanly, the manifest is flushed, `--resume` continues.
    pub interrupted: bool,
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
#[derive(Clone)]
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

/// One failed attempt at a cell: its classification and how long the
/// attempt ran. Durations appear only here — never in the manifest or
/// any artifact a determinism check diffs.
struct Attempt {
    error: CellError,
    duration_ms: u64,
}

/// A cell that failed its first attempt, with the full attempt history
/// the supervisor accumulates while retrying.
struct FailureEntry {
    item: WorkItem,
    attempts: Vec<Attempt>,
    /// Two identical consecutive outcomes: deterministic failure,
    /// retrying further cannot help.
    quarantined: bool,
}

impl FailureEntry {
    fn last_error(&self) -> &CellError {
        &self.attempts.last().expect("at least one attempt").error
    }

    /// The table's outcome word.
    fn outcome(&self) -> &'static str {
        if self.quarantined {
            "quarantined"
        } else if matches!(self.last_error(), CellError::Interrupted) {
            "interrupted"
        } else {
            "failed"
        }
    }
}

/// Exponential backoff before retry attempt `n` (the first retry is
/// `n == 2`): 100 ms doubling per attempt, capped at 5 s.
fn backoff_before_attempt(n: usize) -> Duration {
    let exp = (n.saturating_sub(2)).min(6) as u32;
    Duration::from_millis(100 << exp).min(Duration::from_secs(5))
}

/// Render `failures.json`: the per-cell attempt dossier. A clean sweep
/// writes a byte-stable empty report, so determinism checks can diff
/// output directories wholesale.
fn render_failures(entries: &[FailureEntry]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"failures\": [");
    let last = entries.len().saturating_sub(1);
    for (i, entry) in entries.iter().enumerate() {
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"cell\": \"{}\",\n", escape(&entry.item.key)));
        out.push_str(&format!("      \"seed\": {},\n", entry.item.seed));
        out.push_str(&format!("      \"class\": \"{}\",\n", entry.last_error().class()));
        out.push_str(&format!("      \"quarantined\": {},\n", entry.quarantined));
        out.push_str("      \"attempts\": [");
        let alast = entry.attempts.len().saturating_sub(1);
        for (j, attempt) in entry.attempts.iter().enumerate() {
            out.push_str(&format!(
                "\n        {{\"class\": \"{}\", \"message\": \"{}\", \"duration_ms\": {}}}",
                attempt.error.class(),
                escape(&attempt.error.message()),
                attempt.duration_ms
            ));
            if j != alast {
                out.push(',');
            }
        }
        if !entry.attempts.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
        if i != last {
            out.push(',');
        }
    }
    if !entries.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}

fn write_failures(dir: &Path, entries: &[FailureEntry]) {
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
        let tmp = dir.join("failures.json.tmp");
        let path = dir.join("failures.json");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(render_failures(entries).as_bytes())?;
        drop(f);
        std::fs::rename(&tmp, path)
    }) {
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
    eprintln!("{:width$}  {:15}  {:8}  outcome", "cell", "class", "attempts");
    for entry in entries {
        eprintln!(
            "{:width$}  {:15}  {:8}  {}",
            entry.item.key,
            entry.last_error().class(),
            entry.attempts.len(),
            entry.outcome()
        );
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
    // byte of any artifact.
    let cell_budget = Budget {
        wall_clock: opts.cell_timeout,
        max_events: None,
        livelock_events: Some(Budget::DEFAULT_LIVELOCK_EVENTS),
        observe_cancel: true,
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
    let executed_cells = work.len();
    if opts.resume && executed_cells == 0 && total_cells > 0 {
        eprintln!(
            "resume: all {total_cells} requested cells already ok in {}",
            opts.manifest_dir.join("manifest.json").display()
        );
    }

    // As cells finish, their fate lands in the manifest on disk, so a
    // killed or interrupted sweep still leaves an accurate ledger for
    // --resume.
    let ledger = Arc::new(Mutex::new(ledger));
    let recorder = {
        let ledger = Arc::clone(&ledger);
        let dir = opts.manifest_dir.clone();
        move |key: &str, record: CellRecord| {
            let mut m = ledger.lock().unwrap_or_else(|e| e.into_inner());
            m.record(key, record);
            if let Err(e) = m.write(&dir) {
                eprintln!("warning: failed to write manifest: {e}");
            }
        }
    };

    // One successful cell execution: run, cache, record `ok`. Shared
    // by the sweep pass and the retry loop so a retried success takes
    // the identical path (cache before the ok record, as always).
    let run_item = {
        let on_ok = recorder.clone();
        move |item: &WorkItem| {
            let (out, json) = item.exp.run_cell_dyn(scale, item.cell_idx);
            if let Err(e) = write_cell_cache(&item.cache, &json) {
                eprintln!("warning: failed to write cell cache {}: {e}", item.cache.display());
            }
            on_ok(&item.key, CellRecord::ok());
            out
        }
    };

    let items: Vec<WorkItem> = work.clone();
    let outcomes = runner::run_cells(work, |item: WorkItem| {
        // A cell claimed after the cancel flag rose fails fast without
        // running, so shutdown latency is one in-flight cell, not the
        // whole queue.
        if budget::cancel_requested() {
            return (Err(CellError::Interrupted), 0u64);
        }
        let start = Instant::now();
        let result = runner::run_one_isolated(cell_budget, || run_item(&item));
        (result, start.elapsed().as_millis() as u64)
    });

    // Collect first-attempt failures, then retry them serially (the
    // exception path: contention is not worth extra machinery), in
    // input order, deterministically re-running with the same seed.
    let mut failures: Vec<FailureEntry> = Vec::new();
    let mut fresh: HashMap<String, Box<dyn std::any::Any + Send>> = HashMap::new();
    for ((result, duration_ms), item) in outcomes.into_iter().zip(items) {
        match result {
            Ok(out) => {
                fresh.insert(item.key.clone(), out);
            }
            Err(error) => {
                recorder(&item.key, CellRecord::failed(error.status(), error.message()));
                failures.push(FailureEntry {
                    item,
                    attempts: vec![Attempt { error, duration_ms }],
                    quarantined: false,
                });
            }
        }
    }

    let max_attempts = opts.retries + 1;
    let mut unresolved: Vec<FailureEntry> = Vec::new();
    for mut entry in failures {
        loop {
            let made = entry.attempts.len();
            if made >= 2 && entry.attempts[made - 1].error == entry.attempts[made - 2].error {
                entry.quarantined = true;
                eprintln!(
                    "retry: quarantining {} ({} twice, deterministic)",
                    entry.item.key,
                    entry.last_error().class()
                );
                break;
            }
            if made >= max_attempts
                || !entry.last_error().is_retryable()
                || budget::cancel_requested()
            {
                break;
            }
            let attempt_no = made + 1;
            std::thread::sleep(backoff_before_attempt(attempt_no));
            eprintln!(
                "retry: {} attempt {attempt_no}/{max_attempts} (last: {})",
                entry.item.key,
                entry.last_error().class()
            );
            let start = Instant::now();
            let result = runner::run_one_isolated(cell_budget, || run_item(&entry.item));
            let duration_ms = start.elapsed().as_millis() as u64;
            match result {
                Ok(out) => {
                    eprintln!("retry: {} succeeded on attempt {attempt_no} (flake)", entry.item.key);
                    fresh.insert(entry.item.key.clone(), out);
                    entry.attempts.clear();
                    break;
                }
                Err(error) => {
                    recorder(&entry.item.key, CellRecord::failed(error.status(), error.message()));
                    entry.attempts.push(Attempt { error, duration_ms });
                }
            }
        }
        if !entry.attempts.is_empty() {
            unresolved.push(entry);
        }
    }

    // The dossier is written unconditionally: byte-stable and empty on
    // a clean sweep, so diff -r over output directories keeps working.
    write_failures(&opts.manifest_dir, &unresolved);

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
        || unresolved
            .iter()
            .any(|e| matches!(e.last_error(), CellError::Interrupted));
    let failed: Vec<&FailureEntry> = unresolved
        .iter()
        .filter(|e| !matches!(e.last_error(), CellError::Interrupted))
        .collect();
    if !unresolved.is_empty() {
        for entry in &unresolved {
            match entry.last_error() {
                CellError::Interrupted => eprintln!("interrupted cell {}", entry.item.key),
                err => eprintln!("FAILED cell {}: {}", entry.item.key, err.message()),
            }
        }
        print_failure_table(&unresolved);
        if !failed.is_empty() {
            eprintln!(
                "{} of {} cells failed; see {} and {}",
                failed.len(),
                total_cells,
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
        total_cells,
        executed_cells,
        failed_cells: failed.len(),
        interrupted,
    }
}
