//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--audit] [--jobs N] [--out DIR]
//!       [--resume] [--cell-timeout SECS] <experiment>... | all | list
//! repro run <scenario.toml>...
//! ```
//!
//! The binary is a thin shell: targets (and figure aliases like
//! `fig4` -> `fig45`) resolve against the [`registry`], and everything
//! registered runs through the one execution path in [`exec`] — a flat
//! sweep over every requested experiment's cells with parallelism
//! (`--jobs`), per-cell crash isolation and `--cell-timeout`, a
//! per-cell `manifest.json` ledger plus output cache for `--resume`,
//! and `--audit`. `repro list` prints the registry.
//!
//! Cells are seeded independently and collected in declaration order,
//! so tables, JSON and CSV are byte-identical across `--jobs`
//! settings and resumed runs.
//!
//! # Supervision, crash isolation, and resumption
//!
//! Each cell runs under `catch_unwind` with a cooperative budget armed
//! (the `--cell-timeout` wall clock, a zero-clock-advance livelock
//! bound, and the SIGINT/SIGTERM cancel flag — all checked between
//! the simulator's events): a panicking, over-budget, livelocked
//! or cancelled simulation unwinds cleanly on its own worker thread
//! (joined, never abandoned), fails its own cell, and its siblings
//! complete. As cells finish, their fate is recorded in
//! `<results dir>/manifest.json` (no timestamps) and their output is
//! cached under `<results dir>/cells/`, so `--resume` replays
//! everything already `ok` at the same scale and re-runs only the
//! failures and the never-attempted; `<results dir>/failures.json`
//! holds one record per failed cell (cell, seed, class, message).
//! A failed cell is not retried in-process: a cell is a pure function
//! of code, cell spec and seed, so only `--resume` re-runs it.
//!
//! Under `--audit` every simulation runs under the packet/timer
//! invariant auditor, and a cell whose simulations break an invariant
//! fails as `audit-violation` like any other failed cell. The closing
//! `audit:` line sums the reports of the cells executed in this run;
//! cells replayed from the cache are not re-audited.
//!
//! Exit codes: 0 success, 1 cells failed (audit violations included),
//! 130 interrupted by SIGINT/SIGTERM (manifest flushed, resumable).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use slowcc_experiments::scale::Scale;
use slowcc_experiments::{dsl, exec, registry, runner};
use slowcc_netsim::budget;

/// Exit code for an interrupted, resumable sweep (128 + SIGINT, the
/// shell convention).
const EXIT_INTERRUPTED: u8 = 130;

/// Graceful preemption: SIGINT/SIGTERM raise the process-global cancel
/// flag; every in-flight cell observes it at its next budget check and
/// unwinds as `interrupted` with the manifest flushed. A second signal
/// exits immediately (the escape hatch when a cell is stuck outside
/// the simulator, where cooperative cancellation cannot reach).
///
/// This is the only unsafe code in the workspace (every library crate
/// is `#![forbid(unsafe_code)]`): two raw `signal(2)` registrations,
/// hand-declared because no libc binding crate is vendored. The
/// handler body is async-signal-safe — a relaxed atomic load/store and
/// `_exit`.
mod signals {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_signal(_signum: i32) {
        if slowcc_netsim::budget::cancel_requested() {
            // Second signal: the user insists. `_exit` skips atexit
            // machinery, which is all that is async-signal-safe here.
            unsafe { _exit(i32::from(super::EXIT_INTERRUPTED)) }
        }
        slowcc_netsim::budget::request_cancel();
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut out: Option<PathBuf> = None;
    let mut audit_run = false;
    let mut jobs = runner::default_jobs();
    let mut resume = false;
    let mut cell_timeout: Option<Duration> = None;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--audit" => audit_run = true,
            "--resume" => resume = true,
            "--out" => match args.next() {
                Some(dir) => out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs requires a thread count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--cell-timeout" => match args.next().as_deref().and_then(parse_cell_timeout) {
                Some(limit) => cell_timeout = Some(limit),
                None => {
                    eprintln!("--cell-timeout requires a positive number of seconds");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    // `list` is a CLI listing, not a sweep: print the registry and
    // leave the filesystem untouched.
    if names.iter().any(|n| n == "list") {
        print!("{}", registry::list_text());
        return ExitCode::SUCCESS;
    }

    // `run <scenario.toml>...` compiles declarative scenario files into
    // experiments on the fly; everything downstream (manifest, --resume,
    // --jobs, --audit, budgets) is the same exec::run path.
    let targets = if names[0] == "run" {
        if names.len() == 1 {
            eprintln!("run requires at least one scenario file (repro run <scenario.toml>...)");
            return ExitCode::FAILURE;
        }
        let mut targets = Vec::new();
        for path in &names[1..] {
            match dsl::load_experiment(std::path::Path::new(path)) {
                Ok(exp) => targets.push(exp),
                Err(err) => {
                    eprintln!("{err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        targets
    } else {
        match registry::resolve_targets(&names) {
            Ok(targets) => targets,
            Err(unknown) => {
                eprintln!("unknown experiment: {unknown}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    };

    signals::install();
    budget::reset_cancel();

    // The manifest ledger lives next to the other outputs; without
    // `--out` it still goes to `results/` so a bare sweep is resumable.
    let manifest_dir = out.clone().unwrap_or_else(|| PathBuf::from("results"));
    let opts = exec::ExecOptions {
        scale,
        out,
        manifest_dir,
        resume,
        cell_timeout,
        jobs,
        audit: audit_run,
    };
    let summary = exec::run(&targets, &opts);
    if audit_run {
        match &summary.audit {
            Some(report) => println!("audit: {}", report.summary()),
            None => eprintln!("audit: no simulation was audited in this run"),
        }
    }
    if summary.interrupted {
        // Resumable; 130 = 128 + SIGINT.
        ExitCode::from(EXIT_INTERRUPTED)
    } else if summary.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A `--cell-timeout` value: a positive number of seconds that both a
/// `Duration` and a deadline `Instant` can represent.
fn parse_cell_timeout(arg: &str) -> Option<Duration> {
    let limit = Duration::try_from_secs_f64(arg.parse().ok()?).ok()?;
    (!limit.is_zero() && Instant::now().checked_add(limit).is_some()).then_some(limit)
}

fn usage() {
    eprintln!(
        "usage: repro [--quick] [--audit] [--jobs N] [--out DIR] [--resume] \
         [--cell-timeout SECS] <experiment>... | all | list | run <scenario.toml>..."
    );
    eprintln!("experiments: {}", registry::names_line());
    eprintln!("run <scenario.toml>... compiles declarative scenario files (see examples/scenarios/)");
    eprintln!("         into experiments and sweeps them through the same execution path");
    eprintln!("aliases: {}", registry::aliases_line());
    eprintln!("--jobs N caps the sweep at N threads (default: available parallelism)");
    eprintln!("--audit runs every simulation under the packet/timer invariant auditor;");
    eprintln!("        a conservation violation or timer leak fails its cell (audit-violation)");
    eprintln!("--resume replays cells marked ok in <results dir>/manifest.json (same scale)");
    eprintln!("         from the cell cache and re-runs only failed or never-attempted cells");
    eprintln!("--cell-timeout SECS arms a cooperative wall-clock budget per cell; an");
    eprintln!("         over-budget simulation unwinds cleanly and fails only its own cell");
    eprintln!("exit codes: 0 ok; 1 cells failed (audit violations included); 130 interrupted");
    eprintln!("         (SIGINT/SIGTERM: manifest flushed, rerun with --resume to continue)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_timeout_rejects_what_a_deadline_cannot_hold() {
        assert_eq!(parse_cell_timeout("30"), Some(Duration::from_secs(30)));
        assert_eq!(parse_cell_timeout("0.5"), Some(Duration::from_millis(500)));
        // `Duration` overflow (1e30, inf, 1e400 parses to inf), `Instant`
        // overflow (1e19 s fits a `Duration`), and the non-positive.
        for bad in ["1e30", "inf", "1e400", "1e19", "0", "-1", "nan", "soon"] {
            assert_eq!(parse_cell_timeout(bad), None, "{bad}");
        }
    }
}
