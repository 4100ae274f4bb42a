//! `benchmark` — the repo benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds T --trace 0|1 [--out DIR]
//! benchmark --all   [--seed S] [--rounds R] [--seconds T] [--out DIR]
//! benchmark --smoke [--out DIR]
//! benchmark --compare A.json B.json
//! benchmark --print-manifest
//! ```
//!
//! The first form is what the driver runs (through `benchmark/run.sh`,
//! which builds `repro` and this binary first): one workload, inputs
//! derived from `--seed`, measured for `--seconds`, and as the last line
//! of stdout one JSON object `{correct, attempted, failed, metrics}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced pass with `--trace 1`. See `benchmark/README.md`.
//!
//! Every layer is measured from outside: by timing calls into the
//! crates' public API, or by wrapping the trait objects that API
//! accepts. Nothing under `crates/` knows this program exists.

mod compare;
mod host;
mod micro;
mod pace;
mod proxy;
mod quant;
mod report;
mod simbench;
mod simload;
mod spans;
mod spec;
mod suite;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunResult;
use spec::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload W --seed N --seconds T --trace 0|1 [--out DIR]\n       \
         benchmark --all [--seed S] [--rounds R] [--seconds T] [--out DIR]\n       \
         benchmark --smoke [--out DIR]\n       \
         benchmark --compare A.json B.json\n       \
         benchmark --print-manifest\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

/// `<target dir>/benchmark`, beside the `release/` this binary runs from:
/// inside the checkout and ignored by git.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// Refuse to measure a build whose release profile is not the
/// workspace's: this package is its own workspace root, so cargo reads
/// the profile from `benchmark/Cargo.toml`, and the in-process workloads
/// must see the library exactly as `repro` compiles it.
fn check_profile() -> Result<(), String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p} (run from the repository root): {e}"))
    };
    let (root, own) = (
        suite::release_profile(&read("Cargo.toml")?),
        suite::release_profile(&read("benchmark/Cargo.toml")?),
    );
    if root == own {
        Ok(())
    } else {
        Err(format!("[profile.release] differs: Cargo.toml has {root:?}, benchmark/Cargo.toml has {own:?}; copy the workspace's table"))
    }
}

fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<RunResult, String> {
    let io = |e: std::io::Error| format!("{}: {e}", workload.name());
    let (result, trace_doc) = match (workload, trace) {
        (Workload::Sim(w), false) => (simbench::timed(w, seed, seconds), None),
        (Workload::Sim(w), true) => {
            let (result, doc) = simbench::traced(w, seed, seconds).map_err(io)?;
            (result, Some(doc))
        }
        (Workload::SweepCold, false) => (
            sweep::Sweeper::new(out)?.timed_cold(seconds).map_err(io)?,
            None,
        ),
        (Workload::SweepResume, false) => (
            sweep::Sweeper::new(out)?
                .timed_resume(seconds)
                .map_err(io)?,
            None,
        ),
        (Workload::SweepCold | Workload::SweepResume, true) => {
            let (result, doc) = sweep::Sweeper::new(out)?.traced().map_err(io)?;
            (result, Some(doc))
        }
    };
    if let Some(doc) = trace_doc {
        let doc = report::obj(vec![
            ("workload", report::s(workload.name())),
            ("seed", report::int(seed)),
            ("trace", doc),
        ]);
        let path = out.join(format!("trace.{}.json", workload.name()));
        let text = serde_json::to_string_pretty(&doc).expect("a Value tree always renders");
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
    }
    Ok(result)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    rounds: usize,
    out: Option<PathBuf>,
    all: bool,
    smoke: bool,
    compare: Vec<String>,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        rounds: 10,
        out: None,
        all: false,
        smoke: false,
        compare: Vec::new(),
        print_manifest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed requires a whole number")?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seconds requires a whole number")?,
                )
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace requires 0 or 1".to_string()),
                }
            }
            "--rounds" => {
                a.rounds = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or("--rounds requires a count >= 1")?
            }
            "--out" => a.out = Some(PathBuf::from(value("a directory")?)),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = vec![value("two report files")?, value("two report files")?],
            "--print-manifest" => a.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // First, while this process is as small as it gets (see `host::launch`).
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "--launch") {
        return match host::launch(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark --launch: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if args.print_manifest {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = if let [a, b] = args.compare.as_slice() {
        let load = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| serde_json::parse(&t).map_err(|e| format!("{p}: {e}")))
        };
        load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b)))
    } else {
        let out = args.out.unwrap_or_else(default_out);
        let prepared = check_profile().and_then(|()| {
            std::fs::create_dir_all(&out)
                .map_err(|e| format!("cannot create {}: {e}", out.display()))
        });
        prepared.and_then(|()| {
            if args.smoke {
                suite::run(
                    &suite::SuiteOpts {
                        seed: args.seed,
                        rounds: 1,
                        seconds: 1,
                    },
                    &out,
                )
            } else if args.all {
                let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS);
                suite::run(
                    &suite::SuiteOpts {
                        seed: args.seed,
                        rounds: args.rounds,
                        seconds,
                    },
                    &out,
                )
            } else if let Some(name) = &args.workload {
                let workload =
                    Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
                let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS) as f64;
                let result = run_workload(workload, args.seed, seconds, args.trace, &out)?;
                println!("{}", result.json_line());
                Ok(true)
            } else {
                Err(
                    "nothing to do: give --workload, --all, --smoke, --compare or --print-manifest"
                        .to_string(),
                )
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
