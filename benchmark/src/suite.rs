//! `--all` / `--smoke`: every workload for several rounds, each run a
//! child process of this binary in the driver's own form, then one
//! traced run per workload; prints every metric by name with its unit
//! and writes `<out>/report.json` for `--compare`.

use std::path::Path;
use std::process::{Command, Stdio};

use serde::Value;

use crate::host;
use crate::quant::{quartiles, spread};
use crate::report::{field, fields, int, number, obj, s};
use crate::spec::{Workload, END_TO_END};

pub struct SuiteOpts {
    pub seed: u64,
    pub rounds: usize,
    pub seconds: u64,
}

/// One `--workload` run of this binary; its parsed result line.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", workload.name()))?;
    serde_json::parse(line)
        .map_err(|e| format!("{}: result line does not parse: {e}", workload.name()))
}

/// The `[profile.release]` table of a manifest, as sorted `key = value`
/// lines without comments: build settings move speed without any code
/// changing, so the report records them and the benchmark's own copy
/// must match the workspace's.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn provenance(opts: &SuiteOpts, load_start: Option<f64>) -> Value {
    let nproc = host::nproc();
    let mut warnings = Vec::new();
    if nproc < 2 {
        warnings.push(s(
            "nproc < 2: experiments.runner.parallel_eff was measured at --jobs 1",
        ));
    }
    if load_start.is_some_and(|l| l > nproc as f64) {
        warnings.push(s(
            "host busy: the 1-minute load average exceeded nproc when the suite started",
        ));
    }
    let load = |l: Option<f64>| l.map_or(Value::Null, Value::Float);
    let profile = std::fs::read_to_string("Cargo.toml")
        .map(|m| release_profile(&m))
        .unwrap_or_default();
    obj(vec![
        ("seed", int(opts.seed)),
        ("rounds", int(opts.rounds as u64)),
        ("run_seconds", int(opts.seconds)),
        ("jobs", int(crate::spec::SWEEP_JOBS as u64)),
        ("parallel_jobs", int(nproc.min(2) as u64)),
        ("nproc", int(nproc as u64)),
        ("loadavg_1m_start", load(load_start)),
        ("loadavg_1m_end", load(host::loadavg_1m())),
        ("rustc", s(command_line("rustc", &["--version"]))),
        ("git_commit", s(command_line("git", &["rev-parse", "HEAD"]))),
        (
            "profile_release",
            Value::Array(profile.into_iter().map(s).collect()),
        ),
        ("warnings", Value::Array(warnings)),
    ])
}

/// Run the suite. `Ok(true)` when every run of every workload was correct.
pub fn run(opts: &SuiteOpts, out: &Path) -> Result<bool, String> {
    let load_start = host::loadavg_1m();
    let mut all_correct = true;
    // samples[workload][metric] over the rounds; round-robin, so a noisy
    // spell on the host lands on every workload alike.
    let mut samples = vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()];
    let mut failed = vec![0.0; Workload::ALL.len()];
    let mut attempted = vec![0.0; Workload::ALL.len()];
    for round in 0..opts.rounds {
        for (w, workload) in Workload::ALL.iter().enumerate() {
            let seed = opts.seed + round as u64;
            eprintln!(
                "== round {} of {}: {} --seed {seed}",
                round + 1,
                opts.rounds,
                workload.name()
            );
            let result = run_child(*workload, seed, opts.seconds, false, out)?;
            all_correct &= field(&result, "correct") == Some(&Value::Bool(true));
            failed[w] += field(&result, "failed")
                .and_then(number)
                .unwrap_or(f64::NAN);
            attempted[w] += field(&result, "attempted")
                .and_then(number)
                .unwrap_or(f64::NAN);
            let metrics = field(&result, "metrics").ok_or("result line has no metrics")?;
            for (m, spec) in END_TO_END.iter().enumerate() {
                let value = field(metrics, spec.name)
                    .and_then(|v| field(v, "value"))
                    .and_then(number);
                samples[w][m].push(
                    value.ok_or_else(|| {
                        format!("{}: no value for {}", workload.name(), spec.name)
                    })?,
                );
            }
        }
    }

    let mut workloads = Vec::new();
    println!(
        "\n{:<16} {:<15} {:>14} {:>14} {:>14} {:>3} {:>7} {:>6}",
        "workload", "metric", "median", "p25", "p75", "n", "spread", "bound"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        eprintln!("== traced pass: {}", workload.name());
        let traced = run_child(*workload, opts.seed, opts.seconds, true, out)?;
        all_correct &= field(&traced, "correct") == Some(&Value::Bool(true));
        let mut end_to_end = Vec::new();
        for (m, spec) in END_TO_END.iter().enumerate() {
            let values = &samples[w][m];
            let (p25, p50, p75) = quartiles(values);
            println!(
                "{:<16} {:<15} {p50:>14.6e} {p25:>14.6e} {p75:>14.6e} {:>3} {:>6.2}% {:>5.0}%  {} ({} is better)",
                workload.name(),
                spec.name,
                values.len(),
                spread(values) * 100.0,
                spec.bound * 100.0,
                spec.unit,
                spec.better,
            );
            end_to_end.push((
                spec.name,
                obj(vec![
                    ("unit", s(spec.unit)),
                    ("median", Value::Float(p50)),
                    ("p25", Value::Float(p25)),
                    ("p75", Value::Float(p75)),
                    ("n", int(values.len() as u64)),
                    ("spread", Value::Float(spread(values))),
                    (
                        "samples",
                        Value::Array(values.iter().map(|v| Value::Float(*v)).collect()),
                    ),
                ]),
            ));
        }
        let per_layer = field(&traced, "metrics").ok_or("traced result line has no metrics")?;
        for (name, metric) in fields(per_layer).unwrap_or(&[]) {
            let value = field(metric, "value").and_then(number).unwrap_or(f64::NAN);
            let unit = match field(metric, "unit") {
                Some(Value::String(u)) => u.as_str(),
                _ => "",
            };
            if value != 0.0 {
                println!("{:<16} {name:<44} {value:>14.6e} {unit}", workload.name());
            }
        }
        workloads.push((
            workload.name(),
            obj(vec![
                ("attempted", Value::Float(attempted[w])),
                ("failed", Value::Float(failed[w])),
                ("end_to_end", obj(end_to_end)),
                ("per_layer", per_layer.clone()),
            ]),
        ));
    }

    let bounds = END_TO_END.iter().map(|m| {
        (
            m.name,
            obj(vec![
                ("unit", s(m.unit)),
                ("better", s(m.better)),
                ("bound", Value::Float(m.bound)),
            ]),
        )
    });
    let report = obj(vec![
        ("provenance", provenance(opts, load_start)),
        ("end_to_end", obj(bounds.collect())),
        ("workloads", obj(workloads)),
    ]);
    let path = out.join("report.json");
    let text = serde_json::to_string_pretty(&report).expect("a Value tree always renders");
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\nreport: {}   traces: {}/trace.<workload>.json",
        path.display(),
        out.display()
    );
    println!(
        "{}",
        if all_correct {
            "every check passed"
        } else {
            "SOME CHECKS FAILED (see CHECK FAILED lines above)"
        }
    );
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_one_table_without_comments() {
        let manifest = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\n# a comment\nlto   =  \"thin\"\ncodegen-units = 1\n\n[profile.bench]\ndebug = true\n";
        assert_eq!(
            release_profile(manifest),
            ["codegen-units = 1", "debug = true", "lto = \"thin\""]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn benchmark_profile_matches_the_workspace_profile() {
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(root, release_profile(include_str!("../Cargo.toml")));
    }
}
