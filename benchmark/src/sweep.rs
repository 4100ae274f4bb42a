//! The two sweep workloads: `repro` as a child process, cold into a
//! fresh `--out` and replayed with `--resume` from a primed one; and
//! their traced pass, which replays the same cells serially in-process
//! with one span per cell and times the executor's readers.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;
use slowcc_experiments::manifest::Manifest;
use slowcc_experiments::registry;
use slowcc_experiments::scale::Scale;

use crate::host::{self, Usage};
use crate::pace::Pacer;
use crate::quant::{median, percentile};
use crate::report::{int, obj, s as text, Checks, Metrics, RunResult, Samples};
use crate::simload::Fnv;
use crate::spans::Tracer;
use crate::spec::{Workload, REPLAYS_PER_ITERATION, SWEEP_JOBS, SWEEP_TARGETS};

/// One finished `repro` child.
struct ChildRun {
    code: Option<i32>,
    wall_s: f64,
    usage: Usage,
    stdout: Vec<u8>,
    stderr: String,
}

/// One target's child of a cold sweep that runs a child per target.
struct TargetRun {
    run: ChildRun,
    /// The host's slowness while the child ran (see `pace`).
    slowness: f64,
    /// The child's `--out`.
    dir: PathBuf,
}

pub struct Sweeper {
    repro: PathBuf,
    /// Scratch directory of this run, removed on drop.
    scratch: PathBuf,
    /// Worker threads of every timed `repro` child: [`SWEEP_JOBS`].
    jobs: usize,
    /// `min(nproc, 2)`: the one child of the traced pass that measures
    /// how well the runner keeps more than one worker busy.
    parallel_jobs: usize,
    /// Cells of each sweep target at `--quick`, from the registry itself.
    target_cells: Vec<usize>,
    next_dir: usize,
}

impl Drop for Sweeper {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// FNV-1a over the relative path and bytes of every file under `dir`,
/// in sorted order, with the byte total.
fn tree_digest(dir: &Path) -> std::io::Result<(u64, u64)> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files)?;
    files.sort();
    let (mut hash, mut bytes) = (Fnv::new(), 0u64);
    for path in files {
        let rel = path.strip_prefix(dir).expect("walked paths are under dir");
        hash.bytes(rel.to_string_lossy().as_bytes());
        let data = std::fs::read(&path)?;
        bytes += data.len() as u64;
        hash.bytes(&data);
    }
    Ok((hash.0, bytes))
}

/// Lines of `replayed` that differ from `cold`, split into the known
/// mismatch (the cell cache stores `inf` as `null` and replays it as
/// `nan`) and everything else.
fn replay_mismatches(cold: &[u8], replayed: &[u8]) -> (usize, usize) {
    let (cold, replayed) = (
        String::from_utf8_lossy(cold),
        String::from_utf8_lossy(replayed),
    );
    let (mut known, mut other) = (0, 0);
    let mut replayed_lines = replayed.lines();
    for want in cold.lines() {
        match replayed_lines.next() {
            Some(got) if got == want => {}
            Some(got) if got.contains("nan") && got.replace("nan", "inf") == want => known += 1,
            _ => other += 1,
        }
    }
    (known, other + replayed_lines.count())
}

impl Sweeper {
    /// `repro` is built beside this binary by `benchmark/run.sh`.
    pub fn new(scratch_root: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let repro = exe.with_file_name("repro");
        if !repro.is_file() {
            return Err(format!(
                "{} is missing: run benchmark/run.sh, which builds it",
                repro.display()
            ));
        }
        let scratch = scratch_root.join(format!("sweep-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        Ok(Sweeper {
            repro,
            scratch,
            jobs: SWEEP_JOBS,
            parallel_jobs: host::nproc().min(2),
            target_cells: SWEEP_TARGETS
                .iter()
                .map(|t| registry::find(t).map_or(0, |e| e.cell_meta(Scale::Quick).len()))
                .collect(),
            next_dir: 0,
        })
    }

    /// Cells of the whole sweep.
    fn cells(&self) -> usize {
        self.target_cells.iter().sum()
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.next_dir += 1;
        self.scratch.join(format!("out-{}", self.next_dir))
    }

    /// Run `repro` with `args` through a launcher (see `host::launch`),
    /// stdout and stderr to files (a pipe nobody drains could block it).
    fn repro(&self, args: &[&str]) -> std::io::Result<ChildRun> {
        let (out_path, err_path) = (self.scratch.join("stdout"), self.scratch.join("stderr"));
        let launched = host::run_launched(
            &self.scratch.join("launched"),
            &self.repro,
            args,
            File::create(&out_path)?,
            File::create(&err_path)?,
        )?;
        Ok(ChildRun {
            code: launched.code,
            wall_s: launched.wall_s,
            usage: launched.usage,
            stdout: std::fs::read(&out_path)?,
            stderr: String::from_utf8_lossy(&std::fs::read(&err_path)?).into_owned(),
        })
    }

    /// `repro --quick <targets> --jobs J --out <out>`, plus `extra`.
    fn sweep(
        &self,
        targets: &[&str],
        out: &Path,
        jobs: usize,
        extra: &[&str],
    ) -> std::io::Result<ChildRun> {
        let (jobs, out) = (jobs.to_string(), out.to_string_lossy().into_owned());
        let mut args = vec!["--quick", "--jobs", &jobs, "--out", &out];
        args.extend_from_slice(extra);
        args.extend_from_slice(targets);
        self.repro(&args)
    }

    /// A cold sweep of `targets` into `dir` (with `extra` arguments),
    /// checked: exit 0 and the manifest there holds `cells` cells, every
    /// one `ok`.
    fn cold_checked(
        &self,
        targets: &[&str],
        dir: &Path,
        extra: &[&str],
        cells: usize,
        jobs: usize,
        checks: &mut Checks,
    ) -> std::io::Result<ChildRun> {
        let run = self.sweep(targets, dir, jobs, extra)?;
        checks.check(run.code == Some(0), || {
            format!("cold sweep exited with {:?}: {}", run.code, run.stderr)
        });
        let manifest = Manifest::load(dir);
        let ok = manifest
            .as_ref()
            .map_or(0, |m| m.cells.values().filter(|c| c.status == "ok").count());
        let total = manifest.as_ref().map_or(0, |m| m.cells.len());
        checks.check(ok == cells && ok == total, || {
            format!("cold sweep: {ok} of {total} manifest cells ok, {cells} expected")
        });
        Ok(run)
    }

    /// A checked cold sweep of every target in one child, into a fresh
    /// directory. Returns the run and its directory.
    fn cold_all(
        &mut self,
        jobs: usize,
        checks: &mut Checks,
    ) -> std::io::Result<(ChildRun, PathBuf)> {
        let dir = self.fresh_dir();
        let run = self.cold_checked(&SWEEP_TARGETS, &dir, &[], self.cells(), jobs, checks)?;
        Ok((run, dir))
    }

    /// One timed cold sweep: a checked `repro` child per target, each
    /// between two blocks of beats (children of a few milliseconds share
    /// a pair, see `Pacer::mark`). With `shared`, every child writes into
    /// one fresh directory under `--resume`: none of its cells is there
    /// yet, so it runs them all, and it keeps the earlier targets'
    /// manifest entries, so the directory ends as exactly what one child
    /// over all targets leaves. Else each writes into a fresh directory
    /// of its own.
    ///
    /// A child per target keeps every timed interval short (2 ms to
    /// 0.7 s, not 3 s), so the host's slowness is sampled right beside
    /// the work it scales (see `pace`), and a slow spell of the host
    /// spoils one target's sample of one sweep, which that target's
    /// median over the sweeps rejects.
    fn cold_by_target(
        &mut self,
        pacer: &mut Pacer,
        shared: bool,
        checks: &mut Checks,
    ) -> std::io::Result<Vec<TargetRun>> {
        let shared = shared.then(|| self.fresh_dir());
        let (mut parts, mut cells_so_far) = (Vec::new(), 0);
        for (target, cells) in SWEEP_TARGETS.iter().zip(self.target_cells.clone()) {
            let dir = shared.clone().unwrap_or_else(|| self.fresh_dir());
            let extra: &[&str] = if shared.is_some() { &["--resume"] } else { &[] };
            cells_so_far = if shared.is_some() {
                cells_so_far + cells
            } else {
                cells
            };
            let mark = pacer.mark();
            let run = self.cold_checked(&[target], &dir, extra, cells_so_far, self.jobs, checks)?;
            parts.push((mark, run, dir));
        }
        pacer.close();
        Ok(parts
            .into_iter()
            .map(|(mark, run, dir)| TargetRun {
                run,
                slowness: pacer.slowness(mark),
                dir,
            })
            .collect())
    }

    /// One `--resume` replay of the primed `dir`, checked against the
    /// priming run's stdout. Returns the run and its known-mismatch lines.
    fn replay_checked(
        &self,
        dir: &Path,
        cold_stdout: &[u8],
        checks: &mut Checks,
    ) -> std::io::Result<(ChildRun, usize)> {
        let run = self.sweep(&SWEEP_TARGETS, dir, self.jobs, &["--resume"])?;
        checks.check(run.code == Some(0), || {
            format!("replay exited with {:?}: {}", run.code, run.stderr)
        });
        let all_cached = format!("resume: all {} requested cells already ok", self.cells());
        checks.check(run.stderr.contains(&all_cached), || {
            format!("replay did not report \"{all_cached}\"")
        });
        let (known, other) = replay_mismatches(cold_stdout, &run.stdout);
        checks.check(other == 0, || format!("replay stdout differs from the cold sweep's in {other} lines beyond the known inf/nan ones"));
        Ok((run, known))
    }

    /// The timed `sweep-cold` run. One iteration is the whole sweep, a
    /// child and a fresh `--out` per target (see [`Sweeper::cold_by_target`]);
    /// the reported times are the sums of the targets' medians over the
    /// iterations.
    pub fn timed_cold(&mut self, seconds: f64) -> std::io::Result<RunResult> {
        let mut checks = Checks::default();
        let mut pacer = Pacer::new(Workload::SweepCold.sensitivity());
        // Set-up is one `repro list`: eight windows of five, each window
        // scaled by the host's slowness around it.
        let mut list_windows = Vec::new();
        for _ in 0..8 {
            let (walls, slowness) = pacer.paced(|| -> std::io::Result<Vec<f64>> {
                let mut walls = Vec::new();
                for _ in 0..5 {
                    let run = self.repro(&["list"])?;
                    checks.check(run.code == Some(0), || {
                        format!("repro list exited with {:?}", run.code)
                    });
                    walls.push(run.wall_s);
                }
                Ok(walls)
            });
            list_windows.push(median(&walls?) / slowness);
        }
        // The untimed first sweep: what every later one must reproduce.
        let mut reference = Vec::new();
        for part in self.cold_by_target(&mut pacer, false, &mut checks)? {
            reference.push((part.run.stdout, tree_digest(&part.dir)?));
            std::fs::remove_dir_all(&part.dir)?;
        }

        let mut samples: Vec<Samples> = SWEEP_TARGETS.iter().map(|_| Samples::default()).collect();
        let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); SWEEP_TARGETS.len()];
        let t0 = Instant::now();
        let mut sweeps = 0;
        while sweeps < 3 || t0.elapsed().as_secs_f64() < seconds {
            let parts = self.cold_by_target(&mut pacer, false, &mut checks)?;
            for (i, (part, target)) in parts.iter().zip(SWEEP_TARGETS).enumerate() {
                checks.check(part.run.stdout == reference[i].0, || {
                    format!("cold sweep of {target}: stdout differs from the first sweep's")
                });
                checks.check(tree_digest(&part.dir)? == reference[i].1, || {
                    format!("cold sweep of {target}: --out tree differs from the first sweep's")
                });
                std::fs::remove_dir_all(&part.dir)?;
                samples[i].push(part.run.wall_s, part.run.usage.cpu_s, part.slowness);
                peaks[i].push(part.run.usage.peak_rss_bytes as f64);
            }
            sweeps += 1;
        }
        let mut metrics = Metrics::end_to_end();
        metrics.set("setup_s", median(&list_windows));
        // The sweep's peak is its hungriest target's.
        metrics.set(
            "peak_rss_bytes",
            peaks.iter().map(|p| median(p)).fold(0.0, f64::max),
        );
        let note = Samples::report_sum(&samples, self.cells() as f64, &mut metrics);
        eprintln!(
            "{sweeps} cold sweeps of {} targets, {} cells, one child per target at --jobs {}; {note}",
            SWEEP_TARGETS.len(),
            self.cells(),
            self.jobs
        );
        Ok(RunResult { checks, metrics })
    }

    /// The timed `sweep-resume` run, paced like `sweep-cold`.
    pub fn timed_resume(&mut self, seconds: f64) -> std::io::Result<RunResult> {
        let mut checks = Checks::default();
        let mut pacer = Pacer::new(Workload::SweepResume.sensitivity());
        // Set-up is the priming cold sweep, timed the way `sweep-cold`
        // times its own: three of them, the sum of the targets' medians.
        let mut prime_walls: Vec<Vec<f64>> = vec![Vec::new(); SWEEP_TARGETS.len()];
        let mut primed = None;
        for _ in 0..3 {
            let parts = self.cold_by_target(&mut pacer, true, &mut checks)?;
            for (walls, part) in prime_walls.iter_mut().zip(&parts) {
                walls.push(part.run.wall_s / part.slowness);
            }
            primed.get_or_insert(parts);
        }
        let primed = primed.expect("three priming sweeps ran");
        let dir = primed[0].dir.clone();
        let cold_stdout: Vec<u8> = primed.into_iter().flat_map(|p| p.run.stdout).collect();
        let primed_tree = tree_digest(&dir)?;

        let (mut samples, mut peaks) = (Samples::default(), Vec::new());
        let mut known_lines = 0;
        let mut t0 = Instant::now();
        let mut warm = false;
        while !warm || samples.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
            let (replays, slowness) = pacer.paced(|| -> std::io::Result<(f64, f64, u64)> {
                let (mut wall, mut cpu, mut peak) = (0.0, 0.0, 0);
                for _ in 0..REPLAYS_PER_ITERATION {
                    let (run, known) = self.replay_checked(&dir, &cold_stdout, &mut checks)?;
                    wall += run.wall_s;
                    cpu += run.usage.cpu_s;
                    peak = peak.max(run.usage.peak_rss_bytes);
                    known_lines = known;
                }
                Ok((wall, cpu, peak))
            });
            let (wall, cpu, peak) = replays?;
            if warm {
                samples.push(wall, cpu, slowness);
                peaks.push(peak as f64);
            } else {
                // The first iteration warms the page cache; time from here.
                (warm, t0) = (true, Instant::now());
            }
        }
        checks.check(tree_digest(&dir)? == primed_tree, || {
            "replays changed the artefact tree".to_string()
        });
        let mut metrics = Metrics::end_to_end();
        metrics.set("setup_s", prime_walls.iter().map(|w| median(w)).sum());
        metrics.set("peak_rss_bytes", median(&peaks));
        let note = samples.report(REPLAYS_PER_ITERATION as f64, &mut metrics);
        eprintln!(
            "{} iterations of {REPLAYS_PER_ITERATION} replays at --jobs {}; {known_lines} stdout lines replay inf as nan (known); {note}",
            samples.len(),
            self.jobs
        );
        Ok(RunResult { checks, metrics })
    }

    /// The traced pass of either sweep workload: a serial in-process
    /// replay of the sweep with spans sweep -> target -> cell, one cold
    /// child at `--jobs J` and one at `--jobs 1` to set against it, the
    /// executor's readers timed over a primed directory, and the
    /// isolated layer costs every traced pass measures.
    pub fn traced(&mut self) -> std::io::Result<(RunResult, Value)> {
        let mut checks = Checks::default();
        let mut metrics = Metrics::per_layer();
        let mut tracer = Tracer::new();

        // The in-process replay and the `--jobs 1` child it is set against
        // run seconds apart on a host whose speed drifts, so each is
        // scaled by the host's slowness while it ran (see `pace`).
        let mut pacer = Pacer::new(Workload::SweepCold.sensitivity());
        let mut cells: Vec<(String, f64)> = Vec::new();
        let mut target_busy = Vec::new();
        let (traced_wall, slowness) = pacer.paced(|| {
            let sweep = tracer.begin("sweep", None);
            for target in SWEEP_TARGETS {
                let exp = registry::find(target).expect("SWEEP_TARGETS are registered");
                let span = tracer.begin(target, Some(sweep));
                let first = cells.len();
                for (index, meta) in exp.cell_meta(Scale::Quick).iter().enumerate() {
                    let name = format!("{target}/{}", meta.id);
                    let (_, secs) = tracer.span(name.clone(), Some(span), || {
                        std::hint::black_box(exp.run_cell_dyn(Scale::Quick, index))
                    });
                    cells.push((name, secs));
                }
                tracer.end(span);
                target_busy.push((target, cells[first..].iter().map(|c| c.1).sum::<f64>()));
            }
            tracer.end(sweep)
        });
        checks.check(cells.len() == self.cells(), || {
            format!(
                "{} cell spans, {} cells expected",
                cells.len(),
                self.cells()
            )
        });
        let cell_secs: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let busy_sum: f64 = cell_secs.iter().sum();
        metrics.set("experiments.cell.count", cells.len() as f64);
        metrics.set("experiments.cell.p50_share", median(&cell_secs) / busy_sum);
        metrics.set(
            "experiments.cell.p90_share",
            percentile(&cell_secs, 0.9) / busy_sum,
        );
        metrics.set(
            "experiments.cell.max_share",
            percentile(&cell_secs, 1.0) / busy_sum,
        );
        for (target, busy) in target_busy {
            metrics.set(
                &format!("experiments.target.{target}.share"),
                busy / busy_sum,
            );
        }

        // Workers' busy share of the cold sweep at --jobs J, from the
        // child's own CPU and wall time over one and the same interval.
        let (parallel, primed) = self.cold_all(self.parallel_jobs, &mut checks)?;
        metrics.set(
            "experiments.runner.parallel_eff",
            parallel.usage.cpu_s / (self.parallel_jobs as f64 * parallel.wall_s),
        );
        let (serial, serial_slowness) = pacer.paced(|| self.cold_all(1, &mut checks));
        let (serial, serial_dir) = serial?;
        std::fs::remove_dir_all(&serial_dir)?;
        metrics.set(
            "trace.overhead_frac",
            (traced_wall / slowness) / (serial.wall_s / serial_slowness) - 1.0,
        );

        let mut replay_walls = Vec::new();
        for _ in 0..10 {
            let (run, known) = self.replay_checked(&primed, &parallel.stdout, &mut checks)?;
            replay_walls.push(run.wall_s);
            metrics.set("experiments.resume.inf_nan_lines", known as f64);
        }
        let replay_wall = median(&replay_walls);
        let readers = self.time_readers(&primed, &mut checks)?;
        metrics.set(
            "experiments.manifest.share",
            readers.manifest_s / replay_wall,
        );
        metrics.set(
            "experiments.cache.share",
            readers.cache_load_s / replay_wall,
        );
        metrics.set("experiments.cache.bytes", readers.cache_bytes as f64);
        let (costs, _) = tracer.span("isolated-costs", None, || {
            crate::micro::isolated_costs(&mut metrics, crate::proxy::clock_cost())
        });
        costs?;

        cells.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("span durations are not NaN"));
        let top_cells = cells.iter().take(10).map(|(name, secs)| {
            obj(vec![
                ("cell", text(name.clone())),
                ("busy_s", Value::Float(*secs)),
            ])
        });
        let doc = obj(vec![
            ("jobs", int(self.parallel_jobs as u64)),
            (
                "targets",
                Value::Array(SWEEP_TARGETS.iter().map(|t| text(*t)).collect()),
            ),
            ("cell_busy_sum_s", Value::Float(busy_sum)),
            ("parallel_wall_s", Value::Float(parallel.wall_s)),
            ("serial_wall_s", Value::Float(serial.wall_s)),
            ("replay_wall_s", Value::Float(replay_wall)),
            ("manifest_parse_render_s", Value::Float(readers.manifest_s)),
            ("cache_load_s", Value::Float(readers.cache_load_s)),
            ("top_cells", Value::Array(top_cells.collect())),
            ("spans", tracer.to_value()),
        ]);
        Ok((RunResult { checks, metrics }, doc))
    }

    /// Time the readers a `--resume` replay is made of over `primed`:
    /// `Manifest::{parse, render}` on its manifest and `load_cell` over
    /// its whole cell cache.
    fn time_readers(&self, primed: &Path, checks: &mut Checks) -> std::io::Result<Readers> {
        let text = std::fs::read_to_string(primed.join("manifest.json"))?;
        let t0 = Instant::now();
        let manifest = std::hint::black_box(Manifest::parse(&text));
        let rendered = manifest.as_ref().map(|m| std::hint::black_box(m.render()));
        let manifest_s = t0.elapsed().as_secs_f64();
        checks.check(
            manifest.is_some_and(|m| m.cells.len() == self.cells()),
            || "the primed manifest does not parse back".to_string(),
        );
        checks.check(rendered.as_deref() == Some(text.as_str()), || {
            "Manifest::render(parse(text)) != text".to_string()
        });

        let (mut cache_load_s, mut cache_bytes, mut loaded) = (0.0, 0u64, 0usize);
        for target in SWEEP_TARGETS {
            let exp = registry::find(target).expect("SWEEP_TARGETS are registered");
            for entry in std::fs::read_dir(primed.join("cells").join(target))? {
                let json = std::fs::read_to_string(entry?.path())?;
                cache_bytes += json.len() as u64;
                let t0 = Instant::now();
                let cell = std::hint::black_box(exp.load_cell(&json));
                cache_load_s += t0.elapsed().as_secs_f64();
                loaded += usize::from(cell.is_ok());
            }
        }
        checks.check(loaded == self.cells(), || {
            format!("{loaded} cached cells decode, {} expected", self.cells())
        });
        Ok(Readers {
            manifest_s,
            cache_load_s,
            cache_bytes,
        })
    }
}

/// What the executor's readers cost over one primed directory.
struct Readers {
    manifest_s: f64,
    cache_load_s: f64,
    cache_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_mismatches_separate_the_known_inf_nan_lines() {
        let cold = b"a 1.0\nTCP(1/8)   1.612   inf   0.657\nb 2.0\n";
        assert_eq!(replay_mismatches(cold, cold), (0, 0));
        assert_eq!(
            replay_mismatches(cold, b"a 1.0\nTCP(1/8)   1.612   nan   0.657\nb 2.0\n"),
            (1, 0)
        );
        assert_eq!(
            replay_mismatches(cold, b"a 1.1\nTCP(1/8)   1.612   nan   0.657\nb 2.0\n"),
            (1, 1)
        );
        // Missing and extra lines both count.
        assert_eq!(replay_mismatches(cold, b"a 1.0\n"), (0, 2));
        assert_eq!(replay_mismatches(b"a 1.0\n", cold), (0, 2));
    }

    #[test]
    fn tree_digest_sees_names_and_bytes() {
        let dir =
            std::env::temp_dir().join(format!("slowcc-benchmark-tree-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("cells")).unwrap();
        std::fs::write(dir.join("a.json"), b"{}").unwrap();
        std::fs::write(dir.join("cells/b.json"), b"[1]").unwrap();
        let first = tree_digest(&dir).unwrap();
        assert_eq!(first.1, 5);
        assert_eq!(tree_digest(&dir).unwrap(), first);
        std::fs::write(dir.join("cells/b.json"), b"[2]").unwrap();
        assert_ne!(tree_digest(&dir).unwrap().0, first.0);
        std::fs::rename(dir.join("a.json"), dir.join("c.json")).unwrap();
        std::fs::write(dir.join("cells/b.json"), b"[1]").unwrap();
        assert_ne!(tree_digest(&dir).unwrap().0, first.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
