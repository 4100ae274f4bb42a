//! What the host charges: CPU time, peak and current resident memory,
//! cores and load.
//!
//! CPU time, and a child's peak RSS, come from `getrusage(2)` /
//! `wait4(2)` rather than `/proc/<pid>/stat`: `/proc` reports CPU in
//! 10 ms clock ticks, so a 100 ms iteration would read the same on every
//! run, and a `repro --resume` child (a few ms) is gone before
//! `/proc/<pid>` can be polled. The two foreign calls are hand-declared
//! (no libc binding crate is vendored), the same way `repro` declares
//! `signal(2)`.

use std::ffi::{c_int, c_long};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux LP64 `struct rusage` and /proc; port host.rs first");

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux LP64 lays it out: two timevals, then
/// fourteen longs of which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut RawRusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// CPU seconds (user + system) and peak resident bytes of one process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_bytes: u64,
}

impl From<RawRusage> for Usage {
    fn from(r: RawRusage) -> Self {
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(r.ru_utime) + secs(r.ru_stime),
            // Linux reports ru_maxrss in KiB.
            peak_rss_bytes: (r.ru_maxrss.max(0) as u64) * 1024,
        }
    }
}

/// Usage of this process so far (all threads).
pub fn self_usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout
    // the kernel fills on Linux LP64 (asserted by the cfg gate above);
    // RUSAGE_SELF is a valid `who`, so the call cannot fail.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    raw.into()
}

/// Wait for `child` and return its exit code (`None` when a signal
/// killed it) with the usage of exactly that child.
pub fn wait_with_usage(child: Child) -> std::io::Result<(Option<i32>, Usage)> {
    let mut raw = RawRusage::default();
    let mut status: c_int = 0;
    // SAFETY: `status` and `raw` are live and writable for the call;
    // the pid is a child of this process that nothing else reaps (the
    // `Child` is consumed here and its Drop neither waits nor kills).
    let rc = unsafe { wait4(child.id() as c_int, &mut status, 0, &mut raw) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((exit_code(status), raw.into()))
}

/// One finished child process as its launcher saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Launched {
    /// `None` when a signal killed it.
    pub code: Option<i32>,
    /// Spawn to exit.
    pub wall_s: f64,
    pub usage: Usage,
}

impl Launched {
    fn to_line(self) -> String {
        format!(
            "{} {:?} {:?} {}",
            self.code.unwrap_or(-1),
            self.wall_s,
            self.usage.cpu_s,
            self.usage.peak_rss_bytes
        )
    }

    fn from_line(line: &str) -> Option<Launched> {
        let mut fields = line.split_whitespace();
        let code: i32 = fields.next()?.parse().ok()?;
        Some(Launched {
            code: (code >= 0).then_some(code),
            wall_s: fields.next()?.parse().ok()?,
            usage: Usage {
                cpu_s: fields.next()?.parse().ok()?,
                peak_rss_bytes: fields.next()?.parse().ok()?,
            },
        })
    }
}

/// `benchmark --launch RESULT PROGRAM ARGS...`: run PROGRAM with this
/// process's stdio, wait for it, and write what it cost to RESULT.
///
/// Children are timed from a launcher because `wait4` reports as a
/// child's `ru_maxrss` the larger of the child's own peak and its
/// parent's at the spawn (`exec` folds the high-water mark of the address
/// space it replaces into the new one's). Spawned from the benchmark
/// process itself, which holds the pacer's 17 MiB, a 3.6 MB replay read
/// 22 MB. The launcher is this binary before it has touched anything,
/// under 3 MB, which is below every `repro` child.
pub fn launch(args: &[String]) -> std::io::Result<()> {
    let [result, program, rest @ ..] = args else {
        return Err(std::io::Error::other(
            "--launch requires RESULT PROGRAM [ARGS...]",
        ));
    };
    let t0 = Instant::now();
    let child = Command::new(program).args(rest).spawn()?;
    let (code, usage) = wait_with_usage(child)?;
    let launched = Launched {
        code,
        wall_s: t0.elapsed().as_secs_f64(),
        usage,
    };
    std::fs::write(result, launched.to_line())
}

/// Run `program` through a launcher (see [`launch`]), its stdout and
/// stderr going to the given files; `result` is a scratch file.
pub fn run_launched(
    result: &Path,
    program: &Path,
    args: &[&str],
    stdout: std::fs::File,
    stderr: std::fs::File,
) -> std::io::Result<Launched> {
    let launcher = Command::new(std::env::current_exe()?)
        .arg("--launch")
        .arg(result)
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .status()?;
    let line = std::fs::read_to_string(result)?;
    Launched::from_line(&line)
        .filter(|_| launcher.success())
        .ok_or_else(|| std::io::Error::other(format!("launcher: {launcher}, result {line:?}")))
}

/// Decode a `wait(2)` status word: the exit code of a normal exit.
fn exit_code(status: c_int) -> Option<i32> {
    (status & 0x7f == 0).then_some((status >> 8) & 0xff)
}

/// A `kB` field of a `/proc/<pid>/status` text (`VmRSS`, `VmHWM`), in bytes.
pub fn status_field_bytes(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kb: u64 = line[key.len() + 1..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Current resident set of this process, in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    status_field_bytes(&std::fs::read_to_string("/proc/self/status").ok()?, "VmRSS")
}

/// Peak resident set of this process, in bytes: `VmHWM`, which belongs
/// to this address space. `ru_maxrss` of `RUSAGE_SELF` does not: it keeps
/// the high-water mark of every program this process was before its
/// `exec`, so under a 12 MB Python driver an 8 MB simulation read 12 MB,
/// the same on every run.
pub fn peak_rss_bytes() -> Option<u64> {
    status_field_bytes(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// The 1-minute load average out of a `/proc/loadavg` text.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

pub fn loadavg_1m() -> Option<f64> {
    parse_loadavg(&std::fs::read_to_string("/proc/loadavg").ok()?)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   36864 kB\nVmRSS:\t   20480 kB\nRssAnon:\t 100 kB\n";

    #[test]
    fn status_fields_parse_to_bytes() {
        assert_eq!(status_field_bytes(STATUS, "VmHWM"), Some(36864 * 1024));
        assert_eq!(status_field_bytes(STATUS, "VmRSS"), Some(20480 * 1024));
        // A key that only prefixes another field's name must not match.
        assert_eq!(status_field_bytes(STATUS, "Vm"), None);
        assert_eq!(status_field_bytes(STATUS, "VmSwap"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg("0.22 0.47 0.39 3/84 3618\n"), Some(0.22));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn wait_status_decodes() {
        assert_eq!(exit_code(0), Some(0));
        assert_eq!(exit_code(1 << 8), Some(1));
        assert_eq!(exit_code(130 << 8), Some(130));
        assert_eq!(exit_code(9), None); // SIGKILL
    }

    #[test]
    fn self_usage_grows_with_work() {
        let before = self_usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = self_usage();
        assert!(after.cpu_s > before.cpu_s, "{x}");
        assert!(after.peak_rss_bytes > 0);
    }

    #[test]
    fn a_launched_child_round_trips_through_its_result_line() {
        let launched = Launched {
            code: Some(3),
            wall_s: 0.012345678901234567,
            usage: Usage {
                cpu_s: 0.004,
                peak_rss_bytes: 3_727_360,
            },
        };
        assert_eq!(Launched::from_line(&launched.to_line()), Some(launched));
        let killed = Launched {
            code: None,
            ..launched
        };
        assert_eq!(Launched::from_line(&killed.to_line()), Some(killed));
        assert_eq!(Launched::from_line("0 0.1"), None);
    }

    #[test]
    fn child_usage_and_exit_code_come_back() {
        let child = std::process::Command::new("sh")
            .args(["-c", "exit 3"])
            .spawn()
            .unwrap();
        let (code, usage) = wait_with_usage(child).unwrap();
        assert_eq!(code, Some(3));
        assert!(usage.peak_rss_bytes > 0);
    }
}
