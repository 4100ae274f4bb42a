//! `bench_netsim` — wall-clock benchmark of the netsim hot path and the
//! full figure sweep, written as `BENCH_netsim.json` at the repo root.
//!
//! Measurements, all plain `std::time::Instant` (no bench framework):
//!
//! * **dumbbell** — simulate 5 s of 4 TCP flows on the 10 Mb/s paper
//!   dumbbell, repeated after one untimed warmup; reports mean and min
//!   per-run time plus the throughput counters the regression gate
//!   watches — packets/sec and events per injected packet — events/sec
//!   (reported, not gated: it falls whenever events are eliminated),
//!   and the raw totals they derive from. Also records
//!   `peak_rss_bytes` (process `VmHWM`) and a steady-state
//!   bytes-per-flow probe from a 64-flow dumbbell's `VmRSS` growth.
//! * **shards** — conservative-parallel scaling: 64 TCP flows on a
//!   3-hop parking lot (4 delay clusters) at 1, 2 and 4 shards, with a
//!   byte-identity assertion on the flow/link statistics across shard
//!   counts. On a host with fewer than 4 cores the 4-shard speedup
//!   number measures thread overhead, not scaling; the report says so
//!   in `warnings`.
//! * **supervisor_overhead** — the dumbbell again, interleaved A/B with
//!   and without a fully-armed (never tripping) cooperative budget —
//!   the wall-clock deadline, livelock bound and cancel flag every
//!   supervised sweep cell runs under. Reports both means and the
//!   fractional events/sec cost of arming.
//! * **streaming_trace** — 16 TCP flows on a 100 Mb/s dumbbell for 60
//!   simulated seconds (>1M packets), untraced vs with a JSONL
//!   `StreamTrace` attached: the fractional wall-clock overhead of the
//!   per-event observer and the `VmRSS` growth across the traced run,
//!   which must stay O(1) in packet count (the sink holds one open bin,
//!   never the event stream).
//! * **packet_bytes** — `size_of` pins for the data-plane structs, so
//!   the recorded baseline documents the layout the numbers were
//!   measured against.
//! * **quick sweep** — `repro --quick all`, once with `--jobs 1` and
//!   once with the machine's available parallelism, as subprocesses
//!   (the thread budget is process-wide and set once, so the two
//!   configurations need separate processes). The `repro` binary must
//!   already be built: run `cargo build --release` first, or use
//!   `scripts/verify.sh`. Skipped entirely — reported as `null`, with
//!   a machine-readable warning — when only one CPU is available,
//!   since serial and parallel runs coincide there. Pass `--skip-sweep`
//!   to skip it unconditionally.
//!
//! Anything that limits a section's validity is appended to the
//! top-level `warnings` array as a `{section, message}` object, so
//! downstream tooling can filter sections without parsing prose.
//!
//! # Regression gate
//!
//! `bench_netsim --check` re-measures the dumbbell section and compares
//! it against the committed `BENCH_netsim.json`: the run FAILS (exit 1)
//! if `mean_ms` regresses by more than 25%, `packets_per_sec` drops by
//! more than 20%, or `events_per_packet` — an exact, host-independent
//! count — exceeds its ceiling (so event bloat cannot creep back in
//! behind a fast host). `events_per_sec` is deliberately not gated: a
//! change that removes events lowers it while making every run faster.
//! It then re-runs the shard workload at 1 and 4 shards:
//! statistics divergence always fails; the 4-shard speedup assertion is
//! skipped (with a printed notice) when this host has fewer cores than
//! shard workers or the committed baseline's `warnings` array carries
//! the `shards` timeshare entry. Finally it re-runs the
//! armed-vs-unarmed supervisor A/B and fails if the armed budget costs more than 2% events/sec —
//! the budget check must stay cheap enough to sit inside the
//! simulator's batch loop. It then re-runs the streaming-trace A/B and
//! fails if the attached sink costs more than 35% wall clock or grows
//! RSS by more than 64 MiB over the >1M-packet run (the O(1)-memory
//! contract). Nothing is written in check mode. Set
//! `SLOWCC_SKIP_BENCH_GATE=1` to skip the comparison (exit 0), e.g. on
//! known-noisy CI hosts.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use slowcc_core::tcp::{Tcp, TcpConfig};
use slowcc_netsim::budget::Budget;
use slowcc_netsim::event::EventKind;
use slowcc_netsim::prelude::*;
use slowcc_netsim::sim::set_default_shards;

#[derive(Serialize)]
struct Warning {
    /// Which report section the warning qualifies.
    section: &'static str,
    message: &'static str,
}

#[derive(Serialize)]
struct DumbbellBench {
    runs: u32,
    mean_ms: f64,
    min_ms: f64,
    /// Packets simulated per wall-clock second, from the mean run time:
    /// the useful-work throughput the `--check` gate watches.
    packets_per_sec: f64,
    /// Events dispatched per wall-clock second, from the mean run time.
    /// Reported for the scheduler's sake but not gated — eliminating
    /// events lowers it while the run gets faster.
    events_per_sec: f64,
    /// Dispatched events per injected packet — a pure simulation-shape
    /// number (independent of host speed) that catches accidental event
    /// inflation, e.g. a change that starts scheduling per-byte timers.
    /// `--check` holds it under [`EVENTS_PER_PACKET_CEILING`].
    events_per_packet: f64,
    events_processed: u64,
    packets_injected: u64,
    /// Peak resident set of the bench process (`VmHWM`), in bytes,
    /// sampled after the timed runs. A process-wide high-water mark, so
    /// earlier sections contribute; `null` where `/proc` is unavailable.
    peak_rss_bytes: Option<u64>,
    /// Marginal resident bytes per flow at steady state: the `VmRSS`
    /// growth across building and running a 64-flow paper dumbbell,
    /// divided by 64. Probed after the timed 4-flow runs, so allocator
    /// warmup is already paid and the growth is attributable to the
    /// extra flows (agents, per-flow stats series, queue occupancy).
    /// `null` where `/proc` is unavailable.
    steady_state_bytes_per_flow: Option<f64>,
}

/// One shard count on the sharded parking-lot workload.
#[derive(Serialize)]
struct ShardCell {
    requested_shards: usize,
    /// Shards the topology actually sealed into (cluster-limited).
    sealed_shards: usize,
    runs: u32,
    mean_ms: f64,
    events_per_sec: f64,
}

/// Conservative-parallel scaling on a 64-flow, 3-hop parking lot
/// (4 delay clusters, so up to 4 shards engage). The `deterministic`
/// flag records that every shard count produced byte-identical flow and
/// link statistics — the contract `--check` re-verifies.
#[derive(Serialize)]
struct ShardsBench {
    flows: usize,
    hops: usize,
    sim_secs: u64,
    deterministic: bool,
    /// events/sec at 4 shards over 1 shard; meaningless (and flagged in
    /// `warnings`) on a host with fewer than 4 cores, where the shard
    /// workers timeshare.
    speedup_4_shards: f64,
    cells: Vec<ShardCell>,
}

/// `size_of` pins for the structs the hot path copies and scans; the
/// committed baseline thereby records the layout it was measured with.
#[derive(Serialize)]
struct PacketBytes {
    packet: usize,
    payload: usize,
    ack_info: usize,
    data_info: usize,
    packet_id: usize,
    event_kind: usize,
}

/// Cost of running the dumbbell under a fully-armed cooperative budget
/// (wall-clock deadline, livelock bound, cancel flag — the exact
/// configuration `exec` arms for every sweep cell) versus no budget at
/// all. Armed and unarmed runs are interleaved so host-speed drift
/// cancels out of the ratio.
#[derive(Serialize)]
struct SupervisorBench {
    runs: u32,
    unarmed_mean_ms: f64,
    armed_mean_ms: f64,
    unarmed_min_ms: f64,
    armed_min_ms: f64,
    unarmed_events_per_sec: f64,
    armed_events_per_sec: f64,
    /// Fractional time lost to the armed budget: the **median of the
    /// per-rep ratios** `armed_i/unarmed_i - 1`. Each rep's two runs
    /// are back to back, so host-speed drift divides out of every
    /// ratio, and the median discards reps a scheduler interruption
    /// landed in. Negative means noise still favored the armed runs.
    /// The `--check` gate fails above [`SUPERVISOR_OVERHEAD_TOLERANCE`].
    overhead_frac: f64,
}

/// Cost and memory bound of the streaming trace sink on a long run: the
/// same many-flow dumbbell simulated untraced and with a
/// [`slowcc_netsim::trace::StreamTrace`] writing JSONL bins to a
/// byte-counting sink. `rss_growth_bytes` is the `VmRSS` delta across
/// the traced run — the O(1)-in-packet-count claim the `--check` gate
/// enforces (the sink holds one open bin, never the event stream).
#[derive(Serialize)]
struct StreamingTraceBench {
    sim_secs: u64,
    flows: usize,
    /// Packets injected by the traced run (well above 1M by design, so
    /// the memory bound is measured against a long event stream).
    packets_injected: u64,
    events_processed: u64,
    bin_ms: u64,
    bins_streamed: u64,
    bytes_streamed: u64,
    untraced_mean_ms: f64,
    traced_mean_ms: f64,
    /// Fractional slowdown of tracing: `traced/untraced - 1`.
    overhead_frac: f64,
    /// `VmRSS` growth across the traced run, bytes; `null` without /proc.
    rss_growth_bytes: Option<u64>,
}

#[derive(Serialize)]
struct SweepBench {
    serial_secs: f64,
    parallel_secs: f64,
    parallel_jobs: usize,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    available_parallelism: usize,
    warnings: Vec<Warning>,
    dumbbell_4tcp_5s: DumbbellBench,
    shards: ShardsBench,
    supervisor_overhead: SupervisorBench,
    streaming_trace: StreamingTraceBench,
    packet_bytes: PacketBytes,
    quick_sweep: Option<SweepBench>,
}

const SINGLE_CORE_WARNING: Warning = Warning {
    section: "quick_sweep",
    message: "available_parallelism is 1: the serial and parallel sweep \
              runs would coincide, so the sweep was skipped",
};

/// Recorded when the host cannot demonstrate shard parallelism; its
/// presence in the committed baseline tells `--check` to skip the
/// shard-speedup assertion (the determinism check always runs).
const SHARDS_TIMESHARE_WARNING: Warning = Warning {
    section: "shards",
    message: "available_parallelism is below 4: the 4 shard workers timeshare \
              cores, so speedup_4_shards measures overhead, not scaling",
};

/// Whether this host can run the 4-shard cell one worker per core.
fn cores_for_4_shards() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 4)
}

/// Allowed relative regression of `dumbbell_4tcp_5s.mean_ms` in `--check`.
const MEAN_MS_TOLERANCE: f64 = 0.25;
/// Allowed relative drop of `dumbbell_4tcp_5s.packets_per_sec` in `--check`.
const PACKETS_PER_SEC_TOLERANCE: f64 = 0.20;
/// Ceiling on `dumbbell_4tcp_5s.events_per_packet` in `--check`. The
/// lazy link service (DESIGN.md §5l) runs the dumbbell at ~4.0; the
/// eager one-`LinkTxComplete`-per-hop model it replaced ran at 6.3.
const EVENTS_PER_PACKET_CEILING: f64 = 4.5;
/// Allowed events/sec cost of an armed (untripped) cooperative budget
/// in `--check`: the per-batch bookkeeping plus the amortized
/// wall-clock probe must stay under 2%, or supervision is too hot for
/// the sweep's inner loop.
const SUPERVISOR_OVERHEAD_TOLERANCE: f64 = 0.02;

/// Read a `kB` field (e.g. `VmHWM`, `VmRSS`) from `/proc/self/status`.
fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with(key) && l.as_bytes().get(key.len()) == Some(&b':'))?;
    line[key.len() + 1..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Memory probe: `VmRSS` growth across a 64-flow dumbbell run, divided
/// by the flow count. Run after the timed 4-flow measurements so the
/// allocator and page tables are already warm and the growth is the
/// flows', not the process startup's.
fn memory_probe() -> (Option<u64>, Option<f64>) {
    const FLOWS: u64 = 64;
    let before = proc_status_kb("VmRSS");
    let mut sim = Simulator::new(11);
    let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
    for i in 0..FLOWS {
        let pair = db.add_host_pair(&mut sim);
        Tcp::install(
            &mut sim,
            &pair,
            TcpConfig::standard(1000),
            SimTime::from_millis(7 * i),
        );
    }
    sim.run_until(SimTime::from_secs(2));
    let after = proc_status_kb("VmRSS");
    black_box(&sim);
    let per_flow = match (before, after) {
        (Some(b), Some(a)) => Some((a.saturating_sub(b) * 1024) as f64 / FLOWS as f64),
        _ => None,
    };
    (proc_status_kb("VmHWM").map(|kb| kb * 1024), per_flow)
}

/// One 4-flow dumbbell run, optionally under an armed (but never
/// tripping) cooperative budget — the configuration every supervised
/// sweep cell runs with, measured by the `supervisor_overhead` section.
fn dumbbell_run(budget: Option<Budget>) -> (f64, u64, u64) {
    let mut sim = Simulator::new(3);
    if let Some(b) = budget {
        sim.set_budget(b);
    }
    let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
    for i in 0..4 {
        let pair = db.add_host_pair(&mut sim);
        Tcp::install(
            &mut sim,
            &pair,
            TcpConfig::standard(1000),
            SimTime::from_millis(13 * i),
        );
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(5));
    let secs = t0.elapsed().as_secs_f64();
    let events = sim.events_processed();
    let packets = sim.packets_injected();
    black_box(&sim);
    (secs, events, packets)
}

fn bench_dumbbell(probe_memory: bool) -> DumbbellBench {
    const RUNS: u32 = 10;
    // One untimed warmup run: first-touch page faults and lazy
    // allocator growth land here instead of skewing the first sample.
    let (_, events, packets) = dumbbell_run(None);
    let mut times = Vec::with_capacity(RUNS as usize);
    for _ in 0..RUNS {
        let (secs, e, p) = dumbbell_run(None);
        assert_eq!((e, p), (events, packets), "dumbbell runs must be deterministic");
        times.push(secs);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let events_per_sec = events as f64 / mean;
    let packets_per_sec = packets as f64 / mean;
    let (peak_rss_bytes, steady_state_bytes_per_flow) =
        if probe_memory { memory_probe() } else { (None, None) };
    println!(
        "dumbbell_4tcp_5s   mean {:.2} ms  min {:.2} ms  ({RUNS} runs, {:.2}M pkts/s, {:.1}M events/s, {:.2} events/pkt)",
        mean * 1e3,
        min * 1e3,
        packets_per_sec / 1e6,
        events_per_sec / 1e6,
        events as f64 / packets as f64,
    );
    if let (Some(rss), Some(per_flow)) = (peak_rss_bytes, steady_state_bytes_per_flow) {
        println!(
            "memory             peak RSS {:.1} MiB  steady-state {:.1} KiB/flow (64-flow probe)",
            rss as f64 / (1024.0 * 1024.0),
            per_flow / 1024.0,
        );
    }
    DumbbellBench {
        runs: RUNS,
        mean_ms: mean * 1e3,
        min_ms: min * 1e3,
        packets_per_sec,
        events_per_sec,
        events_per_packet: events as f64 / packets as f64,
        events_processed: events,
        packets_injected: packets,
        peak_rss_bytes,
        steady_state_bytes_per_flow,
    }
}

/// The budget every supervised sweep cell runs under, minus tripping:
/// a far-future deadline, the default livelock bound, and the cancel
/// flag. Arming all three exercises the full per-batch check.
fn armed_untripped_budget() -> Budget {
    Budget::none()
        .with_wall_clock(Duration::from_secs(3600))
        .with_livelock_batches(Budget::DEFAULT_LIVELOCK_BATCHES)
        .with_cancel()
}

fn bench_supervisor(runs: u32) -> SupervisorBench {
    let armed = armed_untripped_budget();
    // Warmups, which double as the armed-changes-nothing assertion:
    // an untripped budget must dispatch the exact same event stream.
    let (_, unarmed_events, _) = dumbbell_run(None);
    let (_, armed_events, _) = dumbbell_run(Some(armed));
    assert_eq!(
        armed_events, unarmed_events,
        "an armed, untripped budget must not change the simulation"
    );
    let mut unarmed_times = Vec::with_capacity(runs as usize);
    let mut armed_times = Vec::with_capacity(runs as usize);
    // Interleaved A/B reps: slow thermal or scheduler drift hits both
    // sides equally instead of biasing whichever ran second.
    for _ in 0..runs {
        unarmed_times.push(dumbbell_run(None).0);
        armed_times.push(dumbbell_run(Some(armed)).0);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let unarmed_mean = mean(&unarmed_times);
    let armed_mean = mean(&armed_times);
    let unarmed_min = min(&unarmed_times);
    let armed_min = min(&armed_times);
    let unarmed_eps = unarmed_events as f64 / unarmed_mean;
    let armed_eps = armed_events as f64 / armed_mean;
    // Median of the per-rep ratios: drift divides out within each
    // back-to-back pair, the median drops reps that caught a scheduler
    // interruption on either side.
    let mut ratios: Vec<f64> = armed_times
        .iter()
        .zip(&unarmed_times)
        .map(|(a, u)| a / u)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("run times are finite"));
    let overhead_frac = ratios[ratios.len() / 2] - 1.0;
    println!(
        "supervisor         unarmed {:.2} ms  armed {:.2} ms  overhead {:+.2}% (median of {runs} paired runs)",
        unarmed_min * 1e3,
        armed_min * 1e3,
        overhead_frac * 100.0,
    );
    SupervisorBench {
        runs,
        unarmed_mean_ms: unarmed_mean * 1e3,
        armed_mean_ms: armed_mean * 1e3,
        unarmed_min_ms: unarmed_min * 1e3,
        armed_min_ms: armed_min * 1e3,
        unarmed_events_per_sec: unarmed_eps,
        armed_events_per_sec: armed_eps,
        overhead_frac,
    }
}

/// Allowed fractional slowdown from an attached streaming trace sink in
/// `--check`: the per-event observer hook plus bin bookkeeping must stay
/// well under the cost of the simulation itself.
const STREAMING_OVERHEAD_TOLERANCE: f64 = 0.35;
/// Allowed `VmRSS` growth across the traced long run in `--check`. The
/// sink keeps one open bin and a write buffer — O(1) in packet count —
/// so growth anywhere near an event-buffering sink's footprint
/// (hundreds of MB at ~1.5M packets) fails loudly. 64 MiB leaves room
/// for allocator slack without masking an O(n) regression.
const STREAMING_RSS_BOUND_BYTES: u64 = 64 * 1024 * 1024;

/// Byte- and line-counting `io::Write` sink: the streaming bench wants
/// the volume of trace output without paying for a filesystem.
struct CountingSink {
    bytes: std::sync::Arc<std::sync::atomic::AtomicU64>,
    lines: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        use std::sync::atomic::Ordering;
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let nl = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.lines.fetch_add(nl, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The streaming-trace workload: 16 TCP flows saturating a 100 Mb/s
/// paper dumbbell for 60 simulated seconds — comfortably over 1M
/// injected packets. With `bin` set, a JSONL [`StreamTrace`] observes
/// the run through a counting sink. Returns wall seconds, counters, and
/// the streamed byte/line volume.
fn streaming_trace_run(bin: Option<SimDuration>) -> (f64, u64, u64, u64, u64) {
    use slowcc_netsim::trace::{StreamFormat, StreamTrace};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    const FLOWS: u64 = 16;
    const SIM_SECS: u64 = 60;
    let bytes = Arc::new(AtomicU64::new(0));
    let lines = Arc::new(AtomicU64::new(0));
    let mut sim = Simulator::new(21);
    if let Some(width) = bin {
        let sink = CountingSink { bytes: Arc::clone(&bytes), lines: Arc::clone(&lines) };
        sim.set_trace(Box::new(StreamTrace::new(sink, StreamFormat::Jsonl, width)));
    }
    let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(100e6));
    for i in 0..FLOWS {
        let pair = db.add_host_pair(&mut sim);
        Tcp::install(&mut sim, &pair, TcpConfig::standard(1000), SimTime::from_millis(7 * i));
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(SIM_SECS));
    let secs = t0.elapsed().as_secs_f64();
    let (events, packets) = (sim.events_processed(), sim.packets_injected());
    black_box(&sim);
    drop(sim); // flush the sink before reading the counters
    (secs, events, packets, bytes.load(Ordering::Relaxed), lines.load(Ordering::Relaxed))
}

fn bench_streaming_trace() -> StreamingTraceBench {
    const RUNS: u32 = 2;
    const BIN_MS: u64 = 100;
    let bin = SimDuration::from_millis(BIN_MS);
    // Warmup (untraced) run pays first-touch costs for the bigger
    // dumbbell, then interleaved untraced/traced timed pairs.
    let (_, events, packets, _, _) = streaming_trace_run(None);
    assert!(packets >= 1_000_000, "streaming bench must cover >= 1M packets, got {packets}");
    let rss_before = proc_status_kb("VmRSS");
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let (mut bytes_streamed, mut bins_streamed) = (0, 0);
    for _ in 0..RUNS {
        let (secs, e, p, _, _) = streaming_trace_run(None);
        assert_eq!((e, p), (events, packets), "untraced runs must be deterministic");
        untraced.push(secs);
        let (secs, e, p, by, ln) = streaming_trace_run(Some(bin));
        assert_eq!(
            (e, p),
            (events, packets),
            "the streaming sink must be a passive observer"
        );
        traced.push(secs);
        (bytes_streamed, bins_streamed) = (by, ln);
    }
    let rss_after = proc_status_kb("VmRSS");
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let untraced_mean = mean(&untraced);
    let traced_mean = mean(&traced);
    let overhead = traced_mean / untraced_mean - 1.0;
    let rss_growth = match (rss_before, rss_after) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b) * 1024),
        _ => None,
    };
    println!(
        "streaming_trace    untraced {:.0} ms  traced {:.0} ms  overhead {:+.1}%  \
         ({:.2}M pkts, {bins_streamed} bins, {:.0} KiB streamed, RSS +{} KiB)",
        untraced_mean * 1e3,
        traced_mean * 1e3,
        overhead * 100.0,
        packets as f64 / 1e6,
        bytes_streamed as f64 / 1024.0,
        rss_growth.map(|b| b / 1024).unwrap_or(0),
    );
    StreamingTraceBench {
        sim_secs: 60,
        flows: 16,
        packets_injected: packets,
        events_processed: events,
        bin_ms: BIN_MS,
        bins_streamed,
        bytes_streamed,
        untraced_mean_ms: untraced_mean * 1e3,
        traced_mean_ms: traced_mean * 1e3,
        overhead_frac: overhead,
        rss_growth_bytes: rss_growth,
    }
}

/// Shard-scaling workload: 64 TCP flows end-to-end on a 3-hop parking
/// lot (4 delay clusters). Returns wall seconds, event/packet counters,
/// the sealed shard count, and a byte-comparable statistics fingerprint.
fn shard_lot_run() -> (f64, u64, u64, usize, String) {
    const FLOWS: usize = 64;
    const HOPS: usize = 3;
    let mut sim = Simulator::new(7);
    let lot = ParkingLot::build(&mut sim, DumbbellConfig::paper(10e6), HOPS);
    let mut flows = Vec::with_capacity(FLOWS);
    for i in 0..FLOWS {
        let pair = lot.add_host_pair(&mut sim, 0, HOPS);
        let h = Tcp::install(
            &mut sim,
            &pair,
            TcpConfig::standard(1000),
            SimTime::from_millis(7 * i as u64),
        );
        flows.push(h.flow);
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(3));
    let secs = t0.elapsed().as_secs_f64();
    let mut fp = String::new();
    for f in flows {
        fp.push_str(&format!("{f}: {:?}\n", sim.stats().flow(f)));
    }
    for &l in lot.forward.iter().chain(lot.reverse.iter()) {
        fp.push_str(&format!("{l}: {:?}\n", sim.stats().link(l)));
    }
    let (events, packets) = (sim.events_processed(), sim.packets_injected());
    let sealed = sim.shard_count();
    black_box(&sim);
    (secs, events, packets, sealed, fp)
}

/// Measure `shard_lot_run` at the given shard count; asserts the run is
/// byte-identical to `reference` (when given) and returns the cell plus
/// the fingerprint.
fn shard_cell(requested: usize, runs: u32, reference: Option<&str>) -> (ShardCell, String) {
    set_default_shards(Some(requested));
    // Warmup (also the determinism sample).
    let (_, events, packets, sealed, fp) = shard_lot_run();
    if let Some(want) = reference {
        assert_eq!(
            fp, want,
            "{requested}-shard parking lot diverged from the serial statistics"
        );
    }
    let mut times = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        let (secs, e, p, s, _) = shard_lot_run();
        assert_eq!(
            (e, p, s),
            (events, packets, sealed),
            "shard bench runs must be deterministic"
        );
        times.push(secs);
    }
    set_default_shards(None);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!(
        "shards             {requested} requested / {sealed} sealed  mean {:.2} ms  {:.2}M events/s",
        mean * 1e3,
        events as f64 / mean / 1e6,
    );
    (
        ShardCell {
            requested_shards: requested,
            sealed_shards: sealed,
            runs,
            mean_ms: mean * 1e3,
            events_per_sec: events as f64 / mean,
        },
        fp,
    )
}

fn bench_shards(warnings: &mut Vec<Warning>) -> ShardsBench {
    const RUNS: u32 = 3;
    let (serial, reference) = shard_cell(1, RUNS, None);
    let mut cells = vec![serial];
    for requested in [2usize, 4] {
        let (cell, _) = shard_cell(requested, RUNS, Some(&reference));
        cells.push(cell);
    }
    let speedup = cells[2].events_per_sec / cells[0].events_per_sec;
    if !cores_for_4_shards() {
        warnings.push(SHARDS_TIMESHARE_WARNING);
    }
    ShardsBench {
        flows: 64,
        hops: 3,
        sim_secs: 3,
        // shard_cell asserted it; reaching this line is the proof.
        deterministic: true,
        speedup_4_shards: speedup,
        cells,
    }
}

fn packet_bytes() -> PacketBytes {
    use core::mem::size_of;
    use slowcc_netsim::packet::{AckInfo, DataInfo, Packet, Payload};
    use slowcc_netsim::pool::PacketId;
    PacketBytes {
        packet: size_of::<Packet>(),
        payload: size_of::<Payload>(),
        ack_info: size_of::<AckInfo>(),
        data_info: size_of::<DataInfo>(),
        packet_id: size_of::<PacketId>(),
        event_kind: size_of::<EventKind>(),
    }
}

/// Time one `repro --quick all --jobs N` subprocess, output discarded.
fn time_sweep(repro: &Path, jobs: usize) -> Option<f64> {
    let t0 = Instant::now();
    let status = Command::new(repro)
        .args(["--quick", "all", "--jobs", &jobs.to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    match status {
        Ok(s) if s.success() => Some(t0.elapsed().as_secs_f64()),
        Ok(s) => {
            eprintln!("warning: repro --jobs {jobs} exited with {s}");
            None
        }
        Err(e) => {
            eprintln!("warning: failed to spawn {}: {e}", repro.display());
            None
        }
    }
}

fn bench_sweep(jobs: usize) -> Option<SweepBench> {
    // `repro` lands in the same target directory as this binary.
    let repro = std::env::current_exe()
        .ok()?
        .parent()?
        .join(format!("repro{}", std::env::consts::EXE_SUFFIX));
    if !repro.exists() {
        eprintln!(
            "warning: {} not found — run `cargo build --release` first; \
             recording dumbbell numbers only",
            repro.display()
        );
        return None;
    }
    println!("quick sweep --jobs 1 ...");
    let serial = time_sweep(&repro, 1)?;
    println!("quick sweep --jobs {jobs} ...");
    let parallel = time_sweep(&repro, jobs)?;
    println!(
        "quick_sweep        serial {serial:.1} s  parallel({jobs}) {parallel:.1} s  speedup {:.2}x",
        serial / parallel
    );
    Some(SweepBench {
        serial_secs: serial,
        parallel_secs: parallel,
        parallel_jobs: jobs,
        speedup: serial / parallel,
    })
}

/// Repo root: crates/bench/../..
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench has a grandparent")
        .to_path_buf()
}

/// The number at `section.key` of the parsed baseline.
fn extract_number(baseline: &Value, section: &str, key: &str) -> Option<f64> {
    let section = serde::de_field(serde::de_object(baseline).ok()?, section).ok()?;
    match serde::de_field(serde::de_object(section).ok()?, key).ok()? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// `--check`: re-measure the dumbbell and gate against the committed
/// baseline. Returns the process exit code.
fn check_against_baseline() -> i32 {
    if std::env::var("SLOWCC_SKIP_BENCH_GATE").is_ok_and(|v| v == "1") {
        println!("bench gate: SLOWCC_SKIP_BENCH_GATE=1, skipping");
        return 0;
    }
    let path = repo_root().join("BENCH_netsim.json");
    let baseline = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench gate: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    let parsed = match serde_json::parse(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench gate: {} is not JSON: {e}", path.display());
            return 1;
        }
    };
    let (Some(base_mean), Some(base_pps)) = (
        extract_number(&parsed, "dumbbell_4tcp_5s", "mean_ms"),
        extract_number(&parsed, "dumbbell_4tcp_5s", "packets_per_sec"),
    ) else {
        eprintln!(
            "bench gate: {} lacks dumbbell_4tcp_5s.mean_ms / packets_per_sec — \
             re-record it with `bench_netsim`",
            path.display()
        );
        return 1;
    };
    let fresh = bench_dumbbell(false);
    let mean_limit = base_mean * (1.0 + MEAN_MS_TOLERANCE);
    let pps_limit = base_pps * (1.0 - PACKETS_PER_SEC_TOLERANCE);
    println!(
        "bench gate         mean {:.2} ms (limit {:.2}, baseline {:.2})  \
         {:.2}M pkts/s (limit {:.2}M, baseline {:.2}M)  \
         {:.2} events/pkt (ceiling {:.1})",
        fresh.mean_ms,
        mean_limit,
        base_mean,
        fresh.packets_per_sec / 1e6,
        pps_limit / 1e6,
        base_pps / 1e6,
        fresh.events_per_packet,
        EVENTS_PER_PACKET_CEILING,
    );
    let mut code = 0;
    if fresh.mean_ms > mean_limit {
        eprintln!(
            "bench gate FAIL: dumbbell mean_ms {:.2} regressed more than {:.0}% over \
             the committed {:.2}",
            fresh.mean_ms,
            MEAN_MS_TOLERANCE * 100.0,
            base_mean
        );
        code = 1;
    }
    if fresh.packets_per_sec < pps_limit {
        eprintln!(
            "bench gate FAIL: packets/sec {:.2}M dropped more than {:.0}% below \
             the committed {:.2}M",
            fresh.packets_per_sec / 1e6,
            PACKETS_PER_SEC_TOLERANCE * 100.0,
            base_pps / 1e6
        );
        code = 1;
    }
    if fresh.events_per_packet > EVENTS_PER_PACKET_CEILING {
        eprintln!(
            "bench gate FAIL: {:.2} events per packet ({} events / {} packets) is over \
             the {:.1} ceiling — something schedules events the lazy link service removed",
            fresh.events_per_packet,
            fresh.events_processed,
            fresh.packets_injected,
            EVENTS_PER_PACKET_CEILING,
        );
        code = 1;
    }
    // Shard gate. Determinism is checked unconditionally: 4-shard
    // statistics must be byte-identical to serial (shard_cell asserts
    // this, so a divergence aborts loudly). The speedup assertion is
    // skipped when the committed baseline's machine-readable warnings
    // array flags the "shards" section — i.e. the baseline host had
    // fewer cores than shard workers, which timeshare and cannot speed up.
    let (serial, reference) = shard_cell(1, 2, None);
    let (sharded, _) = shard_cell(4, 2, Some(&reference));
    let baseline_timeshared = baseline.contains("shard workers timeshare");
    let speedup = sharded.events_per_sec / serial.events_per_sec;
    if !cores_for_4_shards() || baseline_timeshared {
        println!(
            "bench gate         shards: determinism OK, speedup {:.2}x not asserted (fewer than 4 cores)",
            speedup
        );
    } else if speedup < 1.0 {
        eprintln!(
            "bench gate FAIL: 4 shards ran {:.2}x serial speed on a host with a core per shard",
            speedup
        );
        code = 1;
    } else {
        println!("bench gate         shards: determinism OK, speedup {speedup:.2}x");
    }
    // Supervisor gate: fresh armed-vs-unarmed A/B on this host (the
    // ratio is host-speed-independent, so no baseline field is needed).
    // An over-limit first measurement is confirmed with one re-measure
    // before failing: the paired-median estimator still jitters ±1-2%
    // on busy hosts, and requiring two independent exceedances squares
    // the false-FAIL rate while a real regression trips both.
    let mut sup = bench_supervisor(10);
    if sup.overhead_frac > SUPERVISOR_OVERHEAD_TOLERANCE {
        println!("bench gate         supervisor overhead over limit; re-measuring to confirm");
        let confirm = bench_supervisor(10);
        if confirm.overhead_frac < sup.overhead_frac {
            sup = confirm;
        }
    }
    if sup.overhead_frac > SUPERVISOR_OVERHEAD_TOLERANCE {
        eprintln!(
            "bench gate FAIL: armed budget costs {:.2}% events/sec (limit {:.0}%)",
            sup.overhead_frac * 100.0,
            SUPERVISOR_OVERHEAD_TOLERANCE * 100.0,
        );
        code = 1;
    } else {
        println!(
            "bench gate         supervisor: armed-budget overhead {:+.2}% (limit {:.0}%)",
            sup.overhead_frac * 100.0,
            SUPERVISOR_OVERHEAD_TOLERANCE * 100.0,
        );
    }
    // Streaming-trace gate: the sink must stay a cheap, O(1)-memory
    // observer. Both numbers are host-speed-independent (a ratio and an
    // RSS delta), so no baseline field is consulted.
    let stream = bench_streaming_trace();
    if stream.overhead_frac > STREAMING_OVERHEAD_TOLERANCE {
        eprintln!(
            "bench gate FAIL: streaming trace costs {:.1}% wall clock (limit {:.0}%)",
            stream.overhead_frac * 100.0,
            STREAMING_OVERHEAD_TOLERANCE * 100.0,
        );
        code = 1;
    }
    match stream.rss_growth_bytes {
        Some(growth) if growth > STREAMING_RSS_BOUND_BYTES => {
            eprintln!(
                "bench gate FAIL: traced {:.1}M-packet run grew RSS by {:.1} MiB \
                 (limit {} MiB) — the sink must be O(1) in packet count",
                stream.packets_injected as f64 / 1e6,
                growth as f64 / (1024.0 * 1024.0),
                STREAMING_RSS_BOUND_BYTES / (1024 * 1024),
            );
            code = 1;
        }
        Some(growth) => println!(
            "bench gate         streaming trace: overhead {:+.1}%, RSS +{} KiB over \
             {:.1}M packets (O(1) bound OK)",
            stream.overhead_frac * 100.0,
            growth / 1024,
            stream.packets_injected as f64 / 1e6,
        ),
        None => println!(
            "bench gate         streaming trace: overhead {:+.1}%, RSS bound not \
             measurable (/proc unavailable)",
            stream.overhead_frac * 100.0,
        ),
    }
    if code == 0 {
        println!("bench gate         OK");
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--check") {
        std::process::exit(check_against_baseline());
    }
    let skip_sweep = args.iter().any(|a| a == "--skip-sweep");
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut warnings = Vec::new();
    let single_core = jobs == 1;
    if single_core {
        warnings.push(SINGLE_CORE_WARNING);
    }
    let dumbbell_4tcp_5s = bench_dumbbell(true);
    let shards = bench_shards(&mut warnings);
    let supervisor_overhead = bench_supervisor(6);
    let streaming_trace = bench_streaming_trace();
    let report = BenchReport {
        available_parallelism: jobs,
        dumbbell_4tcp_5s,
        shards,
        supervisor_overhead,
        streaming_trace,
        packet_bytes: packet_bytes(),
        // A single-core host cannot demonstrate sweep parallelism:
        // don't burn two full sweeps producing a meaningless 1.0x.
        quick_sweep: if skip_sweep || single_core {
            None
        } else {
            bench_sweep(jobs)
        },
        warnings,
    };
    let root = repo_root();
    slowcc_experiments::report::write_json(&root, "BENCH_netsim", &report)
        .expect("write BENCH_netsim.json");
    println!("wrote {}", root.join("BENCH_netsim.json").display());
}
