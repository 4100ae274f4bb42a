//! Measuring a simulation workload: the timed run that gives the
//! end-to-end metrics with no proxy installed, and the traced pass that
//! rebuilds it behind proxies for the per-layer metrics.

use std::time::Instant;

use serde::Value;
use slowcc_metrics::fairness::{delta_fair_convergence_time, jain_index, ConvergenceConfig};
use slowcc_metrics::lossrate::{stabilization, StabilizationConfig};
use slowcc_metrics::smooth::{coefficient_of_variation, smoothness_metric};
use slowcc_netsim::time::{SimDuration, SimTime};

use crate::host;
use crate::micro;
use crate::pace::Pacer;
use crate::proxy::{self, ClockCost, Layer, Probes, CALLBACKS};
use crate::quant::median;
use crate::report::{int, obj, s as text, Checks, Metrics, RunResult, Samples};
use crate::simload::{build, conserves, run, BuildOpts, Finished, Outcome, SimWorkload};
use crate::spans::Tracer;
use crate::spec::Workload;

/// Median seconds from `Simulator::new` to the last agent installed, on
/// the quiet reference host. After three untimed builds, nine windows,
/// each between two blocks of beats and holding at least seven builds
/// and as many as fit in 25 ms (thousands, where a build takes
/// microseconds). A window reads its median build over the host's
/// slowness (see `pace`), and the result is the median window: timed as
/// one stretch, set-up spread by 20-36 % over ten runs.
fn setup_seconds(pacer: &mut Pacer, workload: SimWorkload, seed: u64) -> f64 {
    // A few builds stay alive: freeing each one at once lets the
    // allocator hand the heap top back and page it in again on the next
    // build, or not, depending on where this process's heap happens to
    // lie, and that alone moved the median 3x from run to run.
    let mut alive = std::collections::VecDeque::new();
    let mut build_once = || {
        let t0 = Instant::now();
        let built = std::hint::black_box(build(workload, seed, &BuildOpts::default()));
        let secs = t0.elapsed().as_secs_f64();
        alive.push_back(built);
        if alive.len() > 4 {
            alive.pop_front();
        }
        secs
    };
    for _ in 0..3 {
        build_once();
    }
    let windows: Vec<f64> = (0..9)
        .map(|_| {
            let (times, slowness) = pacer.paced(|| {
                let (mut times, started) = (Vec::new(), Instant::now());
                while times.len() < 7 || started.elapsed().as_secs_f64() < 0.025 {
                    times.push(build_once());
                }
                times
            });
            median(&times) / slowness
        })
        .collect();
    median(&windows)
}

fn check_iteration(checks: &mut Checks, what: &str, fin: &Finished, reference: Outcome) {
    checks.check(fin.outcome == reference, || {
        format!(
            "{what}: simulated {:?}, the first iteration {reference:?}",
            fin.outcome
        )
    });
    checks.check(conserves(fin), || {
        format!("{what}: bottleneck arrivals != sent + dropped + queued")
    });
}

/// The timed run: one untimed warm-up iteration, iterations until
/// `seconds` have passed, then set-up repeated for its median. Every
/// iteration must simulate exactly what the warm-up did. Every timing
/// is divided by the host's slowness while it was taken (see `pace`).
pub fn timed(workload: SimWorkload, seed: u64, seconds: f64) -> RunResult {
    let mut checks = Checks::default();
    let mut pacer = Pacer::new(Workload::Sim(workload).sensitivity());
    let reference = run(build(workload, seed, &BuildOpts::default())).outcome;
    let mut samples = Samples::default();
    let t0 = Instant::now();
    while samples.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        let built = build(workload, seed, &BuildOpts::default());
        let (fin, slowness) = pacer.paced(|| run(built));
        check_iteration(&mut checks, "timed iteration", &fin, reference);
        samples.push(fin.wall_s, fin.cpu_s, slowness);
    }
    // Read the peak before the set-up phase: its live builds are not
    // part of an iteration's footprint (on `wide-lot` they would triple
    // it). Nor are the pacer's tables, resident since before the first
    // iteration.
    let peak_rss_bytes = host::peak_rss_bytes().map_or(f64::NAN, |peak| {
        peak.saturating_sub(pacer.footprint_bytes()) as f64
    });
    let setup_s = setup_seconds(&mut pacer, workload, seed);
    let mut metrics = Metrics::end_to_end();
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_bytes", peak_rss_bytes);
    let note = samples.report(reference.packets as f64, &mut metrics);
    eprintln!(
        "{} iterations; events {} packets {} sim_digest {:016x}; {note}",
        samples.len(),
        reference.events,
        reference.packets,
        reference.digest,
    );
    RunResult { checks, metrics }
}

/// Busy seconds of `(calls, ns)` net of what empty callbacks would read.
fn net_busy_s(calls: u64, ns: u64, clock: ClockCost) -> f64 {
    (ns as f64 - calls as f64 * clock.empty_ns).max(0.0) * 1e-9
}

/// Seconds the `metrics` crate takes over the finished run's series:
/// stabilization, fairness (Jain + delta-fair convergence of flow
/// pairs) and smoothness of every flow.
fn metrics_crate_seconds(fin: &Finished) -> f64 {
    let stats = fin.built.sim.stats();
    let horizon = fin.built.horizon;
    let half = SimTime::from_nanos(horizon.as_nanos() / 2);
    let rtt = SimDuration::from_millis(50);
    let every_flow: Vec<_> = fin
        .built
        .flows
        .iter()
        .chain(&fin.built.cbr_flows)
        .copied()
        .collect();
    let t0 = Instant::now();
    std::hint::black_box(stabilization(
        stats,
        fin.built.bottleneck,
        &StabilizationConfig {
            onset: half,
            steady_from: SimTime::ZERO,
            steady_to: half,
            rtt,
            window_rtts: 10,
            factor: 1.5,
            horizon,
        },
    ));
    let rates: Vec<f64> = every_flow
        .iter()
        .map(|f| stats.flow_throughput_bps(*f, SimTime::ZERO, horizon))
        .collect();
    std::hint::black_box(jain_index(&rates));
    for pair in every_flow.chunks_exact(2) {
        let cfg = ConvergenceConfig {
            delta: 0.1,
            window: rtt * 10,
            from: SimTime::ZERO,
            horizon,
        };
        std::hint::black_box(delta_fair_convergence_time(
            stats,
            pair[0],
            pair[1],
            fin.built.bottleneck_bps,
            &cfg,
        ));
    }
    for f in &every_flow {
        let series = stats.flow_rate_series_bps(*f, SimDuration::from_millis(200), horizon);
        std::hint::black_box((
            smoothness_metric(&series),
            coefficient_of_variation(&series),
        ));
    }
    t0.elapsed().as_secs_f64()
}

/// Counters of the bottleneck link; returns the seconds it takes to
/// read every flow's and the link's series back.
fn read_link_and_stats(fin: &Finished, metrics: &mut Metrics) -> f64 {
    let stats = fin.built.sim.stats();
    let (link, horizon) = (fin.built.bottleneck, fin.built.horizon);
    if let Some(l) = stats.link(link) {
        metrics.set("netsim.link.arrivals", l.total_arrivals as f64);
        metrics.set("netsim.link.drops", l.total_drops as f64);
        metrics.set("netsim.link.marks", l.total_marks as f64);
        metrics.set("netsim.link.tx_pkts", l.total_tx_packets as f64);
    }
    metrics.set(
        "netsim.link.utilization",
        stats.link_utilization_in(link, SimTime::ZERO, horizon, fin.built.bottleneck_bps),
    );
    let depth = stats.link_queue_series(link, SimDuration::from_millis(100), horizon);
    metrics.set(
        "netsim.queue.depth_mean",
        depth.iter().sum::<f64>() / depth.len().max(1) as f64,
    );
    metrics.set(
        "netsim.queue.depth_peak_bin",
        depth.iter().copied().fold(0.0, f64::max),
    );

    let window = SimDuration::from_millis(100);
    let t0 = Instant::now();
    for f in fin.built.flows.iter().chain(&fin.built.cbr_flows) {
        std::hint::black_box(stats.flow_rate_series_bps(*f, window, horizon));
        std::hint::black_box(stats.flow_tx_rate_series_bps(*f, window, horizon));
    }
    std::hint::black_box(stats.link_loss_series(link, window, horizon));
    std::hint::black_box(stats.link_queue_series(link, window, horizon));
    let query_s = t0.elapsed().as_secs_f64();

    let cbr_bytes: u64 = fin
        .built
        .cbr_flows
        .iter()
        .filter_map(|f| stats.flow(*f))
        .map(|f| f.total_tx_bytes)
        .sum();
    metrics.set(
        "traffic.cbr.pkts",
        (cbr_bytes / u64::from(fin.built.cbr_pkt_size.max(1))) as f64,
    );
    query_s
}

/// One proxied iteration: its wall time and what each probe collected.
struct Proxied {
    wall_s: f64,
    layers: Vec<[(u64, u64); 3]>,
    sink: (u64, u64),
}

fn proxied_iteration(
    workload: SimWorkload,
    seed: u64,
    checks: &mut Checks,
    reference: Outcome,
) -> Proxied {
    let probes = Probes::default();
    let fin = run(build(
        workload,
        seed,
        &BuildOpts {
            probes: Some(&probes),
            ..BuildOpts::default()
        },
    ));
    checks.check(fin.outcome == reference, || {
        format!(
            "proxies changed the simulation: {:?}, bare {reference:?}",
            fin.outcome
        )
    });
    let wall_s = fin.wall_s;
    // Proxies fold their totals into the probes when the simulator drops them.
    drop(fin);
    Proxied {
        wall_s,
        layers: Layer::ALL
            .iter()
            .map(|l| [0, 1, 2].map(|k| probes.layer(*l).callback(k)))
            .collect(),
        sink: probes.sink.callback(0),
    }
}

/// The traced pass. Spans cover the phases of the pass itself; the
/// millions of callbacks inside a simulation are aggregated per layer
/// and callback kind. Returns the result and the `trace.json` document.
pub fn traced(
    workload: SimWorkload,
    seed: u64,
    seconds: f64,
) -> std::io::Result<(RunResult, Value)> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::per_layer();
    let mut tracer = Tracer::new();
    let root = tracer.begin("traced-pass", None);
    let clock = proxy::clock_cost();

    // First iteration in a fresh process: its RSS growth is the
    // workload's own footprint, not the allocator's leftovers.
    let rss_before = host::current_rss_bytes();
    let (built, _) = tracer.span("build", Some(root), || {
        build(workload, seed, &BuildOpts::default())
    });
    let (bare, _) = tracer.span("run_until", Some(root), || run(built));
    let reference = bare.outcome;
    check_iteration(&mut checks, "bare iteration", &bare, reference);
    let flows = (bare.built.flows.len() + bare.built.cbr_flows.len()) as f64;
    if let (Some(before), Some(after)) = (rss_before, host::current_rss_bytes()) {
        metrics.set(
            "netsim.stats.bytes_per_flow",
            after.saturating_sub(before) as f64 / flows,
        );
    }
    let pool_capacity = bare.built.sim.packet_pool_capacity();
    metrics.set("netsim.sim.pool_capacity", pool_capacity as f64);
    let (query_s, _) = tracer.span("read-stats", Some(root), || {
        read_link_and_stats(&bare, &mut metrics)
    });
    let (metrics_crate_s, _) =
        tracer.span("metrics-crate", Some(root), || metrics_crate_seconds(&bare));
    let mut bare_walls = vec![bare.wall_s];
    let streamed = bare.built.streamed.clone();
    // The volume is of completed bins: the open tail bin is never written.
    drop(bare);
    if let Some((rows, bytes)) = streamed.map(|s| s.volume()) {
        metrics.set("netsim.trace.rows", rows as f64);
        metrics.set("netsim.trace.bytes", bytes as f64);
    }

    // Bare and proxied iterations alternate so host drift lands on both.
    let mut proxied = Vec::new();
    let mut unsinked_walls = Vec::new();
    let pairs = tracer.begin("bare-vs-proxied", Some(root));
    let t0 = Instant::now();
    while proxied.is_empty() || (proxied.len() < 5 && t0.elapsed().as_secs_f64() < seconds) {
        let (p, _) = tracer.span("proxied", Some(pairs), || {
            proxied_iteration(workload, seed, &mut checks, reference)
        });
        proxied.push(p);
        let (fin, _) = tracer.span("bare", Some(pairs), || {
            run(build(workload, seed, &BuildOpts::default()))
        });
        check_iteration(&mut checks, "bare iteration", &fin, reference);
        bare_walls.push(fin.wall_s);
        if workload == SimWorkload::BulkTcpTraced {
            let opts = BuildOpts {
                no_trace_sink: true,
                ..BuildOpts::default()
            };
            let (fin, _) = tracer.span("bare-without-sink", Some(pairs), || {
                run(build(workload, seed, &opts))
            });
            checks.check(fin.outcome == reference, || {
                "the trace sink changed the simulation".to_string()
            });
            unsinked_walls.push(fin.wall_s);
        }
    }
    tracer.end(pairs);

    let (mut audited, _) = tracer.span("audited", Some(root), || {
        run(build(
            workload,
            seed,
            &BuildOpts {
                audit: true,
                ..BuildOpts::default()
            },
        ))
    });
    let report = audited.built.sim.finish_audit();
    checks.check(report.as_ref().is_some_and(|r| r.is_clean()), || {
        format!(
            "audited iteration: {}",
            report
                .as_ref()
                .map_or("no audit report".to_string(), |r| r.summary())
        )
    });
    checks.check(audited.outcome == reference, || {
        "the auditor changed the simulation".to_string()
    });
    let audited_wall = audited.wall_s;
    drop(audited);

    let (holds, _) = tracer.span("isolated-costs", Some(root), || {
        micro::isolated_costs(&mut metrics, clock)
    });
    let holds = holds?;

    let bare_wall = median(&bare_walls);
    metrics.set("netsim.sim.events", reference.events as f64);
    metrics.set(
        "netsim.sim.events_per_pkt",
        reference.events as f64 / reference.packets as f64,
    );
    metrics.set(
        "netsim.sim.events_per_s",
        reference.events as f64 / bare_wall,
    );
    metrics.set("netsim.stats.query_share", query_s / bare_wall);
    metrics.set("metrics.share", metrics_crate_s / bare_wall);
    metrics.set("netsim.audit.overhead_frac", audited_wall / bare_wall - 1.0);
    // Computed, not measured: the hold cost at the depth nearest the
    // peak number of live packets, as if every event paid it.
    let nearest = holds.iter().min_by(|a, b| {
        let dist = |d: usize| (d as f64 / pool_capacity.max(1) as f64).ln().abs();
        dist(a.0)
            .partial_cmp(&dist(b.0))
            .expect("depths are positive")
    });
    metrics.set(
        "netsim.event.est_share",
        nearest.map_or(0.0, |h| h.1) * 1e-9 * reference.events as f64 / bare_wall,
    );
    if !unsinked_walls.is_empty() {
        metrics.set(
            "netsim.trace.overhead_frac",
            bare_wall / median(&unsinked_walls) - 1.0,
        );
    }

    // Report the proxied iteration of median wall time, so that busy
    // times, residual and shares all describe one and the same run.
    proxied.sort_by(|a, b| {
        a.wall_s
            .partial_cmp(&b.wall_s)
            .expect("wall times are not NaN")
    });
    let rep = &proxied[proxied.len() / 2];
    metrics.set("trace.overhead_frac", rep.wall_s / bare_wall - 1.0);
    // The proxied wall net of the proxies' own clock reads estimates the
    // bare wall; shares are of that, so core + sink + residual is 1.
    let (sink_calls, sink_ns) = rep.sink;
    let proxy_calls = sink_calls + rep.layers.iter().flatten().map(|c| c.0).sum::<u64>();
    let net_wall = rep.wall_s - proxy_calls as f64 * clock.pair_ns * 1e-9;
    let mut aggregates = Vec::new();
    let mut aggregate = |layer: String, callback: &str, calls: u64, ns: u64| {
        aggregates.push(obj(vec![
            ("layer", text(layer)),
            ("callback", text(callback)),
            ("calls", int(calls)),
            ("ns", int(ns)),
        ]));
    };
    let mut core_busy = 0.0;
    for (layer, callbacks) in Layer::ALL.iter().zip(&rep.layers) {
        let calls: u64 = callbacks.iter().map(|c| c.0).sum();
        let busy = net_busy_s(calls, callbacks.iter().map(|c| c.1).sum(), clock);
        core_busy += busy;
        let name = layer.name();
        metrics.set(&format!("core.{name}.calls"), calls as f64);
        metrics.set(&format!("core.{name}.share"), busy / net_wall);
        for (kind, (calls, ns)) in CALLBACKS.iter().zip(callbacks) {
            aggregate(format!("core.{name}"), kind, *calls, *ns);
        }
    }
    let sink_busy = net_busy_s(sink_calls, sink_ns, clock);
    aggregate("netsim.trace".to_string(), "record", sink_calls, sink_ns);
    let residual = net_wall - core_busy - sink_busy;
    checks.check(residual > 0.0, || {
        format!("residual {residual} s: proxied busy time exceeds the proxied wall time")
    });
    metrics.set("core.share", core_busy / net_wall);
    metrics.set("netsim.sim.residual_share", residual / net_wall);
    metrics.set("netsim.trace.events", sink_calls as f64);
    metrics.set("netsim.trace.sink_share", sink_busy / net_wall);
    tracer.end(root);

    let doc = obj(vec![
        ("events", int(reference.events)),
        ("packets", int(reference.packets)),
        ("sim_digest", text(format!("{:016x}", reference.digest))),
        ("clock_pair_ns", Value::Float(clock.pair_ns)),
        ("clock_empty_ns", Value::Float(clock.empty_ns)),
        ("bare_wall_s", Value::Float(bare_wall)),
        ("proxied_wall_s", Value::Float(rep.wall_s)),
        ("proxied_net_wall_s", Value::Float(net_wall)),
        ("stats_query_s", Value::Float(query_s)),
        ("metrics_crate_s", Value::Float(metrics_crate_s)),
        ("aggregates", Value::Array(aggregates)),
        ("spans", tracer.to_value()),
    ]);
    Ok((RunResult { checks, metrics }, doc))
}
