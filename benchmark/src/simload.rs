//! The five in-process simulation workloads: how each is built from a
//! seed, run, and reduced to the counters and digest that must repeat
//! exactly.
//!
//! Everything here goes through the public API of `netsim`, `core` and
//! `traffic`; with `probes` set, every `core` agent and the trace sink
//! are installed behind the timing proxies of [`crate::proxy`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use slowcc_core::agent::install_flow;
use slowcc_core::rap::{Rap, RapConfig};
use slowcc_core::tcp::{Tcp, TcpConfig, TcpSink};
use slowcc_core::tear::{Tear, TearConfig, TearSink};
use slowcc_core::tfrc::{Tfrc, TfrcConfig, TfrcSink};
use slowcc_netsim::audit::AuditMode;
use slowcc_netsim::ids::{FlowId, LinkId};
use slowcc_netsim::sim::{Agent, Simulator};
use slowcc_netsim::stats::Stats;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{Dumbbell, DumbbellConfig, HostPair, ParkingLot};
use slowcc_netsim::trace::{StreamFormat, StreamTrace};
use slowcc_traffic::cbr::{install_cbr, RateSchedule};

use crate::proxy::{Layer, Probes};

/// One of the simulation workloads (see `Workload` for the reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    BulkTcp,
    BulkTcpTraced,
    FlavorMix,
    ForwardCbr,
    WideLot,
}

/// Simulated seconds each workload runs for. Flow counts, rates and
/// topologies are the regime; the length is cut so that one iteration
/// takes 0.3-0.5 s of host time and a 10 s run holds twenty or more,
/// which is what keeps the reported medians steady.
impl SimWorkload {
    pub fn horizon(self) -> SimTime {
        SimTime::from_secs(match self {
            SimWorkload::BulkTcp | SimWorkload::BulkTcpTraced => 40,
            SimWorkload::FlavorMix => 70,
            SimWorkload::ForwardCbr => 7,
            SimWorkload::WideLot => 4,
        })
    }
}

/// How a sender is built; the variant names the proxy layer it is
/// charged to.
#[derive(Clone, Copy)]
enum Flavor {
    Tcp(TcpConfig),
    Binomial(TcpConfig),
    Rap(RapConfig),
    Tfrc(TfrcConfig),
    Tear(TearConfig),
}

/// A built, not yet run, workload.
pub struct Built {
    pub sim: Simulator,
    /// Congestion-controlled flows, in install order.
    pub flows: Vec<FlowId>,
    /// Open-loop CBR flows, and the size of their packets in bytes.
    pub cbr_flows: Vec<FlowId>,
    pub cbr_pkt_size: u32,
    /// What the `StreamTrace` of `bulk-tcp-traced` has written so far.
    pub streamed: Option<Arc<Streamed>>,
    /// The forward congested link whose counters are reported (hop 0 of
    /// the parking lot).
    pub bottleneck: LinkId,
    pub bottleneck_bps: f64,
    pub horizon: SimTime,
}

/// Options of one build beyond the workload and seed.
#[derive(Default)]
pub struct BuildOpts<'a> {
    /// Install every `core` agent and the trace sink behind proxies.
    pub probes: Option<&'a Probes>,
    /// Run under the invariant auditor in `Collect` mode.
    pub audit: bool,
    /// Leave out the `StreamTrace` of `bulk-tcp-traced` (to price it).
    pub no_trace_sink: bool,
}

/// Rows and bytes a `StreamTrace` wrote. The trace goes nowhere (the
/// workload prices producing it, not a file system); only its volume is
/// kept.
#[derive(Debug, Default)]
pub struct Streamed {
    rows: AtomicU64,
    bytes: AtomicU64,
}

impl Streamed {
    /// `(rows, bytes)` written so far.
    pub fn volume(&self) -> (u64, u64) {
        (
            self.rows.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

struct CountingWriter(Arc<Streamed>);

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let rows = buf.iter().filter(|b| **b == b'\n').count() as u64;
        self.0.rows.fetch_add(rows, Ordering::Relaxed);
        self.0.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// splitmix64 finalizer: the per-flow stagger derived from the seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Start time of flow `i`: 7 ms apart plus a seeded jitter below 7 ms,
/// so flows never start in lock step and `--seed` moves every start.
fn start_time(seed: u64, i: usize) -> SimTime {
    const STEP_NS: u64 = 7_000_000;
    SimTime::from_nanos(i as u64 * STEP_NS + mix(seed, i as u64) % STEP_NS)
}

fn wrap(probes: Option<&Probes>, layer: Layer, agent: Box<dyn Agent>) -> Box<dyn Agent> {
    match probes {
        Some(p) => p.agent(layer, agent),
        None => agent,
    }
}

fn install(
    sim: &mut Simulator,
    pair: &HostPair,
    start: SimTime,
    flavor: Flavor,
    probes: Option<&Probes>,
) -> FlowId {
    let (sink_layer, sink): (Layer, Box<dyn Agent>) = match flavor {
        Flavor::Tcp(_) | Flavor::Binomial(_) | Flavor::Rap(_) => {
            (Layer::TcpSink, Box::new(TcpSink::new()))
        }
        Flavor::Tfrc(cfg) => (Layer::TfrcSink, Box::new(TfrcSink::new(cfg))),
        Flavor::Tear(cfg) => (Layer::TearSink, Box::new(TearSink::new(cfg))),
    };
    install_flow(
        sim,
        pair,
        start,
        wrap(probes, sink_layer, sink),
        |w| match flavor {
            Flavor::Tcp(cfg) => wrap(probes, Layer::Tcp, Box::new(Tcp::new(cfg, w))),
            Flavor::Binomial(cfg) => wrap(probes, Layer::Binomial, Box::new(Tcp::new(cfg, w))),
            Flavor::Rap(cfg) => wrap(probes, Layer::Rap, Box::new(Rap::new(cfg, w))),
            Flavor::Tfrc(cfg) => wrap(probes, Layer::Tfrc, Box::new(Tfrc::new(cfg, w))),
            Flavor::Tear(cfg) => wrap(probes, Layer::Tear, Box::new(Tear::new(cfg, w))),
        },
    )
    .flow
}

/// Build `workload` from `seed`. Deterministic: the same arguments give
/// the same simulation.
pub fn build(workload: SimWorkload, seed: u64, opts: &BuildOpts<'_>) -> Built {
    const PKT: u32 = 1000;
    let mut sim = if opts.audit {
        Simulator::with_audit_mode(seed, AuditMode::Collect)
    } else {
        Simulator::new(seed)
    };
    let probes = opts.probes;
    let mut flows = Vec::new();
    let mut cbr_flows = Vec::new();
    let mut cbr_pkt_size = PKT;
    let mut streamed = None;
    let (bottleneck, bottleneck_bps);
    match workload {
        SimWorkload::BulkTcp | SimWorkload::BulkTcpTraced => {
            if workload == SimWorkload::BulkTcpTraced && !opts.no_trace_sink {
                let volume = Arc::new(Streamed::default());
                let writer = CountingWriter(Arc::clone(&volume));
                streamed = Some(volume);
                let sink = Box::new(StreamTrace::new(
                    writer,
                    StreamFormat::Jsonl,
                    SimDuration::from_millis(100),
                ));
                sim.set_trace(match probes {
                    Some(p) => p.trace_sink(sink),
                    None => sink,
                });
            }
            bottleneck_bps = 100e6;
            let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(bottleneck_bps));
            bottleneck = db.forward;
            for i in 0..16 {
                let pair = db.add_host_pair(&mut sim);
                flows.push(install(
                    &mut sim,
                    &pair,
                    start_time(seed, i),
                    Flavor::Tcp(TcpConfig::standard(PKT)),
                    probes,
                ));
            }
        }
        SimWorkload::FlavorMix => {
            bottleneck_bps = 45e6;
            let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(bottleneck_bps));
            bottleneck = db.forward;
            let flavors = [
                Flavor::Tcp(TcpConfig::tcp_gamma(2.0, PKT)),
                Flavor::Tcp(TcpConfig::tcp_gamma(8.0, PKT)),
                Flavor::Binomial(TcpConfig::sqrt_gamma(2.0, PKT)),
                Flavor::Binomial(TcpConfig::iiad_gamma(2.0, PKT)),
                Flavor::Rap(RapConfig::rap_gamma(2.0, PKT)),
                Flavor::Tfrc(TfrcConfig::tfrc_k(6, PKT)),
                Flavor::Tfrc(TfrcConfig::tfrc_k(256, PKT).with_self_clocking()),
                Flavor::Tear(TearConfig::standard(PKT)),
            ];
            for i in 0..32 {
                let pair = db.add_host_pair(&mut sim);
                flows.push(install(
                    &mut sim,
                    &pair,
                    start_time(seed, i),
                    flavors[i % flavors.len()],
                    probes,
                ));
            }
            let pair = db.add_host_pair(&mut sim);
            let wave = RateSchedule::SquareWave {
                rate_bps: 30e6,
                half_period: SimDuration::from_secs(2),
            };
            cbr_flows.push(install_cbr(&mut sim, &pair, wave, PKT, start_time(seed, 32)).flow);
        }
        SimWorkload::ForwardCbr => {
            cbr_pkt_size = 100;
            bottleneck_bps = 100e6;
            let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(bottleneck_bps));
            bottleneck = db.forward;
            for i in 0..16 {
                let pair = db.add_host_pair(&mut sim);
                let schedule = if i == 15 {
                    RateSchedule::SquareWave {
                        rate_bps: 40e6,
                        half_period: SimDuration::from_secs(1),
                    }
                } else {
                    RateSchedule::Constant(5.5e6)
                };
                cbr_flows.push(
                    install_cbr(&mut sim, &pair, schedule, cbr_pkt_size, start_time(seed, i)).flow,
                );
            }
        }
        SimWorkload::WideLot => {
            const HOPS: usize = 3;
            bottleneck_bps = 155e6;
            let lot = ParkingLot::build(&mut sim, DumbbellConfig::paper(bottleneck_bps), HOPS);
            bottleneck = lot.forward[0];
            for i in 0..1024 {
                // Even flows cross the whole chain; odd flows are one-hop
                // cross traffic, round-robin over the hops.
                let (from, to) = if i % 2 == 0 {
                    (0, HOPS)
                } else {
                    ((i / 2) % HOPS, (i / 2) % HOPS + 1)
                };
                let pair = lot.add_host_pair(&mut sim, from, to);
                flows.push(install(
                    &mut sim,
                    &pair,
                    start_time(seed, i),
                    Flavor::Tcp(TcpConfig::standard(PKT)),
                    probes,
                ));
            }
        }
    }
    Built {
        sim,
        flows,
        cbr_flows,
        cbr_pkt_size,
        streamed,
        bottleneck,
        bottleneck_bps,
        horizon: workload.horizon(),
    }
}

/// What one iteration simulated: the counters that must repeat exactly
/// for a given workload and seed, on any commit that does not mean to
/// change simulated behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub events: u64,
    pub packets: u64,
    /// FNV-1a over every flow's and link's `Stats` totals and bins.
    pub digest: u64,
}

/// One finished iteration.
pub struct Finished {
    pub built: Built,
    pub outcome: Outcome,
    /// Host seconds inside `run_until`.
    pub wall_s: f64,
    /// CPU seconds (user + system) inside `run_until`.
    pub cpu_s: f64,
}

/// Run a built workload to its horizon, timing only the `run_until` call.
pub fn run(mut built: Built) -> Finished {
    let cpu0 = crate::host::self_usage().cpu_s;
    let t0 = Instant::now();
    built.sim.run_until(built.horizon);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::host::self_usage().cpu_s - cpu0;
    let outcome = Outcome {
        events: built.sim.events_processed(),
        packets: built.sim.packets_injected(),
        digest: digest(built.sim.stats()),
    };
    Finished {
        built,
        outcome,
        wall_s,
        cpu_s,
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn series(&mut self, s: &[u64]) {
        self.word(s.len() as u64);
        for &w in s {
            self.word(w);
        }
    }
}

/// FNV-1a over every flow's and every link's totals and per-bin series,
/// in id order: two runs digest equal exactly when their recorded
/// statistics are equal.
pub fn digest(stats: &Stats) -> u64 {
    let mut h = Fnv::new();
    for f in (0..).map_while(|i| stats.flow(FlowId::from_index(i))) {
        h.series(&f.tx_bytes);
        h.series(&f.rx_bytes);
        h.series(&f.rx_packets);
        for t in [f.total_tx_bytes, f.total_rx_bytes, f.total_rx_packets] {
            h.word(t);
        }
    }
    for l in (0..).map_while(|i| stats.link(LinkId::from_index(i))) {
        for s in [&l.arrivals, &l.drops, &l.marks, &l.queue_sum, &l.tx_bytes] {
            h.series(s);
        }
        for t in [
            l.total_arrivals,
            l.total_drops,
            l.total_marks,
            l.total_tx_bytes,
            l.total_tx_packets,
            l.total_duplicates,
            l.total_fault_held,
            l.total_flap_drops,
        ] {
            h.word(t);
        }
    }
    h.0
}

/// Link conservation on the bottleneck: every packet offered was sent,
/// dropped, or is still in the buffer (at most one more is in service).
pub fn conserves(fin: &Finished) -> bool {
    let Some(l) = fin.built.sim.stats().link(fin.built.bottleneck) else {
        return false;
    };
    let queued = fin.built.sim.link_queue_len(fin.built.bottleneck) as u64;
    let accounted = l.total_tx_packets + l.total_drops + queued;
    l.total_arrivals == accounted || l.total_arrivals == accounted + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_for(workload: SimWorkload, seed: u64, millis: u64, opts: &BuildOpts<'_>) -> Finished {
        let mut built = build(workload, seed, opts);
        built.horizon = SimTime::from_millis(millis);
        run(built)
    }

    #[test]
    fn every_workload_repeats_exactly_and_conserves_packets() {
        for w in [
            SimWorkload::BulkTcp,
            SimWorkload::BulkTcpTraced,
            SimWorkload::FlavorMix,
            SimWorkload::ForwardCbr,
            SimWorkload::WideLot,
        ] {
            let first = run_for(w, 7, 300, &BuildOpts::default());
            assert!(first.outcome.packets > 0, "{w:?} sent nothing");
            assert!(conserves(&first), "{w:?} breaks link conservation");
            assert_eq!(
                run_for(w, 7, 300, &BuildOpts::default()).outcome,
                first.outcome,
                "{w:?} does not repeat"
            );
        }
    }

    #[test]
    fn the_seed_moves_the_simulation() {
        let a = run_for(SimWorkload::BulkTcp, 1, 2000, &BuildOpts::default()).outcome;
        let b = run_for(SimWorkload::BulkTcp, 2, 2000, &BuildOpts::default()).outcome;
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn proxies_and_the_auditor_leave_the_simulation_alone() {
        for w in [
            SimWorkload::BulkTcp,
            SimWorkload::BulkTcpTraced,
            SimWorkload::FlavorMix,
        ] {
            let bare = run_for(w, 3, 2000, &BuildOpts::default()).outcome;
            let probes = Probes::default();
            let proxied = run_for(
                w,
                3,
                2000,
                &BuildOpts {
                    probes: Some(&probes),
                    ..BuildOpts::default()
                },
            );
            assert_eq!(proxied.outcome, bare, "{w:?}: proxies changed the run");
            drop(proxied);
            let (calls, ns) = probes.layer(Layer::TcpSink).callback(1);
            assert!(
                calls > 0 && ns > 0,
                "{w:?}: the TcpSink proxy saw no packets"
            );
            let (records, _) = probes.sink.callback(0);
            assert_eq!(
                records > 0,
                w == SimWorkload::BulkTcpTraced,
                "{w:?}: trace sink records"
            );
            let mut audited = run_for(
                w,
                3,
                2000,
                &BuildOpts {
                    audit: true,
                    ..BuildOpts::default()
                },
            );
            assert_eq!(audited.outcome, bare, "{w:?}: the auditor changed the run");
            assert!(audited
                .built
                .sim
                .finish_audit()
                .expect("audit was on")
                .is_clean());
        }
    }

    #[test]
    fn the_trace_sink_is_priced_against_the_same_run_without_it() {
        let with = run_for(SimWorkload::BulkTcpTraced, 5, 1000, &BuildOpts::default());
        let without = run_for(
            SimWorkload::BulkTcpTraced,
            5,
            1000,
            &BuildOpts {
                no_trace_sink: true,
                ..BuildOpts::default()
            },
        );
        assert_eq!(with.outcome, without.outcome);
        let (rows, bytes) = with
            .built
            .streamed
            .as_ref()
            .expect("the traced workload streams")
            .volume();
        assert!(
            rows >= 9 && bytes > 0,
            "{rows} rows, {bytes} bytes for 1 s of 100 ms bins"
        );
        assert!(without.built.streamed.is_none());
    }
}
