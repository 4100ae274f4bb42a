//! The scenario DSL: TOML-compiled experiments.
//!
//! `repro run scenario.toml` turns a declarative scenario file into a
//! [`ScenarioExperiment`] — a first-class [`Experiment`] that flows
//! through the exact same [`crate::exec`] path as every registered
//! target (manifest ledger, `--resume`, `--jobs`, `--audit`, budgets,
//! scheduler determinism). No new execution code: the
//! DSL only *compiles* a [`ScenarioSpec`], and the spec builds its
//! simulation through [`TopologySpec::build_with`] — the same calls
//! hand-written experiments make, so a scenario that re-expresses a
//! hard-coded environment is event-for-event identical to it.
//!
//! The grammar is the [`crate::toml`] subset plus a fixed schema:
//! unknown keys and sections are loud `file:line` errors, and
//! [`render_scenario`] renders any spec back to canonical TOML that
//! re-parses to an equal spec (floats via `{:?}`, `u64` seeds beyond
//! `i64` as quoted strings).

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

use slowcc_netsim::audit::AuditMode;
use slowcc_netsim::faults::{FaultPlan, FlapWindow};
use slowcc_netsim::ids::FlowId;
use slowcc_netsim::queue::RedConfig;
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{
    DumbbellConfig, DumbbellOptions, QueueKind, TopologyKind, TopologySpec,
};
use slowcc_netsim::trace::{write_bin_row, StreamFormat, TraceBin, WindowedStats, STREAM_COLUMNS};
use slowcc_traffic::bulk::add_reverse_tcp;
use slowcc_traffic::cbr::{install_cbr, RateSchedule};
use slowcc_traffic::flash::{install_flash_crowd, FlashCrowdConfig};

use crate::experiment::{AnyExperiment, CellSpec, Experiment};
use crate::flavor::Flavor;
use crate::report::{num, Table};
use crate::scale::Scale;
use crate::toml::{parse_document, Entry, Section, Value};

/// Reverse-direction background TCP flows a dumbbell scenario gets by
/// default ("data traffic flowing in both directions", Section 3).
pub const PAPER_REVERSE_FLOWS: usize = 2;

/// How a scenario's simulations are audited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuditSetting {
    /// Follow the sweep's `--audit` (carried in the cell's budget).
    Default,
    /// Always strict: any invariant violation panics the cell.
    Strict,
}

/// One `[[flow]]` block: `count` flows of one flavor with staggered
/// starts.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowBlock {
    /// Congestion control variant, in the paper's notation.
    pub flavor: Flavor,
    /// Number of flows installed from this block.
    pub count: usize,
    /// Start offset of the first flow.
    pub start: SimDuration,
    /// Start spacing between consecutive flows of this block.
    pub stagger: SimDuration,
    /// Optional send stop for every flow of this block (`stop_ms`;
    /// rejected at parse for flavors without [`Flavor::supports_stop`]).
    pub stop: Option<SimDuration>,
    /// Router span `(from, to)` on a parking lot (`path = [f, t]`).
    pub span: Option<(usize, usize)>,
    /// Custom one-way access delay (dumbbell heterogeneous-RTT knob).
    pub access_delay: Option<SimDuration>,
}

/// Shape of a `[[cbr]]` block's rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CbrShape {
    /// A fixed rate forever.
    Constant,
    /// Equal ON/OFF square wave.
    Square {
        /// Length of one ON (and one OFF) period.
        half_period: SimDuration,
    },
    /// ON for `on`, OFF for `off`, repeating.
    OnOff {
        /// ON duration.
        on: SimDuration,
        /// OFF duration.
        off: SimDuration,
    },
}

/// One `[[cbr]]` block: an unresponsive constant/scheduled-rate source.
#[derive(Debug, Clone, PartialEq)]
pub struct CbrBlock {
    /// Rate while ON, bits per second.
    pub rate_bps: f64,
    /// ON/OFF schedule shape.
    pub shape: CbrShape,
    /// Start offset.
    pub start: SimDuration,
    /// Router span on a parking lot.
    pub span: Option<(usize, usize)>,
}

/// One `[[flash]]` block: a Poisson crowd of short transfers
/// (dumbbell only).
#[derive(Debug, Clone, PartialEq)]
pub struct FlashBlock {
    /// Mean flow arrival rate, flows per second.
    pub flows_per_sec: f64,
    /// Duration of the arrival process.
    pub duration: SimDuration,
    /// Size of each transfer, in packets.
    pub transfer_packets: u64,
    /// Host pairs the transfers are spread over.
    pub host_pairs: usize,
    /// Arrival-process seed; `None` uses the cell's seed.
    pub seed: Option<u64>,
    /// Start offset of the first arrival.
    pub start: SimDuration,
}

/// The `[trace]` block: windowed bottleneck observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Aggregation bin width.
    pub bin: SimDuration,
    /// When set, `save` also streams the bins to a per-cell
    /// `.jsonl`/`.csv` file (byte-identical to a live
    /// [`slowcc_netsim::trace::StreamTrace`]).
    pub stream: Option<StreamFormat>,
}

/// A fully-parsed scenario: everything `repro run` needs to build and
/// sweep the simulation, and everything [`render_scenario`] needs to
/// write it back out canonically.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Experiment name (also the artifact stem, `-` mapped to `_`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Topology family and link/queue parameters.
    pub topology: TopologySpec,
    /// Simulated horizon.
    pub stop: SimDuration,
    /// Throughput-measurement warmup (excluded from `throughput_bps`).
    pub warmup: SimDuration,
    /// One cell per seed.
    pub seeds: Vec<u64>,
    /// Audit mode for every cell.
    pub audit: AuditSetting,
    /// Reverse-direction background TCP flows (dumbbell only).
    pub reverse_tcp: usize,
    /// Fault plan on the forward bottleneck (first hop).
    pub forward_faults: Option<FaultPlan>,
    /// Fault plan on the reverse bottleneck (first hop).
    pub reverse_faults: Option<FaultPlan>,
    /// `[[flow]]` blocks, in file order (= installation order).
    pub flows: Vec<FlowBlock>,
    /// `[[cbr]]` blocks, installed after the flows.
    pub cbr: Vec<CbrBlock>,
    /// `[[flash]]` blocks, installed last.
    pub flash: Vec<FlashBlock>,
    /// Optional windowed trace.
    pub trace: Option<TraceSpec>,
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn at(path: &str, line: usize, msg: impl fmt::Display) -> String {
    format!("{path}:{line}: {msg}")
}

fn want_str(e: &Entry, path: &str) -> Result<String, String> {
    e.value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| at(path, e.line, format_args!("`{}` must be a string", e.key)))
}

fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::Str(s) => s.parse::<u64>().ok(),
        _ => None,
    }
}

fn want_u64(e: &Entry, path: &str) -> Result<u64, String> {
    value_u64(&e.value).ok_or_else(|| {
        at(
            path,
            e.line,
            format_args!("`{}` must be a non-negative integer", e.key),
        )
    })
}

fn want_usize(e: &Entry, path: &str) -> Result<usize, String> {
    want_u64(e, path).map(|v| v as usize)
}

fn want_ms(e: &Entry, path: &str) -> Result<SimDuration, String> {
    want_u64(e, path).map(SimDuration::from_millis)
}

fn want_f64(e: &Entry, path: &str) -> Result<f64, String> {
    e.value
        .as_float()
        .filter(|f| f.is_finite())
        .ok_or_else(|| at(path, e.line, format_args!("`{}` must be a number", e.key)))
}

/// A rate: a zero or negative bandwidth builds a link that never
/// transmits (or panics deep inside RED's threshold set-up).
fn want_positive(e: &Entry, path: &str) -> Result<f64, String> {
    let f = want_f64(e, path)?;
    if f > 0.0 {
        Ok(f)
    } else {
        Err(at(path, e.line, format_args!("`{}` must be greater than zero", e.key)))
    }
}

fn want_bool(e: &Entry, path: &str) -> Result<bool, String> {
    e.value
        .as_bool()
        .ok_or_else(|| at(path, e.line, format_args!("`{}` must be true or false", e.key)))
}

/// Seconds: an integer (exact) or a float (rounded to nanoseconds).
fn want_secs(e: &Entry, path: &str) -> Result<SimDuration, String> {
    match &e.value {
        Value::Int(i) if *i >= 0 => Ok(SimDuration::from_secs(*i as u64)),
        Value::Float(f) if f.is_finite() && *f >= 0.0 => Ok(SimDuration::from_secs_f64(*f)),
        _ => Err(at(
            path,
            e.line,
            format_args!("`{}` must be a non-negative number of seconds", e.key),
        )),
    }
}

fn want_span(e: &Entry, path: &str) -> Result<(usize, usize), String> {
    let bad = || {
        at(
            path,
            e.line,
            format_args!("`{}` must be a two-element router span, e.g. `[0, 1]`", e.key),
        )
    };
    let items = e.value.as_list().ok_or_else(bad)?;
    match items {
        [Value::Int(a), Value::Int(b)] if *a >= 0 && *b >= 0 => Ok((*a as usize, *b as usize)),
        _ => Err(bad()),
    }
}

/// Nanosecond instants: a scalar or a list, for flap windows.
fn want_ns_list(e: &Entry, path: &str) -> Result<Vec<u64>, String> {
    let bad = || {
        at(
            path,
            e.line,
            format_args!("`{}` must be a nanosecond instant or a list of them", e.key),
        )
    };
    match &e.value {
        Value::List(items) => items
            .iter()
            .map(|v| value_u64(v).ok_or_else(bad))
            .collect(),
        v => Ok(vec![value_u64(v).ok_or_else(bad)?]),
    }
}

fn parse_topology(sec: &Section, path: &str) -> Result<TopologySpec, String> {
    let mut kind: Option<(String, usize)> = None;
    let mut hops: Option<(usize, usize)> = None; // (value, line)
    let mut mbps: Option<f64> = None;
    let mut bottleneck_delay: Option<SimDuration> = None;
    let mut access_mbps: Option<f64> = None;
    let mut access_delay: Option<SimDuration> = None;
    let mut pkt_size: Option<u32> = None;
    let mut queue: Option<(String, usize)> = None;
    let mut queue_cap: Option<(usize, usize)> = None;
    let mut red = RedParams::default();
    for e in &sec.table.entries {
        match e.key.as_str() {
            "kind" => kind = Some((want_str(e, path)?, e.line)),
            "hops" => hops = Some((want_usize(e, path)?, e.line)),
            "bottleneck_mbps" => mbps = Some(want_positive(e, path)?),
            "bottleneck_delay_ms" => bottleneck_delay = Some(want_ms(e, path)?),
            "access_mbps" => access_mbps = Some(want_positive(e, path)?),
            "access_delay_ms" => access_delay = Some(want_ms(e, path)?),
            "pkt_size" => match want_u64(e, path)? {
                v @ 1..=65535 => pkt_size = Some(v as u32),
                _ => return Err(at(path, e.line, "`pkt_size` must be between 1 and 65535 bytes")),
            },
            "queue" => queue = Some((want_str(e, path)?, e.line)),
            "queue_cap" => queue_cap = Some((want_usize(e, path)?, e.line)),
            "red_capacity" => red.capacity = Some(want_usize(e, path)?),
            "red_min_thresh" => red.min_thresh = Some(want_f64(e, path)?),
            "red_max_thresh" => red.max_thresh = Some(want_f64(e, path)?),
            "red_max_p" => red.max_p = Some(want_f64(e, path)?),
            "red_weight" => red.weight = Some(want_f64(e, path)?),
            "red_mean_pkt_ns" => red.mean_pkt_ns = Some(want_u64(e, path)?),
            "red_gentle" => red.gentle = Some(want_bool(e, path)?),
            "red_ecn" => red.ecn = Some(want_bool(e, path)?),
            other => {
                return Err(at(
                    path,
                    e.line,
                    format_args!("unknown key `{other}` in [topology]"),
                ))
            }
        }
    }
    let mbps = mbps.ok_or_else(|| at(path, sec.line, "[topology] needs `bottleneck_mbps`"))?;
    let mut config = DumbbellConfig::paper(mbps * 1e6);
    if let Some(d) = bottleneck_delay {
        config.bottleneck_delay = d;
    }
    if let Some(a) = access_mbps {
        config.access_bps = a * 1e6;
    }
    if let Some(d) = access_delay {
        config.access_delay = d;
    }
    if let Some(p) = pkt_size {
        config.pkt_size = p;
    }
    let queue_name = queue.as_ref().map(|(q, _)| q.as_str()).unwrap_or("paper-red");
    let queue_line = queue.as_ref().map(|(_, l)| *l).unwrap_or(sec.line);
    config.queue = match queue_name {
        "paper-red" => {
            if let Some((_, l)) = queue_cap {
                return Err(at(path, l, "`queue_cap` is only valid with queue = \"droptail\""));
            }
            red.forbid(path, queue_line)?;
            QueueKind::PaperRed
        }
        "droptail" => {
            red.forbid(path, queue_line)?;
            let (cap, _) = queue_cap.ok_or_else(|| {
                at(path, queue_line, "queue = \"droptail\" needs `queue_cap`")
            })?;
            QueueKind::DropTail(cap)
        }
        "red" => {
            if let Some((_, l)) = queue_cap {
                return Err(at(path, l, "`queue_cap` is only valid with queue = \"droptail\""));
            }
            QueueKind::Red(red.require(path, queue_line)?)
        }
        other => {
            return Err(at(
                path,
                queue_line,
                format_args!(
                    "unknown queue `{other}` (expected `paper-red`, `droptail`, or `red`)"
                ),
            ))
        }
    };
    let kind_name = kind.as_ref().map(|(k, _)| k.as_str()).unwrap_or("dumbbell");
    let kind_line = kind.as_ref().map(|(_, l)| *l).unwrap_or(sec.line);
    match kind_name {
        "dumbbell" => {
            if let Some((_, l)) = hops {
                return Err(at(path, l, "`hops` is only valid with kind = \"parking-lot\""));
            }
            Ok(TopologySpec::dumbbell(config))
        }
        "parking-lot" => {
            let (h, hl) = hops
                .ok_or_else(|| at(path, kind_line, "kind = \"parking-lot\" needs `hops`"))?;
            if h == 0 {
                return Err(at(path, hl, "`hops` must be at least 1"));
            }
            Ok(TopologySpec::parking_lot(config, h))
        }
        other => Err(at(
            path,
            kind_line,
            format_args!("unknown topology kind `{other}` (expected `dumbbell` or `parking-lot`)"),
        )),
    }
}

/// Explicit-RED parameter accumulator for `[topology]`.
#[derive(Default)]
struct RedParams {
    capacity: Option<usize>,
    min_thresh: Option<f64>,
    max_thresh: Option<f64>,
    max_p: Option<f64>,
    weight: Option<f64>,
    mean_pkt_ns: Option<u64>,
    gentle: Option<bool>,
    ecn: Option<bool>,
}

impl RedParams {
    fn any(&self) -> bool {
        self.capacity.is_some()
            || self.min_thresh.is_some()
            || self.max_thresh.is_some()
            || self.max_p.is_some()
            || self.weight.is_some()
            || self.mean_pkt_ns.is_some()
            || self.gentle.is_some()
            || self.ecn.is_some()
    }

    fn forbid(&self, path: &str, line: usize) -> Result<(), String> {
        if self.any() {
            return Err(at(path, line, "`red_*` keys are only valid with queue = \"red\""));
        }
        Ok(())
    }

    fn require(self, path: &str, line: usize) -> Result<RedConfig, String> {
        let need = |name: &str| {
            at(
                path,
                line,
                format_args!("queue = \"red\" needs `{name}`"),
            )
        };
        Ok(RedConfig {
            capacity: self.capacity.ok_or_else(|| need("red_capacity"))?,
            min_thresh: self.min_thresh.ok_or_else(|| need("red_min_thresh"))?,
            max_thresh: self.max_thresh.ok_or_else(|| need("red_max_thresh"))?,
            max_p: self.max_p.ok_or_else(|| need("red_max_p"))?,
            weight: self.weight.ok_or_else(|| need("red_weight"))?,
            mean_pkt_time: SimDuration::from_nanos(
                self.mean_pkt_ns.ok_or_else(|| need("red_mean_pkt_ns"))?,
            ),
            gentle: self.gentle.unwrap_or(false),
            ecn: self.ecn.unwrap_or(false),
        })
    }
}

fn parse_faults(sec: &Section, path: &str) -> Result<FaultPlan, String> {
    let mut seed: Option<u64> = None;
    let mut every_nth: Option<u64> = None;
    let mut hold: Option<SimDuration> = None;
    let mut max_held: Option<usize> = None;
    let mut duplicate_p: Option<(f64, usize)> = None;
    let mut jitter: Option<SimDuration> = None;
    let mut downs: Option<(Vec<u64>, usize)> = None;
    let mut ups: Option<(Vec<u64>, usize)> = None;
    for e in &sec.table.entries {
        match e.key.as_str() {
            "seed" => seed = Some(want_u64(e, path)?),
            "reorder_every_nth" => every_nth = Some(want_u64(e, path)?),
            "reorder_hold_ms" => hold = Some(want_ms(e, path)?),
            "reorder_max_held" => max_held = Some(want_usize(e, path)?),
            "duplicate_p" => duplicate_p = Some((want_f64(e, path)?, e.line)),
            "jitter_max_ms" => jitter = Some(want_ms(e, path)?),
            "flap_down_ns" => downs = Some((want_ns_list(e, path)?, e.line)),
            "flap_up_ns" => ups = Some((want_ns_list(e, path)?, e.line)),
            other => {
                return Err(at(
                    path,
                    e.line,
                    format_args!("unknown key `{other}` in [{}]", sec.name),
                ))
            }
        }
    }
    let seed =
        seed.ok_or_else(|| at(path, sec.line, format_args!("[{}] needs `seed`", sec.name)))?;
    let mut plan = FaultPlan::seeded(seed);
    match (every_nth, hold, max_held) {
        (None, None, None) => {}
        (Some(n), Some(h), Some(m)) => {
            if n == 0 {
                return Err(at(path, sec.line, "`reorder_every_nth` must be at least 1"));
            }
            plan = plan.with_reorder(n, h, m);
        }
        _ => {
            return Err(at(
                path,
                sec.line,
                "`reorder_every_nth`, `reorder_hold_ms` and `reorder_max_held` \
                 go together (all or none)",
            ))
        }
    }
    if let Some((p, line)) = duplicate_p {
        if !(0.0..=1.0).contains(&p) {
            return Err(at(path, line, "`duplicate_p` must be a probability in [0, 1]"));
        }
        plan = plan.with_duplication(p);
    }
    if let Some(j) = jitter {
        plan = plan.with_jitter(j);
    }
    match (downs, ups) {
        (None, None) => {}
        (Some((downs, dline)), Some((ups, _))) => {
            if downs.len() != ups.len() {
                return Err(at(
                    path,
                    dline,
                    "`flap_down_ns` and `flap_up_ns` must have the same length",
                ));
            }
            let mut prev_up = 0u64;
            for (&d, &u) in downs.iter().zip(&ups) {
                if d >= u {
                    return Err(at(path, dline, "each flap window needs down < up"));
                }
                if d < prev_up {
                    return Err(at(
                        path,
                        dline,
                        "flap windows must be ascending and non-overlapping",
                    ));
                }
                prev_up = u;
                plan = plan.with_flap(SimTime::from_nanos(d), SimTime::from_nanos(u));
            }
        }
        _ => {
            return Err(at(
                path,
                sec.line,
                "`flap_down_ns` and `flap_up_ns` go together (both or neither)",
            ))
        }
    }
    Ok(plan)
}

fn parse_flow(sec: &Section, path: &str) -> Result<FlowBlock, String> {
    let mut flavor: Option<Flavor> = None;
    let mut count = 1usize;
    let mut start = SimDuration::ZERO;
    let mut stagger = SimDuration::from_millis(63);
    let mut stop: Option<(SimDuration, usize)> = None; // (value, line)
    let mut span: Option<(usize, usize)> = None;
    let mut access_delay: Option<SimDuration> = None;
    for e in &sec.table.entries {
        match e.key.as_str() {
            "flavor" => {
                let s = want_str(e, path)?;
                flavor = Some(Flavor::parse(&s).map_err(|m| at(path, e.line, m))?);
            }
            "count" => {
                count = want_usize(e, path)?;
                if count == 0 {
                    return Err(at(path, e.line, "`count` must be at least 1"));
                }
            }
            "start_ms" => start = want_ms(e, path)?,
            "stagger_ms" => stagger = want_ms(e, path)?,
            "stop_ms" => stop = Some((want_ms(e, path)?, e.line)),
            "path" => span = Some(want_span(e, path)?),
            "access_delay_ms" => access_delay = Some(want_ms(e, path)?),
            other => {
                return Err(at(
                    path,
                    e.line,
                    format_args!("unknown key `{other}` in [[flow]]"),
                ))
            }
        }
    }
    if span.is_some() && access_delay.is_some() {
        return Err(at(
            path,
            sec.line,
            "`path` and `access_delay_ms` are mutually exclusive",
        ));
    }
    let flavor = flavor.ok_or_else(|| at(path, sec.line, "[[flow]] needs `flavor`"))?;
    if let Some((_, line)) = stop {
        if !flavor.supports_stop() {
            return Err(at(
                path,
                line,
                format_args!("`stop_ms` is not supported for {} flows", flavor.label()),
            ));
        }
    }
    Ok(FlowBlock {
        flavor,
        count,
        start,
        stagger,
        stop: stop.map(|(d, _)| d),
        span,
        access_delay,
    })
}

fn parse_cbr(sec: &Section, path: &str) -> Result<CbrBlock, String> {
    let mut rate_mbps: Option<f64> = None;
    let mut shape: Option<(String, usize)> = None;
    let mut half_period: Option<SimDuration> = None;
    let mut on: Option<SimDuration> = None;
    let mut off: Option<SimDuration> = None;
    let mut start = SimDuration::ZERO;
    let mut span: Option<(usize, usize)> = None;
    for e in &sec.table.entries {
        match e.key.as_str() {
            "rate_mbps" => rate_mbps = Some(want_positive(e, path)?),
            "shape" => shape = Some((want_str(e, path)?, e.line)),
            "half_period_ms" => half_period = Some(want_ms(e, path)?),
            "on_ms" => on = Some(want_ms(e, path)?),
            "off_ms" => off = Some(want_ms(e, path)?),
            "start_ms" => start = want_ms(e, path)?,
            "path" => span = Some(want_span(e, path)?),
            other => {
                return Err(at(
                    path,
                    e.line,
                    format_args!("unknown key `{other}` in [[cbr]]"),
                ))
            }
        }
    }
    let rate_mbps =
        rate_mbps.ok_or_else(|| at(path, sec.line, "[[cbr]] needs `rate_mbps`"))?;
    let shape_name = shape.as_ref().map(|(s, _)| s.as_str()).unwrap_or("constant");
    let shape_line = shape.as_ref().map(|(_, l)| *l).unwrap_or(sec.line);
    let shape = match shape_name {
        "constant" => {
            if half_period.is_some() || on.is_some() || off.is_some() {
                return Err(at(
                    path,
                    shape_line,
                    "period keys are only valid with shape = \"square\" or \"onoff\"",
                ));
            }
            CbrShape::Constant
        }
        "square" => {
            if on.is_some() || off.is_some() {
                return Err(at(path, shape_line, "shape = \"square\" takes only `half_period_ms`"));
            }
            CbrShape::Square {
                half_period: half_period.ok_or_else(|| {
                    at(path, shape_line, "shape = \"square\" needs `half_period_ms`")
                })?,
            }
        }
        "onoff" => {
            if half_period.is_some() {
                return Err(at(path, shape_line, "shape = \"onoff\" takes `on_ms`/`off_ms`"));
            }
            match (on, off) {
                (Some(on), Some(off)) => CbrShape::OnOff { on, off },
                _ => {
                    return Err(at(
                        path,
                        shape_line,
                        "shape = \"onoff\" needs `on_ms` and `off_ms`",
                    ))
                }
            }
        }
        other => {
            return Err(at(
                path,
                shape_line,
                format_args!("unknown shape `{other}` (expected `constant`, `square`, or `onoff`)"),
            ))
        }
    };
    Ok(CbrBlock {
        rate_bps: rate_mbps * 1e6,
        shape,
        start,
        span,
    })
}

fn parse_flash(sec: &Section, path: &str) -> Result<FlashBlock, String> {
    let mut flows_per_sec: Option<f64> = None;
    let mut duration: Option<SimDuration> = None;
    let mut transfer_packets: Option<u64> = None;
    let mut host_pairs = 1usize;
    let mut seed: Option<u64> = None;
    let mut start = SimDuration::ZERO;
    for e in &sec.table.entries {
        match e.key.as_str() {
            "flows_per_sec" => flows_per_sec = Some(want_positive(e, path)?),
            "duration_ms" => duration = Some(want_ms(e, path)?),
            "transfer_packets" => transfer_packets = Some(want_u64(e, path)?),
            "host_pairs" => {
                host_pairs = want_usize(e, path)?;
                if host_pairs == 0 {
                    return Err(at(path, e.line, "`host_pairs` must be at least 1"));
                }
            }
            "seed" => seed = Some(want_u64(e, path)?),
            "start_ms" => start = want_ms(e, path)?,
            other => {
                return Err(at(
                    path,
                    e.line,
                    format_args!("unknown key `{other}` in [[flash]]"),
                ))
            }
        }
    }
    let flows_per_sec =
        flows_per_sec.ok_or_else(|| at(path, sec.line, "[[flash]] needs `flows_per_sec`"))?;
    Ok(FlashBlock {
        flows_per_sec,
        duration: duration.ok_or_else(|| at(path, sec.line, "[[flash]] needs `duration_ms`"))?,
        transfer_packets: transfer_packets
            .ok_or_else(|| at(path, sec.line, "[[flash]] needs `transfer_packets`"))?,
        host_pairs,
        seed,
        start,
    })
}

fn parse_trace(sec: &Section, path: &str) -> Result<TraceSpec, String> {
    let mut bin: Option<SimDuration> = None;
    let mut stream: Option<StreamFormat> = None;
    for e in &sec.table.entries {
        match e.key.as_str() {
            "bin_ms" => {
                let b = want_ms(e, path)?;
                if b.is_zero() {
                    return Err(at(path, e.line, "`bin_ms` must be at least 1"));
                }
                bin = Some(b);
            }
            "stream" => {
                let s = want_str(e, path)?;
                stream = Some(StreamFormat::parse(&s).ok_or_else(|| {
                    at(
                        path,
                        e.line,
                        format_args!("unknown stream format `{s}` (expected `jsonl` or `csv`)"),
                    )
                })?);
            }
            other => {
                return Err(at(
                    path,
                    e.line,
                    format_args!("unknown key `{other}` in [trace]"),
                ))
            }
        }
    }
    Ok(TraceSpec {
        bin: bin.ok_or_else(|| at(path, sec.line, "[trace] needs `bin_ms`"))?,
        stream,
    })
}

/// Parse scenario TOML into a [`ScenarioSpec`]. `path` is used
/// verbatim in `path:line:` error messages.
pub fn parse_scenario(text: &str, path: &str) -> Result<ScenarioSpec, String> {
    let doc = parse_document(text, path)?;

    let mut name: Option<String> = None;
    let mut description = String::new();
    let mut stop: Option<SimDuration> = None;
    let mut warmup = SimDuration::ZERO;
    let mut seeds: Vec<u64> = Vec::new();
    let mut audit = AuditSetting::Default;
    let mut reverse_tcp: Option<(usize, usize)> = None; // (value, line)
    for e in &doc.root.entries {
        match e.key.as_str() {
            "name" => name = Some(want_str(e, path)?),
            "description" => description = want_str(e, path)?,
            "stop_secs" => stop = Some(want_secs(e, path)?),
            "warmup_secs" => warmup = want_secs(e, path)?,
            "seeds" => {
                let items = e.value.as_list().ok_or_else(|| {
                    at(path, e.line, "`seeds` must be a list of seeds, e.g. `[1, 2]`")
                })?;
                seeds = items
                    .iter()
                    .map(|v| {
                        value_u64(v).ok_or_else(|| {
                            at(path, e.line, "`seeds` entries must be non-negative integers")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if seeds.is_empty() {
                    return Err(at(path, e.line, "`seeds` must not be empty"));
                }
            }
            "audit" => {
                let s = want_str(e, path)?;
                audit = match s.as_str() {
                    "strict" => AuditSetting::Strict,
                    other => {
                        return Err(at(
                            path,
                            e.line,
                            format_args!("unknown audit mode `{other}` (expected `strict`)"),
                        ))
                    }
                };
            }
            "reverse_tcp" => reverse_tcp = Some((want_usize(e, path)?, e.line)),
            other => {
                return Err(at(
                    path,
                    e.line,
                    format_args!("unknown top-level key `{other}`"),
                ))
            }
        }
    }
    let name = name.ok_or_else(|| format!("{path}: missing top-level `name`"))?;
    let stop = stop.ok_or_else(|| format!("{path}: missing top-level `stop_secs`"))?;
    if seeds.is_empty() {
        return Err(format!("{path}: missing top-level `seeds`"));
    }
    if warmup >= stop {
        return Err(format!("{path}: `warmup_secs` must be below `stop_secs`"));
    }

    // The topology first, whatever its position: flow/cbr/flash blocks
    // validate their spans against it.
    let mut topology: Option<TopologySpec> = None;
    for sec in doc.sections_named("topology") {
        if sec.is_array {
            return Err(at(path, sec.line, "use [topology], not [[topology]]"));
        }
        if topology.is_some() {
            return Err(at(path, sec.line, "duplicate [topology] section"));
        }
        topology = Some(parse_topology(sec, path)?);
    }
    let topology = topology.ok_or_else(|| format!("{path}: missing [topology] section"))?;
    let hops = topology.hops();
    let is_dumbbell = topology.kind == TopologyKind::Dumbbell;
    let check_span = |span: Option<(usize, usize)>, line: usize| -> Result<(), String> {
        if let Some((from, to)) = span {
            if from >= to || to > hops {
                return Err(at(
                    path,
                    line,
                    format_args!("`path = [{from}, {to}]` is not a span of a {hops}-hop topology"),
                ));
            }
        }
        Ok(())
    };

    let mut forward_faults: Option<FaultPlan> = None;
    let mut reverse_faults: Option<FaultPlan> = None;
    let mut flows: Vec<FlowBlock> = Vec::new();
    let mut cbr: Vec<CbrBlock> = Vec::new();
    let mut flash: Vec<FlashBlock> = Vec::new();
    let mut trace: Option<TraceSpec> = None;
    for sec in &doc.sections {
        match sec.name.as_str() {
            "topology" => {}
            "faults.forward" | "faults.reverse" => {
                if sec.is_array {
                    return Err(at(
                        path,
                        sec.line,
                        format_args!("use [{}], not [[{}]]", sec.name, sec.name),
                    ));
                }
                let slot = if sec.name == "faults.forward" {
                    &mut forward_faults
                } else {
                    &mut reverse_faults
                };
                if slot.is_some() {
                    return Err(at(
                        path,
                        sec.line,
                        format_args!("duplicate [{}] section", sec.name),
                    ));
                }
                *slot = Some(parse_faults(sec, path)?);
            }
            "flow" => {
                if !sec.is_array {
                    return Err(at(path, sec.line, "use [[flow]], not [flow]"));
                }
                let block = parse_flow(sec, path)?;
                check_span(block.span, sec.line)?;
                if block.access_delay.is_some() && !is_dumbbell {
                    return Err(at(
                        path,
                        sec.line,
                        "`access_delay_ms` is only supported on dumbbells",
                    ));
                }
                flows.push(block);
            }
            "cbr" => {
                if !sec.is_array {
                    return Err(at(path, sec.line, "use [[cbr]], not [cbr]"));
                }
                let block = parse_cbr(sec, path)?;
                check_span(block.span, sec.line)?;
                cbr.push(block);
            }
            "flash" => {
                if !sec.is_array {
                    return Err(at(path, sec.line, "use [[flash]], not [flash]"));
                }
                if !is_dumbbell {
                    return Err(at(
                        path,
                        sec.line,
                        "flash crowds are only supported on dumbbells",
                    ));
                }
                flash.push(parse_flash(sec, path)?);
            }
            "trace" => {
                if sec.is_array {
                    return Err(at(path, sec.line, "use [trace], not [[trace]]"));
                }
                if trace.is_some() {
                    return Err(at(path, sec.line, "duplicate [trace] section"));
                }
                trace = Some(parse_trace(sec, path)?);
            }
            other => {
                return Err(at(
                    path,
                    sec.line,
                    format_args!("unknown section `[{other}]`"),
                ))
            }
        }
    }

    let reverse_tcp = match reverse_tcp {
        Some((n, line)) => {
            if n > 0 && !is_dumbbell {
                return Err(at(
                    path,
                    line,
                    "`reverse_tcp` background flows are only supported on dumbbells",
                ));
            }
            n
        }
        None if is_dumbbell => PAPER_REVERSE_FLOWS,
        None => 0,
    };

    Ok(ScenarioSpec {
        name,
        description,
        topology,
        stop,
        warmup,
        seeds,
        audit,
        reverse_tcp,
        forward_faults,
        reverse_faults,
        flows,
        cbr,
        flash,
        trace,
    })
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn render_u64(v: u64) -> String {
    if v <= i64::MAX as u64 {
        v.to_string()
    } else {
        format!("\"{v}\"")
    }
}

fn render_secs(d: SimDuration) -> String {
    if d.as_nanos().is_multiple_of(1_000_000_000) {
        (d.as_nanos() / 1_000_000_000).to_string()
    } else {
        format!("{:?}", d.as_secs_f64())
    }
}

fn ms_of(d: SimDuration) -> u64 {
    debug_assert_eq!(d.as_nanos() % 1_000_000, 0, "canonical rendering is ms-granular");
    d.as_nanos() / 1_000_000
}

fn render_faults(out: &mut String, header: &str, plan: &FaultPlan) {
    let _ = writeln!(out, "\n[{header}]");
    let _ = writeln!(out, "seed = {}", render_u64(plan.seed));
    if let Some(r) = &plan.reorder {
        let _ = writeln!(out, "reorder_every_nth = {}", r.every_nth);
        let _ = writeln!(out, "reorder_hold_ms = {}", ms_of(r.hold));
        let _ = writeln!(out, "reorder_max_held = {}", r.max_held);
    }
    if let Some(d) = &plan.duplicate {
        let _ = writeln!(out, "duplicate_p = {:?}", d.p);
    }
    if let Some(j) = &plan.jitter {
        let _ = writeln!(out, "jitter_max_ms = {}", ms_of(j.max));
    }
    if !plan.flaps.is_empty() {
        let join = |f: &dyn Fn(&FlapWindow) -> u64| {
            plan.flaps
                .iter()
                .map(|w| f(w).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "flap_down_ns = [{}]", join(&|w| w.down_at.as_nanos()));
        let _ = writeln!(out, "flap_up_ns = [{}]", join(&|w| w.up_at.as_nanos()));
    }
}

/// Render a spec back to canonical TOML. `parse_scenario(render_scenario(s))
/// == s` for every spec whose durations are millisecond-granular (the
/// grammar can only express those) and whose strings are quote-free.
pub fn render_scenario(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "name = \"{}\"", spec.name);
    if !spec.description.is_empty() {
        let _ = writeln!(out, "description = \"{}\"", spec.description);
    }
    let _ = writeln!(out, "stop_secs = {}", render_secs(spec.stop));
    if !spec.warmup.is_zero() {
        let _ = writeln!(out, "warmup_secs = {}", render_secs(spec.warmup));
    }
    let seeds = spec
        .seeds
        .iter()
        .map(|&s| render_u64(s))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "seeds = [{seeds}]");
    match spec.audit {
        AuditSetting::Default => {}
        AuditSetting::Strict => {
            let _ = writeln!(out, "audit = \"strict\"");
        }
    }
    let _ = writeln!(out, "reverse_tcp = {}", spec.reverse_tcp);

    let cfg = &spec.topology.config;
    let _ = writeln!(out, "\n[topology]");
    match spec.topology.kind {
        TopologyKind::Dumbbell => {
            let _ = writeln!(out, "kind = \"dumbbell\"");
        }
        TopologyKind::ParkingLot { hops } => {
            let _ = writeln!(out, "kind = \"parking-lot\"");
            let _ = writeln!(out, "hops = {hops}");
        }
    }
    let _ = writeln!(out, "bottleneck_mbps = {:?}", cfg.bottleneck_bps / 1e6);
    let _ = writeln!(out, "bottleneck_delay_ms = {}", ms_of(cfg.bottleneck_delay));
    let _ = writeln!(out, "access_mbps = {:?}", cfg.access_bps / 1e6);
    let _ = writeln!(out, "access_delay_ms = {}", ms_of(cfg.access_delay));
    let _ = writeln!(out, "pkt_size = {}", cfg.pkt_size);
    match cfg.queue {
        QueueKind::PaperRed => {
            let _ = writeln!(out, "queue = \"paper-red\"");
        }
        QueueKind::DropTail(cap) => {
            let _ = writeln!(out, "queue = \"droptail\"");
            let _ = writeln!(out, "queue_cap = {cap}");
        }
        QueueKind::Red(red) => {
            let _ = writeln!(out, "queue = \"red\"");
            let _ = writeln!(out, "red_capacity = {}", red.capacity);
            let _ = writeln!(out, "red_min_thresh = {:?}", red.min_thresh);
            let _ = writeln!(out, "red_max_thresh = {:?}", red.max_thresh);
            let _ = writeln!(out, "red_max_p = {:?}", red.max_p);
            let _ = writeln!(out, "red_weight = {:?}", red.weight);
            let _ = writeln!(out, "red_mean_pkt_ns = {}", red.mean_pkt_time.as_nanos());
            if red.gentle {
                let _ = writeln!(out, "red_gentle = true");
            }
            if red.ecn {
                let _ = writeln!(out, "red_ecn = true");
            }
        }
    }

    if let Some(plan) = &spec.forward_faults {
        render_faults(&mut out, "faults.forward", plan);
    }
    if let Some(plan) = &spec.reverse_faults {
        render_faults(&mut out, "faults.reverse", plan);
    }

    for fb in &spec.flows {
        let _ = writeln!(out, "\n[[flow]]");
        let _ = writeln!(out, "flavor = \"{}\"", fb.flavor.label());
        let _ = writeln!(out, "count = {}", fb.count);
        let _ = writeln!(out, "start_ms = {}", ms_of(fb.start));
        let _ = writeln!(out, "stagger_ms = {}", ms_of(fb.stagger));
        if let Some(stop) = fb.stop {
            let _ = writeln!(out, "stop_ms = {}", ms_of(stop));
        }
        if let Some((from, to)) = fb.span {
            let _ = writeln!(out, "path = [{from}, {to}]");
        }
        if let Some(d) = fb.access_delay {
            let _ = writeln!(out, "access_delay_ms = {}", ms_of(d));
        }
    }

    for cb in &spec.cbr {
        let _ = writeln!(out, "\n[[cbr]]");
        let _ = writeln!(out, "rate_mbps = {:?}", cb.rate_bps / 1e6);
        match cb.shape {
            CbrShape::Constant => {
                let _ = writeln!(out, "shape = \"constant\"");
            }
            CbrShape::Square { half_period } => {
                let _ = writeln!(out, "shape = \"square\"");
                let _ = writeln!(out, "half_period_ms = {}", ms_of(half_period));
            }
            CbrShape::OnOff { on, off } => {
                let _ = writeln!(out, "shape = \"onoff\"");
                let _ = writeln!(out, "on_ms = {}", ms_of(on));
                let _ = writeln!(out, "off_ms = {}", ms_of(off));
            }
        }
        let _ = writeln!(out, "start_ms = {}", ms_of(cb.start));
        if let Some((from, to)) = cb.span {
            let _ = writeln!(out, "path = [{from}, {to}]");
        }
    }

    for fl in &spec.flash {
        let _ = writeln!(out, "\n[[flash]]");
        let _ = writeln!(out, "flows_per_sec = {:?}", fl.flows_per_sec);
        let _ = writeln!(out, "duration_ms = {}", ms_of(fl.duration));
        let _ = writeln!(out, "transfer_packets = {}", fl.transfer_packets);
        let _ = writeln!(out, "host_pairs = {}", fl.host_pairs);
        if let Some(seed) = fl.seed {
            let _ = writeln!(out, "seed = {}", render_u64(seed));
        }
        let _ = writeln!(out, "start_ms = {}", ms_of(fl.start));
    }

    if let Some(tr) = &spec.trace {
        let _ = writeln!(out, "\n[trace]");
        let _ = writeln!(out, "bin_ms = {}", ms_of(tr.bin));
        if let Some(fmt) = tr.stream {
            let name = match fmt {
                StreamFormat::Jsonl => "jsonl",
                StreamFormat::Csv => "csv",
            };
            let _ = writeln!(out, "stream = \"{name}\"");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Per-flow results of one scenario cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowOut {
    /// Flavor label, `CBR`, `flash-crowd`, or `reverse-TCP`.
    pub label: String,
    /// Data packets delivered to the receiver.
    pub rx_packets: u64,
    /// Bytes delivered to the receiver.
    pub rx_bytes: u64,
    /// Mean goodput over `[warmup, stop]`, bit/s.
    pub throughput_bps: f64,
    /// Mean goodput over the whole horizon, Mb/s.
    pub mean_mbps: f64,
    /// Bytes delivered in the last quarter of the horizon (zero means
    /// the flow stalled).
    pub tail_rx_bytes: u64,
}

/// Per-link counters of one scenario cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkOut {
    /// `forward[h]` / `reverse[h]` by hop index.
    pub label: String,
    /// Packets offered to the link.
    pub arrivals: u64,
    /// Packets dropped at the link.
    pub drops: u64,
    /// Packets ECN-marked.
    pub marks: u64,
    /// Packets that completed serialization.
    pub tx_packets: u64,
    /// Bytes that completed serialization.
    pub tx_bytes: u64,
    /// Fault-layer duplicates minted.
    pub duplicates: u64,
    /// Packets held for reordering.
    pub fault_held: u64,
    /// Packets blackholed by flap windows.
    pub flap_drops: u64,
}

/// Windowed-trace results of one scenario cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceOut {
    /// Bin width, nanoseconds.
    pub bin_ns: u64,
    /// Completed bins plus the open tail bin, in time order.
    pub bins: Vec<TraceBin>,
}

/// Outcome of one scenario cell (one seed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioCellOut {
    /// The cell's seed.
    pub seed: u64,
    /// Tracked flows in installation order: `[[flow]]` blocks expanded,
    /// then `[[cbr]]`, then `[[flash]]`.
    pub flows: Vec<FlowOut>,
    /// The reverse background TCP flows.
    pub reverse: Vec<FlowOut>,
    /// Bottleneck counters, forward hops then reverse hops.
    pub links: Vec<LinkOut>,
    /// Windowed trace, when the scenario asked for one.
    pub trace: Option<TraceOut>,
}

/// The assembled scenario sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOut {
    /// Scenario name.
    pub name: String,
    /// Horizon in seconds.
    pub stop_secs: f64,
    /// Warmup in seconds.
    pub warmup_secs: f64,
    /// One entry per seed, in `seeds` order.
    pub cells: Vec<ScenarioCellOut>,
}

/// Run one cell of `spec` under `seed`. Pure: same inputs, same bytes.
fn execute(spec: &ScenarioSpec, seed: u64) -> ScenarioCellOut {
    let mut sim = match spec.audit {
        AuditSetting::Default => Simulator::new(seed),
        AuditSetting::Strict => Simulator::with_audit_mode(seed, AuditMode::Strict),
    };
    if let Some(tr) = &spec.trace {
        sim.set_trace(Box::new(WindowedStats::new(tr.bin)));
    }
    let mut opts = DumbbellOptions::new();
    if let Some(plan) = &spec.forward_faults {
        opts = opts.forward_faults(plan.clone());
    }
    if let Some(plan) = &spec.reverse_faults {
        opts = opts.reverse_faults(plan.clone());
    }
    let lot = spec.topology.build_with(&mut sim, opts);
    let pkt = lot.config().pkt_size;
    let access_delay = lot.config().access_delay;
    let whole = (0, lot.hops());

    // Reverse traffic and flash crowds are validated dumbbell-only at
    // parse; both span the whole chain.
    let reverse = add_reverse_tcp(&mut sim, &lot, spec.reverse_tcp);

    let mut tracked: Vec<(String, FlowId)> = Vec::new();
    for fb in &spec.flows {
        let (from, to) = fb.span.unwrap_or(whole);
        let delay = fb.access_delay.unwrap_or(access_delay);
        for i in 0..fb.count {
            let pair = lot.add_host_pair_with_delay(&mut sim, from, to, delay);
            let start = SimTime::ZERO + fb.start + fb.stagger * i as u64;
            let stop = fb.stop.map(|d| SimTime::ZERO + d);
            let h = fb.flavor.install(&mut sim, &pair, pkt, start, stop);
            tracked.push((fb.flavor.label(), h.flow));
        }
    }
    for cb in &spec.cbr {
        let (from, to) = cb.span.unwrap_or(whole);
        let pair = lot.add_host_pair_with_delay(&mut sim, from, to, access_delay);
        let schedule = match cb.shape {
            CbrShape::Constant => RateSchedule::Constant(cb.rate_bps),
            CbrShape::Square { half_period } => RateSchedule::SquareWave {
                rate_bps: cb.rate_bps,
                half_period,
            },
            CbrShape::OnOff { on, off } => RateSchedule::OnOff {
                rate_bps: cb.rate_bps,
                on,
                off,
            },
        };
        let h = install_cbr(&mut sim, &pair, schedule, pkt, SimTime::ZERO + cb.start);
        tracked.push(("CBR".to_string(), h.flow));
    }
    for fl in &spec.flash {
        let cfg = FlashCrowdConfig {
            flows_per_sec: fl.flows_per_sec,
            duration: fl.duration,
            transfer_packets: fl.transfer_packets,
            pkt_size: pkt,
            host_pairs: fl.host_pairs,
            seed: fl.seed.unwrap_or(seed),
        };
        let crowd = install_flash_crowd(&mut sim, &lot, cfg, SimTime::ZERO + fl.start);
        tracked.push(("flash-crowd".to_string(), crowd.flow));
    }

    let end = SimTime::ZERO + spec.stop;
    sim.run_until(end);
    if spec.audit == AuditSetting::Strict {
        // The strict teardown checks panic at the first violation.
        sim.finish_audit();
    }

    let warmup_t = SimTime::ZERO + spec.warmup;
    let tail_start = SimTime::from_nanos(spec.stop.as_nanos() * 3 / 4);
    let horizon_secs = spec.stop.as_secs_f64();
    let flow_out = |label: String, flow: FlowId| -> FlowOut {
        let stats = sim.stats();
        let (rx_packets, rx_bytes) = stats
            .flow(flow)
            .map(|f| (f.total_rx_packets, f.total_rx_bytes))
            .unwrap_or((0, 0));
        FlowOut {
            label,
            rx_packets,
            rx_bytes,
            throughput_bps: stats.flow_throughput_bps(flow, warmup_t, end),
            mean_mbps: rx_bytes as f64 * 8.0 / horizon_secs / 1e6,
            tail_rx_bytes: stats.flow_rx_bytes_in(flow, tail_start, end),
        }
    };
    let flows: Vec<FlowOut> = tracked.into_iter().map(|(l, f)| flow_out(l, f)).collect();
    let reverse: Vec<FlowOut> = reverse
        .iter()
        .map(|h| flow_out("reverse-TCP".to_string(), h.flow))
        .collect();

    let mut links = Vec::new();
    for (dir, ids) in [("forward", &lot.forward), ("reverse", &lot.reverse)] {
        for (hop, id) in ids.iter().enumerate() {
            let label = format!("{dir}[{hop}]");
            links.push(match sim.stats().link(*id) {
                Some(ls) => LinkOut {
                    label,
                    arrivals: ls.total_arrivals,
                    drops: ls.total_drops,
                    marks: ls.total_marks,
                    tx_packets: ls.total_tx_packets,
                    tx_bytes: ls.total_tx_bytes,
                    duplicates: ls.total_duplicates,
                    fault_held: ls.total_fault_held,
                    flap_drops: ls.total_flap_drops,
                },
                None => LinkOut {
                    label,
                    arrivals: 0,
                    drops: 0,
                    marks: 0,
                    tx_packets: 0,
                    tx_bytes: 0,
                    duplicates: 0,
                    fault_held: 0,
                    flap_drops: 0,
                },
            });
        }
    }

    let trace = spec.trace.as_ref().map(|tr| {
        let sink = sim.take_trace().expect("scenario installed a trace sink");
        let ws = sink
            .as_any()
            .and_then(|a| a.downcast_ref::<WindowedStats>())
            .expect("scenario sink is WindowedStats");
        TraceOut {
            bin_ns: tr.bin.as_nanos(),
            bins: ws.bins(),
        }
    });

    ScenarioCellOut {
        seed,
        flows,
        reverse,
        links,
        trace,
    }
}

// ---------------------------------------------------------------------
// The Experiment adapter
// ---------------------------------------------------------------------

/// A [`ScenarioSpec`] as a first-class [`Experiment`]: one cell per
/// seed, flowing through the unified `exec` path unchanged.
pub struct ScenarioExperiment {
    spec: ScenarioSpec,
    name: &'static str,
    description: &'static str,
    artifact: &'static str,
    hidden: bool,
}

impl ScenarioExperiment {
    /// Wrap a parsed spec. The name/description/artifact strings leak —
    /// scenarios are created a handful of times per process, and the
    /// registry hands out `&'static` names by contract.
    pub fn new(spec: ScenarioSpec) -> Self {
        let name: &'static str = Box::leak(spec.name.clone().into_boxed_str());
        let description: &'static str = if spec.description.is_empty() {
            "declarative scenario (repro run)"
        } else {
            Box::leak(spec.description.clone().into_boxed_str())
        };
        let artifact: &'static str =
            Box::leak(spec.name.replace('-', "_").into_boxed_str());
        ScenarioExperiment {
            spec,
            name,
            description,
            artifact,
            hidden: false,
        }
    }

    /// Mark the target hidden (registry twins).
    pub fn into_hidden(mut self) -> Self {
        self.hidden = true;
        self
    }

    /// The compiled spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
}

impl Experiment for ScenarioExperiment {
    type Cell = u64;
    type CellOut = ScenarioCellOut;
    type Output = ScenarioOut;

    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn artifact(&self) -> &'static str {
        self.artifact
    }

    fn hidden(&self) -> bool {
        self.hidden
    }

    fn cells(&self, _scale: Scale) -> Vec<CellSpec<u64>> {
        self.spec
            .seeds
            .iter()
            .map(|&s| CellSpec::new(format!("seed{s}"), s, s))
            .collect()
    }

    fn run_cell(&self, _scale: Scale, seed: u64) -> ScenarioCellOut {
        execute(&self.spec, seed)
    }

    fn assemble(&self, _scale: Scale, cells: Vec<ScenarioCellOut>) -> ScenarioOut {
        ScenarioOut {
            name: self.spec.name.clone(),
            stop_secs: self.spec.stop.as_secs_f64(),
            warmup_secs: self.spec.warmup.as_secs_f64(),
            cells,
        }
    }

    fn render(&self, output: &ScenarioOut) {
        println!("\n== scenario: {} ==", output.name);
        if !self.spec.description.is_empty() {
            println!("({})", self.spec.description);
        }
        println!(
            "(horizon {}s, warmup {}s, throughput over [warmup, stop])\n",
            output.stop_secs, output.warmup_secs
        );
        let mut t = Table::new(["seed", "flow", "rx pkts", "Mb/s", "tail"]);
        for cell in &output.cells {
            for f in cell.flows.iter().chain(&cell.reverse) {
                t.row([
                    cell.seed.to_string(),
                    f.label.clone(),
                    f.rx_packets.to_string(),
                    num(f.throughput_bps / 1e6),
                    if f.tail_rx_bytes > 0 { "progressing" } else { "stalled" }.to_string(),
                ]);
            }
        }
        println!("{}", t.render());
    }

    fn save(&self, output: &ScenarioOut, dir: &Path) {
        if let Err(e) = crate::report::write_json(dir, self.artifact, output) {
            eprintln!("warning: failed to write {}.json: {e}", self.artifact);
        }
        // Streamed traces: replay the collected bins through the exact
        // row renderer the live StreamTrace uses, one file per cell.
        let Some(tr) = &self.spec.trace else { return };
        let Some(fmt) = tr.stream else { return };
        let ext = match fmt {
            StreamFormat::Jsonl => "jsonl",
            StreamFormat::Csv => "csv",
        };
        for cell in &output.cells {
            let Some(trace) = &cell.trace else { continue };
            let mut buf: Vec<u8> = Vec::new();
            if fmt == StreamFormat::Csv {
                use std::io::Write as _;
                let _ = writeln!(buf, "{}", STREAM_COLUMNS.join(","));
            }
            for bin in &trace.bins {
                write_bin_row(&mut buf, fmt, tr.bin, bin);
            }
            let path = dir.join(format!("{}.trace.seed{}.{ext}", self.artifact, cell.seed));
            if let Err(e) = std::fs::write(&path, &buf) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            }
        }
    }
}

/// Read and compile a scenario file into a leaked `&'static`
/// experiment, ready for [`crate::exec::run`].
pub fn load_experiment(path: &Path) -> Result<&'static dyn AnyExperiment, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let spec = parse_scenario(&text, &path.display().to_string())?;
    Ok(Box::leak(Box::new(ScenarioExperiment::new(spec))))
}

// ---------------------------------------------------------------------
// Built-in twins
// ---------------------------------------------------------------------

/// Specs of the shipped `examples/scenarios/*.toml` twins, built in
/// Rust so tests can assert the shipped files compile to exactly these
/// specs and that their physics byte-match the hard-coded originals.
pub mod builtin {
    use super::*;

    /// Twin of the chaos sweep's `TCP(1/2)/seed1000` cell at Quick
    /// scale: same seed, same drawn fault plans (embedded statically),
    /// same horizon — plus a windowed trace the original doesn't have.
    pub fn chaos_twin_spec() -> ScenarioSpec {
        let horizon = SimDuration::from_secs(15);
        let (fwd, rev) = crate::chaos::drawn_plans(1000, horizon);
        ScenarioSpec {
            name: "scenario-chaos-twin".to_string(),
            description: "twin of the chaos TCP(1/2)/seed1000 cell at quick scale".to_string(),
            topology: TopologySpec::dumbbell(DumbbellConfig::paper(10e6)),
            stop: horizon,
            warmup: SimDuration::ZERO,
            seeds: vec![1000],
            audit: AuditSetting::Strict,
            reverse_tcp: 0,
            forward_faults: Some(fwd),
            reverse_faults: Some(rev),
            flows: vec![FlowBlock {
                flavor: Flavor::standard_tcp(),
                count: 1,
                start: SimDuration::ZERO,
                stagger: SimDuration::from_millis(63),
                stop: None,
                span: None,
                access_delay: None,
            }],
            cbr: vec![],
            flash: vec![],
            trace: Some(TraceSpec {
                bin: SimDuration::from_millis(500),
                stream: Some(StreamFormat::Csv),
            }),
        }
    }

    /// Twin of the multihop parking-lot `TCP(1/2)/h3` cell at Quick
    /// scale: one long flow over 3 hops against two cross flows per
    /// hop, with the original's exact staggered starts.
    pub fn multihop_twin_spec() -> ScenarioSpec {
        let cross = |hop: usize, j: u64| FlowBlock {
            flavor: Flavor::standard_tcp(),
            count: 1,
            start: SimDuration::from_millis(37 + 13 * j + 7 * hop as u64),
            stagger: SimDuration::from_millis(63),
            stop: None,
            span: Some((hop, hop + 1)),
            access_delay: None,
        };
        let mut flows = vec![FlowBlock {
            flavor: Flavor::standard_tcp(),
            count: 1,
            start: SimDuration::ZERO,
            stagger: SimDuration::from_millis(63),
            stop: None,
            span: Some((0, 3)),
            access_delay: None,
        }];
        for hop in 0..3 {
            for j in 0..2 {
                flows.push(cross(hop, j));
            }
        }
        ScenarioSpec {
            name: "scenario-multihop-twin".to_string(),
            description: "twin of the multihop TCP(1/2)/h3 cell at quick scale".to_string(),
            topology: TopologySpec::parking_lot(DumbbellConfig::paper(10e6), 3),
            stop: SimDuration::from_secs(50),
            warmup: SimDuration::from_secs(12),
            seeds: vec![77],
            audit: AuditSetting::Default,
            reverse_tcp: 0,
            forward_faults: None,
            reverse_faults: None,
            flows,
            cbr: vec![],
            flash: vec![],
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_text() -> String {
        "name = \"demo\"\nstop_secs = 5\nseeds = [1, 2]\n\n[topology]\n\
         bottleneck_mbps = 10.0\n\n[[flow]]\nflavor = \"TCP(1/2)\"\ncount = 2\n"
            .to_string()
    }

    #[test]
    fn parse_fills_paper_defaults() {
        let spec = parse_scenario(&demo_text(), "demo.toml").unwrap();
        assert_eq!(spec.topology, TopologySpec::dumbbell(DumbbellConfig::paper(10e6)));
        assert_eq!(spec.reverse_tcp, PAPER_REVERSE_FLOWS);
        assert_eq!(spec.flows[0].stagger, SimDuration::from_millis(63));
        assert_eq!(spec.audit, AuditSetting::Default);
        assert!(spec.trace.is_none());
    }

    #[test]
    fn render_parse_round_trips_the_builtin_twins() {
        for spec in [builtin::chaos_twin_spec(), builtin::multihop_twin_spec()] {
            let rendered = render_scenario(&spec);
            let back = parse_scenario(&rendered, "twin.toml")
                .unwrap_or_else(|e| panic!("{}: {e}\n{rendered}", spec.name));
            assert_eq!(back, spec, "render/parse round trip for {}", spec.name);
        }
    }

    #[test]
    fn unknown_keys_and_sections_fail_with_file_and_line() {
        let bad = format!("{}nonsense = 1\n", demo_text());
        let err = parse_scenario(&bad, "demo.toml").unwrap_err();
        assert!(err.starts_with("demo.toml:11:"), "got: {err}");
        assert!(err.contains("unknown key `nonsense` in [[flow]]"), "got: {err}");

        let bad = format!("{}\n[teleport]\nx = 1\n", demo_text());
        let err = parse_scenario(&bad, "demo.toml").unwrap_err();
        assert!(err.contains("unknown section `[teleport]`"), "got: {err}");

        let bad = demo_text().replace("stop_secs = 5", "stop_secs = 5\nhalt_ms = 9");
        let err = parse_scenario(&bad, "demo.toml").unwrap_err();
        assert!(err.contains("unknown top-level key `halt_ms`"), "got: {err}");
    }

    #[test]
    fn cross_section_validation_is_loud() {
        // reverse_tcp on a parking lot.
        let bad = "name = \"x\"\nstop_secs = 5\nseeds = [1]\nreverse_tcp = 2\n\n\
                   [topology]\nkind = \"parking-lot\"\nhops = 2\nbottleneck_mbps = 10.0\n";
        let err = parse_scenario(bad, "x.toml").unwrap_err();
        assert!(err.contains("only supported on dumbbells"), "got: {err}");

        // A span off the end of the lot.
        let bad = "name = \"x\"\nstop_secs = 5\nseeds = [1]\n\n[topology]\n\
                   kind = \"parking-lot\"\nhops = 2\nbottleneck_mbps = 10.0\n\n\
                   [[flow]]\nflavor = \"TEAR\"\npath = [0, 3]\n";
        let err = parse_scenario(bad, "x.toml").unwrap_err();
        assert!(err.contains("not a span of a 2-hop topology"), "got: {err}");

        // Flap windows out of order.
        let bad = format!(
            "{}\n[faults.forward]\nseed = 1\nflap_down_ns = [100, 50]\nflap_up_ns = [200, 90]\n",
            demo_text()
        );
        let err = parse_scenario(&bad, "x.toml").unwrap_err();
        assert!(err.contains("ascending and non-overlapping"), "got: {err}");

        // Out-of-range sizes and rates fail at their own line instead of
        // truncating (`as u32`) or building a link that never transmits.
        let cbr = format!("{}\n[[cbr]]\nrate_mbps = 0.0\n", demo_text());
        let flash = format!(
            "{}\n[[flash]]\nflows_per_sec = -1.0\nduration_ms = 5\ntransfer_packets = 1\n",
            demo_text()
        );
        let topo = |line: &str| demo_text().replace("bottleneck_mbps = 10.0", line);
        for (text, want) in [
            (topo("bottleneck_mbps = 10.0\npkt_size = 4294968296"), "x.toml:7: `pkt_size` must be"),
            (topo("bottleneck_mbps = 10.0\npkt_size = 0"), "x.toml:7: `pkt_size` must be"),
            (topo("bottleneck_mbps = 0.0"), "x.toml:6: `bottleneck_mbps` must be greater"),
            (topo("bottleneck_mbps = -5.0"), "x.toml:6: `bottleneck_mbps` must be greater"),
            (topo("bottleneck_mbps = 10.0\naccess_mbps = 0"), "x.toml:7: `access_mbps` must be"),
            (cbr, "x.toml:13: `rate_mbps` must be greater"),
            (flash, "x.toml:13: `flows_per_sec` must be greater"),
        ] {
            let err = parse_scenario(&text, "x.toml").unwrap_err();
            assert!(err.contains(want), "wanted {want:?}, got: {err}");
        }
    }

    #[test]
    fn scenario_experiment_runs_cells_per_seed() {
        let mut spec = parse_scenario(&demo_text(), "demo.toml").unwrap();
        spec.stop = SimDuration::from_secs(3);
        let exp = ScenarioExperiment::new(spec);
        let cells = Experiment::cells(&exp, Scale::Quick);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].id, "seed1");
        let out = exp.run_cell(Scale::Quick, 1);
        assert_eq!(out.flows.len(), 2);
        assert_eq!(out.reverse.len(), 2);
        assert!(out.flows.iter().all(|f| f.rx_packets > 0));
        // forward[0] + reverse[0].
        assert_eq!(out.links.len(), 2);
        assert!(out.links[0].tx_packets > 0);
    }

    #[test]
    fn traced_scenarios_report_bins() {
        let text = format!("{}\n[trace]\nbin_ms = 500\nstream = \"csv\"\n", demo_text());
        let mut spec = parse_scenario(&text, "demo.toml").unwrap();
        spec.stop = SimDuration::from_secs(2);
        spec.seeds = vec![1];
        let exp = ScenarioExperiment::new(spec);
        let out = exp.run_cell(Scale::Quick, 1);
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.bin_ns, 500_000_000);
        // 2 s of simulation in 500 ms bins: 4 full bins + the tail.
        assert!(trace.bins.len() >= 4, "{} bins", trace.bins.len());
        // Trace `Delivered` events include ACKs arriving back at the senders,
        // so the bin totals bound the per-flow data rx counts from above.
        let delivered: u64 = trace.bins.iter().map(|b| b.delivered_packets).sum();
        let rx: u64 = out.flows.iter().chain(&out.reverse).map(|f| f.rx_packets).sum();
        assert!(delivered >= rx, "delivered {delivered} < data rx {rx}");
        assert!(rx > 0, "demo scenario moved no data");
    }

    /// Directory holding the shipped scenario files, relative to the
    /// crate so the tests work from any cwd.
    fn scenarios_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
    }

    /// The shipped twin files are exactly the canonical rendering of the
    /// builtin specs — parsing them back recovers the spec bit-for-bit,
    /// so `repro run examples/scenarios/<twin>.toml` is the same
    /// experiment as the hidden registry target.
    #[test]
    fn shipped_twin_files_match_builtin_specs() {
        for spec in [builtin::chaos_twin_spec(), builtin::multihop_twin_spec()] {
            let path = scenarios_dir().join(format!("{}.toml", spec.name));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e} (run the bless test?)", path.display()));
            assert_eq!(text, render_scenario(&spec), "{} is stale", path.display());
            let parsed = parse_scenario(&text, &path.display().to_string()).unwrap();
            assert_eq!(parsed, spec, "{} does not parse back to its spec", spec.name);
        }
    }

    /// Every shipped scenario — twins and hand-written demos alike —
    /// parses, and re-rendering the parse is idempotent (the canonical
    /// form is a fixed point).
    #[test]
    fn every_shipped_scenario_parses_and_canonicalizes() {
        let dir = scenarios_dir();
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("examples/scenarios exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("toml") {
                continue;
            }
            if path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.contains("malformed")) {
                let text = std::fs::read_to_string(&path).unwrap();
                let err = parse_scenario(&text, &path.display().to_string()).unwrap_err();
                assert!(err.contains(".toml"), "malformed error lacks file: {err}");
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let name = path.display().to_string();
            let spec = parse_scenario(&text, &name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let rendered = render_scenario(&spec);
            let back = parse_scenario(&rendered, &name)
                .unwrap_or_else(|e| panic!("{name} (re-render): {e}\n{rendered}"));
            assert_eq!(back, spec, "canonicalization not idempotent for {name}");
        }
        assert!(seen >= 3, "expected >= 3 shipped scenarios, found {seen}");
    }

    /// Regenerates the twin scenario files from the builtin specs. Run
    /// explicitly after changing the specs or the renderer:
    /// `cargo test -p slowcc-experiments --lib bless_shipped -- --ignored`
    #[test]
    #[ignore = "regenerates shipped scenario files"]
    fn bless_shipped_twin_scenarios() {
        let dir = scenarios_dir();
        std::fs::create_dir_all(&dir).unwrap();
        for spec in [builtin::chaos_twin_spec(), builtin::multihop_twin_spec()] {
            let path = dir.join(format!("{}.toml", spec.name));
            std::fs::write(&path, render_scenario(&spec)).unwrap();
            eprintln!("wrote {}", path.display());
        }
    }
}
