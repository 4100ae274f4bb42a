//! Timing proxies around the trait objects netsim's public API accepts.
//!
//! A [`TimedAgent`] wraps any `Box<dyn Agent>` and a [`TimedSink`] any
//! `Box<dyn TraceSink>`; both forward every call unchanged, so a proxied
//! run simulates exactly what a bare run does (the traced pass checks
//! that). A simulation dispatches millions of callbacks, far too many to
//! keep a span each, so a proxy only adds up `(callback kind) -> {calls,
//! ns}` in plain fields and folds them into its layer's shared
//! [`LayerProbe`] when the simulator drops it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use slowcc_netsim::packet::Packet;
use slowcc_netsim::sim::{Agent, Ctx};
use slowcc_netsim::time::SimTime;
use slowcc_netsim::trace::{TraceEvent, TraceSink};

/// The `core` agent types a flow endpoint can be, one probe each.
/// SQRT and IIAD are `core::tcp` code under other parameters; they get
/// their own row so the binomial increase/decrease arithmetic shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Tcp,
    TcpSink,
    Binomial,
    Rap,
    Tfrc,
    TfrcSink,
    Tear,
    TearSink,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Tcp,
        Layer::TcpSink,
        Layer::Binomial,
        Layer::Rap,
        Layer::Tfrc,
        Layer::TfrcSink,
        Layer::Tear,
        Layer::TearSink,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Tcp => "tcp",
            Layer::TcpSink => "tcpsink",
            Layer::Binomial => "binomial",
            Layer::Rap => "rap",
            Layer::Tfrc => "tfrc",
            Layer::TfrcSink => "tfrcsink",
            Layer::Tear => "tear",
            Layer::TearSink => "tearsink",
        }
    }
}

/// Callback kinds of [`Agent`], in the order the totals are stored.
pub const CALLBACKS: [&str; 3] = ["on_start", "on_packet", "on_timer"];

/// `{calls, ns}` per callback kind for one layer, summed over every
/// proxy of that layer. Relaxed ordering: these are statistics that
/// publish no other data, read only after the simulator is dropped.
#[derive(Debug, Default)]
pub struct LayerProbe {
    calls: [AtomicU64; 3],
    ns: [AtomicU64; 3],
}

impl LayerProbe {
    /// `(calls, ns)` of one callback kind.
    pub fn callback(&self, kind: usize) -> (u64, u64) {
        (
            self.calls[kind].load(Ordering::Relaxed),
            self.ns[kind].load(Ordering::Relaxed),
        )
    }
}

/// One probe per [`Layer`] plus one for the trace sink.
#[derive(Debug, Default)]
pub struct Probes {
    layers: [Arc<LayerProbe>; 8],
    /// Kind 0 holds `TraceSink::record` calls; the others stay zero.
    pub sink: Arc<LayerProbe>,
}

impl Probes {
    pub fn layer(&self, layer: Layer) -> &Arc<LayerProbe> {
        &self.layers[layer as usize]
    }

    /// Wrap `agent` so its callbacks are charged to `layer`.
    pub fn agent(&self, layer: Layer, agent: Box<dyn Agent>) -> Box<dyn Agent> {
        Box::new(TimedAgent {
            inner: agent,
            local: Local::new(self.layer(layer)),
        })
    }

    /// Wrap `sink` so its `record` calls are charged to [`Probes::sink`].
    pub fn trace_sink(&self, sink: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
        Box::new(TimedSink {
            inner: sink,
            local: Local::new(&self.sink),
        })
    }
}

/// A proxy's private totals, folded into the shared probe on drop.
struct Local {
    calls: [u64; 3],
    ns: [u64; 3],
    shared: Arc<LayerProbe>,
}

impl Local {
    fn new(shared: &Arc<LayerProbe>) -> Self {
        Local {
            calls: [0; 3],
            ns: [0; 3],
            shared: Arc::clone(shared),
        }
    }

    #[inline]
    fn charge(&mut self, kind: usize, since: Instant) {
        self.calls[kind] += 1;
        self.ns[kind] += since.elapsed().as_nanos() as u64;
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        for k in 0..3 {
            self.shared.calls[k].fetch_add(self.calls[k], Ordering::Relaxed);
            self.shared.ns[k].fetch_add(self.ns[k], Ordering::Relaxed);
        }
    }
}

/// An [`Agent`] that times every callback of the agent it wraps. Busy
/// time is inclusive of the `Ctx::send` / `Ctx::set_timer` work the
/// callback does.
struct TimedAgent {
    inner: Box<dyn Agent>,
    local: Local,
}

impl Agent for TimedAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.local.charge(0, t0);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let t0 = Instant::now();
        self.inner.on_packet(pkt, ctx);
        self.local.charge(1, t0);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let t0 = Instant::now();
        self.inner.on_timer(token, ctx);
        self.local.charge(2, t0);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn audit_done(&self, now: SimTime) -> bool {
        self.inner.audit_done(now)
    }
}

/// A [`TraceSink`] that times and counts every `record` of the sink it
/// wraps.
struct TimedSink {
    inner: Box<dyn TraceSink>,
    local: Local,
}

impl TraceSink for TimedSink {
    fn record(&mut self, event: &TraceEvent) {
        let t0 = Instant::now();
        self.inner.record(event);
        self.local.charge(0, t0);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// What the proxies themselves cost, measured on the proxy's own code.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// Wall nanoseconds one timed call adds to a run (two clock reads
    /// and the bookkeeping): the traced pass takes `calls x pair_ns` off
    /// the proxied wall time.
    pub pair_ns: f64,
    /// Nanoseconds an empty callback is charged (the part of the pair
    /// that falls between the two reads): busy times are reported net of
    /// `calls x empty_ns`.
    pub empty_ns: f64,
}

/// Calibrate [`ClockCost`] by charging empty spans to a scratch probe,
/// exactly as a proxy charges a callback; medians over several batches.
pub fn clock_cost() -> ClockCost {
    const BATCH: u64 = 100_000;
    let (mut pair, mut empty) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let mut local = Local::new(&Arc::new(LayerProbe::default()));
        let t0 = Instant::now();
        for _ in 0..BATCH {
            let start = Instant::now();
            std::hint::black_box(&mut local).charge(0, start);
        }
        pair.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        empty.push(local.ns[0] as f64 / BATCH as f64);
    }
    ClockCost {
        pair_ns: crate::quant::median(&pair),
        empty_ns: crate::quant::median(&empty),
    }
}
