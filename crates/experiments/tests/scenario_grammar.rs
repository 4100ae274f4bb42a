//! Property tests for the scenario grammar: `render_scenario` is a
//! canonical form, so `parse(render(spec)) == spec` for every spec the
//! DSL can express with exactly-representable numbers (integer Mb/s,
//! millisecond-granular durations — the renderer's own precision), and
//! rendering is a fixed point. Rejection is tested too: unknown keys,
//! wrong units, and ill-formed fault windows must fail with a
//! `file:line:` prefix, never panic.

use proptest::prelude::*;
use slowcc_experiments::dsl::{
    parse_scenario, render_scenario, CbrBlock, CbrShape, FlashBlock, FlowBlock, ScenarioSpec,
    TraceSpec,
};
use slowcc_experiments::flavor::Flavor;
use slowcc_netsim::faults::{Duplicate, FaultPlan, FlapWindow, Jitter, Reorder};
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{DumbbellConfig, QueueKind, TopologySpec};
use slowcc_netsim::trace::StreamFormat;

/// Deterministic field draws from a slice of random words.
struct Draws<'a> {
    words: &'a [u64],
    at: usize,
}

impl<'a> Draws<'a> {
    fn new(words: &'a [u64]) -> Self {
        Draws { words, at: 0 }
    }

    fn word(&mut self) -> u64 {
        let w = self.words[self.at % self.words.len()];
        self.at += 1;
        // Decorrelate wrap-around reuse of the same word.
        w.rotate_left((self.at % 63) as u32)
    }

    /// Uniform in `[0, n)`.
    fn pick(&mut self, n: u64) -> u64 {
        self.word() % n
    }

    fn ms(&mut self, lo: u64, hi: u64) -> SimDuration {
        SimDuration::from_millis(lo + self.pick(hi - lo))
    }

    fn maybe(&mut self) -> bool {
        self.word() & 1 == 1
    }
}

/// Every flavor label the grammar accepts, via the same parser the DSL
/// uses (so the set can only drift if `Flavor` itself does).
fn flavor(d: &mut Draws) -> Flavor {
    const LABELS: [&str; 8] = [
        "TCP(1/2)",
        "TCP(1/8)",
        "SQRT(1/2)",
        "IIAD(1/2)",
        "RAP(1/4)",
        "TFRC(6)",
        "TFRC(6)+sc",
        "TEAR",
    ];
    Flavor::parse(LABELS[d.pick(LABELS.len() as u64) as usize]).unwrap()
}

/// A fault plan whose every field survives the TOML round trip:
/// millisecond holds/jitter, `{:?}`-rendered probability, ascending
/// nanosecond flap windows.
fn fault_plan(d: &mut Draws) -> FaultPlan {
    let mut plan = FaultPlan::seeded(d.word());
    if d.maybe() {
        plan.reorder = Some(Reorder {
            every_nth: 2 + d.pick(60),
            hold: d.ms(1, 100),
            max_held: 1 + d.pick(16) as usize,
        });
    }
    if d.maybe() {
        // unit_f64-style draw: exact under `{:?}` round trip.
        plan.duplicate = Some(Duplicate {
            p: (d.word() >> 11) as f64 * (1.0 / (1u64 << 53) as f64),
        });
    }
    if d.maybe() {
        plan.jitter = Some(Jitter { max: d.ms(1, 10) });
    }
    let mut t = 0u64;
    for _ in 0..d.pick(3) {
        let down = t + 1 + d.pick(5_000_000_000);
        let up = down + 1 + d.pick(5_000_000_000);
        plan.flaps.push(FlapWindow {
            down_at: SimTime::from_nanos(down),
            up_at: SimTime::from_nanos(up),
        });
        t = up;
    }
    plan
}

/// One random scenario, constrained to the renderer's exact values.
fn spec_from(words: &[u64]) -> ScenarioSpec {
    let d = &mut Draws::new(words);

    let mut cfg = DumbbellConfig::paper((1 + d.pick(1000)) as f64 * 1e6);
    cfg.bottleneck_delay = d.ms(1, 200);
    cfg.access_bps = (1 + d.pick(2000)) as f64 * 1e6;
    cfg.access_delay = d.ms(1, 50);
    cfg.pkt_size = 100 + d.pick(1400) as u32;
    if d.maybe() {
        cfg.queue = QueueKind::DropTail(4 + d.pick(500) as usize);
    }
    let hops = 1 + d.pick(4) as usize;
    let dumbbell = d.maybe();
    let topology = if dumbbell {
        TopologySpec::dumbbell(cfg)
    } else {
        TopologySpec::parking_lot(cfg, hops)
    };
    let hops = if dumbbell { 1 } else { hops };

    let stop_secs = 5 + d.pick(120);
    let stop = SimDuration::from_secs(stop_secs);
    let warmup = SimDuration::from_secs(d.pick(stop_secs));

    let span = |d: &mut Draws| {
        if dumbbell || d.maybe() {
            None
        } else {
            let from = d.pick(hops as u64) as usize;
            Some((from, from + 1 + d.pick((hops - from) as u64) as usize))
        }
    };

    let mut flows = Vec::new();
    for _ in 0..1 + d.pick(3) {
        let span = span(d);
        let flavor = flavor(d);
        flows.push(FlowBlock {
            flavor,
            count: 1 + d.pick(4) as usize,
            start: d.ms(0, 5_000),
            stagger: d.ms(0, 500),
            // RAP and TEAR cannot stop, so `stop_ms` is not expressible
            // for them; the draw is kept so every other field is too.
            stop: d
                .maybe()
                .then(|| d.ms(1_000, 10_000))
                .filter(|_| flavor.supports_stop()),
            span,
            access_delay: (dumbbell && d.maybe()).then(|| d.ms(1, 100)),
        });
    }

    let mut cbr = Vec::new();
    for _ in 0..d.pick(3) {
        let shape = match d.pick(3) {
            0 => CbrShape::Constant,
            1 => CbrShape::Square {
                half_period: d.ms(10, 5_000),
            },
            _ => CbrShape::OnOff {
                on: d.ms(10, 5_000),
                off: d.ms(10, 5_000),
            },
        };
        cbr.push(CbrBlock {
            rate_bps: (1 + d.pick(20)) as f64 * 1e6,
            shape,
            start: d.ms(0, 5_000),
            span: span(d),
        });
    }

    let mut flash = Vec::new();
    if dumbbell {
        for _ in 0..d.pick(2) {
            flash.push(FlashBlock {
                flows_per_sec: (1 + d.pick(20)) as f64,
                duration: d.ms(100, 10_000),
                transfer_packets: 1 + d.pick(100),
                host_pairs: 1 + d.pick(4) as usize,
                seed: d.maybe().then(|| d.word()),
                start: d.ms(0, 5_000),
            });
        }
    }

    ScenarioSpec {
        name: format!("gen-{}", d.pick(1_000_000)),
        description: if d.maybe() {
            format!("generated scenario {}", d.pick(1000))
        } else {
            String::new()
        },
        topology,
        stop,
        warmup,
        seeds: (0..1 + d.pick(4)).map(|_| d.word()).collect(),
        reverse_tcp: if dumbbell { d.pick(4) as usize } else { 0 },
        forward_faults: d.maybe().then(|| fault_plan(d)),
        reverse_faults: d.maybe().then(|| fault_plan(d)),
        flows,
        cbr,
        flash,
        trace: d.maybe().then(|| TraceSpec {
            bin: d.ms(1, 5_000),
            stream: match d.pick(3) {
                0 => None,
                1 => Some(StreamFormat::Jsonl),
                _ => Some(StreamFormat::Csv),
            },
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `parse . render = id` on the expressible spec space, and the
    /// rendering is a fixed point of `render . parse`.
    #[test]
    fn render_then_parse_recovers_every_spec(words in prop::collection::vec(0u64..u64::MAX, 32..33)) {
        let spec = spec_from(&words);
        let text = render_scenario(&spec);
        let back = parse_scenario(&text, "gen.toml")
            .unwrap_or_else(|e| panic!("rendered spec must parse: {e}\n{text}"));
        prop_assert_eq!(&back, &spec, "round trip changed the spec:\n{}", text);
        prop_assert_eq!(render_scenario(&back), text, "canonical form is not a fixed point");
    }
}

/// Base of a valid scenario the rejection tests append one bad line to.
const VALID: &str = "name = \"x\"\nstop_secs = 5\nseeds = [1]\n\n[topology]\nbottleneck_mbps = 10.0\n";

#[track_caller]
fn reject(text: &str, needle: &str) {
    let err = parse_scenario(text, "bad.toml").unwrap_err();
    assert!(
        err.starts_with("bad.toml:"),
        "error must carry file:line, got: {err}"
    );
    assert!(err.contains(needle), "expected `{needle}` in: {err}");
}

#[test]
fn unknown_keys_are_rejected_with_position() {
    reject(
        &VALID.replace("seeds = [1]", "seeds = [1]\nrtt_ms = 50"),
        "unknown top-level key `rtt_ms`",
    );
    reject(&format!("{VALID}rtt_ms = 50\n"), "unknown key `rtt_ms` in [topology]");
    reject(
        &format!("{VALID}\n[[flow]]\nflavor = \"TEAR\"\nbandwidth = 1\n"),
        "unknown key `bandwidth` in [[flow]]",
    );
    reject(&format!("{VALID}\n[faults]\nseed = 1\n"), "unknown section");
}

#[test]
fn wrong_units_and_types_are_rejected_with_position() {
    // `start_secs` is not a flow key — the grammar is ms-granular there.
    reject(
        &format!("{VALID}\n[[flow]]\nflavor = \"TEAR\"\nstart_secs = 1\n"),
        "unknown key `start_secs` in [[flow]]",
    );
    reject(
        &VALID.replace("stop_secs = 5", "stop_secs = \"later\""),
        "stop_secs",
    );
    reject(
        &VALID.replace("bottleneck_mbps = 10.0", "bottleneck_mbps = \"fast\""),
        "bottleneck_mbps",
    );
    // Every simulation is audited, so a scenario has no audit key.
    reject(
        &VALID.replace("seeds = [1]", "seeds = [1]\naudit = \"strict\""),
        "bad.toml:4: unknown top-level key `audit`",
    );
}

#[test]
fn ill_formed_faults_are_rejected_with_position() {
    reject(
        &format!("{VALID}\n[faults.forward]\nseed = 1\nduplicate_p = 1.5\n"),
        "[0, 1]",
    );
    reject(
        &format!("{VALID}\n[faults.forward]\nseed = 1\nflap_down_ns = [200]\nflap_up_ns = [100]\n"),
        "flap",
    );
    reject(
        &format!("{VALID}\n[faults.forward]\nseed = 1\nreorder_every_nth = 4\n"),
        "go together",
    );
}

#[test]
fn invalid_spans_are_rejected_with_position() {
    reject(
        &format!("{VALID}\n[[flow]]\nflavor = \"TEAR\"\npath = [2, 1]\n"),
        "not a span",
    );
}

/// Flows that would kill their cell (a panic in `Flavor::install`) or
/// the whole process (an allocation abort) if they parsed.
#[test]
fn flows_that_cannot_run_are_rejected_with_position() {
    for flavor in ["RAP(1/4)", "TEAR"] {
        reject(
            &format!("{VALID}\n[[flow]]\nstop_ms = 3000\nflavor = \"{flavor}\"\n"),
            &format!("bad.toml:9: `stop_ms` is not supported for {flavor} flows"),
        );
    }
    reject(
        &format!("{VALID}\n[[flow]]\nflavor = \"TFRC(4000000000)\"\n"),
        "bad.toml:9: `TFRC(4000000000)`: TFRC history length 4000000000 exceeds the maximum 65536",
    );
    // Their neighbours still parse: TFRC stops as asked, and the bound
    // itself is a valid history length.
    for flavor in ["TFRC(6)", "TFRC(65536)+sc"] {
        parse_scenario(
            &format!("{VALID}\n[[flow]]\nflavor = \"{flavor}\"\nstop_ms = 3000\n"),
            "ok.toml",
        )
        .unwrap();
    }
}
