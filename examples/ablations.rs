//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. self-clocking in TFRC (the paper's own ablation) and the
//!    conservative option's constant C (paper 1.1 vs ns-2's 1.5),
//! 2. TFRC history discounting on/off after a bandwidth doubling
//!    (the Figure 13 footnote),
//! 3. the binomial reference-window anchor W₀,
//! 4. delayed ACKs at the receiver (the paper's TCP assumes none).
//!
//! RED vs DropTail at the bottleneck is the registered `queue-dynamics`
//! target (`repro queue-dynamics`), not an ablation here.
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use slowcc::core::tfrc::{Tfrc, TfrcConfig};
use slowcc::experiments::flavor::Flavor;
use slowcc::experiments::onset::{onset_stabilization, run_onset, OnsetConfig};
use slowcc::experiments::scale::Scale;
use slowcc::experiments::scenario;
use slowcc::metrics::util::f_k;
use slowcc::netsim::prelude::*;

fn main() {
    let scale = Scale::Quick;
    println!("== Ablation 1: TFRC self-clocking and the constant C ==");
    ablate_self_clocking(scale);
    println!("\n== Ablation 2: history discounting after a bandwidth doubling ==");
    ablate_history_discounting();
    println!("\n== Ablation 3: binomial reference window W0 ==");
    ablate_reference_window();
    println!("\n== Ablation 4: delayed ACKs (the paper's TCP assumes none) ==");
    ablate_delayed_acks();
}

fn ablate_delayed_acks() {
    use slowcc::core::agent::install_flow;
    use slowcc::core::tcp::{Tcp, TcpConfig, TcpSink};
    for delack in [false, true] {
        let mut sim = Simulator::new(12);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let sink = if delack {
            TcpSink::new().with_delayed_acks()
        } else {
            TcpSink::new()
        };
        let cfg = TcpConfig::standard(1000);
        let h = install_flow(&mut sim, &pair, SimTime::ZERO, Box::new(sink), |w| {
            Box::new(Tcp::new(cfg, w))
        });
        sim.run_until(SimTime::from_secs(60));
        let tput =
            sim.stats()
                .flow_throughput_bps(h.flow, SimTime::from_secs(15), SimTime::from_secs(60));
        let k: &TcpSink = sim.agent_downcast(h.sink).unwrap();
        println!(
            "TCP(1/2), delayed ACKs {}: throughput {:5.2} Mb/s, {} ACKs",
            if delack { "ON " } else { "OFF" },
            tput / 1e6,
            k.acks_sent()
        );
    }
    println!("(delack roughly halves the ACK volume and softens the increase rate)");
}

fn ablate_self_clocking(scale: Scale) {
    let cfg = OnsetConfig::for_scale(scale);
    let run = |conservative: bool, c: f64| {
        let flavor = Flavor::Tfrc {
            k: 64,
            self_clocking: conservative,
        };
        // The flavor wires C = 1.1; for other C values build directly.
        if (c - 1.1).abs() < 1e-9 || !conservative {
            let sc = run_onset(flavor, &cfg, 42);
            onset_stabilization(&sc, &cfg).cost
        } else {
            let mut sc = scenario::standard_with(42, cfg.bottleneck_bps, |sim, db| {
                let pair = db.add_host_pair(sim);
                slowcc::traffic::cbr::install_cbr(
                    sim,
                    &pair,
                    slowcc::traffic::cbr::RateSchedule::Script(vec![
                        (SimTime::ZERO, cfg.bottleneck_bps / 2.0),
                        (cfg.timeline.steady_end, 0.0),
                        (cfg.timeline.onset, cfg.bottleneck_bps / 2.0),
                    ]),
                    1000,
                    SimTime::ZERO,
                );
                (0..cfg.n_flows)
                    .map(|i| {
                        let pair = db.add_host_pair(sim);
                        let mut tc = TfrcConfig::tfrc_k(64, 1000).with_self_clocking();
                        tc.conservative_c = c;
                        Tfrc::install(sim, &pair, tc, SimTime::from_millis(63 * i as u64))
                    })
                    .collect()
            });
            sc.sim.run_until(cfg.timeline.end);
            onset_stabilization(&sc, &cfg).cost
        }
    };
    println!(
        "TFRC(64) plain:                cost {:8.3}",
        run(false, 0.0)
    );
    println!("TFRC(64) self-clocked, C=1.1:  cost {:8.3}", run(true, 1.1));
    println!("TFRC(64) self-clocked, C=1.5:  cost {:8.3}", run(true, 1.5));
}

fn ablate_history_discounting() {
    // Figure 13-style doubling with TFRC(8), discounting on vs off.
    for discounting in [false, true] {
        let stop = SimTime::from_secs(30);
        let end = SimTime::from_secs(45);
        let mut survivors = Vec::new();
        let mut sc = scenario::standard_with(42, 10e6, |sim, db| {
            let make = |sim: &mut Simulator, db: &Dumbbell, stop: Option<SimTime>, i: u64| {
                let pair = db.add_host_pair(sim);
                let mut tc = TfrcConfig::tfrc_k(8, 1000);
                if discounting {
                    tc = tc.with_history_discounting();
                }
                tc.stop_at = stop;
                Tfrc::install(sim, &pair, tc, SimTime::from_millis(63 * i))
            };
            let stoppers: Vec<_> = (0..5).map(|i| make(sim, db, Some(stop), i)).collect();
            survivors = (5..10).map(|i| make(sim, db, None, i)).collect();
            stoppers
        });
        sc.sim.run_until(end);
        let flows: Vec<_> = survivors.iter().map(|h| h.flow).collect();
        let f20 = f_k(sc.sim.stats(), &flows, stop, 20, scenario::RTT, 10e6);
        let f200 = f_k(sc.sim.stats(), &flows, stop, 200, scenario::RTT, 10e6);
        println!(
            "TFRC(8) history discounting {}: f(20) {:5.3}  f(200) {:5.3}",
            if discounting { "ON " } else { "OFF" },
            f20,
            f200
        );
    }
    println!("(discounting should raise f(k): good news propagates faster)");
}

fn ablate_reference_window() {
    use slowcc::core::aimd::BinomialParams;
    use slowcc::core::tcp::{Tcp, TcpConfig};
    // SQRT(1/2) anchored at different W0, sharing a link with TCP.
    for w0 in [7.5, 15.0, 30.0] {
        let mut sim = Simulator::new(9);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let p1 = db.add_host_pair(&mut sim);
        let h_tcp = Tcp::install(&mut sim, &p1, TcpConfig::standard(1000), SimTime::ZERO);
        let p2 = db.add_host_pair(&mut sim);
        let params = BinomialParams::binomial_anchored(0.5, 0.5, 2.0, w0);
        let h_sqrt = Tcp::install(
            &mut sim,
            &p2,
            TcpConfig::with_params(params, 1000),
            SimTime::from_millis(97),
        );
        sim.run_until(SimTime::from_secs(60));
        let from = SimTime::from_secs(15);
        let to = SimTime::from_secs(60);
        let t = sim.stats().flow_throughput_bps(h_tcp.flow, from, to);
        let s = sim.stats().flow_throughput_bps(h_sqrt.flow, from, to);
        println!(
            "SQRT(1/2) anchored at W0={w0:>4.1}: SQRT/TCP throughput ratio {:5.2}",
            s / t
        );
    }
    println!("(the ratio should stay near 1 across anchors: the anchor is not load-bearing)");
}
