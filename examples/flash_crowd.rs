//! The Section 4.1.2 safety question, as a runnable scenario: when a
//! flash crowd of short web transfers slams into a link carried by
//! slowly-responsive background traffic, does the background get out of
//! the way?
//!
//! ```sh
//! cargo run --release --example flash_crowd
//! ```

use slowcc::experiments::flavor::Flavor;
use slowcc::netsim::prelude::*;
use slowcc::traffic::prelude::*;

fn main() {
    let backgrounds = [
        Flavor::standard_tcp(),
        Flavor::Tfrc {
            k: 256,
            self_clocking: false,
        },
        Flavor::Tfrc {
            k: 256,
            self_clocking: true,
        },
    ];
    let crowd_start = SimTime::from_secs(15);
    let end = SimTime::from_secs(40);

    for background in backgrounds {
        let mut sim = Simulator::new(5);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        // Six long-lived background flows.
        let flows: Vec<_> = (0..6)
            .map(|i| {
                let pair = db.add_host_pair(&mut sim);
                background.install(
                    &mut sim,
                    &pair,
                    1000,
                    SimTime::from_millis(61 * i),
                    None,
                )
            })
            .collect();
        // 150 flows/s of 10-packet transfers for 4 seconds.
        let crowd = install_flash_crowd(
            &mut sim,
            db.lot(),
            FlashCrowdConfig {
                flows_per_sec: 150.0,
                duration: SimDuration::from_secs(4),
                transfer_packets: 10,
                pkt_size: 1000,
                host_pairs: 16,
                seed: 77,
            },
            crowd_start,
        );
        sim.run_until(end);

        let stats = sim.stats();
        let win = |from: SimTime, to: SimTime| -> (f64, f64) {
            let bg: f64 = flows
                .iter()
                .map(|h| stats.flow_throughput_bps(h.flow, from, to))
                .sum();
            let cr = stats.flow_throughput_bps(crowd.flow, from, to);
            (bg / 1e6, cr / 1e6)
        };
        let before = win(SimTime::from_secs(5), crowd_start);
        let during = win(crowd_start, crowd_start + SimDuration::from_secs(4));
        let after = win(SimTime::from_secs(30), end);

        println!("background = {}", background.label());
        println!("  {} short transfers arrived", crowd.senders.len());
        println!(
            "  before crowd: background {:6.2} Mb/s | crowd {:6.2} Mb/s",
            before.0, before.1
        );
        println!(
            "  during crowd: background {:6.2} Mb/s | crowd {:6.2} Mb/s",
            during.0, during.1
        );
        println!(
            "  after crowd:  background {:6.2} Mb/s | crowd {:6.2} Mb/s",
            after.0, after.1
        );
        println!(
            "  loss rate during crowd: {:.1}%\n",
            stats.link_loss_fraction_in(
                db.forward,
                crowd_start,
                crowd_start + SimDuration::from_secs(4)
            ) * 100.0
        );
    }
    println!("(The crowd's slow-starts grab bandwidth under every background;");
    println!(" self-clocking keeps very slow TFRC from prolonging the overload.)");
}
