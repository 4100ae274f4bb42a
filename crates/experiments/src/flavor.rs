//! Algorithm flavors: a uniform handle over every congestion control
//! variant the paper sweeps, so experiments can be written once and run
//! over `TCP(1/γ)`, `RAP(1/γ)`, `SQRT(1/γ)`, `IIAD(1/γ)`, `TFRC(k)`
//! (with or without self-clocking) and `TEAR`.

use serde::Serialize;

use slowcc_core::agent::FlowHandle;
use slowcc_core::rap::{Rap, RapConfig};
use slowcc_core::tcp::{Tcp, TcpConfig};
use slowcc_core::tear::{Tear, TearConfig};
use slowcc_core::tfrc::{Tfrc, TfrcConfig};
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::SimTime;
use slowcc_netsim::topology::HostPair;

/// Largest TFRC history length [`Flavor::parse`] accepts: 256x the
/// paper's largest `k`. `TFRC(k)` allocates its `k` interval weights up
/// front, so an unbounded `k` from a scenario file is an out-of-memory
/// abort rather than an error.
pub const MAX_TFRC_K: usize = 65_536;

/// A congestion control variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Flavor {
    /// TCP(1/γ): window AIMD with slow start, fast recovery, timeouts.
    Tcp {
        /// Inverse decrease fraction; 2 is standard TCP.
        gamma: f64,
    },
    /// SQRT(1/γ): binomial `k = l = 1/2`, window-based, self-clocked.
    Sqrt {
        /// Inverse relative decrease at the reference window.
        gamma: f64,
    },
    /// IIAD(1/γ): binomial `k = 1, l = 0`.
    Iiad {
        /// Inverse relative decrease at the reference window.
        gamma: f64,
    },
    /// RAP(1/γ): rate-based AIMD, no self-clocking.
    Rap {
        /// Inverse decrease fraction; 2 is standard RAP.
        gamma: f64,
    },
    /// TFRC(k): equation-based, averaging `k` loss intervals.
    Tfrc {
        /// Loss-interval history length.
        k: usize,
        /// The paper's `conservative_` self-clocking option.
        self_clocking: bool,
    },
    /// TEAR: receiver-side TCP emulation.
    Tear,
}

impl Flavor {
    /// Standard TCP.
    pub const fn standard_tcp() -> Self {
        Flavor::Tcp { gamma: 2.0 }
    }

    /// TFRC as proposed for deployment (k = 6, no self-clocking).
    pub const fn standard_tfrc() -> Self {
        Flavor::Tfrc {
            k: 6,
            self_clocking: false,
        }
    }

    /// Human-readable label matching the paper's notation.
    pub fn label(&self) -> String {
        match self {
            Flavor::Tcp { gamma } => format!("TCP(1/{gamma:.0})"),
            Flavor::Sqrt { gamma } => format!("SQRT(1/{gamma:.0})"),
            Flavor::Iiad { gamma } => format!("IIAD(1/{gamma:.0})"),
            Flavor::Rap { gamma } => format!("RAP(1/{gamma:.0})"),
            Flavor::Tfrc { k, self_clocking } => {
                if *self_clocking {
                    format!("TFRC({k})+sc")
                } else {
                    format!("TFRC({k})")
                }
            }
            Flavor::Tear => "TEAR".to_string(),
        }
    }

    /// Parse the paper notation [`Flavor::label`] renders: `TCP(1/8)`,
    /// `SQRT(1/2)`, `IIAD(1/2)`, `RAP(1/4)`, `TFRC(6)`, `TFRC(6)+sc`,
    /// `TEAR`. For every flavor whose γ prints exactly (the integers
    /// the paper sweeps), `parse(label())` round-trips.
    pub fn parse(s: &str) -> Result<Flavor, String> {
        fn gamma_of(body: &str) -> Option<f64> {
            let g = body.strip_prefix("1/")?;
            let gamma: f64 = g.parse().ok()?;
            (gamma.is_finite() && gamma >= 1.0).then_some(gamma)
        }
        let fail = || {
            Err(format!(
                "unknown flavor `{s}` (expected `TCP(1/g)`, `SQRT(1/g)`, `IIAD(1/g)`, \
                 `RAP(1/g)`, `TFRC(k)`, `TFRC(k)+sc`, or `TEAR`)"
            ))
        };
        if s == "TEAR" {
            return Ok(Flavor::Tear);
        }
        if let Some(rest) = s.strip_prefix("TFRC(") {
            let (k_str, tail) = match rest.split_once(')') {
                Some(x) => x,
                None => return fail(),
            };
            let self_clocking = match tail {
                "" => false,
                "+sc" => true,
                _ => return fail(),
            };
            return match k_str.parse::<usize>() {
                Ok(k) if k > MAX_TFRC_K => Err(format!(
                    "`{s}`: TFRC history length {k} exceeds the maximum {MAX_TFRC_K}"
                )),
                Ok(k) if k >= 1 => Ok(Flavor::Tfrc { k, self_clocking }),
                _ => fail(),
            };
        }
        let (name, body) = match s.split_once('(') {
            Some(x) => x,
            None => return fail(),
        };
        let body = match body.strip_suffix(')') {
            Some(b) => b,
            None => return fail(),
        };
        let gamma = match gamma_of(body) {
            Some(g) => g,
            None => return fail(),
        };
        match name {
            "TCP" => Ok(Flavor::Tcp { gamma }),
            "SQRT" => Ok(Flavor::Sqrt { gamma }),
            "IIAD" => Ok(Flavor::Iiad { gamma }),
            "RAP" => Ok(Flavor::Rap { gamma }),
            _ => fail(),
        }
    }

    /// Whether [`Flavor::install`] accepts a stop time. RAP and TEAR
    /// flows run to the horizon.
    pub fn supports_stop(&self) -> bool {
        !matches!(self, Flavor::Rap { .. } | Flavor::Tear)
    }

    /// Install one flow of this flavor across `pair`.
    pub fn install(
        &self,
        sim: &mut Simulator,
        pair: &HostPair,
        pkt_size: u32,
        start: SimTime,
        stop: Option<SimTime>,
    ) -> FlowHandle {
        match *self {
            Flavor::Tcp { gamma } => {
                let mut cfg = TcpConfig::tcp_gamma(gamma, pkt_size);
                cfg.stop_at = stop;
                Tcp::install(sim, pair, cfg, start)
            }
            Flavor::Sqrt { gamma } => {
                let mut cfg = TcpConfig::sqrt_gamma(gamma, pkt_size);
                cfg.stop_at = stop;
                Tcp::install(sim, pair, cfg, start)
            }
            Flavor::Iiad { gamma } => {
                let mut cfg = TcpConfig::iiad_gamma(gamma, pkt_size);
                cfg.stop_at = stop;
                Tcp::install(sim, pair, cfg, start)
            }
            Flavor::Rap { gamma } => {
                assert!(stop.is_none(), "RAP flows do not support stop_at yet");
                Rap::install(sim, pair, RapConfig::rap_gamma(gamma, pkt_size), start)
            }
            Flavor::Tfrc { k, self_clocking } => {
                let mut cfg = TfrcConfig::tfrc_k(k, pkt_size);
                if self_clocking {
                    cfg = cfg.with_self_clocking();
                }
                cfg.stop_at = stop;
                Tfrc::install(sim, pair, cfg, start)
            }
            Flavor::Tear => {
                assert!(stop.is_none(), "TEAR flows do not support stop_at yet");
                Tear::install(sim, pair, TearConfig::standard(pkt_size), start)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig};

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Flavor::Tcp { gamma: 8.0 }.label(), "TCP(1/8)");
        assert_eq!(
            Flavor::Tfrc {
                k: 256,
                self_clocking: true
            }
            .label(),
            "TFRC(256)+sc"
        );
        assert_eq!(Flavor::standard_tfrc().label(), "TFRC(6)");
        assert_eq!(Flavor::Tear.label(), "TEAR");
    }

    #[test]
    fn parse_round_trips_with_label() {
        let flavors = [
            Flavor::standard_tcp(),
            Flavor::Tcp { gamma: 8.0 },
            Flavor::Sqrt { gamma: 2.0 },
            Flavor::Iiad { gamma: 3.0 },
            Flavor::Rap { gamma: 4.0 },
            Flavor::standard_tfrc(),
            Flavor::Tfrc { k: 256, self_clocking: true },
            Flavor::Tear,
        ];
        for f in flavors {
            assert_eq!(Flavor::parse(&f.label()), Ok(f), "{}", f.label());
        }
    }

    #[test]
    fn parse_rejects_malformed_flavors() {
        for bad in [
            "", "tcp(1/2)", "TCP", "TCP(2)", "TCP(1/0)", "TCP(1/x)", "TCP(1/2", "TFRC(0)",
            "TFRC(6)+SC", "TFRC(x)", "TEAR(1)", "CUBIC(1/2)",
        ] {
            let err = Flavor::parse(bad).unwrap_err();
            assert!(err.contains("unknown flavor"), "{bad}: {err}");
        }
    }

    #[test]
    fn every_flavor_installs_and_moves_data() {
        let flavors = [
            Flavor::standard_tcp(),
            Flavor::Sqrt { gamma: 2.0 },
            Flavor::Iiad { gamma: 2.0 },
            Flavor::Rap { gamma: 2.0 },
            Flavor::standard_tfrc(),
            Flavor::Tear,
        ];
        for flavor in flavors {
            let mut sim = Simulator::new(11);
            let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
            let pair = db.add_host_pair(&mut sim);
            let h = flavor.install(&mut sim, &pair, 1000, SimTime::ZERO, None);
            sim.run_until(SimTime::from_secs(10));
            let got = sim.stats().flow(h.flow).unwrap().total_rx_packets;
            assert!(got > 50, "{} moved only {got} packets", flavor.label());
        }
    }

    #[test]
    fn stop_at_silences_a_flow() {
        let mut sim = Simulator::new(11);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let h = Flavor::standard_tcp().install(
            &mut sim,
            &pair,
            1000,
            SimTime::ZERO,
            Some(SimTime::from_secs(5)),
        );
        sim.run_until(SimTime::from_secs(10));
        let after = sim.stats().flow_rx_bytes_in(
            h.flow,
            SimTime::from_millis(5200),
            SimTime::from_secs(10),
        );
        assert_eq!(after, 0, "flow kept sending after stop_at");
    }
}
