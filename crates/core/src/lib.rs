//! # slowcc-core
//!
//! The congestion control algorithms and analytical models of *"Dynamic
//! Behavior of Slowly-Responsive Congestion Control Algorithms"*
//! (Bansal, Balakrishnan, Floyd & Shenker, SIGCOMM 2001), implemented as
//! agents for the [`slowcc_netsim`] simulator:
//!
//! * [`tcp`] — TCP(1/γ) and the binomial window algorithms SQRT(1/γ) and
//!   IIAD(1/γ): window-based, self-clocked, with slow start, fast
//!   retransmit/recovery and exponentially backed-off timeouts.
//! * [`rap`] — RAP(1/γ): rate-based AIMD without self-clocking.
//! * [`tfrc`] — TFRC(k): equation-based congestion control, including the
//!   paper's `conservative_` self-clocking extension and optional history
//!   discounting.
//! * [`tear`] — TEAR: receiver-side TCP emulation (the paper's fourth
//!   SlowCC family, implemented as an extension).
//! * [`aimd`] — the TCP-compatible parameterizations tying all of the
//!   above together.
//! * [`equation`] — the Padhye et al. TCP response function.
//! * [`analysis`] — the paper's closed-form models (Figures 11 and 20,
//!   the f(k) approximation).
//!
//! Every sender/receiver pair installs onto a
//! [`slowcc_netsim::topology::HostPair`] via `X::install(...)`, returning
//! a [`agent::FlowHandle`] whose flow id indexes the simulator's
//! statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod aimd;
pub mod analysis;
pub mod equation;
mod pacer;
pub mod rap;
pub mod rtt;
pub mod tcp;
pub mod tear;
pub mod tfrc;

/// Commonly used names.
pub mod prelude {
    pub use crate::agent::{install_flow, install_reverse_flow, FlowHandle, SenderWiring};
    pub use crate::aimd::{tcp_compatible_a, BinomialParams};
    pub use crate::rap::{Rap, RapConfig};
    pub use crate::tcp::{Tcp, TcpConfig, TcpSink};
    pub use crate::tear::{Tear, TearConfig, TearSink};
    pub use crate::tfrc::{Tfrc, TfrcConfig, TfrcSink};
}
