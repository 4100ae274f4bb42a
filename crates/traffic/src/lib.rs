//! # slowcc-traffic
//!
//! Workload generators for the SlowCC reproduction:
//!
//! * [`cbr`] — unresponsive constant-bit-rate sources with the paper's
//!   dynamic schedules (square wave, sawtooth, reverse sawtooth, scripts),
//! * [`flash`] — flash crowds of short TCP transfers (Figure 6),
//! * [`bulk`] — the bidirectional background traffic Section 3
//!   requires,
//! * [`losspat`] — the hand-crafted loss scripts of Figures 17-19.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod cbr;
pub mod flash;
pub mod losspat;

/// Commonly used names.
pub mod prelude {
    pub use crate::bulk::add_reverse_tcp;
    pub use crate::cbr::{install_cbr, install_pareto_onoff, CbrSink, CbrSource, ParetoOnOff, ParetoOnOffConfig, RateSchedule};
    pub use crate::flash::{install_flash_crowd, FlashCrowd, FlashCrowdConfig};
    pub use crate::losspat::{CountPhases, OnePerRtt, TimePhases};
}
