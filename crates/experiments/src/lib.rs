//! # slowcc-experiments
//!
//! One module per table/figure of *"Dynamic Behavior of Slowly-Responsive
//! Congestion Control Algorithms"* (SIGCOMM 2001); the `repro` binary
//! drives them all (see below) and writes JSON into `results/`.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig03`] | Fig. 3 — drop-rate transient after a CBR restart |
//! | [`fig45`] | Figs. 4/5 — stabilization time and cost vs γ |
//! | [`fig06`] | Fig. 6 — flash crowd vs background SlowCC |
//! | [`fig0789`] | Figs. 7/8/9 — oscillating-bandwidth fairness |
//! | [`fig1012`] | Figs. 10/12 — δ-fair convergence time |
//! | [`fig11`] | Fig. 11 — analytic ACKs-to-fairness |
//! | [`fig13`] | Fig. 13 — f(20)/f(200) after bandwidth doubling |
//! | [`fig1416`] | Figs. 14/15/16 — oscillation utilization & drops |
//! | [`fig171819`] | Figs. 17/18/19 — smoothness under bursty loss |
//! | [`fig20`] | Fig. 20 — the Appendix A throughput models |
//! | [`extras`] | Section 4.2.1/4.2.3 prose experiments |
//! | [`validate`] | static compatibility, ECN Fig-11 check, Appendix A |
//! | [`response`] | Section 3 responsiveness/aggressiveness, measured |
//! | [`queuedyn`] | queue dynamics under SlowCC (Section 2 extension) |
//! | [`hetero`] | RTT bias and multi-hop equity (Section 1 caveats) |
//! | [`chaos`] | randomized fault plans over every flavor (robustness) |
//! | [`conformance`] | RFC conformance coverage over the `specs/` tree |
//!
//! Every module implements the [`experiment::Experiment`] trait — a
//! declarative list of seeded cells plus a pure per-cell body — and is
//! listed in the [`registry`]. [`exec`] is the single execution path
//! behind the `repro` binary: it fans all requested targets' cells out
//! over [`runner`]'s crash-isolated workers, records each cell in the
//! [`manifest`], caches per-cell outputs for `--resume`, and renders
//! each target once its cells are in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod conformance;
pub mod dsl;
pub mod exec;
pub mod experiment;
pub mod extras;
pub mod fig03;
pub mod fig06;
pub mod fig0789;
pub mod fig1012;
pub mod fig11;
pub mod fig13;
pub mod fig1416;
pub mod fig171819;
pub mod fig20;
pub mod fig45;
pub mod flavor;
pub mod hetero;
pub mod manifest;
pub mod onset;
pub mod queuedyn;
pub mod registry;
pub mod report;
pub mod response;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod toml;
pub mod validate;
