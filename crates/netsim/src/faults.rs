//! Deterministic per-link fault injection.
//!
//! The paper's figures perturb exactly one thing: the loss process on the
//! bottleneck. Real paths misbehave in richer ways — packets are
//! reordered, duplicated, jittered, and whole links flap — and SlowCC
//! algorithms must degrade gracefully under all of them. A [`FaultPlan`]
//! scripts those perturbations per link:
//!
//! * **Reordering** ([`Reorder`]) — every `every_nth`-th packet offered to
//!   the link is *held* for a fixed duration and re-offered through the
//!   event queue, so later packets overtake it. At most `max_held`
//!   packets are in the hold bay at once, which bounds the displacement.
//! * **Duplication** ([`Duplicate`]) — each offered packet is cloned with
//!   probability `p`. The clone is a *new* packet (fresh uid, freshly
//!   injected into the packet ledger) so the audit books stay balanced.
//! * **Delay jitter** ([`Jitter`]) — each serialized packet's propagation
//!   delay is stretched by a uniform draw in `[0, max]`, which perturbs
//!   RTT estimators and can itself reorder deliveries.
//! * **Link flapping** ([`FlapWindow`]) — scripted `down_at..up_at`
//!   windows during which the link blackholes every packet offered to it
//!   (accounted as ordinary link drops, so conservation holds).
//!
//! # Determinism
//!
//! Every random decision draws from the plan's own RNG, seeded from
//! [`FaultPlan::seed`] and independent of the simulation RNG. Event
//! processing order is fixed by the `(time, seq)` key, so the draw
//! sequence — and therefore the entire faulted run — replays
//! bit-identically from `(plan, seed)`.
//!
//! # Audit interplay
//!
//! A held packet has not yet "arrived" at the link (arrival accounting
//! runs at admission, after release), so the per-link conservation law
//! `arrivals == departures + drops + held-in-buffer` is undisturbed.
//! Duplicates are injected into the packet ledger like any send, and flap
//! drops are recorded through the same stats/audit drop hooks as scripted
//! loss. A [`crate::audit::AuditMode::Strict`] audit runs clean over any
//! plan.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// Hold-and-release reordering: every `every_nth`-th packet is delayed by
/// `hold` before it is admitted to the link, letting up to `hold`'s worth
/// of later traffic overtake it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reorder {
    /// Hold one of every `every_nth` offered packets (0 disables).
    pub every_nth: u64,
    /// How long a held packet waits before being re-offered.
    pub hold: SimDuration,
    /// Maximum packets held simultaneously; offers beyond the cap pass
    /// through unheld, which bounds both memory and displacement.
    pub max_held: usize,
}

/// Independent per-packet duplication with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Duplicate {
    /// Duplication probability in `[0, 1]`.
    pub p: f64,
}

/// Uniform extra propagation delay in `[0, max]` per serialized packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Largest extra delay a packet can be assigned.
    pub max: SimDuration,
}

/// One scheduled outage: the link drops everything offered to it in
/// `[down_at, up_at)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapWindow {
    /// When the link goes dark.
    pub down_at: SimTime,
    /// When it comes back.
    pub up_at: SimTime,
}

/// A complete per-link fault script. Attach with
/// [`crate::link::Link::with_faults`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's private RNG (duplication and jitter draws).
    pub seed: u64,
    /// Optional reordering fault.
    pub reorder: Option<Reorder>,
    /// Optional duplication fault.
    pub duplicate: Option<Duplicate>,
    /// Optional delay-jitter fault.
    pub jitter: Option<Jitter>,
    /// Outage windows, in ascending, non-overlapping time order.
    pub flaps: Vec<FlapWindow>,
}

impl FaultPlan {
    /// An empty plan with its RNG seeded from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Hold one of every `every_nth` packets for `hold`, at most
    /// `max_held` at a time.
    pub fn with_reorder(mut self, every_nth: u64, hold: SimDuration, max_held: usize) -> Self {
        self.reorder = Some(Reorder {
            every_nth,
            hold,
            max_held,
        });
        self
    }

    /// Duplicate each packet with probability `p`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.duplicate = Some(Duplicate { p });
        self
    }

    /// Stretch each packet's propagation delay by up to `max`.
    pub fn with_jitter(mut self, max: SimDuration) -> Self {
        self.jitter = Some(Jitter { max });
        self
    }

    /// Add an outage window. Windows must be appended in ascending order
    /// and must not overlap; [`FaultState::new`] asserts this.
    pub fn with_flap(mut self, down_at: SimTime, up_at: SimTime) -> Self {
        assert!(down_at < up_at, "flap window must have down_at < up_at");
        self.flaps.push(FlapWindow { down_at, up_at });
        self
    }

    /// One-line human summary ("reorder(1/20,30ms) dup(0.5%) ...") used
    /// by experiment reports.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if let Some(r) = &self.reorder {
            parts.push(format!(
                "reorder(1/{},{}ms,cap{})",
                r.every_nth,
                r.hold.as_nanos() / 1_000_000,
                r.max_held
            ));
        }
        if let Some(d) = &self.duplicate {
            parts.push(format!("dup({:.2}%)", d.p * 100.0));
        }
        if let Some(j) = &self.jitter {
            parts.push(format!("jitter({}ms)", j.max.as_nanos() / 1_000_000));
        }
        for f in &self.flaps {
            parts.push(format!(
                "flap({:.1}s-{:.1}s)",
                f.down_at.as_secs_f64(),
                f.up_at.as_secs_f64()
            ));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Runtime state of one link's fault plan: the seeded RNG, the reorder
/// counters, and a cursor over the flap timeline. Owned by the
/// [`crate::link::Link`], driven by the simulator's admission and
/// serialization paths.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SmallRng,
    /// Packets seen by the pre-admission stage (reorder cadence).
    seen: u64,
    /// Packets currently in the hold bay.
    held: usize,
    /// Index of the first flap window that has not fully passed.
    flap_ix: usize,
}

impl FaultState {
    /// Build the runtime state, validating the flap timeline.
    pub fn new(plan: FaultPlan) -> Self {
        for w in plan.flaps.windows(2) {
            assert!(
                w[0].up_at <= w[1].down_at,
                "flap windows must be ascending and non-overlapping"
            );
        }
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultState {
            plan,
            rng,
            seen: 0,
            held: 0,
            flap_ix: 0,
        }
    }

    /// The plan this state runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Duplication decision for the packet currently being offered.
    /// Draws exactly one random number when duplication is configured,
    /// none otherwise, so the draw sequence is a pure function of the
    /// offer sequence.
    pub(crate) fn should_duplicate(&mut self) -> bool {
        match self.plan.duplicate {
            Some(d) => self.rng.gen::<f64>() < d.p,
            None => false,
        }
    }

    /// Hold decision for the packet currently being offered: `Some(hold)`
    /// sends it to the hold bay.
    pub(crate) fn should_hold(&mut self) -> Option<SimDuration> {
        let r = self.plan.reorder?;
        if r.every_nth == 0 {
            return None;
        }
        self.seen += 1;
        if self.seen.is_multiple_of(r.every_nth) && self.held < r.max_held {
            self.held += 1;
            Some(r.hold)
        } else {
            None
        }
    }

    /// A held packet left the hold bay.
    pub(crate) fn on_release(&mut self) {
        debug_assert!(self.held > 0, "release without a held packet");
        self.held = self.held.saturating_sub(1);
    }

    /// Whether the link is inside an outage window at `now`. Calls must
    /// come with non-decreasing `now` (event order), which lets the
    /// timeline cursor advance monotonically.
    pub(crate) fn is_down(&mut self, now: SimTime) -> bool {
        while self
            .plan
            .flaps
            .get(self.flap_ix)
            .is_some_and(|w| now >= w.up_at)
        {
            self.flap_ix += 1;
        }
        self.plan
            .flaps
            .get(self.flap_ix)
            .is_some_and(|w| now >= w.down_at)
    }

    /// Extra propagation delay for the packet that just finished
    /// serializing. Draws exactly one random number when jitter is
    /// configured, none otherwise.
    pub(crate) fn jitter(&mut self) -> SimDuration {
        match self.plan.jitter {
            Some(j) if !j.max.is_zero() => {
                let span = j.max.as_nanos();
                SimDuration::from_nanos(self.rng.gen_range_u64(0, span + 1))
            }
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_cadence_and_cap() {
        let plan = FaultPlan::seeded(1).with_reorder(3, SimDuration::from_millis(10), 1);
        let mut fs = FaultState::new(plan);
        let holds: Vec<bool> = (0..9).map(|_| fs.should_hold().is_some()).collect();
        // Every 3rd offer is held, but the cap of 1 suppresses the 6th
        // and 9th while the 3rd is still outstanding.
        assert_eq!(
            holds,
            vec![false, false, true, false, false, false, false, false, false]
        );
        fs.on_release();
        let more: Vec<bool> = (0..3).map(|_| fs.should_hold().is_some()).collect();
        assert_eq!(more, vec![false, false, true]);
    }

    #[test]
    fn flap_cursor_tracks_monotone_time() {
        let plan = FaultPlan::seeded(0)
            .with_flap(SimTime::from_secs(1), SimTime::from_secs(2))
            .with_flap(SimTime::from_secs(5), SimTime::from_secs(6));
        let mut fs = FaultState::new(plan);
        assert!(!fs.is_down(SimTime::from_millis(500)));
        assert!(fs.is_down(SimTime::from_millis(1000)));
        assert!(fs.is_down(SimTime::from_millis(1999)));
        assert!(!fs.is_down(SimTime::from_millis(2000)));
        assert!(!fs.is_down(SimTime::from_millis(4999)));
        assert!(fs.is_down(SimTime::from_millis(5500)));
        assert!(!fs.is_down(SimTime::from_secs(6)));
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_flaps_are_rejected() {
        let plan = FaultPlan::seeded(0)
            .with_flap(SimTime::from_secs(1), SimTime::from_secs(3))
            .with_flap(SimTime::from_secs(2), SimTime::from_secs(4));
        let _ = FaultState::new(plan);
    }

    #[test]
    fn duplication_hits_its_probability_and_replays() {
        let run = |seed: u64| -> Vec<bool> {
            let mut fs = FaultState::new(FaultPlan::seeded(seed).with_duplication(0.2));
            (0..10_000).map(|_| fs.should_duplicate()).collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must replay identically");
        assert_ne!(a, run(8));
        let rate = a.iter().filter(|&&d| d).count() as f64 / a.len() as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let max = SimDuration::from_millis(5);
        let mut fs = FaultState::new(FaultPlan::seeded(3).with_jitter(max));
        for _ in 0..1000 {
            assert!(fs.jitter() <= max);
        }
        // No jitter configured: no draws, always zero.
        let mut none = FaultState::new(FaultPlan::seeded(3));
        assert_eq!(none.jitter(), SimDuration::ZERO);
    }

    #[test]
    fn summary_mentions_every_configured_fault() {
        let plan = FaultPlan::seeded(0)
            .with_reorder(20, SimDuration::from_millis(30), 8)
            .with_duplication(0.005)
            .with_jitter(SimDuration::from_millis(2))
            .with_flap(SimTime::from_secs(4), SimTime::from_secs(5));
        let s = plan.summary();
        for needle in ["reorder(1/20", "dup(0.50%)", "jitter(2ms)", "flap(4.0s-5.0s)"] {
            assert!(s.contains(needle), "`{s}` missing `{needle}`");
        }
        assert_eq!(FaultPlan::default().summary(), "none");
    }
}
