//! Experiment scaling.
//!
//! Every experiment runs at two scales:
//!
//! * [`Scale::Full`] — the paper's durations, flow counts and parameter
//!   sweeps (minutes of CPU for the complete set; used by `repro` and
//!   recorded in `EXPERIMENTS.md`);
//! * [`Scale::Quick`] — shortened runs and thinned sweeps that preserve
//!   each experiment's qualitative shape (used by the test suite and the
//!   repo benchmark so CI stays fast).

use serde::Serialize;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Paper-scale runs.
    Full,
    /// Shortened runs for tests and the repo benchmark.
    Quick,
}

impl Scale {
    /// Pick `full` or `quick` by scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }

    /// True for [`Scale::Quick`].
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }
}

/// The γ sweep used by Figures 4/5/13: powers of two up to 256 at full
/// scale, a thinned subset at quick scale.
pub fn gamma_sweep(scale: Scale) -> Vec<f64> {
    scale.pick(
        vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
        vec![2.0, 16.0, 256.0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Full.pick(10, 1), 10);
        assert_eq!(Scale::Quick.pick(10, 1), 1);
        assert!(Scale::Quick.is_quick());
        assert!(!Scale::Full.is_quick());
    }

    #[test]
    fn sweeps_are_ascending_and_nonempty() {
        for scale in [Scale::Full, Scale::Quick] {
            let g = gamma_sweep(scale);
            assert!(!g.is_empty());
            assert!(g.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
