//! Window increase/decrease rules: AIMD and its binomial generalization.
//!
//! A binomial congestion control algorithm (Bansal & Balakrishnan 2001) is
//! characterized by four parameters `(k, l, a, b)`:
//!
//! * each congestion-free RTT increases the window `W -> W + a / W^k`,
//! * each loss event decreases it `W -> W - b * W^l`.
//!
//! AIMD is the special case `k = 0, l = 1`, where `b` is the familiar
//! multiplicative decrease fraction. TCP is AIMD with `a = 1, b = 1/2`.
//!
//! # TCP-compatibility
//!
//! For AIMD, the paper (Section 2) uses the relation
//!
//! ```text
//! a = 4 (2b - b^2) / 3
//! ```
//!
//! so that AIMD(a, b) achieves the same steady-state throughput as TCP
//! under a fixed loss rate. [`tcp_compatible_a`] implements it.
//!
//! For binomial algorithms with `k + l = 1` the paper names the instances
//! SQRT(1/γ) and IIAD(1/γ) ("the TCP-compatible instances ... with
//! multiplicative decrease factor 1/γ") without giving constants. A
//! binomial decrease `b·W^l` has *relative* magnitude `δ(W) = b·W^(l-1)`,
//! which depends on the operating window, so we anchor the definition at a
//! documented reference window `W₀` (see `DESIGN.md`): choose `b` so that
//! `δ(W₀) = 1/γ`, and `a` so that the linearization around `W₀` is exactly
//! the TCP-compatible AIMD(1/γ). For `k = 0, l = 1` this reduces to the
//! paper's own AIMD rule, making the convention uniform across families.

use serde::{Deserialize, Serialize};

/// The reference window (packets) at which binomial instances are
/// anchored to their nominal decrease factor 1/γ. Chosen as the typical
/// per-flow window in the paper's standard scenarios (10 flows on a
/// 10 Mb/s, 50 ms-RTT bottleneck gives ~12-15 packets per flow).
pub const DEFAULT_REFERENCE_WINDOW: f64 = 15.0;

/// The paper's TCP-compatible AIMD increase for a decrease fraction `b`:
/// `a = 4(2b - b²)/3`. Yields `a = 1` at `b = 1/2`.
pub fn tcp_compatible_a(b: f64) -> f64 {
    assert!(b > 0.0 && b <= 1.0, "decrease fraction must be in (0,1]");
    4.0 * (2.0 * b - b * b) / 3.0
}

/// Parameters of a binomial window update rule.
///
/// ```
/// use slowcc_core::aimd::BinomialParams;
///
/// // Standard TCP: halve on loss, +1/W per ACK.
/// let tcp = BinomialParams::standard_tcp();
/// assert_eq!(tcp.decrease(20.0), 10.0);
///
/// // TCP(1/8): decrease by an eighth, with the paper's compatible `a`.
/// let slow = BinomialParams::tcp_gamma(8.0);
/// assert!((slow.decrease(20.0) - 17.5).abs() < 1e-12);
/// assert!(slow.a < tcp.a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinomialParams {
    /// Increase exponent: `W += a / W^k` per congestion-free RTT.
    pub k: f64,
    /// Decrease exponent: `W -= b * W^l` per loss event.
    pub l: f64,
    /// Increase constant.
    pub a: f64,
    /// Decrease constant.
    pub b: f64,
}

impl BinomialParams {
    /// TCP-compatible AIMD with decrease fraction `b` (the paper's
    /// TCP(b) / AIMD(b)): `k = 0`, `l = 1`, `a = 4(2b - b²)/3`.
    pub fn aimd(b: f64) -> Self {
        BinomialParams {
            k: 0.0,
            l: 1.0,
            a: tcp_compatible_a(b),
            b,
        }
    }

    /// Standard TCP: AIMD(1, 1/2).
    pub fn standard_tcp() -> Self {
        BinomialParams::aimd(0.5)
    }

    /// TCP(1/γ): AIMD with decrease fraction 1/γ.
    pub fn tcp_gamma(gamma: f64) -> Self {
        assert!(gamma >= 1.0, "gamma must be >= 1");
        BinomialParams::aimd(1.0 / gamma)
    }

    /// A binomial rule with exponents `(k, l)` anchored so that the
    /// relative decrease at the reference window `w0` is `1/gamma`, and
    /// the increase matches the TCP-compatible AIMD(1/γ) linearized at
    /// `w0`. Panics unless `k + l = 1` (the TCP-compatible family) and
    /// the inputs are in range.
    pub fn binomial_anchored(k: f64, l: f64, gamma: f64, w0: f64) -> Self {
        assert!(
            (k + l - 1.0).abs() < 1e-9,
            "TCP-compatible binomial requires k + l = 1 (got k={k}, l={l})"
        );
        assert!((0.0..=1.0).contains(&l), "l must be in [0, 1]");
        assert!(gamma >= 1.0, "gamma must be >= 1");
        assert!(w0 >= 1.0, "reference window must be >= 1 packet");
        let delta = 1.0 / gamma;
        BinomialParams {
            k,
            l,
            a: w0.powf(k) * tcp_compatible_a(delta),
            b: w0.powf(1.0 - l) * delta,
        }
    }

    /// SQRT(1/γ): binomial `k = l = 1/2`, anchored at the default
    /// reference window.
    pub fn sqrt_gamma(gamma: f64) -> Self {
        BinomialParams::binomial_anchored(0.5, 0.5, gamma, DEFAULT_REFERENCE_WINDOW)
    }

    /// IIAD(1/γ): binomial `k = 1, l = 0` (inverse increase, additive
    /// decrease), anchored at the default reference window.
    pub fn iiad_gamma(gamma: f64) -> Self {
        BinomialParams::binomial_anchored(1.0, 0.0, gamma, DEFAULT_REFERENCE_WINDOW)
    }

    /// Window increase applied per acknowledged packet in congestion
    /// avoidance: the per-RTT increase `a / W^k` spread over the `W`
    /// packets ACKed per RTT.
    pub fn increase_per_ack(&self, w: f64) -> f64 {
        let w = w.max(1.0);
        self.a / pow(w, self.k + 1.0)
    }

    /// New window after a loss event: `W - b·W^l`, floored at one packet.
    pub fn decrease(&self, w: f64) -> f64 {
        let w = w.max(1.0);
        (w - self.b * pow(w, self.l)).max(1.0)
    }

    /// Relative decrease `b·W^(l-1)` at window `w` (1/γ at the anchor).
    pub fn relative_decrease(&self, w: f64) -> f64 {
        let w = w.max(1.0);
        (self.b * pow(w, self.l - 1.0)).min(1.0)
    }
}

/// `w^e` for a window `w >= 1`. The exponents AIMD runs on every ACK
/// and loss, 1 and 0, are answered without a libm call: `powf` returns
/// exactly `w` and `1.0` for them, so the bits are the same. SQRT's and
/// IIAD's exponents go to `powf`.
#[inline]
fn pow(w: f64, e: f64) -> f64 {
    if e == 1.0 {
        w
    } else if e == 0.0 {
        1.0
    } else {
        w.powf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow_matches_powf_bit_for_bit() {
        let mut ws: Vec<f64> = (0..=60).map(|i| 2f64.powi(i)).collect();
        ws.extend((0..10_000).map(|i| 1.0 + i as f64 * 0.0137));
        ws.extend([1.0 + f64::EPSILON, 3.0, 1e300, f64::MAX]);
        for w in ws {
            for e in [0.0, 1.0] {
                assert_eq!(pow(w, e).to_bits(), w.powf(e).to_bits(), "{w}^{e}");
            }
        }
        // The per-ACK and per-loss rules of every flavor, against the
        // plain `powf` formulas.
        for p in [
            BinomialParams::standard_tcp(),
            BinomialParams::tcp_gamma(256.0),
            BinomialParams::sqrt_gamma(2.0),
            BinomialParams::iiad_gamma(2.0),
        ] {
            for w in [1.0, 2.0, 7.25, 64.0, 1000.5] {
                assert_eq!(
                    p.increase_per_ack(w).to_bits(),
                    (p.a / w.powf(p.k + 1.0)).to_bits()
                );
                assert_eq!(
                    p.decrease(w).to_bits(),
                    (w - p.b * w.powf(p.l)).max(1.0).to_bits()
                );
                assert_eq!(
                    p.relative_decrease(w).to_bits(),
                    (p.b * w.powf(p.l - 1.0)).min(1.0).to_bits()
                );
            }
        }
    }

    #[test]
    fn standard_tcp_has_a_equal_one() {
        let p = BinomialParams::standard_tcp();
        assert!((p.a - 1.0).abs() < 1e-12);
        assert!((p.b - 0.5).abs() < 1e-12);
        // Halving: decrease(20) = 10.
        assert!((p.decrease(20.0) - 10.0).abs() < 1e-12);
        // Congestion avoidance: +1/W per ACK.
        assert!((p.increase_per_ack(20.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn tcp_compatible_a_matches_paper_examples() {
        assert!((tcp_compatible_a(0.5) - 1.0).abs() < 1e-12);
        // b = 1/8: a = 4(2/8 - 1/64)/3 = 4*(15/64)/3 = 0.3125.
        assert!((tcp_compatible_a(0.125) - 0.3125).abs() < 1e-12);
    }

    #[test]
    fn aimd_anchoring_is_independent_of_w0() {
        // For l = 1, k = 0 the anchored construction must reduce exactly
        // to the paper's AIMD rule regardless of the reference window.
        for w0 in [5.0, 15.0, 100.0] {
            let p = BinomialParams::binomial_anchored(0.0, 1.0, 8.0, w0);
            let q = BinomialParams::tcp_gamma(8.0);
            assert!((p.a - q.a).abs() < 1e-12);
            assert!((p.b - q.b).abs() < 1e-12);
        }
    }

    #[test]
    fn sqrt_relative_decrease_hits_target_at_anchor() {
        let p = BinomialParams::sqrt_gamma(2.0);
        assert!((p.relative_decrease(DEFAULT_REFERENCE_WINDOW) - 0.5).abs() < 1e-9);
        // Gentler above the anchor, stronger below (the binomial shape).
        assert!(p.relative_decrease(60.0) < 0.5);
        assert!(p.relative_decrease(4.0) > 0.5);
    }

    #[test]
    fn iiad_decrease_is_additive() {
        let p = BinomialParams::iiad_gamma(2.0);
        // l = 0: decrease magnitude b is window-independent.
        let d1 = 20.0 - p.decrease(20.0);
        let d2 = 40.0 - p.decrease(40.0);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn decrease_never_goes_below_one_packet() {
        let p = BinomialParams::aimd(1.0);
        assert!((p.decrease(0.5) - 1.0).abs() < 1e-12);
        assert!((p.decrease(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slower_gamma_means_gentler_decrease_and_increase() {
        let fast = BinomialParams::tcp_gamma(2.0);
        let slow = BinomialParams::tcp_gamma(256.0);
        assert!(slow.b < fast.b);
        assert!(slow.a < fast.a);
    }

    #[test]
    #[should_panic(expected = "k + l = 1")]
    fn non_compatible_exponents_rejected() {
        BinomialParams::binomial_anchored(1.0, 1.0, 2.0, 15.0);
    }
}
