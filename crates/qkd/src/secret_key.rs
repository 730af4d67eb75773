//! Secret-key fraction of a Werner pair (Eq. 4 of the paper).
//!
//! For an entanglement-based BB84-style protocol run over a Werner state with
//! parameter `w`, the asymptotic secret-key fraction is
//!
//! ```text
//! F_skf(w) = max(0, 1 + (1 + w) log2((1 + w)/2) + (1 - w) log2((1 - w)/2))
//! ```
//!
//! which equals `1 - 2 h((1 - w)/2)` with `h` the binary entropy — the
//! familiar "one minus twice the entropy of the QBER" law. The fraction is
//! zero below the threshold `w ~ 0.779944` quoted by the paper (obtained
//! there with a graphing calculator; here we recover it by bisection and
//! expose it as [`SKF_THRESHOLD`]).

use crate::werner::WernerParameter;

/// The Werner parameter below which the secret-key fraction is exactly zero.
///
/// This is the root of `1 - 2 h((1 - w)/2) = 0`, i.e. the QBER threshold
/// (~11 %) of BB84 expressed in Werner-parameter form. The paper reports the
/// value `0.779944`.
pub const SKF_THRESHOLD: f64 = 0.779_944_271_123_280_9;

/// Binary entropy `h(p) = -p log2 p - (1-p) log2 (1-p)`, with the standard
/// convention `h(0) = h(1) = 0`.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// Secret-key fraction `F_skf(w)` of Eq. (4), for a raw Werner value.
///
/// Values of `w` outside `(0, 1]` are clamped into the interval before
/// evaluation; use [`secret_key_fraction`] with a validated
/// [`WernerParameter`] when the input is already checked.
pub fn secret_key_fraction_raw(w: f64) -> f64 {
    let w = w.clamp(f64::MIN_POSITIVE, 1.0);
    let plus = 1.0 + w;
    let minus = 1.0 - w;
    let mut value = 1.0 + plus * (plus / 2.0).log2();
    if minus > 0.0 {
        value += minus * (minus / 2.0).log2();
    }
    value.max(0.0)
}

/// Secret-key fraction `F_skf(w)` of Eq. (4) for a validated Werner
/// parameter.
pub fn secret_key_fraction(w: WernerParameter) -> f64 {
    secret_key_fraction_raw(w.value())
}

/// Derivative `d F_skf / d w` on the region where the fraction is positive
/// (zero elsewhere). Useful for gradient-based optimization of the QKD
/// utility.
pub fn secret_key_fraction_derivative(w: f64) -> f64 {
    if w <= SKF_THRESHOLD || w >= 1.0 {
        // At w = 1 the analytic derivative diverges; the optimizer never
        // needs it there because w = 1 means a noiseless link.
        if (w - 1.0).abs() < f64::EPSILON {
            return f64::INFINITY;
        }
        return 0.0;
    }
    // d/dw [ (1+w) log2((1+w)/2) + (1-w) log2((1-w)/2) ]
    //   = log2((1+w)/2) - log2((1-w)/2)
    ((1.0 + w) / 2.0).log2() - ((1.0 - w) / 2.0).log2()
}

/// Second derivative `d² F_skf / d w² = 2 / (ln 2 (1 - w²))` on the region
/// where the fraction is positive (zero below the threshold, infinite at
/// `w = 1`, like [`secret_key_fraction_derivative`]).
pub fn secret_key_fraction_second_derivative(w: f64) -> f64 {
    if w <= SKF_THRESHOLD || w >= 1.0 {
        if (w - 1.0).abs() < f64::EPSILON {
            return f64::INFINITY;
        }
        return 0.0;
    }
    2.0 / (std::f64::consts::LN_2 * (1.0 - w) * (1.0 + w))
}

/// Computes the zero-crossing of the secret-key fraction by bisection, used
/// in tests to confirm [`SKF_THRESHOLD`] and exposed for callers who want the
/// threshold to machine precision.
pub fn compute_threshold() -> f64 {
    let mut lo = 0.5_f64;
    let mut hi = 0.9_f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if secret_key_fraction_raw(mid) > 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_state_has_unit_fraction() {
        assert!((secret_key_fraction_raw(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn maximally_mixed_state_has_zero_fraction() {
        assert_eq!(secret_key_fraction_raw(1e-12), 0.0);
        assert_eq!(secret_key_fraction_raw(0.5), 0.0);
    }

    #[test]
    fn threshold_matches_papers_constant() {
        let threshold = compute_threshold();
        // The paper quotes 0.779944 (6 decimals, from Desmos).
        assert!((threshold - 0.779944).abs() < 1e-5, "threshold {threshold}");
        assert!((threshold - SKF_THRESHOLD).abs() < 1e-9);
        // Just above the threshold the fraction is positive, just below zero.
        assert!(secret_key_fraction_raw(SKF_THRESHOLD + 1e-6) > 0.0);
        assert_eq!(secret_key_fraction_raw(SKF_THRESHOLD - 1e-6), 0.0);
    }

    #[test]
    fn matches_entropy_formulation() {
        for w in [0.8, 0.85, 0.9, 0.95, 0.99] {
            let via_entropy = 1.0 - 2.0 * binary_entropy((1.0 - w) / 2.0);
            assert!(
                (secret_key_fraction_raw(w) - via_entropy).abs() < 1e-12,
                "mismatch at w={w}"
            );
        }
    }

    #[test]
    fn binary_entropy_extremes_and_symmetry() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy(0.2) - binary_entropy(0.8)).abs() < 1e-12);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for w in [0.82, 0.9, 0.97] {
            let h = 1e-7;
            let fd = (secret_key_fraction_raw(w + h) - secret_key_fraction_raw(w - h)) / (2.0 * h);
            let an = secret_key_fraction_derivative(w);
            assert!((fd - an).abs() < 1e-5, "w={w}: fd={fd} an={an}");
        }
        assert_eq!(secret_key_fraction_derivative(0.5), 0.0);
    }

    #[test]
    fn second_derivative_matches_finite_difference() {
        for w in [0.79, 0.82, 0.9, 0.97, 0.999] {
            let h = 1e-6;
            let fd = (secret_key_fraction_derivative(w + h)
                - secret_key_fraction_derivative(w - h))
                / (2.0 * h);
            let an = secret_key_fraction_second_derivative(w);
            assert!((fd - an).abs() < 1e-6 * an, "w={w}: fd={fd} an={an}");
        }
        assert_eq!(secret_key_fraction_second_derivative(0.5), 0.0);
        assert_eq!(secret_key_fraction_second_derivative(1.0), f64::INFINITY);
    }

    proptest! {
        #[test]
        fn fraction_is_monotone_nondecreasing(a in 0.01f64..1.0, b in 0.01f64..1.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(secret_key_fraction_raw(lo) <= secret_key_fraction_raw(hi) + 1e-12);
        }

        #[test]
        fn fraction_is_bounded(w in 0.0001f64..=1.0) {
            let f = secret_key_fraction_raw(w);
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn validated_and_raw_agree(w in 0.0001f64..=1.0) {
            let wp = WernerParameter::new(w).unwrap();
            prop_assert_eq!(secret_key_fraction(wp), secret_key_fraction_raw(w));
        }
    }
}
