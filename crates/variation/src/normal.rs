//! Scalar normal-distribution math and standard-normal sampling.
//!
//! Everything here is self-contained (no external math crates): `erf` uses
//! the rational Chebyshev approximation from Numerical Recipes (fractional
//! error below `1.2e-7`), and [`probit`] uses Acklam's algorithm refined with
//! one Halley step, giving ~1e-9 absolute accuracy over `(0, 1)`.

use rand::Rng;

/// Probability density function of the standard normal distribution.
///
/// ```
/// let p = psbi_variation::normal::pdf(0.0);
/// assert!((p - 0.3989422804014327).abs() < 1e-12);
/// ```
#[inline]
pub fn pdf(x: f64) -> f64 {
    #[allow(clippy::excessive_precision)]
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Complementary error function, fractional error below `1.2e-7`.
///
/// ```
/// assert!((psbi_variation::normal::erfc(0.0) - 1.0).abs() < 1e-7);
/// ```
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x) = 1 - erfc(x)`.
///
/// ```
/// assert!(psbi_variation::normal::erf(1.0) > 0.8427 - 1e-4);
/// ```
#[inline]
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Cumulative distribution function Φ of the standard normal distribution.
///
/// ```
/// assert!((psbi_variation::normal::cdf(0.0) - 0.5).abs() < 1e-7);
/// ```
#[inline]
pub fn cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Uses Acklam's rational approximation refined by one Halley iteration.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// ```
/// let x = psbi_variation::normal::probit(0.975);
/// assert!((x - 1.959964).abs() < 1e-4);
/// ```
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit requires p in (0,1), got {p}");
    let x = probit_fast(p);
    // One Halley refinement step.
    let e = cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Acklam's probit coefficients, exported so the AVX2 sampling kernel can
/// evaluate the central branch with the *identical* expression tree of
/// [`probit_fast`] — the bit-parity contract between the scalar and
/// vectorised sampling kernels depends on both sides reading the same
/// constants.
pub mod acklam {
    /// Central-branch numerator coefficients.
    #[allow(clippy::excessive_precision)]
    pub const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    /// Central-branch denominator coefficients.
    pub const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    /// Tail-branch numerator coefficients.
    pub const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    /// Tail-branch denominator coefficients.
    pub const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    /// Branch threshold: `p < P_LOW` / `p > 1 − P_LOW` take the tails.
    pub const P_LOW: f64 = 0.024_25;
}

/// The central branch of [`probit_fast`] — Acklam's rational approximation
/// for `p ∈ [P_LOW, 1 − P_LOW]`, with no `ln`/`sqrt` (`P_LOW` is
/// [`acklam::P_LOW`]).
///
/// Branch-free and built from exactly-rounded IEEE operations only, so the
/// AVX2 sampling kernel evaluates it lane-wise from [`acklam`]'s constants
/// with the same bits.  Outside the central interval the returned value is
/// a smooth but *wrong* extrapolation.
#[inline]
fn probit_central(p: f64) -> f64 {
    use acklam::{A, B};
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

/// Inverse of the standard normal CDF without the Halley refinement —
/// Acklam's raw rational approximation (relative error ≈ `1.15e-9`).
///
/// That accuracy is far beyond what Monte-Carlo estimation can resolve,
/// and skipping the refinement avoids an `exp` and an `erfc` per draw, so
/// this is the batch sampling kernels' inverse-transform workhorse: one
/// uniform in, one standard normal out, no rejection loop.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)` (debug assertions only).
#[inline]
pub fn probit_fast(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "probit_fast requires p in (0,1)");
    use acklam::{C, D, P_LOW};
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        probit_central(p)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Draws one standard-normal variate using the Marsaglia polar method.
///
/// Stateless: a fresh pair of uniforms is consumed per call (the spare value
/// is discarded), which keeps per-sample streams reproducible.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = psbi_variation::normal::draw_standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn draw_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Convenience: draws `N(mean, sigma^2)`.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = psbi_variation::normal::draw_normal(&mut rng, 5.0, 0.0);
/// assert_eq!(x, 5.0);
/// ```
#[inline]
pub fn draw_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * draw_standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_known_values() {
        // Reference values from tables.
        assert!((erf(0.0)).abs() < 2e-7);
        assert!((erf(0.5) - 0.520_499_877_8).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_792_9).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_265_0).abs() < 2e-7);
        assert!((erf(-1.0) + 0.842_700_792_9).abs() < 2e-7);
    }

    #[test]
    fn cdf_symmetry_and_known_points() {
        assert!((cdf(0.0) - 0.5).abs() < 2e-7);
        assert!((cdf(1.0) - 0.841_344_746_1).abs() < 2e-7);
        assert!((cdf(2.0) - 0.977_249_868_1).abs() < 2e-7);
        for &x in &[0.3, 1.2, 2.5, 4.0] {
            assert!((cdf(x) + cdf(-x) - 1.0).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn probit_is_inverse_of_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.3, 0.5, 0.8413, 0.9772, 0.999] {
            let x = probit(p);
            assert!((cdf(x) - p).abs() < 1e-6, "p={p} x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "probit requires")]
    fn probit_rejects_zero() {
        probit(0.0);
    }

    #[test]
    fn sampler_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = draw_standard_normal(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn sampler_tail_fraction() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let above = (0..n)
            .filter(|_| draw_standard_normal(&mut rng) > 1.0)
            .count() as f64
            / n as f64;
        // P(X > 1) = 0.1587
        assert!((above - 0.1587).abs() < 0.01, "above={above}");
    }
}
