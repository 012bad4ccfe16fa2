//! First-order canonical delay forms (Visweswariah et al., DAC 2004).
//!
//! A canonical form represents a statistically varying delay as
//!
//! ```text
//! d = mean + Σ_p sens[p] · ΔX_p + indep · ΔR
//! ```
//!
//! where `ΔX_p` are the *global* standard-normal variation sources shared by
//! the whole chip (one per [`crate::params::ProcessParam`]) and `ΔR` is a
//! standard-normal source independent of everything else.  Sums of canonical
//! forms are exact; `max`/`min` use Clark's moment-matching approximation,
//! which is the standard block-based SSTA operator the paper refers to.

use crate::normal::{cdf, draw_standard_normal, pdf};
use crate::params::{GlobalSample, N_PARAMS};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A first-order canonical form: mean, global sensitivities and an
/// independent random term (all in absolute delay units).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CanonicalForm {
    mean: f64,
    sens: [f64; N_PARAMS],
    indep: f64,
}

impl CanonicalForm {
    /// A deterministic constant (no variation).
    ///
    /// ```
    /// let c = psbi_variation::CanonicalForm::constant(4.0);
    /// assert_eq!(c.sigma(), 0.0);
    /// ```
    pub fn constant(mean: f64) -> Self {
        Self {
            mean,
            sens: [0.0; N_PARAMS],
            indep: 0.0,
        }
    }

    /// Builds a form from explicit parts.
    ///
    /// The sign of `indep` is irrelevant (only its square enters the
    /// variance); it is stored as an absolute value.
    pub fn with_parts(mean: f64, sens: [f64; N_PARAMS], indep: f64) -> Self {
        Self {
            mean,
            sens,
            indep: indep.abs(),
        }
    }

    /// Mean of the delay.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sensitivities to the global variation sources.
    #[inline]
    pub fn sensitivities(&self) -> &[f64; N_PARAMS] {
        &self.sens
    }

    /// Magnitude of the independent random term.
    #[inline]
    pub fn indep(&self) -> f64 {
        self.indep
    }

    /// Variance of the delay.
    #[inline]
    pub fn variance(&self) -> f64 {
        let mut v = self.indep * self.indep;
        for s in self.sens {
            v += s * s;
        }
        v
    }

    /// Standard deviation of the delay.
    ///
    /// ```
    /// let c = psbi_variation::CanonicalForm::with_parts(1.0, [3.0, 0.0, 4.0], 0.0);
    /// assert!((c.sigma() - 5.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Covariance with another canonical form (through shared global
    /// sources; independent terms never correlate).
    #[inline]
    pub fn covariance(&self, other: &Self) -> f64 {
        let mut c = 0.0;
        for i in 0..N_PARAMS {
            c += self.sens[i] * other.sens[i];
        }
        c
    }

    /// Exact sum of two canonical forms.
    pub fn add(&self, other: &Self) -> Self {
        let mut sens = [0.0; N_PARAMS];
        for (s, (a, b)) in sens.iter_mut().zip(self.sens.iter().zip(&other.sens)) {
            *s = a + b;
        }
        Self {
            mean: self.mean + other.mean,
            sens,
            indep: (self.indep * self.indep + other.indep * other.indep).sqrt(),
        }
    }

    /// Scales the form by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `k` is negative (a negated delay is not a
    /// delay; use [`CanonicalForm::negate`] explicitly when flipping sign
    /// for a `min` computation).
    pub fn scale(&self, k: f64) -> Self {
        debug_assert!(k >= 0.0, "scale expects k >= 0, got {k}");
        let mut sens = [0.0; N_PARAMS];
        for (s, a) in sens.iter_mut().zip(&self.sens) {
            *s = a * k;
        }
        Self {
            mean: self.mean * k,
            sens,
            indep: self.indep * k.abs(),
        }
    }

    /// Negation; used to derive `min` from `max`.
    pub fn negate(&self) -> Self {
        let mut sens = [0.0; N_PARAMS];
        for (s, a) in sens.iter_mut().zip(&self.sens) {
            *s = -a;
        }
        Self {
            mean: -self.mean,
            sens,
            indep: self.indep,
        }
    }

    /// Statistical maximum via Clark's moment matching.
    ///
    /// The result's mean and variance match the exact first two moments of
    /// `max(A, B)` for jointly Gaussian `A`, `B`; global sensitivities are
    /// blended by the tightness probability and the independent term absorbs
    /// the residual variance.
    pub fn max(&self, other: &Self) -> Self {
        let (a, b) = (self, other);
        let va = a.variance();
        let vb = b.variance();
        let cov = a.covariance(b);
        let theta2 = (va + vb - 2.0 * cov).max(0.0);
        let theta = theta2.sqrt();
        if theta < 1e-12 * (1.0 + va.max(vb)).sqrt() {
            // Perfectly correlated (or both deterministic): max = the one
            // with the larger mean.
            return if a.mean >= b.mean { *a } else { *b };
        }
        let alpha = (a.mean - b.mean) / theta;
        let t = cdf(alpha); // tightness of A
        let phi = pdf(alpha);
        let mean = a.mean * t + b.mean * (1.0 - t) + theta * phi;
        // Exact second moment of the max of two Gaussians (Clark 1961).
        let m2 = (a.mean * a.mean + va) * t
            + (b.mean * b.mean + vb) * (1.0 - t)
            + (a.mean + b.mean) * theta * phi;
        let var = (m2 - mean * mean).max(0.0);
        let mut sens = [0.0; N_PARAMS];
        let mut sens_sq = 0.0;
        for (s, (sa, sb)) in sens.iter_mut().zip(a.sens.iter().zip(&b.sens)) {
            *s = sa * t + sb * (1.0 - t);
            sens_sq += *s * *s;
        }
        // If blending overshoots the matched variance, shrink the
        // sensitivities so total variance is preserved.
        let (sens, indep) = if sens_sq > var && sens_sq > 0.0 {
            let k = (var / sens_sq).sqrt();
            let mut s = sens;
            for si in &mut s {
                *si *= k;
            }
            (s, 0.0)
        } else {
            (sens, (var - sens_sq).max(0.0).sqrt())
        };
        Self { mean, sens, indep }
    }

    /// Statistical minimum, computed as `-max(-a, -b)`.
    pub fn min(&self, other: &Self) -> Self {
        self.negate().max(&other.negate()).negate()
    }

    /// Evaluates the form for one chip: globals are the shared standard
    /// normal draws, `local` is this delay's own standard-normal draw.
    ///
    /// ```
    /// use psbi_variation::{CanonicalForm, GlobalSample};
    /// let c = CanonicalForm::with_parts(10.0, [1.0, 0.0, 0.0], 2.0);
    /// let g = GlobalSample { delta: [0.5, 0.0, 0.0] };
    /// assert!((c.evaluate(&g, -1.0) - (10.0 + 0.5 - 2.0)).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn evaluate(&self, globals: &GlobalSample, local: f64) -> f64 {
        let mut d = self.mean + self.indep * local;
        for i in 0..N_PARAMS {
            d += self.sens[i] * globals.delta[i];
        }
        d
    }

    /// Evaluates the form drawing the local term from `rng`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, globals: &GlobalSample, rng: &mut R) -> f64 {
        let local = if self.indep != 0.0 {
            draw_standard_normal(rng)
        } else {
            0.0
        };
        self.evaluate(globals, local)
    }

    /// The `q`-quantile of the (Gaussian) delay distribution.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.mean + self.sigma() * crate::normal::probit(q)
    }
}

impl std::fmt::Display for CanonicalForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} + [{:.4}, {:.4}, {:.4}]·ΔX + {:.4}·ΔR",
            self.mean, self.sens[0], self.sens[1], self.sens[2], self.indep
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mc_max_moments(a: &CanonicalForm, b: &CanonicalForm, n: usize) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let mut g = GlobalSample::default();
            for d in &mut g.delta {
                *d = draw_standard_normal(&mut rng);
            }
            let xa = a.sample(&g, &mut rng);
            let xb = b.sample(&g, &mut rng);
            let m = xa.max(xb);
            sum += m;
            sum2 += m * m;
        }
        let mean = sum / n as f64;
        (mean, sum2 / n as f64 - mean * mean)
    }

    #[test]
    fn add_is_exact() {
        let a = CanonicalForm::with_parts(3.0, [1.0, 0.5, 0.0], 2.0);
        let b = CanonicalForm::with_parts(4.0, [-1.0, 0.5, 0.2], 1.0);
        let s = a.add(&b);
        assert!((s.mean() - 7.0).abs() < 1e-12);
        assert_eq!(s.sensitivities(), &[0.0, 1.0, 0.2]);
        assert!((s.indep() - 5.0f64.sqrt()).abs() < 1e-12);
        // Var(sum) = Var(a) + Var(b) + 2 Cov(a,b)
        let expect = a.variance() + b.variance() + 2.0 * a.covariance(&b);
        assert!((s.variance() - expect).abs() < 1e-9);
    }

    #[test]
    fn max_matches_monte_carlo() {
        let a = CanonicalForm::with_parts(10.0, [0.8, 0.2, 0.0], 0.5);
        let b = CanonicalForm::with_parts(9.5, [0.3, 0.0, 0.4], 0.9);
        let m = a.max(&b);
        let (mc_mean, mc_var) = mc_max_moments(&a, &b, 400_000);
        assert!(
            (m.mean() - mc_mean).abs() < 0.01,
            "{} vs {}",
            m.mean(),
            mc_mean
        );
        assert!(
            (m.variance() - mc_var).abs() < 0.02,
            "{} vs {}",
            m.variance(),
            mc_var
        );
    }

    #[test]
    fn max_of_identical_forms_is_identity() {
        let a = CanonicalForm::with_parts(5.0, [1.0, 0.0, 0.0], 0.0);
        let m = a.max(&a);
        assert!((m.mean() - 5.0).abs() < 1e-9);
        assert!((m.sigma() - a.sigma()).abs() < 1e-9);
    }

    #[test]
    fn max_dominance() {
        // If a is far above b, max ≈ a.
        let a = CanonicalForm::with_parts(100.0, [1.0, 0.0, 0.0], 1.0);
        let b = CanonicalForm::with_parts(0.0, [0.0, 1.0, 0.0], 1.0);
        let m = a.max(&b);
        assert!((m.mean() - 100.0).abs() < 1e-6);
        assert!((m.sigma() - a.sigma()).abs() < 1e-4);
    }

    #[test]
    fn min_is_negated_max() {
        let a = CanonicalForm::with_parts(10.0, [0.5, 0.0, 0.0], 0.5);
        let b = CanonicalForm::with_parts(10.5, [0.0, 0.5, 0.0], 0.5);
        let m = a.min(&b);
        assert!(m.mean() < 10.0); // min pulls below both means here
        let neg = a.negate().max(&b.negate()).negate();
        assert!((m.mean() - neg.mean()).abs() < 1e-12);
    }

    #[test]
    fn constants_behave() {
        let a = CanonicalForm::constant(2.0);
        let b = CanonicalForm::constant(3.0);
        let m = a.max(&b);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.sigma(), 0.0);
        let s = a.add(&b);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sigma(), 0.0);
    }

    #[test]
    fn evaluate_and_quantile() {
        let c = CanonicalForm::with_parts(10.0, [2.0, 0.0, 0.0], 0.0);
        let g = GlobalSample {
            delta: [1.0, 0.0, 0.0],
        };
        assert!((c.evaluate(&g, 0.0) - 12.0).abs() < 1e-12);
        assert!((c.quantile(0.5) - 10.0).abs() < 1e-6);
        assert!(c.quantile(0.9772) > 13.9);
    }

    #[test]
    fn scale_scales_everything() {
        let c = CanonicalForm::with_parts(10.0, [2.0, 1.0, 0.0], 3.0);
        let s = c.scale(0.5);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.sigma() - c.sigma() * 0.5).abs() < 1e-12);
    }
}
