//! The process-parameter model used by the paper.
//!
//! Three Gaussian sources of variation affect every transistor: channel
//! length `L`, oxide thickness `t_ox` and threshold voltage `V_th`.  Their
//! relative standard deviations in the paper's experiments are 15.7 %, 5.3 %
//! and 4.4 % of nominal.  Each source is decomposed into a chip-global
//! (die-to-die) component shared by all gates and an independent per-gate
//! (within-die) component; [`VariationModel::global_share`] is the fraction
//! of variance carried by the global component.

use serde::{Deserialize, Serialize};

/// Number of global variation sources (L, t_ox, V_th).
pub const N_PARAMS: usize = 3;

/// One physical process parameter subject to variation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessParam {
    /// Transistor channel length.
    Length,
    /// Gate-oxide thickness.
    OxideThickness,
    /// Threshold voltage.
    ThresholdVoltage,
}

impl ProcessParam {
    /// All parameters in canonical order (the order of sensitivity arrays).
    pub const ALL: [ProcessParam; N_PARAMS] = [
        ProcessParam::Length,
        ProcessParam::OxideThickness,
        ProcessParam::ThresholdVoltage,
    ];

    /// Index of this parameter in canonical order.
    ///
    /// ```
    /// use psbi_variation::params::ProcessParam;
    /// assert_eq!(ProcessParam::ThresholdVoltage.index(), 2);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ProcessParam::Length => 0,
            ProcessParam::OxideThickness => 1,
            ProcessParam::ThresholdVoltage => 2,
        }
    }
}

impl std::fmt::Display for ProcessParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProcessParam::Length => "L",
            ProcessParam::OxideThickness => "t_ox",
            ProcessParam::ThresholdVoltage => "V_th",
        };
        f.write_str(s)
    }
}

/// Statistical description of the manufacturing process.
///
/// ```
/// let m = psbi_variation::VariationModel::paper_defaults();
/// assert!((m.sigma[0] - 0.157).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Relative standard deviation of each parameter (fraction of nominal),
    /// in [`ProcessParam::ALL`] order.
    pub sigma: [f64; N_PARAMS],
    /// Fraction of each parameter's variance that is chip-global
    /// (die-to-die); the remainder is independent per gate (within-die).
    pub global_share: f64,
}

impl VariationModel {
    /// The paper's experimental setting: σ_L = 15.7 %, σ_tox = 5.3 %,
    /// σ_Vth = 4.4 %, with an even global/local variance split.
    pub fn paper_defaults() -> Self {
        Self {
            sigma: [0.157, 0.053, 0.044],
            global_share: 0.5,
        }
    }

    /// A model with no variation at all; useful for deterministic tests.
    pub fn none() -> Self {
        Self {
            sigma: [0.0; N_PARAMS],
            global_share: 0.5,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if any σ is negative/non-finite or `global_share`
    /// is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.sigma.iter().enumerate() {
            if !s.is_finite() || *s < 0.0 {
                return Err(format!("sigma[{i}] must be finite and >= 0, got {s}"));
            }
        }
        if !(0.0..=1.0).contains(&self.global_share) || !self.global_share.is_finite() {
            return Err(format!(
                "global_share must be in [0,1], got {}",
                self.global_share
            ));
        }
        Ok(())
    }

    /// Standard deviation of the global component of parameter `p`.
    #[inline]
    pub fn global_sigma(&self, p: ProcessParam) -> f64 {
        self.sigma[p.index()] * self.global_share.sqrt()
    }

    /// Standard deviation of the per-gate local component of parameter `p`.
    #[inline]
    pub fn local_sigma(&self, p: ProcessParam) -> f64 {
        self.sigma[p.index()] * (1.0 - self.global_share).sqrt()
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// The chip-global (die-to-die) standard-normal deviations of one sample
/// chip, one per [`ProcessParam`].
///
/// These are *normalised* (unit variance); scaling by σ and by the
/// global-share factor happens where sensitivities are applied (see
/// [`crate::canonical::CanonicalForm::evaluate`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GlobalSample {
    /// Standard-normal draws in [`ProcessParam::ALL`] order.
    pub delta: [f64; N_PARAMS],
}

impl GlobalSample {
    /// A sample with all global deviations at zero (nominal corner).
    pub fn nominal() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let m = VariationModel::paper_defaults();
        assert_eq!(m.sigma, [0.157, 0.053, 0.044]);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn variance_split_is_consistent() {
        let m = VariationModel::paper_defaults();
        for p in ProcessParam::ALL {
            let g = m.global_sigma(p);
            let l = m.local_sigma(p);
            let total = (g * g + l * l).sqrt();
            assert!((total - m.sigma[p.index()]).abs() < 1e-12);
        }
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let mut m = VariationModel::paper_defaults();
        m.sigma[1] = -0.1;
        assert!(m.validate().is_err());
        let mut m = VariationModel::paper_defaults();
        m.global_share = 1.5;
        assert!(m.validate().is_err());
    }

    #[test]
    fn param_display_and_index() {
        assert_eq!(ProcessParam::Length.to_string(), "L");
        for (i, p) in ProcessParam::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
