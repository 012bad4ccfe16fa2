#![warn(missing_docs)]
//! Process-variation modelling for post-silicon buffer insertion.
//!
//! This crate provides the statistical substrate of the PSBI workspace:
//!
//! * [`normal`] — scalar normal-distribution math (`erf`, Φ, φ, probit) and a
//!   Box–Muller/polar standard-normal sampler built on [`rand`];
//! * [`params`] — the three-parameter process model used by the paper
//!   (transistor length, oxide thickness, threshold voltage) with a
//!   global/local variance decomposition;
//! * [`canonical`] — first-order canonical delay forms in the style of
//!   Visweswariah et al. (DAC 2004) with `add`, `scale` and Clark's
//!   moment-matching `max`/`min`;
//! * [`stats`] — the sample statistics the insertion flow needs (mean,
//!   standard deviation, quantiles, Pearson correlation and integer
//!   histograms with sliding-window queries);
//! * [`seeding`] — deterministic derivation of per-sample RNGs so Monte Carlo
//!   results are independent of thread scheduling.
//!
//! # Example
//!
//! ```
//! use psbi_variation::canonical::CanonicalForm;
//! use psbi_variation::params::N_PARAMS;
//!
//! // Two correlated delays: both depend on the global length source.
//! let a = CanonicalForm::with_parts(10.0, [0.8, 0.0, 0.0], 0.2);
//! let b = CanonicalForm::with_parts(9.0, [0.6, 0.1, 0.0], 0.3);
//! let m = a.max(&b);
//! assert!(m.mean() >= 10.0);
//! assert_eq!(N_PARAMS, 3);
//! ```

pub mod canonical;
pub mod normal;
pub mod params;
pub mod seeding;
pub mod stats;

pub use canonical::CanonicalForm;
pub use params::{GlobalSample, ProcessParam, VariationModel, N_PARAMS};
pub use seeding::{sample_rng, ChipStream};
pub use stats::{mean, pearson, quantile, stddev, variance, Histogram, Summary};
