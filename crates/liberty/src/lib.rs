#![warn(missing_docs)]
//! Standard-cell library model for the PSBI workspace.
//!
//! The paper maps its benchmark circuits to "a library from an industry
//! partner"; that library is proprietary, so this crate provides the closest
//! open equivalent: a linear-delay cell library with per-cell sensitivities
//! to the three process parameters the paper varies (transistor length,
//! oxide thickness, threshold voltage).
//!
//! * Units: delays in **picoseconds**, capacitances in **femtofarads**.
//! * Combinational delay model: `d = intrinsic + drive · load` (linear in
//!   the capacitive load).
//! * Variation model: the nominal delay is modulated multiplicatively,
//!   `d = d_nom · (1 + Σ_p s_p · σ_p · δ_p)`, with `δ_p` standard normal and
//!   split into chip-global and per-gate local parts by
//!   [`psbi_variation::VariationModel`]; [`CellDef::delay_canonical`]
//!   produces the corresponding canonical first-order form.
//!
//! A small text format (`.plib`) with a full parser/writer round-trip is
//! included so libraries can be stored and exchanged; see [`format::parse`].
//!
//! # Example
//!
//! ```
//! use psbi_liberty::Library;
//! use psbi_variation::VariationModel;
//!
//! let lib = Library::industry_like();
//! let inv = lib.cell("INV_X1").expect("INV_X1 exists");
//! let nominal = inv.delay(2.0);
//! let canon = inv.delay_canonical(2.0, &VariationModel::paper_defaults());
//! assert!((canon.mean() - nominal).abs() < 1e-12);
//! assert!(canon.sigma() > 0.0);
//! ```

pub mod cells;
pub mod format;

pub use cells::{CellDef, CellFunction, FlipFlopDef, Library, LibraryError};
pub use format::{parse, to_text, ParseError};
