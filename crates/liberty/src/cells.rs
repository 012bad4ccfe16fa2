//! Cell and flip-flop definitions plus the [`Library`] container.

use psbi_variation::{CanonicalForm, VariationModel, N_PARAMS};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Logic function implemented by a combinational cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CellFunction {
    Inv,
    Buf,
    Nand,
    Nor,
    And,
    Or,
    Xor,
    Xnor,
    Aoi,
    Oai,
    Mux,
}

impl CellFunction {
    /// Canonical upper-case token used by the text format.
    pub fn token(self) -> &'static str {
        match self {
            CellFunction::Inv => "INV",
            CellFunction::Buf => "BUF",
            CellFunction::Nand => "NAND",
            CellFunction::Nor => "NOR",
            CellFunction::And => "AND",
            CellFunction::Or => "OR",
            CellFunction::Xor => "XOR",
            CellFunction::Xnor => "XNOR",
            CellFunction::Aoi => "AOI",
            CellFunction::Oai => "OAI",
            CellFunction::Mux => "MUX",
        }
    }

    /// Parses a token produced by [`CellFunction::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        Some(match s {
            "INV" => CellFunction::Inv,
            "BUF" => CellFunction::Buf,
            "NAND" => CellFunction::Nand,
            "NOR" => CellFunction::Nor,
            "AND" => CellFunction::And,
            "OR" => CellFunction::Or,
            "XOR" => CellFunction::Xor,
            "XNOR" => CellFunction::Xnor,
            "AOI" => CellFunction::Aoi,
            "OAI" => CellFunction::Oai,
            "MUX" => CellFunction::Mux,
            _ => return None,
        })
    }

    /// Whether the function is inverting (useful for logic-level reasoning).
    pub fn inverting(self) -> bool {
        matches!(
            self,
            CellFunction::Inv
                | CellFunction::Nand
                | CellFunction::Nor
                | CellFunction::Xnor
                | CellFunction::Aoi
                | CellFunction::Oai
        )
    }
}

impl std::fmt::Display for CellFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// A combinational standard cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellDef {
    /// Unique cell name, e.g. `NAND2_X1`.
    pub name: String,
    /// Logic function.
    pub function: CellFunction,
    /// Number of data inputs.
    pub inputs: u8,
    /// Load-independent delay component (ps).
    pub intrinsic: f64,
    /// Delay per unit load (ps/fF).
    pub drive: f64,
    /// Input pin capacitance (fF), assumed equal for all inputs.
    pub input_cap: f64,
    /// Dimensionless sensitivities of delay to relative change of each
    /// process parameter, in [`psbi_variation::ProcessParam::ALL`] order.
    pub sens: [f64; N_PARAMS],
}

impl CellDef {
    /// Nominal delay (ps) when driving `load` fF.
    ///
    /// ```
    /// # use psbi_liberty::Library;
    /// let lib = Library::industry_like();
    /// let c = lib.cell("INV_X1").unwrap();
    /// assert!(c.delay(4.0) > c.delay(1.0));
    /// ```
    #[inline]
    pub fn delay(&self, load: f64) -> f64 {
        self.intrinsic + self.drive * load
    }

    /// Canonical first-order delay form under a variation model.
    ///
    /// Global sensitivities carry the die-to-die share of each parameter's
    /// variance; the within-die share of all three parameters is pooled into
    /// the independent term.
    pub fn delay_canonical(&self, load: f64, model: &VariationModel) -> CanonicalForm {
        canonical_of(self.delay(load), &self.sens, model)
    }
}

/// A D flip-flop definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlipFlopDef {
    /// Unique flip-flop name, e.g. `DFF_X1`.
    pub name: String,
    /// Nominal setup time (ps).
    pub setup: f64,
    /// Nominal hold time (ps).
    pub hold: f64,
    /// Load-independent clock-to-Q delay (ps).
    pub clk_to_q: f64,
    /// Clock-to-Q delay per unit load (ps/fF).
    pub drive: f64,
    /// Data pin capacitance (fF).
    pub d_cap: f64,
    /// Clock pin capacitance (fF).
    pub clk_cap: f64,
    /// Delay/constraint sensitivities, as for [`CellDef::sens`].
    pub sens: [f64; N_PARAMS],
}

impl FlipFlopDef {
    /// Nominal clock-to-Q delay (ps) when driving `load` fF.
    #[inline]
    pub fn clk_to_q_delay(&self, load: f64) -> f64 {
        self.clk_to_q + self.drive * load
    }

    /// Canonical clock-to-Q delay form.
    pub fn clk_to_q_canonical(&self, load: f64, model: &VariationModel) -> CanonicalForm {
        canonical_of(self.clk_to_q_delay(load), &self.sens, model)
    }

    /// Canonical setup-time form.
    pub fn setup_canonical(&self, model: &VariationModel) -> CanonicalForm {
        canonical_of(self.setup, &self.sens, model)
    }

    /// Canonical hold-time form.
    pub fn hold_canonical(&self, model: &VariationModel) -> CanonicalForm {
        canonical_of(self.hold, &self.sens, model)
    }
}

/// Builds `nominal · (1 + Σ_p s_p σ_p δ_p)` as a canonical form, splitting
/// each parameter into its global and local components.
fn canonical_of(nominal: f64, sens: &[f64; N_PARAMS], model: &VariationModel) -> CanonicalForm {
    let mut gsens = [0.0; N_PARAMS];
    let mut local_var = 0.0;
    for (i, p) in psbi_variation::ProcessParam::ALL.iter().enumerate() {
        let scale = nominal * sens[i];
        gsens[i] = scale * model.global_sigma(*p);
        let l = scale * model.local_sigma(*p);
        local_var += l * l;
    }
    CanonicalForm::with_parts(nominal, gsens, local_var.sqrt())
}

/// Errors produced when validating a [`Library`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// Two cells or flip-flops share a name.
    DuplicateName(String),
    /// A numeric field is invalid (negative or non-finite).
    InvalidField {
        /// Owning cell name.
        cell: String,
        /// Field name.
        field: &'static str,
    },
    /// The library has no flip-flop, which a sequential flow needs.
    NoFlipFlop,
    /// The library has no combinational cell.
    NoCell,
}

impl std::fmt::Display for LibraryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LibraryError::DuplicateName(n) => write!(f, "duplicate cell name `{n}`"),
            LibraryError::InvalidField { cell, field } => {
                write!(f, "invalid value for field `{field}` of cell `{cell}`")
            }
            LibraryError::NoFlipFlop => write!(f, "library defines no flip-flop"),
            LibraryError::NoCell => write!(f, "library defines no combinational cell"),
        }
    }
}

impl std::error::Error for LibraryError {}

/// A complete cell library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// Estimated wire capacitance added per fanout connection (fF).
    pub wire_cap_per_fanout: f64,
    cells: Vec<CellDef>,
    ffs: Vec<FlipFlopDef>,
    #[serde(skip)]
    index: HashMap<String, usize>,
    #[serde(skip)]
    ff_index: HashMap<String, usize>,
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            wire_cap_per_fanout: 0.0,
            cells: Vec::new(),
            ffs: Vec::new(),
            index: HashMap::new(),
            ff_index: HashMap::new(),
        }
    }

    /// Adds a combinational cell.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::DuplicateName`] if the name is taken and
    /// [`LibraryError::InvalidField`] for non-finite or negative numbers.
    pub fn add_cell(&mut self, cell: CellDef) -> Result<(), LibraryError> {
        validate_num(&cell.name, "intrinsic", cell.intrinsic)?;
        validate_num(&cell.name, "drive", cell.drive)?;
        validate_num(&cell.name, "input_cap", cell.input_cap)?;
        for s in cell.sens {
            // Sensitivities may legitimately be negative; only reject NaN/inf.
            if !s.is_finite() {
                return Err(LibraryError::InvalidField {
                    cell: cell.name,
                    field: "sens",
                });
            }
        }
        if self.index.contains_key(&cell.name) || self.ff_index.contains_key(&cell.name) {
            return Err(LibraryError::DuplicateName(cell.name));
        }
        self.index.insert(cell.name.clone(), self.cells.len());
        self.cells.push(cell);
        Ok(())
    }

    /// Adds a flip-flop definition.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Library::add_cell`].
    pub fn add_ff(&mut self, ff: FlipFlopDef) -> Result<(), LibraryError> {
        validate_num(&ff.name, "setup", ff.setup)?;
        validate_num(&ff.name, "hold", ff.hold)?;
        validate_num(&ff.name, "clk_to_q", ff.clk_to_q)?;
        validate_num(&ff.name, "drive", ff.drive)?;
        validate_num(&ff.name, "d_cap", ff.d_cap)?;
        validate_num(&ff.name, "clk_cap", ff.clk_cap)?;
        if self.index.contains_key(&ff.name) || self.ff_index.contains_key(&ff.name) {
            return Err(LibraryError::DuplicateName(ff.name));
        }
        self.ff_index.insert(ff.name.clone(), self.ffs.len());
        self.ffs.push(ff);
        Ok(())
    }

    /// Looks up a combinational cell by name.
    pub fn cell(&self, name: &str) -> Option<&CellDef> {
        self.index.get(name).map(|&i| &self.cells[i])
    }

    /// Looks up a flip-flop by name.
    pub fn ff(&self, name: &str) -> Option<&FlipFlopDef> {
        self.ff_index.get(name).map(|&i| &self.ffs[i])
    }

    /// All combinational cells.
    pub fn cells(&self) -> &[CellDef] {
        &self.cells
    }

    /// All flip-flop definitions.
    pub fn ffs(&self) -> &[FlipFlopDef] {
        &self.ffs
    }

    /// Checks library-level invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), LibraryError> {
        if self.cells.is_empty() {
            return Err(LibraryError::NoCell);
        }
        if self.ffs.is_empty() {
            return Err(LibraryError::NoFlipFlop);
        }
        Ok(())
    }

    /// The built-in "industry-like" library used by all experiments.
    ///
    /// Fourteen cells spanning the usual functions and two drive strengths,
    /// plus one DFF.  Numbers are representative of a mature planar node
    /// (delays of tens of ps, pin caps around 1–2 fF) — only the induced
    /// delay *distributions* matter to the insertion flow.
    pub fn industry_like() -> Self {
        let mut lib = Self::new("industry_like");
        lib.wire_cap_per_fanout = 0.6;
        let cells = [
            // name, function, inputs, intrinsic, drive, input_cap, sens(L, tox, vth)
            (
                "INV_X1",
                CellFunction::Inv,
                1,
                9.0,
                5.5,
                1.0,
                [0.95, 0.40, 0.62],
            ),
            (
                "INV_X2",
                CellFunction::Inv,
                1,
                8.0,
                3.0,
                1.8,
                [0.95, 0.40, 0.62],
            ),
            (
                "BUF_X1",
                CellFunction::Buf,
                1,
                16.0,
                5.0,
                1.0,
                [0.92, 0.38, 0.60],
            ),
            (
                "NAND2_X1",
                CellFunction::Nand,
                2,
                14.0,
                6.5,
                1.2,
                [0.98, 0.42, 0.66],
            ),
            (
                "NAND3_X1",
                CellFunction::Nand,
                3,
                19.0,
                7.5,
                1.3,
                [1.00, 0.43, 0.68],
            ),
            (
                "NOR2_X1",
                CellFunction::Nor,
                2,
                16.0,
                7.0,
                1.2,
                [1.00, 0.42, 0.70],
            ),
            (
                "NOR3_X1",
                CellFunction::Nor,
                3,
                22.0,
                8.5,
                1.3,
                [1.02, 0.44, 0.72],
            ),
            (
                "AND2_X1",
                CellFunction::And,
                2,
                20.0,
                6.0,
                1.1,
                [0.95, 0.40, 0.64],
            ),
            (
                "OR2_X1",
                CellFunction::Or,
                2,
                21.0,
                6.2,
                1.1,
                [0.96, 0.41, 0.66],
            ),
            (
                "XOR2_X1",
                CellFunction::Xor,
                2,
                26.0,
                8.0,
                1.6,
                [1.05, 0.45, 0.72],
            ),
            (
                "XNOR2_X1",
                CellFunction::Xnor,
                2,
                27.0,
                8.0,
                1.6,
                [1.05, 0.45, 0.72],
            ),
            (
                "AOI21_X1",
                CellFunction::Aoi,
                3,
                18.0,
                7.8,
                1.3,
                [1.02, 0.43, 0.70],
            ),
            (
                "OAI21_X1",
                CellFunction::Oai,
                3,
                18.5,
                7.8,
                1.3,
                [1.02, 0.43, 0.70],
            ),
            (
                "MUX2_X1",
                CellFunction::Mux,
                3,
                24.0,
                7.0,
                1.4,
                [1.00, 0.42, 0.68],
            ),
        ];
        for (name, function, inputs, intrinsic, drive, input_cap, sens) in cells {
            lib.add_cell(CellDef {
                name: name.to_string(),
                function,
                inputs,
                intrinsic,
                drive,
                input_cap,
                sens,
            })
            .expect("built-in cells are valid");
        }
        lib.add_ff(FlipFlopDef {
            name: "DFF_X1".to_string(),
            setup: 22.0,
            hold: 6.0,
            clk_to_q: 34.0,
            drive: 6.0,
            d_cap: 1.3,
            clk_cap: 1.1,
            sens: [0.90, 0.40, 0.62],
        })
        .expect("built-in ff is valid");
        lib
    }
}

fn validate_num(cell: &str, field: &'static str, v: f64) -> Result<(), LibraryError> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(LibraryError::InvalidField {
            cell: cell.to_string(),
            field,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_library_is_valid() {
        let lib = Library::industry_like();
        assert!(lib.validate().is_ok());
        assert!(lib.cells().len() >= 10);
        assert_eq!(lib.ffs().len(), 1);
        assert!(lib.cell("NAND2_X1").is_some());
        assert!(lib.ff("DFF_X1").is_some());
        assert!(lib.cell("DFF_X1").is_none());
    }

    #[test]
    fn delay_is_linear_in_load() {
        let lib = Library::industry_like();
        let c = lib.cell("NAND2_X1").unwrap();
        let d0 = c.delay(0.0);
        let d1 = c.delay(1.0);
        let d2 = c.delay(2.0);
        assert!((d2 - d1 - (d1 - d0)).abs() < 1e-12);
        assert_eq!(d0, c.intrinsic);
    }

    #[test]
    fn canonical_mean_matches_nominal() {
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        for c in lib.cells() {
            let canon = c.delay_canonical(2.0, &model);
            assert!((canon.mean() - c.delay(2.0)).abs() < 1e-12, "{}", c.name);
            assert!(canon.sigma() > 0.0);
            // Relative sigma should be on the order of the parameter sigmas.
            let rel = canon.sigma() / canon.mean();
            assert!(rel > 0.05 && rel < 0.4, "{}: rel sigma {rel}", c.name);
        }
    }

    #[test]
    fn canonical_variance_split_respects_global_share() {
        let lib = Library::industry_like();
        let c = lib.cell("INV_X1").unwrap();
        let mut m = VariationModel::paper_defaults();
        m.global_share = 1.0;
        let canon = c.delay_canonical(1.0, &m);
        assert_eq!(canon.indep(), 0.0);
        m.global_share = 0.0;
        let canon = c.delay_canonical(1.0, &m);
        assert_eq!(canon.sensitivities(), &[0.0; 3]);
        assert!(canon.indep() > 0.0);
    }

    #[test]
    fn no_variation_model_gives_constant() {
        let lib = Library::industry_like();
        let c = lib.cell("INV_X1").unwrap();
        let canon = c.delay_canonical(1.0, &VariationModel::none());
        assert_eq!(canon.sigma(), 0.0);
    }

    #[test]
    fn ff_canonicals() {
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let ff = lib.ff("DFF_X1").unwrap();
        assert!((ff.setup_canonical(&model).mean() - 22.0).abs() < 1e-12);
        assert!((ff.hold_canonical(&model).mean() - 6.0).abs() < 1e-12);
        assert!(ff.clk_to_q_canonical(2.0, &model).mean() > ff.clk_to_q);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut lib = Library::industry_like();
        let c = lib.cell("INV_X1").unwrap().clone();
        assert!(matches!(
            lib.add_cell(c),
            Err(LibraryError::DuplicateName(_))
        ));
        let ff = FlipFlopDef {
            name: "INV_X1".into(),
            ..lib.ff("DFF_X1").unwrap().clone()
        };
        assert!(matches!(
            lib.add_ff(ff),
            Err(LibraryError::DuplicateName(_))
        ));
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut lib = Library::new("t");
        let bad = CellDef {
            name: "X".into(),
            function: CellFunction::Inv,
            inputs: 1,
            intrinsic: -1.0,
            drive: 1.0,
            input_cap: 1.0,
            sens: [0.0; 3],
        };
        assert!(matches!(
            lib.add_cell(bad),
            Err(LibraryError::InvalidField { .. })
        ));
    }

    #[test]
    fn empty_library_fails_validation() {
        let lib = Library::new("empty");
        assert_eq!(lib.validate(), Err(LibraryError::NoCell));
    }

    #[test]
    fn function_tokens_round_trip() {
        use CellFunction::*;
        for f in [Inv, Buf, Nand, Nor, And, Or, Xor, Xnor, Aoi, Oai, Mux] {
            assert_eq!(CellFunction::from_token(f.token()), Some(f));
        }
        assert_eq!(CellFunction::from_token("BOGUS"), None);
        assert!(Nand.inverting());
        assert!(!Buf.inverting());
    }
}
