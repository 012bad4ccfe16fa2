//! ISCAS89 `.bench` format reader and writer.
//!
//! The classic benchmark format looks like:
//!
//! ```text
//! # s-something
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G10 = NAND(G11, G12)
//! G11 = NOT(G0)
//! ```
//!
//! Signals are declared implicitly by assignment; `DFF` creates a flip-flop.
//! Gate functions are mapped onto library cells with
//! [`default_cell_for`] (override with [`parse_bench_with`]).  Primary
//! outputs become explicit [`NodeKind::Output`](crate::graph::NodeKind)
//! nodes named `<signal>~po` since a `.bench` output is just a tap on an
//! existing signal.

use crate::graph::{Circuit, NetlistError, NodeId, NodeKind};
use std::collections::HashMap;

/// Error raised while reading a `.bench` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchParseError {
    /// 1-based source line.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BenchParseError {}

impl From<NetlistError> for BenchParseError {
    fn from(e: NetlistError) -> Self {
        BenchParseError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Maps a `.bench` function name and arity to a library cell name.
///
/// ```
/// assert_eq!(psbi_netlist::bench_format::default_cell_for("NAND", 3),
///            Some("NAND3_X1".to_string()));
/// ```
pub fn default_cell_for(func: &str, arity: usize) -> Option<String> {
    let cell = match (func, arity) {
        ("NOT", _) => "INV_X1",
        ("BUF" | "BUFF", _) => "BUF_X1",
        ("NAND", 0..=2) => "NAND2_X1",
        ("NAND", _) => "NAND3_X1",
        ("NOR", 0..=2) => "NOR2_X1",
        ("NOR", _) => "NOR3_X1",
        ("AND", _) => "AND2_X1",
        ("OR", _) => "OR2_X1",
        ("XOR", _) => "XOR2_X1",
        ("XNOR", _) => "XNOR2_X1",
        ("MUX", _) => "MUX2_X1",
        _ => return None,
    };
    Some(cell.to_string())
}

/// The flip-flop cell used for `DFF` lines.
pub const DEFAULT_FF_CELL: &str = "DFF_X1";

#[derive(Debug)]
struct Assign {
    line: usize,
    target: String,
    func: String,
    args: Vec<String>,
}

/// Parses a `.bench` document with the [`default_cell_for`] mapping.
///
/// # Errors
///
/// Returns a [`BenchParseError`] for syntax errors, unknown functions,
/// undefined signals or combinational cycles.
///
/// ```
/// let c = psbi_netlist::bench_format::parse_bench(
///     psbi_netlist::bench_format::EXAMPLE_BENCH).expect("parses");
/// assert_eq!(c.num_ffs(), 3);
/// ```
pub fn parse_bench(src: &str) -> Result<Circuit, BenchParseError> {
    parse_bench_with(src, default_cell_for)
}

/// Parses a `.bench` document with a custom cell mapping.
///
/// # Errors
///
/// As [`parse_bench`]; additionally any function the mapper rejects.
pub fn parse_bench_with(
    src: &str,
    mapper: impl Fn(&str, usize) -> Option<String>,
) -> Result<Circuit, BenchParseError> {
    let mut inputs: Vec<(usize, String)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut assigns: Vec<Assign> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let err = |message: String| BenchParseError { line, message };
        if let Some(rest) = text.strip_prefix("INPUT") {
            inputs.push((line, parse_paren_name(rest).map_err(err)?));
        } else if let Some(rest) = text.strip_prefix("OUTPUT") {
            outputs.push((line, parse_paren_name(rest).map_err(err)?));
        } else if let Some(eq) = text.find('=') {
            let target = text[..eq].trim().to_string();
            let rhs = text[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| err(format!("expected `func(args)` after `=`: `{rhs}`")))?;
            let close = rhs
                .rfind(')')
                .ok_or_else(|| err(format!("missing `)` in `{rhs}`")))?;
            if close < open {
                return Err(err(format!("mismatched parentheses in `{rhs}`")));
            }
            let func = rhs[..open].trim().to_ascii_uppercase();
            let args: Vec<String> = rhs[open + 1..close]
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if target.is_empty() {
                return Err(err("empty assignment target".into()));
            }
            if args.is_empty() {
                return Err(err(format!("`{func}` needs at least one argument")));
            }
            assigns.push(Assign {
                line,
                target,
                func,
                args,
            });
        } else {
            return Err(err(format!("unrecognised line `{text}`")));
        }
    }

    let mut circuit = Circuit::new("bench");
    let mut defined: HashMap<String, NodeId> = HashMap::new();

    for (line, name) in &inputs {
        if defined.contains_key(name) {
            return Err(BenchParseError {
                line: *line,
                message: format!("signal `{name}` defined twice"),
            });
        }
        defined.insert(name.clone(), circuit.add_input(name.clone()));
    }
    // Flip-flops first so feedback wiring is possible.
    for a in assigns.iter().filter(|a| a.func == "DFF") {
        if a.args.len() != 1 {
            return Err(BenchParseError {
                line: a.line,
                message: format!("DFF takes exactly one input, got {}", a.args.len()),
            });
        }
        if defined.contains_key(&a.target) {
            return Err(BenchParseError {
                line: a.line,
                message: format!("signal `{}` defined twice", a.target),
            });
        }
        defined.insert(
            a.target.clone(),
            circuit.add_ff(a.target.clone(), DEFAULT_FF_CELL),
        );
    }

    // Order gate assignments topologically by their gate-to-gate deps.
    let gate_assigns: Vec<&Assign> = assigns.iter().filter(|a| a.func != "DFF").collect();
    let mut index_of: HashMap<&str, usize> = HashMap::new();
    for (i, a) in gate_assigns.iter().enumerate() {
        if defined.contains_key(&a.target) || index_of.insert(a.target.as_str(), i).is_some() {
            return Err(BenchParseError {
                line: a.line,
                message: format!("signal `{}` defined twice", a.target),
            });
        }
    }
    let n = gate_assigns.len();
    let mut indeg = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, a) in gate_assigns.iter().enumerate() {
        for arg in &a.args {
            if let Some(&j) = index_of.get(arg.as_str()) {
                indeg[i] += 1;
                dependents[j].push(i);
            } else if !defined.contains_key(arg) {
                return Err(BenchParseError {
                    line: a.line,
                    message: format!("undefined signal `{arg}`"),
                });
            }
        }
    }
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|i| indeg[*i] == 0).collect();
    let mut processed = 0usize;
    while let Some(i) = queue.pop_front() {
        processed += 1;
        let a = gate_assigns[i];
        let cell = mapper(&a.func, a.args.len()).ok_or_else(|| BenchParseError {
            line: a.line,
            message: format!("unknown gate function `{}`", a.func),
        })?;
        let fanins: Vec<NodeId> = a.args.iter().map(|arg| defined[arg.as_str()]).collect();
        let id = circuit.add_gate(a.target.clone(), &cell, &fanins);
        defined.insert(a.target.clone(), id);
        for &d in &dependents[i] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                queue.push_back(d);
            }
        }
    }
    if processed != n {
        let witness = gate_assigns
            .iter()
            .enumerate()
            .find(|(i, _)| indeg[*i] > 0)
            .map(|(_, a)| a.target.clone())
            .unwrap_or_default();
        return Err(BenchParseError {
            line: 0,
            message: format!("combinational cycle through `{witness}`"),
        });
    }

    // Wire flip-flop data inputs.
    for a in assigns.iter().filter(|a| a.func == "DFF") {
        let driver = *defined.get(&a.args[0]).ok_or_else(|| BenchParseError {
            line: a.line,
            message: format!("undefined signal `{}`", a.args[0]),
        })?;
        let ff = defined[&a.target];
        circuit.connect_ff_data(ff, driver)?;
    }

    // Primary outputs are taps on existing signals; a signal may feed
    // several outputs, so tap names are numbered.
    for (idx, (line, name)) in outputs.iter().enumerate() {
        let driver = *defined.get(name).ok_or_else(|| BenchParseError {
            line: *line,
            message: format!("OUTPUT references undefined signal `{name}`"),
        })?;
        circuit.add_output(format!("{name}~po{idx}"), driver);
    }

    circuit.check()?;
    Ok(circuit)
}

fn parse_paren_name(rest: &str) -> Result<String, String> {
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| format!("expected `(name)`, got `{rest}`"))?;
    let name = inner.trim();
    if name.is_empty() {
        return Err("empty signal name".into());
    }
    Ok(name.to_string())
}

/// Writes a circuit in `.bench` syntax.
///
/// Gate cells are mapped back to `.bench` functions through their library
/// function token (e.g. `INV_X1 → NOT`); the cell's drive strength is lost,
/// which is inherent to the format.
pub fn to_bench(circuit: &Circuit, lib: &psbi_liberty::Library) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name);
    for id in circuit.node_ids() {
        if matches!(circuit.node(id).kind, NodeKind::Input) {
            let _ = writeln!(out, "INPUT({})", circuit.node(id).name);
        }
    }
    for id in circuit.node_ids() {
        if matches!(circuit.node(id).kind, NodeKind::Output) {
            let driver = circuit.fanins(id)[0];
            let _ = writeln!(out, "OUTPUT({})", circuit.node(driver).name);
        }
    }
    for id in circuit.node_ids() {
        let node = circuit.node(id);
        match &node.kind {
            NodeKind::FlipFlop { .. } => {
                let d = circuit.fanins(id)[0];
                let _ = writeln!(out, "{} = DFF({})", node.name, circuit.node(d).name);
            }
            NodeKind::Gate { cell } => {
                let func = lib
                    .cell(cell)
                    .map(|c| bench_func_token(c.function))
                    .unwrap_or("AND");
                let args: Vec<&str> = circuit
                    .fanins(id)
                    .iter()
                    .map(|f| circuit.node(*f).name.as_str())
                    .collect();
                let _ = writeln!(out, "{} = {}({})", node.name, func, args.join(", "));
            }
            _ => {}
        }
    }
    out
}

fn bench_func_token(f: psbi_liberty::CellFunction) -> &'static str {
    use psbi_liberty::CellFunction::*;
    match f {
        Inv => "NOT",
        Buf => "BUFF",
        Nand => "NAND",
        Nor => "NOR",
        And => "AND",
        Or => "OR",
        Xor => "XOR",
        Xnor => "XNOR",
        // .bench has no AOI/OAI/MUX; approximate with AND (structure-only).
        Aoi | Oai | Mux => "AND",
    }
}

/// A small hand-written example netlist in `.bench` syntax (three
/// flip-flops, a feedback loop and reconvergent logic).  Used by tests and
/// doc examples; this is an original circuit, not an ISCAS89 reproduction.
pub const EXAMPLE_BENCH: &str = "\
# psbi example bench
INPUT(I0)
INPUT(I1)
OUTPUT(Q2)
F0 = DFF(N4)
F1 = DFF(N6)
F2 = DFF(N7)
N1 = NOT(F0)
N2 = NAND(I0, N1)
N3 = NOR(N2, I1)
N4 = XOR(N3, F1)
N5 = AND(F0, F1)
N6 = NAND(N5, N3)
N7 = OR(N5, F2)
Q2 = BUFF(F2)
";

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of nodes of `kind` (primary inputs, outputs, ...).
    fn count(c: &Circuit, kind: NodeKind) -> usize {
        c.node_ids().filter(|&id| c.node(id).kind == kind).count()
    }

    #[test]
    fn parses_example() {
        let c = parse_bench(EXAMPLE_BENCH).expect("parses");
        assert_eq!(c.num_ffs(), 3);
        assert_eq!(count(&c, NodeKind::Input), 2);
        assert_eq!(count(&c, NodeKind::Output), 1);
        assert_eq!(c.num_gates(), 8);
        assert!(c.check().is_ok());
        assert!(c
            .validate_against(&psbi_liberty::Library::industry_like())
            .is_ok());
    }

    #[test]
    fn out_of_order_definitions_are_fine() {
        // N2 references N1 which is defined later.
        let src = "INPUT(A)\nOUTPUT(N2)\nN2 = NOT(N1)\nN1 = NOT(A)\n";
        let c = parse_bench(src).expect("parses");
        assert_eq!(c.num_gates(), 2);
        let n2 = c.by_name("N2").unwrap();
        let n1 = c.by_name("N1").unwrap();
        assert_eq!(c.fanins(n2), &[n1]);
    }

    #[test]
    fn undefined_signal_is_reported() {
        let err = parse_bench("OUTPUT(X)\nX = NOT(Y)\n").unwrap_err();
        assert!(err.message.contains("undefined"), "{err}");
    }

    #[test]
    fn duplicate_definition_is_reported() {
        let err = parse_bench("INPUT(A)\nN = NOT(A)\nN = NOT(A)\n").unwrap_err();
        assert!(err.message.contains("twice"), "{err}");
    }

    #[test]
    fn combinational_cycle_is_reported() {
        let err = parse_bench("INPUT(A)\nX = NAND(A, Y)\nY = NOT(X)\n").unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }

    #[test]
    fn dff_arity_checked() {
        let err = parse_bench("INPUT(A)\nINPUT(B)\nF = DFF(A, B)\n").unwrap_err();
        assert!(err.message.contains("exactly one"), "{err}");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_bench("INPUT(A)\nthis is wrong\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn round_trip_through_writer() {
        let lib = psbi_liberty::Library::industry_like();
        let c = parse_bench(EXAMPLE_BENCH).expect("parses");
        let text = to_bench(&c, &lib);
        let c2 = parse_bench(&text).expect("round trip");
        assert_eq!(c2.num_ffs(), c.num_ffs());
        assert_eq!(c2.num_gates(), c.num_gates());
        assert_eq!(count(&c2, NodeKind::Input), count(&c, NodeKind::Input));
        assert_eq!(count(&c2, NodeKind::Output), count(&c, NodeKind::Output));
    }

    #[test]
    fn custom_mapper_is_used() {
        let src = "INPUT(A)\nOUTPUT(N)\nN = NOT(A)\n";
        let c = parse_bench_with(src, |f, _| (f == "NOT").then(|| "INV_X2".to_string()))
            .expect("parses");
        let n = c.by_name("N").unwrap();
        match &c.node(n).kind {
            NodeKind::Gate { cell } => assert_eq!(cell, "INV_X2"),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn mapper_rejection_is_reported() {
        let err = parse_bench_with("INPUT(A)\nN = NOT(A)\n", |_, _| None).unwrap_err();
        assert!(err.message.contains("unknown gate function"), "{err}");
    }
}
