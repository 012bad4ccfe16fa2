//! The gate-level timing graph: canonical delays and pin loads.

use psbi_liberty::Library;
use psbi_netlist::{Circuit, NetlistError, NodeId, NodeKind};
use psbi_variation::{CanonicalForm, VariationModel};

/// Capacitive load assumed for a primary-output pin (fF).
const PO_PIN_CAP: f64 = 2.0;

/// Gate-level timing view of a circuit.
///
/// Holds, for every node, the canonical (statistical) delay of the gate and
/// for every flip-flop its canonical clock-to-Q, setup and hold values.
/// Delays are input-to-output per gate (a single arc per cell — pin-to-pin
/// differences are below the variation granularity the flow needs).
#[derive(Debug, Clone)]
pub struct TimingGraph<'a> {
    /// The underlying circuit.
    pub circuit: &'a Circuit,
    gate_delay: Vec<CanonicalForm>,
    clk_to_q: Vec<CanonicalForm>,
    setup: Vec<CanonicalForm>,
    hold: Vec<CanonicalForm>,
    topo: Vec<NodeId>,
    topo_pos: Vec<u32>,
}

impl<'a> TimingGraph<'a> {
    /// Builds the timing graph.
    ///
    /// # Errors
    ///
    /// Fails when the circuit is malformed ([`Circuit::check`]) or
    /// references cells the library does not define.
    pub fn build(
        circuit: &'a Circuit,
        lib: &Library,
        model: &VariationModel,
    ) -> Result<Self, NetlistError> {
        circuit.check()?;
        circuit.validate_against(lib)?;

        let n = circuit.len();
        // Pin loads: sum of sink input caps plus wire cap per fanout.
        let mut load = vec![0.0f64; n];
        for id in circuit.node_ids() {
            let mut l = 0.0;
            for &sink in circuit.fanouts(id) {
                l += lib.wire_cap_per_fanout;
                l += match &circuit.node(sink).kind {
                    NodeKind::Gate { cell } => lib.cell(cell).expect("validated above").input_cap,
                    NodeKind::FlipFlop { cell } => lib.ff(cell).expect("validated").d_cap,
                    NodeKind::Output => PO_PIN_CAP,
                    NodeKind::Input => 0.0,
                };
            }
            load[id.index()] = l;
        }

        let mut gate_delay = vec![CanonicalForm::constant(0.0); n];
        for id in circuit.node_ids() {
            if let NodeKind::Gate { cell } = &circuit.node(id).kind {
                let c = lib.cell(cell).expect("validated");
                gate_delay[id.index()] = c.delay_canonical(load[id.index()], model);
            }
        }

        let nf = circuit.num_ffs();
        let mut clk_to_q = Vec::with_capacity(nf);
        let mut setup = Vec::with_capacity(nf);
        let mut hold = Vec::with_capacity(nf);
        for &ff in circuit.ff_ids() {
            let NodeKind::FlipFlop { cell } = &circuit.node(ff).kind else {
                unreachable!("ff_ids only contains flip-flops");
            };
            let def = lib.ff(cell).expect("validated");
            clk_to_q.push(def.clk_to_q_canonical(load[ff.index()], model));
            setup.push(def.setup_canonical(model));
            hold.push(def.hold_canonical(model));
        }

        let topo = circuit.topo_combinational()?;
        let mut topo_pos = vec![u32::MAX; n];
        for (i, id) in topo.iter().enumerate() {
            topo_pos[id.index()] = i as u32;
        }

        Ok(Self {
            circuit,
            gate_delay,
            clk_to_q,
            setup,
            hold,
            topo,
            topo_pos,
        })
    }

    /// Canonical delay of gate `id` (zero for non-gates).
    #[inline]
    pub fn gate_delay(&self, id: NodeId) -> &CanonicalForm {
        &self.gate_delay[id.index()]
    }

    /// Canonical clock-to-Q delay of FF `ff_idx` (dense index).
    #[inline]
    pub fn clk_to_q(&self, ff_idx: usize) -> &CanonicalForm {
        &self.clk_to_q[ff_idx]
    }

    /// Canonical setup time of FF `ff_idx`.
    #[inline]
    pub fn setup(&self, ff_idx: usize) -> &CanonicalForm {
        &self.setup[ff_idx]
    }

    /// Canonical hold time of FF `ff_idx`.
    #[inline]
    pub fn hold(&self, ff_idx: usize) -> &CanonicalForm {
        &self.hold[ff_idx]
    }

    /// Gates in combinational topological order.
    #[inline]
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of gate `id` in [`TimingGraph::topo`] (`u32::MAX` otherwise).
    #[inline]
    pub fn topo_pos(&self, id: NodeId) -> u32 {
        self.topo_pos[id.index()]
    }

    /// Number of flip-flops.
    #[inline]
    pub fn num_ffs(&self) -> usize {
        self.clk_to_q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbi_netlist::bench_format::{parse_bench, EXAMPLE_BENCH};
    use psbi_netlist::bench_suite;

    fn setup_example() -> (Circuit, Library, VariationModel) {
        (
            parse_bench(EXAMPLE_BENCH).unwrap(),
            Library::industry_like(),
            VariationModel::paper_defaults(),
        )
    }

    #[test]
    fn builds_for_example() {
        let (c, lib, model) = setup_example();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        assert_eq!(tg.num_ffs(), 3);
        assert_eq!(tg.topo().len(), c.num_gates());
        // Every gate delay is positive with variation.
        for id in c.node_ids() {
            if c.node(id).kind.is_gate() {
                assert!(tg.gate_delay(id).mean() > 0.0);
                assert!(tg.gate_delay(id).sigma() > 0.0);
            }
        }
    }

    #[test]
    fn loads_accumulate_fanout() {
        let (c, lib, model) = setup_example();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        // F0 drives N1 (INV) and N5 (AND): load = caps + 2 wire segments,
        // which F0's clock-to-Q delay is computed at.
        let f0 = c.by_name("F0").unwrap();
        let expect = lib.cell("INV_X1").unwrap().input_cap
            + lib.cell("AND2_X1").unwrap().input_cap
            + 2.0 * lib.wire_cap_per_fanout;
        let NodeKind::FlipFlop { cell } = &c.node(f0).kind else {
            panic!("F0 is a flip-flop");
        };
        let want = lib.ff(cell).unwrap().clk_to_q_canonical(expect, &model);
        let got = tg.clk_to_q(c.ff_index(f0).unwrap());
        assert!((got.mean() - want.mean()).abs() < 1e-12);
        assert!((got.sigma() - want.sigma()).abs() < 1e-12);
    }

    #[test]
    fn higher_load_means_higher_delay() {
        let (c, lib, model) = setup_example();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        // N5 (AND2) drives two sinks, so its delay exceeds the unloaded one.
        let n5 = c.by_name("N5").unwrap();
        let NodeKind::Gate { cell } = &c.node(n5).kind else {
            panic!("N5 is a gate");
        };
        assert!(tg.gate_delay(n5).mean() > lib.cell(cell).unwrap().delay(0.0));
    }

    #[test]
    fn ff_quantities_present() {
        let (c, lib, model) = setup_example();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        for i in 0..tg.num_ffs() {
            assert!(tg.clk_to_q(i).mean() > 0.0);
            assert!(tg.setup(i).mean() > 0.0);
            assert!(tg.hold(i).mean() > 0.0);
        }
    }

    #[test]
    fn topo_pos_is_consistent() {
        let (c, lib, model) = setup_example();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        for (i, id) in tg.topo().iter().enumerate() {
            assert_eq!(tg.topo_pos(*id), i as u32);
        }
        let f0 = c.by_name("F0").unwrap();
        assert_eq!(tg.topo_pos(f0), u32::MAX);
    }

    #[test]
    fn unknown_cell_fails() {
        let mut c = Circuit::new("bad");
        let a = c.add_input("a");
        let g = c.add_gate("g", "NOT_A_CELL", &[a]);
        c.add_output("o", g);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        assert!(TimingGraph::build(&c, &lib, &model).is_err());
    }

    #[test]
    fn builds_for_generated_circuit() {
        let c = bench_suite::small_demo(1);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        assert_eq!(tg.num_ffs(), c.num_ffs());
    }
}
