//! Per-flip-flop combinational fanout cones.
//!
//! For every source flip-flop `i` the cone is the set of gates reachable
//! from `i`'s Q output without passing through another register, in global
//! topological order, together with the flip-flop sinks whose data input is
//! driven from inside the cone.  Both the SSTA edge extraction and the
//! exact gate-level sampler walk these cones.

use crate::graph::TimingGraph;
use psbi_netlist::NodeId;

/// The fanout cone of one source flip-flop.
#[derive(Debug, Clone, Default)]
pub struct Cone {
    /// Gates of the cone in topological order.
    pub gates: Vec<NodeId>,
    /// `(sink_ff_index, d_driver)` pairs: flip-flops reached by this cone.
    /// `d_driver` is the node driving the sink's D pin (a cone gate, or the
    /// source FF itself for a direct register-to-register connection).
    pub sinks: Vec<(usize, NodeId)>,
}

/// All cones, indexed by dense source-FF index.
#[derive(Debug, Clone)]
pub struct ConeSet {
    cones: Vec<Cone>,
}

impl ConeSet {
    /// An empty cone set (used by [`crate::seq::SequentialGraph::from_parts`]).
    pub fn empty() -> Self {
        Self { cones: Vec::new() }
    }

    /// Extracts every flip-flop's fanout cone.
    pub fn extract(tg: &TimingGraph<'_>) -> Self {
        let circuit = tg.circuit;
        let n = circuit.len();
        let mut mark = vec![u32::MAX; n];
        let mut cones = Vec::with_capacity(circuit.num_ffs());

        for (i, &ff) in circuit.ff_ids().iter().enumerate() {
            let stamp = i as u32;
            let mut gates: Vec<NodeId> = Vec::new();
            let mut sinks: Vec<(usize, NodeId)> = Vec::new();
            let mut stack: Vec<NodeId> = vec![ff];
            mark[ff.index()] = stamp;
            while let Some(node) = stack.pop() {
                for &out in circuit.fanouts(node) {
                    let kind = &circuit.node(out).kind;
                    if kind.is_gate() {
                        if mark[out.index()] != stamp {
                            mark[out.index()] = stamp;
                            gates.push(out);
                            stack.push(out);
                        }
                    } else if kind.is_ff() {
                        let j = circuit.ff_index(out).expect("dense ff index");
                        sinks.push((j, node));
                    }
                }
            }
            // The same sink can be recorded once per driving node visit
            // order; dedup on (sink, driver).
            sinks.sort_unstable_by_key(|(j, d)| (*j, d.index()));
            sinks.dedup();
            gates.sort_unstable_by_key(|g| tg.topo_pos(*g));
            cones.push(Cone { gates, sinks });
        }
        Self { cones }
    }

    /// The cone of source FF `i`.
    #[inline]
    pub fn cone(&self, i: usize) -> &Cone {
        &self.cones[i]
    }

    /// Number of cones (= number of flip-flops).
    pub fn len(&self) -> usize {
        self.cones.len()
    }

    /// True when there are no flip-flops.
    pub fn is_empty(&self) -> bool {
        self.cones.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingGraph;
    use psbi_liberty::Library;
    use psbi_netlist::bench_format::{parse_bench, EXAMPLE_BENCH};
    use psbi_netlist::bench_suite;
    use psbi_variation::VariationModel;

    #[test]
    fn example_cones_are_correct() {
        let c = parse_bench(EXAMPLE_BENCH).unwrap();
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        let cones = ConeSet::extract(&tg);
        assert_eq!(cones.len(), 3);

        // F0 feeds N1->N2->N3->N4 (to F0) and N5->N6 (to F1), N5->N7 (to F2).
        let f0_idx = c.ff_index(c.by_name("F0").unwrap()).unwrap();
        let cone = cones.cone(f0_idx);
        let gate_names: Vec<&str> = cone
            .gates
            .iter()
            .map(|g| c.node(*g).name.as_str())
            .collect();
        for g in ["N1", "N2", "N3", "N4", "N5", "N6", "N7"] {
            assert!(gate_names.contains(&g), "missing {g} in {gate_names:?}");
        }
        // Sinks: F0 (self-loop via N4), F1 (via N6), F2 (via N7).
        let sink_ffs: Vec<usize> = cone.sinks.iter().map(|(j, _)| *j).collect();
        assert!(sink_ffs.contains(&f0_idx));
        assert_eq!(cone.sinks.len(), 3);
    }

    #[test]
    fn cone_gates_are_topologically_ordered() {
        let c = bench_suite::small_demo(3);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        let cones = ConeSet::extract(&tg);
        for i in 0..cones.len() {
            let gates = &cones.cone(i).gates;
            for w in gates.windows(2) {
                assert!(tg.topo_pos(w[0]) < tg.topo_pos(w[1]));
            }
        }
    }

    #[test]
    fn every_ff_with_ff_driver_appears_as_direct_sink() {
        // Direct FF->FF connection must produce a sink with driver == source.
        let mut cc = psbi_netlist::Circuit::new("direct");
        let a = cc.add_input("a");
        let f1 = cc.add_ff("f1", "DFF_X1");
        let f2 = cc.add_ff("f2", "DFF_X1");
        cc.connect_ff_data(f1, a).unwrap();
        cc.connect_ff_data(f2, f1).unwrap();
        cc.add_output("o", f2);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&cc, &lib, &model).unwrap();
        let cones = ConeSet::extract(&tg);
        let f1_idx = cc.ff_index(f1).unwrap();
        let f2_idx = cc.ff_index(f2).unwrap();
        let cone = cones.cone(f1_idx);
        assert_eq!(cone.gates.len(), 0);
        assert_eq!(cone.sinks, vec![(f2_idx, f1)]);
    }

    #[test]
    fn visits_are_bounded() {
        let c = bench_suite::small_demo(5);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        let cones = ConeSet::extract(&tg);
        // Each cone visits each gate at most once.
        for i in 0..cones.len() {
            let gates = &cones.cone(i).gates;
            let distinct: std::collections::HashSet<usize> =
                gates.iter().map(|g| g.index()).collect();
            assert_eq!(distinct.len(), gates.len());
            assert!(gates.len() <= c.num_gates());
        }
        assert!(!cones.is_empty());
    }
}
