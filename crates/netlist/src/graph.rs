//! The circuit graph: nodes (inputs, outputs, gates, flip-flops) with
//! ordered fanins and derived fanouts.
//!
//! Nets are implicit: every gate/FF/input node drives one signal and any
//! number of sinks.  Flip-flops break timing paths; their `D` input is the
//! single fanin and their `Q` output is the node's output signal.  A single
//! global clock is assumed (clock skews are modelled separately in
//! [`crate::skew`]).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of a node inside a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Primary input.
    Input,
    /// Primary output (one fanin, no fanouts).
    Output,
    /// Combinational gate instantiating a library cell.
    Gate {
        /// Library cell name (e.g. `NAND2_X1`).
        cell: String,
    },
    /// Flip-flop instantiating a library sequential cell.
    FlipFlop {
        /// Library flip-flop name (e.g. `DFF_X1`).
        cell: String,
    },
}

impl NodeKind {
    /// True for [`NodeKind::FlipFlop`].
    pub fn is_ff(&self) -> bool {
        matches!(self, NodeKind::FlipFlop { .. })
    }

    /// True for [`NodeKind::Gate`].
    pub fn is_gate(&self) -> bool {
        matches!(self, NodeKind::Gate { .. })
    }
}

/// One node of the circuit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Unique signal name.
    pub name: String,
    /// Node kind.
    pub kind: NodeKind,
}

/// Errors raised by circuit construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A node name is used twice.
    DuplicateName(String),
    /// A referenced node does not exist.
    UnknownNode(String),
    /// A flip-flop's data input was connected twice.
    DataAlreadyConnected(String),
    /// Structural violation (wrong fanin count etc.).
    Malformed {
        /// Offending node name.
        node: String,
        /// Description of the violation.
        reason: String,
    },
    /// The combinational logic contains a cycle (not broken by a FF).
    CombinationalCycle {
        /// Name of a node on the cycle.
        witness: String,
    },
    /// A cell name could not be resolved against the library.
    UnknownCell {
        /// Offending node name.
        node: String,
        /// The unresolved cell name.
        cell: String,
    },
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            NetlistError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            NetlistError::DataAlreadyConnected(n) => {
                write!(f, "flip-flop `{n}` data input connected twice")
            }
            NetlistError::Malformed { node, reason } => {
                write!(f, "malformed node `{node}`: {reason}")
            }
            NetlistError::CombinationalCycle { witness } => {
                write!(f, "combinational cycle through `{witness}`")
            }
            NetlistError::UnknownCell { node, cell } => {
                write!(f, "node `{node}` references unknown cell `{cell}`")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A gate-level sequential circuit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Circuit {
    /// Design name.
    pub name: String,
    nodes: Vec<Node>,
    fanins: Vec<Vec<NodeId>>,
    fanouts: Vec<Vec<NodeId>>,
    by_name: HashMap<String, NodeId>,
    ffs: Vec<NodeId>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        assert!(
            !self.by_name.contains_key(&node.name),
            "duplicate node name `{}` (use try_* constructors for fallible insertion)",
            node.name
        );
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(node.name.clone(), id);
        if node.kind.is_ff() {
            self.ffs.push(id);
        }
        self.nodes.push(node);
        self.fanins.push(Vec::new());
        self.fanouts.push(Vec::new());
        id
    }

    /// Adds a primary input.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.push_node(Node {
            name: name.into(),
            kind: NodeKind::Input,
        })
    }

    /// Adds a primary output driven by `driver`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or an out-of-range driver.
    pub fn add_output(&mut self, name: impl Into<String>, driver: NodeId) -> NodeId {
        let id = self.push_node(Node {
            name: name.into(),
            kind: NodeKind::Output,
        });
        self.wire(driver, id);
        id
    }

    /// Adds a combinational gate with ordered fanins.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or out-of-range fanins.
    pub fn add_gate(&mut self, name: impl Into<String>, cell: &str, fanins: &[NodeId]) -> NodeId {
        let id = self.push_node(Node {
            name: name.into(),
            kind: NodeKind::Gate {
                cell: cell.to_string(),
            },
        });
        for &src in fanins {
            self.wire(src, id);
        }
        id
    }

    /// Adds a flip-flop; connect its data input later with
    /// [`Circuit::connect_ff_data`] (registers commonly sit in feedback
    /// loops, so the driver may not exist yet).
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn add_ff(&mut self, name: impl Into<String>, cell: &str) -> NodeId {
        self.push_node(Node {
            name: name.into(),
            kind: NodeKind::FlipFlop {
                cell: cell.to_string(),
            },
        })
    }

    /// Connects the D input of flip-flop `ff` to `driver`.
    ///
    /// # Errors
    ///
    /// Fails if `ff` is not a flip-flop or is already connected.
    pub fn connect_ff_data(&mut self, ff: NodeId, driver: NodeId) -> Result<(), NetlistError> {
        if !self.nodes[ff.index()].kind.is_ff() {
            return Err(NetlistError::Malformed {
                node: self.nodes[ff.index()].name.clone(),
                reason: "connect_ff_data target is not a flip-flop".into(),
            });
        }
        if !self.fanins[ff.index()].is_empty() {
            return Err(NetlistError::DataAlreadyConnected(
                self.nodes[ff.index()].name.clone(),
            ));
        }
        self.wire(driver, ff);
        Ok(())
    }

    fn wire(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.nodes.len(), "fanin {from} out of range");
        self.fanins[to.index()].push(from);
        self.fanouts[from.index()].push(to);
    }

    /// Number of nodes (all kinds).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the circuit has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks a node up by name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Ordered fanins of `id` (for a FF: `[D]`).
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        &self.fanins[id.index()]
    }

    /// Fanouts of `id`.
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All flip-flop ids in insertion order.
    pub fn ff_ids(&self) -> &[NodeId] {
        &self.ffs
    }

    /// Position of a FF in [`Circuit::ff_ids`], if `id` is a FF.
    pub fn ff_index(&self, id: NodeId) -> Option<usize> {
        // ffs is sorted by construction (push order == id order).
        self.ffs.binary_search(&id).ok()
    }

    /// Number of flip-flops (`ns` in the paper's Table I).
    pub fn num_ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Number of combinational gates (`ng` in the paper's Table I).
    pub fn num_gates(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_gate()).count()
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::Malformed`] — a gate with no fanin, a FF without a
    ///   data driver, an output without exactly one driver, an input with
    ///   fanins;
    /// * [`NetlistError::CombinationalCycle`] — a cycle not broken by a FF.
    pub fn check(&self) -> Result<(), NetlistError> {
        for id in self.node_ids() {
            let node = self.node(id);
            let nin = self.fanins(id).len();
            match &node.kind {
                NodeKind::Input => {
                    if nin != 0 {
                        return Err(NetlistError::Malformed {
                            node: node.name.clone(),
                            reason: format!("primary input has {nin} fanins"),
                        });
                    }
                }
                NodeKind::Output => {
                    if nin != 1 {
                        return Err(NetlistError::Malformed {
                            node: node.name.clone(),
                            reason: format!("primary output has {nin} fanins, expected 1"),
                        });
                    }
                }
                NodeKind::Gate { .. } => {
                    if nin == 0 {
                        return Err(NetlistError::Malformed {
                            node: node.name.clone(),
                            reason: "gate has no fanins".into(),
                        });
                    }
                }
                NodeKind::FlipFlop { .. } => {
                    if nin != 1 {
                        return Err(NetlistError::Malformed {
                            node: node.name.clone(),
                            reason: format!("flip-flop has {nin} data fanins, expected 1"),
                        });
                    }
                }
            }
        }
        self.topo_combinational().map(|_| ())
    }

    /// Validates cell references against a library.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] for the first unresolved
    /// reference.
    pub fn validate_against(&self, lib: &psbi_liberty::Library) -> Result<(), NetlistError> {
        for id in self.node_ids() {
            let node = self.node(id);
            match &node.kind {
                NodeKind::Gate { cell } if lib.cell(cell).is_none() => {
                    return Err(NetlistError::UnknownCell {
                        node: node.name.clone(),
                        cell: cell.clone(),
                    });
                }
                NodeKind::FlipFlop { cell } if lib.ff(cell).is_none() => {
                    return Err(NetlistError::UnknownCell {
                        node: node.name.clone(),
                        cell: cell.clone(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Topological order of the *gate* nodes (flip-flops and inputs are
    /// sources, outputs are sinks; edges into FF data pins do not count).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gates cannot be
    /// ordered.
    pub fn topo_combinational(&self) -> Result<Vec<NodeId>, NetlistError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for id in self.node_ids() {
            if self.node(id).kind.is_gate() {
                // Count only gate fanins: inputs and FF outputs are sources.
                indeg[id.index()] = self
                    .fanins(id)
                    .iter()
                    .filter(|f| self.node(**f).kind.is_gate())
                    .count();
                if indeg[id.index()] == 0 {
                    queue.push_back(id);
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &out in self.fanouts(id) {
                if self.node(out).kind.is_gate() {
                    indeg[out.index()] -= 1;
                    if indeg[out.index()] == 0 {
                        queue.push_back(out);
                    }
                }
            }
        }
        let total_gates = self.num_gates();
        if order.len() != total_gates {
            // Find a witness: any gate with nonzero remaining in-degree.
            let witness = self
                .node_ids()
                .find(|id| self.node(*id).kind.is_gate() && indeg[id.index()] > 0)
                .map(|id| self.node(id).name.clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { witness });
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> Circuit {
        let mut c = Circuit::new("p");
        let a = c.add_input("a");
        let f1 = c.add_ff("f1", "DFF_X1");
        let f2 = c.add_ff("f2", "DFF_X1");
        let g1 = c.add_gate("g1", "INV_X1", &[f1]);
        let g2 = c.add_gate("g2", "NAND2_X1", &[g1, a]);
        c.connect_ff_data(f2, g2).unwrap();
        c.connect_ff_data(f1, a).unwrap();
        c.add_output("o", f2);
        c
    }

    #[test]
    fn builds_and_checks() {
        let c = pipeline();
        assert!(c.check().is_ok());
        assert_eq!(c.num_ffs(), 2);
        assert_eq!(c.num_gates(), 2);
        let count = |k: NodeKind| c.node_ids().filter(|&id| c.node(id).kind == k).count();
        assert_eq!(count(NodeKind::Input), 1);
        assert_eq!(count(NodeKind::Output), 1);
        assert_eq!(c.len(), 6);
        assert!(!c.is_empty());
    }

    #[test]
    fn name_lookup_and_fanio() {
        let c = pipeline();
        let g2 = c.by_name("g2").unwrap();
        assert_eq!(c.fanins(g2).len(), 2);
        assert_eq!(c.node(g2).name, "g2");
        let f2 = c.by_name("f2").unwrap();
        assert_eq!(c.fanins(f2), &[g2]);
        assert!(c.by_name("nope").is_none());
    }

    #[test]
    fn ff_index_is_dense() {
        let c = pipeline();
        let ids = c.ff_ids().to_vec();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(c.ff_index(*id), Some(i));
        }
        let a = c.by_name("a").unwrap();
        assert_eq!(c.ff_index(a), None);
    }

    #[test]
    fn topo_order_respects_edges() {
        let c = pipeline();
        let order = c.topo_combinational().unwrap();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let g1 = c.by_name("g1").unwrap();
        let g2 = c.by_name("g2").unwrap();
        assert!(pos[&g1] < pos[&g2]);
    }

    #[test]
    fn detects_combinational_cycle() {
        let mut c = Circuit::new("cyc");
        let a = c.add_input("a");
        // g1 and g2 feed each other: a combinational loop.
        let g1 = c.add_gate("g1", "NAND2_X1", &[a]);
        let g2 = c.add_gate("g2", "INV_X1", &[g1]);
        // Manually wire the loop edge g2 -> g1.
        c.fanins[g1.index()].push(g2);
        c.fanouts[g2.index()].push(g1);
        assert!(matches!(
            c.check(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn ff_feedback_is_not_a_cycle() {
        let mut c = Circuit::new("fb");
        let f = c.add_ff("f", "DFF_X1");
        let g = c.add_gate("g", "INV_X1", &[f]);
        c.connect_ff_data(f, g).unwrap();
        assert!(c.check().is_ok());
    }

    #[test]
    fn double_data_connect_fails() {
        let mut c = Circuit::new("d");
        let a = c.add_input("a");
        let f = c.add_ff("f", "DFF_X1");
        c.connect_ff_data(f, a).unwrap();
        assert!(matches!(
            c.connect_ff_data(f, a),
            Err(NetlistError::DataAlreadyConnected(_))
        ));
    }

    #[test]
    fn unconnected_ff_fails_check() {
        let mut c = Circuit::new("u");
        c.add_ff("f", "DFF_X1");
        assert!(matches!(c.check(), Err(NetlistError::Malformed { .. })));
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_name_panics() {
        let mut c = Circuit::new("dup");
        c.add_input("a");
        c.add_input("a");
    }

    #[test]
    fn validate_against_library() {
        let lib = psbi_liberty::Library::industry_like();
        let c = pipeline();
        assert!(c.validate_against(&lib).is_ok());
        let mut bad = Circuit::new("bad");
        let a = bad.add_input("a");
        bad.add_gate("g", "NO_SUCH_CELL", &[a]);
        assert!(matches!(
            bad.validate_against(&lib),
            Err(NetlistError::UnknownCell { .. })
        ));
    }
}
