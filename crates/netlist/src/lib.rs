#![warn(missing_docs)]
//! Sequential circuit representation for the PSBI workspace.
//!
//! Provides everything the timing and insertion layers need to know about a
//! design:
//!
//! * [`graph`] — the circuit graph itself: primary inputs/outputs, gates and
//!   flip-flops with ordered fanins, plus validation (combinational cycle
//!   detection, arity checks) and combinational topological order;
//! * [`bench_format`] — a complete ISCAS89 `.bench` reader/writer so real
//!   benchmark netlists can be used when available;
//! * [`generator`] — the synthetic benchmark generator used as the
//!   substitute for the proprietary ISCAS89/TAU-2013 mappings: it
//!   reproduces each paper circuit's flip-flop and gate counts with
//!   realistic sequential topology;
//! * [`bench_suite`] — named descriptors of the paper's eight circuits;
//! * [`placement`] — locality-preserving grid placement of flip-flops with
//!   Manhattan distances (needed by the grouping step);
//! * [`skew`] — clock-skew assignment ("we also added clock skews so that
//!   they have more critical paths", §IV);
//!
//! # Example
//!
//! ```
//! use psbi_netlist::graph::Circuit;
//!
//! let mut c = Circuit::new("demo");
//! let a = c.add_input("a");
//! let ff1 = c.add_ff("ff1", "DFF_X1");
//! let g = c.add_gate("g", "INV_X1", &[ff1]);
//! let n = c.add_gate("n", "NAND2_X1", &[g, a]);
//! let ff2 = c.add_ff("ff2", "DFF_X1");
//! c.connect_ff_data(ff2, n).unwrap();
//! c.connect_ff_data(ff1, n).unwrap(); // feedback through a register is fine
//! c.add_output("out", ff2);
//! c.check().expect("well-formed");
//! assert_eq!(c.num_ffs(), 2);
//! ```

pub mod bench_format;
pub mod bench_suite;
pub mod generator;
pub mod graph;
pub mod placement;
pub mod skew;

pub use bench_suite::BenchmarkSpec;
pub use generator::GeneratorProfile;
pub use graph::{Circuit, NetlistError, Node, NodeId, NodeKind};
pub use placement::Placement;
pub use skew::SkewConfig;
