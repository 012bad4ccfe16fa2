#![warn(missing_docs)]
//! Timing analysis for the PSBI workspace.
//!
//! This crate turns a [`psbi_netlist::Circuit`] plus a
//! [`psbi_liberty::Library`] and a [`psbi_variation::VariationModel`] into
//! the objects the insertion flow operates on:
//!
//! * [`graph::TimingGraph`] — per-gate canonical delays, pin loads and the
//!   combinational topological order;
//! * [`cones::ConeSet`] — for every flip-flop, the combinational fanout
//!   cone (topologically ordered) and the flip-flop sinks it reaches;
//! * [`seq::SequentialGraph`] — the FF→FF timing edges with canonical
//!   **maximum** and **minimum** path delays computed by block-based SSTA
//!   (Clark's `max`/`min`), plus per-FF setup/hold canonicals.  This is the
//!   "merged" representation the paper assumes (its eq. (1)–(2) operate on
//!   `d̄ij`/`d̲ij` directly);
//! * [`sample::SampleTiming`] — one Monte-Carlo chip: concrete delay values
//!   for every sequential edge, drawn either from the canonical edge forms
//!   (fast, `O(edges)` per sample) or by exact gate-level propagation
//!   (reference mode);
//! * [`sample::SampleBatch`] / [`sample::CanonicalBatchSampler`] — the
//!   structure-of-arrays batch engine: flat `samples × width` buffers
//!   reused across passes and a flattened-coefficient draw kernel with
//!   inverse-transform normals.  Chips are seeded by their global sample
//!   index, so batches decompose deterministically — the foundation of the
//!   flow's thread-count-independent parallelism;
//! * [`constraint::ConstraintBatch`] — batched constraint extraction,
//!   either over a [`sample::SampleBatch`] or fused with the draw
//!   ([`constraint::ConstraintBatch::draw_from`], which never stores the
//!   chips' delays), with chip-invariant per-edge terms hoisted out of the
//!   chip loop;
//! * [`simd`] — runtime-dispatched wide kernels (AVX2 chip lanes, four
//!   chips per vector; NEON per-chip lanes) behind the batch engine,
//!   bit-identical to the scalar reference path, which hosts without
//!   either run and `PSBI_FORCE_SCALAR=1` forces;
//! * [`constraint::IntegerConstraints`] — the paper's setup/hold
//!   inequalities discretised to buffer steps:
//!   `k_i − k_j ≤ ⌊(T − s_j − d̄ij + t_j − t_i)/δ⌋` and
//!   `k_j − k_i ≤ ⌊(d̲ij − h_j + t_i − t_j)/δ⌋`;
//! * [`feasibility::DiffSolver`] — an SPFA-based solver for
//!   difference constraints over windowed variables that decides whether
//!   a chip can be configured, producing a witness configuration or, on
//!   request, the arcs of a negative cycle.  One SPFA loop serves every
//!   form; every call is a cold solve, and only its workspaces are reused
//!   across calls.
//!
//! # Example
//!
//! ```
//! use psbi_liberty::Library;
//! use psbi_netlist::bench_suite;
//! use psbi_timing::{graph::TimingGraph, seq::SequentialGraph};
//! use psbi_variation::VariationModel;
//!
//! let circuit = bench_suite::tiny_demo(1);
//! let lib = Library::industry_like();
//! let model = VariationModel::paper_defaults();
//! let tg = TimingGraph::build(&circuit, &lib, &model).expect("valid");
//! let sg = SequentialGraph::extract(&tg);
//! assert!(sg.edges.len() >= circuit.num_ffs());
//! ```

pub mod cones;
pub mod constraint;
pub mod criticality;
pub mod feasibility;
pub mod graph;
pub mod sample;
pub mod seq;
pub mod simd;

pub use constraint::{
    ConstraintBatch, ConstraintKind, ConstraintsView, IntegerConstraints, Violation,
};
pub use feasibility::{DiffSolver, Feasibility};
pub use graph::TimingGraph;
pub use sample::{CanonicalBatchSampler, SampleBatch, SampleTiming, SampleView};
pub use seq::SequentialGraph;
pub use simd::Backend;
