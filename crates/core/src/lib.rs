#![warn(missing_docs)]
//! Sampling-based post-silicon clock-tuning buffer insertion.
//!
//! This crate implements the method of *Sampling-based Buffer Insertion for
//! Post-Silicon Yield Improvement under Process Variability* (Zhang, Li,
//! Schlichtmann — DATE 2016) end to end:
//!
//! 1. **Step 1 — floating lower bounds** ([`flow`], [`solve`]):
//!    Monte-Carlo samples are drawn; each sample's minimum set of adjusted
//!    buffers is found exactly (§III-A1), buffers that are almost never
//!    used are pruned (§III-A2, [`prune`]), tuning values are pushed toward
//!    zero (§III-A3) and each surviving buffer's range window is anchored
//!    at the histogram position covering the most tunings (§III-A4).
//! 2. **Step 2 — fixed lower bounds**: the sampling is re-run with the
//!    fixed windows when needed (§III-B1), tuning values are concentrated
//!    toward their per-buffer averages (§III-B2) and the final ranges are
//!    the observed min/max tunings.
//! 3. **Step 3 — grouping** ([`group`]): buffers with mutually correlated
//!    tuning values (r ≥ 0.8) that sit physically close share one physical
//!    buffer; an optional cap drops the least-used buffers.
//!
//! The per-sample optimisation — the paper uses Gurobi on an ILP with
//! indicator variables — is solved here by an exact specialised search:
//! violated constraints are localised into small regions (provably
//! sufficient, see [`solve`]), a branch-and-bound over buffer *support
//! sets* with vertex-cover lower bounds finds the minimum buffer count, and
//! the value-concentration objectives are solved with the in-workspace MILP
//! ([`psbi_milp`]).  Yield evaluation ([`yield_eval`]) reduces to
//! difference-constraint feasibility per sample, and the same machinery
//! configures a manufactured chip ([`configure`] — the paper's future-work
//! step).
//!
//! # Execution engine and determinism
//!
//! Every Monte-Carlo stage runs on a batched, structure-of-arrays engine:
//! the sample stream is cut into fixed-size chunks, the chips of each
//! chunk that the flow's zero-pass table cannot settle (see [`flow`]) are
//! drawn and their constraints extracted in one fused pass into a reused
//! [`psbi_timing::ConstraintBatch`] (gate-level chips go through a
//! [`psbi_timing::SampleBatch`] first), and the per-chip
//! solves run from a pool of per-worker workspaces
//! ([`solve::SampleSolver`] with persistent branch-and-bound scratch and
//! difference-constraint solvers).  Chunks are scheduled onto a
//! rayon-style work-stealing parallel iterator.
//!
//! **Determinism guarantee:** chip `k` is seeded by `(stream, k)` alone,
//! chunk boundaries are fixed constants, chunk results merge in chunk
//! order, and a settled chip gets exactly the outcome its draw would give
//! — so every flow result (ranges, deployment, yields) is bit-identical
//! for any worker thread count, including `RAYON_NUM_THREADS=1` versus all
//! cores, and for any order of targets on one flow.  The `determinism` and
//! `zero_pass` integration tests enforce this.
//!
//! # Entry surfaces
//!
//! Flows are assembled with [`flow::FlowBuilder`]
//! (`BufferInsertionFlow::builder(..).library(..).pool(..).build()`), and
//! the per-sample solver is driven through a single request-shaped entry
//! point ([`solve::SolveRequest`] → [`solve::SampleSolver::solve`]) whose
//! optional cross-chip memo is a field of the request — see [`solve`].
//!
//! # Example
//!
//! ```
//! use psbi_core::flow::{BufferInsertionFlow, FlowConfig};
//! use psbi_netlist::bench_suite;
//!
//! let circuit = bench_suite::tiny_demo(3);
//! let mut cfg = FlowConfig::default();
//! cfg.samples = 150;
//! cfg.yield_samples = 300;
//! let flow = BufferInsertionFlow::builder(&circuit, cfg).build().unwrap();
//! let result = flow.run();
//! assert!(result.yield_with_buffers >= result.yield_baseline - 1e-9);
//! ```

pub mod area;
pub mod binning;
pub mod configure;
pub mod flow;
pub mod group;
pub mod prune;
pub mod solve;
pub mod verify;
pub mod yield_eval;

pub use flow::{
    BinningRequest, BufferInsertionFlow, FlowBuilder, FlowConfig, FlowDiagnostics, FlowError,
    InsertionResult, SampleRequest, TargetPeriod, WorkspacePool,
};
pub use solve::{
    BufferSpace, PassDiagnostics, PushObjective, RegionMemo, SampleResult, SampleSolver,
    SolveOutcome, SolveRequest, SolverOptions,
};
pub use verify::VerifyReport;
