#![warn(missing_docs)]
//! # psbi — post-silicon buffer insertion
//!
//! Facade crate for the PSBI workspace: a from-scratch Rust reproduction of
//! *Sampling-based Buffer Insertion for Post-Silicon Yield Improvement under
//! Process Variability* (Zhang, Li, Schlichtmann — DATE 2016).
//!
//! The individual subsystems live in their own crates and are re-exported
//! here under short module names:
//!
//! * [`variation`] — process-variation model, canonical forms, statistics;
//! * [`liberty`] — standard-cell library with variation sensitivities;
//! * [`netlist`] — circuit graph, ISCAS89 parser, benchmark generator;
//! * [`timing`] — STA/SSTA, sequential constraint graphs, feasibility;
//! * [`milp`] — LP/MILP solver (simplex + branch and bound);
//! * [`fault`] — deterministic fault-injection failpoints
//!   (`PSBI_FAULT_SPEC`) for crash-safety testing;
//! * [`core`] — the sampling-based insertion flow itself;
//! * [`fleet`] — sharded multi-circuit campaign runner with
//!   checkpoint/resume (the `psbi-fleet` binary).
//!
//! # Quickstart
//!
//! ```
//! use psbi::core::flow::{BufferInsertionFlow, FlowConfig};
//! use psbi::netlist::bench_suite;
//!
//! // A small synthetic benchmark circuit with clock skews.
//! let circuit = bench_suite::tiny_demo(7);
//! let mut cfg = FlowConfig::default();
//! cfg.samples = 200;
//! cfg.yield_samples = 200;
//! let result = BufferInsertionFlow::builder(&circuit, cfg).build()
//!     .expect("valid circuit")
//!     .run();
//! // Buffer insertion never hurts yield on the evaluation samples.
//! assert!(result.yield_with_buffers + 1e-9 >= result.yield_baseline);
//! ```

// Every `rust` block of README.md compiles and runs as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use psbi_core as core;
pub use psbi_fault as fault;
pub use psbi_fleet as fleet;
pub use psbi_liberty as liberty;
pub use psbi_milp as milp;
pub use psbi_netlist as netlist;
pub use psbi_obs as obs;
pub use psbi_timing as timing;
pub use psbi_variation as variation;
