#![warn(missing_docs)]
//! A small, exact LP/MILP solver.
//!
//! The paper solves its per-sample buffer-minimisation problems with Gurobi;
//! no external solver is available here, so this crate implements the
//! required machinery from scratch:
//!
//! * `simplex` — a two-phase primal simplex on a sparse tableau over
//!   variables with finite bounds (bounds are handled by shifting and
//!   explicit rows, which is perfectly adequate for the small per-region
//!   problems the flow produces).  A pivot touches only the tableau's
//!   nonzeros, tracked by a bitset per row and per column, yet makes
//!   exactly the pivots of the dense tableau method: every nonzero is
//!   computed by the same floating-point operation on the same operands,
//!   an entry never visited is a zero that can differ only in sign (which
//!   no comparison here tells apart), the ratio test visits a column's
//!   rows in increasing order, and phase 2 skips the artificial columns it
//!   never reads.  A differential test against the dense method pins this;
//!   [`Solution::pivots`] counts the work;
//! * [`branch`] — branch-and-bound over the LP relaxation for integer and
//!   binary variables, with most-fractional branching, incumbent pruning
//!   and the hull-bound certificate below;
//! * [`model`] — a builder API with the two linearisations the paper's
//!   formulations need: absolute-value objectives (`min Σ|x_i − a_i|`, eqs.
//!   (15)/(19)) and big-M indicator constraints (`±x_i ≤ c_i·Γ`, eqs.
//!   (5)–(6)).
//!
//! The solver is deliberately simple but *exact*; the insertion flow uses a
//! specialised combinatorial solver for speed and cross-checks it against
//! this one in tests.
//!
//! # The hull-bound certificate
//!
//! The flow's concentration MILPs minimise `Σ|k − a|` over integer `k`
//! with fractional targets `a`.  Their LP relaxation is fractional, and
//! the branch and bound then spends most of its nodes proving an
//! incumbent it already holds.  [`Model::solve`] therefore computes a
//! stronger bound once, the first time it has to branch: the relaxation
//! plus, for each integer deviation term with a fractional target, the
//! chord cut through the two integer points around the target (see
//! [`Model::add_abs_deviation`]).  The search stops as soon as the
//! incumbent is within half the acceptance tolerance of that bound.
//!
//! * **Gate.**  The bound is computed only when every integer variable
//!   carries a deviation term.  In the indicator form the big-M binaries
//!   have none; they keep the bound weak, and the extra LP would cost
//!   more than it saves.  Nothing else switches it on or off.
//! * **Why the answer cannot change.**  The tree, the branching order,
//!   the warm start and the incumbent rule are those of the exhaustive
//!   search, so the stopped search is a prefix of it.  The cut holds at
//!   every integer point, so each unexplored leaf is at or above the
//!   bound, and the incumbent rule accepts only strict improvements by
//!   the full tolerance.  The stopped search therefore returns the point
//!   the exhaustive one returns, reported `Optimal` where the exhaustive
//!   one could have hit `node_limit` and reported `Feasible`.
//! * **Why it fires.**  Correctness needs only validity.  In practice
//!   the bound is usually the optimum: difference constraints are
//!   totally unimodular, and a separable convex cost with integer
//!   breakpoints (which the cuts give each `|k − a|`) then has an
//!   integral LP optimum (Hochbaum & Shanthikumar, J. ACM 37(4), 1990).
//!
//! # Example
//!
//! ```
//! use psbi_milp::{Model, Op, Status};
//!
//! // min x + y  s.t.  x + 2y >= 4, x,y in [0, 10], y integer
//! let mut m = Model::new();
//! let x = m.add_var(0.0, 10.0, 1.0, false);
//! let y = m.add_var(0.0, 10.0, 1.0, true);
//! m.add_cons(vec![(x, 1.0), (y, 2.0)], Op::Ge, 4.0);
//! let sol = m.solve();
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - 2.0).abs() < 1e-6); // y = 2, x = 0
//! ```

pub mod branch;
pub mod model;
pub(crate) mod simplex;

pub use model::{Model, Op, Solution, Status, VarId};
