//! Model builder: variables with finite bounds, linear constraints, and the
//! linearisations the insertion flow needs.

use crate::branch::solve_branch_and_bound;
use crate::simplex::{Lp, RowOp};
use serde::{Deserialize, Serialize};

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VarId(pub usize);

/// Relational operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `=`
    Eq,
}

/// Solve status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Proven optimal.
    Optimal,
    /// Proven infeasible.
    Infeasible,
    /// LP relaxation unbounded (models in this workspace always have finite
    /// bounds, so this indicates a modelling error).
    Unbounded,
    /// Node limit reached with an incumbent; the solution is feasible but
    /// optimality was not proven.
    Feasible,
    /// Node limit reached with no incumbent.
    Unknown,
}

/// Result of a solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Final status.
    pub status: Status,
    /// Variable values (meaningful for `Optimal`/`Feasible`).
    pub values: Vec<f64>,
    /// Objective value.
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// The search stopped early because the incumbent met the hull bound
    /// (see [`Model::solve`]); `status` is then `Optimal`.
    pub bound_stop: bool,
    /// Simplex pivots over every LP the search solved, the hull-bound LP
    /// included.
    pub pivots: usize,
    /// LPs that stopped at the simplex iteration limit, whose last basis
    /// was taken as optimal.  Never observed; counted so it would show.
    pub lp_iter_caps: usize,
}

impl Solution {
    /// Value of `v` rounded to the nearest integer.
    pub fn int_value(&self, v: VarId) -> i64 {
        self.values[v.0].round() as i64
    }

    /// Value of `v`.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub lo: f64,
    pub hi: f64,
    pub obj: f64,
    pub integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct ConsDef {
    pub terms: Vec<(VarId, f64)>,
    pub op: Op,
    pub rhs: f64,
}

/// One `z ≥ |x − target|` term added by [`Model::add_abs_deviation`].
#[derive(Debug, Clone)]
pub(crate) struct Deviation {
    pub z: VarId,
    pub x: VarId,
    pub target: f64,
}

/// A mixed-integer linear program.
///
/// All variables must have finite bounds — the flows this crate serves
/// always do, and it keeps the simplex layer simple and robust.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) cons: Vec<ConsDef>,
    /// Maximum branch-and-bound nodes (default 200 000).
    pub node_limit: usize,
    /// Optional warm-start point (see [`Model::set_warm_start`]).
    pub(crate) warm: Option<Vec<f64>>,
    /// Every deviation term, in insertion order (for the hull bound).
    pub(crate) deviations: Vec<Deviation>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self {
            vars: Vec::new(),
            cons: Vec::new(),
            node_limit: 200_000,
            warm: None,
            deviations: Vec::new(),
        }
    }

    /// Supplies a known solution as the branch-and-bound's initial
    /// incumbent — the **witness import** half of the bounded solver's
    /// warm-start pair (the export half is simply [`Solution::values`]).
    ///
    /// The point is *verified* before use: bounds, integrality and every
    /// constraint are checked, and a point that fails any check is
    /// silently discarded.  A valid incumbent tightens pruning from node
    /// one; it never changes which points are feasible, so an invalid or
    /// stale witness can only cost the verification sweep, not
    /// correctness.  Callers that need run-to-run reproducibility must
    /// supply the warm start deterministically (or not at all): an
    /// incumbent whose objective ties the optimum is kept in preference
    /// to an equal solution found later by the search.
    pub fn set_warm_start(&mut self, values: Vec<f64>) {
        self.warm = Some(values);
    }

    /// Verifies a warm-start point: length, bounds, integrality and all
    /// constraints within tolerance.  Returns the (integer-snapped) point
    /// and its objective when valid.
    pub(crate) fn verified_warm_start(&self) -> Option<(Vec<f64>, f64)> {
        const TOL: f64 = 1e-6;
        let w = self.warm.as_ref()?;
        if w.len() != self.vars.len() {
            return None;
        }
        let mut snapped = w.clone();
        for (x, v) in snapped.iter_mut().zip(&self.vars) {
            if v.integer {
                let r = x.round();
                if (*x - r).abs() > TOL {
                    return None;
                }
                *x = r;
            }
            if *x < v.lo - TOL || *x > v.hi + TOL {
                return None;
            }
        }
        for c in &self.cons {
            let lhs: f64 = c.terms.iter().map(|(v, coef)| coef * snapped[v.0]).sum();
            let ok = match c.op {
                Op::Le => lhs <= c.rhs + TOL,
                Op::Ge => lhs >= c.rhs - TOL,
                Op::Eq => (lhs - c.rhs).abs() <= TOL,
            };
            if !ok {
                return None;
            }
        }
        let objective: f64 = self.vars.iter().zip(&snapped).map(|(v, x)| v.obj * x).sum();
        Some((snapped, objective))
    }

    /// Adds a variable with bounds `[lo, hi]`, objective coefficient `obj`
    /// and integrality flag.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `lo > hi`.
    pub fn add_var(&mut self, lo: f64, hi: f64, obj: f64, integer: bool) -> VarId {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "lo must be <= hi");
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            lo,
            hi,
            obj,
            integer,
        });
        id
    }

    /// Adds a binary variable (integer in `[0, 1]`).
    pub fn add_binary(&mut self, obj: f64) -> VarId {
        self.add_var(0.0, 1.0, obj, true)
    }

    /// Adds the constraint `Σ coef·var  op  rhs`.
    pub fn add_cons(&mut self, terms: Vec<(VarId, f64)>, op: Op, rhs: f64) {
        for (v, _) in &terms {
            assert!(v.0 < self.vars.len(), "constraint references unknown var");
        }
        self.cons.push(ConsDef { terms, op, rhs });
    }

    /// Changes the objective coefficient of `v`.
    pub fn set_objective(&mut self, v: VarId, obj: f64) {
        self.vars[v.0].obj = obj;
    }

    /// Adds `z ≥ |x − target|` and returns `z` (with objective weight
    /// `weight`).  Minimising `z` therefore minimises the absolute
    /// deviation — the linearisation used by the paper's eqs. (15)/(19).
    ///
    /// The model gets exactly these two rows.  The term is also recorded
    /// for [`Model::solve`]'s hull bound: when `x` is integer and `target`
    /// fractional, the bound LP adds the chord cut through the two integer
    /// points around the target, `z ≥ f + (1 − 2f)(x − ⌊target⌋)` with
    /// `f = target − ⌊target⌋`.  The cut holds at every integer `x`, so it
    /// bounds the MILP without changing it.
    pub fn add_abs_deviation(&mut self, x: VarId, target: f64, weight: f64) -> VarId {
        let (lo, hi) = (self.vars[x.0].lo, self.vars[x.0].hi);
        let zhi = (lo - target).abs().max((hi - target).abs());
        let z = self.add_var(0.0, zhi, weight, false);
        // z - x >= -target  and  z + x >= target.
        self.add_cons(vec![(z, 1.0), (x, -1.0)], Op::Ge, -target);
        self.add_cons(vec![(z, 1.0), (x, 1.0)], Op::Ge, target);
        self.deviations.push(Deviation { z, x, target });
        z
    }

    /// The chord cuts of the hull bound, or `None` when some integer
    /// variable carries no deviation term.  Big-M binaries are such
    /// variables, and the chord bound stays weak while they are fractional.
    /// An empty list means no integer term has a fractional target: the
    /// bound is then the plain LP relaxation.
    pub(crate) fn chord_cuts(&self) -> Option<Vec<ConsDef>> {
        let mut covered = vec![false; self.vars.len()];
        for d in &self.deviations {
            covered[d.x.0] = true;
        }
        if self.vars.iter().zip(&covered).any(|(v, c)| v.integer && !c) {
            return None;
        }
        let cuts = self
            .deviations
            .iter()
            .filter(|d| self.vars[d.x.0].integer)
            .filter_map(|d| {
                let base = d.target.floor();
                let f = d.target - base;
                // z − (1 − 2f)·x ≥ f − (1 − 2f)·⌊target⌋.
                (f > 0.0).then(|| ConsDef {
                    terms: vec![(d.z, 1.0), (d.x, -(1.0 - 2.0 * f))],
                    op: Op::Ge,
                    rhs: f - (1.0 - 2.0 * f) * base,
                })
            })
            .collect();
        Some(cuts)
    }

    /// Adds the big-M indicator pair `x ≤ c·M` and `−x ≤ c·M` (paper's
    /// eqs. (5)–(6)): when the binary `c` is 0, `x` is forced to 0.
    pub fn add_indicator(&mut self, x: VarId, c: VarId, big_m: f64) {
        assert!(big_m > 0.0, "big-M must be positive");
        self.add_cons(vec![(x, 1.0), (c, -big_m)], Op::Le, 0.0);
        self.add_cons(vec![(x, -1.0), (c, -big_m)], Op::Le, 0.0);
    }

    /// Builds the LP relaxation plus the `extra` rows in shifted
    /// computational form (`y = x − lo ≥ 0`) together with the objective
    /// constant.  Each row keeps its constraint's terms as given.
    pub(crate) fn to_lp(
        &self,
        lo_override: &[f64],
        hi_override: &[f64],
        extra: &[ConsDef],
    ) -> (Lp, f64) {
        let n = self.vars.len();
        let rows = self.cons.len() + extra.len() + n;
        let mut starts: Vec<usize> = Vec::with_capacity(rows + 1);
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut ops: Vec<RowOp> = Vec::with_capacity(rows);
        let mut rhs: Vec<f64> = Vec::with_capacity(rows);
        starts.push(0);

        for c in self.cons.iter().chain(extra) {
            let mut shift = 0.0;
            for (v, coef) in &c.terms {
                terms.push((v.0, *coef));
                shift += *coef * lo_override[v.0];
            }
            starts.push(terms.len());
            ops.push(match c.op {
                Op::Le => RowOp::Le,
                Op::Ge => RowOp::Ge,
                Op::Eq => RowOp::Eq,
            });
            rhs.push(c.rhs - shift);
        }
        // Upper bounds as explicit rows: y_i <= hi - lo.
        for i in 0..n {
            let span = hi_override[i] - lo_override[i];
            if span.is_finite() {
                terms.push((i, 1.0));
                starts.push(terms.len());
                ops.push(RowOp::Le);
                rhs.push(span);
            }
        }
        let cost: Vec<f64> = self.vars.iter().map(|v| v.obj).collect();
        let constant: f64 = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| v.obj * lo_override[i])
            .sum();
        (
            Lp {
                n,
                cost,
                starts,
                terms,
                ops,
                rhs,
            },
            constant,
        )
    }

    /// Solves the MILP by branch and bound.
    ///
    /// When every integer variable carries a deviation term (see
    /// [`Model::add_abs_deviation`]), the first node that has to branch
    /// also solves the *hull bound*: the LP relaxation of this model plus
    /// one chord cut per integer term with a fractional target.  The
    /// search stops, `Optimal` and with [`Solution::bound_stop`] set, as
    /// soon as the incumbent (possibly the warm start) is within half the
    /// acceptance tolerance of that bound.
    ///
    /// The returned point is the one the exhaustive search returns.  The
    /// tree, branching order, warm start and incumbent rule are unchanged,
    /// so the stopped search is a prefix of the exhaustive one.  The cut
    /// holds at every integer point, so every leaf left unexplored is at
    /// or above the bound, and the incumbent rule accepts only leaves
    /// better than the incumbent by the full tolerance.  Only the status
    /// can differ: an exhaustive search that hits `node_limit` reports
    /// `Feasible` where the stopped one has proven `Optimal`.
    pub fn solve(&self) -> Solution {
        solve_branch_and_bound(self, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_with_shifted_bounds() {
        // min x with x in [-5, 5] and x >= -2 → x = -2.
        let mut m = Model::new();
        let x = m.add_var(-5.0, 5.0, 1.0, false);
        m.add_cons(vec![(x, 1.0)], Op::Ge, -2.0);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) + 2.0).abs() < 1e-7);
    }

    #[test]
    fn abs_deviation_linearisation() {
        // min |x - 3| with x >= 5 → 2.
        let mut m = Model::new();
        let x = m.add_var(-10.0, 10.0, 0.0, false);
        m.add_cons(vec![(x, 1.0)], Op::Ge, 5.0);
        m.add_abs_deviation(x, 3.0, 1.0);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6, "obj={}", s.objective);
        assert!((s.value(x) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn abs_deviation_prefers_target() {
        // min |x - 3| unconstrained in [-10, 10] → x = 3.
        let mut m = Model::new();
        let x = m.add_var(-10.0, 10.0, 0.0, false);
        m.add_abs_deviation(x, 3.0, 1.0);
        let s = m.solve();
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert!(s.objective.abs() < 1e-6);
    }

    #[test]
    fn indicator_forces_zero() {
        // min c with x >= 2 and indicator: c must be 1.
        let mut m = Model::new();
        let x = m.add_var(-20.0, 20.0, 0.0, true);
        let c = m.add_binary(1.0);
        m.add_indicator(x, c, 20.0);
        m.add_cons(vec![(x, 1.0)], Op::Ge, 2.0);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(c), 1);
        // And with x forced to 0 the objective would be 0:
        let mut m2 = Model::new();
        let x2 = m2.add_var(-20.0, 20.0, 0.0, true);
        let c2 = m2.add_binary(1.0);
        m2.add_indicator(x2, c2, 20.0);
        let s2 = m2.solve();
        assert_eq!(s2.int_value(c2), 0);
        assert!(s2.objective.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bounds must be finite")]
    fn infinite_bounds_rejected() {
        let mut m = Model::new();
        m.add_var(f64::NEG_INFINITY, 0.0, 1.0, false);
    }
}
