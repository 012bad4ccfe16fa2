//! Branch and bound over the LP relaxation.
//!
//! Depth-first search with most-fractional branching.  Each node carries
//! its own bound vectors (the per-region problems are small, so cloning
//! bounds is cheaper than maintaining a reversible trail).  The search
//! may stop early at the hull bound certificate described on
//! [`Model::solve`].

use crate::model::{Model, Solution, Status};
use crate::simplex::{Lp, LpOutcome};

const INT_TOL: f64 = 1e-6;
/// Incumbent must improve by at least this much to be accepted.
const OBJ_TOL: f64 = 1e-9;

struct BbNode {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// LP bound inherited from the parent (for pruning before solving).
    parent_bound: f64,
}

/// The LP work of one search.
#[derive(Default)]
struct LpTally {
    pivots: usize,
    iter_caps: usize,
}

impl LpTally {
    fn solve(&mut self, lp: &Lp) -> LpOutcome {
        let (outcome, stats) = lp.solve();
        self.pivots += stats.pivots[0] + stats.pivots[1];
        self.iter_caps += usize::from(stats.iter_cap);
        outcome
    }
}

/// The hull bound of `model` over the root bounds `lo`/`hi`, or `−∞` when
/// the model is not eligible or the bound LP does not solve.  `root_bound`
/// is the root relaxation's objective, which *is* the bound when no cut
/// applies.
fn hull_bound(model: &Model, lo: &[f64], hi: &[f64], root_bound: f64, tally: &mut LpTally) -> f64 {
    match model.chord_cuts() {
        None => f64::NEG_INFINITY,
        Some(cuts) if cuts.is_empty() => root_bound,
        Some(cuts) => {
            let (lp, constant) = model.to_lp(lo, hi, &cuts);
            match tally.solve(&lp) {
                LpOutcome::Optimal { objective, .. } => objective + constant,
                LpOutcome::Infeasible | LpOutcome::Unbounded => f64::NEG_INFINITY,
            }
        }
    }
}

/// Solves `model` to proven optimality (or node limit).  With `certify`
/// the search stops at the hull bound ([`Model::solve`]); without it the
/// search is exhaustive, which is the oracle the tests compare against.
pub(crate) fn solve_branch_and_bound(model: &Model, certify: bool) -> Solution {
    let root_lo: Vec<f64> = model.vars.iter().map(|v| v.lo).collect();
    let root_hi: Vec<f64> = model.vars.iter().map(|v| v.hi).collect();

    let mut best_obj = f64::INFINITY;
    let mut best_x: Option<Vec<f64>> = None;
    // A verified warm-start point becomes the incumbent before the first
    // node: the search then only replaces it with strictly better points,
    // so a warm start can change *which* optimal point is returned (ties
    // keep the incumbent) but never the optimal objective.
    if let Some((x, obj)) = model.verified_warm_start() {
        best_obj = obj;
        best_x = Some(x);
    }
    let mut nodes = 0usize;
    let mut tally = LpTally::default();
    let mut stack = vec![BbNode {
        lo: root_lo,
        hi: root_hi,
        parent_bound: f64::NEG_INFINITY,
    }];
    let mut limit_hit = false;
    // Set at the first branching node; a search that never branches
    // needs no certificate.
    let mut hull: Option<f64> = None;
    let mut bound_stop = false;

    while let Some(node) = stack.pop() {
        if nodes >= model.node_limit {
            limit_hit = true;
            break;
        }
        nodes += 1;
        if node.parent_bound >= best_obj - OBJ_TOL {
            continue; // dominated before solving
        }
        let (lp, constant) = model.to_lp(&node.lo, &node.hi, &[]);
        let (x, bound) = match tally.solve(&lp) {
            LpOutcome::Optimal { x, objective } => {
                let xs: Vec<f64> = x.iter().enumerate().map(|(i, y)| y + node.lo[i]).collect();
                (xs, objective + constant)
            }
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                // Finite bounds make this impossible unless the model is
                // malformed; report it rather than looping.
                return Solution {
                    status: Status::Unbounded,
                    values: vec![],
                    objective: f64::NEG_INFINITY,
                    nodes,
                    bound_stop: false,
                    pivots: tally.pivots,
                    lp_iter_caps: tally.iter_caps,
                };
            }
        };
        if bound >= best_obj - OBJ_TOL {
            continue;
        }
        // Find the most fractional integer variable.
        let mut branch_var: Option<usize> = None;
        let mut best_frac = INT_TOL;
        for (i, v) in model.vars.iter().enumerate() {
            if v.integer {
                let f = (x[i] - x[i].round()).abs();
                if f > best_frac {
                    best_frac = f;
                    branch_var = Some(i);
                }
            }
        }
        match branch_var {
            None => {
                // Integral (within tolerance): snap and accept.
                let mut snapped = x.clone();
                for (i, v) in model.vars.iter().enumerate() {
                    if v.integer {
                        snapped[i] = snapped[i].round();
                    }
                }
                if bound < best_obj - OBJ_TOL {
                    best_obj = bound;
                    best_x = Some(snapped);
                    if hull.is_some_and(|h| best_obj <= h + OBJ_TOL / 2.0) {
                        bound_stop = true;
                        break;
                    }
                }
            }
            Some(i) => {
                if certify && hull.is_none() {
                    // Only the root can branch first (a root that does not
                    // branch ends the search), so this node is the root.
                    let h = hull_bound(model, &node.lo, &node.hi, bound, &mut tally);
                    hull = Some(h);
                    if best_obj <= h + OBJ_TOL / 2.0 {
                        bound_stop = true;
                        break;
                    }
                }
                let xi = x[i];
                // Down branch: x_i <= floor(xi).
                let lo_d = node.lo.clone();
                let mut hi_d = node.hi.clone();
                hi_d[i] = xi.floor();
                // Up branch: x_i >= ceil(xi).
                let mut lo_u = node.lo.clone();
                let hi_u = node.hi.clone();
                lo_u[i] = xi.ceil();
                // Explore the branch closer to the LP value first (pushed
                // last → popped first).
                let frac = xi - xi.floor();
                let down = BbNode {
                    lo: lo_d,
                    hi: hi_d,
                    parent_bound: bound,
                };
                let up = BbNode {
                    lo: lo_u,
                    hi: hi_u,
                    parent_bound: bound,
                };
                if down.hi[i] >= down.lo[i] - OBJ_TOL && up.hi[i] >= up.lo[i] - OBJ_TOL {
                    if frac < 0.5 {
                        stack.push(up);
                        stack.push(down);
                    } else {
                        stack.push(down);
                        stack.push(up);
                    }
                } else if down.hi[i] >= down.lo[i] - OBJ_TOL {
                    stack.push(down);
                } else if up.hi[i] >= up.lo[i] - OBJ_TOL {
                    stack.push(up);
                }
            }
        }
    }

    match best_x {
        Some(values) => Solution {
            status: if limit_hit {
                Status::Feasible
            } else {
                Status::Optimal
            },
            values,
            objective: best_obj,
            nodes,
            bound_stop,
            pivots: tally.pivots,
            lp_iter_caps: tally.iter_caps,
        },
        None => Solution {
            status: if limit_hit {
                Status::Unknown
            } else {
                Status::Infeasible
            },
            values: vec![],
            objective: f64::INFINITY,
            nodes,
            bound_stop,
            pivots: tally.pivots,
            lp_iter_caps: tally.iter_caps,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::solve_branch_and_bound;
    use crate::model::{Model, Op, Status};

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) → 16.
        let mut m = Model::new();
        let a = m.add_binary(-10.0);
        let b = m.add_binary(-6.0);
        let c = m.add_binary(-4.0);
        m.add_cons(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Op::Le, 2.0);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 16.0).abs() < 1e-6);
        assert_eq!(s.int_value(a), 1);
        assert_eq!(s.int_value(b), 1);
        assert_eq!(s.int_value(c), 0);
    }

    #[test]
    fn warm_start_is_verified_and_preserves_the_optimum() {
        // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) → 16 at (1,1,0).
        let build = || {
            let mut m = Model::new();
            let a = m.add_binary(-10.0);
            let b = m.add_binary(-6.0);
            let c = m.add_binary(-4.0);
            m.add_cons(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Op::Le, 2.0);
            m
        };
        // A feasible but sub-optimal warm start: the search must still
        // find the true optimum.
        let mut m = build();
        m.set_warm_start(vec![1.0, 0.0, 1.0]); // objective -14
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 16.0).abs() < 1e-6);
        // The optimal warm start is kept (ties keep the incumbent).
        let mut m = build();
        m.set_warm_start(vec![1.0, 1.0, 0.0]);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 16.0).abs() < 1e-6);
        assert_eq!(s.values, vec![1.0, 1.0, 0.0]);
        // An infeasible warm start is discarded, not trusted.
        let mut m = build();
        m.set_warm_start(vec![1.0, 1.0, 1.0]); // violates the knapsack
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 16.0).abs() < 1e-6);
        // A fractional value on an integer variable is rejected too.
        let mut m = build();
        m.set_warm_start(vec![0.5, 0.0, 0.0]);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 16.0).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_matters() {
        // min y s.t. 2y >= 3, y integer → y = 2 (LP gives 1.5).
        let mut m = Model::new();
        let y = m.add_var(0.0, 10.0, 1.0, true);
        m.add_cons(vec![(y, 2.0)], Op::Ge, 3.0);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(y), 2);
        // Without integrality the search ends at the root relaxation.
        let mut relaxed = Model::new();
        let y = relaxed.add_var(0.0, 10.0, 1.0, false);
        relaxed.add_cons(vec![(y, 2.0)], Op::Ge, 3.0);
        assert!((relaxed.solve().value(y) - 1.5).abs() < 1e-7);
    }

    #[test]
    fn infeasible_integer_problem() {
        // 0.4 <= x <= 0.6, x integer → infeasible.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, 0.0, true);
        m.add_cons(vec![(x, 1.0)], Op::Ge, 0.4);
        m.add_cons(vec![(x, 1.0)], Op::Le, 0.6);
        let s = m.solve();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn negative_integer_domain() {
        // min |x + 2| with x integer in [-5, 5] and x <= -4 → x = -4.
        let mut m = Model::new();
        let x = m.add_var(-5.0, 5.0, 0.0, true);
        m.add_cons(vec![(x, 1.0)], Op::Le, -4.0);
        m.add_abs_deviation(x, -2.0, 1.0);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(x), -4);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // min x + y, x integer, x + 2y >= 4.5, y in [0, 1] → x = 3, y = .75
        // vs x = 4, y = 0.25... compare: obj(3, 0.75) = 3.75; obj(4,0.25)=4.25;
        // x=2,y=1.25 infeasible (y<=1). So optimum 3.75.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, 1.0, true);
        let y = m.add_var(0.0, 1.0, 1.0, false);
        m.add_cons(vec![(x, 1.0), (y, 2.0)], Op::Ge, 4.5);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 3.75).abs() < 1e-6, "obj={}", s.objective);
        assert_eq!(s.int_value(x), 3);
    }

    #[test]
    fn equality_with_integers() {
        // 3x + 5y = 19, x,y >= 0 integers, min x+y → (3, 2).
        let mut m = Model::new();
        let x = m.add_var(0.0, 20.0, 1.0, true);
        let y = m.add_var(0.0, 20.0, 1.0, true);
        m.add_cons(vec![(x, 3.0), (y, 5.0)], Op::Eq, 19.0);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!((s.int_value(x), s.int_value(y)), (3, 2));
    }

    #[test]
    fn chord_bound_certifies_a_half_integer_target() {
        // min |x − 0.5| over integer x ∈ [−2, 2].  The LP relaxation puts
        // x at 0.5 with bound 0; the chord cut z ≥ 0.5 lifts the bound to
        // the optimum, so the first incumbent ends the search.
        let mut m = Model::new();
        let x = m.add_var(-2.0, 2.0, 0.0, true);
        m.add_abs_deviation(x, 0.5, 1.0);
        let mut relaxed = Model::new();
        let xr = relaxed.add_var(-2.0, 2.0, 0.0, false);
        relaxed.add_abs_deviation(xr, 0.5, 1.0);
        assert!(relaxed.solve().objective.abs() < 1e-9);
        let s = m.solve();
        let exhaustive = solve_branch_and_bound(&m, false);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 0.5).abs() < 1e-9, "obj={}", s.objective);
        assert!(s.bound_stop && !exhaustive.bound_stop);
        assert_eq!(s.values, exhaustive.values);
        assert!(
            s.nodes < exhaustive.nodes,
            "{} vs {}",
            s.nodes,
            exhaustive.nodes
        );
    }

    #[test]
    fn a_near_tied_warm_start_is_not_certified() {
        // min |x − 0.4998|: the warm start x = 1 costs 0.5002, 4e-4 above
        // the chord bound and the optimum x = 0.  The certificate accepts
        // an incumbent only within half the acceptance tolerance, so the
        // search must go on and find x = 0.
        let mut m = Model::new();
        let x = m.add_var(-2.0, 2.0, 0.0, true);
        m.add_abs_deviation(x, 0.4998, 1.0);
        m.set_warm_start(vec![1.0, 0.5002]);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(x), 0);
        assert!((s.objective - 0.4998).abs() < 1e-9, "obj={}", s.objective);
        assert!(s.bound_stop);
    }

    #[test]
    fn models_with_uncovered_integers_are_not_certified() {
        // An indicator model: the binary carries no deviation term, so the
        // search stays exhaustive although the root bound (2, with an
        // integer target) already matches the first incumbent.
        let mut m = Model::new();
        let x = m.add_var(-3.0, 3.0, 0.0, true);
        let c = m.add_binary(0.0);
        m.add_indicator(x, c, 3.0);
        m.add_cons(vec![(x, 1.0)], Op::Ge, 2.0);
        m.add_abs_deviation(x, 0.0, 1.0);
        let s = m.solve();
        let exhaustive = solve_branch_and_bound(&m, false);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-9, "obj={}", s.objective);
        assert!(!s.bound_stop);
        assert_eq!(s.nodes, exhaustive.nodes);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// One constraint `Σ a_i x_i <= b` of the brute-force model.
        type BruteCons = (Vec<i64>, i64);

        /// Brute-force reference for tiny integer programs.
        fn brute(n: usize, lo: i64, hi: i64, cost: &[i64], cons: &[BruteCons]) -> Option<i64> {
            #[allow(clippy::too_many_arguments)]
            fn rec(
                i: usize,
                x: &mut Vec<i64>,
                n: usize,
                lo: i64,
                hi: i64,
                cost: &[i64],
                cons: &[BruteCons],
                best: &mut Option<i64>,
            ) {
                if i == n {
                    for (a, b) in cons {
                        let s: i64 = a.iter().zip(x.iter()).map(|(ai, xi)| ai * xi).sum();
                        if s > *b {
                            return;
                        }
                    }
                    let obj: i64 = cost.iter().zip(x.iter()).map(|(c, xi)| c * xi).sum();
                    if best.is_none() || obj < best.unwrap() {
                        *best = Some(obj);
                    }
                    return;
                }
                for v in lo..=hi {
                    x.push(v);
                    rec(i + 1, x, n, lo, hi, cost, cons, best);
                    x.pop();
                }
            }
            let mut best = None;
            rec(0, &mut Vec::new(), n, lo, hi, cost, cons, &mut best);
            best
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn milp_matches_brute_force(
                cost in proptest::collection::vec(-4i64..=4, 3),
                cons in proptest::collection::vec(
                    (proptest::collection::vec(-3i64..=3, 3), -6i64..=8), 0..4),
            ) {
                let mut m = Model::new();
                let vars: Vec<_> = (0..3)
                    .map(|i| m.add_var(-2.0, 2.0, cost[i] as f64, true))
                    .collect();
                for (a, b) in &cons {
                    let terms: Vec<_> = vars
                        .iter()
                        .zip(a.iter())
                        .map(|(v, c)| (*v, *c as f64))
                        .collect();
                    m.add_cons(terms, Op::Le, *b as f64);
                }
                let got = m.solve();
                let want = brute(3, -2, 2, &cost, &cons);
                match want {
                    None => prop_assert_eq!(got.status, Status::Infeasible),
                    Some(obj) => {
                        prop_assert_eq!(got.status, Status::Optimal);
                        prop_assert!((got.objective - obj as f64).abs() < 1e-5,
                            "got {} want {}", got.objective, obj);
                        // The returned point must itself be feasible.
                        for (a, b) in &cons {
                            let s: f64 = vars.iter().zip(a.iter())
                                .map(|(v, c)| got.value(*v) * *c as f64).sum();
                            prop_assert!(s <= *b as f64 + 1e-6);
                        }
                    }
                }
            }
        }

        /// A small concentration model: `min Σ|k_i − a_i|` over integer
        /// tunings in windows that contain 0, under difference constraints
        /// `k_i − k_j ≤ w` (a unary `k_i ≤ w` when `i = j`), optionally with
        /// big-M indicator binaries and a budget on their sum.
        #[derive(Debug, Clone)]
        struct Concentration {
            windows: Vec<(i64, i64)>,
            cons: Vec<(usize, usize, i64)>,
            targets: Vec<f64>,
            budget: Option<usize>,
        }

        impl Concentration {
            fn feasible(&self, k: &[i64]) -> bool {
                let diffs = self.cons.iter().all(|&(i, j, w)| {
                    let lhs = if i == j { k[i] } else { k[i] - k[j] };
                    lhs <= w
                });
                diffs
                    && self
                        .budget
                        .is_none_or(|b| k.iter().filter(|v| **v != 0).count() <= b)
            }

            fn cost(&self, k: &[i64]) -> f64 {
                k.iter()
                    .zip(&self.targets)
                    .map(|(v, a)| (*v as f64 - a).abs())
                    .sum()
            }

            /// Every feasible integer point, in lexicographic order.
            fn feasible_points(&self) -> Vec<Vec<i64>> {
                let mut out = Vec::new();
                let mut k: Vec<i64> = self.windows.iter().map(|w| w.0).collect();
                loop {
                    if self.feasible(&k) {
                        out.push(k.clone());
                    }
                    let mut i = 0;
                    while i < k.len() && k[i] == self.windows[i].1 {
                        k[i] = self.windows[i].0;
                        i += 1;
                    }
                    if i == k.len() {
                        return out;
                    }
                    k[i] += 1;
                }
            }

            /// The model in `concentrate`'s variable order (tunings,
            /// binaries, deviations), warm-started at `warm` if given.
            fn model(&self, warm: Option<&[i64]>) -> Model {
                let mut m = Model::new();
                let ks: Vec<_> = self
                    .windows
                    .iter()
                    .map(|&(lo, hi)| m.add_var(lo as f64, hi as f64, 0.0, true))
                    .collect();
                if let Some(budget) = self.budget {
                    let mut cterms = Vec::new();
                    for (i, &(lo, hi)) in self.windows.iter().enumerate() {
                        let c = m.add_binary(0.0);
                        m.add_indicator(ks[i], c, (lo.abs().max(hi.abs()) as f64).max(1.0));
                        cterms.push((c, 1.0));
                    }
                    m.add_cons(cterms, Op::Le, budget as f64);
                }
                for &(i, j, w) in &self.cons {
                    let terms = if i == j {
                        vec![(ks[i], 1.0)]
                    } else {
                        vec![(ks[i], 1.0), (ks[j], -1.0)]
                    };
                    m.add_cons(terms, Op::Le, w as f64);
                }
                for (&k, &a) in ks.iter().zip(&self.targets) {
                    m.add_abs_deviation(k, a, 1.0);
                }
                if let Some(k) = warm {
                    let mut point: Vec<f64> = k.iter().map(|v| *v as f64).collect();
                    if self.budget.is_some() {
                        point.extend(k.iter().map(|v| if *v != 0 { 1.0 } else { 0.0 }));
                    }
                    point.extend(
                        k.iter()
                            .zip(&self.targets)
                            .map(|(v, a)| (*v as f64 - a).abs()),
                    );
                    m.set_warm_start(point);
                }
                m
            }
        }

        prop_compose! {
            fn concentration()(
                windows in proptest::collection::vec((-3i64..=0, 0i64..=3), 1..5),
                cons in proptest::collection::vec((0usize..4, 0usize..4, -3i64..=3), 0..6),
                // Integer, half-integer, near-tied (the two roundings of
                // 0.4998 differ by 4e-4) and generic fractional targets.
                targets in proptest::collection::vec(
                    (-3i64..=3, prop_oneof![Just(0.0), Just(0.5), Just(0.4998), 0.05f64..0.95]),
                    4,
                ),
                budget in prop_oneof![Just(None), (0usize..4).prop_map(Some)],
            ) -> Concentration {
                let n = windows.len();
                Concentration {
                    cons: cons.into_iter().filter(|c| c.0 < n && c.1 < n).collect(),
                    targets: targets[..n].iter().map(|(t, f)| *t as f64 + f).collect(),
                    windows,
                    budget,
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn certified_search_matches_the_exhaustive_search(
                problem in concentration(),
                warm in prop_oneof![Just(None), (0usize..10_000).prop_map(Some)],
            ) {
                let points = problem.feasible_points();
                let warm = warm.filter(|_| !points.is_empty()).map(|w| &points[w % points.len()]);
                let m = problem.model(warm.map(|k| k.as_slice()));
                let got = m.solve();
                let want = solve_branch_and_bound(&m, false);
                prop_assert_eq!(got.status, want.status);
                prop_assert_eq!(got.objective.to_bits(), want.objective.to_bits());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got.values), bits(&want.values));
                if problem.budget.is_some() {
                    prop_assert!(!got.bound_stop, "indicator models are not certified");
                }
                let brute = points
                    .iter()
                    .map(|k| problem.cost(k))
                    .min_by(|a, b| a.total_cmp(b));
                match brute {
                    None => prop_assert_eq!(got.status, Status::Infeasible),
                    Some(best) => {
                        prop_assert_eq!(got.status, Status::Optimal);
                        prop_assert!((got.objective - best).abs() < 1e-6,
                            "got {} want {best} for {problem:?}", got.objective);
                    }
                }
            }
        }
    }
}
