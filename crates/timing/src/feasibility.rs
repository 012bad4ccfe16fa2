//! Difference-constraint feasibility via SPFA with negative-cycle detection.
//!
//! A system `x_to − x_from ≤ w` over integer variables is feasible iff the
//! constraint graph (arc `from → to` with weight `w`) has no negative
//! cycle; shortest-path distances from a source are then a witness
//! assignment.  Every system here is bounded: the solver turns each
//! variable's window `lo ≤ x ≤ hi` into arcs to and from a root variable
//! pinned to zero, and runs one SPFA loop from that root.  The loop
//! records parent arcs only for [`DiffSolver::decide_bounded_cycle`],
//! which reports the arcs of a negative cycle it finds.
//!
//! This is the workhorse of the per-sample ILP (support-set feasibility
//! probes), the per-chip feasibility check behind the solver's screen,
//! yield evaluation and speed binning, and the independent verifier.  Every
//! call is a cold solve of the system it is given; the solver only keeps
//! its workspaces allocated across calls — including the combined-arc
//! scratch of the bounded forms, which upstream callers hit once per chip —
//! so no verdict depends on an earlier call.

/// One arc of the constraint graph: `x[to] − x[from] ≤ weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// Variable on the right-hand side.
    pub from: u32,
    /// Variable on the left-hand side.
    pub to: u32,
    /// Upper bound on the difference.
    pub weight: i64,
}

impl Arc {
    /// Convenience constructor for `x[to] − x[from] ≤ weight`.
    #[inline]
    pub fn new(from: u32, to: u32, weight: i64) -> Self {
        Self { from, to, weight }
    }
}

/// Result of a feasibility check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// A witness assignment of the variables, relative to the zero-pinned
    /// root.
    Feasible(Vec<i64>),
    /// The system contains a negative cycle.
    Infeasible,
}

impl Feasibility {
    /// The witness, if feasible.
    pub fn witness(&self) -> Option<&[i64]> {
        match self {
            Feasibility::Feasible(x) => Some(x),
            Feasibility::Infeasible => None,
        }
    }
}

/// Reusable SPFA solver.
#[derive(Debug, Default)]
pub struct DiffSolver {
    // CSR adjacency built per call.
    head: Vec<u32>,
    next_out: Vec<u32>,
    arc_to: Vec<u32>,
    arc_w: Vec<i64>,
    dist: Vec<i64>,
    /// Edge count of the current shortest path per node; reaching `n`
    /// proves a negative cycle (a simple path has at most `n − 1` arcs).
    path_len: Vec<u32>,
    in_queue: Vec<bool>,
    queue: std::collections::VecDeque<u32>,
    /// Scratch for the bounded forms: input arcs + bound arcs combined.
    bound_arcs: Vec<Arc>,
    /// Parent arc per node, recorded only when a cycle is asked for.
    parent_arc: Vec<u32>,
}

const NO_ARC: u32 = u32::MAX;
/// Distances are clamped well below `i64::MAX` so additions cannot overflow.
const INF: i64 = i64::MAX / 4;

impl DiffSolver {
    /// Creates a solver with empty workspaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Witness value of variable `i` after a feasible solve (a variable
    /// the SPFA never reached defaults to 0).
    #[inline]
    fn witness_value(&self, i: usize) -> i64 {
        if self.dist[i] >= INF {
            0
        } else {
            self.dist[i]
        }
    }

    /// Feasibility of a bounded system: `x[to] − x[from] ≤ w` plus
    /// `lo_i ≤ x_i ≤ hi_i` with the root variable (index `n`, added
    /// internally) pinned to zero.
    ///
    /// This is the form the insertion flow uses: `bounds[i]` are the buffer
    /// range windows in steps, and any FF without a buffer is simply not a
    /// variable here (the caller contracts it into the root).  Arcs may
    /// name the root index `n` too.
    ///
    /// # Panics
    ///
    /// Panics if any `lo > hi` or an arc references a variable `> n`.
    pub fn solve_bounded(&mut self, n: usize, arcs: &[Arc], bounds: &[(i64, i64)]) -> Feasibility {
        if self.solve_bounded_core(n, arcs, bounds, None) {
            let witness: Vec<i64> = (0..n).map(|i| self.witness_value(i)).collect();
            Feasibility::Feasible(witness)
        } else {
            Feasibility::Infeasible
        }
    }

    /// Decides feasibility of a bounded system without materialising a
    /// witness vector — for callers that probe many small, unrelated
    /// systems (the support branch-and-bound, the per-chip check).
    /// Retrieve the witness of a feasible call with
    /// [`DiffSolver::copy_witness`].
    pub fn decide_bounded(&mut self, n: usize, arcs: &[Arc], bounds: &[(i64, i64)]) -> bool {
        self.solve_bounded_core(n, arcs, bounds, None)
    }

    /// Like [`DiffSolver::decide_bounded`], but on infeasibility writes
    /// the *arc indices* of one negative cycle into `cycle` (cleared
    /// first).  Indices `< arcs.len()` refer to the caller's arcs; larger
    /// ones are the internal window bound arcs (`arcs.len() + 2·i` is
    /// variable `i`'s upper-bound arc, `… + 2·i + 1` its lower).
    ///
    /// The verdict and a feasible call's witness are exactly
    /// [`DiffSolver::decide_bounded`]'s.  An infeasible call can leave
    /// `cycle` empty: when the walk back from the node that proved the
    /// cycle reaches the root before it closes a loop (see
    /// `extract_cycle`), or when only the closing re-check of the arcs
    /// failed.  Callers treat an empty cycle as "infeasible, cause
    /// unknown".
    pub fn decide_bounded_cycle(
        &mut self,
        n: usize,
        arcs: &[Arc],
        bounds: &[(i64, i64)],
        cycle: &mut Vec<u32>,
    ) -> bool {
        cycle.clear();
        self.solve_bounded_core(n, arcs, bounds, Some(cycle))
    }

    /// The one bound-arc builder: combines `arcs` with the window arcs of
    /// every variable in the reusable scratch buffer and runs the SPFA
    /// from the root, leaving the witness in `self.dist`.
    fn solve_bounded_core(
        &mut self,
        n: usize,
        arcs: &[Arc],
        bounds: &[(i64, i64)],
        cycle: Option<&mut Vec<u32>>,
    ) -> bool {
        assert_eq!(bounds.len(), n, "one bound pair per variable");
        let root = n as u32;
        let mut all = std::mem::take(&mut self.bound_arcs);
        all.clear();
        all.reserve(arcs.len() + 2 * n);
        all.extend_from_slice(arcs);
        for (i, (lo, hi)) in bounds.iter().enumerate() {
            assert!(lo <= hi, "bound lo > hi for variable {i}");
            // x_i − root ≤ hi  and  root − x_i ≤ −lo.
            all.push(Arc::new(root, i as u32, *hi));
            all.push(Arc::new(i as u32, root, -*lo));
        }
        let feasible = self.spfa(n + 1, root, &all, cycle);
        self.bound_arcs = all;
        feasible
    }

    /// Allocation-free SPFA over `n` nodes from `source`; leaves the
    /// witness in `self.dist`.  Parent arcs are recorded only when
    /// `cycle` is given, and then a detected negative cycle's arc indices
    /// go into it.
    fn spfa(&mut self, n: usize, source: u32, arcs: &[Arc], cycle: Option<&mut Vec<u32>>) -> bool {
        // Build CSR.
        self.head.clear();
        self.head.resize(n, NO_ARC);
        self.next_out.clear();
        self.next_out.resize(arcs.len(), NO_ARC);
        self.arc_to.clear();
        self.arc_w.clear();
        for (k, a) in arcs.iter().enumerate() {
            assert!(
                (a.from as usize) < n && (a.to as usize) < n,
                "arc out of range"
            );
            self.arc_to.push(a.to);
            self.arc_w.push(a.weight);
            self.next_out[k] = self.head[a.from as usize];
            self.head[a.from as usize] = k as u32;
        }
        self.dist.clear();
        self.dist.resize(n, INF);
        self.path_len.clear();
        self.path_len.resize(n, 0);
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        self.queue.clear();
        let track = cycle.is_some();
        if track {
            self.parent_arc.clear();
            self.parent_arc.resize(n, NO_ARC);
        }

        self.dist[source as usize] = 0;
        self.queue.push_back(source);
        self.in_queue[source as usize] = true;

        while let Some(u) = self.queue.pop_front() {
            self.in_queue[u as usize] = false;
            let du = self.dist[u as usize];
            let lu = self.path_len[u as usize];
            let mut k = self.head[u as usize];
            while k != NO_ARC {
                let v = self.arc_to[k as usize];
                let nd = du + self.arc_w[k as usize];
                if nd < self.dist[v as usize] {
                    self.dist[v as usize] = nd.max(-INF);
                    // A simple path has at most n − 1 arcs; reaching n arcs
                    // proves a negative cycle on the path.
                    self.path_len[v as usize] = lu + 1;
                    if track {
                        self.parent_arc[v as usize] = k;
                    }
                    if self.path_len[v as usize] >= n as u32 {
                        if let Some(cycle) = cycle {
                            self.extract_cycle(n, v, arcs, cycle);
                        }
                        return false;
                    }
                    if !self.in_queue[v as usize] {
                        self.in_queue[v as usize] = true;
                        self.queue.push_back(v);
                    }
                }
                k = self.next_out[k as usize];
            }
        }

        // Closing re-check: every arc must hold under the witness.
        for a in arcs {
            if self.witness_value(a.to as usize) - self.witness_value(a.from as usize) > a.weight {
                return false;
            }
        }
        true
    }

    /// Walks `n` parent arcs back from `v` (whose path length reached
    /// `n`) to land on a vertex inside a cycle of the parent graph, then
    /// collects that cycle's arc indices (each cycle vertex's entering
    /// parent arc); a cycle of parent arcs is always negative.
    ///
    /// The path lengths can run ahead of the parent chain: a node on `v`'s
    /// path may since have taken a cheaper path with fewer arcs from the
    /// source.  The walk then reaches the source, which has no parent arc,
    /// and `cycle` is left empty.
    fn extract_cycle(&self, n: usize, v: u32, arcs: &[Arc], cycle: &mut Vec<u32>) {
        let mut cur = v;
        for _ in 0..n {
            let pa = self.parent_arc[cur as usize];
            if pa == NO_ARC {
                return;
            }
            cur = arcs[pa as usize].from;
        }
        let start = cur;
        loop {
            let pa = self.parent_arc[cur as usize];
            cycle.push(pa);
            cur = arcs[pa as usize].from;
            if cur == start {
                break;
            }
        }
    }

    /// Copies the first `n` witness values of the most recent *feasible*
    /// solve into `out` (cleared first).  Only meaningful directly after a
    /// call that returned feasible.
    pub fn copy_witness(&self, n: usize, out: &mut Vec<i64>) {
        out.clear();
        out.extend((0..n).map(|i| self.witness_value(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_feasible_system() {
        let mut s = DiffSolver::new();
        // x1 - x0 <= 3, x2 - x1 <= -2, x2 - x0 <= 0
        let arcs = [Arc::new(0, 1, 3), Arc::new(1, 2, -2), Arc::new(0, 2, 0)];
        let sol = s.solve_bounded(3, &arcs, &[(-10, 10); 3]);
        let w = sol.witness().expect("feasible");
        assert!(w[1] - w[0] <= 3);
        assert!(w[2] - w[1] <= -2);
        assert!(w[2] - w[0] <= 0);
    }

    #[test]
    fn negative_cycle_is_infeasible() {
        let mut s = DiffSolver::new();
        // x1 - x0 <= -1 and x0 - x1 <= 0 → cycle weight -1.
        let arcs = [Arc::new(0, 1, -1), Arc::new(1, 0, 0)];
        assert_eq!(
            s.solve_bounded(2, &arcs, &[(-10, 10); 2]),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn bounded_feasible_and_witness_in_bounds() {
        let mut s = DiffSolver::new();
        // x0 - x1 <= -5 (x0 at least 5 below x1), bounds [-10, 10].
        let arcs = [Arc::new(1, 0, -5)];
        let sol = s.solve_bounded(2, &arcs, &[(-10, 10), (-10, 10)]);
        let w = sol.witness().expect("feasible");
        assert!(w[0] - w[1] <= -5);
        for &x in w {
            assert!((-10..=10).contains(&x));
        }
    }

    #[test]
    fn bounds_can_make_system_infeasible() {
        let mut s = DiffSolver::new();
        // Need x0 ≥ x1 + 5, but both are confined to [0, 2].
        let arcs = [Arc::new(0, 1, -5)];
        assert_eq!(
            s.solve_bounded(2, &arcs, &[(0, 2), (0, 2)]),
            Feasibility::Infeasible
        );
        // Loosening the bounds fixes it.
        assert!(s
            .solve_bounded(2, &arcs, &[(0, 7), (0, 2)])
            .witness()
            .is_some());
    }

    #[test]
    fn disconnected_but_violated_is_caught() {
        let mut s = DiffSolver::new();
        // 1 and 2 share no arc with variable 0, but their mutual
        // constraints are inconsistent: x2 - x1 <= -1, x1 - x2 <= 0.
        let arcs = [Arc::new(1, 2, -1), Arc::new(2, 1, 0)];
        assert_eq!(
            s.solve_bounded(3, &arcs, &[(-10, 10); 3]),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn solver_is_reusable() {
        let mut s = DiffSolver::new();
        let bounds = [(-10, 10); 2];
        for _ in 0..3 {
            assert!(s
                .solve_bounded(2, &[Arc::new(0, 1, 1)], &bounds)
                .witness()
                .is_some());
            assert_eq!(
                s.solve_bounded(2, &[Arc::new(0, 1, -1), Arc::new(1, 0, 0)], &bounds),
                Feasibility::Infeasible
            );
        }
    }

    #[test]
    fn tight_equality_chain() {
        // x1 = x0 + 2 exactly (both directions), x2 = x1 - 7.
        let mut s = DiffSolver::new();
        let arcs = [
            Arc::new(0, 1, 2),
            Arc::new(1, 0, -2),
            Arc::new(1, 2, -7),
            Arc::new(2, 1, 7),
        ];
        let w = s.solve_bounded(3, &arcs, &[(-10, 10); 3]);
        let w = w.witness().unwrap();
        assert_eq!(w[1] - w[0], 2);
        assert_eq!(w[2] - w[1], -7);
    }

    #[test]
    #[should_panic(expected = "bound lo > hi")]
    fn invalid_bounds_panic() {
        let mut s = DiffSolver::new();
        let _ = s.solve_bounded(1, &[], &[(3, 1)]);
    }

    /// Decodes an arc index reported by [`DiffSolver::decide_bounded_cycle`]
    /// back into the `(from, to, weight)` it stands for, mirroring the
    /// documented layout: indices `< arcs.len()` are caller arcs,
    /// `arcs.len() + 2·i` is variable `i`'s upper-bound arc (root → i,
    /// weight hi) and `arcs.len() + 2·i + 1` its lower-bound arc
    /// (i → root, weight −lo).
    fn decode_cycle_arc(
        idx: u32,
        n: usize,
        arcs: &[Arc],
        bounds: &[(i64, i64)],
    ) -> (u32, u32, i64) {
        let root = n as u32;
        let idx = idx as usize;
        if idx < arcs.len() {
            let a = &arcs[idx];
            (a.from, a.to, a.weight)
        } else {
            let off = idx - arcs.len();
            let i = (off / 2) as u32;
            if off.is_multiple_of(2) {
                (root, i, bounds[i as usize].1)
            } else {
                (i, root, -bounds[i as usize].0)
            }
        }
    }

    /// Asserts the reported cycle is closed (each arc's tail is the next
    /// arc's head — the extraction walks parent arcs backwards) and has
    /// negative total weight under the documented index encoding.
    fn assert_closed_negative_cycle(cycle: &[u32], n: usize, arcs: &[Arc], bounds: &[(i64, i64)]) {
        assert!(!cycle.is_empty(), "infeasible solve must report a cycle");
        let decoded: Vec<_> = cycle
            .iter()
            .map(|&i| decode_cycle_arc(i, n, arcs, bounds))
            .collect();
        let total: i64 = decoded.iter().map(|(_, _, w)| w).sum();
        assert!(total < 0, "cycle weight {total} not negative: {decoded:?}");
        for k in 0..decoded.len() {
            let next = decoded[(k + 1) % decoded.len()];
            assert_eq!(decoded[k].0, next.1, "cycle not closed: {decoded:?}");
        }
    }

    #[test]
    fn cycle_reports_caller_arc_indices() {
        let mut s = DiffSolver::new();
        // x0 − x1 ≤ −3 and x1 − x0 ≤ 2: the two caller arcs close a −1
        // cycle on their own; the windows are slack and take no part.
        let arcs = [Arc::new(1, 0, -3), Arc::new(0, 1, 2)];
        let bounds = [(-10i64, 10), (-10, 10)];
        let mut cycle = Vec::new();
        assert!(!s.decide_bounded_cycle(2, &arcs, &bounds, &mut cycle));
        assert!(!s.decide_bounded(2, &arcs, &bounds));
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1], "cycle must name the two caller arcs");
        assert_closed_negative_cycle(&cycle, 2, &arcs, &bounds);
    }

    #[test]
    fn cycle_reports_window_bound_arcs() {
        let mut s = DiffSolver::new();
        // x0 − x1 ≤ −5 is consistent on its own; only the windows
        // (x0 ≥ 3, x1 ≤ 3) close a negative cycle through the root.
        let arcs = [Arc::new(1, 0, -5)];
        let bounds = [(3i64, 10), (0, 3)];
        let mut cycle = Vec::new();
        assert!(!s.decide_bounded_cycle(2, &arcs, &bounds, &mut cycle));
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        // Caller arc 0, x0's lower-bound arc (1 + 2·0 + 1 = 2) and x1's
        // upper-bound arc (1 + 2·1 = 3).
        assert_eq!(sorted, vec![0, 2, 3]);
        assert_closed_negative_cycle(&cycle, 2, &arcs, &bounds);
    }

    #[test]
    fn cycle_variant_feasible_matches_plain_witness() {
        let mut s = DiffSolver::new();
        let arcs = [Arc::new(1, 0, -5)];
        let bounds = [(-10i64, 10), (-10, 10)];
        let mut cycle = vec![7]; // stale content must be cleared
        assert!(s.decide_bounded_cycle(2, &arcs, &bounds, &mut cycle));
        assert!(cycle.is_empty(), "feasible decide must clear the cycle");
        let mut w = Vec::new();
        s.copy_witness(2, &mut w);
        assert!(w[0] - w[1] <= -5);
        // Fixpoint distances are unique, so the cycle-tracking core must
        // land on the same witness as the plain decide path.
        let mut plain = DiffSolver::new();
        assert!(plain.decide_bounded(2, &arcs, &bounds));
        let mut pw = Vec::new();
        plain.copy_witness(2, &mut pw);
        assert_eq!(w, pw);
    }

    /// The walk back from the node whose path reached `n` arcs can reach
    /// the root: its path counts ran ahead of the parent chain.  The
    /// system has the shape the search's cascade bound builds (index 4 is
    /// the contracted root) and is infeasible through 1→3→2→1 (weight −4);
    /// the call reports that verdict with an empty cycle.
    #[test]
    fn cycle_walk_reaching_the_root_reports_no_cycle() {
        let arcs = [
            Arc::new(1, 3, 1),
            Arc::new(3, 2, -2),
            Arc::new(4, 0, -2),
            Arc::new(0, 1, 0),
            Arc::new(2, 1, -3),
        ];
        let bounds = [(-2i64, 0), (-1, 0), (0, 3), (0, 4)];
        let mut s = DiffSolver::new();
        assert!(!s.decide_bounded(4, &arcs, &bounds));
        let mut cycle = vec![7];
        assert!(!s.decide_bounded_cycle(4, &arcs, &bounds, &mut cycle));
        assert!(cycle.is_empty(), "the walk reached the root: {cycle:?}");
    }

    /// Small bounded systems of the cascade's shape, drawn from a fixed
    /// seed: the cycle-tracking call never panics, agrees with the plain
    /// decide on the verdict and (when feasible) on the witness, and any
    /// cycle it reports is closed and negative.
    #[test]
    fn cycle_decide_agrees_with_plain_decide_on_small_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5bf0_c1c1e);
        let (mut plain, mut tracked) = (DiffSolver::new(), DiffSolver::new());
        let (mut cycle, mut wp, mut wt) = (Vec::new(), Vec::new(), Vec::new());
        let mut arcs = Vec::new();
        let mut bounds = Vec::new();
        let (mut infeasible, mut reported) = (0u32, 0u32);
        for system in 0..200_000u32 {
            let n = rng.gen_range(4usize..=5);
            // Half of the systems also carry arcs on the root index `n`.
            let nodes = if system % 2 == 0 { n } else { n + 1 } as u32;
            arcs.clear();
            for _ in 0..rng.gen_range(4usize..=10) {
                let from = rng.gen_range(0..nodes);
                let mut to = rng.gen_range(0..nodes - 1);
                if to >= from {
                    to += 1;
                }
                arcs.push(Arc::new(from, to, rng.gen_range(-5i64..=5)));
            }
            bounds.clear();
            for _ in 0..n {
                let lo = rng.gen_range(-4i64..=0);
                let hi = if lo == 0 {
                    rng.gen_range(1i64..=4)
                } else {
                    rng.gen_range(0i64..=4)
                };
                bounds.push((lo, hi));
            }
            let feasible = plain.decide_bounded(n, &arcs, &bounds);
            let got = tracked.decide_bounded_cycle(n, &arcs, &bounds, &mut cycle);
            assert_eq!(got, feasible, "system {system}: {arcs:?} {bounds:?}");
            if feasible {
                assert!(cycle.is_empty());
                plain.copy_witness(n, &mut wp);
                tracked.copy_witness(n, &mut wt);
                assert_eq!(wt, wp, "system {system}: {arcs:?} {bounds:?}");
            } else {
                infeasible += 1;
                if !cycle.is_empty() {
                    reported += 1;
                    assert_closed_negative_cycle(&cycle, n, &arcs, &bounds);
                }
            }
        }
        // The sweep must exercise both verdicts and real cycles.
        assert!(
            infeasible > 10_000 && reported > 10_000,
            "{infeasible} {reported}"
        );
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A witness returned by the solver always satisfies every
            /// arc and every bound.
            #[test]
            fn witness_satisfies_system(
                n in 2usize..8,
                arcs in proptest::collection::vec((0u32..8, 0u32..8, -10i64..10), 0..20),
                hi in 0i64..15,
            ) {
                let arcs: Vec<Arc> = arcs
                    .into_iter()
                    .filter(|(a, b, _)| (*a as usize) < n && (*b as usize) < n)
                    .map(|(a, b, w)| Arc::new(a, b, w))
                    .collect();
                let bounds = vec![(-hi, hi); n];
                let mut s = DiffSolver::new();
                if let Feasibility::Feasible(w) = s.solve_bounded(n, &arcs, &bounds) {
                    for a in &arcs {
                        prop_assert!(w[a.to as usize] - w[a.from as usize] <= a.weight);
                    }
                    for &x in &w {
                        prop_assert!((-hi..=hi).contains(&x));
                    }
                }
            }

            /// Brute force agreement on tiny systems: the solver says
            /// feasible iff some assignment in the bound box works.
            #[test]
            fn agrees_with_brute_force(
                arcs in proptest::collection::vec((0u32..3, 0u32..3, -4i64..4), 0..8),
            ) {
                let arcs: Vec<Arc> =
                    arcs.into_iter().map(|(a, b, w)| Arc::new(a, b, w)).collect();
                let bounds = [(-2i64, 2i64); 3];
                let mut s = DiffSolver::new();
                let got = s.solve_bounded(3, &arcs, &bounds).witness().is_some();
                let mut any = false;
                for x0 in -2..=2i64 {
                    for x1 in -2..=2i64 {
                        for x2 in -2..=2i64 {
                            let x = [x0, x1, x2];
                            if arcs.iter().all(|a| {
                                x[a.to as usize] - x[a.from as usize] <= a.weight
                            }) {
                                any = true;
                            }
                        }
                    }
                }
                prop_assert_eq!(got, any);
            }
        }
    }
}
