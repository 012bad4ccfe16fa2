//! Yield evaluation on fresh Monte-Carlo samples, and the one per-chip
//! feasibility check behind it.
//!
//! A manufactured chip passes at clock period `T` iff its buffers can be
//! set so that every floored setup and hold bound holds: a bounded
//! difference-constraint system over the tuning variables.  Without
//! buffers that reduces to "every floored slack is non-negative".
//! [`ChipCheck`] decides it cold, one SPFA per chip on the chip's live
//! core, so yield evaluation needs no ILP at all.  The same check serves
//! the per-sample solver's whole-chip screen (each buffered FF its own
//! variable), [`Deployment::chip_passes`] (the grouped deployment, used by
//! the flow's yield pass) and speed binning.
//!
//! [`Deployment::build_arcs`] keeps the raw form — every arc, nothing
//! elided — for post-silicon configuration and the independent verifier,
//! which stays a separate check of the elision.

use crate::group::Grouping;
use psbi_timing::feasibility::{Arc, DiffSolver};
use psbi_timing::{ConstraintsView, SequentialGraph};
use serde::{Deserialize, Serialize};

const NONE: u32 = u32::MAX;

/// A tuning window widened to contain 0.
pub(crate) fn widened((lo, hi): (i64, i64)) -> (i64, i64) {
    (lo.min(0), hi.max(0))
}

/// The per-chip feasibility check: can the chip's tuning variables be set,
/// each inside its window, so that every setup and hold bound holds?
///
/// Only the chip's live core is solved.  With `k(ff)` confined to its
/// variable's window (0 where the FF is pinned), the left-hand side of
/// `k(a) − k(b) ≤ bound` never exceeds `hi(a) − lo(b)`, so a bound at or
/// above that saturation cap can never bind and its arc is left out; an
/// arc whose two ends share a variable (both pinned, or one group) reads
/// `0 ≤ bound`.  Only a variable that ends a live arc enters the solve.
/// Every other variable is limited by its own window alone, which is
/// satisfiable on its own (`lo ≤ hi`), so leaving it out cannot change the
/// verdict — and the system shrinks from every variable to the few around
/// the chip's tight bounds.
///
/// The fields are scratch, reused from chip to chip; every call is a cold
/// solve, so no verdict depends on an earlier chip.
#[derive(Debug, Default)]
pub struct ChipCheck {
    diff: DiffSolver,
    /// Per tuning variable: its index in the live core, or `NONE`.
    slot: Vec<u32>,
    arcs: Vec<Arc>,
    /// Window per live-core variable.
    windows: Vec<(i64, i64)>,
}

impl ChipCheck {
    /// Creates a check with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides one chip.  `var_of(ff)` is FF `ff`'s tuning variable, or
    /// `u32::MAX` when the FF is pinned to 0; `windows[v]` is variable
    /// `v`'s inclusive window in steps (it need not contain 0).
    pub fn feasible(
        &mut self,
        sg: &SequentialGraph,
        ic: ConstraintsView<'_>,
        var_of: impl Fn(u32) -> u32,
        windows: &[(i64, i64)],
    ) -> bool {
        self.slot.clear();
        self.slot.resize(windows.len(), NONE);
        self.arcs.clear();
        self.windows.clear();
        let window = |v: u32| {
            if v == NONE {
                (0, 0)
            } else {
                windows[v as usize]
            }
        };
        for (e, edge) in sg.edges.iter().enumerate() {
            let (vf, vt) = (var_of(edge.from), var_of(edge.to));
            let ((lo_f, hi_f), (lo_t, hi_t)) = (window(vf), window(vt));
            // Setup `k_from − k_to ≤ sb` is the arc to → from, hold
            // `k_to − k_from ≤ hb` the arc from → to.
            let setup = (ic.setup_bound[e], hi_f - lo_t);
            let hold = (ic.hold_bound[e], hi_t - lo_f);
            for (is_setup, (bound, cap)) in [(true, setup), (false, hold)] {
                if bound >= cap {
                    continue;
                }
                if vf == vt {
                    if bound < 0 {
                        return false;
                    }
                    continue;
                }
                let (sf, st) = (self.slot_of(vf, windows), self.slot_of(vt, windows));
                self.arcs.push(if is_setup {
                    Arc::new(st, sf, bound)
                } else {
                    Arc::new(sf, st, bound)
                });
            }
        }
        // Pinned ends are the root, whose index is the live-core size.
        let root = self.windows.len() as u32;
        for arc in &mut self.arcs {
            if arc.from == NONE {
                arc.from = root;
            }
            if arc.to == NONE {
                arc.to = root;
            }
        }
        self.diff
            .decide_bounded(self.windows.len(), &self.arcs, &self.windows)
    }

    /// Live-core index of variable `v` (entering it on first use), or
    /// `NONE` for a pinned end.
    fn slot_of(&mut self, v: u32, windows: &[(i64, i64)]) -> u32 {
        if v == NONE {
            return NONE;
        }
        if self.slot[v as usize] == NONE {
            self.slot[v as usize] = self.windows.len() as u32;
            self.windows.push(windows[v as usize]);
        }
        self.slot[v as usize]
    }
}

/// The final buffer deployment: which FFs share which physical buffer and
/// the buffer windows (in steps).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deployment {
    /// Per FF: physical buffer (group) id, or none.
    pub var_of_ff: Vec<u32>,
    /// Window per physical buffer.
    pub bounds: Vec<(i64, i64)>,
}

impl Deployment {
    /// A deployment with no buffers at all.
    pub fn none(n_ffs: usize) -> Self {
        Self {
            var_of_ff: vec![NONE; n_ffs],
            bounds: Vec::new(),
        }
    }

    /// Builds the deployment from a grouping result.
    pub fn from_grouping(n_ffs: usize, grouping: &Grouping) -> Self {
        let mut var_of_ff = vec![NONE; n_ffs];
        let mut bounds = Vec::with_capacity(grouping.groups.len());
        for (g, group) in grouping.groups.iter().enumerate() {
            for &ff in &group.members {
                var_of_ff[ff] = g as u32;
            }
            bounds.push((group.lo, group.hi));
        }
        Self { var_of_ff, bounds }
    }

    /// Number of physical buffers.
    pub fn num_buffers(&self) -> usize {
        self.bounds.len()
    }

    /// The saturation windows of the yield pass over this deployment (see
    /// [`psbi_timing::constraint`]): each buffered FF's group window
    /// widened to contain 0 — an ablation A4 window may exclude it, and
    /// the untuned check reads every bound against 0 — and `(0, 0)` for
    /// an FF without a buffer.
    pub(crate) fn saturation_windows(&self) -> Vec<(i64, i64)> {
        self.var_of_ff
            .iter()
            .map(|&v| match v {
                NONE => (0, 0),
                v => widened(self.bounds[v as usize]),
            })
            .collect()
    }

    /// Builds the raw constraint arcs of one sample: every setup and hold
    /// bound, nothing elided.  Returns `false` when a constraint between
    /// two bufferless FFs is violated (chip dead).
    ///
    /// `k(a) − k(b) ≤ w` becomes an arc `b → a` of weight `w`; the root
    /// variable is `self.num_buffers()`.
    pub fn build_arcs(
        &self,
        sg: &SequentialGraph,
        ic: ConstraintsView<'_>,
        arcs: &mut Vec<Arc>,
    ) -> bool {
        arcs.clear();
        let root = self.num_buffers() as u32;
        for (e, edge) in sg.edges.iter().enumerate() {
            let vf = self.var_of_ff[edge.from as usize];
            let vt = self.var_of_ff[edge.to as usize];
            let (vf, vt) = (
                if vf == NONE { root } else { vf },
                if vt == NONE { root } else { vt },
            );
            // Setup: k_from − k_to ≤ sb.
            let sb = ic.setup_bound[e];
            if vf == root && vt == root {
                if sb < 0 {
                    return false;
                }
            } else {
                arcs.push(Arc::new(vt, vf, sb));
            }
            // Hold: k_to − k_from ≤ hb.
            let hb = ic.hold_bound[e];
            if vf == root && vt == root {
                if hb < 0 {
                    return false;
                }
            } else {
                arcs.push(Arc::new(vf, vt, hb));
            }
        }
        true
    }

    /// Decides whether one sample chip can be configured with this
    /// deployment: the [`ChipCheck`] over its (possibly grouped) buffers.
    pub fn chip_passes(
        &self,
        sg: &SequentialGraph,
        ic: ConstraintsView<'_>,
        check: &mut ChipCheck,
    ) -> bool {
        check.feasible(sg, ic, |ff| self.var_of_ff[ff as usize], &self.bounds)
    }
}

/// Aggregated yield over an evaluation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct YieldReport {
    /// Chips evaluated.
    pub samples: usize,
    /// Chips passing without any buffer.
    pub baseline_pass: usize,
    /// Chips passing with the deployed buffers.
    pub buffered_pass: usize,
    /// Chips failing baseline but rescued by buffers.
    pub rescued: usize,
    /// Chips passing baseline but broken by buffers (possible when a
    /// window excludes zero).
    pub broken: usize,
}

impl YieldReport {
    /// Baseline yield in `[0, 1]`.
    pub fn yield_baseline(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.baseline_pass as f64 / self.samples as f64
    }

    /// Yield with buffers in `[0, 1]`.
    pub fn yield_buffered(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.buffered_pass as f64 / self.samples as f64
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &YieldReport) {
        self.samples += other.samples;
        self.baseline_pass += other.baseline_pass;
        self.buffered_pass += other.buffered_pass;
        self.rescued += other.rescued;
        self.broken += other.broken;
    }

    /// Records one chip outcome.
    pub fn record(&mut self, baseline: bool, buffered: bool) {
        self.samples += 1;
        if baseline {
            self.baseline_pass += 1;
        }
        if buffered {
            self.buffered_pass += 1;
        }
        if !baseline && buffered {
            self.rescued += 1;
        }
        if baseline && !buffered {
            self.broken += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Group;
    use psbi_timing::seq::SeqEdge;
    use psbi_timing::IntegerConstraints;
    use psbi_variation::CanonicalForm;

    fn graph(n: usize, edges: &[(u32, u32)]) -> SequentialGraph {
        SequentialGraph::from_parts(
            n,
            edges
                .iter()
                .map(|(a, b)| SeqEdge {
                    from: *a,
                    to: *b,
                    max_delay: CanonicalForm::constant(1.0),
                    min_delay: CanonicalForm::constant(1.0),
                })
                .collect(),
            vec![CanonicalForm::constant(1.0); n],
            vec![CanonicalForm::constant(1.0); n],
        )
    }

    fn ic(setup: &[i64], hold: &[i64]) -> IntegerConstraints {
        IntegerConstraints {
            setup_bound: setup.to_vec(),
            hold_bound: hold.to_vec(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The flow's yield pass skips the deployment check for a chip
        /// that passes untuned when every window contains 0: the zero
        /// assignment is then in every window, so `chip_passes` holds.
        /// Random small graphs (self-loops, edges inside a group), bounds
        /// that are all >= 0 or mixed, and grouped deployments whose
        /// windows contain 0.
        #[test]
        fn untuned_pass_implies_pass_when_windows_contain_zero(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..10);
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(1usize..20))
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            let sg = graph(n, &edges);
            let lo = if rng.gen_bool(0.7) { 0 } else { -3 };
            let setup: Vec<i64> = edges.iter().map(|_| rng.gen_range(lo..8)).collect();
            let hold: Vec<i64> = edges.iter().map(|_| rng.gen_range(lo..8)).collect();
            let groups = rng.gen_range(1u32..5);
            let dep = Deployment {
                var_of_ff: (0..n)
                    .map(|_| if rng.gen_bool(0.25) { NONE } else { rng.gen_range(0..groups) })
                    .collect(),
                bounds: (0..groups)
                    .map(|_| (rng.gen_range(-4i64..=0), rng.gen_range(0i64..=4)))
                    .collect(),
            };
            let chip = ic(&setup, &hold);
            if chip.feasible_at_zero() {
                proptest::prop_assert!(
                    dep.chip_passes(&sg, chip.as_view(), &mut ChipCheck::new()),
                    "edges {edges:?} setup {setup:?} hold {hold:?} deployment {dep:?}"
                );
            }
        }
    }

    #[test]
    fn no_buffers_chip_passes_iff_bounds_nonnegative() {
        let sg = graph(2, &[(0, 1)]);
        let dep = Deployment::none(2);
        let mut check = ChipCheck::new();
        assert!(dep.chip_passes(&sg, ic(&[0], &[0]).as_view(), &mut check));
        assert!(!dep.chip_passes(&sg, ic(&[-1], &[0]).as_view(), &mut check));
        assert!(!dep.chip_passes(&sg, ic(&[3], &[-2]).as_view(), &mut check));
    }

    #[test]
    fn buffer_rescues_setup_violation() {
        let sg = graph(2, &[(0, 1)]);
        let grouping = Grouping {
            groups: vec![Group {
                members: vec![1],
                lo: 0,
                hi: 5,
                usage: 1,
            }],
            dropped: vec![],
            correlated_pairs: 0,
            merged_pairs: 0,
        };
        let dep = Deployment::from_grouping(2, &grouping);
        let mut check = ChipCheck::new();
        // k0 − k1 ≤ −3: buffer on FF1 with window up to +5 fixes it.
        assert!(dep.chip_passes(&sg, ic(&[-3], &[9]).as_view(), &mut check));
        // But −7 is beyond the window.
        assert!(!dep.chip_passes(&sg, ic(&[-7], &[9]).as_view(), &mut check));
    }

    #[test]
    fn shared_buffer_cannot_fix_intra_group_violation() {
        // Both FFs in the same group: their relative shift is always 0.
        let sg = graph(2, &[(0, 1)]);
        let grouping = Grouping {
            groups: vec![Group {
                members: vec![0, 1],
                lo: -5,
                hi: 5,
                usage: 2,
            }],
            dropped: vec![],
            correlated_pairs: 1,
            merged_pairs: 1,
        };
        let dep = Deployment::from_grouping(2, &grouping);
        let mut check = ChipCheck::new();
        assert!(!dep.chip_passes(&sg, ic(&[-1], &[9]).as_view(), &mut check));
        assert!(dep.chip_passes(&sg, ic(&[0], &[9]).as_view(), &mut check));
    }

    #[test]
    fn window_excluding_zero_can_break_a_passing_chip() {
        // FF1's buffer window is [3, 5]: it ALWAYS delays FF1 by ≥ 3 steps.
        // Chip passes baseline (bounds 0) but hold on the edge then fails:
        // hold bound 2 < k1 − k0 = 3.
        let sg = graph(2, &[(0, 1)]);
        let grouping = Grouping {
            groups: vec![Group {
                members: vec![1],
                lo: 3,
                hi: 5,
                usage: 1,
            }],
            dropped: vec![],
            correlated_pairs: 0,
            merged_pairs: 0,
        };
        let dep = Deployment::from_grouping(2, &grouping);
        let mut check = ChipCheck::new();
        let c = ic(&[9], &[2]);
        let baseline = Deployment::none(2).chip_passes(&sg, c.as_view(), &mut check);
        assert!(baseline);
        assert!(!dep.chip_passes(&sg, c.as_view(), &mut check));
    }

    #[test]
    fn report_accounting() {
        let mut r = YieldReport::default();
        r.record(true, true);
        r.record(false, true);
        r.record(false, false);
        r.record(true, false);
        assert_eq!(r.samples, 4);
        assert_eq!(r.baseline_pass, 2);
        assert_eq!(r.buffered_pass, 2);
        assert_eq!(r.rescued, 1);
        assert_eq!(r.broken, 1);
        assert!((r.yield_baseline() - 0.5).abs() < 1e-12);
        let mut other = YieldReport::default();
        other.record(true, true);
        r.merge(&other);
        assert_eq!(r.samples, 5);
        assert_eq!(r.baseline_pass, 3);
    }
}
