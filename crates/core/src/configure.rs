//! Post-silicon configuration of a manufactured chip.
//!
//! The paper leaves "post-silicon testing and configuration of delay
//! buffers" as future work; with the difference-constraint view it comes
//! for free: the shortest-path potentials that witness feasibility *are* a
//! valid buffer configuration.  [`configure_chip`] additionally centres the
//! configuration inside its feasible box to maximise margin.

use crate::yield_eval::Deployment;
use psbi_timing::feasibility::{Arc, DiffSolver, Feasibility};
use psbi_timing::{IntegerConstraints, SequentialGraph};
use serde::{Deserialize, Serialize};

/// The per-buffer settings for one chip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipConfiguration {
    /// One setting (in steps, within the buffer's window) per physical
    /// buffer, in deployment order.
    pub settings: Vec<i64>,
}

/// Computes buffer settings for one measured chip, or `None` when the chip
/// cannot be rescued.
///
/// The witness from the feasibility check pins every buffer at its
/// *largest* feasible value (shortest-path distances); a second pass with
/// all arcs reversed pins the smallest values, and the returned setting is
/// the midpoint — a balanced configuration with slack on both sides.
pub fn configure_chip(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    deployment: &Deployment,
) -> Option<ChipConfiguration> {
    let mut solver = DiffSolver::new();
    let mut arcs: Vec<Arc> = Vec::new();
    if !deployment.build_arcs(sg, ic.as_view(), &mut arcs) {
        return None;
    }
    let n = deployment.num_buffers();
    let hi = match solver.solve_bounded(n, &arcs, &deployment.bounds) {
        Feasibility::Feasible(w) => w,
        Feasibility::Infeasible => return None,
    };
    // Lower envelope: negate the variable order by flipping every arc and
    // bound, solve, and negate back.
    let flipped: Vec<Arc> = arcs
        .iter()
        .map(|a| Arc::new(a.to, a.from, a.weight))
        .collect();
    let flipped_bounds: Vec<(i64, i64)> = deployment
        .bounds
        .iter()
        .map(|(lo, hi)| (-hi, -lo))
        .collect();
    let lo = match solver.solve_bounded(n, &flipped, &flipped_bounds) {
        Feasibility::Feasible(w) => w.into_iter().map(|v| -v).collect::<Vec<_>>(),
        Feasibility::Infeasible => return None,
    };
    // Midpoint, verified (midpoints of two feasible points need not be
    // feasible for *integer* rounding, so fall back to the hi witness).
    let mid: Vec<i64> = hi
        .iter()
        .zip(&lo)
        .map(|(h, l)| (h + l).div_euclid(2))
        .collect();
    let candidate = if verify(sg, ic, deployment, &mid) {
        mid
    } else {
        hi
    };
    Some(ChipConfiguration {
        settings: candidate,
    })
}

/// Checks that `settings` satisfies every constraint and window of the
/// deployment for this chip.
pub fn verify(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    deployment: &Deployment,
    settings: &[i64],
) -> bool {
    if settings.len() != deployment.num_buffers() {
        return false;
    }
    for (g, &(lo, hi)) in deployment.bounds.iter().enumerate() {
        if settings[g] < lo || settings[g] > hi {
            return false;
        }
    }
    let value = |ff: u32| -> i64 {
        let v = deployment.var_of_ff[ff as usize];
        if v == u32::MAX {
            0
        } else {
            settings[v as usize]
        }
    };
    for (e, edge) in sg.edges.iter().enumerate() {
        let (ki, kj) = (value(edge.from), value(edge.to));
        if ki - kj > ic.setup_bound[e] || kj - ki > ic.hold_bound[e] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{Group, Grouping};
    use psbi_timing::seq::SeqEdge;
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

    fn deployment_on(ffs_windows: &[(usize, i64, i64)], n_ffs: usize) -> Deployment {
        let grouping = Grouping {
            groups: ffs_windows
                .iter()
                .map(|(ff, lo, hi)| Group {
                    members: vec![*ff],
                    lo: *lo,
                    hi: *hi,
                    usage: 1,
                })
                .collect(),
            dropped: vec![],
            correlated_pairs: 0,
            merged_pairs: 0,
        };
        Deployment::from_grouping(n_ffs, &grouping)
    }

    fn ic(setup: &[i64], hold: &[i64]) -> IntegerConstraints {
        IntegerConstraints {
            setup_bound: setup.to_vec(),
            hold_bound: hold.to_vec(),
        }
    }

    #[test]
    fn configuration_is_verified_feasible() {
        let sg = graph(2, &[(0, 1)]);
        let dep = deployment_on(&[(1, -2, 8)], 2);
        let c = ic(&[-3], &[10]);
        let conf = configure_chip(&sg, &c, &dep).expect("rescuable");
        assert!(verify(&sg, &c, &dep, &conf.settings));
        assert!(
            conf.settings[0] >= 3,
            "needs at least +3, got {:?}",
            conf.settings
        );
    }

    #[test]
    fn midpoint_maximises_margin() {
        // Feasible k1 range is [3, 8]; midpoint should be 5 (integer floor
        // of 5.5).
        let sg = graph(2, &[(0, 1)]);
        let dep = deployment_on(&[(1, 0, 8)], 2);
        let c = ic(&[-3], &[100]);
        let conf = configure_chip(&sg, &c, &dep).expect("rescuable");
        assert!((4..=7).contains(&conf.settings[0]), "{:?}", conf.settings);
    }

    #[test]
    fn dead_chip_returns_none() {
        let sg = graph(2, &[(0, 1)]);
        let dep = deployment_on(&[(1, 0, 2)], 2);
        let c = ic(&[-5], &[100]); // needs +5, window caps at +2
        assert!(configure_chip(&sg, &c, &dep).is_none());
    }

    #[test]
    fn verify_rejects_out_of_window_and_violations() {
        let sg = graph(2, &[(0, 1)]);
        let dep = deployment_on(&[(1, 0, 4)], 2);
        let c = ic(&[-3], &[100]);
        assert!(!verify(&sg, &c, &dep, &[9])); // out of window
        assert!(!verify(&sg, &c, &dep, &[2])); // violates setup (needs ≥ 3)
        assert!(verify(&sg, &c, &dep, &[3]));
        assert!(!verify(&sg, &c, &dep, &[3, 0])); // wrong length
    }

    #[test]
    fn untouched_chip_gets_a_configuration_too() {
        let sg = graph(2, &[(0, 1)]);
        let dep = deployment_on(&[(1, 0, 4)], 2);
        let c = ic(&[5], &[5]); // already fine at zero
        let conf = configure_chip(&sg, &c, &dep).expect("configurable");
        assert!(verify(&sg, &c, &dep, &conf.settings));
    }
}
