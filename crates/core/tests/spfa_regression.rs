//! Regression test for a soundness bug found by the
//! `specialised_matches_reference` property test: the SPFA feasibility
//! solver used "relaxation count > V" as its negative-cycle criterion,
//! which falsely reports infeasibility on graphs where a node's distance
//! legitimately improves many times.  The sound criterion is a shortest
//! path reaching V arcs.  This instance is the minimal counterexample.

use psbi_core::group::{Group, Grouping};
use psbi_core::solve::{BufferSpace, PushObjective, SampleSolver, SolveRequest, SolverOptions};
use psbi_core::yield_eval::{ChipCheck, Deployment};
use psbi_timing::seq::SeqEdge;
use psbi_timing::{IntegerConstraints, SequentialGraph};
use psbi_variation::CanonicalForm;

fn setup() -> (SequentialGraph, IntegerConstraints) {
    let edges = [(0u32, 0u32), (2, 1), (1, 0), (0, 0), (1, 2), (0, 2), (2, 0)];
    let n = 3;
    let seq: Vec<SeqEdge> = edges
        .iter()
        .map(|(a, b)| SeqEdge {
            from: *a,
            to: *b,
            max_delay: CanonicalForm::constant(1.0),
            min_delay: CanonicalForm::constant(1.0),
        })
        .collect();
    let sg = SequentialGraph::from_parts(
        n,
        seq,
        vec![CanonicalForm::constant(1.0); n],
        vec![CanonicalForm::constant(1.0); n],
    );
    let ic = IntegerConstraints {
        setup_bound: vec![0, 2, 0, 0, -2, 0, 1],
        hold_bound: vec![0, 0, 1, 0, 2, 1, 1],
    };
    (sg, ic)
}

#[test]
fn feasible_chip_is_not_reported_dead() {
    let (sg, ic) = setup();
    let grouping = Grouping {
        groups: vec![
            Group {
                members: vec![0],
                lo: -5,
                hi: 5,
                usage: 1,
            },
            Group {
                members: vec![1],
                lo: -5,
                hi: 5,
                usage: 1,
            },
        ],
        dropped: vec![],
        correlated_pairs: 0,
        merged_pairs: 0,
    };
    let dep = Deployment::from_grouping(3, &grouping);
    let mut check = ChipCheck::new();
    // k = (-1, -2, 0) satisfies every constraint, so this chip passes.
    assert!(dep.chip_passes(&sg, ic.as_view(), &mut check));
}

#[test]
fn specialised_solver_finds_the_fix() {
    let (sg, ic) = setup();
    let mut space = BufferSpace::floating(3, 5);
    space.has_buffer[2] = false;
    let mut s = SampleSolver::new();
    let fast = s
        .solve(SolveRequest::new(
            &sg,
            ic.as_view(),
            &space,
            PushObjective::ToZero,
            &SolverOptions::default(),
        ))
        .result;
    let slow = s.solve_reference_milp(&sg, &ic, &space, PushObjective::ToZero);
    assert!(fast.feasible && slow.feasible);
    assert_eq!(fast.count(), slow.count());
    let fsum: i64 = fast.tunings.iter().map(|(_, k)| k.abs()).sum();
    let ssum: i64 = slow.tunings.iter().map(|(_, k)| k.abs()).sum();
    assert_eq!(fsum, ssum);
}
