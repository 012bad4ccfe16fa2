use super::*;
use crate::yield_eval::Deployment;
use psbi_timing::seq::SeqEdge;
use psbi_variation::CanonicalForm;

/// Builds a sequential graph with the given directed edges (delays are
/// irrelevant here: tests fill `IntegerConstraints` directly).
fn graph(n: usize, edges: &[(u32, u32)]) -> SequentialGraph {
    let seq_edges: Vec<SeqEdge> = edges
        .iter()
        .map(|(a, b)| SeqEdge {
            from: *a,
            to: *b,
            max_delay: CanonicalForm::constant(100.0),
            min_delay: CanonicalForm::constant(50.0),
        })
        .collect();
    SequentialGraph::from_parts(
        n,
        seq_edges,
        vec![CanonicalForm::constant(10.0); n],
        vec![CanonicalForm::constant(5.0); n],
    )
}

fn constraints(setup: &[i64], hold: &[i64]) -> IntegerConstraints {
    IntegerConstraints {
        setup_bound: setup.to_vec(),
        hold_bound: hold.to_vec(),
    }
}

/// Drives the unified entry point for the cold, stateless case the old
/// positional `solve` signature covered.
fn solve_plain(
    s: &mut SampleSolver,
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    space: &BufferSpace,
    push: PushObjective,
    opts: &SolverOptions,
) -> SampleResult {
    s.solve(SolveRequest::new(sg, ic.as_view(), space, push, opts))
        .result
}

/// A request with the cross-chip memo attached.
fn solve_memo(
    s: &mut SampleSolver,
    sg: &SequentialGraph,
    ic: ConstraintsView<'_>,
    space: &BufferSpace,
    push: PushObjective,
    opts: &SolverOptions,
    memo: &RegionMemo,
) -> SolveOutcome {
    s.solve(SolveRequest::new(sg, ic, space, push, opts).memo(memo))
}

fn check_valid(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    space: &BufferSpace,
    r: &SampleResult,
) {
    // Reconstruct the assignment and verify every constraint.
    let mut k = vec![0i64; sg.n_ffs];
    for (ff, v) in &r.tunings {
        assert!(space.has_buffer[*ff as usize], "tuned a bufferless FF");
        let (lo, hi) = space.bounds[*ff as usize];
        assert!(*v >= lo && *v <= hi, "tuning out of window");
        assert_ne!(*v, 0, "zero tunings must not be reported");
        k[*ff as usize] = *v;
    }
    for (e, edge) in sg.edges.iter().enumerate() {
        let (i, j) = (edge.from as usize, edge.to as usize);
        assert!(
            k[i] - k[j] <= ic.setup_bound[e],
            "setup violated on edge {e}: k={k:?}"
        );
        assert!(
            k[j] - k[i] <= ic.hold_bound[e],
            "hold violated on edge {e}: k={k:?}"
        );
    }
}

#[test]
fn no_violation_no_tuning() {
    let sg = graph(3, &[(0, 1), (1, 2)]);
    let ic = constraints(&[5, 3], &[2, 2]);
    let space = BufferSpace::floating(3, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(r.feasible && r.exact);
    assert!(r.tunings.is_empty());
}

#[test]
fn single_violation_needs_one_buffer() {
    let sg = graph(3, &[(0, 1), (1, 2)]);
    // Edge 0: k0 - k1 <= -3 → someone must move.
    let ic = constraints(&[-3, 5], &[5, 5]);
    let space = BufferSpace::floating(3, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(r.feasible && r.exact);
    assert_eq!(r.count(), 1, "tunings: {:?}", r.tunings);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn chained_violation_forces_two_buffers() {
    // 0 → 1 → 2.  Setup on (0,1) needs k1 ≥ k0 + 3.  FF0 has no buffer
    // (k0 = 0) so k1 ≥ 3.  Hold on (1,2): k2 − k1 ≤ 0 would allow k2 = 3…
    // make setup on (1,2) force k2 ≥ k1 too: k1 − k2 ≤ 0; and give FF2 a
    // hold constraint on a self-edge… simpler: require k1 ≥ 3 and
    // k1 − k2 ≤ 0 is satisfied by k2 = 0? No: k1 − k2 = 3 > 0.  So k2 must
    // also rise → two buffers.
    let sg = graph(3, &[(0, 1), (1, 2)]);
    let ic = constraints(&[-3, 0], &[10, 10]);
    let mut space = BufferSpace::floating(3, 20);
    space.has_buffer[0] = false;
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(r.feasible, "should be fixable");
    assert_eq!(r.count(), 2, "tunings: {:?}", r.tunings);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn unfixable_between_bufferless_ffs() {
    let sg = graph(2, &[(0, 1)]);
    let ic = constraints(&[-1], &[5]);
    let mut space = BufferSpace::floating(2, 20);
    space.has_buffer[0] = false;
    space.has_buffer[1] = false;
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible);
}

#[test]
fn window_too_small_is_infeasible() {
    let sg = graph(2, &[(0, 1)]);
    // Needs a relative shift of 30 but windows only allow ±10 each (20 total
    // relative shift < 30).
    let ic = constraints(&[-30], &[100]);
    let space = BufferSpace {
        has_buffer: vec![true; 2],
        bounds: vec![(-10, 10); 2],
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible);
}

#[test]
fn push_to_zero_minimises_magnitude() {
    let sg = graph(2, &[(0, 1)]);
    // k0 - k1 <= -4: solutions include k1 = 4 or k0 = -4 or splits, but
    // count is 1 either way; |k| must then be exactly 4.
    let ic = constraints(&[-4], &[100]);
    let space = BufferSpace::floating(2, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    let total: i64 = r.tunings.iter().map(|(_, k)| k.abs()).sum();
    assert_eq!(total, 4);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn push_to_targets_hits_target_when_free() {
    let sg = graph(2, &[(0, 1)]);
    // Violated: k0 - k1 <= -2. Target says FF1 should sit at 6.
    let ic = constraints(&[-2], &[100]);
    let space = BufferSpace::floating(2, 20);
    let targets = vec![0.0, 6.0];
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToTargets(&targets),
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    // The single-buffer solution closest to the targets: k1 = 6 is
    // feasible (0 - 6 <= -2) and |6-6| = 0 beats k1 = 2 (|2-6| = 4).
    assert_eq!(r.tunings, vec![(1, 6)]);
}

#[test]
fn hold_violation_fixed_with_negative_delay() {
    let sg = graph(2, &[(0, 1)]);
    // Hold violated: k1 - k0 <= -2 → delay the *launching* clock or advance
    // the capturing one; either way one buffer with |k| = 2.
    let ic = constraints(&[100], &[-2]);
    let space = BufferSpace::floating(2, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    let total: i64 = r.tunings.iter().map(|(_, k)| k.abs()).sum();
    assert_eq!(total, 2);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn asymmetric_windows_respected() {
    let sg = graph(2, &[(0, 1)]);
    let ic = constraints(&[-5], &[100]);
    // FF1 can only go up to +3; FF0 down to -8.  One buffer no longer
    // suffices via FF1 alone (needs +5 > 3), but FF0 at -5 works.
    let space = BufferSpace {
        has_buffer: vec![true; 2],
        bounds: vec![(-8, 2), (-2, 3)],
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    check_valid(&sg, &ic, &space, &r);
    assert_eq!(r.tunings[0].0, 0);
}

#[test]
fn self_loop_edges_are_handled() {
    // A FF feeding itself: k0 - k0 = 0 must satisfy both bounds; if the
    // bound is negative the chip is dead no matter what.
    let sg = graph(1, &[(0, 0)]);
    let ic = constraints(&[-1], &[5]);
    let space = BufferSpace::floating(1, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible, "self-loop violation cannot be tuned away");
}

#[test]
fn matches_reference_milp_on_fixed_cases() {
    type Case = (usize, Vec<(u32, u32)>, Vec<i64>, Vec<i64>);
    let cases: Vec<Case> = vec![
        (3, vec![(0, 1), (1, 2)], vec![-3, 5], vec![5, 5]),
        (
            3,
            vec![(0, 1), (1, 2), (0, 2)],
            vec![-2, -2, 4],
            vec![9, 9, 9],
        ),
        (
            4,
            vec![(0, 1), (1, 2), (2, 3)],
            vec![-1, 0, -1],
            vec![4, 4, 4],
        ),
        (2, vec![(0, 1), (1, 0)], vec![-2, 1], vec![6, 6]),
    ];
    for (n, edges, setup, hold) in cases {
        let sg = graph(n, &edges);
        let ic = constraints(&setup, &hold);
        let space = BufferSpace::floating(n, 10);
        let mut s = SampleSolver::new();
        let fast = solve_plain(
            &mut s,
            &sg,
            &ic,
            &space,
            PushObjective::ToZero,
            &SolverOptions::default(),
        );
        let slow = s.solve_reference_milp(&sg, &ic, &space, PushObjective::ToZero);
        assert_eq!(fast.feasible, slow.feasible, "feasibility mismatch");
        if fast.feasible {
            assert_eq!(
                fast.count(),
                slow.count(),
                "count mismatch: fast {:?} slow {:?}",
                fast.tunings,
                slow.tunings
            );
            let fsum: i64 = fast.tunings.iter().map(|(_, k)| k.abs()).sum();
            let ssum: i64 = slow.tunings.iter().map(|(_, k)| k.abs()).sum();
            assert_eq!(fsum, ssum, "magnitude mismatch");
            check_valid(&sg, &ic, &space, &fast);
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The specialised solver and the reference MILP agree on
        /// feasibility, buffer count and total magnitude for random small
        /// instances.
        #[test]
        fn specialised_matches_reference(
            n in 3usize..6,
            raw_edges in proptest::collection::vec((0u32..6, 0u32..6), 1..8),
            raw_setup in proptest::collection::vec(-4i64..6, 8),
            raw_hold in proptest::collection::vec(-2i64..6, 8),
            bufferless in proptest::collection::vec(any::<bool>(), 6),
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let m = edges.len();
            let sg = graph(n, &edges);
            let ic = constraints(&raw_setup[..m], &raw_hold[..m]);
            let mut space = BufferSpace::floating(n, 5);
            for (has, off) in space.has_buffer.iter_mut().zip(&bufferless) {
                if *off {
                    *has = false;
                }
            }
            let mut s = SampleSolver::new();
            let fast = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &SolverOptions::default());
            let slow = s.solve_reference_milp(&sg, &ic, &space, PushObjective::ToZero);
            prop_assert_eq!(fast.feasible, slow.feasible,
                "feasibility: fast {:?} slow {:?}", fast, slow);
            if fast.feasible {
                prop_assert!(fast.exact);
                prop_assert_eq!(fast.count(), slow.count(),
                    "count: fast {:?} slow {:?}", &fast.tunings, &slow.tunings);
                let fsum: i64 = fast.tunings.iter().map(|(_, k)| k.abs()).sum();
                let ssum: i64 = slow.tunings.iter().map(|(_, k)| k.abs()).sum();
                prop_assert_eq!(fsum, ssum,
                    "magnitude: fast {:?} slow {:?}", &fast.tunings, &slow.tunings);
                check_valid(&sg, &ic, &space, &fast);
            }
        }

        /// The pruned search is bit-identical to the reference B&B —
        /// feasibility, support, witness and exactness — on random
        /// instances, while never visiting more nodes.
        #[test]
        fn pruned_search_matches_reference_bit_for_bit(
            n in 3usize..7,
            raw_edges in proptest::collection::vec((0u32..7, 0u32..7), 1..10),
            raw_setup in proptest::collection::vec(-4i64..6, 10),
            raw_hold in proptest::collection::vec(-2i64..6, 10),
            bufferless in proptest::collection::vec(any::<bool>(), 7),
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let m = edges.len();
            let sg = graph(n, &edges);
            let ic = constraints(&raw_setup[..m], &raw_hold[..m]);
            let mut space = BufferSpace::floating(n, 5);
            for (has, off) in space.has_buffer.iter_mut().zip(&bufferless) {
                if *off {
                    *has = false;
                }
            }
            let opts = SolverOptions::default();
            let ((pruned, pd), (reference, rd)) = solve_both_modes(&sg, &ic, &space, &opts);
            prop_assert_eq!(&pruned, &reference,
                "pruned vs reference diverged: {:?} vs {:?}", pd, rd);
            prop_assert!(pd.search_nodes <= rd.search_nodes,
                "pruned search visited {} nodes, reference {}", pd.search_nodes, rd.search_nodes);
            if pruned.feasible {
                check_valid(&sg, &ic, &space, &pruned);
            }
        }

        /// The cross-chip contract, end to end: (a) region solving is a
        /// pure function — two independent solvers given the same chip
        /// return bitwise-equal results; (b) two *different* chips whose
        /// bounds differ only above the saturation cap produce equal
        /// memo keys, so the second solve replays the first chip's
        /// outcomes through the shared memo and still matches its own
        /// cold solve bit for bit.  Half the cases draw a `region_cap`
        /// of 1–4, so some regions are oversized: the memo must skip
        /// them and the with-memo results must still equal the cold ones.
        #[test]
        fn equal_memo_keys_produce_bitwise_equal_outcomes(
            n in 3usize..6,
            raw_edges in proptest::collection::vec((0u32..6, 0u32..6), 1..8),
            raw_setup in proptest::collection::vec(-4i64..6, 8),
            raw_hold in proptest::collection::vec(-2i64..6, 8),
            bump in 1i64..5,
            region_cap in prop_oneof![1usize..5, Just(SolverOptions::default().region_cap)],
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let m = edges.len();
            let sg = graph(n, &edges);
            let ic = constraints(&raw_setup[..m], &raw_hold[..m]);
            // Floating ±2 windows: the saturation cap over any region is
            // at most 4, so every bound ≥ 4 is vacuous and clamps.
            let space = BufferSpace::floating(n, 2);
            let cap = 4i64;
            let opts = SolverOptions { region_cap, ..SolverOptions::default() };

            // (a) purity: independent solvers, bit-equal results.
            let mut s1 = SampleSolver::new();
            let mut s2 = SampleSolver::new();
            let one = s1.solve(SolveRequest::new(&sg, ic.as_view(), &space, PushObjective::ToZero, &opts)).result;
            let two = s2.solve(SolveRequest::new(&sg, ic.as_view(), &space, PushObjective::ToZero, &opts)).result;
            prop_assert_eq!(&one, &two, "region solving must be a pure function");

            // (b) chip B differs from chip A only in vacuous bounds.
            let bumped: Vec<i64> = raw_setup[..m]
                .iter()
                .map(|b| if *b >= cap { *b + bump } else { *b })
                .collect();
            let ic_b = constraints(&bumped, &raw_hold[..m]);
            let memo = RegionMemo::new();
            let via_a = solve_memo(&mut s1,
                &sg, ic.as_view(), &space, PushObjective::ToZero, &opts, &memo);
            prop_assert_eq!(&via_a.result, &one, "memo publish pass must stay cold-identical");
            let published = memo.len();
            if via_a.diag.regions_saturated == via_a.diag.regions_total {
                prop_assert_eq!(published, 0, "oversized regions must not be memoised");
            }
            let via_b = solve_memo(&mut s2,
                &sg, ic_b.as_view(), &space, PushObjective::ToZero, &opts, &memo);
            let cold_b = s1.solve(SolveRequest::new(&sg, ic_b.as_view(), &space, PushObjective::ToZero, &opts)).result;
            prop_assert_eq!(&via_b.result, &cold_b, "memo replay must match B's own cold solve");
            if published > 0 {
                // A had regions; B's saturation-equal system must replay
                // them rather than re-search (equal keys ⇒ hits).
                prop_assert!(via_b.diag.cross_chip_hits > 0,
                    "saturation-equal chips must share memo entries \
                     ({} published, B hit none)", published);
                prop_assert_eq!(memo.len(), published,
                    "B must not mint new keys for a saturation-equal system");
            }
        }

        /// Solutions are always valid assignments within windows.
        #[test]
        fn solutions_always_valid(
            n in 2usize..8,
            raw_edges in proptest::collection::vec((0u32..8, 0u32..8), 1..12),
            raw_setup in proptest::collection::vec(-6i64..8, 12),
            raw_hold in proptest::collection::vec(-3i64..8, 12),
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let m = edges.len();
            let sg = graph(n, &edges);
            let ic = constraints(&raw_setup[..m], &raw_hold[..m]);
            let space = BufferSpace::floating(n, 6);
            let mut s = SampleSolver::new();
            let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &SolverOptions::default());
            if r.feasible {
                check_valid(&sg, &ic, &space, &r);
            }
        }
    }

    /// The greedy the per-component walk replaced: drop one slot at a
    /// time in the pinned order (|value| ascending, ties to the lower
    /// slot), probing the whole region each time.  Returns `None` when
    /// the relaxation is infeasible.
    fn whole_region_greedy(
        ffs: &[u32],
        cons: &[RegCons],
        space: &BufferSpace,
    ) -> Option<(Vec<u32>, Vec<i64>)> {
        use psbi_timing::feasibility::Feasibility;
        let m = ffs.len();
        let probe = |included: &[bool]| -> Option<Vec<i64>> {
            let vars: Vec<usize> = (0..m).filter(|&i| included[i]).collect();
            let root = vars.len() as u32;
            let var = |ff: u32| {
                vars.iter()
                    .position(|&i| ffs[i] == ff)
                    .map_or(root, |v| v as u32)
            };
            let mut arcs = Vec::new();
            for c in cons {
                let (va, vb) = (var(c.a), var(c.b));
                if va == root && vb == root {
                    if c.bound < 0 {
                        return None;
                    }
                    continue;
                }
                arcs.push(FeasArc::new(vb, va, c.bound));
            }
            let bounds: Vec<(i64, i64)> = vars
                .iter()
                .map(|&i| space.bounds[ffs[i] as usize])
                .collect();
            match DiffSolver::new().solve_bounded(vars.len(), &arcs, &bounds) {
                Feasibility::Feasible(witness) => Some(witness),
                Feasibility::Infeasible => None,
            }
        };
        let full = probe(&vec![true; m])?;
        let mut included: Vec<bool> = full.iter().map(|&w| w != 0).collect();
        let mut order: Vec<usize> = (0..m).filter(|&i| full[i] != 0).collect();
        order.sort_by_key(|&i| full[i].abs());
        for i in order {
            included[i] = false;
            if probe(&included).is_none() {
                included[i] = true;
            }
        }
        let witness = probe(&included).expect("the greedy only drops while feasible");
        let support = (0..m).filter(|&i| included[i]).map(|i| ffs[i]).collect();
        Some((support, witness))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The per-component drop walk of an oversized region returns the
        /// whole-region greedy's support and witness bit for bit.  Each
        /// region holds several clusters, each seeded with one violated
        /// constraint plus random constraints inside it and to FFs
        /// outside the region, and some slots no constraint touches.
        /// Slots are shuffled so components interleave in slot order.
        #[test]
        fn component_walk_matches_whole_region_greedy(
            sizes in proptest::collection::vec(2usize..6, 2..5),
            seeds in proptest::collection::vec(1i64..4, 4),
            raw_cons in proptest::collection::vec((0usize..64, 0usize..64, -2i64..9), 0..24),
            outside in proptest::collection::vec((0usize..64, 0u32..3, -2i64..7), 0..6),
            isolated in 0usize..6,
            keys in proptest::collection::vec(0u32..1_000_000, 26),
            windows in proptest::collection::vec((1i64..4, 1i64..4), 26),
        ) {
            // Cluster `c` owns FFs `start[c] .. start[c] + sizes[c]`; the
            // isolated FFs follow, then three FFs outside the region.
            let mut start = vec![0usize];
            for s in &sizes {
                start.push(start.last().unwrap() + s);
            }
            let clustered = *start.last().unwrap();
            let m = clustered + isolated;
            let mut cons: Vec<RegCons> = Vec::new();
            for (c, &size) in sizes.iter().enumerate() {
                let a = start[c] as u32;
                cons.push(RegCons { a, b: a + 1, bound: -seeds[c] });
                for &(x, y, bound) in &raw_cons {
                    if x % sizes.len() != c {
                        continue;
                    }
                    let (a, b) = (start[c] + x / sizes.len() % size, start[c] + y % size);
                    if a != b {
                        cons.push(RegCons { a: a as u32, b: b as u32, bound });
                    }
                }
            }
            for &(x, o, bound) in &outside {
                let (inner, outer) = ((x % clustered) as u32, (m as u32) + o);
                cons.push(if x % 2 == 0 {
                    RegCons { a: inner, b: outer, bound }
                } else {
                    RegCons { a: outer, b: inner, bound }
                });
            }
            let mut space = BufferSpace::floating(m + 3, 5);
            for (ff, &(lo, hi)) in windows.iter().enumerate().take(m) {
                space.bounds[ff] = (-lo, hi);
            }
            let mut ffs: Vec<u32> = (0..m as u32).collect();
            ffs.sort_by_key(|&ff| keys[ff as usize]);
            let opts = SolverOptions { region_cap: 1, ..SolverOptions::default() };

            // One scratch for both orders, so the second search runs on
            // buffers the first one left behind.
            let mut scratch = SearchScratch::default();
            let reversed: Vec<u32> = ffs.iter().rev().copied().collect();
            for region in [&reversed, &ffs] {
                let mut slot_of = vec![NONE; m + 3];
                for (slot, &ff) in region.iter().enumerate() {
                    slot_of[ff as usize] = slot as u32;
                }
                let (outcome, _) =
                    scratch.search_region(region, &cons, &slot_of, &space, &opts, true);
                match (outcome, whole_region_greedy(region, &cons, &space)) {
                    (CachedOutcome::Infeasible, None) => {}
                    (CachedOutcome::Feasible { count, support, witness, exact }, Some(want)) => {
                        prop_assert!(!exact, "an oversized region is never exact");
                        prop_assert_eq!(count, support.len());
                        prop_assert_eq!((support, witness), want, "region {:?}, cons {:?}", region, cons);
                    }
                    (got, want) => prop_assert!(false, "feasibility diverged: {:?} vs {:?}", got, want),
                }
            }
        }
    }

    /// The constraint walk's reference: for each region in order, both
    /// sides of every edge touching one of its FFs that no earlier region
    /// took (FFs in order, out-edges before in-edges), each kept only
    /// below its cap.  Membership is a scan of the region's own `ffs`.
    fn scanned_region_cons(
        sg: &SequentialGraph,
        ic: &IntegerConstraints,
        space: &BufferSpace,
        regions: &[Region],
    ) -> Vec<Vec<RegCons>> {
        let mut taken = vec![false; sg.edges.len()];
        regions
            .iter()
            .map(|region| {
                let window = |ff: u32| {
                    if region.ffs.contains(&ff) {
                        space.bounds[ff as usize]
                    } else {
                        (0, 0)
                    }
                };
                let mut cons = Vec::new();
                for &ff in &region.ffs {
                    let ff = ff as usize;
                    for &e in sg.out_edges(ff).iter().chain(sg.in_edges(ff)) {
                        let e = e as usize;
                        if std::mem::replace(&mut taken[e], true) {
                            continue;
                        }
                        let edge = &sg.edges[e];
                        for (a, b, bound) in [
                            (edge.from, edge.to, ic.setup_bound[e]),
                            (edge.to, edge.from, ic.hold_bound[e]),
                        ] {
                            if bound < window(a).1 - window(b).0 {
                                cons.push(RegCons { a, b, bound });
                            }
                        }
                    }
                }
                cons
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Discovery plus the constraint walk attach to every region
        /// exactly the constraints, in the same order, that the scanning
        /// reference finds, and `slot_of` holds each member's index in
        /// its region's `ffs` and `NONE` for every other FF.  Each graph
        /// has several clusters, each with one violated edge, plus random
        /// edges (self-loops included) inside and between them, so a
        /// round holds several regions that larger radii merge; some FFs
        /// have no buffer and windows are asymmetric.
        #[test]
        fn constraint_walk_matches_a_member_scanning_reference(
            sizes in proptest::collection::vec(2usize..6, 2..5),
            raw_edges in proptest::collection::vec((0usize..64, 0usize..64, -3i64..8, -3i64..8), 0..24),
            cross in proptest::collection::vec((0usize..64, 0usize..64, -3i64..8), 0..3),
            bufferless in proptest::collection::vec(0u32..5, 20),
            windows in proptest::collection::vec((0i64..4, 0i64..4), 20),
            radius in 0usize..4,
        ) {
            let mut start = vec![0usize];
            for s in &sizes {
                start.push(start.last().unwrap() + s);
            }
            let n = *start.last().unwrap();
            let mut edges = Vec::new();
            let (mut setup, mut hold) = (Vec::new(), Vec::new());
            for (c, &first) in start[..sizes.len()].iter().enumerate() {
                edges.push((first as u32, first as u32 + 1));
                setup.push(-1 - c as i64);
                hold.push(5);
            }
            for &(x, y, s, h) in &raw_edges {
                let c = x % sizes.len();
                edges.push(((start[c] + x / sizes.len() % sizes[c]) as u32, (start[c] + y % sizes[c]) as u32));
                setup.push(s);
                hold.push(h);
            }
            for &(x, y, s) in &cross {
                edges.push(((x % n) as u32, (y % n) as u32));
                setup.push(s);
                hold.push(-s);
            }
            let sg = graph(n, &edges);
            let ic = constraints(&setup, &hold);
            let mut space = BufferSpace::floating(n, 4);
            for ff in 0..n {
                space.has_buffer[ff] = bufferless[ff] != 0;
                space.bounds[ff] = (-windows[ff].0, windows[ff].1);
            }
            let mut violated = Vec::new();
            ic.as_view().collect_violations(&sg, &mut violated);
            // Two rounds on one solver, the second on the scratch the
            // first left behind, as growth rounds run.
            let mut s = SampleSolver::new();
            for radius in [radius, 3 - radius] {
                let mut regions = s.collect_regions(&sg, &space, &violated, radius);
                prop_assert!(regions.iter().all(|r| r.cons.is_empty()));
                s.attach_cons(&sg, ic.as_view(), &space, &mut regions);
                let want = scanned_region_cons(&sg, &ic, &space, &regions);
                for (region, want) in regions.iter().zip(&want) {
                    let got: Vec<_> = region.cons.iter().map(|c| (c.a, c.b, c.bound)).collect();
                    let want: Vec<_> = want.iter().map(|c| (c.a, c.b, c.bound)).collect();
                    prop_assert_eq!(got, want, "radius {}, region {:?}", radius, region.ffs);
                }
                let mut slot_of = vec![NONE; n];
                for region in &regions {
                    for (slot, &ff) in region.ffs.iter().enumerate() {
                        prop_assert_eq!(slot_of[ff as usize], NONE, "FF {} in two regions", ff);
                        slot_of[ff as usize] = slot as u32;
                    }
                }
                prop_assert_eq!(&s.slot_of, &slot_of);
            }
        }
    }
}

#[test]
fn outcome_replay_rejects_aliased_surviving_systems() {
    // Vacuous-constraint elision makes the *surviving subset* of a
    // region's constraints vary between passes, so two materialised
    // systems can agree on every bound value positionally while
    // constraining different endpoint pairs.  The memo key must hold the
    // full (a, b, bound) triples, not just the bounds.
    let region = |cons: &[RegCons]| Region {
        ffs: vec![0, 1, 2],
        cons: cons.to_vec(),
        saturated: false,
    };
    let space = BufferSpace::floating(3, 2);
    let opts = SolverOptions::default();
    let mk = |a: u32, b: u32, bound: i64| RegCons { a, b, bound };
    let recorded = vec![mk(0, 1, 2), mk(1, 0, -1)];
    let memo = RegionMemo::new();
    memo.publish(
        MemoKey::capture(&region(&recorded), &space, &opts).unwrap(),
        Arc::new(CachedOutcome::Feasible {
            count: 1,
            support: vec![1],
            witness: vec![1],
            exact: true,
        }),
    );
    let replay = |cons: &[RegCons]| {
        memo.lookup(&MemoKey::capture(&region(cons), &space, &opts).unwrap())
            .is_some()
    };
    assert!(replay(&recorded), "identity replays");
    // Same length, same bound sequence, different surviving endpoints:
    // the (0,1) constraint was elided this pass and (1,2) survived.
    let aliased = vec![mk(1, 2, 2), mk(1, 0, -1)];
    assert!(
        !replay(&aliased),
        "an aliased surviving system must not replay"
    );
}

#[test]
fn cross_chip_memo_replays_identical_region_systems() {
    // Two different "chips" with the same violated pattern and bounds
    // produce the same saturation-normalised region system; the second
    // solve — through a *fresh* solver, as a different worker would —
    // must hit the shared memo and still match a cold solve bit for bit.
    let sg = graph(4, &[(0, 1), (1, 2), (2, 3)]);
    let ic = constraints(&[-3, 2, 5], &[6, 6, 6]);
    let space = BufferSpace::floating(4, 20);
    let opts = SolverOptions::default();
    let memo = RegionMemo::new();

    let mut first = SampleSolver::new();
    let a = solve_memo(
        &mut first,
        &sg,
        ic.as_view(),
        &space,
        PushObjective::ToZero,
        &opts,
        &memo,
    );
    assert_eq!(
        a.diag.cross_chip_hits, 0,
        "first chip must publish, not hit"
    );
    assert!(!memo.is_empty(), "first chip must publish its regions");

    let mut second = SampleSolver::new();
    let b = solve_memo(
        &mut second,
        &sg,
        ic.as_view(),
        &space,
        PushObjective::ToZero,
        &opts,
        &memo,
    );
    assert!(b.diag.cross_chip_hits > 0, "identical system must memo-hit");
    let mut cold = SampleSolver::new();
    let want = cold
        .solve(SolveRequest::new(
            &sg,
            ic.as_view(),
            &space,
            PushObjective::ToZero,
            &opts,
        ))
        .result;
    assert_eq!(a.result, want);
    assert_eq!(b.result, want, "memo replay must be bit-identical to cold");

    // A shifted *binding* bound is a different system: no false hit.
    let shifted = constraints(&[-2, 2, 5], &[6, 6, 6]);
    let c = solve_memo(
        &mut second,
        &sg,
        shifted.as_view(),
        &space,
        PushObjective::ToZero,
        &opts,
        &memo,
    );
    assert_eq!(c.diag.cross_chip_hits, 0, "changed bound must miss");
    let want_shifted = cold
        .solve(SolveRequest::new(
            &sg,
            shifted.as_view(),
            &space,
            PushObjective::ToZero,
            &opts,
        ))
        .result;
    assert_eq!(c.result, want_shifted);
}

#[test]
fn tie_breaking_is_pinned_and_cache_replay_matches() {
    // k0 − k1 ≤ −4 admits two optimal single-buffer supports ({0} at −4
    // or {1} at +4).  The pinned DFS order (most-covering endpoint, ties
    // to the lowest region slot, In before Out) must return the same one
    // every time — cold, freshly published to the memo, and replayed.
    let sg = graph(2, &[(0, 1)]);
    let ic = constraints(&[-4], &[100]);
    let space = BufferSpace::floating(2, 20);
    let opts = SolverOptions::default();
    let mut s = SampleSolver::new();
    let cold = s
        .solve(SolveRequest::new(
            &sg,
            ic.as_view(),
            &space,
            PushObjective::None,
            &opts,
        ))
        .result;
    assert_eq!(cold.count(), 1);
    // Lowest-slot tie-break: FF0 is branched In first and accepted.
    assert_eq!(cold.tunings[0].0, 0, "tie must break to the lowest slot");
    let memo = RegionMemo::new();
    let fresh = solve_memo(
        &mut s,
        &sg,
        ic.as_view(),
        &space,
        PushObjective::None,
        &opts,
        &memo,
    );
    assert_eq!(fresh.diag.cross_chip_hits, 0, "first memo solve searches");
    let replayed = solve_memo(
        &mut s,
        &sg,
        ic.as_view(),
        &space,
        PushObjective::None,
        &opts,
        &memo,
    );
    assert!(
        replayed.diag.cross_chip_hits >= 1,
        "second solve must replay"
    );
    assert_eq!(replayed.diag.search_nodes, 0, "a replay runs no search");
    assert_eq!(cold, fresh.result);
    assert_eq!(cold, replayed.result);
}

#[test]
fn cached_outcome_survives_push_objective_changes() {
    // The search outcome is push-independent: an A1-style (count-only)
    // pass publishes to the memo, and a push-to-zero pass on the same
    // inputs replays the support while still running its own
    // concentration — matching a cold solve bit for bit.
    let sg = graph(3, &[(0, 1), (1, 2), (0, 2)]);
    let ic = constraints(&[-2, -2, 4], &[9, 9, 9]);
    let space = BufferSpace::floating(3, 10);
    let opts = SolverOptions::default();
    let mut s = SampleSolver::new();
    let memo = RegionMemo::new();
    let a1 = solve_memo(
        &mut s,
        &sg,
        ic.as_view(),
        &space,
        PushObjective::None,
        &opts,
        &memo,
    );
    let a3 = solve_memo(
        &mut s,
        &sg,
        ic.as_view(),
        &space,
        PushObjective::ToZero,
        &opts,
        &memo,
    );
    assert!(
        a3.diag.cross_chip_hits > a1.diag.cross_chip_hits,
        "support must replay"
    );
    let mut cold_solver = SampleSolver::new();
    let cold_a1 = cold_solver
        .solve(SolveRequest::new(
            &sg,
            ic.as_view(),
            &space,
            PushObjective::None,
            &opts,
        ))
        .result;
    let cold_a3 = cold_solver
        .solve(SolveRequest::new(
            &sg,
            ic.as_view(),
            &space,
            PushObjective::ToZero,
            &opts,
        ))
        .result;
    assert_eq!(a1.result, cold_a1);
    assert_eq!(a3.result, cold_a3);
}

#[test]
fn oversized_region_falls_back_to_sparsified_witness() {
    // A long chain with one violation; region_cap 2 forces the greedy
    // fallback, which must still produce a valid (if non-minimal) fix.
    let n = 12;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![6i64; n - 1];
    setup[5] = -3; // violation mid-chain
    let hold = vec![8i64; n - 1];
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions {
        region_cap: 2,
        ..SolverOptions::default()
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &opts);
    assert!(r.feasible);
    assert!(!r.exact, "cap forces the inexact path");
    check_valid(&sg, &ic, &space, &r);
    // Sparsification keeps the fix small even without exact search.
    assert!(r.count() <= 4, "sparsified count {} too large", r.count());

    // The memo holds only branch-and-bound regions: with it attached, the
    // capped chain solves to the memo-less result and the table stays
    // empty, so a second solve finds nothing to replay.
    let memo = RegionMemo::new();
    let solve = |s: &mut SampleSolver, opts: &SolverOptions| {
        solve_memo(
            s,
            &sg,
            ic.as_view(),
            &space,
            PushObjective::ToZero,
            opts,
            &memo,
        )
    };
    for _ in 0..2 {
        let capped = solve(&mut s, &opts);
        assert_eq!(capped.result, r);
        assert!(capped.diag.regions_saturated > 0);
        assert_eq!(memo.len(), 0, "an oversized region must not be memoised");
        assert_eq!(capped.diag.cross_chip_hits, 0);
    }
    // At the default cap the same region is searched and published, and a
    // second solve replays it.
    let default = SolverOptions::default();
    let first = solve(&mut s, &default);
    assert_eq!(first.diag.regions_saturated, 0);
    assert!(
        !memo.is_empty(),
        "a branch-and-bound region must be published"
    );
    let second = solve(&mut s, &default);
    assert!(
        second.diag.cross_chip_hits > 0,
        "a published region must replay"
    );
    assert_eq!(second.result, first.result);
}

#[test]
fn node_cap_fallback_is_still_valid() {
    // Dense mutually-constrained instance with a tiny node budget.
    let n = 8;
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if i != j && (i + j) % 2 == 0 {
                edges.push((i, j));
            }
        }
    }
    let sg = graph(n, &edges);
    let setup: Vec<i64> = (0..edges.len() as i64)
        .map(|e| if e % 5 == 0 { -2 } else { 4 })
        .collect();
    let hold = vec![6i64; edges.len()];
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 12);
    let opts = SolverOptions {
        bb_node_cap: 3,
        ..SolverOptions::default()
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::None, &opts);
    if r.feasible {
        check_valid(&sg, &ic, &space, &r);
    }
}

/// Runs the same cold request under the pruned search and the reference
/// B&B, returning both results with their search diagnostics.
fn solve_both_modes(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    space: &BufferSpace,
    opts: &SolverOptions,
) -> (
    (SampleResult, PassDiagnostics),
    (SampleResult, PassDiagnostics),
) {
    let run = |prune: bool| {
        let mut s = SampleSolver::new();
        let out = s.solve(
            SolveRequest::new(sg, ic.as_view(), space, PushObjective::ToZero, opts)
                .search_prune(prune),
        );
        (out.result, out.diag)
    };
    (run(true), run(false))
}

#[test]
fn search_pruning_parity_on_symmetric_hub() {
    // Six interchangeable leaves hang off a hub whose window is pinned
    // to [0, 0], with every hub→leaf edge violated: the unique fix tunes
    // all six leaves to +3 (the pinned hub merges the leaves into one
    // region but cannot absorb anything itself).  Slots 1..6 form one
    // symmetry class; on a region this small the cascade/covering bounds
    // conclude before the symmetry guards get a turn (the guard-link
    // construction itself is pinned white-box in
    // `symmetry_guard_links_pin_the_lowest_slot_representative`), but the
    // pruned search must still return the canonical outcome bit for bit.
    let n = 7;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    let sg = graph(n, &edges);
    let ic = constraints(&vec![-3; n - 1], &vec![100; n - 1]);
    let mut space = BufferSpace::floating(n, 10);
    space.bounds[0] = (0, 0);
    let opts = SolverOptions::default();
    let ((pruned, pd), (reference, rd)) = solve_both_modes(&sg, &ic, &space, &opts);
    assert_eq!(pruned, reference, "pruned search must be bit-identical");
    assert!(pruned.feasible && pruned.exact);
    check_valid(&sg, &ic, &space, &pruned);
    // Golden representative: the canonical support in ascending slot
    // order with the concentrated witness.
    let want: Vec<(u32, i64)> = (1..n as u32).map(|i| (i, 3)).collect();
    assert_eq!(pruned.tunings, want, "class representative drifted");
    assert!(
        pd.search_pruned_bound > 0,
        "the covering/cascade bound must fire: {pd:?}"
    );
    assert_eq!(
        rd.search_pruned_symmetry, 0,
        "the reference B&B runs no structural pruning rules"
    );
    assert!(
        pd.search_nodes <= rd.search_nodes,
        "pruned search visited {} nodes, reference {}",
        pd.search_nodes,
        rd.search_nodes
    );
}

#[test]
fn symmetry_guard_links_pin_the_lowest_slot_representative() {
    // White-box pin of the symmetry-class representative rule: six
    // leaves with identical windows hanging off a window-pinned hub are
    // one interchangeable class, so every leaf's In branch must be
    // guarded by exactly the *lower* leaves — the class's lowest slot is
    // the representative and carries no guard itself.  The hub's window
    // differs and its constraint row is not swap-invariant with any
    // leaf, so it gets no guards and guards nobody.
    let m = 7usize;
    let region_ffs: Vec<u32> = (0..m as u32).collect();
    let slot_of: Vec<u32> = (0..m as u32).collect();
    let mut cons = Vec::new();
    for i in 1..m as u32 {
        cons.push(RegCons {
            a: 0,
            b: i,
            bound: -3,
        });
        cons.push(RegCons {
            a: i,
            b: 0,
            bound: 100,
        });
    }
    let violated: Vec<usize> = cons
        .iter()
        .enumerate()
        .filter(|(_, c)| c.bound < 0)
        .map(|(i, _)| i)
        .collect();
    let mut bounds = vec![(-10i64, 10); m];
    bounds[0] = (0, 0);
    let mut solver = DiffSolver::new();
    let mut s = search::SupportSearch {
        solver: &mut solver,
        slot_of: &slot_of,
        region_ffs: &region_ffs,
        cons: &cons,
        violated: &violated,
        bounds: &bounds,
        best: None,
        node_cap: 1_000,
        exact: true,
        prune: true,
        stats: search::SearchStats::default(),
        vars_scratch: &mut Vec::new(),
        slot_scratch: &mut Vec::new(),
        arcs_scratch: &mut Vec::new(),
        bounds_scratch: &mut Vec::new(),
        ps: &mut Default::default(),
        comps: &mut Default::default(),
    };
    s.prepare_prune();
    for v in 0..m {
        let lo = s.ps.link_start[v] as usize;
        let hi = s.ps.link_start[v + 1] as usize;
        let links = &s.ps.links[lo..hi];
        if v == 0 {
            assert!(links.is_empty(), "the pinned hub must have no guards");
        } else {
            let want: Vec<u32> = (1..v as u32).collect();
            assert_eq!(
                links,
                &want[..],
                "slot {v}'s In branch must be guarded by every lower class member"
            );
        }
    }
}

#[test]
fn search_pruning_parity_on_cascade_chain() {
    // An equality-tied chain split by one violated edge: every zero-slack
    // edge pins its neighbours together, so fixing the violation drags a
    // whole half-chain along.  The reference B&B proves each too-small
    // subset infeasible one probe at a time; the cascade lower bound
    // (rule 3) prices the drag chain per node and cuts far earlier —
    // with the identical outcome.
    let n = 10;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![0i64; n - 1];
    let mut hold = vec![0i64; n - 1];
    setup[4] = -4;
    hold[4] = 100;
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions::default();
    let ((pruned, pd), (reference, rd)) = solve_both_modes(&sg, &ic, &space, &opts);
    assert_eq!(pruned, reference, "pruned search must be bit-identical");
    assert!(pruned.feasible && pruned.exact);
    check_valid(&sg, &ic, &space, &pruned);
    // Either half-chain shifted by 4 is optimal: five buffers.
    assert_eq!(pruned.count(), 5);
    assert!(
        pd.search_pruned_bound > 0,
        "the cascade/covering bound must fire on the drag chain: {pd:?}"
    );
    assert!(
        pd.search_nodes < rd.search_nodes,
        "pruned search visited {} nodes, reference {}",
        pd.search_nodes,
        rd.search_nodes
    );
}

#[test]
fn search_stats_pruned_total_sums_all_rules() {
    let stats = search::SearchStats {
        nodes: 10,
        pruned_bound: 3,
        pruned_symmetry: 1,
        fallback_probes: 7,
    };
    assert_eq!(stats.pruned_total(), 4);
}

#[test]
fn sparsified_fallback_support_is_pinned() {
    // Same fixture as `oversized_region_falls_back_to_sparsified_witness`
    // but pinning the exact outcome: the batched, per-component drop walk
    // in `SupportSearch::sparsify` must keep returning byte-identical
    // tunings to the one-at-a-time, whole-region greedy it replaced.
    let n = 12;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![6i64; n - 1];
    setup[5] = -3;
    let hold = vec![8i64; n - 1];
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions {
        region_cap: 2,
        ..SolverOptions::default()
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &opts);
    assert!(r.feasible);
    assert!(!r.exact);
    assert_eq!(r.tunings, vec![(6, 3)], "fallback support drifted");
}

/// Two violated clusters inside one buffered chain.  Every bound other
/// than the five listed is vacuous under saturation, so the chain's one
/// region splits into two constraint components, `{2, 3, 4}` and
/// `{7, 8, 9, 10}`, and the rest of its slots touch no surviving
/// constraint.  `region_cap` 2 forces the greedy fallback.
fn two_component_chain() -> (
    SequentialGraph,
    IntegerConstraints,
    BufferSpace,
    SolverOptions,
) {
    let n = 16;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![30i64; n - 1];
    let mut hold = vec![30i64; n - 1];
    setup[2] = -3;
    setup[3] = 1;
    hold[7] = 3;
    setup[8] = -4;
    setup[9] = 2;
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions {
        region_cap: 2,
        ..SolverOptions::default()
    };
    (sg, ic, space, opts)
}

#[test]
fn component_fallback_support_is_pinned() {
    // Expected tunings recorded from the whole-region drop walk the
    // per-component walk replaced.  `None` reports the greedy support
    // and witness as they are; `ToZero` concentrates on that support.
    let (sg, ic, space, opts) = two_component_chain();
    let mut s = SampleSolver::new();
    let raw = solve_plain(&mut s, &sg, &ic, &space, PushObjective::None, &opts);
    assert!(raw.feasible && !raw.exact);
    assert_eq!(
        raw.tunings,
        vec![(3, 10), (4, 10), (9, 10), (10, 10)],
        "fallback support or witness drifted"
    );
    let pushed = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &opts);
    assert!(pushed.feasible && !pushed.exact);
    assert_eq!(pushed.tunings, vec![(2, -3), (8, -4)]);
    check_valid(&sg, &ic, &space, &pushed);
}

#[test]
fn fallback_obs_nests_in_the_search_stage_and_is_byte_neutral() {
    // Other tests of this binary may solve while the sinks are armed, so
    // the assertions hold for any interleaving: counts are only required
    // to be live, and nesting is checked on this thread's track only.
    let _gate = psbi_obs::test_lock();
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            psbi_obs::trace::disarm();
            psbi_obs::metrics::disarm();
        }
    }
    let _disarm = Disarm;
    let (sg, ic, space, opts) = two_component_chain();
    let solve = || {
        let mut s = SampleSolver::new();
        solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &opts)
    };
    let cold = solve();
    let path =
        std::env::temp_dir().join(format!("psbi_fallback_trace_{}.json", std::process::id()));
    psbi_obs::metrics::arm(None);
    psbi_obs::trace::arm(&path);
    let armed = {
        // Marks this thread's track: a span another thread entered
        // before arming leaves its nested spans parentless there.
        let _mine = psbi_obs::Span::enter("test.fallback_obs");
        solve()
    };
    let snap = psbi_obs::metrics::snapshot();
    psbi_obs::trace::flush().expect("trace flush");
    assert_eq!(armed, cold, "armed obs changed the result");
    assert!(
        snap.counter("solve.search.fallback.probes").unwrap_or(0) > 0,
        "fallback probes were not counted"
    );
    let timed = snap
        .histogram("solve.search.fallback")
        .map_or(0, |h| h.count);
    assert!(timed > 0, "the fallback timer never recorded");

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\":")).expect("field present") + key.len() + 3;
        let rest = line[at..].trim_start_matches('"');
        rest[..rest.find([',', '"', '}']).unwrap()].to_string()
    };
    let events: Vec<&str> = text.lines().filter(|l| l.contains("\"ph\":")).collect();
    let mine = events
        .iter()
        .find(|l| field(l, "name") == "test.fallback_obs")
        .map(|l| field(l, "tid"))
        .expect("marker span traced");
    let mut stack: Vec<String> = Vec::new();
    let mut spans = 0;
    for line in events.into_iter().filter(|l| field(l, "tid") == mine) {
        let name = field(line, "name");
        if field(line, "ph") == "B" {
            if name == "solve.search.fallback" {
                spans += 1;
                assert_eq!(
                    stack.last().map(String::as_str),
                    Some("solve.stage.search"),
                    "the fallback span must open directly inside the search stage"
                );
            }
            stack.push(name);
        } else {
            stack.pop();
        }
    }
    assert!(spans > 0, "no fallback span was traced");
}

#[test]
fn unfixable_cycle_detected_by_global_screen() {
    // Ring 0→1→2→0 with negative total slack: tuning-invariant, dead chip.
    let sg = graph(3, &[(0, 1), (1, 2), (2, 0)]);
    let ic = constraints(&[-2, 0, 1], &[9, 9, 9]); // sum = -1 < 0
    let space = BufferSpace::floating(3, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible, "negative cycle must be unfixable");
    // A ring with non-negative total slack is fixable by rotation.
    let ic = constraints(&[-2, 1, 1], &[9, 9, 9]); // sum = 0
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible, "zero-sum ring is fixable");
    check_valid(&sg, &ic, &space, &r);
}

/// The whole-chip screen's verdict over the full system: every buffered
/// FF a variable, every setup and hold bound an arc.
fn full_variable_screen(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    space: &BufferSpace,
) -> bool {
    let mut var_of = vec![NONE; sg.n_ffs];
    let mut bounds = Vec::new();
    for (ff, var) in var_of.iter_mut().enumerate() {
        if space.has_buffer[ff] {
            *var = bounds.len() as u32;
            bounds.push(space.bounds[ff]);
        }
    }
    let root = bounds.len() as u32;
    let var = |ff: u32| match var_of[ff as usize] {
        NONE => root,
        v => v,
    };
    let mut arcs = Vec::new();
    for (e, edge) in sg.edges.iter().enumerate() {
        let (vf, vt) = (var(edge.from), var(edge.to));
        for (from, to, bound) in [(vt, vf, ic.setup_bound[e]), (vf, vt, ic.hold_bound[e])] {
            if from == root && to == root {
                if bound < 0 {
                    return false;
                }
            } else {
                arcs.push(FeasArc::new(from, to, bound));
            }
        }
    }
    DiffSolver::new().decide_bounded(bounds.len(), &arcs, &bounds)
}

#[test]
fn live_core_screen_matches_the_full_variable_system() {
    // The screen gives variables only to buffered FFs that end a live
    // arc; its verdict must equal the full system's on random chips —
    // random small graphs, and chips sampled from a real circuit at
    // tight periods — with random buffer masks and windows.  Each chip is
    // also checked through `Deployment::chip_passes` with a random grouped
    // deployment: several FFs share one variable (so an edge inside a
    // group, like a self-loop, reads `0 ≤ bound`) and windows may exclude
    // 0 on either side; its oracle is the raw system, every arc solved
    // cold.  One solver serves every chip, as a pass's workspace does.
    use psbi_timing::sample::{CanonicalBatchSampler, SampleBatch};
    use psbi_timing::ConstraintBatch;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut s = SampleSolver::new();
    let mut check = ChipCheck::new();
    let mut verdicts = [0usize; 2];
    let mut grouped = [0usize; 2];
    let random_space = |rng: &mut rand::rngs::StdRng, n: usize| {
        let mut space = BufferSpace::floating(n, 4);
        for ff in 0..n {
            space.has_buffer[ff] = rng.gen_bool(0.7);
            let lo = rng.gen_range(-4i64..1);
            space.bounds[ff] = (lo, lo + rng.gen_range(0i64..6));
        }
        space
    };
    let random_deployment = |rng: &mut rand::rngs::StdRng, n: usize| {
        let groups = rng.gen_range(1u32..4);
        let var_of_ff = (0..n)
            .map(|_| {
                if rng.gen_bool(0.25) {
                    NONE
                } else {
                    rng.gen_range(0..groups)
                }
            })
            .collect();
        let bounds = (0..groups)
            .map(|_| {
                let lo = rng.gen_range(-4i64..3);
                (lo, lo + rng.gen_range(0i64..5))
            })
            .collect();
        Deployment { var_of_ff, bounds }
    };
    let raw_passes = |sg: &SequentialGraph, ic: ConstraintsView<'_>, dep: &Deployment| {
        let mut arcs = Vec::new();
        dep.build_arcs(sg, ic, &mut arcs)
            && DiffSolver::new().decide_bounded(dep.num_buffers(), &arcs, &dep.bounds)
    };
    for _ in 0..3000 {
        let n = rng.gen_range(2usize..9);
        let edges: Vec<(u32, u32)> = (0..rng.gen_range(1usize..14))
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let sg = graph(n, &edges);
        let setup: Vec<i64> = edges.iter().map(|_| rng.gen_range(-5i64..8)).collect();
        let hold: Vec<i64> = edges.iter().map(|_| rng.gen_range(-3i64..8)).collect();
        let ic = constraints(&setup, &hold);
        let space = random_space(&mut rng, n);
        let want = full_variable_screen(&sg, &ic, &space);
        assert_eq!(
            s.chip_fixable(&sg, ic.as_view(), &space),
            want,
            "edges {edges:?} setup {setup:?} hold {hold:?} space {space:?}"
        );
        verdicts[want as usize] += 1;
        let dep = random_deployment(&mut rng, n);
        let want = raw_passes(&sg, ic.as_view(), &dep);
        assert_eq!(
            dep.chip_passes(&sg, ic.as_view(), &mut check),
            want,
            "edges {edges:?} setup {setup:?} hold {hold:?} deployment {dep:?}"
        );
        grouped[want as usize] += 1;
    }
    let circuit = psbi_netlist::bench_suite::tiny_demo(5);
    let tg = psbi_timing::TimingGraph::build(
        &circuit,
        &psbi_liberty::Library::industry_like(),
        &psbi_variation::VariationModel::paper_defaults(),
    )
    .unwrap();
    let sg = SequentialGraph::extract(&tg);
    let skews = vec![0.0; sg.n_ffs];
    let mut batch = SampleBatch::new();
    batch.reset(&sg, 64);
    CanonicalBatchSampler::new(&sg).fill(11, 0, &mut batch);
    let mut cons = ConstraintBatch::new();
    let mut ic = IntegerConstraints::for_graph(&sg);
    for period in [420.0, 460.0, 500.0] {
        cons.build_from(&sg, &batch, &skews, period, period / 160.0);
        for row in 0..batch.len() {
            let view = cons.view(row);
            ic.setup_bound.copy_from_slice(view.setup_bound);
            ic.hold_bound.copy_from_slice(view.hold_bound);
            let space = random_space(&mut rng, sg.n_ffs);
            let want = full_variable_screen(&sg, &ic, &space);
            assert_eq!(
                s.chip_fixable(&sg, view, &space),
                want,
                "period {period} chip {row}"
            );
            verdicts[want as usize] += 1;
            let dep = random_deployment(&mut rng, sg.n_ffs);
            let want = raw_passes(&sg, view, &dep);
            assert_eq!(
                dep.chip_passes(&sg, view, &mut check),
                want,
                "period {period} chip {row} deployment {dep:?}"
            );
            grouped[want as usize] += 1;
        }
    }
    assert!(
        verdicts[0] > 100 && verdicts[1] > 100,
        "both verdicts must be exercised: {verdicts:?}"
    );
    assert!(
        grouped[0] > 100 && grouped[1] > 100,
        "both grouped verdicts must be exercised: {grouped:?}"
    );
}
