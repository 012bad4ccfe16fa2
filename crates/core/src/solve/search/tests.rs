//! The cascade bound's round table against cold rounds, and the cascade's
//! verdicts against brute force.

use super::*;
use psbi_timing::feasibility::Feasibility;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FFs past the region's slots: endpoints outside the region.
const OUTSIDE: usize = 3;

/// The tests' `bb_node_cap`: large enough for hundreds of cascade rounds
/// per search, small enough for a debug build.
const NODE_CAP: usize = 150;

/// A region system.  Slot `i` is FF `i`; FFs `m..m + OUTSIDE` lie
/// outside the region.
struct Fixture {
    m: usize,
    ffs: Vec<u32>,
    slot_of: Vec<u32>,
    cons: Vec<RegCons>,
    violated: Vec<usize>,
    bounds: Vec<(i64, i64)>,
}

/// Bounds of `k(a) − k(b)` and of `k(b) − k(a)`: often violated, and
/// usually summing to 0, so tuning one endpoint drags the other along
/// and the cascade runs several rounds.
fn tight_pair(rng: &mut StdRng) -> (i64, i64) {
    let x = [-2, -1, 0, 0, 1, 2][rng.gen_range(0..6)];
    (x, -x + [0, 0, 0, 1, 2, 4][rng.gen_range(0..6)])
}

/// Random region of `m` slots: one to three chains, stars or scattered
/// hubs at random slots (so large regions put them in any key word),
/// random constraints, some to FFs outside the region, at least one
/// violated constraint, and windows from `[0, 0]` to `[-4, 4]`.  Every
/// constraint has a region endpoint, as the constraint walk attaches
/// them.
fn fixture(rng: &mut StdRng, m: usize) -> Fixture {
    let mut cons = Vec::new();
    let pair = |cons: &mut Vec<RegCons>, a: usize, b: usize, rng: &mut StdRng| {
        let (ab, ba) = tight_pair(rng);
        cons.push(RegCons {
            a: a as u32,
            b: b as u32,
            bound: ab,
        });
        cons.push(RegCons {
            a: b as u32,
            b: a as u32,
            bound: ba,
        });
    };
    for _ in 0..rng.gen_range(1..=3) {
        let k = rng.gen_range(2..=6usize.min(m));
        let base = rng.gen_range(0..=m - k);
        match rng.gen_range(0..3) {
            0 => {
                for i in base..base + k - 1 {
                    pair(&mut cons, i, i + 1, rng);
                }
            }
            1 => {
                for leaf in base + 1..base + k {
                    pair(&mut cons, base, leaf, rng);
                }
            }
            _ => {
                let hub = rng.gen_range(0..m);
                for _ in 1..k {
                    let leaf = rng.gen_range(0..m);
                    if leaf != hub {
                        pair(&mut cons, hub, leaf, rng);
                    }
                }
            }
        }
    }
    for _ in 0..rng.gen_range(0..=m.min(8)) {
        let inner = rng.gen_range(0..m);
        let other = if rng.gen_bool(0.2) {
            m + rng.gen_range(0..OUTSIDE)
        } else {
            rng.gen_range(0..m)
        };
        let (a, b) = if rng.gen_bool(0.5) {
            (inner, other)
        } else {
            (other, inner)
        };
        if a != b {
            cons.push(RegCons {
                a: a as u32,
                b: b as u32,
                bound: rng.gen_range(-1..6),
            });
        }
    }
    if !cons.iter().any(|c| c.bound < 0) {
        cons.push(RegCons {
            a: rng.gen_range(0..m) as u32,
            b: (m + rng.gen_range(0..OUTSIDE)) as u32,
            bound: -rng.gen_range(1..3),
        });
    }
    let mut bounds = vec![(0, 0); m + OUTSIDE];
    for w in &mut bounds[..m] {
        *w = (-rng.gen_range(0..=4), rng.gen_range(0..=4));
    }
    let violated = (0..cons.len()).filter(|&i| cons[i].bound < 0).collect();
    let mut slot_of: Vec<u32> = (0..m as u32).collect();
    slot_of.resize(m + OUTSIDE, NONE);
    Fixture {
        m,
        ffs: (0..m as u32).collect(),
        slot_of,
        cons,
        violated,
        bounds,
    }
}

/// The buffers one [`SupportSearch`] borrows, shared by every region of
/// a case.
#[derive(Default)]
struct Scratch {
    solver: DiffSolver,
    vars: Vec<u32>,
    slot: Vec<u32>,
    arcs: Vec<Arc>,
    bounds: Vec<(i64, i64)>,
    ps: PruneScratch,
    comps: ComponentScratch,
}

impl Scratch {
    fn search<'a>(&'a mut self, fx: &'a Fixture, node_cap: usize) -> SupportSearch<'a> {
        SupportSearch {
            solver: &mut self.solver,
            slot_of: &fx.slot_of,
            region_ffs: &fx.ffs,
            cons: &fx.cons,
            violated: &fx.violated,
            bounds: &fx.bounds,
            best: None,
            node_cap,
            exact: true,
            prune: true,
            stats: SearchStats::default(),
            vars_scratch: &mut self.vars,
            slot_scratch: &mut self.slot,
            arcs_scratch: &mut self.arcs,
            bounds_scratch: &mut self.bounds,
            ps: &mut self.ps,
            comps: &mut self.comps,
        }
    }

    /// One whole region search under `audit`; returns its outcome, its
    /// stats and the audit's counts.
    fn run(&mut self, fx: &Fixture, audit: RoundAudit) -> (SearchPhase, SearchStats, RoundAudit) {
        self.ps.audit = audit;
        let mut search = self.search(fx, NODE_CAP);
        let phase = run_support_search(&mut search, fx.m, usize::MAX);
        let stats = search.stats;
        (phase, stats, std::mem::take(&mut self.ps.audit))
    }
}

/// A random state in which every violated constraint with a region
/// endpoint has an `In` endpoint: the regime the cascade runs in.  `In`
/// sets are drawn from a small pool so that rounds repeat.
fn covered_state(rng: &mut StdRng, fx: &Fixture, pool: &[Vec<bool>]) -> Vec<Decision> {
    let chosen = &pool[rng.gen_range(0..pool.len())];
    let mut state: Vec<Decision> = (0..fx.m)
        .map(|i| {
            if chosen[i] {
                Decision::In
            } else if rng.gen_bool(0.3) {
                Decision::Out
            } else {
                Decision::Undecided
            }
        })
        .collect();
    for &v in &fx.violated {
        let c = fx.cons[v];
        let ends: Vec<usize> = [c.a, c.b]
            .into_iter()
            .map(|ff| ff as usize)
            .filter(|&s| s < fx.m)
            .collect();
        if !ends.is_empty() && ends.iter().all(|&s| state[s] != Decision::In) {
            state[ends[rng.gen_range(0..ends.len())]] = Decision::In;
        }
    }
    state
}

fn in_count(state: &[Decision]) -> usize {
    state.iter().filter(|d| **d == Decision::In).count()
}

/// Every round the table answers is the cold solve's: verdict, cycle
/// recovery and cycle endpoint set (each hit re-solved on a separate
/// solver), and every feasible round 0 leaves the `In`-only probe's
/// witness.  Whole searches return the same outcome and stats with every
/// lookup forced to miss.  512 fixed-seed cases; each runs three regions
/// of one size on one scratch, a quarter of them over 64 slots
/// (multi-word keys).
#[test]
fn round_table_answers_every_round_as_a_cold_solve() {
    let mut hits = 0u64;
    let mut wide_hits = 0u64;
    let mut in_feasible = 0u64;
    let mut searched = 0u64;
    for case in 0..512u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + case);
        let m = if case % 4 == 3 {
            rng.gen_range(65..=72)
        } else {
            rng.gen_range(3..=16)
        };
        let mut s = Scratch::default();
        for _ in 0..3 {
            let fx = fixture(&mut rng, m);
            // Random covered states and targets on one table.
            let mut search = s.search(&fx, NODE_CAP);
            search.prepare_prune();
            search.ps.audit.check_hits = true;
            let pool: Vec<Vec<bool>> = (0..3)
                .map(|_| (0..m).map(|_| rng.gen_bool(0.15)).collect())
                .collect();
            for _ in 0..24 {
                let state = covered_state(&mut rng, &fx, &pool);
                let target = rng.gen_bool(0.8).then(|| rng.gen_range(1..=4));
                if let Cascade::InFeasible = search.cascade_decide(&state, target) {
                    in_feasible += 1;
                    let n = in_count(&state);
                    let (mut cached, mut cold) = (Vec::new(), Vec::new());
                    search.solver.copy_witness(n, &mut cached);
                    assert!(
                        search.feasible_support(&state, false, search.all_slots(), search.cons),
                        "case {case}: a feasible round 0 is the In-only probe"
                    );
                    search.solver.copy_witness(n, &mut cold);
                    assert_eq!(cached, cold, "case {case}: round-0 witness");
                }
            }
            let audit = std::mem::take(&mut search.ps.audit);
            assert_eq!(audit.mismatches, 0, "case {case}: cached rounds differ");
            hits += audit.hits;

            let (phase, stats, audit) = s.run(
                &fx,
                RoundAudit {
                    check_hits: true,
                    ..RoundAudit::default()
                },
            );
            assert_eq!(audit.mismatches, 0, "case {case}: cached rounds differ");
            hits += audit.hits;
            if m > 64 {
                wide_hits += audit.hits;
            }
            let (cold_phase, cold_stats, _) = s.run(
                &fx,
                RoundAudit {
                    force_miss: true,
                    ..RoundAudit::default()
                },
            );
            assert_eq!(phase, cold_phase, "case {case}: search outcome");
            assert_eq!(
                SearchStats {
                    cascade_solves: 0,
                    ..stats
                },
                SearchStats {
                    cascade_solves: 0,
                    ..cold_stats
                },
                "case {case}: search stats"
            );
            assert!(stats.cascade_solves <= cold_stats.cascade_solves);
            searched += u64::from(stats.cascade_rounds > 0);
        }
    }
    // The generator must reach what the table does.
    assert!(hits > 10_000, "{hits} hits");
    assert!(wide_hits > 1_000, "{wide_hits} hits on multi-word keys");
    assert!(in_feasible > 1_000, "{in_feasible} feasible round-0 calls");
    assert!(searched > 500, "{searched} searches ran cascade rounds");
}

/// Feasibility of `included` slots carrying their windows, every other
/// FF pinned to zero: a cold system built from the constraint list.
fn brute_feasible(fx: &Fixture, included: &[bool]) -> bool {
    let vars: Vec<usize> = (0..fx.m).filter(|&i| included[i]).collect();
    let root = vars.len() as u32;
    let var = |ff: u32| {
        vars.iter()
            .position(|&i| i == ff as usize)
            .map_or(root, |v| v as u32)
    };
    let mut arcs = Vec::new();
    for c in &fx.cons {
        let (va, vb) = (var(c.a), var(c.b));
        if va == root && vb == root {
            if c.bound < 0 {
                return false;
            }
            continue;
        }
        arcs.push(Arc::new(vb, va, c.bound));
    }
    let bounds: Vec<(i64, i64)> = vars.iter().map(|&i| fx.bounds[i]).collect();
    matches!(
        DiffSolver::new().solve_bounded(vars.len(), &arcs, &bounds),
        Feasibility::Feasible(_)
    )
}

/// Whether some completion (`In` plus at most `limit` undecided slots)
/// is feasible.
fn completion_within(fx: &Fixture, state: &[Decision], limit: usize) -> bool {
    let undecided: Vec<usize> = (0..fx.m)
        .filter(|&i| state[i] == Decision::Undecided)
        .collect();
    let base: Vec<bool> = state.iter().map(|d| *d == Decision::In).collect();
    (0u32..1 << undecided.len())
        .filter(|pick| pick.count_ones() as usize <= limit)
        .any(|pick| {
            let mut included = base.clone();
            for (bit, &i) in undecided.iter().enumerate() {
                included[i] |= pick >> bit & 1 == 1;
            }
            brute_feasible(fx, &included)
        })
}

/// Each cascade verdict holds against brute force on regions of up to 10
/// slots, some constraints reaching outside the region, with random
/// covered states and targets, several states per region on one table:
/// `Prune` means no completion with fewer than `target` extra slots is
/// feasible, `InFeasible` that `In` alone is, `Exhausted` that it is not,
/// and `Feasible` that some completion is.
#[test]
fn cascade_verdicts_hold_against_brute_force() {
    let mut prunes = 0u64;
    let mut feasible = 0u64;
    for case in 0..4096u64 {
        let mut rng = StdRng::seed_from_u64(0xb007_0000 + case);
        let m = rng.gen_range(2..=10);
        let fx = fixture(&mut rng, m);
        let mut s = Scratch::default();
        let mut search = s.search(&fx, NODE_CAP);
        search.prepare_prune();
        let pool: Vec<Vec<bool>> = (0..2)
            .map(|_| (0..m).map(|_| rng.gen_bool(0.2)).collect())
            .collect();
        for _ in 0..8 {
            let state = covered_state(&mut rng, &fx, &pool);
            let target = rng.gen_bool(0.85).then(|| rng.gen_range(1..=3));
            let in_only: Vec<bool> = state.iter().map(|d| *d == Decision::In).collect();
            let verdict = search.cascade_decide(&state, target);
            let why = || format!("case {case}, state {state:?}, target {target:?}");
            match verdict {
                Cascade::InFeasible => assert!(brute_feasible(&fx, &in_only), "{}", why()),
                Cascade::Exhausted => {
                    assert!(target.is_none(), "{}", why());
                    assert!(!brute_feasible(&fx, &in_only), "{}", why());
                }
                Cascade::Prune => {
                    prunes += 1;
                    let limit = target.expect("a prune needs a target") - 1;
                    assert!(!completion_within(&fx, &state, limit), "{}", why());
                }
                Cascade::Feasible => {
                    feasible += 1;
                    assert!(completion_within(&fx, &state, m), "{}", why());
                }
                Cascade::Unknown => {}
            }
        }
    }
    assert!(prunes > 10_000, "{prunes} prunes");
    assert!(feasible > 1_000, "{feasible} feasible completions");
}
