//! P2: the in-workspace LP/MILP solver on problems shaped like the
//! per-region concentration MILPs: the indicator form (the solver picks
//! the support) and the fixed-support form the B2 pass solves most.

use criterion::{criterion_group, criterion_main, Criterion};
use psbi_milp::{Model, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A region-shaped MILP: `n` integer tunings with indicator binaries, a
/// budget row, difference constraints and |·| objectives.
fn region_milp(n: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new();
    let ks: Vec<_> = (0..n).map(|_| m.add_var(-20.0, 20.0, 0.0, true)).collect();
    let mut cterms = Vec::new();
    for &k in &ks {
        let c = m.add_binary(0.0);
        m.add_indicator(k, c, 20.0);
        cterms.push((c, 1.0));
    }
    m.add_cons(cterms, Op::Le, (n / 3).max(1) as f64);
    for i in 0..n.saturating_sub(1) {
        let w = rng.gen_range(-3i64..6) as f64;
        m.add_cons(vec![(ks[i], 1.0), (ks[i + 1], -1.0)], Op::Le, w);
    }
    for &k in &ks {
        m.add_abs_deviation(k, 0.0, 1.0);
    }
    m
}

/// A fixed-support concentration MILP shaped like B2's: `n` integer
/// tunings only, a chain of difference constraints, fractional targets
/// and the search witness as warm start.  The witness is drawn first and
/// the chain bounds are set at or just above its differences, so it is
/// feasible and some constraints are tight.
fn fixed_support_milp(n: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new();
    let ks: Vec<_> = (0..n).map(|_| m.add_var(-20.0, 20.0, 0.0, true)).collect();
    let witness: Vec<f64> = (0..n).map(|_| rng.gen_range(-6i64..=6) as f64).collect();
    for i in 0..n.saturating_sub(1) {
        let slack = rng.gen_range(0i64..3) as f64;
        m.add_cons(
            vec![(ks[i], 1.0), (ks[i + 1], -1.0)],
            Op::Le,
            witness[i] - witness[i + 1] + slack,
        );
    }
    let mut warm = witness.clone();
    for (&k, &w) in ks.iter().zip(&witness) {
        let target = w + rng.gen_range(-1.5f64..1.5);
        m.add_abs_deviation(k, target, 1.0);
        warm.push((w - target).abs());
    }
    m.set_warm_start(warm);
    m
}

fn bench_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp_region");
    for n in [4usize, 8, 12] {
        let m = region_milp(n, 3);
        group.bench_function(format!("solve_n{n}"), |b| b.iter(|| m.solve().status));
    }
    group.finish();

    let mut group = c.benchmark_group("milp_fixed_support");
    for n in [8usize, 16, 32] {
        let m = fixed_support_milp(n, 7);
        group.bench_function(format!("solve_n{n}"), |b| b.iter(|| m.solve().status));
    }
    group.finish();

    let mut group = c.benchmark_group("lp_relaxation");
    let m = region_milp(16, 5);
    group.bench_function("solve_lp_n16", |b| b.iter(|| m.solve_lp().status));
    group.finish();
}

criterion_group!(benches, bench_milp);
criterion_main!(benches);
