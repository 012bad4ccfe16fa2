//! Differential tests of the fused draw entries against the scalar
//! reference: `ConstraintBatch::draw_from_with`, `min_periods_with` and
//! `fill_gathered_with` on every kernel backend this host runs (AVX2 draws
//! four chips per vector, one per lane) must give, chip for chip, the bits
//! of `fill_one` (the scalar reference kernel) followed by
//! `IntegerConstraints::build` — each bound saturated at its cap under the
//! case's saturation windows — and `min_period`.
//!
//! Cases are synthetic graphs (some forms without an independent term,
//! constant forms whose slacks land on step boundaries), random skews,
//! periods and steps, random saturation windows (every FF unbounded, so
//! the rows are exact; one floating width for all; or per FF, some
//! unbounded and some pinned at 0), and chip lists of 1–11 chips with
//! repeats in non-monotone order — so short last groups, padding lanes and
//! lanes holding the same chip all occur — plus rows of s9234.

use proptest::prelude::*;
use psbi_liberty::Library;
use psbi_timing::constraint::{self, min_periods_with};
use psbi_timing::graph::TimingGraph;
use psbi_timing::sample::{CanonicalBatchSampler, SampleBatch, SampleTiming};
use psbi_timing::seq::{SeqEdge, SequentialGraph};
use psbi_timing::{Backend, ConstraintBatch, IntegerConstraints, SaturationCaps};
use psbi_variation::{CanonicalForm, VariationModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random canonical form: a constant on a quarter-unit grid (exact
/// slacks), a global-only form (`indep == 0`), or a full form, with means
/// low enough that some draws clamp at zero.
fn form(rng: &mut StdRng, scale: f64) -> CanonicalForm {
    match rng.gen_range(0u32..4) {
        0 => CanonicalForm::constant(f64::from(rng.gen_range(0u32..40)) * 0.25 * scale / 4.0),
        kind => {
            let mean = rng.gen_range(0.0..scale);
            let sens = [
                rng.gen_range(-0.2..0.2) * scale,
                rng.gen_range(-0.2..0.2) * scale,
                rng.gen_range(-0.2..0.2) * scale,
            ];
            let indep = if kind == 1 {
                0.0
            } else {
                rng.gen_range(0.0..0.3) * scale
            };
            CanonicalForm::with_parts(mean, sens, indep)
        }
    }
}

/// A random sequential graph of 1–40 FFs (self-loops allowed).
fn graph(rng: &mut StdRng) -> SequentialGraph {
    let n = rng.gen_range(1usize..=40);
    let edges = (0..rng.gen_range(1..=3 * n))
        .map(|_| SeqEdge {
            from: rng.gen_range(0..n as u32),
            to: rng.gen_range(0..n as u32),
            max_delay: form(rng, 100.0),
            min_delay: form(rng, 60.0),
        })
        .collect();
    let setup = (0..n).map(|_| form(rng, 10.0)).collect();
    let hold = (0..n).map(|_| form(rng, 6.0)).collect();
    SequentialGraph::from_parts(n, edges, setup, hold)
}

/// 1–11 chips from a small index range (so repeats happen), shuffled,
/// now and then with far-away indices.
fn chips(rng: &mut StdRng) -> Vec<u64> {
    (0..rng.gen_range(1usize..=11))
        .map(|_| match rng.gen_range(0u32..8) {
            0 => rng.gen_range(0..u64::MAX),
            _ => rng.gen_range(0u64..12),
        })
        .collect()
}

/// The saturation window of an FF no consumer bounds: its caps are
/// `i64::MAX`, so its edges' bounds are exact.
const UNBOUNDED: (i64, i64) = (i64::MIN, i64::MAX);

/// Random saturation windows, each containing 0: every FF unbounded
/// (exact rows), one floating width for every FF, or per FF a random
/// window, unbounded or pinned at 0 now and then.
fn windows(rng: &mut StdRng, n: usize) -> Vec<(i64, i64)> {
    match rng.gen_range(0u32..4) {
        0 => vec![UNBOUNDED; n],
        1 => {
            let w = rng.gen_range(0i64..12);
            vec![(-w, w); n]
        }
        _ => (0..n)
            .map(|_| match rng.gen_range(0u32..6) {
                0 => UNBOUNDED,
                1 => (0, 0),
                _ => (-rng.gen_range(0i64..8), rng.gen_range(0i64..8)),
            })
            .collect(),
    }
}

/// The exact bounds `ic` saturated at their caps under `windows`: setup
/// `min(b, hi(from) − lo(to))`, hold `min(b, hi(to) − lo(from))`.
fn saturated(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    windows: &[(i64, i64)],
) -> IntegerConstraints {
    let mut out = ic.clone();
    for (e, edge) in sg.edges.iter().enumerate() {
        let ((lo_i, hi_i), (lo_j, hi_j)) = (windows[edge.from as usize], windows[edge.to as usize]);
        out.setup_bound[e] = out.setup_bound[e].min(hi_i.saturating_sub(lo_j));
        out.hold_bound[e] = out.hold_bound[e].min(hi_j.saturating_sub(lo_i));
    }
    out
}

/// Checks every fused entry on every available backend against the
/// scalar reference for one graph, chip list, operating point and set of
/// saturation windows; `case` names the case in failure messages.
/// Returns how many bounds the windows saturated, over every chip.
#[allow(clippy::too_many_arguments)]
fn check(
    case: &str,
    sg: &SequentialGraph,
    stream: u64,
    chips: &[u64],
    skews: &[f64],
    period: f64,
    step: f64,
    windows: &[(i64, i64)],
) -> usize {
    let sampler = CanonicalBatchSampler::new(sg);
    let reference: Vec<SampleTiming> = chips
        .iter()
        .map(|&k| {
            let mut st = SampleTiming::for_graph(sg);
            sampler.fill_one(stream, k, &mut st);
            st
        })
        .collect();
    let mut ic = IntegerConstraints::for_graph(sg);
    let mut cons = ConstraintBatch::new();
    let mut mps = Vec::new();
    let mut batch = SampleBatch::new();
    let mut capped = 0;
    let caps = SaturationCaps::from_windows(sg, windows);
    for backend in Backend::available() {
        let name = format!("{case}, {}", backend.name());
        cons.draw_from_with(backend, &sampler, stream, chips, skews, period, step, &caps);
        min_periods_with(backend, &sampler, stream, chips, skews, &mut mps);
        batch.reset(sg, chips.len());
        sampler.fill_gathered_with(backend, stream, chips, &mut batch);
        assert_eq!(cons.len(), chips.len(), "{name}: one bounds row per chip");
        assert_eq!(mps.len(), chips.len(), "{name}: one min period per chip");
        for (row, st) in reference.iter().enumerate() {
            let chip = chips[row];
            let v = batch.view(row);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(v.edge_max),
                bits(&st.edge_max),
                "{name} row {row} chip {chip} edge_max"
            );
            assert_eq!(
                bits(v.edge_min),
                bits(&st.edge_min),
                "{name} row {row} chip {chip} edge_min"
            );
            assert_eq!(
                bits(v.setup),
                bits(&st.setup),
                "{name} row {row} chip {chip} setup"
            );
            assert_eq!(
                bits(v.hold),
                bits(&st.hold),
                "{name} row {row} chip {chip} hold"
            );
            ic.build(sg, st, skews, period, step);
            let want = saturated(sg, &ic, windows);
            let c = cons.view(row);
            assert_eq!(
                c.setup_bound,
                &want.setup_bound[..],
                "{name} row {row} chip {chip} setup bounds"
            );
            assert_eq!(
                c.hold_bound,
                &want.hold_bound[..],
                "{name} row {row} chip {chip} hold bounds"
            );
            capped += (ic.setup_bound.iter().zip(&want.setup_bound))
                .chain(ic.hold_bound.iter().zip(&want.hold_bound))
                .filter(|(b, c)| b != c)
                .count();
            let want = constraint::min_period(sg, st, skews);
            let got = mps[row];
            assert_eq!(
                got.period.to_bits(),
                want.period.to_bits(),
                "{name} row {row} chip {chip} period"
            );
            assert_eq!(
                got.hold_ok, want.hold_ok,
                "{name} row {row} chip {chip} hold_ok"
            );
            assert_eq!(
                got.critical_edge, want.critical_edge,
                "{name} row {row} chip {chip} critical edge"
            );
        }
    }
    capped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Each case is drawn from its own seed, so a failure names the seed
    /// that reproduces it.
    #[test]
    fn fused_entries_match_the_scalar_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sg = graph(&mut rng);
        let stream = rng.gen_range(0..u64::MAX);
        let chips = chips(&mut rng);
        let skews: Vec<f64> = (0..sg.n_ffs)
            .map(|_| match rng.gen_range(0u32..3) {
                0 => 0.0,
                1 => f64::from(rng.gen_range(-20i32..20)) * 0.25,
                _ => rng.gen_range(-8.0..8.0),
            })
            .collect();
        // Now and then a step so fine that the floored bounds leave the
        // range of exact float-to-integer conversion, or saturate `i64`.
        let step = match rng.gen_range(0u32..8) {
            0 | 1 => [0.25, 0.5, 1.0, 2.5][rng.gen_range(0usize..4)],
            2 => [1e-14, 1e-300][rng.gen_range(0usize..2)],
            _ => rng.gen_range(0.05..12.0),
        };
        // The period puts one chip's critical setup slack a whole number
        // of steps from zero (give or take an ulp), where a regrouped
        // slack would floor to a different bound; or it is arbitrary.
        let mut st = SampleTiming::for_graph(&sg);
        CanonicalBatchSampler::new(&sg).fill_one(stream, chips[rng.gen_range(0..chips.len())], &mut st);
        let threshold = constraint::min_period(&sg, &st, &skews).period;
        let period = match rng.gen_range(0u32..4) {
            0 => rng.gen_range(1.0..400.0),
            k => {
                let t = threshold + f64::from(rng.gen_range(0i32..4)) * step;
                match k {
                    1 => t,
                    2 => t.next_up(),
                    _ => t.next_down(),
                }
            }
        };
        let windows = windows(&mut rng, sg.n_ffs);
        check(&format!("seed {seed}"), &sg, stream, &chips, &skews, period, step, &windows);
    }
}

/// The proptest's cases saturate bounds, and often: the draw that skips
/// forms is exercised, not only the dense one.
#[test]
fn saturating_cases_occur() {
    let (mut cases, mut capped) = (0, 0);
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sg = graph(&mut rng);
        let windows = windows(&mut rng, sg.n_ffs);
        let chips = chips(&mut rng);
        let skews = vec![0.0; sg.n_ffs];
        let mut st = SampleTiming::for_graph(&sg);
        CanonicalBatchSampler::new(&sg).fill_one(seed, chips[0], &mut st);
        let period = constraint::min_period(&sg, &st, &skews).period;
        let n = check(
            "saturating",
            &sg,
            seed,
            &chips,
            &skews,
            period,
            1.0,
            &windows,
        );
        cases += usize::from(n > 0);
        capped += n;
    }
    assert!(
        cases > 32 && capped > 1000,
        "{cases} cases saturated {capped} bounds"
    );
}

#[test]
fn fused_entries_match_the_scalar_reference_on_s9234() {
    let circuit = psbi_netlist::bench_suite::by_name("s9234")
        .expect("s9234 is in the suite")
        .generate();
    let tg = TimingGraph::build(
        &circuit,
        &Library::industry_like(),
        &VariationModel::paper_defaults(),
    )
    .expect("valid circuit");
    let sg = SequentialGraph::extract(&tg);
    let mut rng = StdRng::seed_from_u64(9234);
    let skews: Vec<f64> = (0..sg.n_ffs).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let mut st = SampleTiming::for_graph(&sg);
    CanonicalBatchSampler::new(&sg).fill_one(42, 0, &mut st);
    let period = constraint::min_period(&sg, &st, &skews).period;
    // Exact rows, the floating windows of ±20 steps, and a pruned pass's
    // windows (every seventh FF buffered, the rest pinned at 0).
    let window_sets = [
        vec![UNBOUNDED; sg.n_ffs],
        vec![(-20, 20); sg.n_ffs],
        (0..sg.n_ffs)
            .map(|ff| if ff % 7 == 0 { (-20, 20) } else { (0, 0) })
            .collect(),
    ];
    for chips in [
        vec![0u64],
        vec![5, 3, 3, 900, 1, 2, 7],
        (100..164).rev().collect(),
        vec![u64::MAX, 0, 17, 17, 17, 4_000_000_007, 2, 1, 6, 5, 11],
    ] {
        for windows in &window_sets {
            for t in [period, period * 1.05] {
                check("s9234", &sg, 42, &chips, &skews, t, period / 160.0, windows);
            }
        }
    }
}
