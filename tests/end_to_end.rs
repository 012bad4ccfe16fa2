//! Cross-crate integration: the full insertion flow, its determinism, and
//! the consistency between yield evaluation and post-silicon configuration.

use psbi::core::configure::{configure_chip, verify};
use psbi::core::flow::{BufferInsertionFlow, FlowConfig, SampleRequest, TargetPeriod};
use psbi::core::yield_eval::ChipCheck;
use psbi::netlist::bench_suite;

fn cfg(samples: usize) -> FlowConfig {
    FlowConfig {
        samples,
        yield_samples: 400,
        calibration_samples: 400,
        seed: 11,
        threads: 2,
        target: TargetPeriod::SigmaFactor(0.0),
        ..FlowConfig::default()
    }
}

#[test]
fn flow_improves_yield_on_small_demo() {
    let circuit = bench_suite::small_demo(3);
    let flow = BufferInsertionFlow::builder(&circuit, cfg(250))
        .build()
        .unwrap();
    let r = flow.run();
    assert!(r.nb >= 1, "expected at least one buffer at muT");
    assert!(
        r.improvement > 2.0,
        "expected a real improvement, got {} (Y {} from {})",
        r.improvement,
        r.yield_with_buffers,
        r.yield_baseline
    );
    // Windows are within the floating bound and non-degenerate.
    for g in &r.groups {
        assert!(g.lo >= -20 && g.hi <= 20 && g.lo <= g.hi);
    }
    // Ab is measured in steps and bounded by the maximum range.
    assert!(r.ab >= 0.0 && r.ab <= 40.0);
}

#[test]
fn results_are_reproducible() {
    let circuit = bench_suite::small_demo(4);
    let a = BufferInsertionFlow::builder(&circuit, cfg(150))
        .build()
        .unwrap()
        .run();
    let b = BufferInsertionFlow::builder(&circuit, cfg(150))
        .build()
        .unwrap()
        .run();
    assert_eq!(a.groups, b.groups);
    assert_eq!(a.yield_with_buffers, b.yield_with_buffers);
    assert_eq!(a.mu_t, b.mu_t);
}

#[test]
fn yield_eval_and_configuration_agree() {
    // Every chip the yield evaluator accepts must be configurable, and the
    // produced settings must verify; every rejected chip must not be.
    let circuit = bench_suite::small_demo(5);
    let flow = BufferInsertionFlow::builder(&circuit, cfg(200))
        .build()
        .unwrap();
    let r = flow.run();
    let sg = flow.sequential_graph();
    let mut check = ChipCheck::new();
    let mut passes = 0;
    for chip in 0..120u64 {
        let ic = flow.chip_constraints(SampleRequest::new("yield", chip, r.period, r.step));
        let evaluator_says = r.deployment.chip_passes(sg, ic.as_view(), &mut check);
        let config = configure_chip(sg, &ic, &r.deployment);
        assert_eq!(
            evaluator_says,
            config.is_some(),
            "evaluator and configurator disagree on chip {chip}"
        );
        if let Some(c) = config {
            assert!(verify(sg, &ic, &r.deployment, &c.settings), "chip {chip}");
            passes += 1;
        }
    }
    assert!(passes > 0, "some chips must pass");
}

#[test]
fn tighter_period_needs_more_buffers() {
    let circuit = bench_suite::small_demo(6);
    let mut tight = cfg(200);
    tight.target = TargetPeriod::SigmaFactor(0.0);
    let mut loose = cfg(200);
    loose.target = TargetPeriod::SigmaFactor(2.0);
    let rt = BufferInsertionFlow::builder(&circuit, tight)
        .build()
        .unwrap()
        .run();
    let rl = BufferInsertionFlow::builder(&circuit, loose)
        .build()
        .unwrap()
        .run();
    assert!(
        rt.nb >= rl.nb,
        "tight target should need at least as many buffers ({} vs {})",
        rt.nb,
        rl.nb
    );
    assert!(rl.yield_baseline > rt.yield_baseline);
}
