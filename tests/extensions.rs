//! Integration tests for the future-work extensions: speed binning and
//! buffer-area estimation.

use psbi::core::flow::{BinningRequest, BufferInsertionFlow, FlowConfig, TargetPeriod};
use psbi::netlist::bench_suite;

fn flow_result(
    circuit: &psbi::netlist::Circuit,
) -> (BufferInsertionFlow<'_>, psbi::core::flow::InsertionResult) {
    let cfg = FlowConfig {
        samples: 250,
        yield_samples: 800,
        calibration_samples: 500,
        seed: 19,
        threads: 2,
        target: TargetPeriod::SigmaFactor(0.0),
        ..FlowConfig::default()
    };
    let flow = BufferInsertionFlow::builder(circuit, cfg)
        .build()
        .expect("valid circuit");
    let r = flow.run();
    (flow, r)
}

#[test]
fn speed_bins_are_consistent_with_yield() {
    let circuit = bench_suite::small_demo(14);
    let (flow, r) = flow_result(&circuit);
    let bins = [r.period, r.mu_t + 2.0 * r.sigma_t, r.mu_t + 4.0 * r.sigma_t];
    let report = flow.speed_bins(BinningRequest::new(&r.deployment, &bins, r.step));

    // Everyone is classified.
    assert_eq!(
        report.baseline.iter().sum::<usize>() + report.dead_baseline,
        report.samples
    );
    assert_eq!(
        report.buffered.iter().sum::<usize>() + report.dead_buffered,
        report.samples
    );
    // The first bin equals the yield evaluation at the target period, on
    // the same chip stream.
    let y_bin0 = 100.0 * report.buffered[0] as f64 / report.samples as f64;
    // Same stream and same period, but the flow's yield run used
    // `yield_samples` chips while binning uses the same count — they must
    // agree exactly.
    assert!(
        (y_bin0 - r.yield_with_buffers).abs() < 1e-9,
        "bin0 {y_bin0} vs yield {}",
        r.yield_with_buffers
    );
    // Buffers shift the distribution toward faster bins cumulatively.
    let mut cb = 0;
    let mut cf = 0;
    for i in 0..bins.len() {
        cb += report.baseline[i];
        cf += report.buffered[i];
        assert!(cf >= cb, "bin {i}");
    }
    // Mean selling period must not get worse with buffers.
    assert!(report.mean_period(true, r.sigma_t) <= report.mean_period(false, r.sigma_t) + 1e-9);
}

#[test]
fn area_report_tracks_groups() {
    let circuit = bench_suite::small_demo(15);
    let (_, r) = flow_result(&circuit);
    let area = r.area();
    assert_eq!(area.buffers, r.nb);
    let expect_elements: u64 = r.groups.iter().map(|g| g.range() as u64).sum();
    assert_eq!(area.delay_elements, expect_elements);
    if r.nb > 0 {
        // Concentration keeps the deployed area below the naive maximum.
        assert!(area.delay_elements <= area.max_range_elements);
        // 5 bits suffice for a 20-step buffer, so bits <= 5 * buffers.
        assert!(area.config_bits <= 5 * r.nb as u64);
    }
}
