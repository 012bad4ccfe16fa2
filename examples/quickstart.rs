//! Quickstart: insert post-silicon clock-tuning buffers into a small
//! synthetic circuit and report the yield improvement.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
use psbi::netlist::bench_suite;

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi::obs::flush_on_drop();
    // A small generated benchmark: 80 flip-flops, 900 gates, clock skews
    // included by the flow.
    let circuit = bench_suite::small_demo(42);
    println!(
        "circuit `{}`: {} FFs, {} gates",
        circuit.name,
        circuit.num_ffs(),
        circuit.num_gates()
    );

    // Target the mean of the unbuffered minimum-period distribution: the
    // aggressive setting where the unbuffered yield is ~50 %.
    let cfg = FlowConfig {
        samples: 1_000,
        yield_samples: 4_000,
        target: TargetPeriod::SigmaFactor(0.0),
        ..FlowConfig::default()
    };

    let flow = BufferInsertionFlow::builder(&circuit, cfg)
        .build()
        .expect("valid circuit");
    let result = flow.run();

    println!(
        "unbuffered minimum period: mu = {:.1} ps, sigma = {:.1} ps",
        result.mu_t, result.sigma_t
    );
    println!(
        "target period: {:.1} ps (buffer step {:.2} ps)",
        result.period, result.step
    );
    println!();
    println!(
        "inserted {} physical buffer(s) (from {} candidates before grouping)",
        result.nb, result.buffers_before_grouping
    );
    println!("average tuning range: {:.1} of max 20 steps", result.ab);
    for (i, g) in result.groups.iter().enumerate() {
        println!(
            "  buffer {i}: FFs {:?}, window [{}, {}] steps",
            g.members, g.lo, g.hi
        );
    }
    println!();
    println!(
        "yield: {:.2}% -> {:.2}%  (improvement {:.2} points, {} chips rescued)",
        result.yield_baseline, result.yield_with_buffers, result.improvement, result.rescued
    );
    let area = result.area();
    println!(
        "area: {} delay elements + {} config bits ({:.0}% below max-range buffers)",
        area.delay_elements,
        area.config_bits,
        100.0 * area.area_saving()
    );
}
