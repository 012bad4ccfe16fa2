//! Post-silicon configuration — the paper's "future work", implemented.
//!
//! After the design-time flow has fixed buffer locations and windows, every
//! manufactured chip is measured and its buffers are programmed
//! individually.  This example replays chips from the yield-evaluation
//! stream, configures each one with [`psbi::core::configure::configure_chip`]
//! and verifies the setting.
//!
//! ```text
//! cargo run --release --example post_silicon_config
//! ```

use psbi::core::configure::{configure_chip, verify};
use psbi::core::flow::{BufferInsertionFlow, FlowConfig, SampleRequest, TargetPeriod};
use psbi::netlist::bench_suite;

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi::obs::flush_on_drop();
    let circuit = bench_suite::small_demo(7);
    let cfg = FlowConfig {
        samples: 800,
        yield_samples: 2_000,
        target: TargetPeriod::SigmaFactor(0.0),
        ..FlowConfig::default()
    };
    let flow = BufferInsertionFlow::builder(&circuit, cfg)
        .build()
        .expect("valid circuit");
    let result = flow.run();
    println!(
        "design-time flow inserted {} buffer(s); windows: {:?}",
        result.nb, result.deployment.bounds
    );

    // "Manufacture" 20 chips from the evaluation stream and program them.
    let mut configured = 0;
    let mut needed_tuning = 0;
    let mut dead = 0;
    for chip in 0..20u64 {
        let ic = flow.chip_constraints(SampleRequest::new(
            "yield",
            chip,
            result.period,
            result.step,
        ));
        match configure_chip(flow.sequential_graph(), &ic, &result.deployment) {
            Some(conf) => {
                assert!(
                    verify(
                        flow.sequential_graph(),
                        &ic,
                        &result.deployment,
                        &conf.settings
                    ),
                    "configuration must verify"
                );
                configured += 1;
                if conf.settings.iter().any(|s| *s != 0) {
                    needed_tuning += 1;
                }
                println!("chip {chip:>2}: PASS   settings = {:?}", conf.settings);
            }
            None => {
                dead += 1;
                println!("chip {chip:>2}: FAIL   (not rescuable at this period)");
            }
        }
    }
    println!();
    println!(
        "{configured}/20 chips configured ({needed_tuning} required nonzero tuning), {dead} dead"
    );
}
