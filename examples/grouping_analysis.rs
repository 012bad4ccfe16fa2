//! Sweep the grouping thresholds (paper §III-C): how the correlation
//! threshold `r_t` and the distance threshold `d_t` trade buffer count
//! against window size and yield.
//!
//! ```text
//! cargo run --release --example grouping_analysis
//! ```

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
use psbi::netlist::bench_suite;

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi::obs::flush_on_drop();
    let circuit = bench_suite::small_demo(11);
    println!(
        "circuit {}: {} FFs / {} gates; sweeping grouping thresholds\n",
        circuit.name,
        circuit.num_ffs(),
        circuit.num_gates()
    );
    println!(
        "{:>5} {:>5} | {:>10} {:>4} {:>6} {:>7} {:>7}",
        "r_t", "d_t", "candidates", "Nb", "Ab", "Y(%)", "Yi(%)"
    );
    for (rt, dt) in [
        (0.95, 5.0),
        (0.8, 10.0), // the paper's setting
        (0.6, 20.0),
        (0.4, 40.0),
    ] {
        let mut cfg = FlowConfig {
            samples: 600,
            yield_samples: 2_000,
            target: TargetPeriod::SigmaFactor(0.0),
            ..FlowConfig::default()
        };
        cfg.grouping.correlation_threshold = rt;
        cfg.grouping.distance_factor = dt;
        let r = BufferInsertionFlow::builder(&circuit, cfg)
            .build()
            .expect("valid")
            .run();
        println!(
            "{rt:>5.2} {dt:>5.1} | {:>10} {:>4} {:>6.2} {:>7.2} {:>7.2}",
            r.buffers_before_grouping, r.nb, r.ab, r.yield_with_buffers, r.improvement
        );
    }
    println!();
    println!("looser thresholds merge more buffers (smaller Nb) but widen the shared");
    println!("windows and can cost yield when members' tunings diverge.");
}
