//! Clock binning — the paper's future-work scenario: chips that miss the
//! target period are sold in slower speed grades.  This example shows how
//! tuning buffers shift the whole bin distribution toward faster grades.
//!
//! ```text
//! cargo run --release --example speed_binning
//! ```

use psbi::core::flow::{BinningRequest, BufferInsertionFlow, FlowConfig, TargetPeriod};
use psbi::netlist::bench_suite;

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi::obs::flush_on_drop();
    let circuit = bench_suite::small_demo(21);
    let cfg = FlowConfig {
        samples: 800,
        yield_samples: 4_000,
        target: TargetPeriod::SigmaFactor(0.0),
        ..FlowConfig::default()
    };
    let flow = BufferInsertionFlow::builder(&circuit, cfg)
        .build()
        .expect("valid circuit");
    let r = flow.run();
    println!(
        "inserted {} buffer(s); target period {:.1} ps (muT = {:.1}, sigmaT = {:.1})\n",
        r.nb, r.period, r.mu_t, r.sigma_t
    );

    // Four speed grades: the aggressive target plus three slower bins.
    let bins = [
        r.mu_t,
        r.mu_t + r.sigma_t,
        r.mu_t + 2.0 * r.sigma_t,
        r.mu_t + 3.0 * r.sigma_t,
    ];
    let report = flow.speed_bins(BinningRequest::new(&r.deployment, &bins, r.step));

    println!(
        "{:<22} {:>12} {:>12}",
        "speed grade", "no buffers", "with buffers"
    );
    for (i, p) in report.periods.iter().enumerate() {
        println!(
            "{:<22} {:>10} ({:>4.1}%) {:>8} ({:>4.1}%)",
            format!("<= {p:.0} ps"),
            report.baseline[i],
            100.0 * report.baseline[i] as f64 / report.samples as f64,
            report.buffered[i],
            100.0 * report.buffered[i] as f64 / report.samples as f64,
        );
    }
    println!(
        "{:<22} {:>10} ({:>4.1}%) {:>8} ({:>4.1}%)",
        "scrap",
        report.dead_baseline,
        100.0 * report.dead_baseline as f64 / report.samples as f64,
        report.dead_buffered,
        100.0 * report.dead_buffered as f64 / report.samples as f64,
    );
    println!();
    println!("chips upgraded to a faster grade: {}", report.upgraded());
    println!(
        "mean selling period: {:.1} ps -> {:.1} ps (scrap penalty 3 sigma)",
        report.mean_period(false, 3.0 * r.sigma_t),
        report.mean_period(true, 3.0 * r.sigma_t)
    );
}
