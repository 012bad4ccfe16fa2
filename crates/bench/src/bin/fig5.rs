//! Regenerates the paper's Fig. 5: tuning-value histograms of one buffer
//! across the flow stages — (a) scattered after the min-count pass, (b)
//! pushed toward zero with the chosen range window, (c) concentrated
//! toward the average with the reduced final range.
//!
//! ```text
//! cargo run -p psbi-bench --release --bin fig5 -- \
//!     [--circuits s9234] [--samples 2000] [--buffers 3] [--sigma 0]
//! ```

use psbi_bench::{ascii_histogram, run_cell, Args, ExperimentConfig};

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let args = Args::from_env();
    let cfg = ExperimentConfig::parse(&args, &["s9234"]);
    let sigma: f64 = args.get("sigma").unwrap_or(0.0);
    let n_buffers: usize = args.get("buffers").unwrap_or(3);
    let spec = cfg.circuits.first().expect("one circuit");
    let mut flow_cfg = cfg.flow_config(sigma);
    flow_cfg.record_histograms = n_buffers;
    println!(
        "# Fig. 5 reproduction — circuit {}, T = muT + {sigma}*sigmaT, {} samples",
        spec.name, cfg.samples
    );
    let r = run_cell(spec, flow_cfg);
    println!(
        "# period {:.1} ps, step {:.2} ps, {} buffers inserted\n",
        r.period, r.step, r.nb
    );
    for snap in &r.snapshots {
        println!("== buffer at FF {} ==", snap.ff);
        println!("(a) after min-count pass (scattered):");
        print!("{}", ascii_histogram(&snap.scattered, 40));
        println!(
            "(b) after push-to-zero; window [{}, {}]:",
            snap.window.0, snap.window.1
        );
        print!("{}", ascii_histogram(&snap.pushed, 40));
        println!(
            "(c) after concentration toward average; final range [{}, {}] ({} steps):",
            snap.final_range.0,
            snap.final_range.1,
            snap.final_range.1 - snap.final_range.0
        );
        print!("{}", ascii_histogram(&snap.concentrated, 40));
        let spread = |bins: &[(i64, u64)]| -> i64 {
            match (bins.first(), bins.last()) {
                (Some((lo, _)), Some((hi, _))) => hi - lo,
                _ => 0,
            }
        };
        println!(
            "spread: scattered {} -> pushed {} -> concentrated {} steps\n",
            spread(&snap.scattered),
            spread(&snap.pushed),
            spread(&snap.concentrated)
        );
    }
    if r.snapshots.is_empty() {
        println!("no buffers were inserted — try a tighter target (--sigma 0)");
    }
}
