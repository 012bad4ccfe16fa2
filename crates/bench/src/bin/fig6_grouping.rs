//! Regenerates the paper's Fig. 6: grouping buffers by tuning correlation
//! (r ≥ 0.8) and Manhattan distance (≤ 10× minimum FF spacing).
//!
//! ```text
//! cargo run -p psbi-bench --release --bin fig6_grouping -- \
//!     [--circuits s9234] [--samples 2000] [--sigma 0] [--rt 0.8] [--dt 10]
//! ```

use psbi_bench::{run_cell, Args, ExperimentConfig};

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let args = Args::from_env();
    let cfg = ExperimentConfig::parse(&args, &["s9234"]);
    let sigma: f64 = args.get("sigma").unwrap_or(0.0);
    let spec = cfg.circuits.first().expect("one circuit");
    let mut flow_cfg = cfg.flow_config(sigma);
    if let Some(rt) = args.get::<f64>("rt") {
        flow_cfg.grouping.correlation_threshold = rt;
    }
    if let Some(dt) = args.get::<f64>("dt") {
        flow_cfg.grouping.distance_factor = dt;
    }
    println!(
        "# Fig. 6 reproduction — grouping, circuit {}, r_t = {}, d_t = {}x spacing",
        spec.name, flow_cfg.grouping.correlation_threshold, flow_cfg.grouping.distance_factor
    );
    let r = run_cell(spec, flow_cfg);
    println!(
        "buffer candidates before grouping: {}",
        r.buffers_before_grouping
    );
    println!("pairs with correlation >= r_t:     {}", r.correlated_pairs);
    println!("pairs also within distance d_t:    {}", r.merged_pairs);
    println!("physical buffers after grouping:   {}", r.nb);
    println!(
        "average window range Ab:           {:.2} steps (max 20)",
        r.ab
    );
    println!();
    println!("groups (FF members, window, usage):");
    for (i, g) in r.groups.iter().enumerate() {
        println!(
            "  G{i:<3} members={:?} window=[{}, {}] usage={}",
            g.members, g.lo, g.hi, g.usage
        );
    }
    println!();
    println!(
        "yield: baseline {:.2}% -> buffered {:.2}% (Yi = {:.2} points)",
        r.yield_baseline, r.yield_with_buffers, r.improvement
    );
}
