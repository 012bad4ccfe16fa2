//! Regenerates the paper's Table I: buffer number and yield improvement
//! for each benchmark at target periods µT, µT + σT and µT + 2σT.
//!
//! ```text
//! cargo run -p psbi-bench --release --bin table1 -- \
//!     [--all] [--circuits s9234,s13207] [--samples 10000] \
//!     [--yield-samples 10000] [--seed 42] [--threads N]
//! ```
//!
//! Columns per period: `Nb` inserted buffers, `Ab` average range (steps,
//! max 20), `Y` yield with buffers (%), `Yi` improvement over the
//! unbuffered yield (percentage points), `T` runtime (s).  `Yo` is the
//! measured unbuffered yield (paper: ≈ 50 / 84.13 / 97.72 %).

use psbi_bench::{format_cell, run_cell, Args, ExperimentConfig};

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let args = Args::from_env();
    let cfg = ExperimentConfig::parse(&args, &["s9234", "s13207", "s15850"]);
    if cfg.circuits.is_empty() {
        eprintln!("no circuits selected");
        std::process::exit(1);
    }
    println!(
        "# Table I reproduction — {} samples, seed {}",
        cfg.samples, cfg.seed
    );
    println!("# (paper used 10000 samples; pass --samples 10000 --all for the full setting)");
    println!(
        "{:<14} {:>5} {:>6} | {:>31} | {:>31} | {:>31}",
        "Circuit", "ns", "ng", "T = muT", "T = muT+sigma", "T = muT+2sigma"
    );
    println!(
        "{:<14} {:>5} {:>6} | {:>4} {:>6} {:>6} {:>6} {:>8} | {:>4} {:>6} {:>6} {:>6} {:>8} | {:>4} {:>6} {:>6} {:>6} {:>8}",
        "", "", "", "Nb", "Ab", "Y%", "Yi%", "T(s)", "Nb", "Ab", "Y%", "Yi%", "T(s)",
        "Nb", "Ab", "Y%", "Yi%", "T(s)"
    );
    let mut json_rows = Vec::new();
    for spec in &cfg.circuits {
        let mut cells = Vec::new();
        let mut baselines = Vec::new();
        for sigma in [0.0, 1.0, 2.0] {
            let r = run_cell(spec, cfg.flow_config(sigma));
            baselines.push(r.yield_baseline);
            cells.push(r);
        }
        println!(
            "{:<14} {:>5} {:>6} | {} | {} | {}",
            spec.name,
            spec.n_ffs,
            spec.n_gates,
            format_cell(&cells[0]),
            format_cell(&cells[1]),
            format_cell(&cells[2]),
        );
        println!(
            "{:<27} |   (Yo = {:.2}%)               |   (Yo = {:.2}%)               |   (Yo = {:.2}%)",
            "", baselines[0], baselines[1], baselines[2]
        );
        json_rows.push((spec.name, cells));
    }
    // Machine-readable dump (CSV) for EXPERIMENTS.md bookkeeping.
    if args.has("csv") {
        println!("CSV circuit,sigma,nb,ab,yo,y,yi,runtime_s,mu_t,sigma_t,rescued,broken");
        for (name, cells) in &json_rows {
            for (sigma, r) in [0.0, 1.0, 2.0].iter().zip(cells) {
                println!(
                    "CSV {},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.1},{:.1},{},{}",
                    name,
                    sigma,
                    r.nb,
                    r.ab,
                    r.yield_baseline,
                    r.yield_with_buffers,
                    r.improvement,
                    r.runtime.total_s,
                    r.mu_t,
                    r.sigma_t,
                    r.rescued,
                    r.broken
                );
            }
        }
    }
}
