//! Ablations A1–A4 from DESIGN.md: quantify each design choice of the flow.
//!
//! ```text
//! cargo run -p psbi-bench --release --bin ablation -- <which> \
//!     [--circuits s9234] [--samples 1000] [--sigma 0]
//! ```
//!
//! `<which>` ∈ `concentrate` (A1), `pruning` (A2), `sampler` (A3),
//! `zero-window` (A4), or `all`.

use psbi_bench::{run_cell, Args, ExperimentConfig};
use psbi_core::flow::{FlowConfig, InsertionResult};
use psbi_core::prune::PruneConfig;
use psbi_netlist::bench_suite::BenchmarkSpec;

fn report(label: &str, r: &InsertionResult) {
    println!(
        "{label:<26} Nb={:<4} Ab={:<6.2} Yo={:<6.2} Y={:<6.2} Yi={:<6.2} broken={:<3} T={:.2}s",
        r.nb,
        r.ab,
        r.yield_baseline,
        r.yield_with_buffers,
        r.improvement,
        r.broken,
        r.runtime.total_s
    );
}

fn run(label: &str, spec: &BenchmarkSpec, cfg: FlowConfig) -> InsertionResult {
    let r = run_cell(spec, cfg);
    report(label, &r);
    r
}

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let args = Args::from_env();
    let which = std::env::args()
        .nth(1)
        .filter(|w| !w.starts_with("--"))
        .unwrap_or_else(|| "all".to_string());
    let cfg = ExperimentConfig::parse(&args, &["s9234"]);
    let sigma: f64 = args.get("sigma").unwrap_or(0.0);
    let spec = cfg.circuits.first().expect("one circuit");
    println!(
        "# Ablation `{which}` — circuit {}, {} samples\n",
        spec.name, cfg.samples
    );

    if which == "concentrate" || which == "all" {
        println!("[A1] value concentration (push-to-zero / concentrate-to-average)");
        run("  with concentration", spec, cfg.flow_config(sigma));
        let mut off = cfg.flow_config(sigma);
        off.concentrate = false;
        let b = run("  without concentration", spec, off);
        println!(
            "  -> expect wider Ab (ranges) without concentration: {:.2} steps\n",
            b.ab
        );
    }
    if which == "pruning" || which == "all" {
        println!("[A2] buffer pruning");
        run("  with pruning", spec, cfg.flow_config(sigma));
        let mut off = cfg.flow_config(sigma);
        off.prune = PruneConfig {
            low: 0,
            critical: u64::MAX,
            reference_samples: None,
        };
        run("  without pruning", spec, off);
        println!("  -> expect more candidate buffers and longer runtime without pruning\n");
    }
    if which == "sampler" || which == "all" {
        println!("[A3] canonical-edge vs exact gate-level sampling");
        run("  canonical (SSTA) edges", spec, cfg.flow_config(sigma));
        let mut gate = cfg.flow_config(sigma);
        gate.gate_level_sampling = true;
        run("  gate-level exact", spec, gate);
        println!("  -> expect agreeing yields/buffer counts, higher runtime at gate level\n");
    }
    if which == "zero-window" || which == "all" {
        // The effect shows at relaxed targets, where rarely-tuned buffers
        // get windows far from zero; evaluate at +2σ unless overridden.
        let s4 = args.get("sigma").unwrap_or(2.0);
        println!("[A4] zero inside the final windows (at +{s4} sigma)");
        let mut free = cfg.flow_config(s4);
        free.force_zero_in_range = false;
        let free = run("  tuned-values-only windows", spec, free);
        let mut zero = cfg.flow_config(s4);
        zero.force_zero_in_range = true;
        let z = run("  windows forced thru 0", spec, zero);
        println!(
            "  -> broken chips {} vs {}; Ab {:.2} vs {:.2}\n",
            free.broken, z.broken, free.ab, z.ab
        );
    }
}
