//! Regenerates the paper's Fig. 4: buffer pruning on the tuning-count
//! graph.  Prints the tuning-count distribution after the min-count pass,
//! which nodes the prune rule removes, and how the surviving graph
//! partitions — the effect the paper credits for the speed-up ("may also
//! reduce the problem space significantly by partitioning the graph into
//! unconnected sub-graphs").
//!
//! ```text
//! cargo run -p psbi-bench --release --bin fig4_pruning -- \
//!     [--circuits s9234] [--samples 2000] [--sigma 0]
//! ```

use psbi_bench::{run_cell, Args, ExperimentConfig};
use psbi_core::flow::BufferInsertionFlow;
use psbi_timing::criticality;

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let args = Args::from_env();
    let cfg = ExperimentConfig::parse(&args, &["s9234"]);
    let sigma: f64 = args.get("sigma").unwrap_or(0.0);
    let spec = cfg.circuits.first().expect("one circuit");
    println!(
        "# Fig. 4 reproduction — pruning statistics, circuit {}, {} samples",
        spec.name, cfg.samples
    );
    let r = run_cell(spec, cfg.flow_config(sigma));

    // Edge criticality under the chosen period: where the tuning demand
    // comes from (the counts on Fig. 4's nodes).
    let circuit = spec.generate();
    let flow = BufferInsertionFlow::builder(&circuit, cfg.flow_config(sigma))
        .build()
        .expect("valid");
    let sg = flow.sequential_graph();
    let crit = criticality::analyze(sg, flow.skews(), r.period, r.step, 500, |k, st| {
        let (globals, mut rng) = psbi_timing::sample::chip_rng(cfg.seed ^ 0xC817, k);
        psbi_timing::sample::sample_canonical(sg, &globals, &mut rng, st);
    });
    println!("top violated edges (500-chip probe):");
    for (e, frac) in crit.top_setup_edges(8) {
        let edge = &sg.edges[e];
        println!(
            "  ff{} -> ff{}: violated in {:.1}% of chips",
            edge.from,
            edge.to,
            100.0 * frac
        );
    }
    println!(
        "distinct binding edges: {} of {}\n",
        crit.distinct_binding_edges(),
        sg.edges.len()
    );
    let total = spec.n_ffs;
    let removed = r.prune.removed.len();
    println!("flip-flops (candidate buffers):     {total}");
    println!(
        "pruned (count <= {} and no neighbour >= {}): {removed} ({:.1}%)",
        r.prune.low,
        r.prune.critical,
        100.0 * removed as f64 / total as f64
    );
    println!("buffers surviving pruning:          {}", r.prune.kept);
    println!(
        "buffers with tunings after step 2:  {}",
        r.buffers_before_grouping
    );
    println!("physical buffers after grouping:    {}", r.nb);
    println!();
    println!(
        "total tunings in the min-count pass: {}",
        r.stats.a1_total_tunings
    );
    println!(
        "tunings per sample (avg):            {:.2}",
        r.stats.a1_total_tunings as f64 / cfg.samples as f64
    );
    println!(
        "samples unfixable even with all buffers: {} ({:.2}%)",
        r.stats.a1_infeasible,
        100.0 * r.stats.a1_infeasible as f64 / cfg.samples as f64
    );
}
