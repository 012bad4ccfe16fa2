//! Bring your own design: build a circuit programmatically (or parse an
//! ISCAS89 `.bench` file), supply a custom cell library, and run the flow.
//!
//! ```text
//! cargo run --release --example custom_circuit [path/to/design.bench]
//! ```

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
use psbi::liberty::Library;
use psbi::netlist::bench_format;
use psbi::netlist::Circuit;
use psbi::variation::VariationModel;

/// A hand-built 4-stage ring pipeline with an imbalanced stage.
fn build_pipeline() -> Circuit {
    let mut c = Circuit::new("ring_pipeline");
    let input = c.add_input("in");
    let ffs: Vec<_> = (0..4)
        .map(|i| c.add_ff(format!("r{i}"), "DFF_X1"))
        .collect();
    // Stage 0 -> 1: deliberately deep (the critical stage).
    let mut sig = ffs[0];
    for d in 0..9 {
        sig = c.add_gate(format!("s01_{d}"), "NAND2_X1", &[sig, input]);
    }
    c.connect_ff_data(ffs[1], sig).unwrap();
    // Stage 1 -> 2: shallow.
    let g = c.add_gate("s12_0", "INV_X1", &[ffs[1]]);
    c.connect_ff_data(ffs[2], g).unwrap();
    // Stage 2 -> 3: medium.
    let mut sig = ffs[2];
    for d in 0..4 {
        sig = c.add_gate(format!("s23_{d}"), "NOR2_X1", &[sig, input]);
    }
    c.connect_ff_data(ffs[3], sig).unwrap();
    // Stage 3 -> 0: medium, closing the ring.
    let mut sig = ffs[3];
    for d in 0..4 {
        sig = c.add_gate(format!("s30_{d}"), "AND2_X1", &[sig, input]);
    }
    c.connect_ff_data(ffs[0], sig).unwrap();
    c.add_output("out", ffs[3]);
    c
}

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi::obs::flush_on_drop();
    // Either parse a .bench file from the command line or build in code.
    let circuit = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path).expect("readable .bench file");
            bench_format::parse_bench(&text).expect("valid .bench netlist")
        }
        None => build_pipeline(),
    };
    println!(
        "circuit `{}`: {} FFs, {} gates",
        circuit.name,
        circuit.num_ffs(),
        circuit.num_gates()
    );

    // A custom library: like the built-in one but slower and more variable
    // (stored/loadable via the .plib text format too).
    let lib = Library::industry_like();
    let text = psbi::liberty::to_text(&lib);
    let lib = psbi::liberty::parse(&text).expect("library round-trips");
    let mut model = VariationModel::paper_defaults();
    model.global_share = 0.4; // more within-die variation than default

    let cfg = FlowConfig {
        samples: 600,
        yield_samples: 2_000,
        target: TargetPeriod::SigmaFactor(0.0),
        record_histograms: 1,
        ..FlowConfig::default()
    };
    let flow = BufferInsertionFlow::builder(&circuit, cfg)
        .library(lib)
        .model(model)
        .build()
        .expect("valid circuit");
    let r = flow.run();
    println!(
        "mu_T = {:.1} ps; inserted {} buffer(s); yield {:.1}% -> {:.1}%",
        r.mu_t, r.nb, r.yield_baseline, r.yield_with_buffers
    );
    for g in &r.groups {
        println!(
            "  buffer on FFs {:?}, window [{}, {}] steps",
            g.members, g.lo, g.hi
        );
    }
    if let Some(s) = r.snapshots.first() {
        println!(
            "most-used buffer (FF {}): final range [{}, {}]",
            s.ff, s.final_range.0, s.final_range.1
        );
    }
}
