//! SIMD-parity probe: draws a window of the sample stream into a
//! [`psbi_timing::SampleBatch`], extracts its integer constraints, and
//! dumps every buffer as raw little-endian bytes.
//!
//! ```text
//! cargo run -p psbi-bench --release --bin simd_parity -- \
//!     [--circuit s9234] [--samples 256] [--seed 42] [--out parity.bin]
//! ```
//!
//! The `simd-parity` CI job runs this twice — once on the default
//! (widest) kernel backend and once under `PSBI_FORCE_SCALAR=1` — and
//! `cmp`s the dumps: the batch engine's dispatch contract is that every
//! backend produces **byte-identical** SoA buffers.  The active backend
//! and an FNV-1a digest are printed to stderr so divergences are easy to
//! spot in job logs.

use psbi_bench::Args;
use psbi_liberty::Library;
use psbi_netlist::bench_suite;
use psbi_timing::graph::TimingGraph;
use psbi_timing::sample::{chip_rng, sample_canonical, CanonicalBatchSampler, SampleBatch};
use psbi_timing::seq::SequentialGraph;
use psbi_timing::{constraint, ConstraintBatch, SampleTiming};
use psbi_variation::VariationModel;

/// Chunk size mirroring the flow's parallel work unit.
const CHUNK: usize = 64;

fn push_f64s(out: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_i64s(out: &mut Vec<u8>, values: &[i64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let args = Args::from_env();
    let circuit_name: String = args.get("circuit").unwrap_or_else(|| "s9234".to_string());
    let samples: usize = args.get("samples").unwrap_or(256);
    let seed: u64 = args.get("seed").unwrap_or(42);
    let out_path: String = args.get("out").unwrap_or_else(|| "parity.bin".to_string());

    let spec = bench_suite::by_name(&circuit_name)
        .unwrap_or_else(|| panic!("unknown circuit `{circuit_name}`"));
    let circuit = spec.generate();
    let lib = Library::industry_like();
    let model = VariationModel::paper_defaults();
    let tg = TimingGraph::build(&circuit, &lib, &model).expect("valid circuit");
    let sg = SequentialGraph::extract(&tg);
    let skews = vec![0.0; sg.n_ffs];

    // A realistic period/step (median unbuffered min-period of a probe),
    // so the floored bounds sit near real step boundaries.
    let mut st = SampleTiming::for_graph(&sg);
    let mut periods = Vec::with_capacity(128);
    for k in 0..128u64 {
        let (globals, mut rng) = chip_rng(seed, k);
        sample_canonical(&sg, &globals, &mut rng, &mut st);
        periods.push(constraint::min_period(&sg, &st, &skews).period);
    }
    let period = psbi_variation::mean(&periods);
    let step = period / 160.0;

    let sampler = CanonicalBatchSampler::new(&sg);
    let mut batch = SampleBatch::new();
    let mut cons = ConstraintBatch::new();
    let mut dump = Vec::new();
    let mut lo = 0usize;
    while lo < samples {
        let len = CHUNK.min(samples - lo);
        batch.reset(&sg, len);
        sampler.fill(seed, lo as u64, &mut batch);
        cons.build_from(&sg, &batch, &skews, period, step);
        for row in 0..len {
            let v = batch.view(row);
            push_f64s(&mut dump, v.edge_max);
            push_f64s(&mut dump, v.edge_min);
            push_f64s(&mut dump, v.setup);
            push_f64s(&mut dump, v.hold);
            let c = cons.view(row);
            push_i64s(&mut dump, c.setup_bound);
            push_i64s(&mut dump, c.hold_bound);
        }
        lo += len;
    }
    // Single-chip replay bytes ride along: `fill_one` must reproduce
    // batch rows on every backend, so its output belongs in the parity
    // surface too.
    for index in [0u64, 1, (samples as u64).saturating_sub(1), 99_991] {
        sampler.fill_one(seed, index, &mut st);
        push_f64s(&mut dump, &st.edge_max);
        push_f64s(&mut dump, &st.edge_min);
        push_f64s(&mut dump, &st.setup);
        push_f64s(&mut dump, &st.hold);
    }

    std::fs::write(&out_path, &dump).expect("write parity dump");
    eprintln!(
        "simd_parity: circuit {circuit_name}, {samples} chips, backend {}, \
         {} bytes, fnv1a {:016x} -> {out_path}",
        psbi_timing::simd::active().name(),
        dump.len(),
        psbi_variation::seeding::fnv1a(&dump)
    );
}
