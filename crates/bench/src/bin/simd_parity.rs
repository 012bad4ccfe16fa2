//! SIMD-parity probe: draws windows of the sample stream through every
//! canonical draw entry — the fused bound extraction
//! (`ConstraintBatch::draw_from`), the fused min-period scan
//! (`constraint::min_periods`), gathered `SampleBatch` rows and the
//! single-chip `fill_one` — and dumps every result as raw little-endian
//! bytes.
//!
//! ```text
//! cargo run -p psbi-bench --release --bin simd_parity -- \
//!     [--circuit s9234] [--samples 256] [--seed 42] [--out parity.bin]
//! ```
//!
//! The `simd-parity` CI job runs this twice — once on the default
//! (widest) kernel backend and once under `PSBI_FORCE_SCALAR=1` — and
//! `cmp`s the dumps: the batch engine's dispatch contract is that every
//! backend produces **byte-identical** buffers.  Each window leaves out
//! every fifth chip, as the flow's passes skip settled chips, so the AVX2
//! chip lanes see short last groups too.  The active backend and an
//! FNV-1a digest are printed to stderr so divergences are easy to spot in
//! job logs.

use psbi_bench::Args;
use psbi_liberty::Library;
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
    let args = Args::from_env("simd_parity");
    let spec = args.circuit();
    let circuit_name = spec.name;
    let samples: usize = args.get("samples").unwrap_or(256);
    let seed: u64 = args.get("seed").unwrap_or(42);
    let out_path: String = args.get("out").unwrap_or_else(|| "parity.bin".to_string());

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
    let mut mps = Vec::new();
    let mut chips = Vec::with_capacity(CHUNK);
    let mut dump = Vec::new();
    let mut lo = 0usize;
    while lo < samples {
        let len = CHUNK.min(samples - lo);
        chips.clear();
        chips.extend((lo as u64..(lo + len) as u64).filter(|k| k % 5 != 4));
        batch.reset(&sg, chips.len());
        sampler.fill_gathered(seed, &chips, &mut batch);
        cons.draw_from(&sampler, seed, &chips, &skews, period, step);
        constraint::min_periods(&sampler, seed, &chips, &skews, &mut mps);
        for (row, mp) in mps.iter().enumerate() {
            let v = batch.view(row);
            push_f64s(&mut dump, v.edge_max);
            push_f64s(&mut dump, v.edge_min);
            push_f64s(&mut dump, v.setup);
            push_f64s(&mut dump, v.hold);
            let c = cons.view(row);
            push_i64s(&mut dump, c.setup_bound);
            push_i64s(&mut dump, c.hold_bound);
            push_f64s(&mut dump, &[mp.period]);
            dump.push(u8::from(mp.hold_ok));
            dump.extend_from_slice(&(mp.critical_edge as u64).to_le_bytes());
        }
        lo += len;
    }
    // Single-chip replay bytes ride along: `fill_one` (the scalar
    // reference on every backend) must reproduce batch rows, so its output
    // belongs in the parity surface too.
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
