//! Perf-trajectory harness: times the fused sampling + constraint
//! extraction entry the flow's passes run (`ConstraintBatch::draw_from`)
//! against the scalar per-sample path and one full flow run on a
//! paper-scale circuit, then writes `BENCH_sampling.json` so future PRs
//! can track throughput regressions.
//!
//! ```text
//! cargo run -p psbi-bench --release --bin perf_json -- \
//!     [--circuit s9234] [--samples 10000] [--flow-samples 1000] \
//!     [--campaign-samples 400] [--seed 42] [--out BENCH_sampling.json]
//! ```
//!
//! Besides the sampling-throughput and flow-stage sections, the output
//! carries a `simd` section — the chunked fused draw + extraction pinned
//! to the scalar reference backend versus the active backend (AVX2 chip
//! lanes where the host has them), which the `perf-gate` CI job tracks — a
//! `cross_chip` section (a flow whose memo and zero-pass table an
//! adjacent target warmed versus a fresh flow at the same target, with
//! the region-memo hit rate and distinct-key count), a `search_pruning`
//! section (the default flow versus the reference mode, with exact B&B
//! node counts and cascade rounds asked and solved), a `solver_stages` breakdown inside the `flow` section
//! (discovery / saturation-screen / search / MILP seconds), and a
//! `campaign` section: a small 2-circuit × 2-target fleet campaign timed
//! against the same jobs as back-to-back `BufferInsertionFlow::run()`
//! calls, plus the pure journal-replay (resume no-op) time — the fleet
//! subsystem's overhead trajectory.

use psbi_bench::Args;
use psbi_core::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
use psbi_fleet::{run_campaign, CampaignSpec, FleetOptions};
use psbi_liberty::Library;
use psbi_netlist::bench_suite::CircuitRef;
use psbi_timing::graph::TimingGraph;
use psbi_timing::sample::{chip_rng, sample_canonical, CanonicalBatchSampler, SampleTiming};
use psbi_timing::seq::SequentialGraph;
use psbi_timing::{constraint, ConstraintBatch, IntegerConstraints};
use psbi_variation::VariationModel;
use std::fmt::Write as _;
use std::time::Instant;

/// Chunk size mirroring the flow's parallel work unit.
const CHUNK: usize = 64;

/// The solver passes are sub-second at bench sizes, so single-shot wall
/// times are noise-dominated: run the measurement three times and keep
/// the fastest (results and diagnostics are identical across repeats —
/// the flows are deterministic, only wall time varies).
fn best_of<F: FnMut() -> (f64, psbi_core::flow::InsertionResult)>(
    mut run: F,
) -> (f64, psbi_core::flow::InsertionResult) {
    let mut best: Option<(f64, psbi_core::flow::InsertionResult)> = None;
    for _ in 0..3 {
        let (secs, r) = run();
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, r));
        }
    }
    best.expect("at least one run")
}

fn main() {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let args = Args::from_env("perf_json");
    let spec = args.circuit();
    let circuit_name = spec.name;
    let samples: usize = args.get("samples").unwrap_or(10_000);
    let flow_samples: usize = args.get("flow-samples").unwrap_or(1_000);
    let seed: u64 = args.get("seed").unwrap_or(42);
    let out_path: String = args
        .get("out")
        .unwrap_or_else(|| "BENCH_sampling.json".to_string());

    // Disarmed observability overhead, measured before anything arms the
    // registry: one span guard constructed and dropped per iteration is
    // the exact cost every instrumented site pays when PSBI_TRACE /
    // PSBI_METRICS are unset (a relaxed atomic load each).  The perf-gate
    // CI job pins a floor on this number.
    let obs_iters = 2_000_000u64;
    let t_obs = Instant::now();
    for _ in 0..obs_iters {
        let _ = std::hint::black_box(psbi_obs::Span::enter("bench.obs.disarmed"));
        psbi_obs::metrics::counter_add("bench.obs.disarmed", 1);
    }
    let disarmed_span_ns = t_obs.elapsed().as_nanos() as f64 / obs_iters as f64;

    let circuit = spec.generate();
    let lib = Library::industry_like();
    let model = VariationModel::paper_defaults();
    let tg = TimingGraph::build(&circuit, &lib, &model).expect("valid circuit");
    let sg = SequentialGraph::extract(&tg);
    let skews = vec![0.0; sg.n_ffs];

    // A realistic period/step: the median unbuffered min-period.
    let mut st = SampleTiming::for_graph(&sg);
    let mut periods = Vec::with_capacity(256);
    for k in 0..256u64 {
        let (globals, mut rng) = chip_rng(seed, k);
        sample_canonical(&sg, &globals, &mut rng, &mut st);
        periods.push(constraint::min_period(&sg, &st, &skews).period);
    }
    let period = psbi_variation::mean(&periods);
    let step = period / 160.0;

    eprintln!(
        "perf_json: {circuit_name} ({} FFs, {} edges), {samples} samples",
        sg.n_ffs,
        sg.edges.len()
    );

    // Scalar per-sample path: polar normal draws chip by chip, with the
    // SampleTiming/IntegerConstraints hoisted out of the loop exactly as
    // the pre-batch flow's worker loops reused them — an honest baseline,
    // not a per-chip-allocation strawman.
    let t0 = Instant::now();
    let mut sink = 0i64;
    let mut scalar_st = SampleTiming::for_graph(&sg);
    let mut scalar_ic = IntegerConstraints::for_graph(&sg);
    for k in 0..samples as u64 {
        let (globals, mut rng) = chip_rng(seed, k);
        sample_canonical(&sg, &globals, &mut rng, &mut scalar_st);
        scalar_ic.build(&sg, &scalar_st, &skews, period, step);
        sink = sink.wrapping_add(scalar_ic.setup_bound[0]);
    }
    let scalar_s = t0.elapsed().as_secs_f64();

    // Fused path: one ConstraintBatch reused across all chunks, each
    // chunk's chips drawn with inverse-transform normals and extracted
    // while still in cache — exactly what the flow's passes run (on the
    // process-wide kernel backend).
    let sampler = CanonicalBatchSampler::new(&sg);
    let mut cons = ConstraintBatch::new();
    let mut chips: Vec<u64> = Vec::with_capacity(CHUNK);
    let t1 = Instant::now();
    let mut lo = 0usize;
    while lo < samples {
        let len = CHUNK.min(samples - lo);
        chips.clear();
        chips.extend(lo as u64..(lo + len) as u64);
        cons.draw_from(&sampler, seed, &chips, &skews, period, step);
        sink = sink.wrapping_add(cons.view(0).setup_bound[0]);
        lo += len;
    }
    let batched_s = t1.elapsed().as_secs_f64();

    // SIMD trajectory: the same chunked fused draw pinned to the scalar
    // reference backend versus the active (widest) backend.  Both are
    // bit-identical populations, so this isolates pure kernel throughput.
    let backend = psbi_timing::simd::active();
    let mut time_backend = |b: psbi_timing::Backend| {
        let t = Instant::now();
        let mut lo = 0usize;
        while lo < samples {
            let len = CHUNK.min(samples - lo);
            chips.clear();
            chips.extend(lo as u64..(lo + len) as u64);
            cons.draw_from_with(b, &sampler, seed, &chips, &skews, period, step);
            sink = sink.wrapping_add(cons.view(0).setup_bound[0]);
            lo += len;
        }
        t.elapsed().as_secs_f64()
    };
    let simd_scalar_s = time_backend(psbi_timing::Backend::Scalar);
    let simd_wide_s = time_backend(backend);
    std::hint::black_box(sink);

    // One full flow run (calibration + passes + grouping + yield), under
    // an armed path-less metrics registry so the solver-stage histograms
    // (`solve.stage.*`) cover exactly this run — the old StageTimes
    // plumbing lives in obs now, and the solver reads no clock at all
    // unless the registry is armed.
    let cfg = FlowConfig {
        samples: flow_samples,
        yield_samples: flow_samples,
        calibration_samples: flow_samples,
        seed,
        target: TargetPeriod::SigmaFactor(0.0),
        ..FlowConfig::default()
    };
    psbi_obs::metrics::arm(None);
    let t2 = Instant::now();
    let result = BufferInsertionFlow::builder(&circuit, cfg.clone())
        .build()
        .expect("valid circuit")
        .run();
    let flow_s = t2.elapsed().as_secs_f64();
    let obs_flow = psbi_obs::metrics::snapshot();
    let stage_s = |name: &str| -> f64 {
        obs_flow
            .histogram(name)
            .map(|h| h.sum as f64 / 1e9)
            .unwrap_or(0.0)
    };

    // Cross-chip trajectory: a flow in the adjacent-target regime — one
    // flow swept to the next sweep point, its memo and zero-pass table
    // warmed by the previous target — against a fresh default flow at the
    // same target (whose memo and table only carry that target's own
    // passes).  Single-threaded so
    // the memo hit counters are deterministic (racing workers make them
    // vary, results never); each warm repeat builds a fresh flow so the
    // measured target is warmed by exactly one adjacent target, never by
    // itself.  The refit pass is forced on (`skip_refit_threshold: 0`,
    // the paper's full step 2, as at tight targets).
    let step_sum = |r: &psbi_core::flow::InsertionResult| r.runtime.step1_s + r.runtime.step2_s;
    let cc_cfg = FlowConfig {
        threads: 1,
        skip_refit_threshold: 0.0,
        ..cfg.clone()
    };
    let (cc_warm_step_s, cc_warm) = best_of(|| {
        let flow = BufferInsertionFlow::builder(&circuit, cc_cfg.clone())
            .build()
            .expect("valid circuit");
        let _ = flow.run_target(TargetPeriod::SigmaFactor(0.0));
        let r = flow.run_target(TargetPeriod::SigmaFactor(0.02));
        (step_sum(&r), r)
    });
    // A fresh flow per repeat: reusing one flow would let its memo and
    // pooled workspaces carry warm state into the later repeats, and
    // best-of would keep a not-actually-cold time.
    let (cc_cold_step_s, _) = best_of(|| {
        let flow = BufferInsertionFlow::builder(&circuit, cc_cfg.clone())
            .build()
            .expect("valid circuit");
        let r = flow.run_target(TargetPeriod::SigmaFactor(0.02));
        (step_sum(&r), r)
    });
    let cc_totals = cc_warm.diagnostics.total();
    let cc_hit_rate = cc_totals.cross_chip_hits as f64 / cc_totals.regions_total.max(1) as f64;

    // Search-pruning trajectory: the same single-threaded flow in the
    // default mode (memo attached, pruned B&B) versus the reference mode
    // (memo detached, unpruned B&B).  Node counts come from the flow's
    // own diagnostics at 1 worker, so they are deterministic and
    // host-independent — the perf gate pins them exactly, unlike the
    // wall-clock ratios.  Results are bit-identical either way; only the
    // number of B&B nodes visited differs.
    let sp_on_cfg = FlowConfig {
        threads: 1,
        ..cfg.clone()
    };
    let sp_off_cfg = FlowConfig {
        threads: 1,
        reference: true,
        ..cfg.clone()
    };
    // Search-stage seconds per run, isolated from the (identical)
    // sampling/extraction work in the step totals: diff of the armed
    // `solve.stage.search` span-histogram sum around each run.
    let search_stage_s = || {
        psbi_obs::metrics::snapshot()
            .histogram("solve.stage.search")
            .map(|h| h.sum as f64 / 1e9)
            .unwrap_or(0.0)
    };
    // Cascade rounds asked and solved per run: deterministic at 1
    // thread, so every repeat adds the same amount.
    let cascade = || {
        let snap = psbi_obs::metrics::snapshot();
        let read = |name: &str| snap.counter(name).unwrap_or(0);
        [
            read("solve.search.cascade.rounds"),
            read("solve.search.cascade.solves"),
        ]
    };
    let run_sp = |cfg: &FlowConfig| {
        let mut search_s = f64::MAX;
        let mut rounds = [0; 2];
        let (step_s, r) = best_of(|| {
            let before = search_stage_s();
            let counted = cascade();
            let flow = BufferInsertionFlow::builder(&circuit, cfg.clone())
                .build()
                .expect("valid circuit");
            let r = flow.run_target(TargetPeriod::SigmaFactor(0.0));
            search_s = search_s.min(search_stage_s() - before);
            let now = cascade();
            rounds = [now[0] - counted[0], now[1] - counted[1]];
            (step_sum(&r), r)
        });
        (step_s, search_s, rounds, r)
    };
    let (sp_on_s, sp_on_search_s, sp_on_cascade, sp_on_result) = run_sp(&sp_on_cfg);
    let (sp_off_s, sp_off_search_s, _, sp_off_result) = run_sp(&sp_off_cfg);
    assert_eq!(
        (
            sp_on_result.nb,
            sp_on_result.yield_with_buffers,
            &sp_on_result.groups
        ),
        (
            sp_off_result.nb,
            sp_off_result.yield_with_buffers,
            &sp_off_result.groups
        ),
        "the reference mode changed the flow's canonical result"
    );
    let sp_on = sp_on_result.diagnostics.total();
    let sp_off = sp_off_result.diagnostics.total();

    // Fleet campaign vs the same jobs back to back.  The campaign path
    // journals every job and commits in order; the back-to-back path is
    // the pre-fleet workflow (a fresh flow per job, nothing shared).
    let campaign_samples: usize = args.get("campaign-samples").unwrap_or(400);
    let spec = CampaignSpec {
        name: "perf".into(),
        circuits: vec![
            CircuitRef::parse("small_demo:1").expect("valid"),
            CircuitRef::parse("small_demo:2").expect("valid"),
        ],
        sigma_factors: vec![0.0, 2.0],
        samples: campaign_samples,
        yield_samples: campaign_samples,
        calibration_samples: campaign_samples,
        seed,
        threads_per_job: 1,
        ..CampaignSpec::default()
    };
    let journal =
        std::env::temp_dir().join(format!("psbi_perf_json_{}.journal", std::process::id()));
    let fleet_opts = FleetOptions {
        workers: 1,
        ..FleetOptions::default()
    };
    let _ = std::fs::remove_file(&journal);
    let t3 = Instant::now();
    let outcome = run_campaign(&spec, &journal, &fleet_opts).expect("campaign runs");
    let fleet_s = t3.elapsed().as_secs_f64();
    assert!(outcome.complete());
    let t4 = Instant::now();
    let replay = run_campaign(&spec, &journal, &fleet_opts).expect("replay");
    let resume_noop_s = t4.elapsed().as_secs_f64();
    assert_eq!(replay.executed_jobs, 0);
    let t5 = Instant::now();
    let mut back_to_back_buffers = 0usize;
    for circuit_ref in &spec.circuits {
        let c = circuit_ref.materialize().expect("valid circuit");
        for k in &spec.sigma_factors {
            let job_cfg = FlowConfig {
                target: TargetPeriod::SigmaFactor(*k),
                ..spec.flow_config()
            };
            back_to_back_buffers += BufferInsertionFlow::builder(&c, job_cfg)
                .build()
                .expect("valid circuit")
                .run()
                .nb;
        }
    }
    let back_to_back_s = t5.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&journal);
    std::hint::black_box(back_to_back_buffers);

    let scalar_rate = samples as f64 / scalar_s;
    let batched_rate = samples as f64 / batched_s;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"circuit\": \"{circuit_name}\",");
    let _ = writeln!(json, "  \"n_ffs\": {},", sg.n_ffs);
    let _ = writeln!(json, "  \"n_edges\": {},", sg.edges.len());
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"scalar_sampling_extraction\": {{");
    let _ = writeln!(json, "    \"seconds\": {scalar_s:.6},");
    let _ = writeln!(json, "    \"samples_per_sec\": {scalar_rate:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"batched_sampling_extraction\": {{");
    let _ = writeln!(json, "    \"seconds\": {batched_s:.6},");
    let _ = writeln!(json, "    \"samples_per_sec\": {batched_rate:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"batched_speedup\": {:.3},", scalar_s / batched_s);
    let _ = writeln!(json, "  \"simd\": {{");
    let _ = writeln!(json, "    \"backend\": \"{}\",", backend.name());
    let available: Vec<String> = psbi_timing::Backend::available()
        .iter()
        .map(|b| format!("\"{}\"", b.name()))
        .collect();
    let _ = writeln!(json, "    \"available\": [{}],", available.join(", "));
    let _ = writeln!(json, "    \"scalar_batch_s\": {simd_scalar_s:.6},");
    let _ = writeln!(json, "    \"wide_batch_s\": {simd_wide_s:.6},");
    let _ = writeln!(
        json,
        "    \"wide_vs_scalar_speedup\": {:.3}",
        simd_scalar_s / simd_wide_s
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"flow\": {{");
    let _ = writeln!(json, "    \"samples\": {flow_samples},");
    let _ = writeln!(
        json,
        "    \"calibration_s\": {:.6},",
        result.runtime.calibration_s
    );
    let _ = writeln!(json, "    \"step1_s\": {:.6},", result.runtime.step1_s);
    let _ = writeln!(json, "    \"step2_s\": {:.6},", result.runtime.step2_s);
    let _ = writeln!(json, "    \"step3_s\": {:.6},", result.runtime.step3_s);
    let _ = writeln!(json, "    \"yield_s\": {:.6},", result.runtime.yield_s);
    let _ = writeln!(json, "    \"total_s\": {flow_s:.6},");
    let _ = writeln!(
        json,
        "    \"yield_with_buffers\": {:.4},",
        result.yield_with_buffers
    );
    let _ = writeln!(json, "    \"buffers\": {},", result.nb);
    let _ = writeln!(json, "    \"solver_stages\": {{");
    let _ = writeln!(
        json,
        "      \"discovery_s\": {:.6},",
        stage_s("solve.stage.discovery")
    );
    let _ = writeln!(
        json,
        "      \"saturation_screen_s\": {:.6},",
        stage_s("solve.stage.screen")
    );
    let _ = writeln!(
        json,
        "      \"search_s\": {:.6},",
        stage_s("solve.stage.search")
    );
    // Armed-only obs counters for this (multi-threaded) flow run.
    // Informational: racy cross-chip memo hits skip whole searches, so
    // these sums are only pinned exactly in the single-threaded
    // `search_pruning` section below.
    let counter = |name: &str| obs_flow.counter(name).unwrap_or(0);
    let _ = writeln!(
        json,
        "      \"search_nodes\": {},",
        counter("solve.search.nodes")
    );
    let _ = writeln!(
        json,
        "      \"search_pruned\": {},",
        counter("solve.search.pruned.bound") + counter("solve.search.pruned.symmetry")
    );
    let _ = writeln!(json, "      \"milp_s\": {:.6}", stage_s("solve.stage.milp"));
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cross_chip\": {{");
    let _ = writeln!(json, "    \"flow_samples\": {flow_samples},");
    let _ = writeln!(json, "    \"warm_step_solve_s\": {cc_warm_step_s:.6},");
    let _ = writeln!(json, "    \"cold_step_solve_s\": {cc_cold_step_s:.6},");
    let _ = writeln!(
        json,
        "    \"warm_step_speedup\": {:.3},",
        cc_cold_step_s / cc_warm_step_s
    );
    let _ = writeln!(
        json,
        "    \"cross_chip_hits\": {},",
        cc_totals.cross_chip_hits
    );
    let _ = writeln!(json, "    \"hit_rate\": {cc_hit_rate:.6},");
    let _ = writeln!(
        json,
        "    \"distinct_keys\": {},",
        cc_warm.diagnostics.memo_entries
    );
    let _ = writeln!(json, "    \"regions_total\": {}", cc_totals.regions_total);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"search_pruning\": {{");
    let _ = writeln!(json, "    \"threads\": 1,");
    let _ = writeln!(json, "    \"pruned_step_s\": {sp_on_s:.6},");
    let _ = writeln!(json, "    \"unpruned_step_s\": {sp_off_s:.6},");
    let _ = writeln!(json, "    \"step_speedup\": {:.3},", sp_off_s / sp_on_s);
    let _ = writeln!(json, "    \"pruned_search_s\": {sp_on_search_s:.6},");
    let _ = writeln!(json, "    \"unpruned_search_s\": {sp_off_search_s:.6},");
    let _ = writeln!(
        json,
        "    \"search_speedup\": {:.3},",
        sp_off_search_s / sp_on_search_s
    );
    let _ = writeln!(json, "    \"search_nodes\": {},", sp_on.search_nodes);
    let _ = writeln!(
        json,
        "    \"search_nodes_unpruned\": {},",
        sp_off.search_nodes
    );
    let _ = writeln!(
        json,
        "    \"node_reduction\": {:.3},",
        sp_off.search_nodes as f64 / sp_on.search_nodes.max(1) as f64
    );
    let _ = writeln!(json, "    \"pruned_bound\": {},", sp_on.search_pruned_bound);
    let _ = writeln!(
        json,
        "    \"pruned_symmetry\": {},",
        sp_on.search_pruned_symmetry
    );
    let _ = writeln!(json, "    \"cascade_rounds\": {},", sp_on_cascade[0]);
    let _ = writeln!(json, "    \"cascade_solves\": {}", sp_on_cascade[1]);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign\": {{");
    let _ = writeln!(json, "    \"jobs\": {},", outcome.total_jobs);
    let _ = writeln!(json, "    \"samples\": {campaign_samples},");
    let _ = writeln!(json, "    \"fleet_s\": {fleet_s:.6},");
    let _ = writeln!(json, "    \"back_to_back_s\": {back_to_back_s:.6},");
    let _ = writeln!(
        json,
        "    \"fleet_overhead\": {:.4},",
        fleet_s / back_to_back_s - 1.0
    );
    let _ = writeln!(json, "    \"resume_noop_s\": {resume_noop_s:.6}");
    let _ = writeln!(json, "  }},");
    // Process-wide metrics snapshot (the registry armed before the flow
    // run stayed armed through the campaign sections), plus the cost of
    // an instrumented site with everything disarmed — the number the
    // perf-gate floors.
    let _ = writeln!(json, "  \"obs\": {{");
    let _ = writeln!(json, "    \"disarmed_span_ns\": {disarmed_span_ns:.2},");
    let _ = writeln!(
        json,
        "    \"metrics\": {}",
        psbi_obs::metrics::snapshot().to_json()
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH json");
    eprintln!(
        "perf_json: scalar {scalar_rate:.0}/s, batched {batched_rate:.0}/s \
         ({:.2}x), backend {} ({:.2}x vs scalar kernels), flow {flow_s:.2}s, \
         cross-chip warm step1+step2 {:.2}x ({} hits, {} keys), reference \
         mode {:.2}x the nodes -> {out_path}",
        scalar_s / batched_s,
        backend.name(),
        simd_scalar_s / simd_wide_s,
        cc_cold_step_s / cc_warm_step_s,
        cc_totals.cross_chip_hits,
        cc_warm.diagnostics.memo_entries,
        sp_off.search_nodes as f64 / sp_on.search_nodes.max(1) as f64
    );
    eprintln!("perf_json: disarmed obs site costs {disarmed_span_ns:.1} ns");
    print!("{json}");
}
