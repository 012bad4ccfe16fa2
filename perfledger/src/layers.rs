//! Layer measurements shared by the workloads: set-up probes, replays of
//! a cell's chips through the sampling, extraction and solver layers, and
//! readers for the `psbi_obs` registry.

use psbi_core::flow::{
    BufferInsertionFlow, FlowConfig, InsertionResult, SampleRequest, TargetPeriod,
};
use psbi_core::solve::{BufferSpace, PassDiagnostics, PushObjective, SampleSolver, SolveRequest};
use psbi_netlist::Circuit;
use psbi_obs::metrics::Snapshot;
use psbi_timing::sample::{CanonicalBatchSampler, SampleBatch};
use psbi_timing::ConstraintBatch;
use psbi_variation::seeding::stream_seed;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Chips per sampling/extraction batch — the flow's own work unit.
pub const BATCH: usize = 64;

/// Set-up probes per untraced run; `setup_s` is their median.
pub const SETUP_PROBES: usize = 5;

/// Chips whose A1 problem is solved cold for the per-chip latency
/// percentiles, spread evenly over a workload's cells.
pub const SOLVE_CHIPS: usize = 1000;

/// Seconds spent in each set-up stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Circuit generation.
    pub generate_s: f64,
    /// `FlowBuilder::build`.
    pub build_s: f64,
    /// The flow's first (µT, σT) calibration.
    pub calibrate_s: f64,
}

impl SetupTimes {
    /// Sum of the stages.
    pub fn total(&self) -> f64 {
        self.generate_s + self.build_s + self.calibrate_s
    }

    /// Adds another circuit's stages.
    pub fn add(&mut self, other: &SetupTimes) {
        self.generate_s += other.generate_s;
        self.build_s += other.build_s;
        self.calibrate_s += other.calibrate_s;
    }
}

/// Times `generate`, then `FlowBuilder::build` on its circuit.
///
/// # Errors
///
/// Generation or flow-construction failures, as text.
pub fn generate_and_build<'c>(
    generate: impl FnOnce() -> Result<Circuit, String>,
    slot: &'c mut Option<Circuit>,
    cfg: &FlowConfig,
) -> Result<(BufferInsertionFlow<'c>, SetupTimes), String> {
    let t = Instant::now();
    let circuit = slot.insert(generate()?);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let flow = BufferInsertionFlow::builder(circuit, cfg.clone())
        .build()
        .map_err(|e| format!("{}: {e}", circuit.name))?;
    let times = SetupTimes {
        generate_s,
        build_s: t.elapsed().as_secs_f64(),
        calibrate_s: 0.0,
    };
    Ok((flow, times))
}

/// Generates, builds and calibrates one circuit under `cfg`.  The
/// calibration is the only work a flow does before its first target and
/// is cached lazily inside `run_target`, so it is read from the
/// `RuntimeBreakdown` of a target run on one insertion and one yield
/// sample, which keeps the rest of that run negligible.
///
/// # Errors
///
/// Generation or flow-construction failures, as text.
pub fn probe_setup(
    generate: impl FnOnce() -> Result<Circuit, String>,
    cfg: &FlowConfig,
) -> Result<SetupTimes, String> {
    let probe_cfg = FlowConfig {
        samples: 1,
        yield_samples: 1,
        ..cfg.clone()
    };
    let mut slot = None;
    let (flow, mut times) = generate_and_build(generate, &mut slot, &probe_cfg)?;
    times.calibrate_s = flow
        .run_target(TargetPeriod::SigmaFactor(0.0))
        .runtime
        .calibration_s;
    Ok(times)
}

/// Sum of histogram `name` in seconds (its values are nanoseconds).
pub fn hist_s(snap: &Snapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9)
}

/// Counter `name` (0 when never incremented).
pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Arms the metrics registry and span tracing for a traced section,
/// clearing anything recorded before.  Spans go to `chrome`.
pub fn arm(chrome: &Path) {
    psbi_obs::metrics::arm(None);
    psbi_obs::trace::arm(chrome.to_path_buf());
}

/// Writes buffered spans to the trace file and disarms both sinks.
pub fn disarm() {
    if let Err(e) = psbi_obs::trace::flush() {
        eprintln!("perfledger: warning: trace flush failed: {e}");
    }
    psbi_obs::trace::disarm();
    psbi_obs::metrics::disarm();
}

/// The Chrome trace destination of a traced run: the requested path, or
/// a throwaway file in the work directory.
pub fn chrome_path(requested: Option<&Path>, work_dir: &Path) -> PathBuf {
    requested.map_or_else(|| work_dir.join("trace.json"), Path::to_path_buf)
}

/// What replaying a workload's chips through single layers measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Chips drawn and extracted.
    pub chips: u64,
    /// Seconds in `CanonicalBatchSampler::fill`.
    pub fill_s: f64,
    /// Seconds in `ConstraintBatch::build_from`.
    pub extract_s: f64,
    /// Microseconds per cold `SampleSolver::solve` of an A1 problem.
    pub solve_us: Vec<f64>,
}

impl Replay {
    /// Replays one finished cell on one thread: its insertion and yield
    /// chip counts through the sampler and the constraint extractor in
    /// [`BATCH`]-chip batches, then `solve_chips` of its insertion chips
    /// through a cache-less `SampleSolver::solve` on the floating (A1)
    /// buffer space.
    pub fn cell(
        &mut self,
        flow: &BufferInsertionFlow<'_>,
        cfg: &FlowConfig,
        r: &InsertionResult,
        solve_chips: usize,
    ) {
        let sg = flow.sequential_graph();
        let skews = flow.skews();
        let sampler = CanonicalBatchSampler::new(sg);
        let mut batch = SampleBatch::new();
        let mut cons = ConstraintBatch::new();
        for (label, n) in [("insert", cfg.samples), ("yield", cfg.yield_samples)] {
            let stream = stream_seed(cfg.seed, label);
            for lo in (0..n).step_by(BATCH) {
                let len = BATCH.min(n - lo);
                let t = Instant::now();
                batch.reset(sg, len);
                sampler.fill(stream, lo as u64, &mut batch);
                self.fill_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                cons.build_from(sg, &batch, skews, r.period, r.step);
                self.extract_s += t.elapsed().as_secs_f64();
                std::hint::black_box(cons.view(0).setup_bound.first());
                self.chips += len as u64;
            }
        }
        let space = BufferSpace::floating(sg.n_ffs, i64::from(cfg.steps));
        let mut solver = SampleSolver::new();
        for k in 0..solve_chips as u64 {
            let ic = flow.chip_constraints(SampleRequest::new("insert", k, r.period, r.step));
            let t = Instant::now();
            let out = solver.solve(SolveRequest::new(
                sg,
                ic.as_view(),
                &space,
                PushObjective::None,
                &cfg.solver,
            ));
            self.solve_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(out);
        }
    }
}

/// Solver work and cache counters summed over a workload's reference
/// (single-threaded, hence exactly reproducible) results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveCounts {
    /// All four passes' diagnostics, summed.
    pub diag: PassDiagnostics,
    /// `StageStats::inexact_samples`, summed.
    pub inexact: u64,
    /// Sample solves `inexact` counts over (A1 + A3 + B2 per cell).
    pub solves: u64,
    /// Distinct memo entries (largest table per flow, summed over flows).
    pub memo_entries: u64,
    /// `solve.memo.hit` counter over the reference runs.
    pub memo_hits: u64,
    /// `solve.memo.hit` + `solve.memo.miss` over the reference runs.
    pub memo_lookups: u64,
}

impl SolveCounts {
    /// Adds one flow's results (all its targets).
    pub fn add_flow(&mut self, results: &[InsertionResult], samples: usize) {
        for r in results {
            self.diag.merge(&r.diagnostics.total());
            self.inexact += r.stats.inexact_samples;
            self.solves += 3 * samples as u64;
        }
        self.memo_entries += results
            .iter()
            .map(|r| r.diagnostics.memo_entries)
            .max()
            .unwrap_or(0);
    }

    /// Adds the memo lookups a reference run's registry snapshot recorded.
    pub fn add_memo(&mut self, snap: &Snapshot) {
        let hits = snap.counter("solve.memo.hit").unwrap_or(0);
        self.memo_hits += hits;
        self.memo_lookups += hits + snap.counter("solve.memo.miss").unwrap_or(0);
    }
}

/// Fills the solver-layer metrics shared by every workload's traced run:
/// stage busy times from the traced snapshot, work and cache counts from
/// the reference runs, per-chip latencies and the sampling/extraction
/// replay.
pub fn report_solver_layers(
    rep: &mut crate::Report,
    traced: &Snapshot,
    counts: &SolveCounts,
    replay: &Replay,
) {
    use crate::host::quantile;
    use crate::Column::{Busy, Wall};
    for (metric, hist) in [
        ("solve.discovery_busy_s", "solve.stage.discovery"),
        ("solve.screen_busy_s", "solve.stage.screen"),
        ("solve.search_busy_s", "solve.stage.search"),
        ("solve.milp_busy_s", "solve.stage.milp"),
    ] {
        rep.put(metric, hist_s(traced, hist), Busy);
    }
    let d = &counts.diag;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.set("solve.regions", d.regions_total as f64);
    rep.set("solve.fallback_regions", d.regions_saturated as f64);
    rep.set(
        "solve.fallback_share",
        ratio(d.regions_saturated, d.regions_total),
    );
    rep.set("solve.search_nodes", d.search_nodes as f64);
    rep.set("solve.inexact_samples", counts.inexact as f64);
    rep.set("solve.inexact_share", ratio(counts.inexact, counts.solves));
    rep.set("solve.regions_reused", d.regions_reused as f64);
    rep.set("solve.supports_rehit", d.supports_rehit as f64);
    rep.set("solve.memo_hits", d.cross_chip_hits as f64);
    rep.set(
        "solve.memo_hit_rate",
        ratio(counts.memo_hits, counts.memo_lookups),
    );
    rep.set("solve.memo_entries", counts.memo_entries as f64);
    rep.set("solve.chip_p50_us", quantile(&replay.solve_us, 0.5));
    rep.set("solve.chip_p99_us", quantile(&replay.solve_us, 0.99));
    let rate = |s: f64| {
        if s > 0.0 {
            replay.chips as f64 / s
        } else {
            0.0
        }
    };
    rep.put("sample.fill_s", replay.fill_s, Wall);
    rep.set("sample.chips_per_s", rate(replay.fill_s));
    rep.put("extract.build_s", replay.extract_s, Wall);
    rep.set("extract.chips_per_s", rate(replay.extract_s));
}

/// Fills the set-up layer metrics.
pub fn report_setup(rep: &mut crate::Report, s: &SetupTimes) {
    rep.put("setup.generate_s", s.generate_s, crate::Column::Wall);
    rep.put("setup.build_s", s.build_s, crate::Column::Wall);
    rep.put("setup.calibrate_s", s.calibrate_s, crate::Column::Wall);
}

/// Whether two results agree on every canonical output the ledger pins
/// (buffer count, yield, and the grouped buffers themselves).
pub fn same_result(a: &InsertionResult, b: &InsertionResult) -> bool {
    a.nb == b.nb && a.yield_with_buffers == b.yield_with_buffers && a.groups == b.groups
}
