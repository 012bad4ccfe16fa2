//! `tight_cell`: one Table I cell, `s38584` at T = µT.

use crate::host::{cpu_seconds, peak_rss_mb};
use crate::layers::{self, Replay, SetupTimes, SolveCounts};
use crate::{Column, Report, RunConfig, MIN_REPS};
use psbi_core::flow::{BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod};
use psbi_netlist::bench_suite;
use psbi_netlist::Circuit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The cell's circuit.
pub const CIRCUIT: &str = "s38584";

/// The cell's flow configuration at flow seed `seed` and `threads` flow
/// threads.
pub fn config(seed: u64, threads: usize) -> FlowConfig {
    FlowConfig {
        samples: 1000,
        yield_samples: 4000,
        calibration_samples: 1000,
        seed,
        target: TargetPeriod::SigmaFactor(0.0),
        threads,
        ..FlowConfig::default()
    }
}

fn generate() -> Result<Circuit, String> {
    bench_suite::by_name(CIRCUIT)
        .map(|spec| spec.generate())
        .ok_or_else(|| format!("unknown circuit {CIRCUIT}"))
}

/// One cold cell: a fresh circuit and flow, then `run_target`.
pub struct CellRun {
    /// Set-up stages (calibration read from the run).
    pub setup: SetupTimes,
    /// `run_target` wall minus its calibration.
    pub cell_s: f64,
    /// Process CPU seconds over `run_target`.
    pub cpu_s: f64,
    /// The result.
    pub result: InsertionResult,
}

/// Runs one cold cell, handing the still-live flow to `after` (for
/// replays against it).
///
/// # Errors
///
/// Set-up failures and panics inside the flow, as text.
pub fn run_cell(
    cfg: &FlowConfig,
    after: impl FnOnce(&BufferInsertionFlow<'_>, &InsertionResult),
) -> Result<CellRun, String> {
    let mut slot = None;
    let (flow, mut setup) = layers::generate_and_build(generate, &mut slot, cfg)?;
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| flow.run_target(cfg.target)))
        .map_err(|_| format!("{CIRCUIT} cell panicked"))?;
    let wall = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    setup.calibrate_s = result.runtime.calibration_s;
    after(&flow, &result);
    Ok(CellRun {
        setup,
        cell_s: wall - result.runtime.calibration_s,
        cpu_s,
        result,
    })
}

/// Runs the workload.
pub fn tight_cell(cfg: &RunConfig) -> Report {
    let mut rep = Report::new("tight_cell");
    if cfg.traced {
        traced(cfg, &mut rep);
    } else {
        untraced(cfg, &mut rep);
    }
    rep
}

fn untraced(cfg: &RunConfig, rep: &mut Report) {
    let flow_cfg = config(cfg.instance_seed, 2);
    // Untimed warm-up at a loose target: the process's first flow pays
    // one-off costs (thread and allocator start-up) no later cell sees.
    let warm_cfg = FlowConfig {
        target: TargetPeriod::SigmaFactor(2.0),
        ..flow_cfg.clone()
    };
    if let Err(e) = run_cell(&warm_cfg, |_, _| {}) {
        return rep.fail(1, e);
    }
    let started = Instant::now();
    let mut runs: Vec<CellRun> = Vec::new();
    let mut peak = 0.0;
    while runs.len() < MIN_REPS || started.elapsed().as_secs_f64() < cfg.seconds {
        rep.attempted += 1;
        match run_cell(&flow_cfg, |_, _| {}) {
            Ok(run) => {
                match runs.first() {
                    None => peak = peak_rss_mb(),
                    Some(first) if !layers::same_result(&first.result, &run.result) => {
                        rep.fail(1, "repeated cell produced a different result");
                    }
                    Some(_) => {}
                }
                runs.push(run);
            }
            Err(e) => {
                rep.fail(1, e);
                break;
            }
        }
    }
    rep.reps = runs.len();
    let mut setups = Vec::with_capacity(layers::SETUP_PROBES);
    for _ in 0..layers::SETUP_PROBES {
        match layers::probe_setup(generate, &flow_cfg) {
            Ok(t) => setups.push(t.total()),
            Err(e) => return rep.fail(1, e),
        }
    }

    // Untimed: the same cell under the independent verifier.
    rep.attempted += 1;
    let verify_cfg = FlowConfig {
        verify: true,
        ..flow_cfg
    };
    match run_cell(&verify_cfg, |_, _| {}) {
        Ok(run) => {
            match &run.result.diagnostics.verify {
                Some(v) if v.passed => {}
                Some(v) => rep.fail(1, format!("verifier: {v}")),
                None => rep.fail(1, "verifier did not run"),
            }
            if runs
                .first()
                .is_some_and(|first| !layers::same_result(&first.result, &run.result))
            {
                rep.fail(1, "verified cell produced a different result");
            }
        }
        Err(e) => rep.fail(1, e),
    }
    let Some(first) = runs.first() else {
        return;
    };
    let r = &first.result;
    let cell: Vec<f64> = runs.iter().map(|r| r.cell_s).collect();
    let cpu: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
    let inexact_share = r.stats.inexact_samples as f64 / (3 * flow_cfg.samples) as f64;
    let setup_s = rep.line_median("setup_s", &setups, "s");
    let cell_s = rep.line_median("cell_s", &cell, "s");
    let cpu_s = rep.line_median("cpu_s", &cpu, "s");
    rep.set("setup_s", setup_s);
    rep.set("wall_s", cell_s);
    rep.set("cpu_s", cpu_s);
    rep.set("peak_rss_mb", peak);
    rep.set("buffers", r.nb as f64);
    rep.set("yield_pct", r.yield_with_buffers);
    rep.line("peak_rss_mb", peak, "MiB");
    rep.line("buffers", r.nb as f64, "count");
    rep.line("yield_pct", r.yield_with_buffers, "%");
    rep.line("inexact_share", inexact_share, "ratio");
}

fn traced(cfg: &RunConfig, rep: &mut Report) {
    let flow_cfg = config(cfg.instance_seed, 2);
    let chrome = layers::chrome_path(cfg.chrome_trace.as_deref(), &cfg.work_dir);
    rep.attempted = 3;
    rep.reps = 1;
    // Untraced baseline (tracing off), also the set-up measurement.
    let base = match run_cell(&flow_cfg, |_, _| {}) {
        Ok(run) => run,
        Err(e) => return rep.fail(3, e),
    };
    layers::report_setup(rep, &base.setup);

    // Traced run at the workload's thread count: wall-time layers.
    layers::arm(&chrome);
    let traced = run_cell(&flow_cfg, |_, _| {});
    let snap = psbi_obs::metrics::snapshot();
    layers::disarm();
    let traced = match traced {
        Ok(run) => run,
        Err(e) => return rep.fail(2, e),
    };

    // Single-threaded reference: exactly reproducible work and cache
    // counts, the per-chip and sampling replays, thread scaling.
    // The replays run disarmed, so obs costs stay out of their timings.
    psbi_obs::metrics::arm(None);
    let mut replay = Replay::default();
    let mut counts = SolveCounts::default();
    let ref_cfg = config(cfg.instance_seed, 1);
    let reference = run_cell(&ref_cfg, |flow, r| {
        counts.add_memo(&psbi_obs::metrics::snapshot());
        psbi_obs::metrics::disarm();
        replay.cell(flow, &ref_cfg, r, layers::SOLVE_CHIPS);
    });
    psbi_obs::metrics::disarm();
    let reference = match reference {
        Ok(run) => run,
        Err(e) => return rep.fail(1, e),
    };
    for (what, run) in [("traced", &traced), ("1-thread", &reference)] {
        if !layers::same_result(&base.result, &run.result) {
            rep.fail(1, format!("{what} cell differs from the untraced cell"));
        }
    }

    let rt = &traced.result.runtime;
    let passes = [
        ("flow.a1_s", rt.pass_a1_s),
        ("flow.a3_s", rt.pass_a3_s),
        ("flow.b1_s", rt.pass_b1_s),
        ("flow.b2_s", rt.pass_b2_s),
        ("flow.group_s", layers::hist_s(&snap, "flow.group")),
        ("flow.yield_s", rt.yield_s),
    ];
    let covered: f64 = passes.iter().map(|(_, s)| s).sum();
    for (name, s) in passes {
        rep.put(name, s, Column::Wall);
    }
    rep.set("flow.coverage", covered / traced.cell_s);
    rep.set("flow.unattributed_share", 1.0 - covered / traced.cell_s);
    counts.add_flow(std::slice::from_ref(&reference.result), ref_cfg.samples);
    layers::report_solver_layers(rep, &snap, &counts, &replay);
    // No fleet or dispatch layer runs in this workload.
    for name in [
        "fleet.job_p50_s",
        "fleet.job_max_s",
        "journal.replay_s",
        "dispatch.overhead_s",
    ] {
        rep.put(name, 0.0, Column::Wall);
    }
    for name in [
        "fleet.overhead_share",
        "dispatch.leases_granted",
        "dispatch.leases_expired",
        "dispatch.jobs_redispatched",
        "dispatch.jobs_inline",
        "dispatch.heartbeats",
    ] {
        rep.set(name, 0.0);
    }
    rep.set("obs.trace_overhead", traced.cell_s / base.cell_s - 1.0);
    rep.set("flow.speedup_2t", reference.cell_s / traced.cell_s);
}
