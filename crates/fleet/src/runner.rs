//! The campaign executor behind `psbi-fleet run`, and the job executor
//! every campaign consumer shares.
//!
//! [`run_campaign`] admits its campaign into a private instance of the
//! dispatcher's campaign engine and runs `workers` local lease consumers
//! on it, with no socket in between: each takes a one-job lease from the
//! lowest pending job, runs it on its circuit's flow and hands the record
//! back for the engine to commit — through the same reorder buffer,
//! quarantine and verify paths `psbi-fleet serve` uses.  Determinism
//! comes from three ingredients:
//!
//! 1. every job's result is a pure function of (spec, job index) — the
//!    flow is bit-reproducible for any thread count, and job `i` always
//!    names the same (circuit, sigma factor) cell;
//! 2. the engine commits records to the journal **in job-index order**,
//!    so the journal's bytes never depend on completion order;
//! 3. wall-clock times stay out of the journal (they live in
//!    [`CampaignOutcome`]).
//!
//! Together: a campaign's journal and canonical report are byte-identical
//! for any worker count, and a mid-campaign kill + resume reproduces the
//! uninterrupted run exactly (pinned by `tests/fleet_determinism.rs`).

use crate::dispatch::engine::{consume_leases, report_progress, Campaign, Engine, Finished};
use crate::error::FleetError;
use crate::journal::JobRecord;
use crate::spec::{CampaignSpec, JobSpec};
use psbi_core::flow::{
    BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod, WorkspacePool,
};
use psbi_netlist::Circuit;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Execution knobs for one `run_campaign` invocation.
///
/// These are *runtime* knobs: none of them participates in the spec
/// fingerprint, because none of them may change a result.  The retry
/// budget is not one of them: every campaign consumer retries a
/// panicking job twice before it quarantines it.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Concurrent jobs (0 = all cores).  Total parallelism is
    /// `workers × threads_per_job`.
    pub workers: usize,
    /// Stop after this many *newly executed* jobs (checkpoint test hook
    /// and incremental-run knob); `None` runs to completion.
    pub max_jobs: Option<usize>,
    /// Print per-job progress lines to stderr, plus a periodic summary
    /// line (jobs committed / total, quarantines, elapsed, ETA) from the
    /// campaign engine's progress reporter.
    pub progress: bool,
    /// Arm span tracing for this campaign with the given flush
    /// destination (Chrome trace-event JSON — load in Perfetto).
    /// Equivalent to setting `PSBI_TRACE=<path>`; the trace covers
    /// sampling batches, flow passes, solver stages and the fleet job
    /// lifecycle.  Canonical outputs are byte-identical with tracing on
    /// or off (`tests/obs.rs` pins this).
    pub trace: Option<PathBuf>,
    /// Run the independent result verifier on every job
    /// (`FlowConfig::verify`).  Canonical outputs are untouched; a
    /// failed verification surfaces as [`FleetError::Verify`] *after*
    /// the campaign completes and every record is journaled.
    pub verify: bool,
}

/// What one `run_campaign` invocation produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Committed records, in job order (resumed prefix + newly executed).
    pub records: Vec<JobRecord>,
    /// Jobs replayed from the journal instead of executed.
    pub resumed_jobs: usize,
    /// Jobs executed by this invocation.
    pub executed_jobs: usize,
    /// Grid size.
    pub total_jobs: usize,
    /// Per-job wall time in seconds; `None` for jobs that were resumed
    /// from the journal (or not yet run).  Indexed by job.
    pub job_wall_s: Vec<Option<f64>>,
    /// Per-job solver counters; `None` for resumed jobs.
    /// Non-canonical, like [`CampaignOutcome::job_wall_s`]: the counters
    /// depend on which targets warmed a flow's memo first, which races
    /// with worker scheduling — results never do.
    ///
    /// Jobs **resumed from the journal are `None` by design**: the
    /// journal carries only the canonical byte surface, and these
    /// counters are quarantined from it (they differ between the default
    /// and the reference mode while the results do not), so an
    /// interrupted-and-resumed
    /// campaign cannot recover the diagnostics of jobs a previous
    /// process executed.  Aggregations label themselves "executed jobs"
    /// accordingly (`resumed_diagnostics_quarantined` in the runner
    /// tests pins this contract).
    pub job_diagnostics: Vec<Option<psbi_core::flow::FlowDiagnostics>>,
    /// Wall time of this invocation.
    pub wall_s: f64,
}

impl CampaignOutcome {
    /// Whether every grid cell has a record.
    pub fn complete(&self) -> bool {
        self.records.len() == self.total_jobs
    }
}

/// Best-effort human-readable panic payload (deterministic for string
/// panics, which is all the fault harness and the flow ever raise).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many times a panicking job is re-executed before it is
/// quarantined, by every campaign consumer: `run`'s, `serve`'s inline
/// fallback and every worker.  Retries are deterministic: job `i` always
/// re-runs the same pure function, so a retry either reproduces the panic
/// (systematic fault → quarantine) or the first panic was transient
/// injection and the retry's result is the canonical one.
pub(crate) const RETRIES: usize = 2;

/// Runs one job under `catch_unwind`, retried up to [`RETRIES`] times.
///
/// `Ok` is the job's (bit-deterministic) result; `Err` carries the final
/// panic message after the budget is exhausted — the caller quarantines.
/// Unwinding cannot corrupt the flow: workspaces checked out when a
/// panic strikes are simply not returned to the pool, shared mutexes
/// recover from poisoning, and every retry recomputes from the same
/// deterministic inputs.
pub(crate) fn execute_job(
    flow: &BufferInsertionFlow,
    job: &JobSpec,
) -> Result<InsertionResult, String> {
    let mut fault = String::new();
    for attempt in 0..=RETRIES {
        let _span = psbi_obs::Span::enter_with(
            "fleet.job.attempt",
            &[("job", job.index as u64), ("attempt", attempt as u64)],
        );
        psbi_obs::metrics::counter_add("fleet.job.attempts", 1);
        if attempt > 0 {
            psbi_obs::metrics::counter_add("fleet.jobs.retried", 1);
        }
        match catch_unwind(AssertUnwindSafe(|| {
            if psbi_fault::failpoint!("fleet.job.panic", "job" = job.index) {
                panic!("injected fault: fleet.job.panic");
            }
            flow.run_target(TargetPeriod::SigmaFactor(job.sigma_factor))
        })) {
            Ok(result) => return Ok(result),
            Err(payload) => fault = panic_message(payload),
        }
    }
    Err(fault)
}

/// Runs one job — retried, and quarantined past the retry budget — into
/// the record the engine commits, with its wall time, solver counters
/// and verifier verdict.
fn run_job(flow: &BufferInsertionFlow, job: &JobSpec) -> Finished {
    let _job_span = psbi_obs::Span::enter_with("fleet.job", &[("job", job.index as u64)]);
    let t_job = Instant::now();
    let executed = {
        let _timer = psbi_obs::metrics::timer("fleet.job.wall");
        execute_job(flow, job)
    };
    let wall_s = Some(t_job.elapsed().as_secs_f64());
    psbi_obs::metrics::counter_add("fleet.jobs.executed", 1);
    match executed {
        Ok(result) => Finished {
            record: JobRecord::from_result(job, &result),
            verify_failed: result
                .diagnostics
                .verify
                .as_ref()
                .filter(|report| !report.passed)
                .map(ToString::to_string),
            wall_s,
            diagnostics: Some(result.diagnostics),
        },
        Err(fault) => {
            psbi_obs::metrics::counter_add("fleet.jobs.quarantined", 1);
            Finished {
                record: JobRecord::quarantined(job, fault),
                verify_failed: None,
                wall_s,
                diagnostics: None,
            }
        }
    }
}

/// Runs one lease's jobs sequentially, handing each to `emit` — the
/// executor of dispatch workers and of `serve`'s inline fallback, which
/// differ only in where records go (the wire vs the engine).  Jobs are
/// grouped by circuit; each needed circuit is materialised once, served
/// by one flow over the shared `pool`, and its solver state is released
/// when its last batch job finishes.  `emit` returning `false` stops the
/// batch early (lease expired, connection lost, campaign failed) —
/// remaining jobs are simply not run.
///
/// # Errors
///
/// Circuit materialisation / flow construction failures.
pub(crate) fn execute_batch(
    spec: &CampaignSpec,
    jobs: &[JobSpec],
    pool: &Arc<WorkspacePool>,
    verify: bool,
    emit: &mut dyn FnMut(Finished) -> bool,
) -> Result<(), FleetError> {
    let mut by_circuit: BTreeMap<usize, Vec<&JobSpec>> = BTreeMap::new();
    for job in jobs {
        by_circuit.entry(job.circuit_index).or_default().push(job);
    }
    let mut cfg = spec.flow_config();
    cfg.verify = verify;
    for jobs in by_circuit.into_values() {
        let circuit = jobs[0].circuit.materialize().map_err(FleetError::Circuit)?;
        let flow = build_flow(&circuit, &cfg, pool)?;
        let finished = jobs.into_iter().all(|job| emit(run_job(&flow, job)));
        flow.release_solver_state();
        if !finished {
            break;
        }
    }
    Ok(())
}

/// Builds `circuit`'s flow over `pool`.
fn build_flow<'c>(
    circuit: &'c Circuit,
    cfg: &FlowConfig,
    pool: &Arc<WorkspacePool>,
) -> Result<BufferInsertionFlow<'c>, FleetError> {
    BufferInsertionFlow::builder(circuit, cfg.clone())
        .pool(Arc::clone(pool))
        .build()
        .map_err(|e| FleetError::Circuit(format!("{}: {e}", circuit.name)))
}

/// The per-job progress line of a local run.
fn print_job_line(f: &Finished, total: usize) {
    let r = &f.record;
    let verdict = if r.quarantined {
        format!("QUARANTINED after {} attempts: {}", RETRIES + 1, r.fault)
    } else {
        let (y0, y, wall) = (
            r.yield_baseline,
            r.yield_with_buffers,
            f.wall_s.unwrap_or(0.0),
        );
        format!("Y {y0:.2}% -> {y:.2}% ({} buffers, {wall:.2}s)", r.nb)
    };
    let (job, circuit, k) = (r.job + 1, &r.circuit_id, r.sigma_factor);
    eprintln!("psbi-fleet: job {job}/{total} {circuit} k={k} {verdict}");
}

/// The outcome of a campaign whose window is fully committed.
fn outcome(c: Campaign, t_start: Instant) -> CampaignOutcome {
    CampaignOutcome {
        executed_jobs: c.records.len() - c.resumed,
        resumed_jobs: c.resumed,
        total_jobs: c.total,
        records: c.records,
        job_wall_s: c.job_wall_s,
        job_diagnostics: c.job_diagnostics,
        wall_s: t_start.elapsed().as_secs_f64(),
    }
}

/// Runs (or resumes) `spec` against the journal at `journal_path`.
///
/// Completed jobs found in the journal are never re-executed; the rest are
/// run by `workers` local consumers of a private campaign engine.  See the
/// module docs for the determinism contract.
///
/// # Errors
///
/// Spec validation, circuit materialisation / flow construction failures,
/// journal mismatches and IO errors; [`FleetError::Worker`] when a panic
/// escapes a job's retry harness (e.g. at commit time), and
/// [`FleetError::Verify`] — after every record is journaled — when the
/// independent verifier rejected a job.
pub fn run_campaign(
    spec: &CampaignSpec,
    journal_path: &std::path::Path,
    opts: &FleetOptions,
) -> Result<CampaignOutcome, FleetError> {
    let t_start = Instant::now();
    if let Some(path) = &opts.trace {
        psbi_obs::trace::arm(path.clone());
    }
    // Flush both obs sinks however this returns; a failed flush only
    // warns — the canonical journal is already safely on disk by then.
    let _flush_obs = psbi_obs::flush_on_drop();
    spec.validate()?;
    let total = spec.jobs().len();
    let _campaign_span = psbi_obs::Span::enter_with("fleet.campaign", &[("jobs", total as u64)]);
    psbi_obs::metrics::gauge_set("fleet.jobs.total", total as u64);

    let campaign = Campaign::open(
        spec.clone(),
        journal_path.to_path_buf(),
        opts.max_jobs,
        opts.verify,
    )?;
    psbi_obs::metrics::counter_add("fleet.jobs.resumed", campaign.resumed as u64);
    let pending = campaign.pending.len();
    if pending == 0 {
        return Ok(outcome(campaign, t_start));
    }

    // One flow per circuit with jobs in this window, built up front and
    // shared by every consumer (timing graph and canonical sampler built
    // once; µT/σT calibration computed on first use and cached for the
    // rest of the sigma sweep), all checking worker scratch out of one
    // pool.  `circuit_pending` counts each circuit's jobs down: the
    // consumer finishing a circuit's last job releases that flow's
    // cross-chip memo, capping peak memory at the circuits still in
    // flight.
    let mut circuit_pending = vec![0usize; spec.circuits.len()];
    for job in &campaign.jobs[campaign.resumed..campaign.end] {
        circuit_pending[job.circuit_index] += 1;
    }
    let pool = Arc::new(WorkspacePool::new());
    let mut cfg = spec.flow_config();
    cfg.verify = opts.verify;
    let circuits: Vec<Option<Circuit>> = spec
        .circuits
        .iter()
        .zip(&circuit_pending)
        .map(|(circuit, &jobs)| {
            (jobs > 0)
                .then(|| circuit.materialize())
                .transpose()
                .map_err(FleetError::Circuit)
        })
        .collect::<Result<_, _>>()?;
    let flows: Vec<Option<BufferInsertionFlow>> = circuits
        .iter()
        .map(|c| c.as_ref().map(|c| build_flow(c, &cfg, &pool)).transpose())
        .collect::<Result<_, _>>()?;
    let circuit_pending: Vec<AtomicUsize> =
        circuit_pending.into_iter().map(AtomicUsize::new).collect();
    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(pending);

    let engine = Engine::new();
    let id = engine.lock().admit(campaign);
    let consumers_done = AtomicBool::new(false);
    let consume = || {
        consume_leases(
            &engine,
            // One-job leases from the lowest pending job: the grain and
            // order of a shared job cursor.  No reaper runs here, so the
            // lease deadline is never read.
            |t| t.grant_lease(0, 0, 1),
            || false,
            |lease, emit| {
                for job in &lease.jobs {
                    let flow = flows[job.circuit_index]
                        .as_ref()
                        .expect("every circuit with jobs in the window has a flow");
                    let finished = run_job(flow, job);
                    // Every `run_target` of the circuit has returned by
                    // the time its count hits zero, so the release cannot
                    // race a park.  Purely a memory knob — a resumed
                    // invocation simply starts this circuit cold.
                    if circuit_pending[job.circuit_index].fetch_sub(1, Ordering::Relaxed) == 1 {
                        flow.release_solver_state();
                    }
                    if opts.progress {
                        print_job_line(&finished, total);
                    }
                    if !emit(finished) {
                        break;
                    }
                }
                Ok(())
            },
        );
    };
    // The scope runs under `catch_unwind`: a panic that escapes a
    // consumer outside the per-job retry harness must not abort the
    // process — the journal's valid prefix is on disk and resume recovers
    // it.  Consumers are joined explicitly so the progress reporter can be
    // told to stop before the scope would otherwise wait on it.
    let scope_panic = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..workers).map(|_| scope.spawn(consume)).collect();
            if opts.progress {
                scope.spawn(|| report_progress(&engine, || consumers_done.load(Ordering::Relaxed)));
            }
            let mut consumer_panic = None;
            for consumer in consumers {
                if let Err(payload) = consumer.join() {
                    consumer_panic.get_or_insert(payload);
                }
            }
            consumers_done.store(true, Ordering::Relaxed);
            if let Some(payload) = consumer_panic {
                std::panic::resume_unwind(payload);
            }
        })
    }));

    let mut c = engine.lock().campaigns.remove(&id).expect("admitted above");
    if let Some(e) = c.failed.take() {
        return Err(e);
    }
    if let Err(payload) = scope_panic {
        return Err(FleetError::Worker(panic_message(payload)));
    }
    if let Some(e) = c.verify_error() {
        return Err(e);
    }
    Ok(outcome(c, t_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbi_core::flow::FlowConfig;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "psbi_fleet_runner_test_{tag}_{}",
            std::process::id()
        ))
    }

    fn quick_spec() -> CampaignSpec {
        CampaignSpec {
            samples: 60,
            yield_samples: 120,
            calibration_samples: 120,
            ..CampaignSpec::example()
        }
    }

    #[test]
    fn campaign_runs_resumes_and_is_worker_count_invariant() {
        let spec = quick_spec();
        let path_a = tmp_path("a");
        let path_b = tmp_path("b");
        let path_c = tmp_path("c");
        for p in [&path_a, &path_b, &path_c] {
            let _ = std::fs::remove_file(p);
        }

        // Uninterrupted, 1 worker.
        let one = run_campaign(&spec, &path_a, &FleetOptions::default()).unwrap();
        assert!(one.complete());
        assert_eq!(one.executed_jobs, 4);

        // Uninterrupted, 4 workers: identical journal bytes and records.
        let four = run_campaign(
            &spec,
            &path_b,
            &FleetOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(one.records, four.records);
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap()
        );

        // Interrupted after 1 job, then resumed: same bytes again.
        let partial = run_campaign(
            &spec,
            &path_c,
            &FleetOptions {
                max_jobs: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!partial.complete());
        assert_eq!(partial.executed_jobs, 1);
        let finished = run_campaign(
            &spec,
            &path_c,
            &FleetOptions {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(finished.complete());
        assert_eq!(finished.resumed_jobs, 1);
        assert_eq!(finished.executed_jobs, 3);
        assert_eq!(finished.records, one.records);
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_c).unwrap()
        );

        // Re-running a complete campaign executes nothing.
        let noop = run_campaign(&spec, &path_a, &FleetOptions::default()).unwrap();
        assert_eq!(noop.executed_jobs, 0);
        assert_eq!(noop.resumed_jobs, 4);
        assert_eq!(noop.records, one.records);

        for p in [&path_a, &path_b, &path_c] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn released_solver_state_matches_a_fresh_flow() {
        // A flow's memo outlives `run_target` so the next sweep target
        // can replay it; `release_solver_state` must free it, so the next
        // target starts exactly as empty as a fresh flow's.
        let spec = quick_spec();
        let circuit = spec.circuits[0].materialize().unwrap();
        let cfg = FlowConfig {
            threads: 1,
            ..spec.flow_config()
        };
        let pool = Arc::new(WorkspacePool::new());
        let flow = BufferInsertionFlow::builder(&circuit, cfg.clone())
            .pool(Arc::clone(&pool))
            .build()
            .unwrap();
        let k1 = TargetPeriod::SigmaFactor(1.0);
        let first = flow.run_target(TargetPeriod::SigmaFactor(0.0));
        assert!(first.diagnostics.memo_entries > 0, "k=0 published nothing");
        flow.release_solver_state();
        let released = flow.run_target(k1);
        let fresh = BufferInsertionFlow::builder(&circuit, cfg)
            .pool(pool)
            .build()
            .unwrap()
            .run_target(k1);
        assert_eq!(
            released.diagnostics.memo_entries, fresh.diagnostics.memo_entries,
            "a released memo must not carry k=0 entries into k=1"
        );
    }

    #[test]
    fn verify_option_is_byte_neutral_and_populates_reports() {
        // --verify must not change a single canonical byte: the verifier
        // only *re-checks* results.  Its reports land in the (in-memory,
        // non-canonical) diagnostics.
        let spec = quick_spec();
        let path_plain = tmp_path("verify_plain");
        let path_verify = tmp_path("verify_on");
        for p in [&path_plain, &path_verify] {
            let _ = std::fs::remove_file(p);
        }
        let plain = run_campaign(&spec, &path_plain, &FleetOptions::default()).unwrap();
        let verified = run_campaign(
            &spec,
            &path_verify,
            &FleetOptions {
                verify: true,
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.records, verified.records);
        assert_eq!(
            std::fs::read(&path_plain).unwrap(),
            std::fs::read(&path_verify).unwrap()
        );
        for (j, diag) in verified.job_diagnostics.iter().enumerate() {
            let report = diag
                .as_ref()
                .and_then(|d| d.verify.as_ref())
                .unwrap_or_else(|| panic!("job {j} missing verify report"));
            assert!(report.passed, "job {j}: {report}");
            assert!(report.checks > 0);
        }
        assert!(plain
            .job_diagnostics
            .iter()
            .flatten()
            .all(|d| d.verify.is_none()));
        for p in [&path_plain, &path_verify] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn resumed_diagnostics_quarantined() {
        // Solver-cache counters are quarantined from the journal (they
        // differ between cache modes while the canonical bytes do not),
        // so a resumed invocation CANNOT recover them for jobs a prior
        // process executed: resumed slots stay `None`, executed slots
        // are `Some`, and the aggregate labels itself "executed jobs".
        let spec = quick_spec();
        let path = tmp_path("quarantine");
        let _ = std::fs::remove_file(&path);
        let first = run_campaign(
            &spec,
            &path,
            &FleetOptions {
                max_jobs: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(first.executed_jobs, 1);
        assert!(first.job_diagnostics[0].is_some());
        let resumed = run_campaign(&spec, &path, &FleetOptions::default()).unwrap();
        assert!(resumed.complete());
        assert_eq!(resumed.resumed_jobs, 1);
        assert!(
            resumed.job_diagnostics[0].is_none(),
            "journal-resumed jobs must not fabricate diagnostics"
        );
        for j in 1..resumed.total_jobs {
            assert!(
                resumed.job_diagnostics[j].is_some(),
                "executed job {j} must carry diagnostics"
            );
        }
        let report = crate::CampaignReport::from_outcome(&spec, &resumed);
        assert!(report.text().contains("executed jobs"));
        let timed = report.json(true);
        assert!(timed.contains("\"solver_cache\""));
        let _ = std::fs::remove_file(&path);
    }
}
