//! The sharded campaign executor.
//!
//! Jobs are claimed work-stealing style — a shared atomic cursor over the
//! grid, idle workers taking the next unclaimed index — exactly the
//! fixed-chunk discipline `psbi_core::flow` uses for sample chunks, lifted
//! one level up.  Determinism comes from three ingredients:
//!
//! 1. every job's result is a pure function of (spec, job index) — the
//!    flow is bit-reproducible for any thread count, and job `i` always
//!    names the same (circuit, sigma factor) cell;
//! 2. completed records pass through a reorder buffer and are committed to
//!    the journal **in job-index order**, so the journal's bytes never
//!    depend on completion order;
//! 3. wall-clock times stay out of the journal (they live in
//!    [`CampaignOutcome`]).
//!
//! Together: a campaign's journal and canonical report are byte-identical
//! for any worker count, and a mid-campaign kill + resume reproduces the
//! uninterrupted run exactly (pinned by `tests/fleet_determinism.rs`).
//!
//! Circuits of one campaign share a single
//! [`psbi_core::flow::WorkspacePool`], and one flow per circuit serves the
//! whole sigma sweep (calibration cached, timing graph built once).

use crate::error::FleetError;
use crate::journal::{JobRecord, Journal};
use crate::spec::{CampaignSpec, JobSpec};
use psbi_core::flow::{BufferInsertionFlow, InsertionResult, TargetPeriod, WorkspacePool};
use psbi_netlist::Circuit;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Execution knobs for one `run_campaign` invocation.
///
/// These are *runtime* knobs: none of them participates in the spec
/// fingerprint, because none of them may change a result.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Concurrent jobs (0 = all cores).  Total parallelism is
    /// `workers × threads_per_job`.
    pub workers: usize,
    /// Stop after this many *newly executed* jobs (checkpoint test hook
    /// and incremental-run knob); `None` runs to completion.
    pub max_jobs: Option<usize>,
    /// Print per-job progress lines to stderr, plus a periodic summary
    /// line (jobs done / total, quarantines, elapsed, ETA) driven by the
    /// `psbi_obs` metrics registry — the runner arms a path-less registry
    /// if one is not armed already.
    pub progress: bool,
    /// Arm span tracing for this campaign with the given flush
    /// destination (Chrome trace-event JSON — load in Perfetto).
    /// Equivalent to setting `PSBI_TRACE=<path>`; the trace covers
    /// sampling batches, flow passes, solver stages and the fleet job
    /// lifecycle.  Canonical outputs are byte-identical with tracing on
    /// or off (`tests/obs.rs` pins this).
    pub trace: Option<PathBuf>,
    /// How many times a panicking job is re-executed before it is
    /// quarantined.  Retries are deterministic: job `i` always re-runs
    /// the same pure function, so a retry either reproduces the panic
    /// (systematic fault → quarantine) or the first panic was transient
    /// injection and the retry's result is the canonical one.
    pub retries: usize,
    /// Run the independent result verifier on every job
    /// (`FlowConfig::verify`).  Canonical outputs are untouched; a
    /// failed verification surfaces as [`FleetError::Verify`] *after*
    /// the campaign completes and every record is journaled.
    pub verify: bool,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            max_jobs: None,
            progress: false,
            trace: None,
            retries: 2,
            verify: false,
        }
    }
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

/// In-order commit state: the reorder buffer between racing workers and
/// the append-only journal.
struct CommitState {
    journal: Journal,
    /// Next job index to commit.
    next: usize,
    /// Completed jobs waiting for their predecessors (`None` diagnostics
    /// for quarantined jobs — they produced no result).
    parked: BTreeMap<usize, (JobRecord, f64, Option<psbi_core::flow::FlowDiagnostics>)>,
    records: Vec<JobRecord>,
    job_wall_s: Vec<Option<f64>>,
    job_diagnostics: Vec<Option<psbi_core::flow::FlowDiagnostics>>,
    /// Per-job verifier failures, accumulated in commit (= job) order.
    verify_failures: Vec<(usize, String)>,
    error: Option<FleetError>,
}

impl CommitState {
    /// Commits every parked record that has become next-in-line.
    fn drain(&mut self) -> Result<(), FleetError> {
        while let Some((record, wall, diag)) = self.parked.remove(&self.next) {
            let _span = psbi_obs::Span::enter_with("fleet.commit", &[("job", self.next as u64)]);
            if psbi_fault::failpoint!("fleet.commit.before_write", "job" = self.next) {
                // Simulate a crash in the window between claiming the
                // commit slot and writing the record: the journal keeps
                // its valid prefix and resume re-executes this job.
                panic!("injected fault: fleet.commit.before_write");
            }
            self.journal.append(&record)?;
            if let Some(report) = diag.as_ref().and_then(|d| d.verify.as_ref()) {
                if !report.passed {
                    self.verify_failures.push((self.next, report.to_string()));
                }
            }
            self.records.push(record);
            self.job_wall_s[self.next] = Some(wall);
            self.job_diagnostics[self.next] = diag;
            psbi_obs::metrics::counter_add("fleet.jobs.committed", 1);
            self.next += 1;
        }
        Ok(())
    }
}

/// Locks the commit state, recovering from poisoning: the state is a
/// reorder buffer of already-complete values, so a panic while a worker
/// held the lock (e.g. an injected commit fault) leaves it fully
/// consistent — the remaining workers may keep committing.
fn lock_commit<'a>(state: &'a Mutex<CommitState>) -> MutexGuard<'a, CommitState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
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

/// Runs one job under `catch_unwind` with a bounded retry budget.
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
    retries: usize,
) -> Result<InsertionResult, String> {
    let mut fault = String::new();
    for attempt in 0..=retries {
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

/// Runs a batch of grid jobs sequentially, quarantining past the retry
/// budget, handing each finished [`JobRecord`] to `emit` — the shared
/// execution core of the dispatch worker and the dispatcher's inline
/// fallback, which differ only in where records go (the wire vs the
/// journal).  Jobs are grouped by circuit; each needed circuit is
/// materialised once, served by one flow over the shared `pool`, and its
/// solver state is released when its last batch job finishes.  `emit`'s
/// second argument is the independent verifier's failure report when
/// `verify` is set and the re-check failed (non-canonical — it never
/// reaches the journal); `emit` returning `Ok(false)` stops the batch
/// early (lease expired, connection lost) — remaining jobs are simply
/// not run.
///
/// # Errors
///
/// Circuit materialisation / flow construction failures, and whatever
/// `emit` raises.
pub(crate) fn execute_batch(
    spec: &CampaignSpec,
    jobs: &[JobSpec],
    pool: &Arc<WorkspacePool>,
    retries: usize,
    verify: bool,
    emit: &mut dyn FnMut(JobRecord, Option<String>) -> Result<bool, FleetError>,
) -> Result<(), FleetError> {
    let mut by_circuit: BTreeMap<usize, Vec<&JobSpec>> = BTreeMap::new();
    for job in jobs {
        by_circuit.entry(job.circuit_index).or_default().push(job);
    }
    let mut cfg = spec.flow_config();
    cfg.verify = verify;
    for jobs in by_circuit.into_values() {
        let circuit = jobs[0].circuit.materialize().map_err(FleetError::Circuit)?;
        let flow = BufferInsertionFlow::builder(&circuit, cfg.clone())
            .pool(Arc::clone(pool))
            .build()
            .map_err(|e| FleetError::Circuit(format!("{}: {e}", circuit.name)))?;
        let mut stop = false;
        for job in jobs {
            let _job_span = psbi_obs::Span::enter_with("fleet.job", &[("job", job.index as u64)]);
            let executed = {
                let _timer = psbi_obs::metrics::timer("fleet.job.wall");
                execute_job(&flow, job, retries)
            };
            let (record, verify_failed) = match executed {
                Ok(result) => {
                    let verify_failed = result
                        .diagnostics
                        .verify
                        .as_ref()
                        .filter(|report| !report.passed)
                        .map(ToString::to_string);
                    (JobRecord::from_result(job, &result), verify_failed)
                }
                Err(fault) => {
                    psbi_obs::metrics::counter_add("fleet.jobs.quarantined", 1);
                    (JobRecord::quarantined(job, fault), None)
                }
            };
            psbi_obs::metrics::counter_add("fleet.jobs.executed", 1);
            if !emit(record, verify_failed)? {
                stop = true;
                break;
            }
        }
        flow.release_solver_state();
        if stop {
            break;
        }
    }
    Ok(())
}

/// Runs (or resumes) `spec` against the journal at `journal_path`.
///
/// Completed jobs found in the journal are never re-executed; the rest are
/// sharded over the worker pool.  See the module docs for the determinism
/// contract.
///
/// # Errors
///
/// Spec validation, circuit materialisation / flow construction failures,
/// journal mismatches and IO errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    journal_path: &std::path::Path,
    opts: &FleetOptions,
) -> Result<CampaignOutcome, FleetError> {
    let t_start = Instant::now();
    if let Some(path) = &opts.trace {
        psbi_obs::trace::arm(path.clone());
    }
    if opts.progress && !psbi_obs::metrics::enabled() {
        // The periodic progress line reads the metrics registry; arm a
        // path-less one (in-process only, nothing written at flush) when
        // the environment has not armed one already.
        psbi_obs::metrics::arm(None);
    }
    // Flush both obs sinks however this returns; a failed flush only
    // warns — the canonical journal is already safely on disk by then.
    let _flush_obs = psbi_obs::flush_on_drop();
    spec.validate()?;
    let jobs = spec.jobs();
    let total = jobs.len();
    let _campaign_span = psbi_obs::Span::enter_with("fleet.campaign", &[("jobs", total as u64)]);
    psbi_obs::metrics::gauge_set("fleet.jobs.total", total as u64);

    let (journal, existing) = Journal::open(journal_path, spec)?;
    let resumed = existing.len();
    // `Journal::open` refuses (FleetError::Corrupt) any journal holding
    // more records than the spec's grid, so `resumed <= total` here; the
    // guard stays as a cheap backstop against future replay changes.
    if resumed > total {
        return Err(FleetError::Corrupt {
            record: total,
            detail: format!("journal holds {resumed} records but the grid has {total} jobs"),
        });
    }
    let end = match opts.max_jobs {
        Some(k) => total.min(resumed + k),
        None => total,
    };
    psbi_obs::metrics::counter_add("fleet.jobs.resumed", resumed as u64);

    let job_wall_s = vec![None; total];
    let job_diagnostics = vec![None; total];
    if resumed >= end {
        return Ok(CampaignOutcome {
            records: existing,
            resumed_jobs: resumed,
            executed_jobs: 0,
            total_jobs: total,
            job_wall_s,
            job_diagnostics,
            wall_s: t_start.elapsed().as_secs_f64(),
        });
    }

    // Materialise each needed circuit once and build one flow per circuit
    // (timing graph + canonical sampler built once; µT/σT calibration is
    // computed on first use and cached for the rest of the sigma sweep).
    // Every flow checks worker scratch out of one shared pool.
    let mut needed = vec![false; spec.circuits.len()];
    for job in &jobs[resumed..end] {
        needed[job.circuit_index] = true;
    }
    let circuits: Vec<Option<Circuit>> = spec
        .circuits
        .iter()
        .zip(&needed)
        .map(|(c, need)| {
            need.then(|| c.materialize())
                .transpose()
                .map_err(FleetError::Circuit)
        })
        .collect::<Result<_, _>>()?;
    let pool = Arc::new(WorkspacePool::new());
    let mut cfg = spec.flow_config();
    cfg.verify = opts.verify;
    let flows: Vec<Option<BufferInsertionFlow>> = circuits
        .iter()
        .map(|c| {
            c.as_ref()
                .map(|circuit| {
                    BufferInsertionFlow::builder(circuit, cfg.clone())
                        .pool(Arc::clone(&pool))
                        .build()
                        .map_err(|e| FleetError::Circuit(format!("{}: {e}", circuit.name)))
                })
                .transpose()
        })
        .collect::<Result<_, _>>()?;

    // Pending jobs per circuit in this invocation's window: the worker
    // finishing a circuit's last job releases that flow's cross-chip memo
    // from the shared pool, capping campaign peak memory at the circuits
    // still in flight.
    let mut circuit_pending: Vec<usize> = vec![0; spec.circuits.len()];
    for job in &jobs[resumed..end] {
        circuit_pending[job.circuit_index] += 1;
    }
    let circuit_pending: Vec<AtomicUsize> =
        circuit_pending.into_iter().map(AtomicUsize::new).collect();

    let pending = end - resumed;
    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(pending)
    .max(1);

    let state = Mutex::new(CommitState {
        journal,
        next: resumed,
        parked: BTreeMap::new(),
        records: existing,
        job_wall_s,
        job_diagnostics,
        verify_failures: Vec::new(),
        error: None,
    });
    let cursor = AtomicUsize::new(resumed);
    let failed = AtomicBool::new(false);
    // Stop signal for the periodic progress reporter (set once every
    // worker has been joined, so the final line reflects the last job).
    let progress_done = AtomicBool::new(false);
    // Registry baselines: the counters are process-cumulative, so a
    // second campaign in one process must report its own deltas.
    let committed0 = psbi_obs::metrics::counter_value("fleet.jobs.committed");
    let quarantined0 = psbi_obs::metrics::counter_value("fleet.jobs.quarantined");

    // The scope itself runs under `catch_unwind`: a panic that escapes a
    // worker thread (possible only *outside* the per-job retry harness,
    // e.g. an injected commit fault) must not abort the process — the
    // journal's valid prefix is on disk and resume recovers it.  Workers
    // are joined explicitly so the progress reporter can be told to stop
    // before the scope would otherwise wait on it; a worker panic is
    // re-raised after that signal, preserving the pre-reporter contract.
    let scope_panic = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    if j >= end {
                        break;
                    }
                    let job = &jobs[j];
                    let Some(flow) = flows[job.circuit_index].as_ref() else {
                        let mut st = lock_commit(&state);
                        st.error.get_or_insert(FleetError::Circuit(format!(
                            "internal: no flow was built for circuit index {}",
                            job.circuit_index
                        )));
                        failed.store(true, Ordering::Relaxed);
                        break;
                    };
                    let _job_span = psbi_obs::Span::enter_with("fleet.job", &[("job", j as u64)]);
                    let t_job = Instant::now();
                    let executed = {
                        let _timer = psbi_obs::metrics::timer("fleet.job.wall");
                        execute_job(flow, job, opts.retries)
                    };
                    let wall = t_job.elapsed().as_secs_f64();
                    psbi_obs::metrics::counter_add("fleet.jobs.executed", 1);
                    // Last pending job of this circuit: reclaim the flow's
                    // warm solver state.  Every `run_target` of the circuit
                    // has returned by the time the counter hits zero, so the
                    // release cannot race a park.  Purely a memory knob —
                    // a resumed invocation simply starts this circuit cold.
                    if circuit_pending[job.circuit_index].fetch_sub(1, Ordering::Relaxed) == 1 {
                        flow.release_solver_state();
                    }
                    let (record, diag) = match executed {
                        Ok(result) => {
                            let record = JobRecord::from_result(job, &result);
                            (record, Some(result.diagnostics))
                        }
                        Err(fault) => {
                            psbi_obs::metrics::counter_add("fleet.jobs.quarantined", 1);
                            (JobRecord::quarantined(job, fault), None)
                        }
                    };
                    if opts.progress {
                        if record.quarantined {
                            eprintln!(
                                "psbi-fleet: job {}/{} {} k={} QUARANTINED after {} attempts: {}",
                                j + 1,
                                total,
                                record.circuit_id,
                                record.sigma_factor,
                                opts.retries + 1,
                                record.fault
                            );
                        } else {
                            eprintln!(
                                "psbi-fleet: job {}/{} {} k={} Y {:.2}% -> {:.2}% ({} buffers, {:.2}s)",
                                j + 1,
                                total,
                                record.circuit_id,
                                record.sigma_factor,
                                record.yield_baseline,
                                record.yield_with_buffers,
                                record.nb,
                                wall
                            );
                        }
                    }
                    let mut st = lock_commit(&state);
                    st.parked.insert(j, (record, wall, diag));
                    if let Err(e) = st.drain() {
                        st.error.get_or_insert(e);
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                }));
            }
            if opts.progress {
                scope.spawn(|| {
                    let mut last = Instant::now();
                    while !progress_done.load(Ordering::Relaxed) {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        if last.elapsed().as_secs_f64() < 2.0 {
                            continue;
                        }
                        last = Instant::now();
                        let committed = psbi_obs::metrics::counter_value("fleet.jobs.committed")
                            .saturating_sub(committed0);
                        let quarantined =
                            psbi_obs::metrics::counter_value("fleet.jobs.quarantined")
                                .saturating_sub(quarantined0);
                        let done = resumed + committed as usize;
                        let elapsed = t_start.elapsed().as_secs_f64();
                        if committed > 0 && done < end {
                            let eta = (end - done) as f64 * elapsed / committed as f64;
                            eprintln!(
                                "psbi-fleet: progress {done}/{total} jobs committed \
                                 ({quarantined} quarantined), {elapsed:.1}s elapsed, \
                                 ETA {eta:.0}s"
                            );
                        } else {
                            eprintln!(
                                "psbi-fleet: progress {done}/{total} jobs committed \
                                 ({quarantined} quarantined), {elapsed:.1}s elapsed"
                            );
                        }
                    }
                });
            }
            let mut worker_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    worker_panic.get_or_insert(payload);
                }
            }
            progress_done.store(true, Ordering::Relaxed);
            if let Some(payload) = worker_panic {
                std::panic::resume_unwind(payload);
            }
        })
    }));

    let mut state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = state.error.take() {
        return Err(e);
    }
    if let Err(payload) = scope_panic {
        return Err(FleetError::Worker(panic_message(payload)));
    }
    if !state.verify_failures.is_empty() {
        let detail: Vec<String> = state
            .verify_failures
            .iter()
            .map(|(job, report)| format!("job {job}: {report}"))
            .collect();
        return Err(FleetError::Verify(format!(
            "{} of {} job(s) failed independent verification — {}",
            state.verify_failures.len(),
            state.records.len(),
            detail.join("; ")
        )));
    }
    let executed = state.records.len() - resumed;
    Ok(CampaignOutcome {
        records: state.records,
        resumed_jobs: resumed,
        executed_jobs: executed,
        total_jobs: total,
        job_wall_s: state.job_wall_s,
        job_diagnostics: state.job_diagnostics,
        wall_s: t_start.elapsed().as_secs_f64(),
    })
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
