//! `suite_sweep` and `small_jobs`: fleet campaigns run in-process through
//! `run_campaign` and, for `small_jobs`, also through an in-process
//! `Dispatcher` with `run_worker` threads and one `submit_campaign`.

use crate::host::{cpu_seconds, median, peak_rss_mb, quantile};
use crate::layers::{self, Replay, SetupTimes, SolveCounts};
use crate::{Column, Report, RunConfig, MIN_REPS};
use psbi_core::flow::{BufferInsertionFlow, InsertionResult, TargetPeriod};
use psbi_fleet::{
    run_campaign, run_worker, submit_campaign, CampaignOutcome, CampaignSpec, Dispatcher,
    FleetOptions, JobRecord, Journal, ServeOptions, SubmitOptions, WorkerOptions,
};
use psbi_netlist::bench_suite::CircuitRef;
use std::path::Path;
use std::time::Instant;

/// Concurrent jobs (in-process workers, or dispatch worker threads).
pub const WORKERS: usize = 2;

fn spec(name: &str, circuits: &[String], sigma_factors: &[f64], seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        circuits: circuits
            .iter()
            .map(|c| CircuitRef::parse(c).expect("valid circuit name"))
            .collect(),
        sigma_factors: sigma_factors.to_vec(),
        samples: 1000,
        yield_samples: 4000,
        calibration_samples: 1000,
        seed,
        threads_per_job: 1,
        ..CampaignSpec::default()
    }
}

/// `suite_sweep`: three suite circuits × five adjacent targets.
pub fn suite_spec(seed: u64) -> CampaignSpec {
    let circuits = ["s9234", "s13207", "mem_ctrl"].map(String::from);
    spec("suite_sweep", &circuits, &[0.0, 0.5, 1.0, 1.5, 2.0], seed)
}

/// `small_jobs`: `small_demo` seeds 1–8 × σ {0, 1, 2}, with 1000 yield
/// samples so each job computes for tens of milliseconds.
pub fn small_spec(seed: u64) -> CampaignSpec {
    let circuits: Vec<String> = (1..=8).map(|s| format!("small_demo:{s}")).collect();
    CampaignSpec {
        yield_samples: 1000,
        ..spec("small_jobs", &circuits, &[0.0, 1.0, 2.0], seed)
    }
}

/// Generates, builds and calibrates every circuit of `spec` once.
///
/// # Errors
///
/// The first circuit that fails to set up.
pub fn probe_setup(spec: &CampaignSpec) -> Result<SetupTimes, String> {
    let cfg = spec.flow_config();
    let mut total = SetupTimes::default();
    for c in &spec.circuits {
        total.add(&layers::probe_setup(|| c.materialize(), &cfg)?);
    }
    Ok(total)
}

/// One in-process campaign.
pub struct CampaignRun {
    /// Wall seconds of `run_campaign`.
    pub wall_s: f64,
    /// Process CPU seconds over it.
    pub cpu_s: f64,
    /// What it returned.
    pub outcome: CampaignOutcome,
    /// The finished journal.
    pub journal: Vec<u8>,
}

/// Runs `spec` from an empty journal at `journal` with `workers` workers.
///
/// # Errors
///
/// Campaign errors and journal read failures, as text.
pub fn run_in_process(
    spec: &CampaignSpec,
    journal: &Path,
    workers: usize,
) -> Result<CampaignRun, String> {
    let _ = std::fs::remove_file(journal);
    let opts = FleetOptions {
        workers,
        ..FleetOptions::default()
    };
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let outcome = run_campaign(spec, journal, &opts).map_err(|e| format!("campaign: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let journal = std::fs::read(journal).map_err(|e| format!("journal: {e}"))?;
    Ok(CampaignRun {
        wall_s,
        cpu_s,
        outcome,
        journal,
    })
}

/// One campaign through an in-process dispatcher and worker threads.
pub struct ServeRun {
    /// Seconds to bind the dispatcher and start it and the workers.
    pub start_s: f64,
    /// Seconds from `submit_campaign` until the campaign completed.
    pub serve_s: f64,
    /// Process CPU seconds over the submission.
    pub cpu_s: f64,
    /// Records the dispatcher committed.
    pub committed: usize,
    /// Quarantined records among them.
    pub quarantined: u64,
    /// The finished journal.
    pub journal: Vec<u8>,
    /// Leases the dispatcher granted to its own inline executor
    /// (connection 0 in the lease log).
    pub leases_inline: u64,
}

/// Serves `spec` to `workers` worker threads over localhost TCP.
///
/// # Errors
///
/// Bind, submission, worker and journal failures, as text.
pub fn run_served(spec: &CampaignSpec, journal: &Path, workers: usize) -> Result<ServeRun, String> {
    let leases = journal.with_extension("journal.leases");
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(&leases);
    let journal_arg = journal.to_str().ok_or("journal path is not UTF-8")?;
    let t = Instant::now();
    let dispatcher = Dispatcher::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = dispatcher.handle();
    let addr = handle.local_addr().to_string();
    let (start_s, serve_s, cpu_s, submitted) = std::thread::scope(|s| {
        let served = s.spawn(move || dispatcher.run());
        let worker_threads: Vec<_> = (0..workers)
            .map(|i| {
                let opts = WorkerOptions {
                    addr: addr.clone(),
                    name: format!("perfledger-{i}"),
                    max_idle_ms: Some(5_000),
                    ..WorkerOptions::default()
                };
                s.spawn(move || run_worker(&opts))
            })
            .collect();
        let start_s = t.elapsed().as_secs_f64();
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let submitted = submit_campaign(
            &spec.to_json(),
            journal_arg,
            &SubmitOptions {
                addr: addr.clone(),
                ..SubmitOptions::default()
            },
        );
        let serve_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        handle.shutdown();
        let mut errors = Vec::new();
        for w in worker_threads {
            match w.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("worker: {e}")),
                Err(_) => errors.push("worker panicked".into()),
            }
        }
        match served.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => errors.push(format!("dispatcher: {e}")),
            Err(_) => errors.push("dispatcher panicked".into()),
        }
        let submitted = submitted.map_err(|e| format!("submit: {e}")).and_then(|o| {
            if errors.is_empty() {
                Ok(o)
            } else {
                Err(errors.join("; "))
            }
        });
        (start_s, serve_s, cpu_s, submitted)
    });
    let outcome = submitted?;
    let log = std::fs::read_to_string(&leases).unwrap_or_default();
    let leases_inline = log
        .lines()
        .filter(|l| l.contains("\"ev\":\"grant\"") && l.contains("\"conn\":0,"))
        .count() as u64;
    Ok(ServeRun {
        start_s,
        serve_s,
        cpu_s,
        committed: outcome.committed,
        quarantined: outcome.quarantined,
        journal: std::fs::read(journal).map_err(|e| format!("journal: {e}"))?,
        leases_inline,
    })
}

/// Counts a campaign's missing and quarantined records as failures.
fn check_records(rep: &mut Report, what: &str, records: &[JobRecord], total: usize) {
    if records.len() < total {
        rep.fail(
            (total - records.len()) as u64,
            format!("{what}: {} of {total} jobs committed", records.len()),
        );
    }
    let quarantined = records.iter().filter(|r| r.quarantined).count();
    if quarantined > 0 {
        rep.fail(
            quarantined as u64,
            format!("{what}: {quarantined} job(s) quarantined"),
        );
    }
}

/// Job records that differ between two journals (header included).
fn journal_mismatches(a: &[u8], b: &[u8]) -> u64 {
    let (a, b) = (String::from_utf8_lossy(a), String::from_utf8_lossy(b));
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let differing = la.iter().zip(&lb).filter(|(x, y)| x != y).count();
    (differing + la.len().abs_diff(lb.len())) as u64
}

/// Buffers (ΣNb) and mean yield (%) over a campaign's records.
pub fn quality(records: &[JobRecord]) -> (f64, f64) {
    let buffers: usize = records.iter().map(|r| r.nb).sum();
    let yield_sum: f64 = records.iter().map(|r| r.yield_with_buffers).sum();
    (buffers as f64, yield_sum / records.len().max(1) as f64)
}

/// The set-up probes, failing the run on a set-up error.
fn setup_probes(spec: &CampaignSpec, rep: &mut Report) -> Option<Vec<SetupTimes>> {
    let mut probes = Vec::with_capacity(layers::SETUP_PROBES);
    for _ in 0..layers::SETUP_PROBES {
        match probe_setup(spec) {
            Ok(t) => probes.push(t),
            Err(e) => {
                rep.fail(spec.jobs().len() as u64, e);
                return None;
            }
        }
    }
    Some(probes)
}

/// Runs `suite_sweep`.
pub fn suite_sweep(cfg: &RunConfig) -> Report {
    let mut rep = Report::new("suite_sweep");
    let spec = suite_spec(cfg.instance_seed);
    if cfg.traced {
        traced(cfg, &spec, false, &mut rep);
    } else {
        untraced(cfg, &spec, false, &mut rep);
    }
    rep
}

/// Runs `small_jobs`.
pub fn small_jobs(cfg: &RunConfig) -> Report {
    let mut rep = Report::new("small_jobs");
    let spec = small_spec(cfg.seed);
    if cfg.traced {
        traced(cfg, &spec, true, &mut rep);
    } else {
        untraced(cfg, &spec, true, &mut rep);
    }
    rep
}

fn untraced(cfg: &RunConfig, spec: &CampaignSpec, serve: bool, rep: &mut Report) {
    let total = spec.jobs().len();
    let Some(probes) = setup_probes(spec, rep) else {
        return;
    };
    let mut setup: Vec<f64> = probes.iter().map(SetupTimes::total).collect();
    let journal = cfg.work_dir.join("campaign.journal");
    let served_journal = cfg.work_dir.join("served.journal");
    let (mut campaign_s, mut serve_s, mut start_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<u8>, Vec<JobRecord>)> = None;
    let mut peak = 0.0;
    let started = Instant::now();
    while campaign_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < cfg.seconds {
        rep.attempted += total as u64;
        let run = match run_in_process(spec, &journal, WORKERS) {
            Ok(run) => run,
            Err(e) => return rep.fail(total as u64, e),
        };
        check_records(rep, "in-process", &run.outcome.records, total);
        match &first {
            None => first = Some((run.journal.clone(), run.outcome.records.clone())),
            Some((bytes, _)) => {
                let n = journal_mismatches(bytes, &run.journal);
                if n > 0 {
                    rep.fail(n, format!("repeated campaign: {n} journal line(s) differ"));
                }
            }
        }
        let (mut wall, mut cpu) = (run.wall_s, run.cpu_s);
        campaign_s.push(run.wall_s);
        if serve {
            rep.attempted += total as u64;
            let served = match run_served(spec, &served_journal, WORKERS) {
                Ok(s) => s,
                Err(e) => return rep.fail(total as u64, e),
            };
            if served.committed < total {
                let missing = (total - served.committed) as u64;
                rep.fail(
                    missing,
                    format!("served: {} of {total} committed", served.committed),
                );
            }
            if served.quarantined > 0 {
                rep.fail(served.quarantined, "served: quarantined job(s)");
            }
            if served.leases_inline > 0 {
                rep.fail(
                    served.leases_inline,
                    "served: the dispatcher ran lease(s) inline",
                );
            }
            let n = journal_mismatches(&run.journal, &served.journal);
            if n > 0 {
                rep.fail(
                    n,
                    format!("served journal: {n} line(s) differ from in-process"),
                );
            }
            wall += served.serve_s;
            cpu += served.cpu_s;
            serve_s.push(served.serve_s);
            start_s.push(served.start_s);
        }
        if walls.is_empty() {
            peak = peak_rss_mb();
        }
        walls.push(wall);
        cpus.push(cpu);
    }
    rep.reps = walls.len();
    if serve {
        let start = median(&start_s);
        for s in &mut setup {
            *s += start;
        }
    }
    let (buffers, yield_pct) = first.as_ref().map_or((0.0, 0.0), |(_, r)| quality(r));
    let setup_s = rep.line_median("setup_s", &setup, "s");
    rep.line_median("campaign_s", &campaign_s, "s");
    if serve {
        rep.line_median("serve_s", &serve_s, "s");
    }
    let cpu_s = rep.line_median("cpu_s", &cpus, "s");
    rep.set("setup_s", setup_s);
    rep.set("wall_s", median(&walls));
    rep.set("cpu_s", cpu_s);
    rep.set("peak_rss_mb", peak);
    rep.set("buffers", buffers);
    rep.set("yield_pct", yield_pct);
    rep.line("peak_rss_mb", peak, "MiB");
    rep.line("buffers", buffers, "count");
    rep.line("yield_pct", yield_pct, "%");
}

/// The single-threaded reference sweep: one flow per circuit, targets in
/// grid order — what `run_campaign` does with one worker — timed with
/// the metrics registry armed around each target (memo counters), then
/// the replays against each flow with everything disarmed.
pub struct Reference {
    /// Wall seconds of the sweep (set-up and targets, replays excluded).
    pub wall_s: f64,
    /// Results in grid order.
    pub results: Vec<InsertionResult>,
    /// Solver work and cache counts.
    pub counts: SolveCounts,
    /// The replays (empty unless requested).
    pub replay: Replay,
}

/// Runs the reference sweep; with `replay`, also replays every cell's
/// chips through the single layers.
///
/// # Errors
///
/// Circuit materialisation and flow-construction failures, as text.
pub fn reference_sweep(spec: &CampaignSpec, replay: bool) -> Result<Reference, String> {
    let cfg = spec.flow_config();
    let cells = spec.circuits.len() * spec.sigma_factors.len();
    let solve_chips = layers::SOLVE_CHIPS.div_ceil(cells);
    let mut out = Reference {
        wall_s: 0.0,
        results: Vec::with_capacity(cells),
        counts: SolveCounts::default(),
        replay: Replay::default(),
    };
    for c in &spec.circuits {
        let t = Instant::now();
        let circuit = c.materialize()?;
        let flow = BufferInsertionFlow::builder(&circuit, cfg.clone())
            .build()
            .map_err(|e| format!("{}: {e}", circuit.name))?;
        out.wall_s += t.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(spec.sigma_factors.len());
        for k in &spec.sigma_factors {
            psbi_obs::metrics::arm(None);
            let t = Instant::now();
            results.push(flow.run_target(TargetPeriod::SigmaFactor(*k)));
            out.wall_s += t.elapsed().as_secs_f64();
            out.counts.add_memo(&psbi_obs::metrics::snapshot());
            psbi_obs::metrics::disarm();
        }
        for r in results.iter().filter(|_| replay) {
            out.replay.cell(&flow, &cfg, r, solve_chips);
        }
        out.counts.add_flow(&results, cfg.samples);
        out.results.extend(results);
    }
    Ok(out)
}

fn traced(cfg: &RunConfig, spec: &CampaignSpec, serve: bool, rep: &mut Report) {
    let total = spec.jobs().len() as u64;
    let legs = if serve { 2 } else { 1 };
    rep.attempted = total * (2 * legs + 1);
    rep.reps = 1;
    let setup = match probe_setup(spec) {
        Ok(s) => s,
        Err(e) => return rep.fail(rep.attempted, e),
    };
    layers::report_setup(rep, &setup);
    let chrome = layers::chrome_path(cfg.chrome_trace.as_deref(), &cfg.work_dir);
    let journal = cfg.work_dir.join("campaign.journal");
    let served_journal = cfg.work_dir.join("served.journal");

    // Untraced baseline, then the traced legs.
    let legs_once = |armed: bool| -> Result<(CampaignRun, Option<ServeRun>, _), String> {
        if armed {
            layers::arm(&chrome);
        }
        let run = run_in_process(spec, &journal, WORKERS)?;
        let campaign_snap = psbi_obs::metrics::snapshot();
        let served = if serve {
            if armed {
                psbi_obs::metrics::arm(None);
            }
            Some(run_served(spec, &served_journal, WORKERS)?)
        } else {
            None
        };
        Ok((run, served, campaign_snap))
    };
    let base = legs_once(false);
    let traced = legs_once(true);
    let serve_snap = psbi_obs::metrics::snapshot();
    layers::disarm();
    let ((base, base_served, _), (run, served, snap)) = match (base, traced) {
        (Ok(b), Ok(t)) => (b, t),
        (Err(e), _) | (_, Err(e)) => return rep.fail(rep.attempted, e),
    };
    check_records(rep, "in-process", &run.outcome.records, total as usize);
    for (what, s) in [("untraced", &base_served), ("traced", &served)] {
        if let Some(s) = s {
            let n = journal_mismatches(&run.journal, &s.journal);
            if n > 0 {
                rep.fail(n, format!("{what} served journal: {n} line(s) differ"));
            }
        }
    }
    if journal_mismatches(&base.journal, &run.journal) > 0 {
        rep.fail(
            total,
            "traced campaign journal differs from the untraced one",
        );
    }

    let reference = match reference_sweep(spec, true) {
        Ok(r) => r,
        Err(e) => return rep.fail(total, e),
    };
    let mismatched = run
        .outcome
        .records
        .iter()
        .zip(&reference.results)
        .filter(|(rec, r)| rec.nb != r.nb || rec.yield_with_buffers != r.yield_with_buffers)
        .count();
    if mismatched > 0 {
        rep.fail(
            mismatched as u64,
            format!("{mismatched} job(s) differ between 2 workers and the 1-thread sweep"),
        );
    }

    // Flow passes: histogram sums over concurrently running jobs (busy).
    let job_walls: Vec<f64> = run.outcome.job_wall_s.iter().flatten().copied().collect();
    let job_sum: f64 = job_walls.iter().sum();
    let passes = [
        ("flow.a1_s", "flow.pass.a1"),
        ("flow.a3_s", "flow.pass.a3"),
        ("flow.b1_s", "flow.pass.b1"),
        ("flow.b2_s", "flow.pass.b2"),
        ("flow.group_s", "flow.group"),
        ("flow.yield_s", "flow.yield"),
    ];
    let mut covered = layers::hist_s(&snap, "flow.calibrate");
    for (metric, hist) in passes {
        let s = layers::hist_s(&snap, hist);
        covered += s;
        rep.put(metric, s, Column::Busy);
    }
    rep.set("flow.coverage", covered / job_sum);
    rep.set("flow.unattributed_share", 1.0 - covered / job_sum);
    layers::report_solver_layers(rep, &snap, &reference.counts, &reference.replay);

    rep.put("fleet.job_p50_s", quantile(&job_walls, 0.5), Column::Wall);
    rep.put(
        "fleet.job_max_s",
        job_walls.iter().copied().fold(0.0, f64::max),
        Column::Wall,
    );
    rep.set(
        "fleet.overhead_share",
        1.0 - job_sum / (run.wall_s * WORKERS as f64),
    );
    let t = Instant::now();
    let replayed = Journal::replay(&journal, spec);
    rep.put("journal.replay_s", t.elapsed().as_secs_f64(), Column::Wall);
    if !replayed.is_ok_and(|r| r == run.outcome.records) {
        rep.fail(
            total,
            "journal replay does not reproduce the committed records",
        );
    }

    rep.put(
        "dispatch.overhead_s",
        served.as_ref().map_or(0.0, |s| s.serve_s - run.wall_s),
        Column::Wall,
    );
    for (metric, counter) in [
        ("dispatch.leases_granted", "dispatch.leases.granted"),
        ("dispatch.leases_expired", "dispatch.leases.expired"),
        ("dispatch.jobs_redispatched", "dispatch.jobs.redispatched"),
        ("dispatch.jobs_inline", "dispatch.jobs.inline"),
        ("dispatch.heartbeats", "dispatch.heartbeats"),
    ] {
        rep.set(metric, layers::counter(&serve_snap, counter));
    }
    let inline = serve_snap.counter("dispatch.jobs.inline").unwrap_or(0);
    if inline > 0 {
        rep.fail(inline, "the dispatcher ran job(s) inline");
    }

    let base_wall = base.wall_s + base_served.as_ref().map_or(0.0, |s| s.serve_s);
    let wall = run.wall_s + served.as_ref().map_or(0.0, |s| s.serve_s);
    rep.set("obs.trace_overhead", wall / base_wall - 1.0);
    rep.set("flow.speedup_2t", reference.wall_s / run.wall_s);
}
