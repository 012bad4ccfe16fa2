//! `psbi-fleet` — run sharded buffer-insertion campaigns from the shell.
//!
//! ```text
//! psbi-fleet init   [--out campaign.json] [--circuits a,b] [--sigma 0,1,2]
//!                   [--samples N] [--yield-samples N] [--seed S] [--name X]
//! psbi-fleet plan   --spec campaign.json
//! psbi-fleet run    --spec campaign.json --journal c.journal
//!                   [--workers N] [--max-jobs K] [--report out.json]
//!                   [--with-timings] [--quiet] [--progress]
//!                   [--no-incremental] [--no-cross-chip]
//!                   [--no-region-parallel] [--no-search-prune]
//!                   [--retries N] [--verify] [--trace trace.json]
//! psbi-fleet report --spec campaign.json --journal c.journal
//!                   [--json out.json] [--with-timings]
//! psbi-fleet serve  [--addr HOST:PORT] [--max-campaigns N] [--lease-jobs K]
//!                   [--lease-ms MS] [--heartbeat-ms MS]
//!                   [--inline-grace-ms MS] [--once] [--addr-file PATH]
//!                   [--quiet]
//! psbi-fleet worker [--addr HOST:PORT] [--name X] [--backoff-min-ms MS]
//!                   [--backoff-max-ms MS] [--max-idle-ms MS] [--quiet]
//! psbi-fleet submit --spec campaign.json --journal c.journal
//!                   [--addr HOST:PORT] [--retries N] [--verify] [--quiet]
//! ```
//!
//! `serve`/`worker`/`submit` are the distributed front-end: a dispatcher
//! partitions the job grid into leases executed by worker processes and
//! merges their results into the same append-only journal `run` writes —
//! byte-identical for any worker count or kill pattern.  `--addr`
//! defaults to `PSBI_DISPATCH_ADDR` (then 127.0.0.1:7171); `--journal`
//! on `submit` is a **dispatcher-side** path.
//!
//! `--trace` writes a Chrome trace-event JSON file covering the whole
//! campaign (sampling batches, flow passes, solver stages, job
//! lifecycle) — load it at <https://ui.perfetto.dev>.  Unless `--quiet`,
//! progress goes to stderr as one line per finished job plus a periodic
//! summary (jobs committed / total, quarantines, elapsed, ETA) read from
//! the `psbi_obs` metrics registry; `--progress` re-enables it over
//! `--quiet`.  Neither changes a single canonical byte (`PSBI_TRACE` /
//! `PSBI_METRICS` in the README).
//!
//! `run` resumes automatically: jobs already present in the journal are
//! never re-executed, and an interrupted campaign continues exactly where
//! its journal ends (`--max-jobs` bounds how many new jobs one invocation
//! executes, which is also how the CI smoke test simulates a kill).
//!
//! Every failure class maps to a distinct exit code (usage errors are 2):
//! spec=3, io=4, journal=5, circuit=6, corrupt journal=7, worker crash=8,
//! verification failure=9 — see `FleetError::code`.

use psbi_fleet::{
    run_campaign, run_worker, serve, submit_campaign, CampaignReport, CampaignSpec, FleetError,
    FleetOptions, Journal, ServeOptions, SubmitOptions, WorkerOptions,
};
use psbi_netlist::bench_suite::CircuitRef;
use std::path::PathBuf;
use std::process::ExitCode;

/// Simple `--key value` / `--flag` scanner (mirrors `psbi_bench::Args`,
/// which the fleet crate cannot depend on without a cycle).
struct Args {
    raw: Vec<String>,
}

impl Args {
    fn from_env() -> Self {
        Self::from_vec(std::env::args().skip(2).collect())
    }

    fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let flag = format!("--{key}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.raw.iter().any(|a| a == &flag)
    }

    fn list(&self, key: &str) -> Option<Vec<String>> {
        self.get::<String>(key)
            .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "psbi-fleet: sharded multi-circuit campaign runner\n\
         \n\
         usage:\n\
         \x20 psbi-fleet init   [--out campaign.json] [--circuits a,b] [--sigma 0,1,2]\n\
         \x20                   [--samples N] [--yield-samples N] [--seed S] [--name X]\n\
         \x20 psbi-fleet plan   --spec campaign.json\n\
         \x20 psbi-fleet run    --spec campaign.json --journal c.journal\n\
         \x20                   [--workers N] [--max-jobs K] [--report out.json]\n\
         \x20                   [--with-timings] [--quiet] [--progress]\n\
         \x20                   [--no-incremental] [--no-cross-chip]\n\
         \x20                   [--no-region-parallel] [--no-search-prune]\n\
         \x20                   [--retries N] [--verify] [--trace trace.json]\n\
         \x20 psbi-fleet report --spec campaign.json --journal c.journal\n\
         \x20                   [--json out.json] [--with-timings]\n\
         \x20 psbi-fleet serve  [--addr HOST:PORT] [--max-campaigns N] [--lease-jobs K]\n\
         \x20                   [--lease-ms MS] [--heartbeat-ms MS]\n\
         \x20                   [--inline-grace-ms MS] [--once] [--addr-file PATH] [--quiet]\n\
         \x20 psbi-fleet worker [--addr HOST:PORT] [--name X] [--backoff-min-ms MS]\n\
         \x20                   [--backoff-max-ms MS] [--max-idle-ms MS] [--quiet]\n\
         \x20 psbi-fleet submit --spec campaign.json --journal c.journal\n\
         \x20                   [--addr HOST:PORT] [--retries N] [--verify] [--quiet]\n\
         \n\
         circuits: paper suite names (s9234, ...), demo classes\n\
         (tiny_demo:SEED, small_demo:SEED, medium_demo:SEED) or\n\
         sized:NAME:FFS:GATES:SEED\n\
         \n\
         --addr defaults to PSBI_DISPATCH_ADDR, then 127.0.0.1:7171\n\
         \n\
         exit codes: 2 usage, 3 spec, 4 io, 5 journal, 6 circuit,\n\
         7 corrupt journal, 8 worker crash, 9 verification failure,\n\
         10 dispatch error"
    );
    ExitCode::from(2)
}

fn load_spec(args: &Args) -> Result<CampaignSpec, FleetError> {
    let path: String = args
        .get("spec")
        .ok_or_else(|| FleetError::Spec("--spec <campaign.json> is required".into()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("reading `{path}`: {e}"),
        ))
    })?;
    CampaignSpec::from_json(&text)
}

fn journal_path(args: &Args) -> Result<PathBuf, FleetError> {
    args.get::<String>("journal")
        .map(PathBuf::from)
        .ok_or_else(|| FleetError::Spec("--journal <path> is required".into()))
}

fn cmd_init(args: &Args) -> Result<(), FleetError> {
    let mut spec = CampaignSpec::example();
    if let Some(name) = args.get::<String>("name") {
        spec.name = name;
    }
    if let Some(circuits) = args.list("circuits") {
        spec.circuits = circuits
            .iter()
            .map(|c| CircuitRef::parse(c))
            .collect::<Result<_, _>>()
            .map_err(FleetError::Spec)?;
    }
    if let Some(sigmas) = args.list("sigma") {
        spec.sigma_factors = sigmas
            .iter()
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|_| FleetError::Spec(format!("bad sigma `{s}`")))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(samples) = args.get("samples") {
        spec.samples = samples;
        spec.calibration_samples = spec.samples.max(300);
    }
    if let Some(ys) = args.get("yield-samples") {
        spec.yield_samples = ys;
    }
    if let Some(seed) = args.get("seed") {
        spec.seed = seed;
    }
    spec.validate()?;
    let out: String = args.get("out").unwrap_or_else(|| "campaign.json".into());
    std::fs::write(&out, spec.to_json()).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("writing `{out}`: {e}"),
        ))
    })?;
    println!(
        "wrote `{out}`: {} circuits x {} targets = {} jobs (fingerprint {})",
        spec.circuits.len(),
        spec.sigma_factors.len(),
        spec.jobs().len(),
        spec.fingerprint()
    );
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), FleetError> {
    let spec = load_spec(args)?;
    println!(
        "campaign `{}` (fingerprint {}): {} jobs",
        spec.name,
        spec.fingerprint(),
        spec.jobs().len()
    );
    for job in spec.jobs() {
        let size = job.circuit.size().map_or_else(
            || "size unknown".to_string(),
            |(ns, ng)| format!("{ns} FFs, {ng} gates"),
        );
        println!(
            "  job {:>3}: {} ({size}) at T = muT + {}*sigmaT",
            job.index,
            job.circuit.id(),
            job.sigma_factor
        );
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), FleetError> {
    let spec = load_spec(args)?;
    let journal = journal_path(args)?;
    let opts = FleetOptions {
        workers: args.get("workers").unwrap_or(0),
        max_jobs: args.get("max-jobs"),
        // On by default; --quiet silences it, --progress overrides --quiet.
        progress: args.has("progress") || !args.has("quiet"),
        // Results are bit-identical either way; --no-incremental (like
        // PSBI_NO_INCREMENTAL=1) and --no-cross-chip (like
        // PSBI_NO_CROSSCHIP=1) exist for debugging and A/B timing.
        incremental: !args.has("no-incremental"),
        cross_chip: !args.has("no-cross-chip"),
        region_parallel: !args.has("no-region-parallel"),
        search_prune: !args.has("no-search-prune"),
        retries: args.get("retries").unwrap_or(2),
        // PSBI_VERIFY=1 force-enables verification inside the flow even
        // without the flag.
        verify: args.has("verify"),
        // Chrome trace-event output; equivalent to PSBI_TRACE=<path>.
        trace: args.get::<String>("trace").map(PathBuf::from),
    };
    let outcome = run_campaign(&spec, &journal, &opts)?;
    let report = CampaignReport::from_outcome(&spec, &outcome);
    print!("{}", report.text());
    if let Some(out) = args.get::<String>("report") {
        std::fs::write(&out, report.json(args.has("with-timings"))).map_err(|e| {
            FleetError::Io(std::io::Error::new(
                e.kind(),
                format!("writing `{out}`: {e}"),
            ))
        })?;
        println!("report written to `{out}`");
    }
    if !outcome.complete() {
        // Deliberately exit 0: stopping at a checkpoint (--max-jobs) is a
        // successful invocation, and the CI smoke's interrupted leg
        // depends on that.  Failures surface through Err.
        println!(
            "campaign incomplete ({}/{} jobs journaled); run again to resume",
            outcome.records.len(),
            outcome.total_jobs
        );
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), FleetError> {
    let spec = load_spec(args)?;
    let journal = journal_path(args)?;
    let records = Journal::replay(&journal, &spec)?;
    let report = CampaignReport::from_records(&spec, records);
    print!("{}", report.text());
    if let Some(out) = args.get::<String>("json") {
        std::fs::write(&out, report.json(args.has("with-timings"))).map_err(|e| {
            FleetError::Io(std::io::Error::new(
                e.kind(),
                format!("writing `{out}`: {e}"),
            ))
        })?;
        println!("report written to `{out}`");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), FleetError> {
    let mut opts = ServeOptions::default();
    if let Some(addr) = args.get::<String>("addr") {
        opts.addr = addr;
    }
    if let Some(n) = args.get("max-campaigns") {
        opts.max_campaigns = n;
    }
    if let Some(k) = args.get("lease-jobs") {
        opts.lease_jobs = k;
    }
    if let Some(ms) = args.get("lease-ms") {
        opts.lease_ms = ms;
        opts.heartbeat_ms = (ms / 4).max(1);
    }
    if let Some(ms) = args.get("heartbeat-ms") {
        opts.heartbeat_ms = ms;
    }
    if let Some(ms) = args.get("inline-grace-ms") {
        opts.inline_grace_ms = ms;
    }
    opts.once = args.has("once");
    opts.progress = args.has("progress") || !args.has("quiet");
    opts.addr_file = args.get::<String>("addr-file").map(PathBuf::from);
    serve(opts)
}

fn cmd_worker(args: &Args) -> Result<(), FleetError> {
    let mut opts = WorkerOptions::default();
    if let Some(addr) = args.get::<String>("addr") {
        opts.addr = addr;
    }
    if let Some(name) = args.get::<String>("name") {
        opts.name = name;
    }
    if let Some(ms) = args.get("backoff-min-ms") {
        opts.backoff_min_ms = ms;
    }
    if let Some(ms) = args.get("backoff-max-ms") {
        opts.backoff_max_ms = ms;
    }
    opts.max_idle_ms = args.get("max-idle-ms");
    opts.progress = args.has("progress") || !args.has("quiet");
    run_worker(&opts)
}

fn cmd_submit(args: &Args) -> Result<(), FleetError> {
    let spec_path: String = args
        .get("spec")
        .ok_or_else(|| FleetError::Spec("--spec <campaign.json> is required".into()))?;
    let spec_text = std::fs::read_to_string(&spec_path).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("reading `{spec_path}`: {e}"),
        ))
    })?;
    let journal = journal_path(args)?;
    let mut opts = SubmitOptions::default();
    if let Some(addr) = args.get::<String>("addr") {
        opts.addr = addr;
    }
    if let Some(retries) = args.get("retries") {
        opts.retries = retries;
    }
    opts.verify = args.has("verify");
    opts.progress = args.has("progress") || !args.has("quiet");
    let outcome = submit_campaign(&spec_text, &journal.display().to_string(), &opts)?;
    println!(
        "campaign {} complete: {}/{} jobs journaled ({} quarantined, {} resumed)",
        outcome.campaign, outcome.committed, outcome.total, outcome.quarantined, outcome.resumed
    );
    Ok(())
}

fn main() -> ExitCode {
    // Write env-armed `PSBI_TRACE` / `PSBI_METRICS` output on exit.
    let _obs = psbi_obs::flush_on_drop();
    let command = match std::env::args().nth(1) {
        Some(c) => c,
        None => return usage(),
    };
    let args = Args::from_env();
    let result = match command.as_str() {
        "init" => cmd_init(&args),
        "plan" => cmd_plan(&args),
        "run" => cmd_run(&args),
        "report" => cmd_report(&args),
        "serve" => cmd_serve(&args),
        "worker" => cmd_worker(&args),
        "submit" => cmd_submit(&args),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("psbi-fleet: unknown command `{other}`\n");
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One line per failure, and the exit code names the class so
            // scripts need not parse stderr.
            eprintln!("psbi-fleet: {e}");
            ExitCode::from(e.code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_vec(list.iter().map(|s| s.to_string()).collect())
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psbi_fleet_cli_test_{tag}_{}", std::process::id()))
    }

    #[test]
    fn malformed_spec_json_is_a_spec_error() {
        let path = tmp_path("badspec");
        std::fs::write(&path, "{not json").unwrap();
        let e = cmd_plan(&args(&["--spec", path.to_str().unwrap()])).unwrap_err();
        assert_eq!(e.code(), 3, "unexpected error {e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_spec_flag_is_a_spec_error() {
        let e = cmd_plan(&args(&[])).unwrap_err();
        assert_eq!(e.code(), 3);
        assert!(e.to_string().contains("--spec"));
    }

    #[test]
    fn unreadable_journal_is_an_io_error() {
        let spec_path = tmp_path("iospec");
        std::fs::write(&spec_path, CampaignSpec::example().to_json()).unwrap();
        let missing = tmp_path("no_such_journal");
        let _ = std::fs::remove_file(&missing);
        let e = cmd_report(&args(&[
            "--spec",
            spec_path.to_str().unwrap(),
            "--journal",
            missing.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(e.code(), 4, "unexpected error {e}");
        let _ = std::fs::remove_file(&spec_path);
    }

    #[test]
    fn fingerprint_mismatch_is_a_journal_error() {
        // A journal written for spec A, reported against spec B.
        let spec_a = CampaignSpec::example();
        let mut spec_b = spec_a.clone();
        spec_b.samples += 1;
        let journal_path = tmp_path("fpjournal");
        let _ = std::fs::remove_file(&journal_path);
        let (journal, _) = Journal::open(&journal_path, &spec_a).unwrap();
        drop(journal);
        let spec_path = tmp_path("fpspec");
        std::fs::write(&spec_path, spec_b.to_json()).unwrap();
        let e = cmd_report(&args(&[
            "--spec",
            spec_path.to_str().unwrap(),
            "--journal",
            journal_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(e.code(), 5, "unexpected error {e}");
        assert!(e.to_string().contains("fingerprint"));
        for p in [&journal_path, &spec_path] {
            let _ = std::fs::remove_file(p);
        }
    }
}
