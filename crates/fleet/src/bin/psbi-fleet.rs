//! `psbi-fleet` — run sharded buffer-insertion campaigns from the shell.
//!
//! ```text
//! psbi-fleet init   [--out campaign.json] [--circuits a,b] [--sigma 0,1,2]
//!                   [--samples N] [--yield-samples N] [--seed S] [--name X]
//! psbi-fleet plan   --spec campaign.json
//! psbi-fleet run    --spec campaign.json --journal c.journal
//!                   [--workers N] [--max-jobs K] [--report out.json]
//!                   [--with-timings] [--quiet] [--verify] [--trace trace.json]
//! psbi-fleet report --spec campaign.json --journal c.journal
//!                   [--json out.json] [--with-timings]
//! psbi-fleet serve  [--addr HOST:PORT] [--max-campaigns N] [--lease-jobs K]
//!                   [--lease-ms MS] [--inline-grace-ms MS] [--once]
//!                   [--addr-file PATH] [--quiet]
//! psbi-fleet worker [--addr HOST:PORT] [--name X] [--backoff-min-ms MS]
//!                   [--backoff-max-ms MS] [--max-idle-ms MS] [--quiet]
//! psbi-fleet submit --spec campaign.json --journal c.journal
//!                   [--addr HOST:PORT] [--verify] [--quiet]
//! ```
//!
//! `serve`/`worker`/`submit` are the distributed front-end: a dispatcher
//! partitions the job grid into leases executed by worker processes and
//! merges their results into the same append-only journal `run` writes —
//! byte-identical for any worker count or kill pattern.  `--addr`
//! defaults to `PSBI_DISPATCH_ADDR` (then 127.0.0.1:7171); `--journal`
//! on `submit` is a **dispatcher-side** path.  Workers heartbeat each
//! lease at a quarter of `serve --lease-ms`, and a panicking job is
//! retried twice before it is quarantined.
//!
//! `--trace` writes a Chrome trace-event JSON file covering the whole
//! campaign (sampling batches, flow passes, solver stages, job
//! lifecycle) — load it at <https://ui.perfetto.dev>.  Unless `--quiet`,
//! progress goes to stderr as one line per finished job plus a periodic
//! summary (jobs committed / total, quarantines, elapsed, ETA) from the
//! campaign engine.  Neither changes a single canonical byte
//! (`PSBI_TRACE` / `PSBI_METRICS` in the README).
//!
//! `run` resumes automatically: jobs already present in the journal are
//! never re-executed, and an interrupted campaign continues exactly where
//! its journal ends (`--max-jobs` bounds how many new jobs one invocation
//! executes, which is also how the CI smoke test simulates a kill).
//!
//! Every failure class maps to a distinct exit code (usage errors are 2):
//! spec=3, io=4, journal=5, circuit=6, corrupt journal=7, worker crash=8,
//! verification failure=9 — see `FleetError::code`.  An argument that is
//! neither a flag the command reads nor such a flag's value, or a
//! malformed value, is a usage error, reported before the command reads
//! a spec, writes a file, binds a socket or runs a job.

use psbi_fleet::{
    run_campaign, run_worker, serve, submit_campaign, CampaignReport, CampaignSpec, FleetError,
    FleetOptions, Journal, ServeOptions, SubmitOptions, WorkerOptions,
};
use psbi_netlist::bench_suite::CircuitRef;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` / `--flag` scanner (like `psbi_bench::Args`, which the
/// fleet crate cannot depend on without a cycle), checked against the
/// flags its command reads.
struct Args {
    raw: Vec<String>,
}

/// A command's body.
type Command = fn(&Args) -> Result<(), CliError>;

/// Every command: its name, the flags it reads that take a value and its
/// switches (each list space-separated), and its body.
const COMMANDS: &[(&str, &str, &str, Command)] = &[
    (
        "init",
        "out circuits sigma samples yield-samples seed name",
        "",
        cmd_init,
    ),
    ("plan", "spec", "", cmd_plan),
    (
        "run",
        "spec journal workers max-jobs report trace",
        "with-timings quiet verify",
        cmd_run,
    ),
    ("report", "spec journal json", "with-timings", cmd_report),
    (
        "serve",
        "addr max-campaigns lease-jobs lease-ms inline-grace-ms addr-file",
        "once quiet",
        cmd_serve,
    ),
    (
        "worker",
        "addr name backoff-min-ms backoff-max-ms max-idle-ms",
        "quiet",
        cmd_worker,
    ),
    ("submit", "spec journal addr", "verify quiet", cmd_submit),
];

/// Runs `command` on its arguments; `None` when there is no such command.
fn run_command(command: &str, raw: Vec<String>) -> Option<Result<(), CliError>> {
    let &(_, values, switches, body) = COMMANDS.iter().find(|c| c.0 == command)?;
    Some(Args::parse(command, raw, values, switches).and_then(|args| body(&args)))
}

/// A command's failure: a malformed command line (exit 2, like
/// [`usage`]) or a campaign error with its own exit code.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Fleet(FleetError),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Fleet(e) => e.code(),
        }
    }
}

impl From<FleetError> for CliError {
    fn from(e: FleetError) -> Self {
        CliError::Fleet(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Fleet(e) => e.fmt(f),
        }
    }
}

impl Args {
    /// Accepts `raw` when every argument is one of the command's flags —
    /// `values` take the next argument, `switches` stand alone — or such
    /// a value; anything else is a usage error naming it.
    fn parse(
        command: &str,
        raw: Vec<String>,
        values: &str,
        switches: &str,
    ) -> Result<Self, CliError> {
        let listed = |list: &str, name: &str| list.split_whitespace().any(|flag| flag == name);
        let mut rest = raw.iter();
        while let Some(arg) = rest.next() {
            match arg.strip_prefix("--") {
                Some(name) if listed(values, name) => {
                    rest.next();
                }
                Some(name) if listed(switches, name) => {}
                _ => {
                    return Err(CliError::Usage(format!(
                        "`{command}` does not take `{arg}` (see `psbi-fleet help`)"
                    )))
                }
            }
        }
        Ok(Self { raw })
    }

    /// Value of `--key <value>`, parsed; `None` when the flag is absent.
    /// A missing or malformed value is a usage error naming both.
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        let flag = format!("--{key}");
        let Some(i) = self.raw.iter().position(|a| a == &flag) else {
            return Ok(None);
        };
        let value = self
            .raw
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        value
            .parse()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("bad value `{value}` for {flag}")))
    }

    fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.raw.iter().any(|a| a == &flag)
    }

    fn list(&self, key: &str) -> Result<Option<Vec<String>>, CliError> {
        Ok(self
            .get::<String>(key)?
            .map(|s| s.split(',').map(|x| x.trim().to_string()).collect()))
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
         \x20                   [--with-timings] [--quiet] [--verify] [--trace trace.json]\n\
         \x20 psbi-fleet report --spec campaign.json --journal c.journal\n\
         \x20                   [--json out.json] [--with-timings]\n\
         \x20 psbi-fleet serve  [--addr HOST:PORT] [--max-campaigns N] [--lease-jobs K]\n\
         \x20                   [--lease-ms MS] [--inline-grace-ms MS] [--once]\n\
         \x20                   [--addr-file PATH] [--quiet]\n\
         \x20 psbi-fleet worker [--addr HOST:PORT] [--name X] [--backoff-min-ms MS]\n\
         \x20                   [--backoff-max-ms MS] [--max-idle-ms MS] [--quiet]\n\
         \x20 psbi-fleet submit --spec campaign.json --journal c.journal\n\
         \x20                   [--addr HOST:PORT] [--verify] [--quiet]\n\
         \n\
         circuits: paper suite names (s9234, ...), demo classes\n\
         (tiny_demo:SEED, small_demo:SEED, medium_demo:SEED) or\n\
         sized:NAME:FFS:GATES:SEED\n\
         \n\
         --addr defaults to PSBI_DISPATCH_ADDR, then 127.0.0.1:7171;\n\
         workers heartbeat at a quarter of --lease-ms\n\
         \n\
         exit codes: 2 usage, 3 spec, 4 io, 5 journal, 6 circuit,\n\
         7 corrupt journal, 8 worker crash, 9 verification failure,\n\
         10 dispatch error"
    );
    ExitCode::from(2)
}

fn load_spec(args: &Args) -> Result<CampaignSpec, CliError> {
    let path: String = args
        .get("spec")?
        .ok_or_else(|| FleetError::Spec("--spec <campaign.json> is required".into()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("reading `{path}`: {e}"),
        ))
    })?;
    Ok(CampaignSpec::from_json(&text)?)
}

fn journal_path(args: &Args) -> Result<PathBuf, CliError> {
    let path = args
        .get::<String>("journal")?
        .ok_or_else(|| FleetError::Spec("--journal <path> is required".into()))?;
    Ok(PathBuf::from(path))
}

fn cmd_init(args: &Args) -> Result<(), CliError> {
    let mut spec = CampaignSpec::example();
    if let Some(name) = args.get::<String>("name")? {
        spec.name = name;
    }
    if let Some(circuits) = args.list("circuits")? {
        spec.circuits = circuits
            .iter()
            .map(|c| CircuitRef::parse(c))
            .collect::<Result<_, _>>()
            .map_err(FleetError::Spec)?;
    }
    if let Some(sigmas) = args.list("sigma")? {
        spec.sigma_factors = sigmas
            .iter()
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|_| FleetError::Spec(format!("bad sigma `{s}`")))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(samples) = args.get("samples")? {
        spec.samples = samples;
        spec.calibration_samples = spec.samples.max(300);
    }
    if let Some(ys) = args.get("yield-samples")? {
        spec.yield_samples = ys;
    }
    if let Some(seed) = args.get("seed")? {
        spec.seed = seed;
    }
    spec.validate()?;
    let out: String = args.get("out")?.unwrap_or_else(|| "campaign.json".into());
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

fn cmd_plan(args: &Args) -> Result<(), CliError> {
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

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let opts = FleetOptions {
        workers: args.get("workers")?.unwrap_or(0),
        max_jobs: args.get("max-jobs")?,
        progress: !args.has("quiet"),
        // PSBI_VERIFY=1 force-enables verification inside the flow even
        // without the flag.
        verify: args.has("verify"),
        // Chrome trace-event output; equivalent to PSBI_TRACE=<path>.
        trace: args.get::<String>("trace")?.map(PathBuf::from),
    };
    let report_path = args.get::<String>("report")?;
    let spec = load_spec(args)?;
    let journal = journal_path(args)?;
    let outcome = run_campaign(&spec, &journal, &opts)?;
    let report = CampaignReport::from_outcome(&spec, &outcome);
    print!("{}", report.text());
    if let Some(out) = report_path {
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

fn cmd_report(args: &Args) -> Result<(), CliError> {
    let json_path = args.get::<String>("json")?;
    let spec = load_spec(args)?;
    let journal = journal_path(args)?;
    let records = Journal::replay(&journal, &spec)?;
    let report = CampaignReport::from_records(&spec, records);
    print!("{}", report.text());
    if let Some(out) = json_path {
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

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut opts = ServeOptions::default();
    if let Some(addr) = args.get::<String>("addr")? {
        opts.addr = addr;
    }
    if let Some(n) = args.get("max-campaigns")? {
        opts.max_campaigns = n;
    }
    if let Some(k) = args.get("lease-jobs")? {
        opts.lease_jobs = k;
    }
    if let Some(ms) = args.get("lease-ms")? {
        opts.lease_ms = ms;
    }
    if let Some(ms) = args.get("inline-grace-ms")? {
        opts.inline_grace_ms = ms;
    }
    opts.once = args.has("once");
    opts.progress = !args.has("quiet");
    opts.addr_file = args.get::<String>("addr-file")?.map(PathBuf::from);
    Ok(serve(opts)?)
}

fn cmd_worker(args: &Args) -> Result<(), CliError> {
    let mut opts = WorkerOptions::default();
    if let Some(addr) = args.get::<String>("addr")? {
        opts.addr = addr;
    }
    if let Some(name) = args.get::<String>("name")? {
        opts.name = name;
    }
    if let Some(ms) = args.get("backoff-min-ms")? {
        opts.backoff_min_ms = ms;
    }
    if let Some(ms) = args.get("backoff-max-ms")? {
        opts.backoff_max_ms = ms;
    }
    opts.max_idle_ms = args.get("max-idle-ms")?;
    opts.progress = !args.has("quiet");
    Ok(run_worker(&opts)?)
}

fn cmd_submit(args: &Args) -> Result<(), CliError> {
    let mut opts = SubmitOptions::default();
    if let Some(addr) = args.get::<String>("addr")? {
        opts.addr = addr;
    }
    opts.verify = args.has("verify");
    opts.progress = !args.has("quiet");
    let spec_path: String = args
        .get("spec")?
        .ok_or_else(|| FleetError::Spec("--spec <campaign.json> is required".into()))?;
    let spec_text = std::fs::read_to_string(&spec_path).map_err(|e| {
        FleetError::Io(std::io::Error::new(
            e.kind(),
            format!("reading `{spec_path}`: {e}"),
        ))
    })?;
    let journal = journal_path(args)?;
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
    let result = match run_command(&command, std::env::args().skip(2).collect()) {
        Some(result) => result,
        None if matches!(command.as_str(), "--help" | "-h" | "help") => return usage(),
        None => {
            eprintln!("psbi-fleet: unknown command `{command}`\n");
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

    fn cli(command: &str, list: &[&str]) -> Result<(), CliError> {
        run_command(command, list.iter().map(|s| s.to_string()).collect()).expect("a command")
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psbi_fleet_cli_test_{tag}_{}", std::process::id()))
    }

    #[test]
    fn malformed_spec_json_is_a_spec_error() {
        let path = tmp_path("badspec");
        std::fs::write(&path, "{not json").unwrap();
        let e = cli("plan", &["--spec", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code(), 3, "unexpected error {e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_spec_flag_is_a_spec_error() {
        let e = cli("plan", &[]).unwrap_err();
        assert_eq!(e.code(), 3);
        assert!(e.to_string().contains("--spec"));
    }

    #[test]
    fn malformed_run_flags_are_usage_errors_before_any_job() {
        let spec_path = tmp_path("usagespec");
        std::fs::write(&spec_path, CampaignSpec::example().to_json()).unwrap();
        let journal = tmp_path("usagejournal");
        let _ = std::fs::remove_file(&journal);
        for (flag, value) in [("--max-jobs", "x"), ("--workers", "two")] {
            let e = cli(
                "run",
                &[
                    "--spec",
                    spec_path.to_str().unwrap(),
                    "--journal",
                    journal.to_str().unwrap(),
                    "--quiet",
                    flag,
                    value,
                ],
            )
            .unwrap_err();
            assert_eq!(e.code(), 2, "unexpected error {e}");
            let msg = e.to_string();
            assert!(msg.contains(flag) && msg.contains(value), "{msg}");
            assert!(!journal.exists(), "{flag} {value}: a job ran");
        }
        let _ = std::fs::remove_file(&spec_path);
    }

    /// A flag the command does not read is a usage error naming it, found
    /// before anything runs.  Each call below would otherwise fail in a
    /// different way, or never return: `run` would write the journal,
    /// `submit` would fail to read its missing spec (exit 4), `worker`
    /// would give up on a dispatcher no one listens for (exit 0), and
    /// `serve` would fail to bind the address this test holds (exit 10).
    #[test]
    fn unknown_flags_are_usage_errors_before_anything_runs() {
        let spec_path = tmp_path("unknownspec");
        std::fs::write(&spec_path, CampaignSpec::example().to_json()).unwrap();
        let journal = tmp_path("unknownjournal");
        let _ = std::fs::remove_file(&journal);
        let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let held_addr = held.local_addr().unwrap().to_string();
        let free_addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let missing_spec = tmp_path("no_such_spec");
        let spec = spec_path.to_str().unwrap();
        let journal_arg = journal.to_str().unwrap();
        for (command, argv, flag) in [
            (
                "run",
                vec![
                    "--spec",
                    spec,
                    "--journal",
                    journal_arg,
                    "--quiet",
                    "--retries",
                    "3",
                ],
                "--retries",
            ),
            (
                "submit",
                vec![
                    "--spec",
                    missing_spec.to_str().unwrap(),
                    "--journal",
                    journal_arg,
                    "--progress",
                ],
                "--progress",
            ),
            (
                "worker",
                vec![
                    "--addr",
                    &free_addr,
                    "--max-idle-ms",
                    "0",
                    "--heartbeat-ms",
                    "5",
                ],
                "--heartbeat-ms",
            ),
            ("serve", vec!["--addr", &held_addr, "--help"], "--help"),
        ] {
            let e = cli(command, &argv).unwrap_err();
            assert_eq!(e.code(), 2, "{command}: unexpected error {e}");
            assert!(e.to_string().contains(flag), "{command}: {e}");
        }
        assert!(!journal.exists(), "run --retries ran a job");
        let _ = std::fs::remove_file(&spec_path);
    }

    #[test]
    fn malformed_init_values_are_usage_errors_and_write_nothing() {
        let out = tmp_path("usageinit");
        let _ = std::fs::remove_file(&out);
        for (flag, value) in [("--seed", "abc"), ("--samples", "1e3")] {
            let e = cli("init", &["--out", out.to_str().unwrap(), flag, value]).unwrap_err();
            assert_eq!(e.code(), 2, "unexpected error {e}");
            let msg = e.to_string();
            assert!(msg.contains(flag) && msg.contains(value), "{msg}");
            assert!(!out.exists(), "{flag} {value}: init wrote a spec");
        }
        let e = cli("init", &["--out", out.to_str().unwrap(), "--seed"]).unwrap_err();
        assert_eq!(e.code(), 2, "unexpected error {e}");
        assert!(!out.exists());
    }

    #[test]
    fn unreadable_journal_is_an_io_error() {
        let spec_path = tmp_path("iospec");
        std::fs::write(&spec_path, CampaignSpec::example().to_json()).unwrap();
        let missing = tmp_path("no_such_journal");
        let _ = std::fs::remove_file(&missing);
        let e = cli(
            "report",
            &[
                "--spec",
                spec_path.to_str().unwrap(),
                "--journal",
                missing.to_str().unwrap(),
            ],
        )
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
        let e = cli(
            "report",
            &[
                "--spec",
                spec_path.to_str().unwrap(),
                "--journal",
                journal_path.to_str().unwrap(),
            ],
        )
        .unwrap_err();
        assert_eq!(e.code(), 5, "unexpected error {e}");
        assert!(e.to_string().contains("fingerprint"));
        for p in [&journal_path, &spec_path] {
            let _ = std::fs::remove_file(p);
        }
    }
}
