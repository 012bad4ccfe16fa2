//! `perfledger` — runs one ledger workload (or all of them) and prints its
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfledger/Cargo.toml -- \
//!     [--workload tight_cell|suite_sweep|small_jobs|all] [--seed 42] \
//!     [--instance-seed 42] [--seconds 10] [--trace 0|1] \
//!     [--chrome-trace out.json] [--write-manifest]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the host/build stamp and the human-readable tables.

use perfledger::{catalog, host, run_workload, RunConfig, WorkDir};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Cli {
    workload: String,
    seed: u64,
    instance_seed: u64,
    seconds: f64,
    traced: bool,
    chrome_trace: Option<PathBuf>,
    write_manifest: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 42,
        instance_seed: perfledger::DEFAULT_INSTANCE_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        traced: false,
        chrome_trace: None,
        write_manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-manifest" {
            cli.write_manifest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--instance-seed" => cli.instance_seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cli.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cli.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--chrome-trace" => cli.chrome_trace = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.write_manifest {
        return match std::fs::write("BENCHMARK.json", catalog::manifest()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfledger: cannot write BENCHMARK.json: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("stamp {}", host::Stamp::collect().to_json());
    if cli.workload == "all" {
        return run_all(&args);
    }
    let work = match WorkDir::create(Path::new(".perfledger-work")) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfledger: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = RunConfig {
        seed: cli.seed,
        instance_seed: cli.instance_seed,
        seconds: cli.seconds,
        traced: cli.traced,
        chrome_trace: cli.chrome_trace.clone(),
        work_dir: work.path().to_path_buf(),
    };
    let mut report = match run_workload(&cli.workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    let result = report.result_json(cli.traced);
    print!("{}", report.render(cli.traced));
    if let Some(path) = cli.chrome_trace.as_ref().filter(|_| cli.traced) {
        println!(
            "chrome trace: {} (open in https://ui.perfetto.dev)",
            path.display()
        );
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// Runs every workload in its own child process (so each reports its
/// own peak memory), one after another, forwarding their output; exits
/// non-zero when any child fails or reports an incorrect run.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfledger: cannot locate the running executable");
        return ExitCode::FAILURE;
    };
    let mut all_ok = true;
    let mut summary = Vec::new();
    for w in catalog::WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".into(), w.name.into()]);
        let out = Command::new(&exe).args(&child_args).output();
        let Ok(out) = out else {
            eprintln!("perfledger: cannot start {}", w.name);
            return ExitCode::FAILURE;
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        // Drop the child's own stamp line; ours is already printed.
        for line in stdout.lines().filter(|l| !l.starts_with("stamp ")) {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().unwrap_or("").to_string();
        all_ok &= out.status.success() && last.starts_with("{\"correct\": true");
        summary.push(format!("\"{}\": {last}", w.name));
    }
    println!("{{{}}}", summary.join(", "));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
