//! Experiment harness shared by the reproduction binaries.
//!
//! The binaries in this crate regenerate the paper's tables and figures:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I (Nb, Ab, Y, Yi, T per circuit × period) |
//! | `fig5` | Fig. 5 histograms (scattered → window → concentrated) |
//! | `fig4_pruning` | Fig. 4 pruning statistics |
//! | `fig6_grouping` | Fig. 6 grouping statistics |
//! | `ablation` | ablations A1–A4 (concentration, pruning, sampler, zero window) |
//!
//! Run e.g. `cargo run -p psbi-bench --release --bin table1 -- --samples 10000 --all`.

use psbi_core::flow::{BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod};
use psbi_netlist::bench_suite::BenchmarkSpec;

/// Simple `--key value` / `--flag` argument scanner.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (after the binary name).
    pub fn from_env() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// Value of `--key <value>`, parsed; `None` when the flag is absent.
    /// A missing or malformed value is a usage error: it is reported on
    /// stderr and the process exits with status 2.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.try_get(key).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// As [`Args::get`], but returns the usage error (naming the flag and
    /// the value) instead of exiting.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let flag = format!("--{key}");
        let Some(i) = self.raw.iter().position(|a| a == &flag) else {
            return Ok(None);
        };
        let value = self
            .raw
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        value
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value `{value}` for {flag}"))
    }

    /// Presence of `--key`.
    pub fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// Comma-separated list value of `--key a,b,c`.
    pub fn list(&self, key: &str) -> Option<Vec<String>> {
        self.get::<String>(key)
            .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Common experiment knobs parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Insertion samples (`--samples`, default 1000; paper uses 10 000).
    pub samples: usize,
    /// Yield-evaluation samples (`--yield-samples`, default 4000).
    pub yield_samples: usize,
    /// Master seed (`--seed`, default 42).
    pub seed: u64,
    /// Worker threads (`--threads`, default all cores).
    pub threads: usize,
    /// Selected circuits (`--circuits s9234,s13207` or `--all`).
    pub circuits: Vec<BenchmarkSpec>,
}

impl ExperimentConfig {
    /// Parses the shared knobs; `default_circuits` is used when neither
    /// `--circuits` nor `--all` is given.
    pub fn parse(args: &Args, default_circuits: &[&str]) -> Self {
        let suite = psbi_netlist::bench_suite::paper_suite();
        let circuits: Vec<BenchmarkSpec> = if args.has("all") {
            suite
        } else if let Some(names) = args.list("circuits") {
            names
                .iter()
                .filter_map(|n| {
                    let found = psbi_netlist::bench_suite::by_name(n);
                    if found.is_none() {
                        eprintln!("warning: unknown circuit `{n}` skipped");
                    }
                    found
                })
                .collect()
        } else {
            default_circuits
                .iter()
                .filter_map(|n| psbi_netlist::bench_suite::by_name(n))
                .collect()
        };
        Self {
            samples: args.get("samples").unwrap_or(1000),
            yield_samples: args.get("yield-samples").unwrap_or(4000),
            seed: args.get("seed").unwrap_or(42),
            threads: args.get("threads").unwrap_or(0),
            circuits,
        }
    }

    /// The flow configuration for one circuit at `µT + k·σT`.
    pub fn flow_config(&self, sigma_factor: f64) -> FlowConfig {
        FlowConfig {
            samples: self.samples,
            yield_samples: self.yield_samples,
            calibration_samples: self.samples.max(1000),
            seed: self.seed,
            target: TargetPeriod::SigmaFactor(sigma_factor),
            threads: self.threads,
            ..FlowConfig::default()
        }
    }
}

/// Runs the full flow for one circuit at one target period.
pub fn run_cell(spec: &BenchmarkSpec, cfg: FlowConfig) -> InsertionResult {
    let circuit = spec.generate();
    BufferInsertionFlow::builder(&circuit, cfg)
        .build()
        .expect("generated benchmarks are valid")
        .run()
}

/// Formats one Table-I cell as `Nb Ab Y Yi T`.
pub fn format_cell(r: &InsertionResult) -> String {
    format!(
        "{:>4} {:>6.2} {:>6.2} {:>6.2} {:>8.2}",
        r.nb, r.ab, r.yield_with_buffers, r.improvement, r.runtime.total_s
    )
}

/// Renders a histogram as an ASCII bar chart (for the fig5 binary).
pub fn ascii_histogram(bins: &[(i64, u64)], width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let max = bins.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    for (v, c) in bins {
        let bar = (*c as usize * width).div_ceil(max as usize);
        let _ = writeln!(out, "{v:>5} | {:<width$} {c}", "#".repeat(bar));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse() {
        let a = Args::from_vec(vec![
            "--samples".into(),
            "500".into(),
            "--all".into(),
            "--circuits".into(),
            "s9234, s13207".into(),
        ]);
        assert_eq!(a.get::<usize>("samples"), Some(500));
        assert!(a.has("all"));
        assert_eq!(
            a.list("circuits"),
            Some(vec!["s9234".to_string(), "s13207".to_string()])
        );
        assert_eq!(a.get::<usize>("missing"), None);
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        let a = Args::from_vec(vec![
            "--samples".into(),
            "10k".into(),
            "--threads".into(),
            "2".into(),
            "--seed".into(),
        ]);
        let e = a.try_get::<usize>("samples").unwrap_err();
        assert!(e.contains("--samples") && e.contains("10k"), "{e}");
        let e = a.try_get::<u64>("seed").unwrap_err();
        assert!(e.contains("--seed"), "{e}");
        assert_eq!(a.try_get::<usize>("threads"), Ok(Some(2)));
        assert_eq!(a.try_get::<usize>("missing"), Ok(None));
    }

    #[test]
    fn experiment_config_selects_circuits() {
        let a = Args::from_vec(vec!["--circuits".into(), "s9234".into()]);
        let cfg = ExperimentConfig::parse(&a, &["s13207"]);
        assert_eq!(cfg.circuits.len(), 1);
        assert_eq!(cfg.circuits[0].name, "s9234");
        let a = Args::from_vec(vec![]);
        let cfg = ExperimentConfig::parse(&a, &["s13207"]);
        assert_eq!(cfg.circuits[0].name, "s13207");
        let a = Args::from_vec(vec!["--all".into()]);
        let cfg = ExperimentConfig::parse(&a, &[]);
        assert_eq!(cfg.circuits.len(), 8);
    }

    #[test]
    fn ascii_histogram_renders() {
        let h = ascii_histogram(&[(0, 2), (1, 4)], 8);
        assert!(h.contains("0 |"));
        assert!(h.contains("####"));
    }
}
