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
//! Each binary reads only the flags its docs list; any other argument,
//! like a malformed flag value, is a usage error (exit 2) before it
//! generates a circuit.

use psbi_core::flow::{BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod};
use psbi_netlist::bench_suite::BenchmarkSpec;

/// Every bench binary with the arguments it reads: flags that take a
/// value, switches, and the choices of its optional leading positional
/// argument (each list space-separated, empty for none).  [`Args`]
/// refuses anything else.
const BINARIES: &[(&str, &str, &str, &str)] = &[
    (
        "ablation",
        "circuits samples yield-samples seed threads sigma",
        "all",
        "concentrate pruning sampler zero-window all",
    ),
    (
        "fig4_pruning",
        "circuits samples yield-samples seed threads sigma",
        "all",
        "",
    ),
    (
        "fig5",
        "circuits samples yield-samples seed threads sigma buffers",
        "all",
        "",
    ),
    (
        "fig6_grouping",
        "circuits samples yield-samples seed threads sigma rt dt",
        "all",
        "",
    ),
    (
        "table1",
        "circuits samples yield-samples seed threads",
        "all csv",
        "",
    ),
    (
        "perf_json",
        "circuit samples flow-samples campaign-samples seed out",
        "",
        "",
    ),
    ("simd_parity", "circuit samples seed out", "", ""),
];

/// `--key value` / `--flag` scanner, checked against the arguments its
/// binary reads.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (after the binary name) of the
    /// bench binary `binary`.  An argument it does not read is a usage
    /// error: it is reported on stderr and the process exits with
    /// status 2 before the binary does any work.
    pub fn from_env(binary: &str) -> Self {
        Self::parse(binary, std::env::args().skip(1).collect()).unwrap_or_else(|e| usage_error(&e))
    }

    /// Accepts `raw` when every argument is one of `binary`'s flags — a
    /// flag that takes a value also takes the next argument — or, first
    /// of all, one of its positional choices; anything else is a usage
    /// error naming it.  Panics when `binary` is not one of this crate's
    /// binaries.
    fn parse(binary: &str, raw: Vec<String>) -> Result<Self, String> {
        let &(_, values, switches, choices) = BINARIES
            .iter()
            .find(|b| b.0 == binary)
            .unwrap_or_else(|| panic!("`{binary}` is not a bench binary"));
        let listed = |list: &str, name: &str| list.split_whitespace().any(|flag| flag == name);
        let mut rest = raw.iter().enumerate();
        while let Some((i, arg)) = rest.next() {
            match arg.strip_prefix("--") {
                Some(name) if listed(values, name) => {
                    rest.next();
                }
                Some(name) if listed(switches, name) => {}
                None if i == 0 && listed(choices, arg) => {}
                None if i == 0 && !choices.is_empty() => {
                    return Err(format!(
                        "`{binary}` takes one of `{}`, not `{arg}`",
                        choices.replace(' ', "|")
                    ))
                }
                _ => return Err(format!("`{binary}` does not take `{arg}`")),
            }
        }
        Ok(Self { raw })
    }

    /// The leading positional argument, if the binary takes one and it
    /// was given.
    pub fn positional(&self) -> Option<&str> {
        self.raw
            .first()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
    }

    /// Value of `--key <value>`, parsed; `None` when the flag is absent.
    /// A missing or malformed value is a usage error: it is reported on
    /// stderr and the process exits with status 2.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.try_get(key).unwrap_or_else(|e| usage_error(&e))
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

    /// The paper-suite circuit `--circuit` names (default `s9234`).  A
    /// name no suite entry matches is a usage error: it is reported on
    /// stderr and the process exits with status 2.
    pub fn circuit(&self) -> BenchmarkSpec {
        let name: String = self.get("circuit").unwrap_or_else(|| "s9234".to_string());
        suite_circuit(&name).unwrap_or_else(|e| usage_error(&e))
    }
}

/// Reports a usage error on stderr and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The paper-suite circuit called `name`, or a usage error naming it.
fn suite_circuit(name: &str) -> Result<BenchmarkSpec, String> {
    psbi_netlist::bench_suite::by_name(name).ok_or_else(|| {
        format!(
            "unknown circuit `{name}` (the suite has {})",
            psbi_netlist::bench_suite::suite_names().join(", ")
        )
    })
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
    /// `--circuits` nor `--all` is given.  A circuit name no suite entry
    /// matches is a usage error, like a malformed value: it is reported
    /// on stderr and the process exits with status 2.
    pub fn parse(args: &Args, default_circuits: &[&str]) -> Self {
        Self::try_parse(args, default_circuits).unwrap_or_else(|e| usage_error(&e))
    }

    /// As [`ExperimentConfig::parse`], but returns the usage error
    /// instead of exiting.
    fn try_parse(args: &Args, default_circuits: &[&str]) -> Result<Self, String> {
        let circuits = if args.has("all") {
            psbi_netlist::bench_suite::paper_suite()
        } else {
            let list = args.try_get::<String>("circuits")?;
            let names: Vec<&str> = match &list {
                Some(list) => list.split(',').map(str::trim).collect(),
                None => default_circuits.to_vec(),
            };
            names
                .into_iter()
                .map(suite_circuit)
                .collect::<Result<_, _>>()?
        };
        Ok(Self {
            samples: args.try_get("samples")?.unwrap_or(1000),
            yield_samples: args.try_get("yield-samples")?.unwrap_or(4000),
            seed: args.try_get("seed")?.unwrap_or(42),
            threads: args.try_get("threads")?.unwrap_or(0),
            circuits,
        })
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

    fn parse(binary: &str, raw: &[&str]) -> Result<Args, String> {
        Args::parse(binary, raw.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn args_parse() {
        let a = parse(
            "table1",
            &["--samples", "500", "--all", "--circuits", "s9234, s13207"],
        )
        .unwrap();
        assert_eq!(a.get::<usize>("samples"), Some(500));
        assert!(a.has("all"));
        assert_eq!(
            a.get::<String>("circuits").as_deref(),
            Some("s9234, s13207")
        );
        assert_eq!(a.get::<usize>("missing"), None);
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        let a = parse("table1", &["--samples", "10k", "--threads", "2", "--seed"]).unwrap();
        let e = a.try_get::<usize>("samples").unwrap_err();
        assert!(e.contains("--samples") && e.contains("10k"), "{e}");
        let e = a.try_get::<u64>("seed").unwrap_err();
        assert!(e.contains("--seed"), "{e}");
        assert_eq!(a.try_get::<usize>("threads"), Ok(Some(2)));
        assert_eq!(a.try_get::<usize>("missing"), Ok(None));
    }

    #[test]
    fn unread_arguments_are_usage_errors() {
        // A flag the binary does not read, a misspelt one, a leg outside
        // `ablation`'s list and a stray positional are all refused, each
        // named in the message.
        for (binary, raw, named) in [
            (
                "ablation",
                &["--which", "A3", "--samples", "150", "--circuits", "s9234"][..],
                "--which",
            ),
            ("ablation", &["A3", "--samples", "150"], "A3"),
            ("ablation", &["sampler", "pruning"], "pruning"),
            ("table1", &["--sample", "100"], "--sample"),
            ("table1", &["s9234"], "s9234"),
            ("fig5", &["--csv"], "--csv"),
            ("perf_json", &["--circuits", "s9234"], "--circuits"),
            ("simd_parity", &["--flow-samples", "10"], "--flow-samples"),
        ] {
            let e = parse(binary, raw).unwrap_err();
            assert!(e.contains(binary) && e.contains(named), "{e}");
        }
    }

    #[test]
    fn every_flag_a_binary_reads_is_accepted() {
        // Per binary: whether it reads `ExperimentConfig`'s five flags,
        // its own flags that take a value, and its switches.
        const EXPERIMENT: [&str; 5] = ["circuits", "samples", "yield-samples", "seed", "threads"];
        let reads: [(&str, bool, &[&str], &[&str]); 7] = [
            ("ablation", true, &["sigma"], &["all"]),
            ("fig4_pruning", true, &["sigma"], &["all"]),
            ("fig5", true, &["sigma", "buffers"], &["all"]),
            ("fig6_grouping", true, &["sigma", "rt", "dt"], &["all"]),
            ("table1", true, &[], &["all", "csv"]),
            (
                "perf_json",
                false,
                &[
                    "circuit",
                    "samples",
                    "flow-samples",
                    "campaign-samples",
                    "seed",
                    "out",
                ],
                &[],
            ),
            (
                "simd_parity",
                false,
                &["circuit", "samples", "seed", "out"],
                &[],
            ),
        ];
        for (binary, experiment, own, switches) in reads {
            let shared: &[&str] = if experiment { &EXPERIMENT } else { &[] };
            let values: Vec<&str> = shared.iter().chain(own).copied().collect();
            let mut raw = Vec::new();
            for flag in &values {
                raw.push(format!("--{flag}"));
                raw.push("7".to_string());
            }
            raw.extend(switches.iter().map(|s| format!("--{s}")));
            let a = Args::parse(binary, raw).unwrap_or_else(|e| panic!("{e}"));
            for flag in &values {
                assert_eq!(a.try_get::<u32>(flag), Ok(Some(7)), "{binary} --{flag}");
            }
            for switch in switches {
                assert!(a.has(switch), "{binary} --{switch}");
            }
            assert_eq!(a.positional(), None);
        }
        for leg in ["concentrate", "pruning", "sampler", "zero-window", "all"] {
            let a = parse(
                "ablation",
                &[leg, "--samples", "150", "--circuits", "s9234"],
            )
            .unwrap();
            assert_eq!(a.positional(), Some(leg));
            assert_eq!(a.try_get::<usize>("samples"), Ok(Some(150)));
        }
    }

    #[test]
    fn experiment_config_selects_circuits() {
        let a = parse("table1", &["--circuits", "s9234"]).unwrap();
        let cfg = ExperimentConfig::parse(&a, &["s13207"]);
        assert_eq!(cfg.circuits.len(), 1);
        assert_eq!(cfg.circuits[0].name, "s9234");
        let a = parse("table1", &[]).unwrap();
        let cfg = ExperimentConfig::parse(&a, &["s13207"]);
        assert_eq!(cfg.circuits[0].name, "s13207");
        let a = parse("table1", &["--all"]).unwrap();
        let cfg = ExperimentConfig::parse(&a, &[]);
        assert_eq!(cfg.circuits.len(), 8);
    }

    #[test]
    fn unknown_circuits_are_usage_errors() {
        // A misspelt name among valid ones refuses the whole selection,
        // naming the circuit, instead of leaving a binary no circuit.
        let a = parse("ablation", &["sampler", "--circuits", "s9234, s9243"]).unwrap();
        let e = ExperimentConfig::try_parse(&a, &["s9234"]).unwrap_err();
        assert!(e.contains("`s9243`") && e.contains("s9234"), "{e}");
        let a = parse("fig5", &["--circuits", "nope"]).unwrap();
        let e = ExperimentConfig::try_parse(&a, &["s9234"]).unwrap_err();
        assert!(e.contains("`nope`"), "{e}");
        let a = parse("table1", &["--circuits", "s9234,s13207"]).unwrap();
        let cfg = ExperimentConfig::try_parse(&a, &[]).unwrap();
        let names: Vec<_> = cfg.circuits.iter().map(|c| c.name).collect();
        assert_eq!(names, ["s9234", "s13207"]);
        // `--circuit` (perf_json, simd_parity) resolves through the same
        // lookup.
        let e = suite_circuit("nope").unwrap_err();
        assert!(e.contains("`nope`"), "{e}");
        assert_eq!(suite_circuit("s38584").unwrap().name, "s38584");
    }

    #[test]
    fn ascii_histogram_renders() {
        let h = ascii_histogram(&[(0, 2), (1, 4)], 8);
        assert!(h.contains("0 |"));
        assert!(h.contains("####"));
    }
}
