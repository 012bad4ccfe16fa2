//! Rendering of insertion results as Markdown and CSV.
//!
//! The experiment binaries use these helpers to produce the tables recorded
//! in `EXPERIMENTS.md`; they are exposed publicly so downstream users can
//! log flow outcomes uniformly.

use crate::flow::InsertionResult;
use std::fmt::Write as _;

/// One labelled result (e.g. `("s9234", "muT", result)`).
pub type LabelledResult<'a> = (&'a str, &'a str, &'a InsertionResult);

/// Renders results as a GitHub-flavoured Markdown table with the paper's
/// Table-I columns.
pub fn markdown_table(rows: &[LabelledResult<'_>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| circuit | target | ns | ng | Nb | Ab | Yo (%) | Y (%) | Yi (pts) | T (s) |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for (circuit, target, r) in rows {
        let _ = writeln!(
            out,
            "| {circuit} | {target} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.n_ffs,
            r.n_gates,
            r.nb,
            r.ab,
            r.yield_baseline,
            r.yield_with_buffers,
            r.improvement,
            r.runtime.total_s
        );
    }
    out
}

/// Renders results as CSV with a header row.
pub fn csv_table(rows: &[LabelledResult<'_>]) -> String {
    let mut out = String::from(
        "circuit,target,ns,ng,nb,ab,yo,y,yi,runtime_s,mu_t,sigma_t,rescued,broken,buffers_before_grouping\n",
    );
    for (circuit, target, r) in rows {
        let _ = writeln!(
            out,
            "{circuit},{target},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.2},{:.2},{},{},{}",
            r.n_ffs,
            r.n_gates,
            r.nb,
            r.ab,
            r.yield_baseline,
            r.yield_with_buffers,
            r.improvement,
            r.runtime.total_s,
            r.mu_t,
            r.sigma_t,
            r.rescued,
            r.broken,
            r.buffers_before_grouping
        );
    }
    out
}

/// One-paragraph human summary of a result.
pub fn summary(r: &InsertionResult) -> String {
    format!(
        "{}: {} buffers (avg range {:.1} steps) lift yield from {:.2}% to {:.2}% \
         (+{:.2} points, {} chips rescued, {} broken) at T = {:.1} ps \
         (muT = {:.1}, sigmaT = {:.1}); flow took {:.2}s.",
        r.circuit,
        r.nb,
        r.ab,
        r.yield_baseline,
        r.yield_with_buffers,
        r.improvement,
        r.rescued,
        r.broken,
        r.period,
        r.mu_t,
        r.sigma_t,
        r.runtime.total_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
    use psbi_netlist::bench_suite;

    fn sample_result() -> InsertionResult {
        let c = bench_suite::tiny_demo(17);
        let cfg = FlowConfig {
            samples: 60,
            yield_samples: 150,
            calibration_samples: 150,
            threads: 1,
            target: TargetPeriod::SigmaFactor(0.0),
            ..FlowConfig::default()
        };
        BufferInsertionFlow::builder(&c, cfg).build().unwrap().run()
    }

    #[test]
    fn markdown_has_row_per_result() {
        let r = sample_result();
        let table = markdown_table(&[("tiny", "muT", &r), ("tiny", "muT+2s", &r)]);
        assert_eq!(table.lines().count(), 4); // header + separator + 2 rows
        assert!(table.contains("| tiny | muT |"));
        assert!(table.contains("| Nb |"));
    }

    #[test]
    fn csv_is_parseable() {
        let r = sample_result();
        let csv = csv_table(&[("tiny", "muT", &r)]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(row.starts_with("tiny,muT,24,220,"));
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let r = sample_result();
        let s = summary(&r);
        assert!(s.contains("tiny_demo"));
        assert!(s.contains("buffers"));
        assert!(s.contains("yield"));
    }
}
