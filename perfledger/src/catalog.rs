//! The ledger's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, with units and better directions — the single source the
//! printed tables, the result JSON and `BENCHMARK.json` are all built from.

use std::fmt::Write as _;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name later claims refer to.
    pub name: &'static str,
    /// Why it is in the ledger (one line).
    pub why: &'static str,
}

/// The three workloads, in ledger order.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "tight_cell",
        why: "one s38584 Table I cell at T = muT: the solver's oversized-region fallback dominates, \
              the cross-chip memo only publishes, no fleet layers",
    },
    WorkloadDef {
        name: "suite_sweep",
        why: "in-process campaign over s9234, s13207, mem_ctrl x 5 adjacent targets: read-heavy solver \
              caches, sampling/extraction/yield on loose targets, journal commits",
    },
    WorkloadDef {
        name: "small_jobs",
        why: "24 short small_demo jobs run in-process and through an in-process dispatcher with two \
              workers: fleet runner and dispatch overhead dominate",
    },
];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("buffers", "count", Lower, 0.2),
    e2e("yield_pct", "%", Higher, 0.1),
];

/// Per-layer metrics, reported by every workload's traced run (0 where a
/// layer is absent from the workload).
pub const PER_LAYER: [MetricDef; 44] = [
    layer("setup.generate_s", "s", Lower),
    layer("setup.build_s", "s", Lower),
    layer("setup.calibrate_s", "s", Lower),
    layer("sample.fill_s", "s", Lower),
    layer("sample.chips_per_s", "1/s", Higher),
    layer("extract.build_s", "s", Lower),
    layer("extract.chips_per_s", "1/s", Higher),
    layer("flow.a1_s", "s", Lower),
    layer("flow.a3_s", "s", Lower),
    layer("flow.b1_s", "s", Lower),
    layer("flow.b2_s", "s", Lower),
    layer("flow.group_s", "s", Lower),
    layer("flow.yield_s", "s", Lower),
    layer("flow.coverage", "ratio", Higher),
    layer("flow.unattributed_share", "ratio", Lower),
    layer("solve.discovery_busy_s", "s", Lower),
    layer("solve.screen_busy_s", "s", Lower),
    layer("solve.search_busy_s", "s", Lower),
    layer("solve.milp_busy_s", "s", Lower),
    layer("solve.regions", "count", Lower),
    layer("solve.fallback_regions", "count", Lower),
    layer("solve.fallback_share", "ratio", Lower),
    layer("solve.search_nodes", "count", Lower),
    layer("solve.inexact_samples", "count", Lower),
    layer("solve.inexact_share", "ratio", Lower),
    layer("solve.regions_reused", "count", Higher),
    layer("solve.supports_rehit", "count", Higher),
    layer("solve.memo_hits", "count", Higher),
    layer("solve.memo_hit_rate", "ratio", Higher),
    layer("solve.memo_entries", "count", Lower),
    layer("solve.chip_p50_us", "us", Lower),
    layer("solve.chip_p99_us", "us", Lower),
    layer("fleet.job_p50_s", "s", Lower),
    layer("fleet.job_max_s", "s", Lower),
    layer("fleet.overhead_share", "ratio", Lower),
    layer("journal.replay_s", "s", Lower),
    layer("dispatch.overhead_s", "s", Lower),
    layer("dispatch.leases_granted", "count", Lower),
    layer("dispatch.leases_expired", "count", Lower),
    layer("dispatch.jobs_redispatched", "count", Lower),
    layer("dispatch.jobs_inline", "count", Lower),
    layer("dispatch.heartbeats", "count", Lower),
    layer("obs.trace_overhead", "ratio", Lower),
    layer("flow.speedup_2t", "ratio", Higher),
];

/// Looks a metric up in either list.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The seconds each benchmark run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, generated from this catalog.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"perfledger/Cargo.toml\", \"--bin\", \"perfledger\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfledger\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric/workload name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    /// The committed manifest is exactly what the catalog generates
    /// (`perfledger --write-manifest` regenerates it).
    #[test]
    fn committed_manifest_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with --write-manifest");
    }
}
