//! Deterministic counts of each workload: the numbers two runs of the
//! same code must reproduce exactly, whatever the host's speed.
//!
//! Solver work counts (regions, fallback regions, B&B nodes) are exact
//! only single-threaded — with racing workers a cross-chip memo hit can
//! skip a search — so they are taken at 1 thread.  Buffers and yield are
//! exact at any thread count.

use crate::campaign;
use crate::cell;
use psbi_core::solve::PassDiagnostics;
use std::path::Path;

/// Solver work counts at 1 thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounts {
    /// `solve.regions`.
    pub regions: u64,
    /// `solve.fallback_regions`.
    pub fallback_regions: u64,
    /// `solve.search_nodes`.
    pub search_nodes: u64,
}

impl From<&PassDiagnostics> for WorkCounts {
    fn from(d: &PassDiagnostics) -> Self {
        Self {
            regions: d.regions_total,
            fallback_regions: d.regions_saturated,
            search_nodes: d.search_nodes,
        }
    }
}

/// What one measurement pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pins {
    /// Work counts (single-threaded measurements only).
    pub work: Option<WorkCounts>,
    /// Total buffers over the workload's results.
    pub buffers: u64,
    /// Mean yield with buffers over its results (%).
    pub yield_pct: f64,
}

/// Measures the pins of `workload` at flow/campaign seed `seed` with
/// `threads` flow threads (`tight_cell`) or concurrent jobs (the
/// campaigns).  `work_dir` holds
/// the campaigns' journals.
///
/// # Errors
///
/// Unknown workloads and run failures, as text.
pub fn measure(workload: &str, seed: u64, threads: usize, work_dir: &Path) -> Result<Pins, String> {
    let spec = match workload {
        "tight_cell" => {
            let run = cell::run_cell(&cell::config(seed, threads), |_, _| {})?;
            let r = &run.result;
            return Ok(Pins {
                work: (threads == 1).then(|| WorkCounts::from(&r.diagnostics.total())),
                buffers: r.nb as u64,
                yield_pct: r.yield_with_buffers,
            });
        }
        "suite_sweep" => campaign::suite_spec(seed),
        "small_jobs" => campaign::small_spec(seed),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if threads == 1 {
        let reference = campaign::reference_sweep(&spec, false)?;
        let results = &reference.results;
        Ok(Pins {
            work: Some(WorkCounts::from(&reference.counts.diag)),
            buffers: results.iter().map(|r| r.nb as u64).sum(),
            yield_pct: results.iter().map(|r| r.yield_with_buffers).sum::<f64>()
                / results.len().max(1) as f64,
        })
    } else {
        let run = campaign::run_in_process(&spec, &work_dir.join("pins.journal"), threads)?;
        let (buffers, yield_pct) = campaign::quality(&run.outcome.records);
        Ok(Pins {
            work: None,
            buffers: buffers as u64,
            yield_pct,
        })
    }
}
