#![warn(missing_docs)]
//! Zero-dependency observability for the PSBI workspace.
//!
//! Two subsystems, both disarmed by default and both costing a single
//! relaxed atomic load per site when disarmed (the `psbi_fault` fast-path
//! pattern):
//!
//! * [`trace`] — span-based tracing.  RAII [`Span`] guards bracket named
//!   regions of work; armed via `PSBI_TRACE=<path>` (or programmatically,
//!   e.g. `psbi-fleet run --trace`), the buffered events flush as a
//!   Chrome trace-event JSON array loadable in Perfetto.
//! * [`metrics`] — a process-wide registry of named counters, gauges and
//!   log-bucketed histograms.  Armed via `PSBI_METRICS=<path>` (or
//!   programmatically); snapshots export as JSON and Prometheus text.
//!
//! Span and metric names follow a `layer.noun[.verb]` scheme
//! (`sample.batch.fill`, `flow.pass.a1`, `solve.stage.search`,
//! `fleet.job`); the README's Observability section tabulates them.
//!
//! # Determinism contract
//!
//! Observability writes only to its own output files.  Canonical outputs
//! (journals, canonical reports, results) are byte-identical with tracing
//! and metrics armed or disarmed — `tests/obs.rs` pins this.  Wall-time
//! metric *values* are non-canonical like wall times everywhere else in
//! the repo; event *counts* on deterministic code paths are reproducible
//! across worker counts.
//!
//! This crate is deliberately dependency-free (not even the vendored
//! shims): the observability layer must never perturb what it observes,
//! and it sits below every other workspace crate.

pub mod metrics;
pub mod trace;

pub use trace::Span;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises tests that arm the process-global trace sink or metrics
/// registry: [`trace::with_trace`], [`metrics::with_metrics`] and
/// [`test_lock`] all queue on this one gate.
static TEST_GATE: Mutex<()> = Mutex::new(());

pub(crate) fn test_gate() -> MutexGuard<'static, ()> {
    TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires the process-global observability test gate directly — for
/// tests that need to sequence *both* an unarmed reference run and armed
/// runs under one critical section (byte-neutrality comparisons).  While
/// the guard is held, call [`trace::arm`] / [`metrics::arm`] /
/// [`trace::disarm`] / [`metrics::disarm`] manually; do **not** call
/// [`trace::with_trace`] or [`metrics::with_metrics`], which would
/// deadlock on the same (non-reentrant) gate.
pub fn test_lock() -> MutexGuard<'static, ()> {
    test_gate()
}

/// Flushes both sinks when dropped: rewrites the trace file and the
/// metrics snapshot if their subsystems are armed.  Every binary and
/// example holds one in `main` (and `psbi_fleet::run_campaign` holds one
/// for its campaign), so `PSBI_TRACE` / `PSBI_METRICS` output is written
/// on exit instead of lost.  A failed flush warns on stderr; dropping
/// never panics.  Create it with [`flush_on_drop`].
#[must_use = "bind the guard to a named variable: it flushes when dropped"]
pub struct FlushOnDrop {
    _private: (),
}

/// Reads `PSBI_TRACE` and `PSBI_METRICS` now — so an env-armed sink
/// writes its file even when no instrumented site runs — and returns the
/// guard that flushes both when dropped.
pub fn flush_on_drop() -> FlushOnDrop {
    trace::enabled();
    metrics::enabled();
    FlushOnDrop { _private: () }
}

impl Drop for FlushOnDrop {
    fn drop(&mut self) {
        if let Err(e) = trace::flush() {
            eprintln!("psbi-obs: warning: trace flush failed: {e}");
        }
        if let Err(e) = metrics::flush() {
            eprintln!("psbi-obs: warning: metrics flush failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_on_drop_writes_both_sinks_and_survives_a_failed_flush() {
        let _gate = test_lock();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let trace_path = dir.join(format!("psbi_obs_guard_trace_{pid}.json"));
        let metrics_path = dir.join(format!("psbi_obs_guard_metrics_{pid}.json"));
        trace::arm(trace_path.clone());
        metrics::arm(Some(metrics_path.clone()));
        {
            let _obs = flush_on_drop();
            drop(Span::enter("guard.span"));
            metrics::counter_add("guard.counter", 3);
        }
        let trace_text = std::fs::read_to_string(&trace_path).expect("trace written on drop");
        assert!(trace_text.starts_with('[') && trace_text.contains("\"guard.span\""));
        let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics written on drop");
        assert!(metrics_text.contains("\"guard.counter\": 3"));

        // An unwritable destination only warns: the drop must not panic.
        let missing = dir.join(format!("psbi_obs_guard_missing_{pid}"));
        trace::arm(missing.join("trace.json"));
        metrics::arm(Some(missing.join("metrics.json")));
        drop(flush_on_drop());

        trace::disarm();
        metrics::disarm();
        let mut prom = metrics_path.clone().into_os_string();
        prom.push(".prom");
        for p in [trace_path, metrics_path, prom.into()] {
            let _ = std::fs::remove_file(p);
        }
    }
}
