//! Process-wide metrics registry: counters, gauges, log-bucketed
//! histograms.
//!
//! Every instrument is addressed by a `&'static str` name at the call
//! site — there is no handle object to thread through APIs, which is what
//! lets deep layers (the solver's stage timers, the sampler's batch
//! counters) record without any plumbing changes.  All recording
//! functions are **disarmed no-ops** behind a single relaxed atomic load;
//! the registry arms in one of two ways:
//!
//! * `PSBI_METRICS=<path>` in the environment (read once) — [`flush`]
//!   writes the JSON snapshot to `<path>` and the Prometheus text
//!   exposition to `<path>.prom`;
//! * programmatically via [`arm`] (with or without an output path —
//!   `perf_json` and the benchmark ledger arm a path-less registry and
//!   read [`snapshot`] in-process).
//!
//! # Instruments
//!
//! * **Counter** — monotone `u64`, [`counter_add`].  Counts on
//!   deterministic code paths (batches filled, chunks mapped, jobs
//!   committed) are reproducible across worker counts; counts on racy
//!   paths (memo hit/miss, workspace creation) are not, and are named in
//!   the README so tests know to exclude them.
//! * **Gauge** — last-write-wins `u64`, [`gauge_set`].
//! * **Histogram** — count, sum and power-of-two buckets, [`observe`] /
//!   [`Timer`].  Used for wall-clock nanoseconds (solver stages, flow
//!   passes, job walls); values are non-canonical like wall times
//!   everywhere else in the repo.
//!
//! Wall-clock histograms come from [`timer`]: the returned RAII guard
//! reads the clock only when the registry is armed, so a disarmed timer
//! site does not even pay an `Instant::now()` — cheaper than the
//! unconditional `StageTimes` plumbing it replaced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::Instant;

/// Number of power-of-two histogram buckets: bucket 0 holds zero values,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`; the last bucket also
/// absorbs everything above `2^(BUCKETS-1)` (≈ 9 minutes in nanoseconds).
pub const BUCKETS: usize = 40;

/// Fast-path gate: `true` iff the registry is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// One-shot `PSBI_METRICS` environment read.
static ENV_INIT: Once = Once::new();
/// The registry and its flush destination (slow path only).
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

struct Hist {
    count: u64,
    sum: u64,
    buckets: [u64; BUCKETS],
}

struct Registry {
    out_path: Option<PathBuf>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
}

impl Registry {
    const fn new() -> Self {
        Self {
            out_path: None,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }
}

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // Every update completes under the lock (no multi-step invariants
    // spanning unlocks), so a poisoned registry is consistent — recover.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether the registry is armed.  This is the recording fast path: one
/// relaxed atomic load once the environment has been read.
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var("PSBI_METRICS") {
            if !path.trim().is_empty() {
                arm(Some(PathBuf::from(path.trim())));
            }
        }
    });
    ARMED.load(Ordering::Relaxed)
}

/// Arms the registry, clearing all previously recorded values.  With
/// `Some(path)`, [`flush`] writes the snapshot there; with `None` the
/// registry records for in-process readers ([`snapshot`],
/// [`counter_value`]) only.
pub fn arm(path: Option<PathBuf>) {
    let mut reg = registry();
    reg.clear();
    reg.out_path = path;
    drop(reg);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the registry and drops every recorded value (recording sites
/// return to the one-load fast path).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    let mut reg = registry();
    reg.out_path = None;
    reg.clear();
}

/// Adds `delta` to counter `name` (no-op while disarmed).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    *registry().counters.entry(name).or_insert(0) += delta;
}

/// Sets gauge `name` to `value` (no-op while disarmed).
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    registry().gauges.insert(name, value);
}

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (BUCKETS - 1).min(64 - value.leading_zeros() as usize)
    }
}

/// Records `value` into histogram `name` (no-op while disarmed).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    let hist = reg.hists.entry(name).or_insert(Hist {
        count: 0,
        sum: 0,
        buckets: [0; BUCKETS],
    });
    hist.count += 1;
    hist.sum = hist.sum.saturating_add(value);
    hist.buckets[bucket_of(value)] += 1;
}

/// Reads counter `name` (0 when absent or disarmed).  In-process consumer
/// API, e.g. for a test that counts the dispatcher's heartbeats.
pub fn counter_value(name: &str) -> u64 {
    registry().counters.get(name).copied().unwrap_or(0)
}

/// An RAII wall-clock timer: created armed, it records the elapsed
/// nanoseconds into histogram `name` on drop.  Created disarmed, it is a
/// complete no-op — the clock is never read.
#[must_use = "a timer measures nothing unless it is held for the region's duration"]
pub struct Timer {
    armed: Option<(&'static str, Instant)>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed {
            observe(
                name,
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
}

/// Starts a [`Timer`] for histogram `name`.
#[inline]
pub fn timer(name: &'static str) -> Timer {
    Timer {
        armed: enabled().then(|| (name, Instant::now())),
    }
}

/// One histogram in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds for the `*.ns`-semantic
    /// timers), saturating.
    pub sum: u64,
    /// Non-empty `(bucket_index, count)` pairs; bucket `i ≥ 1` covers
    /// `[2^(i-1), 2^i)`, bucket 0 covers exactly 0.
    pub buckets: Vec<(usize, u64)>,
}

/// A point-in-time copy of the registry, in deterministic (sorted-name)
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Looks up a counter value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The snapshot as a JSON object (counters and gauges as name→value
    /// maps, histograms as `{count, sum, buckets: [[index, count], ...]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.name, h.count, h.sum
            );
            for (j, (idx, c)) in h.buckets.iter().enumerate() {
                let comma = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{comma}[{idx}, {c}]");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// The snapshot in Prometheus text exposition format (names have `.`
    /// mapped to `_` and a `psbi_` prefix; histogram buckets are
    /// cumulative with power-of-two `le` bounds).
    pub fn to_prometheus(&self) -> String {
        let prom = |name: &str| format!("psbi_{}", name.replace('.', "_"));
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for h in &self.histograms {
            let n = prom(&h.name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (idx, c) in &h.buckets {
                cumulative += c;
                // Bucket `idx` covers values < 2^idx (idx 0 covers 0).
                let le = if *idx == 0 { 1 } else { 1u64 << idx };
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }
}

/// Copies the current registry contents (empty while disarmed).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    Snapshot {
        counters: reg
            .counters
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect(),
        histograms: reg
            .hists
            .iter()
            .map(|(n, h)| HistogramSnapshot {
                name: n.to_string(),
                count: h.count,
                sum: h.sum,
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| (i, *c))
                    .collect(),
            })
            .collect(),
    }
}

/// Writes the current snapshot to the armed path (JSON) and to
/// `<path>.prom` (Prometheus text), returning the JSON path — or
/// `Ok(None)` when the registry was armed without a path (or never).
/// The registry is retained, so later flushes rewrite a superset.
///
/// # Errors
///
/// Propagates the underlying file write error.
pub fn flush() -> std::io::Result<Option<PathBuf>> {
    let Some(path) = registry().out_path.clone() else {
        return Ok(None);
    };
    let snap = snapshot();
    std::fs::write(&path, snap.to_json())?;
    let mut prom_path = path.clone().into_os_string();
    prom_path.push(".prom");
    std::fs::write(&prom_path, snap.to_prometheus())?;
    Ok(Some(path))
}

/// Runs `f` with the registry armed (flushing to `path` when given),
/// disarming afterwards (also on panic — the disarm, not the flush),
/// serialised against every other observability test helper through the
/// crate-wide gate.  Test helper, analogous to [`crate::trace::with_trace`].
///
/// # Panics
///
/// Panics if the final flush fails.
pub fn with_metrics<R>(path: Option<&Path>, f: impl FnOnce() -> R) -> R {
    let _gate = crate::test_gate();
    struct DisarmOnDrop;
    impl Drop for DisarmOnDrop {
        fn drop(&mut self) {
            disarm();
        }
    }
    let _disarm = DisarmOnDrop;
    arm(path.map(Path::to_path_buf));
    let result = f();
    flush().expect("metrics flush failed");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        with_metrics(None, || {
            counter_add("test.counter", 2);
            counter_add("test.counter", 3);
            gauge_set("test.gauge", 7);
            gauge_set("test.gauge", 9);
            observe("test.hist", 0);
            observe("test.hist", 5);
            observe("test.hist", 1_000_000);
            let snap = snapshot();
            assert_eq!(snap.counter("test.counter"), Some(5));
            assert_eq!(counter_value("test.counter"), 5);
            assert_eq!(snap.gauge("test.gauge"), Some(9));
            let h = snap.histogram("test.hist").unwrap();
            assert_eq!(h.count, 3);
            assert_eq!(h.sum, 1_000_005);
            assert_eq!(h.buckets.len(), 3);
        });
    }

    #[test]
    fn disarmed_recording_is_dropped_and_timer_reads_no_clock() {
        // Outside the gate another test may be armed; only assert the
        // no-op shape of a disarmed-constructed timer.
        let t = Timer { armed: None };
        drop(t);
    }

    #[test]
    fn json_and_prometheus_exposition_render() {
        with_metrics(None, || {
            counter_add("exp.jobs", 4);
            gauge_set("exp.workers", 2);
            observe("exp.wall", 3);
            observe("exp.wall", 300);
            let snap = snapshot();
            let json = snap.to_json();
            assert!(json.contains("\"exp.jobs\": 4"));
            assert!(json.contains("\"exp.workers\": 2"));
            assert!(json.contains("\"count\": 2"));
            let prom = snap.to_prometheus();
            assert!(prom.contains("# TYPE psbi_exp_jobs counter"));
            assert!(prom.contains("psbi_exp_jobs 4"));
            assert!(prom.contains("# TYPE psbi_exp_wall histogram"));
            assert!(prom.contains("psbi_exp_wall_bucket{le=\"+Inf\"} 2"));
            assert!(prom.contains("psbi_exp_wall_sum 303"));
        });
    }

    #[test]
    fn flush_writes_json_and_prom_files() {
        let path =
            std::env::temp_dir().join(format!("psbi_obs_metrics_{}.json", std::process::id()));
        with_metrics(Some(&path), || {
            counter_add("file.counter", 1);
            drop(timer("file.timer"));
        });
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"file.counter\": 1"));
        assert!(json.contains("\"file.timer\""));
        let prom = std::fs::read_to_string(format!("{}.prom", path.display())).unwrap();
        assert!(prom.contains("psbi_file_counter 1"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{}.prom", path.display()));
    }

    #[test]
    fn rearming_clears_previous_values() {
        with_metrics(None, || {
            counter_add("stale.counter", 1);
        });
        with_metrics(None, || {
            counter_add("fresh.counter", 1);
            let snap = snapshot();
            assert_eq!(snap.counter("stale.counter"), None);
            assert_eq!(snap.counter("fresh.counter"), Some(1));
        });
    }
}
