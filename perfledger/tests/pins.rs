//! Deterministic-count pins of every workload at the default seed: each
//! run below must reproduce them exactly, at 1 and at 2 threads.  A change
//! that moves one of them changes the program's canonical results (or its
//! solver's work) and must update the pin deliberately.
//!
//! Slow in debug builds; run with
//! `cargo test --release --manifest-path perfledger/Cargo.toml`.

use perfledger::pins::{measure, Pins, WorkCounts};
use std::path::PathBuf;

const SEED: u64 = 42;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    dir
}

/// Measures `workload` twice at 1 thread and twice at 2 threads and
/// checks every measurement against `expected`.
fn check(workload: &str, expected: Pins) {
    // The campaign references arm the process-global metrics registry.
    let _gate = psbi_obs::test_lock();
    let dir = work_dir(workload);
    for threads in [1, 1, 2, 2] {
        let got = measure(workload, SEED, threads, &dir).expect("workload runs");
        if threads == 1 {
            assert_eq!(
                got.work, expected.work,
                "{workload}: work counts at 1 thread"
            );
        }
        assert_eq!(
            (got.buffers, got.yield_pct),
            (expected.buffers, expected.yield_pct),
            "{workload}: buffers and yield at {threads} thread(s)"
        );
    }
}

#[test]
fn tight_cell_pins() {
    check(
        "tight_cell",
        Pins {
            work: Some(WorkCounts {
                regions: 2194,
                fallback_regions: 2072,
                search_nodes: 366,
            }),
            buffers: 55,
            yield_pct: 95.65,
        },
    );
}

#[test]
fn suite_sweep_pins() {
    check(
        "suite_sweep",
        Pins {
            work: Some(WorkCounts {
                regions: 10290,
                fallback_regions: 7261,
                search_nodes: 103356,
            }),
            buffers: 260,
            yield_pct: 93.35833333333333,
        },
    );
}

#[test]
fn small_jobs_pins() {
    check(
        "small_jobs",
        Pins {
            work: Some(WorkCounts {
                regions: 12630,
                fallback_regions: 2884,
                search_nodes: 350910,
            }),
            buffers: 137,
            yield_pct: 91.53750000000001,
        },
    );
}
