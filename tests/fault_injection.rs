//! Fault-injection matrix: crash-safety and verifier detection under
//! deterministic injected faults (`psbi_fault`).
//!
//! Fault specs are **process-global**, so every test here — including the
//! fault-free reference runs — wraps its body in `psbi_fault::with_spec`,
//! which serialises the tests through a global gate and clears the spec
//! on exit (even on panic).  That is also why these tests live in their
//! own integration binary: unit tests of other crates must never observe
//! an installed spec.
//!
//! The invariant under test is always the same one the determinism suite
//! pins for the healthy path: **the completed journal's bytes are a pure
//! function of the spec** — identical whether a worker panicked and
//! retried, the journal tore mid-write and was repaired on resume, or
//! nothing went wrong at all.

use psbi::core::flow::{BufferInsertionFlow, FlowConfig};
use psbi::fleet::{run_campaign, CampaignSpec, FleetError, FleetOptions, Journal};
use psbi::netlist::bench_suite;
use std::path::PathBuf;

fn quick_spec() -> CampaignSpec {
    CampaignSpec {
        samples: 60,
        yield_samples: 120,
        calibration_samples: 120,
        ..CampaignSpec::example()
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psbi_fault_matrix_{tag}_{}", std::process::id()))
}

fn opts(workers: usize) -> FleetOptions {
    FleetOptions {
        workers,
        ..FleetOptions::default()
    }
}

/// Runs the fault-free reference campaign (under an *empty* spec so a
/// concurrently queued fault test can never leak into it) and returns
/// its journal bytes.
fn reference_bytes(spec: &CampaignSpec, tag: &str) -> Vec<u8> {
    let path = tmp(tag);
    let _ = std::fs::remove_file(&path);
    let outcome = psbi::fault::with_spec("", || {
        run_campaign(spec, &path, &opts(2)).expect("fault-free campaign")
    });
    assert!(outcome.complete());
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn worker_panic_is_retried_and_byte_identical() {
    let spec = quick_spec();
    let reference = reference_bytes(&spec, "panic_ref");

    // Job 1 panics on its first attempt only; the deterministic retry
    // recomputes it and the journal must not know the difference.
    let path = tmp("panic");
    let _ = std::fs::remove_file(&path);
    let outcome = psbi::fault::with_spec("fleet.job.panic@job=1,times=1", || {
        run_campaign(&spec, &path, &opts(2)).expect("campaign with transient panic")
    });
    assert!(outcome.complete());
    assert!(outcome.records.iter().all(|r| !r.quarantined));
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn persistent_panic_quarantines_identically_for_any_worker_count() {
    let spec = quick_spec();

    // Job 2 panics on EVERY attempt: the retry budget (default 2, so 3
    // attempts) is exhausted and the job is quarantined.  The journal —
    // quarantined record included — must still be byte-identical between
    // 1 and 4 workers.
    let run = |workers: usize, tag: &str| -> Vec<u8> {
        let path = tmp(tag);
        let _ = std::fs::remove_file(&path);
        let outcome = psbi::fault::with_spec("fleet.job.panic@job=2", || {
            run_campaign(&spec, &path, &opts(workers)).expect("campaign with quarantine")
        });
        assert!(outcome.complete());
        let quarantined: Vec<_> = outcome.records.iter().filter(|r| r.quarantined).collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].job, 2);
        assert_eq!(quarantined[0].fault, "injected fault: fleet.job.panic");
        assert_eq!(quarantined[0].nb, 0);
        let bytes = std::fs::read(&path).unwrap();
        // The quarantined journal replays cleanly (checksums intact).
        let replayed = Journal::replay(&path, &spec).unwrap();
        assert_eq!(replayed, outcome.records);
        let _ = std::fs::remove_file(&path);
        bytes
    };
    assert_eq!(run(1, "quarantine_w1"), run(4, "quarantine_w4"));
}

#[test]
fn torn_journal_write_is_repaired_on_resume() {
    let spec = quick_spec();
    let reference = reference_bytes(&spec, "torn_ref");

    // The append of record 1 tears half-way (as a kill mid-write would)
    // and the invocation dies with an IO error.  `times=1` pins the fault
    // to the first attempt so the resumed run can rewrite the record.
    let path = tmp("torn");
    let _ = std::fs::remove_file(&path);
    let err = psbi::fault::with_spec("journal.write.torn@record=1,times=1", || {
        run_campaign(&spec, &path, &opts(1)).expect_err("torn write must abort the invocation")
    });
    assert!(matches!(err, FleetError::Io(_)), "got {err}");
    let torn = std::fs::read(&path).unwrap();
    assert!(
        torn.len() < reference.len(),
        "the torn journal must stop short of the full run"
    );

    // Resume: the half line is classified as a torn tail (nothing valid
    // follows it), truncated, and the campaign completes bit-exactly.
    let outcome = psbi::fault::with_spec("", || {
        run_campaign(&spec, &path, &opts(4)).expect("resumed campaign")
    });
    assert!(outcome.complete());
    assert_eq!(outcome.resumed_jobs, 1, "only record 0 survives the tear");
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn workspace_checkout_panic_is_retried() {
    let spec = quick_spec();
    let reference = reference_bytes(&spec, "pool_ref");

    // The first workspace checkout panics (after the pool lock is
    // released — the pool just leaks one workspace).  The per-job retry
    // absorbs it.
    let path = tmp("pool");
    let _ = std::fs::remove_file(&path);
    let outcome = psbi::fault::with_spec("pool.checkout.panic@times=1", || {
        run_campaign(&spec, &path, &opts(1)).expect("campaign with checkout panic")
    });
    assert!(outcome.complete());
    assert!(outcome.records.iter().all(|r| !r.quarantined));
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sample_batch_corruption_is_retried_and_byte_identical() {
    let spec = quick_spec();
    let reference = reference_bytes(&spec, "sample_ref");

    // Detected corruption of one sampling batch (modelled as a panic in
    // the fill kernel) unwinds the whole job; the per-job retry recomputes
    // every batch from the deterministic stream, so the journal must not
    // know the difference.
    let path = tmp("sample");
    let _ = std::fs::remove_file(&path);
    let outcome = psbi::fault::with_spec("sample.batch.corrupt@times=1", || {
        run_campaign(&spec, &path, &opts(2)).expect("campaign with corrupt batch")
    });
    assert!(outcome.complete());
    assert!(outcome.records.iter().all(|r| !r.quarantined));
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn constraint_extraction_panic_is_retried_and_byte_identical() {
    let spec = quick_spec();
    let reference = reference_bytes(&spec, "extract_ref");

    // Same contract one layer up: a panic inside the fused draw and
    // constraint extraction (`ConstraintBatch::draw_from`) is absorbed by
    // the job retry and leaves no trace in the canonical bytes.
    let path = tmp("extract");
    let _ = std::fs::remove_file(&path);
    let outcome = psbi::fault::with_spec("timing.extract.panic@times=1", || {
        run_campaign(&spec, &path, &opts(2)).expect("campaign with extraction panic")
    });
    assert!(outcome.complete());
    assert!(outcome.records.iter().all(|r| !r.quarantined));
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn commit_crash_poisons_nothing_that_resume_needs() {
    let spec = quick_spec();
    let reference = reference_bytes(&spec, "commit_ref");

    // A panic *inside* the commit section (after the lock is taken,
    // before the write) kills the worker thread and poisons the commit
    // mutex.  The invocation reports a worker crash; the journal keeps
    // its valid prefix; resume completes bit-exactly.
    let path = tmp("commit");
    let _ = std::fs::remove_file(&path);
    let err = psbi::fault::with_spec("fleet.commit.before_write@job=1,times=1", || {
        run_campaign(&spec, &path, &opts(1)).expect_err("commit crash must abort")
    });
    assert!(matches!(err, FleetError::Worker(_)), "got {err}");

    let outcome = psbi::fault::with_spec("", || {
        run_campaign(&spec, &path, &opts(2)).expect("resumed campaign")
    });
    assert!(outcome.complete());
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn memo_corruption_is_detected_by_the_verifier() {
    // Corrupt every cross-chip memo replay: hits return a fabricated
    // "feasible with zero buffers" outcome.  The independent verifier
    // re-checks each claimed-feasible chip against the raw constraint
    // system (no memo, no warm state) and must catch the lie.
    //
    // Memo hits come from cross-pass and cross-target sharing (the memo
    // is flow-wide, warmed by earlier passes and sweep targets), so both
    // legs sweep several targets on one flow — exactly how a fleet job
    // group uses it.
    use psbi::core::flow::TargetPeriod;
    let circuit = bench_suite::tiny_demo(2);
    let cfg = FlowConfig {
        samples: 60,
        yield_samples: 120,
        calibration_samples: 120,
        seed: 42,
        verify: true,
        ..FlowConfig::default()
    };
    let targets = [0.0, 2.0];

    let (clean, corrupt) = psbi::fault::with_spec("memo.replay.corrupt", || {
        let corrupt_flow = BufferInsertionFlow::builder(&circuit, cfg.clone())
            .build()
            .expect("flow");
        let corrupt: Vec<_> = targets
            .iter()
            .map(|&k| corrupt_flow.run_target(TargetPeriod::SigmaFactor(k)))
            .collect();
        psbi::fault::clear();
        let clean_flow = BufferInsertionFlow::builder(&circuit, cfg.clone())
            .build()
            .expect("flow");
        let clean: Vec<_> = targets
            .iter()
            .map(|&k| clean_flow.run_target(TargetPeriod::SigmaFactor(k)))
            .collect();
        (clean, corrupt)
    });

    let mut clean_hits = 0;
    for (i, r) in clean.iter().enumerate() {
        let report = r.diagnostics.verify.as_ref().expect("verify report");
        assert!(report.passed, "clean target {i} must verify: {report}");
        clean_hits += r.diagnostics.total().cross_chip_hits;
    }
    assert!(
        clean_hits > 0,
        "sweep never exercised the memo — the corruption site was dead"
    );

    assert!(
        corrupt.iter().any(|r| {
            let report = r.diagnostics.verify.as_ref().expect("verify report");
            !report.passed && report.mismatches > 0
        }),
        "verifier failed to detect injected memo corruption"
    );
}

#[test]
fn campaign_verify_failure_surfaces_as_exit_class_verify() {
    // Fleet-level wiring of the same detection: a campaign run with
    // --verify under memo corruption completes (records journaled) and
    // then fails with the Verify error class (exit code 9 in the CLI).
    let spec = quick_spec();
    let path = tmp("verify_err");
    let _ = std::fs::remove_file(&path);
    let err = psbi::fault::with_spec("memo.replay.corrupt", || {
        run_campaign(
            &spec,
            &path,
            &FleetOptions {
                workers: 2,
                verify: true,
                ..FleetOptions::default()
            },
        )
        .expect_err("corrupted memo must fail verification")
    });
    assert!(matches!(err, FleetError::Verify(_)), "got {err}");
    assert_eq!(err.code(), 9);
    // Every record was journaled before the error surfaced.
    let replayed = psbi::fault::with_spec("", || Journal::replay(&path, &spec).unwrap());
    assert_eq!(replayed.len(), spec.jobs().len());
    let _ = std::fs::remove_file(&path);
}
