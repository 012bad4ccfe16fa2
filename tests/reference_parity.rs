//! Reference-mode parity regression: the default flow — its cross-chip
//! memo carried across the A1→A3→B1→B2 passes and across adjacent targets
//! of a sweep, its support search pruned — must be **bit-invisible**
//! against the reference mode (`FlowConfig::reference`: memo detached,
//! unpruned branch and bound).  Every surface the flow produces is
//! compared at 1 and 8 workers:
//!
//! * full `InsertionResult`s (modulo wall times and the solver counters,
//!   which are non-canonical by contract),
//! * fleet journal bytes and canonical report bytes, against records
//!   built from reference-mode flows.
//!
//! The `PSBI_REFERENCE=1` environment form of the same contract is pinned
//! by the CI determinism job, which re-runs this file with the switch set
//! (it is read once per process, so this in-process test uses the config
//! field instead).

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod};
use psbi::fleet::{run_campaign, CampaignReport, CampaignSpec, FleetOptions, JobRecord};
use psbi::netlist::bench_suite;
use std::path::PathBuf;

/// Strips the non-canonical surfaces: wall times always differ between
/// runs, and the solver counters differ between modes by definition.
fn normalized(mut r: InsertionResult) -> InsertionResult {
    r.runtime = Default::default();
    r.diagnostics = Default::default();
    r
}

#[test]
fn full_flow_is_bit_identical_to_reference_mode() {
    let circuit = bench_suite::tiny_demo(42);
    let cfg = |threads: usize, reference: bool| FlowConfig {
        samples: 160,
        yield_samples: 300,
        calibration_samples: 300,
        seed: 2024,
        threads,
        target: TargetPeriod::SigmaFactor(0.0),
        record_histograms: 2,
        reference,
        ..FlowConfig::default()
    };
    // Default flows swept over adjacent targets (memo carried across
    // run_target calls) versus a reference flow, at both worker counts.
    let reference_flow = BufferInsertionFlow::builder(&circuit, cfg(1, true))
        .build()
        .unwrap();
    assert!(reference_flow.reference_enabled());
    let flows: Vec<(&str, BufferInsertionFlow)> = [("w1", 1), ("w8", 8)]
        .into_iter()
        .map(|(name, threads)| {
            let flow = BufferInsertionFlow::builder(&circuit, cfg(threads, false))
                .build()
                .unwrap();
            (name, flow)
        })
        .collect();
    let mut memo_hits = 0u64;
    for k in [0.0, 0.5, 1.0] {
        let target = TargetPeriod::SigmaFactor(k);
        let reference = reference_flow.run_target(target);
        assert_eq!(reference.diagnostics.total().cross_chip_hits, 0);
        let reference = normalized(reference);
        for (name, flow) in &flows {
            let r = flow.run_target(target);
            memo_hits += r.diagnostics.total().cross_chip_hits;
            assert_eq!(
                normalized(r),
                reference,
                "{name} diverged from the reference flow at k = {k}"
            );
        }
    }
    // Under `PSBI_REFERENCE=1` every flow is a reference flow, and zero
    // hits is the contract rather than a bug.
    if flows.iter().any(|(_, f)| !f.reference_enabled()) {
        assert!(memo_hits > 0, "the default sweeps never hit the memo");
    } else {
        assert_eq!(memo_hits, 0, "a detached memo must never be consulted");
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "psbi_reference_parity_{tag}_{}",
        std::process::id()
    ))
}

#[test]
fn fleet_journal_bytes_match_reference_mode() {
    let spec = CampaignSpec {
        samples: 100,
        yield_samples: 200,
        calibration_samples: 200,
        seed: 2024,
        // Adjacent sigma factors so the sweep actually replays memo
        // entries between targets of one circuit.
        sigma_factors: vec![0.0, 0.25, 0.5],
        ..CampaignSpec::example()
    };
    // The reference: every job run on a reference-mode flow of its own.
    let circuits: Vec<_> = spec
        .circuits
        .iter()
        .map(|c| c.materialize().unwrap())
        .collect();
    let reference_cfg = FlowConfig {
        reference: true,
        ..spec.flow_config()
    };
    let reference_records: Vec<JobRecord> = spec
        .jobs()
        .iter()
        .map(|job| {
            let r =
                BufferInsertionFlow::builder(&circuits[job.circuit_index], reference_cfg.clone())
                    .build()
                    .unwrap()
                    .run_target(TargetPeriod::SigmaFactor(job.sigma_factor));
            JobRecord::from_result(job, &r)
        })
        .collect();
    let reference_report = CampaignReport::from_records(&spec, reference_records.clone());
    let mut journals: Vec<(PathBuf, Vec<u8>)> = Vec::new();
    for workers in [1, 8] {
        let path = tmp(&format!("w{workers}"));
        let _ = std::fs::remove_file(&path);
        let outcome = run_campaign(
            &spec,
            &path,
            &FleetOptions {
                workers,
                ..FleetOptions::default()
            },
        )
        .expect("campaign runs");
        assert!(outcome.complete());
        assert_eq!(
            outcome.records, reference_records,
            "{workers} workers diverged from the reference records"
        );
        assert_eq!(
            CampaignReport::from_outcome(&spec, &outcome).canonical_json(),
            reference_report.canonical_json(),
            "{workers} workers: canonical report differs from the reference"
        );
        let bytes = std::fs::read(&path).expect("journal written");
        journals.push((path, bytes));
    }
    assert_eq!(
        journals[0].1, journals[1].1,
        "journal bytes differ between 1 and 8 workers"
    );
    for (path, _) in &journals {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn fleet_kill_and_resume_reproduces_bytes_with_cross_chip_memo() {
    // A mid-campaign kill + resume (which also exercises the early
    // per-circuit memo release of the checkpointed window) must
    // reproduce the uninterrupted journal and canonical report byte for
    // byte with the memo attached.
    let spec = CampaignSpec {
        samples: 80,
        yield_samples: 160,
        calibration_samples: 160,
        seed: 77,
        sigma_factors: vec![0.0, 0.25],
        ..CampaignSpec::example()
    };
    let full = tmp("resume_full");
    let split = tmp("resume_split");
    for p in [&full, &split] {
        let _ = std::fs::remove_file(p);
    }
    let uninterrupted = run_campaign(&spec, &full, &FleetOptions::default()).unwrap();
    assert!(uninterrupted.complete());
    let first = run_campaign(
        &spec,
        &split,
        &FleetOptions {
            max_jobs: Some(1),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    assert!(!first.complete());
    let second = run_campaign(&spec, &split, &FleetOptions::default()).unwrap();
    assert!(second.complete());
    assert_eq!(second.records, uninterrupted.records);
    assert_eq!(
        std::fs::read(&full).unwrap(),
        std::fs::read(&split).unwrap(),
        "kill + resume must reproduce the uninterrupted journal bytes"
    );
    assert_eq!(
        CampaignReport::from_outcome(&spec, &second).canonical_json(),
        CampaignReport::from_outcome(&spec, &uninterrupted).canonical_json()
    );
    for p in [&full, &split] {
        let _ = std::fs::remove_file(p);
    }
}
