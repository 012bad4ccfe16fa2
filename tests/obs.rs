//! Observability contract tests (`crates/obs`).
//!
//! Three invariants are pinned here:
//!
//! 1. **Byte neutrality** — a campaign's journal and canonical report are
//!    byte-identical with span tracing + metrics armed or disarmed, at 1
//!    and 8 workers.  Observability writes only to its own sinks.
//! 2. **Trace well-formedness** — the flushed Chrome trace-event file is
//!    valid JSON, every thread's B/E events nest (the stream is a
//!    balanced bracket sequence with non-decreasing timestamps), and the
//!    required span names from every instrumented layer (sampler, flow
//!    passes, solver stages, fleet job lifecycle) are present.
//! 3. **Metric determinism** — the deterministic counter/gauge subset is
//!    identical for any worker count (schedule-dependent counters like
//!    `solve.memo.*` and the draw counters are deliberately excluded;
//!    draws plus zero-pass settles are pinned instead).
//!
//! It also checks that `solve.search.node_cap_hits` counts region
//! searches under a one-node `bb_node_cap` and stays 0 at the default cap,
//! that the cascade round counters register on a flow that reaches the
//! cascade bound, and that the draw counters `sample.draws` and
//! `sample.probits` show the AVX2 draw skipping probits that the scalar
//! reference runs.
//!
//! Arming is process-global, so every test serialises through
//! [`psbi::obs::test_lock`] and arms/disarms manually (the `with_*`
//! helpers take the same lock and would deadlock under it).

use psbi::core::flow::{BufferInsertionFlow, FlowConfig};
use psbi::core::solve::SolverOptions;
use psbi::fleet::{run_campaign, CampaignReport, CampaignSpec, FleetOptions};
use psbi::obs;
use std::collections::BTreeMap;
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
    std::env::temp_dir().join(format!("psbi_obs_test_{tag}_{}", std::process::id()))
}

/// Disarms both obs subsystems on drop, so a failing assertion cannot
/// leave the process armed for the next (gated) test.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        obs::trace::disarm();
        obs::metrics::disarm();
    }
}

/// Runs the quick campaign and returns its canonical byte surface:
/// `(journal bytes, canonical report JSON)`.
fn campaign_bytes(tag: &str, workers: usize, trace: Option<PathBuf>) -> (Vec<u8>, String) {
    let spec = quick_spec();
    let journal = tmp(tag);
    let _ = std::fs::remove_file(&journal);
    let outcome = run_campaign(
        &spec,
        &journal,
        &FleetOptions {
            workers,
            trace,
            ..FleetOptions::default()
        },
    )
    .expect("campaign");
    assert!(outcome.complete());
    let report = CampaignReport::from_outcome(&spec, &outcome).json(false);
    let bytes = std::fs::read(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    (bytes, report)
}

#[test]
fn canonical_bytes_identical_with_obs_armed_or_disarmed() {
    let _gate = obs::test_lock();
    let _disarm = DisarmOnDrop;
    obs::trace::disarm();
    obs::metrics::disarm();
    let reference = campaign_bytes("neutral_ref", 1, None);

    for workers in [1usize, 8] {
        let trace_path = tmp(&format!("neutral_trace_w{workers}"));
        obs::metrics::arm(None);
        let armed = campaign_bytes(
            &format!("neutral_w{workers}"),
            workers,
            Some(trace_path.clone()),
        );
        obs::trace::disarm();
        obs::metrics::disarm();
        assert_eq!(
            armed.0, reference.0,
            "journal bytes changed with obs armed at {workers} workers"
        );
        assert_eq!(
            armed.1, reference.1,
            "canonical report changed with obs armed at {workers} workers"
        );
        let _ = std::fs::remove_file(&trace_path);
    }
}

#[test]
fn trace_is_valid_json_with_nested_spans_and_covers_every_layer() {
    let _gate = obs::test_lock();
    let _disarm = DisarmOnDrop;
    let trace_path = tmp("wellformed_trace");
    let _ = std::fs::remove_file(&trace_path);
    let _ = campaign_bytes("wellformed", 2, Some(trace_path.clone()));
    obs::trace::disarm();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    // A JSON array (the fleet crate's strict parser doubles as the
    // validity oracle — no external JSON dependency).
    let parsed = psbi::fleet::json::Json::parse(&text).expect("trace is valid JSON");
    assert!(
        matches!(parsed, psbi::fleet::json::Json::Arr(_)),
        "trace root must be an array"
    );

    // Per-thread balanced nesting with monotone timestamps.  Flush writes
    // one event object per line, so line-level field extraction is exact.
    let field = |line: &str, key: &str| -> Option<String> {
        let idx = line.find(&format!("\"{key}\":"))?;
        let rest = &line[idx + key.len() + 3..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
        Some(rest[..end].to_string())
    };
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut events = 0usize;
    for line in text.lines().filter(|l| l.contains("\"ph\":")) {
        events += 1;
        let name = field(line, "name").expect("event has a name");
        let ph = field(line, "ph").expect("event has a phase");
        let tid: u64 = field(line, "tid").unwrap().parse().unwrap();
        let ts: f64 = field(line, "ts").unwrap().parse().unwrap();
        let prev = last_ts.insert(tid, ts).unwrap_or(0.0);
        assert!(
            ts >= prev,
            "timestamps must be non-decreasing per thread (tid {tid}: {prev} -> {ts})"
        );
        let stack = stacks.entry(tid).or_default();
        match ph.as_str() {
            "B" => {
                stack.push(name.clone());
                names.push(name);
            }
            "E" => {
                let open = stack
                    .pop()
                    .unwrap_or_else(|| panic!("tid {tid}: E event `{name}` with no open span"));
                assert_eq!(open, name, "tid {tid}: spans must close LIFO");
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }
    assert!(events > 0, "traced campaign produced no events");
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid}: unclosed spans {stack:?}");
    }

    // Every instrumented layer shows up: sampler, flow passes, solver
    // stages, fleet job lifecycle.  (flow.pass.b1 is legitimately absent
    // when the refit-skip heuristic fires, so it is not required.)
    for required in [
        "fleet.campaign",
        "fleet.job",
        "fleet.job.attempt",
        "fleet.commit",
        "fleet.journal.write",
        "flow.target",
        "flow.calibrate",
        "flow.chunk",
        "flow.pass.a1",
        "flow.pass.a3",
        "flow.pass.b2",
        "flow.group",
        "flow.yield",
        "sample.batch.fill",
        "timing.extract",
        "solve.stage.discovery",
        "solve.stage.screen",
        "solve.stage.materialize",
        "solve.stage.search",
        "solve.stage.milp",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "trace is missing required span `{required}`"
        );
    }
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn deterministic_counters_and_gauges_are_worker_count_invariant() {
    let _gate = obs::test_lock();
    let _disarm = DisarmOnDrop;
    let snapshot_for = |workers: usize| {
        obs::metrics::arm(None); // arming clears the registry
        let _ = campaign_bytes(&format!("counters_w{workers}"), workers, None);
        let snap = obs::metrics::snapshot();
        obs::metrics::disarm();
        snap
    };
    let one = snapshot_for(1);
    let eight = snapshot_for(8);

    // Deterministic subset: pure functions of (spec, grid), independent
    // of which worker ran what.  `solve.memo.*` and
    // `pool.workspace.created` are schedule-dependent and excluded, and
    // so are the draw counters `sample.batches`, `sample.chips` and
    // `timing.extract.batches`: a flow's zero-pass table settles chips a
    // finished target of the circuit already saw pass untuned, so what is
    // drawn depends on which targets finished first.
    for counter in [
        "flow.chunks",
        "flow.targets",
        "pool.checkouts",
        "fleet.job.attempts",
        "fleet.jobs.executed",
        "fleet.jobs.committed",
        "fleet.journal.writes",
        "solve.milp.lp_nodes",
        "solve.milp.lp_pivots",
    ] {
        let a = one.counter(counter);
        let b = eight.counter(counter);
        assert_eq!(a, b, "counter `{counter}` varies with worker count");
        assert!(
            a.unwrap_or(0) > 0,
            "counter `{counter}` never incremented — dead instrumentation"
        );
    }
    for counter in ["sample.batches", "sample.chips", "timing.extract.batches"] {
        assert!(
            one.counter(counter).unwrap_or(0) > 0,
            "counter `{counter}` never incremented — dead instrumentation"
        );
    }
    // Every chip of every pass is either drawn or settled, so their sum
    // stays a pure function of (spec, grid).
    let drawn_or_settled = |snap: &obs::metrics::Snapshot| {
        snap.counter("sample.chips").unwrap_or(0) + snap.counter("flow.chips.settled").unwrap_or(0)
    };
    assert_eq!(
        drawn_or_settled(&one),
        drawn_or_settled(&eight),
        "drawn + settled chips vary with worker count"
    );
    // Reference mode (`PSBI_REFERENCE=1`) draws every chip.
    if !FlowConfig::from_env().reference {
        assert!(
            one.counter("flow.chips.settled").unwrap_or(0) > 0,
            "a 1-worker campaign settled no chip from the zero-pass table"
        );
    }
    assert_eq!(
        one.gauge("simd.backend"),
        eight.gauge("simd.backend"),
        "backend gauge varies with worker count"
    );
    let total_jobs = quick_spec().jobs().len() as u64;
    assert_eq!(one.gauge("fleet.jobs.total"), Some(total_jobs));
    assert_eq!(one.counter("fleet.jobs.executed"), Some(total_jobs));
    // No faults were injected, so nothing was retried or quarantined.
    assert_eq!(one.counter("fleet.jobs.retried"), None);
    assert_eq!(one.counter("fleet.jobs.quarantined"), None);
}

#[test]
fn node_cap_hits_count_the_searches_stopped_at_the_cap() {
    let _gate = obs::test_lock();
    let _disarm = DisarmOnDrop;
    let circuit = psbi::netlist::bench_suite::tiny_demo(1);
    let counters = |bb_node_cap: usize| {
        let mut cfg = FlowConfig {
            samples: 120,
            yield_samples: 120,
            calibration_samples: 120,
            ..FlowConfig::default()
        };
        cfg.solver.bb_node_cap = bb_node_cap;
        let flow = BufferInsertionFlow::builder(&circuit, cfg)
            .build()
            .expect("valid circuit");
        obs::metrics::arm(None); // arming clears the registry
        flow.run();
        let snap = obs::metrics::snapshot();
        obs::metrics::disarm();
        let read = |name: &str| snap.counter(name).expect("counter registered");
        (
            read("solve.search.node_cap_hits"),
            read("solve.search.nodes"),
        )
    };
    let (hits, nodes) = counters(1);
    assert!(hits > 0, "a one-node cap stopped no search ({nodes} nodes)");
    let (hits, nodes) = counters(SolverOptions::default().bb_node_cap);
    assert!(nodes > 0, "no region was searched");
    assert_eq!(hits, 0, "the default cap stopped a search on tiny_demo");
}

#[test]
fn cascade_round_counters_register_and_the_table_answers_rounds() {
    let _gate = obs::test_lock();
    let _disarm = DisarmOnDrop;
    let circuit = psbi::netlist::bench_suite::tiny_demo(1);
    let cfg = FlowConfig {
        samples: 120,
        yield_samples: 120,
        calibration_samples: 120,
        ..FlowConfig::default()
    };
    let flow = BufferInsertionFlow::builder(&circuit, cfg)
        .build()
        .expect("valid circuit");
    obs::metrics::arm(None); // arming clears the registry
    flow.run();
    let snap = obs::metrics::snapshot();
    obs::metrics::disarm();
    let read = |name: &str| snap.counter(name).expect("counter registered");
    let (rounds, solves) = (
        read("solve.search.cascade.rounds"),
        read("solve.search.cascade.solves"),
    );
    assert!(solves > 0, "no cascade round ran the solver");
    assert!(
        rounds >= solves,
        "{solves} solves for {rounds} rounds: the solver ran more than asked"
    );
}

#[test]
fn probit_counters_show_the_draws_that_skip_forms() {
    let _gate = obs::test_lock();
    let _disarm = DisarmOnDrop;
    let circuit = psbi::netlist::bench_suite::tiny_demo(1);
    let cfg = FlowConfig {
        samples: 120,
        yield_samples: 240,
        calibration_samples: 120,
        ..FlowConfig::default()
    };
    let flow = BufferInsertionFlow::builder(&circuit, cfg)
        .build()
        .expect("valid circuit");
    obs::metrics::arm(None); // arming clears the registry
    flow.run();
    let snap = obs::metrics::snapshot();
    obs::metrics::disarm();
    let read = |name: &str| snap.counter(name).expect("counter registered");
    let (draws, probits) = (read("sample.draws"), read("sample.probits"));
    assert!(draws > 0, "no local draw was counted");
    // The AVX2 draw against caps skips forms that feed only saturated
    // bounds; the scalar reference draws every form, and reference mode
    // draws exact rows.
    let skips =
        psbi::timing::simd::active() == psbi::timing::Backend::Avx2 && !flow.reference_enabled();
    if skips {
        assert!(probits < draws, "{probits} probits for {draws} draws");
    } else {
        assert_eq!(probits, draws, "a draw that saw every form skipped some");
    }
}
