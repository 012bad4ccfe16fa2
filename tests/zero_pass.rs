//! Zero-pass table regression.  A flow remembers, per chip, the smallest
//! period at which the chip met timing untuned, and later passes and
//! looser targets settle such chips without a draw.  What the table holds
//! depends on which targets ran first, so these tests pin that results
//! never do: every default flow — swept in any order, or driven by two
//! threads at once — must equal fresh reference-mode flows, which ignore
//! the table and draw every chip.
//!
//! Every test takes the obs test lock: the settle counter test arms the
//! process-global metrics registry, and the others must not add to it.

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod};
use psbi::netlist::bench_suite;
use psbi::netlist::Circuit;
use psbi::obs;
use std::sync::Barrier;

/// Strips the non-canonical surfaces: wall times, and the solver
/// counters, which differ between modes and with the table's history.
fn normalized(mut r: InsertionResult) -> InsertionResult {
    r.runtime = Default::default();
    r.diagnostics = Default::default();
    r
}

fn quick_cfg(threads: usize) -> FlowConfig {
    FlowConfig {
        samples: 120,
        yield_samples: 240,
        calibration_samples: 240,
        seed: 2024,
        threads,
        ..FlowConfig::default()
    }
}

const SIGMAS: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 2.0];

/// One fresh reference-mode flow per target of [`SIGMAS`].
fn reference_results(circuit: &Circuit, cfg: &FlowConfig) -> Vec<InsertionResult> {
    let cfg = FlowConfig {
        reference: true,
        ..cfg.clone()
    };
    SIGMAS
        .iter()
        .map(|&k| {
            let flow = BufferInsertionFlow::builder(circuit, cfg.clone())
                .build()
                .unwrap();
            assert!(flow.reference_enabled());
            normalized(flow.run_target(TargetPeriod::SigmaFactor(k)))
        })
        .collect()
}

/// Sweeps one default flow per order (indices into [`SIGMAS`]) and
/// compares every target against the reference results.
fn check_orders(circuit: &Circuit, cfg: &FlowConfig, reference: &[InsertionResult]) {
    let orders: [&[usize]; 3] = [&[0, 1, 2, 3, 4], &[4, 3, 2, 1, 0], &[2, 0, 4, 1, 3]];
    for order in orders {
        let flow = BufferInsertionFlow::builder(circuit, cfg.clone())
            .build()
            .unwrap();
        for &i in order {
            let r = flow.run_target(TargetPeriod::SigmaFactor(SIGMAS[i]));
            assert_eq!(
                normalized(r),
                reference[i],
                "order {order:?} diverged at k = {}",
                SIGMAS[i]
            );
        }
    }
}

#[test]
fn sweep_order_never_changes_results() {
    let _gate = obs::test_lock();
    let circuit = bench_suite::tiny_demo(31);
    let cfg = quick_cfg(2);
    let reference = reference_results(&circuit, &cfg);
    check_orders(&circuit, &cfg, &reference);
}

#[test]
fn concurrent_targets_on_one_flow_match_reference_flows() {
    let _gate = obs::test_lock();
    let circuit = bench_suite::tiny_demo(32);
    let cfg = quick_cfg(2);
    let reference = reference_results(&circuit, &cfg);
    let flow = BufferInsertionFlow::builder(&circuit, cfg).build().unwrap();
    // Two threads share one flow's table, each sweeping its own order;
    // the barrier starts every pair of targets together, so the two
    // calls read and write the table at the same time.
    let orders: [&[usize]; 2] = [&[0, 2, 4, 1, 3], &[4, 1, 3, 0, 2]];
    let barrier = Barrier::new(orders.len());
    let results: Vec<Vec<(usize, InsertionResult)>> = std::thread::scope(|s| {
        let threads: Vec<_> = orders
            .iter()
            .map(|order| {
                let (flow, barrier) = (&flow, &barrier);
                s.spawn(move || {
                    let mut results = Vec::new();
                    for &i in *order {
                        barrier.wait();
                        results.push((i, flow.run_target(TargetPeriod::SigmaFactor(SIGMAS[i]))));
                    }
                    results
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("sweep thread panicked"))
            .collect()
    });
    for (i, r) in results.into_iter().flatten() {
        assert_eq!(normalized(r), reference[i], "k = {}", SIGMAS[i]);
    }
}

#[test]
fn windows_without_zero_keep_the_yield_pass_exact() {
    // Without zero forced into the final windows, a deployed window may
    // exclude 0: a chip that passes untuned can then fail with buffers
    // ("broken"), so the yield pass must draw it.  (The circuit is one
    // whose reference runs never hit the search's node cap, where the
    // pruned and unpruned searches may return different tied supports.)
    let _gate = obs::test_lock();
    let circuit = bench_suite::tiny_demo(41);
    let cfg = FlowConfig {
        force_zero_in_range: false,
        yield_samples: 1000,
        ..quick_cfg(2)
    };
    let reference = reference_results(&circuit, &cfg);
    assert!(
        reference[1..].iter().any(|r| r.broken > 0),
        "no chip above the lowest target is broken: the case is not exercised"
    );
    check_orders(&circuit, &cfg, &reference);
}

#[test]
fn gate_level_sampling_settles_exactly() {
    let _gate = obs::test_lock();
    let circuit = bench_suite::tiny_demo(34);
    let cfg = FlowConfig {
        gate_level_sampling: true,
        ..quick_cfg(2)
    };
    let reference = reference_results(&circuit, &cfg);
    check_orders(&circuit, &cfg, &reference);
}

#[test]
fn reference_mode_settles_nothing_and_a_sweep_settles_chips() {
    let _gate = obs::test_lock();
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            obs::metrics::disarm();
        }
    }
    let _disarm = Disarm;
    let circuit = bench_suite::tiny_demo(35);
    let settled = |reference: bool| {
        obs::metrics::arm(None); // arming clears the registry
        let flow = BufferInsertionFlow::builder(
            &circuit,
            FlowConfig {
                reference,
                ..quick_cfg(1)
            },
        )
        .build()
        .unwrap();
        for k in SIGMAS {
            flow.run_target(TargetPeriod::SigmaFactor(k));
        }
        let snap = obs::metrics::snapshot();
        obs::metrics::disarm();
        (
            flow.reference_enabled(),
            snap.counter("flow.chips.settled").unwrap_or(0),
        )
    };
    assert_eq!(settled(true), (true, 0), "reference mode settled chips");
    // Under `PSBI_REFERENCE=1` every flow is a reference flow.
    let (reference, count) = settled(false);
    if !reference {
        assert!(count > 0, "a 1-thread ascending sweep settled no chip");
    }
}
