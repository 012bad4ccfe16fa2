//! Independent re-verification of a finished [`InsertionResult`].
//!
//! The flow's fast paths (the cross-chip [`crate::solve::RegionMemo`],
//! the zero-pass table, saturation elision in the solver's regions and in
//! the per-chip [`crate::yield_eval::ChipCheck`], search pruning) are
//! proven correct by parity tests against the reference mode, but a
//! long-running campaign wants a *runtime* check: an answer that can be
//! re-derived from the raw inputs, with none of the fast paths in the
//! loop.  This module is that check.
//!
//! `verify_insertion` re-draws every sampled chip of the insertion and
//! yield streams through the scalar single-chip path (the flow's
//! `fill_sample`, which draws canonical chips with the sampler's scalar
//! reference kernel on every backend — a kernel the flow's passes run
//! only under `PSBI_FORCE_SCALAR=1`, and which the AVX2 chip lanes match
//! bit for bit by pinned test),
//! rebuilds its un-elided integer constraint system from scratch (every
//! raw arc, [`Deployment::build_arcs`]), and re-validates:
//!
//! * **structural consistency** — `nb`, the deployment tables, group
//!   windows, the `ab` average;
//! * **insertion claims** — each chip's A1 (floating) and B2 (windowed)
//!   feasibility verdict, re-decided by a cold difference-constraint
//!   solve; claimed-feasible B2 chips are checked *constructively*: the
//!   recorded tuning assignment must satisfy every raw setup/hold edge
//!   and sit inside the assigned windows;
//! * **yield figures** — the reported yields, `rescued` and `broken` are
//!   recomputed from cold per-chip solves with identical arithmetic and
//!   compared exactly.
//!
//! The verifier writes only the [`VerifyReport`] in
//! [`crate::flow::FlowDiagnostics::verify`] — canonical outputs are
//! byte-identical with it on or off (the `PSBI_VERIFY=1` CI legs pin
//! this).

use crate::flow::{BufferInsertionFlow, InsertionResult, Workspace, NONE};
use crate::solve::BufferSpace;
use crate::yield_eval::{Deployment, YieldReport};
use psbi_timing::feasibility::{Arc as TimingArc, DiffSolver};
use psbi_timing::sample::{GateLevelSampler, SampleTiming};
use psbi_timing::IntegerConstraints;
use psbi_variation::seeding::stream_seed;
use serde::{Deserialize, Serialize};

/// At most this many failure descriptions are kept (the counters still
/// cover everything).
const MAX_FAILURES: usize = 12;

/// Outcome of one verifier run (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VerifyReport {
    /// All checks passed.
    pub passed: bool,
    /// Individual checks evaluated.
    pub checks: u64,
    /// Checks that failed.
    pub mismatches: u64,
    /// Insertion-stream chips re-validated.
    pub insertion_chips: u64,
    /// Yield-stream chips re-validated.
    pub yield_chips: u64,
    /// First few failure descriptions (capped at 12).
    pub failures: Vec<String>,
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.passed {
            write!(
                f,
                "verify OK: {} checks over {} insertion + {} yield chips",
                self.checks, self.insertion_chips, self.yield_chips
            )
        } else {
            write!(
                f,
                "verify FAILED: {}/{} checks failed",
                self.mismatches, self.checks
            )?;
            for failure in &self.failures {
                write!(f, "\n  - {failure}")?;
            }
            Ok(())
        }
    }
}

/// What the flow's passes claimed, handed to the verifier by
/// `run_target` (borrowed straight from the pass outputs).
pub(crate) struct PassClaims<'a> {
    /// The A1 buffer space: every FF buffered, floating bounds.
    pub(crate) space_floating: &'a BufferSpace,
    /// The B-pass buffer space: pruned buffers, assigned windows.
    pub(crate) space_b: &'a BufferSpace,
    /// Per-chip A1 feasibility verdicts.
    pub(crate) a1_feasible: &'a [bool],
    /// Per-chip B2 feasibility verdicts.
    pub(crate) b2_feasible: &'a [bool],
    /// B2 tuning matrix, column-major per (slot, sample).
    pub(crate) b2_columns: Option<&'a [Vec<f32>]>,
    /// FF → slot map for `b2_columns`.
    pub(crate) b2_slot_of_ff: &'a [u32],
    /// Target clock period (ps).
    pub(crate) period: f64,
    /// Buffer step δ (ps).
    pub(crate) step: f64,
}

/// Check collector: counts everything, keeps the first few messages.
#[derive(Default)]
struct Collector {
    checks: u64,
    mismatches: u64,
    failures: Vec<String>,
}

impl Collector {
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches += 1;
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(msg());
            }
        }
    }

    fn absorb(&mut self, other: Collector) {
        self.checks += other.checks;
        self.mismatches += other.mismatches;
        for failure in other.failures {
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(failure);
            }
        }
    }
}

/// A deployment with one singleton buffer per buffered FF of `space` —
/// the raw form of a sampling pass's search space, usable with the cold
/// bounded solver.
fn singleton_deployment(space: &BufferSpace) -> Deployment {
    let mut var_of_ff = vec![NONE; space.has_buffer.len()];
    let mut bounds = Vec::new();
    for (ff, &has) in space.has_buffer.iter().enumerate() {
        if has {
            var_of_ff[ff] = bounds.len() as u32;
            bounds.push(space.bounds[ff]);
        }
    }
    Deployment { var_of_ff, bounds }
}

/// Per-chunk scratch for the re-verification solves — allocated fresh per
/// chunk, so the verifier shares no scratch with the flow's pooled
/// workspaces.
struct ColdKit {
    st: SampleTiming,
    gls: Option<GateLevelSampler>,
    ic: IntegerConstraints,
    diff: DiffSolver,
    arcs: Vec<TimingArc>,
}

impl ColdKit {
    fn new(flow: &BufferInsertionFlow<'_>) -> Self {
        Self {
            st: SampleTiming::for_graph(&flow.sg),
            gls: flow
                .cfg
                .gate_level_sampling
                .then(|| GateLevelSampler::new(&flow.tg)),
            ic: IntegerConstraints::for_graph(&flow.sg),
            diff: DiffSolver::new(),
            arcs: Vec::new(),
        }
    }

    /// Rebuilds chip `index`'s raw constraint system from scratch.
    fn build_chip(
        &mut self,
        flow: &BufferInsertionFlow<'_>,
        stream: u64,
        index: u64,
        claims: &PassClaims<'_>,
    ) {
        flow.fill_sample(stream, index, &mut self.st, &mut self.gls);
        self.ic
            .build(&flow.sg, &self.st, &flow.skews, claims.period, claims.step);
    }

    /// Cold feasibility of the chip under `dep`: every raw arc, nothing
    /// elided.
    fn cold_feasible(&mut self, flow: &BufferInsertionFlow<'_>, dep: &Deployment) -> bool {
        dep.build_arcs(&flow.sg, self.ic.as_view(), &mut self.arcs)
            && self
                .diff
                .decide_bounded(dep.num_buffers(), &self.arcs, &dep.bounds)
    }
}

/// Independent re-check of `result` against the raw constraint system.
/// See the module docs for the exact checks.
pub(crate) fn verify_insertion(
    flow: &BufferInsertionFlow<'_>,
    claims: &PassClaims<'_>,
    result: &InsertionResult,
) -> VerifyReport {
    let mut col = Collector::default();
    let n_ffs = result.n_ffs;
    let steps = flow.cfg.steps as i64;

    // ---- Structural consistency ----
    col.check(result.nb == result.groups.len(), || {
        format!("nb {} != group count {}", result.nb, result.groups.len())
    });
    let mut var_of_ff = vec![NONE; n_ffs];
    let mut bounds = Vec::with_capacity(result.groups.len());
    for (g, group) in result.groups.iter().enumerate() {
        col.check(group.lo <= group.hi, || {
            format!("group {g}: window [{}, {}] inverted", group.lo, group.hi)
        });
        col.check(-steps <= group.lo && group.hi <= steps, || {
            format!(
                "group {g}: window [{}, {}] outside the floating range ±{steps}",
                group.lo, group.hi
            )
        });
        if flow.cfg.force_zero_in_range {
            col.check(group.lo <= 0 && 0 <= group.hi, || {
                format!(
                    "group {g}: window [{}, {}] excludes 0 despite force_zero_in_range",
                    group.lo, group.hi
                )
            });
        }
        for &ff in &group.members {
            col.check(ff < n_ffs && claims.space_b.has_buffer[ff], || {
                format!("group {g}: member FF {ff} has no buffer in the final space")
            });
            if ff < n_ffs {
                var_of_ff[ff] = g as u32;
            }
        }
        bounds.push((group.lo, group.hi));
    }
    col.check(
        result.deployment.var_of_ff == var_of_ff && result.deployment.bounds == bounds,
        || "deployment tables disagree with the group list".to_string(),
    );
    let ab = if result.groups.is_empty() {
        0.0
    } else {
        result.groups.iter().map(|g| g.range() as f64).sum::<f64>() / result.groups.len() as f64
    };
    col.check(result.ab == ab, || {
        format!("ab {} != recomputed average range {ab}", result.ab)
    });

    // ---- Insertion-stream claims ----
    let samples = flow.cfg.samples;
    col.check(
        claims.a1_feasible.len() == samples && claims.b2_feasible.len() == samples,
        || "per-chip claim vectors do not cover the sample stream".to_string(),
    );
    let insert_stream = stream_seed(flow.cfg.seed, "insert");
    let floating_dep = singleton_deployment(claims.space_floating);
    let windowed_dep = singleton_deployment(claims.space_b);
    struct InsertChunk {
        col: Collector,
        a1_infeasible: u64,
        b2_infeasible: u64,
    }
    let insert_chunks: Vec<InsertChunk> = flow.map_chunks(samples, |_ws: &mut Workspace, lo, len| {
        let mut kit = ColdKit::new(flow);
        let mut chunk = InsertChunk {
            col: Collector::default(),
            a1_infeasible: 0,
            b2_infeasible: 0,
        };
        for row in 0..len {
            let k = lo + row;
            kit.build_chip(flow, insert_stream, k as u64, claims);

            // A1: claimed fixability with every buffer floating, re-decided
            // by a cold un-elided solve.
            let a1_claimed = claims.a1_feasible[k];
            let a1_actual = kit.cold_feasible(flow, &floating_dep);
            if !a1_claimed {
                chunk.a1_infeasible += 1;
            }
            chunk.col.check(a1_actual == a1_claimed, || {
                format!(
                    "chip {k}: A1 claims {} but the raw floating system is {}",
                    verdict(a1_claimed),
                    verdict(a1_actual)
                )
            });

            // B2: claimed-feasible chips are checked constructively from
            // the recorded tunings; claimed-infeasible chips by re-solving.
            let b2_claimed = claims.b2_feasible[k];
            if !b2_claimed {
                chunk.b2_infeasible += 1;
                let b2_actual = kit.cold_feasible(flow, &windowed_dep);
                chunk.col.check(!b2_actual, || {
                    format!("chip {k}: B2 claims infeasible but the raw windowed system is feasible")
                });
            } else if let Some(columns) = claims.b2_columns {
                let tuning = |ff: u32| -> i64 {
                    let slot = claims.b2_slot_of_ff[ff as usize];
                    if slot == NONE {
                        0
                    } else {
                        columns[slot as usize][k] as i64
                    }
                };
                let mut window_ok = true;
                for ff in 0..n_ffs {
                    if claims.b2_slot_of_ff[ff] == NONE {
                        continue;
                    }
                    let kv = tuning(ff as u32);
                    let (wlo, whi) = claims.space_b.bounds[ff];
                    if kv < wlo || kv > whi {
                        window_ok = false;
                    }
                }
                chunk.col.check(window_ok, || {
                    format!("chip {k}: a recorded tuning leaves its assigned window")
                });
                let mut edges_ok = true;
                for (e, edge) in flow.sg.edges.iter().enumerate() {
                    let kf = tuning(edge.from);
                    let kt = tuning(edge.to);
                    if kf - kt > kit.ic.setup_bound[e] || kt - kf > kit.ic.hold_bound[e] {
                        edges_ok = false;
                    }
                }
                chunk.col.check(edges_ok, || {
                    format!(
                        "chip {k}: B2 claims feasible but its recorded tunings violate a raw setup/hold constraint"
                    )
                });
            } else {
                // No tuning matrix recorded: fall back to re-solving.
                let b2_actual = kit.cold_feasible(flow, &windowed_dep);
                chunk.col.check(b2_actual, || {
                    format!("chip {k}: B2 claims feasible but the raw windowed system is infeasible")
                });
            }
        }
        chunk
    });
    let (mut a1_infeasible, mut b2_infeasible) = (0u64, 0u64);
    for chunk in insert_chunks {
        col.absorb(chunk.col);
        a1_infeasible += chunk.a1_infeasible;
        b2_infeasible += chunk.b2_infeasible;
    }
    col.check(result.stats.a1_infeasible == a1_infeasible, || {
        format!(
            "stats.a1_infeasible {} != re-counted {a1_infeasible}",
            result.stats.a1_infeasible
        )
    });
    col.check(result.stats.b2_infeasible == b2_infeasible, || {
        format!(
            "stats.b2_infeasible {} != re-counted {b2_infeasible}",
            result.stats.b2_infeasible
        )
    });

    // ---- Yield figures ----
    let yield_stream = stream_seed(flow.cfg.seed, "yield");
    let yield_samples = flow.cfg.yield_samples;
    let reports: Vec<YieldReport> =
        flow.map_chunks(yield_samples, |_ws: &mut Workspace, lo, len| {
            let mut kit = ColdKit::new(flow);
            let mut report = YieldReport::default();
            for row in 0..len {
                kit.build_chip(flow, yield_stream, (lo + row) as u64, claims);
                let baseline = kit.ic.setup_bound.iter().all(|&b| b >= 0)
                    && kit.ic.hold_bound.iter().all(|&b| b >= 0);
                let buffered = kit.cold_feasible(flow, &result.deployment);
                report.record(baseline, buffered);
            }
            report
        });
    let mut merged = YieldReport::default();
    for report in &reports {
        merged.merge(report);
    }
    // Identical arithmetic to `run_target`, compared exactly: the verifier
    // must reproduce the reported percentages bit for bit.
    col.check(
        result.yield_baseline == 100.0 * merged.yield_baseline(),
        || {
            format!(
                "yield_baseline {} != recomputed {}",
                result.yield_baseline,
                100.0 * merged.yield_baseline()
            )
        },
    );
    col.check(
        result.yield_with_buffers == 100.0 * merged.yield_buffered(),
        || {
            format!(
                "yield_with_buffers {} != recomputed {}",
                result.yield_with_buffers,
                100.0 * merged.yield_buffered()
            )
        },
    );
    col.check(
        result.improvement == 100.0 * (merged.yield_buffered() - merged.yield_baseline()),
        || {
            format!(
                "improvement {} != recomputed {}",
                result.improvement,
                100.0 * (merged.yield_buffered() - merged.yield_baseline())
            )
        },
    );
    col.check(
        result.rescued == merged.rescued && result.broken == merged.broken,
        || {
            format!(
                "rescued/broken {}/{} != recomputed {}/{}",
                result.rescued, result.broken, merged.rescued, merged.broken
            )
        },
    );

    VerifyReport {
        passed: col.mismatches == 0,
        checks: col.checks,
        mismatches: col.mismatches,
        insertion_chips: samples as u64,
        yield_chips: yield_samples as u64,
        failures: col.failures,
    }
}

fn verdict(feasible: bool) -> &'static str {
    if feasible {
        "feasible"
    } else {
        "infeasible"
    }
}

#[cfg(test)]
mod tests {
    use crate::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
    use psbi_netlist::bench_suite;

    fn cfg() -> FlowConfig {
        FlowConfig {
            samples: 120,
            yield_samples: 300,
            calibration_samples: 300,
            seed: 7,
            threads: 2,
            verify: true,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn verifier_passes_with_all_cache_layers_enabled() {
        let c = bench_suite::tiny_demo(31);
        let flow = BufferInsertionFlow::builder(&c, cfg()).build().unwrap();
        assert!(flow.verify_enabled());
        // Sweep two targets so the second run replays warm state.
        for k in [0.0, 0.5] {
            let r = flow.run_target(TargetPeriod::SigmaFactor(k));
            let report = r.diagnostics.verify.as_ref().expect("verify ran");
            assert!(report.passed, "k = {k}: {report}");
            assert_eq!(report.insertion_chips, 120);
            assert_eq!(report.yield_chips, 300);
            assert!(report.checks > 120);
        }
    }

    #[test]
    fn verifier_is_byte_neutral_on_canonical_outputs() {
        let c = bench_suite::tiny_demo(32);
        let mut plain_cfg = cfg();
        plain_cfg.verify = false;
        let plain = BufferInsertionFlow::builder(&c, plain_cfg)
            .build()
            .unwrap()
            .run();
        let mut checked = BufferInsertionFlow::builder(&c, cfg())
            .build()
            .unwrap()
            .run();
        assert!(plain.diagnostics.verify.is_none());
        assert!(checked.diagnostics.verify.is_some());
        // Canonical fields must be bit-identical; only the diagnostics and
        // wall-clock differ (both non-canonical by contract).
        checked.runtime = plain.runtime;
        checked.diagnostics = plain.diagnostics.clone();
        assert_eq!(plain, checked);
    }

    // The complementary negative test — `memo.replay.corrupt` injection
    // must make the verifier FAIL — lives in the workspace-level
    // `tests/fault_injection.rs` binary: fault specs are process-global,
    // so they only run in a binary where every test serialises through
    // `psbi_fault::with_spec`.
}
