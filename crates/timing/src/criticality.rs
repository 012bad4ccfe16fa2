//! Statistical criticality analysis of sequential edges.
//!
//! For a population of sampled chips, records how often each FF→FF edge
//! violates its setup or hold constraint at `x = 0` and how often it *is*
//! the binding (minimum-period-setting) edge.  This is the diagnostic view
//! behind the insertion flow: buffers end up at the endpoints of edges that
//! rank high here.

use crate::constraint::{min_period, IntegerConstraints};
use crate::sample::SampleTiming;
use crate::seq::SequentialGraph;
use serde::{Deserialize, Serialize};

/// Violation statistics per sequential edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalityReport {
    /// Chips in the population.
    pub samples: u64,
    /// Per edge: chips violating the setup constraint at the target period.
    pub setup_violations: Vec<u64>,
    /// Per edge: chips violating the hold constraint.
    pub hold_violations: Vec<u64>,
    /// Per edge: chips whose unbuffered minimum period this edge sets.
    pub binding: Vec<u64>,
    /// Chips with at least one violation.
    pub failing_chips: u64,
}

impl CriticalityReport {
    /// Edges sorted by decreasing setup-violation frequency, with their
    /// violation fraction; at most `k` entries, zero-frequency edges
    /// omitted.
    pub fn top_setup_edges(&self, k: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, u64)> = self
            .setup_violations
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v.into_iter()
            .map(|(e, c)| (e, c as f64 / self.samples as f64))
            .collect()
    }

    /// Number of edges that are ever critical (binding) in the population.
    pub fn distinct_binding_edges(&self) -> usize {
        self.binding.iter().filter(|c| **c > 0).count()
    }
}

/// Analyses edge criticality over `samples` chips produced by `fill`.
///
/// `fill(k, &mut st)` must populate chip `k`'s timing (the flow passes its
/// seeded sampler); `period`/`step` define the constraint discretisation.
///
/// # Panics
///
/// Panics if the graph has no edges or `step <= 0`.
pub fn analyze<F>(
    sg: &SequentialGraph,
    skews: &[f64],
    period: f64,
    step: f64,
    samples: u64,
    mut fill: F,
) -> CriticalityReport
where
    F: FnMut(u64, &mut SampleTiming),
{
    assert!(!sg.edges.is_empty(), "graph has no sequential edges");
    let mut st = SampleTiming::for_graph(sg);
    let mut ic = IntegerConstraints::for_graph(sg);
    let ne = sg.edges.len();
    let mut report = CriticalityReport {
        samples,
        setup_violations: vec![0; ne],
        hold_violations: vec![0; ne],
        binding: vec![0; ne],
        failing_chips: 0,
    };
    for k in 0..samples {
        fill(k, &mut st);
        ic.build(sg, &st, skews, period, step);
        let mut failed = false;
        for e in 0..ne {
            if ic.setup_bound[e] < 0 {
                report.setup_violations[e] += 1;
                failed = true;
            }
            if ic.hold_bound[e] < 0 {
                report.hold_violations[e] += 1;
                failed = true;
            }
        }
        if failed {
            report.failing_chips += 1;
        }
        let mp = min_period(sg, &st, skews);
        report.binding[mp.critical_edge] += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{chip_rng, sample_canonical};
    use crate::seq::SeqEdge;
    use psbi_variation::CanonicalForm;

    fn graph() -> SequentialGraph {
        // Edge 0 is slow and variable; edge 1 is fast and safe.
        SequentialGraph::from_parts(
            2,
            vec![
                SeqEdge {
                    from: 0,
                    to: 1,
                    max_delay: CanonicalForm::with_parts(200.0, [15.0, 0.0, 0.0], 8.0),
                    min_delay: CanonicalForm::constant(80.0),
                },
                SeqEdge {
                    from: 1,
                    to: 0,
                    max_delay: CanonicalForm::with_parts(100.0, [5.0, 0.0, 0.0], 3.0),
                    min_delay: CanonicalForm::constant(60.0),
                },
            ],
            vec![CanonicalForm::constant(10.0); 2],
            vec![CanonicalForm::constant(4.0); 2],
        )
    }

    fn run(period: f64) -> CriticalityReport {
        let sg = graph();
        let skews = [0.0, 0.0];
        analyze(&sg, &skews, period, 2.0, 2000, |k, st| {
            let (g, mut rng) = chip_rng(31, k);
            sample_canonical(&sg, &g, &mut rng, st);
        })
    }

    #[test]
    fn slow_edge_dominates() {
        // Period near edge 0's mean requirement (200 + 10 setup): edge 0
        // violates often, edge 1 basically never.
        let r = run(212.0);
        assert!(r.setup_violations[0] > 400, "{:?}", r.setup_violations);
        assert!(r.setup_violations[1] < 10);
        assert_eq!(r.top_setup_edges(5)[0].0, 0);
        assert!(r.binding[0] > r.binding[1]);
        assert!(r.failing_chips * 5 > r.samples);
    }

    #[test]
    fn relaxed_period_clears_violations() {
        let r = run(400.0);
        assert_eq!(r.setup_violations, vec![0, 0]);
        assert_eq!(r.failing_chips, 0);
        assert!(r.top_setup_edges(5).is_empty());
        // The binding edge is still recorded (min period exists always).
        assert_eq!(r.binding.iter().sum::<u64>(), r.samples);
        assert!(r.distinct_binding_edges() >= 1);
    }

    #[test]
    fn hold_violations_are_period_independent() {
        let tight = run(212.0);
        let loose = run(400.0);
        assert_eq!(tight.hold_violations, loose.hold_violations);
    }
}
