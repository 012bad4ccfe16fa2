//! Speed binning — the paper's future-work scenario, implemented.
//!
//! The conclusion of the paper names "clock binning" as the open challenge:
//! chips that cannot be rescued at the target period may still be sold in a
//! slower speed grade.  This module classifies every evaluation chip into
//! the fastest bin whose period it meets, with and without the deployed
//! tuning buffers, so the economic effect of buffer insertion across the
//! whole binning table can be quantified.
//!
//! The buffer step δ is a *hardware* property fixed at design time; only
//! the tested period changes per bin, so all bins share the deployment's
//! discretisation.

use crate::yield_eval::{ChipCheck, Deployment};
use psbi_timing::sample::SampleTiming;
use psbi_timing::{IntegerConstraints, SequentialGraph};
use serde::{Deserialize, Serialize};

/// Outcome of binning one population of chips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinningReport {
    /// Bin periods in ascending order (ps).
    pub periods: Vec<f64>,
    /// Chips whose fastest passing bin is `periods[i]`, without buffers.
    pub baseline: Vec<usize>,
    /// Chips whose fastest passing bin is `periods[i]`, with buffers.
    pub buffered: Vec<usize>,
    /// Chips failing even the slowest bin, without buffers.
    pub dead_baseline: usize,
    /// Chips failing even the slowest bin, with buffers.
    pub dead_buffered: usize,
    /// Total chips classified.
    pub samples: usize,
}

impl BinningReport {
    /// Average selling period (a proxy for revenue): dead chips count as
    /// the slowest period plus the given scrap penalty.
    pub fn mean_period(&self, buffered: bool, scrap_penalty: f64) -> f64 {
        let (bins, dead) = if buffered {
            (&self.buffered, self.dead_buffered)
        } else {
            (&self.baseline, self.dead_baseline)
        };
        if self.samples == 0 {
            return 0.0;
        }
        let worst = self.periods.last().copied().unwrap_or(0.0) + scrap_penalty;
        let sum: f64 = bins
            .iter()
            .zip(&self.periods)
            .map(|(n, p)| *n as f64 * p)
            .sum::<f64>()
            + dead as f64 * worst;
        sum / self.samples as f64
    }

    /// Chips moved into a *faster or equal* bin by the buffers.
    pub fn upgraded(&self) -> usize {
        // Buffers never slow a chip down per bin (feasible stays feasible
        // only if windows contain a working point, which the evaluator
        // checks per bin), so the upgrade count is the difference of
        // cumulative distributions.
        let mut up = 0usize;
        let mut cum_base = 0usize;
        let mut cum_buf = 0usize;
        for i in 0..self.periods.len() {
            cum_base += self.baseline[i];
            cum_buf += self.buffered[i];
            if cum_buf > cum_base {
                up = up.max(cum_buf - cum_base);
            }
        }
        up
    }
}

/// Classifies chips into speed bins.
///
/// `fill` produces chip `k`'s timing into the provided buffer (the flow
/// supplies its seeded sampler); `skews` and `step` are the design-time
/// clock tree and buffer step.
///
/// # Panics
///
/// Panics if `periods` is empty or not strictly ascending.
pub fn classify<F>(
    sg: &SequentialGraph,
    deployment: &Deployment,
    skews: &[f64],
    periods: &[f64],
    step: f64,
    samples: usize,
    mut fill: F,
) -> BinningReport
where
    F: FnMut(u64, &mut SampleTiming),
{
    assert!(!periods.is_empty(), "need at least one bin");
    assert!(
        periods.windows(2).all(|w| w[0] < w[1]),
        "bin periods must be strictly ascending"
    );
    let mut st = SampleTiming::for_graph(sg);
    let mut ic = IntegerConstraints::for_graph(sg);
    let mut check = ChipCheck::new();
    let mut report = BinningReport {
        periods: periods.to_vec(),
        baseline: vec![0; periods.len()],
        buffered: vec![0; periods.len()],
        dead_baseline: 0,
        dead_buffered: 0,
        samples,
    };
    for k in 0..samples {
        fill(k as u64, &mut st);
        let mut base_bin = None;
        let mut buf_bin = None;
        for (i, &t) in periods.iter().enumerate() {
            if base_bin.is_some() && buf_bin.is_some() {
                break;
            }
            ic.build(sg, &st, skews, t, step);
            if base_bin.is_none() && ic.feasible_at_zero() {
                base_bin = Some(i);
            }
            if buf_bin.is_none() && deployment.chip_passes(sg, ic.as_view(), &mut check) {
                buf_bin = Some(i);
            }
        }
        match base_bin {
            Some(i) => report.baseline[i] += 1,
            None => report.dead_baseline += 1,
        }
        match buf_bin {
            Some(i) => report.buffered[i] += 1,
            None => report.dead_buffered += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{Group, Grouping};
    use psbi_timing::sample::{chip_rng, sample_canonical};
    use psbi_timing::seq::SeqEdge;
    use psbi_variation::CanonicalForm;

    fn graph() -> SequentialGraph {
        // Two FFs; one edge with variable delay.
        SequentialGraph::from_parts(
            2,
            vec![SeqEdge {
                from: 0,
                to: 1,
                max_delay: CanonicalForm::with_parts(100.0, [8.0, 0.0, 0.0], 4.0),
                min_delay: CanonicalForm::with_parts(60.0, [5.0, 0.0, 0.0], 2.0),
            }],
            vec![CanonicalForm::constant(10.0); 2],
            vec![CanonicalForm::constant(2.0); 2],
        )
    }

    fn one_buffer_deployment() -> Deployment {
        Deployment::from_grouping(
            2,
            &Grouping {
                groups: vec![Group {
                    members: vec![1],
                    lo: -5,
                    hi: 5,
                    usage: 1,
                }],
                dropped: vec![],
                correlated_pairs: 0,
                merged_pairs: 0,
            },
        )
    }

    #[test]
    fn all_chips_land_in_some_bin_or_die() {
        let sg = graph();
        let dep = one_buffer_deployment();
        let skews = [0.0, -20.0]; // capture clock early → setup pressure
        let report = classify(
            &sg,
            &dep,
            &skews,
            &[100.0, 130.0, 170.0],
            2.0,
            400,
            |k, st| {
                let (g, mut rng) = chip_rng(5, k);
                sample_canonical(&sg, &g, &mut rng, st);
            },
        );
        let base_total: usize = report.baseline.iter().sum::<usize>() + report.dead_baseline;
        let buf_total: usize = report.buffered.iter().sum::<usize>() + report.dead_buffered;
        assert_eq!(base_total, 400);
        assert_eq!(buf_total, 400);
    }

    #[test]
    fn buffers_shift_chips_to_faster_bins() {
        let sg = graph();
        let dep = one_buffer_deployment();
        let skews = [0.0, -20.0];
        let report = classify(
            &sg,
            &dep,
            &skews,
            &[110.0, 140.0, 180.0],
            2.0,
            500,
            |k, st| {
                let (g, mut rng) = chip_rng(9, k);
                sample_canonical(&sg, &g, &mut rng, st);
            },
        );
        // The buffer (window up to +5 steps = +10 ps on the capture clock)
        // relaxes setup, so cumulative counts in fast bins must not drop.
        let mut cb = 0;
        let mut cf = 0;
        for i in 0..report.periods.len() {
            cb += report.baseline[i];
            cf += report.buffered[i];
            assert!(cf >= cb, "bin {i}: buffered {cf} < baseline {cb}");
        }
        assert!(report.dead_buffered <= report.dead_baseline);
        assert!(report.upgraded() > 0, "some chip should upgrade");
        // Mean selling period improves (smaller is better).
        assert!(report.mean_period(true, 50.0) <= report.mean_period(false, 50.0));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bins_panic() {
        let sg = graph();
        let dep = one_buffer_deployment();
        classify(&sg, &dep, &[0.0, 0.0], &[130.0, 110.0], 2.0, 1, |_, _| {});
    }
}
