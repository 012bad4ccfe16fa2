//! Buffer grouping (paper §III-C, Fig. 6).
//!
//! Buffers whose tuning values are highly correlated across samples
//! (Pearson r ≥ 0.8) *and* whose flip-flops are physically close
//! (Manhattan distance ≤ 10 × the minimum FF spacing) share one physical
//! buffer.  Groups are formed greedily by descending correlation with a
//! complete-linkage check, so every pair inside a group satisfies both
//! thresholds.  A designer-imposed cap then removes the groups with the
//! fewest tunings.

use psbi_netlist::Placement;
use psbi_variation::pearson;
use serde::{Deserialize, Serialize};

/// Grouping thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupConfig {
    /// Minimum pairwise correlation (`r_t`, paper: 0.8).
    pub correlation_threshold: f64,
    /// Distance threshold as a multiple of the minimum FF spacing (`d_t`,
    /// paper: 10×).
    pub distance_factor: f64,
    /// Optional cap on the number of physical buffers.
    pub max_buffers: Option<usize>,
}

impl Default for GroupConfig {
    fn default() -> Self {
        Self {
            correlation_threshold: 0.8,
            distance_factor: 10.0,
            max_buffers: None,
        }
    }
}

/// One physical buffer serving one or more flip-flops.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// Member flip-flops (dense FF indices).
    pub members: Vec<usize>,
    /// Combined window lower bound (steps).
    pub lo: i64,
    /// Combined window upper bound (steps).
    pub hi: i64,
    /// Total tunings across members (for the cap heuristic).
    pub usage: u64,
}

impl Group {
    /// Window width in steps.
    pub fn range(&self) -> i64 {
        self.hi - self.lo
    }
}

/// Result of grouping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grouping {
    /// Physical buffers after grouping (and capping).
    pub groups: Vec<Group>,
    /// Buffers dropped by the cap (their FFs lose their buffer).
    pub dropped: Vec<usize>,
    /// Number of pairs that passed the correlation threshold.
    pub correlated_pairs: usize,
    /// Number of those that also passed the distance threshold.
    pub merged_pairs: usize,
}

impl Grouping {
    /// Average window width over groups (the paper's `Ab`).
    pub fn average_range(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        self.groups.iter().map(|g| g.range() as f64).sum::<f64>() / self.groups.len() as f64
    }
}

/// A buffer candidate entering grouping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferCandidate {
    /// Flip-flop index.
    pub ff: usize,
    /// Final window (steps).
    pub lo: i64,
    /// Final window (steps).
    pub hi: i64,
    /// Number of samples in which the buffer was tuned.
    pub usage: u64,
    /// Tuning value per sample (zeros included), used for correlation.
    pub column: Vec<f32>,
}

/// Groups buffer candidates.
///
/// # Panics
///
/// Panics if candidate columns have differing lengths.
pub fn group_buffers(
    candidates: &[BufferCandidate],
    placement: &Placement,
    cfg: &GroupConfig,
) -> Grouping {
    let n = candidates.len();
    if n > 1 {
        let len0 = candidates[0].column.len();
        assert!(
            candidates.iter().all(|c| c.column.len() == len0),
            "tuning columns must have equal length"
        );
    }
    let dt = cfg.distance_factor * placement.spacing;

    // Pairwise correlations above threshold.
    let columns: Vec<Vec<f64>> = candidates
        .iter()
        .map(|c| c.column.iter().map(|v| *v as f64).collect())
        .collect();
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    let mut correlated_pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let r = pearson(&columns[i], &columns[j]);
            if r >= cfg.correlation_threshold {
                correlated_pairs += 1;
                let d = placement.manhattan(candidates[i].ff, candidates[j].ff);
                if d <= dt {
                    pairs.push((i, j, r));
                }
            }
        }
    }
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("correlations are finite"));
    let merged_pairs = pairs.len();

    // Greedy complete-linkage merging.
    let mut member_of: Vec<usize> = (0..n).collect();
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let ok = |a: usize, b: usize, columns: &[Vec<f64>]| {
        let r = pearson(&columns[a], &columns[b]);
        let d = placement.manhattan(candidates[a].ff, candidates[b].ff);
        r >= cfg.correlation_threshold && d <= dt
    };
    for (i, j, _) in pairs {
        let (ci, cj) = (member_of[i], member_of[j]);
        if ci == cj {
            continue;
        }
        let compatible = clusters[ci]
            .iter()
            .all(|&a| clusters[cj].iter().all(|&b| ok(a, b, &columns)));
        if compatible {
            let moved = std::mem::take(&mut clusters[cj]);
            for &m in &moved {
                member_of[m] = ci;
            }
            clusters[ci].extend(moved);
        }
    }

    let mut groups: Vec<Group> = clusters
        .into_iter()
        .filter(|c| !c.is_empty())
        .map(|cluster| {
            let lo = cluster
                .iter()
                .map(|&i| candidates[i].lo)
                .min()
                .expect("nonempty");
            let hi = cluster
                .iter()
                .map(|&i| candidates[i].hi)
                .max()
                .expect("nonempty");
            let usage = cluster.iter().map(|&i| candidates[i].usage).sum();
            Group {
                members: cluster.into_iter().map(|i| candidates[i].ff).collect(),
                lo,
                hi,
                usage,
            }
        })
        .collect();

    // Cap: drop least-used groups first.
    let mut dropped = Vec::new();
    if let Some(cap) = cfg.max_buffers {
        groups.sort_by_key(|g| std::cmp::Reverse(g.usage));
        while groups.len() > cap {
            let g = groups.pop().expect("len > cap >= 0");
            dropped.extend(g.members);
        }
    }
    // Deterministic output order: by first member.
    for g in &mut groups {
        g.members.sort_unstable();
    }
    groups.sort_by_key(|g| g.members[0]);
    dropped.sort_unstable();

    Grouping {
        groups,
        dropped,
        correlated_pairs,
        merged_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbi_netlist::bench_suite;

    fn placement() -> Placement {
        // 24-FF demo circuit on a unit grid.
        Placement::grid(&bench_suite::tiny_demo(1), 1.0)
    }

    fn cand(ff: usize, column: Vec<f32>, lo: i64, hi: i64) -> BufferCandidate {
        let usage = column.iter().filter(|v| **v != 0.0).count() as u64;
        BufferCandidate {
            ff,
            lo,
            hi,
            usage,
            column,
        }
    }

    #[test]
    fn correlated_close_buffers_merge() {
        let p = placement();
        // FFs 0 and 1 are placed adjacently by the BFS layout of the demo…
        // use identical columns so r = 1.
        let col = vec![0.0, 3.0, 3.0, 0.0, 5.0, 0.0, 4.0, 4.0];
        let cands = vec![cand(0, col.clone(), 2, 6), cand(1, col.clone(), 3, 7)];
        let g = group_buffers(&cands, &p, &GroupConfig::default());
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].members, vec![0, 1]);
        assert_eq!((g.groups[0].lo, g.groups[0].hi), (2, 7));
        assert_eq!(g.groups[0].usage, 10);
    }

    #[test]
    fn uncorrelated_buffers_stay_separate() {
        let p = placement();
        let a = vec![0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0, 3.0];
        let b = vec![3.0, 0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0];
        let g = group_buffers(
            &[cand(0, a, 1, 4), cand(1, b, 1, 4)],
            &p,
            &GroupConfig::default(),
        );
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.merged_pairs, 0);
    }

    #[test]
    fn distance_threshold_blocks_merging() {
        let p = placement();
        // Find two FFs that are far apart on the grid.
        let mut far = (0, 1);
        let mut best = 0.0;
        for i in 0..p.len() {
            for j in (i + 1)..p.len() {
                let d = p.manhattan(i, j);
                if d > best {
                    best = d;
                    far = (i, j);
                }
            }
        }
        assert!(best > 5.0, "demo grid should span more than 5 units");
        let col = vec![0.0, 2.0, 2.0, 0.0, 2.0, 0.0];
        let cfg = GroupConfig {
            distance_factor: 5.0,
            ..GroupConfig::default()
        };
        let g = group_buffers(
            &[cand(far.0, col.clone(), 1, 3), cand(far.1, col, 1, 3)],
            &p,
            &cfg,
        );
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.correlated_pairs, 1);
        assert_eq!(g.merged_pairs, 0);
    }

    #[test]
    fn cap_drops_least_used() {
        let p = placement();
        let a = vec![5.0, 5.0, 5.0, 5.0]; // used 4 times
        let b = vec![0.0, -7.0, 0.0, 7.0]; // used 2 times, uncorrelated-ish
        let c = vec![1.0, 0.0, 0.0, 0.0]; // used once
        let cfg = GroupConfig {
            max_buffers: Some(2),
            ..GroupConfig::default()
        };
        let g = group_buffers(
            &[cand(0, a, 5, 5), cand(5, b, -7, 7), cand(9, c, 1, 1)],
            &p,
            &cfg,
        );
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.dropped, vec![9]);
    }

    #[test]
    fn average_range_of_one_group() {
        let p = placement();
        let col = vec![0.0, 4.0, 4.0, 0.0];
        let g = group_buffers(
            &[cand(0, col.clone(), 2, 6), cand(1, col, 2, 6)],
            &p,
            &GroupConfig::default(),
        );
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].members, vec![0, 1]);
        assert!((g.average_range() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let p = placement();
        let g = group_buffers(&[], &p, &GroupConfig::default());
        assert!(g.groups.is_empty());
        assert_eq!(g.average_range(), 0.0);
    }

    #[test]
    fn complete_linkage_is_enforced() {
        let p = placement();
        // a ~ b and b ~ c strongly, but a ~ c weakly: merging all three
        // must be refused; expect {a, b} + {c} (or {b, c} + {a}).
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.9];
        let c = vec![1.0, 2.2, 2.7, 4.4, 4.4, -9.0];
        let cands = vec![cand(0, a, 1, 6), cand(1, b, 1, 7), cand(2, c, 1, 5)];
        let g = group_buffers(&cands, &p, &GroupConfig::default());
        assert_eq!(g.groups.len(), 2, "{:?}", g.groups);
        for grp in &g.groups {
            for &x in &grp.members {
                for &y in &grp.members {
                    if x != y {
                        let cx = &cands.iter().find(|c| c.ff == x).unwrap().column;
                        let cy = &cands.iter().find(|c| c.ff == y).unwrap().column;
                        let cxf: Vec<f64> = cx.iter().map(|v| *v as f64).collect();
                        let cyf: Vec<f64> = cy.iter().map(|v| *v as f64).collect();
                        assert!(pearson(&cxf, &cyf) >= 0.8);
                    }
                }
            }
        }
    }
}
