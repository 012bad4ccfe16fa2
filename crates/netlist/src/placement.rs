//! Locality-preserving grid placement of flip-flops.
//!
//! The grouping step (paper §III-C, Fig. 6) merges buffers only when the
//! Manhattan distance between their flip-flops is below ten times the
//! minimum flip-flop spacing.  This module assigns grid coordinates to the
//! flip-flops so that sequentially adjacent registers tend to sit close to
//! each other — a BFS over the sequential adjacency graph is laid out in
//! row-major snake order.

use crate::graph::{Circuit, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Flip-flop coordinates (indexed by dense FF index) plus the grid spacing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    coords: Vec<(f64, f64)>,
    /// Minimum spacing between two flip-flops (grid pitch).
    pub spacing: f64,
}

impl Placement {
    /// Places the circuit's flip-flops on a √n × √n grid in BFS order over
    /// the sequential adjacency graph (rows alternate direction so row
    /// breaks stay adjacent).
    pub fn grid(circuit: &Circuit, spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        let n = circuit.num_ffs();
        let order = bfs_order(circuit);
        let side = (n as f64).sqrt().ceil() as usize;
        let mut coords = vec![(0.0, 0.0); n];
        for (pos, &ff_idx) in order.iter().enumerate() {
            let row = pos / side.max(1);
            let col_raw = pos % side.max(1);
            // Snake rows: odd rows run right-to-left.
            let col = if row.is_multiple_of(2) {
                col_raw
            } else {
                side - 1 - col_raw
            };
            coords[ff_idx] = (col as f64 * spacing, row as f64 * spacing);
        }
        Self { coords, spacing }
    }

    /// Number of placed flip-flops.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Manhattan distance between FFs `i` and `j`.
    ///
    /// ```
    /// # use psbi_netlist::{bench_suite, Placement};
    /// let c = bench_suite::tiny_demo(1);
    /// let p = Placement::grid(&c, 1.0);
    /// assert_eq!(p.manhattan(3, 3), 0.0);
    /// ```
    pub fn manhattan(&self, i: usize, j: usize) -> f64 {
        let (xi, yi) = self.coords[i];
        let (xj, yj) = self.coords[j];
        (xi - xj).abs() + (yi - yj).abs()
    }
}

/// Dense FF indices in BFS order over sequential adjacency (undirected).
fn bfs_order(circuit: &Circuit) -> Vec<usize> {
    let adj = sequential_adjacency(circuit);
    let n = adj.len();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut q = VecDeque::from([start]);
        while let Some(u) = q.pop_front() {
            order.push(u);
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    q.push_back(v);
                }
            }
        }
    }
    order
}

/// Undirected sequential adjacency between flip-flops: `i` and `j` are
/// adjacent when combinational logic connects `i`'s output to `j`'s input
/// (or vice versa).  Indices are dense FF indices.
pub fn sequential_adjacency(circuit: &Circuit) -> Vec<Vec<usize>> {
    let n = circuit.num_ffs();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    // For each FF sink, walk its input cone through gates to find sources.
    let mut seen = vec![u32::MAX; circuit.len()];
    for (j, &ff) in circuit.ff_ids().iter().enumerate() {
        let mark = j as u32;
        let mut stack: Vec<NodeId> = circuit.fanins(ff).to_vec();
        while let Some(node) = stack.pop() {
            if seen[node.index()] == mark {
                continue;
            }
            seen[node.index()] = mark;
            if circuit.node(node).kind.is_ff() {
                let i = circuit.ff_index(node).expect("ff node has dense index");
                if i != j {
                    adj[j].push(i);
                    adj[i].push(j);
                }
            } else if circuit.node(node).kind.is_gate() {
                stack.extend(circuit.fanins(node).iter().copied());
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite;

    #[test]
    fn grid_has_unique_positions() {
        let c = bench_suite::small_demo(2);
        let p = Placement::grid(&c, 1.0);
        assert_eq!(p.len(), c.num_ffs());
        let mut seen = std::collections::HashSet::new();
        for i in 0..p.len() {
            let (x, y) = p.coords[i];
            assert!(seen.insert((x as i64, y as i64)), "duplicate position");
        }
    }

    #[test]
    fn manhattan_is_a_metric() {
        let c = bench_suite::tiny_demo(3);
        let p = Placement::grid(&c, 2.0);
        for i in 0..p.len().min(6) {
            assert_eq!(p.manhattan(i, i), 0.0);
            for j in 0..p.len().min(6) {
                assert_eq!(p.manhattan(i, j), p.manhattan(j, i));
                for k in 0..p.len().min(6) {
                    assert!(p.manhattan(i, k) <= p.manhattan(i, j) + p.manhattan(j, k) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn sequential_neighbours_are_nearby_on_average() {
        let c = bench_suite::small_demo(4);
        let p = Placement::grid(&c, 1.0);
        let adj = sequential_adjacency(&c);
        let n = p.len();
        // Average distance between adjacent FFs should beat random pairs.
        let mut adj_sum = 0.0;
        let mut adj_cnt = 0usize;
        for (i, list) in adj.iter().enumerate() {
            for &j in list {
                adj_sum += p.manhattan(i, j);
                adj_cnt += 1;
            }
        }
        let mut all_sum = 0.0;
        let mut all_cnt = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                all_sum += p.manhattan(i, j);
                all_cnt += 1;
            }
        }
        let adj_avg = adj_sum / adj_cnt.max(1) as f64;
        let all_avg = all_sum / all_cnt.max(1) as f64;
        assert!(
            adj_avg < all_avg,
            "adjacent avg {adj_avg} should be below global avg {all_avg}"
        );
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let c = bench_suite::tiny_demo(5);
        let adj = sequential_adjacency(&c);
        for (i, list) in adj.iter().enumerate() {
            assert!(!list.contains(&i));
            for &j in list {
                assert!(adj[j].contains(&i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "spacing must be positive")]
    fn zero_spacing_panics() {
        let c = bench_suite::tiny_demo(1);
        let _ = Placement::grid(&c, 0.0);
    }
}
