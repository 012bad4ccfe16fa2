//! Synthetic sequential-benchmark generator.
//!
//! The paper evaluates on ISCAS89 and TAU-2013 circuits mapped to a
//! proprietary industry library; neither the mapped netlists nor the library
//! are available.  This generator is the substitute: it produces
//! circuits with a *prescribed number of flip-flops and gates* and a
//! realistic sequential structure —
//!
//! * locality: flip-flops belong to clusters and exchange data mostly with
//!   their own and neighbouring clusters (so physical placement correlates
//!   with logical adjacency, which the grouping step needs);
//! * fan-in trees followed by gate chains of varying depth (so stage delays
//!   differ and some FF pairs are near-critical);
//! * reconvergence: cones tap signals of earlier cones, sharing sub-paths
//!   (so path delays of different FF pairs are correlated);
//! * a configurable fraction of intentionally deep cones (the critical-path
//!   tail the insertion flow feeds on).
//!
//! Generation is fully deterministic for a given profile and seed.

use crate::graph::{Circuit, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Tunable shape of a generated benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorProfile {
    /// Circuit name.
    pub name: String,
    /// Number of flip-flops (`ns`).
    pub n_ffs: usize,
    /// Number of combinational gates (`ng`), matched exactly.
    pub n_gates: usize,
    /// Number of primary inputs.
    pub n_inputs: usize,
    /// Number of primary outputs (must be ≥ 1 so gate padding has a home).
    pub n_outputs: usize,
    /// Flip-flops per locality cluster.
    pub cluster_size: usize,
    /// Probability that a sequential edge stays within the local
    /// neighbourhood (own and adjacent clusters).
    pub intra_cluster_prob: f64,
    /// Minimum number of source FFs feeding a cone.
    pub min_sources: usize,
    /// Maximum number of source FFs feeding a cone.
    pub max_sources: usize,
    /// Mean gate-chain depth appended after the fan-in tree.
    pub depth_mean: f64,
    /// Relative uniform spread of the chain depth (0.3 → ±30 %).
    pub depth_spread: f64,
    /// Fraction of cones that get an intentionally deeper chain.
    pub long_path_fraction: f64,
    /// Depth multiplier for those long cones.
    pub long_path_boost: f64,
    /// Probability that a chain step reconverges with an earlier signal.
    pub reconvergence_prob: f64,
    /// Probability that a cone taps one primary input as an extra leaf.
    pub pi_tap_prob: f64,
    /// Fraction of clusters containing a *critical loop*: a ring of
    /// registers whose stages are all deep.  A directed cycle's total slack
    /// is invariant under clock tuning (the shifts cancel around the
    /// cycle), so chips whose global corner makes a loop's summed slack
    /// negative are unfixable — the structural effect that caps the
    /// paper's yield improvement below 100 %.
    pub critical_loop_fraction: f64,
    /// Registers per critical loop.
    pub critical_loop_len: usize,
    /// Stage depth of loop stages relative to `depth_mean`.
    pub critical_loop_depth_scale: f64,
}

impl GeneratorProfile {
    /// A profile with sensible defaults for the given size, deriving the
    /// chain depth from the gate/FF ratio so the gate budget is spent on
    /// realistic cone shapes.
    pub fn sized(name: impl Into<String>, n_ffs: usize, n_gates: usize) -> Self {
        let ratio = n_gates as f64 / n_ffs.max(1) as f64;
        // Budget per cone ≈ ratio; a cone with s sources and chain c uses
        // (s - 1) + c gates, so aim the chain depth at ratio minus the tree.
        let depth_mean = (ratio - 1.2).max(1.0);
        Self {
            name: name.into(),
            n_ffs,
            n_gates,
            n_inputs: (n_ffs / 12).clamp(4, 128),
            n_outputs: (n_ffs / 16).clamp(4, 128),
            cluster_size: 12,
            intra_cluster_prob: 0.85,
            min_sources: 1,
            max_sources: 3,
            depth_mean,
            depth_spread: 0.45,
            long_path_fraction: 0.08,
            long_path_boost: 1.6,
            reconvergence_prob: 0.04,
            pi_tap_prob: 0.25,
            critical_loop_fraction: 0.25,
            critical_loop_len: 3,
            critical_loop_depth_scale: 1.35,
        }
    }

    /// Validates profile invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_ffs == 0 {
            return Err("n_ffs must be > 0".into());
        }
        if self.n_outputs == 0 {
            return Err("n_outputs must be > 0".into());
        }
        if self.n_inputs == 0 {
            return Err("n_inputs must be > 0".into());
        }
        if self.min_sources == 0 || self.min_sources > self.max_sources {
            return Err("need 1 <= min_sources <= max_sources".into());
        }
        if self.cluster_size == 0 {
            return Err("cluster_size must be > 0".into());
        }
        for (name, p) in [
            ("intra_cluster_prob", self.intra_cluster_prob),
            ("long_path_fraction", self.long_path_fraction),
            ("reconvergence_prob", self.reconvergence_prob),
            ("pi_tap_prob", self.pi_tap_prob),
            ("critical_loop_fraction", self.critical_loop_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        if self.critical_loop_fraction > 0.0 && self.critical_loop_len < 2 {
            return Err("critical_loop_len must be >= 2".into());
        }
        Ok(())
    }

    /// Generates the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`GeneratorProfile::validate`].
    pub fn generate(&self, seed: u64) -> Circuit {
        self.validate().expect("invalid generator profile");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(self.name.clone());

        let pis: Vec<NodeId> = (0..self.n_inputs)
            .map(|i| c.add_input(format!("pi{i}")))
            .collect();
        let ffs: Vec<NodeId> = (0..self.n_ffs)
            .map(|i| c.add_ff(format!("ff{i}"), "DFF_X1"))
            .collect();

        let mut gate_budget = self.n_gates;
        let mut gate_count = 0usize;
        // Recent gate outputs available for reconvergent taps.
        let mut recent: Vec<NodeId> = Vec::new();
        const RECENT_CAP: usize = 256;

        // Critical-loop membership: ring_pred[j] = the FF whose output
        // feeds j's (deep) loop stage.
        let mut ring_pred: Vec<Option<usize>> = vec![None; self.n_ffs];
        if self.critical_loop_fraction > 0.0 {
            let n_clusters = self.n_ffs.div_ceil(self.cluster_size);
            for c in 0..n_clusters {
                if !rng.gen_bool(self.critical_loop_fraction) {
                    continue;
                }
                let start = c * self.cluster_size;
                let len = self.critical_loop_len.min(self.n_ffs - start);
                if len < 2 {
                    continue;
                }
                for i in 0..len {
                    ring_pred[start + i] = Some(start + (i + len - 1) % len);
                }
            }
        }

        for j in 0..self.n_ffs {
            let remaining_ffs = self.n_ffs - j;
            // Keep at least one gate of headroom per remaining cone when
            // possible so late cones are not starved.
            let fair_cap = (gate_budget / remaining_ffs).max(1) * 2 + 2;

            if let Some(pred) = ring_pred[j] {
                // Critical-loop stage: a pure deep chain from the ring
                // predecessor (no reconvergence, so the loop depth is
                // controlled and its slack sum is tuning-invariant).
                let jitter = 1.0 + rng.gen_range(-0.08..=0.08);
                let depth = (self.depth_mean * self.critical_loop_depth_scale * jitter)
                    .round()
                    .max(1.0) as usize;
                let chain = depth.min(gate_budget).min(fair_cap);
                let mut signal = ffs[pred];
                for _ in 0..chain {
                    // Two-input cells with a PI side input keep the loop's
                    // per-stage delay comparable to ordinary cone stages.
                    let cell = pick_two_input_cell(&mut rng);
                    let side = pis[rng.gen_range(0..pis.len())];
                    let g = c.add_gate(format!("g{gate_count}"), cell, &[signal, side]);
                    gate_count += 1;
                    gate_budget -= 1;
                    signal = g;
                }
                c.connect_ff_data(ffs[j], signal)
                    .expect("fresh flip-flop accepts data");
                continue;
            }

            let mut k = rng.gen_range(self.min_sources..=self.max_sources);
            // The fan-in tree needs k-1 gates; shrink if the budget is gone.
            while k > 1 && k - 1 > gate_budget {
                k -= 1;
            }
            let mut leaves: Vec<NodeId> =
                (0..k).map(|_| ffs[self.pick_source(j, &mut rng)]).collect();
            if rng.gen_bool(self.pi_tap_prob) && gate_budget > leaves.len() {
                leaves.push(pis[rng.gen_range(0..pis.len())]);
            }

            // Fan-in tree.  Tree outputs go into the reconvergence pool:
            // their transitive source sets are small (≤ the cone's own
            // sources), which keeps sequential fan-in bounded when other
            // cones tap them.
            let mut tree_gates = 0usize;
            while leaves.len() > 1 && gate_budget > 0 {
                let a = leaves.swap_remove(rng.gen_range(0..leaves.len()));
                let b = leaves.swap_remove(rng.gen_range(0..leaves.len()));
                let cell = pick_two_input_cell(&mut rng);
                let g = c.add_gate(format!("g{gate_count}"), cell, &[a, b]);
                gate_count += 1;
                gate_budget -= 1;
                tree_gates += 1;
                leaves.push(g);
                if recent.len() < RECENT_CAP {
                    recent.push(g);
                } else {
                    let at = rng.gen_range(0..RECENT_CAP);
                    recent[at] = g;
                }
            }
            let mut signal = leaves[0];

            // Chain of the sampled depth.
            let spread = 1.0 + rng.gen_range(-self.depth_spread..=self.depth_spread);
            let mut depth = (self.depth_mean * spread).round().max(0.0) as usize;
            if rng.gen_bool(self.long_path_fraction) {
                depth = ((depth as f64) * self.long_path_boost).round() as usize + 1;
            }
            let chain = depth
                .saturating_sub(tree_gates)
                .min(gate_budget)
                .min(fair_cap);
            for _ in 0..chain {
                let g = if rng.gen_bool(self.reconvergence_prob) && !recent.is_empty() {
                    let partner = recent[rng.gen_range(0..recent.len())];
                    let cell = pick_two_input_cell(&mut rng);
                    c.add_gate(format!("g{gate_count}"), cell, &[signal, partner])
                } else {
                    let cell = pick_one_input_cell(&mut rng);
                    c.add_gate(format!("g{gate_count}"), cell, &[signal])
                };
                gate_count += 1;
                gate_budget -= 1;
                signal = g;
            }
            c.connect_ff_data(ffs[j], signal)
                .expect("fresh flip-flop accepts data");
        }

        // Primary outputs absorb the remaining gate budget exactly: each
        // output is a chain of inverters/buffers hanging off some signal.
        let mut po_chains = vec![0usize; self.n_outputs];
        let mut left = gate_budget;
        while left > 0 {
            let at = rng.gen_range(0..self.n_outputs);
            po_chains[at] += 1;
            left -= 1;
        }
        for (o, chain) in po_chains.iter().enumerate() {
            let mut signal = ffs[rng.gen_range(0..self.n_ffs)];
            for _ in 0..*chain {
                let cell = pick_one_input_cell(&mut rng);
                let g = c.add_gate(format!("g{gate_count}"), cell, &[signal]);
                gate_count += 1;
                signal = g;
            }
            c.add_output(format!("po{o}"), signal);
        }

        debug_assert_eq!(c.num_gates(), self.n_gates);
        debug_assert_eq!(c.num_ffs(), self.n_ffs);
        c
    }

    /// Picks a source FF for the cone of sink `j`, respecting locality.
    fn pick_source(&self, j: usize, rng: &mut StdRng) -> usize {
        if self.n_ffs == 1 {
            return 0;
        }
        if rng.gen_bool(self.intra_cluster_prob) {
            let cluster = j / self.cluster_size;
            // Own cluster plus the previous and next ones.
            let lo = cluster.saturating_sub(1) * self.cluster_size;
            let hi = ((cluster + 2) * self.cluster_size).min(self.n_ffs);
            rng.gen_range(lo..hi)
        } else {
            rng.gen_range(0..self.n_ffs)
        }
    }
}

fn pick_two_input_cell(rng: &mut StdRng) -> &'static str {
    // Weighted mix typical of mapped control/datapath logic.
    const CELLS: [(&str, u32); 6] = [
        ("NAND2_X1", 30),
        ("NOR2_X1", 20),
        ("AND2_X1", 15),
        ("OR2_X1", 15),
        ("XOR2_X1", 10),
        ("XNOR2_X1", 10),
    ];
    weighted(rng, &CELLS)
}

fn pick_one_input_cell(rng: &mut StdRng) -> &'static str {
    const CELLS: [(&str, u32); 3] = [("INV_X1", 55), ("BUF_X1", 30), ("INV_X2", 15)];
    weighted(rng, &CELLS)
}

fn weighted(rng: &mut StdRng, cells: &[(&'static str, u32)]) -> &'static str {
    let total: u32 = cells.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for (cell, w) in cells {
        if pick < *w {
            return cell;
        }
        pick -= w;
    }
    cells[cells.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    #[test]
    fn exact_counts() {
        let p = GeneratorProfile::sized("t", 50, 600);
        let c = p.generate(1);
        assert_eq!(c.num_ffs(), 50);
        assert_eq!(c.num_gates(), 600);
        let count = |k: NodeKind| c.node_ids().filter(|&id| c.node(id).kind == k).count();
        assert_eq!(count(NodeKind::Input), p.n_inputs);
        assert_eq!(count(NodeKind::Output), p.n_outputs);
        assert!(c.check().is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = GeneratorProfile::sized("t", 30, 200);
        let a = p.generate(7);
        let b = p.generate(7);
        assert_eq!(a.num_gates(), b.num_gates());
        for id in a.node_ids() {
            assert_eq!(a.node(id), b.node(id));
            assert_eq!(a.fanins(id), b.fanins(id));
        }
        let c = p.generate(8);
        // Different seed ⇒ different wiring somewhere.
        let differs = a
            .node_ids()
            .any(|id| a.fanins(id) != c.fanins(id) || a.node(id) != c.node(id));
        assert!(differs);
    }

    #[test]
    fn validates_against_library() {
        let lib = psbi_liberty::Library::industry_like();
        let c = GeneratorProfile::sized("t", 40, 300).generate(3);
        assert!(c.validate_against(&lib).is_ok());
    }

    #[test]
    fn tight_gate_budget_still_exact() {
        // Fewer gates than FFs: most cones collapse to direct connections.
        let p = GeneratorProfile::sized("t", 60, 30);
        let c = p.generate(5);
        assert_eq!(c.num_gates(), 30);
        assert_eq!(c.num_ffs(), 60);
        assert!(c.check().is_ok());
    }

    #[test]
    fn profile_validation_errors() {
        let mut p = GeneratorProfile::sized("t", 10, 50);
        p.min_sources = 0;
        assert!(p.validate().is_err());
        let mut p = GeneratorProfile::sized("t", 10, 50);
        p.intra_cluster_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = GeneratorProfile::sized("t", 10, 50);
        p.n_outputs = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn every_ff_is_driven() {
        let c = GeneratorProfile::sized("t", 80, 500).generate(11);
        for &ff in c.ff_ids() {
            assert_eq!(c.fanins(ff).len(), 1, "{}", c.node(ff).name);
        }
    }

    #[test]
    fn locality_holds_statistically() {
        let p = GeneratorProfile::sized("t", 120, 400);
        let c = p.generate(13);
        // Count FF->FF tree edges that stay within +-2 clusters by looking
        // at direct fanins of each cone through gates (approximation: check
        // the D-driver tree sources via BFS limited to gates).
        let mut local = 0usize;
        let mut total = 0usize;
        for (j, &ff) in c.ff_ids().iter().enumerate() {
            let mut stack = vec![c.fanins(ff)[0]];
            let mut seen = std::collections::HashSet::new();
            while let Some(n) = stack.pop() {
                if !seen.insert(n) {
                    continue;
                }
                if c.node(n).kind.is_ff() {
                    let i = c.ff_index(n).unwrap();
                    total += 1;
                    let cj = j / p.cluster_size;
                    let ci = i / p.cluster_size;
                    if ci.abs_diff(cj) <= 2 {
                        local += 1;
                    }
                } else if c.node(n).kind.is_gate() {
                    stack.extend(c.fanins(n).iter().copied());
                }
            }
        }
        assert!(total > 0);
        let frac = local as f64 / total as f64;
        assert!(frac > 0.6, "locality fraction {frac}");
    }
}
