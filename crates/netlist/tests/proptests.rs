//! Property-based tests for the netlist layer.

use proptest::prelude::*;
use psbi_netlist::bench_format::{parse_bench, to_bench};
use psbi_netlist::generator::GeneratorProfile;
use psbi_netlist::graph::{Circuit, NodeKind};
use psbi_netlist::placement::{sequential_adjacency, Placement};
use psbi_netlist::skew::SkewConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generator hits the requested FF and gate counts exactly for any
    /// size, and the circuit is always structurally valid.
    #[test]
    fn generator_counts_are_exact(
        n_ffs in 2usize..120,
        ratio in 1u32..30,
        seed in 0u64..1000,
    ) {
        let n_gates = n_ffs * ratio as usize;
        let p = GeneratorProfile::sized("p", n_ffs, n_gates);
        let c = p.generate(seed);
        prop_assert_eq!(c.num_ffs(), n_ffs);
        prop_assert_eq!(c.num_gates(), n_gates);
        prop_assert!(c.check().is_ok());
        prop_assert!(c.validate_against(&psbi_liberty::Library::industry_like()).is_ok());
    }

    /// Generated circuits survive a .bench round trip with identical
    /// structure counts.
    #[test]
    fn bench_round_trip_structure(n_ffs in 2usize..40, seed in 0u64..100) {
        let p = GeneratorProfile::sized("p", n_ffs, n_ffs * 5);
        let c = p.generate(seed);
        let lib = psbi_liberty::Library::industry_like();
        let text = to_bench(&c, &lib);
        let c2 = parse_bench(&text).expect("round trip parses");
        prop_assert_eq!(c2.num_ffs(), c.num_ffs());
        prop_assert_eq!(c2.num_gates(), c.num_gates());
        for kind in [NodeKind::Input, NodeKind::Output] {
            let count = |c: &Circuit| c.node_ids().filter(|&id| c.node(id).kind == kind).count();
            prop_assert_eq!(count(&c2), count(&c));
        }
    }

    /// Placement always assigns unique coordinates and symmetric adjacency.
    #[test]
    fn placement_invariants(n_ffs in 2usize..80, seed in 0u64..50) {
        let c = GeneratorProfile::sized("p", n_ffs, n_ffs * 3).generate(seed);
        let p = Placement::grid(&c, 1.5);
        prop_assert_eq!(p.len(), n_ffs);
        // No two flip-flops share a position.
        for i in 0..p.len() {
            for j in 0..i {
                prop_assert!(p.manhattan(i, j) > 0.0);
            }
        }
        let adj = sequential_adjacency(&c);
        for (i, list) in adj.iter().enumerate() {
            for &j in list {
                prop_assert!(adj[j].contains(&i));
            }
        }
    }

    /// Skews are deterministic and their hotspot count tracks the config.
    #[test]
    fn skew_hotspot_count(n_ffs in 20usize..120, seed in 0u64..50) {
        let c = GeneratorProfile::sized("p", n_ffs, n_ffs * 3).generate(seed);
        let cfg = SkewConfig {
            jitter_sigma: 0.0,
            hotspot_fraction: 0.1,
            hotspot_magnitude: 100.0,
        };
        let skews = cfg.assign(&c, seed);
        prop_assert_eq!(skews.clone(), cfg.assign(&c, seed));
        let hot = skews.iter().filter(|s| s.abs() > 50.0).count();
        let expect = ((n_ffs as f64) * 0.1).round() as usize;
        prop_assert_eq!(hot, expect.max(1));
    }
}
