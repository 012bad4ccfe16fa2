//! Named benchmark descriptors matching the paper's Table I circuits.
//!
//! Each spec carries the flip-flop count `ns` and gate count `ng` the paper
//! reports, plus a deterministic default seed.  Generated circuits are the
//! substitutes for the unavailable mapped netlists (see
//! [`crate::generator`]); `ns`/`ng` match the paper exactly.

use crate::generator::GeneratorProfile;
use crate::graph::Circuit;
use serde::{Deserialize, Serialize};

/// One benchmark of the paper's suite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Benchmark name as printed in Table I.
    pub name: &'static str,
    /// Flip-flop count (`ns`).
    pub n_ffs: usize,
    /// Gate count (`ng`).
    pub n_gates: usize,
    /// Origin of the circuit in the paper ("ISCAS89" or "TAU 2013").
    pub origin: &'static str,
    /// Default generation seed.
    pub default_seed: u64,
}

impl BenchmarkSpec {
    /// The generator profile for this benchmark.
    pub fn profile(&self) -> GeneratorProfile {
        GeneratorProfile::sized(self.name, self.n_ffs, self.n_gates)
    }

    /// Generates the circuit with the default seed.
    pub fn generate(&self) -> Circuit {
        self.profile().generate(self.default_seed)
    }

    /// Generates the circuit with an explicit seed.
    pub fn generate_seeded(&self, seed: u64) -> Circuit {
        self.profile().generate(seed)
    }
}

/// The paper's eight benchmarks with their exact Table I sizes.
pub fn paper_suite() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec {
            name: "s9234",
            n_ffs: 211,
            n_gates: 5597,
            origin: "ISCAS89",
            default_seed: 0x9234,
        },
        BenchmarkSpec {
            name: "s13207",
            n_ffs: 638,
            n_gates: 7951,
            origin: "ISCAS89",
            default_seed: 0x13207,
        },
        BenchmarkSpec {
            name: "s15850",
            n_ffs: 534,
            n_gates: 9772,
            origin: "ISCAS89",
            default_seed: 0x15850,
        },
        BenchmarkSpec {
            name: "s38584",
            n_ffs: 1426,
            n_gates: 19253,
            origin: "ISCAS89",
            default_seed: 0x38584,
        },
        BenchmarkSpec {
            name: "mem_ctrl",
            n_ffs: 1065,
            n_gates: 10327,
            origin: "TAU 2013",
            default_seed: 0xE301,
        },
        BenchmarkSpec {
            name: "usb_funct",
            n_ffs: 1746,
            n_gates: 14381,
            origin: "TAU 2013",
            default_seed: 0xE302,
        },
        BenchmarkSpec {
            name: "ac97_ctrl",
            n_ffs: 2199,
            n_gates: 9208,
            origin: "TAU 2013",
            default_seed: 0xE303,
        },
        BenchmarkSpec {
            name: "pci_bridge32",
            n_ffs: 3321,
            n_gates: 12494,
            origin: "TAU 2013",
            default_seed: 0xE304,
        },
    ]
}

/// Looks a paper benchmark up by name.
///
/// ```
/// let spec = psbi_netlist::bench_suite::by_name("s9234").unwrap();
/// assert_eq!(spec.n_ffs, 211);
/// ```
pub fn by_name(name: &str) -> Option<BenchmarkSpec> {
    paper_suite().into_iter().find(|s| s.name == name)
}

/// The names of the paper suite, in Table-I order.
pub fn suite_names() -> Vec<&'static str> {
    paper_suite().into_iter().map(|s| s.name).collect()
}

/// A serialisable, self-contained circuit descriptor — what campaign specs
/// and job journals store instead of a materialised [`Circuit`].
///
/// The canonical text form round-trips through
/// [`CircuitRef::parse`] / [`CircuitRef::id`]:
///
/// | form | meaning |
/// |---|---|
/// | `s9234` | a paper-suite benchmark, default seed |
/// | `s9234@7` | a paper-suite benchmark, explicit generation seed |
/// | `tiny_demo:3` | the 24-FF demo circuit, seed 3 |
/// | `small_demo:3` | the 80-FF demo circuit, seed 3 |
/// | `medium_demo:3` | the 250-FF demo circuit, seed 3 |
/// | `sized:name:ffs:gates:seed` | an arbitrary generated circuit |
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CircuitRef {
    /// A paper-suite benchmark (`None` = the spec's default seed).
    Paper {
        /// Benchmark name as in [`paper_suite`].
        name: String,
        /// Generation seed override.
        seed: Option<u64>,
    },
    /// A named demo class ([`tiny_demo`] / [`small_demo`] / [`medium_demo`]).
    Demo {
        /// `tiny_demo`, `small_demo` or `medium_demo`.
        class: String,
        /// Generation seed.
        seed: u64,
    },
    /// An arbitrary generated circuit of an explicit size.
    Sized {
        /// Circuit name.
        name: String,
        /// Flip-flop count.
        n_ffs: usize,
        /// Gate count.
        n_gates: usize,
        /// Generation seed.
        seed: u64,
    },
}

impl CircuitRef {
    /// Parses the canonical text form (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or malformed
    /// numeric fields.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix("sized:") {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 4 {
                return Err(format!("`sized:` takes name:ffs:gates:seed, got `{s}`"));
            }
            let n_ffs = parts[1]
                .parse()
                .map_err(|_| format!("bad FF count in `{s}`"))?;
            let n_gates = parts[2]
                .parse()
                .map_err(|_| format!("bad gate count in `{s}`"))?;
            let seed = parts[3].parse().map_err(|_| format!("bad seed in `{s}`"))?;
            if n_ffs == 0 || n_gates == 0 {
                return Err(format!("sized circuit `{s}` must have FFs and gates"));
            }
            return Ok(CircuitRef::Sized {
                name: parts[0].to_string(),
                n_ffs,
                n_gates,
                seed,
            });
        }
        if let Some((class, seed)) = s.split_once(':') {
            if !matches!(class, "tiny_demo" | "small_demo" | "medium_demo") {
                return Err(format!("unknown demo class `{class}` in `{s}`"));
            }
            let seed = seed.parse().map_err(|_| format!("bad seed in `{s}`"))?;
            return Ok(CircuitRef::Demo {
                class: class.to_string(),
                seed,
            });
        }
        let (name, seed) = match s.split_once('@') {
            Some((n, seed)) => (
                n,
                Some(seed.parse().map_err(|_| format!("bad seed in `{s}`"))?),
            ),
            None => (s, None),
        };
        if by_name(name).is_none() {
            return Err(format!(
                "unknown circuit `{name}` (paper suite: {})",
                suite_names().join(", ")
            ));
        }
        Ok(CircuitRef::Paper {
            name: name.to_string(),
            seed,
        })
    }

    /// The canonical text form ([`CircuitRef::parse`] inverts it).
    pub fn id(&self) -> String {
        match self {
            CircuitRef::Paper { name, seed: None } => name.clone(),
            CircuitRef::Paper {
                name,
                seed: Some(s),
            } => format!("{name}@{s}"),
            CircuitRef::Demo { class, seed } => format!("{class}:{seed}"),
            CircuitRef::Sized {
                name,
                n_ffs,
                n_gates,
                seed,
            } => format!("sized:{name}:{n_ffs}:{n_gates}:{seed}"),
        }
    }

    /// The (FF count, gate count) the generated circuit will have, or
    /// `None` when the name no longer resolves (possible when a
    /// descriptor was deserialised rather than parsed).
    pub fn size(&self) -> Option<(usize, usize)> {
        match self {
            CircuitRef::Paper { name, .. } => by_name(name).map(|spec| (spec.n_ffs, spec.n_gates)),
            CircuitRef::Demo { class, .. } => match class.as_str() {
                "tiny_demo" => Some(TINY_DEMO_SIZE),
                "small_demo" => Some(SMALL_DEMO_SIZE),
                "medium_demo" => Some(MEDIUM_DEMO_SIZE),
                _ => None,
            },
            CircuitRef::Sized { n_ffs, n_gates, .. } => Some((*n_ffs, *n_gates)),
        }
    }

    /// Generates the circuit this descriptor names.
    ///
    /// # Errors
    ///
    /// Fails when a paper or demo name no longer resolves (possible when a
    /// descriptor was deserialised rather than parsed).
    pub fn materialize(&self) -> Result<Circuit, String> {
        match self {
            CircuitRef::Paper { name, seed } => {
                let spec = by_name(name).ok_or_else(|| format!("unknown circuit `{name}`"))?;
                Ok(match seed {
                    Some(s) => spec.generate_seeded(*s),
                    None => spec.generate(),
                })
            }
            CircuitRef::Demo { class, seed } => match class.as_str() {
                "tiny_demo" => Ok(tiny_demo(*seed)),
                "small_demo" => Ok(small_demo(*seed)),
                "medium_demo" => Ok(medium_demo(*seed)),
                other => Err(format!("unknown demo class `{other}`")),
            },
            CircuitRef::Sized {
                name,
                n_ffs,
                n_gates,
                seed,
            } => Ok(GeneratorProfile::sized(name, *n_ffs, *n_gates).generate(*seed)),
        }
    }
}

/// (FF count, gate count) of [`tiny_demo`].
pub const TINY_DEMO_SIZE: (usize, usize) = (24, 220);
/// (FF count, gate count) of [`small_demo`].
pub const SMALL_DEMO_SIZE: (usize, usize) = (80, 900);
/// (FF count, gate count) of [`medium_demo`].
pub const MEDIUM_DEMO_SIZE: (usize, usize) = (250, 3500);

/// A miniature circuit (24 FFs, 220 gates) for tests, docs and examples.
pub fn tiny_demo(seed: u64) -> Circuit {
    GeneratorProfile::sized("tiny_demo", TINY_DEMO_SIZE.0, TINY_DEMO_SIZE.1).generate(seed)
}

/// A small circuit (80 FFs, 900 gates) for fast integration tests.
pub fn small_demo(seed: u64) -> Circuit {
    GeneratorProfile::sized("small_demo", SMALL_DEMO_SIZE.0, SMALL_DEMO_SIZE.1).generate(seed)
}

/// A medium circuit (250 FFs, 3500 gates) — roughly s9234-class.
pub fn medium_demo(seed: u64) -> Circuit {
    GeneratorProfile::sized("medium_demo", MEDIUM_DEMO_SIZE.0, MEDIUM_DEMO_SIZE.1).generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_paper_sizes() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 8);
        let by = |n: &str| by_name(n).unwrap();
        assert_eq!((by("s9234").n_ffs, by("s9234").n_gates), (211, 5597));
        assert_eq!((by("s13207").n_ffs, by("s13207").n_gates), (638, 7951));
        assert_eq!((by("s15850").n_ffs, by("s15850").n_gates), (534, 9772));
        assert_eq!((by("s38584").n_ffs, by("s38584").n_gates), (1426, 19253));
        assert_eq!(
            (by("mem_ctrl").n_ffs, by("mem_ctrl").n_gates),
            (1065, 10327)
        );
        assert_eq!(
            (by("usb_funct").n_ffs, by("usb_funct").n_gates),
            (1746, 14381)
        );
        assert_eq!(
            (by("ac97_ctrl").n_ffs, by("ac97_ctrl").n_gates),
            (2199, 9208)
        );
        assert_eq!(
            (by("pci_bridge32").n_ffs, by("pci_bridge32").n_gates),
            (3321, 12494)
        );
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn generated_benchmark_has_exact_size() {
        let spec = by_name("s9234").unwrap();
        let c = spec.generate();
        assert_eq!(c.num_ffs(), spec.n_ffs);
        assert_eq!(c.num_gates(), spec.n_gates);
        assert!(c.check().is_ok());
    }

    #[test]
    fn circuit_ref_round_trips_and_materializes() {
        for id in [
            "s9234",
            "s9234@7",
            "tiny_demo:3",
            "small_demo:5",
            "medium_demo:1",
            "sized:custom:16:120:9",
        ] {
            let r = CircuitRef::parse(id).unwrap();
            assert_eq!(r.id(), id);
            assert_eq!(CircuitRef::parse(&r.id()).unwrap(), r);
        }
        let tiny = CircuitRef::parse("tiny_demo:3").unwrap();
        let c = tiny.materialize().unwrap();
        assert_eq!(c.num_ffs(), 24);
        assert_eq!(tiny.size(), Some(TINY_DEMO_SIZE));
        // Same descriptor → the same generated size and name.
        let again = tiny.materialize().unwrap();
        assert_eq!(c.num_gates(), again.num_gates());
        assert_eq!(c.name, again.name);
        // Paper refs honour explicit seeds.
        let a = CircuitRef::parse("s9234").unwrap().size();
        assert_eq!(a, Some((211, 5597)));
        // Unresolvable descriptors report no size instead of panicking.
        let ghost = CircuitRef::Paper {
            name: "removed_bench".into(),
            seed: None,
        };
        assert_eq!(ghost.size(), None);
        assert!(ghost.materialize().is_err());
    }

    #[test]
    fn circuit_ref_rejects_malformed() {
        for bad in [
            "nope",
            "tiny_demo:x",
            "huge_demo:1",
            "sized:just_name",
            "sized:z:0:10:1",
            "s9234@x",
        ] {
            assert!(CircuitRef::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn suite_names_in_table_order() {
        let names = suite_names();
        assert_eq!(names.len(), 8);
        assert_eq!(names[0], "s9234");
        assert_eq!(names[7], "pci_bridge32");
    }

    #[test]
    fn demos_are_valid() {
        for c in [tiny_demo(1), small_demo(1)] {
            assert!(c.check().is_ok());
            assert!(c
                .validate_against(&psbi_liberty::Library::industry_like())
                .is_ok());
        }
    }
}
