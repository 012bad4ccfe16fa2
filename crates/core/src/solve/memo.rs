//! The cross-chip region-solve memo table — the solver's one cache tier.
//!
//! Monte-Carlo chips drawn from one variation model concentrate onto a
//! small number of distinct violated-endpoint patterns, and the
//! saturation-normalised constraint walk (see
//! [`attach_cons`](super::SampleSolver::attach_cons)) collapses their
//! non-binding slack drift on top — so one flow re-derives the *same*
//! region subproblem hundreds of times: across chips of one pass, across
//! the passes of one chip (A1 → A3 → B1 → B2 share most region systems),
//! and, through the shared [`WorkspacePool`](crate::flow::WorkspacePool),
//! across the sweep targets of one circuit's fleet job group.  One table
//! keyed by the exact region system dedups all three.
//!
//! # Correctness model
//!
//! A region search outcome is a **pure function** of the saturation-
//! normalised region system — the pinned tie-breaking of the support
//! search (see [`super::search`]) makes the returned support a
//! deterministic function of exactly the inputs captured in [`MemoKey`]:
//!
//! * the region's flip-flops in pinned BFS order (the search's slot
//!   numbering),
//! * every attached constraint as `(a, b, saturation-normalised bound)`
//!   in attachment order (the violated set and the feasibility systems
//!   are all derived from these),
//! * each region FF's tuning window,
//! * the [`SolverOptions`] limits (`bb_node_cap` bounds the search;
//!   `region_cap` decides whether the region is keyed at all, see below).
//!
//! Replay is **verified**: a hit requires *exact value equality* on the
//! full key — the hash only picks the shard and the bucket (the standard
//! `HashMap` compares the complete key on every probe), never the answer.
//! A memo hit therefore returns a bit-identical outcome regardless of
//! which worker computed it first, which is what keeps flow results and
//! fleet journals byte-identical for any worker count and with the table
//! detached (reference mode, `PSBI_REFERENCE=1`).
//!
//! # What is memoised
//!
//! Only regions the branch and bound solves: those with at most
//! [`SolverOptions::region_cap`] flip-flops.  [`MemoKey::capture`]
//! returns `None` for a larger region, so it is never keyed, looked up
//! or published.
//!
//! * **Nothing is lost.**  An oversized region never enters the branch
//!   and bound: its outcome is the greedy
//!   [`sparsify`](super::search::SupportSearch::sparsify) fallback over
//!   the relaxation witness.  A replay would save one fallback call and
//!   no search node, while its key would copy, hash and store every
//!   attached constraint.  On an s38584 Table I cell at the mean period,
//!   2 072 of the 2 194 regions are oversized; keying them held a third
//!   of the process's peak memory (63 against 42 MiB), and none of them
//!   was ever replayed.
//! * **Nothing observable moves.**  An outcome is a pure function of
//!   its key, so a region solved fresh returns the bytes a replay would
//!   have: results, journals and reports are unchanged.  The workload
//!   counters do not depend on the memo's scope either.
//!   [`PassDiagnostics::regions_total`] and
//!   [`PassDiagnostics::regions_saturated`] are counted before the
//!   lookup, and [`PassDiagnostics::search_nodes`] only inside the
//!   branch and bound, which an oversized region never reaches.  Only
//!   [`PassDiagnostics::cross_chip_hits`] can fall, by the replays of
//!   oversized regions it used to count.
//!
//! # Concurrency
//!
//! The table is sharded: the key hash selects one of [`SHARDS`] mutexes,
//! so concurrent workers only contend when they touch the same slice of
//! the key space.  Publishes race benignly — both racers computed the
//! same pure function, so first-writer-wins inserts an outcome any loser
//! would have inserted bit for bit.  Outcomes are stored (and handed
//! out) behind `Arc`, so a hit never copies the support/witness vectors.

use super::{BufferSpace, Region, SolverOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Workload and cache-efficacy counters of one sampling pass, aggregated
/// over chips.
///
/// The workload counters are deterministic (order-free sums over
/// per-chip events).  [`PassDiagnostics::cross_chip_hits`] — and, through
/// it, [`PassDiagnostics::search_nodes`] — is **not** with more than one
/// worker: whether a chip hits the shared memo table depends on which
/// racing worker published the key first.  None of it is part of any
/// canonical output surface — the counters differ between the default
/// and the reference mode (`PSBI_REFERENCE=1`), so journals and canonical
/// reports must never embed them.
///
/// Per-stage wall times live in the `psbi_obs` metrics histograms
/// (`solve.stage.discovery` / `.screen` / `.materialize` / `.search` /
/// `.milp`), recorded only when the registry is armed, so the disarmed
/// solve pays no clock reads at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PassDiagnostics {
    /// Regions processed (counted once per round they participate in).
    pub regions_total: u64,
    /// Regions larger than [`SolverOptions::region_cap`], solved by the
    /// inexact sparsified-witness fallback.
    pub regions_saturated: u64,
    /// Always 0: the per-chip cache tier that counted decomposition
    /// replays is gone.  Kept only because the benchmark ledger still
    /// reads it; its next change drops the field.
    pub regions_reused: u64,
    /// Always 0, for the same reason as
    /// [`PassDiagnostics::regions_reused`].
    pub supports_rehit: u64,
    /// Regions whose search outcome was replayed from the flow-level memo
    /// table — published by any chip of any pass, this chip's own earlier
    /// passes included.  Only regions within
    /// [`SolverOptions::region_cap`] are memoised (see [`RegionMemo`]),
    /// so an oversized region never counts here.  Schedule-dependent with
    /// more than one worker; results never are.
    pub cross_chip_hits: u64,
    /// Branch-and-bound nodes visited by fresh region searches.  Each
    /// search's count is a deterministic function of its region system
    /// and the prune mode, but the *sum* inherits the memo caveat above:
    /// a racy memo hit skips a search entirely.  Single-worker runs are
    /// exactly reproducible (what the perf gate pins).
    pub search_nodes: u64,
    /// Subtrees cut by the covering/matching/cascade lower bounds.
    pub search_pruned_bound: u64,
    /// `In` branches skipped by symmetry breaking (lower-slot
    /// interchangeable twin already explored).
    pub search_pruned_symmetry: u64,
}

impl PassDiagnostics {
    /// Accumulates another pass/chunk worth of counters.
    pub fn merge(&mut self, other: &Self) {
        self.regions_total += other.regions_total;
        self.regions_saturated += other.regions_saturated;
        self.regions_reused += other.regions_reused;
        self.supports_rehit += other.supports_rehit;
        self.cross_chip_hits += other.cross_chip_hits;
        self.search_nodes += other.search_nodes;
        self.search_pruned_bound += other.search_pruned_bound;
        self.search_pruned_symmetry += other.search_pruned_symmetry;
    }
}

/// Push-independent search outcome of one region (the part of a region
/// solve that [`PushObjective`](super::PushObjective) does not
/// influence) — what the memo stores, behind `Arc` so publishing or
/// replaying an outcome never copies the support/witness vectors.
#[derive(Debug, Clone)]
pub(crate) enum CachedOutcome {
    /// The region (at this radius) admits no feasible support.
    Infeasible,
    /// A support was found.
    Feasible {
        /// Support size (the paper's per-chip `n_k` contribution).
        count: usize,
        /// The support FFs, in pinned search order.
        support: Vec<u32>,
        /// Witness tuning per support entry.
        witness: Vec<i64>,
        /// Whether the search proved optimality.
        exact: bool,
    },
}

/// Shard count: enough to make cross-worker contention rare at realistic
/// core counts while keeping the empty table's footprint trivial.
const SHARDS: usize = 64;

/// The exact value of one saturation-normalised region system — the full
/// read set of the region search, and therefore the complete invalidation
/// key of its outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    /// Region FFs in pinned BFS order (global indices; the table is
    /// owner-keyed per flow, so indices never meet a foreign graph).
    ffs: Box<[u32]>,
    /// Attached constraints `(a, b, saturation-normalised bound)` in
    /// attachment order.
    cons: Box<[(u32, u32, i64)]>,
    /// Tuning windows over `ffs`, in the same order.
    bounds: Box<[(i64, i64)]>,
    /// Solver limits the search runs under.
    ///
    /// The search-prune mode is deliberately *not* part of the key: the
    /// shipped workloads produce bit-identical outcomes in both modes
    /// (the pruning rules preserve the pinned tie-break order — see
    /// `super::search`), so keying on it would only split the memo and
    /// halve the hit rate when modes mix within one process.
    opts: SolverOptions,
}

impl MemoKey {
    /// Captures the exact search inputs of `region` (its FFs and attached
    /// constraints) under the windows of `space`, or `None` when the
    /// region is over `opts.region_cap` and so is not memoised (see the
    /// module docs).
    pub(crate) fn capture(
        region: &Region,
        space: &BufferSpace,
        opts: &SolverOptions,
    ) -> Option<Self> {
        if region.ffs.len() > opts.region_cap {
            return None;
        }
        Some(Self {
            ffs: region.ffs.as_slice().into(),
            cons: region
                .cons
                .iter()
                .map(|c| (c.a, c.b, c.bound))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            bounds: region
                .ffs
                .iter()
                .map(|&ff| space.bounds[ff as usize])
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            opts: *opts,
        })
    }

    /// The shard this key lives in.  Any deterministic hash works here —
    /// it only spreads keys over mutexes; equality is always checked on
    /// the full key value.
    fn shard(&self) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() as usize) % SHARDS
    }
}

/// A flow-level (optionally fleet-level) concurrent memo table of region
/// search outcomes, keyed by the exact saturation-normalised region
/// system.
///
/// It holds only regions the branch and bound solves, those within
/// [`SolverOptions::region_cap`]: an oversized region's greedy fallback
/// costs less than its key, which copies every attached constraint, and
/// its outcome is a pure function of that key, so leaving it out changes
/// no result.
///
/// One table serves **one** flow — it is owner-keyed in the
/// [`WorkspacePool`](crate::flow::WorkspacePool), so a cached region can
/// never be replayed against a different circuit's graph.  It is shared
/// (`Arc`) rather than checked out exclusively: concurrent `run_target`
/// calls of one flow — a fleet sweeping several sigma targets of one
/// circuit in parallel — all read and publish into the same table.
#[derive(Default)]
pub struct RegionMemo {
    shards: Vec<Mutex<HashMap<MemoKey, Arc<CachedOutcome>>>>,
}

impl RegionMemo {
    /// An empty table.
    pub fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || Mutex::new(HashMap::new()));
        Self { shards }
    }

    /// Number of distinct region systems memoised so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard lock").len())
            .sum()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the outcome memoised for exactly `key` (full value
    /// equality; the hash only locates the shard/bucket).
    pub(crate) fn lookup(&self, key: &MemoKey) -> Option<Arc<CachedOutcome>> {
        self.shards[key.shard()]
            .lock()
            .expect("memo shard lock")
            .get(key)
            .map(Arc::clone)
    }

    /// Publishes a freshly searched outcome.  First writer wins: a racing
    /// publish for the same key computed the same pure function, so the
    /// retained value is bit-identical either way.
    pub(crate) fn publish(&self, key: MemoKey, outcome: Arc<CachedOutcome>) {
        self.shards[key.shard()]
            .lock()
            .expect("memo shard lock")
            .entry(key)
            .or_insert(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::super::RegCons;
    use super::*;

    fn region(ffs: &[u32], cons: &[RegCons]) -> Region {
        Region {
            ffs: ffs.to_vec(),
            cons: cons.to_vec(),
            saturated: false,
        }
    }

    fn space(n: usize) -> BufferSpace {
        BufferSpace::floating(n, 10)
    }

    #[test]
    fn lookup_requires_full_key_equality() {
        let memo = RegionMemo::new();
        let opts = SolverOptions::default();
        let sp = space(4);
        let cons = vec![
            RegCons {
                a: 0,
                b: 1,
                bound: -3,
            },
            RegCons {
                a: 1,
                b: 2,
                bound: 20,
            },
        ];
        let key = MemoKey::capture(&region(&[0, 1, 2], &cons), &sp, &opts).unwrap();
        memo.publish(key.clone(), Arc::new(CachedOutcome::Infeasible));
        assert_eq!(memo.len(), 1);
        assert!(memo.lookup(&key).is_some());

        // Any single-component difference must miss: a shifted bound …
        let mut shifted = cons.clone();
        shifted[0].bound = -2;
        let miss = MemoKey::capture(&region(&[0, 1, 2], &shifted), &sp, &opts).unwrap();
        assert!(memo.lookup(&miss).is_none());
        // … a different FF order (slots renumber) …
        let miss = MemoKey::capture(&region(&[1, 0, 2], &cons), &sp, &opts).unwrap();
        assert!(memo.lookup(&miss).is_none());
        // … a different window …
        let mut narrow = space(4);
        narrow.bounds[1] = (-1, 1);
        let miss = MemoKey::capture(&region(&[0, 1, 2], &cons), &narrow, &opts).unwrap();
        assert!(memo.lookup(&miss).is_none());
        // … or different solver limits.
        let capped = SolverOptions {
            bb_node_cap: 7,
            ..opts
        };
        let miss = MemoKey::capture(&region(&[0, 1, 2], &cons), &sp, &capped).unwrap();
        assert!(memo.lookup(&miss).is_none());
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn first_publish_wins_and_len_counts_distinct_keys() {
        let memo = RegionMemo::new();
        let opts = SolverOptions::default();
        let sp = space(2);
        let cons = vec![RegCons {
            a: 0,
            b: 1,
            bound: -1,
        }];
        let key = MemoKey::capture(&region(&[0, 1], &cons), &sp, &opts).unwrap();
        let first = Arc::new(CachedOutcome::Feasible {
            count: 1,
            support: vec![0],
            witness: vec![-1],
            exact: true,
        });
        memo.publish(key.clone(), Arc::clone(&first));
        memo.publish(key.clone(), Arc::new(CachedOutcome::Infeasible));
        assert_eq!(memo.len(), 1);
        let hit = memo.lookup(&key).expect("published");
        assert!(Arc::ptr_eq(&hit, &first), "first writer must win");
    }
}
