//! The per-region support-set branch and bound.
//!
//! Split out of the orchestration layer ([`super`]) so region *solving* is
//! a pure function of its inputs: the region's flip-flops, the
//! saturation-normalised constraints, the tuning windows and the solver
//! limits.  Nothing here reads or writes cross-chip state — memo reuse
//! happens one level up by *replaying* a cached outcome after an exact
//! key comparison, never by steering this search.
//!
//! # Pinned tie-breaking
//!
//! Minimum-count supports are often not unique.  The search returns the
//! **first optimum in a pinned depth-first order**, which makes the result
//! a deterministic function of the inputs:
//!
//! * the branch variable is the undecided endpoint covering the most
//!   uncovered violated constraints, ties broken to the **lowest region
//!   slot** (explicit in [`SupportSearch::pick_branch_var`]);
//! * the `In` branch is explored before the `Out` branch;
//! * an incumbent is only replaced by a *strictly smaller* support, so the
//!   first optimal-count support reached in that order is the one
//!   returned.
//!
//! This is what lets the memo cache a region's outcome and replay it
//! later: re-running the search on identical inputs provably reproduces
//! the cached support bit for bit.  (Seeding the search with a cached
//! incumbent instead was considered and rejected: under
//! [`SolverOptions::bb_node_cap`](super::SolverOptions::bb_node_cap) a
//! seeded search can exhaust its node budget at a different point than an
//! unseeded one and return an observably different fallback, breaking the
//! bit identity between cached and uncached runs.)
//!
//! # Pruning (node elimination that preserves the pin)
//!
//! With `prune` enabled (the default; the flow's reference mode,
//! `PSBI_REFERENCE=1`, runs the reference search) three rules cut the
//! node count.  Each one is chosen so the *returned*
//! `(count, support, witness, exact)` is provably the one the reference
//! search returns unless a region hits the node cap (below) — the pinned
//! tie-break order above is preserved, not re-pinned:
//!
//! 1. **Bitset covering bounds.**  A support must contain an endpoint of
//!    every violated constraint (both endpoints untuned ⇒ `0 ≤ bound < 0`
//!    is false), so covering is a valid relaxation.  Per-slot coverage
//!    masks over the violated constraints (`u64` words, maintained
//!    incrementally down the DFS) make two lower bounds word-cheap: the
//!    vertex-disjoint matching bound the reference search already used,
//!    and a top-k popcount bound (the fewest undecided slots whose
//!    coverage counts sum to the uncovered total).  A *valid* lower bound
//!    never changes the result: a pruned subtree contains no support
//!    strictly smaller than the incumbent, and incumbents are only
//!    replaced by strictly smaller supports, so the incumbent sequence at
//!    the nodes both searches visit is identical.
//! 2. **Symmetry classes.**  Slots `u < v` are *interchangeable* when
//!    their tuning windows are equal and swapping them maps the region's
//!    constraint multiset onto itself.  Rule: skip `v`'s `In` branch
//!    whenever such a `u` is currently `Out`.  Soundness: any support `S`
//!    with `v ∈ S, u ∉ S` reachable below maps (by the swap) to an
//!    equal-size feasible support inside `u`'s `In` subtree — and `u`
//!    being `Out` means that subtree was fully explored *earlier*
//!    (`In` before `Out`), so the incumbent is already ≤ `|S|` and the
//!    skipped subtree could not have updated it.  Branching still happens
//!    on whatever slot the pinned rule picks; interchangeable slots have
//!    equal coverage scores, so the class's lowest slot is branched first
//!    and acts as the representative.
//! 3. **Cascade lower bound.**  Once every violated constraint is covered
//!    the covering bounds go blind, yet supports must often keep growing
//!    because tuning one flip-flop violates the *tight non-violated*
//!    constraints next to it — the regime where the reference search
//!    drowns (it was the source of ~85% of its nodes on `s9234`, with the
//!    big regions exhausting `bb_node_cap`).
//!    [`SupportSearch::cascade_decide`] prices that regime: it repeatedly
//!    extracts a negative cycle from the `In`-only system and frees the
//!    cycle's undecided slots, each round proving one more slot is needed
//!    (see its docs for the argument and for the quotient-graph
//!    contraction that keeps rounds cheap).  The same call's round 0
//!    doubles as the node's `In`-only probe, byte-identical witness
//!    included.
//!
//!    *Rounds are solved once per region search.*  A round's system is
//!    fixed by the region's arcs and windows plus its active set (`In` ∪
//!    claimed slots; everything else is contracted into the root), and
//!    [`DiffSolver`] solves every call cold.  So a round's verdict and
//!    recovered cycle are a function of the active set alone, and a
//!    per-region table keyed by the exact active-set bitset answers a
//!    repeated round without a solve (most repeats are an `Out` child
//!    re-asking its parent's rounds: 74% of the rounds on the
//!    `small_jobs` grid).  Claims still read the cycle's endpoint slots
//!    through the asking node's own state, so every claim, verdict and
//!    node count is the cold search's.  The witness is the one piece of
//!    solver state the search reads: after a feasible round 0 it is
//!    copied from the solver's last solve, so a cached feasible round 0
//!    is solved again and the witness bytes stay the cold solve's.
//!
//! Because pruned nodes are a subset of the reference search's nodes,
//! the two modes return byte-identical outcomes unless a region hits
//! [`SolverOptions::bb_node_cap`](super::SolverOptions::bb_node_cap):
//! a region that exhausts the cap only in reference mode returns its
//! greedy fallback there and the proven optimum here.  The armed-only
//! counter `solve.search.node_cap_hits` counts the region searches that
//! stopped at the cap.  The CI fleet-smoke sweep leg requires it to read
//! 0 in both modes before it compares their journals byte for byte.
//!
//! # The greedy fallback
//!
//! Regions over `region_cap`, and node-capped regions without an
//! incumbent, take the greedy support of [`SupportSearch::sparsify`]
//! instead.  It drops tunings one constraint component at a time; its
//! docs show why that returns the whole-region greedy's bytes.  Both
//! paths probe through the one routine, [`SupportSearch::feasible_support`].

use super::{RegCons, NONE};
use psbi_timing::feasibility::{Arc, DiffSolver};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    In,
    Out,
    Undecided,
}

/// Node and prune counters of one region search.  Deterministic for a
/// fixed region system and prune mode (the search is a pure function);
/// aggregated into [`PassDiagnostics`](super::PassDiagnostics) and the
/// armed-only obs counters `solve.search.nodes` /
/// `solve.search.pruned.{bound,symmetry}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SearchStats {
    /// Branch-and-bound nodes visited (recursion entries).
    pub(crate) nodes: u64,
    /// Subtrees cut by the covering/matching lower bounds (including the
    /// trivial incumbent bound — also counted in reference mode).
    pub(crate) pruned_bound: u64,
    /// `In` branches skipped because a lower-slot interchangeable twin
    /// was `Out`.
    pub(crate) pruned_symmetry: u64,
    /// Feasibility probes of the greedy fallback (drop walk plus the
    /// final whole-support probe); armed-only obs counter
    /// `solve.search.fallback.probes`.
    pub(crate) fallback_probes: u64,
    /// Cascade rounds asked for; armed-only obs counter
    /// `solve.search.cascade.rounds`.
    pub(crate) cascade_rounds: u64,
    /// Cascade rounds the solver ran: the round table's misses, plus
    /// each cached feasible round 0 solved again for its witness;
    /// armed-only obs counter `solve.search.cascade.solves`.
    pub(crate) cascade_solves: u64,
}

impl SearchStats {
    /// Total subtrees eliminated by any rule.
    #[cfg(test)]
    pub(crate) fn pruned_total(&self) -> u64 {
        self.pruned_bound + self.pruned_symmetry
    }
}

/// Outcome of one region's support search.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) enum SearchPhase {
    Infeasible,
    /// Greedy (inexact) support from witness sparsification.
    Fallback {
        support: Vec<u32>,
        witness: Vec<i64>,
    },
    /// Proven-best support from the branch and bound.
    Best {
        count: usize,
        support: Vec<u32>,
        witness: Vec<i64>,
        exact: bool,
    },
}

/// Reusable buffers of the pruning machinery: coverage bitsets, the
/// incremental uncovered mask with its save/restore stack, the symmetry
/// guard links, and the cascade bound's graph and round table.  Owned by
/// the per-thread `SearchScratch` and borrowed for each region, so a
/// steady-state pass allocates nothing here.
#[derive(Debug, Default)]
pub(crate) struct PruneScratch {
    /// Words per violated-constraint bitmask.
    words: usize,
    /// Per-slot coverage masks, `slot * words ..` — bit `i` set when the
    /// slot is an in-region endpoint of the `i`-th violated constraint.
    cov: Vec<u64>,
    /// Violated constraints with no `In` endpoint yet (maintained down
    /// the DFS: `In`-branching clears the slot's coverage bits).
    uncovered: Vec<u64>,
    /// Saved `uncovered` frames of the ancestors' `In` branches.
    mask_stack: Vec<u64>,
    /// Per violated constraint: its endpoints' local slots (or `NONE`).
    vio_ends: Vec<(u32, u32)>,
    /// Flattened symmetry guard links: when a guard slot is `Out`, the
    /// owning slot's `In` branch is skipped.
    pub(crate) links: Vec<u32>,
    /// `links` range of slot `v` is `link_start[v] .. link_start[v + 1]`.
    pub(crate) link_start: Vec<u32>,
    /// Per-node scratch: undecided slots' uncovered-coverage popcounts.
    cover: Vec<u32>,
    /// Per-node scratch: OR of the undecided slots' coverage masks.
    reach: Vec<u64>,
    /// Matching scratch: slots already claimed by a matched constraint.
    used: Vec<bool>,
    /// Incidence index over *all* region constraints (twin detection
    /// compares whole rows, bounds included, not just violated ones).
    inc_start: Vec<u32>,
    inc: Vec<u32>,
    inc_cursor: Vec<u32>,
    /// Pairwise twin-check scratch: original and swapped incident rows.
    pair_orig: Vec<(u32, u32, i64)>,
    pair_swap: Vec<(u32, u32, i64)>,
    pair_idx: Vec<u32>,
    /// Cascade-bound scratch: the full-region constraint graph (every
    /// slot a vertex, out-of-region endpoints contracted to the root),
    /// built once per region.
    casc_arcs: Vec<Arc>,
    /// Cascade-bound scratch: per-slot windows of the current iteration.
    casc_bounds: Vec<(i64, i64)>,
    /// Cascade-bound scratch: one negative cycle's arc indices.
    cycle: Vec<u32>,
    /// Cascade-bound scratch: active slots (In ∪ freed), ascending.
    casc_active: Vec<u32>,
    /// Cascade-bound scratch: slot → dense index (or `NONE`).
    casc_dense: Vec<u32>,
    /// Cascade-bound scratch: dense arc → template arc provenance.
    casc_prov: Vec<u32>,
    /// Cascade-bound scratch: the contracted arc list per round.
    dense_arcs: Vec<Arc>,
    /// Cascade-bound scratch: the current round's active set (`In` ∪
    /// claimed slots), a bitset over the region's slots and the
    /// [`RoundTable`] key.
    casc_key: Vec<u64>,
    /// The cascade rounds this region search has solved, by active set;
    /// cleared by [`SupportSearch::prepare_prune`].
    rounds: RoundTable,
    /// Test hooks on the round table's lookups.
    #[cfg(test)]
    pub(crate) audit: RoundAudit,
}

/// Test hooks on [`SupportSearch::cascade_decide`]'s table lookups.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct RoundAudit {
    /// Every lookup misses, so every round runs the solver: the cold
    /// search the table is compared against.
    pub(crate) force_miss: bool,
    /// Re-solve every hit cold, on a solver of its own so the search's
    /// solver state is untouched, and compare it with the cached round.
    pub(crate) check_hits: bool,
    /// Hits checked, and those whose cold solve differed in verdict,
    /// cycle recovery or the set of cycle endpoint slots.
    pub(crate) hits: u64,
    pub(crate) mismatches: u64,
    solver: DiffSolver,
}

/// One cascade round's result.  It is a function of the round's active
/// set alone (see [`SupportSearch::cascade_decide`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// A violated constraint has no active endpoint; the solver did not
    /// run.
    Unknown,
    /// The contracted system is feasible.
    Feasible,
    /// The contracted system is infeasible.  The table's
    /// `ends[start..end]` holds the region-slot endpoints of the
    /// recovered cycle's constraint arcs, in cycle order; `cycle` is
    /// false when no cycle was recovered (the range is then empty).
    Infeasible { start: u32, end: u32, cycle: bool },
}

/// The cascade rounds one region search has solved, keyed by active set:
/// `words` `u64`s of slot bits per key, compared exactly.  Open
/// addressing with linear probing over `index`.  The buffers keep their
/// capacity across regions, so a steady-state pass allocates nothing
/// here.
#[derive(Debug, Default)]
struct RoundTable {
    /// Words per key: the region's slot count over 64, rounded up.
    words: usize,
    /// Entry `e`'s key is `keys[e * words..(e + 1) * words]`.
    keys: Vec<u64>,
    /// Entry `e`'s round.
    rounds: Vec<Round>,
    /// Cycle endpoint slots of the infeasible rounds (see [`Round`]).
    ends: Vec<u32>,
    /// Per bucket: entry index + 1, or 0 when empty.  A power of two
    /// long, and at most half full.
    index: Vec<u32>,
}

impl RoundTable {
    const MIN_BUCKETS: usize = 16;

    /// Empties the table for a region of `slots` slots.
    fn reset(&mut self, slots: usize) {
        self.words = slots.div_ceil(64);
        self.keys.clear();
        self.rounds.clear();
        self.ends.clear();
        self.index.clear();
        self.index.resize(Self::MIN_BUCKETS, 0);
    }

    fn key(&self, e: usize) -> &[u64] {
        &self.keys[e * self.words..(e + 1) * self.words]
    }

    /// The entry holding `key`, or the empty bucket where it goes.
    fn find(&self, key: &[u64]) -> Result<usize, usize> {
        let mut h = 0u64;
        for &w in key {
            h = (h.rotate_left(26) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let mask = self.index.len() - 1;
        // Multiplicative hashing: the top bits mix every key bit.
        let mut b = (h >> (64 - self.index.len().trailing_zeros())) as usize;
        loop {
            match self.index[b] {
                0 => return Err(b),
                e if self.key(e as usize - 1) == key => return Ok(e as usize - 1),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Adds `key → round` at the empty `bucket` that [`Self::find`]
    /// returned for it.
    fn insert(&mut self, bucket: usize, key: &[u64], round: Round) {
        self.keys.extend_from_slice(key);
        self.rounds.push(round);
        self.index[bucket] = self.rounds.len() as u32;
        if 2 * self.rounds.len() > self.index.len() {
            let buckets = 2 * self.index.len();
            self.index.clear();
            self.index.resize(buckets, 0);
            for e in 0..self.rounds.len() {
                let Err(b) = self.find(self.key(e)) else {
                    unreachable!("keys are distinct")
                };
                self.index[b] = e as u32 + 1;
            }
        }
    }
}

/// Reusable buffers of the greedy fallback: the connected components of
/// the region's surviving constraint graph and the per-component buckets
/// its drop walk reads.  Owned by the per-thread `SearchScratch` like
/// [`PruneScratch`], so a steady-state pass allocates nothing here.
#[derive(Debug, Default)]
pub(crate) struct ComponentScratch {
    /// Union-find parent per slot; every root is its set's lowest slot.
    parent: Vec<u32>,
    /// Per slot: its component label, or `NONE` when no constraint
    /// touches it.  Labels ascend with each component's lowest slot.
    label: Vec<u32>,
    /// Component `k`'s slots, ascending: `slots[slot_start[k]..slot_start[k + 1]]`.
    slot_start: Vec<u32>,
    slots: Vec<u32>,
    /// Component `k`'s constraints, in region order (same indexing).
    cons_start: Vec<u32>,
    cons: Vec<RegCons>,
    /// Component `k`'s drop candidates, in the pinned drop order.
    cand_start: Vec<u32>,
    cands: Vec<u32>,
    /// The region's drop candidates before bucketing.
    order: Vec<u32>,
    /// Bucket fill cursors.
    cursor: Vec<u32>,
}

impl ComponentScratch {
    /// Labels the connected components of the region's surviving
    /// constraint graph and buckets the region's slots, its constraints
    /// and its drop candidates by component.  A constraint joins two
    /// components only when both of its endpoints are region slots;
    /// `local` maps an FF to its slot.  The candidates are the touched
    /// slots the relaxation witness tunes, each bucket in the pinned
    /// order: |value| ascending, ties to the lower slot.  Returns the
    /// component count.
    fn split(
        &mut self,
        cons: &[RegCons],
        full_witness: &[i64],
        local: impl Fn(u32) -> Option<usize>,
    ) -> usize {
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let up = parent[parent[x as usize] as usize];
                parent[x as usize] = up;
                x = up;
            }
            x
        }
        let m = full_witness.len();
        self.parent.clear();
        self.parent.extend(0..m as u32);
        self.label.clear();
        self.label.resize(m, NONE);
        for c in cons {
            let (la, lb) = (local(c.a), local(c.b));
            for l in [la, lb].into_iter().flatten() {
                self.label[l] = 0; // touched; labelled below
            }
            if let (Some(a), Some(b)) = (la, lb) {
                let (ra, rb) = (
                    find(&mut self.parent, a as u32),
                    find(&mut self.parent, b as u32),
                );
                self.parent[ra.max(rb) as usize] = ra.min(rb);
            }
        }
        // Ascending slots meet each component's root (its lowest slot)
        // before any other member.
        let mut k = 0u32;
        for s in 0..m {
            if self.label[s] == NONE {
                continue;
            }
            let r = find(&mut self.parent, s as u32) as usize;
            self.label[s] = if r == s {
                k += 1;
                k - 1
            } else {
                self.label[r]
            };
        }
        let k = k as usize;
        let label = &self.label;
        bucket(
            0..m as u32,
            |s| label[s as usize],
            k,
            &mut self.slot_start,
            &mut self.cursor,
            &mut self.slots,
        );
        bucket(
            cons.iter().copied(),
            |c| local(c.a).or(local(c.b)).map_or(NONE, |l| label[l]),
            k,
            &mut self.cons_start,
            &mut self.cursor,
            &mut self.cons,
        );
        self.order.clear();
        self.order.extend(
            (0..m as u32).filter(|&i| full_witness[i as usize] != 0 && label[i as usize] != NONE),
        );
        self.order
            .sort_unstable_by_key(|&i| (full_witness[i as usize].abs(), i));
        bucket(
            self.order.iter().copied(),
            |i| label[i as usize],
            k,
            &mut self.cand_start,
            &mut self.cursor,
            &mut self.cands,
        );
        k
    }

    /// Component `k`'s `(candidates, slots, constraints)`.
    fn component(&self, k: usize) -> (&[u32], &[u32], &[RegCons]) {
        let range = |start: &[u32]| start[k] as usize..start[k + 1] as usize;
        (
            &self.cands[range(&self.cand_start)],
            &self.slots[range(&self.slot_start)],
            &self.cons[range(&self.cons_start)],
        )
    }
}

/// Stable counting sort of `items` into `k` buckets by `key` (`NONE`
/// drops an item): bucket `b` is `out[start[b]..start[b + 1]]`, in input
/// order.
fn bucket<T: Copy + Default>(
    items: impl Iterator<Item = T> + Clone,
    key: impl Fn(T) -> u32,
    k: usize,
    start: &mut Vec<u32>,
    cursor: &mut Vec<u32>,
    out: &mut Vec<T>,
) {
    start.clear();
    start.resize(k + 1, 0);
    for x in items.clone() {
        let b = key(x);
        if b != NONE {
            start[b as usize + 1] += 1;
        }
    }
    for b in 0..k {
        start[b + 1] += start[b];
    }
    cursor.clear();
    cursor.extend_from_slice(&start[..k]);
    out.clear();
    out.resize(start[k] as usize, T::default());
    for x in items {
        let b = key(x);
        if b != NONE {
            out[cursor[b as usize] as usize] = x;
            cursor[b as usize] += 1;
        }
    }
}

/// Drives one region's support search to a [`SearchPhase`].
pub(crate) fn run_support_search(
    search: &mut SupportSearch<'_>,
    m: usize,
    region_cap: usize,
) -> SearchPhase {
    let mut state = vec![Decision::Undecided; m];
    // Quick relaxation check with everything allowed.
    if !search.feasible_support(&state, true, search.all_slots(), search.cons) {
        return SearchPhase::Infeasible;
    }
    let mut full_witness = Vec::new();
    search.solver.copy_witness(m, &mut full_witness);
    if m > region_cap {
        // Region too large for exact search: sparsify the full witness
        // greedily (drop small tunings while feasibility holds).
        let (support, witness) = search.sparsify(&mut state, &full_witness);
        return SearchPhase::Fallback { support, witness };
    }
    if search.prune {
        search.prepare_prune();
    }
    search.recurse(&mut state, true);
    match search.best.take() {
        Some((count, support, witness)) => SearchPhase::Best {
            count,
            support,
            witness,
            exact: search.exact,
        },
        None if !search.exact => {
            // Node cap exhausted with no incumbent: fall back to the
            // sparsified relaxation witness.
            let (support, witness) = search.sparsify(&mut state, &full_witness);
            SearchPhase::Fallback { support, witness }
        }
        None => SearchPhase::Infeasible,
    }
}

/// Verdict of one [`SupportSearch::cascade_decide`] run.
enum Cascade {
    /// The round-0 solve — byte-identical to the `In`-only probe — was
    /// feasible: `In` alone is a support and the witness is in the solver.
    InFeasible,
    /// The node is pruned: any completion needs `≥ best` slots.
    Prune,
    /// A later round saw a feasible completion — which also proves the
    /// full relaxation feasible, so the relaxed probe can be skipped.
    Feasible,
    /// Round 0 was infeasible and no incumbent set a round target; the
    /// `In`-only verdict is settled but nothing else is.
    Exhausted,
    /// No verdict (defensive path); fall back to the legacy probes.
    Unknown,
}

/// Branch-and-bound over support sets.
pub(crate) struct SupportSearch<'a> {
    pub(crate) solver: &'a mut DiffSolver,
    /// Per FF: its slot in this region, or `NONE` (borrowed from
    /// [`super::SampleSolver`]; only the endpoints of `cons` are read).
    pub(crate) slot_of: &'a [u32],
    pub(crate) region_ffs: &'a [u32],
    pub(crate) cons: &'a [RegCons],
    pub(crate) violated: &'a [usize],
    pub(crate) bounds: &'a [(i64, i64)],
    /// `(count, support ffs, witness values per support entry)`.
    pub(crate) best: Option<(usize, Vec<u32>, Vec<i64>)>,
    pub(crate) node_cap: usize,
    pub(crate) exact: bool,
    /// Symmetry/bitset/cascade pruning on (the production default) or
    /// off (the byte-parity reference mode, `PSBI_REFERENCE=1`).
    pub(crate) prune: bool,
    pub(crate) stats: SearchStats,
    /// Per-node scratch, borrowed from [`super::SampleSolver`] for the
    /// region's lifetime and reused by every feasibility probe.
    pub(crate) vars_scratch: &'a mut Vec<u32>,
    pub(crate) slot_scratch: &'a mut Vec<u32>,
    pub(crate) arcs_scratch: &'a mut Vec<Arc>,
    pub(crate) bounds_scratch: &'a mut Vec<(i64, i64)>,
    pub(crate) ps: &'a mut PruneScratch,
    pub(crate) comps: &'a mut ComponentScratch,
}

impl SupportSearch<'_> {
    /// Greedy fallback for regions the branch and bound does not solve
    /// (over `region_cap`, or node-capped with no incumbent).  Starts
    /// from the relaxation witness's nonzero slots and drops tunings,
    /// smallest |value| first (ties to the lower slot), while the
    /// region's system stays feasible.  Returns `(support, witness
    /// values)`; the witness is that of one final whole-support probe.
    ///
    /// The walk runs one connected component of the surviving constraint
    /// graph at a time, and it returns the support the region-wide
    /// one-at-a-time greedy returns, byte for byte.  Components share
    /// only the root, and a simple negative cycle passes the root at
    /// most once, so it lies inside one component: the region's system
    /// is feasible exactly when every component's is.  The walk starts
    /// from a feasible state and keeps it feasible, so each region-wide
    /// drop verdict is the verdict of the dropped slot's own component,
    /// which only earlier drops in that component have changed.  Keeping
    /// the pinned order within each component therefore reproduces every
    /// verdict.  A slot no surviving constraint touches is its own
    /// empty component: dropping it always succeeds, so it drops with no
    /// probe.
    fn sparsify(&mut self, state: &mut [Decision], full_witness: &[i64]) -> (Vec<u32>, Vec<i64>) {
        let _obs = super::stage_obs("solve.search.fallback");
        let mut cs = std::mem::take(self.comps);
        let k = cs.split(self.cons, full_witness, |ff| self.local_of(ff));
        for ((d, &w), &label) in state.iter_mut().zip(full_witness).zip(&cs.label) {
            // An untouched slot drops with no probe.
            *d = if w != 0 && label != NONE {
                Decision::In
            } else {
                Decision::Out
            };
        }
        for c in 0..k {
            let (cands, slots, cons) = cs.component(c);
            self.drop_batch(state, cands, slots, cons);
        }
        *self.comps = cs;
        let support: Vec<u32> = state
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == Decision::In)
            .map(|(i, _)| self.region_ffs[i])
            .collect();
        self.stats.fallback_probes += 1;
        assert!(
            self.feasible_support(state, false, self.all_slots(), self.cons),
            "sparsify only removes while feasibility holds"
        );
        let mut witness = Vec::new();
        self.solver.copy_witness(support.len(), &mut witness);
        (support, witness)
    }

    /// Drops a run of one component's candidates with one probe of that
    /// component (`slots`, `cons`) when the whole run drops cleanly, and
    /// bisects on failure.  This returns what dropping the run one slot
    /// at a time returns.  Support-set feasibility is monotone: a
    /// support's witness stays valid when more slots are freed.  So a
    /// run that drops cleanly would also drop slot by slot, and the left
    /// half is always settled before the right, which is the sequential
    /// order.  All-droppable runs cost one probe instead of one per slot.
    fn drop_batch(
        &mut self,
        state: &mut [Decision],
        batch: &[u32],
        slots: &[u32],
        cons: &[RegCons],
    ) {
        if batch.is_empty() {
            return;
        }
        for &i in batch {
            state[i as usize] = Decision::Out;
        }
        self.stats.fallback_probes += 1;
        if self.feasible_support(state, false, slots.iter().copied(), cons) {
            return;
        }
        if batch.len() == 1 {
            state[batch[0] as usize] = Decision::In;
            return;
        }
        for &i in batch {
            state[i as usize] = Decision::In;
        }
        let (left, right) = batch.split_at(batch.len() / 2);
        self.drop_batch(state, left, slots, cons);
        self.drop_batch(state, right, slots, cons);
    }

    /// Every region slot, ascending: the whole-region probe scope.
    fn all_slots(&self) -> std::ops::Range<u32> {
        0..self.region_ffs.len() as u32
    }

    /// The search's one feasibility probe: is support = In (or In ∪
    /// Undecided when `relaxed`) feasible for the constraints `cons`
    /// over the slots `scope`?  `scope` must hold every region slot that
    /// `cons` touches.  The branch and bound probes the whole region
    /// ([`Self::all_slots`], all constraints), the fallback one
    /// component.  Excluded slots and FFs outside the region are pinned
    /// to zero as the root.
    ///
    /// Builds the subsystem in the reusable scratch buffers; the witness of
    /// a feasible check can be read back with `solver.copy_witness` (the
    /// variables are the included slots in `scope` order).
    fn feasible_support(
        &mut self,
        state: &[Decision],
        relaxed: bool,
        scope: impl IntoIterator<Item = u32>,
        cons: &[RegCons],
    ) -> bool {
        self.vars_scratch.clear();
        self.slot_scratch.resize(state.len(), NONE);
        for i in scope {
            let i = i as usize;
            let included = match state[i] {
                Decision::In => true,
                Decision::Undecided => relaxed,
                Decision::Out => false,
            };
            self.slot_scratch[i] = if included {
                self.vars_scratch.push(self.region_ffs[i]);
                self.vars_scratch.len() as u32 - 1
            } else {
                NONE
            };
        }
        let root = self.vars_scratch.len() as u32;
        self.arcs_scratch.clear();
        for c in cons {
            let la = self.local_of(c.a);
            let lb = self.local_of(c.b);
            let slot = &self.slot_scratch;
            let va = la.map_or(root, |l| if slot[l] != NONE { slot[l] } else { root });
            let vb = lb.map_or(root, |l| if slot[l] != NONE { slot[l] } else { root });
            if va == root && vb == root {
                if c.bound < 0 {
                    return false;
                }
                continue;
            }
            // k(a) − k(b) ≤ bound  →  arc b → a with weight bound.
            self.arcs_scratch.push(Arc::new(vb, va, c.bound));
        }
        self.bounds_scratch.clear();
        self.bounds_scratch
            .extend(self.vars_scratch.iter().map(|&ff| self.bounds[ff as usize]));
        self.solver.decide_bounded(
            self.vars_scratch.len(),
            self.arcs_scratch,
            self.bounds_scratch,
        )
    }

    #[inline]
    fn local_of(&self, ff: u32) -> Option<usize> {
        let v = self.slot_of[ff as usize];
        (v != NONE).then_some(v as usize)
    }

    fn in_count(state: &[Decision]) -> usize {
        state.iter().filter(|d| **d == Decision::In).count()
    }

    /// Matching-based lower bound: violated constraints not covered by In
    /// whose endpoints are still undecided each need one more buffer, and
    /// vertex-disjoint ones need distinct buffers.
    fn matching_lb(&self, state: &[Decision]) -> usize {
        let mut used = vec![false; state.len()];
        let mut lb = 0usize;
        for &v in self.violated {
            let c = &self.cons[v];
            let la = self.local_of(c.a);
            let lb_ = self.local_of(c.b);
            let covered = [la, lb_]
                .iter()
                .any(|l| l.is_some_and(|i| state[i] == Decision::In));
            if covered {
                continue;
            }
            // Usable endpoints: undecided, unused so far.
            let mut usable: Vec<usize> = Vec::new();
            for l in [la, lb_].into_iter().flatten() {
                if state[l] == Decision::Undecided && !used[l] {
                    usable.push(l);
                }
            }
            if usable.is_empty() {
                continue; // handled by feasibility pruning
            }
            // Claim both endpoints so the next edge must be disjoint.
            for l in [la, lb_].into_iter().flatten() {
                used[l] = true;
            }
            lb += 1;
        }
        lb
    }

    /// One-time pruning setup for a region that will branch: coverage
    /// bitsets, the root uncovered mask, the symmetry guard links, the
    /// cascade graph and an empty round table.  Only runs with `prune` on, after the root relaxation
    /// check, for regions within `region_cap` (≤ 48 slots by default, so
    /// the pairwise twin scan is small).
    pub(crate) fn prepare_prune(&mut self) {
        let m = self.region_ffs.len();
        let nv = self.violated.len();
        let slot_of = self.slot_of;
        let region_ffs = self.region_ffs;
        let cons = self.cons;
        let violated = self.violated;
        let bounds = self.bounds;
        let local = |ff: u32| -> u32 {
            let v = slot_of[ff as usize];
            if v != NONE && (v as usize) < m {
                v
            } else {
                NONE
            }
        };
        // Cover and cascade arcs skip slotless constraints; the walk attaches member edges only.
        debug_assert!(
            cons.iter()
                .all(|c| local(c.a) != NONE || local(c.b) != NONE),
            "a constraint without an endpoint in its region reached the search"
        );
        let words = nv.div_ceil(64);
        let ps = &mut *self.ps;
        ps.words = words;
        ps.cov.clear();
        ps.cov.resize(m * words, 0);
        ps.vio_ends.clear();
        for (bit, &vidx) in violated.iter().enumerate() {
            let c = &cons[vidx];
            let (la, lb) = (local(c.a), local(c.b));
            ps.vio_ends.push((la, lb));
            let (w, b) = (bit / 64, bit % 64);
            if la != NONE {
                ps.cov[la as usize * words + w] |= 1u64 << b;
            }
            if lb != NONE && lb != la {
                ps.cov[lb as usize * words + w] |= 1u64 << b;
            }
        }
        ps.uncovered.clear();
        ps.uncovered.resize(words, 0);
        for bit in 0..nv {
            ps.uncovered[bit / 64] |= 1u64 << (bit % 64);
        }
        ps.mask_stack.clear();
        ps.cover.clear();
        ps.used.clear();
        ps.used.resize(m, false);

        // Incidence lists over the full constraint system (twin rows are
        // compared bounds and all, not just the violated subset).
        ps.inc_start.clear();
        ps.inc_start.resize(m + 1, 0);
        for c in cons {
            let (la, lb) = (local(c.a), local(c.b));
            if la != NONE {
                ps.inc_start[la as usize + 1] += 1;
            }
            if lb != NONE && lb != la {
                ps.inc_start[lb as usize + 1] += 1;
            }
        }
        for i in 0..m {
            ps.inc_start[i + 1] += ps.inc_start[i];
        }
        ps.inc.clear();
        ps.inc.resize(ps.inc_start[m] as usize, 0);
        ps.inc_cursor.clear();
        ps.inc_cursor.extend_from_slice(&ps.inc_start[..m]);
        for (ci, c) in cons.iter().enumerate() {
            let (la, lb) = (local(c.a), local(c.b));
            if la != NONE {
                let cur = &mut ps.inc_cursor[la as usize];
                ps.inc[*cur as usize] = ci as u32;
                *cur += 1;
            }
            if lb != NONE && lb != la {
                let cur = &mut ps.inc_cursor[lb as usize];
                ps.inc[*cur as usize] = ci as u32;
                *cur += 1;
            }
        }

        // Guard links.  For every slot v (ascending — `link_start` is a
        // prefix index) find the lower interchangeable slots whose `Out`
        // makes v's `In` branch redundant (the lowest slot is the class
        // representative).
        ps.links.clear();
        ps.link_start.clear();
        ps.link_start.push(0);
        for v in 0..m {
            let wv = bounds[region_ffs[v] as usize];
            for u in 0..v {
                if bounds[region_ffs[u] as usize] != wv {
                    continue;
                }
                // Degree prefilter: a swap maps v's row onto u's.
                let deg = |s: usize| ps.inc_start[s + 1] - ps.inc_start[s];
                if deg(u) != deg(v) {
                    continue;
                }
                // Exact swap-invariance of the incident rows: constraints
                // touching neither slot map to themselves, so comparing
                // the union of the two incident lists (deduped — a
                // constraint between the twins is in both) under the
                // global-id swap decides invariance of the whole system.
                ps.pair_idx.clear();
                ps.pair_idx.extend_from_slice(
                    &ps.inc[ps.inc_start[u] as usize..ps.inc_start[u + 1] as usize],
                );
                ps.pair_idx.extend_from_slice(
                    &ps.inc[ps.inc_start[v] as usize..ps.inc_start[v + 1] as usize],
                );
                ps.pair_idx.sort_unstable();
                ps.pair_idx.dedup();
                let (fu, fv) = (region_ffs[u], region_ffs[v]);
                let swap = |ff: u32| {
                    if ff == fu {
                        fv
                    } else if ff == fv {
                        fu
                    } else {
                        ff
                    }
                };
                ps.pair_orig.clear();
                ps.pair_swap.clear();
                for &ci in &ps.pair_idx {
                    let c = &cons[ci as usize];
                    ps.pair_orig.push((c.a, c.b, c.bound));
                    ps.pair_swap.push((swap(c.a), swap(c.b), c.bound));
                }
                ps.pair_orig.sort_unstable();
                ps.pair_swap.sort_unstable();
                if ps.pair_orig == ps.pair_swap {
                    ps.links.push(u as u32);
                }
            }
            ps.link_start.push(ps.links.len() as u32);
        }

        // Cascade-bound graph: every slot a vertex (out-of-region
        // endpoints contracted to the root index `m`), all constraints.
        // Built once; only the per-slot windows change per probe.
        ps.casc_arcs.clear();
        for c in cons {
            let (la, lb) = (local(c.a), local(c.b));
            let va = if la == NONE { m as u32 } else { la };
            let vb = if lb == NONE { m as u32 } else { lb };
            if va == m as u32 && vb == m as u32 {
                continue; // both outside: root-only, no cycle through slots
            }
            // k(a) − k(b) ≤ bound  →  arc b → a with weight bound.
            ps.casc_arcs.push(Arc::new(vb, va, c.bound));
        }
        ps.rounds.reset(m);
    }

    /// Combined `In`-only probe and cascade lower bound for the regime
    /// the covering bound is blind to: every violated constraint is
    /// covered, yet the support must still grow because tuning cascades
    /// along tight non-violated constraints.
    ///
    /// Semantically each round solves the full-region system where `In`
    /// and freed slots carry their real windows and everything else is
    /// pinned to zero.  A variable pinned to `[0, 0]` is identified with
    /// the root, so the solve runs on the *contracted* quotient graph —
    /// vertices are just the active (`In` ∪ freed) slots — which keeps
    /// the per-round cost proportional to the active set, not the
    /// region.  (A negative cycle of the pinned graph splices into
    /// contracted cycles at the root by dropping its non-negative
    /// root-internal arcs, so infeasibility detection is exact; pinned
    /// slots on the original cycle reappear as the contracted cycle
    /// arcs' original endpoints, which is what claiming needs.)
    ///
    /// Round 0's active set is exactly the `In` slots in ascending slot
    /// order and its arc list matches [`Self::feasible_support`]'s
    /// assembly arc for arc, so a feasible round 0 *is* the `In`-only
    /// probe: same system, same fixpoint distances, byte-identical
    /// witness ([`Cascade::InFeasible`]).
    ///
    /// On an infeasible round, any feasible completion must include an
    /// unclaimed undecided slot appearing on the recovered cycle: slots
    /// already freed carry their widest windows (tightening them only
    /// makes the cycle more negative), `In` slots are in every
    /// completion, and pinned slots a completion leaves out stay
    /// pinned — so avoiding the claimable set keeps the cycle negative.
    /// Each round frees all such slots and proves the support needs one
    /// more slot; `extra` rounds prove `≥ in_count + extra`.  Returns
    /// [`Cascade::Prune`] when `extra` reaches `target = best −
    /// in_count`, or when a cycle has no claimable slot at all — then no
    /// completion is feasible.  [`Cascade::Feasible`] carries a proof
    /// the caller reuses: the probe was feasible with only a *subset* of
    /// the undecided slots freed, and pinning the rest to zero extends
    /// any such witness to the full relaxation — so the relaxed probe is
    /// known feasible and need not run.
    ///
    /// Rounds repeat: a node's `Out` child keeps its `In` set, so it
    /// re-asks the parent's round 0 and often its later rounds.  A
    /// round's system is fixed by the region's arcs and windows plus its
    /// active set, and [`DiffSolver`] solves each call cold, so the
    /// round's [`Round`] — verdict, cycle recovery and the cycle's
    /// endpoint slots — is a function of the active set alone.  The
    /// region's [`RoundTable`] keeps each one, and the solver runs only
    /// on a miss.  Claims read the cached endpoints through this node's
    /// own state, exactly as they read a fresh cycle, so every verdict
    /// and claim is the cold one.  The one read of solver state is the
    /// witness [`Self::record_incumbent`] takes after a feasible round
    /// 0, so a cached feasible round 0 is solved again.
    fn cascade_decide(&mut self, state: &[Decision], target: Option<usize>) -> Cascade {
        let m = state.len();
        let ps = &mut *self.ps;
        ps.casc_key.clear();
        ps.casc_key.resize(m.div_ceil(64), 0);
        for (i, d) in state.iter().enumerate() {
            if *d == Decision::In {
                ps.casc_key[i / 64] |= 1 << (i % 64);
            }
        }
        let mut extra = 0usize;
        loop {
            self.stats.cascade_rounds += 1;
            #[cfg(test)]
            if self.ps.audit.force_miss {
                self.ps.rounds.reset(m);
            }
            let round = match self.ps.rounds.find(&self.ps.casc_key) {
                Ok(e) => {
                    let round = self.ps.rounds.rounds[e];
                    #[cfg(test)]
                    self.audit_hit(m, round);
                    if extra == 0 && round == Round::Feasible {
                        // The witness must be this system's.
                        self.stats.cascade_solves += 1;
                        let again = self.solve_round(m);
                        debug_assert_eq!(again, Round::Feasible);
                    }
                    round
                }
                Err(bucket) => {
                    let round = self.solve_round(m);
                    if round != Round::Unknown {
                        self.stats.cascade_solves += 1;
                    }
                    let ps = &mut *self.ps;
                    ps.rounds.insert(bucket, &ps.casc_key, round);
                    round
                }
            };
            let (start, end, target) = match round {
                Round::Unknown => return Cascade::Unknown,
                Round::Feasible if extra == 0 => return Cascade::InFeasible,
                Round::Feasible => return Cascade::Feasible,
                Round::Infeasible { start, end, cycle } => {
                    let Some(target) = target else {
                        return Cascade::Exhausted; // no incumbent: verdict only
                    };
                    if !cycle {
                        return Cascade::Unknown; // defensive: no cycle recovered
                    }
                    (start as usize, end as usize, target)
                }
            };
            // Claim the pinned-undecided endpoints of the cycle's
            // constraint arcs (window arcs only touch active slots).  An
            // undecided slot is active exactly when an earlier round
            // claimed it.
            let ps = &mut *self.ps;
            let mut any = false;
            for &v in &ps.rounds.ends[start..end] {
                let (w, bit) = (v as usize / 64, 1 << (v % 64));
                if state[v as usize] == Decision::Undecided && ps.casc_key[w] & bit == 0 {
                    ps.casc_key[w] |= bit;
                    any = true;
                }
            }
            if !any {
                return Cascade::Prune; // dead: no completion breaks this cycle
            }
            extra += 1;
            if extra >= target {
                return Cascade::Prune;
            }
        }
    }

    /// Solves the round whose active set is `casc_key` on the contracted
    /// graph, appending an infeasible round's cycle endpoints to the
    /// round table's `ends`.  A [`Round::Unknown`] runs no solve.
    fn solve_round(&mut self, m: usize) -> Round {
        let ps = &mut *self.ps;
        ps.casc_active.clear();
        ps.casc_dense.clear();
        ps.casc_dense.resize(m, NONE);
        for (w, &bits) in ps.casc_key.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ps.casc_dense[i] = ps.casc_active.len() as u32;
                ps.casc_active.push(i as u32);
            }
        }
        let root = ps.casc_active.len() as u32;
        ps.dense_arcs.clear();
        ps.casc_prov.clear();
        for (t, a) in ps.casc_arcs.iter().enumerate() {
            let map = |v: u32| {
                if v == m as u32 {
                    root
                } else {
                    let dv = ps.casc_dense[v as usize];
                    if dv == NONE {
                        root
                    } else {
                        dv
                    }
                }
            };
            let (f, to) = (map(a.from), map(a.to));
            if f == root && to == root {
                if a.weight < 0 {
                    // A violated constraint with no active endpoint:
                    // impossible once covered (the gate), so bail to the
                    // legacy probes rather than reason further.
                    return Round::Unknown;
                }
                continue; // 0 ≤ weight: never binding, drop
            }
            ps.dense_arcs.push(Arc::new(f, to, a.weight));
            ps.casc_prov.push(t as u32);
        }
        ps.casc_bounds.clear();
        for &slot in &ps.casc_active {
            ps.casc_bounds
                .push(self.bounds[self.region_ffs[slot as usize] as usize]);
        }
        if self.solver.decide_bounded_cycle(
            ps.casc_active.len(),
            &ps.dense_arcs,
            &ps.casc_bounds,
            &mut ps.cycle,
        ) {
            return Round::Feasible;
        }
        let start = ps.rounds.ends.len() as u32;
        let nd = ps.dense_arcs.len();
        for &k in &ps.cycle {
            let k = k as usize;
            if k >= nd {
                continue;
            }
            let a = &ps.casc_arcs[ps.casc_prov[k] as usize];
            for v in [a.from, a.to] {
                if (v as usize) < m {
                    ps.rounds.ends.push(v);
                }
            }
        }
        Round::Infeasible {
            start,
            end: ps.rounds.ends.len() as u32,
            cycle: !ps.cycle.is_empty(),
        }
    }

    /// Re-solves a table hit cold on the audit's own solver and counts a
    /// mismatch when the verdict, the cycle recovery or the set of cycle
    /// endpoint slots differs from the cached round.
    #[cfg(test)]
    fn audit_hit(&mut self, m: usize, cached: Round) {
        if !self.ps.audit.check_hits {
            return;
        }
        std::mem::swap(self.solver, &mut self.ps.audit.solver);
        let before = self.ps.rounds.ends.len();
        let cold = self.solve_round(m);
        std::mem::swap(self.solver, &mut self.ps.audit.solver);
        let ends = &self.ps.rounds.ends;
        let set = |range: std::ops::Range<usize>| {
            let mut slots = ends[range].to_vec();
            slots.sort_unstable();
            slots.dedup();
            slots
        };
        let same = match (cached, cold) {
            (
                Round::Infeasible { start, end, cycle },
                Round::Infeasible {
                    start: s,
                    end: e,
                    cycle: c,
                },
            ) => cycle == c && set(start as usize..end as usize) == set(s as usize..e as usize),
            (a, b) => a == b,
        };
        self.ps.rounds.ends.truncate(before);
        self.ps.audit.hits += 1;
        self.ps.audit.mismatches += u64::from(!same);
    }

    /// Whether the symmetry rule lets `v`'s `In` branch be skipped at the
    /// current state: some lower interchangeable twin is `Out`.
    fn in_skip(&self, v: usize, state: &[Decision]) -> bool {
        let s = self.ps.link_start[v] as usize;
        let e = self.ps.link_start[v + 1] as usize;
        self.ps.links[s..e]
            .iter()
            .any(|&u| state[u as usize] == Decision::Out)
    }

    /// Bitset lower bound on *additional* support slots: the max of the
    /// vertex-disjoint matching bound and the top-k covering bound over
    /// the uncovered violated constraints.  `None` means the node is
    /// dead — some uncovered constraint has no undecided in-region
    /// endpoint left, so no completion can be feasible.
    fn bitset_lb(&mut self, state: &[Decision]) -> Option<usize> {
        let words = self.ps.words;
        let total: u32 = self.ps.uncovered.iter().map(|w| w.count_ones()).sum();
        if total == 0 {
            return Some(0);
        }
        // Matching: iterate uncovered violated constraints ascending (the
        // same order as the reference scan) claiming disjoint endpoints.
        for u in self.ps.used.iter_mut() {
            *u = false;
        }
        let mut matching = 0usize;
        for (bit, &(la, lb)) in self.ps.vio_ends.iter().enumerate() {
            if self.ps.uncovered[bit / 64] & (1u64 << (bit % 64)) == 0 {
                continue;
            }
            let mut usable = false;
            for l in [la, lb] {
                if l != NONE
                    && state[l as usize] == Decision::Undecided
                    && !self.ps.used[l as usize]
                {
                    usable = true;
                }
            }
            if !usable {
                continue;
            }
            for l in [la, lb] {
                if l != NONE {
                    self.ps.used[l as usize] = true;
                }
            }
            matching += 1;
        }
        // Top-k covering: undecided slots' uncovered-coverage popcounts,
        // largest first, until they sum to the uncovered total.  Also
        // detects dead nodes (an uncovered constraint no undecided slot
        // can reach).
        self.ps.cover.clear();
        self.ps.reach.clear();
        self.ps.reach.resize(words, 0);
        for (i, d) in state.iter().enumerate() {
            if *d != Decision::Undecided {
                continue;
            }
            let mut cnt = 0u32;
            for w in 0..words {
                let bits = self.ps.cov[i * words + w] & self.ps.uncovered[w];
                self.ps.reach[w] |= bits;
                cnt += bits.count_ones();
            }
            if cnt > 0 {
                self.ps.cover.push(cnt);
            }
        }
        let reach: u32 = self.ps.reach.iter().map(|w| w.count_ones()).sum();
        if reach < total {
            return None; // dead: some violated constraint is uncoverable
        }
        self.ps.cover.sort_unstable_by(|a, b| b.cmp(a));
        let mut need = 0usize;
        let mut got = 0u32;
        for &c in &self.ps.cover {
            need += 1;
            got += c;
            if got >= total {
                break;
            }
        }
        Some(matching.max(need))
    }

    fn recurse(&mut self, state: &mut Vec<Decision>, relaxed_ok: bool) {
        self.stats.nodes += 1;
        if self.stats.nodes > self.node_cap as u64 {
            self.exact = false;
            return;
        }
        let in_count = Self::in_count(state);
        if self.prune {
            // Dead-node and lower-bound pruning on the bitset machinery.
            // A dead node (uncoverable violated constraint) is pruned
            // even without an incumbent — the reference search would
            // fail its relaxation probe there and return all the same.
            match self.bitset_lb(state) {
                None => {
                    self.stats.pruned_bound += 1;
                    return;
                }
                Some(lb) => {
                    if let Some((best, _, _)) = &self.best {
                        if in_count >= *best || in_count + lb >= *best {
                            self.stats.pruned_bound += 1;
                            return;
                        }
                    }
                }
            }
        } else if let Some((best, _, _)) = &self.best {
            if in_count >= *best {
                self.stats.pruned_bound += 1;
                return;
            }
            if in_count + self.matching_lb(state) >= *best {
                self.stats.pruned_bound += 1;
                return;
            }
        }
        // Probe order differs by mode but the pruned set of surviving
        // nodes is identical (see the module docs): In-only feasibility
        // implies relaxed feasibility (every excluded slot can take
        // tuning 0, which every window contains), so checking In-only
        // first never accepts a node the reference would reject.  The
        // pruned path defers the relaxed probe to last so nodes killed
        // by the cascade bound never pay a relaxation solve.
        if self.prune {
            let mut relaxed_known = relaxed_ok;
            let mut in_only_settled = false;
            // Post-covering regime: the merged probe answers the In-only
            // question (round 0) and, with an incumbent, runs the cascade
            // rounds the covering bound is blind to.  Before coverage the
            // In-only probe fails during assembly for pennies and
            // `bitset_lb` is the cheaper bound, so the legacy probes run.
            if self.ps.uncovered.iter().all(|&w| w == 0) {
                let target = self
                    .best
                    .as_ref()
                    .map(|(best, _, _)| best.saturating_sub(in_count));
                match self.cascade_decide(state, target) {
                    Cascade::InFeasible => {
                        self.record_incumbent(state);
                        return;
                    }
                    Cascade::Prune => {
                        self.stats.pruned_bound += 1;
                        return;
                    }
                    Cascade::Feasible => {
                        relaxed_known = true;
                        in_only_settled = true;
                    }
                    Cascade::Exhausted => in_only_settled = true,
                    Cascade::Unknown => {}
                }
            }
            // Is In alone already enough?
            if !in_only_settled && self.feasible_support(state, false, self.all_slots(), self.cons)
            {
                self.record_incumbent(state);
                return;
            }
            // Relaxation: can anything still work?  An `In` branch keeps
            // the parent's included set (In ∪ Undecided) unchanged, so
            // the parent's feasible verdict carries over probe-free —
            // as does a cascade round that saw a feasible completion.
            if !relaxed_known && !self.feasible_support(state, true, self.all_slots(), self.cons) {
                return;
            }
        } else {
            // Relaxation: can anything still work?
            if !relaxed_ok && !self.feasible_support(state, true, self.all_slots(), self.cons) {
                return;
            }
            // Is In alone already enough?
            if self.feasible_support(state, false, self.all_slots(), self.cons) {
                self.record_incumbent(state);
                return;
            }
        }
        // Branch: pick an undecided endpoint of an uncovered violated
        // constraint; fall back to any undecided vertex.
        let pick = self.pick_branch_var(state);
        let Some(v) = pick else {
            return; // everything decided yet infeasible with In
        };
        if self.prune && self.in_skip(v, state) {
            self.stats.pruned_symmetry += 1;
        } else {
            state[v] = Decision::In;
            if self.prune {
                let words = self.ps.words;
                let base = self.ps.mask_stack.len();
                for w in 0..words {
                    let cur = self.ps.uncovered[w];
                    self.ps.mask_stack.push(cur);
                    self.ps.uncovered[w] = cur & !self.ps.cov[v * words + w];
                }
                self.recurse(state, true);
                for w in 0..words {
                    self.ps.uncovered[w] = self.ps.mask_stack[base + w];
                }
                self.ps.mask_stack.truncate(base);
            } else {
                self.recurse(state, true);
            }
        }
        state[v] = Decision::Out;
        self.recurse(state, false);
        state[v] = Decision::Undecided;
    }

    /// Installs the current `In` set as the incumbent when it is strictly
    /// smaller than the best so far.  Must run directly after a feasible
    /// In-only probe: the witness is read from the solver's last solve.
    fn record_incumbent(&mut self, state: &[Decision]) {
        let support: Vec<u32> = state
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == Decision::In)
            .map(|(i, _)| self.region_ffs[i])
            .collect();
        let better = self
            .best
            .as_ref()
            .is_none_or(|(c, _, _)| support.len() < *c);
        if better {
            // Witness values of support vars, in support order.
            let mut values = Vec::new();
            self.solver.copy_witness(support.len(), &mut values);
            self.best = Some((support.len(), support, values));
        }
    }

    /// The pinned branch rule (see the module docs): the undecided
    /// variable appearing in the most uncovered violated constraints,
    /// ties broken to the lowest region slot.  The pruned path computes
    /// the identical score by popcount over the coverage masks, so both
    /// modes branch the same variable at any shared state.
    fn pick_branch_var(&self, state: &[Decision]) -> Option<usize> {
        if self.prune {
            let words = self.ps.words;
            let mut best: Option<(u32, usize)> = None;
            for (i, d) in state.iter().enumerate() {
                if *d != Decision::Undecided {
                    continue;
                }
                let mut s = 0u32;
                for w in 0..words {
                    s += (self.ps.cov[i * words + w] & self.ps.uncovered[w]).count_ones();
                }
                if s > 0 && best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
            return best.map(|(_, i)| i).or_else(|| self.fallback_var(state));
        }
        let mut score = vec![0usize; state.len()];
        for &v in self.violated {
            let c = &self.cons[v];
            let la = self.local_of(c.a);
            let lb = self.local_of(c.b);
            let covered = [la, lb]
                .iter()
                .any(|l| l.is_some_and(|i| state[i] == Decision::In));
            if covered {
                continue;
            }
            for l in [la, lb].into_iter().flatten() {
                if state[l] == Decision::Undecided {
                    score[l] += 1;
                }
            }
        }
        let mut best: Option<(usize, usize)> = None; // (score, slot)
        for (i, s) in score.iter().enumerate() {
            if *s > 0 && state[i] == Decision::Undecided && best.is_none_or(|(bs, _)| *s > bs) {
                best = Some((*s, i));
            }
        }
        best.map(|(_, i)| i).or_else(|| self.fallback_var(state))
    }

    /// Fallback branch rule once every violated constraint is covered:
    /// the first undecided slot (part of the pinned branch order).
    fn fallback_var(&self, state: &[Decision]) -> Option<usize> {
        state.iter().position(|d| *d == Decision::Undecided)
    }
}

#[cfg(test)]
mod tests;
