//! The per-sample buffer-minimisation solver.
//!
//! For one Monte-Carlo sample the paper solves two ILPs (eqs. (8)–(13) and
//! (14)–(17)): first minimise the number of adjusted buffers `Σ c_i`, then
//! — with that count as a budget — minimise the total tuning magnitude.
//! This module solves the same problems exactly but exploits their
//! structure:
//!
//! * **Localisation.** Only constraints violated at `x = 0` force tunings.
//!   In any *minimal* solution, every connected component of the tuned set
//!   (in the constraint graph) touches a violated constraint — otherwise
//!   zeroing that component keeps feasibility and is smaller.  A component
//!   of `m` tuned buffers therefore lies within `m` hops of a violated
//!   endpoint, so solving inside a radius-`R` region is globally optimal as
//!   soon as the optimum count is `≤ R`; the region is grown until that
//!   holds (or it saturates its connected component, proving
//!   infeasibility).
//! * **Support-set branch and bound.** Inside a region the search branches
//!   on "buffer is adjusted / not adjusted" (the `search` module).
//!   Feasibility of a candidate support is a bounded difference-constraint
//!   system — [`psbi_timing::DiffSolver`] decides it in near-linear time —
//!   and a matching over still-uncovered violated constraints gives a
//!   vertex-cover lower bound.  Tie-breaking in the search is pinned (see
//!   `search`), so the returned support is a pure function of the region
//!   system — the property memo replay relies on.
//! * **Value concentration.** With the budget fixed, `min Σ|x_i − a_i|` is
//!   solved as a MILP ([`psbi_milp`]) with indicator constraints — the
//!   exact formulation of the paper's eqs. (14)–(21) — on the small region,
//!   warm-started with the search's known-feasible witness (identically
//!   for fresh and replayed outcomes, so the warm start is result-neutral).
//!
//! # Entry surface and the memo tier
//!
//! [`SampleSolver::solve`] is the single entry point: it takes a
//! [`SolveRequest`] carrying the constraint view, the buffer space, the
//! push objective, the limits and, optionally, the flow-level
//! [`RegionMemo`].  Region *discovery* (violation collection, BFS region
//! growth, the components and each member's slot) is split from region
//! *solving*.  Between them one constraint walk per round leaves every
//! region solve-ready, its saturation-normalised system attached (see
//! `SampleSolver::attach_cons`).  A region within
//! [`SolverOptions::region_cap`] is then looked up in the memo; only a
//! miss runs the support search (publishing its outcome for every later
//! chip, pass and sweep target of the flow).  A larger region is never
//! keyed: it skips the branch and bound for the greedy fallback, which
//! costs less than capturing, hashing and storing its key.  A hit is an
//! exact-key replay of a pure function, so results are bit-identical
//! with the memo attached or not, and whichever regions it holds.
//!
//! The generic big-M MILP formulation of the whole problem is also
//! available ([`SampleSolver::solve_reference_milp`]) and is used by tests
//! to cross-validate the specialised path.

use crate::yield_eval::ChipCheck;
use psbi_milp::{Model, Op, Status};
use psbi_timing::feasibility::{Arc as FeasArc, DiffSolver};
use psbi_timing::{ConstraintsView, IntegerConstraints, SequentialGraph, Violation};
use std::sync::Arc;

mod memo;
mod search;
#[cfg(test)]
mod tests;

use memo::{CachedOutcome, MemoKey};
pub use memo::{PassDiagnostics, RegionMemo};
use search::{
    run_support_search, ComponentScratch, PruneScratch, SearchPhase, SearchStats, SupportSearch,
};

/// One solver stage's observability guards: a trace span plus a
/// wall-clock histogram timer under the same name (`solve.stage.*`:
/// discovery, screen, materialize — the constraint walk, memo key
/// capture and lookup — search and milp; and `solve.search.fallback`
/// nested inside the search stage).  Both are
/// single-relaxed-load no-ops while disarmed — the solve reads no clock
/// at all unless the obs registry or trace sink is armed.
struct StageObs {
    _span: psbi_obs::Span,
    _timer: psbi_obs::metrics::Timer,
}

#[inline]
fn stage_obs(name: &'static str) -> StageObs {
    StageObs {
        _span: psbi_obs::Span::enter(name),
        _timer: psbi_obs::metrics::timer(name),
    }
}

/// Which buffers exist and their tuning windows (in steps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSpace {
    /// Per FF: does it (still) have a tuning buffer?
    pub has_buffer: Vec<bool>,
    /// Per FF: inclusive tuning bounds in steps (only meaningful where
    /// `has_buffer`).  Must contain 0 so that "not adjusted" is feasible.
    pub bounds: Vec<(i64, i64)>,
}

impl BufferSpace {
    /// Every FF gets a buffer with the paper's step-1 floating window: the
    /// window of width `steps` must contain both 0 and the tuning value, so
    /// the value ranges over `[-steps, steps]`.
    pub fn floating(n_ffs: usize, steps: i64) -> Self {
        Self {
            has_buffer: vec![true; n_ffs],
            bounds: vec![(-steps, steps); n_ffs],
        }
    }

    /// Number of FFs with buffers.
    pub fn num_buffers(&self) -> usize {
        self.has_buffer.iter().filter(|b| **b).count()
    }

    /// Validates that all active windows contain zero.
    ///
    /// # Errors
    ///
    /// Returns the index of the first offending FF.
    pub fn validate(&self) -> Result<(), usize> {
        for (i, has) in self.has_buffer.iter().enumerate() {
            if *has {
                let (lo, hi) = self.bounds[i];
                if lo > 0 || hi < 0 {
                    return Err(i);
                }
            }
        }
        Ok(())
    }
}

/// Secondary objective after the buffer count is minimised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PushObjective<'a> {
    /// Stop after minimising the count (paper §III-A1 / §III-B1).
    None,
    /// Minimise `Σ|x_i|` (paper §III-A3).
    ToZero,
    /// Minimise `Σ|x_i − a_i|` with per-FF targets (paper §III-B2).
    ToTargets(&'a [f64]),
}

/// Tunable solver limits.
///
/// `Eq`/`Hash` because the options are part of every region-memo key:
/// two region systems solved under different limits may legitimately
/// return different (fallback) outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct SolverOptions {
    /// Initial region radius (hops around violated constraints).
    pub region_radius: usize,
    /// Hard cap on FFs per region (beyond it results are marked inexact).
    pub region_cap: usize,
    /// Maximum branch-and-bound nodes per region before greedy fallback.
    pub bb_node_cap: usize,
    /// Regions larger than this solve the concentration MILP on the fixed
    /// optimal support instead of branching over supports.
    pub exact_push_cap: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            region_radius: 2,
            region_cap: 48,
            bb_node_cap: 3_000,
            exact_push_cap: 14,
        }
    }
}

/// Solution of one sample.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleResult {
    /// Can this chip be configured at all (with the given buffer space)?
    pub feasible: bool,
    /// Whether the result is proven optimal (greedy fallbacks clear this).
    pub exact: bool,
    /// Nonzero tunings `(ff_index, steps)`.
    pub tunings: Vec<(u32, i64)>,
}

impl SampleResult {
    /// Number of adjusted buffers (the paper's `n_k`).
    pub fn count(&self) -> usize {
        self.tunings.len()
    }

    /// A chip that needs no tuning (`feasible`) or cannot be tuned at all.
    pub(crate) fn untuned(feasible: bool) -> Self {
        Self {
            feasible,
            exact: true,
            tunings: Vec::new(),
        }
    }
}

/// Normalised constraint `k(a) − k(b) ≤ bound` with FF endpoints.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RegCons {
    a: u32,
    b: u32,
    bound: i64,
}

/// Reusable per-sample solver (one per worker thread).
///
/// Every workspace the per-chip pipeline needs — the saturation screen's
/// feasibility check, region scratch and the branch-and-bound's SPFA
/// solver and per-node buffers — lives in this struct and is reused across
/// chips, so a steady-state pass performs no per-chip allocation outside
/// the result vectors themselves.  Workspaces are checked out racily per
/// chunk, so nothing keyed to a chip identity lives here; what carries
/// across chips and passes is the caller's [`RegionMemo`].
#[derive(Debug, Default)]
pub struct SampleSolver {
    /// The whole-chip saturation screen's feasibility check.
    check: ChipCheck,
    /// Scratch: per-FF slot in its region of the current round (its index
    /// in [`Region::ffs`]), or `NONE` outside every region.
    slot_of: Vec<u32>,
    /// Scratch: visited stamp for BFS.
    dist: Vec<u32>,
    /// Scratch: violated constraints of the current chip.
    violated: Vec<Violation>,
    /// Scratch: per-edge visit stamp for region-constraint attachment.
    edge_stamp: Vec<u32>,
    /// Current epoch for `edge_stamp`.
    epoch: u32,
    /// The region-search workspace.
    search: SearchScratch,
}

const NONE: u32 = u32::MAX;

/// Per-round accumulator of the region growth loop.
struct RoundAcc {
    tunings: Vec<(u32, i64)>,
    exact: bool,
    need_radius: usize,
}

/// Reusable workspace of one region search: a difference-constraint
/// solver plus the per-node buffers every feasibility probe shares.
/// Searches are warm-state independent by contract (the memo relies on
/// exactly that purity), so what an earlier search left here can never
/// change an outcome.
#[derive(Debug, Default)]
struct SearchScratch {
    diff: DiffSolver,
    /// Per-node scratch reused by every support-search probe.
    ss_vars: Vec<u32>,
    ss_slot: Vec<u32>,
    ss_arcs: Vec<FeasArc>,
    ss_bounds: Vec<(i64, i64)>,
    /// Pruning-machinery buffers (coverage bitsets, guard links).
    ss_prune: PruneScratch,
    /// Greedy-fallback buffers (constraint components and their buckets).
    ss_comps: ComponentScratch,
}

impl SearchScratch {
    /// Region-*solving* half: the support branch and bound, as a pure
    /// function of (region FFs, attached constraints, tuning windows,
    /// limits).  `slot_of` maps each FF of `ffs` to its index there and
    /// every other endpoint of `cons` to `NONE`.  The outcome is
    /// push-independent — what makes it cacheable across passes with
    /// different objectives — and warm-state independent.
    fn search_region(
        &mut self,
        ffs: &[u32],
        cons: &[RegCons],
        slot_of: &[u32],
        space: &BufferSpace,
        opts: &SolverOptions,
        prune: bool,
    ) -> (CachedOutcome, SearchStats) {
        let m = ffs.len();
        let violated_local: Vec<usize> = cons
            .iter()
            .enumerate()
            .filter(|(_, c)| c.bound < 0)
            .map(|(i, _)| i)
            .collect();

        // Branch and bound over supports.  The per-node buffers (variable
        // maps, arc and bound arrays) are borrowed from this scratch, so
        // thousands of feasibility probes share four allocations.
        let mut search = SupportSearch {
            solver: &mut self.diff,
            slot_of,
            region_ffs: ffs,
            cons,
            violated: &violated_local,
            bounds: &space.bounds,
            best: None,
            node_cap: opts.bb_node_cap,
            exact: true,
            prune,
            stats: SearchStats::default(),
            vars_scratch: &mut self.ss_vars,
            slot_scratch: &mut self.ss_slot,
            arcs_scratch: &mut self.ss_arcs,
            bounds_scratch: &mut self.ss_bounds,
            ps: &mut self.ss_prune,
            comps: &mut self.ss_comps,
        };
        let phase = run_support_search(&mut search, m, opts.region_cap);
        let stats = search.stats;
        // Only the node cap clears `exact` during the search.
        let capped = !search.exact;
        // Armed-only observability (byte-neutral): node and probe counts
        // are deterministic per region system + prune mode, unlike wall
        // time.  A cap hit is the one way the pruned and the reference
        // search can return different bytes.
        psbi_obs::metrics::counter_add("solve.search.nodes", stats.nodes);
        psbi_obs::metrics::counter_add("solve.search.node_cap_hits", u64::from(capped));
        psbi_obs::metrics::counter_add("solve.search.fallback.probes", stats.fallback_probes);
        psbi_obs::metrics::counter_add("solve.search.pruned.bound", stats.pruned_bound);
        psbi_obs::metrics::counter_add("solve.search.pruned.symmetry", stats.pruned_symmetry);
        let outcome = match phase {
            SearchPhase::Infeasible => CachedOutcome::Infeasible,
            SearchPhase::Fallback { support, witness } => CachedOutcome::Feasible {
                count: support.len(),
                support,
                witness,
                exact: false,
            },
            SearchPhase::Best {
                count,
                support,
                witness,
                exact,
            } => CachedOutcome::Feasible {
                count,
                support,
                witness,
                exact,
            },
        };
        (outcome, stats)
    }
}

/// One sample solve, fully described: the chip's constraint system, the
/// buffer space, the push objective, the solver limits, and the optional
/// cross-chip memo.
///
/// Build with [`SolveRequest::new`], then chain [`SolveRequest::memo`]
/// and [`SolveRequest::search_prune`] as needed.  The result is
/// bit-identical with or without the memo.
pub struct SolveRequest<'a> {
    sg: &'a SequentialGraph,
    ic: ConstraintsView<'a>,
    space: &'a BufferSpace,
    push: PushObjective<'a>,
    opts: &'a SolverOptions,
    memo: Option<&'a RegionMemo>,
    search_prune: bool,
}

impl<'a> SolveRequest<'a> {
    /// A request without a memo, searching with pruning on.
    pub fn new(
        sg: &'a SequentialGraph,
        ic: ConstraintsView<'a>,
        space: &'a BufferSpace,
        push: PushObjective<'a>,
        opts: &'a SolverOptions,
    ) -> Self {
        Self {
            sg,
            ic,
            space,
            push,
            opts,
            memo: None,
            search_prune: true,
        }
    }

    /// Attaches the flow-level cross-chip [`RegionMemo`].
    #[must_use]
    pub fn memo(mut self, memo: &'a RegionMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Enables or disables the search's symmetry / bitset / cascade
    /// pruning rules (see the `search` module docs).  On by default; both
    /// modes return bit-identical results — the off mode is the
    /// byte-parity oracle the flow's reference mode runs.  Deliberately
    /// **not** part of [`SolverOptions`]: the options struct keys every
    /// region-memo entry, and two prune modes of the same region system
    /// produce the same outcome, so keying on the mode would only split
    /// the memo for nothing.
    #[must_use]
    pub fn search_prune(mut self, on: bool) -> Self {
        self.search_prune = on;
        self
    }
}

/// Result of one [`SampleSolver::solve`]: the sample's solution plus the
/// counters the solve accumulated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolveOutcome {
    /// The sample's solution.
    pub result: SampleResult,
    /// Workload / cache-efficacy counters of this solve (see
    /// [`PassDiagnostics`] for which of them are deterministic).
    pub diag: PassDiagnostics,
}

impl SampleSolver {
    /// Creates a solver with empty workspaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves one sample end to end: minimum buffer count, then
    /// (optionally) value concentration, replaying region outcomes from
    /// the request's memo where it has them.
    pub fn solve(&mut self, req: SolveRequest<'_>) -> SolveOutcome {
        debug_assert_eq!(req.space.has_buffer.len(), req.sg.n_ffs);
        // 1. Violated constraints at x = 0 — the chip's fingerprint
        // (reused scratch).
        let mut violated = std::mem::take(&mut self.violated);
        {
            let _obs = stage_obs("solve.stage.discovery");
            req.ic.collect_violations(req.sg, &mut violated);
        }
        let mut diag = PassDiagnostics::default();
        let result = self.solve_violated(&req, &violated, &mut diag);
        self.violated = violated;
        SolveOutcome { result, diag }
    }

    /// Everything after violation discovery: the unfixable-pair check,
    /// the whole-chip saturation screen, then the region growth rounds.
    fn solve_violated(
        &mut self,
        req: &SolveRequest<'_>,
        violated: &[Violation],
        diag: &mut PassDiagnostics,
    ) -> SampleResult {
        if violated.is_empty() {
            return SampleResult::untuned(true);
        }
        // A violated constraint between two bufferless FFs is unfixable.
        let has = &req.space.has_buffer;
        if violated
            .iter()
            .any(|v| !has[v.a as usize] && !has[v.b as usize])
        {
            return SampleResult::untuned(false);
        }
        // 2. Infeasibility screen at full saturation: if the chip cannot be
        // configured even with *every* buffer free, no region growth can
        // help (a negative cycle stays negative), so decide this once with
        // a single SPFA instead of growing regions toward it.
        let fixable = {
            let _obs = stage_obs("solve.stage.screen");
            self.chip_fixable(req.sg, req.ic, req.space)
        };
        if !fixable {
            return SampleResult::untuned(false);
        }
        // 3. Region rounds.  A region's optimal count exceeding the radius
        // provably fits within radius = count, so two rounds suffice; a
        // third guards the node-capped inexact case.
        let mut radius = req.opts.region_radius;
        let mut round = 0;
        loop {
            let acc = self.solve_round(req, violated, radius, diag);
            if acc.need_radius == radius || round == 2 {
                return SampleResult {
                    feasible: true,
                    exact: acc.exact && acc.need_radius == radius,
                    tunings: acc.tunings,
                };
            }
            radius = acc.need_radius;
            round += 1;
        }
    }

    /// One growth round: discovers the regions at `radius`, attaches
    /// their constraints and solves each in pinned region order.
    fn solve_round(
        &mut self,
        req: &SolveRequest<'_>,
        violated: &[Violation],
        radius: usize,
        diag: &mut PassDiagnostics,
    ) -> RoundAcc {
        let mut regions = {
            let _obs = stage_obs("solve.stage.discovery");
            self.collect_regions(req.sg, req.space, violated, radius)
        };
        {
            let _obs = stage_obs("solve.stage.materialize");
            self.attach_cons(req.sg, req.ic, req.space, &mut regions);
        }
        let mut acc = RoundAcc {
            tunings: Vec::new(),
            exact: true,
            need_radius: radius,
        };
        for region in &regions {
            diag.regions_total += 1;
            if region.ffs.len() > req.opts.region_cap {
                diag.regions_saturated += 1;
            }
            let outcome = self.region_outcome(req, region, diag);
            self.apply_outcome(req, region, &outcome, radius, &mut acc);
        }
        acc
    }

    /// The region's push-independent search outcome: replayed from the
    /// memo on an exact key match, otherwise searched fresh and, if the
    /// memo holds regions of its size, published.
    fn region_outcome(
        &mut self,
        req: &SolveRequest<'_>,
        region: &Region,
        diag: &mut PassDiagnostics,
    ) -> Arc<CachedOutcome> {
        let (entry, hit) = {
            let _obs = stage_obs("solve.stage.materialize");
            let entry = req.memo.and_then(|memo| {
                MemoKey::capture(region, req.space, req.opts).map(|key| (memo, key))
            });
            let hit = entry.as_ref().and_then(|(memo, key)| memo.lookup(key));
            (entry, hit)
        };
        if let Some(hit) = hit {
            diag.cross_chip_hits += 1;
            psbi_obs::metrics::counter_add("solve.memo.hit", 1);
            if psbi_fault::failpoint!("memo.replay.corrupt") {
                // Injected cache corruption: a claimed-feasible outcome
                // whose support is empty.  Downstream this yields a chip
                // "fixed" with no tunings — exactly the class of silent
                // wrong answer the independent verifier must flag.
                let corrupt = CachedOutcome::Feasible {
                    count: 0,
                    support: Vec::new(),
                    witness: Vec::new(),
                    exact: true,
                };
                return Arc::new(corrupt);
            }
            return hit;
        }
        if entry.is_some() {
            psbi_obs::metrics::counter_add("solve.memo.miss", 1);
        }
        let (outcome, stats) = {
            let _obs = stage_obs("solve.stage.search");
            self.search.search_region(
                &region.ffs,
                &region.cons,
                &self.slot_of,
                req.space,
                req.opts,
                req.search_prune,
            )
        };
        diag.search_nodes += stats.nodes;
        diag.search_pruned_bound += stats.pruned_bound;
        diag.search_pruned_symmetry += stats.pruned_symmetry;
        let outcome = Arc::new(outcome);
        if let Some((memo, key)) = entry {
            memo.publish(key, Arc::clone(&outcome));
            psbi_obs::metrics::counter_add("solve.memo.publish", 1);
        }
        outcome
    }

    /// Applies one region's search outcome to the round accumulator:
    /// growth bookkeeping plus the request's push objective.
    fn apply_outcome(
        &self,
        req: &SolveRequest<'_>,
        region: &Region,
        outcome: &CachedOutcome,
        radius: usize,
        acc: &mut RoundAcc,
    ) {
        match outcome {
            CachedOutcome::Feasible {
                count,
                support,
                witness,
                exact,
            } => {
                if *count > radius && !region.saturated {
                    acc.need_radius = acc.need_radius.max(*count);
                }
                let tunings = {
                    let _obs = stage_obs("solve.stage.milp");
                    self.concentrate(req, region, *count, support, witness)
                };
                acc.tunings.extend(tunings);
                acc.exact &= exact;
            }
            CachedOutcome::Infeasible => {
                // The chip as a whole is fixable (screened above); a
                // region-local infeasibility means the region is too
                // small — grow it.
                acc.need_radius = acc.need_radius.max(radius * 2 + 1);
                acc.exact = false;
            }
        }
    }

    /// One SPFA over the whole circuit with every buffer free: can this
    /// chip be configured at all?  The shared [`ChipCheck`], with each
    /// buffered FF its own variable, so it solves only the chip's live
    /// core — the few FFs around the violations.
    fn chip_fixable(
        &mut self,
        sg: &SequentialGraph,
        ic: ConstraintsView<'_>,
        space: &BufferSpace,
    ) -> bool {
        let var_of = |ff: u32| {
            if space.has_buffer[ff as usize] {
                ff
            } else {
                NONE
            }
        };
        self.check.feasible(sg, ic, var_of, &space.bounds)
    }

    /// Builds regions: buffered FFs within `radius` hops of a violated
    /// constraint endpoint, split into connected components, each member's
    /// slot (its index in [`Region::ffs`]) recorded in `slot_of`.  The
    /// constraints are attached afterwards by [`Self::attach_cons`].
    ///
    /// This is the region-*discovery* half of the solve — a pure function
    /// of (`has_buffer`, ordered violated endpoints, `radius`, graph).
    fn collect_regions(
        &mut self,
        sg: &SequentialGraph,
        space: &BufferSpace,
        violated: &[Violation],
        radius: usize,
    ) -> Vec<Region> {
        let n = sg.n_ffs;
        self.dist.clear();
        self.dist.resize(n, NONE);
        let mut frontier: Vec<u32> = Vec::new();
        for v in violated {
            for ff in [v.a, v.b] {
                if space.has_buffer[ff as usize] && self.dist[ff as usize] == NONE {
                    self.dist[ff as usize] = 0;
                    frontier.push(ff);
                }
            }
        }
        // Multi-source BFS over buffered adjacency.
        let mut collected: Vec<u32> = frontier.clone();
        let mut d = 0usize;
        while d < radius && !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for v in sg.neighbors(u as usize) {
                    if space.has_buffer[v] && self.dist[v] == NONE {
                        self.dist[v] = d as u32;
                        next.push(v as u32);
                        collected.push(v as u32);
                    }
                }
            }
            frontier = next;
        }
        // Saturation: no neighbour of the collected set is buffered and
        // uncollected (the set already fills its connected components).
        // Components of the induced subgraph.
        self.slot_of.clear();
        self.slot_of.resize(n, NONE);
        let mut regions: Vec<Region> = Vec::new();
        for &start in &collected {
            if self.slot_of[start as usize] != NONE {
                continue;
            }
            let mut ffs = vec![start];
            self.slot_of[start as usize] = 0;
            let mut stack = vec![start];
            let mut saturated = true;
            while let Some(u) = stack.pop() {
                for v in sg.neighbors(u as usize) {
                    if !space.has_buffer[v] {
                        continue;
                    }
                    if self.dist[v] == NONE {
                        saturated = false; // a buffered FF just outside
                        continue;
                    }
                    if self.slot_of[v] == NONE {
                        self.slot_of[v] = ffs.len() as u32;
                        ffs.push(v as u32);
                        stack.push(v as u32);
                    }
                }
            }
            regions.push(Region {
                ffs,
                cons: Vec::new(),
                saturated,
            });
        }
        regions
    }

    /// The constraint walk: attaches to each region, in region order, the
    /// setup and hold sides of every edge touching one of its FFs (FFs in
    /// pinned BFS order, each FF's out-edges before its in-edges), in
    /// **saturation-normalised form**: every bound is resolved from the
    /// chip, and a bound at or above its exact per-constraint cap — which
    /// can never bind — is elided.
    ///
    /// With every region variable confined to its window and everything
    /// outside the region pinned to 0, the left-hand side of
    /// `k(a) − k(b) ≤ bound` can never exceed `cap(a,b) = hi'(a) − lo'(b)`,
    /// where `hi'`/`lo'` are the endpoint's window bounds inside the region
    /// and 0 outside.  A bound at or above that cap therefore constrains
    /// nothing — for the feasibility probes, for the branch-and-bound and
    /// for the concentration MILP alike — so dropping it leaves the feasible
    /// set of every support bit-for-bit unchanged while shrinking every
    /// probe the search runs (regions attach each member FF's full edge
    /// neighbourhood, and on paper-scale circuits the overwhelming majority
    /// of those bounds are vacuous).  Violated bounds are negative and caps
    /// never are, so every violated constraint survives exactly.
    ///
    /// Membership is `slot_of[ff] != NONE`, which is exact because an edge
    /// never joins two regions: a buffered, collected neighbour of a member
    /// is in that member's component, so each endpoint of an edge touching
    /// a region is either in that region or outside every region.  For the
    /// same reason each edge is attached once, to the first region that
    /// touches it, so the per-edge marks are global (a reused stamp array,
    /// no per-chip allocation).
    ///
    /// Normalisation is applied identically with and without the memo (it
    /// is part of the region system, not the cache), and it makes the
    /// system — and therefore the memo key — invariant to slack drift on
    /// non-binding constraints.  That is what lets adjacent sweep targets,
    /// whose period shift perturbs every non-critical bound by a step or
    /// two, still replay each other's search outcomes for chips whose
    /// *binding* structure is unchanged — for branch-and-bound regions
    /// only, since regions over [`SolverOptions::region_cap`] are not
    /// memoised.
    fn attach_cons(
        &mut self,
        sg: &SequentialGraph,
        ic: ConstraintsView<'_>,
        space: &BufferSpace,
        regions: &mut [Region],
    ) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.edge_stamp.len() < sg.edges.len() || self.epoch == 0 {
            self.epoch = 1;
            self.edge_stamp.clear();
            self.edge_stamp.resize(sg.edges.len(), 0);
        }
        let slot_of = &self.slot_of;
        let window = |ff: u32| match slot_of[ff as usize] {
            NONE => (0, 0),
            _ => space.bounds[ff as usize],
        };
        for region in regions.iter_mut() {
            for &ff in &region.ffs {
                for &e in sg
                    .out_edges(ff as usize)
                    .iter()
                    .chain(sg.in_edges(ff as usize))
                {
                    if self.edge_stamp[e as usize] == self.epoch {
                        continue;
                    }
                    self.edge_stamp[e as usize] = self.epoch;
                    let edge = &sg.edges[e as usize];
                    let (from, to) = (window(edge.from), window(edge.to));
                    let setup = ic.setup_bound[e as usize];
                    if setup < from.1 - to.0 {
                        region.cons.push(RegCons {
                            a: edge.from,
                            b: edge.to,
                            bound: setup,
                        });
                    }
                    let hold = ic.hold_bound[e as usize];
                    if hold < to.1 - from.0 {
                        region.cons.push(RegCons {
                            a: edge.to,
                            b: edge.from,
                            bound: hold,
                        });
                    }
                }
            }
        }
    }

    /// Applies the request's push objective to a solved region: with none,
    /// the witness's nonzero tunings; otherwise `min Σ|k_i − a_i|` subject to
    /// the region's constraints and the buffer budget, as a MILP over the
    /// region (paper eqs. (14)–(21)).
    ///
    /// The MILP is warm-started with the search witness — a verified
    /// feasible point supplied identically whether the witness came from a
    /// fresh search or a memo replay, so the warm start never
    /// distinguishes the two.
    fn concentrate(
        &self,
        req: &SolveRequest<'_>,
        region: &Region,
        budget: usize,
        support: &[u32],
        witness: &[i64],
    ) -> Vec<(u32, i64)> {
        let targets = match req.push {
            PushObjective::None => return witness_tunings(support, witness),
            PushObjective::ToZero => None,
            PushObjective::ToTargets(targets) => Some(targets),
        };
        let space = req.space;
        let slot_of = &self.slot_of;
        let m = region.ffs.len();
        let over_supports = m <= req.opts.exact_push_cap;
        // Very large supports (greedy fallback on oversized regions): skip
        // the MILP and keep the witness values.
        const PUSH_SUPPORT_CAP: usize = 48;
        if !over_supports && support.len() > PUSH_SUPPORT_CAP {
            psbi_obs::metrics::counter_add("solve.milp.push_cap_skips", 1);
            return witness_tunings(support, witness);
        }
        let mut model = Model::new();
        model.node_limit = 30_000;
        // Variables for either the full region (support is chosen by the
        // model) or just the fixed optimal support.
        let active: &[u32] = if over_supports { &region.ffs } else { support };
        // Region slot -> model variable (`NONE` off the active set).
        let mut var_of_slot = vec![NONE; m];
        let mut kvars = Vec::with_capacity(active.len());
        for (s, &ff) in active.iter().enumerate() {
            var_of_slot[slot_of[ff as usize] as usize] = s as u32;
            let (lo, hi) = space.bounds[ff as usize];
            let k = model.add_var(lo as f64, hi as f64, 0.0, true);
            kvars.push(k);
        }
        let var = |ff: u32| match slot_of[ff as usize] {
            NONE => NONE,
            slot => var_of_slot[slot as usize],
        };
        // Witness values per active slot (0 outside the support) and the
        // support membership — the warm-start point.
        let mut kwarm = vec![0.0f64; active.len()];
        let mut in_support = vec![false; active.len()];
        for (i, &ff) in support.iter().enumerate() {
            let s = var(ff);
            if s != NONE {
                kwarm[s as usize] = witness[i] as f64;
                in_support[s as usize] = true;
            }
        }
        let mut warm: Vec<f64> = kwarm.clone();
        if over_supports {
            let mut cterms = Vec::with_capacity(active.len());
            for (s, &ff) in active.iter().enumerate() {
                let c = model.add_binary(0.0);
                let (lo, hi) = space.bounds[ff as usize];
                let big_m = (lo.abs().max(hi.abs()) as f64).max(1.0);
                model.add_indicator(kvars[s], c, big_m);
                cterms.push((c, 1.0));
                warm.push(if in_support[s] { 1.0 } else { 0.0 });
            }
            model.add_cons(cterms, Op::Le, budget as f64);
        }
        for c in &region.cons {
            let sa = var(c.a);
            let sb = var(c.b);
            let mut terms = Vec::new();
            if sa != NONE {
                terms.push((kvars[sa as usize], 1.0));
            }
            if sb != NONE {
                terms.push((kvars[sb as usize], -1.0));
            }
            if terms.is_empty() {
                continue; // root-root, checked during feasibility
            }
            model.add_cons(terms, Op::Le, c.bound as f64);
        }
        for (s, &ff) in active.iter().enumerate() {
            let target = targets.map_or(0.0, |t| t[ff as usize]);
            model.add_abs_deviation(kvars[s], target, 1.0);
            warm.push((kwarm[s] - target).abs());
        }
        model.set_warm_start(warm);
        let sol = model.solve();
        // Armed-only observability (byte-neutral).  This runs for every
        // region, replayed or searched, so the counts are deterministic.
        // A `Feasible` status is a node-limit stop: the values are kept
        // but their optimality is unproven.
        psbi_obs::metrics::counter_add("solve.milp.lp_nodes", sol.nodes as u64);
        psbi_obs::metrics::counter_add("solve.milp.bound_stops", sol.bound_stop as u64);
        psbi_obs::metrics::counter_add(
            "solve.milp.node_limit",
            (sol.status == Status::Feasible) as u64,
        );
        if matches!(sol.status, Status::Optimal | Status::Feasible) {
            active
                .iter()
                .enumerate()
                .map(|(s, &ff)| (ff, sol.int_value(kvars[s])))
                .filter(|(_, k)| *k != 0)
                .collect()
        } else {
            // Should not happen (feasibility proven); fall back to witness.
            witness_tunings(support, witness)
        }
    }

    /// Solves the paper's full big-M ILP over *all* buffered FFs at once —
    /// exponentially slower but a direct transcription of eqs. (8)–(17);
    /// used by tests as a reference oracle.
    pub fn solve_reference_milp(
        &mut self,
        sg: &SequentialGraph,
        ic: &IntegerConstraints,
        space: &BufferSpace,
        push: PushObjective<'_>,
    ) -> SampleResult {
        let n = sg.n_ffs;
        let mut model = Model::new();
        let mut kvars = vec![None; n];
        let mut cterms = Vec::new();
        let mut cvars = vec![None; n];
        for ff in 0..n {
            if !space.has_buffer[ff] {
                continue;
            }
            let (lo, hi) = space.bounds[ff];
            let k = model.add_var(lo as f64, hi as f64, 0.0, true);
            let c = model.add_binary(1.0);
            let big_m = (lo.abs().max(hi.abs()) as f64).max(1.0);
            model.add_indicator(k, c, big_m);
            kvars[ff] = Some(k);
            cvars[ff] = Some(c);
            cterms.push((c, 1.0));
        }
        let add_cons = |model: &mut Model, a: usize, b: usize, bound: i64| -> bool {
            match (kvars[a], kvars[b]) {
                (None, None) => bound >= 0,
                (ka, kb) => {
                    let mut terms = Vec::new();
                    if let Some(k) = ka {
                        terms.push((k, 1.0));
                    }
                    if let Some(k) = kb {
                        terms.push((k, -1.0));
                    }
                    model.add_cons(terms, Op::Le, bound as f64);
                    true
                }
            }
        };
        for (e, edge) in sg.edges.iter().enumerate() {
            let (i, j) = (edge.from as usize, edge.to as usize);
            if !add_cons(&mut model, i, j, ic.setup_bound[e])
                || !add_cons(&mut model, j, i, ic.hold_bound[e])
            {
                return SampleResult {
                    feasible: false,
                    exact: true,
                    tunings: Vec::new(),
                };
            }
        }
        let first = model.solve();
        if first.status != Status::Optimal {
            return SampleResult {
                feasible: false,
                exact: first.status == Status::Infeasible,
                tunings: Vec::new(),
            };
        }
        let nk = first.objective.round() as usize;
        let result_vals = match push {
            PushObjective::None => first,
            _ => {
                // Second stage: budget + |.| objective.
                let mut m2 = model.clone();
                for c in cvars.iter().flatten() {
                    m2.set_objective(*c, 0.0);
                }
                m2.add_cons(
                    cvars.iter().flatten().map(|c| (*c, 1.0)).collect(),
                    Op::Le,
                    nk as f64,
                );
                for ff in 0..n {
                    if let Some(k) = kvars[ff] {
                        let t = match push {
                            PushObjective::ToTargets(t) => t[ff],
                            _ => 0.0,
                        };
                        m2.add_abs_deviation(k, t, 1.0);
                    }
                }
                let second = m2.solve();
                if matches!(second.status, Status::Optimal | Status::Feasible) {
                    second
                } else {
                    first
                }
            }
        };
        let tunings = (0..n)
            .filter_map(|ff| {
                kvars[ff].and_then(|k| {
                    let v = result_vals.int_value(k);
                    (v != 0).then_some((ff as u32, v))
                })
            })
            .collect();
        SampleResult {
            feasible: true,
            exact: true,
            tunings,
        }
    }
}

/// The witness's nonzero tunings `(ff, steps)`, in support order.
fn witness_tunings(support: &[u32], witness: &[i64]) -> Vec<(u32, i64)> {
    support
        .iter()
        .zip(witness)
        .filter(|(_, k)| **k != 0)
        .map(|(ff, k)| (*ff, *k))
        .collect()
}

/// One connected solve region, solve-ready: its FFs (pinned BFS order; a
/// member's slot is its index here), its saturation-normalised
/// constraints (see [`SampleSolver::attach_cons`]), and whether it
/// saturated its component.
#[derive(Debug)]
pub(crate) struct Region {
    pub(crate) ffs: Vec<u32>,
    pub(crate) cons: Vec<RegCons>,
    pub(crate) saturated: bool,
}
