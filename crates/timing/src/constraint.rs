//! Discretised setup/hold constraints and unbuffered-period analysis.
//!
//! With tuning buffers, the paper's constraints (1)–(2) for a sequential
//! edge `i → j` with fixed clock-tree skews `t` and tuning delays `x = k·δ`
//! (in integer steps `k`) are difference constraints:
//!
//! ```text
//! setup: k_i − k_j ≤ ⌊(T − s_j − d̄ij + t_j − t_i)/δ⌋   (= setup_bound)
//! hold:  k_j − k_i ≤ ⌊(d̲ij − h_j + t_i − t_j)/δ⌋        (= hold_bound)
//! ```
//!
//! Flooring is conservative: any integer solution of the floored system
//! satisfies the original real constraints.
//!
//! # Saturated rows
//!
//! A pass of the flow reads its chips' bounds through consumers that each
//! confine every tuning `k` to a window, and a bound that the left-hand
//! side can never reach constrains nothing.  So
//! [`ConstraintBatch::draw_from`] takes the pass's [`SaturationCaps`],
//! built from its **saturation windows** — per FF, a window `(lo, hi)`
//! containing 0 — and stores, per edge `i → j`,
//! `min(setup_bound, hi(i) − lo(j))` and `min(hold_bound, hi(j) − lo(i))`:
//! each bound saturated at its **cap**, which is never negative.  The flow hands each pass windows that contain
//! every consumer's own: each buffered FF's window (in the yield pass, its
//! group's) widened to contain 0, and `(0, 0)` for an FF without a buffer.
//! Widening matters: a deployment of ablation A4 has windows that exclude
//! 0, and the solver's constraint walk pins FFs outside a region at 0, so
//! a cap from unwidened windows could fall below a consumer's own cap.
//! [`SaturationCaps::unbounded`] gives exact rows (reference mode draws
//! those).
//!
//! **Lemma: saturated rows give every consumer the answers of exact
//! rows.**  A consumer of a pass's rows reads a bound `b` only through
//! `b < c` for a threshold `c ≤ cap`, and uses the value of `b` only when
//! `b < c`.  Then `min(b, cap) < c` iff `b < c`, and in that case
//! `min(b, cap) = b`.  The consumers:
//!
//! * violation discovery ([`ConstraintsView::collect_violations`]) and the
//!   solver's unfixable-pair check read `b < 0`;
//! * the chip feasibility check (the solver's whole-chip screen and the
//!   yield pass's deployment check) reads `b < hi(a) − lo(b)` over the
//!   same windows, and an edge whose ends share a variable reads `0 ≤ b`
//!   only when `b` is below that cap;
//! * the solver's constraint walk reads `b` below the cap of its region
//!   windows, with FFs outside the region pinned at 0, and the search, its
//!   greedy fallback and the concentration MILP read only what it keeps;
//! * [`ConstraintsView::feasible_at_zero`], and with it the flow's
//!   zero-pass table, reads `b < 0`.
//!
//! The single-chip paths keep exact values: [`IntegerConstraints::build`]
//! (and so chip replay and the verifier), [`ConstraintBatch::build_from`]
//! and calibration's [`min_periods`].

use crate::sample::{CanonicalBatchSampler, Drawn, SampleBatch, SampleTiming, SampleView};
use crate::seq::SequentialGraph;
use crate::simd;
use serde::{Deserialize, Serialize};

/// Which side of an edge constraint is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConstraintKind {
    /// Max-delay / setup constraint.
    Setup,
    /// Min-delay / hold constraint.
    Hold,
}

/// Integer difference-constraint bounds for one sample.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegerConstraints {
    /// Per edge: `k_from − k_to ≤ setup_bound[e]`.
    pub setup_bound: Vec<i64>,
    /// Per edge: `k_to − k_from ≤ hold_bound[e]`.
    pub hold_bound: Vec<i64>,
}

impl IntegerConstraints {
    /// Pre-sizes for a graph.
    pub fn for_graph(sg: &SequentialGraph) -> Self {
        Self {
            setup_bound: vec![0; sg.edges.len()],
            hold_bound: vec![0; sg.edges.len()],
        }
    }

    /// Fills the bounds for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    pub fn build(
        &mut self,
        sg: &SequentialGraph,
        st: &SampleTiming,
        skews: &[f64],
        period: f64,
        step: f64,
    ) {
        self.build_view(sg, st.view(), skews, period, step);
    }

    /// Fills the bounds from a borrowed chip view (a [`SampleTiming`] or a
    /// [`SampleBatch`] row).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    pub fn build_view(
        &mut self,
        sg: &SequentialGraph,
        st: SampleView<'_>,
        skews: &[f64],
        period: f64,
        step: f64,
    ) {
        assert!(step > 0.0, "buffer step must be positive");
        self.setup_bound.clear();
        self.setup_bound.resize(sg.edges.len(), 0);
        self.hold_bound.clear();
        self.hold_bound.resize(sg.edges.len(), 0);
        fill_bounds_row(
            sg,
            st,
            skews,
            period,
            step,
            &mut self.setup_bound,
            &mut self.hold_bound,
        );
    }

    /// Borrowed view of the bounds.
    #[inline]
    pub fn as_view(&self) -> ConstraintsView<'_> {
        ConstraintsView {
            setup_bound: &self.setup_bound,
            hold_bound: &self.hold_bound,
        }
    }

    /// True when the zero assignment satisfies every constraint.
    pub fn feasible_at_zero(&self) -> bool {
        self.as_view().feasible_at_zero()
    }
}

/// Borrowed integer constraint bounds of one chip — either an
/// [`IntegerConstraints`] or one row of a [`ConstraintBatch`].
#[derive(Debug, Clone, Copy)]
pub struct ConstraintsView<'a> {
    /// Per edge: `k_from − k_to ≤ setup_bound[e]`.
    pub setup_bound: &'a [i64],
    /// Per edge: `k_to − k_from ≤ hold_bound[e]`.
    pub hold_bound: &'a [i64],
}

/// One constraint violated with all tunings at zero, normalised to the
/// difference form `k[a] − k[b] ≤ bound` (with `bound < 0`).
///
/// The ordered sequence of a chip's violations is its **violated-constraint
/// fingerprint**: two chips (or the same chip across flow passes) with
/// equal fingerprints seed identical solver region decompositions, which
/// is what lets `psbi_core::solve` carry a region decomposition from one
/// pass to the next after an exact value comparison — no hashing, so a
/// fingerprint match can never replay a wrong decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Left-hand FF of the difference constraint.
    pub a: u32,
    /// Right-hand FF of the difference constraint.
    pub b: u32,
    /// Edge index in the sequential graph.
    pub edge: u32,
    /// Setup or hold side of the edge.
    pub kind: ConstraintKind,
    /// The (negative) floored bound.
    pub bound: i64,
}

impl ConstraintsView<'_> {
    /// True when the zero assignment satisfies every constraint.
    #[inline]
    pub fn feasible_at_zero(&self) -> bool {
        self.setup_bound.iter().all(|b| *b >= 0) && self.hold_bound.iter().all(|b| *b >= 0)
    }

    /// Collects this chip's violated constraints into `out` (cleared
    /// first) in the canonical edge-major, setup-before-hold order — the
    /// chip's violated-constraint fingerprint (see [`Violation`]).
    pub fn collect_violations(&self, sg: &SequentialGraph, out: &mut Vec<Violation>) {
        out.clear();
        for (e, edge) in sg.edges.iter().enumerate() {
            if self.setup_bound[e] < 0 {
                out.push(Violation {
                    a: edge.from,
                    b: edge.to,
                    edge: e as u32,
                    kind: ConstraintKind::Setup,
                    bound: self.setup_bound[e],
                });
            }
            if self.hold_bound[e] < 0 {
                out.push(Violation {
                    a: edge.to,
                    b: edge.from,
                    edge: e as u32,
                    kind: ConstraintKind::Hold,
                    bound: self.hold_bound[e],
                });
            }
        }
    }
}

/// Shared row kernel: writes one chip's floored bounds into slices.
///
/// The slack terms are grouped exactly as in [`ConstraintBatch`]'s row
/// kernel and chip lanes (skew/period base first, then the chip-dependent
/// terms) so the single-chip and batched paths produce bit-identical
/// floored bounds for the same chip — floating-point association matters
/// at step boundaries, and the flow's replay APIs promise exact agreement
/// with the batched passes.
#[inline]
fn fill_bounds_row(
    sg: &SequentialGraph,
    st: SampleView<'_>,
    skews: &[f64],
    period: f64,
    step: f64,
    setup_bound: &mut [i64],
    hold_bound: &mut [i64],
) {
    let inv_step = 1.0 / step;
    for (e, edge) in sg.edges.iter().enumerate() {
        let (i, j) = (edge.from as usize, edge.to as usize);
        let setup_base = period + skews[j] - skews[i];
        let hold_base = skews[i] - skews[j];
        let setup_slack = setup_base - st.setup[j] - st.edge_max[e];
        let hold_slack = st.edge_min[e] - st.hold[j] + hold_base;
        setup_bound[e] = (setup_slack * inv_step).floor() as i64;
        hold_bound[e] = (hold_slack * inv_step).floor() as i64;
    }
}

/// One pass's saturation caps (see the module docs): per edge `i → j` of a
/// graph, the setup cap `hi(i) − lo(j)` and the hold cap `hi(j) − lo(i)` of
/// the pass's saturation windows, `i64::MAX` where a bound is stored
/// exactly.  Built once per pass and handed to every
/// [`ConstraintBatch::draw_from`] of it.
#[derive(Debug, Clone)]
pub struct SaturationCaps {
    /// Setup caps, then hold caps.
    caps: Vec<i64>,
    /// The same as `f64`s, for the chip lanes.
    caps_f: Vec<f64>,
    /// Whether some cap is below `i64::MAX`.
    bounded: bool,
}

impl SaturationCaps {
    /// The caps of saturation windows `windows`, one per FF of `sg`.
    ///
    /// # Panics
    ///
    /// Panics if `windows` does not have one entry per FF or a window does
    /// not contain 0.
    pub fn from_windows(sg: &SequentialGraph, windows: &[(i64, i64)]) -> Self {
        assert_eq!(windows.len(), sg.n_ffs, "one saturation window per FF");
        assert!(
            windows.iter().all(|&(lo, hi)| lo <= 0 && 0 <= hi),
            "saturation windows must contain 0"
        );
        let window = |ff: u32| windows[ff as usize];
        let setup = sg
            .edges
            .iter()
            .map(|e| cap(window(e.from).1, window(e.to).0));
        let hold = sg
            .edges
            .iter()
            .map(|e| cap(window(e.to).1, window(e.from).0));
        let caps: Vec<i64> = setup.chain(hold).collect();
        Self {
            caps_f: caps.iter().map(|&c| c as f64).collect(),
            bounded: caps.iter().any(|&c| c < i64::MAX),
            caps,
        }
    }

    /// No caps: every bound of `sg` is stored exactly.
    pub fn unbounded(sg: &SequentialGraph) -> Self {
        Self {
            caps: vec![i64::MAX; 2 * sg.edges.len()],
            caps_f: vec![i64::MAX as f64; 2 * sg.edges.len()],
            bounded: false,
        }
    }

    /// Number of edges the caps are for.
    fn n_edges(&self) -> usize {
        self.caps.len() / 2
    }
}

/// Caps from `2⁵²` up are stored as `i64::MAX` (unbounded): every smaller
/// cap is exact as an `f64`, and `i64::MAX` becomes 2⁶³, where `as i64`
/// saturates back to it, so the chip lanes compare and saturate in `f64`.
/// A larger cap than the windows give is still sound (the lemma needs only
/// `c ≤ cap`).
const CAP_LIMIT: i64 = 1 << 52;

/// The cap `hi − lo` of one bound (see the module docs), saturating, with
/// caps from [`CAP_LIMIT`] up stored as `i64::MAX`.
fn cap(hi: i64, lo: i64) -> i64 {
    match hi.saturating_sub(lo) {
        c if c >= CAP_LIMIT => i64::MAX,
        c => c,
    }
}

/// The chip-invariant terms of one batch's rows, per edge: the capture FF,
/// the two slack bases and the two saturation caps (`i64::MAX` where a
/// bound is stored exactly; empty for the exact rows of
/// [`ConstraintBatch::build_from`]), also as `f64`s for the chip lanes,
/// plus `1/step`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct RowTerms<'a> {
    pub(crate) to: &'a [u32],
    pub(crate) setup_base: &'a [f64],
    pub(crate) hold_base: &'a [f64],
    pub(crate) setup_cap: &'a [i64],
    pub(crate) hold_cap: &'a [i64],
    pub(crate) setup_cap_f: &'a [f64],
    pub(crate) hold_cap_f: &'a [f64],
    pub(crate) inv_step: f64,
}

/// Structure-of-arrays integer bounds for a batch of chips.
///
/// Row-major `len × edges` buffers, reused across passes (no per-chip
/// allocation), filled either from a drawn [`SampleBatch`]
/// ([`ConstraintBatch::build_from`], the scalar row kernel on every host,
/// exact bounds) or straight from the sampler
/// ([`ConstraintBatch::draw_from`], the flow's path, which never stores the
/// chips' delays, extracts on the process-wide kernel backend,
/// [`simd::active`], and saturates each bound at its cap).  Every backend
/// produces bit-identical rows.
#[derive(Debug, Clone, Default)]
pub struct ConstraintBatch {
    n_edges: usize,
    len: usize,
    setup_bound: Vec<i64>,
    hold_bound: Vec<i64>,
    /// Per-edge chip-invariant terms, precomputed once per batch:
    /// `period + skews[to] − skews[from]` and `skews[from] − skews[to]`.
    setup_base: Vec<f64>,
    hold_base: Vec<f64>,
    /// Capture-FF index per edge (flat copy of `SeqEdge::to`).
    to_idx: Vec<u32>,
}

impl ConstraintBatch {
    /// An empty batch; fill with [`ConstraintBatch::build_from`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of chips currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no chips are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Extracts the exact integer bounds of every chip in `batch`,
    /// reusing this batch's buffers, through the scalar row kernel.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    pub fn build_from(
        &mut self,
        sg: &SequentialGraph,
        batch: &SampleBatch,
        skews: &[f64],
        period: f64,
        step: f64,
    ) {
        assert!(step > 0.0, "buffer step must be positive");
        let _span = psbi_obs::Span::enter_with(
            "timing.extract",
            &[
                ("chips", batch.len() as u64),
                ("first", batch.first_index()),
            ],
        );
        psbi_obs::metrics::counter_add("timing.extract.batches", 1);
        extract_failpoint(batch.first_index());
        self.shape(
            sg.edges.iter().map(|e| (e.from, e.to)),
            batch.len(),
            skews,
            period,
        );
        let n = self.n_edges;
        let terms = RowTerms {
            to: &self.to_idx,
            setup_base: &self.setup_base,
            hold_base: &self.hold_base,
            setup_cap: &[],
            hold_cap: &[],
            setup_cap_f: &[],
            hold_cap_f: &[],
            inv_step: 1.0 / step,
        };
        let rows = self
            .setup_bound
            .chunks_exact_mut(n)
            .zip(self.hold_bound.chunks_exact_mut(n));
        for (row, (setup_bound, hold_bound)) in rows.enumerate() {
            extract_row(&terms, batch.view(row), setup_bound, hold_bound);
        }
    }

    /// Draws chips `chips` of `stream` from `sampler` and extracts their
    /// integer bounds, each saturated at its cap in `caps` (see the module
    /// docs) — row `r` is chip `chips[r]` — on the process-wide kernel
    /// backend ([`simd::active`]).  The chips' delays are read while still
    /// in cache and never stored: on AVX2 four chips at a time from their
    /// chip lanes, which draw only the forms that can feed a bound below
    /// its cap; else one chip at a time.  Row for row bit-identical to
    /// [`fill_gathered`] followed by
    /// [`build_from`](ConstraintBatch::build_from) and the saturation:
    /// setup `min(bound, hi(from) − lo(to))`, hold
    /// `min(bound, hi(to) − lo(from))`.  With
    /// [`SaturationCaps::unbounded`] the rows are exact and every form is
    /// drawn.
    ///
    /// One `sample.batch.fill` span covers the call, with a
    /// `timing.extract` child span around each group's extraction; the
    /// `timing.extract.panic` failpoint is keyed by `chips[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive, `skews` does not have
    /// one entry per FF of the sampler's graph, or `caps` is not for its
    /// edges.
    ///
    /// [`fill_gathered`]: crate::sample::CanonicalBatchSampler::fill_gathered
    #[allow(clippy::too_many_arguments)]
    pub fn draw_from(
        &mut self,
        sampler: &CanonicalBatchSampler,
        stream: u64,
        chips: &[u64],
        skews: &[f64],
        period: f64,
        step: f64,
        caps: &SaturationCaps,
    ) {
        let backend = simd::active();
        self.draw_from_with(backend, sampler, stream, chips, skews, period, step, caps);
    }

    /// [`draw_from`](ConstraintBatch::draw_from) on an explicit kernel
    /// backend (parity tests and benchmarks).
    ///
    /// # Panics
    ///
    /// As [`draw_from`](ConstraintBatch::draw_from), or if `backend` is
    /// not available on this host.
    #[allow(clippy::too_many_arguments)]
    pub fn draw_from_with(
        &mut self,
        backend: simd::Backend,
        sampler: &CanonicalBatchSampler,
        stream: u64,
        chips: &[u64],
        skews: &[f64],
        period: f64,
        step: f64,
        caps: &SaturationCaps,
    ) {
        assert!(step > 0.0, "buffer step must be positive");
        assert_eq!(skews.len(), sampler.n_ffs(), "one skew per FF");
        assert_eq!(caps.n_edges(), sampler.n_edges(), "caps for another graph");
        psbi_obs::metrics::counter_add("timing.extract.batches", 1);
        self.shape(sampler.ends().iter().copied(), chips.len(), skews, period);
        let n = self.n_edges;
        let (setup_cap, hold_cap) = caps.caps.split_at(n);
        let (setup_cap_f, hold_cap_f) = caps.caps_f.split_at(n);
        let terms = RowTerms {
            to: &self.to_idx,
            setup_base: &self.setup_base,
            hold_base: &self.hold_base,
            setup_cap,
            hold_cap,
            setup_cap_f,
            hold_cap_f,
            inv_step: 1.0 / step,
        };
        let bounded = caps.bounded;
        let (setup_bound, hold_bound) = (&mut self.setup_bound, &mut self.hold_bound);
        sampler.draw_chips(
            backend,
            stream,
            chips.len(),
            |r| chips[r],
            bounded.then_some(&terms),
            |row, drawn| {
                let live = match &drawn {
                    Drawn::Chip(_) => 1,
                    Drawn::Lanes(lanes) => lanes.live(),
                };
                let _span = psbi_obs::Span::enter_with(
                    "timing.extract",
                    &[("chips", live as u64), ("first", chips[row])],
                );
                if row == 0 {
                    extract_failpoint(chips[0]);
                }
                let rows = row * n..(row + live) * n;
                let (setup_bound, hold_bound) =
                    (&mut setup_bound[rows.clone()], &mut hold_bound[rows]);
                match drawn {
                    Drawn::Chip(v) => {
                        extract_row(&terms, v, setup_bound, hold_bound);
                        if bounded {
                            saturate_row(&terms, setup_bound, hold_bound);
                        }
                    }
                    Drawn::Lanes(lanes) => lanes.bounds(&terms, setup_bound, hold_bound),
                }
            },
        );
    }

    /// Re-shapes the batch for `len` chips of a graph whose edges run
    /// `ends`, and hoists the chip-invariant per-edge terms: the skew/
    /// period parts of both bounds and the capture-FF index.  The per-chip
    /// loops then stream flat rows without touching the fat `SeqEdge`
    /// structs at all.
    fn shape(
        &mut self,
        ends: impl Iterator<Item = (u32, u32)>,
        len: usize,
        skews: &[f64],
        period: f64,
    ) {
        self.setup_base.clear();
        self.hold_base.clear();
        self.to_idx.clear();
        for (from, to) in ends {
            let (i, j) = (from as usize, to as usize);
            self.setup_base.push(period + skews[j] - skews[i]);
            self.hold_base.push(skews[i] - skews[j]);
            self.to_idx.push(to);
        }
        self.n_edges = self.to_idx.len();
        self.len = len;
        // Every fill writes whole rows, so what the buffers held is never
        // read: only growth is zeroed.
        self.setup_bound.resize(len * self.n_edges, 0);
        self.hold_bound.resize(len * self.n_edges, 0);
    }

    /// Borrowed view of chip `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    #[inline]
    pub fn view(&self, row: usize) -> ConstraintsView<'_> {
        assert!(row < self.len, "constraint row out of range");
        let e0 = row * self.n_edges;
        ConstraintsView {
            setup_bound: &self.setup_bound[e0..e0 + self.n_edges],
            hold_bound: &self.hold_bound[e0..e0 + self.n_edges],
        }
    }
}

/// Extracts one chip's exact bounds into a row — the scalar reference
/// kernel (`t`'s caps are not read).
fn extract_row(
    t: &RowTerms<'_>,
    v: SampleView<'_>,
    setup_bound: &mut [i64],
    hold_bound: &mut [i64],
) {
    for (e, (sb, hb)) in setup_bound.iter_mut().zip(hold_bound).enumerate() {
        let j = t.to[e] as usize;
        let setup_slack = t.setup_base[e] - v.setup[j] - v.edge_max[e];
        let hold_slack = v.edge_min[e] - v.hold[j] + t.hold_base[e];
        *sb = (setup_slack * t.inv_step).floor() as i64;
        *hb = (hold_slack * t.inv_step).floor() as i64;
    }
}

/// Saturates one exact row at `t`'s caps — the scalar reference of the
/// saturated rows.
fn saturate_row(t: &RowTerms<'_>, setup_bound: &mut [i64], hold_bound: &mut [i64]) {
    for (b, &c) in setup_bound.iter_mut().zip(t.setup_cap) {
        *b = (*b).min(c);
    }
    for (b, &c) in hold_bound.iter_mut().zip(t.hold_cap) {
        *b = (*b).min(c);
    }
}

/// The `timing.extract.panic` failpoint, keyed by a batch's first chip.
fn extract_failpoint(first: u64) {
    if psbi_fault::failpoint!("timing.extract.panic", "first" = first) {
        // Models a constraint-extraction crash (e.g. a malformed bound
        // tripping a downstream assert): the pass dies mid-chunk and
        // the fleet's per-job retry recomputes it deterministically.
        panic!("injected fault: timing.extract.panic");
    }
}

/// Minimum-period analysis of one unbuffered sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinPeriod {
    /// Smallest clock period satisfying every setup constraint at `x = 0`.
    pub period: f64,
    /// Whether every hold constraint holds at `x = 0` (independent of `T`).
    pub hold_ok: bool,
    /// Edge achieving the critical setup constraint.
    pub critical_edge: usize,
}

/// Computes the unbuffered minimum period of a sample.
///
/// The critical edge maximises `d̄ij + s_j + t_i − t_j`.
///
/// # Panics
///
/// Panics if the graph has no edges.
pub fn min_period(sg: &SequentialGraph, st: &SampleTiming, skews: &[f64]) -> MinPeriod {
    min_period_view(sg, st.view(), skews)
}

/// Computes the unbuffered minimum period from a borrowed chip view (a
/// [`SampleTiming`] or a [`SampleBatch`] row).
///
/// # Panics
///
/// Panics if the graph has no edges.
pub fn min_period_view(sg: &SequentialGraph, st: SampleView<'_>, skews: &[f64]) -> MinPeriod {
    min_period_over(sg.edges.iter().map(|e| (e.from, e.to)), st, skews)
}

/// Draws chips `chips` of `stream` from `sampler` and computes each one's
/// unbuffered minimum period into `out` (cleared first; entry `r` is chip
/// `chips[r]`) on the process-wide kernel backend ([`simd::active`]) —
/// calibration's scan, reading the delays while still in cache, as
/// [`ConstraintBatch::draw_from`] does.  Bit-identical to
/// [`min_period_view`] over [`fill_gathered`] rows.
///
/// # Panics
///
/// Panics if the graph has no edges or `skews` does not have one entry
/// per FF.
///
/// [`fill_gathered`]: crate::sample::CanonicalBatchSampler::fill_gathered
pub fn min_periods(
    sampler: &CanonicalBatchSampler,
    stream: u64,
    chips: &[u64],
    skews: &[f64],
    out: &mut Vec<MinPeriod>,
) {
    min_periods_with(simd::active(), sampler, stream, chips, skews, out);
}

/// [`min_periods`] on an explicit kernel backend (parity tests and
/// benchmarks).
///
/// # Panics
///
/// As [`min_periods`], or if `backend` is not available on this host.
pub fn min_periods_with(
    backend: simd::Backend,
    sampler: &CanonicalBatchSampler,
    stream: u64,
    chips: &[u64],
    skews: &[f64],
    out: &mut Vec<MinPeriod>,
) {
    assert!(!sampler.ends().is_empty(), "sequential graph has no edges");
    assert_eq!(skews.len(), sampler.n_ffs(), "one skew per FF");
    out.clear();
    let ends = sampler.ends();
    sampler.draw_chips(
        backend,
        stream,
        chips.len(),
        |r| chips[r],
        None,
        |_, drawn| match drawn {
            Drawn::Chip(v) => out.push(min_period_over(ends.iter().copied(), v, skews)),
            Drawn::Lanes(lanes) => {
                out.extend_from_slice(&lanes.min_periods(ends, skews)[..lanes.live()]);
            }
        },
    );
}

/// The minimum-period scan over edges running `ends` — the reference
/// expression tree the chip-lane scan reproduces per lane.
fn min_period_over(
    ends: impl ExactSizeIterator<Item = (u32, u32)>,
    st: SampleView<'_>,
    skews: &[f64],
) -> MinPeriod {
    assert!(ends.len() > 0, "sequential graph has no edges");
    let mut best = f64::NEG_INFINITY;
    let mut arg = 0usize;
    let mut hold_ok = true;
    for (e, (from, to)) in ends.enumerate() {
        let (i, j) = (from as usize, to as usize);
        let need = st.edge_max[e] + st.setup[j] + skews[i] - skews[j];
        if need > best {
            best = need;
            arg = e;
        }
        if st.edge_min[e] - st.hold[j] + skews[i] - skews[j] < 0.0 {
            hold_ok = false;
        }
    }
    MinPeriod {
        period: best.max(0.0),
        hold_ok,
        critical_edge: arg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingGraph;
    use crate::sample::{chip_rng, sample_canonical, SampleTiming};
    use psbi_liberty::Library;
    use psbi_netlist::bench_suite;
    use psbi_variation::VariationModel;

    fn fixture() -> (SequentialGraph, SampleTiming, Vec<f64>) {
        let c = bench_suite::tiny_demo(9);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let mut st = SampleTiming::for_graph(&sg);
        let (globals, mut rng) = chip_rng(3, 0);
        sample_canonical(&sg, &globals, &mut rng, &mut st);
        let skews = vec![0.0; sg.n_ffs];
        (sg, st, skews)
    }

    #[test]
    fn min_period_is_feasibility_threshold() {
        let (sg, st, skews) = fixture();
        let mp = min_period(&sg, &st, &skews);
        assert!(mp.period > 0.0);
        let step = mp.period / 160.0;
        let mut ic = IntegerConstraints::for_graph(&sg);
        // Slightly above the minimum period: setup feasible at zero.
        ic.build(&sg, &st, &skews, mp.period * 1.0001, step);
        assert!(ic.setup_bound.iter().all(|b| *b >= 0));
        // Slightly below: the critical edge must be violated.
        ic.build(&sg, &st, &skews, mp.period - 2.0 * step, step);
        assert!(ic.setup_bound[mp.critical_edge] < 0);
    }

    #[test]
    fn hold_bounds_do_not_depend_on_period() {
        let (sg, st, skews) = fixture();
        let mut a = IntegerConstraints::for_graph(&sg);
        let mut b = IntegerConstraints::for_graph(&sg);
        a.build(&sg, &st, &skews, 500.0, 2.0);
        b.build(&sg, &st, &skews, 900.0, 2.0);
        assert_eq!(a.hold_bound, b.hold_bound);
        assert_ne!(a.setup_bound, b.setup_bound);
    }

    #[test]
    fn flooring_is_conservative() {
        let (sg, st, skews) = fixture();
        let mp = min_period(&sg, &st, &skews);
        let step = mp.period / 160.0;
        let mut ic = IntegerConstraints::for_graph(&sg);
        let t = mp.period * 1.05;
        ic.build(&sg, &st, &skews, t, step);
        for (e, edge) in sg.edges.iter().enumerate() {
            let (i, j) = (edge.from as usize, edge.to as usize);
            // Integer bound times step never exceeds the real slack.
            let real = t - st.setup[j] - st.edge_max[e] + skews[j] - skews[i];
            assert!(ic.setup_bound[e] as f64 * step <= real + 1e-9);
        }
    }

    #[test]
    fn skews_shift_constraints() {
        let (sg, st, mut skews) = fixture();
        let mp = min_period(&sg, &st, &skews);
        // Delay the launching FF of the critical edge: period must grow.
        let crit = &sg.edges[mp.critical_edge];
        skews[crit.from as usize] += 50.0;
        let mp2 = min_period(&sg, &st, &skews);
        assert!(mp2.period >= mp.period + 49.0);
    }

    #[test]
    fn batch_rows_match_scalar_build() {
        // ConstraintBatch::build_from must produce, per row, exactly what
        // IntegerConstraints::build_view produces for that row's view.
        use crate::sample::{CanonicalBatchSampler, SampleBatch};
        let c = bench_suite::tiny_demo(11);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let skews = vec![0.0; sg.n_ffs];
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, 12);
        sampler.fill(4, 0, &mut batch);
        let period = 600.0;
        let step = 3.0;
        let mut cb = ConstraintBatch::new();
        cb.build_from(&sg, &batch, &skews, period, step);
        assert_eq!(cb.len(), 12);
        let mut ic = IntegerConstraints::for_graph(&sg);
        for row in 0..12 {
            ic.build_view(&sg, batch.view(row), &skews, period, step);
            let v = cb.view(row);
            assert_eq!(v.setup_bound, &ic.setup_bound[..]);
            assert_eq!(v.hold_bound, &ic.hold_bound[..]);
            assert_eq!(v.feasible_at_zero(), ic.feasible_at_zero());
        }
    }

    #[test]
    fn batch_build_handles_nonzero_skews() {
        // The hoisted per-edge skew terms in build_from must reproduce the
        // scalar per-row formula for arbitrary skews.
        use crate::sample::{CanonicalBatchSampler, SampleBatch};
        let c = bench_suite::tiny_demo(12);
        let lib = Library::industry_like();
        let model = VariationModel::paper_defaults();
        let tg = TimingGraph::build(&c, &lib, &model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let skews: Vec<f64> = (0..sg.n_ffs)
            .map(|i| ((i % 5) as f64) * 3.5 - 7.0)
            .collect();
        let sampler = CanonicalBatchSampler::new(&sg);
        let (period, step) = (550.0, 2.5);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, 20);
        sampler.fill(77, 100, &mut batch);
        let mut cb = ConstraintBatch::new();
        cb.build_from(&sg, &batch, &skews, period, step);
        let mut ic = IntegerConstraints::for_graph(&sg);
        for row in 0..20 {
            ic.build_view(&sg, batch.view(row), &skews, period, step);
            let v = cb.view(row);
            assert_eq!(v.setup_bound, &ic.setup_bound[..], "row {row}");
            assert_eq!(v.hold_bound, &ic.hold_bound[..], "row {row}");
        }
    }

    /// The flow's step at period `t`: `t · (1/8) / 20`, evaluated in the
    /// flow's order, so `1/step` shrinks as `t` grows.
    fn flow_step(t: f64) -> f64 {
        t * (1.0 / 8.0) / 20.0
    }

    #[test]
    fn passing_untuned_is_monotone_in_the_period() {
        // The zero-pass lemma the flow's table relies on: a chip whose
        // floored bounds are all >= 0 at period T has them all >= 0 at
        // every T' >= T — on every kernel backend of the flow's fused
        // draw and on the scalar path.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let (mut implied, mut flipped) = (0usize, 0usize);
        for circuit_seed in [3u64, 17, 29] {
            let c = bench_suite::tiny_demo(circuit_seed);
            let lib = Library::industry_like();
            let model = VariationModel::paper_defaults();
            let tg = TimingGraph::build(&c, &lib, &model).unwrap();
            let sg = SequentialGraph::extract(&tg);
            let skews: Vec<f64> = (0..sg.n_ffs).map(|_| rng.gen_range(-6.0..6.0)).collect();
            let sampler = CanonicalBatchSampler::new(&sg);
            let len = 24;
            let ids: Vec<u64> = (100..100 + len as u64).collect();
            let chips: Vec<SampleTiming> = ids
                .iter()
                .map(|&k| {
                    let mut st = SampleTiming::for_graph(&sg);
                    sampler.fill_one(circuit_seed, k, &mut st);
                    st
                })
                .collect();
            // Periods around the chips' own minimum periods, including
            // each chip's exact threshold, paired with a later period
            // from one ulp to far above.
            let mut periods: Vec<f64> = chips
                .iter()
                .map(|st| min_period(&sg, st, &skews).period)
                .collect();
            for _ in 0..16 {
                let base = periods[rng.gen_range(0..len)];
                periods.push(base * rng.gen_range(0.98..1.02));
            }
            for &t in &periods {
                for t2 in [
                    t,
                    f64::from_bits(t.to_bits() + 1),
                    t * (1.0 + rng.gen_range(0.0..1e-3)),
                    t * 1.01,
                    t + 100.0,
                ] {
                    let mut scalar = IntegerConstraints::for_graph(&sg);
                    let mut scalar2 = IntegerConstraints::for_graph(&sg);
                    for (row, chip) in chips.iter().enumerate() {
                        scalar.build(&sg, chip, &skews, t, flow_step(t));
                        scalar2.build(&sg, chip, &skews, t2, flow_step(t2));
                        if scalar.feasible_at_zero() {
                            implied += 1;
                            assert!(
                                scalar2.feasible_at_zero(),
                                "scalar: row {row} passes at {t} but not at {t2}"
                            );
                        } else if scalar2.feasible_at_zero() {
                            flipped += 1;
                        }
                    }
                    for backend in crate::simd::Backend::available() {
                        let bounds_at = |t: f64| {
                            let mut cb = ConstraintBatch::new();
                            let (seed, step) = (circuit_seed, flow_step(t));
                            let caps = SaturationCaps::unbounded(&sg);
                            cb.draw_from_with(
                                backend, &sampler, seed, &ids, &skews, t, step, &caps,
                            );
                            cb
                        };
                        let (at_t, at_t2) = (bounds_at(t), bounds_at(t2));
                        for row in 0..len {
                            assert!(
                                !at_t.view(row).feasible_at_zero()
                                    || at_t2.view(row).feasible_at_zero(),
                                "backend {}: row {row} passes at {t} but not at {t2}",
                                backend.name()
                            );
                        }
                    }
                }
            }
        }
        assert!(implied > 0, "no chip passed untuned: the check is vacuous");
        assert!(flipped > 0, "no chip started passing at a longer period");
    }

    #[test]
    fn passing_untuned_is_monotone_at_rounding_edges() {
        // One edge 0 → 1 whose setup slack is exactly 0 at T = 1000, and
        // whose hold slack is the smallest negative subnormal: its product
        // with 1/step rounds to −0.0, so the floored hold bound is 0 (a
        // pass) at every period whose 1/step is below 1/2.
        use crate::seq::SeqEdge;
        use psbi_variation::CanonicalForm;
        let tiny = f64::from_bits(1);
        let sg = SequentialGraph::from_parts(
            2,
            vec![SeqEdge {
                from: 0,
                to: 1,
                max_delay: CanonicalForm::constant(990.0),
                min_delay: CanonicalForm::constant(tiny),
            }],
            vec![CanonicalForm::constant(10.0); 2],
            vec![CanonicalForm::constant(2.0 * tiny); 2],
        );
        let skews = [0.0, 0.0];
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut st = SampleTiming::for_graph(&sg);
        sampler.fill_one(1, 0, &mut st);
        let t = 1000.0;
        assert_eq!(
            t - st.setup[1] - st.edge_max[0],
            0.0,
            "setup slack is exactly 0"
        );
        let hold_slack = st.edge_min[0] - st.hold[1];
        assert!(hold_slack < 0.0, "hold slack is negative");
        assert_eq!(
            (hold_slack * (1.0 / flow_step(t))).to_bits(),
            (-0.0f64).to_bits()
        );
        let later = [t, f64::from_bits(t.to_bits() + 1), 1000.5, 2000.0, 1e9];
        let mut ic = IntegerConstraints::for_graph(&sg);
        for &t2 in &later {
            ic.build(&sg, &st, &skews, t2, flow_step(t2));
            assert!(ic.feasible_at_zero(), "scalar fails at {t2}");
            for backend in crate::simd::Backend::available() {
                let mut cb = ConstraintBatch::new();
                let (caps, step) = (SaturationCaps::unbounded(&sg), flow_step(t2));
                cb.draw_from_with(backend, &sampler, 1, &[0], &skews, t2, step, &caps);
                assert!(
                    cb.view(0).feasible_at_zero(),
                    "backend {} fails at {t2}",
                    backend.name()
                );
            }
        }
        // Just below T the setup bound is violated, and at a short period
        // (1/step above 1/2) the hold product no longer rounds to −0.0:
        // both flip to a pass as the period grows, never back.
        ic.build(&sg, &st, &skews, 999.0, flow_step(999.0));
        assert!(ic.setup_bound[0] < 0);
        ic.build(&sg, &st, &skews, 100.0, flow_step(100.0));
        assert!(ic.hold_bound[0] < 0);
    }

    #[test]
    fn feasible_at_zero_follows_the_period() {
        let (sg, st, skews) = fixture();
        let mut ic = IntegerConstraints::for_graph(&sg);
        let mp = min_period(&sg, &st, &skews);
        ic.build(&sg, &st, &skews, mp.period * 0.9, mp.period / 160.0);
        assert!(ic.setup_bound.iter().any(|b| *b < 0));
        assert!(!ic.feasible_at_zero());
        ic.build(&sg, &st, &skews, mp.period * 1.01, mp.period / 160.0);
        if mp.hold_ok {
            assert!(ic.feasible_at_zero());
        }
    }
}
