//! Monte-Carlo chip sampling: concrete per-edge delays, one sample or a
//! whole batch at a time.
//!
//! Two samplers produce the same per-chip layout:
//!
//! * [`sample_canonical`] draws each sequential edge's min/max delay from
//!   its canonical form — `O(edges)` per sample, the default mode;
//! * [`GateLevelSampler`] draws every *gate* delay and re-propagates
//!   min/max path delays numerically through the cones — the exact
//!   reference mode (the `ablation` binary's `sampler` leg, A3, quantifies
//!   the difference).
//!
//! # Batched sampling
//!
//! The flow's hot loop evaluates tens of thousands of chips per pass, so
//! this module also provides a batch engine:
//!
//! * [`CanonicalBatchSampler`] — a draw kernel over pre-flattened
//!   canonical coefficients that draws local terms by inverse transform
//!   (one uniform through the raw Acklam probit — no rejection loop),
//!   cutting the per-variate cost to a fraction of the scalar path's
//!   polar method.  Its one draw loop feeds three consumers that read
//!   each chip while it is still in cache: the fused bound extraction
//!   ([`ConstraintBatch::draw_from`], the flow's passes and yield, whose
//!   rows saturate each bound at the pass's cap, so the AVX2 draw skips
//!   the forms that feed only saturated bounds),
//!   calibration's minimum periods ([`min_periods`]) and the
//!   [`SampleBatch`] fills of the public API;
//! * [`SampleBatch`] — flat `samples × width` buffers for edge max/min
//!   delays and per-FF setup/hold times, for callers that keep the drawn
//!   chips (the flow keeps only gate-level chips);
//! * [`SampleBatch::fill_gate_level`] — the exact gate-level sampler over a
//!   batch, reusing one [`GateLevelSampler`] workspace.
//!
//! On AVX2 the draw loop runs four chips at once, one per vector lane
//! (see [`simd`]); every other path — hosts without AVX2,
//! `PSBI_FORCE_SCALAR=1` and [`CanonicalBatchSampler::fill_one`] — draws
//! one chip at a time through the scalar reference.  Every path produces
//! the same bits.
//!
//! Each chip in a batch is drawn from its own [`chip_rng`] stream keyed by
//! the *global* sample index, so a batch decomposes deterministically: the
//! values of chip `k` do not depend on the batch boundaries, on which
//! chips share its vector, or on how many worker threads drew
//! neighbouring chips.  The batch kernels consume the per-chip random
//! stream differently from the scalar functions (inverse transform
//! instead of the polar method), so batch and scalar draws of the same
//! chip index are two different — each internally reproducible —
//! populations with the same distribution.  The global parameter draws
//! come from [`chip_rng`] itself and are therefore identical in both
//! modes.
//!
//! [`ConstraintBatch::draw_from`]: crate::constraint::ConstraintBatch::draw_from
//! [`min_periods`]: crate::constraint::min_periods
//!
//! Delays are clamped to be non-negative and `min ≤ max` is enforced (the
//! canonical mode draws the two forms with independent local terms, so rare
//! crossings are possible and physically meaningless).

use crate::constraint::RowTerms;
use crate::graph::TimingGraph;
use crate::seq::SequentialGraph;
use crate::simd;
use psbi_variation::normal::draw_standard_normal;
use psbi_variation::{ChipStream, GlobalSample, N_PARAMS};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Concrete timing values of one manufactured chip.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleTiming {
    /// Max path delay per sequential edge (same order as
    /// [`SequentialGraph::edges`]).
    pub edge_max: Vec<f64>,
    /// Min path delay per sequential edge.
    pub edge_min: Vec<f64>,
    /// Setup time per FF.
    pub setup: Vec<f64>,
    /// Hold time per FF.
    pub hold: Vec<f64>,
}

impl SampleTiming {
    /// Pre-sizes the buffers for a graph.
    pub fn for_graph(sg: &SequentialGraph) -> Self {
        Self {
            edge_max: vec![0.0; sg.edges.len()],
            edge_min: vec![0.0; sg.edges.len()],
            setup: vec![0.0; sg.n_ffs],
            hold: vec![0.0; sg.n_ffs],
        }
    }

    /// Borrowed view of this chip's timing values.
    #[inline]
    pub fn view(&self) -> SampleView<'_> {
        SampleView {
            edge_max: &self.edge_max,
            edge_min: &self.edge_min,
            setup: &self.setup,
            hold: &self.hold,
        }
    }
}

/// Borrowed timing values of one chip — either a standalone
/// [`SampleTiming`] or one row of a [`SampleBatch`].
#[derive(Debug, Clone, Copy)]
pub struct SampleView<'a> {
    /// Max path delay per sequential edge.
    pub edge_max: &'a [f64],
    /// Min path delay per sequential edge.
    pub edge_min: &'a [f64],
    /// Setup time per FF.
    pub setup: &'a [f64],
    /// Hold time per FF.
    pub hold: &'a [f64],
}

/// Structure-of-arrays storage for a batch of Monte-Carlo chips.
///
/// All four fields are flat `len × width` row-major buffers (`width` is
/// `edges` for the delay pair and `n_ffs` for setup/hold).  [`reset`]
/// re-shapes the batch without shrinking capacity, so one `SampleBatch`
/// per worker serves every pass of the flow with a single allocation.
///
/// [`reset`]: SampleBatch::reset
#[derive(Debug, Clone, Default)]
pub struct SampleBatch {
    n_edges: usize,
    n_ffs: usize,
    len: usize,
    first_index: u64,
    edge_max: Vec<f64>,
    edge_min: Vec<f64>,
    setup: Vec<f64>,
    hold: Vec<f64>,
}

impl SampleBatch {
    /// An empty batch; call [`SampleBatch::reset`] before filling.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-shapes the batch for `len` chips of `sg`, reusing capacity.
    pub fn reset(&mut self, sg: &SequentialGraph, len: usize) {
        self.n_edges = sg.edges.len();
        self.n_ffs = sg.n_ffs;
        self.len = len;
        self.first_index = 0;
        self.edge_max.clear();
        self.edge_max.resize(len * self.n_edges, 0.0);
        self.edge_min.clear();
        self.edge_min.resize(len * self.n_edges, 0.0);
        self.setup.clear();
        self.setup.resize(len * self.n_ffs, 0.0);
        self.hold.clear();
        self.hold.resize(len * self.n_ffs, 0.0);
    }

    /// Number of chips currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no chips.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global sample index of row 0 (set by the fill kernels).
    #[inline]
    pub fn first_index(&self) -> u64 {
        self.first_index
    }

    /// Borrowed view of chip `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    #[inline]
    pub fn view(&self, row: usize) -> SampleView<'_> {
        assert!(row < self.len, "batch row out of range");
        let e = row * self.n_edges;
        let f = row * self.n_ffs;
        SampleView {
            edge_max: &self.edge_max[e..e + self.n_edges],
            edge_min: &self.edge_min[e..e + self.n_edges],
            setup: &self.setup[f..f + self.n_ffs],
            hold: &self.hold[f..f + self.n_ffs],
        }
    }

    /// Mutable row slices in `(edge_max, edge_min, setup, hold)` order.
    #[inline]
    fn row_mut(&mut self, row: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        let e = row * self.n_edges;
        let f = row * self.n_ffs;
        (
            &mut self.edge_max[e..e + self.n_edges],
            &mut self.edge_min[e..e + self.n_edges],
            &mut self.setup[f..f + self.n_ffs],
            &mut self.hold[f..f + self.n_ffs],
        )
    }

    /// Fills the batch with chips `first..first + len` of `stream` by
    /// exact gate-level propagation, reusing `sampler`'s workspaces — the
    /// gathered fill ([`SampleBatch::fill_gate_level_gathered`]) over
    /// consecutive indices.
    ///
    /// The batch must have been [`reset`](SampleBatch::reset) for the same
    /// graph the sampler was built from.
    pub fn fill_gate_level(
        &mut self,
        tg: &TimingGraph<'_>,
        sg: &SequentialGraph,
        sampler: &mut GateLevelSampler,
        stream: u64,
        first: u64,
    ) {
        self.fill_gate_level_rows(tg, sg, sampler, stream, first, |row| first + row as u64);
    }

    /// Fills row `r` of the batch with chip `chips[r]` of `stream` by
    /// exact gate-level propagation.  Each row holds exactly the chip a
    /// contiguous fill containing that index would hold.
    ///
    /// # Panics
    ///
    /// Panics if the batch was not [`reset`](SampleBatch::reset) to
    /// `chips.len()` rows of `sg`.
    pub fn fill_gate_level_gathered(
        &mut self,
        tg: &TimingGraph<'_>,
        sg: &SequentialGraph,
        sampler: &mut GateLevelSampler,
        stream: u64,
        chips: &[u64],
    ) {
        assert_eq!(
            self.len,
            chips.len(),
            "batch not reset for the gathered chips"
        );
        let first = chips.first().copied().unwrap_or(0);
        self.fill_gate_level_rows(tg, sg, sampler, stream, first, |row| chips[row]);
    }

    /// The one gate-level fill loop: row `r` draws chip `chip(r)`, and
    /// `first` (= `chip(0)`) keys the span and the batch's
    /// [`first_index`](SampleBatch::first_index).
    fn fill_gate_level_rows(
        &mut self,
        tg: &TimingGraph<'_>,
        sg: &SequentialGraph,
        sampler: &mut GateLevelSampler,
        stream: u64,
        first: u64,
        chip: impl Fn(usize) -> u64,
    ) {
        assert_eq!(self.n_edges, sg.edges.len(), "batch not reset for graph");
        let _span = psbi_obs::Span::enter_with(
            "sample.batch.gate_level",
            &[("chips", self.len as u64), ("first", first)],
        );
        psbi_obs::metrics::counter_add("sample.batches", 1);
        psbi_obs::metrics::counter_add("sample.chips", self.len as u64);
        self.first_index = first;
        for row in 0..self.len {
            let (globals, mut rng) = chip_rng(stream, chip(row));
            let (edge_max, edge_min, setup, hold) = self.row_mut(row);
            sampler.sample_into(tg, sg, &globals, &mut rng, edge_max, edge_min, setup, hold);
        }
    }
}

/// The uniform feeding one inverse-transform draw: `(k + 0.5) / 2^52`
/// over a 52-bit `k`, strictly inside `(0, 1)` for every `k`.
///
/// 52 bits rather than 53 so `k + 0.5` is always exactly representable:
/// with 53 bits, `k = 2^53 − 1` would round `k + 0.5` up to `2^53` and
/// yield `u == 1.0` — a one-in-`2^53` draw that would feed `ln(0)` into
/// the probit tail branch and come back `NaN`.
#[inline]
fn unit_uniform<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// One standard normal by inverse transform: a single 52-bit uniform
/// ([`unit_uniform`]) mapped through the raw Acklam probit (no rejection
/// loop, no `ln`/`sqrt` in the central 95 % of draws).  Roughly 2–3×
/// cheaper per variate than the polar method the scalar path uses;
/// statistically interchangeable (relative error of the inverse CDF
/// ≈ `1.15e-9`).
#[inline]
fn draw_standard_normal_inv<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    psbi_variation::normal::probit_fast(unit_uniform(rng))
}

/// Pre-flattened canonical coefficients of one form: mean, the global
/// sensitivities, and the independent sigma.  The fused scalar reference
/// path iterates these contiguous structs (one cache line per pair of
/// forms); the chip lanes read the same coefficients from the
/// structure-of-arrays [`simd::FormGroup`]s instead.
#[derive(Debug, Clone, Copy)]
struct FlatForm {
    mean: f64,
    sens: [f64; N_PARAMS],
    indep: f64,
}

impl FlatForm {
    #[inline]
    fn of(form: &psbi_variation::CanonicalForm) -> Self {
        Self {
            mean: form.mean(),
            sens: *form.sensitivities(),
            indep: form.indep(),
        }
    }

    /// Scalar draw — the expression tree (left-associated sensitivity
    /// sum, one conditional local term) the chip lanes reproduce
    /// lane-wise; see [`simd`] for the parity contract.
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, globals: &GlobalSample, rng: &mut R) -> f64 {
        let mut v = self.mean;
        for p in 0..N_PARAMS {
            v += self.sens[p] * globals.delta[p];
        }
        if self.indep != 0.0 {
            v += self.indep * draw_standard_normal_inv(rng);
        }
        v
    }
}

/// Batch-draw kernel for the canonical edge forms.
///
/// Built once per graph; [`fill`](CanonicalBatchSampler::fill) then draws
/// any window of the sample stream into a [`SampleBatch`], and
/// [`ConstraintBatch::draw_from`] and [`min_periods`] draw chips straight
/// into their integer bounds or minimum periods.  The canonical
/// coefficients are flattened into four structure-of-arrays groups
/// (setup, hold, edge-max, edge-min — see [`simd::FormGroup`]) so the
/// chip lanes draw in a handful of linear sweeps.
///
/// # Kernel dispatch
///
/// [`fill`] and the fused entries run on the process-wide backend picked
/// by [`simd::active`] (AVX2 chip lanes, or the fused scalar reference on
/// other hosts and under `PSBI_FORCE_SCALAR=1`); [`fill_one`] always runs
/// the scalar reference.
/// All backends are **bit-identical** — see the [`simd`] module docs for
/// the parity argument — so the choice never affects results, only
/// throughput.  [`fill_with`](CanonicalBatchSampler::fill_with) pins an
/// explicit backend for benchmarks and parity tests.
///
/// [`fill`]: CanonicalBatchSampler::fill
/// [`fill_one`]: CanonicalBatchSampler::fill_one
/// [`simd::FormGroup`]: crate::simd
/// [`ConstraintBatch::draw_from`]: crate::constraint::ConstraintBatch::draw_from
/// [`min_periods`]: crate::constraint::min_periods
#[derive(Debug, Clone)]
pub struct CanonicalBatchSampler {
    setup: simd::FormGroup,
    hold: simd::FormGroup,
    emax: simd::FormGroup,
    emin: simd::FormGroup,
    /// Interleaved `setup, hold` forms per FF — the scalar path's
    /// cache-friendly AoS copy of the same coefficients.
    ff_forms: Vec<FlatForm>,
    /// Interleaved `max, min` forms per edge (scalar path).
    edge_forms: Vec<FlatForm>,
    /// Dense-layout index of every RNG draw, in the scalar draw order
    /// (setup₀, hold₀, setup₁, …, then max₀, min₀, max₁, …), skipping
    /// forms with a zero independent term — the uniform-consumption
    /// contract shared by the scalar and wide paths.
    draw_slots: Vec<u32>,
    /// `(from, to)` FFs of every edge, for the fused consumers.
    ends: Vec<(u32, u32)>,
    /// Total forms (`2·n_ffs + 2·n_edges`) = dense scratch length.
    n_forms: usize,
}

/// What the one draw loop ([`CanonicalBatchSampler::draw_chips`]) hands
/// its consumer: a run of chips, drawn.
pub(crate) enum Drawn<'a> {
    /// One chip, drawn by the scalar reference.
    Chip(SampleView<'a>),
    /// Up to [`simd::CHIP_LANES`] consecutive chips in AVX2 chip lanes.
    Lanes(simd::ChipLanes<'a>),
}

/// Dense scratch layout: `setup | hold | edge_max | edge_min`.
#[inline]
fn dense_index(n_ffs: usize, n_edges: usize, group: usize, k: usize) -> usize {
    match group {
        0 => k,
        1 => n_ffs + k,
        2 => 2 * n_ffs + k,
        _ => 2 * n_ffs + n_edges + k,
    }
}

impl CanonicalBatchSampler {
    /// Flattens the canonical forms of `sg`.
    pub fn new(sg: &SequentialGraph) -> Self {
        let n_ffs = sg.n_ffs;
        let n_edges = sg.edges.len();
        let mut setup = simd::FormGroup::new();
        let mut hold = simd::FormGroup::new();
        let mut ff_forms = Vec::with_capacity(2 * n_ffs);
        for i in 0..n_ffs {
            setup.push(&sg.setup[i]);
            hold.push(&sg.hold[i]);
            ff_forms.push(FlatForm::of(&sg.setup[i]));
            ff_forms.push(FlatForm::of(&sg.hold[i]));
        }
        let mut emax = simd::FormGroup::new();
        let mut emin = simd::FormGroup::new();
        let mut edge_forms = Vec::with_capacity(2 * n_edges);
        for edge in &sg.edges {
            emax.push(&edge.max_delay);
            emin.push(&edge.min_delay);
            edge_forms.push(FlatForm::of(&edge.max_delay));
            edge_forms.push(FlatForm::of(&edge.min_delay));
        }
        let n_forms = 2 * n_ffs + 2 * n_edges;
        assert!(n_forms <= u32::MAX as usize, "graph too large for draw map");
        // RNG draw order (must mirror `draw_chip_scalar` exactly): FF
        // setup/hold pairs first, then the edge max/min pairs, skipping
        // forms without an independent term.
        let mut draw_slots = Vec::with_capacity(n_forms);
        for i in 0..n_ffs {
            if setup.indep[i] != 0.0 {
                draw_slots.push(dense_index(n_ffs, n_edges, 0, i) as u32);
            }
            if hold.indep[i] != 0.0 {
                draw_slots.push(dense_index(n_ffs, n_edges, 1, i) as u32);
            }
        }
        for e in 0..n_edges {
            if emax.indep[e] != 0.0 {
                draw_slots.push(dense_index(n_ffs, n_edges, 2, e) as u32);
            }
            if emin.indep[e] != 0.0 {
                draw_slots.push(dense_index(n_ffs, n_edges, 3, e) as u32);
            }
        }
        Self {
            setup,
            hold,
            emax,
            emin,
            ff_forms,
            edge_forms,
            draw_slots,
            ends: sg.edges.iter().map(|e| (e.from, e.to)).collect(),
            n_forms,
        }
    }

    #[inline]
    pub(crate) fn n_ffs(&self) -> usize {
        self.setup.len()
    }

    #[inline]
    pub(crate) fn n_edges(&self) -> usize {
        self.emax.len()
    }

    /// `(from, to)` FFs of every edge, in edge order.
    #[inline]
    pub(crate) fn ends(&self) -> &[(u32, u32)] {
        &self.ends
    }

    /// Fills `batch` with chips `first..first + batch.len()` of `stream`
    /// on the process-wide kernel backend ([`simd::active`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch shape does not match this sampler's graph.
    pub fn fill(&self, stream: u64, first: u64, batch: &mut SampleBatch) {
        self.fill_with(simd::active(), stream, first, batch);
    }

    /// [`fill`](CanonicalBatchSampler::fill) on an explicit kernel
    /// backend.  Every backend produces bit-identical buffers; this
    /// entry point exists for parity tests and scalar-vs-SIMD benchmarks.
    /// A contiguous fill is the gathered fill
    /// ([`fill_gathered_with`](CanonicalBatchSampler::fill_gathered_with))
    /// over consecutive indices.
    ///
    /// # Panics
    ///
    /// Panics if the batch shape does not match this sampler's graph, or
    /// if `backend` is not available on this host.
    pub fn fill_with(
        &self,
        backend: simd::Backend,
        stream: u64,
        first: u64,
        batch: &mut SampleBatch,
    ) {
        self.fill_rows(backend, stream, first, |row| first + row as u64, batch);
    }

    /// Fills row `r` of `batch` with chip `chips[r]` of `stream` on the
    /// process-wide kernel backend — a gathered list, like the chips the
    /// flow's passes cannot settle without a draw.  Each row holds exactly
    /// the chip a contiguous [`fill`](CanonicalBatchSampler::fill)
    /// containing that index would hold, and the batch's
    /// [`first_index`](SampleBatch::first_index) is `chips[0]`.
    ///
    /// # Panics
    ///
    /// Panics if the batch shape does not match this sampler's graph or
    /// the batch was not reset to `chips.len()` rows.
    pub fn fill_gathered(&self, stream: u64, chips: &[u64], batch: &mut SampleBatch) {
        self.fill_gathered_with(simd::active(), stream, chips, batch);
    }

    /// [`fill_gathered`](CanonicalBatchSampler::fill_gathered) on an
    /// explicit kernel backend (parity tests and benchmarks).
    ///
    /// # Panics
    ///
    /// As [`fill_gathered`](CanonicalBatchSampler::fill_gathered), or if
    /// `backend` is not available on this host.
    pub fn fill_gathered_with(
        &self,
        backend: simd::Backend,
        stream: u64,
        chips: &[u64],
        batch: &mut SampleBatch,
    ) {
        assert_eq!(
            batch.len,
            chips.len(),
            "batch not reset for the gathered chips"
        );
        let first = chips.first().copied().unwrap_or(0);
        self.fill_rows(backend, stream, first, |row| chips[row], batch);
    }

    /// The canonical fill loop: row `r` holds chip `chip(r)`, and `first`
    /// (= `chip(0)`) is the batch's
    /// [`first_index`](SampleBatch::first_index).
    fn fill_rows(
        &self,
        backend: simd::Backend,
        stream: u64,
        first: u64,
        chip: impl Fn(usize) -> u64,
        batch: &mut SampleBatch,
    ) {
        assert_eq!(
            batch.n_edges,
            self.n_edges(),
            "batch not reset for this sampler's graph"
        );
        assert_eq!(batch.n_ffs, self.n_ffs());
        batch.first_index = first;
        self.draw_chips(
            backend,
            stream,
            batch.len,
            chip,
            None,
            |row, drawn| match drawn {
                Drawn::Chip(v) => {
                    let (edge_max, edge_min, setup, hold) = batch.row_mut(row);
                    edge_max.copy_from_slice(v.edge_max);
                    edge_min.copy_from_slice(v.edge_min);
                    setup.copy_from_slice(v.setup);
                    hold.copy_from_slice(v.hold);
                }
                Drawn::Lanes(lanes) => {
                    for l in 0..lanes.live() {
                        let (edge_max, edge_min, setup, hold) = batch.row_mut(row + l);
                        lanes.copy_lane(l, edge_max, edge_min, setup, hold);
                    }
                }
            },
        );
    }

    /// The one canonical draw loop, behind [`fill`](Self::fill),
    /// [`ConstraintBatch::draw_from`] and [`min_periods`]: draws chips
    /// `chip(0..len)` of `stream` and hands them to `consume` in row order
    /// with the row of the first — four chips per call in AVX2 chip lanes
    /// (a short last group padded with a repeat of its first chip, which
    /// is never read out), else one chip per call.  The
    /// `sample.batch.fill` span covers the consumers too, and the
    /// `sample.batch.corrupt` failpoint is keyed by `chip(0)`.
    ///
    /// With `caps`, the consumer reads only the bounds rows those terms
    /// give, each saturated at its cap, so the chip lanes draw only the
    /// forms that can feed a bound below its cap ([`simd::draw_lanes`]);
    /// the scalar reference draws every form.  The armed-only counters
    /// `sample.draws` and `sample.probits` count the local draws of the
    /// chips and the probits the draw ran for them.
    ///
    /// `consume` must not draw (it would re-enter the thread's scratch).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this host.
    ///
    /// [`ConstraintBatch::draw_from`]: crate::constraint::ConstraintBatch::draw_from
    /// [`min_periods`]: crate::constraint::min_periods
    pub(crate) fn draw_chips(
        &self,
        backend: simd::Backend,
        stream: u64,
        len: usize,
        chip: impl Fn(usize) -> u64,
        caps: Option<&RowTerms<'_>>,
        mut consume: impl FnMut(usize, Drawn<'_>),
    ) {
        assert!(
            backend.is_available(),
            "kernel backend {} not available on this host",
            backend.name()
        );
        let first = if len > 0 { chip(0) } else { 0 };
        let _span = psbi_obs::Span::enter_with(
            "sample.batch.fill",
            &[("chips", len as u64), ("first", first)],
        );
        psbi_obs::metrics::counter_add("sample.batches", 1);
        psbi_obs::metrics::counter_add("sample.chips", len as u64);
        // Which kernel the sampling engine is running ([`simd::Backend`]'s
        // discriminant) — deterministic for a fixed environment, so it participates in metric-determinism
        // tests unlike the wall-time histograms.
        psbi_obs::metrics::gauge_set("simd.backend", backend as u64);
        if psbi_fault::failpoint!("sample.batch.corrupt", "first" = first) {
            // Models *detected* batch corruption (e.g. a poisoned draw
            // buffer): the fill dies instead of returning garbage, and the
            // fleet's per-job retry recomputes the batch deterministically.
            panic!("injected fault: sample.batch.corrupt");
        }
        let draws = self.draw_slots.len() * len;
        let probits = simd::with_scratch(|scratch| match backend {
            simd::Backend::Avx2 => {
                let forms = simd::LaneForms {
                    groups: [&self.setup, &self.hold, &self.emax, &self.emin],
                    draw_slots: &self.draw_slots,
                };
                let seed = |r: usize| {
                    let (globals, rng) = chip_rng(stream, chip(r));
                    simd::LaneSeed {
                        state: rng.state(),
                        delta: globals.delta,
                    }
                };
                // A draw against caps screens the call's chips first, so
                // it keeps their seeds.
                if let Some(t) = caps {
                    scratch.seeds.clear();
                    scratch.seeds.extend((0..len).map(seed));
                    simd::screen(&forms, t, scratch);
                }
                let mut probits = 0;
                for row in (0..len).step_by(simd::CHIP_LANES) {
                    let live = simd::CHIP_LANES.min(len - row);
                    let seeds = std::array::from_fn(|l| {
                        let r = row + if l < live { l } else { 0 };
                        match caps {
                            Some(_) => scratch.seeds[r],
                            None => seed(r),
                        }
                    });
                    let lanes = simd::draw_lanes(&forms, &seeds, live, caps, scratch);
                    probits += lanes.probits() * live;
                    consume(row, Drawn::Lanes(lanes));
                }
                probits
            }
            simd::Backend::Scalar => {
                scratch.ensure(0, 0, self.n_forms);
                for row in 0..len {
                    consume(
                        row,
                        Drawn::Chip(self.draw_one(&mut scratch.row, stream, chip(row))),
                    );
                }
                draws
            }
        });
        psbi_obs::metrics::counter_add("sample.draws", draws as u64);
        psbi_obs::metrics::counter_add("sample.probits", probits as u64);
    }

    /// Draws one chip through the scalar reference into `row` (dense
    /// layout `setup | hold | edge_max | edge_min`).
    fn draw_one<'s>(&self, row: &'s mut [f64], stream: u64, index: u64) -> SampleView<'s> {
        let (n_ffs, n_edges) = (self.n_ffs(), self.n_edges());
        let (setup, rest) = row[..self.n_forms].split_at_mut(n_ffs);
        let (hold, rest) = rest.split_at_mut(n_ffs);
        let (edge_max, edge_min) = rest.split_at_mut(n_edges);
        self.draw_chip_scalar(stream, index, edge_max, edge_min, setup, hold);
        SampleView {
            edge_max,
            edge_min,
            setup,
            hold,
        }
    }

    /// Draws one chip directly into a reused [`SampleTiming`] through the
    /// scalar reference kernel, on every backend — the allocation-free
    /// single-chip form of [`CanonicalBatchSampler::fill`], used by the
    /// flow's replay paths (speed binning, constraint replay) and by the
    /// verifier.  Produces exactly the chip a batch containing `index`
    /// holds, since every backend is bit-identical to this reference.
    pub fn fill_one(&self, stream: u64, index: u64, out: &mut SampleTiming) {
        let n_edges = self.n_edges();
        let n_ffs = self.n_ffs();
        out.edge_max.clear();
        out.edge_max.resize(n_edges, 0.0);
        out.edge_min.clear();
        out.edge_min.resize(n_edges, 0.0);
        out.setup.clear();
        out.setup.resize(n_ffs, 0.0);
        out.hold.clear();
        out.hold.resize(n_ffs, 0.0);
        self.draw_chip_scalar(
            stream,
            index,
            &mut out.edge_max,
            &mut out.edge_min,
            &mut out.setup,
            &mut out.hold,
        );
    }

    /// Fused per-chip scalar kernel — the reference path (and the
    /// `PSBI_FORCE_SCALAR=1` path).  Draw order: FF setup/hold first,
    /// then the edge pairs — the chip lanes consume each chip's RNG in
    /// the identical order (through `draw_slots`) so a chip's values
    /// depend only on `(stream, index)`.
    fn draw_chip_scalar(
        &self,
        stream: u64,
        index: u64,
        edge_max: &mut [f64],
        edge_min: &mut [f64],
        setup: &mut [f64],
        hold: &mut [f64],
    ) {
        let (globals, mut rng) = chip_rng(stream, index);
        for (i, pair) in setup.iter_mut().zip(hold.iter_mut()).enumerate() {
            *pair.0 = self.ff_forms[2 * i].draw(&globals, &mut rng).max(0.0);
            *pair.1 = self.ff_forms[2 * i + 1].draw(&globals, &mut rng).max(0.0);
        }
        for (e, pair) in edge_max.iter_mut().zip(edge_min.iter_mut()).enumerate() {
            let dmax = self.edge_forms[2 * e].draw(&globals, &mut rng).max(0.0);
            let dmin = self.edge_forms[2 * e + 1].draw(&globals, &mut rng).max(0.0);
            *pair.0 = dmax.max(dmin);
            *pair.1 = dmin.min(dmax);
        }
    }
}

/// Draws one chip from the canonical edge forms (fast path).
pub fn sample_canonical<R: Rng + ?Sized>(
    sg: &SequentialGraph,
    globals: &GlobalSample,
    rng: &mut R,
    out: &mut SampleTiming,
) {
    out.edge_max.resize(sg.edges.len(), 0.0);
    out.edge_min.resize(sg.edges.len(), 0.0);
    out.setup.resize(sg.n_ffs, 0.0);
    out.hold.resize(sg.n_ffs, 0.0);
    for (e, edge) in sg.edges.iter().enumerate() {
        let dmax = edge.max_delay.sample(globals, rng).max(0.0);
        let dmin = edge.min_delay.sample(globals, rng).max(0.0);
        out.edge_max[e] = dmax.max(dmin);
        out.edge_min[e] = dmin.min(dmax);
    }
    for i in 0..sg.n_ffs {
        out.setup[i] = sg.setup[i].sample(globals, rng).max(0.0);
        out.hold[i] = sg.hold[i].sample(globals, rng).max(0.0);
    }
}

/// Exact gate-level sampler: draws every gate delay and propagates.
///
/// Holds reusable workspaces; create once per worker thread.
#[derive(Debug)]
pub struct GateLevelSampler {
    gate_val: Vec<f64>,
    clkq_val: Vec<f64>,
    arr_max: Vec<f64>,
    arr_min: Vec<f64>,
    mark: Vec<u32>,
}

impl GateLevelSampler {
    /// Creates workspaces sized for `tg`.
    pub fn new(tg: &TimingGraph<'_>) -> Self {
        let n = tg.circuit.len();
        Self {
            gate_val: vec![0.0; n],
            clkq_val: vec![0.0; tg.num_ffs()],
            arr_max: vec![0.0; n],
            arr_min: vec![0.0; n],
            mark: vec![u32::MAX; n],
        }
    }

    /// Draws one chip at gate level.
    ///
    /// The sequential graph must have been extracted from the same timing
    /// graph (edge order follows its cone traversal).
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        tg: &TimingGraph<'_>,
        sg: &SequentialGraph,
        globals: &GlobalSample,
        rng: &mut R,
        out: &mut SampleTiming,
    ) {
        out.edge_max.resize(sg.edges.len(), 0.0);
        out.edge_min.resize(sg.edges.len(), 0.0);
        out.setup.resize(sg.n_ffs, 0.0);
        out.hold.resize(sg.n_ffs, 0.0);
        self.sample_into(
            tg,
            sg,
            globals,
            rng,
            &mut out.edge_max,
            &mut out.edge_min,
            &mut out.setup,
            &mut out.hold,
        );
    }

    /// Draws one chip at gate level directly into caller-provided slices
    /// (e.g. one row of a [`SampleBatch`]).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match `sg`.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_into<R: Rng + ?Sized>(
        &mut self,
        tg: &TimingGraph<'_>,
        sg: &SequentialGraph,
        globals: &GlobalSample,
        rng: &mut R,
        edge_max: &mut [f64],
        edge_min: &mut [f64],
        setup: &mut [f64],
        hold: &mut [f64],
    ) {
        let circuit = tg.circuit;
        assert_eq!(edge_max.len(), sg.edges.len(), "edge slice mismatch");
        assert_eq!(edge_min.len(), sg.edges.len(), "edge slice mismatch");
        assert_eq!(setup.len(), sg.n_ffs, "setup slice mismatch");
        assert_eq!(hold.len(), sg.n_ffs, "hold slice mismatch");

        for &g in tg.topo() {
            self.gate_val[g.index()] = tg.gate_delay(g).sample(globals, rng).max(0.0);
        }
        for i in 0..sg.n_ffs {
            self.clkq_val[i] = tg.clk_to_q(i).sample(globals, rng).max(0.0);
            setup[i] = sg.setup[i].sample(globals, rng).max(0.0);
            hold[i] = sg.hold[i].sample(globals, rng).max(0.0);
        }

        self.mark.fill(u32::MAX);
        let mut edge_cursor = 0usize;
        for i in 0..sg.n_ffs {
            let stamp = i as u32;
            let ff_node = circuit.ff_ids()[i];
            self.mark[ff_node.index()] = stamp;
            self.arr_max[ff_node.index()] = self.clkq_val[i];
            self.arr_min[ff_node.index()] = self.clkq_val[i];
            let cone = sg.cones().cone(i);
            for &g in &cone.gates {
                let mut mx = f64::NEG_INFINITY;
                let mut mn = f64::INFINITY;
                for &f in circuit.fanins(g) {
                    if self.mark[f.index()] == stamp {
                        mx = mx.max(self.arr_max[f.index()]);
                        mn = mn.min(self.arr_min[f.index()]);
                    }
                }
                debug_assert!(mx.is_finite(), "cone gate without reachable fanin");
                let d = self.gate_val[g.index()];
                self.arr_max[g.index()] = mx + d;
                self.arr_min[g.index()] = mn + d;
                self.mark[g.index()] = stamp;
            }
            for &(_, driver) in &cone.sinks {
                edge_max[edge_cursor] = self.arr_max[driver.index()];
                edge_min[edge_cursor] = self.arr_min[driver.index()];
                edge_cursor += 1;
            }
        }
        debug_assert_eq!(edge_cursor, sg.edges.len());
    }
}

/// Draws the global parameter deviations for sample `index` of a run and
/// returns the per-sample stream for the local terms (its outputs are the
/// vendored `StdRng`'s for the same seed).
pub fn chip_rng(base_seed: u64, index: u64) -> (GlobalSample, ChipStream) {
    let mut rng = psbi_variation::sample_rng(base_seed, index);
    let mut globals = GlobalSample::default();
    for d in &mut globals.delta {
        *d = draw_standard_normal(&mut rng);
    }
    (globals, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingGraph;
    use psbi_liberty::Library;
    use psbi_netlist::bench_suite;
    use psbi_variation::VariationModel;

    struct Fixture {
        circuit: psbi_netlist::Circuit,
        lib: Library,
        model: VariationModel,
    }

    impl Fixture {
        fn new(seed: u64) -> Self {
            Self {
                circuit: bench_suite::tiny_demo(seed),
                lib: Library::industry_like(),
                model: VariationModel::paper_defaults(),
            }
        }
    }

    #[test]
    fn canonical_sampling_respects_order_invariants() {
        let fx = Fixture::new(1);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let mut st = SampleTiming::for_graph(&sg);
        for k in 0..50 {
            let (globals, mut rng) = chip_rng(42, k);
            sample_canonical(&sg, &globals, &mut rng, &mut st);
            for e in 0..sg.edges.len() {
                assert!(st.edge_max[e] >= st.edge_min[e]);
                assert!(st.edge_min[e] >= 0.0);
            }
            for i in 0..sg.n_ffs {
                assert!(st.setup[i] > 0.0);
                assert!(st.hold[i] >= 0.0);
            }
        }
    }

    #[test]
    fn gate_level_sampling_matches_structure() {
        let fx = Fixture::new(2);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let mut sampler = GateLevelSampler::new(&tg);
        let mut st = SampleTiming::for_graph(&sg);
        let (globals, mut rng) = chip_rng(7, 0);
        sampler.sample(&tg, &sg, &globals, &mut rng, &mut st);
        assert_eq!(st.edge_max.len(), sg.edges.len());
        for e in 0..sg.edges.len() {
            assert!(st.edge_max[e] >= st.edge_min[e] - 1e-9);
        }
    }

    #[test]
    fn canonical_matches_gate_level_statistics() {
        // The canonical (SSTA) edge forms should reproduce the gate-level
        // Monte-Carlo mean and sigma of each edge's max delay within a few
        // percent (Clark's approximation).
        let fx = Fixture::new(3);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let n = 20_000usize;
        let mut sampler = GateLevelSampler::new(&tg);
        let mut st = SampleTiming::for_graph(&sg);
        let ne = sg.edges.len();
        let mut sum = vec![0.0; ne];
        let mut sum2 = vec![0.0; ne];
        for k in 0..n {
            let (globals, mut rng) = chip_rng(11, k as u64);
            sampler.sample(&tg, &sg, &globals, &mut rng, &mut st);
            for e in 0..ne {
                sum[e] += st.edge_max[e];
                sum2[e] += st.edge_max[e] * st.edge_max[e];
            }
        }
        for e in 0..ne {
            let mc_mean = sum[e] / n as f64;
            let mc_var = (sum2[e] / n as f64 - mc_mean * mc_mean).max(0.0);
            let canon = &sg.edges[e].max_delay;
            let dm = (canon.mean() - mc_mean).abs() / mc_mean;
            assert!(
                dm < 0.04,
                "edge {e}: mean {} vs MC {}",
                canon.mean(),
                mc_mean
            );
            let ds = (canon.sigma() - mc_var.sqrt()).abs() / mc_mean;
            assert!(
                ds < 0.05,
                "edge {e}: sigma {} vs MC {}",
                canon.sigma(),
                mc_var.sqrt()
            );
        }
    }

    #[test]
    fn chip_globals_are_standard_normal() {
        let n = 50_000;
        let mut sum = [0.0; N_PARAMS];
        let mut sum2 = [0.0; N_PARAMS];
        for k in 0..n {
            let (g, _) = chip_rng(3, k);
            for i in 0..N_PARAMS {
                sum[i] += g.delta[i];
                sum2[i] += g.delta[i] * g.delta[i];
            }
        }
        for i in 0..N_PARAMS {
            let mean = sum[i] / n as f64;
            let var = sum2[i] / n as f64 - mean * mean;
            assert!(mean.abs() < 0.02);
            assert!((var - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn chip_rng_draws_the_pinned_globals() {
        // The global deviations and the next stream output of a few chips,
        // recorded when `chip_rng` returned the vendored `StdRng`: the
        // in-tree stream must reproduce them bit for bit.
        use rand::RngCore;
        let pinned: [((u64, u64), [u64; 3], u64); 4] = [
            (
                (42, 0),
                [0x3ff243f3f0d20700, 0x3ff1d5d4ede343f4, 0xbff34610c8971f27],
                0xa713927cb9c33250,
            ),
            (
                (42, 1),
                [0xbfc165f0f5dbc20f, 0x3fd017d6978b1d5a, 0x3fd5d558012cbbe4],
                0xc8204dd197a682fa,
            ),
            (
                (7, 1_000_003),
                [0xbfe6f1d54781cd3a, 0x3fe016442c9b5fa9, 0x3ff8ad82427b4c22],
                0xc58dc25404f5a533,
            ),
            (
                (u64::MAX, u64::MAX),
                [0xbff938e95f6266da, 0x3fbbd0cc8b511f83, 0xc00b83f7bd59fc56],
                0xe137feea0829fd6e,
            ),
        ];
        for ((stream, index), delta, next) in pinned {
            let (globals, mut rng) = chip_rng(stream, index);
            assert_eq!(
                globals.delta.map(f64::to_bits),
                delta,
                "chip ({stream}, {index})"
            );
            assert_eq!(rng.next_u64(), next, "chip ({stream}, {index})");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let fx = Fixture::new(4);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let mut a = SampleTiming::for_graph(&sg);
        let mut b = SampleTiming::for_graph(&sg);
        let (g1, mut r1) = chip_rng(5, 9);
        let (g2, mut r2) = chip_rng(5, 9);
        sample_canonical(&sg, &g1, &mut r1, &mut a);
        sample_canonical(&sg, &g2, &mut r2, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_rows_independent_of_batch_boundaries() {
        // Chip k drawn in a batch starting at 0 must equal chip k drawn in
        // a batch starting elsewhere — the SoA engine's determinism
        // contract that makes work-stealing parallelism bit-reproducible.
        let fx = Fixture::new(6);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut big = SampleBatch::new();
        big.reset(&sg, 16);
        sampler.fill(99, 0, &mut big);
        let mut shifted = SampleBatch::new();
        shifted.reset(&sg, 4);
        sampler.fill(99, 10, &mut shifted);
        for row in 0..4 {
            let a = big.view(10 + row);
            let b = shifted.view(row);
            assert_eq!(a.edge_max, b.edge_max);
            assert_eq!(a.edge_min, b.edge_min);
            assert_eq!(a.setup, b.setup);
            assert_eq!(a.hold, b.hold);
        }
        assert_eq!(shifted.first_index(), 10);
    }

    #[test]
    fn gathered_rows_match_contiguous_rows() {
        // A gathered batch holds, row by row, exactly the chips a
        // contiguous batch holds at those indices — on every backend, and
        // for the gate-level sampler too.
        let fx = Fixture::new(23);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let sampler = CanonicalBatchSampler::new(&sg);
        let chips = [3u64, 4, 9, 17, 18, 19, 30];
        let mut contiguous = SampleBatch::new();
        contiguous.reset(&sg, 31);
        sampler.fill_with(crate::simd::Backend::Scalar, 41, 0, &mut contiguous);
        let same = |a: SampleView<'_>, b: SampleView<'_>| {
            a.edge_max == b.edge_max
                && a.edge_min == b.edge_min
                && a.setup == b.setup
                && a.hold == b.hold
        };
        for backend in crate::simd::Backend::available() {
            let mut gathered = SampleBatch::new();
            gathered.reset(&sg, chips.len());
            sampler.fill_gathered_with(backend, 41, &chips, &mut gathered);
            assert_eq!(gathered.first_index(), 3);
            for (row, &k) in chips.iter().enumerate() {
                assert!(
                    same(gathered.view(row), contiguous.view(k as usize)),
                    "backend {} chip {k}",
                    backend.name()
                );
            }
        }
        let mut gls = GateLevelSampler::new(&tg);
        contiguous.reset(&sg, 31);
        contiguous.fill_gate_level(&tg, &sg, &mut gls, 41, 0);
        let mut gathered = SampleBatch::new();
        gathered.reset(&sg, chips.len());
        gathered.fill_gate_level_gathered(&tg, &sg, &mut gls, 41, &chips);
        assert_eq!(gathered.first_index(), 3);
        for (row, &k) in chips.iter().enumerate() {
            assert!(same(gathered.view(row), contiguous.view(k as usize)));
        }
    }

    #[test]
    fn batch_respects_order_invariants() {
        let fx = Fixture::new(7);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, 40);
        sampler.fill(3, 0, &mut batch);
        for row in 0..batch.len() {
            let v = batch.view(row);
            for e in 0..sg.edges.len() {
                assert!(v.edge_max[e] >= v.edge_min[e]);
                assert!(v.edge_min[e] >= 0.0);
            }
            for i in 0..sg.n_ffs {
                assert!(v.setup[i] > 0.0);
                assert!(v.hold[i] >= 0.0);
            }
        }
    }

    #[test]
    fn fill_one_matches_batch_rows() {
        // The allocation-free single-chip replay must be bit-identical to
        // the corresponding batch row.
        let fx = Fixture::new(11);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, 6);
        sampler.fill(13, 40, &mut batch);
        let mut st = SampleTiming::for_graph(&sg);
        for row in 0..6 {
            sampler.fill_one(13, 40 + row as u64, &mut st);
            let v = batch.view(row);
            assert_eq!(v.edge_max, &st.edge_max[..]);
            assert_eq!(v.edge_min, &st.edge_min[..]);
            assert_eq!(v.setup, &st.setup[..]);
            assert_eq!(v.hold, &st.hold[..]);
        }
    }

    #[test]
    fn wide_backends_bit_identical_to_scalar() {
        // The parity contract: every kernel backend fills the same bytes
        // as the fused scalar reference, for batch lengths that do and do
        // not divide the four chip lanes, and for a non-zero window start.
        let fx = Fixture::new(21);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let sampler = CanonicalBatchSampler::new(&sg);
        for len in [1usize, 2, 3, 5, 8, 13] {
            let mut reference = SampleBatch::new();
            reference.reset(&sg, len);
            sampler.fill_with(crate::simd::Backend::Scalar, 33, 7, &mut reference);
            for backend in crate::simd::Backend::available() {
                let mut batch = SampleBatch::new();
                batch.reset(&sg, len);
                sampler.fill_with(backend, 33, 7, &mut batch);
                for row in 0..len {
                    let a = reference.view(row);
                    let b = batch.view(row);
                    for e in 0..sg.edges.len() {
                        assert_eq!(
                            a.edge_max[e].to_bits(),
                            b.edge_max[e].to_bits(),
                            "backend {} len {len} row {row} edge_max {e}",
                            backend.name()
                        );
                        assert_eq!(a.edge_min[e].to_bits(), b.edge_min[e].to_bits());
                    }
                    for i in 0..sg.n_ffs {
                        assert_eq!(a.setup[i].to_bits(), b.setup[i].to_bits());
                        assert_eq!(a.hold[i].to_bits(), b.hold[i].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn fill_one_bit_identical_across_backends() {
        // `fill_one` draws through the scalar reference on every backend;
        // a one-chip batch on each backend (a single live lane on AVX2)
        // must hold the same bits.
        let fx = Fixture::new(22);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut reference = SampleTiming::for_graph(&sg);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, 1);
        for index in [0u64, 1, 63, 1_000_003] {
            sampler.fill_one(5, index, &mut reference);
            for backend in crate::simd::Backend::available() {
                sampler.fill_gathered_with(backend, 5, &[index], &mut batch);
                let v = batch.view(0);
                let st = SampleTiming {
                    edge_max: v.edge_max.to_vec(),
                    edge_min: v.edge_min.to_vec(),
                    setup: v.setup.to_vec(),
                    hold: v.hold.to_vec(),
                };
                assert_eq!(st, reference, "backend {} index {index}", backend.name());
            }
        }
    }

    #[test]
    fn batch_reset_reuses_allocation() {
        let fx = Fixture::new(8);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, 64);
        let cap = batch.edge_max.capacity();
        batch.reset(&sg, 32);
        assert_eq!(batch.len(), 32);
        assert_eq!(batch.edge_max.capacity(), cap, "reset must not shrink");
        batch.reset(&sg, 64);
        assert_eq!(batch.edge_max.capacity(), cap, "reset must not regrow");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn batch_matches_scalar_statistics() {
        // Batch and scalar kernels consume the chip stream differently
        // (spare-normal caching) but must agree in distribution: compare
        // the mean of each edge's max delay over many chips.
        let fx = Fixture::new(9);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let n = 4000usize;
        let mut st = SampleTiming::for_graph(&sg);
        let ne = sg.edges.len();
        let mut scalar_sum = vec![0.0; ne];
        for k in 0..n {
            let (globals, mut rng) = chip_rng(21, k as u64);
            sample_canonical(&sg, &globals, &mut rng, &mut st);
            for e in 0..ne {
                scalar_sum[e] += st.edge_max[e];
            }
        }
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, n);
        sampler.fill(21, 0, &mut batch);
        let mut batch_sum = vec![0.0; ne];
        for row in 0..n {
            let v = batch.view(row);
            for e in 0..ne {
                batch_sum[e] += v.edge_max[e];
            }
        }
        for e in 0..ne {
            let sm = scalar_sum[e] / n as f64;
            let bm = batch_sum[e] / n as f64;
            assert!(
                (sm - bm).abs() / sm.max(1.0) < 0.05,
                "edge {e}: scalar mean {sm} vs batch mean {bm}"
            );
        }
    }

    #[test]
    fn gate_level_batch_matches_scalar_kernel() {
        // The gate-level batch fill reuses the scalar kernel chip-by-chip,
        // so rows must be bit-identical to direct scalar draws.
        let fx = Fixture::new(10);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let mut sampler = GateLevelSampler::new(&tg);
        let mut batch = SampleBatch::new();
        batch.reset(&sg, 8);
        batch.fill_gate_level(&tg, &sg, &mut sampler, 17, 3);
        let mut st = SampleTiming::for_graph(&sg);
        for row in 0..8 {
            let (globals, mut rng) = chip_rng(17, 3 + row as u64);
            sampler.sample(&tg, &sg, &globals, &mut rng, &mut st);
            let v = batch.view(row);
            assert_eq!(v.edge_max, &st.edge_max[..]);
            assert_eq!(v.edge_min, &st.edge_min[..]);
            assert_eq!(v.setup, &st.setup[..]);
            assert_eq!(v.hold, &st.hold[..]);
        }
    }

    #[test]
    fn global_shift_moves_all_edges() {
        // A strongly positive global sample should push essentially every
        // edge above its mean.
        let fx = Fixture::new(5);
        let tg = TimingGraph::build(&fx.circuit, &fx.lib, &fx.model).unwrap();
        let sg = SequentialGraph::extract(&tg);
        let mut st = SampleTiming::for_graph(&sg);
        let globals = GlobalSample {
            delta: [3.0, 3.0, 3.0],
        };
        let mut rng = psbi_variation::sample_rng(1, 1);
        sample_canonical(&sg, &globals, &mut rng, &mut st);
        let above = (0..sg.edges.len())
            .filter(|&e| st.edge_max[e] > sg.edges[e].max_delay.mean())
            .count();
        assert!(above as f64 > 0.9 * sg.edges.len() as f64);
    }
}
