//! Runtime-dispatched wide (SIMD) kernels for the batch sampling engine.
//!
//! The Monte-Carlo hot loop spends nearly all of its time drawing chips —
//! a random stream, an inverse-transform normal per local term, the
//! canonical combine — and reading them out: the floored integer bounds of
//! [`ConstraintBatch::draw_from`] (saturated at the pass's caps),
//! calibration's minimum periods ([`min_periods`]) and the [`SampleBatch`]
//! rows of [`CanonicalBatchSampler::fill`].  This module provides one wide
//! version of that loop — AVX2 chip lanes on `x86_64` — beside the fused
//! scalar reference, behind a per-process dispatch:
//!
//! * [`active`] picks the host's [`Backend`] **once per process**
//!   (`OnceLock`), so every flow, pass and fleet job in a process uses the
//!   same kernels — a prerequisite for the byte-determinism contracts;
//!   a host without AVX2 (an `aarch64` one included) runs the scalar
//!   reference;
//! * `PSBI_FORCE_SCALAR=1` forces the fused scalar reference path, which
//!   draws one chip at a time.
//!
//! Every single-chip path — the scalar backend, [`fill_one`], the
//! verifier's redraws, [`ConstraintBatch::build_from`]'s row kernel — is
//! the scalar reference; the chip lanes are the only vector code.
//!
//! # Chip lanes (AVX2)
//!
//! AVX2 draws four chips at once, one per `f64` lane (`draw_lanes`).
//! Each lane's chip stream is a `psbi_variation::ChipStream` (the vendored
//! `StdRng`'s xoshiro256**), loaded after the scalar global draws; the
//! kernel writes the uniforms `[form][lane]`-interleaved at their dense
//! `draw_slots` index, runs the dense probit over them, combines the draws
//! in place and orders the edge pairs — block by block of FF or edge
//! pairs, so the uniforms never leave L1.  The readers take the lanes
//! while they are still in L2 (`ChipLanes`): bound extraction writes each
//! chip's row directly (the capture FF's values are one contiguous
//! four-lane load, so no gather), the min-period scan keeps a running
//! maximum per lane, and the `SampleBatch` fill de-interleaves.  A short
//! last group is padded with a repeat of its first chip, whose lanes are
//! never read out.
//!
//! # Bit parity
//!
//! The chip lanes evaluate the **identical IEEE expression tree** per lane
//! as the scalar reference: the same uniform-mapping constants, the same
//! Horner chains over [`acklam`]'s coefficients, the same left-associated
//! sensitivity accumulation, and min/max clamps whose scalar and vector
//! implementations agree bitwise on every value the sampler can produce.
//! Adds, multiplies, divides, square roots and `floor` are exactly rounded
//! per lane — the kernels use no FMA contraction — so the wide and scalar
//! paths produce **bit-identical** buffers.  In particular:
//!
//! * the xoshiro256** streams use only exact integer operations: `·5` and
//!   `·9` as shift-add, rotations as shift-or;
//! * the uniform `(k + 0.5)·2⁻⁵²` needs the 52-bit `k` as a double: OR-ing
//!   `k` into the bit pattern of 2⁵² and subtracting 2⁵² is exact for
//!   `k < 2⁵²`, then the same add and multiply as the scalar path;
//! * draws follow `draw_slots`: forms with `indep == 0` take no uniform,
//!   and their lanes keep a stale value in `(0, 1)` that the combine never
//!   selects;
//! * the combine keeps the scalar left-associated sum, and its clamp is
//!   `MAXPD` against `+0.0` where the scalar path has `v.max(0.0)`.  Draw
//!   values are always finite (finite coefficients, probit of a uniform
//!   strictly inside `(0, 1)`), so the only `max` cases where the two may
//!   disagree — NaN, and `-0.0` against `+0.0` — cannot arise:
//!   round-to-nearest addition produces `-0.0` only from two `-0.0`
//!   terms, which the positive-mean canonical forms never feed in.  Equal
//!   finite operands give the same bits from either side;
//! * the edge pairs are ordered as `(max.max(min), min.min(max))`, bit-safe
//!   for the same reason: both operands are finite and already clamped;
//! * extraction keeps the scalar grouping of the slacks
//!   (`(base − setup) − max`, `(min − hold) + base`); a floored value
//!   below 2⁵¹ in magnitude converts to `i64` exactly through the same
//!   bit trick, anything else through the scalar cast;
//! * the min-period scan keeps the scalar `((max + setup) + skewᵢ) − skewⱼ`
//!   and its strict `>`, so ties keep the first edge.
//!
//! `PSBI_FORCE_SCALAR=1` reproduces any run byte for byte, and the
//! `simd-parity` CI job enforces it on its x86_64 runner.  The rare probit
//! tail lanes (`u < P_LOW` or `u > 1 − P_LOW`, ≈4.9 % of draws) are
//! patched through the scalar [`probit_fast`], which needs `ln`, straight
//! from the compare mask of the vector that holds them.
//!
//! # Draws against caps: the static bracket
//!
//! [`ConstraintBatch::draw_from`] stores each bound saturated at its cap
//! (see [`crate::constraint`]), and in the flow's yield pass nearly every
//! cap is 0, so most bounds come out at their caps whatever the chip.  The
//! chip lanes then draw only the forms that can feed a bound below its
//! cap, decided from the chips' global deviations alone:
//!
//! * **The bracket.**  A form's global part `g = mean + Σ sens·δ` is the
//!   combine's left-associated sum, with the same bits; its clamped draw is
//!   `max(g + indep·z, 0)` with `z = probit_fast(u)`, and `|z| ≤ Z`
//!   (`PROBIT_BOUND`, 8.3) for every uniform a stream produces.  Each step
//!   is a correctly rounded operation, monotone in each argument, so
//!   `lo = max(g − |indep|·Z, 0) ≤ draw ≤ max(g + |indep|·Z, 0) = hi`.
//!   After the pair order an edge's max lies below the larger `hi` of its
//!   two forms and its min above the smaller `lo`.  The floored bounds are
//!   monotone in each draw too, so the setup bound is at least
//!   `⌊((base − setup_hi) − max_hi)·(1/δ)⌋` and the hold bound at least
//!   `⌊((min_lo − hold_hi) + base)·(1/δ)⌋`.  A bound whose lower bracket
//!   is at or above its cap in every lane is saturated: its row entry is
//!   the cap whatever the uniforms.
//! * **The screen** (once per call) evaluates the same bracket with each
//!   product `sens·δ` at its extreme over the box of the call's globals,
//!   four forms per vector.  Edges it proves saturated
//!   for every chip of the call are never looked at again; a call in which
//!   more than half the edges survive (the insertion pass on floating
//!   windows, whose caps are 40 steps) draws every form, as without caps,
//!   and saturates each bound on the way out.
//! * **The sparse draw**, per four-chip group: the per-lane bracket of the
//!   surviving edges gives the live edges (a bound below its cap in some
//!   lane); both forms of a live edge are needed, and its capture FF's
//!   setup (hold) form when its setup (hold) bound is live.  Every draw
//!   slot still steps the streams, in `draw_slots` order, so the stream
//!   contract does not change, but only a needed slot produces a uniform;
//!   the probit, combine and pair order run for the needed forms only.
//!   The rows start as the caps and each live edge gets
//!   `min(bound, cap)`; a live edge's saturated side reads its FF form's
//!   upper bracket (or its draw) and so comes out at the cap too.
//!
//! Which forms are drawn depends on the group and the call, but every
//! stored bound is `min(exact, cap)`, so rows never depend on how chips
//! share lanes or calls.  The scalar reference draws every form and
//! saturates the exact row; `sample.probits` against `sample.draws` shows
//! the skipped share.
//!
//! [`CanonicalBatchSampler::fill`]: crate::sample::CanonicalBatchSampler::fill
//! [`fill_one`]: crate::sample::CanonicalBatchSampler::fill_one
//! [`ConstraintBatch::draw_from`]: crate::constraint::ConstraintBatch::draw_from
//! [`ConstraintBatch::build_from`]: crate::constraint::ConstraintBatch::build_from
//! [`min_periods`]: crate::constraint::min_periods
//! [`SampleBatch`]: crate::sample::SampleBatch
//! [`acklam`]: psbi_variation::normal::acklam
//! [`probit_fast`]: psbi_variation::normal::probit_fast

use crate::constraint::{MinPeriod, RowTerms};
use psbi_variation::N_PARAMS;
use std::cell::RefCell;
use std::sync::OnceLock;

/// One family of canonical-form coefficients in structure-of-arrays
/// layout: `mean[k] + Σ_p sens[p][k]·δ_p + indep[k]·z` is draw `k`.
///
/// The sampler keeps four of these (setup, hold, edge-max, edge-min) so
/// the chip-lane combine streams contiguous coefficient lanes.
#[derive(Debug, Clone)]
pub(crate) struct FormGroup {
    /// Mean per form.
    pub(crate) mean: Vec<f64>,
    /// Global-parameter sensitivities, one array per parameter.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) sens: [Vec<f64>; N_PARAMS],
    /// Independent-term sigma per form (`0.0` ⇒ no local draw).
    pub(crate) indep: Vec<f64>,
}

impl FormGroup {
    pub(crate) fn new() -> Self {
        Self {
            mean: Vec::new(),
            sens: std::array::from_fn(|_| Vec::new()),
            indep: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, form: &psbi_variation::CanonicalForm) {
        self.mean.push(form.mean());
        for (dst, &s) in self.sens.iter_mut().zip(form.sensitivities()) {
            dst.push(s);
        }
        self.indep.push(form.indep());
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.mean.len()
    }
}

/// Which kernel implementation the sampling engine runs.
///
/// The discriminant is the value of the `simd.backend` gauge, kept
/// stable across versions (`1` and `3` are retired).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Fused scalar reference path — one chip at a time, one form at a
    /// time, exactly the pre-SIMD code.  `PSBI_FORCE_SCALAR=1` selects
    /// it, and hosts without AVX2 run it.
    Scalar = 0,
    /// AVX2 chip lanes (`x86_64`, runtime-detected): four chips per
    /// 256-bit vector.
    Avx2 = 2,
}

impl Backend {
    /// Stable lower-case name (`scalar`, `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// True when this backend can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// Every backend runnable on this host (always starts with
    /// [`Backend::Scalar`]).
    pub fn available() -> Vec<Backend> {
        [Backend::Scalar, Backend::Avx2]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }
}

/// The process-wide backend, selected once on first use.
///
/// `PSBI_FORCE_SCALAR` (any value other than empty or `0`) forces
/// [`Backend::Scalar`]; else AVX2 when the host has it, else the scalar
/// reference.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(select)
}

fn select() -> Backend {
    if matches!(std::env::var("PSBI_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0") {
        Backend::Scalar
    } else if Backend::Avx2.is_available() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Per-thread staging buffers of the draw loop.  The scalar reference
/// draws one chip into `row` (dense layout `setup | hold | edge_max |
/// edge_min`).  The chip lanes take their chips' `seeds`, hold one block's
/// uniforms in `u`, and all forms' probit images in `z`, which end as the
/// four chips' draws.  A draw against caps keeps the call's [`Screen`],
/// marks the forms a group needs in `need`, lists in `live` the edges with
/// a bound that can fall below its cap in one of the group's chips, and
/// holds the probits of a list of needed forms in `listed` (their uniforms
/// go to the front of `u`).
///
/// Uniform slots of forms with `indep == 0` are never written; they are
/// initialised to `0.5` and otherwise hold an earlier draw's uniform, so
/// they stay inside `(0, 1)` and the dense probit sweep never sees an
/// out-of-domain value (the combine never reads those lanes).
#[derive(Debug, Default)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Scratch {
    pub(crate) seeds: Vec<LaneSeed>,
    pub(crate) u: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) row: Vec<f64>,
    listed: Vec<f64>,
    screen: Screen,
    need: Vec<bool>,
    live: Vec<u32>,
}

/// The screen of one call's draw against caps (see [`screen`]): the edges
/// that can have a bound below its cap in some chip of the call, their
/// capture FFs, and whether so many can that the call draws every form.
#[derive(Debug, Default)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Screen {
    edges: Vec<u32>,
    ffs: Vec<u32>,
    dense: bool,
    /// Scratch: upper ends of the FF forms' brackets (setup | hold, each
    /// padded to whole vectors), and which FFs are listed.
    ff_hi: Vec<f64>,
    listed: Vec<bool>,
}

impl Scratch {
    /// Grows the buffers to at least `u`, `z` and `row` entries.
    pub(crate) fn ensure(&mut self, u: usize, z: usize, row: usize) {
        if self.u.len() < u {
            self.u.resize(u, 0.5);
        }
        if self.z.len() < z {
            self.z.resize(z, 0.0);
        }
        if self.row.len() < row {
            self.row.resize(row, 0.0);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's staging buffers (allocation-free once
/// warm; the one draw loop's staging on every backend).
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Chip lanes: four chips drawn side by side, one per AVX2 lane.
// ---------------------------------------------------------------------------

/// Chips the AVX2 draw runs side by side, one per `f64` lane.
pub(crate) const CHIP_LANES: usize = 4;

/// Form pairs per block of the chip-lane draw: a block's uniforms (two
/// forms per pair, four lanes each: 16 KiB) stay in L1 from the stream to
/// the probit, and the whole draw's working set stays in L2.
const LANE_BLOCK: usize = 256;

/// A bound on `|probit_fast(u)|` over every uniform a chip stream can
/// produce: `u = (k + 0.5)·2⁻⁵²` for a 52-bit `k` lies in
/// `[2⁻⁵³, 1 − 2⁻⁵³]`, where the probit's magnitude peaks at about 8.21
/// (both extremes; pinned by test).  The static bracket of a draw against
/// caps puts each independent term at `±|indep|·PROBIT_BOUND`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) const PROBIT_BOUND: f64 = 8.3;

/// The canonical coefficients and draw order of one graph, as the chip-lane
/// draw reads them: the four form groups in dense order (setup, hold,
/// edge-max, edge-min) and the dense index of every uniform, in stream
/// order.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct LaneForms<'a> {
    pub(crate) groups: [&'a FormGroup; 4],
    pub(crate) draw_slots: &'a [u32],
}

/// One lane's chip going into [`draw_lanes`]: its random stream's
/// xoshiro256** state (after the global draws) and its global deviations.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct LaneSeed {
    pub(crate) state: [u64; 4],
    pub(crate) delta: [f64; N_PARAMS],
}

/// Up to [`CHIP_LANES`] chips' clamped and ordered draws in chip lanes:
/// `d[f·4 + l]` is dense form `f` (setup | hold | edge-max | edge-min) of
/// lane `l`'s chip.  Lanes `live..4` are padding and are never read out.
///
/// A sparse draw against caps holds exact draws only where a bound can
/// fall below its cap: both forms of each edge it patches, and the FF
/// forms those edges' unsaturated bounds read.  The other FF forms of those
/// edges hold the upper end of their static bracket (see the module docs),
/// and every other form is stale.
///
/// Only [`draw_lanes`] builds one, after checking that the host runs AVX2,
/// which is what makes the AVX2 readers below sound.
pub(crate) struct ChipLanes<'a> {
    d: &'a [f64],
    n_ffs: usize,
    n_edges: usize,
    live: usize,
    rows: Rows<'a>,
    /// Probits run per lane.
    probits: usize,
}

/// How [`ChipLanes::bounds`] writes the lanes' rows.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Rows<'a> {
    /// Every form drawn, every bound exact (no caps).
    Exact,
    /// Every form drawn, every bound saturated at its cap.
    Capped,
    /// The caps, patched with `min(bound, cap)` at these edges.
    Patched(&'a [u32]),
}

/// Screens a call's draw against caps `t` over the chips whose seeds
/// `scratch.seeds` holds, for [`draw_lanes`]: lists the edges whose
/// bounds some chip of the call may have below their caps, and their
/// capture FFs, and marks the call dense when more than half the edges
/// are listed.  The screen is the static bracket (see the module docs)
/// over the box of the chips' globals: each form's global part is bounded
/// by the same left-associated sum of the products' extremes over the box,
/// every step monotone, so it bounds every chip of the call.
///
/// # Panics
///
/// Panics if the host has no AVX2.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn screen(forms: &LaneForms<'_>, t: &RowTerms<'_>, scratch: &mut Scratch) {
    assert!(Backend::Avx2.is_available(), "chip lanes need an AVX2 host");
    let Scratch { seeds, screen, .. } = scratch;
    let (mut lo, mut hi) = ([f64::INFINITY; N_PARAMS], [f64::NEG_INFINITY; N_PARAMS]);
    for seed in seeds.iter() {
        for p in 0..N_PARAMS {
            lo[p] = lo[p].min(seed.delta[p]);
            hi[p] = hi[p].max(seed.delta[p]);
        }
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 availability was asserted above.
    unsafe {
        avx2::screen(forms, t, &lo, &hi, screen)
    }
}

/// Draws four chips at once into `scratch` and returns their lanes.
///
/// Lane `l` steps `seeds[l].state` with the same shifts, xors and rotations
/// as [`psbi_variation::ChipStream`].  Without `caps`, and with caps on a
/// call that [`screen`] marked dense, block by block of FF or edge pairs,
/// the uniforms land at their dense `draw_slots` index, are probited, and
/// the draws are combined and ordered in place — the scalar reference's
/// expression tree per lane (see the module docs).  Otherwise the static
/// bracket of the four chips decides which of the screened edges can have
/// a bound below its cap in one of them, and the stream produces, and the
/// probit, combine and pair order run, only for the forms those bounds
/// read.  Only lanes `0..live` are read out.
///
/// # Panics
///
/// Panics if the host has no AVX2, or `live` is not in `1..=4`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn draw_lanes<'s>(
    forms: &LaneForms<'_>,
    seeds: &[LaneSeed; CHIP_LANES],
    live: usize,
    caps: Option<&RowTerms<'_>>,
    scratch: &'s mut Scratch,
) -> ChipLanes<'s> {
    assert!(Backend::Avx2.is_available(), "chip lanes need an AVX2 host");
    assert!((1..=CHIP_LANES).contains(&live), "1 to 4 live lanes");
    let n_forms: usize = forms.groups.iter().map(|g| g.len()).sum();
    let n = n_forms * CHIP_LANES;
    let n_u = 2 * LANE_BLOCK * CHIP_LANES;
    scratch.ensure(n_u, n, 0);
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut probits = forms.draw_slots.len();
    let sparse = caps.filter(|_| !scratch.screen.dense);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 availability was asserted above.
    unsafe {
        let Scratch {
            u,
            z,
            listed,
            screen,
            need,
            live,
            ..
        } = scratch;
        let (u, z) = (&mut u[..n_u], &mut z[..n]);
        match sparse {
            None => avx2::draw_lanes(forms, seeds, u, z),
            Some(t) => {
                if need.len() < n_forms {
                    need.resize(n_forms, false);
                }
                listed.resize(LANE_BLOCK * CHIP_LANES, 0.0);
                let (u, need) = (&mut u[..LANE_BLOCK * CHIP_LANES], &mut need[..n_forms]);
                probits = avx2::draw_capped(forms, seeds, t, screen, u, listed, z, need, live);
            }
        }
    }
    ChipLanes {
        d: &scratch.z[..n],
        n_ffs: forms.groups[0].len(),
        n_edges: forms.groups[2].len(),
        live,
        rows: match (caps, sparse) {
            (None, _) => Rows::Exact,
            (Some(_), None) => Rows::Capped,
            (Some(_), Some(_)) => Rows::Patched(&scratch.live),
        },
        probits,
    }
}

impl ChipLanes<'_> {
    /// Lanes holding a chip (the rest are padding).
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Probits the draw ran per lane.
    #[inline]
    pub(crate) fn probits(&self) -> usize {
        self.probits
    }

    /// Copies lane `l`'s chip out into one chip's rows.
    pub(crate) fn copy_lane(
        &self,
        l: usize,
        edge_max: &mut [f64],
        edge_min: &mut [f64],
        setup: &mut [f64],
        hold: &mut [f64],
    ) {
        assert!(l < self.live, "padding lanes are never read out");
        assert!(matches!(self.rows, Rows::Exact), "a draw against caps");
        let (f, e) = (self.n_ffs, self.n_edges);
        let lane = |dst: &mut [f64], off: usize| {
            for (k, v) in dst.iter_mut().enumerate() {
                *v = self.d[(off + k) * CHIP_LANES + l];
            }
        };
        lane(setup, 0);
        lane(hold, f);
        lane(edge_max, 2 * f);
        lane(edge_min, 2 * f + e);
    }

    /// Floored integer bounds of the live lanes' chips, each saturated at
    /// its cap in `t`: lane `l` writes row `l` of `setup_bound`/`hold_bound`
    /// (`live × edges`, row-major).  Same grouping as the scalar row
    /// kernel of
    /// [`IntegerConstraints::build`](crate::constraint::IntegerConstraints::build),
    /// with the capture FF's values read from its lanes (`t.to[e]`).  A
    /// dense draw writes every bound (exact without caps, where every cap
    /// is `i64::MAX`); a sparse draw against caps writes the caps, then
    /// `min(bound, cap)` at each edge it drew.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn bounds(&self, t: &RowTerms<'_>, setup_bound: &mut [i64], hold_bound: &mut [i64]) {
        let e = self.n_edges;
        assert!(t.to.len() == e && t.setup_base.len() == e && t.hold_base.len() == e);
        assert!(setup_bound.len() == self.live * e && hold_bound.len() == self.live * e);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `ChipLanes` exists only after `draw_lanes` asserted AVX2.
        unsafe {
            match self.rows {
                Rows::Exact => avx2::lane_bounds::<false>(self, t, setup_bound, hold_bound),
                Rows::Capped => {
                    assert!(t.setup_cap.len() == e && t.hold_cap.len() == e);
                    avx2::lane_bounds::<true>(self, t, setup_bound, hold_bound)
                }
                Rows::Patched(edges) => {
                    assert!(t.setup_cap.len() == e && t.hold_cap.len() == e);
                    avx2::capped_bounds(self, edges, t, setup_bound, hold_bound)
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("chip lanes exist on AVX2 hosts only")
    }

    /// The live lanes' unbuffered minimum periods: lane `l`'s chip is entry
    /// `l`, with `ends[e]` the edge's `(from, to)` FFs — the expression
    /// tree of [`min_period_view`](crate::constraint::min_period_view) per
    /// lane.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn min_periods(
        &self,
        ends: &[(u32, u32)],
        skews: &[f64],
    ) -> [MinPeriod; CHIP_LANES] {
        assert_eq!(ends.len(), self.n_edges, "one (from, to) pair per edge");
        assert!(!ends.is_empty(), "sequential graph has no edges");
        assert_eq!(skews.len(), self.n_ffs, "one skew per FF");
        assert!(matches!(self.rows, Rows::Exact), "a draw against caps");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `ChipLanes` exists only after `draw_lanes` asserted AVX2.
        unsafe {
            avx2::lane_min_periods(self, ends, skews)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("chip lanes exist on AVX2 hosts only")
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;
    use psbi_variation::normal::{acklam, probit_fast};

    const LANES: usize = 4;

    /// Lane offsets of the set bits of a four-lane mask, lowest first.
    const SET_LANES: [[u32; LANES]; 16] = {
        let mut t = [[0u32; LANES]; 16];
        let mut m = 0;
        while m < 16 {
            let (mut k, mut l) = (0, 0);
            while l < LANES {
                if m & (1 << l) != 0 {
                    t[m][k] = l as u32;
                    k += 1;
                }
                l += 1;
            }
            m += 1;
        }
        t
    };

    /// Values per round of the tail lists below (their stack size).
    const TAIL_ROUND: usize = 1024;

    /// # Safety
    ///
    /// The host must support AVX2, and `z` must be at least as long as
    /// `u`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn probit_dense(u: &[f64], z: &mut [f64]) {
        use acklam::{A, B, P_LOW};
        let n = u.len();
        let half = _mm256_set1_pd(0.5);
        let one = _mm256_set1_pd(1.0);
        let p_lo = _mm256_set1_pd(P_LOW);
        let p_hi = _mm256_set1_pd(1.0 - P_LOW);
        // Tail lanes — `p` outside [P_LOW, 1 − P_LOW] (unordered compares,
        // as `contains` is false for NaN) — are listed from the compare
        // masks, lower and upper tails apart, and patched through the
        // scalar `probit_fast` after each round: no scan of the central
        // lanes, and each list takes one branch of `probit_fast`.
        let mut lower = [0u32; TAIL_ROUND + LANES];
        let mut upper = [0u32; TAIL_ROUND + LANES];
        let mut i = 0;
        while i + LANES <= n {
            let start = i;
            let end = (i + TAIL_ROUND).min(n - n % LANES);
            let (mut n_lower, mut n_upper) = (0, 0);
            while i < end {
                let p = _mm256_loadu_pd(u.as_ptr().add(i));
                let q = _mm256_sub_pd(p, half);
                let r = _mm256_mul_pd(q, q);
                let mut num = _mm256_set1_pd(A[0]);
                for &c in &A[1..] {
                    num = _mm256_add_pd(_mm256_mul_pd(num, r), _mm256_set1_pd(c));
                }
                let mut den = _mm256_set1_pd(B[0]);
                for &c in &B[1..] {
                    den = _mm256_add_pd(_mm256_mul_pd(den, r), _mm256_set1_pd(c));
                }
                den = _mm256_add_pd(_mm256_mul_pd(den, r), one);
                let res = _mm256_div_pd(_mm256_mul_pd(num, q), den);
                _mm256_storeu_pd(z.as_mut_ptr().add(i), res);
                let ml = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGE_UQ>(p, p_lo)) as usize;
                let mu = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NLE_UQ>(p, p_hi)) as usize;
                // Append the set lanes' offsets in the round: four are
                // written, the count advances by the set ones.
                let base = _mm_set1_epi32((i - start) as i32);
                let lanes_of =
                    |m: usize| _mm_add_epi32(base, _mm_loadu_si128(SET_LANES[m].as_ptr().cast()));
                let dst = &mut lower[n_lower..n_lower + LANES];
                _mm_storeu_si128(dst.as_mut_ptr().cast(), lanes_of(ml));
                let dst = &mut upper[n_upper..n_upper + LANES];
                _mm_storeu_si128(dst.as_mut_ptr().cast(), lanes_of(mu));
                n_lower += ml.count_ones() as usize;
                n_upper += mu.count_ones() as usize;
                i += LANES;
            }
            for &k in lower[..n_lower].iter().chain(&upper[..n_upper]) {
                let k = start + k as usize;
                z[k] = probit_fast(u[k]);
            }
        }
        while i < n {
            z[i] = probit_fast(u[i]);
            i += 1;
        }
    }

    /// Chip lane `l` of each state word: `[s_w of lane 0, …, lane 3]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn state_word(seeds: &[LaneSeed; LANES], w: usize) -> __m256i {
        _mm256_setr_epi64x(
            seeds[0].state[w] as i64,
            seeds[1].state[w] as i64,
            seeds[2].state[w] as i64,
            seeds[3].state[w] as i64,
        )
    }

    /// `x.rotate_left(K)` per 64-bit lane (`L = 64 − K`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const K: i32, const L: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<K>(x), _mm256_srli_epi64::<L>(x))
    }

    /// The uniform `(k + 0.5)·2⁻⁵²` of the top 52 bits `k` of the four
    /// lanes' xoshiro256** output for state word `s1`.  Exact integer
    /// arithmetic: `·5` and `·9` as shift-add, rotations as shift-or; and
    /// OR-ing `k` into the mantissa of 2⁵² and subtracting 2⁵² gives
    /// `k as f64` exactly.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn uniform(s1: __m256i) -> __m256d {
        let x5 = _mm256_add_epi64(_mm256_slli_epi64::<2>(s1), s1);
        let r = rotl::<7, 57>(x5);
        let out = _mm256_add_epi64(_mm256_slli_epi64::<3>(r), r);
        let k = _mm256_or_si256(
            _mm256_srli_epi64::<12>(out),
            _mm256_set1_epi64x(0x4330_0000_0000_0000),
        );
        let two52 = _mm256_set1_pd((1u64 << 52) as f64);
        let kf = _mm256_sub_pd(_mm256_castsi256_pd(k), two52);
        _mm256_mul_pd(
            _mm256_add_pd(kf, _mm256_set1_pd(0.5)),
            _mm256_set1_pd(1.0 / (1u64 << 52) as f64),
        )
    }

    /// Steps the four lanes' xoshiro256** streams `s` past one output.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step(s: &mut [__m256i; 4]) {
        let t = _mm256_slli_epi64::<17>(s[1]);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = rotl::<45, 19>(s[3]);
    }

    /// The next output of the four lanes' streams `s`, as a uniform.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn next_uniform(s: &mut [__m256i; 4]) -> __m256d {
        let u = uniform(s[1]);
        step(s);
        u
    }

    /// The four chips' globals `δ_p`, one chip per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn deltas(seeds: &[LaneSeed; LANES]) -> [__m256d; N_PARAMS] {
        std::array::from_fn(|p| {
            _mm256_setr_pd(
                seeds[0].delta[p],
                seeds[1].delta[p],
                seeds[2].delta[p],
                seeds[3].delta[p],
            )
        })
    }

    /// `u` holds `2 × LANE_BLOCK` forms' lanes and `z` all forms' lanes;
    /// the draw slots index the forms in stream order (FF pairs, then edge
    /// pairs).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn draw_lanes(
        forms: &LaneForms<'_>,
        seeds: &[LaneSeed; LANES],
        u: &mut [f64],
        z: &mut [f64],
    ) {
        let mut state = [0, 1, 2, 3].map(|w| state_word(seeds, w));
        let delta = deltas(seeds);
        let [setup, hold, emax, emin] = forms.groups;
        let (n_ffs, n_edges) = (setup.len(), emax.len());
        let mut d = 0;
        // The stream draws the FF pairs (setup, hold), then the edge pairs
        // (max, min): each block of pairs is a contiguous run of draws and
        // two contiguous ranges `a`, `b` of the dense layout.
        for (ga, gb, a0, b0, pairs) in [
            (setup, hold, 0, n_ffs, n_ffs),
            (emax, emin, 2 * n_ffs, 2 * n_ffs + n_edges, n_edges),
        ] {
            for lo in (0..pairs).step_by(LANE_BLOCK) {
                let m = LANE_BLOCK.min(pairs - lo);
                let (a, b) = (a0 + lo..a0 + lo + m, b0 + lo..b0 + lo + m);
                // This block's uniforms, at their draw slots (forms with
                // indep == 0 keep an earlier uniform).  Slots ascend per
                // phase, so the first slot of a later pair ends the block.
                while let Some(&slot) = forms.draw_slots.get(d) {
                    let slot = slot as usize;
                    let (pair, local) = if slot < b0 {
                        (slot - a0, slot - a.start)
                    } else {
                        (slot - b0, LANE_BLOCK + slot - b.start)
                    };
                    if pair >= lo + m {
                        break;
                    }
                    d += 1;
                    let dst = &mut u[local * LANES..][..LANES];
                    _mm256_storeu_pd(dst.as_mut_ptr(), next_uniform(&mut state));
                }
                let (ua, ub) = u.split_at(LANE_BLOCK * LANES);
                let (head, tail) = z.split_at_mut(b.start * LANES);
                let za = &mut head[a.start * LANES..a.end * LANES];
                let zb = &mut tail[..m * LANES];
                probit_dense(&ua[..m * LANES], za);
                probit_dense(&ub[..m * LANES], zb);
                combine_lanes(ga, lo, &delta, za);
                combine_lanes(gb, lo, &delta, zb);
                if a0 > 0 {
                    order_pairs(za, zb);
                }
            }
        }
        debug_assert_eq!(
            d,
            forms.draw_slots.len(),
            "every draw slot belongs to a block"
        );
    }

    /// The global part `mean + Σ_p sens[p]·δ_p` of a form in the four chip
    /// lanes: the scalar reference's left-associated sum.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn global(mean: f64, sens: [f64; N_PARAMS], delta: &[__m256d; N_PARAMS]) -> __m256d {
        let mut v = _mm256_set1_pd(mean);
        for (&s, &d) in sens.iter().zip(delta) {
            v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_set1_pd(s), d));
        }
        v
    }

    /// Form `k` of a group's global part (see [`global`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn global_of(g: &FormGroup, k: usize, delta: &[__m256d; N_PARAMS]) -> __m256d {
        global(g.mean[k], std::array::from_fn(|p| g.sens[p][k]), delta)
    }

    /// A form's clamped draw from its global part `v`, its independent
    /// sigma `indep` and its probit `z`: `max(v + indep·z, +0.0)`, or
    /// `max(v, +0.0)` when `indep == 0`, exactly as the scalar path skips
    /// the local draw (see the module's bit-parity notes).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn clamped(v: __m256d, indep: f64, z: __m256d) -> __m256d {
        let zero = _mm256_setzero_pd();
        let ind = _mm256_set1_pd(indep);
        let use_w = _mm256_cmp_pd::<_CMP_NEQ_OQ>(ind, zero);
        let w = _mm256_add_pd(v, _mm256_mul_pd(ind, z));
        _mm256_max_pd(_mm256_blendv_pd(v, w, use_w), zero)
    }

    /// The static bracket `(lo, hi)` of a form's clamped draw, given its
    /// global part `v`: `max(v ∓ |indep|·Z, 0)` with `Z = PROBIT_BOUND`.
    /// Every step of [`clamped`] is monotone and `|indep·z| ≤ |indep|·Z`,
    /// so `lo ≤ draw ≤ hi` in every lane, whatever uniform the stream
    /// produces (see the module docs).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn bracket(v: __m256d, indep: f64) -> (__m256d, __m256d) {
        let zero = _mm256_setzero_pd();
        let reach = _mm256_set1_pd(indep.abs() * PROBIT_BOUND);
        (
            _mm256_max_pd(_mm256_sub_pd(v, reach), zero),
            _mm256_max_pd(_mm256_add_pd(v, reach), zero),
        )
    }

    /// Combines the probits `z` of forms `lo..` of a group (chip lanes)
    /// into clamped draws in place (see [`clamped`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn combine_lanes(g: &FormGroup, lo: usize, delta: &[__m256d; N_PARAMS], z: &mut [f64]) {
        let m = z.len() / LANES;
        let (mean, indep) = (&g.mean[lo..lo + m], &g.indep[lo..lo + m]);
        let sens: [&[f64]; N_PARAMS] = std::array::from_fn(|p| &g.sens[p][lo..lo + m]);
        for k in 0..m {
            let v = global(mean[k], std::array::from_fn(|p| sens[p][k]), delta);
            // SAFETY: `k < m = z.len() / 4`, so lanes `4k..4k + 4` are in
            // bounds.
            unsafe {
                let zk = z.as_mut_ptr().add(k * LANES);
                _mm256_storeu_pd(zk, clamped(v, indep[k], _mm256_loadu_pd(zk)));
            }
        }
    }

    /// Probits the listed forms' uniforms `u` (four lanes per form) into
    /// `probits` and stores each form's lanes at its dense index in `z`.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn probit_listed(u: &[f64], probits: &mut [f64], listed: &[u32], z: &mut [f64]) {
        let probits = &mut probits[..u.len()];
        probit_dense(u, probits);
        for (i, &form) in listed.iter().enumerate() {
            store4(z, form as usize, load4(probits, i));
        }
    }

    /// Whether `x ≥ cap` in every lane (`cap` is exact below 2⁵² and 2⁶³
    /// for `i64::MAX`, where `x as i64` saturates to the cap).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn saturated(x: __m256d, cap: f64) -> bool {
        _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_set1_pd(cap))) == 0b1111
    }

    /// Entries `k..k + 4` of `s`, as far as they exist, then zeros.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_upto4(s: &[f64], k: usize) -> __m256d {
        if let Some(v) = s.get(k..k + LANES) {
            // SAFETY: `v` holds exactly four `f64`s.
            return unsafe { _mm256_loadu_pd(v.as_ptr()) };
        }
        let mut v = [0.0; LANES];
        for (d, &x) in v.iter_mut().zip(&s[k..]) {
            *d = x;
        }
        // SAFETY: `v` holds exactly four `f64`s.
        unsafe { _mm256_loadu_pd(v.as_ptr()) }
    }

    /// The screen's bracket `(lo, hi)` of forms `k..k + 4` of a group (as
    /// far as they exist), over every chip whose globals lie in the box
    /// `lo_delta..=hi_delta` (broadcast per parameter): the global part at
    /// the extremes of each product over the box, the independent term at
    /// `±|indep|·PROBIT_BOUND`, then the clamp.  Every step is monotone,
    /// so the ends bound every such chip's clamped draw.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn box_bracket(
        g: &FormGroup,
        k: usize,
        lo_delta: &[__m256d; N_PARAMS],
        hi_delta: &[__m256d; N_PARAMS],
    ) -> (__m256d, __m256d) {
        let mean = load_upto4(&g.mean, k);
        let (mut lo, mut hi) = (mean, mean);
        for p in 0..N_PARAMS {
            let s = load_upto4(&g.sens[p], k);
            let (a, b) = (_mm256_mul_pd(s, lo_delta[p]), _mm256_mul_pd(s, hi_delta[p]));
            lo = _mm256_add_pd(lo, _mm256_min_pd(a, b));
            hi = _mm256_add_pd(hi, _mm256_max_pd(a, b));
        }
        let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), load_upto4(&g.indep, k));
        let reach = _mm256_mul_pd(abs, _mm256_set1_pd(PROBIT_BOUND));
        let zero = _mm256_setzero_pd();
        (
            _mm256_max_pd(_mm256_sub_pd(lo, reach), zero),
            _mm256_max_pd(_mm256_add_pd(hi, reach), zero),
        )
    }

    /// The screen of one call (see [`super::screen`]) over the globals'
    /// box `lo..=hi`, four forms or edges per vector.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn screen(
        forms: &LaneForms<'_>,
        t: &RowTerms<'_>,
        lo: &[f64; N_PARAMS],
        hi: &[f64; N_PARAMS],
        screen: &mut Screen,
    ) {
        let [setup, hold, emax, emin] = forms.groups;
        let (f, n) = (setup.len(), emax.len());
        let lo = lo.map(|d| _mm256_set1_pd(d));
        let hi = hi.map(|d| _mm256_set1_pd(d));
        // Upper ends of the FF forms' brackets, setup | hold (padded to
        // whole vectors).
        let padded = f.next_multiple_of(LANES);
        screen.ff_hi.clear();
        screen.ff_hi.resize(2 * padded, 0.0);
        for (g, out) in [setup, hold]
            .into_iter()
            .zip(screen.ff_hi.chunks_exact_mut(padded))
        {
            for k in (0..f).step_by(LANES) {
                store4(out, k / LANES, box_bracket(g, k, &lo, &hi).1);
            }
        }
        let (setup_hi, hold_hi) = screen.ff_hi.split_at(padded);
        screen.listed.clear();
        screen.listed.resize(f, false);
        screen.edges.clear();
        screen.ffs.clear();
        let vis = _mm256_set1_pd(t.inv_step);
        for e in (0..n).step_by(LANES) {
            let m = LANES.min(n - e);
            let (max_lo, max_hi) = box_bracket(emax, e, &lo, &hi);
            let (min_lo, min_hi) = box_bracket(emin, e, &lo, &hi);
            let j: [usize; LANES] = std::array::from_fn(|i| t.to[e + i.min(m - 1)] as usize);
            let capture = |x: &[f64]| _mm256_setr_pd(x[j[0]], x[j[1]], x[j[2]], x[j[3]]);
            let s = _mm256_sub_pd(
                _mm256_sub_pd(load_upto4(t.setup_base, e), capture(setup_hi)),
                _mm256_max_pd(max_hi, min_hi),
            );
            let h = _mm256_add_pd(
                _mm256_sub_pd(_mm256_min_pd(min_lo, max_lo), capture(hold_hi)),
                load_upto4(t.hold_base, e),
            );
            let at_cap = |x: __m256d, cap: &[f64]| {
                let x = _mm256_floor_pd(_mm256_mul_pd(x, vis));
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(x, load_upto4(cap, e)))
            };
            let saturated = at_cap(s, t.setup_cap_f) & at_cap(h, t.hold_cap_f);
            for (i, &j) in j.iter().enumerate().take(m) {
                if saturated & (1 << i) == 0 {
                    screen.edges.push((e + i) as u32);
                    if !screen.listed[j] {
                        screen.listed[j] = true;
                        screen.ffs.push(j as u32);
                    }
                }
            }
        }
        screen.dense = 2 * screen.edges.len() > n;
    }

    /// The sparse draw against caps `t` of the edges `screen` kept: `u`
    /// and `probits` hold `LANE_BLOCK` listed forms' lanes (their uniforms
    /// and probits), `z` all forms' lanes and `need` one flag per form;
    /// `live` receives the edges drawn exactly.  Returns the probits run
    /// per lane.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn draw_capped(
        forms: &LaneForms<'_>,
        seeds: &[LaneSeed; LANES],
        t: &RowTerms<'_>,
        screen: &Screen,
        u: &mut [f64],
        probits: &mut [f64],
        z: &mut [f64],
        need: &mut [bool],
        live: &mut Vec<u32>,
    ) -> usize {
        let mut state = [0, 1, 2, 3].map(|w| state_word(seeds, w));
        let delta = deltas(seeds);
        let [setup, hold, emax, emin] = forms.groups;
        let (f, n) = (setup.len(), emax.len());
        let vis = _mm256_set1_pd(t.inv_step);
        // 1. The static bracket of the screened edges.  Their capture FFs'
        // forms keep the upper end of their bracket unless a live edge
        // needs the draw: the lower bound of a setup or hold bound reads
        // only upper ends of FF forms.
        for &j in &screen.ffs {
            for (g, k) in [(setup, j as usize), (hold, f + j as usize)] {
                let (_, hi) = bracket(global_of(g, j as usize, &delta), g.indep[j as usize]);
                store4(z, k, hi);
            }
        }
        need.fill(false);
        live.clear();
        for &e in &screen.edges {
            let e = e as usize;
            let (max_lo, max_hi) = bracket(global_of(emax, e, &delta), emax.indep[e]);
            let (min_lo, min_hi) = bracket(global_of(emin, e, &delta), emin.indep[e]);
            // After the pair order the edge's max is at most the larger
            // upper end, and its min at least the smaller lower end.
            let j = t.to[e] as usize;
            let (dmax, dmin) = (_mm256_max_pd(max_hi, min_hi), _mm256_min_pd(min_lo, max_lo));
            let (s, h) = floored(t, e, load4(z, j), load4(z, f + j), dmax, dmin, vis);
            let setup_sat = saturated(s, t.setup_cap_f[e]);
            let hold_sat = saturated(h, t.hold_cap_f[e]);
            if !(setup_sat && hold_sat) {
                live.push(e as u32);
                need[2 * f + e] = true;
                need[2 * f + n + e] = true;
                need[j] |= !setup_sat;
                need[f + j] |= !hold_sat;
            }
        }
        // 2. Every draw slot steps the streams, in `draw_slots` order; a
        // needed one also produces its uniform, listed with its form.
        // Each full list is probited and scattered to its forms.
        let mut listed = [0u32; LANE_BLOCK];
        let (mut k, mut drawn) = (0, 0);
        for &slot in forms.draw_slots {
            if need[slot as usize] {
                store4(u, k, uniform(state[1]));
                listed[k] = slot;
                k += 1;
                if k == LANE_BLOCK {
                    probit_listed(u, probits, &listed, z);
                    drawn += k;
                    k = 0;
                }
            }
            step(&mut state);
        }
        probit_listed(&u[..k * LANES], probits, &listed[..k], z);
        drawn += k;
        // 3. The needed forms' draws: combined in place, and the live
        // edges' pairs ordered.
        for &j in &screen.ffs {
            for (g, k) in [(setup, j as usize), (hold, f + j as usize)] {
                if need[k] {
                    let v = global_of(g, j as usize, &delta);
                    store4(z, k, clamped(v, g.indep[j as usize], load4(z, k)));
                }
            }
        }
        for &e in live.iter() {
            let e = e as usize;
            let (a, b) = (2 * f + e, 2 * f + n + e);
            let dmax = clamped(global_of(emax, e, &delta), emax.indep[e], load4(z, a));
            let dmin = clamped(global_of(emin, e, &delta), emin.indep[e], load4(z, b));
            store4(z, a, _mm256_max_pd(dmax, dmin));
            store4(z, b, _mm256_min_pd(dmin, dmax));
        }
        drawn
    }

    /// Four consecutive lanes of `d` starting at lane `4·f`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load4(d: &[f64], f: usize) -> __m256d {
        let src = &d[f * LANES..][..LANES];
        // SAFETY: `src` holds exactly four `f64`s.
        unsafe { _mm256_loadu_pd(src.as_ptr()) }
    }

    /// Stores `v` into the four lanes of `d` starting at lane `4·f`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store4(d: &mut [f64], f: usize, v: __m256d) {
        let dst = &mut d[f * LANES..][..LANES];
        // SAFETY: `dst` holds exactly four `f64`s.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), v) }
    }

    /// Edge `e`'s floored setup and hold slacks in the chip lanes, from its
    /// capture FF's setup and hold and its ordered max and min delays: the
    /// scalar row kernel's grouping, `(base − setup) − max` and
    /// `(min − hold) + base`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn floored(
        t: &RowTerms<'_>,
        e: usize,
        setup: __m256d,
        hold: __m256d,
        dmax: __m256d,
        dmin: __m256d,
        vis: __m256d,
    ) -> (__m256d, __m256d) {
        let sb = _mm256_set1_pd(t.setup_base[e]);
        let s = _mm256_sub_pd(_mm256_sub_pd(sb, setup), dmax);
        let hb = _mm256_set1_pd(t.hold_base[e]);
        let h = _mm256_add_pd(_mm256_sub_pd(dmin, hold), hb);
        (
            _mm256_floor_pd(_mm256_mul_pd(s, vis)),
            _mm256_floor_pd(_mm256_mul_pd(h, vis)),
        )
    }

    /// Transposes four edges' chip lanes `v[0..4]` into four chips' edge
    /// lanes: lane `e` of result `l` is lane `l` of `v[e]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(v: [__m256d; LANES]) -> [__m256d; LANES] {
        let t0 = _mm256_unpacklo_pd(v[0], v[1]);
        let t1 = _mm256_unpackhi_pd(v[0], v[1]);
        let t2 = _mm256_unpacklo_pd(v[2], v[3]);
        let t3 = _mm256_unpackhi_pd(v[2], v[3]);
        [
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ]
    }

    /// Whether every lane of the floored `v` converts to `i64` through
    /// [`to_i64`]: all magnitudes below 2⁵¹ (NaN fails).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn small(v: &[__m256d]) -> bool {
        let limit = _mm256_set1_pd(2_251_799_813_685_248.0);
        let mut all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        for &x in v {
            let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
            all = _mm256_and_pd(all, _mm256_cmp_pd::<_CMP_LT_OQ>(abs, limit));
        }
        _mm256_movemask_pd(all) == 0b1111
    }

    /// The integral lanes of `v`, each of magnitude below 2⁵¹, as `i64`s:
    /// `bits(x + 1.5·2⁵²) − bits(1.5·2⁵²)`, exact in that range and equal
    /// to `x as i64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn to_i64(v: __m256d) -> __m256i {
        let magic = _mm256_set1_pd(6_755_399_441_055_744.0);
        _mm256_sub_epi64(
            _mm256_castpd_si256(_mm256_add_pd(v, magic)),
            _mm256_castpd_si256(magic),
        )
    }

    /// Stores `v`'s lanes into `out[..4]` as `x as i64` would.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_cast(v: __m256d, out: &mut [i64]) {
        let mut tmp = [0.0f64; LANES];
        // SAFETY: `tmp` holds exactly four `f64`s.
        unsafe { _mm256_storeu_pd(tmp.as_mut_ptr(), v) };
        for (o, t) in out[..LANES].iter_mut().zip(tmp) {
            *o = t as i64;
        }
    }

    /// Stores `v`'s lanes into `out[..4]` as `x as i64` would, through
    /// [`to_i64`] when every lane is [`small`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_i64(v: __m256d, out: &mut [i64; LANES]) {
        if small(&[v]) {
            // SAFETY: `out` holds exactly four `i64`s.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), to_i64(v)) }
        } else {
            store_cast(v, out);
        }
    }

    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_bounds<const CAPPED: bool>(
        lanes: &ChipLanes<'_>,
        t: &RowTerms<'_>,
        setup_bound: &mut [i64],
        hold_bound: &mut [i64],
    ) {
        let (f, n, d) = (lanes.n_ffs, lanes.n_edges, lanes.d);
        let vis = _mm256_set1_pd(t.inv_step);
        // One edge's floored setup and hold slacks, chip lanes.
        let edge = |e: usize| {
            let j = t.to[e] as usize;
            let (emax, emin) = (load4(d, 2 * f + e), load4(d, 2 * f + n + e));
            let (s, h) = floored(t, e, load4(d, j), load4(d, f + j), emax, emin, vis);
            if CAPPED {
                (
                    _mm256_min_pd(_mm256_set1_pd(t.setup_cap_f[e]), s),
                    _mm256_min_pd(_mm256_set1_pd(t.hold_cap_f[e]), h),
                )
            } else {
                (s, h)
            }
        };
        // Four edges at a time, transposed so each chip's row gets four
        // contiguous bounds; padding lanes are never stored.
        let mut e = 0;
        while e + LANES <= n {
            let sh: [(__m256d, __m256d); LANES] = std::array::from_fn(|k| edge(e + k));
            let s = transpose(sh.map(|(s, _)| s));
            let h = transpose(sh.map(|(_, h)| h));
            let exact = small(&s) && small(&h);
            let rows = setup_bound
                .chunks_exact_mut(n)
                .zip(hold_bound.chunks_exact_mut(n));
            for (l, (sr, hr)) in rows.enumerate() {
                let (sr, hr) = (&mut sr[e..e + LANES], &mut hr[e..e + LANES]);
                if exact {
                    // SAFETY: `sr` and `hr` hold exactly four `i64`s.
                    unsafe {
                        _mm256_storeu_si256(sr.as_mut_ptr().cast(), to_i64(s[l]));
                        _mm256_storeu_si256(hr.as_mut_ptr().cast(), to_i64(h[l]));
                    }
                } else {
                    store_cast(s[l], sr);
                    store_cast(h[l], hr);
                }
            }
            e += LANES;
        }
        let mut tmp = [0.0f64; LANES];
        while e < n {
            let (s, h) = edge(e);
            _mm256_storeu_pd(tmp.as_mut_ptr(), s);
            for (row, t) in setup_bound.chunks_exact_mut(n).zip(tmp) {
                row[e] = t as i64;
            }
            _mm256_storeu_pd(tmp.as_mut_ptr(), h);
            for (row, t) in hold_bound.chunks_exact_mut(n).zip(tmp) {
                row[e] = t as i64;
            }
            e += 1;
        }
    }

    /// The rows of a draw against caps: every live row starts as the
    /// caps, then each live edge gets `min(bound, cap)` per lane — the
    /// minimum taken before the conversion, exact because every cap is
    /// below 2⁵² or `i64::MAX` (see [`saturated`]).  A live edge's
    /// saturated side reads the upper brackets its FF form may still
    /// hold, and so comes out at its cap too.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn capped_bounds(
        lanes: &ChipLanes<'_>,
        live_edges: &[u32],
        t: &RowTerms<'_>,
        setup_bound: &mut [i64],
        hold_bound: &mut [i64],
    ) {
        let (f, n, d) = (lanes.n_ffs, lanes.n_edges, lanes.d);
        for (sr, hr) in setup_bound
            .chunks_exact_mut(n)
            .zip(hold_bound.chunks_exact_mut(n))
        {
            sr.copy_from_slice(t.setup_cap);
            hr.copy_from_slice(t.hold_cap);
        }
        let vis = _mm256_set1_pd(t.inv_step);
        let (mut s_out, mut h_out) = ([0i64; LANES], [0i64; LANES]);
        for &e in live_edges {
            let e = e as usize;
            let j = t.to[e] as usize;
            let (emax, emin) = (load4(d, 2 * f + e), load4(d, 2 * f + n + e));
            let (s, h) = floored(t, e, load4(d, j), load4(d, f + j), emax, emin, vis);
            // `MINPD` returns its second operand on NaN, as `x as i64`
            // then reads it.
            let s = _mm256_min_pd(_mm256_set1_pd(t.setup_cap_f[e]), s);
            let h = _mm256_min_pd(_mm256_set1_pd(t.hold_cap_f[e]), h);
            store_i64(s, &mut s_out);
            store_i64(h, &mut h_out);
            for l in 0..lanes.live {
                setup_bound[l * n + e] = s_out[l];
                hold_bound[l * n + e] = h_out[l];
            }
        }
    }

    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_min_periods(
        lanes: &ChipLanes<'_>,
        ends: &[(u32, u32)],
        skews: &[f64],
    ) -> [MinPeriod; LANES] {
        let (f, n) = (lanes.n_ffs, lanes.n_edges);
        let zero = _mm256_setzero_pd();
        let mut best = _mm256_set1_pd(f64::NEG_INFINITY);
        let mut arg = zero;
        let mut hold_bad = zero;
        for (e, &(i, j)) in ends.iter().enumerate() {
            let (i, j) = (i as usize, j as usize);
            let si = _mm256_set1_pd(skews[i]);
            let sj = _mm256_set1_pd(skews[j]);
            let need = _mm256_sub_pd(
                _mm256_add_pd(
                    _mm256_add_pd(load4(lanes.d, 2 * f + e), load4(lanes.d, j)),
                    si,
                ),
                sj,
            );
            // `need > best` takes the first maximum, as the scalar scan.
            let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(need, best);
            best = _mm256_blendv_pd(best, need, gt);
            arg = _mm256_blendv_pd(arg, _mm256_set1_pd(e as f64), gt);
            let slack = _mm256_sub_pd(
                _mm256_add_pd(
                    _mm256_sub_pd(load4(lanes.d, 2 * f + n + e), load4(lanes.d, f + j)),
                    si,
                ),
                sj,
            );
            hold_bad = _mm256_or_pd(hold_bad, _mm256_cmp_pd::<_CMP_LT_OQ>(slack, zero));
        }
        let mut b = [0.0f64; LANES];
        let mut a = [0.0f64; LANES];
        _mm256_storeu_pd(b.as_mut_ptr(), best);
        _mm256_storeu_pd(a.as_mut_ptr(), arg);
        let bad = _mm256_movemask_pd(hold_bad);
        std::array::from_fn(|l| MinPeriod {
            period: b[l].max(0.0),
            hold_ok: bad & (1 << l) == 0,
            critical_edge: a[l] as usize,
        })
    }

    /// `(hi, lo)` ordering of an edge's (max, min) draw pair, exactly as
    /// the scalar reference: `(dmax.max(dmin), dmin.min(dmax))`.
    #[inline]
    fn order_lane(dmax: f64, dmin: f64) -> (f64, f64) {
        (dmax.max(dmin), dmin.min(dmax))
    }

    /// In-place `(max, min)` ordering of the clamped edge draw pairs.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn order_pairs(emax: &mut [f64], emin: &mut [f64]) {
        let n = emax.len();
        let mut i = 0;
        while i + LANES <= n {
            let a = _mm256_loadu_pd(emax.as_ptr().add(i));
            let b = _mm256_loadu_pd(emin.as_ptr().add(i));
            let hi = _mm256_max_pd(a, b);
            let lo = _mm256_min_pd(b, a);
            _mm256_storeu_pd(emax.as_mut_ptr().add(i), hi);
            _mm256_storeu_pd(emin.as_mut_ptr().add(i), lo);
            i += LANES;
        }
        while i < n {
            let (hi, lo) = order_lane(emax[i], emin[i]);
            emax[i] = hi;
            emin[i] = lo;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The AVX2 probit against the scalar [`probit_fast`] on uniforms in
    /// both tails, at both branch boundaries and in the centre, eleven of
    /// them so the four-lane sweep leaves a remainder (11 = 2·4 + 3).
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn probit_backends_bit_identical_including_tails() {
        use psbi_variation::normal::{acklam::P_LOW, probit_fast};
        if !Backend::Avx2.is_available() {
            return;
        }
        let u = [
            1e-300,
            1e-12,
            1e-6,
            P_LOW - 1e-9,
            P_LOW,
            0.5,
            1.0 - P_LOW,
            1.0 - P_LOW + 1e-9,
            1.0 - 1e-6,
            1.0 - 1e-12,
            1.0 - f64::EPSILON / 2.0,
        ];
        let mut z = [f64::NAN; 11];
        // SAFETY: AVX2 is available, and `z` is as long as `u`.
        unsafe { avx2::probit_dense(&u, &mut z) };
        for (&p, zi) in u.iter().zip(z) {
            assert_eq!(zi.to_bits(), probit_fast(p).to_bits(), "avx2 at u = {p}");
        }
    }

    /// The static bracket's `PROBIT_BOUND` holds for every uniform a
    /// chip stream can produce, `(k + 0.5)·2⁻⁵²` for a 52-bit `k`: at both
    /// extremes, and over the 2²⁰ smallest and the 2²⁰ largest `k`.
    #[test]
    fn probit_bound_covers_every_stream_uniform() {
        use psbi_variation::normal::probit_fast;
        let uniform = |k: u64| (k as f64 + 0.5) * (1.0 / (1u64 << 52) as f64);
        let top = (1u64 << 52) - 1;
        assert_eq!(uniform(0), 2f64.powi(-53));
        assert_eq!(1.0 - uniform(top), 2f64.powi(-53));
        let mut peak = 0.0f64;
        for k in (0..1u64 << 20).chain(top + 1 - (1 << 20)..=top) {
            let z = probit_fast(uniform(k)).abs();
            assert!(z <= PROBIT_BOUND, "|probit_fast| = {z} at k = {k}");
            peak = peak.max(z);
        }
        assert_eq!(
            peak,
            probit_fast(uniform(0)).abs(),
            "the peak is at an extreme"
        );
        assert!(peak > PROBIT_BOUND - 0.1, "the bound is tight: peak {peak}");
    }

    #[test]
    fn backend_names_and_gauge_codes_are_stable() {
        let pinned = [
            (Backend::Scalar, "scalar", 0u64),
            (Backend::Avx2, "avx2", 2),
        ];
        for (b, name, code) in pinned {
            assert_eq!(b.name(), name);
            assert_eq!(b as u64, code);
        }
    }

    #[test]
    fn available_always_contains_reference_backends() {
        let av = Backend::available();
        assert!(av.contains(&Backend::Scalar));
        for b in av {
            assert!(b.is_available());
        }
    }

    #[test]
    fn active_is_stable_and_available() {
        let a = active();
        assert!(a.is_available());
        assert_eq!(active(), a, "active backend must be process-stable");
    }
}
