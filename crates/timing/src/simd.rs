//! Runtime-dispatched wide (SIMD) kernels for the batch sampling engine.
//!
//! The Monte-Carlo hot loop spends nearly all of its time drawing chips —
//! a random stream, an inverse-transform normal per local term, the
//! canonical combine — and reading them out: the floored integer bounds of
//! [`ConstraintBatch::draw_from`], calibration's minimum periods
//! ([`min_periods`]) and the [`SampleBatch`] rows of
//! [`CanonicalBatchSampler::fill`].  This module provides one wide version
//! of that loop — AVX2 chip lanes on `x86_64` — beside the fused scalar
//! reference, behind a per-process dispatch:
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
//! [`CanonicalBatchSampler::fill`]: crate::sample::CanonicalBatchSampler::fill
//! [`fill_one`]: crate::sample::CanonicalBatchSampler::fill_one
//! [`ConstraintBatch::draw_from`]: crate::constraint::ConstraintBatch::draw_from
//! [`ConstraintBatch::build_from`]: crate::constraint::ConstraintBatch::build_from
//! [`min_periods`]: crate::constraint::min_periods
//! [`SampleBatch`]: crate::sample::SampleBatch
//! [`acklam`]: psbi_variation::normal::acklam
//! [`probit_fast`]: psbi_variation::normal::probit_fast

use crate::constraint::MinPeriod;
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
/// edge_min`).  The chip lanes hold one block's uniforms in `u`, and all
/// forms' probit images in `z`, which end as the four chips' draws.
///
/// Uniform slots of forms with `indep == 0` are never written; they are
/// initialised to `0.5` and otherwise hold an earlier draw's uniform, so
/// they stay inside `(0, 1)` and the dense probit sweep never sees an
/// out-of-domain value (the combine never reads those lanes).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) u: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) row: Vec<f64>,
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
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct LaneSeed {
    pub(crate) state: [u64; 4],
    pub(crate) delta: [f64; N_PARAMS],
}

/// Up to [`CHIP_LANES`] chips' clamped and ordered draws in chip lanes:
/// `d[f·4 + l]` is dense form `f` (setup | hold | edge-max | edge-min) of
/// lane `l`'s chip.  Lanes `live..4` are padding and are never read out.
///
/// Only [`draw_lanes`] builds one, after checking that the host runs AVX2,
/// which is what makes the AVX2 readers below sound.
pub(crate) struct ChipLanes<'a> {
    d: &'a [f64],
    n_ffs: usize,
    n_edges: usize,
    live: usize,
}

/// Draws four chips at once into `scratch` and returns their lanes.
///
/// Lane `l` steps `seeds[l].state` with the same shifts, xors and rotations
/// as [`psbi_variation::ChipStream`].  Block by block of FF or edge pairs,
/// the uniforms land at their dense `draw_slots` index, are probited, and
/// the draws are combined and ordered in place — the scalar reference's
/// expression tree per lane (see the module docs).  Only lanes `0..live`
/// are read out.
///
/// # Panics
///
/// Panics if the host has no AVX2, or `live` is not in `1..=4`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn draw_lanes<'s>(
    forms: &LaneForms<'_>,
    seeds: &[LaneSeed; CHIP_LANES],
    live: usize,
    scratch: &'s mut Scratch,
) -> ChipLanes<'s> {
    assert!(Backend::Avx2.is_available(), "chip lanes need an AVX2 host");
    assert!((1..=CHIP_LANES).contains(&live), "1 to 4 live lanes");
    let n_forms: usize = forms.groups.iter().map(|g| g.len()).sum();
    let n = n_forms * CHIP_LANES;
    let n_u = 2 * LANE_BLOCK * CHIP_LANES;
    scratch.ensure(n_u, n, 0);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 availability was asserted above.
    unsafe {
        avx2::draw_lanes(forms, seeds, &mut scratch.u[..n_u], &mut scratch.z[..n])
    }
    ChipLanes {
        d: &scratch.z[..n],
        n_ffs: forms.groups[0].len(),
        n_edges: forms.groups[2].len(),
        live,
    }
}

impl ChipLanes<'_> {
    /// Lanes holding a chip (the rest are padding).
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
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

    /// Floored integer bounds of the live lanes' chips: lane `l` writes row
    /// `l` of `setup_bound`/`hold_bound` (`live × edges`, row-major).
    /// Same grouping as the scalar row kernel of
    /// [`IntegerConstraints::build`](crate::constraint::IntegerConstraints::build),
    /// with the capture FF's values read from its lanes (`to[e]`).
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn bounds(
        &self,
        to: &[u32],
        setup_base: &[f64],
        hold_base: &[f64],
        inv_step: f64,
        setup_bound: &mut [i64],
        hold_bound: &mut [i64],
    ) {
        let e = self.n_edges;
        assert!(to.len() == e && setup_base.len() == e && hold_base.len() == e);
        assert!(setup_bound.len() == self.live * e && hold_bound.len() == self.live * e);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `ChipLanes` exists only after `draw_lanes` asserted AVX2.
        unsafe {
            avx2::lane_bounds(
                self,
                to,
                setup_base,
                hold_base,
                inv_step,
                setup_bound,
                hold_bound,
            )
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

    /// The next output of the four lanes' xoshiro256** streams `s`, as
    /// the uniform `(k + 0.5)·2⁻⁵²` of its top 52 bits `k`.  Exact integer
    /// arithmetic: `·5` and `·9` as shift-add, rotations as shift-or; and
    /// OR-ing `k` into the mantissa of 2⁵² and subtracting 2⁵² gives
    /// `k as f64` exactly.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn next_uniform(s: &mut [__m256i; 4]) -> __m256d {
        let x5 = _mm256_add_epi64(_mm256_slli_epi64::<2>(s[1]), s[1]);
        let r = rotl::<7, 57>(x5);
        let out = _mm256_add_epi64(_mm256_slli_epi64::<3>(r), r);
        let t = _mm256_slli_epi64::<17>(s[1]);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = rotl::<45, 19>(s[3]);
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
        let delta: [__m256d; N_PARAMS] = std::array::from_fn(|p| {
            _mm256_setr_pd(
                seeds[0].delta[p],
                seeds[1].delta[p],
                seeds[2].delta[p],
                seeds[3].delta[p],
            )
        });
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

    /// Combines the probits `z` of forms `lo..` of a group (chip lanes)
    /// into clamped draws in place: per form, the scalar reference's
    /// left-associated sum with the four chips' globals in the lanes, and
    /// the `max(draw, +0.0)` clamp (see the module's bit-parity notes).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn combine_lanes(g: &FormGroup, lo: usize, delta: &[__m256d; N_PARAMS], z: &mut [f64]) {
        let m = z.len() / LANES;
        let (mean, indep) = (&g.mean[lo..lo + m], &g.indep[lo..lo + m]);
        let sens: [&[f64]; N_PARAMS] = std::array::from_fn(|p| &g.sens[p][lo..lo + m]);
        let zero = _mm256_setzero_pd();
        for k in 0..m {
            let mut v = _mm256_set1_pd(mean[k]);
            for (s, &d) in sens.iter().zip(delta) {
                v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_set1_pd(s[k]), d));
            }
            // Forms with indep == 0 keep the global-only value, exactly as
            // the scalar path skips the local draw.
            let ind = _mm256_set1_pd(indep[k]);
            let use_w = _mm256_cmp_pd::<_CMP_NEQ_OQ>(ind, zero);
            // SAFETY: `k < m = z.len() / 4`, so lanes `4k..4k + 4` are in
            // bounds.
            unsafe {
                let zk = z.as_mut_ptr().add(k * LANES);
                let w = _mm256_add_pd(v, _mm256_mul_pd(ind, _mm256_loadu_pd(zk)));
                let sel = _mm256_blendv_pd(v, w, use_w);
                _mm256_storeu_pd(zk, _mm256_max_pd(sel, zero));
            }
        }
    }

    /// Four consecutive lanes of `d` starting at lane `4·f`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load4(d: &[f64], f: usize) -> __m256d {
        let src = &d[f * LANES..][..LANES];
        // SAFETY: `src` holds exactly four `f64`s.
        unsafe { _mm256_loadu_pd(src.as_ptr()) }
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

    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_bounds(
        lanes: &ChipLanes<'_>,
        to: &[u32],
        setup_base: &[f64],
        hold_base: &[f64],
        inv_step: f64,
        setup_bound: &mut [i64],
        hold_bound: &mut [i64],
    ) {
        let (f, n, d) = (lanes.n_ffs, lanes.n_edges, lanes.d);
        let vis = _mm256_set1_pd(inv_step);
        // One edge's floored setup and hold slacks, chip lanes.
        let edge = |e: usize| {
            let j = to[e] as usize;
            let sb = _mm256_set1_pd(setup_base[e]);
            let s = _mm256_sub_pd(_mm256_sub_pd(sb, load4(d, j)), load4(d, 2 * f + e));
            let hb = _mm256_set1_pd(hold_base[e]);
            let h = _mm256_add_pd(_mm256_sub_pd(load4(d, 2 * f + n + e), load4(d, f + j)), hb);
            (
                _mm256_floor_pd(_mm256_mul_pd(s, vis)),
                _mm256_floor_pd(_mm256_mul_pd(h, vis)),
            )
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
