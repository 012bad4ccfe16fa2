//! Runtime-dispatched wide (SIMD) kernels for the batch sampling engine.
//!
//! The Monte-Carlo hot loop spends nearly all of its time in two scalar
//! sweeps: the inverse-transform normal draw of
//! [`CanonicalBatchSampler::fill`] and the bound-extraction loop of
//! [`ConstraintBatch::build_from`].  This module provides wide versions of
//! both — AVX2 on `x86_64`, NEON on `aarch64`, and a portable four-lane
//! fallback everywhere — behind a per-process dispatch:
//!
//! * [`active`] picks the best available [`Backend`] **once per process**
//!   (`OnceLock`), so every flow, pass and fleet job in a process uses the
//!   same kernels — a prerequisite for the byte-determinism contracts;
//! * `PSBI_FORCE_SCALAR=1` forces the fused scalar reference path;
//! * `PSBI_SIMD_BACKEND=scalar|portable|avx2|neon` pins a specific
//!   backend (ignored when unavailable on the host).
//!
//! # Bit parity
//!
//! Every wide kernel evaluates the **identical IEEE expression tree** per
//! lane as the scalar reference: the same uniform-mapping constants, the
//! same Horner chains over [`acklam`]'s coefficients, the same
//! left-associated sensitivity accumulation, and min/max clamps whose
//! scalar and vector implementations agree bitwise on every value the
//! sampler can produce (all draws are finite; see `clamp_nonneg`).
//! Adds, multiplies, divides and `floor` are exactly rounded per lane in
//! every instruction set — none of the kernels use FMA contraction — so
//! SIMD and scalar paths produce **bit-identical** buffers:
//! `PSBI_FORCE_SCALAR=1` reproduces any run byte for byte, and the
//! `simd-parity` CI job enforces it for every backend its x86_64 runner
//! can execute (scalar, portable, AVX2); the NEON path is cross-compiled
//! there but its runtime parity is only exercised by running the test
//! suite on an aarch64 host.  The rare probit tail lanes (`u < P_LOW` or
//! `u > 1 − P_LOW`, ≈4.9 % of draws) are patched through the scalar
//! [`probit_fast`], which needs `ln`.
//!
//! [`CanonicalBatchSampler::fill`]: crate::sample::CanonicalBatchSampler::fill
//! [`ConstraintBatch::build_from`]: crate::constraint::ConstraintBatch::build_from

use psbi_variation::normal::{acklam, probit_central, probit_fast};
use psbi_variation::N_PARAMS;
use std::cell::RefCell;
use std::sync::OnceLock;

/// One family of canonical-form coefficients in structure-of-arrays
/// layout: `mean[k] + Σ_p sens[p][k]·δ_p + indep[k]·z` is draw `k`.
///
/// The sampler keeps four of these (setup, hold, edge-max, edge-min) so
/// the combine kernel streams contiguous coefficient lanes.
#[derive(Debug, Clone)]
pub(crate) struct FormGroup {
    /// Mean per form.
    pub(crate) mean: Vec<f64>,
    /// Global-parameter sensitivities, one array per parameter.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Fused scalar reference path — one form at a time, exactly the
    /// pre-SIMD code.  This is what `PSBI_FORCE_SCALAR=1` selects.
    Scalar,
    /// Portable four-lane kernels in plain Rust (no intrinsics); the
    /// compiler autovectorises them where the target allows.
    Portable,
    /// 256-bit AVX2 kernels (`x86_64`, runtime-detected).
    Avx2,
    /// 128-bit NEON kernels (`aarch64`).
    Neon,
}

impl Backend {
    /// Stable lower-case name (`scalar`, `portable`, `avx2`, `neon`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Portable => "portable",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Parses [`Backend::name`] output (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "portable" => Some(Backend::Portable),
            "avx2" => Some(Backend::Avx2),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// True when this backend can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar | Backend::Portable => true,
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
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// Every backend runnable on this host (always starts with
    /// [`Backend::Scalar`] and [`Backend::Portable`]).
    pub fn available() -> Vec<Backend> {
        [
            Backend::Scalar,
            Backend::Portable,
            Backend::Avx2,
            Backend::Neon,
        ]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
    }
}

/// The process-wide backend, selected once on first use.
///
/// Order of precedence: `PSBI_FORCE_SCALAR` (any value other than empty
/// or `0`) forces [`Backend::Scalar`]; else `PSBI_SIMD_BACKEND` names a
/// backend (ignored when unavailable); else the widest hardware backend
/// (AVX2 → NEON → portable).
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(select)
}

fn select() -> Backend {
    if matches!(std::env::var("PSBI_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0") {
        return Backend::Scalar;
    }
    if let Ok(name) = std::env::var("PSBI_SIMD_BACKEND") {
        if let Some(b) = Backend::from_name(name.trim()) {
            if b.is_available() {
                return b;
            }
        }
    }
    best_wide()
}

fn best_wide() -> Backend {
    if Backend::Avx2.is_available() {
        Backend::Avx2
    } else if Backend::Neon.is_available() {
        Backend::Neon
    } else {
        Backend::Portable
    }
}

/// Per-thread staging buffers for the wide draw path: the per-chip
/// uniforms (dense form layout) and their probit images.
///
/// Uniform slots of forms with `indep == 0` are never written; they are
/// initialised to `0.5` and stay inside `(0, 1)`, so the dense probit
/// sweep never sees an out-of-domain value (the combine kernel masks the
/// resulting lanes out anyway).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) u: Vec<f64>,
    pub(crate) z: Vec<f64>,
}

impl Scratch {
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.u.len() < n {
            self.u.resize(n, 0.5);
            self.z.resize(n, 0.0);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's staging buffers (allocation-free once
/// warm, shared by `fill` and the single-chip replay paths).
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Chip-invariant inputs of the bound-extraction kernel, all edge-indexed
/// (`setup_ff`/`hold_ff` are the capture-FF values pre-gathered per edge).
pub(crate) struct BoundLanes<'a> {
    pub(crate) setup_base: &'a [f64],
    pub(crate) setup_ff: &'a [f64],
    pub(crate) edge_max: &'a [f64],
    pub(crate) edge_min: &'a [f64],
    pub(crate) hold_ff: &'a [f64],
    pub(crate) hold_base: &'a [f64],
}

// ---------------------------------------------------------------------------
// Scalar lane reference — the single expression tree every backend must
// reproduce bit for bit.
// ---------------------------------------------------------------------------

/// `v` clamped to be non-negative: `v.max(0.0)`.
///
/// The wide backends implement this as `MAXPD`/`FMAX` against `+0.0`.
/// Draw values are always finite (finite coefficients, probit of a
/// uniform strictly inside `(0, 1)`), and for finite inputs the only
/// `max` cases where implementations may disagree — NaN and `-0.0`
/// versus `+0.0` operands — cannot arise: IEEE round-to-nearest addition
/// produces `-0.0` only from two `-0.0` terms, which the positive-mean
/// canonical forms never feed in.  Equal finite operands return the same
/// bit pattern from either side, so scalar and vector clamps agree
/// bit for bit.
#[inline]
pub(crate) fn clamp_nonneg(v: f64) -> f64 {
    v.max(0.0)
}

/// `(hi, lo)` ordering of an edge's (max, min) draw pair:
/// `(dmax.max(dmin), dmin.min(dmax))`, exactly as the scalar reference.
/// Bit-safe for the same reason as [`clamp_nonneg`]: both inputs are
/// finite and non-negative (already clamped), and equal operands give the
/// same bits from either implementation.
#[inline]
pub(crate) fn order_lane(dmax: f64, dmin: f64) -> (f64, f64) {
    (dmax.max(dmin), dmin.min(dmax))
}

/// One clamped draw of form `k` given its probit image `z`.
#[inline]
pub(crate) fn combine_lane(g: &FormGroup, k: usize, delta: &[f64; N_PARAMS], z: f64) -> f64 {
    let mut v = g.mean[k];
    for (s, &d) in g.sens.iter().zip(delta) {
        v += s[k] * d;
    }
    let ind = g.indep[k];
    let w = v + ind * z;
    clamp_nonneg(if ind != 0.0 { w } else { v })
}

/// One edge's floored integer bounds.
#[inline]
fn bounds_lane(l: &BoundLanes<'_>, e: usize, inv_step: f64) -> (i64, i64) {
    let setup_slack = l.setup_base[e] - l.setup_ff[e] - l.edge_max[e];
    let hold_slack = l.edge_min[e] - l.hold_ff[e] + l.hold_base[e];
    (
        (setup_slack * inv_step).floor() as i64,
        (hold_slack * inv_step).floor() as i64,
    )
}

// ---------------------------------------------------------------------------
// Dispatch entry points (crate-internal; callers have validated backend
// availability, which makes the `unsafe` intrinsic calls sound).
// ---------------------------------------------------------------------------

/// `z[i] = probit_fast(u[i])` over a dense SoA chunk.
pub(crate) fn probit_dense(b: Backend, u: &[f64], z: &mut [f64]) {
    assert_eq!(u.len(), z.len(), "probit buffers must match");
    debug_assert!(b.is_available());
    match b {
        Backend::Scalar => {
            for (zi, &ui) in z.iter_mut().zip(u) {
                *zi = probit_fast(ui);
            }
        }
        Backend::Portable => portable::probit_dense(u, z),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch/callers verified AVX2 is available.
            unsafe {
                avx2::probit_dense(u, z)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 backend selected on non-x86_64 host")
        }
        Backend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            unsafe {
                neon::probit_dense(u, z)
            }
            #[cfg(not(target_arch = "aarch64"))]
            unreachable!("NEON backend selected on non-aarch64 host")
        }
    }
}

/// Clamped draws of a whole form group: `out[k] = combine_lane(g, k, …)`.
pub(crate) fn combine_draws(
    b: Backend,
    g: &FormGroup,
    delta: &[f64; N_PARAMS],
    z: &[f64],
    out: &mut [f64],
) {
    assert_eq!(g.len(), out.len(), "form group and output must match");
    assert_eq!(z.len(), out.len(), "probit chunk and output must match");
    debug_assert!(b.is_available());
    match b {
        Backend::Scalar => {
            for k in 0..out.len() {
                out[k] = combine_lane(g, k, delta, z[k]);
            }
        }
        Backend::Portable => portable::combine(g, delta, z, out),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch/callers verified AVX2 is available.
            unsafe {
                avx2::combine(g, delta, z, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 backend selected on non-x86_64 host")
        }
        Backend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            unsafe {
                neon::combine(g, delta, z, out)
            }
            #[cfg(not(target_arch = "aarch64"))]
            unreachable!("NEON backend selected on non-aarch64 host")
        }
    }
}

/// In-place `(max, min)` ordering of the clamped edge draw pairs.
pub(crate) fn order_edge_pairs(b: Backend, emax: &mut [f64], emin: &mut [f64]) {
    assert_eq!(emax.len(), emin.len(), "edge pair buffers must match");
    debug_assert!(b.is_available());
    match b {
        Backend::Scalar | Backend::Portable => {
            for e in 0..emax.len() {
                let (hi, lo) = order_lane(emax[e], emin[e]);
                emax[e] = hi;
                emin[e] = lo;
            }
        }
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch/callers verified AVX2 is available.
            unsafe {
                avx2::order_pairs(emax, emin)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 backend selected on non-x86_64 host")
        }
        Backend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            unsafe {
                neon::order_pairs(emax, emin)
            }
            #[cfg(not(target_arch = "aarch64"))]
            unreachable!("NEON backend selected on non-aarch64 host")
        }
    }
}

/// Floored integer bounds of one chip over all edges.
pub(crate) fn extract_bounds(
    b: Backend,
    lanes: &BoundLanes<'_>,
    inv_step: f64,
    setup_bound: &mut [i64],
    hold_bound: &mut [i64],
) {
    let n = setup_bound.len();
    assert_eq!(hold_bound.len(), n);
    assert_eq!(lanes.setup_base.len(), n);
    assert_eq!(lanes.setup_ff.len(), n);
    assert_eq!(lanes.edge_max.len(), n);
    assert_eq!(lanes.edge_min.len(), n);
    assert_eq!(lanes.hold_ff.len(), n);
    assert_eq!(lanes.hold_base.len(), n);
    debug_assert!(b.is_available());
    match b {
        Backend::Scalar | Backend::Portable => {
            for e in 0..n {
                let (s, h) = bounds_lane(lanes, e, inv_step);
                setup_bound[e] = s;
                hold_bound[e] = h;
            }
        }
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch/callers verified AVX2 is available.
            unsafe {
                avx2::bounds(lanes, inv_step, setup_bound, hold_bound)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 backend selected on non-x86_64 host")
        }
        Backend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            unsafe {
                neon::bounds(lanes, inv_step, setup_bound, hold_bound)
            }
            #[cfg(not(target_arch = "aarch64"))]
            unreachable!("NEON backend selected on non-aarch64 host")
        }
    }
}

// ---------------------------------------------------------------------------
// Portable four-lane kernels: plain Rust, lane math written exactly as the
// scalar reference so the compiler may vectorise but can never re-associate.
// ---------------------------------------------------------------------------

mod portable {
    use super::*;

    const LANES: usize = 4;

    #[allow(clippy::needless_range_loop)]
    pub(super) fn probit_dense(u: &[f64], z: &mut [f64]) {
        use acklam::{A, B, P_LOW};
        let n = u.len();
        let mut i = 0;
        while i + LANES <= n {
            let mut q = [0.0f64; LANES];
            let mut r = [0.0f64; LANES];
            for l in 0..LANES {
                q[l] = u[i + l] - 0.5;
            }
            for l in 0..LANES {
                r[l] = q[l] * q[l];
            }
            let mut num = [A[0]; LANES];
            for &c in &A[1..] {
                for l in 0..LANES {
                    num[l] = num[l] * r[l] + c;
                }
            }
            let mut den = [B[0]; LANES];
            for &c in &B[1..] {
                for l in 0..LANES {
                    den[l] = den[l] * r[l] + c;
                }
            }
            for l in 0..LANES {
                den[l] = den[l] * r[l] + 1.0;
            }
            for l in 0..LANES {
                z[i + l] = num[l] * q[l] / den[l];
            }
            i += LANES;
        }
        while i < n {
            z[i] = probit_central(u[i]);
            i += 1;
        }
        // Tail patch: the scalar probit covers the `ln`-based branches.
        for (zk, &p) in z.iter_mut().zip(u) {
            if !(P_LOW..=1.0 - P_LOW).contains(&p) {
                *zk = probit_fast(p);
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    pub(super) fn combine(g: &FormGroup, delta: &[f64; N_PARAMS], z: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut i = 0;
        while i + LANES <= n {
            let mut v = [0.0f64; LANES];
            v.copy_from_slice(&g.mean[i..i + LANES]);
            for (s, &d) in g.sens.iter().zip(delta) {
                for l in 0..LANES {
                    v[l] += s[i + l] * d;
                }
            }
            for l in 0..LANES {
                let ind = g.indep[i + l];
                let w = v[l] + ind * z[i + l];
                out[i + l] = clamp_nonneg(if ind != 0.0 { w } else { v[l] });
            }
            i += LANES;
        }
        while i < n {
            out[i] = combine_lane(g, i, delta, z[i]);
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    const LANES: usize = 4;

    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn probit_dense(u: &[f64], z: &mut [f64]) {
        use acklam::{A, B, P_LOW};
        let n = u.len();
        let half = _mm256_set1_pd(0.5);
        let one = _mm256_set1_pd(1.0);
        let mut i = 0;
        while i + LANES <= n {
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
            i += LANES;
        }
        while i < n {
            z[i] = probit_central(u[i]);
            i += 1;
        }
        for (zk, &p) in z.iter_mut().zip(u) {
            if !(P_LOW..=1.0 - P_LOW).contains(&p) {
                *zk = probit_fast(p);
            }
        }
    }

    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn combine(
        g: &FormGroup,
        delta: &[f64; N_PARAMS],
        z: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i + LANES <= n {
            let mut v = _mm256_loadu_pd(g.mean.as_ptr().add(i));
            for (s, &d) in g.sens.iter().zip(delta) {
                let sv = _mm256_loadu_pd(s.as_ptr().add(i));
                v = _mm256_add_pd(v, _mm256_mul_pd(sv, _mm256_set1_pd(d)));
            }
            let ind = _mm256_loadu_pd(g.indep.as_ptr().add(i));
            let zc = _mm256_loadu_pd(z.as_ptr().add(i));
            let w = _mm256_add_pd(v, _mm256_mul_pd(ind, zc));
            // Lanes with indep == 0 keep the global-only value, exactly as
            // the scalar path skips the local draw.
            let use_w = _mm256_cmp_pd::<_CMP_NEQ_OQ>(ind, zero);
            let sel = _mm256_blendv_pd(v, w, use_w);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_max_pd(sel, zero));
            i += LANES;
        }
        while i < n {
            out[i] = combine_lane(g, i, delta, z[i]);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn order_pairs(emax: &mut [f64], emin: &mut [f64]) {
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

    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bounds(
        lanes: &BoundLanes<'_>,
        inv_step: f64,
        setup_bound: &mut [i64],
        hold_bound: &mut [i64],
    ) {
        let n = setup_bound.len();
        let vis = _mm256_set1_pd(inv_step);
        let mut tmp = [0.0f64; LANES];
        let mut i = 0;
        while i + LANES <= n {
            let sb = _mm256_loadu_pd(lanes.setup_base.as_ptr().add(i));
            let sf = _mm256_loadu_pd(lanes.setup_ff.as_ptr().add(i));
            let em = _mm256_loadu_pd(lanes.edge_max.as_ptr().add(i));
            let s = _mm256_mul_pd(_mm256_sub_pd(_mm256_sub_pd(sb, sf), em), vis);
            _mm256_storeu_pd(tmp.as_mut_ptr(), _mm256_floor_pd(s));
            for l in 0..LANES {
                setup_bound[i + l] = tmp[l] as i64;
            }
            let emn = _mm256_loadu_pd(lanes.edge_min.as_ptr().add(i));
            let hf = _mm256_loadu_pd(lanes.hold_ff.as_ptr().add(i));
            let hb = _mm256_loadu_pd(lanes.hold_base.as_ptr().add(i));
            let h = _mm256_mul_pd(_mm256_add_pd(_mm256_sub_pd(emn, hf), hb), vis);
            _mm256_storeu_pd(tmp.as_mut_ptr(), _mm256_floor_pd(h));
            for l in 0..LANES {
                hold_bound[i + l] = tmp[l] as i64;
            }
            i += LANES;
        }
        while i < n {
            let (s, h) = bounds_lane(lanes, i, inv_step);
            setup_bound[i] = s;
            hold_bound[i] = h;
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64), two f64 lanes.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::*;
    use core::arch::aarch64::*;

    const LANES: usize = 2;

    /// # Safety
    ///
    /// The host must support NEON (part of the aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn probit_dense(u: &[f64], z: &mut [f64]) {
        use acklam::{A, B, P_LOW};
        let n = u.len();
        let half = vdupq_n_f64(0.5);
        let one = vdupq_n_f64(1.0);
        let mut i = 0;
        while i + LANES <= n {
            let p = vld1q_f64(u.as_ptr().add(i));
            let q = vsubq_f64(p, half);
            let r = vmulq_f64(q, q);
            let mut num = vdupq_n_f64(A[0]);
            for &c in &A[1..] {
                num = vaddq_f64(vmulq_f64(num, r), vdupq_n_f64(c));
            }
            let mut den = vdupq_n_f64(B[0]);
            for &c in &B[1..] {
                den = vaddq_f64(vmulq_f64(den, r), vdupq_n_f64(c));
            }
            den = vaddq_f64(vmulq_f64(den, r), one);
            let res = vdivq_f64(vmulq_f64(num, q), den);
            vst1q_f64(z.as_mut_ptr().add(i), res);
            i += LANES;
        }
        while i < n {
            z[i] = probit_central(u[i]);
            i += 1;
        }
        for (zk, &p) in z.iter_mut().zip(u) {
            if !(P_LOW..=1.0 - P_LOW).contains(&p) {
                *zk = probit_fast(p);
            }
        }
    }

    /// # Safety
    ///
    /// The host must support NEON (part of the aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn combine(
        g: &FormGroup,
        delta: &[f64; N_PARAMS],
        z: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let zero = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + LANES <= n {
            let mut v = vld1q_f64(g.mean.as_ptr().add(i));
            for (s, &d) in g.sens.iter().zip(delta) {
                let sv = vld1q_f64(s.as_ptr().add(i));
                v = vaddq_f64(v, vmulq_f64(sv, vdupq_n_f64(d)));
            }
            let ind = vld1q_f64(g.indep.as_ptr().add(i));
            let zc = vld1q_f64(z.as_ptr().add(i));
            let w = vaddq_f64(v, vmulq_f64(ind, zc));
            // vbslq selects the first operand where the mask is set.
            let ind_zero = vceqzq_f64(ind);
            let sel = vbslq_f64(ind_zero, v, w);
            vst1q_f64(out.as_mut_ptr().add(i), vmaxq_f64(sel, zero));
            i += LANES;
        }
        while i < n {
            out[i] = combine_lane(g, i, delta, z[i]);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The host must support NEON (part of the aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn order_pairs(emax: &mut [f64], emin: &mut [f64]) {
        let n = emax.len();
        let mut i = 0;
        while i + LANES <= n {
            let a = vld1q_f64(emax.as_ptr().add(i));
            let b = vld1q_f64(emin.as_ptr().add(i));
            let hi = vmaxq_f64(a, b);
            let lo = vminq_f64(b, a);
            vst1q_f64(emax.as_mut_ptr().add(i), hi);
            vst1q_f64(emin.as_mut_ptr().add(i), lo);
            i += LANES;
        }
        while i < n {
            let (hi, lo) = order_lane(emax[i], emin[i]);
            emax[i] = hi;
            emin[i] = lo;
            i += 1;
        }
    }

    /// # Safety
    ///
    /// The host must support NEON (part of the aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn bounds(
        lanes: &BoundLanes<'_>,
        inv_step: f64,
        setup_bound: &mut [i64],
        hold_bound: &mut [i64],
    ) {
        let n = setup_bound.len();
        let vis = vdupq_n_f64(inv_step);
        let mut tmp = [0.0f64; LANES];
        let mut i = 0;
        while i + LANES <= n {
            let sb = vld1q_f64(lanes.setup_base.as_ptr().add(i));
            let sf = vld1q_f64(lanes.setup_ff.as_ptr().add(i));
            let em = vld1q_f64(lanes.edge_max.as_ptr().add(i));
            let s = vmulq_f64(vsubq_f64(vsubq_f64(sb, sf), em), vis);
            vst1q_f64(tmp.as_mut_ptr(), vrndmq_f64(s));
            for l in 0..LANES {
                setup_bound[i + l] = tmp[l] as i64;
            }
            let emn = vld1q_f64(lanes.edge_min.as_ptr().add(i));
            let hf = vld1q_f64(lanes.hold_ff.as_ptr().add(i));
            let hb = vld1q_f64(lanes.hold_base.as_ptr().add(i));
            let h = vmulq_f64(vaddq_f64(vsubq_f64(emn, hf), hb), vis);
            vst1q_f64(tmp.as_mut_ptr(), vrndmq_f64(h));
            for l in 0..LANES {
                hold_bound[i + l] = tmp[l] as i64;
            }
            i += LANES;
        }
        while i < n {
            let (s, h) = bounds_lane(lanes, i, inv_step);
            setup_bound[i] = s;
            hold_bound[i] = h;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform values exercising both tails, both branch boundaries, the
    /// centre, and enough entries that every chunk width leaves a
    /// remainder (11 = 2·4 + 3 = 5·2 + 1).
    fn tricky_uniforms() -> Vec<f64> {
        use acklam::P_LOW;
        vec![
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
        ]
    }

    #[test]
    fn probit_backends_bit_identical_including_tails() {
        let u = tricky_uniforms();
        let mut reference = vec![0.0; u.len()];
        for (r, &p) in reference.iter_mut().zip(&u) {
            *r = probit_fast(p);
        }
        for b in Backend::available() {
            let mut z = vec![f64::NAN; u.len()];
            probit_dense(b, &u, &mut z);
            for i in 0..u.len() {
                assert_eq!(
                    z[i].to_bits(),
                    reference[i].to_bits(),
                    "backend {} diverges at u = {}",
                    b.name(),
                    u[i]
                );
            }
        }
    }

    #[test]
    fn probit_central_matches_fast_inside_central_interval() {
        use acklam::P_LOW;
        for &p in &[P_LOW, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - P_LOW] {
            assert_eq!(probit_central(p).to_bits(), probit_fast(p).to_bits());
        }
    }

    fn synthetic_group(n: usize) -> FormGroup {
        let mut g = FormGroup::new();
        for k in 0..n {
            let mean = (k as f64) * 0.37 - 1.0;
            let mut sens = [0.0; N_PARAMS];
            for (p, s) in sens.iter_mut().enumerate() {
                *s = ((k + p) as f64).sin() * 0.2;
            }
            // Every third form has no independent term, exercising the
            // skip-lane mask.
            let indep = if k % 3 == 0 {
                0.0
            } else {
                0.05 + (k as f64) * 0.01
            };
            g.push(&psbi_variation::CanonicalForm::with_parts(
                mean, sens, indep,
            ));
        }
        g
    }

    #[test]
    fn combine_backends_bit_identical_with_remainders() {
        for n in [1usize, 3, 4, 5, 7, 8, 11, 16, 17] {
            let g = synthetic_group(n);
            let delta = [0.7, -1.3, 0.25];
            let z: Vec<f64> = (0..n).map(|k| ((k as f64) * 0.61).cos() * 2.0).collect();
            let mut reference = vec![0.0; n];
            for k in 0..n {
                reference[k] = combine_lane(&g, k, &delta, z[k]);
            }
            for b in Backend::available() {
                let mut out = vec![f64::NAN; n];
                combine_draws(b, &g, &delta, &z, &mut out);
                for k in 0..n {
                    assert_eq!(
                        out[k].to_bits(),
                        reference[k].to_bits(),
                        "backend {} diverges at n = {n}, k = {k}",
                        b.name()
                    );
                }
            }
        }
    }

    #[test]
    fn order_pairs_backends_bit_identical() {
        for n in [1usize, 2, 5, 9] {
            let base_max: Vec<f64> = (0..n).map(|k| ((k * 7) % 5) as f64 - 2.0).collect();
            let base_min: Vec<f64> = (0..n).map(|k| ((k * 3) % 5) as f64 - 2.0).collect();
            let mut ref_max = base_max.clone();
            let mut ref_min = base_min.clone();
            for e in 0..n {
                let (hi, lo) = order_lane(ref_max[e], ref_min[e]);
                ref_max[e] = hi;
                ref_min[e] = lo;
            }
            for b in Backend::available() {
                let mut emax = base_max.clone();
                let mut emin = base_min.clone();
                order_edge_pairs(b, &mut emax, &mut emin);
                assert_eq!(emax, ref_max, "backend {}", b.name());
                assert_eq!(emin, ref_min, "backend {}", b.name());
            }
        }
    }

    #[test]
    fn extract_bounds_backends_bit_identical() {
        for n in [1usize, 4, 6, 13] {
            let f = |k: usize, m: f64| ((k as f64) * m).sin() * 100.0;
            let setup_base: Vec<f64> = (0..n).map(|k| 500.0 + f(k, 0.3)).collect();
            let setup_ff: Vec<f64> = (0..n).map(|k| 30.0 + f(k, 0.7).abs()).collect();
            let edge_max: Vec<f64> = (0..n).map(|k| 300.0 + f(k, 1.1).abs()).collect();
            let edge_min: Vec<f64> = (0..n).map(|k| 100.0 + f(k, 0.9).abs()).collect();
            let hold_ff: Vec<f64> = (0..n).map(|k| 10.0 + f(k, 0.5).abs()).collect();
            let hold_base: Vec<f64> = (0..n).map(|k| f(k, 0.2)).collect();
            let lanes = BoundLanes {
                setup_base: &setup_base,
                setup_ff: &setup_ff,
                edge_max: &edge_max,
                edge_min: &edge_min,
                hold_ff: &hold_ff,
                hold_base: &hold_base,
            };
            let inv_step = 1.0 / 2.5;
            let mut ref_s = vec![0i64; n];
            let mut ref_h = vec![0i64; n];
            extract_bounds(Backend::Scalar, &lanes, inv_step, &mut ref_s, &mut ref_h);
            for b in Backend::available() {
                let mut s = vec![i64::MIN; n];
                let mut h = vec![i64::MIN; n];
                extract_bounds(b, &lanes, inv_step, &mut s, &mut h);
                assert_eq!(s, ref_s, "backend {}", b.name());
                assert_eq!(h, ref_h, "backend {}", b.name());
            }
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [
            Backend::Scalar,
            Backend::Portable,
            Backend::Avx2,
            Backend::Neon,
        ] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("AVX2"), Some(Backend::Avx2));
        assert_eq!(Backend::from_name("sse9"), None);
    }

    #[test]
    fn available_always_contains_reference_backends() {
        let av = Backend::available();
        assert!(av.contains(&Backend::Scalar));
        assert!(av.contains(&Backend::Portable));
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

    #[test]
    fn clamp_keeps_nonnegative_and_zeroes_negative() {
        assert_eq!(clamp_nonneg(3.5), 3.5);
        assert_eq!(clamp_nonneg(0.0), 0.0);
        assert_eq!(clamp_nonneg(-2.0), 0.0);
    }
}
