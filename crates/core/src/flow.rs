//! The end-to-end buffer-insertion flow (paper Fig. 3).
//!
//! ```text
//! circuit, statistical gate delays, buffer spec, target T
//!   │ calibrate µT, σT (unbuffered Monte Carlo)
//!   ├─ step 1: min-count pass (III-A1) → prune (III-A2)
//!   │          → push-to-zero pass (III-A3) → window assignment (III-A4)
//!   ├─ step 2: optional refit pass (III-B1, skipped when misses < 0.1 %)
//!   │          → concentrate-to-average pass (III-B2) → final ranges
//!   ├─ step 3: grouping by correlation & distance (III-C) → cap
//!   └─ yield evaluation on a fresh sample stream
//! ```
//!
//! # Execution model
//!
//! All passes run the *same* deterministic chip population: chip `k` draws
//! from an RNG keyed by `(stream, k)` alone.  The sample stream is cut
//! into fixed-size chunks; each chunk's chips are drawn and their
//! constraints extracted in one fused pass into a
//! [`psbi_timing::ConstraintBatch`] (gate-level chips through a
//! [`psbi_timing::SampleBatch`]), and the per-chip solves run over the
//! constraint rows.  The draw and bound-extraction kernels run wide (AVX2
//! chip lanes, four chips per vector; NEON per-chip lanes) on the
//! process-wide [`psbi_timing::simd`] backend; every backend is
//! bit-identical to the scalar reference (`PSBI_FORCE_SCALAR=1`), so
//! kernel choice never affects results.
//! Chunks are distributed over a rayon-style work-stealing
//! parallel iterator (idle workers claim the next unprocessed chunk), and
//! every worker draws its solver/batch workspaces from a shared pool that
//! is reused across *all* passes of the flow — steady state performs no
//! per-chip allocation.
//!
//! Because chunk boundaries are fixed (independent of the thread count),
//! chunk results are merged in chunk order, and each chip is seeded by its
//! global index, the flow is **bit-reproducible for any thread count** —
//! including `RAYON_NUM_THREADS=1` versus all cores.  The
//! `deterministic_across_thread_counts` unit test and the
//! `determinism` integration test pin this guarantee.
//!
//! Most chips meet every constraint with all buffers at zero, and a chip
//! that does so at one period does so at every longer one (the proof is
//! on `ZeroPassTable`).  Each flow therefore remembers, per chip of the
//! insertion and yield streams, the smallest period at which it saw the
//! chip pass untuned.  A pass draws and extracts only the chips of each
//! chunk that this table cannot settle at its period, as one gathered
//! batch; the rest get exactly the outcome a draw would have produced
//! (no tuning needed, baseline and buffered pass) without a draw.  So
//! later passes of a target and looser targets of a sweep skip most
//! redraws.  The results never depend on what the table holds — only
//! the work does.  Reference mode ignores the table and draws every chip
//! in every pass.

use crate::group::{group_buffers, BufferCandidate, Group, GroupConfig};
use crate::prune::{prune, PruneConfig, PruneReport};
use crate::solve::{
    BufferSpace, PassDiagnostics, PushObjective, RegionMemo, SampleResult, SampleSolver,
    SolveRequest, SolverOptions,
};
use crate::yield_eval::{ChipCheck, Deployment, YieldReport};
use psbi_liberty::Library;
use psbi_netlist::{Circuit, NetlistError, Placement, SkewConfig};
use psbi_timing::graph::TimingGraph;
use psbi_timing::sample::{CanonicalBatchSampler, GateLevelSampler, SampleBatch, SampleTiming};
use psbi_timing::{constraint, ConstraintBatch, IntegerConstraints, SequentialGraph};
use psbi_variation::seeding::stream_seed;
use psbi_variation::{Histogram, VariationModel};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Samples per parallel work unit.  Fixed (not derived from the thread
/// count) so results are independent of parallelism; small enough to
/// load-balance well, large enough to amortise workspace checkout.
const SAMPLE_CHUNK: usize = 64;

/// How the target clock period is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TargetPeriod {
    /// `T = µT + k·σT` where µT/σT come from the unbuffered calibration
    /// run.  The paper evaluates `k ∈ {0, 1, 2}` (yields ≈ 50 / 84 / 98 %).
    SigmaFactor(f64),
    /// An absolute period in picoseconds.
    Absolute(f64),
}

/// Flow configuration; the defaults mirror the paper's experimental setup
/// except for the sample counts, which are sized for interactive runs
/// (raise [`FlowConfig::samples`] to 10 000 to match the paper exactly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Monte-Carlo samples driving insertion (paper: 10 000).
    pub samples: usize,
    /// Fresh samples for yield evaluation.
    pub yield_samples: usize,
    /// Samples for the µT/σT calibration run.
    pub calibration_samples: usize,
    /// Master seed; all streams derive from it.
    pub seed: u64,
    /// Target clock period.
    pub target: TargetPeriod,
    /// Discrete tuning steps per buffer (paper: 20).
    pub steps: u32,
    /// Maximum buffer range as a fraction of the clock period (paper: 1/8).
    pub range_fraction: f64,
    /// Pruning thresholds (paper: remove ≤1 unless neighbour ≥5 @10 000).
    pub prune: PruneConfig,
    /// Step-2 refit is skipped when fewer than this fraction of samples
    /// have tunings outside the assigned windows (paper: 0.1 %).
    pub skip_refit_threshold: f64,
    /// Grouping thresholds (paper: r ≥ 0.8, distance ≤ 10× spacing).
    pub grouping: GroupConfig,
    /// Enable the push-to-zero / concentrate-to-average objectives
    /// (disable for ablation A1).
    pub concentrate: bool,
    /// Keep zero inside the final windows, so untouched chips can always
    /// stay untouched (the paper's constraint (13) requires the assigned
    /// range window to contain 0 in both steps; disabling this is ablation
    /// A4 and can *reduce* yield at relaxed targets).
    pub force_zero_in_range: bool,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Use exact gate-level sampling instead of canonical edge forms
    /// (ablation A3; much slower).
    pub gate_level_sampling: bool,
    /// Per-sample solver limits.
    pub solver: SolverOptions,
    /// Record per-stage histograms for this many most-used buffers
    /// (regenerates the paper's Fig. 5).
    pub record_histograms: usize,
    /// Re-check the final [`InsertionResult`] with [`crate::verify`]: an
    /// independent pass that re-validates every sampled chip's claimed
    /// fixability and the reported yields against the raw un-elided
    /// constraint system — no memo, no zero-pass table, no saturation
    /// elision.  The structured [`crate::verify::VerifyReport`] lands in
    /// [`FlowDiagnostics::verify`]; canonical outputs are untouched.
    /// Roughly doubles a run's cost (it re-solves both sample streams
    /// cold).  `PSBI_VERIFY=1` force-enables it process-wide.
    pub verify: bool,
    /// Reference mode: detach the cross-chip [`RegionMemo`], run the
    /// unpruned branch and bound, and draw every chip in every pass
    /// (ignoring the flow's zero-pass table) — the byte-parity oracle
    /// tests and CI compare the default flow against.  A memo hit is a
    /// verified replay of a pure function, every pruning rule preserves
    /// the pinned tie-break order, and a settled chip gets exactly the
    /// outcome its draw would give, so canonical outputs are
    /// bit-identical either way; reference mode only costs time.
    /// `PSBI_REFERENCE=1` force-enables it process-wide.
    pub reference: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            samples: 2_000,
            yield_samples: 4_000,
            calibration_samples: 2_000,
            seed: 42,
            target: TargetPeriod::SigmaFactor(0.0),
            steps: 20,
            range_fraction: 1.0 / 8.0,
            prune: PruneConfig::default(),
            skip_refit_threshold: 0.001,
            grouping: GroupConfig::default(),
            concentrate: true,
            force_zero_in_range: true,
            threads: 0,
            gate_level_sampling: false,
            solver: SolverOptions::default(),
            record_histograms: 0,
            verify: false,
            reference: false,
        }
    }
}

impl FlowConfig {
    /// The default configuration with every `PSBI_*` process toggle
    /// folded into the corresponding field — the one documented place
    /// the environment surface is read:
    ///
    /// | Variable         | Field                    |
    /// |------------------|--------------------------|
    /// | `PSBI_REFERENCE` | [`FlowConfig::reference`] |
    /// | `PSBI_VERIFY`    | [`FlowConfig::verify`]    |
    ///
    /// Any value other than empty or `0` counts as set, and a set toggle
    /// force-enables its field.  The same toggles are *also* applied when
    /// a flow is built from a hand-constructed configuration (each is
    /// read once per process, so a set variable always wins over the
    /// field) — this constructor just makes the env-derived values
    /// visible in the config itself.
    pub fn from_env() -> Self {
        Self {
            verify: verify_env_enabled(),
            reference: reference_env_enabled(),
            ..Self::default()
        }
    }
}

/// Whether process switch `name` is set: any value other than empty or
/// `0`.
fn env_set(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Process-wide `PSBI_VERIFY` switch, read once (mirroring
/// `PSBI_FORCE_SCALAR` in [`psbi_timing::simd`]): force-enables the
/// independent result verifier regardless of [`FlowConfig::verify`].
fn verify_env_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| env_set("PSBI_VERIFY"))
}

/// Process-wide `PSBI_REFERENCE` switch, read once: force-enables the
/// reference mode regardless of [`FlowConfig::reference`].
fn reference_env_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| env_set("PSBI_REFERENCE"))
}

/// Errors raised when building a flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The circuit failed validation.
    Netlist(NetlistError),
    /// The circuit has no register-to-register timing paths.
    NoSequentialPaths,
    /// A configuration value is out of range.
    Config(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::NoSequentialPaths => write!(f, "circuit has no sequential timing paths"),
            FlowError::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

/// Per-stage wall-clock times in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RuntimeBreakdown {
    /// µT/σT calibration.
    pub calibration_s: f64,
    /// Step 1 (A1 + prune + A3 + windows).
    pub step1_s: f64,
    /// Step 2 (refit + concentrate + ranges).
    pub step2_s: f64,
    /// Step 3 (grouping + cap).
    pub step3_s: f64,
    /// Yield evaluation.
    pub yield_s: f64,
    /// Whole flow.
    pub total_s: f64,
    /// The min-count pass alone (III-A1; cold within a target — its state
    /// can only replay from a *previous target* of a sweep).
    pub pass_a1_s: f64,
    /// The push-to-zero pass alone (III-A3).
    pub pass_a3_s: f64,
    /// The refit pass alone (III-B1; 0 when skipped).
    pub pass_b1_s: f64,
    /// The concentrate pass alone (III-B2).
    pub pass_b2_s: f64,
}

/// Per-pass solver counters of one flow run (see [`PassDiagnostics`]).
/// **Non-canonical**: the cache counters differ between the default and
/// the reference mode (and, across a fleet sweep, with the order targets
/// reached a shared flow), so they are quarantined from journals and
/// canonical reports exactly like wall-clock times.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlowDiagnostics {
    /// The A1 min-count pass.
    pub a1: PassDiagnostics,
    /// The A3 push-to-zero pass.
    pub a3: PassDiagnostics,
    /// The B1 refit pass (zero when the refit was skipped).
    pub b1: PassDiagnostics,
    /// The B2 concentrate pass.
    pub b2: PassDiagnostics,
    /// Distinct region systems in this flow's cross-chip memo table at
    /// the end of the run (0 in reference mode, which detaches the memo).
    /// The table holds only branch-and-bound regions, those within
    /// [`SolverOptions::region_cap`], so oversized regions never count
    /// here.
    pub memo_entries: u64,
    /// Report of the independent result verifier, when it ran
    /// ([`FlowConfig::verify`] or `PSBI_VERIFY=1`).  Like every other
    /// diagnostic it never feeds back into canonical outputs.
    pub verify: Option<crate::verify::VerifyReport>,
}

impl FlowDiagnostics {
    /// Counters summed over all four passes.
    pub fn total(&self) -> PassDiagnostics {
        let mut total = self.a1;
        total.merge(&self.a3);
        total.merge(&self.b1);
        total.merge(&self.b2);
        total
    }
}

/// Diagnostic counters from the sampling passes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageStats {
    /// Samples unfixable in the A1 pass (even with every buffer).
    pub a1_infeasible: u64,
    /// Samples unfixable in the final pass (fixed windows).
    pub b2_infeasible: u64,
    /// Samples solved approximately (node caps hit).
    pub inexact_samples: u64,
    /// Fraction of samples with tunings outside the assigned windows.
    pub miss_fraction: f64,
    /// Whether the step-2 refit pass ran (miss fraction ≥ threshold).
    pub refit_ran: bool,
    /// Total nonzero tunings in the A1 pass.
    pub a1_total_tunings: u64,
    /// Fraction of calibration samples with unbuffered hold violations.
    pub hold_fail_fraction: f64,
}

/// Histogram snapshots of one buffer across stages (paper Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferSnapshot {
    /// Flip-flop index.
    pub ff: usize,
    /// Tuning histogram after the min-count pass (scattered — Fig. 5a).
    pub scattered: Vec<(i64, u64)>,
    /// Histogram after push-to-zero (Fig. 5b).
    pub pushed: Vec<(i64, u64)>,
    /// Assigned window (Fig. 5b).
    pub window: (i64, i64),
    /// Histogram after concentration toward the average (Fig. 5c).
    pub concentrated: Vec<(i64, u64)>,
    /// Final reduced range (Fig. 5c).
    pub final_range: (i64, i64),
}

/// Everything the flow produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertionResult {
    /// Circuit name.
    pub circuit: String,
    /// Flip-flop count.
    pub n_ffs: usize,
    /// Gate count.
    pub n_gates: usize,
    /// Calibrated mean of the unbuffered minimum period (ps).
    pub mu_t: f64,
    /// Calibrated std-dev of the unbuffered minimum period (ps).
    pub sigma_t: f64,
    /// Target clock period used (ps).
    pub period: f64,
    /// Buffer step δ (ps).
    pub step: f64,
    /// Number of physical buffers inserted (paper's `Nb`).
    pub nb: usize,
    /// Average buffer range in steps (paper's `Ab`).
    pub ab: f64,
    /// Yield without buffers at `period` (paper's `Yo`), in percent.
    pub yield_baseline: f64,
    /// Yield with buffers (paper's `Y`), in percent.
    pub yield_with_buffers: f64,
    /// Improvement `Y − Yo` in percentage points (paper's `Yi`).
    pub improvement: f64,
    /// Chips rescued / broken by the buffers in the evaluation stream.
    pub rescued: usize,
    /// Chips passing baseline but failing with buffers (windows without 0).
    pub broken: usize,
    /// Final physical buffers.
    pub groups: Vec<Group>,
    /// Final deployment (for configuration / further evaluation).
    pub deployment: Deployment,
    /// Pruning outcome.
    pub prune: PruneReport,
    /// Grouping statistics.
    pub correlated_pairs: usize,
    /// Pairs merged (correlation and distance both passed).
    pub merged_pairs: usize,
    /// Buffer count before grouping.
    pub buffers_before_grouping: usize,
    /// Sampling diagnostics.
    pub stats: StageStats,
    /// Fig. 5 snapshots (when requested).
    pub snapshots: Vec<BufferSnapshot>,
    /// Wall-clock times.
    pub runtime: RuntimeBreakdown,
    /// Solver counters per pass (non-canonical, like
    /// [`InsertionResult::runtime`] — see [`FlowDiagnostics`]).
    pub diagnostics: FlowDiagnostics,
}

impl InsertionResult {
    /// Buffer area estimate following the paper's Fig. 1 structure.
    pub fn area(&self) -> crate::area::AreaReport {
        crate::area::AreaReport::of(&self.groups, 20)
    }
}

/// One worker's reusable state: constraint rows, the per-sample solver
/// with its scratch, the yield evaluator's per-chip feasibility check, and
/// for gate-level sampling the drawn chips.  Checked out of the flow's
/// [`WorkspacePool`] per chunk and returned afterwards, so a handful of
/// workspaces (one per concurrently active worker) serve the entire flow.
#[derive(Default)]
pub(crate) struct Workspace {
    /// Stream indices of the chips in `cons` (and `batch`), row by row.
    chips: Vec<u64>,
    /// Gate-level chips only: canonical chips go from the sampler's
    /// kernels straight into `cons` and are never stored.
    batch: SampleBatch,
    cons: ConstraintBatch,
    solver: SampleSolver,
    check: ChipCheck,
    gls: Option<GateLevelSampler>,
}

/// Lock-protected free list of `Workspace`s shared by all passes — and,
/// when shared via [`FlowBuilder::pool`], by all flows of a multi-circuit
/// campaign (workspaces are resized on checkout, so one pool serves
/// circuits of different sizes).  The pool also holds each flow's
/// cross-chip [`RegionMemo`] between `run_target` calls, which is what
/// carries solver work across the passes of a target and across adjacent
/// targets of a campaign sweep.
///
/// Checkout order is unspecified (workers race for the list), which is
/// safe because workspaces hold no state that carries from one chip to
/// the next: all of it is scratch, overwritten per chip, and every
/// feasibility check is a cold solve.  Memos are different: their keys
/// hold FF indices, so each is owner-keyed to one flow, and their contents
/// only ever enable exact-key replays.  This free-list lock is the one
/// remaining `Mutex` on the chunk path; it guards *checkout*, not result
/// merging (chunk results come back in chunk order and are concatenated
/// or folded in that order).
#[derive(Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
    /// Cross-chip region memo tables, one per owner flow.  `Arc`-shared
    /// (not checked out): concurrent `run_target` calls of one flow read
    /// and publish into the same table.
    region_memos: Mutex<Vec<(u64, Arc<RegionMemo>)>>,
}

/// Recovers a poisoned pool lock.  Pool locks only guard checkout of
/// self-contained values (free lists, memo handles) — a
/// worker that panicked *while holding* one of them can at worst have
/// popped an entry that is now lost, never leave one half-updated — so
/// the data is consistent and the campaign can keep draining jobs
/// instead of wedging on `PoisonError`.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl WorkspacePool {
    /// An empty pool; workspaces are created lazily on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a pooled workspace (creating one on first use).
    fn run<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        psbi_obs::metrics::counter_add("pool.checkouts", 1);
        let mut ws = match recover(self.free.lock()).pop() {
            Some(ws) => ws,
            None => {
                // Schedule-dependent (how many workers ever overlapped),
                // so excluded from metric-determinism tests.
                psbi_obs::metrics::counter_add("pool.workspace.created", 1);
                Workspace::default()
            }
        };
        if psbi_fault::failpoint!("pool.checkout.panic") {
            panic!("injected fault: pool.checkout.panic");
        }
        let result = f(&mut ws);
        recover(self.free.lock()).push(ws);
        result
    }

    /// The shared cross-chip memo table of `owner` (created on first use).
    fn checkout_region_memo(&self, owner: u64) -> Arc<RegionMemo> {
        let mut memos = recover(self.region_memos.lock());
        match memos.iter().find(|(id, _)| *id == owner) {
            Some((_, memo)) => Arc::clone(memo),
            None => {
                let memo = Arc::new(RegionMemo::new());
                memos.push((owner, Arc::clone(&memo)));
                memo
            }
        }
    }

    /// Frees the cross-chip memo of flow `owner`.  Campaign runners call
    /// this (via [`BufferInsertionFlow::release_solver_state`]) once a
    /// flow's last sweep target has committed, capping the pool's memory
    /// at the concurrently active flows.
    fn release_owner(&self, owner: u64) {
        recover(self.region_memos.lock()).retain(|(id, _)| *id != owner);
    }
}

/// Per chip of one sample stream, the smallest clock period at which the
/// flow has seen the chip meet every floored setup and hold bound with all
/// buffers at zero, as `f64` bits.  Until then an entry holds all ones
/// ([`UNSEEN`]), a NaN that settles no period, not even `+∞`.
///
/// **Lemma: passing untuned at `T` implies passing untuned at every
/// `T' ≥ T`.**  A chip's draw depends only on its stream and index, and
/// its bounds at period `T` (step `δ = T·range_fraction/steps`) are:
///
/// 1. The setup slack `((T + t_j) − t_i) − S_j − D̄_e` is a chain of IEEE
///    round-to-nearest operations, each monotone in `T`, so it does not
///    decrease as `T` grows.  The hold slack does not depend on `T`.
/// 2. A bound `⌊slack · (1/δ)⌋` cast to `i64` is `≥ 0` iff the product is
///    `≥ 0` or `−0.0` (a tiny negative slack whose product underflows).
///    Both survive a larger `T`: a non-negative slack stays non-negative,
///    and a negative one only shrinks in magnitude while `1/δ` shrinks
///    too, so its rounded product stays `−0.0`.
/// 3. So "every bound `≥ 0` at `T`" implies the same at every `T' ≥ T`.
///    This holds on every kernel backend, since all of them are
///    bit-identical to the scalar expression.
///
/// Entries are written only from a chip's extracted bounds
/// ([`psbi_timing::ConstraintsView::feasible_at_zero`] on its row), never
/// from a solver result.  Updates are a `fetch_min` on the bits —
/// periods are positive, so bit order is numeric order — and relaxed
/// ordering suffices: any value a reader sees is a period at which the
/// chip really passed, so a stale read only costs a redraw.
struct ZeroPassTable(Box<[AtomicU64]>);

/// The entry of a chip not yet seen to pass: above every positive
/// period's bits, so `fetch_min` replaces it with the first one.
const UNSEEN: u64 = u64::MAX;

impl ZeroPassTable {
    /// A table of `chips` chips that have not been seen to pass yet.
    fn new(chips: usize) -> Self {
        Self((0..chips).map(|_| AtomicU64::new(UNSEEN)).collect())
    }

    /// Whether chip `k` is known to pass untuned at `period`.
    fn settles(&self, k: usize, period: f64) -> bool {
        f64::from_bits(self.0[k].load(Ordering::Relaxed)) <= period
    }

    /// Records that chip `k` passes untuned at `period`.
    fn record(&self, k: usize, period: f64) {
        self.0[k].fetch_min(period.to_bits(), Ordering::Relaxed);
    }
}

/// The flow object: build once per circuit, run per target period.
pub struct BufferInsertionFlow<'a> {
    circuit: &'a Circuit,
    pub(crate) cfg: FlowConfig,
    pub(crate) tg: TimingGraph<'a>,
    pub(crate) sg: SequentialGraph,
    placement: Placement,
    pub(crate) skews: Vec<f64>,
    /// Flattened canonical coefficients for the batch sampling kernel.
    canon: CanonicalBatchSampler,
    /// Reusable worker workspaces, shared across all passes (and across
    /// flows when built with [`FlowBuilder::pool`]).
    pool: Arc<WorkspacePool>,
    /// Cached µT/σT calibration: it depends only on the circuit and seed,
    /// so one calibration serves every target-period sweep point.
    calibration: OnceLock<(f64, f64, f64)>,
    /// Explicit thread pool when [`FlowConfig::threads`] > 0; `None` uses
    /// the global default (respecting `RAYON_NUM_THREADS`).
    thread_pool: Option<rayon::ThreadPool>,
    /// Unique flow identity keying this flow's memo in the pool: memo
    /// entries never migrate between flows.
    id: u64,
    /// Zero-pass periods of the insertion and yield streams' chips,
    /// shared by every `run_target` call of this flow.
    zero_insert: ZeroPassTable,
    zero_yield: ZeroPassTable,
}

/// Accumulated output of one sampling pass.
struct PassOutput {
    /// Per FF: the histogram of its tunings over the pass's chips;
    /// `total()` is the number of chips that tuned it and `range()` its
    /// smallest and largest tuning.
    hist: Vec<Histogram>,
    infeasible: u64,
    inexact: u64,
    /// Solver counters of the pass.
    diag: PassDiagnostics,
    /// Tuning value per (buffered slot, sample); recorded when requested.
    columns: Option<Vec<Vec<f32>>>,
    /// FF → slot map for `columns`.
    slot_of_ff: Vec<u32>,
    /// Per-sample feasibility claims — what the independent verifier
    /// re-checks against the raw constraint system.  Always recorded
    /// (one bool per chip).
    feasible: Vec<bool>,
}

pub(crate) const NONE: u32 = u32::MAX;

/// Chainable constructor for [`BufferInsertionFlow`] — the single place a
/// flow is assembled.
///
/// ```
/// use psbi_core::{BufferInsertionFlow, FlowConfig};
///
/// let circuit = psbi_netlist::bench_suite::tiny_demo(3);
/// let flow = BufferInsertionFlow::builder(&circuit, FlowConfig::default())
///     .build()
///     .unwrap();
/// ```
pub struct FlowBuilder<'a> {
    circuit: &'a Circuit,
    cfg: FlowConfig,
    lib: Option<Library>,
    model: Option<VariationModel>,
    pool: Option<Arc<WorkspacePool>>,
}

impl<'a> FlowBuilder<'a> {
    /// Starts a builder for `circuit` under `cfg`, with the industry-like
    /// library, the paper's variation model, and a private workspace pool
    /// unless overridden.
    pub fn new(circuit: &'a Circuit, cfg: FlowConfig) -> Self {
        Self {
            circuit,
            cfg,
            lib: None,
            model: None,
            pool: None,
        }
    }

    /// Uses an explicit buffer/gate library.
    #[must_use]
    pub fn library(mut self, lib: Library) -> Self {
        self.lib = Some(lib);
        self
    }

    /// Uses an explicit process-variation model.
    #[must_use]
    pub fn model(mut self, model: VariationModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Checks worker workspaces out of an externally owned pool —
    /// campaign runners share one pool across every flow they execute, so
    /// solver scratch is reused across circuits and targets.
    #[must_use]
    pub fn pool(mut self, pool: Arc<WorkspacePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Validates the configuration and builds the flow.
    ///
    /// # Errors
    ///
    /// Fails when the circuit is malformed, has no sequential paths, or
    /// the configuration is invalid.
    pub fn build(self) -> Result<BufferInsertionFlow<'a>, FlowError> {
        let circuit = self.circuit;
        let cfg = self.cfg;
        let lib = self.lib.unwrap_or_else(Library::industry_like);
        let model = self.model.unwrap_or_else(VariationModel::paper_defaults);
        let pool = self.pool.unwrap_or_else(|| Arc::new(WorkspacePool::new()));
        if cfg.samples == 0 || cfg.yield_samples == 0 || cfg.calibration_samples == 0 {
            return Err(FlowError::Config("sample counts must be positive".into()));
        }
        if cfg.steps == 0 {
            return Err(FlowError::Config("steps must be positive".into()));
        }
        if cfg.range_fraction.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !cfg.range_fraction.is_finite()
        {
            return Err(FlowError::Config("range_fraction must be positive".into()));
        }
        model.validate().map_err(FlowError::Config)?;
        let tg = TimingGraph::build(circuit, &lib, &model)?;
        let sg = SequentialGraph::extract(&tg);
        if sg.edges.is_empty() {
            return Err(FlowError::NoSequentialPaths);
        }
        let placement = Placement::grid(circuit, 1.0);
        let skews = SkewConfig::scaled_to(sg.mean_stage_delay())
            .assign(circuit, stream_seed(cfg.seed, "skew"));
        let canon = CanonicalBatchSampler::new(&sg);
        let thread_pool = if cfg.threads > 0 {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(cfg.threads)
                    .build()
                    .map_err(|e| FlowError::Config(format!("thread pool: {e}")))?,
            )
        } else {
            None
        };
        static NEXT_FLOW_ID: AtomicU64 = AtomicU64::new(0);
        let zero_insert = ZeroPassTable::new(cfg.samples);
        let zero_yield = ZeroPassTable::new(cfg.yield_samples);
        Ok(BufferInsertionFlow {
            circuit,
            cfg,
            tg,
            sg,
            placement,
            skews,
            canon,
            pool,
            calibration: OnceLock::new(),
            thread_pool,
            id: NEXT_FLOW_ID.fetch_add(1, Ordering::Relaxed),
            zero_insert,
            zero_yield,
        })
    }
}

/// Request for [`BufferInsertionFlow::speed_bins`]: the deployment to
/// evaluate, the candidate bin periods (ps, ascending) and the
/// design-time buffer step from [`InsertionResult::step`].
#[derive(Debug, Clone, Copy)]
pub struct BinningRequest<'a> {
    deployment: &'a Deployment,
    periods: &'a [f64],
    step: f64,
}

impl<'a> BinningRequest<'a> {
    /// A binning request over `periods` with and without `deployment`'s
    /// buffers.
    pub fn new(deployment: &'a Deployment, periods: &'a [f64], step: f64) -> Self {
        Self {
            deployment,
            periods,
            step,
        }
    }
}

/// Request for [`BufferInsertionFlow::chip_constraints`]: one chip of a
/// named sample stream, materialised at a period/step operating point.
#[derive(Debug, Clone, Copy)]
pub struct SampleRequest<'a> {
    stream: &'a str,
    index: u64,
    period: f64,
    step: f64,
}

impl<'a> SampleRequest<'a> {
    /// Chip `index` of `stream` (e.g. `"yield"`), at target `period` (ps)
    /// with buffer step `step`.
    pub fn new(stream: &'a str, index: u64, period: f64, step: f64) -> Self {
        Self {
            stream,
            index,
            period,
            step,
        }
    }
}

impl<'a> BufferInsertionFlow<'a> {
    /// Starts a [`FlowBuilder`] — the flow's constructor surface.
    pub fn builder(circuit: &'a Circuit, cfg: FlowConfig) -> FlowBuilder<'a> {
        FlowBuilder::new(circuit, cfg)
    }

    /// Whether this flow runs in reference mode ([`FlowConfig::reference`]
    /// or the `PSBI_REFERENCE` environment switch): memo detached, unpruned
    /// search.  Canonical outputs are bit-identical either way.
    pub fn reference_enabled(&self) -> bool {
        self.cfg.reference || reference_env_enabled()
    }

    /// Whether `run_target` re-checks its result with the independent
    /// verifier ([`FlowConfig::verify`] or the `PSBI_VERIFY` environment
    /// switch).  The verifier only adds a [`crate::verify::VerifyReport`]
    /// to the diagnostics — canonical outputs are bit-identical either
    /// way.
    pub fn verify_enabled(&self) -> bool {
        self.cfg.verify || verify_env_enabled()
    }

    /// Frees this flow's cross-chip memo table from the shared pool.
    /// Purely a memory-reclamation knob — a later `run_target` call
    /// simply starts with an empty memo.  Campaign runners call this once
    /// a circuit's last sweep target has committed, so a many-circuit
    /// campaign holds memos only for the flows still in flight.
    pub fn release_solver_state(&self) {
        self.pool.release_owner(self.id);
    }

    /// The sequential timing graph the flow operates on.
    pub fn sequential_graph(&self) -> &SequentialGraph {
        &self.sg
    }

    /// The fixed clock-tree skews (ps, per dense FF index).
    pub fn skews(&self) -> &[f64] {
        &self.skews
    }

    /// The flip-flop placement used for grouping distances.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Classifies fresh evaluation chips into speed bins (the paper's
    /// future-work "clock binning"), with and without the request's
    /// deployment buffers.
    pub fn speed_bins(&self, req: BinningRequest<'_>) -> crate::binning::BinningReport {
        let stream = stream_seed(self.cfg.seed, "yield");
        let mut gls = self
            .cfg
            .gate_level_sampling
            .then(|| GateLevelSampler::new(&self.tg));
        crate::binning::classify(
            &self.sg,
            req.deployment,
            &self.skews,
            req.periods,
            req.step,
            self.cfg.yield_samples,
            |k, st| self.fill_sample(stream, k, st, &mut gls),
        )
    }

    /// Builds the integer constraints of one chip from a named sample
    /// stream — lets examples and tests replay exact chips (e.g. the
    /// post-silicon configuration example replays the yield stream).
    pub fn chip_constraints(&self, req: SampleRequest<'_>) -> IntegerConstraints {
        let mut st = SampleTiming::for_graph(&self.sg);
        let mut gls = self
            .cfg
            .gate_level_sampling
            .then(|| GateLevelSampler::new(&self.tg));
        self.fill_sample(
            stream_seed(self.cfg.seed, req.stream),
            req.index,
            &mut st,
            &mut gls,
        );
        let mut ic = IntegerConstraints::for_graph(&self.sg);
        ic.build(&self.sg, &st, &self.skews, req.period, req.step);
        ic
    }

    /// Runs `f` under this flow's worker-thread cap: the explicit pool
    /// when [`FlowConfig::threads`] > 0, the global default otherwise.
    fn parallel<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.thread_pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }

    /// Draws the chips listed in `ws.chips` of `stream` into `ws.batch` at
    /// gate level, one row per listed chip.
    fn fill_gate_level(&self, ws: &mut Workspace, stream: u64) {
        ws.batch.reset(&self.sg, ws.chips.len());
        let gls = ws
            .gls
            .get_or_insert_with(|| GateLevelSampler::new(&self.tg));
        ws.batch
            .fill_gate_level_gathered(&self.tg, &self.sg, gls, stream, &ws.chips);
    }

    /// Lists in `ws.chips` the chips of `lo .. lo + len` that `zero`
    /// cannot settle at `period` (all of them without a table), then
    /// draws them and extracts their bounds into `ws.cons` — canonical
    /// chips in one fused pass ([`ConstraintBatch::draw_from`]), gate-level
    /// ones through a gathered batch: row `r` of `ws.cons` is chip
    /// `ws.chips[r]`.  Every drawn chip that passes untuned is recorded in
    /// `zero`.
    #[allow(clippy::too_many_arguments)]
    fn fill_unsettled(
        &self,
        ws: &mut Workspace,
        stream: u64,
        zero: Option<&ZeroPassTable>,
        lo: usize,
        len: usize,
        period: f64,
        step: f64,
    ) {
        ws.chips.clear();
        ws.chips.extend(
            (lo..lo + len)
                .filter(|&k| zero.is_none_or(|z| !z.settles(k, period)))
                .map(|k| k as u64),
        );
        psbi_obs::metrics::counter_add("flow.chips.settled", (len - ws.chips.len()) as u64);
        if ws.chips.is_empty() {
            return;
        }
        if self.cfg.gate_level_sampling {
            self.fill_gate_level(ws, stream);
            ws.cons
                .build_from(&self.sg, &ws.batch, &self.skews, period, step);
        } else {
            ws.cons
                .draw_from(&self.canon, stream, &ws.chips, &self.skews, period, step);
        }
        if let Some(zero) = zero {
            for (row, &k) in ws.chips.iter().enumerate() {
                if ws.cons.view(row).feasible_at_zero() {
                    zero.record(k as usize, period);
                }
            }
        }
    }

    /// Draws one chip into a standalone [`SampleTiming`] — the replay path
    /// used by speed binning, [`BufferInsertionFlow::chip_constraints`],
    /// the verifier and the examples.  Canonical chips are drawn through
    /// the scalar reference kernel, which every backend of the batched
    /// passes reproduces bit for bit, so replaying an evaluated chip
    /// reproduces it exactly.
    pub(crate) fn fill_sample(
        &self,
        stream: u64,
        index: u64,
        st: &mut SampleTiming,
        gls: &mut Option<GateLevelSampler>,
    ) {
        match gls {
            Some(g) => {
                let (globals, mut rng) = psbi_timing::sample::chip_rng(stream, index);
                g.sample(&self.tg, &self.sg, &globals, &mut rng, st);
            }
            None => self.canon.fill_one(stream, index, st),
        }
    }

    /// Splits `n` samples into fixed [`SAMPLE_CHUNK`]-sized work units and
    /// maps them in parallel, returning per-chunk results in chunk order.
    pub(crate) fn map_chunks<T: Send>(
        &self,
        n: usize,
        f: impl Fn(&mut Workspace, usize, usize) -> T + Sync,
    ) -> Vec<T> {
        let n_chunks = n.div_ceil(SAMPLE_CHUNK);
        psbi_obs::metrics::counter_add("flow.chunks", n_chunks as u64);
        self.parallel(|| {
            (0..n_chunks)
                .into_par_iter()
                .map(|c| {
                    let lo = c * SAMPLE_CHUNK;
                    let len = SAMPLE_CHUNK.min(n - lo);
                    let _span = psbi_obs::Span::enter_with(
                        "flow.chunk",
                        &[("lo", lo as u64), ("len", len as u64)],
                    );
                    self.pool.run(|ws| f(ws, lo, len))
                })
                .collect()
        })
    }

    /// Unbuffered Monte-Carlo calibration: (µT, σT, hold-fail fraction).
    /// Computed once per flow (it depends only on the circuit and seed)
    /// and cached for subsequent target-period runs.
    fn calibrate(&self) -> (f64, f64, f64) {
        *self.calibration.get_or_init(|| self.calibrate_uncached())
    }

    fn calibrate_uncached(&self) -> (f64, f64, f64) {
        let _span = psbi_obs::Span::enter("flow.calibrate");
        let _timer = psbi_obs::metrics::timer("flow.calibrate");
        let stream = stream_seed(self.cfg.seed, "calibrate");
        let n = self.cfg.calibration_samples;
        // Each chunk returns its chips' periods and hold-fail tally;
        // chunks come back in chunk order, so the concatenated periods are
        // in chip order.
        let chunks = self.map_chunks(n, |ws, lo, len| {
            ws.chips.clear();
            ws.chips.extend(lo as u64..(lo + len) as u64);
            let mut mps = Vec::with_capacity(len);
            if self.cfg.gate_level_sampling {
                self.fill_gate_level(ws, stream);
                mps.extend((0..len).map(|row| {
                    constraint::min_period_view(&self.sg, ws.batch.view(row), &self.skews)
                }));
            } else {
                constraint::min_periods(&self.canon, stream, &ws.chips, &self.skews, &mut mps);
            }
            let periods: Vec<f64> = mps.iter().map(|mp| mp.period).collect();
            let hold_fails = mps.iter().filter(|mp| !mp.hold_ok).count() as u64;
            (periods, hold_fails)
        });
        let hold_fails: u64 = chunks.iter().map(|(_, h)| h).sum();
        let periods: Vec<f64> = chunks.into_iter().flat_map(|(p, _)| p).collect();
        (
            psbi_variation::mean(&periods),
            psbi_variation::stddev(&periods),
            hold_fails as f64 / n as f64,
        )
    }

    /// One parallel sampling pass over the insertion stream: every chip is
    /// solved against `space`, replaying region outcomes from `memo` (the
    /// flow's cross-chip table, `None` in reference mode).  Chips the
    /// zero-pass table settles at `period` are not drawn: they get the
    /// solver's outcome for a chip without violations, untuned and
    /// feasible.
    fn run_pass(
        &self,
        space: &BufferSpace,
        memo: Option<&RegionMemo>,
        push: PushObjective<'_>,
        record_matrix: bool,
        period: f64,
        step: f64,
    ) -> PassOutput {
        let stream = stream_seed(self.cfg.seed, "insert");
        let n_ffs = self.sg.n_ffs;
        let samples = self.cfg.samples;
        let prune = !self.reference_enabled();
        let zero = (!self.reference_enabled()).then_some(&self.zero_insert);

        // Slot map for the tuning matrix.
        let mut slot_of_ff = vec![NONE; n_ffs];
        let mut n_slots = 0u32;
        if record_matrix {
            for (slot, has) in slot_of_ff.iter_mut().zip(&space.has_buffer) {
                if *has {
                    *slot = n_slots;
                    n_slots += 1;
                }
            }
        }
        let slot_of_ff_ref = &slot_of_ff;

        struct Local {
            hist: Vec<Histogram>,
            infeasible: u64,
            inexact: u64,
            diag: PassDiagnostics,
            /// The chunk's rows of the per-chip feasibility claims.
            feasible: Vec<bool>,
            /// The chunk's tuning-matrix entries, as (slot, chip, value).
            tunings: Vec<(u32, usize, f32)>,
        }

        let locals: Vec<Local> = self.map_chunks(samples, |ws, lo, len| {
            self.fill_unsettled(ws, stream, zero, lo, len, period, step);
            let mut local = Local {
                hist: vec![Histogram::new(); n_ffs],
                infeasible: 0,
                inexact: 0,
                diag: PassDiagnostics::default(),
                feasible: Vec::with_capacity(len),
                tunings: Vec::new(),
            };
            // Chips are solved in chip order, so a chip's memo publishes
            // land before the next chip of the chunk looks them up.
            let mut drawn = ws.chips.iter().enumerate().peekable();
            for k in lo..lo + len {
                let r = match drawn.next_if(|&(_, &chip)| chip == k as u64) {
                    Some((row, _)) => {
                        let mut req = SolveRequest::new(
                            &self.sg,
                            ws.cons.view(row),
                            space,
                            push,
                            &self.cfg.solver,
                        )
                        .search_prune(prune);
                        if let Some(m) = memo {
                            req = req.memo(m);
                        }
                        let out = ws.solver.solve(req);
                        local.diag.merge(&out.diag);
                        out.result
                    }
                    None => SampleResult::untuned(true),
                };
                local.feasible.push(r.feasible);
                if !r.feasible {
                    local.infeasible += 1;
                } else {
                    if !r.exact {
                        local.inexact += 1;
                    }
                    for (ff, kv) in &r.tunings {
                        let f = *ff as usize;
                        local.hist[f].add(*kv);
                        let slot = slot_of_ff_ref[f];
                        if slot != NONE {
                            local.tunings.push((slot, k, *kv as f32));
                        }
                    }
                }
            }
            local
        });

        // Merge the per-chunk results in chunk order: histograms and
        // counters are folds, the feasibility claims are the chunks' rows
        // concatenated, and the tuning entries land in zeroed columns (no
        // tuning reads 0.0).
        let mut out = PassOutput {
            hist: vec![Histogram::new(); n_ffs],
            infeasible: 0,
            inexact: 0,
            diag: PassDiagnostics::default(),
            columns: record_matrix.then(|| {
                let mut columns = vec![vec![0.0; samples]; n_slots as usize];
                for &(slot, k, v) in locals.iter().flat_map(|l| &l.tunings) {
                    columns[slot as usize][k] = v;
                }
                columns
            }),
            slot_of_ff,
            feasible: locals.iter().flat_map(|l| &l.feasible).copied().collect(),
        };
        for local in locals {
            for (into, from) in out.hist.iter_mut().zip(&local.hist) {
                for (v, c) in from.iter() {
                    into.add_n(v, c);
                }
            }
            out.infeasible += local.infeasible;
            out.inexact += local.inexact;
            out.diag.merge(&local.diag);
        }
        out
    }

    /// Parallel yield evaluation on the fresh "yield" stream.  When every
    /// deployed window contains 0, the zero assignment is in every window,
    /// so a chip that passes untuned passes with buffers too: it skips the
    /// deployment check, and if the zero-pass table settles it at `period`
    /// it is not even drawn.
    fn evaluate_yield(&self, deployment: &Deployment, period: f64, step: f64) -> YieldReport {
        let _span = psbi_obs::Span::enter("flow.yield");
        let _timer = psbi_obs::metrics::timer("flow.yield");
        let stream = stream_seed(self.cfg.seed, "yield");
        let samples = self.cfg.yield_samples;
        let zero_untuned = deployment
            .bounds
            .iter()
            .all(|&(lo, hi)| (lo..=hi).contains(&0));
        let zero = (zero_untuned && !self.reference_enabled()).then_some(&self.zero_yield);
        let reports = self.map_chunks(samples, |ws, lo, len| {
            self.fill_unsettled(ws, stream, zero, lo, len, period, step);
            let mut report = YieldReport::default();
            for _ in ws.chips.len()..len {
                report.record(true, true);
            }
            for row in 0..ws.chips.len() {
                let cv = ws.cons.view(row);
                let baseline = cv.feasible_at_zero();
                let buffered = (zero_untuned && baseline)
                    || deployment.chip_passes(&self.sg, cv, &mut ws.check);
                report.record(baseline, buffered);
            }
            report
        });
        let mut merged = YieldReport::default();
        for r in &reports {
            merged.merge(r);
        }
        merged
    }

    /// Runs the complete flow at the configured target period.
    pub fn run(&self) -> InsertionResult {
        self.run_target(self.cfg.target)
    }

    /// Runs the complete flow at an explicit target period — the per-job
    /// entry point for campaign runners sweeping several targets over one
    /// circuit: the flow (timing graph, canonical sampler, workspace pool,
    /// µT/σT calibration) is built once and each call is a deterministic
    /// job whose result depends only on the circuit, the configuration
    /// and `target` — never on which targets ran before it or
    /// concurrently with it.  The *work* may: earlier and concurrent calls
    /// on this flow share its cross-chip memo and its zero-pass table, so
    /// a chip one of them saw pass untuned at a period no longer than
    /// this target's is settled here without a draw.
    pub fn run_target(&self, target: TargetPeriod) -> InsertionResult {
        let _span =
            psbi_obs::Span::enter_with("flow.target", &[("samples", self.cfg.samples as u64)]);
        psbi_obs::metrics::counter_add("flow.targets", 1);
        let t_total = Instant::now();
        let steps = self.cfg.steps as i64;
        let n_ffs = self.sg.n_ffs;

        // Calibration (cached across calls).
        let t0 = Instant::now();
        let (mu_t, sigma_t, hold_fail_fraction) = self.calibrate();
        let period = match target {
            TargetPeriod::SigmaFactor(k) => mu_t + k * sigma_t,
            TargetPeriod::Absolute(t) => t,
        };
        let tau = period * self.cfg.range_fraction;
        let step = tau / self.cfg.steps as f64;
        let calibration_s = t0.elapsed().as_secs_f64();

        // The cross-chip memo table: shared (not checked out), so it
        // carries region outcomes across this target's passes and a fleet
        // sweeping several targets of this circuit concurrently deduples
        // across the whole job group.  Reference mode detaches it (and
        // runs the unpruned search).
        let memo_owned =
            (!self.reference_enabled()).then(|| self.pool.checkout_region_memo(self.id));
        let memo = memo_owned.as_deref();

        // ---- Step 1 ----
        let t1 = Instant::now();
        let mut space = BufferSpace::floating(n_ffs, steps);
        let tp = Instant::now();
        let a1 = {
            let _span = psbi_obs::Span::enter("flow.pass.a1");
            let _timer = psbi_obs::metrics::timer("flow.pass.a1");
            self.run_pass(&space, memo, PushObjective::None, false, period, step)
        };
        let pass_a1_s = tp.elapsed().as_secs_f64();
        let a1_counts: Vec<u64> = a1.hist.iter().map(Histogram::total).collect();
        let prune_report = prune(
            &self.sg,
            &a1_counts,
            &mut space,
            &self.cfg.prune,
            self.cfg.samples as u64,
        );
        let a3_push = if self.cfg.concentrate {
            PushObjective::ToZero
        } else {
            PushObjective::None
        };
        let tp = Instant::now();
        let a3 = {
            let _span = psbi_obs::Span::enter("flow.pass.a3");
            let _timer = psbi_obs::metrics::timer("flow.pass.a3");
            self.run_pass(&space, memo, a3_push, false, period, step)
        };
        let pass_a3_s = tp.elapsed().as_secs_f64();
        // Window assignment (III-A4): most-covering window containing 0.
        let mut miss_events = 0u64;
        for ff in 0..n_ffs {
            if !space.has_buffer[ff] {
                continue;
            }
            let (r, covered) = a3.hist[ff].best_window(steps, true);
            space.bounds[ff] = (r, r + steps);
            miss_events += a3.hist[ff].total() - covered;
        }
        let miss_fraction = miss_events as f64 / self.cfg.samples as f64;
        let step1_s = t1.elapsed().as_secs_f64();

        // ---- Step 2 ----
        let t2 = Instant::now();
        let refit_ran = miss_fraction >= self.cfg.skip_refit_threshold;
        // B1 and B2 run on the same assigned windows, which is what lets
        // B2 replay B1's search outcomes from the memo.  Without the
        // refit, B1 reuses the step-1 tunings (they already respect the
        // windows): it solves nothing, so its time and solver counters
        // stay 0, and warm-vs-cold comparisons sum these fields.
        let (b1, pass_b1_s) = if refit_ran {
            let tp = Instant::now();
            let b1 = {
                let _span = psbi_obs::Span::enter("flow.pass.b1");
                let _timer = psbi_obs::metrics::timer("flow.pass.b1");
                self.run_pass(&space, memo, PushObjective::None, false, period, step)
            };
            (Some(b1), tp.elapsed().as_secs_f64())
        } else {
            (None, 0.0)
        };
        let b1_hist = b1.as_ref().map_or(&a3.hist, |b1| &b1.hist);
        // Per-buffer average tuning (mean of nonzero tunings, III-B2).
        let targets: Vec<f64> = b1_hist
            .iter()
            .map(|h| {
                let total = h.total();
                if total == 0 {
                    0.0
                } else {
                    h.iter().map(|(v, c)| v as f64 * c as f64).sum::<f64>() / total as f64
                }
            })
            .collect();
        let b2_push = if self.cfg.concentrate {
            PushObjective::ToTargets(&targets)
        } else {
            PushObjective::None
        };
        let tp = Instant::now();
        let b2 = {
            let _span = psbi_obs::Span::enter("flow.pass.b2");
            let _timer = psbi_obs::metrics::timer("flow.pass.b2");
            self.run_pass(&space, memo, b2_push, true, period, step)
        };
        let pass_b2_s = tp.elapsed().as_secs_f64();
        let step2_s = t2.elapsed().as_secs_f64();
        let memo_entries = memo.map_or(0, |m| m.len() as u64);

        // ---- Step 3 ----
        let t3 = Instant::now();
        // Final ranges: min/max observed tunings; unused buffers dropped.
        let mut candidates: Vec<BufferCandidate> = Vec::new();
        for ff in 0..n_ffs {
            if !space.has_buffer[ff] {
                continue;
            }
            let Some((mut lo, mut hi)) = b2.hist[ff].range() else {
                continue;
            };
            if self.cfg.force_zero_in_range {
                lo = lo.min(0);
                hi = hi.max(0);
            }
            let slot = b2.slot_of_ff[ff];
            let column = b2
                .columns
                .as_ref()
                .and_then(|c| (slot != NONE).then(|| c[slot as usize].clone()))
                .unwrap_or_default();
            candidates.push(BufferCandidate {
                ff,
                lo,
                hi,
                usage: b2.hist[ff].total(),
                column,
            });
        }
        let buffers_before_grouping = candidates.len();
        let grouping = {
            let _span = psbi_obs::Span::enter("flow.group");
            let _timer = psbi_obs::metrics::timer("flow.group");
            group_buffers(&candidates, &self.placement, &self.cfg.grouping)
        };
        let deployment = Deployment::from_grouping(n_ffs, &grouping);
        let step3_s = t3.elapsed().as_secs_f64();

        // ---- Yield ----
        let t4 = Instant::now();
        let report = self.evaluate_yield(&deployment, period, step);
        let yield_s = t4.elapsed().as_secs_f64();

        // Fig. 5 snapshots for the most-used buffers.
        let mut snapshots = Vec::new();
        if self.cfg.record_histograms > 0 {
            let mut by_usage: Vec<&BufferCandidate> = candidates.iter().collect();
            by_usage.sort_by_key(|c| std::cmp::Reverse(c.usage));
            for cand in by_usage.into_iter().take(self.cfg.record_histograms) {
                let ff = cand.ff;
                snapshots.push(BufferSnapshot {
                    ff,
                    scattered: a1.hist[ff].iter().collect(),
                    pushed: a3.hist[ff].iter().collect(),
                    window: (space.bounds[ff].0, space.bounds[ff].1),
                    concentrated: b2.hist[ff].iter().collect(),
                    final_range: (cand.lo, cand.hi),
                });
            }
        }

        let groups = grouping.groups.clone();
        let ab = grouping.average_range();
        let mut result = InsertionResult {
            circuit: self.circuit.name.clone(),
            n_ffs,
            n_gates: self.circuit.num_gates(),
            mu_t,
            sigma_t,
            period,
            step,
            nb: groups.len(),
            ab,
            yield_baseline: 100.0 * report.yield_baseline(),
            yield_with_buffers: 100.0 * report.yield_buffered(),
            improvement: 100.0 * (report.yield_buffered() - report.yield_baseline()),
            rescued: report.rescued,
            broken: report.broken,
            groups,
            deployment,
            prune: prune_report,
            correlated_pairs: grouping.correlated_pairs,
            merged_pairs: grouping.merged_pairs,
            buffers_before_grouping,
            stats: StageStats {
                a1_infeasible: a1.infeasible,
                b2_infeasible: b2.infeasible,
                inexact_samples: a1.inexact + a3.inexact + b2.inexact,
                miss_fraction,
                refit_ran,
                a1_total_tunings: a1_counts.iter().sum(),
                hold_fail_fraction,
            },
            snapshots,
            runtime: RuntimeBreakdown {
                calibration_s,
                step1_s,
                step2_s,
                step3_s,
                yield_s,
                total_s: t_total.elapsed().as_secs_f64(),
                pass_a1_s,
                pass_a3_s,
                pass_b1_s,
                pass_b2_s,
            },
            diagnostics: FlowDiagnostics {
                a1: a1.diag,
                a3: a3.diag,
                b1: b1.map_or_else(PassDiagnostics::default, |b1| b1.diag),
                b2: b2.diag,
                memo_entries,
                verify: None,
            },
        };
        if self.verify_enabled() {
            let space_floating = BufferSpace::floating(n_ffs, steps);
            let claims = crate::verify::PassClaims {
                space_floating: &space_floating,
                space_b: &space,
                a1_feasible: &a1.feasible,
                b2_feasible: &b2.feasible,
                b2_columns: b2.columns.as_deref(),
                b2_slot_of_ff: &b2.slot_of_ff,
                period,
                step,
            };
            result.diagnostics.verify =
                Some(crate::verify::verify_insertion(self, &claims, &result));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbi_netlist::bench_suite;

    fn quick_cfg() -> FlowConfig {
        FlowConfig {
            samples: 120,
            yield_samples: 300,
            calibration_samples: 300,
            seed: 7,
            threads: 2,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn end_to_end_on_tiny_circuit() {
        let c = bench_suite::tiny_demo(1);
        let flow = BufferInsertionFlow::builder(&c, quick_cfg())
            .build()
            .unwrap();
        let r = flow.run();
        assert_eq!(r.n_ffs, 24);
        assert!(r.mu_t > 0.0);
        assert!(r.sigma_t > 0.0);
        assert!(r.period >= r.mu_t * 0.5);
        // Baseline at µT should be mid-range, buffers should not hurt.
        assert!(
            r.yield_baseline > 20.0 && r.yield_baseline < 80.0,
            "baseline {}",
            r.yield_baseline
        );
        assert!(r.yield_with_buffers >= r.yield_baseline - 1e-9);
        assert!(r.runtime.total_s > 0.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let c = bench_suite::tiny_demo(2);
        let mut cfg1 = quick_cfg();
        cfg1.threads = 1;
        let mut cfg4 = quick_cfg();
        cfg4.threads = 4;
        let r1 = BufferInsertionFlow::builder(&c, cfg1)
            .build()
            .unwrap()
            .run();
        let r4 = BufferInsertionFlow::builder(&c, cfg4)
            .build()
            .unwrap()
            .run();
        assert_eq!(r1.nb, r4.nb);
        assert_eq!(r1.groups, r4.groups);
        assert_eq!(r1.yield_with_buffers, r4.yield_with_buffers);
        assert_eq!(r1.yield_baseline, r4.yield_baseline);
    }

    #[test]
    fn higher_sigma_target_means_higher_baseline_yield() {
        let c = bench_suite::tiny_demo(3);
        let mut cfg0 = quick_cfg();
        cfg0.target = TargetPeriod::SigmaFactor(0.0);
        let mut cfg2 = quick_cfg();
        cfg2.target = TargetPeriod::SigmaFactor(2.0);
        let r0 = BufferInsertionFlow::builder(&c, cfg0)
            .build()
            .unwrap()
            .run();
        let r2 = BufferInsertionFlow::builder(&c, cfg2)
            .build()
            .unwrap()
            .run();
        assert!(
            r2.yield_baseline > r0.yield_baseline + 20.0,
            "2σ {} vs µ {}",
            r2.yield_baseline,
            r0.yield_baseline
        );
        assert!(r2.yield_baseline > 90.0);
    }

    #[test]
    fn absolute_period_is_respected() {
        let c = bench_suite::tiny_demo(4);
        let mut cfg = quick_cfg();
        cfg.target = TargetPeriod::Absolute(1234.5);
        let flow = BufferInsertionFlow::builder(&c, cfg).build().unwrap();
        let r = flow.run();
        assert_eq!(r.period, 1234.5);
    }

    #[test]
    fn snapshots_recorded_when_requested() {
        let c = bench_suite::tiny_demo(5);
        let mut cfg = quick_cfg();
        cfg.record_histograms = 2;
        let r = BufferInsertionFlow::builder(&c, cfg).build().unwrap().run();
        assert!(r.snapshots.len() <= 2);
        for s in &r.snapshots {
            assert!(!s.concentrated.is_empty());
            assert!(s.window.1 - s.window.0 == 20);
            assert!(s.final_range.0 <= s.final_range.1);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = bench_suite::tiny_demo(6);
        let mut cfg = quick_cfg();
        cfg.samples = 0;
        assert!(matches!(
            BufferInsertionFlow::builder(&c, cfg).build(),
            Err(FlowError::Config(_))
        ));
        let mut cfg = quick_cfg();
        cfg.steps = 0;
        assert!(BufferInsertionFlow::builder(&c, cfg).build().is_err());
        let mut cfg = quick_cfg();
        cfg.range_fraction = -1.0;
        assert!(BufferInsertionFlow::builder(&c, cfg).build().is_err());
    }

    #[test]
    fn grouping_never_increases_buffer_count() {
        let c = bench_suite::tiny_demo(8);
        let r = BufferInsertionFlow::builder(&c, quick_cfg())
            .build()
            .unwrap()
            .run();
        assert!(r.nb <= r.buffers_before_grouping);
        // Every group window must be within the floating range.
        for g in &r.groups {
            assert!(g.lo >= -20 && g.hi <= 20);
            assert!(g.lo <= g.hi);
        }
    }

    /// Wall-clock times legitimately differ between runs, and the solver
    /// counters legitimately differ with the memo's warm-up history —
    /// both are non-canonical by contract.
    fn no_runtime(mut r: InsertionResult) -> InsertionResult {
        r.runtime = Default::default();
        r.diagnostics = Default::default();
        r
    }

    #[test]
    fn incremental_state_is_bit_identical_to_cold_solves() {
        // A default flow swept over adjacent targets (its memo carried
        // from pass to pass and target to target) must reproduce a
        // reference-mode flow (memo detached, unpruned search) bit-exactly
        // at every point — the in-process form of the `PSBI_REFERENCE`
        // contract.
        let c = bench_suite::tiny_demo(21);
        let warm_flow = BufferInsertionFlow::builder(&c, quick_cfg())
            .build()
            .unwrap();
        let mut cold_cfg = quick_cfg();
        cold_cfg.reference = true;
        let cold_flow = BufferInsertionFlow::builder(&c, cold_cfg).build().unwrap();
        assert!(cold_flow.reference_enabled());
        let mut memo_hits = 0u64;
        for k in [0.0, 0.25, 0.5] {
            let warm = warm_flow.run_target(TargetPeriod::SigmaFactor(k));
            let cold = cold_flow.run_target(TargetPeriod::SigmaFactor(k));
            // Reference runs never consult a memo, but they still report
            // the workload counters.
            let cold_totals = cold.diagnostics.total();
            assert_eq!(cold_totals.cross_chip_hits, 0, "reference run hit a memo");
            assert_eq!(cold.diagnostics.memo_entries, 0);
            assert_eq!(
                cold_totals.regions_total,
                warm.diagnostics.total().regions_total,
                "default and reference must process the same regions"
            );
            memo_hits += warm.diagnostics.total().cross_chip_hits;
            assert_eq!(no_runtime(warm), no_runtime(cold), "k = {k}");
        }
        // The parity above must not be vacuous: the default sweep replayed
        // memo entries (B1/B2 share A3's region systems at minimum) unless
        // `PSBI_REFERENCE=1` put both flows in reference mode.
        if !warm_flow.reference_enabled() {
            assert!(memo_hits > 0, "default sweep never replayed the memo");
        }
    }

    #[test]
    fn run_target_sweep_matches_fresh_flows() {
        // One flow swept over several targets (cached calibration, reused
        // pool) must reproduce fresh single-target flows bit-exactly.
        let c = bench_suite::tiny_demo(11);
        let swept = BufferInsertionFlow::builder(&c, quick_cfg())
            .build()
            .unwrap();
        for k in [0.0, 1.0, 2.0] {
            let mut cfg = quick_cfg();
            cfg.target = TargetPeriod::SigmaFactor(k);
            let fresh = BufferInsertionFlow::builder(&c, cfg).build().unwrap().run();
            let sweep = swept.run_target(TargetPeriod::SigmaFactor(k));
            assert_eq!(no_runtime(fresh), no_runtime(sweep), "k = {k}");
        }
    }

    #[test]
    fn shared_pool_does_not_change_results() {
        let c1 = bench_suite::tiny_demo(12);
        let c2 = bench_suite::tiny_demo(13);
        let pool = Arc::new(WorkspacePool::new());
        let a = BufferInsertionFlow::builder(&c1, quick_cfg())
            .pool(Arc::clone(&pool))
            .build()
            .unwrap()
            .run();
        // Run a different circuit through the same (now warm) pool, then
        // the first again: pooled scratch must not leak between circuits.
        let _ = BufferInsertionFlow::builder(&c2, quick_cfg())
            .pool(Arc::clone(&pool))
            .build()
            .unwrap()
            .run();
        let b = BufferInsertionFlow::builder(&c1, quick_cfg())
            .pool(pool)
            .build()
            .unwrap()
            .run();
        let fresh = no_runtime(
            BufferInsertionFlow::builder(&c1, quick_cfg())
                .build()
                .unwrap()
                .run(),
        );
        assert_eq!(no_runtime(a), fresh);
        assert_eq!(no_runtime(b), fresh);
    }

    #[test]
    fn yield_pass_draws_settled_chips_when_a_window_excludes_zero() {
        // A chip that passed untuned at a shorter period must still be
        // drawn when a deployed window excludes 0: pinning the buffers at
        // alternating extreme tunings breaks chips that pass untuned.
        let c = bench_suite::tiny_demo(10);
        let flow = BufferInsertionFlow::builder(&c, quick_cfg())
            .build()
            .unwrap();
        let r = flow.run_target(TargetPeriod::SigmaFactor(0.0));
        let mut pinned = r.deployment.clone();
        assert!(pinned.num_buffers() > 0);
        for (g, window) in pinned.bounds.iter_mut().enumerate() {
            let k = if g % 2 == 0 { 20 } else { -20 };
            *window = (k, k);
        }
        let period = r.period + 0.5 * r.sigma_t;
        let step = period * flow.cfg.range_fraction / flow.cfg.steps as f64;
        let fresh = |deployment: &Deployment| {
            BufferInsertionFlow::builder(&c, quick_cfg())
                .build()
                .unwrap()
                .evaluate_yield(deployment, period, step)
        };
        assert_eq!(flow.evaluate_yield(&pinned, period, step), fresh(&pinned));
        assert_eq!(
            flow.evaluate_yield(&r.deployment, period, step),
            fresh(&r.deployment)
        );
        assert!(fresh(&pinned).broken > 0, "pinned windows broke no chip");
    }

    #[test]
    fn max_buffers_cap_enforced() {
        let c = bench_suite::tiny_demo(9);
        let mut cfg = quick_cfg();
        cfg.grouping.max_buffers = Some(1);
        let r = BufferInsertionFlow::builder(&c, cfg).build().unwrap().run();
        assert!(r.nb <= 1);
    }
}
