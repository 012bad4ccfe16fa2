//! Two-phase primal simplex on a sparse tableau.
//!
//! Solves `min c·x` subject to `A x {≤,≥,=} b` and `0 ≤ x` (the model layer
//! shifts general finite bounds into this form).  The method is the classic
//! tableau one: phase 1 drives artificial variables to zero, phase 2
//! optimises the true objective.  Dantzig pricing with a switch to Bland's
//! rule after a fixed number of iterations guards against cycling.
//!
//! # Storage
//!
//! The flow's LPs are sparse: a pivot row is a few percent nonzero, and a
//! pivot changes a tenth of the rows or fewer.  The tableau is one flat
//! row-major buffer plus its nonzero pattern, a bitset per row (its
//! columns) and one per column (its rows).  Each bitset is a superset of
//! the nonzeros, and fill-in sets both, so a pivot touches only marked
//! entries:
//!
//! * the ratio test reads column `j`'s marked rows, and those among them
//!   with `|a| > EPS` are the rows the pivot updates;
//! * the pivot row is scaled over its own marks, and each updated row
//!   changes only at the pivot row's marked columns;
//! * pricing scans only the columns whose reduced cost is below
//!   `-COST_EPS`, a bitset the cost row's updates keep current;
//! * phase 2's iterations leave the artificial columns alone.
//!
//! The rows arrive as sparse term lists ([`Lp`]), and the right-hand
//! side is a column of its own.  The buffer is kept per thread and is all
//! zero between solves: unmarked entries are zero, and a solve clears its
//! marked ones on the way out.
//!
//! # The same pivots as the dense method
//!
//! The engine makes exactly the pivots of the dense tableau method that
//! sweeps every entry (this module's tests keep it as the oracle):
//!
//! * Every entry the dense method computes as nonzero is computed here by
//!   the same IEEE operation on the same operands, `t[r][k] − f·v` with
//!   `f` read before the row's update and `v` taken from the scaled pivot
//!   row, without fused multiply-add.
//! * An entry that is never visited is an exact zero, where the dense
//!   method can hold a zero of the other sign (`0 − f·0`).  No comparison
//!   here or in the branch and bound tells −0 from +0 (they use `EPS`
//!   thresholds, `abs` and `<`), and
//!   [`Solution::int_value`](crate::Solution::int_value) maps both to 0.
//! * The ratio test visits column `j`'s rows in increasing row order.  Its
//!   tie rule (`ratio < best − EPS`, otherwise the lower basis index within
//!   `EPS`) depends on that order.
//! * Phase 2 bars the artificial columns from entering, and once its
//!   cost row is formed nothing reads them, so its pivots skip them.
//! * The pivot-out step after phase 1 takes, in increasing order, the
//!   first column below the artificials whose entry exceeds `EPS`.
//! * Pricing applies the dense method's test (Dantzig's least reduced
//!   cost below `-COST_EPS`, the first of equals, or Bland's first such
//!   column) to the candidate columns in increasing order; every other
//!   column fails that test.  The switch to Bland's rule and both
//!   iteration limits are the dense method's.

use std::cell::RefCell;

/// Relational operator of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOp {
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `=`
    Eq,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LpOutcome {
    /// Optimal solution: values of the structural variables and objective.
    Optimal {
        /// Structural variable values.
        x: Vec<f64>,
        /// Objective value.
        objective: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// The work one solve did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LpStats {
    /// Pivots in phase 1 (the pivot-out step included) and in phase 2.
    pub pivots: [usize; 2],
    /// A phase stopped at `MAX_ITERS` and its basis was taken as optimal.
    pub iter_cap: bool,
}

const EPS: f64 = 1e-9;
const COST_EPS: f64 = 1e-7;
/// Iterations of Dantzig pricing before switching to Bland's rule.
const BLAND_AFTER: usize = 2_000;
/// Hard iteration limit per phase (the per-region LPs are tiny; hitting
/// this would indicate a bug rather than a hard instance).
const MAX_ITERS: usize = 50_000;
/// Bits per bitset word.
const WORD: usize = 64;

/// An LP in computational form, one sparse term list per row.
#[derive(Debug, Clone)]
pub(crate) struct Lp {
    /// Number of structural (original, already shifted ≥ 0) variables.
    pub n: usize,
    /// Objective coefficients, length `n`.
    pub cost: Vec<f64>,
    /// Row `r`'s terms are `terms[starts[r]..starts[r + 1]]`.
    pub starts: Vec<usize>,
    /// `(column, coefficient)` terms; a column repeated in one row adds up.
    pub terms: Vec<(usize, f64)>,
    /// Operators per row.
    pub ops: Vec<RowOp>,
    /// Right-hand sides per row.
    pub rhs: Vec<f64>,
}

thread_local! {
    static TABLEAU: RefCell<Tableau> = RefCell::new(Tableau::default());
}

impl Lp {
    /// Solves the LP, on this thread's tableau.
    ///
    /// # Panics
    ///
    /// Panics if a term's column is not below `n`.
    pub fn solve(&self) -> (LpOutcome, LpStats) {
        TABLEAU.with(|t| t.borrow_mut().solve(self))
    }
}

/// How a phase's iterations ended.
enum PhaseEnd {
    Optimal,
    Unbounded,
    IterCap,
}

/// The tableau and its nonzero pattern.  Columns are `[structural |
/// slack/surplus | artificial]`; the right-hand side is `rhs`.
#[derive(Debug, Default)]
struct Tableau {
    m: usize,
    width: usize,
    /// `m × width`, row-major.  Zero wherever `row_bits` has no mark, and
    /// all zero between solves.
    vals: Vec<f64>,
    rhs: Vec<f64>,
    /// Words per row bitset.
    rw: usize,
    /// Row `r`'s marked columns: `row_bits[r * rw..(r + 1) * rw]`.
    row_bits: Vec<u64>,
    /// Words per column bitset.
    cw: usize,
    /// Column `k`'s marked rows: `col_bits[k * cw..(k + 1) * cw]`.
    col_bits: Vec<u64>,
    basis: Vec<usize>,
    /// Reduced costs, length `width`.
    cost: Vec<f64>,
    /// The cost row's right-hand side: minus the objective.
    cost_rhs: f64,
    /// The columns below the live limit whose reduced cost is below
    /// `-COST_EPS`, as a row bitset: the only columns that may enter, so
    /// pricing scans these alone.
    neg: Vec<u64>,
    /// A solve is under way.  One that unwound leaves `vals` unswept, and
    /// the next solve zeroes it whole.
    dirty: bool,
    /// The pivot column's rows with `|a| > EPS` and their entries, in
    /// increasing row order.
    hits: Vec<(usize, f64)>,
    /// The scaled pivot row's marked columns below the live limit and
    /// their entries.
    prow: Vec<(usize, f64)>,
    /// The rows a pivot updated, as a column bitset.
    upd: Vec<u64>,
}

/// Indices of the set bits of `words`, in increasing order.
fn ones(words: &[u64]) -> Ones<'_> {
    Ones {
        words,
        base: 0,
        bits: 0,
    }
}

/// Iterator of [`ones`].
struct Ones<'a> {
    /// Words not yet loaded.
    words: &'a [u64],
    /// Index of the next word's bit 0.
    base: usize,
    /// The current word's bits not yet yielded.
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (&word, rest) = self.words.split_first()?;
            self.words = rest;
            self.bits = word;
            self.base += WORD;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base - WORD + b)
    }
}

impl Tableau {
    fn solve(&mut self, lp: &Lp) -> (LpOutcome, LpStats) {
        let art_start = self.load(lp);
        let out = self.run(lp, art_start);
        for r in 0..self.m {
            let row = &mut self.vals[r * self.width..(r + 1) * self.width];
            for k in ones(&self.row_bits[r * self.rw..(r + 1) * self.rw]) {
                row[k] = 0.0;
            }
        }
        self.dirty = false;
        out
    }

    /// Writes `lp` into the tableau with its slack, surplus and artificial
    /// columns and the starting basis; returns the first artificial column.
    fn load(&mut self, lp: &Lp) -> usize {
        let m = lp.ops.len();
        let n = lp.n;
        // Le rows with a negative rhs are flipped to Ge first, so count
        // after normalisation.  Ge and Eq rows need an artificial.
        let norm_op = |i: usize| match (lp.ops[i], lp.rhs[i] < 0.0) {
            (RowOp::Le, true) => RowOp::Ge,
            (RowOp::Ge, true) => RowOp::Le,
            (op, _) => op,
        };
        let (mut n_slack, mut n_art) = (0, 0);
        for i in 0..m {
            match norm_op(i) {
                RowOp::Le => n_slack += 1,
                RowOp::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                RowOp::Eq => n_art += 1,
            }
        }
        let width = n + n_slack + n_art;
        if self.dirty {
            self.vals.fill(0.0);
        }
        self.dirty = true;
        if self.vals.len() < m * width {
            self.vals.resize(m * width, 0.0);
        }
        self.m = m;
        self.width = width;
        self.rw = width.div_ceil(WORD);
        self.cw = m.div_ceil(WORD);
        self.row_bits.clear();
        self.row_bits.resize(m * self.rw, 0);
        self.col_bits.clear();
        self.col_bits.resize(width * self.cw, 0);
        self.rhs.clear();
        self.basis.clear();

        let mut slack_at = n;
        let mut art_at = n + n_slack;
        for i in 0..m {
            let base = i * width;
            for &(v, c) in &lp.terms[lp.starts[i]..lp.starts[i + 1]] {
                assert!(v < n, "term column out of range");
                self.vals[base + v] += c;
                self.mark(i, v);
            }
            let mut b = lp.rhs[i];
            if b < 0.0 {
                for k in ones(&self.row_bits[i * self.rw..(i + 1) * self.rw]) {
                    self.vals[base + k] = -self.vals[base + k];
                }
                b = -b;
            }
            self.rhs.push(b);
            let basic = match norm_op(i) {
                RowOp::Le => {
                    self.set(i, slack_at, 1.0);
                    slack_at += 1;
                    slack_at - 1
                }
                RowOp::Ge => {
                    self.set(i, slack_at, -1.0);
                    slack_at += 1;
                    self.set(i, art_at, 1.0);
                    art_at += 1;
                    art_at - 1
                }
                RowOp::Eq => {
                    self.set(i, art_at, 1.0);
                    art_at += 1;
                    art_at - 1
                }
            };
            self.basis.push(basic);
        }
        n + n_slack
    }

    fn run(&mut self, lp: &Lp, art_start: usize) -> (LpOutcome, LpStats) {
        let (m, n, width) = (self.m, lp.n, self.width);
        let mut stats = LpStats::default();

        // Phase 1: minimise the sum of artificials.
        if art_start < width {
            self.cost.clear();
            self.cost.resize(width, 0.0);
            self.cost[art_start..].fill(1.0);
            self.cost_rhs = 0.0;
            // Eliminate basic (artificial) columns from the cost row.
            for i in 0..m {
                if self.basis[i] >= art_start {
                    self.eliminate_cost(i);
                }
            }
            match self.run_simplex(width, &mut stats.pivots[0]) {
                PhaseEnd::Optimal => {}
                PhaseEnd::IterCap => stats.iter_cap = true,
                // The phase-1 objective is bounded below by 0.
                PhaseEnd::Unbounded => unreachable!("phase 1 cannot be unbounded"),
            }
            // -cost_rhs is the phase-1 objective value.
            if -self.cost_rhs > 1e-7 {
                return (LpOutcome::Infeasible, stats);
            }
            // Pivot out any artificial still in the basis (degenerate 0); a
            // redundant row leaves its artificial at value 0.
            for i in 0..m {
                if self.basis[i] >= art_start {
                    let row = &self.row_bits[i * self.rw..(i + 1) * self.rw];
                    let enter = ones(row)
                        .take_while(|&k| k < art_start)
                        .find(|&k| self.vals[i * width + k].abs() > EPS);
                    if let Some(j) = enter {
                        self.gather(j);
                        self.pivot(i, j, width);
                        stats.pivots[0] += 1;
                    }
                }
            }
        }

        // Phase 2: real objective (artificial columns barred).
        self.cost.clear();
        self.cost.resize(width, 0.0);
        self.cost[..n].copy_from_slice(&lp.cost);
        self.cost_rhs = 0.0;
        for i in 0..m {
            self.eliminate_cost(i);
        }
        match self.run_simplex(art_start, &mut stats.pivots[1]) {
            PhaseEnd::Optimal => {}
            PhaseEnd::IterCap => stats.iter_cap = true,
            PhaseEnd::Unbounded => return (LpOutcome::Unbounded, stats),
        }

        let mut x = vec![0.0f64; n];
        for i in 0..m {
            if self.basis[i] < n {
                x[self.basis[i]] = self.rhs[i];
            }
        }
        let objective = lp.cost.iter().zip(&x).map(|(c, v)| c * v).sum();
        (LpOutcome::Optimal { x, objective }, stats)
    }

    /// Marks entry `(r, k)` in both bitsets.
    fn mark(&mut self, r: usize, k: usize) {
        self.row_bits[r * self.rw + k / WORD] |= 1 << (k % WORD);
        self.col_bits[k * self.cw + r / WORD] |= 1 << (r % WORD);
    }

    fn set(&mut self, r: usize, k: usize, v: f64) {
        self.vals[r * self.width + k] = v;
        self.mark(r, k);
    }

    /// Subtracts row `i`, times the cost of its basic column, from the
    /// cost row.
    fn eliminate_cost(&mut self, i: usize) {
        let f = self.cost[self.basis[i]];
        if f != 0.0 {
            let row = &self.vals[i * self.width..(i + 1) * self.width];
            for k in ones(&self.row_bits[i * self.rw..(i + 1) * self.rw]) {
                self.cost[k] -= f * row[k];
            }
            self.cost_rhs -= f * self.rhs[i];
        }
    }

    /// Runs simplex iterations in place, counting pivots into `pivots`.
    /// Columns at or beyond `limit` may not enter and are not updated.
    fn run_simplex(&mut self, limit: usize, pivots: &mut usize) -> PhaseEnd {
        self.neg.clear();
        self.neg.resize(self.rw, 0);
        for (j, &c) in self.cost[..limit].iter().enumerate() {
            if c < -COST_EPS {
                self.neg[j / WORD] |= 1 << (j % WORD);
            }
        }
        for iter in 0..MAX_ITERS {
            let bland = iter >= BLAND_AFTER;
            // Entering column, among the candidates in increasing order.
            let mut enter: Option<usize> = None;
            let mut best = -COST_EPS;
            for j in ones(&self.neg) {
                let c = self.cost[j];
                if c < -COST_EPS {
                    if bland {
                        enter = Some(j);
                        break;
                    }
                    if c < best {
                        best = c;
                        enter = Some(j);
                    }
                }
            }
            let Some(j) = enter else {
                return PhaseEnd::Optimal;
            };
            // Ratio test.
            self.gather(j);
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for &(i, a) in &self.hits {
                if a > EPS {
                    let ratio = self.rhs[i] / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if leave.is_none() || better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(i) = leave else {
                return PhaseEnd::Unbounded;
            };
            self.pivot(i, j, limit);
            *pivots += 1;
        }
        // Iteration limit: treat as optimal-enough and let the caller
        // count it.  (Never observed in practice.)
        PhaseEnd::IterCap
    }

    /// Collects column `j`'s rows with `|a| > EPS` into `hits`.
    fn gather(&mut self, j: usize) {
        self.hits.clear();
        for r in ones(&self.col_bits[j * self.cw..(j + 1) * self.cw]) {
            let a = self.vals[r * self.width + j];
            if a.abs() > EPS {
                self.hits.push((r, a));
            }
        }
    }

    /// Pivots on `(i, j)`, updating the rows in `hits` (see [`Self::gather`])
    /// and the cost row at columns below `limit`, and makes `j` basic in
    /// row `i`.
    fn pivot(&mut self, i: usize, j: usize, limit: usize) {
        let (w, rw, cw) = (self.width, self.rw, self.cw);
        let p = self.vals[i * w + j];
        debug_assert!(p.abs() > EPS, "pivot on numerical zero");
        let inv = 1.0 / p;
        let prow = &mut self.vals[i * w..(i + 1) * w];
        self.prow.clear();
        for k in ones(&self.row_bits[i * rw..(i + 1) * rw]).take_while(|&k| k < limit) {
            prow[k] *= inv;
            // Clean tiny noise on the pivot row.
            if k == j {
                prow[k] = 1.0;
            }
            self.prow.push((k, prow[k]));
        }
        self.rhs[i] *= inv;
        let b = self.rhs[i];

        // The pivot row's marks below `limit`, word by word.
        let words = limit.div_ceil(WORD);
        let tail = match limit % WORD {
            0 => !0u64,
            bits => (1u64 << bits) - 1,
        };
        self.upd.clear();
        self.upd.resize(cw, 0);
        for &(r, f) in &self.hits {
            if r == i {
                continue;
            }
            let row = &mut self.vals[r * w..(r + 1) * w];
            for &(k, v) in &self.prow {
                row[k] -= f * v;
            }
            row[j] = 0.0;
            self.rhs[r] -= f * b;
            for word in 0..words {
                let bits = self.row_bits[i * rw + word];
                self.row_bits[r * rw + word] |= if word + 1 == words { bits & tail } else { bits };
            }
            self.row_bits[r * rw + j / WORD] &= !(1 << (j % WORD));
            self.upd[r / WORD] |= 1 << (r % WORD);
        }
        for &(k, _) in &self.prow {
            for word in 0..cw {
                self.col_bits[k * cw + word] |= self.upd[word];
            }
        }
        for word in 0..cw {
            self.col_bits[j * cw + word] &= !self.upd[word];
        }

        let f = self.cost[j];
        if f.abs() > EPS {
            for &(k, v) in &self.prow {
                self.cost[k] -= f * v;
                let bit = 1 << (k % WORD);
                if self.cost[k] < -COST_EPS {
                    self.neg[k / WORD] |= bit;
                } else {
                    self.neg[k / WORD] &= !bit;
                }
            }
            self.cost_rhs -= f * b;
            self.cost[j] = 0.0;
            self.neg[j / WORD] &= !(1 << (j % WORD));
        }
        self.basis[i] = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row as `(terms, operator, right-hand side)`.
    type Row<'a> = (&'a [(usize, f64)], RowOp, f64);

    fn lp(n: usize, cost: &[f64], rows: &[Row<'_>]) -> Lp {
        let mut starts = vec![0];
        let mut terms = Vec::new();
        for (r, _, _) in rows {
            terms.extend_from_slice(r);
            starts.push(terms.len());
        }
        Lp {
            n,
            cost: cost.to_vec(),
            starts,
            terms,
            ops: rows.iter().map(|(_, o, _)| *o).collect(),
            rhs: rows.iter().map(|(_, _, b)| *b).collect(),
        }
    }

    fn optimal((out, _): (LpOutcome, LpStats)) -> (Vec<f64>, f64) {
        match out {
            LpOutcome::Optimal { x, objective } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximisation() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), 36.
        let p = lp(
            2,
            &[-3.0, -5.0],
            &[
                (&[(0, 1.0)], RowOp::Le, 4.0),
                (&[(1, 2.0)], RowOp::Le, 12.0),
                (&[(0, 3.0), (1, 2.0)], RowOp::Le, 18.0),
            ],
        );
        let (x, obj) = optimal(p.solve());
        assert!((x[0] - 2.0).abs() < 1e-7);
        assert!((x[1] - 6.0).abs() < 1e-7);
        assert!((obj + 36.0).abs() < 1e-7);
    }

    #[test]
    fn ge_and_eq_rows() {
        // min x + y s.t. x + y >= 2, x - y = 0 → x = y = 1.
        let p = lp(
            2,
            &[1.0, 1.0],
            &[
                (&[(0, 1.0), (1, 1.0)], RowOp::Ge, 2.0),
                (&[(0, 1.0), (1, -1.0)], RowOp::Eq, 0.0),
            ],
        );
        let (x, obj) = optimal(p.solve());
        assert!((x[0] - 1.0).abs() < 1e-7);
        assert!((x[1] - 1.0).abs() < 1e-7);
        assert!((obj - 2.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        // x >= 3 and x <= 1.
        let p = lp(
            1,
            &[1.0],
            &[(&[(0, 1.0)], RowOp::Ge, 3.0), (&[(0, 1.0)], RowOp::Le, 1.0)],
        );
        assert_eq!(p.solve().0, LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x with only x >= 0 (implicit): unbounded.
        let p = lp(1, &[-1.0], &[(&[(0, 1.0)], RowOp::Ge, 0.0)]);
        assert_eq!(p.solve().0, LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let p = lp(1, &[1.0], &[(&[(0, -1.0)], RowOp::Le, -3.0)]);
        let (x, obj) = optimal(p.solve());
        assert!((x[0] - 3.0).abs() < 1e-7);
        assert!((obj - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let p = lp(
            2,
            &[-1.0, -1.0],
            &[
                (&[(0, 1.0)], RowOp::Le, 1.0),
                (&[(1, 1.0)], RowOp::Le, 1.0),
                (&[(0, 1.0), (1, 1.0)], RowOp::Le, 2.0),
                (&[(0, 2.0), (1, 2.0)], RowOp::Le, 4.0),
            ],
        );
        let (_, obj) = optimal(p.solve());
        assert!((obj + 2.0).abs() < 1e-7);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice; min x → x=0, y=2.
        let p = lp(
            2,
            &[1.0, 0.0],
            &[
                (&[(0, 1.0), (1, 1.0)], RowOp::Eq, 2.0),
                (&[(0, 1.0), (1, 1.0)], RowOp::Eq, 2.0),
            ],
        );
        let (x, _) = optimal(p.solve());
        assert!(x[0].abs() < 1e-7);
        assert!((x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn zero_rows_and_columns() {
        let p = lp(2, &[0.0, 1.0], &[(&[(1, 1.0)], RowOp::Ge, 1.0)]);
        let (x, obj) = optimal(p.solve());
        assert!((x[1] - 1.0).abs() < 1e-7);
        assert!((obj - 1.0).abs() < 1e-7);
    }

    /// The dense tableau method the sparse engine replaced, kept as the
    /// oracle of the differential test: every pivot sweeps every entry of
    /// an `m × (width + 1)` tableau.  Only the pivot counts are new.
    mod dense {
        use super::super::{Lp, LpOutcome, LpStats, RowOp, BLAND_AFTER, COST_EPS, EPS, MAX_ITERS};

        pub fn solve(lp: &Lp) -> (LpOutcome, LpStats) {
            let m = lp.ops.len();
            let n = lp.n;
            let mut stats = LpStats::default();
            // The rows as the model layer once handed them over: one
            // `n`-wide row per constraint, repeated columns added up.
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|r| {
                    let mut row = vec![0.0; n];
                    for &(v, c) in &lp.terms[lp.starts[r]..lp.starts[r + 1]] {
                        row[v] += c;
                    }
                    row
                })
                .collect();

            let mut norm_rows: Vec<Vec<f64>> = Vec::with_capacity(m);
            let mut norm_ops: Vec<RowOp> = Vec::with_capacity(m);
            let mut norm_rhs: Vec<f64> = Vec::with_capacity(m);
            for (i, mut row) in rows.into_iter().enumerate() {
                let mut op = lp.ops[i];
                let mut b = lp.rhs[i];
                if b < 0.0 {
                    for v in &mut row {
                        *v = -*v;
                    }
                    b = -b;
                    op = match op {
                        RowOp::Le => RowOp::Ge,
                        RowOp::Ge => RowOp::Le,
                        RowOp::Eq => RowOp::Eq,
                    };
                }
                norm_rows.push(row);
                norm_ops.push(op);
                norm_rhs.push(b);
            }
            let mut n_slack = 0usize;
            let mut n_art = 0usize;
            for op in &norm_ops {
                match op {
                    RowOp::Le => n_slack += 1,
                    RowOp::Ge => {
                        n_slack += 1;
                        n_art += 1;
                    }
                    RowOp::Eq => n_art += 1,
                }
            }

            let total = n + n_slack + n_art;
            let width = total + 1; // + rhs column
            let mut t = vec![vec![0.0f64; width]; m];
            let mut basis = vec![0usize; m];
            let mut slack_at = n;
            let mut art_at = n + n_slack;
            let art_start = n + n_slack;

            for i in 0..m {
                t[i][..n].copy_from_slice(&norm_rows[i]);
                t[i][total] = norm_rhs[i];
                match norm_ops[i] {
                    RowOp::Le => {
                        t[i][slack_at] = 1.0;
                        basis[i] = slack_at;
                        slack_at += 1;
                    }
                    RowOp::Ge => {
                        t[i][slack_at] = -1.0;
                        slack_at += 1;
                        t[i][art_at] = 1.0;
                        basis[i] = art_at;
                        art_at += 1;
                    }
                    RowOp::Eq => {
                        t[i][art_at] = 1.0;
                        basis[i] = art_at;
                        art_at += 1;
                    }
                }
            }

            // Phase 1: minimise the sum of artificials.
            if n_art > 0 {
                let mut cost1 = vec![0.0f64; width];
                for c in cost1.iter_mut().take(total).skip(art_start) {
                    *c = 1.0;
                }
                for i in 0..m {
                    if basis[i] >= art_start {
                        let f = cost1[basis[i]];
                        if f != 0.0 {
                            for j in 0..width {
                                cost1[j] -= f * t[i][j];
                            }
                        }
                    }
                }
                let (bounded, capped) = run_simplex(
                    &mut t,
                    &mut cost1,
                    &mut basis,
                    total,
                    None,
                    &mut stats.pivots[0],
                );
                assert!(bounded, "phase 1 cannot be unbounded");
                stats.iter_cap |= capped;
                if -cost1[total] > 1e-7 {
                    return (LpOutcome::Infeasible, stats);
                }
                for i in 0..m {
                    if basis[i] >= art_start {
                        for j in 0..art_start {
                            if t[i][j].abs() > EPS {
                                pivot_rows(&mut t, &mut cost1, i, j);
                                basis[i] = j;
                                stats.pivots[0] += 1;
                                break;
                            }
                        }
                    }
                }
            }

            // Phase 2: real objective (artificial columns barred).
            let mut cost2 = vec![0.0f64; width];
            cost2[..n].copy_from_slice(&lp.cost);
            for i in 0..m {
                let f = cost2[basis[i]];
                if f != 0.0 {
                    for j in 0..width {
                        cost2[j] -= f * t[i][j];
                    }
                }
            }
            let (bounded, capped) = run_simplex(
                &mut t,
                &mut cost2,
                &mut basis,
                total,
                Some(art_start),
                &mut stats.pivots[1],
            );
            stats.iter_cap |= capped;
            if !bounded {
                return (LpOutcome::Unbounded, stats);
            }

            let mut x = vec![0.0f64; n];
            for i in 0..m {
                if basis[i] < n {
                    x[basis[i]] = t[i][total];
                }
            }
            let objective = lp.cost.iter().zip(&x).map(|(c, v)| c * v).sum();
            (LpOutcome::Optimal { x, objective }, stats)
        }

        /// Returns (bounded, stopped at the iteration limit).
        fn run_simplex(
            t: &mut [Vec<f64>],
            cost: &mut [f64],
            basis: &mut [usize],
            total: usize,
            bar_from: Option<usize>,
            pivots: &mut usize,
        ) -> (bool, bool) {
            let m = t.len();
            let bar = bar_from.unwrap_or(total);
            for iter in 0..MAX_ITERS {
                let bland = iter >= BLAND_AFTER;
                let mut enter: Option<usize> = None;
                let mut best = -COST_EPS;
                for (j, &c) in cost.iter().enumerate().take(total.min(bar)) {
                    if c < -COST_EPS {
                        if bland {
                            enter = Some(j);
                            break;
                        }
                        if c < best {
                            best = c;
                            enter = Some(j);
                        }
                    }
                }
                let Some(j) = enter else {
                    return (true, false);
                };
                let mut leave: Option<usize> = None;
                let mut best_ratio = f64::INFINITY;
                for i in 0..m {
                    let a = t[i][j];
                    if a > EPS {
                        let ratio = t[i][total] / a;
                        let better = ratio < best_ratio - EPS
                            || (ratio < best_ratio + EPS
                                && leave.is_some_and(|l| basis[i] < basis[l]));
                        if leave.is_none() || better {
                            best_ratio = ratio;
                            leave = Some(i);
                        }
                    }
                }
                let Some(i) = leave else {
                    return (false, false);
                };
                pivot_rows(t, cost, i, j);
                basis[i] = j;
                *pivots += 1;
            }
            (true, true)
        }

        fn pivot_rows(t: &mut [Vec<f64>], cost: &mut [f64], i: usize, j: usize) {
            let width = t[i].len();
            let inv = 1.0 / t[i][j];
            for v in t[i].iter_mut() {
                *v *= inv;
            }
            t[i][j] = 1.0;
            let pivot_row = t[i].clone();
            for (r, row) in t.iter_mut().enumerate() {
                if r != i {
                    let f = row[j];
                    if f.abs() > EPS {
                        for k in 0..width {
                            row[k] -= f * pivot_row[k];
                        }
                        row[j] = 0.0;
                    }
                }
            }
            let f = cost[j];
            if f.abs() > EPS {
                for k in 0..width {
                    cost[k] -= f * pivot_row[k];
                }
                cost[j] = 0.0;
            }
        }
    }

    mod prop {
        use super::super::{Lp, LpOutcome, RowOp};
        use super::dense;
        use crate::model::{Model, Op};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Coefficients with exact and inexact binary forms, so pivots
        /// produce both exact cancellation and rounding noise.
        fn coef(rng: &mut StdRng) -> f64 {
            let c = match rng.gen_range(0..8) {
                0 | 1 => 1.0,
                2 => 2.0,
                3 => 0.5,
                4 => 3.0,
                5 => 0.1,
                6 => 1.0 / 3.0,
                _ => rng.gen_range(0.05..5.0),
            };
            if rng.gen_bool(0.4) {
                -c
            } else {
                c
            }
        }

        /// Slack between a row and the point the generic LPs are built
        /// around: zero (degenerate), a few `EPS` (near-degenerate ratios,
        /// which make the ratio test's tie rule depend on visit order), or
        /// generic.
        fn slack(rng: &mut StdRng) -> f64 {
            match rng.gen_range(0..5) {
                0 => 0.0,
                1 | 2 => rng.gen_range(0..6) as f64 * 0.6e-9,
                3 => rng.gen_range(0..4) as f64,
                _ => rng.gen_range(0.0..3.0),
            }
        }

        /// A generic LP: sparse rows with duplicate terms (exactly
        /// cancelling ones too), redundant copies of earlier rows, every
        /// operator, right-hand sides of either sign, and optional bound
        /// rows.  Most rows hold at a point `x0` with many zeros; the rest
        /// have a random right-hand side, so some LPs are infeasible.
        fn generic(rng: &mut StdRng) -> Lp {
            let n = rng.gen_range(1..9);
            let m = rng.gen_range(1..11);
            // In a ladder LP, column 0 enters first and meets every row's
            // `≤` at right-hand sides that fall by less than `EPS` per row:
            // a chain of near ties whose winner depends on visit order.
            let ladder = rng.gen_bool(0.25);
            let x0: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        0.0
                    } else {
                        rng.gen_range(0..4) as f64
                    }
                })
                .collect();
            let mut lp = Lp {
                n,
                cost: (0..n)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => 0.0,
                        1 => rng.gen_range(-3..4) as f64,
                        _ => coef(rng),
                    })
                    .collect(),
                starts: vec![0],
                terms: Vec::new(),
                ops: Vec::new(),
                rhs: Vec::new(),
            };
            if ladder {
                lp.cost[0] = -5.0;
            }
            for r in 0..m {
                if r > 0 && rng.gen_bool(0.15) {
                    // A redundant row: an earlier row, maybe doubled.
                    let src = rng.gen_range(0..r);
                    let scale = if rng.gen_bool(0.5) { 1.0 } else { 2.0 };
                    for t in lp.starts[src]..lp.starts[src + 1] {
                        let (v, c) = lp.terms[t];
                        lp.terms.push((v, c * scale));
                    }
                    lp.ops.push(lp.ops[src]);
                    lp.rhs.push(lp.rhs[src] * scale);
                } else {
                    let first = lp.terms.len();
                    if ladder {
                        lp.terms.push((0, 1.0));
                    }
                    for v in 0..n {
                        if rng.gen_bool(0.35) {
                            lp.terms.push((v, coef(rng)));
                        }
                    }
                    if lp.terms.len() == first {
                        lp.terms.push((rng.gen_range(0..n), coef(rng)));
                    }
                    if rng.gen_bool(0.2) {
                        let (v, c) = lp.terms[rng.gen_range(first..lp.terms.len())];
                        let dup = if rng.gen_bool(0.5) { -c } else { coef(rng) };
                        lp.terms.push((v, dup));
                    }
                    let at_x0: f64 = lp.terms[first..].iter().map(|&(v, c)| c * x0[v]).sum();
                    let (op, b) = match rng.gen_range(0..6) {
                        _ if ladder => (RowOp::Le, (m - r) as f64 * 0.6e-9),
                        0 | 1 => (RowOp::Le, at_x0 + slack(rng)),
                        2 | 3 => (RowOp::Ge, at_x0 - slack(rng)),
                        4 => (RowOp::Eq, at_x0),
                        _ => (RowOp::Le, rng.gen_range(-4.0..4.0)),
                    };
                    lp.ops.push(op);
                    lp.rhs.push(b);
                }
                lp.starts.push(lp.terms.len());
            }
            if rng.gen_bool(0.7) {
                for (v, &x) in x0.iter().enumerate() {
                    lp.terms.push((v, 1.0));
                    lp.starts.push(lp.terms.len());
                    lp.ops.push(RowOp::Le);
                    lp.rhs.push(x + slack(rng));
                }
            }
            lp
        }

        /// A concentration LP as the branch and bound hands it over: integer
        /// tunings in windows around 0, difference rows `k_a − k_b ≤ w`, a
        /// deviation row pair per tuning, optional big-M indicators with a
        /// budget row, bound rows over a node's tightened bounds, and
        /// sometimes the hull bound's chord cuts.
        fn concentration(rng: &mut StdRng) -> Lp {
            let k = rng.gen_range(1..7);
            let mut m = Model::new();
            let ks: Vec<_> = (0..k)
                .map(|_| {
                    let (lo, hi) = (rng.gen_range(-4..=0), rng.gen_range(0..=4));
                    m.add_var(lo as f64, hi as f64, 0.0, true)
                })
                .collect();
            if rng.gen_bool(0.4) {
                let mut cterms = Vec::new();
                for &kv in &ks {
                    let c = m.add_binary(0.0);
                    m.add_indicator(kv, c, 4.0);
                    cterms.push((c, 1.0));
                }
                m.add_cons(cterms, Op::Le, rng.gen_range(0..=k) as f64);
            }
            for _ in 0..rng.gen_range(0..2 * k + 2) {
                let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
                let w = rng.gen_range(-2..=3) as f64;
                let terms = if a == b {
                    vec![(ks[a], 1.0)]
                } else {
                    vec![(ks[a], 1.0), (ks[b], -1.0)]
                };
                m.add_cons(terms, Op::Le, w);
            }
            for &kv in &ks {
                let target = rng.gen_range(-3..=3) as f64
                    + match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => 0.5,
                        2 => 0.4998,
                        _ => rng.gen_range(0.05..0.95),
                    };
                m.add_abs_deviation(kv, target, 1.0);
            }
            // A node's bounds: some integer bounds tightened by branching.
            let mut lo: Vec<f64> = m.vars.iter().map(|v| v.lo).collect();
            let mut hi: Vec<f64> = m.vars.iter().map(|v| v.hi).collect();
            for (i, v) in m.vars.iter().enumerate() {
                if v.integer && rng.gen_bool(0.2) {
                    let cut = rng.gen_range(lo[i] as i64..=hi[i] as i64) as f64;
                    if rng.gen_bool(0.5) {
                        lo[i] = cut;
                    } else {
                        hi[i] = cut;
                    }
                }
            }
            let cuts = if rng.gen_bool(0.3) {
                m.chord_cuts().unwrap_or_default()
            } else {
                Vec::new()
            };
            m.to_lp(&lo, &hi, &cuts).0
        }

        /// Bitwise equal, except that a zero may differ in sign.
        fn same(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]
            #[test]
            fn sparse_engine_pivots_like_the_dense_oracle(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let shaped = rng.gen_bool(0.5);
                let lp = if shaped { concentration(&mut rng) } else { generic(&mut rng) };
                let (got, got_stats) = lp.solve();
                let (want, want_stats) = dense::solve(&lp);
                let case = format!("seed {seed} ({})", if shaped { "concentration" } else { "generic" });
                prop_assert_eq!(got_stats, want_stats, "pivots differ, {}", case);
                match (&got, &want) {
                    (
                        LpOutcome::Optimal { x, objective },
                        LpOutcome::Optimal { x: want_x, objective: want_obj },
                    ) => {
                        prop_assert!(same(*objective, *want_obj),
                            "objective {objective:e} vs {want_obj:e}, {case}");
                        prop_assert!(x.len() == want_x.len()
                            && x.iter().zip(want_x).all(|(a, b)| same(*a, *b)),
                            "x {x:?} vs {want_x:?}, {case}");
                    }
                    _ => prop_assert_eq!(&got, &want, "outcome differs, {}", case),
                }
            }
        }
    }
}
