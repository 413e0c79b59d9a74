//! Masked attention over a compact per-row index of allowed columns.
//!
//! The DAG Transformer's DAGRA mask (eqn. 1) lets node `u` attend to
//! node `v` only along a directed path; at `k = ∞` about half of each
//! row is masked, in short runs. [`AllowedColumns`] stores each row's
//! allowed columns once, as one flat ascending list of column indices,
//! and the forward of [`crate::Tape::masked_attention`] computes
//! `softmax(scale · Q·Kᵀ + mask) · V` over such an index without ever
//! holding an `n × m` buffer:
//!
//! 1. the logits of a block of [`BLOCK_ROWS`] rows come from the packed
//!    `matmul_nt` kernel;
//! 2. each row's allowed logits are gathered, scaled, into that row's
//!    slot of a compact probability buffer (one float per allowed
//!    entry);
//! 3. the max, the exponentials, their ascending sum, the division and
//!    `attn · V` run over that compact row.
//!
//! Only the compact probabilities stay on the tape. The backward
//! scatters them into a pooled dense `n × m` buffer (`scatter`) and
//! runs the packed-GEMM rules of the four-op chain unchanged: an
//! all-compact backward would be bit-identical too, but slower than
//! the packed kernels it would replace.
//!
//! # Why skipping masked entries changes no bit
//!
//! The reference chain (`matmul_nt → scale → masked_softmax_rows →
//! matmul`) adds a `−inf` mask to every masked logit. Each logit here is
//! the same ascending dot product (the row-block kernel runs the same
//! reduction as the full one). For a row whose logits are all finite, a
//! masked entry then
//!
//! * never wins the running max (`−inf > mx` is false),
//! * contributes `exp(−inf) = +0` to the denominator, and adding `+0`
//!   to a non-negative sum leaves it unchanged,
//! * gets probability `+0 / denom = +0`, which a zero-filled output
//!   already holds, and
//! * is skipped by the matmul's skip-zero branch.
//!
//! Allowed entries see `x + 0.0` exactly as before, in the same
//! ascending column order, so the max, every exponential, the
//! denominator, every probability and every `attn · V` sum are the same
//! floats.
//!
//! A masked `+inf` or NaN logit instead turns the reference row into NaN
//! (`+inf − inf`), so a row may take the compact arithmetic only when
//! every one of its logits, masked ones included, is finite. Rather than
//! scan the logits, the forward bounds them: with `Q` row `i` and all of
//! `K` finite, `|logit| ≤ Σₚ|q_ip| · maxⱼₚ|k_jp|`, and a row whose bound
//! (times `max(|scale|, 1)`) stays below a quarter of `f32::MAX` can
//! neither overflow in the dot product nor in the scaling. Rows the
//! bound cannot clear run the reference arithmetic over every column.
//! Such a row's probabilities are either finite with `+0` at every
//! masked column, or NaN in every column (a NaN denominator); the
//! compact buffer keeps the allowed ones, and `scatter` restores the
//! NaN at the masked columns of a NaN row.

use std::sync::Arc;

use crate::matrix::Matrix;
use crate::pool::BufferPool;

/// Rows of logits the forward holds at once (`BLOCK_ROWS × m` floats).
pub const BLOCK_ROWS: usize = 32;

/// The largest logit bound the compact arithmetic accepts: a quarter of
/// `f32::MAX` leaves room for the rounding of any dot product, the
/// scaling and the max subtraction.
const LOGIT_LIMIT: f64 = f32::MAX as f64 / 4.0;

/// Per-row lists of the columns an attention row may read: one flat,
/// row-major list of ascending column indices. Cloning shares the
/// index (it is built once per graph sample and read by every head).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedColumns(Arc<Index>);

#[derive(Debug, PartialEq, Eq)]
struct Index {
    cols: usize,
    /// Row `i`'s columns are `col[row_start[i]..row_start[i + 1]]`;
    /// the same range is row `i`'s slot of a compact buffer.
    row_start: Vec<usize>,
    col: Vec<u32>,
}

impl AllowedColumns {
    /// Build a `rows × cols` pattern from an `allowed(i, j)` predicate.
    ///
    /// # Panics
    /// Panics if `cols` does not fit in a `u32`.
    pub fn from_fn(rows: usize, cols: usize, allowed: impl Fn(usize, usize) -> bool) -> Self {
        assert!(u32::try_from(cols).is_ok(), "{cols} columns overflow u32");
        let mut row_start = Vec::with_capacity(rows + 1);
        let mut col = Vec::new();
        row_start.push(0);
        for i in 0..rows {
            col.extend((0..cols).filter(|&j| allowed(i, j)).map(|j| j as u32));
            row_start.push(col.len());
        }
        AllowedColumns(Arc::new(Index {
            cols,
            row_start,
            col,
        }))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.0.row_start.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.0.cols
    }

    /// Row `i`'s allowed columns, ascending.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.0.col[self.slot(i)]
    }

    /// Row `i`'s range in a compact buffer.
    fn slot(&self, i: usize) -> std::ops::Range<usize> {
        self.0.row_start[i]..self.0.row_start[i + 1]
    }

    /// Whether row `i` may read column `j`.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        u32::try_from(j).is_ok_and(|j| self.row(i).binary_search(&j).is_ok())
    }

    /// Allowed entries over all rows.
    pub fn count(&self) -> usize {
        self.0.col.len()
    }

    /// The dense `rows × cols` mask the reference chain adds to the
    /// logits: `0.0` where a row may read, `−inf` elsewhere.
    pub fn mask(&self) -> Matrix {
        let mut mask = Matrix::full(self.rows(), self.cols(), f32::NEG_INFINITY);
        for i in 0..self.rows() {
            let row = mask.row_mut(i);
            for &j in self.row(i) {
                row[j as usize] = 0.0;
            }
        }
        mask
    }
}

/// One row of the reference `softmax(x + m)`: max over `x + m`, then
/// `exp(x + m − max)`, their ascending sum, and the division. A row
/// whose max is `−inf` stays zero. `out` must be zero-filled.
pub(crate) fn masked_softmax_row(x: &[f32], m: &[f32], out: &mut [f32]) {
    let mut mx = f32::NEG_INFINITY;
    for (x, m) in x.iter().zip(m) {
        let s = x + m;
        if s > mx {
            mx = s;
        }
    }
    if mx == f32::NEG_INFINITY {
        return; // fully masked row stays zero
    }
    let mut denom = 0.0f32;
    for ((o, x), m) in out.iter_mut().zip(x).zip(m) {
        let e = (x + m - mx).exp();
        *o = e;
        denom += e;
    }
    for o in out.iter_mut() {
        *o /= denom;
    }
}

/// The reference softmax of a row of allowed logits `s` (each already
/// `x + 0.0`) in place. `s` must be finite.
///
/// The max runs in [`LANES`] independent lanes: over finite values
/// holding no `−0.0` (`x + 0.0` never is), the largest value is one
/// float whatever the order of the comparisons. The exponentials and
/// their sum keep the reference's ascending order.
fn softmax_in_place(s: &mut [f32]) {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = s.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (l, &e) in lanes.iter_mut().zip(chunk) {
            if e > *l {
                *l = e;
            }
        }
    }
    for &e in chunks.remainder() {
        if e > lanes[0] {
            lanes[0] = e;
        }
    }
    let mx = lanes
        .into_iter()
        .fold(f32::NEG_INFINITY, |mx, e| if e > mx { e } else { mx });
    let mut denom = 0.0f32;
    for e in s.iter_mut() {
        let x = (*e - mx).exp();
        *e = x;
        denom += x;
    }
    for e in s.iter_mut() {
        *e /= denom;
    }
}

/// Lanes of the register blocks in [`softmax_in_place`] and
/// [`weighted_rows`].
const LANES: usize = 8;

/// `out += p[t] · v[cols[t]]` in order, skipping zero weights — the
/// reference matmul's arithmetic for one output row. The output is
/// swept in register blocks of [`LANES`] columns, one pass over `p` per
/// block; every output element still sums its terms in `t` order.
fn weighted_rows(
    p: &[f32],
    cols: impl Iterator<Item = usize> + Clone,
    v: &Matrix,
    out: &mut [f32],
) {
    let dv = v.cols();
    let mut blocks = out.chunks_exact_mut(LANES);
    for (b, acc_out) in (&mut blocks).enumerate() {
        let mut acc = [0.0f32; LANES];
        acc.copy_from_slice(acc_out);
        let c0 = b * LANES;
        for (&a, j) in p.iter().zip(cols.clone()) {
            if a == 0.0 {
                continue;
            }
            let row = &v.data()[j * dv + c0..j * dv + c0 + LANES];
            for (o, &x) in acc.iter_mut().zip(row) {
                *o += a * x;
            }
        }
        acc_out.copy_from_slice(&acc);
    }
    let rest = blocks.into_remainder();
    if rest.is_empty() {
        return;
    }
    let c0 = dv - rest.len();
    for (&a, j) in p.iter().zip(cols) {
        if a == 0.0 {
            continue;
        }
        for (o, &x) in rest.iter_mut().zip(&v.row(j)[c0..]) {
            *o += a * x;
        }
    }
}

/// One row of the forward: `x` holds the row's raw logits, `p` receives
/// its compact probabilities (one per column `cols` yields) and `ctx`
/// its context. With `reference` (a mask row and a probability row of
/// `m` floats each) the row runs the reference arithmetic over every
/// column.
fn attend_row(
    x: &mut [f32],
    p: &mut [f32],
    cols: impl Iterator<Item = usize> + Clone,
    scale: f32,
    v: &Matrix,
    ctx: &mut [f32],
    reference: Option<(&mut [f32], &mut [f32])>,
) {
    let Some((mask, dense)) = reference else {
        for (o, j) in p.iter_mut().zip(cols.clone()) {
            *o = x[j] * scale + 0.0;
        }
        softmax_in_place(p);
        weighted_rows(p, cols, v, ctx);
        return;
    };
    mask.fill(f32::NEG_INFINITY);
    for j in cols.clone() {
        mask[j] = 0.0;
    }
    dense.fill(0.0);
    for e in x.iter_mut() {
        *e *= scale;
    }
    masked_softmax_row(x, mask, dense);
    weighted_rows(dense, 0..dense.len(), v, ctx);
    for (o, j) in p.iter_mut().zip(cols) {
        *o = dense[j];
    }
}

/// The attention forward: the compact probabilities (`1 × count`, or
/// the dense `n × m` when `allowed` is `None`, meaning every column) and
/// the context `probs · v` (`n × dv`). Every buffer comes from `pool`.
/// Bit-identical to the reference chain (see the module docs).
pub(crate) fn forward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    allowed: Option<&AllowedColumns>,
    scale: f32,
    pool: &mut BufferPool,
) -> (Matrix, Matrix) {
    let (n, m) = (q.rows(), k.rows());
    let mut probs = match allowed {
        Some(a) => pool.alloc(1, a.count()),
        None => pool.alloc(n, m),
    };
    let mut ctx = pool.alloc(n, v.cols());
    // maxⱼₚ|k_jp|, infinite when K holds a non-finite entry
    let kmax = k.data().iter().fold(0.0f64, |mx, &x| {
        mx.max(if x.is_finite() {
            f64::from(x.abs())
        } else {
            f64::INFINITY
        })
    });
    let scale_bound = if scale.is_finite() {
        f64::from(scale.abs()).max(1.0)
    } else {
        f64::INFINITY
    };
    let mut block = pool.scratch(BLOCK_ROWS.min(n) * m);
    // the reference path's dense mask and probability rows, taken on
    // the first row the bound cannot clear
    let mut dense_rows: Option<(Matrix, Matrix)> = None;
    for r0 in (0..n).step_by(BLOCK_ROWS) {
        let r1 = (r0 + BLOCK_ROWS).min(n);
        q.matmul_nt_rows_into(r0..r1, k, &mut block);
        for i in r0..r1 {
            let x = block.row_mut(i - r0);
            let qsum: f64 = q.row(i).iter().map(|&e| f64::from(e.abs())).sum();
            // a NaN bound (a non-finite input) fails the comparison too
            let clears = qsum * kmax * scale_bound <= LOGIT_LIMIT;
            let reference = (!clears).then(|| {
                let (mask, dense) =
                    dense_rows.get_or_insert_with(|| (pool.alloc(1, m), pool.alloc(1, m)));
                (mask.data_mut(), dense.data_mut())
            });
            let c = ctx.row_mut(i);
            match allowed {
                Some(a) => {
                    let cols = a.row(i).iter().map(|&j| j as usize);
                    let p = &mut probs.data_mut()[a.slot(i)];
                    attend_row(x, p, cols, scale, v, c, reference);
                }
                None => attend_row(x, probs.row_mut(i), 0..m, scale, v, c, reference),
            }
        }
    }
    pool.recycle(block);
    if let Some((mask, dense)) = dense_rows {
        pool.recycle(mask);
        pool.recycle(dense);
    }
    (probs, ctx)
}

/// The dense `n × m` probabilities of compact ones, in a pooled buffer:
/// zero at masked columns, except in a NaN row, which the reference
/// arithmetic leaves NaN in every column. (A row holds a NaN only when
/// its denominator is NaN, so its first entry tells.)
pub(crate) fn scatter(probs: &Matrix, allowed: &AllowedColumns, pool: &mut BufferPool) -> Matrix {
    let mut dense = pool.alloc(allowed.rows(), allowed.cols());
    for i in 0..allowed.rows() {
        let p = &probs.data()[allowed.slot(i)];
        let row = dense.row_mut(i);
        if p.first().is_some_and(|x| x.is_nan()) {
            row.fill(f32::NAN);
            continue;
        }
        for (&x, &j) in p.iter().zip(allowed.row(i)) {
            row[j as usize] = x;
        }
    }
    dense
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_covers_exactly_the_allowed_entries() {
        let pattern = |i: usize, j: usize| !(i + j).is_multiple_of(3) || j == 7;
        let a = AllowedColumns::from_fn(5, 9, pattern);
        assert_eq!((a.rows(), a.cols()), (5, 9));
        let mut count = 0;
        for i in 0..5 {
            assert!(a.row(i).windows(2).all(|w| w[0] < w[1]), "row {i} ascends");
            for j in 0..9 {
                assert_eq!(a.contains(i, j), pattern(i, j), "({i}, {j})");
                count += pattern(i, j) as usize;
            }
            assert_eq!(a.slot(i).len(), a.row(i).len());
        }
        assert_eq!(a.count(), count);
        assert_eq!(a.slot(4).end, count, "slots tile the compact buffer");
    }

    #[test]
    fn empty_and_full_rows() {
        let a = AllowedColumns::from_fn(3, 4, |i, _| i == 1);
        assert!(a.row(0).is_empty());
        assert_eq!(a.row(1), &[0, 1, 2, 3]);
        assert_eq!(a.count(), 4);
        let mask = a.mask();
        assert_eq!(mask.row(1), &[0.0; 4]);
        assert_eq!(mask.row(2), &[f32::NEG_INFINITY; 4]);
        let none = AllowedColumns::from_fn(2, 0, |_, _| true);
        assert_eq!(none.count(), 0);
    }

    #[test]
    fn clones_share_one_index() {
        let a = AllowedColumns::from_fn(4, 4, |i, j| i >= j);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn scatter_restores_zeros_and_nan_rows() {
        let a = AllowedColumns::from_fn(3, 3, |i, j| i != j);
        let compact = Matrix::from_vec(1, 6, vec![0.25, 0.75, f32::NAN, f32::NAN, 0.5, 0.5]);
        let dense = scatter(&compact, &a, &mut BufferPool::new());
        assert_eq!(dense.row(0), &[0.0, 0.25, 0.75]);
        assert!(
            dense.row(1).iter().all(|x| x.is_nan()),
            "a NaN row is NaN throughout"
        );
        assert_eq!(dense.row(2), &[0.5, 0.5, 0.0]);
    }
}
