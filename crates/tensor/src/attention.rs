//! Masked attention over a compact per-row index of allowed columns.
//!
//! The DAG Transformer's DAGRA mask (eqn. 1) lets node `u` attend to
//! node `v` only along a directed path; at `k = ∞` about half of each
//! row is masked, in short runs. [`AllowedColumns`] stores each row's
//! allowed columns once, as one flat ascending list of column indices,
//! and [`crate::Tape::masked_attention`] computes
//! `softmax(scale · Q·Kᵀ + mask) · V` and its gradients over such an
//! index without ever holding an `n × m` buffer. For each block of
//! [`BLOCK_ROWS`] rows the forward
//!
//! 1. takes the block's logits from the packed `matmul_nt` kernel;
//! 2. gathers each row's allowed logits, scaled, into that row's slot
//!    of a compact probability buffer (one float per allowed entry),
//!    takes their max in lanes, subtracts it and runs the vector
//!    [`exp`] over the slot in place;
//! 3. sums the numerators of four rows at a time as four independent
//!    ascending chains and divides each row by its sum;
//! 4. forms `attn · V` four rows at a time, each row's accumulators in
//!    registers with lanes across output columns.
//!
//! Only the compact probabilities stay on the tape. The backward takes
//! `dprobs = G · Vᵀ` a row block at a time from the same packed kernel,
//! gathers it at the allowed entries, forms each row's dot product
//! `Σ p · dprobs` (four rows as four chains) and the logit adjoints
//! `p · (dprobs − dot) · scale`, accumulates `dq` over ascending columns
//! as the forward's `attn · V` does, and scatter-adds `dk` and `dv`
//! visiting rows in ascending order, so that every output element sums
//! its terms in the order the chain's `matmul_tn` does.
//!
//! Every kernel here is compiled for the active kernel tier
//! ([`crate::kernel::active_isa`]); the tier moves no bit, since each
//! lane runs the scalar IEEE operations in the scalar order.
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
//! masked column, or NaN in every column (a NaN denominator).
//!
//! # Why the compact backward changes no bit
//!
//! At a masked entry the reference has `p = +0`. When every `dprobs`
//! entry of the row is finite, its term of the dot product is `±0`,
//! which leaves a non-zero running sum unchanged (and can only flip the
//! sign of a zero one, which reaches no kept adjoint: `dprobs − dot` is
//! `dprobs` itself when `dprobs ≠ 0`, and a zero adjoint is skipped);
//! its logit adjoint `+0 · (dprobs − dot) · scale` is `±0`, which both
//! matmuls skip; and its `dv` term is skipped by the zero `p`. A row
//! bound guarantees the finiteness: with `G` row `i` and all of `V`
//! finite, `|dprobs| ≤ Σₚ|g_ip| · maxⱼₚ|v_jp| ≤ f32::MAX / 4`. A row
//! that fails it (or holds NaN probabilities, or gets a non-finite dot
//! product, or meets a non-finite scale) runs the reference rules over
//! every column: its dense probabilities (NaN throughout for a NaN
//! row), all of `dprobs`, the dense dot product, adjoints, `dq` row and
//! `dk`/`dv` terms, in its place in the row order.

use std::ops::Range;
use std::sync::Arc;

use crate::exp;
use crate::kernel::KernelIsa;
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

    /// Build a `rows × cols` pattern from a packed bit matrix: row `i`
    /// is words `i·w..(i+1)·w` of `bits`, `w = cols.div_ceil(64)`, and
    /// bit `j % 64` of word `j / 64` allows column `j`. One pass over the
    /// words plus one step per allowed entry.
    ///
    /// # Panics
    /// Panics if `bits` does not hold `rows · w` words, a bit past
    /// `cols` is set, or `cols` does not fit in a `u32`.
    pub fn from_bits(rows: usize, cols: usize, bits: &[u64]) -> Self {
        assert!(u32::try_from(cols).is_ok(), "{cols} columns overflow u32");
        let words = cols.div_ceil(64);
        assert_eq!(bits.len(), rows * words, "{rows} rows of {words} words");
        let mut row_start = Vec::with_capacity(rows + 1);
        let mut col = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
        row_start.push(0);
        for i in 0..rows {
            for (w, &word) in bits[i * words..(i + 1) * words].iter().enumerate() {
                let mut left = word;
                while left != 0 {
                    let j = w * 64 + left.trailing_zeros() as usize;
                    left &= left - 1;
                    assert!(j < cols, "row {i} sets column {j} of {cols}");
                    col.push(j as u32);
                }
            }
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
    fn slot(&self, i: usize) -> Range<usize> {
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

/// Call `$body(args…)` (an `#[inline(always)]` function) compiled for
/// the active kernel tier, so the row kernels' lane blocks live in 256-
/// or 512-bit registers on the AVX tiers. Every tier runs the same IEEE
/// operations in the same order (Rust never contracts `a·b + c`), so
/// the tier changes no bit.
macro_rules! at_active_isa {
    ($body:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            /// # Safety
            /// The CPU must support AVX-512F.
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            /// # Safety
            /// The CPU must support AVX2.
            #[target_feature(enable = "avx2")]
            unsafe fn avx2<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            match crate::kernel::active_isa() {
                // SAFETY: `active_isa` only returns a tier this CPU runs.
                KernelIsa::Avx512 => unsafe { avx512(|| $body($($arg),*)) },
                // SAFETY: as above.
                KernelIsa::Avx2 => unsafe { avx2(|| $body($($arg),*)) },
                KernelIsa::Scalar => $body($($arg),*),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            $body($($arg),*)
        }
    }};
}

/// One row of the reference `softmax(x + m)`: max over `x + m`, then
/// `expf(x + m − max)` ([`exp`]), their ascending sum, and the
/// division. A row whose max is `−inf` stays zero. `out` must be
/// zero-filled.
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
    for ((o, x), m) in out.iter_mut().zip(x).zip(m) {
        *o = x + m - mx;
    }
    exp::exp_in_place(out);
    let mut denom = 0.0f32;
    for &e in out.iter() {
        denom += e;
    }
    for o in out.iter_mut() {
        *o /= denom;
    }
}

/// Lanes of the running max in [`numerators`].
const LANES: usize = 8;

/// A clear row's softmax numerators in its compact slot `p`: the
/// allowed logits of `x`, scaled (`+ 0.0`, as the mask adds), minus
/// their max, through [`exp`].
///
/// The max runs in [`LANES`] independent lanes: over finite values
/// holding no `−0.0` (`x + 0.0` never is), the largest value is one
/// float whatever the order of the comparisons.
#[inline(always)]
fn numerators(x: &[f32], cols: &[u32], scale: f32, p: &mut [f32]) {
    check_cols(cols, x.len());
    for (o, &j) in p.iter_mut().zip(cols) {
        // SAFETY: `j < x.len()`, checked just above.
        *o = unsafe { *x.get_unchecked(j as usize) } * scale + 0.0;
    }
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = p.chunks_exact(LANES);
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
    for e in p.iter_mut() {
        *e -= mx;
    }
    exp::exp_in_place(p);
}

/// Asserts every column of `cols` is below `rows`: the bound the
/// kernels' unchecked reads and writes rest on. (A vectorized max, far
/// cheaper than a check per access.)
#[inline(always)]
fn check_cols(cols: &[u32], rows: usize) {
    let max = cols.iter().fold(0, |mx, &j| mx.max(j));
    assert!(
        cols.is_empty() || (max as usize) < rows,
        "column {max} of {rows}"
    );
}

/// The ascending sums of four rows, `Σₜ a[t]·b[t]` (`product`) or
/// `Σₜ a[t]`, each chain starting from `init`, run as four independent
/// chains while every row has entries left.
#[inline(always)]
fn sums(rows: [(&[f32], &[f32]); GROUP], init: f32, product: bool) -> [f32; GROUP] {
    let term = |(a, b): (&[f32], &[f32]), t: usize| if product { a[t] * b[t] } else { a[t] };
    let mut sums = [init; GROUP];
    let common = rows.iter().map(|r| r.0.len()).min().unwrap_or(0);
    let heads = rows.map(|(a, b)| (&a[..common], &b[..common]));
    for t in 0..common {
        for (s, row) in sums.iter_mut().zip(heads) {
            *s += term(row, t);
        }
    }
    for (s, row) in sums.iter_mut().zip(rows) {
        for t in common..row.0.len() {
            *s += term(row, t);
        }
    }
    sums
}

/// Rows the interleaved kernels advance together.
const GROUP: usize = 4;

/// One compact row: weights (probabilities or logit adjoints) and
/// their columns.
type Row<'a> = (&'a [f32], &'a [u32]);

/// `out_r = Σₜ w_r[t] · src[cols_r[t]]` for up to [`GROUP`] rows (`rows`
/// pads with empty ones), each written to row `out_rows[r]` of `out`
/// (zero-filled): the reference matmul's arithmetic, skipping zero
/// weights, every element summed in `t` order from `+0.0`. The output
/// columns go in register blocks ([`lane_blocks`]); within a block the
/// rows advance in lockstep while all have entries left, so their
/// chains overlap.
#[inline(always)]
fn weighted(rows: [Row; GROUP], src: &Matrix, out: &mut Matrix, out_rows: &[usize]) {
    #[inline(always)]
    fn block<const W: usize>(
        rows: [Row; GROUP],
        src: &Matrix,
        c0: usize,
        out: &mut Matrix,
        out_rows: &[usize],
    ) {
        let ld = src.cols();
        let src = src.data().as_ptr();
        let term = |acc: &mut [f32; W], w: f32, j: u32| {
            if w == 0.0 {
                return;
            }
            // SAFETY: `j < src.rows()` (checked in `weighted`) and
            // `c0 + W ≤ ld`, so the W floats lie in row `j` of `src`.
            let s = unsafe { &*src.add(j as usize * ld + c0).cast::<[f32; W]>() };
            for (a, &x) in acc.iter_mut().zip(s) {
                *a += w * x;
            }
        };
        let mut acc = [[0.0f32; W]; GROUP];
        let common = rows.iter().map(|r| r.0.len()).min().unwrap_or(0);
        let heads = rows.map(|(w, cols)| (&w[..common], &cols[..common]));
        for t in 0..common {
            for (acc, (w, cols)) in acc.iter_mut().zip(heads) {
                term(acc, w[t], cols[t]);
            }
        }
        for (acc, (w, cols)) in acc.iter_mut().zip(rows) {
            for (&w, &j) in w[common..].iter().zip(&cols[common..]) {
                term(acc, w, j);
            }
        }
        for (&i, acc) in out_rows.iter().zip(&acc) {
            out.row_mut(i)[c0..c0 + W].copy_from_slice(acc);
        }
    }
    for (_, cols) in rows {
        check_cols(cols, src.rows());
    }
    for (c0, w) in lane_blocks(src.cols()) {
        match w {
            8 => block::<8>(rows, src, c0, out, out_rows),
            4 => block::<4>(rows, src, c0, out, out_rows),
            2 => block::<2>(rows, src, c0, out, out_rows),
            _ => block::<1>(rows, src, c0, out, out_rows),
        }
    }
}

/// `dst[cols[t]] += w[t] · x` for every `t` in order, skipping zero
/// weights: one row's share of a `matmul_tn` (`dst` zero-filled before
/// the first row, rows visited in ascending order), so every element
/// of `dst` sums its terms in the reference's order.
#[inline(always)]
fn scatter_add((w, cols): Row, x: &[f32], dst: &mut Matrix) {
    #[inline(always)]
    fn block<const W: usize>((w, cols): Row, x: &[f32], c0: usize, dst: &mut Matrix) {
        let ld = dst.cols();
        let dst = dst.data_mut().as_mut_ptr();
        let x: [f32; W] = x[c0..c0 + W].try_into().expect("one lane block");
        for (&w, &j) in w.iter().zip(cols) {
            if w == 0.0 {
                continue;
            }
            // SAFETY: `j < dst.rows()` (checked in `scatter_add`) and
            // `c0 + W ≤ ld`, so the W floats lie in row `j` of `dst`.
            let d = unsafe { &mut *dst.add(j as usize * ld + c0).cast::<[f32; W]>() };
            for (d, &x) in d.iter_mut().zip(&x) {
                *d += w * x;
            }
        }
    }
    check_cols(cols, dst.rows());
    assert_eq!(x.len(), dst.cols(), "one addend per column");
    for (c0, width) in lane_blocks(dst.cols()) {
        match width {
            8 => block::<8>((w, cols), x, c0, dst),
            4 => block::<4>((w, cols), x, c0, dst),
            2 => block::<2>((w, cols), x, c0, dst),
            _ => block::<1>((w, cols), x, c0, dst),
        }
    }
}

/// A row of `width` columns as register blocks `(first column, width)`:
/// blocks of 8, then one of 4, 2 and 1 as the remainder needs.
fn lane_blocks(width: usize) -> impl Iterator<Item = (usize, usize)> {
    let full = width / 8 * 8;
    let tail = [4, 2, 1].into_iter().scan(full, move |c0, w| {
        let block = (width - *c0 >= w).then_some((*c0, w));
        if block.is_some() {
            *c0 += w;
        }
        Some(block)
    });
    (0..full).step_by(8).map(|c0| (c0, 8)).chain(tail.flatten())
}

/// `[row, empty, …]`: one row through a [`GROUP`]-row kernel.
fn alone(row: Row) -> [Row; GROUP] {
    let mut rows: [Row; GROUP] = [(&[], &[]); GROUP];
    rows[0] = row;
    rows
}

/// The column list `0..m`.
fn every(m: usize) -> Vec<u32> {
    (0..m).map(|j| j as u32).collect()
}

/// `maxₑ |e|` in `f64`, infinite when `data` holds a non-finite value.
fn max_abs(data: &[f32]) -> f64 {
    data.iter().fold(0.0f64, |mx, &x| {
        mx.max(if x.is_finite() {
            f64::from(x.abs())
        } else {
            f64::INFINITY
        })
    })
}

/// `Σ |e|` of a row, in `f64` (NaN when the row holds one).
fn l1(row: &[f32]) -> f64 {
    row.iter().map(|&e| f64::from(e.abs())).sum()
}

/// Row `i` of the dense `n × m` probabilities into `dense`: the compact
/// row `p` at its columns and zero elsewhere, or NaN throughout for a
/// NaN row, which the reference arithmetic leaves NaN in every column.
/// (A row holds a NaN only when its denominator is NaN, so its first
/// entry tells.)
fn scatter_row((p, cols): Row, dense: &mut [f32]) {
    if p.first().is_some_and(|x| x.is_nan()) {
        dense.fill(f32::NAN);
        return;
    }
    dense.fill(0.0);
    for (&x, &j) in p.iter().zip(cols) {
        dense[j as usize] = x;
    }
}

/// A row the logit bound cannot clear, through the reference
/// arithmetic over every column: `x` holds its raw logits, `mask` and
/// `dense` are `m`-float work rows, and the row's compact
/// probabilities land in `p` and its context in row `i` of `ctx`.
#[allow(clippy::too_many_arguments)]
fn reference_row(
    x: &mut [f32],
    cols: &[u32],
    scale: f32,
    (mask, dense, every): (&mut [f32], &mut [f32], &[u32]),
    p: &mut [f32],
    v: &Matrix,
    ctx: &mut Matrix,
    i: usize,
) {
    mask.fill(f32::NEG_INFINITY);
    for &j in cols {
        mask[j as usize] = 0.0;
    }
    dense.fill(0.0);
    for e in x.iter_mut() {
        *e *= scale;
    }
    masked_softmax_row(x, mask, dense);
    weighted(alone((&*dense, every)), v, ctx, &[i]);
    for (o, &j) in p.iter_mut().zip(cols) {
        *o = dense[j as usize];
    }
}

/// The attention forward: the compact probabilities (`1 × count`) and
/// the context `probs · v` (`n × dv`). Every buffer comes from `pool`.
/// Bit-identical to the reference chain (see the module docs).
pub(crate) fn forward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    allowed: &AllowedColumns,
    scale: f32,
    pool: &mut BufferPool,
) -> (Matrix, Matrix) {
    at_active_isa!(forward_rows(q, k, v, allowed, scale, pool))
}

#[inline(always)]
fn forward_rows(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    allowed: &AllowedColumns,
    scale: f32,
    pool: &mut BufferPool,
) -> (Matrix, Matrix) {
    let (n, m) = (q.rows(), k.rows());
    let mut probs = pool.alloc(1, allowed.count());
    let mut ctx = pool.alloc(n, v.cols());
    let kmax = max_abs(k.data());
    let scale_bound = if scale.is_finite() {
        f64::from(scale.abs()).max(1.0)
    } else {
        f64::INFINITY
    };
    let mut block = pool.scratch(BLOCK_ROWS.min(n) * m);
    // the reference path's dense mask and probability rows and its
    // column list, made on the first row the bound cannot clear
    let mut dense_rows: Option<(Matrix, Matrix, Vec<u32>)> = None;
    for r0 in (0..n).step_by(BLOCK_ROWS) {
        let r1 = (r0 + BLOCK_ROWS).min(n);
        q.matmul_nt_rows_into(r0..r1, k, &mut block);
        let mut clear = [0usize; BLOCK_ROWS];
        let mut n_clear = 0;
        for i in r0..r1 {
            let x = block.row_mut(i - r0);
            let (cols, p) = (allowed.row(i), &mut probs.data_mut()[allowed.slot(i)]);
            // a NaN bound (a non-finite input) fails the comparison too
            if l1(q.row(i)) * kmax * scale_bound <= LOGIT_LIMIT {
                numerators(x, cols, scale, p);
                clear[n_clear] = i;
                n_clear += 1;
            } else {
                let (mask, dense, every_col) = dense_rows
                    .get_or_insert_with(|| (pool.alloc(1, m), pool.alloc(1, m), every(m)));
                let work = (mask.data_mut(), dense.data_mut(), &every_col[..]);
                reference_row(x, cols, scale, work, p, v, &mut ctx, i);
            }
        }
        for group in clear[..n_clear].chunks(GROUP) {
            let slot = |r: usize| group.get(r).map_or(0..0, |&i| allowed.slot(i));
            let rows = std::array::from_fn(|r| {
                let p = &probs.data()[slot(r)];
                (p, p)
            });
            for (r, sum) in sums(rows, 0.0, false).into_iter().enumerate() {
                for e in &mut probs.data_mut()[slot(r)] {
                    *e /= sum;
                }
            }
            let rows = std::array::from_fn(|r| {
                let cols = group.get(r).map_or(&[][..], |&i| allowed.row(i));
                (&probs.data()[slot(r)], cols)
            });
            weighted(rows, v, &mut ctx, group);
        }
    }
    pool.recycle(block);
    if let Some((mask, dense, _)) = dense_rows {
        pool.recycle(mask);
        pool.recycle(dense);
    }
    (probs, ctx)
}

/// The attention backward over compact probabilities: `(dq, dk, dv)`
/// for the adjoint `g` of the context, bit-identical to the four-op
/// chain's rules (see the module docs). Every buffer comes from `pool`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    g: &Matrix,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    probs: &Matrix,
    allowed: &AllowedColumns,
    scale: f32,
    pool: &mut BufferPool,
) -> (Matrix, Matrix, Matrix) {
    at_active_isa!(backward_rows(g, q, k, v, probs, allowed, scale, pool))
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn backward_rows(
    g: &Matrix,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    probs: &Matrix,
    allowed: &AllowedColumns,
    scale: f32,
    pool: &mut BufferPool,
) -> (Matrix, Matrix, Matrix) {
    let (n, m) = (q.rows(), k.rows());
    let mut dq = pool.alloc(n, q.cols());
    let mut dk = pool.alloc(m, k.cols());
    let mut dv = pool.alloc(m, v.cols());
    // dprobs gathered at the allowed entries, then the logit adjoints
    let mut dl = pool.alloc(1, allowed.count());
    let vmax = max_abs(v.data());
    let mut block = pool.scratch(BLOCK_ROWS.min(n) * m);
    // a dense row's probabilities and logit adjoints and its column
    // list, made on the first row that needs the reference rules
    let mut dense_rows: Option<(Matrix, Matrix, Vec<u32>)> = None;
    for r0 in (0..n).step_by(BLOCK_ROWS) {
        let r1 = (r0 + BLOCK_ROWS).min(n);
        // dprobs = g · vᵀ, a row block at a time
        g.matmul_nt_rows_into(r0..r1, v, &mut block);
        // rows whose dprobs are all finite, so that a masked entry adds
        // ±0 to the dot product and gets a ±0 adjoint, which the
        // matmuls skip
        let mut compact = [0usize; BLOCK_ROWS];
        let mut n_compact = 0;
        for i in r0..r1 {
            let p = &probs.data()[allowed.slot(i)];
            if scale.is_finite()
                && !p.first().is_some_and(|x| x.is_nan())
                && l1(g.row(i)) * vmax <= LOGIT_LIMIT
            {
                let (cols, dp) = (allowed.row(i), block.row(i - r0));
                check_cols(cols, dp.len());
                for (o, &j) in dl.data_mut()[allowed.slot(i)].iter_mut().zip(cols) {
                    // SAFETY: `j < dp.len()`, checked just above.
                    *o = unsafe { *dp.get_unchecked(j as usize) };
                }
                compact[n_compact] = i;
                n_compact += 1;
            }
        }
        // the dot products `Σ p·dprobs`, from `−0.0` as `Iterator::sum`
        // starts (a zero dot's sign reaches no adjoint the matmuls keep)
        let mut dots = [f32::NAN; BLOCK_ROWS];
        for group in compact[..n_compact].chunks(GROUP) {
            let rows = std::array::from_fn(|r| {
                group.get(r).map_or((&[][..], &[][..]), |&i| {
                    let slot = allowed.slot(i);
                    (&probs.data()[slot.clone()], &dl.data()[slot])
                })
            });
            for (&i, dot) in group.iter().zip(sums(rows, -0.0, true)) {
                dots[i - r0] = dot;
            }
        }
        // rows in ascending order, so that every element of dk and dv
        // sums its terms in matmul_tn's order
        n_compact = 0;
        for i in r0..r1 {
            let (cols, slot) = (allowed.row(i), allowed.slot(i));
            let p = &probs.data()[slot.clone()];
            let dot = dots[i - r0];
            if dot.is_finite() {
                for (o, &p) in dl.data_mut()[slot.clone()].iter_mut().zip(p) {
                    *o = p * (*o - dot) * scale;
                }
                scatter_add((p, cols), g.row(i), &mut dv);
                scatter_add((&dl.data()[slot], cols), q.row(i), &mut dk);
                compact[n_compact] = i;
                n_compact += 1;
                continue;
            }
            // the reference rules over every column
            let (p_dense, dl_dense, every_col) =
                dense_rows.get_or_insert_with(|| (pool.alloc(1, m), pool.alloc(1, m), every(m)));
            let (p_dense, dl_dense) = (p_dense.data_mut(), dl_dense.data_mut());
            let dp = block.row(i - r0);
            scatter_row((p, cols), p_dense);
            let dot: f32 = p_dense.iter().zip(dp).map(|(a, b)| a * b).sum();
            for ((o, &p), &dp) in dl_dense.iter_mut().zip(&*p_dense).zip(dp) {
                *o = p * (dp - dot) * scale;
            }
            scatter_add((&*p_dense, &every_col[..]), g.row(i), &mut dv);
            scatter_add((&*dl_dense, &every_col[..]), q.row(i), &mut dk);
            weighted(alone((&*dl_dense, &every_col[..])), k, &mut dq, &[i]);
        }
        for group in compact[..n_compact].chunks(GROUP) {
            let rows = std::array::from_fn(|r| {
                group.get(r).map_or((&[][..], &[][..]), |&i| {
                    (&dl.data()[allowed.slot(i)], allowed.row(i))
                })
            });
            weighted(rows, k, &mut dq, group);
        }
    }
    pool.recycle(block);
    pool.recycle(dl);
    if let Some((p_dense, dl_dense, _)) = dense_rows {
        pool.recycle(p_dense);
        pool.recycle(dl_dense);
    }
    (dq, dk, dv)
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
    fn bit_rows_build_the_same_index_as_the_predicate() {
        let pattern = |i: usize, j: usize| (i * 7 + j * 3) % 5 < 2 || j == 64;
        for (rows, cols) in [(3usize, 0usize), (4, 1), (5, 64), (6, 65), (3, 130)] {
            let words = cols.div_ceil(64);
            let mut bits = vec![0u64; rows * words];
            for i in 0..rows {
                for j in (0..cols).filter(|&j| pattern(i, j)) {
                    bits[i * words + j / 64] |= 1 << (j % 64);
                }
            }
            let want = AllowedColumns::from_fn(rows, cols, pattern);
            assert_eq!(AllowedColumns::from_bits(rows, cols, &bits), want);
        }
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
        let compact = [0.25, 0.75, f32::NAN, f32::NAN, 0.5, 0.5];
        let mut dense = [[7.0f32; 3]; 3];
        for (i, row) in dense.iter_mut().enumerate() {
            scatter_row((&compact[a.slot(i)], a.row(i)), row);
        }
        assert_eq!(dense[0], [0.0, 0.25, 0.75]);
        assert!(
            dense[1].iter().all(|x| x.is_nan()),
            "a NaN row is NaN throughout"
        );
        assert_eq!(dense[2], [0.5, 0.5, 0.0]);
    }

    #[test]
    fn lane_blocks_tile_the_row() {
        for width in 0..40 {
            let blocks: Vec<(usize, usize)> = lane_blocks(width).collect();
            let mut next = 0;
            for &(c0, w) in &blocks {
                assert_eq!(c0, next, "width {width}: {blocks:?}");
                assert!([8, 4, 2, 1].contains(&w));
                next += w;
            }
            assert_eq!(next, width, "width {width}: {blocks:?}");
        }
    }
}
