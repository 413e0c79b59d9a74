//! Masked attention that visits only the allowed entries of each row.
//!
//! The DAG Transformer's DAGRA mask (eqn. 1) lets node `u` attend to
//! node `v` only along a directed path; at `k = ∞` about half of each
//! row is masked. [`AllowedColumns`] stores each row's allowed columns
//! once, as ascending runs, and the forward of
//! [`crate::Tape::masked_attention`] computes
//! `softmax(scale · Q·Kᵀ + mask) · V` over those columns only.
//!
//! # Why skipping masked entries changes no bit
//!
//! The reference chain (`matmul_nt → scale → masked_softmax_rows →
//! matmul`) adds a `−inf` mask to every masked logit. For a row whose
//! logits are all finite, a masked entry then
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
//! floats. A masked `+inf` or NaN logit instead turns the reference row
//! into NaN (`+inf − inf`), so a row holding any non-finite logit runs
//! the reference arithmetic over all of its columns.

use std::ops::Range;

use crate::matrix::Matrix;

/// Per-row lists of the columns an attention row may read, stored as
/// ascending, disjoint half-open runs of column indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedColumns {
    cols: usize,
    /// Row `i`'s runs are `runs[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<usize>,
    runs: Vec<(u32, u32)>,
}

impl AllowedColumns {
    /// Build a `rows × cols` pattern from an `allowed(i, j)` predicate.
    ///
    /// # Panics
    /// Panics if `cols` does not fit in a `u32`.
    pub fn from_fn(rows: usize, cols: usize, allowed: impl Fn(usize, usize) -> bool) -> Self {
        assert!(u32::try_from(cols).is_ok(), "{cols} columns overflow u32");
        let mut row_start = Vec::with_capacity(rows + 1);
        let mut runs = Vec::new();
        row_start.push(0);
        for i in 0..rows {
            let mut open: Option<usize> = None;
            for j in 0..cols {
                match (allowed(i, j), open) {
                    (true, None) => open = Some(j),
                    (false, Some(s)) => {
                        runs.push((s as u32, j as u32));
                        open = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = open {
                runs.push((s as u32, cols as u32));
            }
            row_start.push(runs.len());
        }
        AllowedColumns {
            cols,
            row_start,
            runs,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i`'s allowed columns as ascending ranges.
    fn row(&self, i: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        self.row_runs(i)
            .iter()
            .map(|&(s, e)| s as usize..e as usize)
    }

    fn row_runs(&self, i: usize) -> &[(u32, u32)] {
        &self.runs[self.row_start[i]..self.row_start[i + 1]]
    }

    /// Whether row `i` may read column `j`.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i).any(|r| r.contains(&j))
    }

    /// Allowed entries over all rows.
    pub fn count(&self) -> usize {
        self.runs.iter().map(|&(s, e)| (e - s) as usize).sum()
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

/// `out += p[j] · v[j]` for each column `j` the iterator yields, in its
/// order, skipping zero weights — the reference matmul's arithmetic for
/// one output row.
fn weighted_rows(cols: impl Iterator<Item = usize>, p: &[f32], v: &Matrix, out: &mut [f32]) {
    for j in cols {
        let a = p[j];
        if a == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(v.row(j)) {
            *o += a * b;
        }
    }
}

/// The fused attention forward: scale the raw logits `Q·Kᵀ` in place,
/// softmax each row over its allowed columns (every column when
/// `allowed` is `None`) into `probs`, and accumulate `probs · v` into
/// `ctx`. `probs` (`n × m`) and `ctx` (`n × dv`) must be zero-filled.
/// Bit-identical to the reference chain (see the module docs).
pub(crate) fn attend(
    logits: &mut Matrix,
    scale: f32,
    allowed: Option<&AllowedColumns>,
    v: &Matrix,
    probs: &mut Matrix,
    ctx: &mut Matrix,
) {
    let m = logits.cols();
    let every = [(0, m as u32)];
    for i in 0..logits.rows() {
        let runs = allowed.map_or(&every[..], |a| a.row_runs(i));
        let cols = || runs.iter().map(|&(s, e)| s as usize..e as usize);
        for e in logits.row_mut(i) {
            *e *= scale;
        }
        let x = logits.row(i);
        let p = probs.row_mut(i);
        if !x.iter().fold(true, |ok, e| ok & e.is_finite()) {
            // the reference arithmetic over every column
            let mut mask = vec![f32::NEG_INFINITY; m];
            for r in cols() {
                mask[r].fill(0.0);
            }
            masked_softmax_row(x, &mask, p);
            weighted_rows(0..m, p, v, ctx.row_mut(i));
            continue;
        }
        let mut mx = f32::NEG_INFINITY;
        for r in cols() {
            for &e in &x[r] {
                let s = e + 0.0;
                if s > mx {
                    mx = s;
                }
            }
        }
        if mx == f32::NEG_INFINITY {
            continue; // no allowed column: zero probabilities and context
        }
        let mut denom = 0.0f32;
        for r in cols() {
            for (o, &e) in p[r.clone()].iter_mut().zip(&x[r]) {
                let e = (e + 0.0 - mx).exp();
                *o = e;
                denom += e;
            }
        }
        for r in cols() {
            for o in &mut p[r] {
                *o /= denom;
            }
        }
        weighted_rows(cols().flatten(), p, v, ctx.row_mut(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_exactly_the_allowed_entries() {
        let pattern = |i: usize, j: usize| !(i + j).is_multiple_of(3) || j == 7;
        let a = AllowedColumns::from_fn(5, 9, pattern);
        assert_eq!((a.rows(), a.cols()), (5, 9));
        let mut count = 0;
        for i in 0..5 {
            let mut last_end = 0;
            for r in a.row(i) {
                assert!(r.start < r.end && r.start >= last_end, "row {i}: {r:?}");
                last_end = r.end;
            }
            for j in 0..9 {
                assert_eq!(a.contains(i, j), pattern(i, j), "({i}, {j})");
                count += pattern(i, j) as usize;
            }
        }
        assert_eq!(a.count(), count);
    }

    #[test]
    fn empty_and_full_rows() {
        let a = AllowedColumns::from_fn(3, 4, |i, _| i == 1);
        assert_eq!(a.row(0).count(), 0);
        assert_eq!(a.row(1).collect::<Vec<_>>(), vec![0..4]);
        assert_eq!(a.count(), 4);
        let none = AllowedColumns::from_fn(2, 0, |_, _| true);
        assert_eq!(none.count(), 0);
    }
}
