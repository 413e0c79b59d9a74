//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records the forward computation as a flat list of operator
//! nodes over [`Matrix`] values; [`Tape::backward`] walks the list in
//! reverse, propagating adjoints and accumulating parameter gradients
//! into any [`GradSink`] (a [`ParamStore`] in the serial loop, a
//! per-sample `GradSet` in the data-parallel one). The operator set is
//! exactly what the three predictors need — dense affine maps, (masked)
//! row softmax for attention, the fused masked attention head of the
//! DAG Transformer, (leaky-)ReLU, column slicing/concatenation for
//! multi-head attention, and the global-add-pool row sum.
//!
//! Every value and adjoint the tape materializes comes from an internal
//! [`BufferPool`]: calling [`Tape::reset`] between samples retires all
//! buffers for reuse, so steady-state training performs no heap
//! allocation in the hot loop. Pooling only recycles memory — each op
//! computes the same arithmetic in the same order, so results are
//! bit-identical to the unpooled implementation.
//!
//! Every backward rule is validated against central finite differences in
//! the tests at the bottom of this file.

use crate::attention::{self, AllowedColumns};
use crate::matrix::Matrix;
use crate::optim::{GradSink, ParamStore};
use crate::pool::{BufferPool, PoolStats};

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Constant leaf (inputs, masks, positional encodings): no gradient.
    Const,
    /// Parameter leaf: gradient accumulates into `ParamStore` slot.
    Param(usize),
    /// `A · B`.
    MatMul(Var, Var),
    /// `A · Bᵀ` (attention logits).
    MatMulNT(Var, Var),
    /// Elementwise sum of same-shaped matrices.
    Add(Var, Var),
    /// `A + broadcast_rows(bias)` with `bias : 1 × d`.
    AddRow(Var, Var),
    /// Elementwise product.
    Hadamard(Var, Var),
    /// `c · A`.
    Scale(Var, f32),
    /// Elementwise max(0, x).
    Relu(Var),
    /// Elementwise leaky ReLU.
    LeakyRelu(Var, f32),
    /// Row-wise `softmax(A + mask)`; the mask is a constant and gets no
    /// gradient.
    MaskedSoftmaxRows(Var, Var),
    /// `softmax(scale · Q·Kᵀ + mask) · V` over allowed columns. Keeps
    /// only the compact probabilities, one per allowed entry (a pooled
    /// buffer, recycled on [`Tape::reset`]), for the backward pass.
    MaskedAttention {
        /// Queries `Q`.
        q: Var,
        /// Keys `K`.
        k: Var,
        /// Values `V`.
        v: Var,
        /// Logit scale.
        scale: f32,
        /// The softmax output at the allowed entries.
        probs: Matrix,
        /// The allowed columns (a shared handle).
        allowed: AllowedColumns,
    },
    /// Column-sum to a `1 × d` row (global add pool).
    SumRows(Var),
    /// Columns `[c0, c1)` of the input.
    ColSlice(Var, usize, usize),
    /// Horizontal concatenation.
    ConcatCols(Vec<Var>),
    /// Row-wise standardization `(x − μ_row) / σ_row` (layer-norm core).
    /// Stores the per-row 1/σ (a pooled `1 × rows` matrix, recycled on
    /// [`Tape::reset`] like every value buffer) for the backward pass.
    NormalizeRows(Var, Matrix),
    /// `A ∘ broadcast_rows(scale)` with `scale : 1 × d` (layer-norm γ).
    MulRow(Var, Var),
}

/// The autodiff tape.
#[derive(Debug, Default)]
pub struct Tape {
    ops: Vec<Op>,
    values: Vec<Matrix>,
    pool: BufferPool,
}

impl Tape {
    /// Fresh tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The current value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.values[v.0]
    }

    /// Clear the recorded graph, retiring every value buffer into the
    /// internal pool. The next forward pass on this tape reuses them —
    /// this is what makes per-sample tapes allocation-free in
    /// steady-state training.
    pub fn reset(&mut self) {
        let Tape { ops, values, pool } = self;
        for op in ops.drain(..) {
            // ops that own auxiliary buffers retire them too, keeping
            // the serve path allocation-free in steady state
            match op {
                Op::NormalizeRows(_, aux) | Op::MaskedAttention { probs: aux, .. } => {
                    pool.recycle(aux)
                }
                _ => {}
            }
        }
        for v in values.drain(..) {
            pool.recycle(v);
        }
    }

    /// Buffer-pool hit/miss counters (observability; see
    /// `bench_predictor`).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Floats the buffer pool holds for reuse (after [`Tape::reset`],
    /// every buffer the last pass used, up to the pool's cap).
    pub fn pool_parked_floats(&self) -> usize {
        self.pool.parked_floats()
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.ops.push(op);
        self.values.push(value);
        Var(self.values.len() - 1)
    }

    /// Record a constant leaf (no gradient flows into it).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(Op::Const, m)
    }

    /// Record a constant leaf by copying `m` into a pooled buffer —
    /// the allocation-free variant of [`Tape::constant`] for per-sample
    /// inputs that outlive the tape (features, masks, encodings).
    pub fn constant_ref(&mut self, m: &Matrix) -> Var {
        let copy = self.pool.copy_of(m);
        self.push(Op::Const, copy)
    }

    /// Record a constant leaf filled with `value`, drawing its buffer
    /// from the pool (broadcast helpers like all-ones rows/columns).
    pub fn constant_full(&mut self, rows: usize, cols: usize, value: f32) -> Var {
        let mut m = self.pool.alloc(rows, cols);
        if value != 0.0 {
            m.data_mut().fill(value);
        }
        self.push(Op::Const, m)
    }

    /// Record a parameter leaf reading slot `pid` of `store`.
    pub fn param(&mut self, store: &ParamStore, pid: usize) -> Var {
        let copy = self.pool.copy_of(store.value(pid));
        self.push(Op::Param(pid), copy)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let (av, bv) = (&values[a.0], &values[b.0]);
        let mut out = pool.scratch(av.rows() * bv.cols());
        av.matmul_into(bv, &mut out);
        self.push(Op::MatMul(a, b), out)
    }

    /// `a · bᵀ`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let (av, bv) = (&values[a.0], &values[b.0]);
        let mut out = pool.scratch(av.rows() * bv.rows());
        av.matmul_nt_into(bv, &mut out);
        self.push(Op::MatMulNT(a, b), out)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let mut out = pool.copy_of(&values[a.0]);
        out.add_assign(&values[b.0]);
        self.push(Op::Add(a, b), out)
    }

    /// `a + broadcast(bias)` where `bias` is `1 × cols(a)`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let (av, bv) = (&values[a.0], &values[bias.0]);
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(bv.cols(), av.cols());
        let mut out = pool.copy_of(av);
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bv.row(0)) {
                *o += b;
            }
        }
        self.push(Op::AddRow(a, bias), out)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let mut out = pool.copy_of(&values[a.0]);
        out.hadamard_assign(&values[b.0]);
        self.push(Op::Hadamard(a, b), out)
    }

    /// `c · a`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let Tape { values, pool, .. } = self;
        let mut out = pool.copy_of(&values[a.0]);
        out.scale_assign(c);
        self.push(Op::Scale(a, c), out)
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let mut v = pool.copy_of(&values[a.0]);
        for x in v.data_mut() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        self.push(Op::Relu(a), v)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        let Tape { values, pool, .. } = self;
        let mut v = pool.copy_of(&values[a.0]);
        for x in v.data_mut() {
            if *x < 0.0 {
                *x *= alpha;
            }
        }
        self.push(Op::LeakyRelu(a, alpha), v)
    }

    /// Row-wise `softmax(a + mask)`. `mask` must be a constant leaf of
    /// the same shape; use `0.0` for allowed and `f32::NEG_INFINITY` for
    /// masked entries (eqn. 1 of the paper). Fully-masked rows produce a
    /// zero row (not NaN), matching the convention that an isolated node
    /// attends to nothing.
    pub fn masked_softmax_rows(&mut self, a: Var, mask: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let (av, mv) = (&values[a.0], &values[mask.0]);
        assert_eq!((av.rows(), av.cols()), (mv.rows(), mv.cols()));
        let mut out = pool.alloc(av.rows(), av.cols());
        for r in 0..av.rows() {
            attention::masked_softmax_row(av.row(r), mv.row(r), out.row_mut(r));
        }
        self.push(Op::MaskedSoftmaxRows(a, mask), out)
    }

    /// One masked attention head, `softmax(scale · q·kᵀ + mask) · v`,
    /// where row `i` of the mask allows exactly `allowed`'s row `i` (an
    /// index that allows every column gives full attention). Rows with no
    /// allowed column produce zero probabilities, as in
    /// [`Tape::masked_softmax_rows`].
    ///
    /// The value and the gradients of `q`, `k` and `v` are bit-identical
    /// to the chain `matmul_nt(q, k) → scale → masked_softmax_rows(·,
    /// allowed's dense mask) → matmul(·, v)`, but no `n × m` buffer
    /// lives through the forward or the backward: the logits and their
    /// adjoints come a row block at a time, and the softmax, the
    /// `attn · v` product and their backward rules visit only the
    /// allowed entries (see [`crate::attention`] for why that changes no
    /// bit). The tape keeps the compact probabilities.
    ///
    /// # Panics
    /// Panics if the shapes disagree: `q : n × d`, `k : m × d`,
    /// `v : m × dv`, `allowed : n × m`.
    pub fn masked_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        allowed: &AllowedColumns,
        scale: f32,
    ) -> Var {
        let Tape { values, pool, .. } = self;
        let (qv, kv, vv) = (&values[q.0], &values[k.0], &values[v.0]);
        let (n, m) = (qv.rows(), kv.rows());
        assert_eq!(vv.rows(), m, "masked_attention: one value row per key");
        assert_eq!(
            (allowed.rows(), allowed.cols()),
            (n, m),
            "masked_attention mask shape"
        );
        let (probs, ctx) = attention::forward(qv, kv, vv, allowed, scale, pool);
        self.push(
            Op::MaskedAttention {
                q,
                k,
                v,
                scale,
                probs,
                allowed: allowed.clone(),
            },
            ctx,
        )
    }

    /// Global add pool: sum all rows into a `1 × d` row.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let av = &values[a.0];
        let mut out = pool.alloc(1, av.cols());
        for r in 0..av.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(av.row(r)) {
                *o += x;
            }
        }
        self.push(Op::SumRows(a), out)
    }

    /// Columns `[c0, c1)` of `a`.
    pub fn col_slice(&mut self, a: Var, c0: usize, c1: usize) -> Var {
        let Tape { values, pool, .. } = self;
        let av = &values[a.0];
        assert!(c0 < c1 && c1 <= av.cols(), "bad column range {c0}..{c1}");
        let mut out = pool.alloc(av.rows(), c1 - c0);
        for r in 0..av.rows() {
            out.row_mut(r).copy_from_slice(&av.row(r)[c0..c1]);
        }
        self.push(Op::ColSlice(a, c0, c1), out)
    }

    /// Horizontal concatenation of equal-row-count matrices.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let Tape { values, pool, .. } = self;
        let rows = values[parts[0].0].rows();
        let total: usize = parts.iter().map(|p| values[p.0].cols()).sum();
        let mut out = pool.alloc(rows, total);
        let mut off = 0;
        for &p in parts {
            let pv = &values[p.0];
            assert_eq!(pv.rows(), rows, "row mismatch in concat");
            for r in 0..rows {
                out.row_mut(r)[off..off + pv.cols()].copy_from_slice(pv.row(r));
            }
            off += pv.cols();
        }
        self.push(Op::ConcatCols(parts.to_vec()), out)
    }

    /// Row-wise standardization: each row becomes `(x − μ) / σ` with
    /// `σ = sqrt(var + 1e-5)` — the core of layer normalization (compose
    /// with [`Tape::mul_row`] and [`Tape::add_row`] for γ/β).
    pub fn normalize_rows(&mut self, a: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let av = &values[a.0];
        let (rows, cols) = (av.rows(), av.cols());
        let mut out = pool.alloc(rows, cols);
        let mut inv_sigma = pool.alloc(1, rows);
        for r in 0..rows {
            let row = av.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / cols as f32;
            let inv = 1.0 / (var + 1e-5).sqrt();
            inv_sigma.data_mut()[r] = inv;
            for (o, &x) in out.row_mut(r).iter_mut().zip(row) {
                *o = (x - mean) * inv;
            }
        }
        self.push(Op::NormalizeRows(a, inv_sigma), out)
    }

    /// `a ∘ broadcast(scale)` where `scale` is `1 × cols(a)`.
    pub fn mul_row(&mut self, a: Var, scale: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let (av, sv) = (&values[a.0], &values[scale.0]);
        assert_eq!(sv.rows(), 1, "scale must be a row vector");
        assert_eq!(sv.cols(), av.cols());
        let mut out = pool.copy_of(av);
        for r in 0..out.rows() {
            for (o, &s) in out.row_mut(r).iter_mut().zip(sv.row(0)) {
                *o *= s;
            }
        }
        self.push(Op::MulRow(a, scale), out)
    }

    /// Reverse pass: seed the adjoint of `out` with `seed` and accumulate
    /// parameter gradients into `sink` (a [`ParamStore`] or any other
    /// [`GradSink`]). Adjoint buffers come from — and return to — the
    /// tape's pool.
    ///
    /// # Panics
    /// Panics if `seed`'s shape differs from `out`'s value.
    pub fn backward<S: GradSink>(&mut self, out: Var, seed: Matrix, sink: &mut S) {
        let Tape { ops, values, pool } = self;
        let ov = &values[out.0];
        assert_eq!((seed.rows(), seed.cols()), (ov.rows(), ov.cols()));
        let mut grads: Vec<Option<Matrix>> = Vec::new();
        grads.resize_with(values.len(), || None);
        grads[out.0] = Some(seed);

        for idx in (0..=out.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            match &ops[idx] {
                Op::Const => pool.recycle(g),
                Op::Param(pid) => {
                    sink.grad_mut(*pid).add_assign(&g);
                    pool.recycle(g);
                }
                Op::MatMul(a, b) => {
                    let mut da = pool.scratch(values[a.0].data().len());
                    g.matmul_nt_into(&values[b.0], &mut da);
                    let mut db = pool.scratch(values[b.0].data().len());
                    values[a.0].matmul_tn_into(&g, &mut db);
                    accumulate(&mut grads, *a, da, pool);
                    accumulate(&mut grads, *b, db, pool);
                    pool.recycle(g);
                }
                Op::MatMulNT(a, b) => {
                    // y = A Bᵀ : dA = G B ; dB = Gᵀ A
                    let mut da = pool.scratch(values[a.0].data().len());
                    g.matmul_into(&values[b.0], &mut da);
                    let mut db = pool.scratch(values[b.0].data().len());
                    g.matmul_tn_into(&values[a.0], &mut db);
                    accumulate(&mut grads, *a, da, pool);
                    accumulate(&mut grads, *b, db, pool);
                    pool.recycle(g);
                }
                Op::Add(a, b) => {
                    let da = pool.copy_of(&g);
                    accumulate(&mut grads, *a, da, pool);
                    accumulate(&mut grads, *b, g, pool);
                }
                Op::AddRow(a, bias) => {
                    let mut db = pool.alloc(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    accumulate(&mut grads, *bias, db, pool);
                    accumulate(&mut grads, *a, g, pool);
                }
                Op::Hadamard(a, b) => {
                    let mut da = pool.copy_of(&g);
                    da.hadamard_assign(&values[b.0]);
                    let mut db = g;
                    db.hadamard_assign(&values[a.0]);
                    accumulate(&mut grads, *a, da, pool);
                    accumulate(&mut grads, *b, db, pool);
                }
                Op::Scale(a, c) => {
                    let mut da = g;
                    da.scale_assign(*c);
                    accumulate(&mut grads, *a, da, pool);
                }
                Op::Relu(a) => {
                    let mut da = g;
                    for (d, &x) in da.data_mut().iter_mut().zip(values[a.0].data()) {
                        if x <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    accumulate(&mut grads, *a, da, pool);
                }
                Op::LeakyRelu(a, alpha) => {
                    let mut da = g;
                    for (d, &x) in da.data_mut().iter_mut().zip(values[a.0].data()) {
                        if x < 0.0 {
                            *d *= alpha;
                        }
                    }
                    accumulate(&mut grads, *a, da, pool);
                }
                Op::MaskedSoftmaxRows(a, _mask) => {
                    let da = softmax_backward(&values[idx], &g, pool);
                    accumulate(&mut grads, *a, da, pool);
                    pool.recycle(g);
                }
                Op::MaskedAttention {
                    q,
                    k,
                    v,
                    scale,
                    probs,
                    allowed,
                } => {
                    let (qv, kv, vv) = (&values[q.0], &values[k.0], &values[v.0]);
                    let (dq, dk, dv) =
                        attention::backward(&g, qv, kv, vv, probs, allowed, *scale, pool);
                    pool.recycle(g);
                    accumulate(&mut grads, *v, dv, pool);
                    accumulate(&mut grads, *q, dq, pool);
                    accumulate(&mut grads, *k, dk, pool);
                }
                Op::SumRows(a) => {
                    let av = &values[a.0];
                    let mut da = pool.alloc(av.rows(), av.cols());
                    for r in 0..av.rows() {
                        da.row_mut(r).copy_from_slice(g.row(0));
                    }
                    accumulate(&mut grads, *a, da, pool);
                    pool.recycle(g);
                }
                Op::ColSlice(a, c0, _c1) => {
                    let av = &values[a.0];
                    let mut da = pool.alloc(av.rows(), av.cols());
                    for r in 0..g.rows() {
                        da.row_mut(r)[*c0..*c0 + g.cols()].copy_from_slice(g.row(r));
                    }
                    accumulate(&mut grads, *a, da, pool);
                    pool.recycle(g);
                }
                Op::NormalizeRows(a, inv_sigma) => {
                    // y = (x − μ)/σ ; dx = (1/σ)(g − mean(g) − y · mean(g∘y))
                    let y = &values[idx];
                    let cols = y.cols() as f32;
                    let mut da = pool.alloc(y.rows(), y.cols());
                    for (r, &inv) in inv_sigma.row(0).iter().enumerate() {
                        let yrow = y.row(r);
                        let grow = g.row(r);
                        let gmean = grow.iter().sum::<f32>() / cols;
                        let gy_mean = grow.iter().zip(yrow).map(|(a, b)| a * b).sum::<f32>() / cols;
                        for ((d, &gv), &yv) in da.row_mut(r).iter_mut().zip(grow).zip(yrow) {
                            *d = inv * (gv - gmean - yv * gy_mean);
                        }
                    }
                    accumulate(&mut grads, *a, da, pool);
                    pool.recycle(g);
                }
                Op::MulRow(a, scale) => {
                    let sv = &values[scale.0];
                    let av = &values[a.0];
                    let mut da = pool.copy_of(&g);
                    for r in 0..da.rows() {
                        for (d, &s) in da.row_mut(r).iter_mut().zip(sv.row(0)) {
                            *d *= s;
                        }
                    }
                    let mut ds = pool.alloc(1, g.cols());
                    for r in 0..g.rows() {
                        for ((o, &gv), &xv) in ds.row_mut(0).iter_mut().zip(g.row(r)).zip(av.row(r))
                        {
                            *o += gv * xv;
                        }
                    }
                    accumulate(&mut grads, *a, da, pool);
                    accumulate(&mut grads, *scale, ds, pool);
                    pool.recycle(g);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let pc = values[p.0].cols();
                        let rows = g.rows();
                        let mut dp = pool.alloc(rows, pc);
                        for r in 0..rows {
                            dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + pc]);
                        }
                        accumulate(&mut grads, p, dp, pool);
                        off += pc;
                    }
                    pool.recycle(g);
                }
            }
        }
    }
}

/// Row-softmax backward: `dA_rc = y_rc · (g_rc − Σ_k g_rk y_rk)` for the
/// softmax output `y` and its adjoint `g`.
fn softmax_backward(y: &Matrix, g: &Matrix, pool: &mut BufferPool) -> Matrix {
    let mut da = pool.alloc(y.rows(), y.cols());
    for r in 0..y.rows() {
        let yrow = y.row(r);
        let grow = g.row(r);
        let dot: f32 = yrow.iter().zip(grow).map(|(a, b)| a * b).sum();
        for ((d, &yv), &gv) in da.row_mut(r).iter_mut().zip(yrow).zip(grow) {
            *d = yv * (gv - dot);
        }
    }
    da
}

/// Merge adjoint `g` into slot `v`, retiring `g`'s buffer when the slot
/// already holds an adjoint.
fn accumulate(grads: &mut [Option<Matrix>], v: Var, g: Matrix, pool: &mut BufferPool) {
    match &mut grads[v.0] {
        Some(existing) => {
            existing.add_assign(&g);
            pool.recycle(g);
        }
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_vec(
            r,
            c,
            (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        )
    }

    /// Generic finite-difference check: `f` builds a scalar-producing
    /// graph from the parameter store; compares autodiff grads of every
    /// param entry against central differences.
    fn grad_check<F>(store: &mut ParamStore, f: F)
    where
        F: Fn(&mut Tape, &ParamStore) -> Var,
    {
        // analytic gradient
        store.zero_grads();
        let mut tape = Tape::new();
        let out = f(&mut tape, store);
        assert_eq!(
            (tape.value(out).rows(), tape.value(out).cols()),
            (1, 1),
            "grad_check needs a scalar output"
        );
        tape.backward(out, Matrix::full(1, 1, 1.0), store);

        let eps = 3e-3f32;
        for pid in 0..store.len() {
            for i in 0..store.value(pid).data().len() {
                let orig = store.value(pid).data()[i];
                store.value_mut(pid).data_mut()[i] = orig + eps;
                let mut tp = Tape::new();
                let o = f(&mut tp, store);
                let plus = tp.value(o).get(0, 0);
                store.value_mut(pid).data_mut()[i] = orig - eps;
                let mut tm = Tape::new();
                let o = f(&mut tm, store);
                let minus = tm.value(o).get(0, 0);
                store.value_mut(pid).data_mut()[i] = orig;

                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = store.grad(pid).data()[i];
                let denom = numeric.abs().max(analytic.abs()).max(1e-2);
                assert!(
                    (numeric - analytic).abs() / denom < 0.08,
                    "param {pid}[{i}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w1 = store.add(rand_matrix(&mut rng, 4, 3));
        let w2 = store.add(rand_matrix(&mut rng, 3, 1));
        let x = rand_matrix(&mut rng, 1, 4);
        grad_check(&mut store, move |t, s| {
            let xv = t.constant(x.clone());
            let a = t.param(s, w1);
            let b = t.param(s, w2);
            let h = t.matmul(xv, a);
            let h = t.relu(h);
            t.matmul(h, b)
        });
    }

    #[test]
    fn grad_matmul_nt_and_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let q = store.add(rand_matrix(&mut rng, 2, 3));
        let k = store.add(rand_matrix(&mut rng, 2, 3));
        grad_check(&mut store, move |t, s| {
            let qv = t.param(s, q);
            let kv = t.param(s, k);
            let scores = t.matmul_nt(qv, kv); // 2x2
            let scaled = t.scale(scores, 0.7);
            let pooled = t.sum_rows(scaled); // 1x2
            let ones = t.constant(Matrix::full(1, 2, 1.0));
            let h = t.hadamard(pooled, ones);
            // reduce to scalar: h · onesᵀ
            let ones2 = t.constant(Matrix::full(1, 2, 1.0));
            t.matmul_nt(h, ones2)
        });
    }

    #[test]
    fn grad_masked_softmax() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let a = store.add(rand_matrix(&mut rng, 3, 3));
        // mask out one entry per row, keep rows viable
        let mut mask = Matrix::zeros(3, 3);
        mask.set(0, 2, f32::NEG_INFINITY);
        mask.set(1, 0, f32::NEG_INFINITY);
        grad_check(&mut store, move |t, s| {
            let av = t.param(s, a);
            let mv = t.constant(mask.clone());
            let sm = t.masked_softmax_rows(av, mv);
            let w = t.constant(rand_det(3));
            let prod = t.hadamard(sm, w);
            let pooled = t.sum_rows(prod); // 1x3
            let ones = t.constant(Matrix::full(1, 3, 1.0));
            t.matmul_nt(pooled, ones)
        });
    }

    fn rand_det(n: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(99);
        Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|_| rng.gen_range(0.1f32..1.0)).collect(),
        )
    }

    #[test]
    fn grad_add_row_and_leaky() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let w = store.add(rand_matrix(&mut rng, 3, 2));
        let b = store.add(rand_matrix(&mut rng, 1, 2));
        let x = rand_matrix(&mut rng, 2, 3);
        grad_check(&mut store, move |t, s| {
            let xv = t.constant(x.clone());
            let wv = t.param(s, w);
            let bv = t.param(s, b);
            let h = t.matmul(xv, wv);
            let h = t.add_row(h, bv);
            let h = t.leaky_relu(h, 0.2);
            let pooled = t.sum_rows(h);
            let ones = t.constant(Matrix::full(1, 2, 1.0));
            t.matmul_nt(pooled, ones)
        });
    }

    #[test]
    fn grad_slice_concat() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.add(rand_matrix(&mut rng, 2, 4));
        grad_check(&mut store, move |t, s| {
            let wv = t.param(s, w);
            let left = t.col_slice(wv, 0, 2);
            let right = t.col_slice(wv, 2, 4);
            let swapped = t.concat_cols(&[right, left]);
            let act = t.relu(swapped);
            let pooled = t.sum_rows(act);
            let ones = t.constant(Matrix::full(1, 4, 1.0));
            t.matmul_nt(pooled, ones)
        });
    }

    #[test]
    fn grad_normalize_and_mul_row() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let x = store.add(rand_matrix(&mut rng, 3, 4));
        let gamma = store.add(rand_matrix(&mut rng, 1, 4));
        let beta = store.add(rand_matrix(&mut rng, 1, 4));
        grad_check(&mut store, move |t, s| {
            let xv = t.param(s, x);
            let normed = t.normalize_rows(xv);
            let gv = t.param(s, gamma);
            let bv = t.param(s, beta);
            let scaled = t.mul_row(normed, gv);
            let shifted = t.add_row(scaled, bv);
            let act = t.relu(shifted);
            let pooled = t.sum_rows(act);
            let ones = t.constant(Matrix::full(1, 4, 1.0));
            t.matmul_nt(pooled, ones)
        });
    }

    #[test]
    fn normalize_rows_standardizes() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(
            2,
            4,
            vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 0.0],
        ));
        let y = tape.normalize_rows(x);
        let v = tape.value(y);
        for r in 0..2 {
            let mean: f32 = v.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = v
                .row(r)
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn fanout_accumulates_gradients() {
        // y = (x·w) + (x·w) — grad wrt w must be doubled
        let mut store = ParamStore::new();
        let w = store.add(Matrix::full(1, 1, 0.5));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(1, 1, 3.0));
        let wv = tape.param(&store, w);
        let a = tape.matmul(x, wv);
        let y = tape.add(a, a);
        tape.backward(y, Matrix::full(1, 1, 1.0), &mut store);
        assert_eq!(store.grad(w).get(0, 0), 6.0);
    }

    #[test]
    fn fully_masked_row_yields_zero_not_nan() {
        let mut tape = Tape::new();
        let store = ParamStore::new();
        let _ = &store;
        let a = tape.constant(Matrix::full(2, 2, 1.0));
        let mut mask = Matrix::zeros(2, 2);
        mask.set(1, 0, f32::NEG_INFINITY);
        mask.set(1, 1, f32::NEG_INFINITY);
        let mv = tape_const(&mut tape, mask);
        let sm = tape.masked_softmax_rows(a, mv);
        let v = tape.value(sm);
        assert!((v.get(0, 0) - 0.5).abs() < 1e-6);
        assert_eq!(v.row(1), &[0.0, 0.0]);
        assert!(v.data().iter().all(|x| x.is_finite()));
    }

    fn tape_const(t: &mut Tape, m: Matrix) -> Var {
        t.constant(m)
    }

    /// Equal bit patterns, with any NaN matching any NaN: the compiler
    /// may commute an addition, and IEEE-754 leaves which NaN payload
    /// survives to the operand order.
    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        (a.rows(), a.cols()) == (b.rows(), b.cols())
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Value and `(dq, dk, dv)` of one attention head, either through
    /// the fused op or through the four-op chain it replaces. With
    /// `shared`, one parameter plays `q`, `k` and `v` (self-attention),
    /// so the three gradients accumulate into one slot in the chain's
    /// order.
    fn attention_head(
        fused: bool,
        shared: bool,
        (q, k, v): (&Matrix, &Matrix, &Matrix),
        allowed: &AllowedColumns,
        scale: f32,
        seed: &Matrix,
    ) -> [Matrix; 4] {
        let mut store = ParamStore::new();
        let pq = store.add(q.clone());
        let (pk, pv) = if shared {
            (pq, pq)
        } else {
            (store.add(k.clone()), store.add(v.clone()))
        };
        let mut tape = Tape::new();
        let qv = tape.param(&store, pq);
        let (kv, vv) = if shared {
            (qv, qv)
        } else {
            (tape.param(&store, pk), tape.param(&store, pv))
        };
        let out = if fused {
            tape.masked_attention(qv, kv, vv, allowed, scale)
        } else {
            let logits = tape.matmul_nt(qv, kv);
            let logits = tape.scale(logits, scale);
            let mask = tape.constant(allowed.mask());
            let attn = tape.masked_softmax_rows(logits, mask);
            tape.matmul(attn, vv)
        };
        if fused {
            // the forward kept one probability per allowed entry
            let Some(Op::MaskedAttention { probs, .. }) = tape.ops.last() else {
                panic!("the fused head records one masked-attention op");
            };
            assert_eq!(probs.data().len(), allowed.count());
        }
        let value = tape.value(out).clone();
        tape.backward(out, seed.clone(), &mut store);
        [
            value,
            store.grad(pq).clone(),
            store.grad(pk).clone(),
            store.grad(pv).clone(),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The fused head equals the four-op chain bit for bit, value
        /// and gradients, on random shapes and masks with empty, full
        /// and random rows, and on inputs holding ±inf, NaN, signed
        /// zeros and overflowing magnitudes.
        #[test]
        fn prop_masked_attention_matches_the_four_op_chain(
            n in 1usize..14,
            m in 1usize..14,
            d in 1usize..9,
            dv in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
            special in 0usize..3,
            masked in proptest::prelude::any::<bool>(),
            shared in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let special_pct = [0u32, 2, 10][special];
            let specials = [
                f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0, 1e30, -1e30,
            ];
            let draw = |rng: &mut StdRng| {
                if rng.gen_range(0u32..100) < special_pct {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-3.0f32..3.0)
                }
            };
            let (m, dv) = if shared { (n, d) } else { (m, dv) };
            let mat = |r: usize, c: usize, rng: &mut StdRng| {
                Matrix::from_vec(r, c, (0..r * c).map(|_| draw(rng)).collect())
            };
            let q = mat(n, d, &mut rng);
            let k = mat(m, d, &mut rng);
            let v = mat(m, dv, &mut rng);
            let g = rand_matrix(&mut rng, n, dv);
            let pattern: Vec<bool> = (0..n)
                .flat_map(|_| {
                    let mode = rng.gen_range(0u32..10);
                    let density = rng.gen_range(0.0f64..1.0);
                    (0..m)
                        .map(|_| match mode {
                            0 => false,
                            1 => true,
                            _ => rng.gen_bool(density),
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let allowed = AllowedColumns::from_fn(n, m, |i, j| !masked || pattern[i * m + j]);
            let scale = 1.0 / (d as f32).sqrt();
            let inputs = (&q, &k, &v);
            let fused = attention_head(true, shared, inputs, &allowed, scale, &g);
            let chain = attention_head(false, shared, inputs, &allowed, scale, &g);
            for (what, (a, b)) in ["value", "dq", "dk", "dv"].iter().zip(fused.iter().zip(&chain)) {
                proptest::prop_assert!(same_bits(a, b), "{} differs:\nfused {:?}\nchain {:?}", what, a, b);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// The fused head equals the four-op chain bit for bit where
        /// only masked logits overflow: some query rows and key rows
        /// carry one entry near ±1e19 in a shared "hot" feature, so a
        /// hot row's logit against a hot key overflows to ±inf. Hot rows
        /// mask every hot key (with `leak`, a few stay allowed), cold
        /// rows draw random masks including empty rows, and with
        /// `masked` false every column is allowed.
        #[test]
        fn prop_masked_attention_with_overflowing_masked_logits_matches_the_chain(
            n in 1usize..12,
            m in 1usize..12,
            d in 1usize..6,
            seed in proptest::prelude::any::<u64>(),
            masked in proptest::prelude::any::<bool>(),
            leak in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let hot_feature = rng.gen_range(0..d);
            let huge = |rng: &mut StdRng| {
                let h = rng.gen_range(1e19f32..4e19);
                if rng.gen_bool(0.5) { h } else { -h }
            };
            let hot_q: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let hot_k: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.5)).collect();
            let mut q = rand_matrix(&mut rng, n, d);
            let mut k = rand_matrix(&mut rng, m, d);
            for i in (0..n).filter(|&i| hot_q[i]) {
                q.set(i, hot_feature, huge(&mut rng));
            }
            for j in (0..m).filter(|&j| hot_k[j]) {
                k.set(j, hot_feature, huge(&mut rng));
            }
            let v = rand_matrix(&mut rng, m, 3);
            let g = rand_matrix(&mut rng, n, 3);
            let pattern: Vec<bool> = (0..n)
                .flat_map(|i| {
                    let empty = rng.gen_bool(0.2);
                    (0..m)
                        .map(|j| {
                            if hot_q[i] && hot_k[j] {
                                leak && rng.gen_bool(0.2)
                            } else {
                                !empty && rng.gen_bool(0.6)
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let allowed = AllowedColumns::from_fn(n, m, |i, j| !masked || pattern[i * m + j]);
            let scale = 1.0 / (d as f32).sqrt();
            let inputs = (&q, &k, &v);
            let fused = attention_head(true, false, inputs, &allowed, scale, &g);
            let chain = attention_head(false, false, inputs, &allowed, scale, &g);
            for (what, (a, b)) in ["value", "dq", "dk", "dv"].iter().zip(fused.iter().zip(&chain)) {
                proptest::prop_assert!(same_bits(a, b), "{} differs:\nfused {:?}\nchain {:?}", what, a, b);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        /// The fused head equals the four-op chain bit for bit on the
        /// edges of the row-block kernels: head widths 1..=17 (lane
        /// blocks of 8, 4, 2 and 1), at least 40 query rows (a partial
        /// 32-row block and partial 4-row groups), rows the backward's
        /// guard sends to the reference rules (adjoint rows or value
        /// entries near `f32::MAX`, NaN adjoint rows, NaN probability
        /// rows from a non-finite query), and shared `q = k = v`.
        #[test]
        fn prop_masked_attention_on_kernel_edges_matches_the_chain(
            n in 40usize..90,
            m in 1usize..90,
            d in 1usize..18,
            dv in 1usize..18,
            seed in proptest::prelude::any::<u64>(),
            hazard in 0usize..5,
            shared in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (m, dv) = if shared { (n, d) } else { (m, dv) };
            let mut q = rand_matrix(&mut rng, n, d);
            let mut k = rand_matrix(&mut rng, m, d);
            let mut v = rand_matrix(&mut rng, m, dv);
            let mut g = rand_matrix(&mut rng, n, dv);
            let rows: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.15)).collect();
            match hazard {
                // adjoint rows whose |g|₁ · max|v| passes f32::MAX / 4
                1 => {
                    for &i in &rows {
                        g.set(i, rng.gen_range(0..dv), rng.gen_range(1e38f32..3e38));
                    }
                }
                // one value entry near f32::MAX: every row fails the guard
                2 => v.set(rng.gen_range(0..m), rng.gen_range(0..dv), -3e38),
                3 => {
                    for &i in &rows {
                        g.set(i, rng.gen_range(0..dv), f32::NAN);
                    }
                }
                // a non-finite query entry: that row's probabilities are
                // NaN (or, with shared inputs, the key and value too)
                4 => {
                    for &i in &rows {
                        q.set(i, rng.gen_range(0..d), [f32::NAN, f32::INFINITY][i % 2]);
                    }
                }
                _ => {}
            }
            if shared {
                k = q.clone();
                v = q.clone();
            }
            let pattern: Vec<bool> = (0..n)
                .flat_map(|_| {
                    let mode = rng.gen_range(0u32..8);
                    let density = rng.gen_range(0.0f64..1.0);
                    (0..m)
                        .map(|_| match mode {
                            0 => false,
                            1 => true,
                            _ => rng.gen_bool(density),
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let allowed = AllowedColumns::from_fn(n, m, |i, j| pattern[i * m + j]);
            let scale = 1.0 / (d as f32).sqrt();
            let inputs = (&q, &k, &v);
            let fused = attention_head(true, shared, inputs, &allowed, scale, &g);
            let chain = attention_head(false, shared, inputs, &allowed, scale, &g);
            for (what, (a, b)) in ["value", "dq", "dk", "dv"].iter().zip(fused.iter().zip(&chain)) {
                proptest::prop_assert!(same_bits(a, b), "{} differs:\nfused {:?}\nchain {:?}", what, a, b);
            }
        }
    }

    #[test]
    fn masked_attention_rows_with_non_finite_logits_follow_the_chain() {
        // row 0: finite; row 1: a masked logit overflowing to +inf (a
        // NaN row in the chain); row 2: only masked columns; row 3: the
        // one allowed logit overflows to −inf (a zero row)
        let q = Matrix::from_vec(4, 1, vec![1.0, 1e10, 1.0, -1e10]);
        let k = Matrix::from_vec(3, 1, vec![0.5, 1e30, -0.25]);
        let v = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let pattern = [
            [true, false, true],
            [true, false, true],
            [false; 3],
            [false, true, false],
        ];
        let allowed = AllowedColumns::from_fn(4, 3, |i, j| pattern[i][j]);
        let g = Matrix::full(4, 2, 1.0);
        let fused = attention_head(true, false, (&q, &k, &v), &allowed, 1.0, &g);
        let chain = attention_head(false, false, (&q, &k, &v), &allowed, 1.0, &g);
        for (a, b) in fused.iter().zip(&chain) {
            assert!(same_bits(a, b), "fused {a:?}\nchain {b:?}");
        }
        let ctx = &fused[0];
        assert!(ctx.row(0).iter().all(|x| x.is_finite()));
        assert!(
            ctx.row(1).iter().all(|x| x.is_nan()),
            "masked +inf poisons the row"
        );
        assert_eq!(ctx.row(2), &[0.0, 0.0]);
        assert_eq!(ctx.row(3), &[0.0, 0.0]);
    }

    /// A reused (reset) tape computes bit-identical forwards/backwards
    /// and stops allocating once the pool is warm.
    #[test]
    fn reset_tape_reuses_buffers_and_matches_fresh() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.add(rand_matrix(&mut rng, 4, 4));
        let b = store.add(rand_matrix(&mut rng, 1, 4));
        let x = rand_matrix(&mut rng, 3, 4);

        let run = |tape: &mut Tape, store: &mut ParamStore| {
            store.zero_grads();
            let xv = tape.constant_ref(&x);
            let wv = tape.param(store, w);
            let bv = tape.param(store, b);
            let h = tape.matmul(xv, wv);
            let h = tape.add_row(h, bv);
            let h = tape.relu(h);
            let pooled = tape.sum_rows(h);
            let ones = tape.constant_ref(&Matrix::full(1, 4, 1.0));
            let out = tape.matmul_nt(pooled, ones);
            let val = tape.value(out).get(0, 0);
            tape.backward(out, Matrix::full(1, 1, 1.0), store);
            (val, store.grad(w).clone(), store.grad(b).clone())
        };

        let mut fresh = Tape::new();
        let want = run(&mut fresh, &mut store);

        let mut reused = Tape::new();
        let mut last = None;
        for _ in 0..3 {
            reused.reset();
            last = Some(run(&mut reused, &mut store));
        }
        assert_eq!(last.unwrap(), want, "reused tape diverged from fresh");
        let stats = reused.pool_stats();
        assert!(
            stats.hits > stats.misses,
            "pool should serve most requests after warmup: {stats:?}"
        );
    }
}
