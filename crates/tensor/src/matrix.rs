//! Dense row-major f32 matrices with the handful of kernels GNN training
//! needs.
//!
//! # Kernel design
//!
//! The three matmul variants (`A·B`, `A·Bᵀ`, `Aᵀ·B`) dispatch into the
//! register-tiled, panel-packed GEMM driver in [`crate::kernel`]: the
//! active `B` panel is packed once into tile-major scratch and reused
//! across the whole output row sweep, full output tiles run in a
//! runtime-selected SIMD micro-kernel (AVX-512 8×32 / AVX2 4×16 /
//! scalar 4×8), and parallel runs fan a deterministic 2-D tile grid out
//! over `predtop-runtime` workers. Every optimization preserves the
//! *per-output-element accumulation order* of the naive reference
//! kernels ([`Matrix::matmul_ref`] et al.): each element's reduction
//! over `p` stays one ascending chain (accumulators continue from `out`
//! across panels, never restart as partial sums), SIMD lanes run across
//! output columns with per-lane IEEE mul/add (no FMA contraction), and
//! the references' skip-zero behaviour is kept as a branch. The fast
//! kernels are therefore **bit-identical** to the references at every
//! ISA tier and thread count (proptested below) — which is what lets
//! the training loop parallelize without losing reproducibility.
//!
//! Above `PAR_MIN_MULADDS` multiply-adds the kernels fan the 2-D tile
//! grid out over `predtop_runtime::par_tiles`; each tile is computed by
//! the same serial driver, so results stay bit-identical at any thread
//! count. A kernel called from inside a pool worker runs on that worker
//! alone (one untiled region), like every nested map.

use std::ops::Range;

use crate::kernel::{self, Variant};

/// Minimum multiply-add count (`m·k·n`) before a kernel fans output
/// tiles out over worker threads; below this the spawn cost dominates.
const PAR_MIN_MULADDS: usize = 1 << 20;

/// A dense row-major `rows × cols` matrix of f32.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a row-major vec.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its backing allocation (buffer-pool
    /// recycling).
    #[inline]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape to `rows × cols` and zero-fill, reusing the backing
    /// allocation when it is large enough (destination-reuse for the
    /// `*_into` kernels and the tape buffer pool).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copy `src`'s shape and contents into `self`, reusing the backing
    /// allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// `self · other` into a fresh matrix. See [`Matrix::matmul_into`].
    ///
    /// ```
    /// use predtop_tensor::Matrix;
    /// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    /// let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
    /// assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    /// ```
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` written into `out` (reshaped + zeroed in place).
    ///
    /// Register-tiled over packed `B` panels (see [`crate::kernel`]);
    /// bit-identical to [`Matrix::matmul_ref`].
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reset(m, n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        kernel::gemm(
            Variant::Mm,
            &self.data,
            &other.data,
            &mut out.data,
            m,
            k,
            n,
            par_threads(m, k, n),
            kernel::active_isa(),
        );
    }

    /// `self · otherᵀ` into a fresh matrix (attention `Q·Kᵀ`). See
    /// [`Matrix::matmul_nt_into`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into `out`, without materializing the
    /// transpose.
    ///
    /// The packing stage gathers `other`'s rows into column-lane tiles
    /// (so SIMD lanes still run across output columns while the
    /// reduction stays a sequential scalar walk); each output element
    /// remains one sequential dot product over `p`, so the result is
    /// bit-identical to [`Matrix::matmul_nt_ref`].
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_nt_rows_into(0..self.rows, other, out);
    }

    /// Rows `rows` of `self · otherᵀ` written into `out` (reshaped to
    /// `rows.len() × other.rows()` and zeroed): every element is the
    /// same sequential dot product [`Matrix::matmul_nt_into`] computes.
    ///
    /// # Panics
    /// Panics if the column counts differ or `rows` runs past `self`.
    pub(crate) fn matmul_nt_rows_into(&self, rows: Range<usize>, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        assert!(rows.end <= self.rows, "rows {rows:?} of {}", self.rows);
        let (m, k, n) = (rows.len(), self.cols, other.rows);
        out.reset(m, n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        kernel::gemm(
            Variant::Nt,
            &self.data[rows.start * k..rows.end * k],
            &other.data,
            &mut out.data,
            m,
            k,
            n,
            par_threads(m, k, n),
            kernel::active_isa(),
        );
    }

    /// `selfᵀ · other` into a fresh matrix (matmul backward). See
    /// [`Matrix::matmul_tn_into`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `selfᵀ · other` written into `out`, without materializing the
    /// transpose.
    ///
    /// The driver reads `self` column-wise (stride-`cols` along the
    /// reduction) while `other` is packed exactly like the plain
    /// matmul's `B`; the `p` reduction stays ascending with the
    /// reference's skip-zero behaviour, so the result is bit-identical
    /// to [`Matrix::matmul_tn_ref`].
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let (m, k, n) = (self.cols, self.rows, other.cols);
        out.reset(m, n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        kernel::gemm(
            Variant::Tn,
            &self.data,
            &other.data,
            &mut out.data,
            m,
            k,
            n,
            par_threads(m, k, n),
            kernel::active_isa(),
        );
    }

    /// Reference `self · other`: the naive ikj kernel the blocked
    /// [`Matrix::matmul`] must match bit-for-bit (kept for the
    /// determinism proptests and kernel benchmarks).
    pub fn matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            let o_row = &mut out.data[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue; // adjacency/mask matrices are sparse in 0s
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference `self · otherᵀ`: one sequential dot product per output
    /// element (see [`Matrix::matmul_ref`] for why it is kept).
    pub fn matmul_nt_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            for j in 0..n {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_row[p] * b_row[p];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Reference `selfᵀ · other` (see [`Matrix::matmul_ref`] for why it
    /// is kept).
    pub fn matmul_tn_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            let a_row = self.row(p);
            let b_row = other.row(p);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += s * other`.
    pub fn add_scaled(&mut self, other: &Matrix, s: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Elementwise `self * other` (Hadamard).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self *= other` (Hadamard).
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Scaled copy `s * self`.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// In-place `self *= s`.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Fill with zeros (reuse allocation).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }
}

/// Worker count for an `m·k·n` multiply-add kernel: 1 below the
/// parallelism threshold or inside a pool worker (whose pool already
/// occupies the cores), else the configured thread count capped at the
/// output row count.
fn par_threads(m: usize, k: usize, n: usize) -> usize {
    if m.saturating_mul(k).saturating_mul(n) < PAR_MIN_MULADDS
        || m < 2
        || predtop_runtime::in_worker()
    {
        return 1;
    }
    predtop_runtime::configured_threads().min(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_2x2() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_and_reshapes() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let mut out = Matrix::full(5, 7, 9.9); // stale shape + contents
        a.matmul_into(&b, &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 2));
        assert_eq!(out, a.matmul_ref(&b));
        // second reuse with a different shape
        let c = m(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        b.matmul_into(&c, &mut out);
        assert_eq!((out.rows(), out.cols()), (3, 2));
        assert_eq!(out, b.matmul_ref(&c));
    }

    #[test]
    fn reset_reshapes_and_zeros() {
        let mut a = Matrix::full(3, 3, 7.0);
        a.reset(2, 4);
        assert_eq!((a.rows(), a.cols()), (2, 4));
        assert!(a.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[3.0, 4.5, 6.0]);
        let mut h = a.clone();
        h.hadamard_assign(&b);
        assert_eq!(h.data(), &[4.0, 10.0, 18.0]);
        let mut s = a.clone();
        s.scale_assign(2.0);
        assert_eq!(s.data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.sum(), 6.0);
    }

    /// Random matrix with explicit zeros mixed in (small magnitudes are
    /// flushed to 0) so the skip-zero paths of `matmul`/`matmul_tn` are
    /// exercised.
    fn arb_matrix_zeros(max_dim: usize) -> impl Strategy<Value = Matrix> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-4.0f32..4.0, r * c).prop_map(move |v| {
                let v = v
                    .into_iter()
                    .map(|x| if x.abs() < 1.0 { 0.0 } else { x })
                    .collect();
                Matrix::from_vec(r, c, v)
            })
        })
    }

    fn pair_matrix(rng_seed: u64, rows: usize, cols: usize) -> Matrix {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(rng_seed);
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Blocked kernels are bit-identical to the naive references on
        /// random shapes spanning the MC/KC/NT_JB block boundaries.
        #[test]
        fn prop_blocked_kernels_match_reference_exactly(
            a in arb_matrix_zeros(40),
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..40);
            let b_mm = pair_matrix(seed ^ 1, a.cols(), n);
            prop_assert_eq!(a.matmul(&b_mm), a.matmul_ref(&b_mm));
            let b_nt = pair_matrix(seed ^ 2, n, a.cols());
            prop_assert_eq!(a.matmul_nt(&b_nt), a.matmul_nt_ref(&b_nt));
            let b_tn = pair_matrix(seed ^ 3, a.rows(), n);
            prop_assert_eq!(a.matmul_tn(&b_tn), a.matmul_tn_ref(&b_tn));
        }

        #[test]
        fn prop_matmul_nt_matches_explicit_transpose(
            a in arb_matrix_zeros(8),
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..8);
            let b = Matrix::from_vec(n, a.cols(), (0..n * a.cols()).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
            let fast = a.matmul_nt(&b);
            let slow = a.matmul(&b.transpose());
            for (x, y) in fast.data().iter().zip(slow.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_matmul_tn_matches_explicit_transpose(
            a in arb_matrix_zeros(8),
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..8);
            let b = Matrix::from_vec(a.rows(), n, (0..a.rows() * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
            let fast = a.matmul_tn(&b);
            let slow = a.transpose().matmul(&b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_matmul_identity(a in arb_matrix_zeros(8)) {
            let mut eye = Matrix::zeros(a.cols(), a.cols());
            for i in 0..a.cols() {
                eye.set(i, i, 1.0);
            }
            let prod = a.matmul(&eye);
            prop_assert_eq!(prod, a);
        }

        #[test]
        fn prop_add_commutes(a in arb_matrix_zeros(6), seed in any::<u64>()) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let b = Matrix::from_vec(a.rows(), a.cols(),
                (0..a.rows() * a.cols()).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
            prop_assert_eq!(a.add(&b), b.add(&a));
        }
    }

    /// Drive all three kernel variants at an explicit ISA tier and
    /// thread count (bypassing auto-detection and the parallelism
    /// threshold) and compare bitwise against the references.
    fn assert_kernels_exact(m: usize, k: usize, n: usize, seed: u64) {
        for isa in kernel::available_isas() {
            for threads in [1usize, 4, 8] {
                let ctx = format!("{m}x{k}x{n} isa={} threads={threads}", isa.name());

                let a = pair_matrix(seed ^ 1, m, k);
                let b = pair_matrix(seed ^ 2, k, n);
                let mut out = Matrix::zeros(m, n);
                kernel::gemm(
                    Variant::Mm,
                    a.data(),
                    b.data(),
                    out.data_mut(),
                    m,
                    k,
                    n,
                    threads,
                    isa,
                );
                assert_eq!(out, a.matmul_ref(&b), "matmul diverged at {ctx}");

                let bt = pair_matrix(seed ^ 3, n, k);
                let mut out = Matrix::zeros(m, n);
                kernel::gemm(
                    Variant::Nt,
                    a.data(),
                    bt.data(),
                    out.data_mut(),
                    m,
                    k,
                    n,
                    threads,
                    isa,
                );
                assert_eq!(out, a.matmul_nt_ref(&bt), "matmul_nt diverged at {ctx}");

                let at = pair_matrix(seed ^ 4, k, m);
                let b2 = pair_matrix(seed ^ 5, k, n);
                let mut out = Matrix::zeros(m, n);
                kernel::gemm(
                    Variant::Tn,
                    at.data(),
                    b2.data(),
                    out.data_mut(),
                    m,
                    k,
                    n,
                    threads,
                    isa,
                );
                assert_eq!(out, at.matmul_tn_ref(&b2), "matmul_tn diverged at {ctx}");
            }
        }
    }

    /// Ragged, non-square shapes — `m`, `k`, `n` coprime with the
    /// micro-kernel tiles (4/8 rows, 8/16/32 lanes) and the KC=256 /
    /// NC=512 panel sizes — stay bit-exact for every variant at every
    /// available ISA tier and 1/4/8 threads. Includes `1×k×1`,
    /// tall-skinny, wide-flat, and `k > KC` chain-continuation cases.
    #[test]
    fn ragged_shapes_exact_across_isas_and_threads() {
        let shapes: &[(usize, usize, usize)] = &[
            (1, 1, 1),
            (1, 97, 1),    // 1×k×1
            (1, 257, 1),   // 1×k×1 across the KC=256 panel boundary
            (263, 1, 1),   // tall-skinny degenerate
            (1, 1, 263),   // wide-flat degenerate
            (37, 41, 43),  // all dims coprime with every tile size
            (129, 67, 3),  // tall, narrower than every SIMD lane count
            (3, 67, 129),  // short-and-wide (exercises column strips)
            (61, 259, 67), // reduction spans two KC panels mid-panel
            (517, 7, 5),   // tall-skinny
            (5, 7, 517),   // wide-flat past NC=512
            (47, 53, 50),  // width between one and two 32-lane tiles
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            assert_kernels_exact(m, k, n, 0xc0ffee ^ (i as u64) << 8);
        }
    }

    /// The 2-D tile grid (row panels × column strips) produces the same
    /// bits as a serial run even when columns split — the case the old
    /// 1-D row-panel fan-out never exercised.
    #[test]
    fn column_split_tiles_match_serial() {
        // 8 rows × 96 cols with 8 threads forces grid_cols > 1
        let grid = predtop_runtime::tile_grid(8, 96, 8, 8, 32);
        assert!(grid.grid_cols > 1, "test must exercise column strips");
        assert_kernels_exact(8, 40, 96, 0xbead);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Randomized ragged-shape exactness across ISA tiers and
        /// thread counts (cases kept small: this multiplies 3 variants
        /// × up to 3 ISAs × 3 thread counts per case).
        #[test]
        fn prop_kernels_exact_on_ragged_shapes(
            m in 1usize..48,
            k in 1usize..48,
            n in 1usize..48,
            seed in any::<u64>(),
        ) {
            assert_kernels_exact(m, k, n, seed);
        }
    }
}
