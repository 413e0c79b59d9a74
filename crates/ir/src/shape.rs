//! Tensor shapes.
//!
//! Shapes in the two benchmark models are at most rank 5 (MoE dispatch
//! tensors are `[groups, capacity, experts, model]`-shaped plus a batch
//! axis), so a small inline array avoids a heap allocation per node —
//! stage graphs have thousands of nodes and are built in bulk by the
//! experiment sweeps.

use crate::dtype::DType;

/// Maximum tensor rank representable (and the number of log-scaled
/// dimension slots in the Table I feature vector).
pub const MAX_RANK: usize = 6;

/// A tensor shape: up to [`MAX_RANK`] dimensions stored inline.
///
/// A rank-0 shape is a scalar (one element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [u32; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// A scalar shape (rank 0, one element).
    pub const SCALAR: Shape = Shape {
        dims: [1; MAX_RANK],
        rank: 0,
    };

    /// Build a shape from a slice of dimensions.
    ///
    /// # Panics
    /// Panics if `dims.len() > MAX_RANK` or any dimension is zero —
    /// zero-sized tensors never appear in the benchmark graphs and would
    /// poison the log-scaled features.
    pub fn new(dims: &[usize]) -> Shape {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {}",
            dims.len(),
            MAX_RANK
        );
        let mut out = [1u32; MAX_RANK];
        for (slot, &d) in out.iter_mut().zip(dims) {
            assert!(d > 0, "zero-sized dimension in shape {dims:?}");
            assert!(d <= u32::MAX as usize, "dimension {d} too large");
            *slot = d as u32;
        }
        Shape {
            dims: out,
            rank: dims.len() as u8,
        }
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The dimensions as a slice (length = rank).
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims[..self.rank as usize]
    }

    /// Dimension at `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        assert!(axis < self.rank(), "axis {axis} out of range");
        self.dims[axis] as usize
    }

    /// Total number of elements.
    #[inline]
    pub fn num_elements(&self) -> u64 {
        self.dims().iter().map(|&d| d as u64).product()
    }

    /// Size in bytes when stored with element type `dt`.
    #[inline]
    pub fn size_bytes(&self, dt: DType) -> u64 {
        self.num_elements() * dt.size_bytes() as u64
    }

    /// Returns a new shape with `axis` divided by `parts` (tensor-parallel
    /// sharding of that axis). Returns `None` if the axis is not evenly
    /// divisible.
    pub fn shard_axis(&self, axis: usize, parts: usize) -> Option<Shape> {
        let d = self.dim(axis);
        if parts == 0 || !d.is_multiple_of(parts) {
            return None;
        }
        let mut s = *self;
        s.dims[axis] = (d / parts) as u32;
        Some(s)
    }

    /// Log-scaled dimension features, padded with zeros to [`MAX_RANK`]
    /// slots (§IV-B3: "we apply logarithmic scaling for the tensor
    /// dimension" because raw sizes would dominate the other features).
    ///
    /// Uses `ln(1 + d)` so that padding slots (absent dimensions) encode
    /// exactly 0 and a size-1 dimension encodes `ln 2`, keeping the two
    /// distinguishable.
    pub fn log_features(&self) -> [f32; MAX_RANK] {
        let mut out = [0.0f32; MAX_RANK];
        for (slot, &d) in out.iter_mut().zip(self.dims()) {
            *slot = (1.0 + d as f64).ln() as f32;
        }
        out
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Shape {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Shape {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_has_one_element() {
        assert_eq!(Shape::SCALAR.rank(), 0);
        assert_eq!(Shape::SCALAR.num_elements(), 1);
        assert_eq!(Shape::SCALAR.size_bytes(DType::F32), 4);
    }

    #[test]
    fn num_elements_and_bytes() {
        let s = Shape::new(&[8, 1024, 2048]);
        assert_eq!(s.num_elements(), 8 * 1024 * 2048);
        assert_eq!(s.size_bytes(DType::F16), 2 * 8 * 1024 * 2048);
        assert_eq!(s.to_string(), "[8,1024,2048]");
    }

    #[test]
    fn shard_axis_divides_evenly() {
        let s = Shape::new(&[16, 2048]);
        let sharded = s.shard_axis(1, 4).unwrap();
        assert_eq!(sharded.dims(), &[16, 512]);
        assert!(s.shard_axis(1, 3).is_none());
        assert!(s.shard_axis(0, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        let _ = Shape::new(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn over_rank_rejected() {
        let _ = Shape::new(&[1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn log_features_zero_padded() {
        let s = Shape::new(&[7]);
        let f = s.log_features();
        assert!((f[0] - (8f64.ln() as f32)).abs() < 1e-6);
        assert!(f[1..].iter().all(|&x| x == 0.0));
    }

    proptest! {
        #[test]
        fn prop_num_elements_matches_product(dims in proptest::collection::vec(1usize..64, 0..=MAX_RANK)) {
            let s = Shape::new(&dims);
            let expect: u64 = dims.iter().map(|&d| d as u64).product();
            prop_assert_eq!(s.num_elements(), expect);
            prop_assert_eq!(s.rank(), dims.len());
        }

        #[test]
        fn prop_shard_then_multiply_roundtrips(
            dims in proptest::collection::vec(1usize..32, 1..=MAX_RANK),
            axis_sel in 0usize..MAX_RANK,
            parts in 1usize..8,
        ) {
            let axis = axis_sel % dims.len();
            let mut dims = dims;
            dims[axis] *= parts; // guarantee divisibility
            let s = Shape::new(&dims);
            let sharded = s.shard_axis(axis, parts).unwrap();
            prop_assert_eq!(sharded.num_elements() * parts as u64, s.num_elements());
        }

        #[test]
        fn prop_log_features_monotone_in_dim(d in 1usize..1_000_000) {
            let small = Shape::new(&[d]);
            let big = Shape::new(&[d * 2]);
            prop_assert!(big.log_features()[0] > small.log_features()[0]);
        }
    }
}
