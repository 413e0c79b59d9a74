//! The tensor-operator catalog.
//!
//! Each graph node that performs computation carries an [`OpKind`]. The
//! catalog is the set of jaxpr primitives that actually occur in the two
//! benchmark models (GPT-3 and GShard MoE): dense matmuls, elementwise
//! math for GELU / softmax / layer-norm, reductions, data movement, MoE
//! routing primitives (`top_k`, `cumsum`, `scatter_add`), and RNG for
//! dropout.
//!
//! Two classifications live here because every downstream consumer needs
//! them:
//!
//! * [`OpKind::is_prunable`] — bookkeeping ops removed by graph pruning
//!   (§IV-B4): their effect is recoverable from the dtype/shape stored on
//!   neighbouring nodes.
//! * [`OpKind::compute_class`] — coarse roofline class used by the
//!   simulator's per-operator cost model.

/// Coarse computational class of an operator, used by the simulator to
/// pick a roofline regime (peak-FLOP bound vs memory-bandwidth bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeClass {
    /// Dense contractions (`dot_general`): tensor-core / FMA bound.
    Contraction,
    /// Elementwise arithmetic & transcendental ops: bandwidth bound.
    Elementwise,
    /// Reductions along axes: bandwidth bound with lower efficiency.
    Reduction,
    /// Pure data movement / relayout: bandwidth bound, no FLOPs.
    DataMovement,
    /// Index-driven irregular access (gather/scatter/sort): low-efficiency
    /// bandwidth bound.
    Irregular,
    /// Random number generation (dropout masks).
    Rng,
}

/// Tensor-level operator kinds (the jaxpr primitive catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names mirror jaxpr primitive spellings
pub enum OpKind {
    // -- contractions --
    DotGeneral,
    // -- elementwise binary --
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
    Pow,
    Compare,
    Select,
    // -- elementwise unary --
    Neg,
    Exp,
    Log,
    Tanh,
    Erf,
    Logistic,
    Sqrt,
    Rsqrt,
    // -- reductions & scans --
    ReduceSum,
    ReduceMax,
    CumSum,
    // -- data movement / relayout --
    Reshape,
    Transpose,
    BroadcastInDim,
    ConvertElementType,
    Concatenate,
    Slice,
    DynamicSlice,
    Pad,
    Copy,
    StopGradient,
    // -- irregular --
    Gather,
    Scatter,
    ScatterAdd,
    TopK,
    Sort,
    Iota,
    ArgMax,
    OneHot,
    // -- rng --
    RngUniform,
    RngBitGenerator,
}

/// Number of distinct [`OpKind`] variants (width of the operator-type
/// one-hot block in the Table I feature vector).
pub const NUM_OP_KINDS: usize = 41;

impl OpKind {
    /// All operator kinds in one-hot-index order.
    pub const ALL: [OpKind; NUM_OP_KINDS] = [
        OpKind::DotGeneral,
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Max,
        OpKind::Min,
        OpKind::Pow,
        OpKind::Compare,
        OpKind::Select,
        OpKind::Neg,
        OpKind::Exp,
        OpKind::Log,
        OpKind::Tanh,
        OpKind::Erf,
        OpKind::Logistic,
        OpKind::Sqrt,
        OpKind::Rsqrt,
        OpKind::ReduceSum,
        OpKind::ReduceMax,
        OpKind::CumSum,
        OpKind::Reshape,
        OpKind::Transpose,
        OpKind::BroadcastInDim,
        OpKind::ConvertElementType,
        OpKind::Concatenate,
        OpKind::Slice,
        OpKind::DynamicSlice,
        OpKind::Pad,
        OpKind::Copy,
        OpKind::StopGradient,
        OpKind::Gather,
        OpKind::Scatter,
        OpKind::ScatterAdd,
        OpKind::TopK,
        OpKind::Sort,
        OpKind::Iota,
        OpKind::ArgMax,
        OpKind::OneHot,
        OpKind::RngUniform,
        OpKind::RngBitGenerator,
    ];

    /// Stable index of this op inside the Table I one-hot block.
    #[inline]
    pub fn one_hot_index(self) -> usize {
        // ALL is the authoritative order; a linear scan over 40 entries is
        // trivially cheap and keeps the two definitions from drifting.
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("every OpKind is in ALL")
    }

    /// Coarse roofline class for the simulator.
    pub fn compute_class(self) -> ComputeClass {
        use OpKind::*;
        match self {
            DotGeneral => ComputeClass::Contraction,
            Add | Sub | Mul | Div | Max | Min | Pow | Compare | Select | Neg | Exp | Log | Tanh
            | Erf | Logistic | Sqrt | Rsqrt | OneHot => ComputeClass::Elementwise,
            ReduceSum | ReduceMax | CumSum | ArgMax => ComputeClass::Reduction,
            Reshape | Transpose | BroadcastInDim | ConvertElementType | Concatenate | Slice
            | DynamicSlice | Pad | Copy | StopGradient | Iota => ComputeClass::DataMovement,
            Gather | Scatter | ScatterAdd | TopK | Sort => ComputeClass::Irregular,
            RngUniform | RngBitGenerator => ComputeClass::Rng,
        }
    }

    /// Whether graph pruning (§IV-B4) may elide this node.
    ///
    /// The paper names `reshape` and `convert_element_type`: their effect
    /// (shape / dtype change) is recorded on every node anyway, so
    /// removing them loses no information. `copy` and `stop_gradient` are
    /// identity ops in the same category.
    #[inline]
    pub fn is_prunable(self) -> bool {
        matches!(
            self,
            OpKind::Reshape | OpKind::ConvertElementType | OpKind::Copy | OpKind::StopGradient
        )
    }

    /// jaxpr-style lowercase name.
    pub fn name(self) -> &'static str {
        use OpKind::*;
        match self {
            DotGeneral => "dot_general",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Max => "max",
            Min => "min",
            Pow => "pow",
            Compare => "compare",
            Select => "select",
            Neg => "neg",
            Exp => "exp",
            Log => "log",
            Tanh => "tanh",
            Erf => "erf",
            Logistic => "logistic",
            Sqrt => "sqrt",
            Rsqrt => "rsqrt",
            ReduceSum => "reduce_sum",
            ReduceMax => "reduce_max",
            CumSum => "cumsum",
            Reshape => "reshape",
            Transpose => "transpose",
            BroadcastInDim => "broadcast_in_dim",
            ConvertElementType => "convert_element_type",
            Concatenate => "concatenate",
            Slice => "slice",
            DynamicSlice => "dynamic_slice",
            Pad => "pad",
            Copy => "copy",
            StopGradient => "stop_gradient",
            Gather => "gather",
            Scatter => "scatter",
            ScatterAdd => "scatter_add",
            TopK => "top_k",
            Sort => "sort",
            Iota => "iota",
            ArgMax => "argmax",
            OneHot => "one_hot",
            RngUniform => "rng_uniform",
            RngBitGenerator => "rng_bit_generator",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_has_num_op_kinds_unique_entries() {
        let set: HashSet<_> = OpKind::ALL.iter().collect();
        assert_eq!(set.len(), NUM_OP_KINDS);
    }

    #[test]
    fn one_hot_indices_are_dense() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.one_hot_index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let set: HashSet<_> = OpKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(set.len(), NUM_OP_KINDS);
    }

    #[test]
    fn prunable_set_matches_paper() {
        assert!(OpKind::Reshape.is_prunable());
        assert!(OpKind::ConvertElementType.is_prunable());
        assert!(!OpKind::DotGeneral.is_prunable());
        assert!(!OpKind::Transpose.is_prunable());
        // every prunable op is pure data movement
        for k in OpKind::ALL {
            if k.is_prunable() {
                assert_eq!(k.compute_class(), ComputeClass::DataMovement, "{k}");
            }
        }
    }

    #[test]
    fn contraction_is_only_dot_general() {
        for k in OpKind::ALL {
            assert_eq!(
                k.compute_class() == ComputeClass::Contraction,
                k == OpKind::DotGeneral
            );
        }
    }
}
