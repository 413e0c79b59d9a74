//! Pipeline stage slicing and sampling (§IV-B1, §VI).
//!
//! Alpa's inter-operator pass considers every contiguous layer range of
//! the model as a stage candidate; the first range additionally carries
//! the embedding and the last the LM head. PredTOP's profiling phase
//! draws a random, size-diverse subset of these candidates and profiles
//! only those ("we include the stages of different sizes to make our
//! model more general").

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use predtop_ir::Graph;

use crate::layers::{Emitter, ACT};
use crate::spec::ModelSpec;

/// A pipeline-stage candidate: layers `start..end` of `model`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageSpec {
    /// Model the stage is sliced from.
    pub model: ModelSpec,
    /// First layer (inclusive, 0-based).
    pub start: usize,
    /// One past the last layer.
    pub end: usize,
}

impl StageSpec {
    /// Create a stage for layers `start..end`.
    ///
    /// # Panics
    /// Panics on an empty or out-of-range layer window.
    pub fn new(model: ModelSpec, start: usize, end: usize) -> StageSpec {
        assert!(start < end, "empty stage {start}..{end}");
        assert!(end <= model.num_layers, "stage {start}..{end} out of range");
        StageSpec { model, start, end }
    }

    /// Number of transformer layers in the stage.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.end - self.start
    }

    /// Does this stage carry the token/positional embedding?
    #[inline]
    pub fn has_embedding(&self) -> bool {
        self.start == 0
    }

    /// Does this stage carry the LM head and loss?
    #[inline]
    pub fn has_head(&self) -> bool {
        self.end == self.model.num_layers
    }

    /// Fraction of the model's layers contained in this stage.
    pub fn size_fraction(&self) -> f64 {
        self.num_layers() as f64 / self.model.num_layers as f64
    }

    /// Stable identifier string, e.g. `"GPT-3[4..8)"`.
    pub fn label(&self) -> String {
        format!("{}[{}..{})", self.model.kind.name(), self.start, self.end)
    }

    /// Emit the tensor-level operator graph of this stage (un-pruned; run
    /// [`predtop_ir::prune::prune`] before feeding predictors).
    pub fn build_graph(&self) -> Graph {
        let mut e = Emitter::new(self.model);
        let mut x = if self.has_embedding() {
            e.embedding()
        } else {
            e.b.input([self.model.tokens(), self.model.hidden], ACT)
        };
        for layer in self.start..self.end {
            x = e.transformer_layer(x, layer);
        }
        let out = if self.has_head() { e.lm_head(x) } else { x };
        e.finish(&[out])
    }
}

/// Enumerate every contiguous stage candidate of `model`, in
/// (start, length) lexicographic order — `L·(L+1)/2` candidates for an
/// `L`-layer model. This is the full set Alpa would profile.
pub fn enumerate_stages(model: ModelSpec) -> Vec<StageSpec> {
    let l = model.num_layers;
    let mut out = Vec::with_capacity(l * (l + 1) / 2);
    for start in 0..l {
        for end in start + 1..=l {
            out.push(StageSpec::new(model, start, end));
        }
    }
    out
}

/// Randomly sample `n` distinct stage candidates with layer count at most
/// `max_len` (§IV-B1's size-diverse random subset). Sampling is uniform
/// over the eligible candidates; pass `max_len = model.num_layers` for no
/// length cap. Returns fewer than `n` if the pool is smaller.
pub fn sample_stages(model: ModelSpec, n: usize, max_len: usize, seed: u64) -> Vec<StageSpec> {
    let mut pool: Vec<StageSpec> = enumerate_stages(model)
        .into_iter()
        .filter(|s| s.num_layers() <= max_len)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    pool.truncate(n);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_ir::prune::prune;

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 32;
        s.hidden = 16;
        s.num_heads = 2;
        s.vocab = 64;
        s.num_layers = 4;
        s
    }

    #[test]
    fn enumeration_counts_all_ranges() {
        let m = tiny_model();
        let all = enumerate_stages(m);
        assert_eq!(all.len(), 4 * 5 / 2);
        // the full benchmark models match the paper's stage-pool sizes:
        // GPT-3 (24 layers) -> 300 candidates, MoE (32) -> 528; the paper
        // profiled 409 and 205 stages respectively, i.e. subsets of these
        // pools (plus replicate-configuration variants).
        assert_eq!(enumerate_stages(ModelSpec::gpt3_1p3b(8)).len(), 300);
        assert_eq!(enumerate_stages(ModelSpec::moe_2p6b(8)).len(), 528);
    }

    #[test]
    fn stage_graph_scales_with_layers() {
        let m = tiny_model();
        let g1 = StageSpec::new(m, 1, 2).build_graph();
        let g2 = StageSpec::new(m, 1, 3).build_graph();
        assert!(g2.len() > g1.len());
        assert!(g2.total_flops() > g1.total_flops());
    }

    #[test]
    fn first_stage_has_embedding_last_has_head() {
        let m = tiny_model();
        let first = StageSpec::new(m, 0, 1);
        let mid = StageSpec::new(m, 1, 2);
        let last = StageSpec::new(m, 3, 4);
        assert!(first.has_embedding() && !first.has_head());
        assert!(!mid.has_embedding() && !mid.has_head());
        assert!(last.has_head());
        // embedding stage has an i32 token input; middle stage does not
        use predtop_ir::{DType, NodeKind};
        let g_first = first.build_graph();
        assert!(g_first
            .nodes()
            .iter()
            .any(|n| n.kind == NodeKind::Input && n.dtype == DType::I32));
        let g_last = last.build_graph();
        let out = g_last.outputs().next().unwrap();
        assert_eq!(g_last.node(out).shape.num_elements(), 1, "loss is scalar");
    }

    #[test]
    fn sampling_is_deterministic_and_respects_cap() {
        let m = tiny_model();
        let a = sample_stages(m, 5, 2, 42);
        let b = sample_stages(m, 5, 2, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|s| s.num_layers() <= 2));
        assert_eq!(a.len(), 5);
        let c = sample_stages(m, 5, 2, 43);
        assert_ne!(a, c, "different seeds give different samples");
    }

    #[test]
    fn sampling_truncates_to_pool() {
        let m = tiny_model();
        let s = sample_stages(m, 1000, 1, 7);
        assert_eq!(s.len(), 4, "only 4 single-layer stages exist");
    }

    #[test]
    fn emitted_graphs_pass_the_semantic_lint() {
        use predtop_ir::verify::verify;
        // every stage shape of both benchmark families must be clean
        let gpt = tiny_model();
        for stage in enumerate_stages(gpt) {
            let g = stage.build_graph();
            let v = verify(&g);
            assert!(
                v.is_empty(),
                "{}: {:?}",
                stage.label(),
                &v[..v.len().min(3)]
            );
            // and stay clean after pruning
            let (p, _) = prune(&g);
            let vp = verify(&p);
            assert!(
                vp.is_empty(),
                "{} pruned: {:?}",
                stage.label(),
                &vp[..vp.len().min(3)]
            );
        }
        let mut moe = ModelSpec::moe_2p6b(2);
        moe.seq_len = 32;
        moe.hidden = 16;
        moe.num_heads = 2;
        moe.vocab = 64;
        moe.num_layers = 4;
        moe.moe.as_mut().unwrap().expert_hidden = 32;
        for stage in enumerate_stages(moe) {
            let g = stage.build_graph();
            let v = verify(&g);
            assert!(
                v.is_empty(),
                "{}: {:?}",
                stage.label(),
                &v[..v.len().min(3)]
            );
        }
    }

    #[test]
    fn full_model_stage_builds_and_prunes() {
        let m = tiny_model();
        let g = StageSpec::new(m, 0, 4).build_graph();
        g.validate().unwrap();
        let (p, stats) = prune(&g);
        assert!(stats.removed > 0);
        assert!(p.len() < g.len());
        p.validate().unwrap();
    }

    #[test]
    fn interior_stages_of_equal_length_are_isomorphic() {
        // layers [1..3) and [2..4) emit identical programs up to weight
        // identity -> equal structural hashes; boundary stages differ
        let mut m = tiny_model();
        m.num_layers = 6; // keep both slices clear of embedding and head
        let h = |a: usize, b: usize| StageSpec::new(m, a, b).build_graph().structural_hash();
        assert_eq!(h(1, 3), h(2, 4), "isomorphic interior slices");
        assert_ne!(h(0, 2), h(1, 3), "embedding stage differs");
        assert_ne!(h(2, 4), h(2, 3), "length differs");
        assert_ne!(h(4, 6), h(2, 4), "head-bearing stage differs");
    }

    #[test]
    fn moe_stages_have_larger_graphs() {
        let mut gpt = tiny_model();
        gpt.num_layers = 2;
        let mut moe = ModelSpec::moe_2p6b(2);
        moe.seq_len = 32;
        moe.hidden = 16;
        moe.num_heads = 2;
        moe.vocab = 64;
        moe.num_layers = 2;
        moe.moe.as_mut().unwrap().expert_hidden = 32;
        let g_gpt = StageSpec::new(gpt, 0, 2).build_graph();
        let g_moe = StageSpec::new(moe, 0, 2).build_graph();
        assert!(
            g_moe.len() > g_gpt.len(),
            "MoE {} vs GPT {}",
            g_moe.len(),
            g_gpt.len()
        );
    }
}
