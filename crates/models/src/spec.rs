//! Benchmark model specifications (Table IV).

/// Which benchmark a spec instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// GPT-3-style dense decoder stack.
    Gpt3,
    /// GShard-style mixture-of-experts stack.
    Moe,
}

impl ModelKind {
    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gpt3 => "GPT-3",
            ModelKind::Moe => "MoE",
        }
    }
}

/// MoE-specific hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoeSpec {
    /// Number of experts (Table IV: 16).
    pub num_experts: usize,
    /// Hidden width of each expert FFN (Table IV "expert hidden": 2048).
    pub expert_hidden: usize,
    /// An MoE FFN replaces the dense FFN every `every` layers (GShard
    /// interleaves: every second layer).
    pub every: usize,
}

/// Hyper-parameters of one benchmark model (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Benchmark identity.
    pub kind: ModelKind,
    /// Micro-batch size fed to one pipeline stage.
    pub batch: usize,
    /// Sequence length (Table IV: 1024 for both).
    pub seq_len: usize,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// FFN expansion factor for dense layers (4× hidden, GPT standard).
    pub ffn_mult: usize,
    /// Present only for MoE models.
    pub moe: Option<MoeSpec>,
}

impl ModelSpec {
    /// The GPT-3 1.3B benchmark of Table IV: sequence 1024, hidden 2048,
    /// 24 layers, 32 heads, vocabulary 51,200.
    pub fn gpt3_1p3b(batch: usize) -> ModelSpec {
        ModelSpec {
            kind: ModelKind::Gpt3,
            batch,
            seq_len: 1024,
            hidden: 2048,
            num_layers: 24,
            num_heads: 32,
            vocab: 51_200,
            ffn_mult: 4,
            moe: None,
        }
    }

    /// The GShard MoE 2.6B benchmark of Table IV: sequence 1024, hidden
    /// 768, 32 layers, 16 heads, vocabulary 32,000, 16 experts with
    /// expert hidden width 2048.
    pub fn moe_2p6b(batch: usize) -> ModelSpec {
        ModelSpec {
            kind: ModelKind::Moe,
            batch,
            seq_len: 1024,
            hidden: 768,
            num_layers: 32,
            num_heads: 16,
            vocab: 32_000,
            ffn_mult: 4,
            moe: Some(MoeSpec {
                num_experts: 16,
                expert_hidden: 2048,
                every: 2,
            }),
        }
    }

    /// Head dimension (`hidden / num_heads`).
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.hidden / self.num_heads
    }

    /// Number of tokens in one micro-batch.
    #[inline]
    pub fn tokens(&self) -> usize {
        self.batch * self.seq_len
    }

    /// Is layer `i` (0-based) an MoE layer?
    pub fn is_moe_layer(&self, i: usize) -> bool {
        match self.moe {
            // GShard convention: odd layers carry the expert FFN.
            Some(m) => (i + 1).is_multiple_of(m.every),
            None => false,
        }
    }

    /// Approximate parameter count, used to check the Table IV "number of
    /// parameters" row and to weight stage-size heuristics.
    pub fn approx_params(&self) -> u64 {
        let h = self.hidden as u64;
        let mut total = (self.vocab as u64) * h; // embedding (tied head)
        total += (self.seq_len as u64) * h; // positional embedding
        for i in 0..self.num_layers {
            // attention: QKV + output projection (+biases, negligible)
            total += 4 * h * h;
            if self.is_moe_layer(i) {
                let m = self.moe.unwrap();
                total += (m.num_experts as u64) * 2 * h * (m.expert_hidden as u64);
                total += h * (m.num_experts as u64); // gate
            } else {
                total += 2 * h * (self.ffn_mult as u64) * h;
            }
            total += 4 * h; // layer-norm scale/bias x2
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_matches_table4() {
        let m = ModelSpec::gpt3_1p3b(8);
        assert_eq!(m.seq_len, 1024);
        assert_eq!(m.hidden, 2048);
        assert_eq!(m.num_layers, 24);
        assert_eq!(m.num_heads, 32);
        assert_eq!(m.vocab, 51_200);
        assert_eq!(m.head_dim(), 64);
        // Table IV says 1.3B parameters; the standard GPT formula should
        // land within 15% of that.
        let p = m.approx_params() as f64;
        assert!((p - 1.3e9).abs() / 1.3e9 < 0.15, "params = {p:.3e}");
    }

    #[test]
    fn moe_matches_table4() {
        let m = ModelSpec::moe_2p6b(8);
        assert_eq!(m.hidden, 768);
        assert_eq!(m.num_layers, 32);
        assert_eq!(m.num_heads, 16);
        assert_eq!(m.vocab, 32_000);
        let moe = m.moe.unwrap();
        assert_eq!(moe.num_experts, 16);
        assert_eq!(moe.expert_hidden, 2048);
        // Table IV reports 2.6B; with the listed widths and the standard
        // GShard every-other-layer convention the raw weight count is
        // ~1.0B (the published figure presumably counts a different
        // expert placement). We pin our own formula as a regression test
        // and require it to be near the 1B mark.
        let p = m.approx_params() as f64;
        assert!(p > 0.8e9 && p < 1.4e9, "params = {p:.3e}");
    }

    #[test]
    fn moe_layers_interleave() {
        let m = ModelSpec::moe_2p6b(8);
        let moe_layers: Vec<usize> = (0..m.num_layers).filter(|&i| m.is_moe_layer(i)).collect();
        assert_eq!(moe_layers.len(), 16);
        assert!(moe_layers.iter().all(|l| l % 2 == 1));
        let g = ModelSpec::gpt3_1p3b(8);
        assert!((0..g.num_layers).all(|i| !g.is_moe_layer(i)));
    }

    #[test]
    fn token_count() {
        assert_eq!(ModelSpec::gpt3_1p3b(4).tokens(), 4096);
    }
}
