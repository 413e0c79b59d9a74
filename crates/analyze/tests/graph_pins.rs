//! Pins on the stage graphs the plan search and the analyzer share.
//!
//! For every distinct stage structure of two search problems (the
//! `usecase-gpt3` benchmark's scaled GPT-3 and the `checked-moe-warm`
//! benchmark's MoE), one digest folds each graph's structural hash,
//! every successor list, the `edges()` order and the pruned graph's
//! structural hash; the node and edge totals are pinned beside it. A
//! change to how a graph stores or orders its edges that any reader
//! could observe moves a digest. The two paper-size `P0501` liveness
//! lines `predtop-lint --models both` prints are pinned too: the peak
//! sweep reads every operand and successor list of a full-model graph.

use std::collections::HashSet;

use predtop_analyze::{GraphPass, LivenessPass};
use predtop_ir::prune::prune;
use predtop_ir::NodeId;
use predtop_models::{enumerate_stages, ModelSpec, StageSpec};
use predtop_parallel::StageStructure;

/// FNV-1a over 64-bit words, local to the test so the pins depend on
/// nothing but the graphs.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What the pins fold over one problem's stage structures.
struct Totals {
    graphs: usize,
    nodes: usize,
    edges: usize,
    digest: u64,
}

/// Every distinct stage structure of `model`, first window of each
/// class in enumeration order, folded into one digest.
fn fold(model: ModelSpec) -> Totals {
    let mut seen = HashSet::new();
    let mut t = Totals {
        graphs: 0,
        nodes: 0,
        edges: 0,
        digest: 0,
    };
    let mut d = Digest::new();
    for stage in enumerate_stages(model) {
        if !seen.insert(StageStructure::of(&stage)) {
            continue;
        }
        let g = stage.build_graph();
        t.graphs += 1;
        t.nodes += g.len();
        t.edges += g.num_edges();
        d.eat(g.structural_hash());
        for i in 0..g.len() {
            let succs = g.succs(NodeId(i as u32));
            d.eat(succs.len() as u64);
            for s in succs {
                d.eat(u64::from(s.0));
            }
        }
        for (src, dst) in g.edges() {
            d.eat(u64::from(src.0) << 32 | u64::from(dst.0));
        }
        d.eat(prune(&g).0.structural_hash());
    }
    t.digest = d.0;
    t
}

/// `usecase-gpt3`'s problem: scaled GPT-3, 8 layers (searched on 2×2).
fn gpt3_model() -> ModelSpec {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 128;
    model.hidden = 128;
    model.num_heads = 8;
    model.vocab = 2048;
    model.num_layers = 8;
    model
}

/// `checked-moe-warm`'s problem: MoE, 16 layers, 4 experts (2×2).
fn moe_model() -> ModelSpec {
    let mut model = ModelSpec::moe_2p6b(4);
    model.seq_len = 32;
    model.hidden = 32;
    model.num_heads = 4;
    model.vocab = 64;
    model.num_layers = 16;
    if let Some(moe) = model.moe.as_mut() {
        moe.num_experts = 4;
    }
    model
}

#[test]
fn gpt3_stage_graphs_are_pinned() {
    let t = fold(gpt3_model());
    assert_eq!(
        (t.graphs, t.nodes, t.edges, t.digest),
        (21, 11_718, 12_842, 0xdbd6_9075_e2e1_df67),
        "GPT-3 stage graphs"
    );
}

#[test]
fn moe_stage_graphs_are_pinned() {
    let t = fold(moe_model());
    assert_eq!(
        (t.graphs, t.nodes, t.edges, t.digest),
        (58, 65_890, 73_144, 0x7ef1_41ee_12fa_1741),
        "MoE stage graphs"
    );
}

/// The `P0501` line of `predtop-lint`'s whole-model graph of `model`.
fn liveness_line(model: ModelSpec) -> String {
    let graph = StageSpec::new(model, 0, model.num_layers).build_graph();
    let diags = LivenessPass.run(&graph);
    assert_eq!(diags.len(), 1);
    diags[0].message.clone()
}

#[test]
fn paper_size_liveness_peaks_are_pinned() {
    let gpt3 = liveness_line(ModelSpec::gpt3_1p3b(8));
    assert!(
        gpt3.contains("376528830464 bytes at point 3219 of 3227"),
        "{gpt3}"
    );
    let moe = liveness_line(ModelSpec::moe_2p6b(8));
    assert!(
        moe.contains("247664082944 bytes at point 4643 of 4651"),
        "{moe}"
    );
}
