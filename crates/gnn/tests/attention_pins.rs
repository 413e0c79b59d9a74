//! Prediction and training bits of fixed-seed DAG Transformers on the
//! scaled GPT-3's stage graphs, pinned so that any change to the
//! attention arithmetic (or anything else on the forward and backward
//! path) that moves a single bit fails here.
//!
//! Two widths are pinned: the paper's (4 layers × 64, 4 heads, head
//! width 16) and the scaled one (2 layers × 32, 4 heads, head width 8).
//! The windows run up to `[0, 8)`, whose pruned graph has 1030 nodes.

use predtop_gnn::dag_transformer::{DagTransformer, TransformerConfig};
use predtop_gnn::{GnnModel, GraphSample};
use predtop_models::{ModelSpec, StageSpec};
use predtop_tensor::{Adam, Loss, Matrix, ParamStore, Tape};

/// The scaled GPT-3 of the plan-search use case (8 layers, sequence
/// 128, hidden 128, 8 heads, vocabulary 2048, batch 2).
fn scaled_gpt3() -> ModelSpec {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 128;
    model.hidden = 128;
    model.num_heads = 8;
    model.vocab = 2048;
    model.num_layers = 8;
    model
}

fn sample(start: usize, end: usize, pe_dim: usize) -> GraphSample {
    let graph = StageSpec::new(scaled_gpt3(), start, end).build_graph();
    GraphSample::new(&graph, 1e-3, pe_dim)
}

fn transformer(num_layers: usize, dim: usize, heads: usize) -> DagTransformer {
    let config = TransformerConfig {
        num_layers,
        dim,
        heads,
        use_dagra: true,
        use_dagpe: true,
    };
    DagTransformer::new(config, 11)
}

const WINDOWS: [(usize, usize); 10] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (0, 5),
    (0, 6),
    (0, 7),
    (0, 8),
    (3, 5),
    (7, 8),
];

/// `(window, node count, prediction bits)` of one width.
fn predictions(net: &DagTransformer) -> Vec<((usize, usize), usize, u32)> {
    let dim = net.config().dim;
    WINDOWS
        .iter()
        .map(|&(start, end)| {
            let s = sample(start, end, dim);
            let mut tape = Tape::new();
            let out = net.forward(&mut tape, &s);
            (
                (start, end),
                s.num_nodes(),
                tape.value(out).get(0, 0).to_bits(),
            )
        })
        .collect()
}

fn check(found: &[((usize, usize), usize, u32)], pinned: &[((usize, usize), usize, u32)]) {
    for (f, p) in found.iter().zip(pinned) {
        assert_eq!(f, p, "found {}", literal(found));
    }
    assert_eq!(found.len(), pinned.len(), "found {}", literal(found));
}

fn literal(found: &[((usize, usize), usize, u32)]) -> String {
    found
        .iter()
        .map(|((s, e), n, b)| format!("(({s}, {e}), {n}, {b:#010x}),"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn paper_width_predictions_are_pinned() {
    let found = predictions(&transformer(4, 64, 4));
    check(
        &found,
        &[
            ((0, 1), 136, 0xbeb20cc0),
            ((0, 2), 258, 0xc06fca5e),
            ((0, 3), 380, 0xc0a82343),
            ((0, 4), 502, 0xc085646a),
            ((0, 5), 624, 0xc09d627e),
            ((0, 6), 746, 0xc0c846e9),
            ((0, 7), 868, 0xc0fc2c19),
            ((0, 8), 1030, 0xc1182960),
            ((3, 5), 246, 0xc075b032),
            ((7, 8), 164, 0xbfbbef64),
        ],
    );
}

#[test]
fn scaled_width_predictions_are_pinned() {
    let found = predictions(&transformer(2, 32, 4));
    check(
        &found,
        &[
            ((0, 1), 136, 0x400dcdf7),
            ((0, 2), 258, 0xbef15ec2),
            ((0, 3), 380, 0xc02cac46),
            ((0, 4), 502, 0xc04825d2),
            ((0, 5), 624, 0xc024ea59),
            ((0, 6), 746, 0xc088a610),
            ((0, 7), 868, 0xbfa25a00),
            ((0, 8), 1030, 0xbfc3a0ce),
            ((3, 5), 246, 0xbf48a579),
            ((7, 8), 164, 0x3fc3d846),
        ],
    );
}

/// One forward and backward pass on `s` with the MAE adjoint against a
/// target of 0.5: the prediction and the gradient's fingerprint.
fn forward_backward(net: &mut DagTransformer, s: &GraphSample) -> (f32, u64) {
    let mut tape = Tape::new();
    let out = net.forward(&mut tape, s);
    let pred = tape.value(out).get(0, 0);
    let seed = Matrix::full(1, 1, Loss::Mae.grad(pred, 0.5));
    net.store_mut().zero_grads();
    tape.backward(out, seed, net.store_mut());
    let mut grads = ParamStore::new();
    for p in 0..net.store().len() {
        grads.add(net.store().grad(p).clone());
    }
    (pred, grads.fingerprint())
}

/// One training step on the 368-node window `[1, 4)`: the gradient's
/// and the stepped weights' fingerprints at both widths.
#[test]
fn one_training_step_at_368_nodes_is_pinned() {
    let mut found = Vec::new();
    for (layers, dim, heads) in [(4, 64, 4), (2, 32, 4)] {
        let mut net = transformer(layers, dim, heads);
        let s = sample(1, 4, dim);
        assert_eq!(s.num_nodes(), 368);
        let (_, grads) = forward_backward(&mut net, &s);
        let mut adam = Adam::new(net.store());
        adam.step(net.store_mut(), 1e-3);
        found.push((grads, net.store().fingerprint()));
    }
    let pinned = [
        (0xc5ab_8d4b_c3f1_68f2, 0xac8c_9b6d_5516_a17c),
        (0x768d_7a82_4958_5086, 0x843f_5722_d145_9a29),
    ];
    assert_eq!(found, pinned, "found {found:#x?}");
}

/// The DAGRA ablation (`use_dagra: false`, every node attends to every
/// node) at the scaled width on `[1, 4)`: the prediction's bits and the
/// gradient's fingerprint of one forward and backward pass.
#[test]
fn full_attention_forward_and_backward_are_pinned() {
    let config = TransformerConfig {
        use_dagra: false,
        ..transformer(2, 32, 4).config()
    };
    let mut net = DagTransformer::new(config, 11);
    let (pred, grads) = forward_backward(&mut net, &sample(1, 4, 32));
    let found = (pred.to_bits(), grads);
    assert_eq!(
        found,
        (0x3eb5_9a28, 0xe73b_672f_0f59_147f),
        "found {found:#x?}"
    );
}
