//! What a serve tape keeps between queries. The pool hands each request
//! the smallest parked buffer that holds it, and a miss drops the
//! largest parked one, so after a thread has predicted every window of
//! the scaled GPT-3 its pool holds about one forward's buffers, sized
//! for the largest stage, rather than a set per stage size. DAGRA
//! attention must not add an `n × n` set: its share is the compact
//! probabilities (one float per allowed entry and head) and one block
//! of logit rows.

use std::collections::BTreeMap;

use predtop_gnn::dag_transformer::{DagTransformer, TransformerConfig};
use predtop_gnn::{with_serve_tape, GnnModel, GraphSample};
use predtop_models::{enumerate_stages, ModelSpec};
use predtop_tensor::attention::BLOCK_ROWS;

/// The scaled GPT-3 of the plan-search use case.
fn scaled_gpt3() -> ModelSpec {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 128;
    model.hidden = 128;
    model.num_heads = 8;
    model.vocab = 2048;
    model.num_layers = 8;
    model
}

#[test]
fn a_serve_tape_parks_no_dense_attention_buffers() {
    // the use case's predictor: 1 layer × 16, 2 heads
    let config = TransformerConfig {
        num_layers: 1,
        dim: 16,
        heads: 2,
        use_dagra: true,
        use_dagpe: true,
    };
    let net = DagTransformer::new(config, 3);
    // a fresh thread, so a fresh serve tape
    let (parked, sizes) = std::thread::spawn(move || {
        // node count → allowed entries of every window of that size
        let mut sizes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for stage in enumerate_stages(scaled_gpt3()) {
            let s = GraphSample::new(&stage.build_graph(), 1e-3, config.dim);
            with_serve_tape(|tape| {
                let out = net.forward(tape, &s);
                assert!(tape.value(out).get(0, 0).is_finite());
            });
            let counts = sizes.entry(s.num_nodes()).or_default();
            if !counts.contains(&s.dag_allowed.count()) {
                counts.push(s.dag_allowed.count());
            }
        }
        (with_serve_tape(|tape| tape.pool_parked_floats()), sizes)
    })
    .join()
    .unwrap();
    let heads = config.num_layers * config.heads;
    // one forward at n nodes: its matrices of n rows (fewer than 44 of
    // width `dim`, the input features included), a block of logit rows,
    // and the compact probabilities of every head
    let one_set =
        |n: usize, counts: &[usize]| (44 * config.dim + BLOCK_ROWS) * n + heads * counts[0];
    let (&n_max, largest) = sizes.last_key_value().expect("36 windows");
    assert_eq!(largest.len(), 1, "one mask per size");
    let bound = one_set(n_max, largest);
    // best fit may serve a request of the largest forward from a buffer
    // an earlier, smaller forward sized for a larger role: a quarter of
    // slack over the one set
    assert!(
        parked <= bound + bound / 4,
        "{parked} floats parked, one set for n = {n_max} is {bound}"
    );
    // a set per stage size would not fit, and neither would a dense
    // probability matrix per head plus the logits
    let per_size: usize = sizes.iter().map(|(&n, counts)| one_set(n, counts)).sum();
    assert!(bound + bound / 4 < per_size);
    assert!(bound < (heads + 1) * n_max * n_max);
}
