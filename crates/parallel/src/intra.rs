//! Intra-stage optimizer: the reproduction of Alpa's intra-operator pass.
//!
//! Given a stage graph, a mesh shape, and a Table III configuration
//! (`dp`-way data × `mp`-way model parallelism), the optimizer assigns
//! one [`Sharding`] strategy to every node so as to minimize
//!
//! ```text
//!   (Σ node compute under its strategy  +  Σ edge resharding collectives)
//!       · train_factor                        (forward+backward+update)
//!   + gradient all-reduce over the dp group   (once per iteration)
//! ```
//!
//! Alpa solves this assignment with an ILP; we use the standard
//! tree-approximation dynamic program (each node's cost table is built
//! from the min over its predecessors' tables, with a predecessor's cost
//! amortized over its fan-out). The approximation is exact on trees and
//! close on the mostly-series transformer graphs; crucially it is
//! deterministic and cheap, which is what lets "full profiling" sweeps
//! over hundreds of stages run at all.
//!
//! The crate deliberately knows nothing about GPUs: all hardware numbers
//! arrive through the [`OpCost`] trait, implemented by `predtop-sim`.

use predtop_cluster::collective::Collective;
use predtop_ir::{Graph, Node, NodeKind, OpKind};

use crate::config::{MeshShape, ParallelConfig};
use crate::sharding::Sharding;

/// Hardware cost oracle consumed by the optimizer.
pub trait OpCost {
    /// Time (seconds) to execute `node`, which reads `operands` operands
    /// ([`Graph::preds`]), with its arithmetic divided across `ways`
    /// devices (`ways == 1` means the full operator).
    fn op_time(&self, node: &Node, operands: usize, ways: usize) -> f64;

    /// Time (seconds) for a collective moving `bytes` within a
    /// `group`-device group; `cross_node` selects the inter-node fabric.
    fn collective_time(&self, coll: Collective, bytes: u64, group: usize, cross_node: bool) -> f64;

    /// Multiplier converting forward-pass time into one full training
    /// iteration (forward + backward + parameter update). The classic
    /// rule of thumb for transformer training is ~3×.
    fn train_factor(&self) -> f64 {
        3.0
    }
}

/// Result of intra-stage optimization: the chosen strategy per node and
/// the cost breakdown.
#[derive(Debug, Clone)]
pub struct IntraPlan {
    /// Configuration the plan was optimized for.
    pub config: ParallelConfig,
    /// Chosen strategy per node (indexed by `NodeId`).
    pub sharding: Vec<Sharding>,
    /// Per-micro-batch compute time (seconds, forward only).
    pub compute_time: f64,
    /// Per-micro-batch model-parallel communication time (seconds,
    /// forward only).
    pub comm_time: f64,
    /// Once-per-iteration data-parallel gradient synchronization time.
    pub grad_sync_time: f64,
    /// Total training-iteration latency of the stage for one micro-batch
    /// (the quantity the paper's predictors learn).
    pub total: f64,
}

/// Whether the `mp` groups / `dp` groups of `config` on `mesh` span host
/// nodes, under node-major device ordering with mp-consecutive placement
/// (Alpa's layout: tensor-parallel groups packed inside a node whenever
/// they fit).
fn group_spans(mesh: MeshShape, config: ParallelConfig) -> (bool, bool) {
    let per_node = mesh.gpus_per_node;
    let mp_cross = config.mp > per_node;
    // dp replicas are strided by mp; if one node holds fewer than
    // mp*dp devices the dp ring must leave the node.
    let dp_cross = config.num_devices() > per_node && config.dp > 1;
    (mp_cross, dp_cross)
}

/// The most strategies any node has.
const MAX_STRATEGIES: usize = 3;

/// Strategies applicable to a node under `mp`-way model parallelism and
/// the parallel fraction of its compute each gives: the first `len`
/// entries of the returned array, Replicated always first.
fn strategies(node: &Node, mp: usize) -> ([(Sharding, usize); MAX_STRATEGIES], usize) {
    use Sharding::*;
    if mp == 1 {
        return ([(Replicated, 1); MAX_STRATEGIES], 1);
    }
    let opts = match node.kind {
        // sources and sinks carry no compute; replicated and sharded
        // layouts are both available at zero cost
        NodeKind::Input | NodeKind::Literal | NodeKind::Output => {
            [(Replicated, 1), (BatchSharded, 1), (ColSharded, 1)]
        }
        // Contractions under mp-way model parallelism use *tensor*
        // parallelism (column- or row-parallel weights). Batch-sharding a
        // contraction is data parallelism — that axis belongs to the
        // config's dp degree, where its weight-gradient synchronization
        // is priced; offering it here would let the optimizer collect a
        // free mp-way speedup with no gradient all-reduce.
        NodeKind::Operator(OpKind::DotGeneral) => [
            (Replicated, 1),
            (ColSharded, mp), // column-parallel weights
            (PartialSum, mp), // row-parallel weights
        ],
        // everything else is elementwise-like: it can run replicated or
        // follow either sharded layout
        NodeKind::Operator(_) => [(Replicated, 1), (BatchSharded, mp), (ColSharded, mp)],
    };
    (opts, MAX_STRATEGIES)
}

/// The layout a node requires on its *data inputs* given its own output
/// strategy. For contractions this encodes real tensor parallelism:
/// a column-parallel dot (`ColSharded` output) reads a fully replicated
/// activation, a row-parallel dot (`PartialSum` output) reads a
/// column-sharded activation (the Megatron column→row pairing — the only
/// free hand-off), and a replicated dot reads replicated inputs.
/// Elementwise-like ops process whatever layout they emit.
fn required_input(node: &Node, strat: Sharding) -> Sharding {
    match node.kind {
        NodeKind::Operator(OpKind::DotGeneral) => match strat {
            Sharding::Replicated | Sharding::ColSharded => Sharding::Replicated,
            Sharding::PartialSum => Sharding::ColSharded,
            Sharding::BatchSharded => Sharding::BatchSharded,
        },
        _ => strat,
    }
}

/// Total parameter bytes of a stage graph: every floating-point `Input`
/// except the incoming activation (node 0 of a non-embedding stage).
/// These are the bytes the data-parallel gradient all-reduce moves.
pub fn param_bytes(g: &Graph) -> u64 {
    g.nodes()
        .iter()
        .filter(|n| n.kind == NodeKind::Input && n.dtype.is_float())
        .filter(|n| {
            // A non-embedding stage's first node is its activation input
            // [tokens, hidden]; it is not a parameter.
            !(n.id.index() == 0 && n.shape.rank() == 2)
        })
        .map(|n| n.output_bytes())
        .sum()
}

/// One (node, strategy) cell of the DP table: the strategy, its
/// accumulated cost, and the node's own op time under it.
#[derive(Clone, Copy)]
struct Cell {
    strat: Sharding,
    cost: f64,
    op_time: f64,
}

/// Optimize the sharding assignment of `graph` for `config` on `mesh`.
///
/// One flat table holds a `Cell` per (node, strategy), node `v`'s at
/// `cells[offsets[v]..offsets[v + 1]]`, so nothing is allocated per node
/// and each pair's op time is asked of `cost` once: the final costing
/// reads it back from the chosen cell.
pub fn optimize<C: OpCost>(
    graph: &Graph,
    mesh: MeshShape,
    config: ParallelConfig,
    cost: &C,
) -> IntraPlan {
    assert!(
        config.num_devices() <= mesh.num_devices(),
        "config {config:?} needs more devices than mesh {mesh:?}"
    );
    let mp = config.mp;
    let (mp_cross, dp_cross) = group_spans(mesh, config);
    let n = graph.len();
    // the collective turning `pred`'s output from `from` into `need`,
    // on per-device sharded bytes under dp
    let reshard = |pred: &Node, from: Sharding, need: Sharding| match from.reshard_to(need) {
        None => 0.0,
        Some((coll, frac)) => {
            let bytes = (pred.output_bytes() as f64 * frac / config.dp as f64) as u64;
            cost.collective_time(coll, bytes, mp, mp_cross)
        }
    };

    // Forward DP: a cell's cost is its op time plus, per operand, the
    // cheapest operand cell amortized over its fan-out plus the reshard
    // into the layout this strategy reads.
    let per_node = if mp == 1 { 1 } else { MAX_STRATEGIES };
    let mut cells: Vec<Cell> = Vec::with_capacity(n * per_node);
    let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
    for node in graph.nodes() {
        offsets.push(cells.len());
        let preds = graph.preds(node.id);
        let (opts, len) = strategies(node, mp);
        for &(strat, ways) in &opts[..len] {
            // dp divides the batch dimension of every operator's work
            let op_time = cost.op_time(node, preds.len(), ways * config.dp);
            let mut c = op_time;
            let need = required_input(node, strat);
            for &p in preds {
                let pred = graph.node(p);
                let fan = graph.succs(p).len().max(1) as f64;
                let mut best = f64::INFINITY;
                for pc in &cells[offsets[p.index()]..offsets[p.index() + 1]] {
                    best = best.min(pc.cost / fan + reshard(pred, pc.strat, need));
                }
                c += best;
            }
            cells.push(Cell {
                strat,
                cost: c,
                op_time,
            });
        }
    }
    offsets.push(cells.len());

    // Extract the chosen cell per node by a greedy backward walk:
    // outputs pick their argmin; predecessors pick the cell that
    // minimized each consumer's cost (ties resolved toward the first
    // winner found; deterministic).
    let mut chosen: Vec<Option<usize>> = vec![None; n];
    for v in (0..n).rev() {
        let node = &graph.nodes()[v];
        // unconstrained (an output or a node whose consumers didn't
        // constrain it yet): take its own argmin
        let own = *chosen[v].get_or_insert_with(|| {
            let (i, _) = cells[offsets[v]..offsets[v + 1]]
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
                .expect("non-empty strategy table");
            offsets[v] + i
        });
        let need = required_input(node, cells[own].strat);
        for &p in graph.preds(node.id) {
            if chosen[p.index()].is_some() {
                continue;
            }
            let pred = graph.node(p);
            let first = offsets[p.index()];
            // the first cell (Replicated) when no cost is below infinity
            let mut best = (first, f64::INFINITY);
            for (i, pc) in cells[first..offsets[p.index() + 1]].iter().enumerate() {
                let c = pc.cost + reshard(pred, pc.strat, need);
                if c < best.1 {
                    best = (first + i, c);
                }
            }
            chosen[p.index()] = Some(best.0);
        }
    }
    let pick = |v: usize| cells[chosen[v].expect("every node is chosen")];

    // Cost the chosen assignment exactly (no fan-out amortization), with
    // the op times the DP took. A free hand-off adds +0.0, which changes
    // no bit of a sum that starts at +0.0 and so is never -0.0.
    let mut compute_time = 0.0;
    let mut comm_time = 0.0;
    for node in graph.nodes() {
        let cell = pick(node.id.index());
        compute_time += cell.op_time;
        let need = required_input(node, cell.strat);
        for &p in graph.preds(node.id) {
            comm_time += reshard(graph.node(p), pick(p.index()).strat, need);
        }
    }

    let grad_sync_time = if config.dp > 1 {
        cost.collective_time(
            Collective::AllReduce,
            param_bytes(graph),
            config.dp,
            dp_cross,
        )
    } else {
        0.0
    };

    let total = (compute_time + comm_time) * cost.train_factor() + grad_sync_time;
    IntraPlan {
        config,
        sharding: (0..n).map(|v| pick(v).strat).collect(),
        compute_time,
        comm_time,
        grad_sync_time,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table3_configs;
    use predtop_cluster::{GpuSpec, Platform};
    use predtop_ir::{DType, GraphBuilder};
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_sim::DeviceCostModel;
    use proptest::prelude::*;

    /// Synthetic cost model: compute = flops/ways, collectives = bytes
    /// (slow fabric) so the optimizer's trade-offs are visible.
    struct FakeCost {
        comm_per_byte: f64,
    }

    impl OpCost for FakeCost {
        fn op_time(&self, node: &Node, _operands: usize, ways: usize) -> f64 {
            let flops = match node.kind {
                NodeKind::Operator(OpKind::DotGeneral) => {
                    2.0 * node.attrs.contracted as f64 * node.shape.num_elements() as f64
                }
                NodeKind::Operator(_) => node.shape.num_elements() as f64,
                _ => 0.0,
            };
            flops / ways as f64 * 1e-9
        }

        fn collective_time(&self, _c: Collective, bytes: u64, group: usize, cross: bool) -> f64 {
            let penalty = if cross { 10.0 } else { 1.0 };
            if group <= 1 {
                0.0
            } else {
                bytes as f64 * self.comm_per_byte * penalty
            }
        }
    }

    /// The optimizer before its flat table, kept as the reference the
    /// pass must match bit for bit: a `Vec` of strategies and a table
    /// per node, and a second `op_time` per node in the final costing.
    fn strategies_ref(node: &Node, mp: usize) -> Vec<(Sharding, usize)> {
        if mp == 1 {
            return vec![(Sharding::Replicated, 1)];
        }
        match node.kind {
            NodeKind::Input | NodeKind::Literal | NodeKind::Output => vec![
                (Sharding::Replicated, 1),
                (Sharding::BatchSharded, 1),
                (Sharding::ColSharded, 1),
            ],
            NodeKind::Operator(OpKind::DotGeneral) => vec![
                (Sharding::Replicated, 1),
                (Sharding::ColSharded, mp),
                (Sharding::PartialSum, mp),
            ],
            NodeKind::Operator(_) => vec![
                (Sharding::Replicated, 1),
                (Sharding::BatchSharded, mp),
                (Sharding::ColSharded, mp),
            ],
        }
    }

    fn optimize_ref<C: OpCost>(
        graph: &Graph,
        mesh: MeshShape,
        config: ParallelConfig,
        cost: &C,
    ) -> IntraPlan {
        assert!(
            config.num_devices() <= mesh.num_devices(),
            "config {config:?} needs more devices than mesh {mesh:?}"
        );
        let mp = config.mp;
        let (mp_cross, dp_cross) = group_spans(mesh, config);
        let n = graph.len();

        // Per-node strategy tables. cost_table[v] holds (strategy,
        // accumulated cost) pairs; amortized by fan-out when consumed.
        let mut tables: Vec<Vec<(Sharding, f64)>> = Vec::with_capacity(n);
        // Separately track pure compute vs comm of the *chosen* plan by a
        // second backward pass; during the forward DP we track combined cost.
        for node in graph.nodes() {
            let preds = graph.preds(node.id);
            let opts = strategies_ref(node, mp);
            let mut table = Vec::with_capacity(opts.len());
            for (strat, ways) in opts {
                // dp divides the batch dimension of every operator's work
                let mut c = cost.op_time(node, preds.len(), ways * config.dp);
                let need = required_input(node, strat);
                for &p in preds {
                    let pred = graph.node(p);
                    let fan = graph.succs(p).len().max(1) as f64;
                    let mut best = f64::INFINITY;
                    for &(pstrat, pcost) in &tables[p.index()] {
                        let trans = match pstrat.reshard_to(need) {
                            None => 0.0,
                            Some((coll, frac)) => {
                                // per-device sharded bytes under dp
                                let bytes =
                                    (pred.output_bytes() as f64 * frac / config.dp as f64) as u64;
                                cost.collective_time(coll, bytes, mp, mp_cross)
                            }
                        };
                        best = best.min(pcost / fan + trans);
                    }
                    c += best;
                }
                table.push((strat, c));
            }
            tables.push(table);
        }

        // Extract the chosen strategy per node by a greedy backward walk:
        // outputs pick their argmin; predecessors pick the strategy that
        // minimized each consumer's cost (ties resolved toward the first
        // winner found; deterministic).
        let mut chosen: Vec<Option<Sharding>> = vec![None; n];
        for v in (0..n).rev() {
            let node = &graph.nodes()[v];
            if chosen[v].is_none() {
                // unconstrained (an output or a node whose consumers didn't
                // constrain it yet): take its own argmin
                let (s, _) = tables[v]
                    .iter()
                    .copied()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty strategy table");
                chosen[v] = Some(s);
            }
            let strat = chosen[v].unwrap();
            let need = required_input(node, strat);
            for &p in graph.preds(node.id) {
                if chosen[p.index()].is_some() {
                    continue;
                }
                let pred = graph.node(p);
                let mut best = (Sharding::Replicated, f64::INFINITY);
                for &(pstrat, pcost) in &tables[p.index()] {
                    let trans = match pstrat.reshard_to(need) {
                        None => 0.0,
                        Some((coll, frac)) => {
                            let bytes =
                                (pred.output_bytes() as f64 * frac / config.dp as f64) as u64;
                            cost.collective_time(coll, bytes, mp, mp_cross)
                        }
                    };
                    let c = pcost + trans;
                    if c < best.1 {
                        best = (pstrat, c);
                    }
                }
                chosen[p.index()] = Some(best.0);
            }
        }
        let sharding: Vec<Sharding> = chosen.into_iter().map(|s| s.unwrap()).collect();

        // Cost the chosen assignment exactly (no fan-out amortization).
        let mut compute_time = 0.0;
        let mut comm_time = 0.0;
        for node in graph.nodes() {
            let strat = sharding[node.id.index()];
            let ways = strategies_ref(node, mp)
                .into_iter()
                .find(|&(s, _)| s == strat)
                .map(|(_, w)| w)
                .unwrap_or(1);
            let preds = graph.preds(node.id);
            compute_time += cost.op_time(node, preds.len(), ways * config.dp);
            let need = required_input(node, strat);
            for &p in preds {
                let pred = graph.node(p);
                if let Some((coll, frac)) = sharding[p.index()].reshard_to(need) {
                    let bytes = (pred.output_bytes() as f64 * frac / config.dp as f64) as u64;
                    comm_time += cost.collective_time(coll, bytes, mp, mp_cross);
                }
            }
        }

        let grad_sync_time = if config.dp > 1 {
            cost.collective_time(
                Collective::AllReduce,
                param_bytes(graph),
                config.dp,
                dp_cross,
            )
        } else {
            0.0
        };

        let total = (compute_time + comm_time) * cost.train_factor() + grad_sync_time;
        IntraPlan {
            config,
            sharding,
            compute_time,
            comm_time,
            grad_sync_time,
            total,
        }
    }

    fn mlp_chain(layers: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let mut x = b.input([64, 128], DType::F32);
        for _ in 0..layers {
            let w = b.input([128, 128], DType::F32);
            x = b.dot(x, w, [64, 128], DType::F32, 128);
            x = b.unary(OpKind::Tanh, x);
        }
        b.finish(&[x]).unwrap()
    }

    #[test]
    fn serial_config_has_no_comm() {
        let g = mlp_chain(3);
        let cost = FakeCost {
            comm_per_byte: 1e-9,
        };
        let plan = optimize(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL, &cost);
        assert_eq!(plan.comm_time, 0.0);
        assert_eq!(plan.grad_sync_time, 0.0);
        assert!(plan.compute_time > 0.0);
        assert!((plan.total - plan.compute_time * 3.0).abs() < 1e-12);
    }

    #[test]
    fn cheap_comm_makes_mp_shard_everything() {
        let g = mlp_chain(3);
        let cost = FakeCost {
            comm_per_byte: 1e-15,
        };
        let serial = optimize(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL, &cost);
        let mp2 = optimize(&g, MeshShape::new(1, 2), ParallelConfig::new(1, 2), &cost);
        assert!(
            mp2.compute_time < serial.compute_time * 0.6,
            "mp2 {} vs serial {}",
            mp2.compute_time,
            serial.compute_time
        );
    }

    #[test]
    fn expensive_comm_keeps_plan_replicated() {
        let g = mlp_chain(2);
        let cost = FakeCost { comm_per_byte: 1.0 }; // absurdly slow fabric
        let plan = optimize(&g, MeshShape::new(1, 2), ParallelConfig::new(1, 2), &cost);
        // with no profitable sharding the optimizer must not pay comm
        assert_eq!(plan.comm_time, 0.0);
    }

    #[test]
    fn dp_pays_gradient_sync() {
        let g = mlp_chain(2);
        let cost = FakeCost {
            comm_per_byte: 1e-9,
        };
        let dp2 = optimize(&g, MeshShape::new(1, 2), ParallelConfig::new(2, 1), &cost);
        assert!(dp2.grad_sync_time > 0.0);
        // dp halves per-replica compute
        let serial = optimize(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL, &cost);
        assert!(dp2.compute_time < serial.compute_time);
    }

    #[test]
    fn cross_node_dp_pays_more() {
        let g = mlp_chain(2);
        let cost = FakeCost {
            comm_per_byte: 1e-9,
        };
        // dp=2 within one node vs dp=2 spanning two 1-GPU nodes
        let within = optimize(&g, MeshShape::new(1, 2), ParallelConfig::new(2, 1), &cost);
        let across = optimize(&g, MeshShape::new(2, 1), ParallelConfig::new(2, 1), &cost);
        assert!(across.grad_sync_time > within.grad_sync_time * 5.0);
    }

    #[test]
    fn param_bytes_excludes_activation() {
        let g = mlp_chain(2);
        // node 0 is the [64,128] activation; 2 weights of 128*128*4 bytes
        assert_eq!(param_bytes(&g), 2 * 128 * 128 * 4);
    }

    #[test]
    #[should_panic(expected = "needs more devices")]
    fn oversubscribed_config_panics() {
        let g = mlp_chain(1);
        let cost = FakeCost {
            comm_per_byte: 1e-9,
        };
        let _ = optimize(&g, MeshShape::new(1, 1), ParallelConfig::new(2, 2), &cost);
    }

    /// The simulator's cost model. The simulator links this crate's
    /// library, not this test build, so the model implements the
    /// library's copy of [`OpCost`]; this forwards to it.
    struct Device(predtop_sim::DeviceCostModel);

    impl OpCost for Device {
        fn op_time(&self, node: &Node, operands: usize, ways: usize) -> f64 {
            predtop_sim::opcost::OpCost::op_time(&self.0, node, operands, ways)
        }

        fn collective_time(&self, c: Collective, bytes: u64, group: usize, cross: bool) -> f64 {
            predtop_sim::opcost::OpCost::collective_time(&self.0, c, bytes, group, cross)
        }

        fn train_factor(&self) -> f64 {
            predtop_sim::opcost::OpCost::train_factor(&self.0)
        }
    }

    /// Random GPT-3 and MoE windows of small dimensions: models of 1–6
    /// layers, MoE with an expert layer every 1–3 layers, and any
    /// contiguous window of them (so some carry the embedding, the head,
    /// or both).
    fn arb_window() -> impl Strategy<Value = StageSpec> {
        (
            1usize..=6, // layers
            0usize..=3, // 0: GPT-3, else the MoE interleave
            0usize..=1, // heads and width selector
            0usize..=1, // sequence and vocabulary selector
            0usize..=1, // experts selector
            0usize..64, // window start seed
            0usize..64, // window length seed
        )
            .prop_map(|(layers, every, width, seq, experts, a, b)| {
                let mut m = if every == 0 {
                    ModelSpec::gpt3_1p3b(4)
                } else {
                    ModelSpec::moe_2p6b(4)
                };
                m.num_heads = [2, 4][width];
                m.hidden = m.num_heads * 4;
                m.seq_len = [8, 16][seq];
                m.vocab = [32, 48][seq];
                m.num_layers = layers;
                if let Some(moe) = m.moe.as_mut() {
                    moe.num_experts = [2, 4][experts];
                    moe.expert_hidden = 2 * m.hidden;
                    moe.every = every;
                }
                let start = a % layers;
                StageSpec::new(m, start, start + 1 + b % (layers - start))
            })
    }

    fn assert_same_plan(got: &IntraPlan, want: &IntraPlan, at: &str) {
        assert_eq!(got.sharding, want.sharding, "{at}");
        let bits = |p: &IntraPlan| {
            [p.compute_time, p.comm_time, p.grad_sync_time, p.total].map(f64::to_bits)
        };
        assert_eq!(bits(got), bits(want), "{at}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat-table pass gives the reference's plan, bit for bit,
        /// on every Table III config of the 1×1, 1×2, 2×1 and 2×2
        /// meshes, under the simulator's cost model at a random seed and
        /// under the synthetic one.
        #[test]
        fn prop_optimize_matches_the_reference(
            stage in arb_window(),
            seed in any::<u64>(),
            a40 in any::<bool>(),
            comm in 0usize..3,
        ) {
            let graph = stage.build_graph();
            let platform = Platform {
                gpu: if a40 { GpuSpec::a40() } else { GpuSpec::a5500() },
                ..Platform::platform2()
            };
            let fake = FakeCost {
                comm_per_byte: [1e-15, 1e-9, 1.0][comm],
            };
            for (nodes, gpus) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                let mesh = MeshShape::new(nodes, gpus);
                let device = Device(DeviceCostModel::new(&platform.mesh(nodes, gpus), seed));
                for config in table3_configs(mesh) {
                    let at = format!("{stage:?} on {mesh:?} under {config:?}");
                    assert_same_plan(
                        &optimize(&graph, mesh, config, &device),
                        &optimize_ref(&graph, mesh, config, &device),
                        &format!("{at}, seed {seed}"),
                    );
                    assert_same_plan(
                        &optimize(&graph, mesh, config, &fake),
                        &optimize_ref(&graph, mesh, config, &fake),
                        &format!("{at}, {} s/B", fake.comm_per_byte),
                    );
                }
            }
        }
    }
}
