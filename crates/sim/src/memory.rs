//! Per-device memory estimation for a stage under an intra-stage plan.
//!
//! The paper notes that "Alpa's inter-operator optimizer requires
//! substantial memory for large models like MoE" (§VIII-B) and that
//! memory pressure is what forces multi-device training in the first
//! place (§II-A). This module estimates the per-device bytes a stage
//! occupies under a chosen sharding assignment, using standard
//! mixed-precision accounting:
//!
//! * **parameters** — bf16 weights, sharded by the consuming
//!   contraction's strategy (column-/row-parallel weights live `1/mp`
//!   per device; data parallelism replicates them);
//! * **gradients** — same layout as the parameters;
//! * **optimizer state** — fp32 master copy + Adam's two moments
//!   (12 bytes per 2-byte parameter = 6× the parameter bytes);
//! * **activations** — every operator output retained for the backward
//!   pass, scaled by its layout's storage fraction and the data-parallel
//!   batch split.
//!
//! The estimate feeds [`fits_on`] so plan search can reject
//! out-of-memory configurations. [`MemorySummary`] applies the same
//! rules to the all-sharded assignment, the least memory any
//! assignment reaches, under every configuration of one graph: the
//! checked search's `P1401` lower bound (DESIGN.md §12). Its ceiling
//! reads only four byte sums ([`MemorySums`]), and [`PartSums`] adds
//! those up for any stage from its parts, so a ceiling that fits needs
//! no stage graph at all.

use std::cell::Cell;
use std::iter::Sum;
use std::ops::Add;

use predtop_cluster::GpuSpec;
use predtop_ir::{live, Graph, Node, NodeId, NodeKind, OpKind};
use predtop_models::layers::Emitter;
use predtop_models::{ModelSpec, StagePart, StageSpec};
use predtop_parallel::intra::IntraPlan;
use predtop_parallel::sharding::Sharding;
use predtop_parallel::ParallelConfig;

/// Byte breakdown of one device's memory for a stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimate {
    /// Parameter bytes resident per device.
    pub params: u64,
    /// Gradient bytes (same layout as parameters).
    pub grads: u64,
    /// Optimizer-state bytes (fp32 master + Adam moments).
    pub optimizer: u64,
    /// Retained activation bytes for one micro-batch.
    pub activations: u64,
}

impl MemoryEstimate {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.params + self.grads + self.optimizer + self.activations
    }

    /// Gradients laid out as the `params`, and the optimizer state
    /// [`OPTIMIZER_FACTOR`] times them.
    fn new(params: u64, activations: u64) -> MemoryEstimate {
        MemoryEstimate {
            params,
            grads: params,
            optimizer: OPTIMIZER_FACTOR * params,
            activations,
        }
    }
}

/// Ratio of optimizer-state bytes to parameter bytes under
/// mixed-precision Adam (fp32 master + m + v over bf16 storage).
pub const OPTIMIZER_FACTOR: u64 = 6;

/// Which term of the estimate a node's output buffer counts toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The stage's incoming activation (a non-embedding stage's float
    /// rank-2 node 0, mirroring `intra::param_bytes`): split `dp` ways.
    Incoming,
    /// An operator output: stored at its layout's fraction, split `dp`
    /// ways.
    Output,
    /// Any other float input: parameters, gradients and optimizer state.
    Weight,
    /// Non-float inputs, literals and output markers.
    Uncounted,
}

fn role(node: &Node) -> Role {
    match node.kind {
        NodeKind::Input if node.dtype.is_float() => {
            if node.id.index() == 0 && node.shape.rank() == 2 {
                Role::Incoming
            } else {
                Role::Weight
            }
        }
        NodeKind::Operator(_) => Role::Output,
        _ => Role::Uncounted,
    }
}

/// Is the weight `id` read by a contraction that `sharded` accepts? A
/// weight is sharded `1/mp` iff some consuming contraction runs column-
/// or row-parallel.
fn dot_reads(graph: &Graph, id: NodeId, sharded: impl Fn(NodeId) -> bool) -> bool {
    graph
        .succs(id)
        .iter()
        .any(|&s| graph.node(s).kind == NodeKind::Operator(OpKind::DotGeneral) && sharded(s))
}

/// Per-node activation bytes of `graph` under `plan`, indexed by
/// `NodeId`: the per-buffer terms whose sum is
/// [`estimate_stage_memory`]'s `activations` field. Parameter inputs
/// (and non-float bookkeeping nodes) contribute `0` — their bytes are
/// accounted in the `params`/`grads`/`optimizer` fields instead.
fn activation_profile(graph: &Graph, plan: &IntraPlan) -> Vec<u64> {
    let mp = plan.config.mp as u64;
    let dp = plan.config.dp as u64;
    graph
        .nodes()
        .iter()
        .map(|node| match role(node) {
            Role::Incoming => node.output_bytes() / dp,
            Role::Output => {
                let frac_num = match plan.sharding[node.id.index()] {
                    Sharding::Replicated | Sharding::PartialSum => mp,
                    Sharding::BatchSharded | Sharding::ColSharded => 1,
                };
                // storage_fraction = frac_num / mp; batch axis / dp
                node.output_bytes() * frac_num / mp / dp
            }
            Role::Weight | Role::Uncounted => 0,
        })
        .collect()
}

/// Estimate the per-device memory of `graph` under `plan`.
pub fn estimate_stage_memory(graph: &Graph, plan: &IntraPlan) -> MemoryEstimate {
    let mp = plan.config.mp as u64;
    let sharded = |s: NodeId| {
        matches!(
            plan.sharding[s.index()],
            Sharding::ColSharded | Sharding::PartialSum
        )
    };
    let params = graph
        .nodes()
        .iter()
        .filter(|node| role(node) == Role::Weight)
        .map(|node| {
            if dot_reads(graph, node.id, sharded) {
                node.output_bytes() / mp
            } else {
                node.output_bytes()
            }
        })
        .sum();
    MemoryEstimate::new(params, activation_profile(graph, plan).iter().sum())
}

/// One buffer of a [`MemorySummary`]: its full-size bytes, its role,
/// and the last schedule point it is resident at.
#[derive(Debug, Clone, Copy)]
struct Buffer {
    bytes: u64,
    end: u32,
    role: Role,
}

/// One walk's worth of a stage graph's memory facts: enough to bound
/// the graph under any configuration without walking it again.
///
/// The bound is [`estimate_stage_memory`] under the all-sharded
/// assignment (every operator column-sharded, so activations stored
/// `1/(mp·dp)` and every weight a contraction reads sharded `1/mp`),
/// the least memory any assignment reaches, with activations charged
/// at their peak resident set instead of their sum. Node ids are a
/// topological schedule, so buffer `j` is resident on exactly the
/// points `j..=end_j`: [`live::last_use`] for a transient buffer, the
/// last point for a retained one (it feeds the backward pass).
///
/// [`Self::estimate`] is the exact bound, one sweep per configuration;
/// [`MemorySums::upper_estimate`] on [`Self::sums`] is a
/// retain-everything ceiling on it, which decides "fits" without the
/// sweep whenever the ceiling fits.
#[derive(Debug)]
pub struct MemorySummary {
    /// One per node, in schedule order.
    buffers: Vec<Buffer>,
    /// The bytes of each float weight input a `DotGeneral` reads.
    dot_weights: Vec<u64>,
    /// The graph's four byte sums.
    sums: MemorySums,
    /// Exact sweeps run so far.
    sweeps: Cell<usize>,
}

/// One sweep's activation figures: the peak resident bytes, the first
/// point reaching it (0 when nothing is resident), and the
/// retain-everything sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationSweep {
    /// Peak resident bytes.
    pub peak: u64,
    /// First schedule point at the peak.
    pub at: usize,
    /// The sum over all buffers.
    pub sum: u64,
}

impl MemorySummary {
    /// Summarize `graph` in one walk.
    pub fn of(graph: &Graph) -> MemorySummary {
        let last = graph.len().saturating_sub(1);
        let mut summary = MemorySummary {
            buffers: Vec::with_capacity(graph.len()),
            dot_weights: Vec::new(),
            sums: MemorySums::default(),
            sweeps: Cell::new(0),
        };
        for node in graph.nodes() {
            let bytes = node.output_bytes();
            let role = role(node);
            if summary.sums.count(graph, node, role, bytes) {
                summary.dot_weights.push(bytes);
            }
            let end = if live::is_transient(graph, node.id) {
                live::last_use(graph, node.id).index()
            } else {
                last
            };
            summary.buffers.push(Buffer {
                bytes,
                end: end as u32,
                role,
            });
        }
        summary
    }

    /// The graph's four byte sums, which bound it from above under any
    /// configuration.
    pub fn sums(&self) -> &MemorySums {
        &self.sums
    }

    /// The exact bound under `config`: all-sharded parameters,
    /// gradients and optimizer state, and activations at their peak
    /// resident set.
    pub fn estimate(&self, config: ParallelConfig) -> MemoryEstimate {
        let mp = config.mp as u64;
        let sharded: u64 = self.dot_weights.iter().map(|&bytes| bytes / mp).sum();
        MemoryEstimate::new(sharded + self.sums.w_rest, self.sweep(config).peak)
    }

    /// The all-sharded activation sweep under `config`, one pass over
    /// the schedule that divides each buffer's bytes once.
    pub fn sweep(&self, config: ParallelConfig) -> ActivationSweep {
        self.sweeps.set(self.sweeps.get() + 1);
        let dp = config.dp as u64;
        let split = config.mp as u64 * dp;
        self.run(self.buffers.iter().map(|b| match b.role {
            Role::Incoming => b.bytes / dp,
            Role::Output => b.bytes / split,
            Role::Weight | Role::Uncounted => 0,
        }))
    }

    /// The same sweep under caller-given per-node `weights`: the peak
    /// and the first point reaching it.
    pub fn peak(&self, weights: &[u64]) -> (u64, usize) {
        assert_eq!(weights.len(), self.buffers.len(), "one weight per node");
        let sweep = self.run(weights.iter().copied());
        (sweep.peak, sweep.at)
    }

    /// How many exact sweeps [`Self::sweep`] (and so
    /// [`Self::estimate`]) has run on this summary.
    pub fn sweeps(&self) -> usize {
        self.sweeps.get()
    }

    /// Add each buffer's weight at its definition and free it after its
    /// end point; the running sum at each point is that point's
    /// resident bytes. A buffer's end is never before its definition, so
    /// its weight reaches `freed` before the point that frees it.
    fn run(&self, weights: impl Iterator<Item = u64>) -> ActivationSweep {
        let mut freed = vec![0u64; self.buffers.len()];
        let (mut resident, mut sum) = (0u64, 0u64);
        let (mut peak, mut at) = (0u64, 0usize);
        for (i, (buffer, w)) in self.buffers.iter().zip(weights).enumerate() {
            sum += w;
            resident += w;
            freed[buffer.end as usize] += w;
            if resident > peak {
                (peak, at) = (resident, i);
            }
            resident -= freed[i];
        }
        ActivationSweep { peak, at, sum }
    }
}

/// A stage graph's four byte sums, which bound its memory under any
/// configuration: the weight bytes a `DotGeneral` reads (`W_dot`), all
/// other weight bytes (`W_rest`), the operator output bytes (`S_op`)
/// and the incoming activation's bytes (`S_in`). Each node counts
/// toward at most one of them, so sums over disjoint node sets add up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemorySums {
    w_dot: u64,
    w_rest: u64,
    s_op: u64,
    s_in: u64,
}

impl MemorySums {
    /// Count `node` of `graph`, whose role is `role` and size `bytes`,
    /// toward its sum; `true` when it is a weight a contraction reads.
    #[inline]
    fn count(&mut self, graph: &Graph, node: &Node, role: Role, bytes: u64) -> bool {
        match role {
            Role::Incoming => self.s_in += bytes,
            Role::Output => self.s_op += bytes,
            // all-sharded: every contraction is column-sharded
            Role::Weight if dot_reads(graph, node.id, |_| true) => {
                self.w_dot += bytes;
                return true;
            }
            Role::Weight => self.w_rest += bytes,
            Role::Uncounted => {}
        }
        false
    }

    /// `U = 8·(⌊W_dot/mp⌋ + W_rest) + ⌊S_op/(mp·dp)⌋ + ⌊S_in/dp⌋` as an
    /// estimate: never below [`MemorySummary::estimate`]'s total,
    /// because a floor of a sum is at least the sum of the floors,
    /// `⌊⌊b/mp⌋/dp⌋ = ⌊b/(mp·dp)⌋`, and the peak never exceeds the sum.
    pub fn upper_estimate(&self, config: ParallelConfig) -> MemoryEstimate {
        let (mp, dp) = (config.mp as u64, config.dp as u64);
        MemoryEstimate::new(
            self.w_dot / mp + self.w_rest,
            self.s_op / (mp * dp) + self.s_in / dp,
        )
    }

    /// Does the ceiling under `config` fit `gpu` with `headroom_frac`
    /// kept free? When it does, so does the exact bound, and the
    /// verdict is "fits" with no graph walked; when it does not, only
    /// the exact bound can decide.
    pub fn ceiling_fits(&self, config: ParallelConfig, gpu: &GpuSpec, headroom_frac: f64) -> bool {
        fits_on(gpu, &self.upper_estimate(config), headroom_frac)
    }
}

impl Add for MemorySums {
    type Output = MemorySums;

    fn add(self, other: MemorySums) -> MemorySums {
        MemorySums {
            w_dot: self.w_dot + other.w_dot,
            w_rest: self.w_rest + other.w_rest,
            s_op: self.s_op + other.s_op,
            s_in: self.s_in + other.s_in,
        }
    }
}

impl Sum for MemorySums {
    fn sum<I: Iterator<Item = MemorySums>>(iter: I) -> MemorySums {
        iter.fold(MemorySums::default(), Add::add)
    }
}

/// The [`MemorySums`] of each part a model's stage graphs are built
/// from ([`StageSpec::parts`]), each part emitted once, so any stage's
/// sums are a sum of table entries with no stage graph built.
///
/// The sums add up exactly: `StageSpec::build_graph` concatenates its
/// parts, every weight is read only inside its own part, and the output
/// marker `finish` adds counts toward no sum. A layer or the head is
/// emitted after a one-node incoming input that is left out of its
/// sums, and a layer's part depends on its index only through
/// [`ModelSpec::is_moe_layer`], so one dense and one MoE entry serve
/// every layer.
#[derive(Debug)]
pub struct PartSums {
    model: ModelSpec,
    embedding: MemorySums,
    incoming: MemorySums,
    /// The dense and the MoE layer's sums, each when a layer of the
    /// model is of that kind.
    layers: [Option<MemorySums>; 2],
    head: MemorySums,
}

impl PartSums {
    /// Emit and tally every part of `model`'s stages.
    pub fn of(model: ModelSpec) -> PartSums {
        let layer = |moe: bool| {
            (0..model.num_layers)
                .find(|&i| model.is_moe_layer(i) == moe)
                .map(|i| part_sums(model, StagePart::Layer(i)))
        };
        PartSums {
            model,
            embedding: part_sums(model, StagePart::Embedding),
            incoming: part_sums(model, StagePart::Incoming),
            layers: [layer(false), layer(true)],
            head: part_sums(model, StagePart::Head),
        }
    }

    /// The sums of `stage`'s graph: those of its parts, added up.
    ///
    /// # Panics
    /// Panics when `stage` slices a model other than the table's.
    pub fn sums(&self, stage: &StageSpec) -> MemorySums {
        assert_eq!(
            stage.model, self.model,
            "a part table sums its own model's stages"
        );
        stage
            .parts()
            .map(|part| match part {
                StagePart::Embedding => self.embedding,
                StagePart::Incoming => self.incoming,
                StagePart::Layer(i) => self.layers[usize::from(self.model.is_moe_layer(i))]
                    .expect("the table holds every layer kind of its model"),
                StagePart::Head => self.head,
            })
            .sum()
    }
}

/// `part` of `model`, emitted alone and tallied with the summary's
/// rules: a layer or the head reads a one-node incoming input, emitted
/// first and left out of the tally.
fn part_sums(model: ModelSpec, part: StagePart) -> MemorySums {
    let mut e = Emitter::new(model);
    let x = matches!(part, StagePart::Layer(_) | StagePart::Head)
        .then(|| StagePart::Incoming.emit(&mut e, None));
    let first = e.b.len();
    let out = part.emit(&mut e, x);
    let graph = e.finish(&[out]);
    let mut sums = MemorySums::default();
    for node in &graph.nodes()[first..] {
        sums.count(&graph, node, role(node), node.output_bytes());
    }
    sums
}

/// Does the estimate fit in one `gpu`, leaving `headroom_frac` of the
/// capacity for workspace/fragmentation (0.1 = keep 10% free)?
pub fn fits_on(gpu: &GpuSpec, est: &MemoryEstimate, headroom_frac: f64) -> bool {
    assert!((0.0..1.0).contains(&headroom_frac));
    let budget = (gpu.memory_bytes() as f64 * (1.0 - headroom_frac)) as u64;
    est.total() <= budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcost::DeviceCostModel;
    use predtop_cluster::Platform;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{intra, MeshShape, ParallelConfig};

    fn stage_graph(layers: usize) -> Graph {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.seq_len = 64;
        m.hidden = 128;
        m.num_heads = 8;
        m.vocab = 512;
        m.num_layers = 8;
        StageSpec::new(m, 1, 1 + layers).build_graph()
    }

    fn plan_for(graph: &Graph, mesh: MeshShape, config: ParallelConfig) -> IntraPlan {
        let platform = Platform::platform1();
        let cost = DeviceCostModel::new(&platform.mesh(mesh.nodes, mesh.gpus_per_node), 1);
        intra::optimize(graph, mesh, config, &cost)
    }

    #[test]
    fn serial_memory_accounts_everything() {
        let g = stage_graph(2);
        let plan = plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let est = estimate_stage_memory(&g, &plan);
        assert!(est.params > 0);
        assert_eq!(est.grads, est.params);
        assert_eq!(est.optimizer, 6 * est.params);
        assert!(est.activations > 0);
        // serial params = raw param bytes
        assert_eq!(est.params, predtop_parallel::intra::param_bytes(&g));
    }

    #[test]
    fn dp_shrinks_activations_not_params() {
        let g = stage_graph(2);
        let serial = estimate_stage_memory(
            &g,
            &plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL),
        );
        let dp2 = estimate_stage_memory(
            &g,
            &plan_for(&g, MeshShape::new(1, 2), ParallelConfig::new(2, 1)),
        );
        assert_eq!(dp2.params, serial.params, "DP replicates weights");
        assert!(dp2.activations < serial.activations, "DP splits the batch");
    }

    #[test]
    fn mp_shrinks_params_when_dots_shard() {
        let g = stage_graph(2);
        let serial = estimate_stage_memory(
            &g,
            &plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL),
        );
        let mp2_plan = plan_for(&g, MeshShape::new(1, 2), ParallelConfig::new(1, 2));
        let sharded_dots = g
            .nodes()
            .iter()
            .filter(|n| {
                n.kind == NodeKind::Operator(OpKind::DotGeneral)
                    && matches!(
                        mp2_plan.sharding[n.id.index()],
                        Sharding::ColSharded | Sharding::PartialSum
                    )
            })
            .count();
        let mp2 = estimate_stage_memory(&g, &mp2_plan);
        if sharded_dots > 0 {
            assert!(mp2.params < serial.params, "TP shards weights");
        } else {
            assert_eq!(mp2.params, serial.params);
        }
    }

    #[test]
    fn fits_on_respects_headroom() {
        let gpu = GpuSpec::a5500(); // 24 GiB
        let small = MemoryEstimate {
            params: 1 << 30,
            grads: 1 << 30,
            optimizer: 6 << 30,
            activations: 1 << 30,
        };
        assert!(fits_on(&gpu, &small, 0.1)); // 9 GiB in 21.6 GiB budget
        let big = MemoryEstimate {
            params: 4 << 30,
            grads: 4 << 30,
            optimizer: 24 << 30,
            activations: 4 << 30,
        };
        assert!(!fits_on(&gpu, &big, 0.1)); // 36 GiB > 24 GiB
    }

    #[test]
    fn activation_profile_sums_to_the_estimate() {
        let g = stage_graph(3);
        for (mesh, config) in [
            (MeshShape::new(1, 1), ParallelConfig::SERIAL),
            (MeshShape::new(1, 2), ParallelConfig::new(2, 1)),
            (MeshShape::new(1, 2), ParallelConfig::new(1, 2)),
        ] {
            let plan = plan_for(&g, mesh, config);
            let profile = activation_profile(&g, &plan);
            assert_eq!(profile.len(), g.len());
            let est = estimate_stage_memory(&g, &plan);
            assert_eq!(profile.iter().sum::<u64>(), est.activations);
            // weight inputs never contribute activation bytes
            for n in g.nodes() {
                if n.kind == NodeKind::Input && n.id.index() != 0 {
                    assert_eq!(profile[n.id.index()], 0, "weight {:?}", n.id);
                }
            }
        }
    }

    #[test]
    fn table4_gpt3_needs_multiple_devices() {
        // the actual 1.3B-parameter model: one layer's slice fits, but
        // the full 24-layer model with optimizer state exceeds one A5500
        let model = ModelSpec::gpt3_1p3b(1);
        let g = StageSpec::new(model, 0, 24).build_graph();
        let plan = plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let est = estimate_stage_memory(&g, &plan);
        // 1.3B params × 2 bytes × 8 (w+g+opt) ≈ 21 GB + activations
        assert!(
            !fits_on(&GpuSpec::a5500(), &est, 0.1),
            "full GPT-3 1.3B should not fit one 24 GiB GPU: {} GiB",
            est.total() >> 30
        );
    }
}
